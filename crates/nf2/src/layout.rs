use crate::{ByteSource, Nf2Error, Result};
use std::ops::Range;

/// Byte-range metadata for one encoded tuple.
///
/// A `TupleLayout` is the content of a DASDBS-style *object header*: it
/// records, for a stored object, which byte range of the encoded object each
/// attribute (and, recursively, each sub-tuple) occupies. The DASDBS storage
/// models keep this structure on dedicated header pages, "which allows
/// dedicated access to parts of a complex object" (paper §3.2): given a
/// [`crate::Projection`], the store computes the byte ranges it needs and
/// fetches only the data pages overlapping them.
///
/// All offsets are absolute within the encoded object's byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleLayout {
    /// First byte of the encoded tuple.
    pub start: u32,
    /// Encoded length in bytes.
    pub len: u32,
    /// Per-attribute layouts, in schema order.
    pub attrs: Vec<AttrLayout>,
}

/// Byte-range metadata for one attribute of an encoded tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrLayout {
    /// First byte of the encoded attribute value.
    pub start: u32,
    /// Encoded length in bytes.
    pub len: u32,
    /// Sub-tuple layouts; non-empty only for relation-valued attributes.
    pub tuples: Vec<TupleLayout>,
}

impl TupleLayout {
    /// The byte range of the whole encoded tuple.
    pub fn range(&self) -> Range<u32> {
        self.start..self.start + self.len
    }

    /// The byte range of the tuple's header + attribute offset table, i.e.
    /// the prefix that must always be read to interpret the tuple.
    pub fn header_range(&self) -> Range<u32> {
        let end = self
            .attrs
            .first()
            .map(|a| a.start)
            .unwrap_or(self.start + self.len);
        self.start..end
    }

    /// Serializes the layout for storage on an object-header page.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write(&mut out);
        out
    }

    /// Number of bytes [`TupleLayout::to_bytes`] produces.
    pub fn serialized_len(&self) -> usize {
        // start + len + attr count
        let mut n = 4 + 4 + 2;
        for a in &self.attrs {
            n += 4 + 4 + 4; // start + len + tuple count
            for t in &a.tuples {
                n += t.serialized_len();
            }
        }
        n
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.attrs.len() as u16).to_le_bytes());
        for a in &self.attrs {
            out.extend_from_slice(&a.start.to_le_bytes());
            out.extend_from_slice(&a.len.to_le_bytes());
            out.extend_from_slice(&(a.tuples.len() as u32).to_le_bytes());
            for t in &a.tuples {
                t.write(out);
            }
        }
    }

    /// Deserializes a layout previously produced by [`TupleLayout::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(Self::read(bytes, 0)?.0)
    }

    /// The tuple layout serialized at `pos`, and the offset past it.
    fn read(bytes: &[u8], pos: usize) -> Step<(Self, usize)> {
        let start = u32_at(bytes, pos)?;
        let len = u32_at(bytes, pos + 4)?;
        let (nattrs, mut pos) = attr_count_at(bytes, pos + 8)?;
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let a_start = u32_at(bytes, pos)?;
            let a_len = u32_at(bytes, pos + 4)?;
            let (ntuples, first_tuple) = tuple_count_at(bytes, pos + 8)?;
            pos = first_tuple;
            let mut tuples = Vec::with_capacity(ntuples);
            for _ in 0..ntuples {
                let (tuple, next) = Self::read(bytes, pos)?;
                tuples.push(tuple);
                pos = next;
            }
            attrs.push(AttrLayout {
                start: a_start,
                len: a_len,
                tuples,
            });
        }
        Ok((TupleLayout { start, len, attrs }, pos))
    }
}

impl AttrLayout {
    /// The byte range of the encoded attribute.
    pub fn range(&self) -> Range<u32> {
        self.start..self.start + self.len
    }
}

/// Serialized size of a tuple layout without attributes: start, len and
/// attribute count.
const MIN_TUPLE_BYTES: usize = 4 + 4 + 2;
/// Serialized size of an attribute layout without sub-tuples: start, len
/// and tuple count.
const MIN_ATTR_BYTES: usize = 4 + 4 + 4;

// The header cursor: reads over `TupleLayout::to_bytes` output, one buffer
// or the header pages in place (`ByteSource`) — what
// `TupleLayout::from_bytes` builds the tree with, and what
// `Projection::byte_ranges_from_bytes` walks without building it.
//
// It is one tight walk. The position is passed and returned by value, so
// it stays in a register. Every read, count and skip returns a `Step`: its
// fault is a small `Copy` value (the offset and what was being read), and
// the `Nf2Error` is built from it once, on the cold path, where the walk
// hands it to its caller. Each count is bounded by the bytes left
// before anything trusts it, and a skip reads every count it passes — it
// only does not descend into an attribute with no tuples — so the cursor
// refuses exactly the serializations the tree parser refuses, at the same
// offset with the same text.

/// Where and why the header cursor stopped.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fault {
    offset: usize,
    kind: FaultKind,
}

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    /// A value of this many bits runs past the end.
    Truncated(u8),
    /// A count larger than the bytes left can hold.
    Count(u32),
}

impl From<Fault> for Nf2Error {
    #[cold]
    #[inline(never)]
    fn from(fault: Fault) -> Self {
        let detail = match fault.kind {
            FaultKind::Truncated(bits) => format!("truncated layout (u{bits})"),
            FaultKind::Count(n) => format!("layout count {n} exceeds the remaining bytes"),
        };
        Nf2Error::Corrupt {
            offset: fault.offset,
            detail,
        }
    }
}

/// What a header cursor step gives: a value, or where and why it failed.
pub(crate) type Step<T> = std::result::Result<T, Fault>;

/// The `N` bytes at `at`.
#[inline(always)]
fn array_at<S: ByteSource + ?Sized, const N: usize>(bytes: &S, at: usize) -> Step<[u8; N]> {
    bytes.array_at(at).ok_or(Fault {
        offset: at,
        kind: FaultKind::Truncated(8 * N as u8),
    })
}

/// The `u32` at `at`: a start or a length.
#[inline(always)]
pub(crate) fn u32_at<S: ByteSource + ?Sized>(bytes: &S, at: usize) -> Step<u32> {
    array_at(bytes, at).map(u32::from_le_bytes)
}

/// The `u16` attribute count at `at` that ends a tuple's fixed part, and
/// the offset past it ([`bounded`]).
#[inline(always)]
pub(crate) fn attr_count_at<S: ByteSource + ?Sized>(bytes: &S, at: usize) -> Step<(usize, usize)> {
    let n = u16::from_le_bytes(array_at(bytes, at)?);
    bounded(bytes, n.into(), at + 2, MIN_ATTR_BYTES)
}

/// The `u32` tuple count at `at` that ends an attribute's fixed part, and
/// the offset past it ([`bounded`]).
#[inline(always)]
pub(crate) fn tuple_count_at<S: ByteSource + ?Sized>(bytes: &S, at: usize) -> Step<(usize, usize)> {
    let n = u32::from_le_bytes(array_at(bytes, at)?);
    bounded(bytes, n, at + 4, MIN_TUPLE_BYTES)
}

/// `(count, after)`, if the bytes from `after` on can hold `count` items of
/// at least `min_bytes` each — so a corrupt count is an error, never a
/// reservation.
#[inline(always)]
fn bounded<S: ByteSource + ?Sized>(
    bytes: &S,
    count: u32,
    after: usize,
    min_bytes: usize,
) -> Step<(usize, usize)> {
    // `count > left / min_bytes`, without the division.
    let left = bytes.byte_len().saturating_sub(after) as u64;
    if u64::from(count) * min_bytes as u64 > left {
        return Err(Fault {
            offset: after,
            kind: FaultKind::Count(count),
        });
    }
    Ok((count as usize, after))
}

// A read is bounds-checked before the position moves past it, and the walk
// steps at most 8 bytes past a checked read before the next one, so the
// position stays within 8 bytes of the end of the bytes and the additions
// cannot overflow.

/// The offset past `ntuples` serialized tuple layouts from `pos`.
pub(crate) fn skip_tuples<S: ByteSource + ?Sized>(
    bytes: &S,
    mut pos: usize,
    ntuples: usize,
) -> Step<usize> {
    for _ in 0..ntuples {
        let (nattrs, after) = attr_count_at(bytes, pos + 8)?; // past start + len
        pos = skip_attrs(bytes, after, nattrs)?;
    }
    Ok(pos)
}

/// The offset past `nattrs` serialized attribute layouts from `pos` (the
/// rest of a tuple whose fixed part has been read); an attribute with no
/// tuples is not descended into.
pub(crate) fn skip_attrs<S: ByteSource + ?Sized>(
    bytes: &S,
    mut pos: usize,
    nattrs: usize,
) -> Step<usize> {
    for _ in 0..nattrs {
        let (ntuples, after) = tuple_count_at(bytes, pos + 8)?; // past start + len
        pos = match ntuples {
            0 => after,
            n => skip_tuples(bytes, after, n)?,
        };
    }
    Ok(pos)
}

/// Merges overlapping or adjacent byte ranges into a minimal sorted set.
///
/// Used when translating a projection into the page set to fetch: adjacent
/// attribute ranges coalesce so contiguous regions become single multi-page
/// I/O calls, as in DASDBS. Merges in place: the result is the input
/// vector.
pub fn merge_ranges(mut ranges: Vec<Range<u32>>) -> Vec<Range<u32>> {
    ranges.retain(|r| r.end > r.start);
    ranges.sort_unstable_by_key(|r| (r.start, r.end));
    ranges.dedup_by(|r, last| {
        let joins = r.start <= last.end;
        if joins {
            last.end = last.end.max(r.end);
        }
        joins
    });
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layout() -> TupleLayout {
        TupleLayout {
            start: 0,
            len: 100,
            attrs: vec![
                AttrLayout {
                    start: 28,
                    len: 4,
                    tuples: vec![],
                },
                AttrLayout {
                    start: 32,
                    len: 68,
                    tuples: vec![TupleLayout {
                        start: 44,
                        len: 56,
                        attrs: vec![AttrLayout {
                            start: 72,
                            len: 28,
                            tuples: vec![],
                        }],
                    }],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let l = sample_layout();
        let bytes = l.to_bytes();
        assert_eq!(bytes.len(), l.serialized_len());
        assert_eq!(TupleLayout::from_bytes(&bytes).unwrap(), l);
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let bytes = sample_layout().to_bytes();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(TupleLayout::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn header_range_ends_at_first_attr() {
        let l = sample_layout();
        assert_eq!(l.header_range(), 0..28);
        let empty = TupleLayout {
            start: 4,
            len: 20,
            attrs: vec![],
        };
        assert_eq!(empty.header_range(), 4..24);
    }

    #[test]
    fn merge_ranges_coalesces() {
        assert_eq!(
            merge_ranges(vec![10..20, 0..10, 25..30, 19..22, 30..30]),
            vec![0..22, 25..30]
        );
        assert_eq!(merge_ranges(vec![]), Vec::<Range<u32>>::new());
    }
}
