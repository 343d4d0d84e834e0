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
        Self::read(&mut LayoutReader::new(bytes))
    }

    fn read(r: &mut LayoutReader<[u8]>) -> Result<Self> {
        let start = r.u32()?;
        let len = r.u32()?;
        let nattrs = r.attr_count()?;
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let a_start = r.u32()?;
            let a_len = r.u32()?;
            let ntuples = r.tuple_count()?;
            let mut tuples = Vec::with_capacity(ntuples);
            for _ in 0..ntuples {
                tuples.push(Self::read(r)?);
            }
            attrs.push(AttrLayout {
                start: a_start,
                len: a_len,
                tuples,
            });
        }
        Ok(TupleLayout { start, len, attrs })
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

/// Sequential reader over [`TupleLayout::to_bytes`] output: what
/// [`TupleLayout::from_bytes`] builds the tree with, and what
/// [`crate::Projection::byte_ranges_from_bytes`] walks without building it,
/// over one buffer or over the header pages in place ([`ByteSource`]).
pub(crate) struct LayoutReader<'a, S: ByteSource + ?Sized> {
    bytes: &'a S,
    /// Offset of the next unread byte.
    pub(crate) pos: usize,
}

impl<'a, S: ByteSource + ?Sized> LayoutReader<'a, S> {
    pub(crate) fn new(bytes: &'a S) -> Self {
        LayoutReader { bytes, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self
            .bytes
            .array_at(self.pos)
            .ok_or_else(|| Nf2Error::Corrupt {
                offset: self.pos,
                detail: format!("truncated layout (u{})", 8 * N),
            })?;
        self.pos += N;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// The next `u32` without consuming it.
    pub(crate) fn peek_u32(&mut self) -> Result<u32> {
        let at = self.pos;
        let v = self.u32();
        self.pos = at;
        v
    }

    /// A count read from the bytes, bounded by how many items of at least
    /// `min_bytes` each the rest of the buffer can hold — so a corrupt
    /// count is an error, never a reservation.
    fn bounded(&self, count: usize, min_bytes: usize) -> Result<usize> {
        if count > self.bytes.byte_len().saturating_sub(self.pos) / min_bytes {
            return Err(Nf2Error::Corrupt {
                offset: self.pos,
                detail: format!("layout count {count} exceeds the remaining bytes"),
            });
        }
        Ok(count)
    }

    /// The attribute count that ends a tuple's fixed part.
    pub(crate) fn attr_count(&mut self) -> Result<usize> {
        let n = u16::from_le_bytes(self.take()?) as usize;
        self.bounded(n, MIN_ATTR_BYTES)
    }

    /// The sub-tuple count that ends an attribute's fixed part.
    pub(crate) fn tuple_count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        self.bounded(n, MIN_TUPLE_BYTES)
    }

    /// Advances past `ntuples` serialized tuple layouts, reading only
    /// their counts.
    pub(crate) fn skip_tuples(&mut self, ntuples: usize) -> Result<()> {
        for _ in 0..ntuples {
            self.pos = self.pos.saturating_add(8); // start + len
            let nattrs = self.attr_count()?;
            self.skip_attrs(nattrs)?;
        }
        Ok(())
    }

    /// Advances past `nattrs` serialized attribute layouts (the rest of a
    /// tuple whose fixed part has been read).
    pub(crate) fn skip_attrs(&mut self, nattrs: usize) -> Result<()> {
        for _ in 0..nattrs {
            self.pos = self.pos.saturating_add(8); // start + len
            let ntuples = self.tuple_count()?;
            self.skip_tuples(ntuples)?;
        }
        Ok(())
    }
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
