//! Where an encoding's bytes are: [`ByteSource`].
//!
//! Every decoder — [`crate::decode_tuple_at`], [`crate::decode_projected_at`],
//! [`crate::validate_at`] — and the header cursor behind
//! [`crate::Projection::byte_ranges_from_bytes`] read through this trait, so
//! one walk serves two shapes of input:
//!
//! * **one contiguous buffer** — any `AsRef<[u8]>` (`[u8]`, `Vec<u8>`, …),
//!   read by the slice code the decoders always ran, borrowed strings
//!   included;
//! * **[`Paged`]** — the content of a sequence of pieces (the pages a store
//!   holds an object on), cut every `stride` bytes or at explicit starts. A
//!   value is read in place from the piece that holds it and assembled only
//!   where it straddles two.
//!
//! Both answer every read with the same bytes or the same "past the end",
//! so a decode over either returns the same tuple or the same error.

use crate::{overhead, Nf2Error, Result};
use std::borrow::Cow;
use std::cell::Cell;

/// Random access to the bytes of an encoding. See the module docs.
pub trait ByteSource {
    /// Length of the content in bytes.
    fn byte_len(&self) -> usize;

    /// The `N` bytes at `at`, or `None` if they run past the end.
    fn array_at<const N: usize>(&self, at: usize) -> Option<[u8; N]>;

    /// The `STR` value at `at`, with [`crate::str_at`]'s checks and errors:
    /// borrowed where its bytes lie in one piece.
    fn str_value(&self, at: usize) -> Result<Cow<'_, str>>;

    /// [`Self::str_value`] into `out`, replacing what it held and reusing
    /// its storage. On an error `out`'s content is unspecified.
    fn str_into(&self, at: usize, out: &mut String) -> Result<()> {
        let value = self.str_value(at)?;
        out.clear();
        out.push_str(&value);
        Ok(())
    }
}

impl<T: AsRef<[u8]> + ?Sized> ByteSource for T {
    #[inline(always)]
    fn byte_len(&self) -> usize {
        self.as_ref().len()
    }

    #[inline(always)]
    fn array_at<const N: usize>(&self, at: usize) -> Option<[u8; N]> {
        (self.as_ref())
            .get(at..at.checked_add(N)?)
            .map(|s| s.try_into().expect("N-byte slice"))
    }

    #[inline(always)]
    fn str_value(&self, at: usize) -> Result<Cow<'_, str>> {
        crate::str_at(self.as_ref(), at).map(Cow::Borrowed)
    }
}

/// Content held in pieces: piece `i` holds the content bytes from its start
/// on, and together the pieces hold the content in order, without gaps.
///
/// A decode reads mostly forward, so the piece the last read found is kept
/// and asked first: a read inside it costs a subtraction more than a read
/// of a slice, and only a read past it looks the piece up.
#[derive(Clone, Debug)]
pub struct Paged<'a> {
    pieces: &'a [&'a [u8]],
    /// First content byte of each piece; `None`: piece `i` starts at
    /// `i · stride`.
    starts: Option<&'a [u32]>,
    stride: usize,
    len: usize,
    /// The first content byte of the piece the last read found, and the
    /// piece.
    last: Cell<(usize, &'a [u8])>,
}

impl<'a> Paged<'a> {
    /// Content cut every `stride` bytes: every piece but the last is
    /// `stride` bytes long.
    pub fn packed(pieces: &'a [&'a [u8]], stride: usize) -> Self {
        assert!(stride > 0, "a packed plan needs a stride");
        let len = pieces
            .last()
            .map_or(0, |last| (pieces.len() - 1) * stride + last.len());
        debug_assert!(pieces.iter().rev().skip(1).all(|p| p.len() == stride));
        Paged {
            pieces,
            starts: None,
            stride,
            len,
            last: Cell::new((0, pieces.first().copied().unwrap_or_default())),
        }
    }

    /// Content whose piece `i` begins at content byte `starts[i]`:
    /// `starts[0] == 0`, one start per piece, each piece reaching the next
    /// one's start.
    pub fn planned(pieces: &'a [&'a [u8]], starts: &'a [u32]) -> Self {
        assert_eq!(pieces.len(), starts.len(), "one start per piece");
        let len = starts.last().map_or(0, |&s| s as usize) + pieces.last().map_or(0, |p| p.len());
        debug_assert!(starts.first().is_none_or(|&s| s == 0));
        debug_assert!(starts
            .windows(2)
            .zip(pieces)
            .all(|(w, p)| w[0] as usize + p.len() == w[1] as usize));
        Paged {
            pieces,
            starts: Some(starts),
            stride: 0,
            len,
            last: Cell::new((0, pieces.first().copied().unwrap_or_default())),
        }
    }

    /// The piece holding content byte `at` (< `len`) and `at`'s offset in
    /// it; the piece becomes the one the next read asks first.
    fn locate(&self, at: usize) -> (usize, usize) {
        let (i, start) = match self.starts {
            None => (at / self.stride, at / self.stride * self.stride),
            Some(starts) => {
                let i = starts.partition_point(|&s| s as usize <= at) - 1;
                (i, starts[i] as usize)
            }
        };
        self.last.set((start, self.pieces[i]));
        (i, at - start)
    }

    /// The `n` bytes at `at` if they lie in the piece the last read found.
    #[inline(always)]
    fn in_last(&self, at: usize, n: usize) -> Option<&'a [u8]> {
        let (start, piece) = self.last.get();
        let off = at.checked_sub(start)?;
        piece.get(off..off.checked_add(n)?)
    }

    /// Copies content bytes `at..at + out.len()` (in bounds) into `out`,
    /// piece by piece.
    fn assemble(&self, at: usize, out: &mut [u8]) {
        let (mut i, mut off) = self.locate(at);
        let mut done = 0;
        while done < out.len() {
            let piece = &self.pieces[i][off..];
            let n = piece.len().min(out.len() - done);
            out[done..done + n].copy_from_slice(&piece[..n]);
            (done, i, off) = (done + n, i + 1, 0);
        }
    }

    /// The `len` content bytes at `at`: borrowed from the piece that holds
    /// them, or assembled where they straddle pieces; `None` past the end.
    #[inline]
    fn bytes(&self, at: usize, len: usize) -> Option<Cow<'a, [u8]>> {
        if at.checked_add(len)? > self.len {
            return None;
        }
        if let Some(s) = self.in_last(at, len) {
            return Some(Cow::Borrowed(s));
        }
        if len == 0 {
            return Some(Cow::Borrowed(&[]));
        }
        let (i, off) = self.locate(at);
        let pieces: &'a [&'a [u8]] = self.pieces;
        Some(match pieces[i].get(off..off + len) {
            Some(s) => Cow::Borrowed(s),
            None => {
                let mut v = vec![0; len];
                self.assemble(at, &mut v);
                Cow::Owned(v)
            }
        })
    }
}

impl ByteSource for Paged<'_> {
    #[inline]
    fn byte_len(&self) -> usize {
        self.len
    }

    #[inline]
    fn array_at<const N: usize>(&self, at: usize) -> Option<[u8; N]> {
        if let Some(s) = self.in_last(at, N) {
            return Some(s.try_into().expect("N-byte slice"));
        }
        if at.checked_add(N)? > self.len {
            return None;
        }
        let (i, off) = self.locate(at);
        if let Some(s) = self.pieces[i].get(off..off + N) {
            return Some(s.try_into().expect("N-byte slice"));
        }
        let mut out = [0u8; N];
        self.assemble(at, &mut out);
        Some(out)
    }

    #[inline]
    fn str_value(&self, at: usize) -> Result<Cow<'_, str>> {
        let len = crate::encode::get_u16(self, at)? as usize;
        let bytes = self
            .bytes(at.saturating_add(overhead::PER_STRING), len)
            .ok_or_else(|| truncated(at, len))?;
        let s = match bytes {
            Cow::Borrowed(b) => std::str::from_utf8(b).map(Cow::Borrowed),
            Cow::Owned(v) => String::from_utf8(v)
                .map(Cow::Owned)
                .map_err(|e| e.utf8_error()),
        };
        s.map_err(|e| invalid_utf8(at, e))
    }

    /// A value that straddles pieces is assembled in `out`'s storage, not
    /// in a fresh buffer.
    fn str_into(&self, at: usize, out: &mut String) -> Result<()> {
        let len = crate::encode::get_u16(self, at)? as usize;
        let body = at.saturating_add(overhead::PER_STRING);
        if body.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(truncated(at, len));
        }
        let mut bytes = std::mem::take(out).into_bytes();
        bytes.clear();
        match self.in_last(body, len) {
            Some(s) => bytes.extend_from_slice(s),
            None if len == 0 => {}
            None => {
                bytes.resize(len, 0);
                self.assemble(body, &mut bytes);
            }
        }
        *out = String::from_utf8(bytes).map_err(|e| invalid_utf8(at, e.utf8_error()))?;
        Ok(())
    }
}

/// [`ByteSource::str_value`]'s error for a string of `len` bytes at `at`
/// that runs past the end.
fn truncated(at: usize, len: usize) -> Nf2Error {
    Nf2Error::Corrupt {
        offset: at,
        detail: format!("string of length {len} truncated"),
    }
}

/// [`ByteSource::str_value`]'s error for the string at `at` whose bytes are
/// not UTF-8.
fn invalid_utf8(at: usize, e: std::str::Utf8Error) -> Nf2Error {
    Nf2Error::Corrupt {
        offset: at + overhead::PER_STRING,
        detail: format!("invalid utf-8: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_across_pieces_is_assembled_and_one_past_the_end_is_none() {
        let content: Vec<u8> = (0..10).collect();
        let (a, b, c) = (&content[..4], &content[4..8], &content[8..]);
        let pieces = [a, b, c];
        let starts = [0, 4, 8];
        for paged in [Paged::packed(&pieces, 4), Paged::planned(&pieces, &starts)] {
            assert_eq!(paged.byte_len(), 10);
            for at in 0..=10 {
                assert_eq!(
                    paged.array_at::<4>(at),
                    content.array_at::<4>(at),
                    "at {at}"
                );
            }
            assert_eq!(paged.array_at::<2>(usize::MAX), None);
        }
    }
}
