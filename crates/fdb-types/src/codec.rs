//! Byte-level primitives of the binary codecs: the snapshot and the WAL
//! record payload.
//!
//! An encoded body is a flat byte string of unsigned integers (lengths,
//! counts, ids — little-endian base-128, low group first, so the small
//! numbers that dominate take one byte) and length-prefixed UTF-8
//! strings. Writers append to a `Vec<u8>`; the [`Reader`] is the only
//! decoder, and it never trusts a length it has read: every count is
//! checked against the bytes that remain before anything is allocated
//! for it, the way `MAX_PAYLOAD` bounds a WAL frame.
//!
//! The types that own the data ([`crate::Value`] here, tables and the NC
//! store in `fdb-storage`, the database and the log records in
//! `fdb-core`) each encode and decode their own private fields with
//! these.

use crate::error::{FdbError, Result};

/// Appends `v` as a little-endian base-128 integer (1–10 bytes).
pub fn put_uint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `s` as its byte length followed by its bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over encoded bytes. Every method fails — never panics — on
/// input that is cut short or malformed, naming the byte offset.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The error every decode failure is reported as; the caller that
    /// knows what was being decoded names it.
    pub fn error(&self, what: &str) -> FdbError {
        FdbError::Parse {
            line: 0,
            message: format!("{what} at byte {}", self.pos),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.error("unexpected end of input"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next byte.
    pub fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// An integer written by [`put_uint`].
    pub fn uint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let group = u64::from(b & 0x7F);
            if shift == 63 && group > 1 {
                break;
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.error("integer out of range"))
    }

    /// An element count: an integer that cannot exceed what the remaining
    /// bytes could hold at `min_item_bytes` per element, so the caller may
    /// allocate for it.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.uint()?;
        let room = (self.remaining() / min_item_bytes.max(1)) as u64;
        if n > room {
            return Err(self.error("count exceeds the remaining input"));
        }
        Ok(n as usize)
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.error("string is not UTF-8"))
    }

    /// Ends the decode: bytes left over are an error.
    pub fn finish(self) -> Result<()> {
        if self.remaining() > 0 {
            return Err(self.error("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_round_trips_at_every_width() {
        let mut samples = vec![0u64, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::MAX - 1, u64::MAX];
        samples.extend((0..64).map(|s| 1u64 << s));
        for v in samples {
            let mut out = Vec::new();
            put_uint(&mut out, v);
            assert!(out.len() <= 10);
            let mut r = Reader::new(&out);
            assert_eq!(r.uint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn malformed_integers_and_lengths_are_errors() {
        // Eleven continuation bytes, a tenth byte carrying more than the
        // one bit that is left, and an integer cut short.
        assert!(Reader::new(&[0xFF; 11]).uint().is_err());
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert!(Reader::new(&overflow).uint().is_err());
        assert!(Reader::new(&[0x80]).uint().is_err());
        // A count larger than the bytes behind it is refused before any
        // allocation could be sized by it.
        let mut out = Vec::new();
        put_uint(&mut out, 1 << 40);
        out.extend_from_slice(b"abc");
        assert!(Reader::new(&out).count(1).is_err());
        assert!(Reader::new(&out).str().is_err());
        let mut r = Reader::new(&[3, 0, 0, 0]);
        assert_eq!(r.count(1).unwrap(), 3);
        assert!(Reader::new(&[3, 0, 0, 0]).count(2).is_err());
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut out = Vec::new();
        put_str(&mut out, "");
        put_str(&mut out, "[ann; db]");
        put_str(&mut out, "naïve ☃");
        let mut r = Reader::new(&out);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "[ann; db]");
        assert_eq!(r.str().unwrap(), "naïve ☃");
        r.finish().unwrap();
        assert!(Reader::new(&[2, 0xC3, 0x28]).str().is_err());
        assert!(Reader::new(&[0, 0]).finish().is_err());
    }
}
