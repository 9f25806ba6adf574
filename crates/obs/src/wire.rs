//! The byte codec every binary wire format of the workspace is built on.
//!
//! All multi-byte fields are big-endian; an `f64` travels as its IEEE-754
//! bits. A length prefix is a `u32`, and [`Reader::len`] checks the
//! promised entries against the bytes actually left *before* the caller
//! allocates, so a hostile prefix cannot trigger a huge allocation. Every
//! format ends its decode with [`Reader::finish`], which rejects trailing
//! bytes.
//!
//! Formats keep their own public error types and map [`WireError`] into
//! them with one `From` impl each.

use std::fmt;

/// Why a read failed. Every variant carries the byte offset it failed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A field starting at `at` runs past the end of the bytes.
    Truncated {
        /// Offset of the field.
        at: usize,
    },
    /// The length prefix at `at` promises more entries than the bytes left
    /// could hold.
    BadLength {
        /// Offset of the length prefix.
        at: usize,
        /// Entries promised.
        promised: usize,
        /// Entries the bytes after the prefix could hold.
        possible: usize,
    },
    /// Bytes are left over after a complete message ending at `at`.
    Trailing {
        /// Offset where the message ended.
        at: usize,
        /// Bytes left over.
        left: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "truncated at byte {at}"),
            WireError::BadLength {
                at,
                promised,
                possible,
            } => write!(
                f,
                "length {promised} at byte {at} promised, at most {possible} possible"
            ),
            WireError::Trailing { at, left } => write!(f, "{left} trailing bytes at byte {at}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Bounds-checked big-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated { at: self.at });
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// An `f64` from its big-endian IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` length prefix of entries at least `entry_size` bytes each,
    /// rejected unless that many entries fit in the bytes left.
    pub fn len(&mut self, entry_size: usize) -> Result<usize, WireError> {
        let at = self.at;
        let promised = self.u32()? as usize;
        let possible = self.remaining() / entry_size.max(1);
        if promised > possible {
            return Err(WireError::BadLength {
                at,
                promised,
                possible,
            });
        }
        Ok(promised)
    }

    /// A byte string behind a `u32` length prefix.
    pub fn prefixed(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len(1)?;
        self.bytes(n)
    }

    /// Ends the message: every byte must have been read.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(WireError::Trailing { at: self.at, left }),
        }
    }
}

/// Big-endian writes onto a byte buffer, the inverse of [`Reader`].
pub trait Writer {
    /// One byte.
    fn put_u8(&mut self, v: u8);
    /// A big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// A big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// A big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// An `f64` as its big-endian IEEE-754 bits.
    fn put_f64(&mut self, v: f64);
    /// A `u32` length prefix.
    ///
    /// # Panics
    ///
    /// Panics when `len` does not fit a `u32`.
    fn put_len(&mut self, len: usize);
    /// A byte string behind a `u32` length prefix.
    fn put_prefixed(&mut self, bytes: &[u8]);
}

impl Writer for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_len(&mut self, len: usize) {
        self.put_u32(u32::try_from(len).expect("length fits u32"));
    }

    fn put_prefixed(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_roundtrips_big_endian() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16(0x0102);
        buf.put_u32(0x0304_0506);
        buf.put_u64(0x0708_090A_0B0C_0D0E);
        buf.put_f64(-2.5);
        buf.put_prefixed(b"xyz");
        assert_eq!(&buf[..7], &[0xAB, 1, 2, 3, 4, 5, 6]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.f64(), Ok(-2.5));
        assert_eq!(r.prefixed(), Ok(&b"xyz"[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncation_reports_the_field_offset() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u64(), Err(WireError::Truncated { at: 1 }));
        assert_eq!(r.array::<4>(), Ok([2, 3, 4, 5]));
        assert_eq!(r.u8(), Err(WireError::Truncated { at: 5 }));
        assert_eq!(Reader::new(&[]).u16(), Err(WireError::Truncated { at: 0 }));
    }

    #[test]
    fn len_rejects_hostile_prefixes_before_allocation() {
        let mut buf = vec![9];
        buf.put_u32(u32::MAX);
        buf.extend_from_slice(&[0; 16]);
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(
            r.len(1),
            Err(WireError::BadLength {
                at: 1,
                promised: u32::MAX as usize,
                possible: 16,
            })
        );
        // Exactly enough bytes is accepted; one entry more is not.
        let mut buf = Vec::new();
        buf.put_len(2);
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&buf).len(4), Ok(2));
        assert_eq!(
            Reader::new(&buf).len(5),
            Err(WireError::BadLength {
                at: 0,
                promised: 2,
                possible: 1,
            })
        );
        // A prefixed string longer than the buffer fails on its length.
        let mut buf = Vec::new();
        buf.put_u32(4);
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            Reader::new(&buf).prefixed(),
            Err(WireError::BadLength { promised: 4, .. })
        ));
    }

    #[test]
    fn finish_rejects_leftovers() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing { at: 1, left: 2 }));
        assert_eq!(Reader::new(&[]).finish(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "length fits u32")]
    fn put_len_panics_past_u32() {
        Vec::new().put_len(u32::MAX as usize + 1);
    }
}
