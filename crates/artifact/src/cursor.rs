//! Primitive byte cursors: explicit little-endian writes, checked reads.
//!
//! [`ByteWriter`] appends to an owned buffer and cannot fail;
//! [`ByteReader`] walks a borrowed slice and returns
//! [`ArtifactError::Corrupt`] the moment a read runs past the end, which
//! is what turns a truncated artifact into a typed load error instead of a
//! panic. Variable-length fields (strings, slices) are length-prefixed —
//! `u32` for strings, `u64` for element counts — so payloads are
//! self-delimiting without any escape machinery.

use crate::error::ArtifactError;

/// Growing little-endian byte sink.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrowed view of the buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the on-disk form is width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` by bit pattern (exact round trip, NaN included).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with no prefix (caller knows the length).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u64`-count-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64`-count-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a `u64`-count-prefixed `f32` slice (bit-exact).
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f32(v);
        }
    }
}

/// Checked little-endian cursor over a borrowed payload.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless the payload was consumed exactly — the guard each
    /// fixed-schema decoder runs last, so trailing garbage is rejected.
    pub fn expect_exhausted(&self, what: &str) -> Result<(), ArtifactError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(ArtifactError::Corrupt(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Corrupt(format!(
                "unexpected end of payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and checks it fits a `usize` (32-bit hosts).
    pub fn take_usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Corrupt(format!("count {v} overflows usize")))
    }

    /// Reads an `f32` by bit pattern.
    pub fn take_f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Reads an `f64` by bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, ArtifactError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Corrupt("string field is not UTF-8".into()))
    }

    /// Reads a `u64`-count-prefixed byte slice.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], ArtifactError> {
        let len = self.take_count(1)?;
        self.take(len)
    }

    /// Reads a `u64`-count-prefixed `u32` slice.
    pub fn take_u32_slice(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let len = self.take_count(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_u32()?);
        }
        Ok(out)
    }

    /// Reads a `u64`-count-prefixed `f32` slice (bit-exact).
    pub fn take_f32_slice(&mut self) -> Result<Vec<f32>, ArtifactError> {
        let len = self.take_count(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_f32()?);
        }
        Ok(out)
    }

    /// Reads a `u64` element count and bounds it by the bytes actually
    /// left (each element occupies at least `min_elem_bytes` on the wire),
    /// so a corrupted or crafted count can never drive an absurd
    /// pre-allocation. The slice readers use it internally; domain
    /// decoders with their own count-prefixed lists should reuse it
    /// rather than re-deriving the bound.
    pub fn take_count(&mut self, min_elem_bytes: usize) -> Result<usize, ArtifactError> {
        let len = self.take_usize()?;
        self.check_count(len, min_elem_bytes)?;
        Ok(len)
    }

    /// [`ByteReader::take_count`] for a `u32`-prefixed list.
    pub fn take_count_u32(&mut self, min_elem_bytes: usize) -> Result<usize, ArtifactError> {
        let len = self.take_u32()? as usize;
        self.check_count(len, min_elem_bytes)?;
        Ok(len)
    }

    fn check_count(&self, len: usize, min_elem_bytes: usize) -> Result<(), ArtifactError> {
        if len
            .checked_mul(min_elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(ArtifactError::Corrupt(format!(
                "count {len} exceeds the {} bytes left in the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_usize(99);
        w.put_f32(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_str("opcode");
        w.put_bytes(&[1, 2, 3]);
        w.put_u32_slice(&[4, 5]);
        w.put_f32_slice(&[f32::NAN, 1.5]);

        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u16().unwrap(), 300);
        assert_eq!(r.take_u32().unwrap(), 70_000);
        assert_eq!(r.take_u64().unwrap(), 1 << 40);
        assert_eq!(r.take_usize().unwrap(), 99);
        assert_eq!(r.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.take_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.take_str().unwrap(), "opcode");
        assert_eq!(r.take_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.take_u32_slice().unwrap(), vec![4, 5]);
        let fs = r.take_f32_slice().unwrap();
        assert!(fs[0].is_nan());
        assert_eq!(fs[1], 1.5);
        r.expect_exhausted("test payload").unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.take_u64(), Err(ArtifactError::Corrupt(_))));
    }

    #[test]
    fn lying_counts_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_f32_slice(), Err(ArtifactError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.take_u8().unwrap();
        assert!(matches!(
            r.expect_exhausted("unit"),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn non_utf8_string_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_str(), Err(ArtifactError::Corrupt(_))));
    }
}
