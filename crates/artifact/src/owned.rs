//! An owning, shareable artifact container for serving processes.
//!
//! [`ArtifactReader`] borrows the caller's byte buffer, which is the right
//! shape for a one-shot load but forces every holder to thread the
//! buffer's lifetime around. A serving process wants
//! the opposite: read the artifact file **once**, park the bytes behind an
//! [`Arc`], and let any number of pool workers slice sections out of the
//! same allocation for as long as they like. [`OwnedArtifact`] is that
//! container: it parses the section index up front (reusing the borrowing
//! reader, so validation is identical — magic, version, per-section
//! checksums) but stores byte *ranges* instead of slices, making the type
//! self-contained and `Clone` a cheap `Arc` bump that never copies the
//! payload.
//!
//! ```
//! use phishinghook_artifact::{ArtifactWriter, OwnedArtifact};
//!
//! # fn main() -> Result<(), phishinghook_artifact::ArtifactError> {
//! let mut w = ArtifactWriter::new();
//! w.section("meta", b"hello".to_vec());
//! let artifact = OwnedArtifact::from_vec(w.into_bytes())?;
//! let shared = artifact.clone(); // same allocation, no copy
//! assert_eq!(artifact.section("meta")?, b"hello");
//! assert!(std::ptr::eq(
//!     artifact.section("meta")?.as_ptr(),
//!     shared.section("meta")?.as_ptr()
//! ));
//! # Ok(())
//! # }
//! ```

use crate::container::ArtifactReader;
use crate::error::ArtifactError;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// A parsed artifact that owns its bytes: one buffer, shared by every
/// clone, with sections exposed as zero-copy slices into it.
#[derive(Debug, Clone)]
pub struct OwnedArtifact {
    bytes: Arc<Vec<u8>>,
    sections: Vec<(String, Range<usize>)>,
}

impl OwnedArtifact {
    /// Reads and parses an artifact file with exactly one buffer
    /// allocation: the `std::fs::read` result itself becomes the shared
    /// backing store, never re-copied.
    ///
    /// # Errors
    ///
    /// I/O failures plus everything
    /// [`ArtifactReader::from_bytes`] rejects.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        OwnedArtifact::from_vec(std::fs::read(path)?)
    }

    /// Takes ownership of already-loaded artifact bytes (moved, not
    /// copied) and parses the section index.
    ///
    /// # Errors
    ///
    /// Everything [`ArtifactReader::from_bytes`] rejects: bad magic,
    /// unsupported version, truncation, checksum mismatches.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, ArtifactError> {
        OwnedArtifact::from_arc(Arc::new(bytes))
    }

    /// Parses an artifact already behind an `Arc` (e.g. a buffer another
    /// subsystem also holds). The clone is of the `Arc`, not the bytes.
    ///
    /// # Errors
    ///
    /// Everything [`ArtifactReader::from_bytes`] rejects.
    pub fn from_arc(bytes: Arc<Vec<u8>>) -> Result<Self, ArtifactError> {
        // Parse through the borrowing reader so the two paths can never
        // drift in what they accept, then convert its borrowed slices to
        // ranges within the shared buffer.
        let base = bytes.as_ptr() as usize;
        let sections = ArtifactReader::from_bytes(&bytes)?
            .into_sections()
            .into_iter()
            .map(|(name, payload)| {
                let start = payload.as_ptr() as usize - base;
                (name, start..start + payload.len())
            })
            .collect();
        Ok(OwnedArtifact { bytes, sections })
    }

    /// Section names, in container order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// A required section's payload — a slice into the shared buffer.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<&[u8], ArtifactError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| &self.bytes[r.clone()])
            .ok_or_else(|| ArtifactError::MissingSection(name.to_string()))
    }

    /// The shared backing buffer (the whole serialized container).
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// Number of live handles (clones) on the backing buffer.
    pub fn buffer_refs(&self) -> usize {
        Arc::strong_count(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ArtifactWriter;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.section("meta", b"hello".to_vec());
        w.section("model", vec![7u8; 64]);
        w.into_bytes()
    }

    #[test]
    fn sections_are_slices_into_the_shared_buffer() {
        let bytes = sample();
        let artifact = OwnedArtifact::from_vec(bytes.clone()).unwrap();
        assert_eq!(artifact.section_names(), vec!["meta", "model"]);
        assert_eq!(artifact.section("meta").unwrap(), b"hello");

        // The payload slice lives inside the one backing allocation.
        let buf = artifact.bytes().as_ptr() as usize;
        let payload = artifact.section("model").unwrap().as_ptr() as usize;
        assert!(payload > buf && payload < buf + bytes.len());

        assert!(matches!(
            artifact.section("absent"),
            Err(ArtifactError::MissingSection(_))
        ));
    }

    #[test]
    fn clones_share_one_allocation() {
        let artifact = OwnedArtifact::from_vec(sample()).unwrap();
        assert_eq!(artifact.buffer_refs(), 1);
        let shared = artifact.clone();
        assert_eq!(artifact.buffer_refs(), 2);
        assert!(std::ptr::eq(
            artifact.section("meta").unwrap().as_ptr(),
            shared.section("meta").unwrap().as_ptr()
        ));
    }

    #[test]
    fn rejects_exactly_what_the_borrowing_reader_rejects() {
        let bytes = sample();
        for cut in [0, 3, 7, bytes.len() - 1] {
            assert!(OwnedArtifact::from_vec(bytes[..cut].to_vec()).is_err());
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            OwnedArtifact::from_vec(flipped),
            Err(ArtifactError::Checksum(_))
        ));
    }

    #[test]
    fn open_reads_a_file_once() {
        let path = std::env::temp_dir().join(format!("phk_owned_{}.phk", std::process::id()));
        std::fs::write(&path, sample()).unwrap();
        let artifact = OwnedArtifact::open(&path).unwrap();
        assert_eq!(artifact.section("meta").unwrap(), b"hello");
        std::fs::remove_file(&path).ok();
    }
}
