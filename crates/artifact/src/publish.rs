//! Atomic, generation-counted artifact publication — the hand-off seam
//! between a retrain loop and a live serving process.
//!
//! A publisher owns a directory of versioned artifacts named
//! `gen-<N>.phk` plus a `CURRENT` pointer file naming the live one. Both
//! are updated write-temp-then-rename, so any reader — another thread,
//! another process, a crashed-and-restarted daemon — sees either the old
//! complete artifact or the new complete artifact, never a torn write.
//! Generations are monotone; old generations are left in place (the
//! serving tier may still be scoring in-flight batches against them).
//!
//! # Examples
//!
//! ```
//! use phishinghook_artifact::publish::ArtifactPublisher;
//!
//! # fn main() -> Result<(), phishinghook_artifact::ArtifactError> {
//! let dir = std::env::temp_dir().join(format!("phk_pub_doc_{}", std::process::id()));
//! let mut publisher = ArtifactPublisher::open(&dir)?;
//! let published = publisher.publish(b"artifact bytes".to_vec())?;
//! assert_eq!(published.generation, 1);
//! let current = ArtifactPublisher::current(&dir)?.unwrap();
//! assert_eq!(std::fs::read(&current.path)?, b"artifact bytes");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::ArtifactError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the pointer file naming the live generation.
const CURRENT: &str = "CURRENT";

/// One published artifact: its generation number and on-disk path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedArtifact {
    /// Monotone generation number (1 is the first publish).
    pub generation: u64,
    /// Path of the immutable `gen-<N>.phk` file.
    pub path: PathBuf,
}

/// Publishes versioned artifacts into a directory, atomically.
#[derive(Debug)]
pub struct ArtifactPublisher {
    dir: PathBuf,
    next_generation: u64,
}

impl ArtifactPublisher {
    /// Opens (creating if needed) a publish directory, resuming the
    /// generation counter from the highest `gen-<N>.phk` already present —
    /// a restarted daemon keeps publishing monotonically.
    ///
    /// # Errors
    ///
    /// Any I/O failure, as [`ArtifactError::Io`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut latest = 0u64;
        for entry in fs::read_dir(&dir)? {
            if let Some(generation) = parse_generation(&entry?.file_name().to_string_lossy()) {
                latest = latest.max(generation);
            }
        }
        Ok(ArtifactPublisher {
            dir,
            next_generation: latest + 1,
        })
    }

    /// The publish directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The generation the next [`ArtifactPublisher::publish`] will assign.
    pub fn next_generation(&self) -> u64 {
        self.next_generation
    }

    /// Publishes `bytes` as the next generation: writes
    /// `gen-<N>.phk.tmp`, syncs, renames it to `gen-<N>.phk`, then swings
    /// the `CURRENT` pointer the same way, fsyncing the directory once
    /// after each rename so a crash immediately after publish cannot lose
    /// or tear the pointer. Readers racing this call see either the
    /// previous generation or the new one, complete. The new generation is
    /// visible from the `CURRENT` rename on, so a watcher may install it
    /// before this call returns.
    ///
    /// # Errors
    ///
    /// Any I/O failure, as [`ArtifactError::Io`].
    pub fn publish(&mut self, bytes: Vec<u8>) -> Result<PublishedArtifact, ArtifactError> {
        let generation = self.next_generation;
        let name = format!("gen-{generation}.phk");
        let path = self.dir.join(&name);
        // Injected crash windows: a publisher killed between the temp
        // write and either rename must leave readers on the previous
        // complete generation.
        write_atomically(&path, &bytes, Some("publish.gen_temp"))?;
        phishinghook_retry::crash_point("publish.gen_renamed");
        write_atomically(
            &self.dir.join(CURRENT),
            name.as_bytes(),
            Some("publish.current_temp"),
        )?;
        self.next_generation += 1;
        Ok(PublishedArtifact { generation, path })
    }

    /// Resolves the live generation of a publish directory via its
    /// `CURRENT` pointer; `Ok(None)` when nothing has been published yet.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] when the pointer names a file that does
    /// not exist or does not parse as a generation, plus any I/O failure.
    pub fn current(dir: impl AsRef<Path>) -> Result<Option<PublishedArtifact>, ArtifactError> {
        let dir = dir.as_ref();
        let pointer = dir.join(CURRENT);
        let name = match fs::read_to_string(&pointer) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let name = name.trim();
        let generation = parse_generation(name).ok_or_else(|| {
            ArtifactError::Corrupt(format!("CURRENT names \"{name}\", not a gen-<N>.phk file"))
        })?;
        let path = dir.join(name);
        if !path.is_file() {
            return Err(ArtifactError::Corrupt(format!(
                "CURRENT names missing artifact {name}"
            )));
        }
        Ok(Some(PublishedArtifact { generation, path }))
    }
}

/// Parses `gen-<N>.phk` into `N`.
fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?
        .strip_suffix(".phk")?
        .parse()
        .ok()
}

/// Write-temp + fsync + rename (+ directory fsync): the all-or-nothing
/// file update both the artifact files and the `CURRENT` pointer go
/// through. `crash_after_temp` names an injected crash window between the
/// synced temp write and the rename — the torn-publish state the watcher
/// layer must tolerate.
fn write_atomically(
    path: &Path,
    bytes: &[u8],
    crash_after_temp: Option<&str>,
) -> Result<(), ArtifactError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    if let Some(point) = crash_after_temp {
        phishinghook_retry::crash_point(point);
    }
    fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))?;
    Ok(())
}

/// Fsyncs a directory so a completed rename survives power loss. A no-op
/// on platforms where directories cannot be opened for syncing.
fn sync_dir(dir: &Path) -> Result<(), ArtifactError> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join("phk_publish_tests")
            .join(format!("{tag}_{}", std::process::id()))
    }

    #[test]
    fn generations_are_monotone_and_current_tracks_the_latest() {
        let dir = temp_dir("monotone");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        assert!(ArtifactPublisher::current(&dir).unwrap().is_none());
        let first = publisher.publish(b"one".to_vec()).unwrap();
        let second = publisher.publish(b"two".to_vec()).unwrap();
        assert_eq!((first.generation, second.generation), (1, 2));
        let current = ArtifactPublisher::current(&dir).unwrap().unwrap();
        assert_eq!(current, second);
        assert_eq!(std::fs::read(&current.path).unwrap(), b"two");
        // Old generations stay on disk for in-flight readers.
        assert_eq!(std::fs::read(&first.path).unwrap(), b"one");
        // No .tmp residue after a successful publish.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_resumes_the_generation_counter() {
        let dir = temp_dir("resume");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        publisher.publish(b"one".to_vec()).unwrap();
        publisher.publish(b"two".to_vec()).unwrap();
        drop(publisher);
        let mut reopened = ArtifactPublisher::open(&dir).unwrap();
        assert_eq!(reopened.next_generation(), 3);
        assert_eq!(reopened.publish(b"three".to_vec()).unwrap().generation, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_pointer_is_a_typed_error() {
        let dir = temp_dir("damaged");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        publisher.publish(b"one".to_vec()).unwrap();
        std::fs::write(dir.join("CURRENT"), "not-a-generation").unwrap();
        assert!(matches!(
            ArtifactPublisher::current(&dir),
            Err(ArtifactError::Corrupt(_))
        ));
        std::fs::write(dir.join("CURRENT"), "gen-99.phk").unwrap();
        assert!(matches!(
            ArtifactPublisher::current(&dir),
            Err(ArtifactError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
