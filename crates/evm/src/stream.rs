//! Append-only bytecode journal (the "code log") and its resumable scan
//! cursor — the durable seam of the streaming ingestion pipeline.
//!
//! An ingest daemon tails the chain and journals every unique deployed
//! bytecode it sees, so a restart (or a downstream retrain) can replay
//! exactly the contracts already observed without re-querying the chain.
//! The format is deliberately dumb: a fixed header carrying a per-log
//! identity, then length-prefixed records, each guarded by an FNV-1a
//! checksum over a tagged body (raw bytecode, or bytecode plus a
//! label/month annotation for downstream retraining). A process killed
//! mid-append leaves a truncated tail; the cursor reports that as a typed
//! [`CodeLogError::Truncated`] instead of panicking mid-stream, and a
//! flipped bit surfaces as [`CodeLogError::Corrupt`] — the reader never
//! trusts a record the writer did not finish.
//!
//! Truncation is *retryable*: a live log legitimately ends mid-record
//! while a separate scanner process is flushing an append, so a
//! `Truncated` cursor stays positioned at the last good offset and
//! [`CodeLogCursor::resume`] re-arms it. Only `Corrupt` (and `Format`)
//! poison the cursor. [`CodeLogTailer`] packages that loop — follow a
//! growing log across process boundaries with jittered backoff, detect
//! rotation through the header identity, and surface a typed
//! [`CodeLogError::Stalled`] when the writer goes quiet past a deadline.
//!
//! # Examples
//!
//! ```
//! use phishinghook_evm::stream::{CodeLogCursor, CodeLogWriter};
//! use phishinghook_evm::Bytecode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let path = std::env::temp_dir().join(format!("phk_codelog_doc_{}.phklog", std::process::id()));
//! let mut log = CodeLogWriter::create(&path)?;
//! log.append(&Bytecode::new(vec![0x60, 0x80]))?;
//! log.sync()?;
//! let codes: Result<Vec<Bytecode>, _> = CodeLogCursor::open(&path)?.collect();
//! assert_eq!(codes?.len(), 1);
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

use crate::Bytecode;
use phishinghook_retry::policy::{Backoff, Clock, RetryPolicy, SystemClock};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic of a code-log file: **P**hishing**H**oo**K** **L**og.
pub const CODELOG_MAGIC: [u8; 4] = *b"PHKL";

/// Code-log format version. Version 2 added the per-log identity in the
/// header (rotation detection) and the tagged record body (label/month
/// annotations).
pub const CODELOG_VERSION: u32 = 2;

/// Size of the v2 header: magic, version, log identity.
pub const CODELOG_HEADER_BYTES: u64 = 16;

/// Hard cap on a single record's body. Deployed EVM bytecode is capped
/// at 24 KiB on mainnet; anything near this bound is a corrupted length
/// prefix, and rejecting it keeps a garbage tail from forcing a huge
/// allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 24;

/// Record body tag: raw bytecode, no annotation.
const TAG_RAW: u8 = 0;
/// Record body tag: label byte + month `u16` LE, then bytecode.
const TAG_LABELED: u8 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a sequence of byte slices (the same function the artifact
/// layer uses for section checksums; inlined here so the substrate crate
/// stays leaf-level). Streaming over parts lets the writer checksum
/// `tag | meta | payload` without concatenating them first.
fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut hash = FNV_OFFSET;
    for part in parts {
        for &b in *part {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_parts(&[bytes])
}

/// Typed failure of a code-log read.
#[derive(Debug)]
pub enum CodeLogError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a code log (bad magic) or an unknown version.
    Format(String),
    /// The log ends mid-record at `offset` — the writer was killed (or is
    /// still flushing) mid-append. Every record before `offset` is intact,
    /// and a cursor that reported this can [`CodeLogCursor::resume`] once
    /// the writer has caught up.
    Truncated {
        /// Byte offset of the record the log ends inside of.
        offset: u64,
    },
    /// A complete record at `offset` fails validation (checksum mismatch,
    /// an absurd length prefix, an unknown body tag, or a label other
    /// than 0 or 1) — bit rot or a garbage tail. Fatal: the cursor poisons
    /// and will not resume.
    Corrupt {
        /// Byte offset of the failing record.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// The writer refused an append the log could not hold: a payload
    /// over [`MAX_RECORD_BYTES`] or a label other than 0 or 1. Nothing was
    /// written, and the log is undamaged.
    Rejected {
        /// Why the record was refused.
        detail: String,
    },
    /// A tailing reader waited past its idle deadline without the writer
    /// making progress.
    Stalled {
        /// Byte offset the tail is parked at.
        offset: u64,
        /// How long the tail waited without progress.
        waited: Duration,
    },
}

impl fmt::Display for CodeLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeLogError::Io(e) => write!(f, "code log I/O error: {e}"),
            CodeLogError::Format(msg) => write!(f, "not a code log: {msg}"),
            CodeLogError::Truncated { offset } => {
                write!(f, "code log ends mid-record at byte {offset}")
            }
            CodeLogError::Corrupt { offset, detail } => {
                write!(f, "code log record at byte {offset} is corrupt: {detail}")
            }
            CodeLogError::Rejected { detail } => {
                write!(f, "code log append refused: {detail}")
            }
            CodeLogError::Stalled { offset, waited } => write!(
                f,
                "code log writer made no progress past byte {offset} for {waited:?}"
            ),
        }
    }
}

impl std::error::Error for CodeLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodeLogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodeLogError {
    fn from(e: io::Error) -> Self {
        CodeLogError::Io(e)
    }
}

/// The label/month annotation an ingest scanner attaches to a journaled
/// bytecode so a downstream retrainer can replay supervised samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Ground-truth label (1 = phishing, 0 = benign).
    pub label: u8,
    /// Deployment month index the sample belongs to.
    pub month: u16,
}

/// One decoded code-log record: the bytecode plus its optional
/// supervision annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeLogEntry {
    /// The journaled bytecode.
    pub code: Bytecode,
    /// Label/month annotation, when the writer journaled one.
    pub meta: Option<RecordMeta>,
}

fn default_log_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (nanos ^ ((std::process::id() as u64) << 32)) | 1
}

/// Appends length-prefixed, checksummed bytecode records to a log file.
#[derive(Debug)]
pub struct CodeLogWriter {
    path: PathBuf,
    out: BufWriter<File>,
    records: u64,
    log_id: u64,
}

impl CodeLogWriter {
    /// Creates (or truncates) the log at `path` and writes the header,
    /// stamping a fresh log identity (time ⊕ pid) so readers can detect
    /// rotation.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, CodeLogError> {
        Self::create_with_id(path, default_log_id())
    }

    /// [`CodeLogWriter::create`] with an explicit log identity, for
    /// deterministic tests.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn create_with_id(path: impl AsRef<Path>, log_id: u64) -> Result<Self, CodeLogError> {
        let path = path.as_ref().to_path_buf();
        let mut out = BufWriter::new(File::create(&path)?);
        out.write_all(&CODELOG_MAGIC)?;
        out.write_all(&CODELOG_VERSION.to_le_bytes())?;
        out.write_all(&log_id.to_le_bytes())?;
        Ok(CodeLogWriter {
            path,
            out,
            records: 0,
            log_id,
        })
    }

    /// Re-opens an existing log for appending: scans to the last intact
    /// record, truncates any torn tail a previous crash left behind, and
    /// positions the writer there. [`CodeLogWriter::records`] reports the
    /// surviving record count.
    ///
    /// # Errors
    ///
    /// [`CodeLogError::Corrupt`] / [`CodeLogError::Format`] when the
    /// surviving prefix itself is damaged (resuming would silently
    /// interleave good records after bad), plus any I/O failure.
    pub fn resume(path: impl AsRef<Path>) -> Result<Self, CodeLogError> {
        let path = path.as_ref().to_path_buf();
        let mut cursor = CodeLogCursor::open(&path)?;
        let log_id = cursor.log_id();
        let mut records = 0u64;
        loop {
            match cursor.next_entry() {
                Ok(Some(_)) => records += 1,
                Ok(None) => break,
                // A torn tail is exactly what a killed writer leaves;
                // drop it and append from the last good offset.
                Err(CodeLogError::Truncated { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        let good = cursor.resume_offset();
        drop(cursor);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)?;
        file.set_len(good)?;
        file.sync_data()?;
        let mut out = BufWriter::new(file);
        out.seek(SeekFrom::Start(good))?;
        Ok(CodeLogWriter {
            path,
            out,
            records,
            log_id,
        })
    }

    fn append_body(&mut self, tag: u8, meta: &[u8], payload: &[u8]) -> Result<(), CodeLogError> {
        let body_len = 1 + meta.len() + payload.len();
        if body_len as u64 >= MAX_RECORD_BYTES as u64 {
            return Err(CodeLogError::Rejected {
                detail: format!(
                    "payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte record cap",
                    payload.len()
                ),
            });
        }
        let tag_buf = [tag];
        let checksum = fnv1a_parts(&[&tag_buf, meta, payload]);
        // Injected crash window: flush a *torn* record (prefix + partial
        // payload) to disk, then die without unwinding — the on-disk state
        // a writer killed mid-append leaves behind.
        if phishinghook_retry::fault_hit("codelog.torn-append") {
            let _ = self.out.write_all(&(body_len as u32).to_le_bytes());
            let _ = self.out.write_all(&checksum.to_le_bytes());
            let _ = self.out.write_all(&tag_buf);
            let _ = self.out.write_all(&payload[..payload.len() / 2]);
            let _ = self.out.flush();
            let _ = self.out.get_ref().sync_data();
            eprintln!("fault: tearing code-log append and aborting");
            std::process::abort();
        }
        self.out.write_all(&(body_len as u32).to_le_bytes())?;
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.write_all(&tag_buf)?;
        self.out.write_all(meta)?;
        self.out.write_all(payload)?;
        self.records += 1;
        Ok(())
    }

    /// Appends one raw bytecode record: `u32` body length, `u64` FNV-1a
    /// checksum, then the tagged body.
    ///
    /// # Errors
    ///
    /// Any I/O failure, plus [`CodeLogError::Rejected`] for a payload over
    /// [`MAX_RECORD_BYTES`] (which a cursor would refuse to read back).
    pub fn append(&mut self, code: &Bytecode) -> Result<(), CodeLogError> {
        self.append_body(TAG_RAW, &[], code.as_bytes())
    }

    /// Appends one *labeled* bytecode record carrying the ground-truth
    /// label and deployment month a downstream retrainer needs.
    ///
    /// # Errors
    ///
    /// Same as [`CodeLogWriter::append`], plus [`CodeLogError::Rejected`]
    /// for a `label` other than 0 or 1 (which a cursor would refuse to read
    /// back).
    pub fn append_labeled(
        &mut self,
        code: &Bytecode,
        label: u8,
        month: u16,
    ) -> Result<(), CodeLogError> {
        if label > 1 {
            return Err(CodeLogError::Rejected {
                detail: format!("label {label} is not 0 or 1"),
            });
        }
        let mut meta = [0u8; 3];
        meta[0] = label;
        meta[1..3].copy_from_slice(&month.to_le_bytes());
        self.append_body(TAG_LABELED, &meta, code.as_bytes())
    }

    /// Records appended through this writer (including records already in
    /// the log when it was [`CodeLogWriter::resume`]d).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This log's identity (readers use it to detect rotation).
    pub fn log_id(&self) -> u64 {
        self.log_id
    }

    /// Flushes buffered records and syncs the file to disk.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn sync(&mut self) -> Result<(), CodeLogError> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        Ok(())
    }
}

/// What one fixed-size read against the log produced.
enum Filled {
    /// The buffer was filled completely.
    Full,
    /// The log ended exactly before this read — a clean end of stream.
    Empty,
    /// The log ended inside this read — a truncated tail.
    Partial,
}

/// Sequential cursor over a code log, yielding one [`Bytecode`] per
/// record via [`Iterator`] (or full [`CodeLogEntry`]s via
/// [`CodeLogCursor::next_entry`]).
///
/// As an iterator, a damaged tail yields exactly one typed error and then
/// fuses (subsequent `next()` calls return `None`) — a batch consumer can
/// drain with `?` and never panics mid-scan. The cursor itself is *not*
/// poisoned by [`CodeLogError::Truncated`]: it stays parked at the last
/// good offset and [`CodeLogCursor::resume`] re-arms it, which is how a
/// live tail follows a writer that flushes mid-record. Only
/// [`CodeLogError::Corrupt`] (and a bad header) poison it for good.
#[derive(Debug)]
pub struct CodeLogCursor {
    reader: BufReader<File>,
    /// Byte offset of the next record (= the last good offset).
    offset: u64,
    /// Set once the iterator has yielded an error or a clean EOF.
    done: bool,
    /// Set on `Corrupt`: the log is damaged, resuming is refused.
    poisoned: bool,
    log_id: u64,
}

impl CodeLogCursor {
    /// Opens the log at `path`, validating its header.
    ///
    /// # Errors
    ///
    /// [`CodeLogError::Format`] on a bad magic or unknown version,
    /// [`CodeLogError::Truncated`] when the file is shorter than the
    /// header, plus any I/O failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CodeLogError> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut header = [0u8; CODELOG_HEADER_BYTES as usize];
        let mut got = 0;
        while got < header.len() {
            match reader.read(&mut header[got..])? {
                0 => return Err(CodeLogError::Truncated { offset: got as u64 }),
                n => got += n,
            }
        }
        if header[..4] != CODELOG_MAGIC {
            return Err(CodeLogError::Format(format!(
                "bad magic {:02X?}, expected {CODELOG_MAGIC:02X?} (\"PHKL\")",
                &header[..4]
            )));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != CODELOG_VERSION {
            return Err(CodeLogError::Format(format!(
                "code log version {version} not supported (reader knows {CODELOG_VERSION})"
            )));
        }
        let log_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
        Ok(CodeLogCursor {
            reader,
            offset: CODELOG_HEADER_BYTES,
            done: false,
            poisoned: false,
            log_id,
        })
    }

    /// The identity stamped in this log's header.
    pub fn log_id(&self) -> u64 {
        self.log_id
    }

    /// The byte offset of the next unread record — where a
    /// [`CodeLogCursor::resume`] continues from.
    pub fn resume_offset(&self) -> u64 {
        self.offset
    }

    /// Re-arms a cursor that hit a truncated tail (or clean EOF): seeks
    /// back to the last good offset and clears the iterator's fuse, so
    /// the next read retries the record the writer had not finished.
    ///
    /// # Errors
    ///
    /// [`CodeLogError::Corrupt`] when the cursor was poisoned by real
    /// corruption (a damaged log must not be re-read as if healthy), plus
    /// any I/O failure from the seek.
    pub fn resume(&mut self) -> Result<(), CodeLogError> {
        if self.poisoned {
            return Err(CodeLogError::Corrupt {
                offset: self.offset,
                detail: "cursor poisoned by a corrupt record; refusing to resume".into(),
            });
        }
        self.reader.seek(SeekFrom::Start(self.offset))?;
        self.done = false;
        Ok(())
    }

    /// Reads exactly `buf.len()` bytes, reporting whether the log ended
    /// before, inside, or after the read.
    fn fill(&mut self, buf: &mut [u8]) -> Result<Filled, CodeLogError> {
        let mut got = 0;
        while got < buf.len() {
            match self.reader.read(&mut buf[got..])? {
                0 => {
                    return Ok(if got == 0 {
                        Filled::Empty
                    } else {
                        Filled::Partial
                    });
                }
                n => got += n,
            }
        }
        Ok(Filled::Full)
    }

    fn corrupt(&mut self, offset: u64, detail: String) -> CodeLogError {
        self.poisoned = true;
        CodeLogError::Corrupt { offset, detail }
    }

    /// Reads the next record, or `None` at a clean end of log. Unlike the
    /// [`Iterator`] impl this never fuses: after a
    /// [`CodeLogError::Truncated`] the cursor is already re-positioned at
    /// the last good offset, so a later call (once the writer has caught
    /// up) retries the same record.
    ///
    /// # Errors
    ///
    /// [`CodeLogError::Truncated`] on a torn tail (retryable),
    /// [`CodeLogError::Corrupt`] on checksum/length/tag/label damage
    /// (poisons the cursor), plus any I/O failure.
    pub fn next_entry(&mut self) -> Result<Option<CodeLogEntry>, CodeLogError> {
        let record_start = self.offset;
        let truncated = |cursor: &mut Self| -> CodeLogError {
            // Park back at the record start so the caller can retry once
            // the writer finishes the append.
            let _ = cursor.reader.seek(SeekFrom::Start(record_start));
            CodeLogError::Truncated {
                offset: record_start,
            }
        };
        let mut prefix = [0u8; 4 + 8];
        match self.fill(&mut prefix)? {
            Filled::Empty => return Ok(None),
            Filled::Partial => return Err(truncated(self)),
            Filled::Full => {}
        }
        let len = u32::from_le_bytes(prefix[..4].try_into().unwrap());
        if len == 0 || len >= MAX_RECORD_BYTES {
            return Err(self.corrupt(
                record_start,
                format!("length prefix {len} outside the 1..{MAX_RECORD_BYTES}-byte record bounds"),
            ));
        }
        let expected = u64::from_le_bytes(prefix[4..12].try_into().unwrap());
        let mut body = vec![0u8; len as usize];
        match self.fill(&mut body)? {
            Filled::Full => {}
            Filled::Empty | Filled::Partial => return Err(truncated(self)),
        }
        let actual = fnv1a(&body);
        if actual != expected {
            return Err(self.corrupt(
                record_start,
                format!("checksum {actual:#018x}, record claims {expected:#018x}"),
            ));
        }
        let entry = match body[0] {
            TAG_RAW => CodeLogEntry {
                code: Bytecode::new(body[1..].to_vec()),
                meta: None,
            },
            TAG_LABELED => {
                if body.len() < 4 {
                    return Err(self.corrupt(
                        record_start,
                        format!("labeled record body of {} bytes is too short", body.len()),
                    ));
                }
                if body[1] > 1 {
                    // A trainer downstream asserts binary labels; a record
                    // that would panic it is damage, not data.
                    return Err(self.corrupt(
                        record_start,
                        format!("labeled record carries label {}, not 0 or 1", body[1]),
                    ));
                }
                CodeLogEntry {
                    code: Bytecode::new(body[4..].to_vec()),
                    meta: Some(RecordMeta {
                        label: body[1],
                        month: u16::from_le_bytes(body[2..4].try_into().unwrap()),
                    }),
                }
            }
            tag => {
                return Err(self.corrupt(record_start, format!("unknown record tag {tag}")));
            }
        };
        self.offset = record_start + 12 + len as u64;
        Ok(Some(entry))
    }
}

impl Iterator for CodeLogCursor {
    type Item = Result<Bytecode, CodeLogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_entry() {
            Ok(Some(entry)) => Some(Ok(entry.code)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Tuning for a [`CodeLogTailer`]'s polling loop.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Initial delay when the tail catches up with the writer.
    pub poll: Duration,
    /// Cap on the backed-off delay.
    pub max_poll: Duration,
    /// Jitter fraction on each delay (decorrelates a fleet of tails).
    pub jitter: f64,
    /// Give up (with [`CodeLogError::Stalled`]) after this long without
    /// the writer making progress. `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            poll: Duration::from_millis(25),
            max_poll: Duration::from_secs(1),
            jitter: 0.2,
            idle_timeout: None,
            seed: 0x7a11,
        }
    }
}

/// What a [`CodeLogTailer`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailEvent {
    /// The next record in the log.
    Record(CodeLogEntry),
    /// The file at the tailed path was replaced by a new log (different
    /// header identity); the tail has re-opened at its first record.
    Rotated {
        /// The new log's identity.
        log_id: u64,
    },
}

/// Follows a live code log written by another process: yields records as
/// they land, treats a torn tail as "wait for the writer" (resume from
/// the last good offset under jittered backoff), detects rotation through
/// the header identity, and reports [`CodeLogError::Stalled`] when the
/// writer goes quiet past the configured idle deadline. Corruption stays
/// fatal.
#[derive(Debug)]
pub struct CodeLogTailer<C: Clock = SystemClock> {
    path: PathBuf,
    config: TailConfig,
    cursor: Option<CodeLogCursor>,
    backoff: Backoff,
    clock: C,
}

impl CodeLogTailer<SystemClock> {
    /// Tails the log at `path` under `config` with the real clock. The
    /// file does not need to exist yet — the tail waits for the writer to
    /// create it.
    pub fn new(path: impl AsRef<Path>, config: TailConfig) -> Self {
        Self::with_clock(path, config, SystemClock)
    }
}

impl<C: Clock> CodeLogTailer<C> {
    /// [`CodeLogTailer::new`] with an injected clock, so tests drive the
    /// backoff schedule deterministically and without real sleeps.
    pub fn with_clock(path: impl AsRef<Path>, config: TailConfig, clock: C) -> Self {
        let policy = RetryPolicy::new(config.poll, config.max_poll).with_jitter(config.jitter);
        let backoff = Backoff::new(policy, config.seed);
        CodeLogTailer {
            path: path.as_ref().to_path_buf(),
            config,
            cursor: None,
            backoff,
            clock,
        }
    }

    /// The tailed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The identity of the log currently being followed (once opened).
    pub fn log_id(&self) -> Option<u64> {
        self.cursor.as_ref().map(CodeLogCursor::log_id)
    }

    /// The resume offset within the current log (once opened).
    pub fn offset(&self) -> u64 {
        self.cursor.as_ref().map_or(0, CodeLogCursor::resume_offset)
    }

    /// Reads the identity of the log currently on disk, if its header is
    /// complete and valid.
    fn on_disk_log_id(&self) -> Option<u64> {
        let mut header = [0u8; CODELOG_HEADER_BYTES as usize];
        let mut file = File::open(&self.path).ok()?;
        file.read_exact(&mut header).ok()?;
        if header[..4] != CODELOG_MAGIC {
            return None;
        }
        if u32::from_le_bytes(header[4..8].try_into().unwrap()) != CODELOG_VERSION {
            return None;
        }
        Some(u64::from_le_bytes(header[8..16].try_into().unwrap()))
    }

    /// Blocks (on the injected clock) until the next tail event.
    ///
    /// # Errors
    ///
    /// [`CodeLogError::Stalled`] when the writer makes no progress past
    /// the idle deadline (the tail stays usable — call again to keep
    /// waiting); [`CodeLogError::Corrupt`] / [`CodeLogError::Format`] on
    /// real damage (fatal); plus non-`NotFound` I/O failures.
    pub fn next_event(&mut self) -> Result<TailEvent, CodeLogError> {
        let mut waited = Duration::ZERO;
        loop {
            // Phase 1: make sure a cursor is open.
            if self.cursor.is_none() {
                match CodeLogCursor::open(&self.path) {
                    Ok(cursor) => {
                        self.cursor = Some(cursor);
                        self.backoff.reset();
                    }
                    // Not created yet, or the header is still being
                    // flushed: wait for the writer.
                    Err(CodeLogError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                        self.wait(&mut waited, 0)?;
                        continue;
                    }
                    Err(CodeLogError::Truncated { offset }) => {
                        self.wait(&mut waited, offset)?;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            // Phase 2: try to read a record.
            let cursor = self.cursor.as_mut().expect("cursor opened above");
            match cursor.next_entry() {
                Ok(Some(entry)) => {
                    self.backoff.reset();
                    return Ok(TailEvent::Record(entry));
                }
                Ok(None) | Err(CodeLogError::Truncated { .. }) => {
                    // Caught up (or the writer is mid-append): check for
                    // rotation, then wait and retry from the last good
                    // offset.
                    let current = cursor.log_id();
                    let offset = cursor.resume_offset();
                    if let Some(on_disk) = self.on_disk_log_id() {
                        if on_disk != current {
                            self.cursor = Some(CodeLogCursor::open(&self.path)?);
                            self.backoff.reset();
                            return Ok(TailEvent::Rotated { log_id: on_disk });
                        }
                    }
                    self.wait(&mut waited, offset)?;
                    let cursor = self.cursor.as_mut().expect("cursor still open");
                    cursor.resume()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sleeps the next backed-off delay, surfacing `Stalled` once the
    /// accumulated wait crosses the idle deadline.
    fn wait(&mut self, waited: &mut Duration, offset: u64) -> Result<(), CodeLogError> {
        if let Some(deadline) = self.config.idle_timeout {
            if *waited >= deadline {
                return Err(CodeLogError::Stalled {
                    offset,
                    waited: *waited,
                });
            }
        }
        let delay = self.backoff.next_delay();
        self.clock.sleep(delay);
        *waited += delay;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_retry::policy::FakeClock;

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("phk_codelog_{tag}_{}.phklog", std::process::id()))
    }

    fn codes() -> Vec<Bytecode> {
        vec![
            Bytecode::new(vec![0x60, 0x80, 0x60, 0x40, 0x52]),
            Bytecode::new(vec![]),
            Bytecode::new(vec![0x33, 0x31, 0xff]),
        ]
    }

    fn write_log(path: &Path) -> Vec<Bytecode> {
        let codes = codes();
        let mut w = CodeLogWriter::create(path).unwrap();
        for c in &codes {
            w.append(c).unwrap();
        }
        assert_eq!(w.records(), codes.len() as u64);
        w.sync().unwrap();
        codes
    }

    #[test]
    fn round_trips_in_order() {
        let path = temp_log("roundtrip");
        let codes = write_log(&path);
        let back: Vec<Bytecode> = CodeLogCursor::open(&path)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, codes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn labeled_records_round_trip_meta() {
        let path = temp_log("labeled");
        let mut w = CodeLogWriter::create_with_id(&path, 42).unwrap();
        w.append(&Bytecode::new(vec![0x5f])).unwrap();
        w.append_labeled(&Bytecode::new(vec![0x33, 0x31]), 1, 7)
            .unwrap();
        w.append_labeled(&Bytecode::new(vec![]), 0, 11).unwrap();
        w.sync().unwrap();
        let mut cursor = CodeLogCursor::open(&path).unwrap();
        assert_eq!(cursor.log_id(), 42);
        let first = cursor.next_entry().unwrap().unwrap();
        assert_eq!(first.meta, None);
        let second = cursor.next_entry().unwrap().unwrap();
        assert_eq!(second.code, Bytecode::new(vec![0x33, 0x31]));
        assert_eq!(second.meta, Some(RecordMeta { label: 1, month: 7 }));
        let third = cursor.next_entry().unwrap().unwrap();
        assert_eq!(
            third.meta,
            Some(RecordMeta {
                label: 0,
                month: 11
            })
        );
        assert!(cursor.next_entry().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_a_typed_error_and_fuses() {
        let path = temp_log("truncated");
        let codes = write_log(&path);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the final record's payload.
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        let mut cursor = CodeLogCursor::open(&path).unwrap();
        // Every intact record still reads.
        for expected in &codes[..codes.len() - 1] {
            assert_eq!(&cursor.next().unwrap().unwrap(), expected);
        }
        // The damaged tail is one typed error, never a panic...
        assert!(matches!(
            cursor.next(),
            Some(Err(CodeLogError::Truncated { .. }))
        ));
        // ...after which the cursor fuses.
        assert!(cursor.next().is_none());
        // Chopping inside the length prefix itself is also typed.
        std::fs::write(&path, &full[..full.len() - codes[2].len() - 9]).unwrap();
        let tail: Vec<_> = CodeLogCursor::open(&path).unwrap().collect();
        assert!(matches!(
            tail.last(),
            Some(Err(CodeLogError::Truncated { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_cursor_resumes_once_the_writer_catches_up() {
        let path = temp_log("resume");
        let codes = write_log(&path);
        let full = std::fs::read(&path).unwrap();
        // Tear the final record mid-payload, as a killed writer would.
        let torn_len = full.len() - 2;
        std::fs::write(&path, &full[..torn_len]).unwrap();
        let mut cursor = CodeLogCursor::open(&path).unwrap();
        for expected in &codes[..codes.len() - 1] {
            assert_eq!(cursor.next_entry().unwrap().unwrap().code, *expected);
        }
        let good = cursor.resume_offset();
        assert!(matches!(
            cursor.next_entry(),
            Err(CodeLogError::Truncated { offset }) if offset == good
        ));
        // The cursor is parked, not poisoned: once the writer finishes the
        // append, the same record reads cleanly.
        std::fs::write(&path, &full).unwrap();
        cursor.resume().unwrap();
        assert_eq!(
            cursor.next_entry().unwrap().unwrap().code,
            codes[codes.len() - 1]
        );
        assert!(cursor.next_entry().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_cursor_refuses_to_resume() {
        let path = temp_log("poisoned");
        write_log(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut cursor = CodeLogCursor::open(&path).unwrap();
        loop {
            match cursor.next_entry() {
                Ok(Some(_)) => continue,
                Err(CodeLogError::Corrupt { .. }) => break,
                other => panic!("expected corruption, got {other:?}"),
            }
        }
        assert!(matches!(cursor.resume(), Err(CodeLogError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    /// One framed record (length prefix, valid checksum, body) as a
    /// writer would lay it down, whatever the body holds.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&fnv1a(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn writer_refuses_a_label_other_than_0_or_1() {
        let path = temp_log("label2");
        let mut w = CodeLogWriter::create(&path).unwrap();
        let refused = w.append_labeled(&Bytecode::new(vec![0x5f]), 2, 3);
        assert!(matches!(refused, Err(CodeLogError::Rejected { .. })));
        assert!(refused.unwrap_err().to_string().contains("label 2"));
        assert_eq!(w.records(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_refuses_a_payload_over_the_record_cap() {
        let path = temp_log("oversize");
        let mut w = CodeLogWriter::create(&path).unwrap();
        // The body is the tag byte plus the payload, so this payload makes
        // a body of exactly the cap, one byte too many.
        let code = Bytecode::new(vec![0x5f; MAX_RECORD_BYTES as usize - 1]);
        let refused = w.append(&code);
        assert!(matches!(refused, Err(CodeLogError::Rejected { .. })));
        assert!(refused.unwrap_err().to_string().contains("record cap"));
        let refused = w.append_labeled(&code, 1, 3);
        assert!(matches!(refused, Err(CodeLogError::Rejected { .. })));
        // Nothing was written: the next record is the log's first.
        w.append(&Bytecode::new(vec![0x5f])).unwrap();
        w.sync().unwrap();
        assert_eq!(w.records(), 1);
        let mut cursor = CodeLogCursor::open(&path).unwrap();
        assert!(matches!(cursor.next(), Some(Ok(_))));
        assert!(cursor.next().is_none());
        std::fs::remove_file(&path).ok();
    }

    /// A record body built from arbitrary bytes: `raw[0] % 4` picks the
    /// tag (raw, labeled, or one of two unknown tags); a label is 0 or 1
    /// when `raw[1]` is below 128 and `raw[1]` itself (out of range)
    /// otherwise; and a labeled body may stop short of its meta bytes.
    fn arbitrary_body(raw: &[u8]) -> Vec<u8> {
        let byte = |i: usize| raw.get(i).copied().unwrap_or(0);
        let tag = byte(0) % 4;
        let label = if byte(1) & 0x80 != 0 {
            byte(1)
        } else {
            byte(1) & 1
        };
        let mut body = vec![tag];
        if tag == TAG_LABELED {
            body.extend_from_slice(&[label, byte(2), byte(3)]);
            body.truncate(raw.len().max(1));
        }
        body.extend_from_slice(raw.get(4..).unwrap_or(&[]));
        body
    }

    proptest::proptest! {
        /// The cursor is total over checksum-valid records of any tag,
        /// label, month and payload, then cut short and bit-flipped: it
        /// never panics, yields only labels 0 and 1, and a cursor poisoned
        /// by corruption refuses to resume.
        #[test]
        fn cursor_is_total_over_damaged_logs(
            records in proptest::collection::vec(
                proptest::collection::vec(proptest::any::<u8>(), 0..40),
                0..10,
            ),
            cut in proptest::any::<u64>(),
            flip_at in proptest::any::<u64>(),
            flip in proptest::any::<u8>(),
        ) {
            let path = temp_log("totality");
            let mut bytes = CODELOG_MAGIC.to_vec();
            bytes.extend_from_slice(&CODELOG_VERSION.to_le_bytes());
            bytes.extend_from_slice(&7u64.to_le_bytes());
            for raw in &records {
                bytes.extend(framed(&arbitrary_body(raw)));
            }
            // One log in three loses up to 15 trailing bytes, as a torn
            // append leaves it.
            if cut.is_multiple_of(3) {
                bytes.truncate(bytes.len() - (cut / 3 % 16) as usize);
            }
            let at = (flip_at % bytes.len() as u64) as usize;
            bytes[at] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(mut cursor) = CodeLogCursor::open(&path) {
                // Every record is at least 13 bytes, which bounds the loop.
                for _ in 0..=bytes.len() / 13 {
                    match cursor.next_entry() {
                        Ok(Some(entry)) => {
                            if let Some(meta) = entry.meta {
                                proptest::prop_assert!(meta.label <= 1, "label {}", meta.label);
                            }
                        }
                        Err(CodeLogError::Corrupt { .. }) => {
                            proptest::prop_assert!(matches!(
                                cursor.resume(),
                                Err(CodeLogError::Corrupt { .. })
                            ));
                            break;
                        }
                        Ok(None) | Err(_) => break,
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn writer_resume_truncates_torn_tail_and_appends() {
        let path = temp_log("writer_resume");
        let codes = write_log(&path);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        let mut w = CodeLogWriter::resume(&path).unwrap();
        // The torn final record was dropped; the two intact ones survive.
        assert_eq!(w.records(), (codes.len() - 1) as u64);
        let extra = Bytecode::new(vec![0xde, 0xad, 0xbe, 0xef]);
        w.append(&extra).unwrap();
        w.sync().unwrap();
        let back: Vec<Bytecode> = CodeLogCursor::open(&path)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back.len(), codes.len());
        assert_eq!(back[..2], codes[..2]);
        assert_eq!(back[2], extra);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_tail_is_a_typed_error() {
        let path = temp_log("garbage");
        let codes = write_log(&path);
        // Flip a payload bit in the last record: checksum mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let results: Vec<_> = CodeLogCursor::open(&path).unwrap().collect();
        assert_eq!(results.len(), codes.len());
        assert!(results[..codes.len() - 1].iter().all(Result::is_ok));
        assert!(matches!(
            results.last(),
            Some(Err(CodeLogError::Corrupt { offset, .. })) if *offset > 8
        ));
        // An absurd length prefix is rejected before it can allocate.
        let mut bytes = std::fs::read(&path).unwrap();
        let tail_record = bytes.len() - codes[2].len() - 12;
        bytes[tail_record..tail_record + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let results: Vec<_> = CodeLogCursor::open(&path).unwrap().collect();
        assert!(matches!(
            results.last(),
            Some(Err(CodeLogError::Corrupt { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_format_errors() {
        let path = temp_log("header");
        write_log(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CodeLogCursor::open(&path),
            Err(CodeLogError::Format(_))
        ));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'P';
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CodeLogCursor::open(&path),
            Err(CodeLogError::Format(_))
        ));
        // Shorter than the header: a truncated log, not a panic.
        std::fs::write(&path, b"PHK").unwrap();
        assert!(matches!(
            CodeLogCursor::open(&path),
            Err(CodeLogError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_log_yields_nothing() {
        let path = temp_log("empty");
        CodeLogWriter::create(&path).unwrap().sync().unwrap();
        assert_eq!(CodeLogCursor::open(&path).unwrap().count(), 0);
        std::fs::remove_file(&path).ok();
    }

    fn fast_tail_config(idle: Option<Duration>) -> TailConfig {
        TailConfig {
            poll: Duration::from_millis(5),
            max_poll: Duration::from_millis(40),
            jitter: 0.0,
            idle_timeout: idle,
            seed: 1,
        }
    }

    #[test]
    fn tailer_follows_appends_then_stalls_then_resumes() {
        let path = temp_log("tailer");
        let mut w = CodeLogWriter::create_with_id(&path, 5).unwrap();
        w.append_labeled(&Bytecode::new(vec![0x60, 0x01]), 1, 0)
            .unwrap();
        w.sync().unwrap();
        let clock = FakeClock::new();
        let mut tail = CodeLogTailer::with_clock(
            &path,
            fast_tail_config(Some(Duration::from_millis(100))),
            clock.clone(),
        );
        // First record comes straight through.
        match tail.next_event().unwrap() {
            TailEvent::Record(entry) => {
                assert_eq!(entry.meta, Some(RecordMeta { label: 1, month: 0 }))
            }
            other => panic!("expected a record, got {other:?}"),
        }
        // Nothing more to read: the tail backs off on the fake clock until
        // the idle deadline, then reports a typed stall.
        let err = tail.next_event().unwrap_err();
        assert!(matches!(err, CodeLogError::Stalled { .. }));
        assert!(clock.total_slept() >= Duration::from_millis(100));
        // The writer catches up (including completing a previously torn
        // append): the same tailer keeps going.
        w.append(&Bytecode::new(vec![0x33])).unwrap();
        w.sync().unwrap();
        match tail.next_event().unwrap() {
            TailEvent::Record(entry) => {
                assert_eq!(entry.code, Bytecode::new(vec![0x33]));
                assert_eq!(entry.meta, None);
            }
            other => panic!("expected a record, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tailer_waits_through_a_torn_tail_without_fusing() {
        let path = temp_log("tailer_torn");
        let codes = write_log(&path);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        let clock = FakeClock::new();
        let mut tail = CodeLogTailer::with_clock(
            &path,
            fast_tail_config(Some(Duration::from_millis(50))),
            clock.clone(),
        );
        for expected in &codes[..codes.len() - 1] {
            match tail.next_event().unwrap() {
                TailEvent::Record(entry) => assert_eq!(&entry.code, expected),
                other => panic!("expected a record, got {other:?}"),
            }
        }
        // The torn final record is a wait, not a failure...
        assert!(matches!(
            tail.next_event(),
            Err(CodeLogError::Stalled { .. })
        ));
        // ...and completing it lets the tail read it.
        std::fs::write(&path, &full).unwrap();
        match tail.next_event().unwrap() {
            TailEvent::Record(entry) => assert_eq!(entry.code, codes[codes.len() - 1]),
            other => panic!("expected a record, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tailer_detects_rotation_by_header_identity() {
        let path = temp_log("tailer_rotate");
        let mut w = CodeLogWriter::create_with_id(&path, 100).unwrap();
        w.append(&Bytecode::new(vec![0x01])).unwrap();
        w.sync().unwrap();
        let clock = FakeClock::new();
        let mut tail = CodeLogTailer::with_clock(
            &path,
            fast_tail_config(Some(Duration::from_secs(10))),
            clock,
        );
        assert!(matches!(tail.next_event().unwrap(), TailEvent::Record(_)));
        // Replace the file wholesale: a new log with a new identity.
        let mut w2 = CodeLogWriter::create_with_id(&path, 200).unwrap();
        w2.append(&Bytecode::new(vec![0x02])).unwrap();
        w2.sync().unwrap();
        assert_eq!(
            tail.next_event().unwrap(),
            TailEvent::Rotated { log_id: 200 }
        );
        match tail.next_event().unwrap() {
            TailEvent::Record(entry) => assert_eq!(entry.code, Bytecode::new(vec![0x02])),
            other => panic!("expected a record, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tailer_waits_for_a_log_that_does_not_exist_yet() {
        let path = temp_log("tailer_absent");
        std::fs::remove_file(&path).ok();
        let clock = FakeClock::new();
        let mut tail = CodeLogTailer::with_clock(
            &path,
            fast_tail_config(Some(Duration::from_millis(30))),
            clock,
        );
        assert!(matches!(
            tail.next_event(),
            Err(CodeLogError::Stalled { .. })
        ));
        let mut w = CodeLogWriter::create_with_id(&path, 1).unwrap();
        w.append(&Bytecode::new(vec![0x5f])).unwrap();
        w.sync().unwrap();
        assert!(matches!(tail.next_event().unwrap(), TailEvent::Record(_)));
        std::fs::remove_file(&path).ok();
    }
}
