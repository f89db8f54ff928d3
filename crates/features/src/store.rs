//! Decode-once, fit-on-demand feature store: every encoding of every
//! contract, fitted and packed at most once per dataset and sliced by
//! sample index thereafter.
//!
//! The paper's model-evaluation matrix cross-validates six feature
//! encodings against sixteen models over 10 folds × 3 runs; featurizing
//! inside the trial loop multiplies the encoding cost by the trial count.
//! A [`FeatureStore`] keeps the dataset's shared [`DisasmCache`]s and
//! fits and packs each encoding on first use: the first
//! [`FeatureStore::matrix`] call for an encoding fits its encoder on the
//! retained fit caches and packs every sample into a [`FeatureMatrix`]
//! column store. A (model, run, fold) trial then *gathers* rows by index
//! — a memcpy, never a re-decode or re-encode — and a dataset that only
//! ever trains a histogram model never pays for token windows or
//! frequency tables.
//!
//! Lookup tables (histogram vocabulary, bigram vocabulary, per-instruction
//! frequencies) are fitted on the full dataset rather than per training
//! fold, mirroring the paper's "exactly once on the entire contract
//! training set" construction; fold slicing only selects rows, so every
//! trial sees a consistent feature geometry.
//!
//! # Examples
//!
//! ```
//! use phishinghook_evm::{Bytecode, CacheBatch};
//! use phishinghook_features::store::{Encoding, FeatureStore, StoreConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let caches = CacheBatch::build(&[
//!     Bytecode::from_hex("0x6080604052")?,
//!     Bytecode::from_hex("0x60016002016000f3")?,
//! ]);
//! let store = FeatureStore::new(caches, None, &StoreConfig::default());
//! assert_eq!(store.len(), 2);
//! // One histogram row per contract, fixed width across the dataset.
//! let histogram = store.matrix(Encoding::Histogram);
//! assert_eq!(histogram.rows(), 2);
//! assert_eq!(histogram.width(), Some(store.histogram_width()));
//! // Only the histogram encoder was fitted.
//! assert_eq!(
//!     store.encoders_for(&[Encoding::Histogram]).encodings(),
//!     [Encoding::Histogram]
//! );
//! # Ok(())
//! # }
//! ```

use crate::bigram::BigramEncoder;
use crate::escort::EscortEmbedder;
use crate::featurizer::{FeatureRow, FeatureVec};
use crate::freq_image::FreqImageEncoder;
use crate::histogram::HistogramEncoder;
use crate::image::R2d2Encoder;
use crate::tokens::{OpcodeTokenizer, SequenceVariant};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_evm::{CacheBatch, DisasmCache};
use phishinghook_linalg::par::parallel_map;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Geometry knobs of the six encoders (the feature-relevant subset of the
/// evaluation profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Image side for both vision encoders.
    pub image_side: usize,
    /// Language-model context length (tokens).
    pub context: usize,
    /// SCSGuard vocabulary cap.
    pub bigram_vocab: usize,
    /// SCSGuard padded sequence length.
    pub bigram_len: usize,
    /// ESCORT embedding dimension.
    pub escort_dim: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            image_side: 32,
            context: 64,
            bigram_vocab: crate::bigram::DEFAULT_VOCAB,
            bigram_len: crate::bigram::DEFAULT_LEN,
            escort_dim: 128,
        }
    }
}

/// Names one of the seven encodings a [`FeatureStore`] materializes (the
/// six encoders, with the tokenizer contributing both sequence variants).
///
/// The enum is the selection key of the serving path: a model kind maps to
/// the single encoding it consumes, so scoring a fresh contract pays for
/// exactly that encoding instead of all seven (token windows dominate the
/// full pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Opcode-occurrence histogram (the seven HSCs).
    Histogram,
    /// Per-instruction frequency image (ViT+Freq).
    FreqImage,
    /// RGB byte image (ViT+R2D2, ECA+EfficientNet).
    R2d2,
    /// SCSGuard bigram id sequence.
    Bigram,
    /// α-variant truncated token windows (GPT-2a, T5a).
    TokensTruncate,
    /// β-variant sliding token windows (GPT-2b, T5b).
    TokensWindows,
    /// ESCORT hashed-trigram embedding.
    Escort,
}

impl Encoding {
    /// All seven encodings, in store order.
    pub const ALL: [Encoding; 7] = [
        Encoding::Histogram,
        Encoding::FreqImage,
        Encoding::R2d2,
        Encoding::Bigram,
        Encoding::TokensTruncate,
        Encoding::TokensWindows,
        Encoding::Escort,
    ];

    /// Position in [`Encoding::ALL`].
    pub fn index(self) -> usize {
        match self {
            Encoding::Histogram => 0,
            Encoding::FreqImage => 1,
            Encoding::R2d2 => 2,
            Encoding::Bigram => 3,
            Encoding::TokensTruncate => 4,
            Encoding::TokensWindows => 5,
            Encoding::Escort => 6,
        }
    }

    /// Slot of the encoder that produces this encoding, in
    /// [`FittedEncoders`] field order; the tokenizer serves both token
    /// variants.
    fn slot(self) -> usize {
        match self {
            Encoding::Histogram => 0,
            Encoding::FreqImage => 1,
            Encoding::R2d2 => 2,
            Encoding::Bigram => 3,
            Encoding::TokensTruncate | Encoding::TokensWindows => 4,
            Encoding::Escort => 5,
        }
    }

    /// Short stable name, used in benches and reports.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Histogram => "histogram",
            Encoding::FreqImage => "freq_image",
            Encoding::R2d2 => "r2d2",
            Encoding::Bigram => "bigram",
            Encoding::TokensTruncate => "tokens_truncate",
            Encoding::TokensWindows => "tokens_windows",
            Encoding::Escort => "escort",
        }
    }
}

/// Column-store layout of one encoding over a whole dataset.
#[derive(Debug, Clone, PartialEq)]
enum Columns {
    /// Row-major dense block, fixed `width` per row.
    Dense { width: usize, data: Vec<f32> },
    /// Row-major id block, fixed `width` per row.
    Ids { width: usize, data: Vec<u32> },
    /// Ragged per-sample window lists; `offsets[i]..offsets[i + 1]` indexes
    /// sample `i`'s windows.
    Windows {
        offsets: Vec<usize>,
        windows: Vec<Vec<u32>>,
    },
    /// A window block spilled to its on-disk columnar form: only the
    /// offset tables stay resident; window ids are read back per gathered
    /// row. This is what lets token-window blocks — the largest matrices a
    /// store holds — leave RAM between trials.
    SpilledWindows {
        /// The spill file ([`SPILL_MAGIC`]-headed matrix payload).
        path: PathBuf,
        /// `offsets[i]..offsets[i + 1]` = sample `i`'s window range.
        offsets: Vec<usize>,
        /// `id_offsets[w]..id_offsets[w + 1]` = window `w`'s id range in
        /// the file's flat id block.
        id_offsets: Vec<u64>,
        /// Byte position of the flat id block inside the file.
        data_start: u64,
    },
}

/// Magic of a standalone spill file: **P**hishing**H**oo**K** **S**pill.
pub const SPILL_MAGIC: [u8; 4] = *b"PHKS";

/// Spill-file format version (the payload is the [`FeatureMatrix`]
/// columnar codec, versioned independently of the artifact container).
pub const SPILL_VERSION: u32 = 1;

/// Rows gathered out of a [`FeatureMatrix`]: borrowed views when the block
/// is resident, owned window lists freshly read from disk when it is
/// spilled. Either way, [`GatheredRows::rows`] yields the `FeatureRow`
/// slice the model layer consumes — callers stay layout-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum GatheredRows<'a> {
    /// Borrowed views into a resident matrix.
    Views(Vec<FeatureRow<'a>>),
    /// Window lists materialized from a spill file.
    OwnedWindows(Vec<Vec<Vec<u32>>>),
}

impl GatheredRows<'_> {
    /// The gathered row views, in gather order.
    pub fn rows(&self) -> Vec<FeatureRow<'_>> {
        match self {
            GatheredRows::Views(v) => v.clone(),
            GatheredRows::OwnedWindows(ws) => ws.iter().map(|w| FeatureRow::Windows(w)).collect(),
        }
    }

    /// Number of gathered rows.
    pub fn len(&self) -> usize {
        match self {
            GatheredRows::Views(v) => v.len(),
            GatheredRows::OwnedWindows(ws) => ws.len(),
        }
    }

    /// `true` when nothing was gathered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One encoding of every sample, indexed by sample, sliceable by fold.
///
/// Dense and id encodings are packed row-major into a single flat buffer;
/// window encodings keep a ragged offset table. Rows are borrowed out as
/// [`FeatureRow`] views and gathered per fold without touching an encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    rows: usize,
    columns: Columns,
}

impl FeatureMatrix {
    /// Packs per-sample feature vectors into a column store.
    ///
    /// # Panics
    ///
    /// Panics if the vectors mix representations or dense/id rows disagree
    /// on width (encoders produce fixed geometry per dataset, so a mismatch
    /// is a featurization bug).
    pub fn from_vecs(vecs: Vec<FeatureVec>) -> Self {
        let rows = vecs.len();
        let columns = match vecs.first() {
            None => Columns::Dense {
                width: 0,
                data: Vec::new(),
            },
            Some(FeatureVec::Dense(first)) => {
                let width = first.len();
                let mut data = Vec::with_capacity(width * rows);
                for v in &vecs {
                    let row = v.as_dense().expect("mixed feature representations");
                    assert_eq!(row.len(), width, "ragged dense rows");
                    data.extend_from_slice(row);
                }
                Columns::Dense { width, data }
            }
            Some(FeatureVec::Ids(first)) => {
                let width = first.len();
                let mut data = Vec::with_capacity(width * rows);
                for v in &vecs {
                    let row = v.as_ids().expect("mixed feature representations");
                    assert_eq!(row.len(), width, "ragged id rows");
                    data.extend_from_slice(row);
                }
                Columns::Ids { width, data }
            }
            Some(FeatureVec::Windows(_)) => {
                let mut offsets = Vec::with_capacity(rows + 1);
                let mut windows = Vec::new();
                offsets.push(0);
                for v in vecs {
                    let FeatureVec::Windows(w) = v else {
                        panic!("mixed feature representations");
                    };
                    windows.extend(w);
                    offsets.push(windows.len());
                }
                Columns::Windows { offsets, windows }
            }
        };
        FeatureMatrix { rows, columns }
    }

    /// Number of samples in the store.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Fixed row width for dense/id layouts; `None` for ragged windows.
    pub fn width(&self) -> Option<usize> {
        match &self.columns {
            Columns::Dense { width, .. } | Columns::Ids { width, .. } => Some(*width),
            Columns::Windows { .. } | Columns::SpilledWindows { .. } => None,
        }
    }

    /// `true` when this block lives in its on-disk columnar form and rows
    /// must be materialized through the gather APIs.
    pub fn is_spilled(&self) -> bool {
        matches!(self.columns, Columns::SpilledWindows { .. })
    }

    /// The spill file backing this matrix, when spilled.
    pub fn spill_path(&self) -> Option<&Path> {
        match &self.columns {
            Columns::SpilledWindows { path, .. } => Some(path),
            _ => None,
        }
    }

    fn check_bounds(&self, i: usize) -> Result<(), ArtifactError> {
        if i < self.rows {
            Ok(())
        } else {
            Err(ArtifactError::Mismatch(format!(
                "row {i} out of bounds ({} rows)",
                self.rows
            )))
        }
    }

    /// Borrowed view of sample `i`, or a typed error when `i` is out of
    /// bounds or the block is spilled (disk rows cannot be borrowed).
    pub fn try_row(&self, i: usize) -> Result<FeatureRow<'_>, ArtifactError> {
        self.check_bounds(i)?;
        match &self.columns {
            Columns::Dense { width, data } => {
                Ok(FeatureRow::Dense(&data[i * width..(i + 1) * width]))
            }
            Columns::Ids { width, data } => Ok(FeatureRow::Ids(&data[i * width..(i + 1) * width])),
            Columns::Windows { offsets, windows } => {
                Ok(FeatureRow::Windows(&windows[offsets[i]..offsets[i + 1]]))
            }
            Columns::SpilledWindows { .. } => Err(ArtifactError::Mismatch(
                "spilled window matrix: rows must be gathered, not borrowed".into(),
            )),
        }
    }

    /// Borrowed view of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or the block is spilled.
    pub fn row(&self, i: usize) -> FeatureRow<'_> {
        self.try_row(i).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Borrowed row views for a fold, in index order, or a typed error on
    /// an out-of-bounds index or a spilled block.
    pub fn try_gather_rows(&self, indices: &[usize]) -> Result<Vec<FeatureRow<'_>>, ArtifactError> {
        indices.iter().map(|&i| self.try_row(i)).collect()
    }

    /// Borrowed row views for a fold, in index order — the zero-copy
    /// gather the trait-dispatched model layer consumes.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or the block is spilled.
    pub fn gather_rows(&self, indices: &[usize]) -> Vec<FeatureRow<'_>> {
        self.try_gather_rows(indices)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Layout-agnostic gather: borrowed views for resident blocks, owned
    /// window lists read back from disk for spilled blocks. This is the
    /// one entry point the evaluation engine uses, which is why spilling a
    /// store requires no changes anywhere above it.
    pub fn try_gather(&self, indices: &[usize]) -> Result<GatheredRows<'_>, ArtifactError> {
        match &self.columns {
            Columns::SpilledWindows { .. } => Ok(GatheredRows::OwnedWindows(
                self.try_gather_windows(indices)?,
            )),
            _ => Ok(GatheredRows::Views(self.try_gather_rows(indices)?)),
        }
    }

    /// [`FeatureMatrix::try_gather`] for infallible callers.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds index or a spill-file read failure.
    pub fn gather(&self, indices: &[usize]) -> GatheredRows<'_> {
        self.try_gather(indices).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Gathers dense rows into one row-major flat buffer, or a typed error
    /// on the wrong layout.
    pub fn try_gather_dense_flat(&self, indices: &[usize]) -> Result<Vec<f32>, ArtifactError> {
        let Columns::Dense { width, data } = &self.columns else {
            return Err(ArtifactError::Mismatch("not a dense matrix".into()));
        };
        let mut out = Vec::with_capacity(indices.len() * width);
        for &i in indices {
            self.check_bounds(i)?;
            out.extend_from_slice(&data[i * width..(i + 1) * width]);
        }
        Ok(out)
    }

    /// Gathers dense rows for a fold into one row-major flat buffer — the
    /// zero-intermediate path into a contiguous design matrix.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not dense or an index is out of bounds.
    pub fn gather_dense_flat(&self, indices: &[usize]) -> Vec<f32> {
        self.try_gather_dense_flat(indices)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Gathers id rows for a fold, in index order, or a typed error on the
    /// wrong layout.
    pub fn try_gather_ids(&self, indices: &[usize]) -> Result<Vec<Vec<u32>>, ArtifactError> {
        indices
            .iter()
            .map(|&i| match self.try_row(i)? {
                FeatureRow::Ids(r) => Ok(r.to_vec()),
                _ => Err(ArtifactError::Mismatch("not an id matrix".into())),
            })
            .collect()
    }

    /// Gathers id rows for a fold, in index order.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not ids or an index is out of bounds.
    pub fn gather_ids(&self, indices: &[usize]) -> Vec<Vec<u32>> {
        self.try_gather_ids(indices)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Gathers per-sample window lists for a fold, in index order. For a
    /// spilled block this reads exactly the requested rows back from the
    /// spill file; resident blocks copy out of RAM.
    pub fn try_gather_windows(
        &self,
        indices: &[usize],
    ) -> Result<Vec<Vec<Vec<u32>>>, ArtifactError> {
        match &self.columns {
            Columns::SpilledWindows {
                path,
                offsets,
                id_offsets,
                data_start,
            } => {
                let mut file = std::fs::File::open(path)?;
                let mut out = Vec::with_capacity(indices.len());
                for &i in indices {
                    self.check_bounds(i)?;
                    let (w0, w1) = (offsets[i], offsets[i + 1]);
                    let (first, last) = (id_offsets[w0], id_offsets[w1]);
                    let mut raw = vec![0u8; (last - first) as usize * 4];
                    file.seek(SeekFrom::Start(data_start + first * 4))?;
                    file.read_exact(&mut raw)?;
                    let ids: Vec<u32> = raw
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    let row: Vec<Vec<u32>> = (w0..w1)
                        .map(|w| {
                            let a = (id_offsets[w] - first) as usize;
                            let b = (id_offsets[w + 1] - first) as usize;
                            ids[a..b].to_vec()
                        })
                        .collect();
                    out.push(row);
                }
                Ok(out)
            }
            _ => indices
                .iter()
                .map(|&i| match self.try_row(i)? {
                    FeatureRow::Windows(w) => Ok(w.to_vec()),
                    _ => Err(ArtifactError::Mismatch("not a window matrix".into())),
                })
                .collect(),
        }
    }

    /// Gathers per-sample window lists for a fold, in index order.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not windows, an index is out of bounds, or
    /// a spill-file read fails.
    pub fn gather_windows(&self, indices: &[usize]) -> Vec<Vec<Vec<u32>>> {
        self.try_gather_windows(indices)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Total scalar count held by the store (diagnostics/benches). Spilled
    /// blocks report their on-disk scalar count.
    pub fn scalar_count(&self) -> usize {
        match &self.columns {
            Columns::Dense { data, .. } => data.len(),
            Columns::Ids { data, .. } => data.len(),
            Columns::Windows { windows, .. } => windows.iter().map(Vec::len).sum(),
            Columns::SpilledWindows { id_offsets, .. } => {
                id_offsets.last().copied().unwrap_or(0) as usize
            }
        }
    }

    /// Serializes the matrix in its on-disk columnar form — the same
    /// layout [`FeatureMatrix::spill_to`] writes, so an embedded artifact
    /// section and a standalone spill file share one codec.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Mismatch`] when the block is already spilled (its
    /// bytes are the spill file; re-encode by gathering).
    pub fn write_state(&self, w: &mut ByteWriter) -> Result<(), ArtifactError> {
        w.put_usize(self.rows);
        match &self.columns {
            Columns::Dense { width, data } => {
                w.put_u8(0);
                w.put_usize(*width);
                w.put_f32_slice(data);
            }
            Columns::Ids { width, data } => {
                w.put_u8(1);
                w.put_usize(*width);
                w.put_u32_slice(data);
            }
            Columns::Windows { offsets, windows } => {
                let id_offsets = window_id_offsets(windows);
                write_windows_header(w, offsets, &id_offsets);
                for win in windows {
                    for &id in win {
                        w.put_u32(id);
                    }
                }
            }
            Columns::SpilledWindows { .. } => {
                return Err(ArtifactError::Mismatch(
                    "matrix is spilled; its on-disk form is the spill file itself".into(),
                ))
            }
        }
        Ok(())
    }

    /// Decodes a matrix from its on-disk columnar form into RAM.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on truncation, an unknown layout tag, or
    /// inconsistent offset tables.
    pub fn read_state(r: &mut ByteReader<'_>) -> Result<Self, ArtifactError> {
        let rows = r.take_usize()?;
        let tag = r.take_u8()?;
        let columns = match tag {
            0 => {
                let width = r.take_usize()?;
                let data = r.take_f32_slice()?;
                if data.len() != rows * width {
                    return Err(ArtifactError::Corrupt(format!(
                        "dense block holds {} values for {rows}x{width}",
                        data.len()
                    )));
                }
                Columns::Dense { width, data }
            }
            1 => {
                let width = r.take_usize()?;
                let data = r.take_u32_slice()?;
                if data.len() != rows * width {
                    return Err(ArtifactError::Corrupt(format!(
                        "id block holds {} values for {rows}x{width}",
                        data.len()
                    )));
                }
                Columns::Ids { width, data }
            }
            2 => {
                let offsets64 = r.take_u64_slice()?;
                let id_offsets = r.take_u64_slice()?;
                let total = r.take_usize()?;
                // Every id occupies 4 payload bytes; bounding the total
                // keeps crafted offset tables from forcing huge
                // per-window pre-allocations below.
                if total.checked_mul(4).is_none_or(|b| b > r.remaining()) {
                    return Err(ArtifactError::Corrupt(format!(
                        "window block claims {total} ids beyond the payload"
                    )));
                }
                let (offsets, n_windows) =
                    validate_window_offsets(rows, &offsets64, &id_offsets, total as u64)?;
                let mut windows = Vec::with_capacity(n_windows);
                for w in 0..n_windows {
                    let len = (id_offsets[w + 1] - id_offsets[w]) as usize;
                    let mut win = Vec::with_capacity(len);
                    for _ in 0..len {
                        win.push(r.take_u32()?);
                    }
                    windows.push(win);
                }
                Columns::Windows { offsets, windows }
            }
            other => {
                return Err(ArtifactError::Corrupt(format!(
                    "unknown matrix layout tag {other}"
                )))
            }
        };
        Ok(FeatureMatrix { rows, columns })
    }

    /// Writes a windows-layout matrix to `path` in its on-disk columnar
    /// form and returns the spilled handle: offset tables resident, window
    /// ids on disk, gathered lazily per trial.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Mismatch`] for non-window layouts (dense and id
    /// blocks are small; spilling them is not supported), plus any I/O
    /// failure.
    pub fn spill_to(&self, path: impl AsRef<Path>) -> Result<FeatureMatrix, ArtifactError> {
        let Columns::Windows { offsets, windows } = &self.columns else {
            return Err(ArtifactError::Mismatch(
                "only window blocks spill to disk".into(),
            ));
        };
        let path = path.as_ref().to_path_buf();
        let id_offsets = window_id_offsets(windows);

        // The header is tiny (offset tables); only it is materialized.
        // The id block — the part worth spilling — streams window by
        // window, so spilling never doubles the block's RAM footprint.
        let mut header = ByteWriter::new();
        header.put_raw(&SPILL_MAGIC);
        header.put_u32(SPILL_VERSION);
        header.put_usize(self.rows);
        write_windows_header(&mut header, offsets, &id_offsets);
        let data_start = header.len() as u64;
        debug_assert_eq!(
            data_start,
            spill_data_start(offsets.len(), id_offsets.len())
        );
        let file = std::fs::File::create(&path)?;
        let mut out = std::io::BufWriter::new(file);
        out.write_all(header.as_bytes())?;
        for win in windows {
            for &id in win {
                out.write_all(&id.to_le_bytes())?;
            }
        }
        out.into_inner().map_err(|e| e.into_error())?.sync_data()?;

        Ok(FeatureMatrix {
            rows: self.rows,
            columns: Columns::SpilledWindows {
                path,
                offsets: offsets.clone(),
                id_offsets,
                data_start,
            },
        })
    }
}

/// Cumulative per-window id counts (`id_offsets[w]..id_offsets[w + 1]` =
/// window `w`'s id range), the second offset table of the windows layout.
fn window_id_offsets(windows: &[Vec<u32>]) -> Vec<u64> {
    let mut id_offsets = Vec::with_capacity(windows.len() + 1);
    let mut total = 0u64;
    id_offsets.push(0);
    for win in windows {
        total += win.len() as u64;
        id_offsets.push(total);
    }
    id_offsets
}

/// The windows-layout wire prefix shared by the embedded codec
/// ([`FeatureMatrix::write_state`]) and the streaming spill writer: layout
/// tag, row-offset table, id-offset table, total id count. The flat `u32`
/// id block follows immediately.
fn write_windows_header(w: &mut ByteWriter, offsets: &[usize], id_offsets: &[u64]) {
    w.put_u8(2);
    let offsets64: Vec<u64> = offsets.iter().map(|&o| o as u64).collect();
    w.put_u64_slice(&offsets64);
    w.put_u64_slice(id_offsets);
    w.put_usize(id_offsets.last().copied().unwrap_or(0) as usize);
}

/// Byte position of the flat id block inside a spill file, derived from
/// the single place that knows the prefix layout: magic + version + rows +
/// [`write_windows_header`]'s tag, two count-prefixed `u64` tables and the
/// id-count field.
fn spill_data_start(n_row_offsets: usize, n_id_offsets: usize) -> u64 {
    (4 + 4) + (8 + 1) + (8 + 8 * n_row_offsets as u64) + (8 + 8 * n_id_offsets as u64) + 8
}

/// Checks the two window offset tables against each other: monotone,
/// zero-based, mutually consistent, covering `total` ids.
fn validate_window_offsets(
    rows: usize,
    offsets64: &[u64],
    id_offsets: &[u64],
    total: u64,
) -> Result<(Vec<usize>, usize), ArtifactError> {
    if offsets64.len() != rows + 1 || offsets64.first() != Some(&0) {
        return Err(ArtifactError::Corrupt(format!(
            "window offset table holds {} entries for {rows} rows",
            offsets64.len()
        )));
    }
    if offsets64.windows(2).any(|p| p[0] > p[1]) {
        return Err(ArtifactError::Corrupt(
            "window offsets are not monotone".into(),
        ));
    }
    let n_windows = *offsets64.last().unwrap() as usize;
    if id_offsets.len() != n_windows + 1
        || id_offsets.first() != Some(&0)
        || id_offsets.windows(2).any(|p| p[0] > p[1])
        || *id_offsets.last().unwrap() != total
    {
        return Err(ArtifactError::Corrupt(format!(
            "id offset table holds {} entries for {n_windows} windows ({total} ids)",
            id_offsets.len()
        )));
    }
    Ok((offsets64.iter().map(|&o| o as usize).collect(), n_windows))
}

/// Incremental spill writer: accepts one sample's window list at a time
/// and produces a spill file **byte-identical** to
/// [`FeatureMatrix::spill_to`]'s without ever materializing the window
/// block in RAM.
///
/// The spill format puts the offset tables *before* the flat id block, so
/// a single forward pass cannot write the final file directly (the tables
/// are only complete at the end). Ids therefore stream into a sidecar
/// `<path>.data` file as rows arrive — the only resident state is the two
/// offset tables, which stay resident in the spilled handle anyway — and
/// [`StreamingSpillWriter::finish`] assembles header + sidecar into the
/// final file with a bounded copy buffer.
#[derive(Debug)]
pub struct StreamingSpillWriter {
    path: PathBuf,
    data_path: PathBuf,
    data: std::io::BufWriter<std::fs::File>,
    offsets: Vec<usize>,
    id_offsets: Vec<u64>,
}

impl StreamingSpillWriter {
    /// Opens a writer targeting `path`; the sidecar id file is created
    /// next to it immediately.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the sidecar, as [`ArtifactError::Io`].
    pub fn create(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref().to_path_buf();
        let mut data_path = path.clone().into_os_string();
        data_path.push(".data");
        let data_path = PathBuf::from(data_path);
        let data = std::io::BufWriter::new(std::fs::File::create(&data_path)?);
        Ok(StreamingSpillWriter {
            path,
            data_path,
            data,
            offsets: vec![0],
            id_offsets: vec![0],
        })
    }

    /// Appends one sample's window list; its ids leave RAM immediately.
    ///
    /// # Errors
    ///
    /// Any sidecar write failure, as [`ArtifactError::Io`].
    pub fn push_row(&mut self, windows: &[Vec<u32>]) -> Result<(), ArtifactError> {
        for win in windows {
            for &id in win {
                self.data.write_all(&id.to_le_bytes())?;
            }
            let prev = *self.id_offsets.last().unwrap();
            self.id_offsets.push(prev + win.len() as u64);
        }
        self.offsets
            .push(self.offsets.last().unwrap() + windows.len());
        Ok(())
    }

    /// Window ids streamed to the sidecar so far.
    pub fn total_ids(&self) -> u64 {
        *self.id_offsets.last().unwrap()
    }

    /// Flushes and closes the sidecar, handing back the writer's parts.
    fn close_data(self) -> Result<(PathBuf, PathBuf, Vec<usize>, Vec<u64>), ArtifactError> {
        let StreamingSpillWriter {
            path,
            data_path,
            data,
            offsets,
            id_offsets,
        } = self;
        data.into_inner().map_err(|e| e.into_error())?;
        Ok((path, data_path, offsets, id_offsets))
    }

    /// Assembles the final spill file — header (magic, version, offset
    /// tables) followed by the streamed id block — removes the sidecar,
    /// and returns the spilled handle. The file is byte-identical to what
    /// [`FeatureMatrix::spill_to`] writes for the same rows.
    ///
    /// # Errors
    ///
    /// Any I/O failure, as [`ArtifactError::Io`].
    pub fn finish(self) -> Result<FeatureMatrix, ArtifactError> {
        let (path, data_path, offsets, id_offsets) = self.close_data()?;
        let rows = offsets.len() - 1;
        let mut header = ByteWriter::new();
        header.put_raw(&SPILL_MAGIC);
        header.put_u32(SPILL_VERSION);
        header.put_usize(rows);
        write_windows_header(&mut header, &offsets, &id_offsets);
        let data_start = header.len() as u64;
        debug_assert_eq!(
            data_start,
            spill_data_start(offsets.len(), id_offsets.len())
        );
        let file = std::fs::File::create(&path)?;
        let mut out = std::io::BufWriter::new(file);
        out.write_all(header.as_bytes())?;
        let mut src = std::fs::File::open(&data_path)?;
        // io::copy moves the id block through a fixed-size buffer; the
        // block itself never becomes resident.
        std::io::copy(&mut src, &mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
        drop(src);
        std::fs::remove_file(&data_path)?;
        Ok(FeatureMatrix {
            rows,
            columns: Columns::SpilledWindows {
                path,
                offsets,
                id_offsets,
                data_start,
            },
        })
    }

    /// Reads the streamed block back into a *resident* windows matrix and
    /// removes the sidecar — the under-threshold exit, mirroring the batch
    /// builder's decision to keep small blocks in RAM.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] if the sidecar length disagrees with the
    /// offset tables, plus any I/O failure.
    pub fn into_resident(self) -> Result<FeatureMatrix, ArtifactError> {
        let (_path, data_path, offsets, id_offsets) = self.close_data()?;
        let rows = offsets.len() - 1;
        let total = *id_offsets.last().unwrap() as usize;
        let bytes = std::fs::read(&data_path)?;
        std::fs::remove_file(&data_path)?;
        if bytes.len() != total * 4 {
            return Err(ArtifactError::Corrupt(format!(
                "spill sidecar holds {} bytes for {total} ids",
                bytes.len()
            )));
        }
        let ids: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let windows: Vec<Vec<u32>> = id_offsets
            .windows(2)
            .map(|p| ids[p[0] as usize..p[1] as usize].to_vec())
            .collect();
        Ok(FeatureMatrix {
            rows,
            columns: Columns::Windows { offsets, windows },
        })
    }
}

/// Opens an `encoders` section in the presence-masked layout. A legacy
/// section opens with the histogram's vocabulary length instead, which
/// never comes near this value.
const ENCODERS_SENTINEL: u64 = u64::MAX;

/// Presence mask with all six encoder slots set — the legacy layout.
const ALL_ENCODERS: u8 = 0b11_1111;

/// The fitted encoders of one dataset, detached from the column stores —
/// only those some consumer asked for.
///
/// This is the *serving half* of a [`FeatureStore`]: it carries only the
/// lookup tables (histogram vocabulary, frequency tables, bigram
/// vocabulary — kilobytes), not the per-sample feature matrices, so a
/// trained detector can keep featurizing fresh contracts long after the
/// training-set encodings are dropped. A detector carries the one
/// encoder its model reads, so it neither fits nor ships the others.
///
/// [`FittedEncoders::encode`] and the width/vocabulary accessors panic
/// when asked about an encoder the set does not hold;
/// [`FittedEncoders::encodings`] lists what it holds.
#[derive(Debug, Clone, Default)]
pub struct FittedEncoders {
    hist: Option<HistogramEncoder>,
    freq: Option<FreqImageEncoder>,
    r2d2: Option<R2d2Encoder>,
    bigram: Option<BigramEncoder>,
    token: Option<OpcodeTokenizer>,
    escort: Option<EscortEmbedder>,
}

/// The encoder behind `encoding`, which the set must hold.
fn fitted<T>(slot: &Option<T>, encoding: Encoding) -> &T {
    slot.as_ref()
        .unwrap_or_else(|| panic!("no {} encoder was fitted", encoding.name()))
}

impl FittedEncoders {
    /// Fits the encoders behind `encodings` on `fit`'s shared caches under
    /// `config`'s geometry, each once however many of its encodings are
    /// listed.
    pub fn fit(fit: &[DisasmCache], config: &StoreConfig, encodings: &[Encoding]) -> Self {
        let wanted = |slot: usize| encodings.iter().any(|e| e.slot() == slot);
        FittedEncoders {
            hist: wanted(0).then(|| HistogramEncoder::fit(fit)),
            freq: wanted(1).then(|| FreqImageEncoder::fit(fit, config.image_side)),
            r2d2: wanted(2).then(|| R2d2Encoder::new(config.image_side)),
            bigram: wanted(3)
                .then(|| BigramEncoder::fit(fit, config.bigram_vocab, config.bigram_len)),
            token: wanted(4).then(|| OpcodeTokenizer::new(config.context)),
            escort: wanted(5).then(|| EscortEmbedder::new(config.escort_dim)),
        }
    }

    /// Bit `i` set when encoder slot `i` is present.
    fn mask(&self) -> u8 {
        [
            self.hist.is_some(),
            self.freq.is_some(),
            self.r2d2.is_some(),
            self.bigram.is_some(),
            self.token.is_some(),
            self.escort.is_some(),
        ]
        .into_iter()
        .enumerate()
        .fold(0, |mask, (slot, present)| {
            mask | (u8::from(present) << slot)
        })
    }

    /// The encodings this set can featurize, in [`Encoding::ALL`] order
    /// (the tokenizer serves both token variants).
    pub fn encodings(&self) -> Vec<Encoding> {
        let mask = self.mask();
        Encoding::ALL
            .into_iter()
            .filter(|e| mask & (1 << e.slot()) != 0)
            .collect()
    }

    /// Adds `other`'s encoders that this set lacks.
    fn absorb(&mut self, other: &FittedEncoders) {
        self.hist = self.hist.take().or_else(|| other.hist.clone());
        self.freq = self.freq.take().or_else(|| other.freq.clone());
        self.r2d2 = self.r2d2.or(other.r2d2);
        self.bigram = self.bigram.take().or_else(|| other.bigram.clone());
        self.token = self.token.or(other.token);
        self.escort = self.escort.or(other.escort);
    }

    /// Featurizes one contract under a single selected encoding — the
    /// selective serving path: a single-model detector pays for exactly the
    /// representation its model consumes, never the full seven-row pass.
    ///
    /// # Panics
    ///
    /// Panics if the set holds no encoder for `encoding`.
    pub fn encode(&self, cache: &DisasmCache, encoding: Encoding) -> FeatureVec {
        match encoding {
            Encoding::Histogram => FeatureVec::Dense(fitted(&self.hist, encoding).encode(cache)),
            Encoding::FreqImage => FeatureVec::Dense(fitted(&self.freq, encoding).encode(cache)),
            Encoding::R2d2 => FeatureVec::Dense(fitted(&self.r2d2, encoding).encode(cache)),
            Encoding::Bigram => FeatureVec::Ids(fitted(&self.bigram, encoding).encode(cache)),
            Encoding::TokensTruncate => FeatureVec::Windows(
                fitted(&self.token, encoding).encode(cache, SequenceVariant::Truncate),
            ),
            Encoding::TokensWindows => FeatureVec::Windows(
                fitted(&self.token, encoding).encode(cache, SequenceVariant::SlidingWindow),
            ),
            Encoding::Escort => FeatureVec::Dense(fitted(&self.escort, encoding).encode(cache)),
        }
    }

    /// Histogram feature width (dataset vocabulary size).
    pub fn histogram_width(&self) -> usize {
        fitted(&self.hist, Encoding::Histogram).vocab_len()
    }

    /// SCSGuard embedding-table size (bigram vocabulary + PAD/UNK).
    pub fn bigram_vocab_size(&self) -> usize {
        fitted(&self.bigram, Encoding::Bigram).vocab_size()
    }

    /// Language-model vocabulary size (opcode-level, fixed).
    pub fn token_vocab_size(&self) -> usize {
        fitted(&self.token, Encoding::TokensTruncate).vocab_size()
    }

    /// Serializes the present lookup tables — kilobytes — as one opaque
    /// blob for the artifact layer: a `u64::MAX` sentinel, a one-byte
    /// presence mask (bit `i` = encoder slot `i`, in histogram,
    /// freq-image, R2D2, bigram, tokenizer, ESCORT order), then each
    /// present encoder's state in slot order.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(ENCODERS_SENTINEL);
        w.put_u8(self.mask());
        if let Some(e) = &self.hist {
            e.write_state(&mut w);
        }
        if let Some(e) = &self.freq {
            e.write_state(&mut w);
        }
        if let Some(e) = &self.r2d2 {
            e.write_state(&mut w);
        }
        if let Some(e) = &self.bigram {
            e.write_state(&mut w);
        }
        if let Some(e) = &self.token {
            e.write_state(&mut w);
        }
        if let Some(e) = &self.escort {
            e.write_state(&mut w);
        }
        w.into_bytes()
    }

    /// Rebuilds the fitted encoder set from [`FittedEncoders::export_state`]
    /// bytes, or from the legacy layout that holds all six states back to
    /// back with no sentinel or mask. A detector reloaded through this
    /// path featurizes fresh contracts against exactly the lookup tables
    /// it was trained under.
    ///
    /// # Errors
    ///
    /// Any per-encoder decode failure, plus
    /// [`ArtifactError::Corrupt`] on an unknown presence bit or trailing
    /// bytes.
    pub fn import_state(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let mask = if bytes.starts_with(&ENCODERS_SENTINEL.to_le_bytes()) {
            r.take_u64()?;
            let mask = r.take_u8()?;
            if mask & !ALL_ENCODERS != 0 {
                return Err(ArtifactError::Corrupt(format!(
                    "encoder presence mask {mask:#010b} names an unknown encoder"
                )));
            }
            mask
        } else {
            ALL_ENCODERS
        };
        let present = |slot: usize| mask & (1 << slot) != 0;
        let encoders = FittedEncoders {
            hist: present(0)
                .then(|| HistogramEncoder::read_state(&mut r))
                .transpose()?,
            freq: present(1)
                .then(|| FreqImageEncoder::read_state(&mut r))
                .transpose()?,
            r2d2: present(2)
                .then(|| R2d2Encoder::read_state(&mut r))
                .transpose()?,
            bigram: present(3)
                .then(|| BigramEncoder::read_state(&mut r))
                .transpose()?,
            token: present(4)
                .then(|| OpcodeTokenizer::read_state(&mut r))
                .transpose()?,
            escort: present(5)
                .then(|| EscortEmbedder::read_state(&mut r))
                .transpose()?,
        };
        r.expect_exhausted("fitted encoder tables")?;
        Ok(encoders)
    }
}

/// Where and when a [`FeatureStore`] spills window blocks to their
/// on-disk columnar form during the build.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory the spill files are written into (one file per spilled
    /// encoding, named `<encoding>.phkspill`). The caller owns the
    /// directory's lifetime; dropping the store does not delete files.
    pub dir: PathBuf,
    /// Blocks whose scalar payload is at least this many bytes are
    /// spilled. `0` spills every window block (useful in tests).
    pub threshold_bytes: usize,
}

impl SpillConfig {
    /// Spills every window block into `dir`.
    pub fn all(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            threshold_bytes: 0,
        }
    }
}

/// RAM budget of a streaming store build
/// ([`FeatureStore::build_streaming`]).
#[derive(Debug, Clone)]
pub struct StreamBudget {
    /// Spill destination and threshold (see [`SpillConfig`]).
    pub spill: SpillConfig,
    /// Hard cap on how many samples' token-window blocks may be resident
    /// at once during the build: windows are encoded in chunks of at most
    /// this many rows and streamed to disk before the next chunk is
    /// encoded. Clamped to at least 1.
    pub resident_rows: usize,
}

/// What a streaming build actually did — the observability half of the
/// RAM-bound contract (tests assert `peak_resident_rows` never exceeds
/// the configured budget, at any chain length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Most token-window rows resident at any instant during the build.
    pub peak_resident_rows: usize,
    /// Encode-and-flush chunks across both token encodings.
    pub flushes: usize,
}

/// One dataset's decoded caches plus, per encoding, its column store —
/// each encoder fitted and each matrix packed on first use, so a store
/// pays only for the encodings its consumers read.
#[derive(Debug, Clone)]
pub struct FeatureStore {
    caches: CacheBatch,
    /// The caches the lookup tables are fitted on; `None` fits on
    /// `caches`.
    fit: Option<Vec<DisasmCache>>,
    config: StoreConfig,
    /// One single-encoder set per encoder slot, fitted on first use.
    encoders: [OnceLock<FittedEncoders>; 6],
    /// One column store per encoding, packed on first use.
    matrices: [OnceLock<FeatureMatrix>; 7],
}

impl FeatureStore {
    /// A store over `caches` that fits nothing and encodes nothing yet.
    /// The encoders are fitted on `fit` when given — a designated
    /// training subset is the leakage-safe choice for studies with a
    /// privileged hold-out direction (the temporal drift experiment fits
    /// on its training window, so vocabularies never see future months) —
    /// and on `caches` otherwise.
    pub fn new(caches: CacheBatch, fit: Option<Vec<DisasmCache>>, config: &StoreConfig) -> Self {
        FeatureStore {
            caches,
            fit,
            config: *config,
            encoders: Default::default(),
            matrices: Default::default(),
        }
    }

    /// Like [`FeatureStore::new`], but builds every matrix up front under a
    /// **RAM bound**: the token-window blocks — the largest matrices a
    /// store holds, and the only ones that grow with contract size rather
    /// than staying O(rows × fixed width) — are encoded in chunks of at most `budget.resident_rows` samples
    /// and streamed to disk through a [`StreamingSpillWriter`] before the
    /// next chunk is encoded, so peak window residency is
    /// `budget.resident_rows` no matter how long the chain is. Trials
    /// gather spilled rows lazily through [`FeatureMatrix::gather`], so
    /// corpora larger than RAM evaluate with no layout changes anywhere
    /// above the store.
    ///
    /// The resulting store is **bit-identical** to [`FeatureStore::new`]
    /// followed by [`FeatureMatrix::spill_to`] on each token block whose
    /// payload reaches `budget.spill.threshold_bytes`: same encoder tables,
    /// same matrices, same spill-file bytes. Blocks under the threshold
    /// are read back resident at the end.
    ///
    /// Returns the store plus a [`StreamReport`] carrying the observed
    /// peak residency.
    ///
    /// # Errors
    ///
    /// Any spill-file I/O failure, as [`ArtifactError::Io`].
    pub fn build_streaming(
        caches: CacheBatch,
        fit: Option<Vec<DisasmCache>>,
        config: &StoreConfig,
        budget: &StreamBudget,
    ) -> Result<(Self, StreamReport), ArtifactError> {
        let store = FeatureStore::new(caches, fit, config);
        std::fs::create_dir_all(&budget.spill.dir)?;
        let chunk_rows = budget.resident_rows.max(1);
        let mut report = StreamReport {
            peak_resident_rows: 0,
            flushes: 0,
        };
        for encoding in [Encoding::TokensTruncate, Encoding::TokensWindows] {
            let encoders = store.encoder(encoding);
            let path = budget
                .spill
                .dir
                .join(format!("{}.phkspill", encoding.name()));
            let mut writer = StreamingSpillWriter::create(&path)?;
            for chunk in store.caches.as_slice().chunks(chunk_rows) {
                let rows = parallel_map(chunk, |c| encoders.encode(c, encoding));
                report.peak_resident_rows = report.peak_resident_rows.max(rows.len());
                report.flushes += 1;
                for row in &rows {
                    match row {
                        FeatureVec::Windows(w) => writer.push_row(w)?,
                        _ => unreachable!("token encodings produce window rows"),
                    }
                }
            }
            // Blocks under the byte threshold stay in RAM.
            let matrix =
                if (writer.total_ids() as usize).saturating_mul(4) < budget.spill.threshold_bytes {
                    writer.into_resident()?
                } else {
                    writer.finish()?
                };
            store.matrices[encoding.index()]
                .set(matrix)
                .expect("a fresh store has packed nothing");
        }
        // The five fixed-width encodings are O(rows × width) — kilobytes
        // per thousand contracts — and stay resident.
        for encoding in Encoding::ALL {
            store.matrix(encoding);
        }
        Ok((store, report))
    }

    /// The encodings currently living in their on-disk spilled form.
    pub fn spilled_encodings(&self) -> Vec<Encoding> {
        Encoding::ALL
            .into_iter()
            .filter(|e| {
                self.matrices[e.index()]
                    .get()
                    .is_some_and(FeatureMatrix::is_spilled)
            })
            .collect()
    }

    /// Number of samples in the store.
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// `true` when the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// The decoded caches every encoding is packed from.
    pub fn caches(&self) -> &CacheBatch {
        &self.caches
    }

    /// The single-encoder set behind `encoding`, fitted on first use.
    fn encoder(&self, encoding: Encoding) -> &FittedEncoders {
        self.encoders[encoding.slot()].get_or_init(|| {
            let fit = self.fit.as_deref().unwrap_or(self.caches.as_slice());
            FittedEncoders::fit(fit, &self.config, &[encoding])
        })
    }

    /// The column store of one encoding, packed across the worker pool in
    /// input order on first use — the single dispatch point the
    /// trait-based model layer gathers rows through.
    pub fn matrix(&self, encoding: Encoding) -> &FeatureMatrix {
        self.matrices[encoding.index()].get_or_init(|| {
            let encoders = self.encoder(encoding);
            FeatureMatrix::from_vecs(parallel_map(self.caches.as_slice(), |c| {
                encoders.encode(c, encoding)
            }))
        })
    }

    /// The fitted encoders behind `encodings` and nothing else — clone-out
    /// kilobytes, not the matrices — to build a persistent serving
    /// artifact that outlives the store.
    pub fn encoders_for(&self, encodings: &[Encoding]) -> FittedEncoders {
        let mut out = FittedEncoders::default();
        for &encoding in encodings {
            out.absorb(self.encoder(encoding));
        }
        out
    }

    /// Histogram feature width (dataset vocabulary size).
    pub fn histogram_width(&self) -> usize {
        self.encoder(Encoding::Histogram).histogram_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::Bytecode;

    fn caches() -> Vec<DisasmCache> {
        [
            vec![0x60, 0x80, 0x60, 0x40, 0x52],
            vec![0x60, 0x01, 0x60, 0x02, 0x01, 0x00],
            vec![0x33, 0x31, 0xff],
        ]
        .into_iter()
        .map(|b| DisasmCache::build(&Bytecode::new(b)))
        .collect()
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            image_side: 4,
            context: 8,
            bigram_vocab: 16,
            bigram_len: 6,
            escort_dim: 8,
        }
    }

    fn store_over(caches: &[DisasmCache], cfg: &StoreConfig) -> FeatureStore {
        FeatureStore::new(CacheBatch::from_caches(caches.to_vec()), None, cfg)
    }

    fn small_store() -> FeatureStore {
        store_over(&caches(), &small_config())
    }

    #[test]
    fn store_rows_match_individual_encoding() {
        let caches = caches();
        let cfg = small_config();
        let store = store_over(&caches, &cfg);
        assert_eq!(store.len(), 3);

        let hist = HistogramEncoder::fit(&caches);
        let bigram = BigramEncoder::fit(&caches, cfg.bigram_vocab, cfg.bigram_len);
        let tok = OpcodeTokenizer::new(cfg.context);
        for (i, c) in caches.iter().enumerate() {
            assert_eq!(
                store.matrix(Encoding::Histogram).row(i),
                FeatureRow::Dense(&hist.encode(c)[..])
            );
            assert_eq!(
                store.matrix(Encoding::Bigram).row(i),
                FeatureRow::Ids(&bigram.encode(c)[..])
            );
            assert_eq!(
                store.matrix(Encoding::TokensWindows).row(i),
                FeatureRow::Windows(&tok.encode(c, SequenceVariant::SlidingWindow)[..])
            );
        }
    }

    #[test]
    fn gather_preserves_index_order() {
        let store = small_store();
        let hist = store.matrix(Encoding::Histogram);
        let ids = store.matrix(Encoding::Bigram).gather_ids(&[1]);
        assert_eq!(
            FeatureRow::Ids(&ids[0]),
            store.matrix(Encoding::Bigram).row(1)
        );
        // Borrowed and flat gathers follow index order.
        assert_eq!(hist.gather_rows(&[2, 0]), [hist.row(2), hist.row(0)]);
        let flat = hist.gather_dense_flat(&[2, 0]);
        let w = hist.width().unwrap();
        assert_eq!(FeatureRow::Dense(&flat[..w]), hist.row(2));
        assert_eq!(FeatureRow::Dense(&flat[w..]), hist.row(0));
    }

    #[test]
    fn ragged_windows_round_trip() {
        let vecs = vec![
            FeatureVec::Windows(vec![vec![1, 2], vec![3, 4]]),
            FeatureVec::Windows(vec![vec![5, 6]]),
        ];
        let m = FeatureMatrix::from_vecs(vecs);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.width(), None);
        assert_eq!(m.row(0).len(), 4);
        let g = m.gather_windows(&[1, 0]);
        assert_eq!(g[0], vec![vec![5, 6]]);
        assert_eq!(g[1], vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(m.scalar_count(), 6);
    }

    #[test]
    fn fitted_subset_controls_the_vocabulary() {
        let caches = caches();
        let cfg = small_config();
        // Fit on the first sample only: the histogram vocabulary must be
        // that sample's opcodes, while all three samples are still encoded.
        let store = FeatureStore::new(
            CacheBatch::from_caches(caches.clone()),
            Some(caches[..1].to_vec()),
            &cfg,
        );
        assert_eq!(store.len(), 3);
        assert_eq!(store.matrix(Encoding::Histogram).rows(), 3);
        let fit_only = HistogramEncoder::fit(&caches[..1]);
        assert_eq!(store.histogram_width(), fit_only.vocab_len());
        let full = store_over(&caches, &cfg);
        assert!(store.histogram_width() < full.histogram_width());
    }

    #[test]
    fn store_fits_and_packs_only_what_is_read() {
        let caches = caches();
        let store = store_over(&caches, &small_config());
        store.matrix(Encoding::Histogram);
        assert!(store
            .encoders
            .iter()
            .enumerate()
            .all(|(slot, cell)| cell.get().is_some() == (slot == Encoding::Histogram.slot())));
        assert_eq!(
            store.matrices.iter().filter(|m| m.get().is_some()).count(),
            1
        );
        // The detached set holds exactly the encoders asked for.
        let tokens = store.encoders_for(&[Encoding::TokensWindows]);
        assert_eq!(
            tokens.encodings(),
            [Encoding::TokensTruncate, Encoding::TokensWindows]
        );
        let union = store.encoders_for(&[Encoding::Escort, Encoding::Histogram]);
        assert_eq!(union.encodings(), [Encoding::Histogram, Encoding::Escort]);
        assert_eq!(
            union.encode(&caches[2], Encoding::Histogram).as_row(),
            store.matrix(Encoding::Histogram).row(2)
        );
    }

    #[test]
    #[should_panic(expected = "no bigram encoder was fitted")]
    fn encoding_without_its_encoder_panics() {
        let caches = caches();
        let store = store_over(&caches, &small_config());
        store
            .encoders_for(&[Encoding::Histogram])
            .encode(&caches[0], Encoding::Bigram);
    }

    #[test]
    fn encoding_indices_follow_all_order() {
        for (i, e) in Encoding::ALL.into_iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        let names: std::collections::HashSet<_> =
            Encoding::ALL.into_iter().map(Encoding::name).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    #[should_panic(expected = "mixed feature representations")]
    fn mixed_representations_rejected() {
        FeatureMatrix::from_vecs(vec![FeatureVec::Dense(vec![1.0]), FeatureVec::Ids(vec![1])]);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("phk_store_tests")
            .join(format!("{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn matrix_codec_round_trips_all_layouts() {
        let store = small_store();
        for encoding in Encoding::ALL {
            let m = store.matrix(encoding);
            let mut w = ByteWriter::new();
            m.write_state(&mut w).unwrap();
            let mut r = ByteReader::new(w.as_bytes());
            let back = FeatureMatrix::read_state(&mut r).unwrap();
            r.expect_exhausted("matrix").unwrap();
            assert_eq!(&back, m, "{encoding:?}");
        }
    }

    #[test]
    fn corrupt_matrix_payload_is_an_error() {
        let store = small_store();
        let mut w = ByteWriter::new();
        store
            .matrix(Encoding::Histogram)
            .write_state(&mut w)
            .unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 3]);
        assert!(FeatureMatrix::read_state(&mut r).is_err());
        // Unknown layout tag.
        let mut bad = ByteWriter::new();
        bad.put_usize(1);
        bad.put_u8(9);
        let bytes = bad.into_bytes();
        assert!(matches!(
            FeatureMatrix::read_state(&mut ByteReader::new(&bytes)),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn spilled_windows_gather_identically_and_lazily() {
        let caches = caches();
        let cfg = small_config();
        let store = store_over(&caches, &cfg);
        let dir = temp_dir("spill_gather");
        for encoding in [Encoding::TokensTruncate, Encoding::TokensWindows] {
            let resident = store.matrix(encoding);
            let spilled = resident
                .spill_to(dir.join(format!("{}.phkspill", encoding.name())))
                .unwrap();
            assert!(spilled.is_spilled() && !resident.is_spilled());
            assert_eq!(spilled.rows(), resident.rows());
            assert_eq!(spilled.width(), None);
            assert_eq!(spilled.scalar_count(), resident.scalar_count());
            let idx = [2usize, 0, 1];
            assert_eq!(
                spilled.gather_windows(&idx),
                resident.gather_windows(&idx),
                "{encoding:?}: spilled gather must be bit-identical"
            );
            // The layout-agnostic gather agrees row-for-row.
            let a = spilled.gather(&idx);
            let b = resident.gather(&idx);
            assert_eq!(a.rows(), b.rows());
            // Borrowed access is a typed error, not a panic.
            assert!(matches!(
                spilled.try_row(0),
                Err(ArtifactError::Mismatch(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_spill_writer_matches_the_embedded_codec() {
        // spill_to streams the id block instead of materializing the
        // serialized form; the bytes it produces must stay identical to
        // magic + version + write_state, or spilled gathers would read
        // from the wrong offsets.
        let store = small_store();
        let dir = temp_dir("spill_sync");
        let matrix = store.matrix(Encoding::TokensWindows);
        let path = dir.join("sync.phkspill");
        matrix.spill_to(&path).unwrap();
        let mut expected = ByteWriter::new();
        expected.put_raw(&SPILL_MAGIC);
        expected.put_u32(SPILL_VERSION);
        matrix.write_state(&mut expected).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected.into_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_spilled_store_evaluates_like_the_resident_store() {
        let caches = caches();
        let cfg = small_config();
        let resident = store_over(&caches, &cfg);
        let dir = temp_dir("spill_build");
        let unbounded = |spill: SpillConfig| {
            let budget = StreamBudget {
                spill,
                resident_rows: caches.len(),
            };
            FeatureStore::build_streaming(
                CacheBatch::from_caches(caches.clone()),
                None,
                &cfg,
                &budget,
            )
            .unwrap()
            .0
        };
        let spilled = unbounded(SpillConfig::all(&dir));
        assert_eq!(
            spilled.spilled_encodings(),
            vec![Encoding::TokensTruncate, Encoding::TokensWindows]
        );
        let idx: Vec<usize> = (0..caches.len()).collect();
        for encoding in Encoding::ALL {
            assert_eq!(
                spilled.matrix(encoding).gather(&idx).rows(),
                resident.matrix(encoding).gather(&idx).rows(),
                "{encoding:?}"
            );
        }
        // A large threshold spills nothing.
        let none = unbounded(SpillConfig {
            dir: dir.clone(),
            threshold_bytes: usize::MAX,
        });
        assert!(none.spilled_encodings().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_build_is_bit_identical_to_batch_build() {
        let caches = caches();
        let cfg = small_config();
        let batch_dir = temp_dir("stream_batch");
        let stream_dir = temp_dir("stream_stream");
        // The reference: the resident build, then each token block
        // spilled whole with `spill_to`.
        let batch = store_over(&caches, &cfg);
        let batch_spill_bytes = |encoding: Encoding| {
            let path = batch_dir.join(format!("{}.phkspill", encoding.name()));
            batch.matrix(encoding).spill_to(&path).unwrap();
            std::fs::read(path).unwrap()
        };
        let batch_spills = [
            batch_spill_bytes(Encoding::TokensTruncate),
            batch_spill_bytes(Encoding::TokensWindows),
        ];
        for budget_rows in [1usize, 2, 7] {
            let (streamed, report) = FeatureStore::build_streaming(
                CacheBatch::from_caches(caches.clone()),
                None,
                &cfg,
                &StreamBudget {
                    spill: SpillConfig::all(&stream_dir),
                    resident_rows: budget_rows,
                },
            )
            .unwrap();
            assert!(
                report.peak_resident_rows <= budget_rows,
                "budget {budget_rows}: peak {}",
                report.peak_resident_rows
            );
            let idx: Vec<usize> = (0..caches.len()).collect();
            for encoding in Encoding::ALL {
                assert_eq!(
                    streamed.matrix(encoding).gather(&idx).rows(),
                    batch.matrix(encoding).gather(&idx).rows(),
                    "{encoding:?} (budget {budget_rows})"
                );
            }
            // The spill files themselves are byte-identical to spilling
            // the resident build's blocks.
            for (encoding, expected) in [Encoding::TokensTruncate, Encoding::TokensWindows]
                .into_iter()
                .zip(&batch_spills)
            {
                assert_eq!(
                    &std::fs::read(streamed.matrix(encoding).spill_path().unwrap()).unwrap(),
                    expected,
                    "{encoding:?} spill bytes (budget {budget_rows})"
                );
            }
            // No sidecar survives a finished build.
            assert!(std::fs::read_dir(&stream_dir).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".data")));
        }
        // Under-threshold blocks come back resident, bit-for-bit.
        let (kept, _) = FeatureStore::build_streaming(
            CacheBatch::from_caches(caches.clone()),
            None,
            &cfg,
            &StreamBudget {
                spill: SpillConfig {
                    dir: stream_dir.clone(),
                    threshold_bytes: usize::MAX,
                },
                resident_rows: 2,
            },
        )
        .unwrap();
        assert!(kept.spilled_encodings().is_empty());
        for encoding in [Encoding::TokensTruncate, Encoding::TokensWindows] {
            assert_eq!(kept.matrix(encoding), batch.matrix(encoding));
        }
        std::fs::remove_dir_all(&batch_dir).ok();
        std::fs::remove_dir_all(&stream_dir).ok();
    }

    #[test]
    fn try_accessors_return_typed_errors() {
        let store = small_store();
        let hist = store.matrix(Encoding::Histogram);
        assert!(hist.try_row(0).is_ok());
        assert!(matches!(hist.try_row(999), Err(ArtifactError::Mismatch(_))));
        assert!(matches!(
            hist.try_gather_ids(&[0]),
            Err(ArtifactError::Mismatch(_))
        ));
        assert!(matches!(
            store.matrix(Encoding::Bigram).try_gather_dense_flat(&[0]),
            Err(ArtifactError::Mismatch(_))
        ));
        assert!(matches!(
            store.matrix(Encoding::Escort).try_gather_windows(&[0]),
            Err(ArtifactError::Mismatch(_))
        ));
        // The Ok sides agree with the panicking accessors.
        assert_eq!(
            store
                .matrix(Encoding::Bigram)
                .try_gather_ids(&[1, 0])
                .unwrap(),
            store.matrix(Encoding::Bigram).gather_ids(&[1, 0])
        );
    }

    #[test]
    fn fitted_encoders_round_trip_serves_identical_rows() {
        let caches = caches();
        let all = FittedEncoders::fit(&caches, &small_config(), &Encoding::ALL);
        for encodings in [
            &Encoding::ALL[..],
            &[Encoding::Histogram],
            &[Encoding::Bigram, Encoding::TokensTruncate],
            &[],
        ] {
            let fitted = FittedEncoders::fit(&caches, &small_config(), encodings);
            let blob = fitted.export_state();
            let restored = FittedEncoders::import_state(&blob).unwrap();
            assert_eq!(restored.encodings(), fitted.encodings());
            for encoding in restored.encodings() {
                for cache in &caches {
                    assert_eq!(
                        restored.encode(cache, encoding),
                        all.encode(cache, encoding),
                        "{encoding:?}"
                    );
                }
            }
            // Serialization is canonical: re-export reproduces the bytes.
            assert_eq!(restored.export_state(), blob);
            // Truncation is a typed error.
            assert!(FittedEncoders::import_state(&blob[..blob.len() - 1]).is_err());
        }
        // A presence bit past the six encoders is corrupt.
        let mut bad = ByteWriter::new();
        bad.put_u64(ENCODERS_SENTINEL);
        bad.put_u8(1 << 6);
        assert!(matches!(
            FittedEncoders::import_state(&bad.into_bytes()),
            Err(ArtifactError::Corrupt(_))
        ));
    }
}
