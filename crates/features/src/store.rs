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
//!     store.encoder(Encoding::Histogram).encodings(),
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
}

/// One encoding of every sample, indexed by sample, sliceable by fold.
///
/// Dense and id encodings are packed row-major into a single flat buffer;
/// window encodings keep a ragged offset table. Rows are borrowed out as
/// [`FeatureRow`] views and gathered per fold without touching an encoder.
///
/// Every index a matrix is asked for is computed inside the process (fold
/// plans, test splits), so the accessors panic on an out-of-bounds index
/// or the wrong layout: either is a bug in the caller.
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
            Columns::Windows { .. } => None,
        }
    }

    fn check_bounds(&self, i: usize) {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
    }

    /// Borrowed view of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> FeatureRow<'_> {
        self.check_bounds(i);
        match &self.columns {
            Columns::Dense { width, data } => FeatureRow::Dense(&data[i * width..(i + 1) * width]),
            Columns::Ids { width, data } => FeatureRow::Ids(&data[i * width..(i + 1) * width]),
            Columns::Windows { offsets, windows } => {
                FeatureRow::Windows(&windows[offsets[i]..offsets[i + 1]])
            }
        }
    }

    /// Borrowed row views for a fold, in index order — the zero-copy
    /// gather the trait-dispatched model layer consumes.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Vec<FeatureRow<'_>> {
        indices.iter().map(|&i| self.row(i)).collect()
    }

    /// Gathers dense rows for a fold into one row-major flat buffer — the
    /// zero-intermediate path into a contiguous design matrix.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not dense or an index is out of bounds.
    pub fn gather_dense_flat(&self, indices: &[usize]) -> Vec<f32> {
        let Columns::Dense { width, data } = &self.columns else {
            panic!("not a dense matrix");
        };
        let mut out = Vec::with_capacity(indices.len() * width);
        for &i in indices {
            self.check_bounds(i);
            out.extend_from_slice(&data[i * width..(i + 1) * width]);
        }
        out
    }

    /// Gathers id rows for a fold, in index order.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not ids or an index is out of bounds.
    pub fn gather_ids(&self, indices: &[usize]) -> Vec<Vec<u32>> {
        indices
            .iter()
            .map(|&i| match self.row(i) {
                FeatureRow::Ids(r) => r.to_vec(),
                _ => panic!("not an id matrix"),
            })
            .collect()
    }

    /// Gathers per-sample window lists for a fold, in index order.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not windows or an index is out of bounds.
    pub fn gather_windows(&self, indices: &[usize]) -> Vec<Vec<Vec<u32>>> {
        indices
            .iter()
            .map(|&i| match self.row(i) {
                FeatureRow::Windows(w) => w.to_vec(),
                _ => panic!("not a window matrix"),
            })
            .collect()
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
#[derive(Debug, Clone)]
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
    /// Clone it (kilobytes, not the matrices) to build a persistent
    /// serving artifact that outlives the store.
    pub fn encoder(&self, encoding: Encoding) -> &FittedEncoders {
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
        let scalars: usize = m.gather_rows(&[0, 1]).iter().map(FeatureRow::len).sum();
        assert_eq!(scalars, 6);
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
        // Each set holds exactly the encoder asked for.
        let tokens = store.encoder(Encoding::TokensWindows);
        assert_eq!(
            tokens.encodings(),
            [Encoding::TokensTruncate, Encoding::TokensWindows]
        );
        assert_eq!(
            store
                .encoder(Encoding::Histogram)
                .encode(&caches[2], Encoding::Histogram)
                .as_row(),
            store.matrix(Encoding::Histogram).row(2)
        );
    }

    #[test]
    #[should_panic(expected = "no bigram encoder was fitted")]
    fn encoding_without_its_encoder_panics() {
        let caches = caches();
        let store = store_over(&caches, &small_config());
        store
            .encoder(Encoding::Histogram)
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

    #[test]
    #[should_panic(expected = "row 3 out of bounds (3 rows)")]
    fn out_of_bounds_row_panics() {
        small_store().matrix(Encoding::Histogram).row(3);
    }

    #[test]
    #[should_panic(expected = "not an id matrix")]
    fn gather_ids_on_a_dense_matrix_panics() {
        small_store().matrix(Encoding::Histogram).gather_ids(&[0]);
    }

    #[test]
    #[should_panic(expected = "not a dense matrix")]
    fn gather_dense_flat_on_an_id_matrix_panics() {
        small_store()
            .matrix(Encoding::Bigram)
            .gather_dense_flat(&[0]);
    }

    #[test]
    #[should_panic(expected = "not a window matrix")]
    fn gather_windows_on_a_dense_matrix_panics() {
        small_store().matrix(Encoding::Escort).gather_windows(&[0]);
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
