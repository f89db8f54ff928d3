//! The shared evaluation context: one decode pass, at most one
//! featurization pass per encoding, arbitrarily many (model, run, fold)
//! trials.
//!
//! [`EvalContext::new`] is the only place the evaluation engine pays
//! disassembly cost: it builds the dataset's [`CacheBatch`] across the
//! worker pool and hands it to a [`FeatureStore`], which fits and packs
//! each encoding on first use. ESCORT's structural vulnerability labels
//! are likewise computed the first time a trial asks for them. Every
//! trial in the model-evaluation matrix — cross-validation, scalability
//! splits, temporal splits, hyper-parameter search — then borrows index
//! slices of the same context, so `decode_count()` over an entire
//! evaluation equals the dataset size, and a context that only ever
//! trains a histogram model never fits the other five encoders.
//!
//! # Examples
//!
//! ```
//! use phishinghook::evalstore::EvalContext;
//! use phishinghook::prelude::*;
//! use phishinghook_features::Encoding;
//!
//! let corpus = generate_corpus(&CorpusConfig::small(3));
//! let chain = SimulatedChain::from_corpus(&corpus);
//! let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
//! let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
//! assert_eq!(ctx.len(), dataset.len());
//! assert_eq!(ctx.store().matrix(Encoding::Histogram).rows(), dataset.len());
//! ```

use crate::dataset::Dataset;
use crate::mem::EvalProfile;
use crate::par::parallel_map;
use phishinghook_evm::opcodes::op;
use phishinghook_evm::{CacheBatch, DisasmCache};
use phishinghook_features::store::{FeatureStore, StoreConfig};
use std::sync::OnceLock;

/// The geometry slice of an [`EvalProfile`] that shapes the feature store.
pub fn store_config(profile: &EvalProfile) -> StoreConfig {
    StoreConfig {
        image_side: profile.image_side,
        context: profile.context,
        bigram_vocab: profile.bigram_vocab,
        bigram_len: profile.bigram_len,
        escort_dim: profile.escort_dim,
    }
}

/// Structural "vulnerability" pseudo-labels for ESCORT's pre-training phase:
/// code-flaw-style predicates (dangerous opcodes, block-state dependence,
/// code size) that a VDM trunk would learn — mostly orthogonal to phishing.
/// Reads the shared [`DisasmCache`] — no re-disassembly.
pub fn vulnerability_labels(cache: &DisasmCache) -> Vec<u8> {
    let has = |byte: u8| cache.op_ids().any(|id| id.byte() == byte && id.is_known());
    vec![
        u8::from(has(op::SELFDESTRUCT)),
        u8::from(has(op::DELEGATECALL)),
        u8::from(has(op::TIMESTAMP)),
        u8::from(cache.bytes().len() > 900),
    ]
}

/// Decode-once evaluation state for one dataset: labels, the feature
/// store over the disassembly caches, and ESCORT's pre-training targets.
#[derive(Debug, Clone)]
pub struct EvalContext {
    labels: Vec<u8>,
    store: FeatureStore,
    /// Computed on the first [`EvalContext::gather_vuln`].
    vuln: OnceLock<Vec<Vec<u8>>>,
    profile: EvalProfile,
}

impl EvalContext {
    /// Decodes `data` exactly once, in parallel across the worker pool;
    /// each encoding is fitted and packed under `profile`'s feature
    /// geometry when a trial first reads it.
    pub fn new(data: &Dataset, profile: &EvalProfile) -> Self {
        let caches = CacheBatch::from_caches(data.disasm_batch());
        Self::from_caches(caches, data.labels(), profile)
    }

    /// Like [`EvalContext::new`], but fits the encoder lookup tables on
    /// `fit_idx` only while still featurizing every sample — the
    /// leakage-safe construction for studies with a privileged hold-out
    /// direction (the temporal drift experiment fits on its training
    /// window so vocabularies never see future months).
    ///
    /// # Panics
    ///
    /// Panics if `fit_idx` is empty or holds an out-of-range index.
    pub fn fitted_on(data: &Dataset, profile: &EvalProfile, fit_idx: &[usize]) -> Self {
        assert!(!fit_idx.is_empty(), "empty fit subset");
        let caches = CacheBatch::from_caches(data.disasm_batch());
        // DisasmCache clones are cheap (refcounted bytecode + packed op
        // table); the fit subset is materialized once.
        let fit: Vec<DisasmCache> = fit_idx.iter().map(|&i| caches[i].clone()).collect();
        let store = FeatureStore::new(caches, Some(fit), &store_config(profile));
        Self::assemble(data.labels(), store, profile)
    }

    /// Builds a context over caches that were already decoded (the batch
    /// must align index-for-index with `labels`); decodes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `labels` and the batch disagree on length.
    pub fn from_caches(caches: CacheBatch, labels: Vec<u8>, profile: &EvalProfile) -> Self {
        let store = FeatureStore::new(caches, None, &store_config(profile));
        Self::assemble(labels, store, profile)
    }

    fn assemble(labels: Vec<u8>, store: FeatureStore, profile: &EvalProfile) -> Self {
        assert_eq!(store.len(), labels.len(), "labels/caches misaligned");
        EvalContext {
            labels,
            store,
            vuln: OnceLock::new(),
            profile: *profile,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the context holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All labels, in sample order.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// The decoded cache batch.
    pub fn caches(&self) -> &CacheBatch {
        self.store.caches()
    }

    /// The feature store, which packs each encoding on first use.
    pub fn store(&self) -> &FeatureStore {
        &self.store
    }

    /// The evaluation profile the store was built under.
    pub fn profile(&self) -> &EvalProfile {
        &self.profile
    }

    /// Labels for an index slice, in index order.
    pub fn gather_labels(&self, indices: &[usize]) -> Vec<u8> {
        indices.iter().map(|&i| self.labels[i]).collect()
    }

    /// ESCORT pre-training targets for an index slice, in index order;
    /// the first call labels every sample across the worker pool.
    pub fn gather_vuln(&self, indices: &[usize]) -> Vec<Vec<u8>> {
        let vuln = self
            .vuln
            .get_or_init(|| parallel_map(self.caches().as_slice(), vulnerability_labels));
        indices.iter().map(|&i| vuln[i].clone()).collect()
    }

    /// Positive-class count within an index slice.
    pub fn positives_in(&self, indices: &[usize]) -> usize {
        indices.iter().filter(|&&i| self.labels[i] == 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::{extract_dataset, BemConfig};
    use phishinghook_chain::SimulatedChain;
    use phishinghook_features::Encoding;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn dataset() -> Dataset {
        let corpus = generate_corpus(&CorpusConfig::small(23));
        let chain = SimulatedChain::from_corpus(&corpus);
        extract_dataset(&chain, &BemConfig::default()).0
    }

    #[test]
    fn context_aligns_with_dataset() {
        let data = dataset();
        let ctx = EvalContext::new(&data, &EvalProfile::quick());
        assert_eq!(ctx.len(), data.len());
        assert_eq!(ctx.labels(), &data.labels()[..]);
        assert_eq!(ctx.store().len(), data.len());
        assert_eq!(ctx.caches().len(), data.len());
        // Store geometry follows the profile.
        let p = EvalProfile::quick();
        assert_eq!(
            ctx.store().matrix(Encoding::FreqImage).width(),
            Some(3 * p.image_side * p.image_side)
        );
        assert_eq!(
            ctx.store().matrix(Encoding::Bigram).width(),
            Some(p.bigram_len)
        );
    }

    #[test]
    fn gathers_follow_index_order() {
        let data = dataset();
        let ctx = EvalContext::new(&data, &EvalProfile::quick());
        let idx = [3usize, 0, 7];
        let labels = ctx.gather_labels(&idx);
        for (j, &i) in idx.iter().enumerate() {
            assert_eq!(labels[j], data.samples[i].label);
        }
        assert_eq!(ctx.gather_vuln(&idx).len(), 3);
        assert_eq!(
            ctx.positives_in(&(0..data.len()).collect::<Vec<_>>()),
            data.positives()
        );
    }

    #[test]
    fn fitted_on_restricts_the_lookup_tables() {
        let data = dataset();
        let p = EvalProfile::quick();
        let full = EvalContext::new(&data, &p);
        let few: Vec<usize> = (0..4).collect();
        let fitted = EvalContext::fitted_on(&data, &p, &few);
        // Every sample is still featurized...
        assert_eq!(fitted.len(), data.len());
        assert_eq!(
            fitted.store().matrix(Encoding::Histogram).rows(),
            data.len()
        );
        // ...but the vocabulary comes from the fit subset alone.
        assert!(fitted.store().histogram_width() <= full.store().histogram_width());
        let fit_caches: Vec<_> = few.iter().map(|&i| fitted.caches()[i].clone()).collect();
        let expected = phishinghook_features::HistogramEncoder::fit(&fit_caches);
        assert_eq!(fitted.store().histogram_width(), expected.vocab_len());
    }

    #[test]
    fn vulnerability_labels_are_structural() {
        let code = phishinghook_evm::Bytecode::new(vec![0xFF]); // SELFDESTRUCT
        let labels = vulnerability_labels(&DisasmCache::build(&code));
        assert_eq!(labels[0], 1);
        assert_eq!(labels[1], 0);
    }

    #[test]
    #[should_panic(expected = "labels/caches misaligned")]
    fn misaligned_labels_rejected() {
        let data = dataset();
        let caches = CacheBatch::from_caches(data.disasm_batch());
        EvalContext::from_caches(caches, vec![0, 1], &EvalProfile::quick());
    }
}
