//! Dataset construction: the paper's pipeline from raw chain data to the
//! balanced, deduplicated 7,000-bytecode corpus, plus the split machinery
//! (stratified k-fold, temporal splits) used by every experiment.

use crate::par::parallel_map;
use phishinghook_evm::{Bytecode, DisasmCache};
use phishinghook_synth::Month;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One labeled contract sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Deployed bytecode.
    pub bytecode: Bytecode,
    /// Explorer-derived label: 1 = flagged `Phish/Hack`, 0 = benign.
    pub label: u8,
    /// Deployment month (first deployment for deduplicated bytecodes).
    pub month: Month,
}

/// A labeled dataset of unique contract bytecodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// The samples, in construction order.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Builds a dataset from samples.
    pub fn new(samples: Vec<Sample>) -> Self {
        Dataset { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Labels as a vector.
    pub fn labels(&self) -> Vec<u8> {
        self.samples.iter().map(|s| s.label).collect()
    }

    /// Number of positive (phishing-labeled) samples.
    pub fn positives(&self) -> usize {
        self.samples.iter().filter(|s| s.label == 1).count()
    }

    /// Decodes every contract exactly once, in parallel across a fixed-size
    /// worker pool, returning per-contract [`DisasmCache`]s in sample order.
    ///
    /// This is the single-pass entry point of the featurization pipeline:
    /// all six encoders consume the returned caches, so one dataset pass
    /// pays disassembly cost once per contract regardless of how many
    /// representations are extracted.
    pub fn disasm_batch(&self) -> Vec<DisasmCache> {
        parallel_map(&self.samples, |s| DisasmCache::build(&s.bytecode))
    }

    /// Selects a subset by indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset::new(indices.iter().map(|&i| self.samples[i].clone()).collect())
    }

    /// Index set of a random stratified subsample of `fraction` of the data
    /// (the scalability study's 1/3 and 2/3 splits), sorted ascending. The
    /// index form lets a shared feature store slice the subsample without
    /// materializing a new dataset.
    pub fn fraction_indices(&self, fraction: f64, seed: u64) -> Vec<usize> {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos: Vec<usize> = Vec::new();
        let mut neg: Vec<usize> = Vec::new();
        for (i, s) in self.samples.iter().enumerate() {
            if s.label == 1 {
                pos.push(i);
            } else {
                neg.push(i);
            }
        }
        pos.shuffle(&mut rng);
        neg.shuffle(&mut rng);
        pos.truncate((pos.len() as f64 * fraction).round() as usize);
        neg.truncate((neg.len() as f64 * fraction).round() as usize);
        pos.extend(neg);
        pos.sort_unstable();
        pos
    }

    /// Random stratified subsample of `fraction` of the data (the
    /// scalability study's 1/3 and 2/3 splits).
    pub fn fraction(&self, fraction: f64, seed: u64) -> Dataset {
        self.subset(&self.fraction_indices(fraction, seed))
    }

    /// Stratified k-fold assignment restricted to an index subset: returns
    /// `folds` sets of *global* indices drawn from `within`, with
    /// near-equal class balance. Deterministic given the seed.
    ///
    /// # Panics
    ///
    /// Panics if `folds < 2` or exceeds either class size within the
    /// subset.
    pub fn stratified_folds_of(
        &self,
        within: &[usize],
        folds: usize,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        assert!(folds >= 2, "need at least 2 folds");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos: Vec<usize> = Vec::new();
        let mut neg: Vec<usize> = Vec::new();
        for &i in within {
            if self.samples[i].label == 1 {
                pos.push(i);
            } else {
                neg.push(i);
            }
        }
        assert!(
            pos.len() >= folds && neg.len() >= folds,
            "classes too small for {folds}-fold CV"
        );
        pos.shuffle(&mut rng);
        neg.shuffle(&mut rng);
        let mut out = vec![Vec::new(); folds];
        for (k, &i) in pos.iter().enumerate() {
            out[k % folds].push(i);
        }
        for (k, &i) in neg.iter().enumerate() {
            out[k % folds].push(i);
        }
        for f in &mut out {
            f.sort_unstable();
        }
        out
    }

    /// Stratified k-fold assignment over the whole dataset: returns `folds`
    /// index sets with near-equal class balance. Deterministic given the
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `folds < 2` or exceeds the class sizes.
    pub fn stratified_folds(&self, folds: usize, seed: u64) -> Vec<Vec<usize>> {
        let all: Vec<usize> = (0..self.len()).collect();
        self.stratified_folds_of(&all, folds, seed)
    }

    /// Train/test index pair for fold `k` of a fold assignment: test = fold
    /// `k`, train = the union of every other fold, both sorted ascending.
    /// Works for assignments over the full dataset and over subsets alike.
    pub fn fold_indices(folds: &[Vec<usize>], k: usize) -> (Vec<usize>, Vec<usize>) {
        let test_idx = folds[k].clone();
        let mut train_idx: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != k)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        train_idx.sort_unstable();
        (train_idx, test_idx)
    }

    /// Train/test pair for fold `k` of a fold assignment.
    pub fn fold_split(&self, folds: &[Vec<usize>], k: usize) -> (Dataset, Dataset) {
        let (train_idx, test_idx) = Dataset::fold_indices(folds, k);
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Index form of the paper's time-resistance split (Fig. 8): training
    /// indices (October 2023 – January 2024) plus nine monthly test index
    /// sets (February – October 2024).
    pub fn temporal_split_indices(&self) -> (Vec<usize>, Vec<(Month, Vec<usize>)>) {
        let train_idx: Vec<usize> = (0..self.len())
            .filter(|&i| self.samples[i].month.in_training_window())
            .collect();
        let mut tests = Vec::new();
        for m in Month::all().filter(|m| !m.in_training_window()) {
            let idx: Vec<usize> = (0..self.len())
                .filter(|&i| self.samples[i].month == m)
                .collect();
            tests.push((m, idx));
        }
        (train_idx, tests)
    }

    /// The paper's time-resistance split: training set = contracts deployed
    /// October 2023 – January 2024; nine monthly test sets, February –
    /// October 2024 (Fig. 8).
    pub fn temporal_split(&self) -> (Dataset, Vec<(Month, Dataset)>) {
        let (train_idx, tests) = self.temporal_split_indices();
        (
            self.subset(&train_idx),
            tests
                .into_iter()
                .map(|(m, idx)| (m, self.subset(&idx)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_synth::STUDY_MONTHS;

    fn toy_dataset(n: usize) -> Dataset {
        let samples = (0..n)
            .map(|i| Sample {
                bytecode: Bytecode::new(vec![i as u8, (i / 256) as u8, 0x01]),
                label: (i % 2) as u8,
                month: Month::new((i % STUDY_MONTHS) as u8),
            })
            .collect();
        Dataset::new(samples)
    }

    #[test]
    fn stratified_folds_balance_classes() {
        let d = toy_dataset(100);
        let folds = d.stratified_folds(10, 1);
        assert_eq!(folds.len(), 10);
        for f in &folds {
            assert_eq!(f.len(), 10);
            let pos = f.iter().filter(|&&i| d.samples[i].label == 1).count();
            assert_eq!(pos, 5, "fold imbalance");
        }
        // Folds partition the dataset.
        let total: usize = folds.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn fold_split_is_a_partition() {
        let d = toy_dataset(60);
        let folds = d.stratified_folds(5, 3);
        let (train, test) = d.fold_split(&folds, 2);
        assert_eq!(train.len() + test.len(), 60);
        assert_eq!(test.len(), 12);
    }

    #[test]
    fn fraction_preserves_balance() {
        let d = toy_dataset(300);
        let third = d.fraction(1.0 / 3.0, 7);
        assert_eq!(third.len(), 100);
        assert_eq!(third.positives(), 50);
    }

    #[test]
    fn temporal_split_shape() {
        let d = toy_dataset(130);
        let (train, tests) = d.temporal_split();
        assert_eq!(tests.len(), 9);
        assert!(!train.is_empty());
        let total: usize = train.len() + tests.iter().map(|(_, t)| t.len()).sum::<usize>();
        assert_eq!(total, 130);
    }

    #[test]
    #[should_panic(expected = "need at least 2 folds")]
    fn one_fold_rejected() {
        toy_dataset(10).stratified_folds(1, 0);
    }

    #[test]
    fn subset_folds_stay_within_the_subset() {
        let d = toy_dataset(100);
        let within = d.fraction_indices(0.5, 9);
        assert_eq!(within.len(), 50);
        assert!(within.windows(2).all(|w| w[0] < w[1]), "sorted indices");
        let folds = d.stratified_folds_of(&within, 5, 1);
        let covered: usize = folds.iter().map(Vec::len).sum();
        assert_eq!(covered, within.len());
        for f in &folds {
            assert!(f.iter().all(|i| within.contains(i)));
        }
        // fold_indices partitions the subset, not the full dataset.
        let (train, test) = Dataset::fold_indices(&folds, 2);
        assert_eq!(train.len() + test.len(), within.len());
        assert!(train.iter().all(|i| !test.contains(i)));
    }

    #[test]
    fn index_and_dataset_splits_agree() {
        let d = toy_dataset(60);
        let folds = d.stratified_folds(3, 4);
        let (train_idx, test_idx) = Dataset::fold_indices(&folds, 1);
        let (train, test) = d.fold_split(&folds, 1);
        assert_eq!(train, d.subset(&train_idx));
        assert_eq!(test, d.subset(&test_idx));
        let (t_idx, months) = d.temporal_split_indices();
        let (t_set, month_sets) = d.temporal_split();
        assert_eq!(t_set, d.subset(&t_idx));
        assert_eq!(months.len(), month_sets.len());
    }
}
