//! The model scalability analysis (§IV-F): the best model of each category
//! (Random Forest, ECA+EfficientNet, SCSGuard) trained on 1/3, 2/3 and all
//! of the data — producing the metric curves of Fig. 5, the critical
//! difference diagram of Fig. 6 and the time curves of Fig. 7.

use crate::dataset::Dataset;
use crate::evalstore::EvalContext;
use crate::mem::{evaluate_trial, EvalProfile, ModelKind, TrialOutcome};
use crate::metrics::METRIC_NAMES;
use phishinghook_stats::cdd::{critical_difference, CriticalDifference};
use phishinghook_stats::cliffs::cliffs_delta;

/// The three models the scalability study compares (the best of each
/// category in Table II).
pub const SCALABILITY_MODELS: [ModelKind; 3] = [
    ModelKind::RandomForest,
    ModelKind::EcaEfficientNet,
    ModelKind::ScsGuard,
];

/// The three data-split ratios of Fig. 5.
pub const SPLIT_RATIOS: [f64; 3] = [1.0 / 3.0, 2.0 / 3.0, 1.0];

/// Result for one `(model, split)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalabilityCell {
    /// Model evaluated.
    pub model: ModelKind,
    /// Fraction of the data used for the trial.
    pub ratio: f64,
    /// Metrics and timings.
    pub outcome: TrialOutcome,
}

/// Full scalability study output.
#[derive(Debug, Clone)]
pub struct ScalabilityStudy {
    /// One cell per `(model, split, fold)` trial.
    pub cells: Vec<ScalabilityCell>,
    /// Folds evaluated per cell.
    pub folds: usize,
}

impl ScalabilityStudy {
    /// Mean metric value for a `(model, ratio)` pair.
    pub fn mean_metric(&self, model: ModelKind, ratio: f64, metric: &str) -> f64 {
        let xs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.model == model && (c.ratio - ratio).abs() < 1e-9)
            .map(|c| {
                c.outcome
                    .metrics
                    .by_name(metric)
                    .expect("valid metric name (see METRIC_NAMES)")
            })
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    }

    /// Mean `(train, infer)` seconds for a `(model, ratio)` pair (Fig. 7).
    pub fn mean_times(&self, model: ModelKind, ratio: f64) -> (f64, f64) {
        let xs: Vec<(f64, f64)> = self
            .cells
            .iter()
            .filter(|c| c.model == model && (c.ratio - ratio).abs() < 1e-9)
            .map(|c| (c.outcome.train_seconds, c.outcome.infer_seconds))
            .collect();
        let n = xs.len().max(1) as f64;
        (
            xs.iter().map(|x| x.0).sum::<f64>() / n,
            xs.iter().map(|x| x.1).sum::<f64>() / n,
        )
    }

    /// Blocks × models table of a metric for the CDD (every
    /// `(ratio, fold)` trial is a block, as in the paper's 36-measurement
    /// post hoc).
    pub fn metric_table(&self, metric: &str) -> Vec<Vec<f64>> {
        let mut blocks = Vec::new();
        for ratio in SPLIT_RATIOS {
            for fold in 0..self.folds {
                let mut row = Vec::new();
                for model in SCALABILITY_MODELS {
                    let cell = self
                        .cells
                        .iter()
                        .filter(|c| c.model == model && (c.ratio - ratio).abs() < 1e-9)
                        .nth(fold)
                        .expect("cell present");
                    row.push(
                        cell.outcome
                            .metrics
                            .by_name(metric)
                            .expect("valid metric name (see METRIC_NAMES)"),
                    );
                }
                blocks.push(row);
            }
        }
        blocks
    }

    /// Critical difference data per metric (Fig. 6).
    pub fn critical_differences(&self) -> Vec<(&'static str, CriticalDifference)> {
        METRIC_NAMES
            .iter()
            .map(|m| {
                let cd = critical_difference(&self.metric_table(m), 0.05)
                    .expect("valid scalability table");
                (*m, cd)
            })
            .collect()
    }

    /// Cliff's delta of `a` against `b` over all trials of a metric.
    pub fn cliffs(&self, a: ModelKind, b: ModelKind, metric: &str) -> f64 {
        let collect = |m: ModelKind| -> Vec<f64> {
            self.cells
                .iter()
                .filter(|c| c.model == m)
                .map(|c| {
                    c.outcome
                        .metrics
                        .by_name(metric)
                        .expect("valid metric name (see METRIC_NAMES)")
                })
                .collect()
        };
        cliffs_delta(&collect(a), &collect(b))
    }
}

/// Runs the study over one [`EvalContext`]: every split ratio is an index
/// subsample of the same store, so the nine (model, ratio) cells and all
/// their folds reuse one decode+featurize pass.
///
/// Unlike the CV engine, the cells execute **sequentially**: this study's
/// `train_seconds`/`infer_seconds` feed the Fig. 7 cost curves, and timing
/// trials while siblings compete for the same cores would inflate every
/// number by contention. The decode-once store is still the speedup — the
/// featurization work the old per-trial loop repeated per cell is gone.
pub fn run_scalability(
    data: &Dataset,
    folds: usize,
    profile: &EvalProfile,
    seed: u64,
) -> ScalabilityStudy {
    let ctx = EvalContext::new(data, profile);
    struct CellSpec {
        model: ModelKind,
        ratio: f64,
        train_idx: Vec<usize>,
        test_idx: Vec<usize>,
        seed: u64,
    }

    let folds = folds.max(2);
    let mut specs: Vec<CellSpec> = Vec::new();
    for (ri, &ratio) in SPLIT_RATIOS.iter().enumerate() {
        let within = data.fraction_indices(ratio, seed ^ ri as u64);
        let assignment = data.stratified_folds_of(&within, folds, seed);
        for model in SCALABILITY_MODELS {
            for k in 0..folds.min(assignment.len()) {
                let (train_idx, test_idx) = Dataset::fold_indices(&assignment, k);
                specs.push(CellSpec {
                    model,
                    ratio,
                    train_idx,
                    test_idx,
                    seed: seed ^ ((k as u64) << 8),
                });
            }
        }
    }
    let cells = specs
        .iter()
        .map(|spec| ScalabilityCell {
            model: spec.model,
            ratio: spec.ratio,
            outcome: evaluate_trial(&ctx, spec.model, &spec.train_idx, &spec.test_idx, spec.seed),
        })
        .collect();
    ScalabilityStudy { cells, folds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::{extract_dataset, BemConfig};
    use phishinghook_chain::SimulatedChain;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn dataset() -> Dataset {
        let corpus = generate_corpus(&CorpusConfig::small(31));
        let chain = SimulatedChain::from_corpus(&corpus);
        extract_dataset(&chain, &BemConfig::default()).0
    }

    #[test]
    fn study_covers_all_cells() {
        let study = run_scalability(&dataset(), 2, &EvalProfile::quick(), 3);
        // 3 ratios × 3 models × 2 folds.
        assert_eq!(study.cells.len(), 18);
        let acc = study.mean_metric(ModelKind::RandomForest, 1.0, "accuracy");
        assert!(acc > 0.5, "RF accuracy = {acc}");
        let (train_t, infer_t) = study.mean_times(ModelKind::RandomForest, 1.0);
        assert!(train_t > 0.0 && infer_t >= 0.0);
    }

    #[test]
    fn metric_table_and_cdd_shapes() {
        let study = run_scalability(&dataset(), 2, &EvalProfile::quick(), 5);
        let table = study.metric_table("f1");
        assert_eq!(table.len(), 6); // 3 ratios × 2 folds
        assert_eq!(table[0].len(), 3);
        let cds = study.critical_differences();
        assert_eq!(cds.len(), 4);
        for (_, cd) in &cds {
            assert_eq!(cd.mean_ranks.len(), 3);
        }
        let delta = study.cliffs(ModelKind::ScsGuard, ModelKind::EcaEfficientNet, "accuracy");
        assert!((-1.0..=1.0).contains(&delta));
    }
}
