//! The Post hoc Analysis Module (PAM): the paper's statistical validation
//! pipeline (§IV-E) — Shapiro–Wilk normality gate, Kruskal–Wallis omnibus
//! test per metric (Table III), and Dunn's pairwise procedure with
//! Holm–Bonferroni correction (Fig. 4), including the same-category vs
//! cross-category significance breakdown.

use crate::mem::{ModelKind, TrialOutcome};
use crate::metrics::METRIC_NAMES;
use phishinghook_stats::dunn::{dunn_test, DunnTest};
use phishinghook_stats::holm::holm_adjust;
use phishinghook_stats::kruskal::{kruskal_wallis, KruskalWallis};
use phishinghook_stats::shapiro::shapiro_wilk;

/// Kruskal–Wallis rows of Table III, one per metric, with Holm-adjusted p.
#[derive(Debug, Clone, PartialEq)]
pub struct OmnibusRow {
    /// Metric name.
    pub metric: &'static str,
    /// Test result (H, df, raw p).
    pub test: KruskalWallis,
    /// Holm-adjusted p-value across the four metrics.
    pub p_adjusted: f64,
}

/// Pairwise significance summary, overall and split by category membership.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignificanceBreakdown {
    /// Fraction of all model pairs with `p_adj < alpha`.
    pub overall: f64,
    /// Fraction among pairs of the *same* category.
    pub same_category: f64,
    /// Fraction among pairs of *different* categories.
    pub cross_category: f64,
}

/// Full post hoc report over a set of models' trials.
#[derive(Debug, Clone)]
pub struct PosthocReport {
    /// Models analysed, in input order.
    pub models: Vec<ModelKind>,
    /// `(model, metric)` pairs whose Shapiro–Wilk test rejects normality at
    /// 0.05 (the paper found 20 of 52).
    pub normality_violations: Vec<(ModelKind, &'static str)>,
    /// One Kruskal–Wallis row per metric (Table III).
    pub omnibus: Vec<OmnibusRow>,
    /// Dunn's test per metric (Fig. 4), in [`METRIC_NAMES`] order.
    pub dunn: Vec<DunnTest>,
    /// Pairwise significance breakdown per metric.
    pub breakdown: Vec<SignificanceBreakdown>,
}

/// Runs the full PAM over per-model trial lists.
///
/// # Panics
///
/// Panics if fewer than two models are supplied or trial lists are empty.
pub fn posthoc_analysis(results: &[(ModelKind, Vec<TrialOutcome>)]) -> PosthocReport {
    assert!(
        results.len() >= 2,
        "post hoc analysis needs at least two models"
    );
    assert!(
        results.iter().all(|(_, trials)| !trials.is_empty()),
        "every model needs at least one trial"
    );
    let models: Vec<ModelKind> = results.iter().map(|(k, _)| *k).collect();

    // Normality gate.
    let mut normality_violations = Vec::new();
    for (kind, trials) in results {
        for metric in METRIC_NAMES {
            let xs: Vec<f64> = trials
                .iter()
                .map(|t| t.metrics.by_name(metric).expect("METRIC_NAMES entry"))
                .collect();
            if let Ok(sw) = shapiro_wilk(&xs) {
                if sw.p_value < 0.05 {
                    normality_violations.push((*kind, metric));
                }
            } else {
                // Degenerate (zero-variance) distributions are certainly not
                // normal in the test's sense; count them as violations.
                normality_violations.push((*kind, metric));
            }
        }
    }

    // Omnibus Kruskal-Wallis per metric, Holm-adjusted across metrics.
    let mut tests = Vec::new();
    for metric in METRIC_NAMES {
        let groups: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, trials)| {
                trials
                    .iter()
                    .map(|t| t.metrics.by_name(metric).expect("METRIC_NAMES entry"))
                    .collect()
            })
            .collect();
        tests.push(kruskal_wallis(&groups).expect("valid KW groups"));
    }
    let adjusted = holm_adjust(&tests.iter().map(|t| t.p_value).collect::<Vec<_>>());
    let omnibus: Vec<OmnibusRow> = METRIC_NAMES
        .iter()
        .zip(tests.into_iter().zip(adjusted))
        .map(|(metric, (test, p_adjusted))| OmnibusRow {
            metric,
            test,
            p_adjusted,
        })
        .collect();

    // Dunn per metric + significance breakdowns.
    let mut dunn = Vec::new();
    let mut breakdown = Vec::new();
    for metric in METRIC_NAMES {
        let groups: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, trials)| {
                trials
                    .iter()
                    .map(|t| t.metrics.by_name(metric).expect("METRIC_NAMES entry"))
                    .collect()
            })
            .collect();
        let d = dunn_test(&groups).expect("valid Dunn groups");
        breakdown.push(significance_breakdown(&models, &d, 0.05));
        dunn.push(d);
    }

    PosthocReport {
        models,
        normality_violations,
        omnibus,
        dunn,
        breakdown,
    }
}

/// Splits Dunn significance fractions by whether the pair shares a category.
fn significance_breakdown(
    models: &[ModelKind],
    dunn: &DunnTest,
    alpha: f64,
) -> SignificanceBreakdown {
    let (mut same, mut same_sig) = (0usize, 0usize);
    let (mut cross, mut cross_sig) = (0usize, 0usize);
    for pair in &dunn.pairs {
        let same_cat = models[pair.group_a].category() == models[pair.group_b].category();
        let sig = pair.is_significant(alpha);
        if same_cat {
            same += 1;
            same_sig += usize::from(sig);
        } else {
            cross += 1;
            cross_sig += usize::from(sig);
        }
    }
    let frac = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    SignificanceBreakdown {
        overall: frac(same_sig + cross_sig, same + cross),
        same_category: frac(same_sig, same),
        cross_category: frac(cross_sig, cross),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trials(center: f64, spread: f64, n: usize, seed: u64) -> Vec<TrialOutcome> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let v = (center + rng.gen_range(-spread..spread)).clamp(0.0, 1.0);
                TrialOutcome {
                    metrics: Metrics {
                        accuracy: v,
                        f1: v,
                        precision: v,
                        recall: v,
                    },
                    train_seconds: 1.0,
                    infer_seconds: 0.1,
                }
            })
            .collect()
    }

    #[test]
    fn separated_models_rejected_by_omnibus() {
        let results = vec![
            (ModelKind::RandomForest, trials(0.93, 0.01, 30, 1)),
            (ModelKind::Knn, trials(0.90, 0.01, 30, 2)),
            (ModelKind::VitR2d2, trials(0.80, 0.01, 30, 3)),
        ];
        let report = posthoc_analysis(&results);
        assert_eq!(report.omnibus.len(), 4);
        for row in &report.omnibus {
            assert!(
                row.p_adjusted < 0.05,
                "{}: p = {}",
                row.metric,
                row.p_adjusted
            );
        }
        // RF (histogram) vs ViT (vision) must differ; the cross-category
        // fraction should dominate, as in the paper.
        for b in &report.breakdown {
            assert!(b.cross_category >= b.same_category);
        }
    }

    #[test]
    fn identical_models_not_rejected() {
        let results = vec![
            (ModelKind::RandomForest, trials(0.9, 0.02, 30, 5)),
            (ModelKind::Xgboost, trials(0.9, 0.02, 30, 6)),
        ];
        let report = posthoc_analysis(&results);
        for row in &report.omnibus {
            assert!(row.p_adjusted > 0.05);
        }
    }

    #[test]
    fn normality_violations_detected() {
        // Heavily skewed trials: W should reject for at least some pairs.
        let mut rng = StdRng::seed_from_u64(9);
        let skewed: Vec<TrialOutcome> = (0..30)
            .map(|_| {
                let v: f64 = 0.9 - rng.gen_range(0.0f64..1.0).powi(6) * 0.4;
                TrialOutcome {
                    metrics: Metrics {
                        accuracy: v,
                        f1: v,
                        precision: v,
                        recall: v,
                    },
                    train_seconds: 0.0,
                    infer_seconds: 0.0,
                }
            })
            .collect();
        let results = vec![
            (ModelKind::RandomForest, skewed),
            (ModelKind::Knn, trials(0.9, 0.02, 30, 10)),
        ];
        let report = posthoc_analysis(&results);
        assert!(report
            .normality_violations
            .iter()
            .any(|(k, _)| *k == ModelKind::RandomForest));
    }

    #[test]
    #[should_panic(expected = "at least two models")]
    fn single_model_rejected() {
        posthoc_analysis(&[(ModelKind::Knn, trials(0.9, 0.01, 5, 1))]);
    }
}
