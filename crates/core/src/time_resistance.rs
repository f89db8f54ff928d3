//! The time-resistance analysis (§IV-G, Fig. 8): TESSERACT-style temporal
//! evaluation. Models train on contracts deployed October 2023 – January
//! 2024 and are tested on nine monthly test sets (February – October 2024);
//! robustness is summarized by the Area Under Time of the phishing-class F1.

use crate::dataset::Dataset;
use crate::evalstore::EvalContext;
use crate::mem::{evaluate_trial, EvalProfile, ModelKind};
use crate::metrics::Metrics;
use crate::par::parallel_map;
use phishinghook_stats::aut::area_under_time;
use phishinghook_synth::Month;

/// Per-month result of one model in the temporal study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthlyResult {
    /// Test month.
    pub month: Month,
    /// 1-based test period (1 = February 2024).
    pub period: usize,
    /// Metrics on that month's test set.
    pub metrics: Metrics,
}

/// Full time-resistance result for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeResistance {
    /// Model evaluated.
    pub model: ModelKind,
    /// One entry per test period, in order.
    pub monthly: Vec<MonthlyResult>,
    /// Area Under Time of the phishing-class F1 across the periods.
    pub aut_f1: f64,
}

/// Runs the temporal experiment for one model.
///
/// The dataset must carry per-month deployment information (build it with
/// `benign_temporal_match = true`, as the paper's second 7,000-sample corpus
/// does). Months whose test set is degenerate (no samples) are skipped.
///
/// # Panics
///
/// Panics if the training window is empty or single-class.
pub fn run_time_resistance(
    model: ModelKind,
    data: &Dataset,
    profile: &EvalProfile,
    seed: u64,
) -> TimeResistance {
    let (train_idx, tests) = data.temporal_split_indices();
    assert!(!train_idx.is_empty(), "empty temporal training window");
    // Fit the encoder lookup tables on the temporal training window only:
    // a TESSERACT-style study must not let vocabularies or frequency
    // tables see future months, or the drift it measures is erased. The
    // training window and all nine monthly test sets are index slices of
    // this one store, and the monthly trials are sharded across the
    // worker pool.
    let ctx = EvalContext::fitted_on(data, profile, &train_idx);
    let train_pos = ctx.positives_in(&train_idx);
    assert!(
        train_pos > 0 && train_pos < train_idx.len(),
        "single-class temporal training window"
    );

    let specs: Vec<(Month, Vec<usize>)> = tests
        .into_iter()
        .filter(|(_, idx)| {
            // Degenerate month: the paper's corpus guarantees both classes
            // per month; small synthetic corpora may not. Skip.
            let pos = ctx.positives_in(idx);
            !idx.is_empty() && pos > 0 && pos < idx.len()
        })
        .collect();
    let monthly = parallel_map(&specs, |(month, idx)| {
        let outcome = evaluate_trial(&ctx, model, &train_idx, idx, seed);
        MonthlyResult {
            month: *month,
            period: month.test_period().expect("test month"),
            metrics: outcome.metrics,
        }
    });
    let f1_series: Vec<f64> = monthly.iter().map(|m| m.metrics.f1).collect();
    let aut_f1 = if f1_series.is_empty() {
        0.0
    } else {
        area_under_time(&f1_series)
    };
    TimeResistance {
        model,
        monthly,
        aut_f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::{extract_dataset, BemConfig};
    use phishinghook_chain::SimulatedChain;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn temporal_dataset() -> Dataset {
        let corpus = generate_corpus(&CorpusConfig {
            unique_phishing: 260,
            unique_benign: 260,
            benign_temporal_match: true,
            clone_factor: 1.5,
            ..CorpusConfig::small(41)
        });
        let chain = SimulatedChain::from_corpus(&corpus);
        extract_dataset(
            &chain,
            &BemConfig {
                balance: false,
                ..Default::default()
            },
        )
        .0
    }

    #[test]
    fn covers_test_periods_in_order() {
        let data = temporal_dataset();
        let result = run_time_resistance(ModelKind::RandomForest, &data, &EvalProfile::quick(), 3);
        assert!(!result.monthly.is_empty());
        for w in result.monthly.windows(2) {
            assert!(w[0].period < w[1].period);
        }
        assert!((0.0..=1.0).contains(&result.aut_f1));
    }

    #[test]
    fn detector_stays_above_chance_over_time() {
        let data = temporal_dataset();
        let result = run_time_resistance(ModelKind::RandomForest, &data, &EvalProfile::quick(), 7);
        assert!(result.aut_f1 > 0.5, "AUT = {}", result.aut_f1);
    }
}
