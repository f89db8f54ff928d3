//! Regenerates the paper's evaluation section in one process: Table I,
//! Figs. 2–3, Tables II–III, Figs. 4–9 and three ablations, then writes
//! `REPRO.json` at the workspace root, one row per paper claim.
//!
//! `--quick`, the only option, scales the corpus and model budgets down to
//! CI size. Without it a laptop-scale "full" run is performed — larger
//! than `--quick`, still far below the paper's GPU cluster budget, so the
//! outputs reproduce the paper's *shapes*, not its absolute values.
//!
//! Sections share results in memory: Table II's trials feed Table III and
//! Fig. 4, and one scalability study feeds Figs. 5–7. Every other section
//! builds its own dataset from its own seed.
//!
//! Each report row is `{claim, ours, paper, gate}`; `paper` is `null`
//! where no reference value is known and `gate` is `null` for claims that
//! are only tracked. The process exits 1 after writing the report if a
//! gated claim fails, and 2 on any argument other than `--quick`.

use phishinghook::dataset::Sample;
use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook::{PosthocReport, ScalabilityStudy};
use phishinghook_bench::harness::{baseline_doc, obj, workspace_root};
use phishinghook_evm::{DisasmCache, SHANGHAI_OPCODES};
use phishinghook_features::{FeatureRow, HistogramEncoder, R2d2Encoder};
use phishinghook_linalg::Matrix;
use phishinghook_ml::{Classifier, RandomForest};
use phishinghook_models::eca_net::{EcaEfficientNet, EcaNetConfig};
use phishinghook_models::{Model, TrainConfig};
use phishinghook_stats::delta_magnitude;
use std::process::ExitCode;

/// The report file, at the workspace root.
const REPORT: &str = "REPRO.json";

/// Per-model trial outcomes, in Table II's row order.
type Trials = Vec<(ModelKind, Vec<TrialOutcome>)>;

/// Run scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunScale {
    /// CI-sized: small corpus, small models, 2–3 folds.
    Quick,
    /// Laptop-sized: the default.
    Full,
}

impl RunScale {
    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            RunScale::Quick => quick,
            RunScale::Full => full,
        }
    }

    fn profile(self) -> EvalProfile {
        self.pick(EvalProfile::quick(), EvalProfile::full())
    }

    /// Unique contracts per class for the main corpus.
    fn corpus_size(self) -> usize {
        self.pick(150, 900)
    }

    /// Cross-validation folds.
    fn folds(self) -> usize {
        self.pick(3, 10)
    }

    /// Repeated CV runs.
    fn runs(self) -> usize {
        self.pick(1, 3)
    }
}

/// The process arguments (without the program name) to a run scale.
fn parse_args(args: &[String]) -> Result<RunScale, String> {
    match args {
        [] => Ok(RunScale::Full),
        [flag] if flag == "--quick" => Ok(RunScale::Quick),
        _ => Err(format!(
            "unexpected arguments {args:?} (usage: reproduce [--quick])"
        )),
    }
}

/// The bound a gated claim's value must respect.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// `ours` must be strictly below the bound.
    Below(f64),
    /// `ours` must be strictly above the bound.
    Above(f64),
}

impl Gate {
    /// Whether `ours` respects the bound; a NaN never does.
    fn holds(self, ours: f64) -> bool {
        match self {
            Gate::Below(bound) => ours < bound,
            Gate::Above(bound) => ours > bound,
        }
    }

    /// The report's name for the comparison, and the bound.
    fn parts(self) -> (&'static str, f64) {
        match self {
            Gate::Below(bound) => ("below", bound),
            Gate::Above(bound) => ("above", bound),
        }
    }
}

/// One paper claim: our value, the paper's, and the gate if it is held.
struct Claim {
    claim: String,
    ours: f64,
    paper: Option<f64>,
    gate: Option<Gate>,
}

impl Claim {
    fn passes(&self) -> bool {
        self.gate.is_none_or(|gate| gate.holds(self.ours))
    }

    fn to_value(&self) -> Value {
        let gate = self.gate.map_or(Value::Null, |gate| {
            let (op, bound) = gate.parts();
            obj(vec![(op, Value::Num(bound))])
        });
        obj(vec![
            ("claim", Value::Str(self.claim.clone())),
            ("ours", Value::Num(self.ours)),
            ("paper", self.paper.map_or(Value::Null, Value::Num)),
            ("gate", gate),
        ])
    }
}

/// The claims gathered while the sections run.
#[derive(Default)]
struct Report(Vec<Claim>);

impl Report {
    /// Records a claim; with a `gate`, the run fails unless it holds.
    fn add(&mut self, claim: impl Into<String>, ours: f64, paper: Option<f64>, gate: Option<Gate>) {
        let claim = claim.into();
        self.0.push(Claim {
            claim,
            ours,
            paper,
            gate,
        });
    }

    fn failures(&self) -> impl Iterator<Item = &Claim> {
        self.0.iter().filter(|c| !c.passes())
    }

    fn print(&self) {
        println!("{:<62} {:>10} {:>10}  gate", "claim", "ours", "paper");
        for c in &self.0 {
            let paper = c.paper.map_or("-".into(), |p| format!("{p:.4}"));
            let gate = c.gate.map_or(String::new(), |gate| {
                let (op, bound) = gate.parts();
                let verdict = if c.passes() { "pass" } else { "FAIL" };
                format!("{op} {bound:.4}: {verdict}")
            });
            println!("{:<62} {:>10.4} {:>10}  {gate}", c.claim, c.ours, paper);
        }
    }
}

/// Builds the main balanced dataset (the 7,000-sample analogue).
fn main_dataset(scale: RunScale, seed: u64) -> Dataset {
    let n = scale.corpus_size();
    let corpus = generate_corpus(&CorpusConfig {
        unique_phishing: n,
        unique_benign: n,
        ..CorpusConfig::small(seed)
    });
    let chain = SimulatedChain::from_corpus(&corpus);
    extract_dataset(&chain, &BemConfig::default()).0
}

/// Builds the temporally-matched dataset used by Fig. 8.
fn temporal_dataset(scale: RunScale, seed: u64) -> Dataset {
    let n = scale.corpus_size();
    let corpus = generate_corpus(&CorpusConfig {
        unique_phishing: n,
        unique_benign: n,
        benign_temporal_match: true,
        clone_factor: 1.5,
        ..CorpusConfig::small(seed)
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

/// Formats a p-value the way the paper prints Table III.
fn fmt_p(p: f64) -> String {
    if p < 1e-3 {
        format!("{p:.2e}")
    } else {
        format!("{p:.4}")
    }
}

fn section(title: &str) {
    println!("\n== {title} ==\n");
}

/// **Table I**: the EVM opcodes of the Shanghai fork.
fn table1() {
    section("Table I - EVM opcodes (Shanghai fork)");
    println!("{:<8} {:<16} {:>8}  Description", "Opcode", "Name", "Gas");
    for info in SHANGHAI_OPCODES {
        let gas = match info.gas {
            Some(g) => g.to_string(),
            None => "NaN".to_string(),
        };
        println!(
            "0x{:02X}     {:<16} {:>8}  {}",
            info.byte, info.mnemonic, gas, info.description
        );
    }
    println!("\ntotal opcodes: {}", SHANGHAI_OPCODES.len());
}

/// **Fig. 2**: phishing contracts per month (obtained vs unique) over
/// 2023-10 .. 2024-10.
fn fig2(scale: RunScale, report: &mut Report) {
    section("Fig. 2 - phishing contracts per month");
    // The full corpus reproduces the paper's counts: 3,458 unique phishing
    // bytecodes inflated to ~17.5k deployments by clone duplication.
    let full = CorpusConfig::default();
    let corpus = generate_corpus(&CorpusConfig {
        unique_phishing: scale.pick(350, full.unique_phishing),
        unique_benign: 0,
        ..full
    });

    let monthly = corpus.monthly_phishing_counts();
    let max = monthly.iter().map(|(_, o, _)| *o).max().unwrap_or(1);
    println!("{:<10} {:>9} {:>8}", "month", "obtained", "unique");
    for (month, obtained, unique) in &monthly {
        let bar = "#".repeat(obtained * 40 / max.max(1));
        println!(
            "{:<10} {:>9} {:>8}  {bar}",
            month.to_string(),
            obtained,
            unique
        );
    }
    let total_obtained: usize = monthly.iter().map(|(_, o, _)| o).sum();
    let total_unique: usize = monthly.iter().map(|(_, _, u)| u).sum();
    let ratio = total_obtained as f64 / total_unique.max(1) as f64;
    println!("\ntotals: {total_obtained} obtained, {total_unique} unique (ratio {ratio:.2})");
    for (claim, ours, paper) in [
        (
            "phishing deployments obtained",
            total_obtained as f64,
            17_455.0,
        ),
        ("unique phishing bytecodes", total_unique as f64, 3_458.0),
        ("deployments per unique bytecode", ratio, 5.05),
    ] {
        report.add(format!("Fig. 2: {claim}"), ours, Some(paper), None);
    }
}

/// **Fig. 3**: distribution of contracts by per-opcode usage, benign vs
/// phishing, for the 20 influential opcodes.
fn fig3(scale: RunScale) {
    section("Fig. 3 - per-opcode usage, benign vs phishing");
    let dataset = main_dataset(scale, 0xF3);
    println!("dataset: {} contracts\n", dataset.len());

    let usage = opcode_usage(&dataset, &FIG3_OPCODES);
    println!(
        "{:<16} {:>26}   {:>26}",
        "opcode", "benign q1/med/q3", "phishing q1/med/q3"
    );
    for name in FIG3_OPCODES {
        let (benign, phishing) = &usage.by_opcode[name];
        let (b1, b2, b3) = benign.quartiles();
        let (p1, p2, p3) = phishing.quartiles();
        println!(
            "{:<16} {:>8.0} {:>8.0} {:>8.0}   {:>8.0} {:>8.0} {:>8.0}",
            name, b1, b2, b3, p1, p2, p3
        );
    }
    println!(
        "\nthe distributions overlap heavily: no single opcode separates the classes (the paper's point)"
    );
}

/// **Table II**: averaged Accuracy/F1/Precision/Recall for all sixteen
/// models under repeated stratified cross-validation. `--quick` runs
/// 3-fold × 1 run on a small corpus; the default runs 10-fold × 3 runs
/// (the paper's protocol) at laptop scale.
fn table2(scale: RunScale, report: &mut Report) -> Trials {
    section("Table II - averaged performance of the 16 models");
    let dataset = main_dataset(scale, 0xD5);
    println!(
        "dataset: {} samples ({} phishing), {} folds x {} runs\n",
        dataset.len(),
        dataset.positives(),
        scale.folds(),
        scale.runs()
    );

    println!(
        "{:<20} {:>12} {:>10} {:>10} {:>10}  category",
        "Model", "Accuracy(%)", "F1", "Precision", "Recall"
    );

    // One decode+featurize pass for the whole sixteen-model matrix: the
    // shared context is built once and every trial slices it by index.
    let ctx = EvalContext::new(&dataset, &scale.profile());
    let plan = trial_plan(&dataset, scale.folds(), scale.runs(), 0xD5);
    let mut all_results: Trials = Vec::new();
    let mut means = Vec::new();
    for kind in ModelKind::ALL {
        let trials = cross_validate_on(&ctx, kind, &plan);
        let mean = Metrics::mean(&trials.iter().map(|t| t.metrics).collect::<Vec<_>>());
        println!(
            "{:<20} {:>12.2} {:>10.4} {:>10.4} {:>10.4}  {:?}",
            kind.name(),
            100.0 * mean.accuracy,
            mean.f1,
            mean.precision,
            mean.recall,
            kind.category()
        );
        all_results.push((kind, trials));
        means.push((kind, mean));
    }

    // Category averages, as §IV-D reports; the histogram category first.
    println!();
    let mut category_accuracy = Vec::new();
    for cat in [
        ModelCategory::Histogram,
        ModelCategory::Language,
        ModelCategory::Vision,
        ModelCategory::Vulnerability,
    ] {
        let metrics: Vec<Metrics> = all_results
            .iter()
            .filter(|(k, _)| k.category() == cat)
            .flat_map(|(_, trials)| trials.iter().map(|t| t.metrics))
            .collect();
        let mean = Metrics::mean(&metrics);
        println!(
            "{:?} average: accuracy {:.2}%  F1 {:.4}",
            cat,
            100.0 * mean.accuracy,
            mean.f1
        );
        category_accuracy.push(mean.accuracy);
    }

    let histogram = category_accuracy[0];
    let runner_up = category_accuracy[1..]
        .iter()
        .copied()
        .fold(f64::MIN, f64::max);
    let claim = "Table II: histogram category has the top average accuracy";
    report.add(claim, histogram, None, Some(Gate::Above(runner_up)));
    let mean_of = |kind| {
        let found = means.iter().find(|(k, _)| *k == kind);
        found.expect("Table II evaluates every model kind").1
    };
    let claim = "Table II: ESCORT accuracy is below the histogram average";
    let escort = mean_of(ModelKind::Escort).accuracy;
    report.add(claim, escort, Some(0.56), Some(Gate::Below(histogram)));
    let eca = mean_of(ModelKind::EcaEfficientNet).accuracy;
    report.add("Table II: ECA+EfficientNet accuracy", eca, None, None);
    // Open finding: GPT-2 and T5 score identically on each encoding; a
    // gap of zero on every metric keeps that visible.
    for (a, b) in [
        (ModelKind::Gpt2Alpha, ModelKind::T5Alpha),
        (ModelKind::Gpt2Beta, ModelKind::T5Beta),
    ] {
        let claim = format!(
            "Table II: max |delta| over metrics, {} vs {}",
            a.name(),
            b.name()
        );
        let (a, b) = (mean_of(a), mean_of(b));
        let gap = [
            a.accuracy - b.accuracy,
            a.f1 - b.f1,
            a.precision - b.precision,
            a.recall - b.recall,
        ]
        .into_iter()
        .fold(0.0, |max, d| d.abs().max(max));
        report.add(claim, gap, None, None);
    }
    all_results
}

/// **Table III**: Kruskal–Wallis omnibus tests per metric over the 13
/// post-hoc models, with Holm-adjusted p-values.
fn table3(results: &Trials, posthoc: &PosthocReport, report: &mut Report) {
    section("Table III - Kruskal-Wallis tests on the performance metrics");
    let n_trials: usize = results.iter().map(|(_, t)| t.len()).sum();
    println!(
        "{} models x {} trials each = {} observations per metric\n",
        results.len(),
        results[0].1.len(),
        n_trials
    );

    let (rejected, pairs) = (posthoc.normality_violations.len(), results.len() * 4);
    println!("normality: Shapiro-Wilk rejected for {rejected} of {pairs} model-metric pairs\n");
    let claim = format!("Table III: Shapiro-Wilk rejections of {pairs} model-metric pairs");
    report.add(claim, rejected as f64, Some(20.0), None);
    println!("{:<12} {:>10} {:>12} {:>12}", "Metric", "H", "p", "p_adj");
    for row in &posthoc.omnibus {
        println!(
            "{:<12} {:>10.2} {:>12} {:>12}  {}",
            row.metric,
            row.test.h,
            fmt_p(row.test.p_value),
            fmt_p(row.p_adjusted),
            if row.p_adjusted < 0.05 {
                "significant"
            } else {
                "ns"
            }
        );
        if row.metric == "accuracy" {
            let claim = "Table III: Kruskal-Wallis on accuracy, Holm p_adj";
            report.add(claim, row.p_adjusted, None, Some(Gate::Below(0.05)));
        }
    }
}

/// **Fig. 4**: Dunn's pairwise significance matrices for the four metrics
/// over the post-hoc model set, with the same-category / cross-category
/// breakdown the paper reports.
fn fig4(results: &Trials, posthoc: &PosthocReport, report: &mut Report) {
    section("Fig. 4 - Dunn's pairwise comparisons");
    // The paper's share of significant pairs: 65.38% on accuracy, F1 and
    // precision, 61.54% on recall.
    let paper_overall = [0.6538, 0.6538, 0.6538, 0.6154];
    for (mi, metric) in METRIC_NAMES.iter().enumerate() {
        let dunn = &posthoc.dunn[mi];
        println!("--- {metric} ---");
        // Compact matrix: * = significant at 0.05, . = ns.
        print!("{:<22}", "");
        for (kind, _) in results.iter().take(results.len() - 1) {
            print!("{:>4}", &kind.name()[..3.min(kind.name().len())]);
        }
        println!();
        #[allow(clippy::needless_range_loop)] // j is also the dunn pair index
        for j in 1..results.len() {
            print!("{:<22}", results[j].0.name());
            for i in 0..j {
                let sig = dunn
                    .pair(i, j)
                    .map(|p| p.is_significant(0.05))
                    .unwrap_or(false);
                print!("{:>4}", if sig { "*" } else { "ns" });
            }
            println!();
        }
        let b = posthoc.breakdown[mi];
        println!(
            "significant pairs: overall {:.2}%  same-category {:.2}%  cross-category {:.2}%\n",
            100.0 * b.overall,
            100.0 * b.same_category,
            100.0 * b.cross_category
        );
        let claim = format!("Fig. 4: share of significant Dunn pairs, {metric}");
        report.add(claim, b.overall, Some(paper_overall[mi]), None);
    }
    println!("paper, as ranges over the metrics: same-category ~33-41%; cross-category ~76-80%");
}

/// **Fig. 5**: performance of the best model per category (Random Forest,
/// ECA+EfficientNet, SCSGuard) across 1/3, 2/3 and full data splits. The
/// study it returns also feeds Figs. 6 and 7.
fn fig5(scale: RunScale) -> ScalabilityStudy {
    section("Fig. 5 - model scalability across data splits");
    let dataset = main_dataset(scale, 0xF5);
    let study = run_scalability(&dataset, scale.pick(2, 4), &scale.profile(), 0xF5);

    for metric in METRIC_NAMES {
        println!("--- {metric} ---");
        println!("{:<20} {:>8} {:>8} {:>8}", "model", "1/3", "2/3", "1.0");
        for model in SCALABILITY_MODELS {
            print!("{:<20}", model.name());
            for ratio in SPLIT_RATIOS {
                print!(" {:>8.4}", study.mean_metric(model, ratio, metric));
            }
            println!();
        }
        println!();
    }
    study
}

/// **Fig. 6**: the critical difference diagram of the scalability study —
/// Friedman test, pairwise Wilcoxon with Holm correction, mean ranks,
/// non-significance cliques and Cliff's δ effect sizes.
fn fig6(study: &ScalabilityStudy, report: &mut Report) {
    section("Fig. 6 - critical difference diagram (scalability post hoc)");
    for (metric, cd) in study.critical_differences() {
        println!("--- {metric} ---");
        println!("friedman p = {}", fmt_p(cd.friedman_p));
        let ranking = cd.ranking();
        print!("ranking (best first): ");
        for (pos, &m) in ranking.iter().enumerate() {
            if pos > 0 {
                print!("  >  ");
            }
            print!(
                "{} (rank {:.2})",
                SCALABILITY_MODELS[m].name(),
                cd.mean_ranks[m]
            );
        }
        println!();
        for pair in &cd.pairs {
            println!(
                "  {} vs {}: wilcoxon p_adj = {}",
                SCALABILITY_MODELS[pair.model_a].name(),
                SCALABILITY_MODELS[pair.model_b].name(),
                fmt_p(pair.p_adjusted)
            );
        }
        if cd.cliques.is_empty() {
            println!("  no non-significance bars");
        } else {
            for clique in &cd.cliques {
                let names: Vec<&str> = clique
                    .iter()
                    .map(|&m| SCALABILITY_MODELS[m].name())
                    .collect();
                println!("  thick bar (indistinguishable): {}", names.join(" - "));
            }
        }
        println!();
    }

    println!("Cliff's delta, SCSGuard vs ECA+EfficientNet:");
    let paper = [-0.778, -0.778, -0.333, -1.0];
    for (metric, paper) in METRIC_NAMES.into_iter().zip(paper) {
        let d = study.cliffs(ModelKind::ScsGuard, ModelKind::EcaEfficientNet, metric);
        println!("  {metric:<10} delta = {d:+.3}  ({:?})", delta_magnitude(d));
        let claim = format!("Fig. 6: Cliff's delta, SCSGuard vs ECA+EfficientNet, {metric}");
        report.add(claim, d, Some(paper), None);
    }
}

/// **Fig. 7**: training and inference times of the three scalability
/// models per data split.
fn fig7(study: &ScalabilityStudy, report: &mut Report) {
    section("Fig. 7 - training/inference time per data split");
    println!("training time (s):");
    println!("{:<20} {:>9} {:>9} {:>9}", "model", "1/3", "2/3", "1.0");
    for model in SCALABILITY_MODELS {
        print!("{:<20}", model.name());
        for ratio in SPLIT_RATIOS {
            print!(" {:>9.3}", study.mean_times(model, ratio).0);
        }
        println!();
    }
    println!("\ninference time over the test fold (s):");
    println!("{:<20} {:>9} {:>9} {:>9}", "model", "1/3", "2/3", "1.0");
    for model in SCALABILITY_MODELS {
        print!("{:<20}", model.name());
        for ratio in SPLIT_RATIOS {
            print!(" {:>9.4}", study.mean_times(model, ratio).1);
        }
        println!();
    }

    // The paper's headline ratios.
    let rf = study.mean_times(ModelKind::RandomForest, 1.0);
    let scs = study.mean_times(ModelKind::ScsGuard, 1.0);
    let eca = study.mean_times(ModelKind::EcaEfficientNet, 1.0);
    let vs_rf = 100.0 * (scs.0 - rf.0) / rf.0.max(1e-9);
    let vs_eca = 100.0 * (scs.0 - eca.0) / eca.0.max(1e-9);
    println!("\nSCSGuard train time vs RF: {vs_rf:+.1}%  vs ECA: {vs_eca:+.1}%");
    for (baseline, ours, paper) in [
        ("Random Forest", vs_rf, 64_733.0),
        ("ECA+EfficientNet", vs_eca, 1_031.0),
    ] {
        let claim = format!("Fig. 7: SCSGuard train time over {baseline} (%)");
        report.add(claim, ours, Some(paper), None);
    }
}

/// **Fig. 8**: time-resistance — monthly precision/recall/F1 over nine
/// test periods with the Area Under Time (AUT) of the F1 score, for Random
/// Forest, ECA+EfficientNet and SCSGuard.
fn fig8(scale: RunScale, report: &mut Report) {
    section("Fig. 8 - time-resistance analysis");
    let dataset = temporal_dataset(scale, 0xF8);
    let (train, _) = dataset.temporal_split();
    println!(
        "temporal dataset: {} samples, training window holds {}\n",
        dataset.len(),
        train.len()
    );

    let models = [
        ModelKind::RandomForest,
        ModelKind::EcaEfficientNet,
        ModelKind::ScsGuard,
    ];
    let paper_aut = [0.89, 0.79, 0.84];
    for (model, paper) in models.into_iter().zip(paper_aut) {
        let result = run_time_resistance(model, &dataset, &scale.profile(), 0xF8);
        println!("--- {} ---", model.name());
        println!(
            "{:<10} {:>6} {:>8} {:>8} {:>8}",
            "month", "period", "prec", "recall", "F1"
        );
        for m in &result.monthly {
            println!(
                "{:<10} {:>6} {:>8.4} {:>8.4} {:>8.4}",
                m.month.to_string(),
                m.period,
                m.metrics.precision,
                m.metrics.recall,
                m.metrics.f1
            );
        }
        println!("AUT = {:.3}\n", result.aut_f1);
        let claim = format!("Fig. 8: AUT of F1, {}", model.name());
        report.add(claim, result.aut_f1, Some(paper), None);
    }
}

/// **Fig. 9**: SHAP values of the Random-Forest HSC on a test fold — the
/// 20 most influential opcodes with signed influence direction.
fn fig9(scale: RunScale) {
    section("Fig. 9 - SHAP values of the best classifier");
    let dataset = main_dataset(scale, 0xF9);
    let folds = dataset.stratified_folds(scale.folds().max(3), 0xF9);
    let (train, test) = dataset.fold_split(&folds, 0);
    println!(
        "train {} / test {} (one fold, as in the paper)\n",
        train.len(),
        test.len()
    );

    let analysis = shap_analysis(&train, &test, 20, &scale.profile(), 0xF9);
    println!("base value E[f] = {:.4}\n", analysis.base_value);
    println!(
        "{:<18} {:>12} {:>12}  direction",
        "opcode", "mean |SHAP|", "mean SHAP"
    );
    for inf in &analysis.top {
        let direction = if inf.mean_shap > 0.0 {
            "-> phishing"
        } else {
            "-> benign"
        };
        println!(
            "{:<18} {:>12.5} {:>+12.5}  {}",
            inf.mnemonic, inf.mean_abs_shap, inf.mean_shap, direction
        );
    }
    println!("\npaper's top-20 includes RETURNDATASIZE, RETURNDATACOPY, GAS, STATICCALL, LOG3, SELFBALANCE, ...");
}

/// Ablation: the deduplication step. The paper deduplicates bit-identical
/// proxy clones *before* splitting; skipping that step leaks clones across
/// the train/test boundary and inflates the apparent accuracy.
fn ablation_dedup(scale: RunScale) {
    section("Ablation - dedup before split vs clone leakage");
    let eval = |dataset: &Dataset, profile: &EvalProfile| -> Metrics {
        let folds = dataset.stratified_folds(3, 3);
        let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);
        let ctx = EvalContext::new(dataset, profile);
        evaluate_trial(&ctx, ModelKind::RandomForest, &train_idx, &test_idx, 3).metrics
    };
    let n = scale.corpus_size();
    let corpus = generate_corpus(&CorpusConfig {
        unique_phishing: n,
        unique_benign: n,
        clone_factor: 5.05,
        ..CorpusConfig::small(0xAB2)
    });
    let chain = SimulatedChain::from_corpus(&corpus);

    // With dedup (the paper's pipeline).
    let (deduped, report) = extract_dataset(&chain, &BemConfig::default());
    // Without dedup: every deployment (clones included) becomes a sample.
    let leaky = Dataset::new(
        chain
            .records()
            .iter()
            .map(|r| Sample {
                bytecode: r.bytecode.clone(),
                label: u8::from(r.flagged),
                month: r.month,
            })
            .collect(),
    );

    let profile = scale.profile();
    let clean = eval(&deduped, &profile);
    let leaked = eval(&leaky, &profile);

    println!(
        "deduplicated:   {:>6} samples, accuracy {:.4}",
        deduped.len(),
        clean.accuracy
    );
    println!(
        "clone-leaking:  {:>6} samples, accuracy {:.4}",
        leaky.len(),
        leaked.accuracy
    );
    println!(
        "\noptimistic bias from skipping dedup: {:+.4} accuracy ({} deployments -> {} unique)",
        leaked.accuracy - clean.accuracy,
        report.scanned,
        report.unique
    );
}

/// Ablation: the ECA channel-attention module. ECA+EfficientNet's original
/// paper credits the channel attention for its accuracy; this compares the
/// CNN with the ECA gate against the same backbone without it (approximated
/// by a 1-element kernel, which degenerates to a per-channel scalar gate).
fn ablation_eca(scale: RunScale) {
    section("Ablation - ECA kernel width in the CNN");
    let dataset = main_dataset(scale, 0xAB3);
    let profile = scale.profile();
    let folds = dataset.stratified_folds(3, 11);
    let (train, test) = dataset.fold_split(&folds, 0);
    let enc = R2d2Encoder::new(profile.image_side);
    let x_train: Vec<Vec<f32>> = train.disasm_batch().iter().map(|c| enc.encode(c)).collect();
    let x_test: Vec<Vec<f32>> = test.disasm_batch().iter().map(|c| enc.encode(c)).collect();
    let train_rows: Vec<FeatureRow<'_>> = x_train.iter().map(|v| FeatureRow::Dense(v)).collect();
    let test_rows: Vec<FeatureRow<'_>> = x_test.iter().map(|v| FeatureRow::Dense(v)).collect();
    println!("{:<26} {:>10} {:>10}", "variant", "accuracy", "F1");
    for (label, eca_kernel) in [
        ("ECA k=3 (paper)", 3usize),
        ("scalar gate (k=1)", 1),
        ("wide ECA k=5", 5),
    ] {
        let mut model = EcaEfficientNet::new(EcaNetConfig {
            side: profile.image_side,
            eca_kernel,
            train: TrainConfig {
                epochs: profile.nn_epochs,
                learning_rate: 0.01,
                batch_size: 16,
                seed: 11,
            },
            ..EcaNetConfig::default()
        });
        model.fit(&train_rows, &train.labels());
        let probs = model.predict_proba(&test_rows);
        let pred: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let m = Metrics::from_predictions(&pred, &test.labels());
        println!("{:<26} {:>10.4} {:>10.4}", label, m.accuracy, m.f1);
    }
}

/// Ablation: raw opcode counts vs L1-normalized histograms for the HSC
/// winner. The paper feeds *raw* counts ("without normalized nor
/// standardized steps"); this quantifies what that choice costs or buys.
fn ablation_histnorm(scale: RunScale) {
    section("Ablation - raw vs normalized histograms (Random Forest)");
    let dataset = main_dataset(scale, 0xAB1);
    let trees = scale.profile().n_trees;
    let seed = 5;
    let folds = dataset.stratified_folds(3, seed);
    let (train, test) = dataset.fold_split(&folds, 0);
    let train_codes = train.disasm_batch();
    let test_codes = test.disasm_batch();
    let encoder = HistogramEncoder::fit(&train_codes);
    let run = |normalize: bool| -> Metrics {
        let prep = |codes: &[DisasmCache]| -> Matrix {
            let rows: Vec<Vec<f32>> = codes
                .iter()
                .map(|c| {
                    let mut h = encoder.encode(c);
                    if normalize {
                        let total: f32 = h.iter().sum::<f32>().max(1.0);
                        for v in &mut h {
                            *v /= total;
                        }
                    }
                    h
                })
                .collect();
            Matrix::from_rows(&rows)
        };
        let mut rf = RandomForest::new(trees, seed);
        rf.fit(&prep(&train_codes), &train.labels());
        let pred = rf.predict(&prep(&test_codes));
        Metrics::from_predictions(&pred, &test.labels())
    };
    let raw = run(false);
    let norm = run(true);
    println!("{:<22} {:>10} {:>10}", "variant", "accuracy", "F1");
    println!(
        "{:<22} {:>10.4} {:>10.4}",
        "raw counts (paper)", raw.accuracy, raw.f1
    );
    println!(
        "{:<22} {:>10.4} {:>10.4}",
        "L1-normalized", norm.accuracy, norm.f1
    );
    println!(
        "\ndelta accuracy = {:+.4} (raw - normalized)",
        raw.accuracy - norm.accuracy
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match parse_args(&args) {
        Ok(scale) => scale,
        Err(complaint) => {
            eprintln!("reproduce: {complaint}");
            return ExitCode::from(2);
        }
    };
    println!("== PhishingHook reproduction ==");
    println!("scale: {scale:?} (pass --quick for the CI-sized run)");

    let mut report = Report::default();
    table1();
    fig2(scale, &mut report);
    fig3(scale);
    let trials = table2(scale, &mut report);
    // §IV-E: the post hoc analysis excludes ESCORT and the beta variants.
    let keep = ModelKind::posthoc_set();
    let trials: Trials = trials
        .into_iter()
        .filter(|(k, _)| keep.contains(k))
        .collect();
    let posthoc = posthoc_analysis(&trials);
    table3(&trials, &posthoc, &mut report);
    fig4(&trials, &posthoc, &mut report);
    let study = fig5(scale);
    fig6(&study, &mut report);
    fig7(&study, &mut report);
    fig8(scale, &mut report);
    fig9(scale);
    ablation_dedup(scale);
    ablation_eca(scale);
    ablation_histnorm(scale);

    section("Paper claims");
    report.print();
    let path = workspace_root().join(REPORT);
    let claims = Value::Arr(report.0.iter().map(Claim::to_value).collect());
    let scale_name = Value::Str(scale.pick("quick", "full").into());
    let doc = baseline_doc("reproduce", vec![("scale", scale_name), ("claims", claims)]);
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("reproduce: write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\n-> {REPORT}");

    let mut status = ExitCode::SUCCESS;
    for claim in report.failures() {
        eprintln!("reproduce: gate failed: {}", claim.claim);
        status = ExitCode::FAILURE;
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::json::parse;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn only_quick_is_accepted() {
        assert_eq!(parse_args(&args(&[])), Ok(RunScale::Full));
        assert_eq!(parse_args(&args(&["--quick"])), Ok(RunScale::Quick));
        let complaint = parse_args(&args(&["--quik"])).unwrap_err();
        assert!(complaint.contains("--quik"), "{complaint}");
        assert!(parse_args(&args(&["--quick", "--quick"])).is_err());
    }

    #[test]
    fn a_violated_gate_fails_the_report_and_a_tracked_row_never_does() {
        let mut report = Report::default();
        report.add("tracked", f64::NAN, None, None);
        report.add("tracked far from the paper", -1.0, Some(0.9), None);
        report.add("held", 0.01, None, Some(Gate::Below(0.05)));
        assert_eq!(report.failures().count(), 0);

        report.add("violated", 0.5, Some(0.8), Some(Gate::Above(0.7)));
        report.add("nan never passes", f64::NAN, None, Some(Gate::Below(0.05)));
        let failed: Vec<&str> = report.failures().map(|c| c.claim.as_str()).collect();
        assert_eq!(failed, ["violated", "nan never passes"]);
    }

    #[test]
    fn committed_report_carries_every_claim_field() {
        let path = workspace_root().join(REPORT);
        let text = std::fs::read_to_string(&path).expect("REPRO.json is committed");
        let doc = parse(&text).expect("REPRO.json parses");
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("reproduce"));
        assert!(doc.get("scale").and_then(Value::as_str).is_some());
        let claims = doc.get("claims").and_then(Value::as_arr).expect("claims");
        assert!(!claims.is_empty());
        for row in claims {
            for key in ["claim", "ours", "paper", "gate"] {
                assert!(row.get(key).is_some(), "{key} missing in {row:?}");
            }
        }
    }

    #[test]
    fn quick_profile_is_smaller() {
        let q = RunScale::Quick;
        let f = RunScale::Full;
        assert!(q.corpus_size() < f.corpus_size());
        assert!(q.folds() < f.folds());
        assert!(q.profile().n_trees < f.profile().n_trees);
    }

    #[test]
    fn datasets_are_buildable_at_quick_scale() {
        let d = main_dataset(RunScale::Quick, 1);
        assert!(d.len() > 100);
        let t = temporal_dataset(RunScale::Quick, 1);
        assert!(t.len() > 100);
    }

    #[test]
    fn p_formatting() {
        assert_eq!(fmt_p(0.25), "0.2500");
        assert!(fmt_p(1e-9).contains('e'));
    }
}
