//! End-to-end integration test: synthetic corpus → simulated chain → BEM →
//! BDM → MEM → PAM, the full pipeline of Fig. 1.

use phishinghook::prelude::*;

#[test]
fn full_pipeline_produces_significant_model_differences() {
    // Data gathering (➊–➋) + BEM (➌–➍).
    let corpus = generate_corpus(&CorpusConfig::small(2025));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, report) = extract_dataset(&chain, &BemConfig::default());
    assert_eq!(report.scanned, chain.len());
    assert!(report.unique < report.scanned, "dedup must collapse clones");
    assert_eq!(dataset.positives() * 2, dataset.len(), "balanced dataset");

    // BDM (➎–➏): every sample disassembles and the CSV shape holds.
    for sample in dataset.samples.iter().take(10) {
        let instrs = disassemble_bytecode(&sample.bytecode);
        assert!(!instrs.is_empty());
        let csv = phishinghook_evm::disasm::to_csv(&instrs);
        assert!(csv.starts_with("mnemonic,operand,gas\n"));
    }

    // MEM (➐): two contrasting models over 3-fold CV.
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let plan = trial_plan(&dataset, 3, 1, 1);
    let rf = cross_validate_on(&ctx, ModelKind::RandomForest, &plan);
    let lr = cross_validate_on(&ctx, ModelKind::LogisticRegression, &plan);
    let rf_mean = Metrics::mean(&rf.iter().map(|t| t.metrics).collect::<Vec<_>>());
    assert!(
        rf_mean.accuracy > 0.75,
        "RF mean accuracy = {}",
        rf_mean.accuracy
    );

    // PAM (➑): the analysis runs and reports coherent structure.
    let knn = cross_validate_on(&ctx, ModelKind::Knn, &plan);
    let report = posthoc_analysis(&[
        (ModelKind::RandomForest, rf),
        (ModelKind::LogisticRegression, lr),
        (ModelKind::Knn, knn),
    ]);
    assert_eq!(report.omnibus.len(), 4);
    for row in &report.omnibus {
        assert!(row.test.h.is_finite());
        assert!((0.0..=1.0).contains(&row.p_adjusted));
    }
    assert_eq!(report.dunn.len(), 4);
    for dunn in &report.dunn {
        assert_eq!(dunn.pairs.len(), 3); // C(3,2)
    }
}

#[test]
fn bem_window_restriction_propagates() {
    let corpus = generate_corpus(&CorpusConfig::small(77));
    let chain = SimulatedChain::from_corpus(&corpus);
    let early = extract_dataset(
        &chain,
        &BemConfig {
            to: Month(3),
            balance: false,
            ..Default::default()
        },
    );
    assert!(early.0.samples.iter().all(|s| s.month.0 <= 3));
}

#[test]
fn shap_explains_the_pipeline_winner() {
    let corpus = generate_corpus(&CorpusConfig::small(31));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let folds = dataset.stratified_folds(3, 3);
    let (train, test) = dataset.fold_split(&folds, 0);
    let analysis = shap_analysis(&train, &test, 20, &EvalProfile::quick(), 3);
    assert!(!analysis.top.is_empty());
    // The influential opcodes are real mnemonics from the vocabulary.
    for inf in &analysis.top {
        assert!(!inf.mnemonic.is_empty());
    }
}
