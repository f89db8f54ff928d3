//! Acceptance test for the serving subsystem: a trained [`Detector`]'s
//! scores are bit-identical to the trait-dispatched evaluation path over
//! the same seed, and scoring N fresh contracts pays exactly N decodes.
//!
//! `decode_count()` is process-global, so exact-delta assertions are only
//! race-free when nothing else in the process builds caches concurrently.
//! This file deliberately contains exactly one test (the same convention as
//! `tests/evalstore_decode_once.rs`).

use phishinghook::prelude::*;
use phishinghook_evm::{decode_count, Bytecode, DisasmCache};
use phishinghook_serve::{MicroBatcher, QueueConfig};
use phishinghook_synth::{generate_contract, Difficulty, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fresh deployments the detector has never seen (synthesized directly,
/// not drawn from the training chain).
fn fresh_contracts(n: usize) -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(0xF5E5);
    (0..n)
        .map(|i| {
            generate_contract(
                Family::ALL[i % Family::ALL.len()],
                Month(4),
                &Difficulty::default(),
                &mut rng,
            )
        })
        .collect()
}

#[test]
fn serving_matches_the_eval_path_and_decodes_each_contract_once() {
    let corpus = generate_corpus(&CorpusConfig::small(121));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let profile = EvalProfile::quick();
    let ctx = EvalContext::new(&dataset, &profile);
    let folds = dataset.stratified_folds(3, 7);
    let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);

    // --- Parity: Detector::score_batch == trait-dispatched eval path. ---
    // One classical kind, one deep kind, and the two-phase ESCORT protocol.
    for kind in [
        ModelKind::RandomForest,
        ModelKind::ScsGuard,
        ModelKind::Escort,
    ] {
        let detector = Detector::train_on(&ctx, kind, &train_idx, 7);

        // The evaluation path, spelled out: same factory, same gathered
        // store rows, same seed.
        let store = ctx.store();
        let matrix = store.matrix(kind.encoding());
        let mut model = kind.build(store.encoder(kind.encoding()), &profile, 7);
        if model.wants_pretraining() {
            model.pretrain(
                &matrix.gather_rows(&train_idx),
                &ctx.gather_vuln(&train_idx),
            );
        }
        model.fit(
            &matrix.gather_rows(&train_idx),
            &ctx.gather_labels(&train_idx),
        );
        let eval_probs = model.predict_proba(&matrix.gather_rows(&test_idx));

        // The serving path re-encodes the held-out contracts from their
        // caches instead of gathering store rows.
        let test_caches: Vec<DisasmCache> =
            test_idx.iter().map(|&i| ctx.caches()[i].clone()).collect();
        let served = detector.score_batch(&test_caches);
        assert_eq!(
            served, eval_probs,
            "{kind}: serving scores must be bit-identical to the eval path"
        );
    }

    // --- Decode economy: N fresh contracts, exactly N decodes. ---
    let fresh = fresh_contracts(12);
    let detector = Detector::train(&ctx, ModelKind::RandomForest, 3);
    let before = decode_count();
    let scores = detector.score_codes(&fresh);
    assert_eq!(
        decode_count() - before,
        fresh.len() as u64,
        "scoring N fresh contracts must decode exactly N times"
    );
    assert_eq!(scores.len(), fresh.len());
    assert!(scores.iter().all(|p| (0.0..=1.0).contains(p)));

    // Single-contract serving agrees with the batch and adds one decode
    // per call.
    let before = decode_count();
    let solo = detector.score_code(&fresh[0]);
    assert_eq!(decode_count() - before, 1);
    assert_eq!(solo, scores[0]);

    // --- A cascade shares one decode between both stages. ---
    let cascade = CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::ScsGuard,
        &CascadeConfig::default(),
        3,
    );
    let before = decode_count();
    let verdicts = cascade.score_codes(&fresh);
    assert_eq!(
        decode_count() - before,
        fresh.len() as u64,
        "a two-stage cascade still decodes each contract exactly once"
    );
    assert_eq!(verdicts.len(), fresh.len());

    // --- Micro-batched serving is invisible in the scores. ---
    // The serving tier's queue coalesces concurrent requests into one
    // `score_codes` call; because batched inference is bit-identical to
    // row-wise inference, queue-coalesced scores must equal the direct
    // scores computed above — and pay the same one-decode-per-contract.
    let cfg = QueueConfig {
        max_batch: 5, // not a divisor of 12: exercises a ragged final batch
        batch_wait: std::time::Duration::from_micros(500),
        capacity: 64,
        workers: 2,
    };
    let batcher = MicroBatcher::start(std::sync::Arc::new(detector), cfg);
    let before = decode_count();
    let queued = batcher
        .submit_many(fresh.clone())
        .expect("queue accepts the batch");
    assert_eq!(
        queued, scores,
        "queue-coalesced scores must be bit-identical to direct scoring"
    );
    assert_eq!(
        decode_count() - before,
        fresh.len() as u64,
        "micro-batching adds no extra decodes"
    );

    // Concurrent solo submissions coalesce into shared batches; every
    // caller still sees its own exact score.
    let stats_before = batcher.stats();
    let before = decode_count();
    std::thread::scope(|s| {
        let handles: Vec<_> = fresh
            .iter()
            .zip(&scores)
            .map(|(code, &want)| {
                let batcher = &batcher;
                s.spawn(move || {
                    let got = batcher
                        .submit(code.clone())
                        .expect("queue accepts a solo job");
                    assert_eq!(got, want, "coalesced solo score must match direct scoring");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert_eq!(decode_count() - before, fresh.len() as u64);
    let stats = batcher.stats();
    assert_eq!(stats.scored - stats_before.scored, fresh.len() as u64);
    batcher.shutdown();

    // The cascade behind the queue: same verdicts as direct scoring.
    let cascade_batcher = MicroBatcher::start(cascade, QueueConfig { workers: 1, ..cfg });
    let queued_verdicts = cascade_batcher
        .submit_many(fresh.clone())
        .expect("queue accepts the cascade batch");
    assert_eq!(
        queued_verdicts, verdicts,
        "both cascade stages must score bit-identically through the queue"
    );
    cascade_batcher.shutdown();
}
