//! Bench: the persistence layer's cold-start story. A saved detector
//! artifact must make "time to first score in a fresh process"
//! dramatically cheaper than retraining from raw bytecode — that gap is
//! the whole point of the train-once / serve-many artifact.
//!
//! The bench writes `BENCH_artifact.json` (artifact size, save/load time,
//! time to first score from the artifact vs. retraining) and asserts the
//! acceptance bar: cold start from the artifact is at least 5× faster
//! than retraining on the quick profile. `PHISHINGHOOK_BENCH_SMOKE=1`
//! shrinks the corpus to CI size; the assertion holds in both modes.

use phishinghook::prelude::*;
use phishinghook_bench::harness::{best_of, pick, write_baseline};
use phishinghook_bench::json::Value;
use phishinghook_evm::Bytecode;
use phishinghook_synth::{generate_contract, Difficulty, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The acceptance bar: first score from a saved artifact beats
/// retrain-from-scratch by at least this factor.
const MIN_COLD_SPEEDUP: f64 = 5.0;

fn fresh_contract() -> Bytecode {
    let mut rng = StdRng::seed_from_u64(0xC01D);
    generate_contract(Family::ALL[0], Month(6), &Difficulty::default(), &mut rng)
}

fn main() {
    let corpus = generate_corpus(&CorpusConfig::small(pick(42, 24)));
    let data = extract_dataset(&SimulatedChain::from_corpus(&corpus), &BemConfig::default()).0;
    let contract = fresh_contract();
    let dir = std::env::temp_dir().join(format!("phk_coldstart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("detector.phk");

    // Train once and persist; measure the save while we are at it.
    let ctx = EvalContext::new(&data, &EvalProfile::quick());
    let detector = Detector::train(&ctx, ModelKind::RandomForest, 7);
    let t_save = Instant::now();
    detector.save(&path).expect("save artifact");
    let save_ms = t_save.elapsed().as_secs_f64() * 1e3;
    let artifact_bytes = std::fs::metadata(&path).expect("stat").len();

    // The warm path a vendor pays once (decode + featurize + train) against
    // the cold path every serving process pays instead (read + parse +
    // score), with the bare load timed between them.
    let [(retrain_s, warm_score), (load_s, _), (cold_s, cold_score)] = best_of(
        0,
        pick(10, 5),
        [
            &mut || {
                let ctx = EvalContext::new(&data, &EvalProfile::quick());
                Detector::train(&ctx, ModelKind::RandomForest, 7).score_code(&contract)
            },
            &mut || {
                Detector::load(&path).expect("load artifact");
                0.0
            },
            &mut || {
                let cold = Detector::load(&path).expect("load artifact");
                cold.score_code(&contract)
            },
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
    let (retrain_ms, load_ms, cold_ms) = (retrain_s * 1e3, load_s * 1e3, cold_s * 1e3);
    assert_eq!(
        warm_score.to_bits(),
        cold_score.to_bits(),
        "cold-start score must be bit-identical to the training process"
    );
    let speedup = retrain_ms / cold_ms;
    println!(
        "artifact_coldstart: artifact {artifact_bytes} B, first score {cold_ms:.2} ms cold vs \
         {retrain_ms:.2} ms retrain ({speedup:.1}x)"
    );
    assert!(
        speedup >= MIN_COLD_SPEEDUP,
        "cold-start regression: artifact first-score {cold_ms:.2} ms is only {speedup:.1}x \
         faster than retraining ({retrain_ms:.2} ms); bar is {MIN_COLD_SPEEDUP}x"
    );

    write_baseline(
        "BENCH_artifact.json",
        "artifact_coldstart",
        vec![
            ("model", Value::Str(detector.kind().id().into())),
            ("trained_on", Value::Num(detector.trained_on() as f64)),
            ("artifact_bytes", Value::Num(artifact_bytes as f64)),
            ("save_ms", Value::Num(save_ms)),
            ("load_ms", Value::Num(load_ms)),
            ("first_score_from_artifact_ms", Value::Num(cold_ms)),
            ("first_score_via_retrain_ms", Value::Num(retrain_ms)),
            ("coldstart_speedup", Value::Num(speedup)),
        ],
    );
}
