//! Criterion bench + harness: streaming ingestion & online adaptation.
//!
//! Criterion's view is the per-sample hot path: one `DriftWatcher`
//! observation (the statistics every streamed contract pays) and one
//! append to the durable ingestion journal. The harness then replays the
//! injected-drift scenario end to end — score → drift watch → sliding
//! window retrain → atomic republish → live `Server::install` — and
//! reports contracts/sec streamed and **time-to-republish**: the wall
//! time from the sample that trips a `DriftSignal` to the moment the
//! retrained generation is live in the serving slot (retrain + artifact
//! encode + atomic publish + decode-from-disk + hot swap).
//!
//! Full runs land the committed baseline in `BENCH_ingest.json`; smoke
//! runs (`PHISHINGHOOK_BENCH_SMOKE=1`) assert the pipeline invariants —
//! the injected shift trips at least one retrain, publication is
//! monotone, and the live server ends on the latest generation — without
//! touching the baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use phishinghook::drift::{DriftConfig, DriftWatcher};
use phishinghook::prelude::*;
use phishinghook::EvalProfile;
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_bench::json::Value;
use phishinghook_evm::CodeLogWriter;
use phishinghook_ingest::{baseline_detector, DriftScenario, IngestConfig, OnlinePipeline};
use phishinghook_serve::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

fn smoke_mode() -> bool {
    std::env::var_os("PHISHINGHOOK_BENCH_SMOKE").is_some()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join("phk_bench_ingest")
        .join(format!("{tag}_{}", std::process::id()))
}

struct HarnessRun {
    streamed: usize,
    contracts_per_sec: f64,
    signals: usize,
    retrains: usize,
    republish_ms: Vec<f64>,
    final_generation: u64,
}

/// Replays the drifted chain through the full adaptation loop against a
/// live server, timing each drift→live-swap cycle.
fn run_harness() -> HarnessRun {
    let scenario = DriftScenario::small(42);
    let chain = scenario.build();
    let kind = ModelKind::LogisticRegression;
    let initial = baseline_detector(&chain, kind, &EvalProfile::quick(), 7);

    let dir = temp_dir("publish");
    std::fs::remove_dir_all(&dir).ok();
    let mut publisher = ArtifactPublisher::open(&dir).expect("open publisher");
    let first = publisher
        .publish(initial.to_bytes())
        .expect("publish baseline");
    let server = Server::start(
        Arc::clone(&initial),
        first.generation,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");

    let mut pipeline = OnlinePipeline::new(
        initial,
        IngestConfig {
            drift: DriftConfig {
                window: 64,
                brier_margin: 0.15,
            },
            retrain_window: 256,
            kind,
            profile: EvalProfile::quick(),
            seed: 7,
        },
    );

    let mut republish_ms = Vec::new();
    let t0 = Instant::now();
    for sample in ExtractionStream::new(&chain, Month::FIRST, Month::LAST) {
        let trip = Instant::now();
        if let Some(event) = pipeline.observe(sample, &mut publisher).expect("observe") {
            // The serving tier picks the republished artifact up from
            // disk — the complete drift→live-generation hand-off.
            let bytes = std::fs::read(&event.published.path).expect("read artifact");
            let decoded = Arc::new(Detector::from_bytes(&bytes).expect("decode artifact"));
            server.install(decoded, event.published.generation);
            republish_ms.push(trip.elapsed().as_secs_f64() * 1e3);
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let report = pipeline.report().clone();
    let run = HarnessRun {
        streamed: report.streamed,
        contracts_per_sec: report.streamed as f64 / elapsed_s,
        signals: report.signals.len(),
        retrains: report.retrains,
        republish_ms,
        final_generation: server.generation(),
    };
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    run
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_throughput");

    // Per-sample hot path 1: the drift statistics (calibrated stream, so
    // the watcher never latches and every iteration does full work).
    let mut watcher = DriftWatcher::new(DriftConfig {
        window: 128,
        brier_margin: f64::INFINITY,
    });
    let mut i = 0u64;
    group.bench_function("drift_watcher_observe", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let label = (i % 2) as u8;
            let prob = if label == 1 { 0.9 } else { 0.1 };
            watcher.observe(prob, label, Month(5))
        })
    });

    // Per-sample hot path 2: journaling one contract to the code log.
    let log_dir = temp_dir("journal");
    std::fs::create_dir_all(&log_dir).expect("journal dir");
    let mut journal = CodeLogWriter::create(log_dir.join("bench.codelog")).expect("create journal");
    let code = phishinghook_synth::generate_contract(
        phishinghook_synth::Family::Erc20Token,
        Month(5),
        &phishinghook_synth::Difficulty::default(),
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x1A7E),
    );
    group.bench_function("codelog_append", |b| {
        b.iter(|| journal.append(&code).expect("append"))
    });
    group.finish();
    drop(journal);
    std::fs::remove_dir_all(&log_dir).ok();

    // The end-to-end adaptation harness.
    let run = run_harness();
    println!(
        "  streamed {} contracts at {:.0}/s; {} signals, {} retrains, final generation {}",
        run.streamed, run.contracts_per_sec, run.signals, run.retrains, run.final_generation
    );
    for (i, ms) in run.republish_ms.iter().enumerate() {
        println!("  drift {} -> live generation in {ms:.1} ms", i + 1);
    }
    assert!(run.streamed > 0, "nothing streamed");
    assert!(
        run.retrains >= 1,
        "injected drift must trip at least one retrain"
    );
    assert_eq!(run.retrains, run.republish_ms.len());
    assert!(
        run.final_generation > 1,
        "server must end on a republished generation"
    );

    // Smoke runs assert but never overwrite the committed baseline.
    if !smoke_mode() {
        let mean_republish_ms =
            run.republish_ms.iter().sum::<f64>() / run.republish_ms.len() as f64;
        let doc = Value::Obj(vec![
            ("bench".into(), Value::Str("ingest_throughput".into())),
            (
                "model".into(),
                Value::Str(ModelKind::LogisticRegression.id().into()),
            ),
            ("streamed".into(), Value::Num(run.streamed as f64)),
            (
                "contracts_per_sec".into(),
                Value::Num(run.contracts_per_sec),
            ),
            ("drift_signals".into(), Value::Num(run.signals as f64)),
            ("retrains".into(), Value::Num(run.retrains as f64)),
            (
                "republish_ms".into(),
                Value::Arr(run.republish_ms.iter().map(|&m| Value::Num(m)).collect()),
            ),
            ("mean_republish_ms".into(), Value::Num(mean_republish_ms)),
            (
                "final_generation".into(),
                Value::Num(run.final_generation as f64),
            ),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
        std::fs::write(path, doc.render()).expect("write BENCH_ingest.json");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest
}
criterion_main!(benches);
