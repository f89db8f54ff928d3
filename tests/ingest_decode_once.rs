//! Decode-once across the adaptation loop: over a whole tail-driven
//! episode (bootstrap, drift, retrain, republish) every consumed journal
//! record is decoded exactly once. The retrain reuses the caches its
//! window kept from scoring.
//!
//! This file holds a single test on purpose: `decode_count()` is
//! process-global, so a second test decoding in parallel would race the
//! exact-delta assertion.

use phishinghook::drift::DriftConfig;
use phishinghook::retry::FakeClock;
use phishinghook::{ExtractionStream, Sample};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_evm::{decode_count, CodeLogTailer, CodeLogWriter, TailConfig};
use phishinghook_ingest::{run_tail_pipeline, DriftScenario, TailIngestConfig};
use phishinghook_synth::Month;
use std::time::Duration;

#[test]
fn tail_episode_decodes_each_consumed_record_once() {
    let dir = std::env::temp_dir().join(format!("phk_ingest_decode_once_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let chain = DriftScenario::small(42).build();
    let records: Vec<Sample> = ExtractionStream::new(&chain, Month::FIRST, Month::LAST).collect();
    let log = dir.join("scan.codelog");
    let mut writer = CodeLogWriter::create(&log).unwrap();
    for s in &records {
        writer
            .append_labeled(&s.bytecode, s.label, s.month.0 as u16)
            .unwrap();
    }
    writer.sync().unwrap();
    drop(writer);

    let mut tailer = CodeLogTailer::with_clock(
        &log,
        TailConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..TailConfig::default()
        },
        FakeClock::new(),
    );
    let mut publisher = ArtifactPublisher::open(dir.join("artifacts")).unwrap();
    let mut config = TailIngestConfig::default();
    config.ingest.drift = DriftConfig {
        window: 64,
        brier_margin: 0.15,
    };
    let before = decode_count();
    let report = run_tail_pipeline(&mut tailer, &mut publisher, &config, |_| {}).unwrap();
    let decodes = decode_count() - before;

    assert!(
        report.pipeline.retrains >= 1,
        "the episode must retrain at least once: {report:?}"
    );
    let consumed = report.bootstrapped + report.pipeline.streamed;
    assert_eq!(consumed, records.len(), "every record is consumed");
    assert_eq!(decodes, consumed as u64, "one decode per consumed record");
    std::fs::remove_dir_all(&dir).ok();
}
