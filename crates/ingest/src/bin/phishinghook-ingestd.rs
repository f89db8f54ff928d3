//! The fleet's trainer daemon:
//!
//! ```text
//! phishinghook-ingestd tail <codelog> <publish-dir> [seed]
//! ```
//!
//! It follows a live CodeLog journal written by a separate
//! `phishinghook-scannerd` process (riding out torn tails and rotations),
//! bootstraps a baseline from the first labeled records, adapts online on
//! drift, and publishes every model generation atomically into
//! `<publish-dir>` — where watching `phishinghook-served --watch` replicas
//! pick them up. It exits cleanly when the journal goes idle (the scanner
//! finished). Its knobs, read once at start-up:
//! `PHISHINGHOOK_TAIL_POLL_MS` (first tail backoff step, 25),
//! `PHISHINGHOOK_TAIL_IDLE_MS` (idle time that ends the run, 10000; `0`
//! waits forever) and `PHISHINGHOOK_BOOTSTRAP_MIN` (labeled samples before
//! the baseline train, 96). A malformed knob or argument exits with code 2.
//!
//! The same drift → retrain → republish loop runs in one process by
//! feeding samples to
//! [`OnlinePipeline::observe`](phishinghook_ingest::OnlinePipeline::observe).

use phishinghook::drift::DriftConfig;
use phishinghook::retry::knob;
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_evm::{CodeLogTailer, TailConfig};
use phishinghook_ingest::{run_tail_pipeline, TailIngestConfig, TailNote};
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: phishinghook-ingestd tail <codelog> <publish-dir> [seed]";

/// Prints `complaint` and the usage, then exits with the usage code 2.
fn usage_exit(complaint: &str) -> ! {
    eprintln!("phishinghook-ingestd: {complaint}\n{USAGE}");
    std::process::exit(2)
}

/// The trailing `[seed]` argument (default 42); nothing may follow it.
fn seed_arg(mut rest: impl Iterator<Item = String>) -> u64 {
    match (rest.next(), rest.next()) {
        (_, Some(extra)) => usage_exit(&format!("unexpected argument {extra:?}")),
        (Some(s), None) => s
            .parse()
            .unwrap_or_else(|_| usage_exit(&format!("invalid seed {s:?}"))),
        (None, None) => 42,
    }
}

/// The fleet trainer: tail a live journal, adapt, publish generations.
fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match args.first().map(String::as_str) {
        Some("tail") => args.into_iter().skip(1),
        Some(_) => usage_exit(&format!("expected \"tail\", got arguments {args:?}")),
        None => usage_exit("missing arguments"),
    };
    let (Some(log), Some(publish_dir)) = (args.next(), args.next()) else {
        usage_exit("missing arguments")
    };
    let seed = seed_arg(args);

    let mut tail_config = TailConfig::default();
    if let Some(ms) = knob::read_or_exit::<NonZeroU64>("PHISHINGHOOK_TAIL_POLL_MS") {
        tail_config.poll = Duration::from_millis(ms.get());
    }
    // A tail-mode daemon must terminate once the scanner is done.
    let idle_ms = knob::read_or_exit("PHISHINGHOOK_TAIL_IDLE_MS").unwrap_or(10_000);
    tail_config.idle_timeout = (idle_ms > 0).then(|| Duration::from_millis(idle_ms));
    let mut config = TailIngestConfig::default();
    if let Some(n) = knob::read_or_exit::<NonZeroUsize>("PHISHINGHOOK_BOOTSTRAP_MIN") {
        config.bootstrap_min = n.get();
    }
    config.ingest.drift = DriftConfig {
        window: 64,
        brier_margin: 0.15,
    };
    config.ingest.seed = seed;
    let mut tailer = CodeLogTailer::new(&log, tail_config);
    let mut publisher = ArtifactPublisher::open(&publish_dir)?;
    println!(
        "phishinghook-ingestd: tailing {log}, publishing into {publish_dir} (bootstrap {} labeled)",
        config.bootstrap_min
    );

    let report = run_tail_pipeline(&mut tailer, &mut publisher, &config, |note| {
        match note {
        TailNote::Bootstrapped { published, samples } => println!(
            "  baseline trained on {samples} samples → generation {} live",
            published.generation
        ),
        TailNote::Retrained(event) => println!(
            "  drift @ sample {} (month {}): Brier {:.3} vs baseline {:.3} → retrained on {} samples, generation {}",
            event.signal.position,
            event.signal.month.0,
            event.signal.window_brier,
            event.signal.baseline_brier,
            event.window_len,
            event.published.generation,
        ),
        TailNote::Rotated { log_id } => {
            println!("  journal rotated (new log id {log_id:#x}), following the replacement")
        }
    }
    })?;

    println!(
        "  journal idle: {} bootstrap + {} streamed samples ({} unlabeled skipped, {} rotations), generations {:?}",
        report.bootstrapped,
        report.pipeline.streamed,
        report.unlabeled,
        report.rotations,
        report.generations,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("phishinghook-ingestd: {e}");
            ExitCode::FAILURE
        }
    }
}
