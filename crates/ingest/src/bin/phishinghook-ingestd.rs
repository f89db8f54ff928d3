//! The ingestion daemon, in one of two modes:
//!
//! ```text
//! phishinghook-ingestd <work-dir> [seed]                    # one-process demo
//! phishinghook-ingestd tail <codelog> <publish-dir> [seed]  # fleet role
//! ```
//!
//! **Tail mode** is the fleet's trainer: it follows a live CodeLog
//! journal written by a separate `phishinghook-scannerd` process
//! (riding out torn tails and rotations), bootstraps a baseline from the
//! first labeled records, adapts online on drift, and publishes every
//! model generation atomically into `<publish-dir>` — where watching
//! `phishinghook-served --watch` replicas pick them up. It exits cleanly
//! when the journal goes idle (the scanner finished). Its knobs, read once
//! at start-up: `PHISHINGHOOK_TAIL_POLL_MS` (first tail backoff step, 25),
//! `PHISHINGHOOK_TAIL_IDLE_MS` (idle time that ends the run, 10000; `0`
//! waits forever) and `PHISHINGHOOK_BOOTSTRAP_MIN` (labeled samples before
//! the baseline train, 96). A malformed knob or argument exits with code 2.
//!
//! **Demo mode** runs the whole loop in one process on a simulated
//! chain with an injected drift:
//!
//! 1. builds a drifted chain ([`DriftScenario`]) and trains the pre-drift
//!    baseline model on the early months;
//! 2. publishes it as generation 1 into `<work-dir>/artifacts` and starts
//!    a live HTTP server on an ephemeral port;
//! 3. replays the chain in time order, journaling every streamed bytecode
//!    to the append-only `<work-dir>/ingest.codelog`;
//! 4. on each drift signal, retrains on the sliding window, republishes
//!    atomically, and hot-swaps the server to the new generation — then
//!    proves it by querying `GET /healthz` over TCP.

use phishinghook::drift::DriftConfig;
use phishinghook::retry::knob;
use phishinghook::{EvalProfile, PHISHING_THRESHOLD};
use phishinghook::{ExtractionStream, ModelKind};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_evm::{CodeLogTailer, CodeLogWriter, TailConfig};
use phishinghook_ingest::{
    baseline_detector, run_tail_pipeline, DriftScenario, IngestConfig, OnlinePipeline,
    TailIngestConfig, TailNote,
};
use phishinghook_serve::{QueueConfig, Server, ServerConfig};
use phishinghook_synth::Month;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// One-shot `GET /healthz`, returning the JSON body.
fn healthz(addr: SocketAddr) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(b"GET /healthz HTTP/1.1\r\nHost: ingestd\r\nConnection: close\r\n\r\n")?;
    let mut reader = BufReader::new(stream);
    let mut length = 0usize;
    let mut line = String::new();
    // Status line + headers; the body length rides Content-Length.
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; length];
    std::io::Read::read_exact(&mut reader, &mut body)?;
    Ok(String::from_utf8_lossy(&body).into_owned())
}

const USAGE: &str = "usage: phishinghook-ingestd <work-dir> [seed]\n       phishinghook-ingestd tail <codelog> <publish-dir> [seed]";

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
fn run_tail(mut args: impl Iterator<Item = String>) -> Result<(), Box<dyn std::error::Error>> {
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

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let Some(work_dir) = args.next() else {
        usage_exit("missing arguments")
    };
    if work_dir == "tail" {
        return run_tail(args);
    }
    let seed = seed_arg(args);
    let cfg = ServerConfig {
        queue: QueueConfig::from_env(),
        ..ServerConfig::default()
    };
    let work_dir = std::path::PathBuf::from(work_dir);
    std::fs::create_dir_all(&work_dir)?;

    // 1. Drifted chain + pre-drift baseline.
    let scenario = DriftScenario::small(seed);
    let chain = scenario.build();
    let profile = EvalProfile::quick();
    let kind = ModelKind::LogisticRegression;
    let initial = baseline_detector(&chain, kind, &profile, seed);
    println!(
        "phishinghook-ingestd: chain of {} deployments, baseline {} trained on months 0-3",
        chain.len(),
        initial.kind().id()
    );

    // 2. Publish generation 1 and serve it.
    let mut publisher = ArtifactPublisher::open(work_dir.join("artifacts"))?;
    let first = publisher.publish(initial.to_bytes())?;
    let server = Server::start(Arc::clone(&initial), first.generation, "127.0.0.1:0", cfg)?;
    let addr = server.local_addr();
    println!(
        "  serving generation {} on http://{addr}  ({})",
        first.generation,
        healthz(addr)?
    );

    // 3. + 4. Replay the chain, journal it, adapt on drift.
    let mut journal = CodeLogWriter::create(work_dir.join("ingest.codelog"))?;
    let mut pipeline = OnlinePipeline::new(
        initial,
        IngestConfig {
            drift: DriftConfig {
                window: 64,
                brier_margin: 0.15,
            },
            retrain_window: 256,
            kind,
            profile,
            seed,
        },
    );
    let stream = ExtractionStream::new(&chain, Month::FIRST, Month::LAST).inspect(|sample| {
        journal.append(&sample.bytecode).expect("journal append");
    });
    let report = pipeline.run(stream, &mut publisher, |event, detector| {
        server.install(Arc::clone(detector), event.published.generation);
        println!(
            "  drift @ sample {} (month {}): Brier {:.3} vs baseline {:.3} → retrained on {} samples, generation {} live",
            event.signal.position,
            event.signal.month.0,
            event.signal.window_brier,
            event.signal.baseline_brier,
            event.window_len,
            event.published.generation,
        );
        println!("    healthz: {}", healthz(addr).unwrap_or_default());
    })?;
    journal.sync()?;

    println!(
        "  streamed {} contracts, {} drift signals, {} retrains, live generation {}",
        report.streamed,
        report.signals.len(),
        report.retrains,
        server.generation()
    );
    println!(
        "  journal: {} records at {}",
        journal.records(),
        work_dir.join("ingest.codelog").display()
    );
    println!("  serving threshold {PHISHING_THRESHOLD}; draining queue and shutting down");
    server.shutdown();
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
