//! The serving daemon, in one of two modes:
//!
//! ```text
//! phishinghook-served <artifact.phk> [bind-addr]          # static artifact
//! phishinghook-served --watch <publish-dir> [bind-addr]   # fleet replica
//! ```
//!
//! Static mode loads a saved artifact once (single read, zero-copy
//! section slices) and serves it over HTTP with the micro-batching
//! queue. Watch mode makes the process a *fleet replica*: it blocks
//! until the publish directory offers a first fully-validated artifact,
//! serves that generation, and keeps a background
//! [`ArtifactWatchLoop`] following the directory's `CURRENT` pointer —
//! hot-swapping each newer valid generation, riding out corrupt or torn
//! publishes on the last good model (visible as `"degraded"` on
//! `GET /healthz`), and never rolling back.
//!
//! Either mode serves whatever the artifact holds — a flat detector or a
//! two-stage cascade (cheap calibrated screen → uncertainty-band
//! escalation → deep confirmer) — through the same server, and a watching
//! replica follows a publish directory across generations of either
//! kind.
//!
//! Environment knobs:
//!
//! * `PHISHINGHOOK_MAX_BATCH` — jobs coalesced per model call (default 64)
//! * `PHISHINGHOOK_BATCH_WAIT_US` — max coalescing wait (default 200)
//! * `PHISHINGHOOK_QUEUE_CAP` — queue bound; overflow answers 429 (default 1024)
//! * `PHISHINGHOOK_SERVE_WORKERS` — warm worker pool size (default: available cores)
//! * `PHISHINGHOOK_WATCH_POLL_MS` — publish-dir poll cadence (default 200)
//! * `PHISHINGHOOK_RELOAD_BACKOFF_MS` — base backoff after a bad publish (default 50)
//! * `PHISHINGHOOK_RELOAD_RETRIES` — breaker-counted retries per bad generation (default 5)
//! * `PHISHINGHOOK_BREAKER_THRESHOLD` — consecutive failures before `"degraded"` (default 3)
//! * `PHISHINGHOOK_BOOT_TIMEOUT_MS` — watch-mode wait for a first valid artifact (default 120000)

use phishinghook::retry::SystemClock;
use phishinghook_artifact::watch::ArtifactWatcher;
use phishinghook_artifact::OwnedArtifact;
use phishinghook_serve::{ArtifactWatchLoop, ReloadConfig, ServedModel, Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: phishinghook-served <artifact.phk> [bind-addr]\n       phishinghook-served --watch <publish-dir> [bind-addr]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(first) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let (watch_dir, source) = if first == "--watch" {
        let Some(dir) = args.next() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        (Some(dir.clone()), dir)
    } else {
        (None, first)
    };
    let bind = args.next().unwrap_or_else(|| "127.0.0.1:7877".to_string());
    let cfg = ServerConfig::from_env();

    // Resolve the boot artifact: in watch mode, block until the publish
    // directory offers a first fully-validated generation.
    let (artifact, generation) = if let Some(dir) = &watch_dir {
        let reload = ReloadConfig::from_env();
        let boot_timeout = std::env::var("PHISHINGHOOK_BOOT_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_secs(120));
        let mut watcher = ArtifactWatcher::new(dir, reload.watch.clone());
        match watcher.wait_for_update(&SystemClock, boot_timeout) {
            Ok(valid) => (valid.artifact, valid.generation),
            Err(e) => {
                eprintln!("phishinghook-served: no valid artifact in {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match OwnedArtifact::open(&source) {
            Ok(a) => (a, 0),
            Err(e) => {
                eprintln!("phishinghook-served: cannot open {source}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let model = match ServedModel::from_artifact(&artifact) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("phishinghook-served: cannot decode {source}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let banner = model.to_string();
    let server = match Server::start(model, generation, bind.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("phishinghook-served: cannot bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // In watch mode, keep following the publish directory for the life
    // of the process. The handle must stay alive: dropping it joins the
    // watch thread.
    let _watch_loop = match &watch_dir {
        Some(dir) => match ArtifactWatchLoop::spawn(&server, dir, ReloadConfig::from_env()) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("phishinghook-served: cannot start watch loop on {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    println!(
        "phishinghook-served: {banner} (generation {generation}) listening on http://{}",
        server.local_addr()
    );
    println!(
        "  max_batch={} batch_wait={}us queue_cap={} workers={}",
        cfg.queue.max_batch,
        cfg.queue.batch_wait.as_micros(),
        cfg.queue.capacity,
        cfg.queue.workers
    );
    println!("  POST /predict {{\"bytecode\":\"0x…\"}} | POST /predict_batch {{\"contracts\":[…]}} | GET /healthz");

    // Serve until killed; the acceptor and workers own their threads.
    loop {
        std::thread::park();
    }
}
