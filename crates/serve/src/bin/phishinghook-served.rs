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
//! Environment knobs, read once at start-up (a malformed knob or argument
//! exits with code 2):
//!
//! * `PHISHINGHOOK_SERVE_WORKERS` — warm worker pool size (default: 2 on ≥4 cores, else 1)
//! * `PHISHINGHOOK_BREAKER_THRESHOLD` — consecutive failures before `"degraded"` (default 3)
//! * `PHISHINGHOOK_WATCH_POLL_MS` — publish-dir poll cadence (default 200)
//! * `PHISHINGHOOK_RELOAD_BACKOFF_MS` — base backoff after a bad publish (default 50)
//! * `PHISHINGHOOK_RELOAD_RETRIES` — breaker-counted retries per bad generation (default 5)

use phishinghook::retry::{knob, SystemClock};
use phishinghook_artifact::watch::ArtifactWatcher;
use phishinghook_artifact::OwnedArtifact;
use phishinghook_serve::{
    ArtifactWatchLoop, QueueConfig, ReloadConfig, ServedModel, Server, ServerConfig,
    DEFAULT_BREAKER_THRESHOLD,
};
use std::num::{NonZeroU32, NonZeroU64};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: phishinghook-served <artifact.phk> [bind-addr]\n       phishinghook-served --watch <publish-dir> [bind-addr]";

/// How long watch mode waits for a first valid artifact.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

/// The knobs a replica reads, once, before it opens or binds anything.
fn knobs() -> (ServerConfig, ReloadConfig) {
    let cfg = ServerConfig {
        queue: QueueConfig::from_env(),
        breaker_threshold: knob::read_or_exit::<NonZeroU32>("PHISHINGHOOK_BREAKER_THRESHOLD")
            .map_or(DEFAULT_BREAKER_THRESHOLD, NonZeroU32::get),
        ..ServerConfig::default()
    };
    let mut reload = ReloadConfig::default();
    if let Some(ms) = knob::read_or_exit::<NonZeroU64>("PHISHINGHOOK_WATCH_POLL_MS") {
        reload.watch.poll = Duration::from_millis(ms.get());
    }
    if let Some(ms) = knob::read_or_exit::<NonZeroU64>("PHISHINGHOOK_RELOAD_BACKOFF_MS") {
        let backoff = &mut reload.watch.backoff;
        backoff.initial = Duration::from_millis(ms.get());
        backoff.max_delay = backoff.max_delay.max(backoff.initial);
    }
    if let Some(n) = knob::read_or_exit::<NonZeroU32>("PHISHINGHOOK_RELOAD_RETRIES") {
        reload.max_retries = n.get();
    }
    (cfg, reload)
}

/// Prints `complaint` and the usage, then exits with the usage code 2.
fn usage_exit(complaint: &str) -> ! {
    eprintln!("phishinghook-served: {complaint}\n{USAGE}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let watch = args.next_if_eq("--watch").is_some();
    let (Some(source), bind) = (args.next(), args.next()) else {
        usage_exit("missing arguments")
    };
    if let Some(extra) = args.next() {
        usage_exit(&format!("unexpected argument {extra:?}"));
    }
    let watch_dir = watch.then(|| source.clone());
    let bind = bind.unwrap_or_else(|| "127.0.0.1:7877".to_string());
    let (cfg, reload) = knobs();

    // Resolve the boot artifact: in watch mode, block until the publish
    // directory offers a first fully-validated generation.
    let (artifact, generation) = if let Some(dir) = &watch_dir {
        let mut watcher = ArtifactWatcher::new(dir, reload.watch.clone());
        match watcher.wait_for_update(&SystemClock, BOOT_TIMEOUT) {
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
        Some(dir) => match ArtifactWatchLoop::spawn(&server, dir, reload) {
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
