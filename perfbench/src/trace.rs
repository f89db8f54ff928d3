//! The traced run: the same inputs as the end-to-end run, replayed in
//! process through each layer's public functions, with a span recorded
//! around every call from this file. Spans live in memory and are
//! reduced to per-layer numbers when the run ends.
//!
//! Three parts, each reported on every workload:
//!
//! * the **serving replay**: captured request bytes through
//!   `http::read_request`, `json::parse`, `Bytecode::from_hex`, a
//!   `MicroBatcher` with the server's default `QueueConfig` over a timing
//!   scorer that decodes (`DisasmCache::build`) and scores
//!   (`CascadeDetector::score_batch`), a `json` render and
//!   `http::write_response`. Traced passes alternate with untraced passes
//!   of the same calls; the difference is the tracing overhead.
//! * the **adaptation replay**: one drift episode's journal through
//!   `CodeLogWriter::append_labeled`, `CodeLogTailer::next_event`, the
//!   bootstrap train and publish, and `OnlinePipeline::observe`.
//! * **probes**: artifact open, decode and publish, `ModelSlot::install`,
//!   publish → replica generation lag, and open-loop generator lateness.
//!
//! `trace.coverage` is the primary replay's summed layer self-time over
//! its wall time: the serving replay on `wallet_screen` and
//! `chain_backfill`, the adaptation replay on `drift_adapt`.

use crate::adapt::{ingest_config, journal_cycle};
use crate::client::{healthz, render, Conn};
use crate::drive::open_loop;
use crate::load::{self, Contract};
use crate::replica::{Replica, SetupSample};
use crate::report::SetupInfo;
use crate::serving::{self, screen_inputs, SCREEN_RATE};
use crate::stats::{median, percentile, self_time_by_name, self_times_ns, Span};
use phishinghook::json::Value;
use phishinghook::par::parallel_map;
use phishinghook::{
    CascadeDetector, CascadeVerdict, CodeScorer, Dataset, Detector, EvalContext, Sample,
};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_artifact::{ArtifactReader, OwnedArtifact};
use phishinghook_evm::{
    decode_count, Bytecode, CodeLogTailer, CodeLogWriter, DisasmCache, TailConfig, TailEvent,
};
use phishinghook_features::{Encoding, FittedEncoders};
use phishinghook_ingest::OnlinePipeline;
use phishinghook_serve::http::{read_request, write_response, Limits};
use phishinghook_serve::{MicroBatcher, ModelSlot, QueueConfig};
use phishinghook_synth::Month;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// No enclosing span.
const NO_PARENT: usize = usize::MAX;

/// In-memory span recorder. A disabled tracer runs the same calls and
/// records nothing, which is what the untraced passes use.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// The span the queue worker's spans belong to: the `serve.queue`
    /// span of the request being submitted (one submitter at a time).
    parent: AtomicUsize,
}

impl Tracer {
    fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            parent: AtomicUsize::new(NO_PARENT),
        })
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(spans.len() - 1)
    }

    fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.now_ns();
            self.spans.lock().expect("span lock")[i].end_ns = end;
        }
    }

    fn rename(&self, span: Option<usize>, name: &'static str) {
        if let Some(i) = span {
            self.spans.lock().expect("span lock")[i].name = name;
        }
    }

    fn span<R>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, parent);
        let r = f();
        self.close(s);
        r
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

/// The served cascade behind the queue, timed: each batch is one decode
/// span and one score span under the submitting request's queue span.
struct TimedCascade {
    cascade: Arc<CascadeDetector>,
    tracer: Arc<Tracer>,
    sizes: Mutex<Vec<usize>>,
}

impl CodeScorer for TimedCascade {
    type Output = CascadeVerdict;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<CascadeVerdict> {
        let parent = match self.tracer.parent.load(Ordering::SeqCst) {
            NO_PARENT => None,
            p => Some(p),
        };
        let caches = self.tracer.span("evm.decode", parent, || {
            parallel_map(codes, DisasmCache::build)
        });
        let verdicts = self.tracer.span("core.cascade.score", parent, || {
            self.cascade.score_batch(&caches)
        });
        self.sizes.lock().expect("sizes lock").push(codes.len());
        verdicts
    }
}

/// The reply body the server renders for cascade verdicts.
fn reply_body(verdicts: &[CascadeVerdict], batch: bool) -> Vec<u8> {
    let cascade = ("model".to_string(), Value::Str("cascade".into()));
    let doc = if batch {
        let col =
            |f: &dyn Fn(&CascadeVerdict) -> Value| Value::Arr(verdicts.iter().map(f).collect());
        Value::Obj(vec![
            cascade,
            (
                "probabilities".into(),
                col(&|v| Value::Num(v.probability as f64)),
            ),
            ("escalated".into(), col(&|v| Value::Bool(v.escalated))),
            ("phishing".into(), col(&|v| Value::Bool(v.is_phishing()))),
        ])
    } else {
        let v = &verdicts[0];
        Value::Obj(vec![
            cascade,
            ("probability".into(), Value::Num(v.probability as f64)),
            ("escalated".into(), Value::Bool(v.escalated)),
            ("phishing".into(), Value::Bool(v.is_phishing())),
        ])
    };
    doc.render().into_bytes()
}

/// One captured request through every serving layer. Returns the
/// contracts it carried and their bytecode bytes.
fn serve_one(
    t: &Tracer,
    queue: &MicroBatcher<TimedCascade>,
    request: &[u8],
    batch: bool,
) -> (usize, usize) {
    let root = t.open("request", None);
    let req = t
        .span("serve.http.read", root, || {
            read_request(&mut &request[..], &Limits::default())
        })
        .expect("captured request parses");
    let doc = t
        .span("serve.json.parse", root, || {
            std::str::from_utf8(&req.body)
                .ok()
                .and_then(phishinghook::json::parse)
        })
        .expect("captured body is JSON");
    let hexes: Vec<&str> = if batch {
        doc.get("contracts")
            .and_then(Value::as_arr)
            .expect("contracts array")
            .iter()
            .map(|v| v.as_str().expect("hex string"))
            .collect()
    } else {
        vec![doc
            .get("bytecode")
            .and_then(Value::as_str)
            .expect("bytecode field")]
    };
    let codes: Vec<Bytecode> = t.span("evm.from_hex", root, || {
        hexes
            .iter()
            .map(|h| Bytecode::from_hex(h).expect("captured hex parses"))
            .collect()
    });
    let bytes = codes.iter().map(Bytecode::len).sum();
    let n = codes.len();
    let q = t.open("serve.queue", root);
    t.parent.store(q.unwrap_or(NO_PARENT), Ordering::SeqCst);
    let verdicts = queue.submit_many(codes).expect("queue accepts the replay");
    t.parent.store(NO_PARENT, Ordering::SeqCst);
    t.close(q);
    let body = t.span("serve.json.render", root, || reply_body(&verdicts, batch));
    let mut out = Vec::with_capacity(body.len() + 128);
    t.span("serve.http.write", root, || {
        write_response(&mut out, 200, "OK", &[], &body, false)
    })
    .expect("in-memory write");
    t.close(root);
    (n, bytes)
}

/// One serving pass: every captured request once, on a fresh queue.
struct ServePass {
    wall_ns: u64,
    spans: Vec<Span>,
    sizes: Vec<usize>,
    batches: u64,
    contracts: usize,
    code_bytes: usize,
    decodes: u64,
}

fn serve_pass(
    cascade: &Arc<CascadeDetector>,
    requests: &[Vec<u8>],
    batch: bool,
    traced: bool,
) -> ServePass {
    let tracer = Tracer::new(traced);
    let queue = MicroBatcher::start(
        TimedCascade {
            cascade: Arc::clone(cascade),
            tracer: Arc::clone(&tracer),
            sizes: Mutex::new(Vec::new()),
        },
        QueueConfig::from_env(),
    );
    let decodes = decode_count();
    let started = Instant::now();
    let (mut contracts, mut code_bytes) = (0, 0);
    for r in requests {
        let (n, b) = serve_one(&tracer, &queue, r, batch);
        contracts += n;
        code_bytes += b;
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let decodes = decode_count() - decodes;
    let batches = queue.stats().batches;
    let sizes = queue.scorer().sizes.lock().expect("sizes lock").clone();
    queue.shutdown();
    ServePass {
        wall_ns,
        spans: tracer.take(),
        sizes,
        batches,
        contracts,
        code_bytes,
        decodes,
    }
}

/// Summed self time of `name`, ns.
fn self_ns(by_name: &[(&'static str, u64)], name: &str) -> f64 {
    by_name
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, t)| *t as f64)
        .sum()
}

/// Layer self-time over wall time, leaving out the per-request root
/// spans (their self time is the glue between layer calls).
fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let layers: f64 = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name != "request")
        .map(|(_, t)| t as f64)
        .sum();
    layers / wall_ns as f64
}

/// The serving stages inside `CascadeDetector::score_batch`, timed on
/// the same batches outside the traced wall: screen encoding, screen
/// model, confirm encoding and confirm model, in ns, plus the contracts
/// screened and escalated.
struct StageSplit {
    parts: [f64; 4],
    screened: usize,
    escalated: usize,
}

fn stage_split(
    cascade: &CascadeDetector,
    encoders: &[FittedEncoders; 2],
    batches: &[Vec<Bytecode>],
) -> StageSplit {
    let (screen, confirm) = (cascade.screen(), cascade.confirm());
    let mut parts = [0.0f64; 4];
    let (mut screened, mut escalated) = (0, 0);
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    for codes in batches {
        let caches: Vec<DisasmCache> = parallel_map(codes, DisasmCache::build);
        let up: Vec<DisasmCache> = cascade
            .score_batch(&caches)
            .iter()
            .zip(&caches)
            .filter(|(v, _)| v.escalated)
            .map(|(_, c)| c.clone())
            .collect();
        let enc_s = timed(&mut || {
            std::hint::black_box(parallel_map(&caches, |c| {
                encoders[0].encode(c, screen.encoding())
            }));
        });
        let all_s = timed(&mut || {
            std::hint::black_box(screen.score_batch(&caches));
        });
        parts[0] += enc_s;
        parts[1] += (all_s - enc_s).max(0.0);
        if !up.is_empty() {
            let enc_c = timed(&mut || {
                std::hint::black_box(parallel_map(&up, |c| {
                    encoders[1].encode(c, confirm.encoding())
                }));
            });
            let all_c = timed(&mut || {
                std::hint::black_box(confirm.score_batch(&up));
            });
            parts[2] += enc_c;
            parts[3] += (all_c - enc_c).max(0.0);
        }
        screened += caches.len();
        escalated += up.len();
    }
    StageSplit {
        parts,
        screened,
        escalated,
    }
}

/// Decodes per contract on the path a replica's queue workers run:
/// `ModelSlot::score_many` → `CascadeDetector::score_many`, untraced, on
/// the same batches. Nothing else decodes while it runs.
fn program_decodes_per_contract(cascade: &Arc<CascadeDetector>, batches: &[Vec<Bytecode>]) -> f64 {
    let slot = ModelSlot::new(Arc::clone(cascade), 0);
    let before = decode_count();
    let contracts: usize = batches
        .iter()
        .map(|codes| slot.score_many(codes).len())
        .sum();
    (decode_count() - before) as f64 / contracts as f64
}

/// `TokensTruncate` → `tokens_truncate`.
fn encoding_id(e: Encoding) -> String {
    let mut out = String::new();
    for (i, ch) in format!("{e:?}").chars().enumerate() {
        if ch.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(ch.to_ascii_lowercase());
    }
    out
}

/// The fitted encoder tables of each cascade stage, read from the
/// published artifact's nested stage sections.
fn stage_encoders(artifact: &Path) -> Result<[FittedEncoders; 2], String> {
    let owned = OwnedArtifact::open(artifact).map_err(|e| e.to_string())?;
    let stage = |name: &str| -> Result<FittedEncoders, String> {
        let nested = ArtifactReader::from_bytes(owned.section(name).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        FittedEncoders::import_state(nested.section("encoders").map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())
    };
    Ok([stage("stage1")?, stage("stage2")?])
}

/// One adaptation pass: a drift episode's journal appended, tailed and
/// fed to a fresh ingest loop, with a span around every layer call.
fn adapt_pass(cycle: &[Sample], dir: &Path, traced: bool) -> Result<(u64, Vec<Span>), String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t = Tracer::new(traced);
    let config = ingest_config();
    let log = dir.join("scan.codelog");
    let started = Instant::now();
    let mut writer = CodeLogWriter::create(&log).map_err(|e| e.to_string())?;
    for s in cycle {
        t.span("evm.codelog.append", None, || {
            writer.append_labeled(&s.bytecode, s.label, s.month.0 as u16)
        })
        .map_err(|e| e.to_string())?;
    }
    t.span("evm.codelog.sync", None, || writer.sync())
        .map_err(|e| e.to_string())?;
    let mut tailer = CodeLogTailer::new(&log, TailConfig::default());
    let mut publisher =
        ArtifactPublisher::open(dir.join("published")).map_err(|e| e.to_string())?;
    let mut bootstrap: Vec<Sample> = Vec::new();
    let mut pipeline: Option<OnlinePipeline> = None;
    for _ in 0..cycle.len() {
        let event = t
            .span("evm.codelog.next_event", None, || tailer.next_event())
            .map_err(|e| e.to_string())?;
        let TailEvent::Record(entry) = event else {
            continue;
        };
        let meta = entry.meta.ok_or("unlabeled record in the journal")?;
        let sample = Sample {
            bytecode: entry.code,
            label: meta.label,
            month: Month(meta.month.min(Month::LAST.0 as u16) as u8),
        };
        match pipeline.as_mut() {
            None => {
                bootstrap.push(sample);
                let positives = bootstrap.iter().filter(|s| s.label == 1).count();
                if bootstrap.len() < config.bootstrap_min
                    || positives == 0
                    || positives == bootstrap.len()
                {
                    continue;
                }
                let baseline = t.span("ingest.bootstrap", None, || {
                    let ctx =
                        EvalContext::new(&Dataset::new(bootstrap.clone()), &config.ingest.profile);
                    Detector::train(&ctx, config.ingest.kind, config.ingest.seed)
                });
                t.span("artifact.publish", None, || {
                    publisher.publish(baseline.to_bytes())
                })
                .map_err(|e| e.to_string())?;
                pipeline = Some(OnlinePipeline::new(
                    Arc::new(baseline),
                    config.ingest.clone(),
                ));
            }
            Some(p) => {
                let s = t.open("ingest.observe", None);
                let event = p
                    .observe(sample, &mut publisher)
                    .map_err(|e| e.to_string())?;
                t.close(s);
                if event.is_some() {
                    t.rename(s, "ingest.retrain");
                }
            }
        }
    }
    Ok((started.elapsed().as_nanos() as u64, t.take()))
}

/// Median of `f` over `n` timed calls, in ms.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Publishes `bytes` as a new generation of `dir` and waits until the
/// replica reports it; the lag in ms.
fn watch_lag_ms(replica: &Replica, dir: &Path, bytes: &[u8]) -> Result<f64, String> {
    let mut publisher = ArtifactPublisher::open(dir).map_err(|e| e.to_string())?;
    let mut conn =
        Conn::connect(replica.addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    let published = publisher
        .publish(bytes.to_vec())
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    loop {
        let g = healthz(&mut conn)
            .map_err(|e| e.to_string())?
            .get("generation")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        if g >= published.generation {
            return Ok(t.elapsed().as_secs_f64() * 1e3);
        }
        if t.elapsed() > Duration::from_secs(10) {
            return Err("replica never picked up the new generation".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The served artifact of a workload's replica: its publish directory,
/// the file, and how to decode it.
struct Served {
    publish_dir: std::path::PathBuf,
    artifact: std::path::PathBuf,
    decode: fn(&OwnedArtifact),
}

fn decode_cascade(a: &OwnedArtifact) {
    std::hint::black_box(CascadeDetector::from_artifact(a).expect("cascade decodes"));
}

fn decode_detector(a: &OwnedArtifact) {
    std::hint::black_box(Detector::from_artifact(a).expect("detector decodes"));
}

/// Per-layer metric names, units, in report order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("serve.http.read_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.render_us", "us"),
    ("serve.queue.wait_us", "us"),
    ("serve.queue.batch_size_p50", "count"),
    ("serve.queue.batches", "count"),
    ("serve.swap.install_us", "us"),
    ("evm.from_hex_us_per_kb", "us/KB"),
    ("evm.decode_us_per_kb", "us/KB"),
    ("evm.decodes_per_contract", "count"),
    ("evm.codelog.append_us", "us"),
    ("evm.codelog.next_event_us", "us"),
    ("features.encode.histogram_us", "us"),
    ("features.encode.tokens_truncate_us", "us"),
    ("core.cascade.screen_us", "us"),
    ("core.cascade.confirm_us", "us"),
    ("core.cascade.escalation_ratio", "ratio"),
    ("artifact.open_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("artifact.publish_ms", "ms"),
    ("ingest.observe_us", "us"),
    ("ingest.retrain_ms", "ms"),
    ("ingest.watch_lag_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_us", "us"),
    ("gen.late_ms_p99", "ms"),
];

/// Share of the run spent replaying the serving path, then the
/// adaptation path; probes take the rest.
const SERVE_SHARE: f64 = 0.45;
const ADAPT_SHARE: f64 = 0.25;

/// Requests per serving pass of the single-contract workloads.
const SINGLES_PER_PASS: usize = 600;

/// Requests per serving pass of `chain_backfill` (four carry a large
/// contract, as in the end-to-end mix).
const BATCHES_PER_PASS: usize = 16;

/// Coverage the serving replay must reach on the serving workloads.
pub const MIN_COVERAGE: f64 = 0.90;

/// What a traced run found: the per-layer metrics in [`PER_LAYER`]
/// order, the checks it asserted, and findings to report.
pub struct Traced {
    /// `(name, value, unit)` per layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Asserted conditions and whether they held.
    pub checks: Vec<(String, bool)>,
    /// Report lines that are findings, not failures.
    pub findings: Vec<String>,
}

/// Runs the traced replay of `workload`.
///
/// # Errors
///
/// An unknown workload, or a failure preparing or probing the replica.
pub fn run(
    workload: &str,
    server_bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Traced, String> {
    let prep = serving::prepare(work)?;
    let confirm = encoding_id(prep.cascade.confirm().encoding());
    if confirm != "tokens_truncate" {
        return Err(format!(
            "the confirm stage encodes {confirm}, not tokens_truncate"
        ));
    }
    let cycle = journal_cycle();
    // Each request's contracts, the single-contract pool of the lateness
    // probe, and whether requests are batches.
    let (per_request, singles, batch): (Vec<Vec<Contract>>, Vec<Contract>, bool) = match workload {
        "wallet_screen" => {
            let inputs = screen_inputs(seed, seconds);
            let reqs = inputs.pick[..SINGLES_PER_PASS.min(inputs.pick.len())]
                .iter()
                .map(|&i| vec![inputs.pool[i].clone()])
                .collect();
            (reqs, inputs.pool, false)
        }
        "chain_backfill" => {
            let batches = load::batches(seed, serving::BACKFILL_BATCHES);
            let singles = batches
                .iter()
                .flatten()
                .filter(|c| c.code.len() < load::LARGE_BYTES.0)
                .cloned()
                .collect();
            (batches[..BATCHES_PER_PASS].to_vec(), singles, true)
        }
        "drift_adapt" => {
            let pool: Vec<Contract> = cycle
                .iter()
                .map(|s| Contract {
                    code: s.bytecode.clone(),
                    label: s.label,
                })
                .collect();
            let reqs = load::picks(seed, pool.len(), SINGLES_PER_PASS)
                .iter()
                .map(|&i| vec![pool[i].clone()])
                .collect();
            (reqs, pool, false)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let requests: Vec<Vec<u8>> = per_request
        .iter()
        .map(|contracts| match contracts.as_slice() {
            [one] if !batch => render("POST", "/predict", load::predict_body(&one.code).as_bytes()),
            _ => render(
                "POST",
                "/predict_batch",
                load::predict_batch_body(contracts).as_bytes(),
            ),
        })
        .collect();
    let served = if workload == "drift_adapt" {
        // The drift replica serves the ingest loop's baseline detector.
        let config = ingest_config();
        let boot: Vec<Sample> = cycle[..config.bootstrap_min].to_vec();
        let ctx = EvalContext::new(&Dataset::new(boot), &config.ingest.profile);
        let baseline = Detector::train(&ctx, config.ingest.kind, config.ingest.seed);
        let dir = work.join("adapt-published");
        let published = ArtifactPublisher::open(&dir)
            .and_then(|mut p| p.publish(baseline.to_bytes()))
            .map_err(|e| e.to_string())?;
        Served {
            publish_dir: dir,
            artifact: published.path,
            decode: decode_detector,
        }
    } else {
        Served {
            publish_dir: prep.publish_dir.clone(),
            artifact: prep.artifact.clone(),
            decode: decode_cascade,
        }
    };
    let started = Instant::now();

    // Serving replay: untraced and traced passes, alternating.
    let mut serve_traced: Vec<ServePass> = Vec::new();
    let mut overhead_us = Vec::new();
    while serve_traced.is_empty() || started.elapsed().as_secs_f64() < seconds * SERVE_SHARE {
        let plain = serve_pass(&prep.cascade, &requests, batch, false);
        let traced = serve_pass(&prep.cascade, &requests, batch, true);
        overhead_us
            .push((traced.wall_ns as f64 - plain.wall_ns as f64) / 1e3 / requests.len() as f64);
        serve_traced.push(traced);
    }
    // Adaptation replay.
    let mut adapt_traced: Vec<(u64, Vec<Span>)> = Vec::new();
    let adapt_until = seconds * (SERVE_SHARE + ADAPT_SHARE);
    let mut k = 0;
    while adapt_traced.is_empty() || started.elapsed().as_secs_f64() < adapt_until {
        let plain = adapt_pass(&cycle, &work.join(format!("adapt-{k}")), false)?;
        let traced = adapt_pass(&cycle, &work.join(format!("adapt-{k}-t")), true)?;
        if workload == "drift_adapt" {
            overhead_us.push((traced.0 as f64 - plain.0 as f64) / 1e3 / cycle.len() as f64);
        }
        adapt_traced.push(traced);
        k += 1;
    }

    // Stage split of the score span, outside the traced wall.
    let encoders = stage_encoders(&prep.artifact)?;
    let first = &serve_traced[0];
    let flat: Vec<Bytecode> = per_request
        .iter()
        .flatten()
        .map(|c| c.code.clone())
        .collect();
    let mut chunks = Vec::new();
    let mut at = 0;
    for &n in &first.sizes {
        chunks.push(flat[at..at + n].to_vec());
        at += n;
    }
    let split = stage_split(&prep.cascade, &encoders, &chunks);
    let split_total: f64 = split.parts.iter().sum();
    let program_decodes = program_decodes_per_contract(&prep.cascade, &chunks);

    // Per-pass serving figures; medians across passes.
    let mut per: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut push = |k: &'static str, v: f64| per.entry(k).or_default().push(v);
    for p in &serve_traced {
        let by = self_time_by_name(&p.spans);
        let reqs = requests.len() as f64;
        let kb = p.code_bytes as f64 / 1024.0;
        push(
            "serve.http.read_us",
            self_ns(&by, "serve.http.read") / 1e3 / reqs,
        );
        push(
            "serve.http.write_us",
            self_ns(&by, "serve.http.write") / 1e3 / reqs,
        );
        push(
            "serve.json.parse_us",
            self_ns(&by, "serve.json.parse") / 1e3 / reqs,
        );
        push(
            "serve.json.render_us",
            self_ns(&by, "serve.json.render") / 1e3 / reqs,
        );
        push(
            "serve.queue.wait_us",
            self_ns(&by, "serve.queue") / 1e3 / reqs,
        );
        push(
            "evm.from_hex_us_per_kb",
            self_ns(&by, "evm.from_hex") / 1e3 / kb,
        );
        push(
            "evm.decode_us_per_kb",
            self_ns(&by, "evm.decode") / 1e3 / kb,
        );
        let score = self_ns(&by, "core.cascade.score");
        let share = |i: usize| score * split.parts[i] / split_total / 1e3;
        let esc = split.escalated.max(1) as f64;
        push(
            "features.encode.histogram_us",
            share(0) / p.contracts as f64,
        );
        push("core.cascade.screen_us", share(1) / p.contracts as f64);
        push("features.encode.tokens_truncate_us", share(2) / esc);
        push("core.cascade.confirm_us", share(3) / esc);
        if workload != "drift_adapt" {
            push("trace.coverage", coverage(&p.spans, p.wall_ns));
        }
    }
    let mut publish_ms = Vec::new();
    for (wall, spans) in &adapt_traced {
        let by = self_time_by_name(spans);
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count().max(1) as f64;
        push(
            "evm.codelog.append_us",
            (self_ns(&by, "evm.codelog.append") + self_ns(&by, "evm.codelog.sync"))
                / 1e3
                / count("evm.codelog.append"),
        );
        push(
            "evm.codelog.next_event_us",
            self_ns(&by, "evm.codelog.next_event") / 1e3 / count("evm.codelog.next_event"),
        );
        push(
            "ingest.observe_us",
            self_ns(&by, "ingest.observe") / 1e3 / count("ingest.observe"),
        );
        let publish = self_ns(&by, "artifact.publish") / 1e6 / count("artifact.publish");
        publish_ms.push(publish);
        if spans.iter().any(|s| s.name == "ingest.retrain") {
            push(
                "ingest.retrain_ms",
                (self_ns(&by, "ingest.retrain") / 1e6 / count("ingest.retrain") - publish).max(0.0),
            );
        }
        if workload == "drift_adapt" {
            push("trace.coverage", coverage(spans, *wall));
        }
    }

    // Probes against the artifact and a live replica.
    let artifact_bytes = std::fs::read(&served.artifact).map_err(|e| e.to_string())?;
    let open_ms = median_ms(9, || {
        std::hint::black_box(OwnedArtifact::open(&served.artifact).expect("artifact opens"));
    });
    let owned = OwnedArtifact::open(&served.artifact).map_err(|e| e.to_string())?;
    let decode_ms = median_ms(9, || (served.decode)(&owned));
    let scratch = work.join("publish-probe");
    let mut probe_publisher = ArtifactPublisher::open(&scratch).map_err(|e| e.to_string())?;
    publish_ms.push(median_ms(9, || {
        probe_publisher
            .publish(artifact_bytes.clone())
            .expect("probe publish");
    }));
    let slot = ModelSlot::new(Arc::clone(&prep.cascade), 0);
    const INSTALLS: u64 = 20_000;
    let t = Instant::now();
    for g in 1..=INSTALLS {
        slot.install(Arc::clone(&prep.cascade), g);
    }
    let install_us = t.elapsed().as_secs_f64() * 1e6 / INSTALLS as f64;

    let replica =
        Replica::spawn(server_bin, &served.publish_dir).map_err(|e| format!("replica: {e}"))?;
    let info = SetupInfo::read(
        &replica,
        &[SetupSample {
            cpu_s: replica.setup_cpu_s,
            wall_s: replica.setup.as_secs_f64(),
        }],
    )?;
    let lags: Vec<f64> = (0..5)
        .map(|_| watch_lag_ms(&replica, &served.publish_dir, &artifact_bytes))
        .collect::<Result<_, _>>()?;
    let single_requests: Vec<Vec<u8>> = singles
        .iter()
        .map(|c| render("POST", "/predict", load::predict_body(&c.code).as_bytes()))
        .collect();
    let arrivals = load::poisson_arrivals(seed ^ 0x1A7E, SCREEN_RATE, 1.5);
    let pick = load::picks(seed ^ 0x1A7E, single_requests.len(), arrivals.len());
    let late = open_loop(
        replica.addr,
        serving::load_conns(),
        &arrivals,
        &pick,
        &single_requests,
        None,
    )
    .0;
    replica.stop();
    let late_ms: Vec<f64> = late.iter().map(|e| e.late_s * 1e3).collect();

    let med = |k: &str| per.get(k).map_or(f64::NAN, |v| median(v));
    let sizes: Vec<f64> = first.sizes.iter().map(|&s| s as f64).collect();
    let values: Vec<f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "serve.queue.batch_size_p50" => percentile(&sizes, 50.0),
            "serve.queue.batches" => first.batches as f64,
            "serve.swap.install_us" => install_us,
            "evm.decodes_per_contract" => program_decodes,
            "core.cascade.escalation_ratio" => split.escalated as f64 / split.screened as f64,
            "artifact.open_ms" => open_ms,
            "artifact.decode_ms" => decode_ms,
            "artifact.publish_ms" => median(&publish_ms),
            "ingest.watch_lag_ms" => median(&lags),
            "trace.overhead_us" => median(&overhead_us),
            "gen.late_ms_p99" => percentile(&late_ms, 99.0),
            other => med(other),
        })
        .collect();
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let value = |n: &str| metrics.iter().find(|m| m.0 == n).map_or(f64::NAN, |m| m.1);
    let replay_decodes = first.decodes as f64 / first.contracts as f64;
    let cov = value("trace.coverage");
    let mut findings = vec![
        format!(
            "replica: model={} max_batch={} workers={}",
            info.model, info.max_batch, info.workers
        ),
        format!(
            "unexplained remainder: {:.1}% of the primary replay's wall time lies outside every layer span",
            (1.0 - cov) * 100.0
        ),
    ];
    if workload != "drift_adapt" && cov < MIN_COVERAGE {
        findings.push(format!(
            "coverage {cov:.3} is below the {MIN_COVERAGE} target"
        ));
    }
    let json_share = value("serve.json.parse_us")
        / (value("serve.json.parse_us")
            + value("serve.queue.wait_us")
            + value("serve.http.read_us"));
    findings.push(format!(
        "serve.json.parse is {:.1}% of parse + read + queue time per request",
        json_share * 100.0
    ));
    Ok(Traced {
        metrics,
        checks: vec![
            (
                format!("evm.decodes_per_contract == 1.0 on the replica's scoring path (got {program_decodes})"),
                program_decodes == 1.0,
            ),
            (
                format!("one decode per contract in the traced replay (got {replay_decodes})"),
                replay_decodes == 1.0,
            ),
        ],
        findings,
    })
}
