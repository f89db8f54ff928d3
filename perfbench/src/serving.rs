//! The two cascade-serving workloads, `wallet_screen` and
//! `chain_backfill`, plus what they share: the trained artifact, its
//! publish directory and the bit-parity check of every wire verdict.

use crate::client;
use crate::drive::{closed_loop, open_loop, Exchange};
use crate::load::{self, Contract};
use crate::replica::{self, Replica, SetupProbe};
use crate::report::{Outcome, SetupInfo};
use crate::stats::{median, percentile, verdict_auc, windowed, Summary};
use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook::{CascadeVerdict, EvalProfile};
use phishinghook_artifact::publish::ArtifactPublisher;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Corpus seed of the served cascade: the seed `BENCH_serve.json` and
/// `BENCH_latency.json` were measured with, so those histories and this
/// benchmark serve the same model. The load, not the model, follows
/// `--seed`.
pub const TRAIN_SEED: u64 = 42;

/// Replica spawns per run, spread over the timed phase by a
/// [`SetupProbe`]; `setup_s` is their median.
pub const SETUP_SPAWNS: usize = 61;

/// Consecutive slices the open-loop latency figures are summarised over
/// (see [`crate::stats::windowed`]).
pub const LATENCY_WINDOWS: usize = 4;

/// The tail percentile of the open-loop workloads' `latency_tail_ms`,
/// taken per slice. The 99th of a whole phase is reported beside it, but
/// on a shared 2-core host it swings with neighbours' load far more than
/// the 95th does.
pub const OPEN_LOOP_TAIL: f64 = 95.0;

/// Connections (and load threads) per workload: never more than the
/// host's cores, and at most two.
pub fn load_conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// The served model: random-forest screen, GPT-2α confirmer, default
/// cascade configuration, trained on the small corpus with the quick
/// profile.
pub fn train_cascade() -> CascadeDetector {
    let corpus = generate_corpus(&CorpusConfig::small(TRAIN_SEED));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::Gpt2Alpha,
        &CascadeConfig::default(),
        TRAIN_SEED,
    )
}

/// The prepared cascade: trained, published as generation 1 of
/// `publish_dir`, and reloaded from that file so the in-process reference
/// scores exactly what the replica loads.
pub struct Prepared {
    /// The reference cascade, decoded from the published file.
    pub cascade: Arc<CascadeDetector>,
    /// The publish directory replicas watch.
    pub publish_dir: PathBuf,
    /// The published artifact file.
    pub artifact: PathBuf,
}

/// Trains and publishes the cascade under `work`.
///
/// # Errors
///
/// Publish or reload failures.
pub fn prepare(work: &Path) -> Result<Prepared, String> {
    let publish_dir = work.join("published");
    let mut publisher = ArtifactPublisher::open(&publish_dir).map_err(|e| e.to_string())?;
    let published = publisher
        .publish(train_cascade().to_bytes())
        .map_err(|e| e.to_string())?;
    let cascade = CascadeDetector::load(&published.path).map_err(|e| e.to_string())?;
    Ok(Prepared {
        cascade: Arc::new(cascade),
        publish_dir,
        artifact: published.path,
    })
}

fn parse(body: &[u8]) -> Option<Value> {
    phishinghook::json::parse(std::str::from_utf8(body).ok()?)
}

/// Whether a wire verdict is bit-identical to the reference verdict.
fn same_verdict(probability: &Value, escalated: &Value, expected: &CascadeVerdict) -> bool {
    let (Some(p), Value::Bool(up)) = (probability.as_f64(), escalated) else {
        return false;
    };
    (p as f32).to_bits() == expected.probability.to_bits() && *up == expected.escalated
}

/// Checks a `/predict` reply against the reference verdict.
fn check_single(body: &[u8], expected: &CascadeVerdict) -> bool {
    parse(body).is_some_and(|v| match (v.get("probability"), v.get("escalated")) {
        (Some(p), Some(up)) => same_verdict(p, up, expected),
        _ => false,
    })
}

/// Checks a `/predict_batch` reply against the reference verdicts, and
/// returns the served probabilities when every one matches.
fn check_batch(body: &[u8], expected: &[CascadeVerdict]) -> Option<Vec<f32>> {
    let v = parse(body)?;
    let probs = v.get("probabilities")?.as_arr()?;
    let ups = v.get("escalated")?.as_arr()?;
    if probs.len() != expected.len() || ups.len() != expected.len() {
        return None;
    }
    probs
        .iter()
        .zip(ups)
        .zip(expected)
        .map(|((p, up), e)| same_verdict(p, up, e).then_some(e.probability))
        .collect()
}

/// Offered rate of the headline phase of `wallet_screen`, requests/s.
pub const SCREEN_RATE: f64 = 400.0;

/// The rate ladder `screen_max_rps` is read from, requests/s.
pub const SCREEN_LADDER: [f64; 4] = [400.0, 800.0, 1600.0, 3200.0];

/// The latency limit on the tail percentile of a ladder rung, ms.
pub const SCREEN_SLO_MS: f64 = 10.0;

/// Generator lateness (p99) past which a run is invalid, ms: far above
/// the sub-millisecond oversleep of a healthy generator, so only a
/// generator that cannot keep its schedule trips it.
pub const LATE_LIMIT_MS: f64 = 10.0;

/// Single contracts in the pool the screening workload draws from.
const SCREEN_POOL: usize = 2048;

/// Share of the run spent in the headline phase, each ladder rung above
/// the headline rate, and the closed-loop saturation phase.
const HEADLINE_SHARE: f64 = 0.55;
const RUNG_SHARE: f64 = 0.1;
const SATURATION_SHARE: f64 = 0.15;

/// The screening workload's inputs for `seed`.
pub struct ScreenInputs {
    /// Distinct contracts the requests draw from.
    pub pool: Vec<Contract>,
    /// Headline-phase arrival offsets, seconds.
    pub arrivals: Vec<f64>,
    /// Pool index of each headline request.
    pub pick: Vec<usize>,
}

/// Generates the screening inputs for a run of `seconds`.
pub fn screen_inputs(seed: u64, seconds: f64) -> ScreenInputs {
    let pool = load::pool(seed, SCREEN_POOL);
    let arrivals = load::poisson_arrivals(seed, SCREEN_RATE, seconds * HEADLINE_SHARE);
    let pick = load::picks(seed, pool.len(), arrivals.len());
    ScreenInputs {
        pool,
        arrivals,
        pick,
    }
}

/// Tallies one phase: attempts, failures, parity mismatches.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: usize,
    failed: usize,
    mismatched: usize,
}

fn tally_singles(
    ex: &[Exchange],
    pick_of: impl Fn(&Exchange) -> usize,
    expected: &[CascadeVerdict],
) -> Tally {
    let mut t = Tally::default();
    for e in ex {
        t.attempted += 1;
        if !e.ok() {
            t.failed += 1;
        } else if !check_single(&e.body, &expected[pick_of(e)]) {
            t.mismatched += 1;
            t.failed += 1;
        }
    }
    t
}

/// Latency of every exchange in ms, failures counted as missing any limit.
fn latencies_ms(ex: &[Exchange]) -> Vec<f64> {
    ex.iter()
        .map(|e| {
            if e.ok() {
                e.latency_s * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// `wallet_screen`: single-contract `/predict` on an open-loop Poisson
/// schedule, a rate ladder, and a closed-loop saturation phase.
pub fn wallet_screen(
    server_bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let prep = prepare(work)?;
    let inputs = screen_inputs(seed, seconds);
    let codes: Vec<Bytecode> = inputs.pool.iter().map(|c| c.code.clone()).collect();
    let expected = prep.cascade.score_codes(&codes);
    let requests: Vec<Vec<u8>> = codes
        .iter()
        .map(|c| client::render("POST", "/predict", load::predict_body(c).as_bytes()))
        .collect();
    let server =
        Replica::spawn(server_bin, &prep.publish_dir).map_err(|e| format!("replica: {e}"))?;
    let probe = SetupProbe::start(
        server_bin,
        &prep.publish_dir,
        SETUP_SPAWNS,
        Duration::from_secs_f64(seconds),
    );
    let conns = load_conns();
    let (cpu0, steal) = (server.cpu_seconds(), replica::StealMeter::start());

    // Headline: the fixed offered rate. Its CPU cost is the end-to-end
    // figure; the ladder's and saturation's mix depends on where the
    // ladder stops.
    let headline = open_loop(
        server.addr,
        conns,
        &inputs.arrivals,
        &inputs.pick,
        &requests,
        None,
    )
    .0;
    let cpu_us = (server.cpu_seconds() - cpu0) * 1e6 / headline.len().max(1) as f64;
    let head_tally = tally_singles(&headline, |e| inputs.pick[e.seq], &expected);
    let mut total = head_tally;
    let head_lat = latencies_ms(&headline);
    let late: Vec<f64> = headline.iter().map(|e| e.late_s * 1e3).collect();

    // Ladder: the headline rung plus higher rates, each a short run.
    let mut max_rps = 0.0;
    let mut rungs = Vec::new();
    for (r, &rate) in SCREEN_LADDER.iter().enumerate() {
        let (lat, ok_backlog, t) = if r == 0 {
            (head_lat.clone(), backlog_ok(&headline), head_tally)
        } else {
            let rung_seed = seed ^ ((r as u64) << 32);
            let arrivals = load::poisson_arrivals(rung_seed, rate, seconds * RUNG_SHARE);
            let pick = load::picks(rung_seed, codes.len(), arrivals.len());
            let ex = open_loop(server.addr, conns, &arrivals, &pick, &requests, None).0;
            let t = tally_singles(&ex, |e| pick[e.seq], &expected);
            total.attempted += t.attempted;
            total.failed += t.failed;
            total.mismatched += t.mismatched;
            (latencies_ms(&ex), backlog_ok(&ex), t)
        };
        let summary = Summary::of(&lat);
        let tail = summary.map_or(f64::INFINITY, |s| s.tail);
        let passed = tail <= SCREEN_SLO_MS && ok_backlog && t.failed == 0;
        rungs.push(format!(
            "{{\"rate\":{rate},\"requests\":{},\"tail_p\":{},\"tail_ms\":{},\"backlog_ok\":{ok_backlog},\"passed\":{passed}}}",
            lat.len(),
            summary.map_or(0.0, |s| s.tail_p),
            if tail.is_finite() { tail } else { -1.0 },
        ));
        if passed {
            max_rps = rate;
        } else {
            break;
        }
    }

    // Saturation: every connection sends back to back.
    let order = load::picks(seed ^ 0x5A7, codes.len(), codes.len());
    let (sat, sat_wall) = closed_loop(
        server.addr,
        conns,
        &order,
        &requests,
        seconds * SATURATION_SHARE,
    );
    let t = tally_singles(&sat, |e| order[e.seq % order.len()], &expected);
    total.attempted += t.attempted;
    total.failed += t.failed;
    total.mismatched += t.mismatched;
    let sat_rps = sat.iter().filter(|e| e.ok()).count() as f64 / sat_wall;

    let rss = server.peak_rss_mb();
    let steal = steal.share();
    let setup = SetupInfo::read(&server, &probe.finish()?.0)?;
    server.stop();

    let summary = Summary::of(&head_lat).ok_or("too few headline requests")?;
    let (p50, tail) =
        windowed(&head_lat, LATENCY_WINDOWS, OPEN_LOOP_TAIL).ok_or("too few headline requests")?;
    let late_p99 = percentile(&late, 99.0);
    let labels: Vec<u8> = inputs.pool.iter().map(|c| c.label).collect();
    let probs: Vec<f32> = expected.iter().map(|v| v.probability).collect();
    let auc = verdict_auc(&probs, &labels);
    let mut out = Outcome::new(
        "wallet_screen",
        setup,
        total.attempted,
        total.failed,
        total.mismatched,
    );
    out.valid = late_p99 <= LATE_LIMIT_MS;
    out.metric("screen_p50_ms", summary.p50, "ms");
    out.metric(
        &format!("screen_p{}_ms", summary.tail_p),
        summary.tail,
        "ms",
    );
    out.metric("screen_sliced_p50_ms", p50, "ms");
    out.metric(&format!("screen_sliced_p{OPEN_LOOP_TAIL}_ms"), tail, "ms");
    out.metric("screen_max_rps", max_rps, "1/s");
    out.metric("screen_saturation_rps", sat_rps, "1/s");
    out.metric("verdict_auc", auc, "auc");
    out.metric("server_peak_rss_mb", rss, "MB");
    out.metric("server_cpu_us_per_request", cpu_us, "us");
    out.metric("host_steal_share", steal, "ratio");
    out.metric("gen.late_ms_p99", late_p99, "ms");
    out.note(format!(
        "headline: {} requests at {SCREEN_RATE}/s, latency from due time; sliced figures are medians over {LATENCY_WINDOWS} consecutive slices",
        summary.count
    ));
    out.note(format!(
        "ladder (limit {SCREEN_SLO_MS} ms on the tail): [{}]",
        rungs.join(",")
    ));
    out.headline(cpu_us, auc, rss);
    Ok(out)
}

/// Whether the open loop kept up: the requests of the last fifth of the
/// phase waited for a connection no longer, at the median, than a tenth
/// of the latency limit.
fn backlog_ok(ex: &[Exchange]) -> bool {
    let tail = &ex[ex.len() - ex.len() / 5..];
    let queued: Vec<f64> = tail.iter().map(|e| e.queued_s * 1e3).collect();
    queued.is_empty() || median(&queued) <= SCREEN_SLO_MS / 10.0
}

/// Distinct backfill batches per run (4096 contracts, 16 of them large),
/// each served once per round in seeded order.
pub const BACKFILL_BATCHES: usize = 64;

/// Backfill callers. One: the JSON parse that dominates a batch is
/// single-threaded, and two callers parsing at once on a 2-core host
/// contend with each other and with the replica's own threads.
pub const BACKFILL_CONNS: usize = 1;

/// `chain_backfill`: closed-loop `/predict_batch` of [`load::BATCH`]
/// corpus-mix contracts per request.
pub fn chain_backfill(
    server_bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let prep = prepare(work)?;
    let batches = load::batches(seed, BACKFILL_BATCHES);
    let expected: Vec<Vec<CascadeVerdict>> = batches
        .iter()
        .map(|b| {
            let codes: Vec<Bytecode> = b.iter().map(|c| c.code.clone()).collect();
            prep.cascade.score_codes(&codes)
        })
        .collect();
    let requests: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| {
            let body = load::predict_batch_body(b);
            assert!(
                body.len() <= load::MAX_BODY,
                "batch body over the server cap"
            );
            client::render("POST", "/predict_batch", body.as_bytes())
        })
        .collect();
    let server =
        Replica::spawn(server_bin, &prep.publish_dir).map_err(|e| format!("replica: {e}"))?;
    let probe = SetupProbe::start(
        server_bin,
        &prep.publish_dir,
        SETUP_SPAWNS,
        Duration::from_secs_f64(seconds),
    );

    let order = load::rounds(seed, batches.len(), 64);
    let (cpu0, steal) = (server.cpu_seconds(), replica::StealMeter::start());
    let (ex, wall) = closed_loop(server.addr, BACKFILL_CONNS, &order, &requests, seconds);
    let rss = server.peak_rss_mb();
    let cpu = server.cpu_seconds() - cpu0;
    let steal = steal.share();
    let setup = SetupInfo::read(&server, &probe.finish()?.0)?;
    server.stop();

    let mut tally = Tally::default();
    let mut contracts = 0usize;
    let mut served: Vec<Option<Vec<f32>>> = vec![None; batches.len()];
    for e in &ex {
        let b = order[e.seq % order.len()];
        tally.attempted += 1;
        if !e.ok() {
            tally.failed += 1;
            continue;
        }
        match check_batch(&e.body, &expected[b]) {
            Some(probs) => {
                contracts += probs.len();
                served[b].get_or_insert(probs);
            }
            None => {
                tally.failed += 1;
                tally.mismatched += 1;
            }
        }
    }
    let lat = latencies_ms(&ex);
    let summary = Summary::of(&lat).ok_or("too few backfill batches")?;
    let (mut probs, mut labels) = (Vec::new(), Vec::new());
    for (b, p) in served.iter().enumerate() {
        if let Some(p) = p {
            probs.extend_from_slice(p);
            labels.extend(batches[b].iter().map(|c| c.label));
        }
    }
    let auc = verdict_auc(&probs, &labels);
    let rate = contracts as f64 / wall;
    let mut out = Outcome::new(
        "chain_backfill",
        setup,
        tally.attempted,
        tally.failed,
        tally.mismatched,
    );
    out.metric("backfill_contracts_per_s", rate, "1/s");
    out.metric("backfill_batch_p50_ms", summary.p50, "ms");
    out.metric(
        &format!("backfill_batch_p{}_ms", summary.tail_p),
        summary.tail,
        "ms",
    );
    out.metric("verdict_auc", auc, "auc");
    out.metric("server_peak_rss_mb", rss, "MB");
    let cpu_us = cpu * 1e6 / contracts.max(1) as f64;
    out.metric("server_cpu_us_per_contract", cpu_us, "us");
    out.metric("host_steal_share", steal, "ratio");
    out.note(format!(
        "{} batches of {} contracts on {BACKFILL_CONNS} connection in {wall:.2} s",
        summary.count,
        load::BATCH
    ));
    out.headline(cpu_us, auc, rss);
    Ok(out)
}
