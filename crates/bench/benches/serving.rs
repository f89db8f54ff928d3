//! Bench: the serving path in-process, direct and through the dynamic
//! micro-batching queue. One training context backs every part.
//!
//! * **forest** — a `RandomForest` detector scoring *fresh bytecodes* one
//!   at a time (the interactive wallet-guard shape) vs. in one batched
//!   call (the screening-queue shape). The model is cheap, so this variant
//!   guards the decode/encode fusion of `score_codes`.
//! * **escort** — a deep (ESCORT) detector scoring *pre-decoded* contracts
//!   via `score_cache` per contract vs. one `score_batch` call. With the
//!   decode cost out of the way, the delta is the batched NN inference
//!   path (`predict_proba`'s `(B, d)` GEMM + arena-reused tape), so
//!   this variant carries a raised bar.
//! * **queue** — a fleet of K synthetic clients submits the fresh
//!   contracts one at a time through an in-process [`MicroBatcher`] over
//!   the ESCORT detector, sweeping the coalescing ceiling over {1, 8, 32,
//!   max}. Coalesced serving must beat the serial loop — the same queue
//!   pinned to `max_batch = 1` — by ≥1.3× (≥1.2× smoke). Both sides pay
//!   the identical per-request queue tax, so the delta is what
//!   micro-batching recovers: the batched ESCORT forward, not the
//!   per-contract decode. Every reply is asserted bit-identical to the
//!   direct call.
//! * **cascade** — the two-stage `CascadeDetector` (calibrated forest
//!   screen → uncertainty-band escalation → GPT-2 confirmer) vs. its
//!   confirmer alone, both directly and behind the queue. The cascade
//!   must hold ≥3× the deep-only throughput (≥1.5× smoke) on both paths,
//!   and its held-out AUC must stay within 0.01 of the deep model's.
//! * **memo** — the server's per-generation verdict memo on a stream of
//!   distinct contracts, where it can only cost: keying, lookup, dedupe
//!   and filing around the cascade's `score_codes`, in the server's
//!   batches. Its time as a share of `score_codes` on the same
//!   stream must stay ≤2% on a full run; every run asserts that the memo
//!   path hands back exactly the verdicts `score_codes` gave.
//!
//! Every fleet is timed from a barrier that releases its already-spawned
//! clients, and reports the median of [`FLEET_SAMPLES`] interleaved runs.
//! The cascade is trained only after the queue sweep, so the allocator
//! and cache pressure of its two extra models stays out of the queue
//! timings. Full runs write `BENCH_serve.json` (the direct variants and
//! the memo row) and `BENCH_latency.json` (the queue tiers and the
//! cascade fleet).

use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook_bench::harness::{best_of, obj, pick, smoke, write_baseline};
use phishinghook_evm::{Bytecode, CacheBatch, DisasmCache};
use phishinghook_serve::queue::DEFAULT_MAX_BATCH;
use phishinghook_serve::{MicroBatcher, QueueConfig, VerdictMemo};
use phishinghook_synth::{generate_contract, Difficulty, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Warmup iterations per path before any timed sample: enough to fault in
/// code paths, fill allocator arenas, and settle frequency scaling, so
/// the best-of-N that follows measures steady state rather than first-run
/// noise. One iteration was not enough — the forest variant's speedup sat
/// within noise of its floor.
const WARMUP_ITERS: usize = 3;

/// Timed runs per fleet; each fleet reports its median-throughput run.
const FLEET_SAMPLES: usize = 5;

/// Coalescing ceilings swept behind the queue.
const TIERS: [usize; 4] = [1, 8, 32, DEFAULT_MAX_BATCH];

/// How far below the deep model's held-out AUC the cascade may sit.
const CASCADE_AUC_SLACK: f64 = 0.01;

/// Most the memo may add to scoring a stream with no repeats, as a share
/// of `score_codes` (full runs only).
const MEMO_OVERHEAD_CEILING: f64 = 0.02;

/// Throughput floor (batched/single) for the forest variant. The batched
/// call's structural win is the worker pool: with one worker the fused
/// decode+encode only amortizes per-call overhead against small
/// batch-assembly costs, and repeated runs land anywhere in a ±10% band
/// around parity — a floor of exactly 1.0 there asserts timing noise, not
/// the serving path. So single-worker hosts get a parity band, smoke runs
/// on real pools a 3% noise band, and full pooled runs the strict outright
/// win. A real serving regression — an extra decode or encode pass —
/// costs tens of percent and trips the guard on every host shape.
fn forest_floor(n: usize) -> f64 {
    if phishinghook::par::pool_size(n) == 1 {
        1.0 / 1.15
    } else {
        pick(1.0, 1.0 / 1.03)
    }
}

/// Contracts the detectors have never seen, synthesized directly.
fn fresh_contracts(n: usize) -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(0x5EE7);
    (0..n)
        .map(|i| {
            generate_contract(
                Family::ALL[i % Family::ALL.len()],
                Month(5),
                &Difficulty::default(),
                &mut rng,
            )
        })
        .collect()
}

/// `n` pairwise-distinct fresh contracts: a stream on which the verdict
/// memo never hits.
fn distinct_contracts(n: usize) -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(0x3E30);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let family = Family::ALL[out.len() % Family::ALL.len()];
        let code = generate_contract(family, Month(5), &Difficulty::default(), &mut rng);
        if seen.insert(code.clone()) {
            out.push(code);
        }
    }
    out
}

fn dataset(seed: u64) -> Dataset {
    let corpus = generate_corpus(&CorpusConfig::small(seed));
    extract_dataset(&SimulatedChain::from_corpus(&corpus), &BemConfig::default()).0
}

/// Times one flat variant's per-contract and batched paths, asserting
/// their score parity and the throughput floor.
fn variant_record(
    detector: &Detector,
    n: usize,
    floor: f64,
    single: &mut dyn FnMut() -> f32,
    batched: &mut dyn FnMut() -> f32,
) -> Value {
    let [(single_s, single_sum), (batched_s, batched_sum)] =
        best_of(WARMUP_ITERS, pick(15, 9), [single, batched]);
    let id = detector.kind().id();
    assert_eq!(
        single_sum, batched_sum,
        "{id}: batched scores must be identical to per-contract scores"
    );
    let single_cps = n as f64 / single_s;
    let batched_cps = n as f64 / batched_s;
    let speedup = single_s / batched_s;
    println!(
        "  {id}: single {single_cps:.0} contracts/s vs batched {batched_cps:.0} \
         contracts/s ({speedup:.2}x)"
    );
    assert!(
        speedup >= floor,
        "{id} serving regression: batched {batched_cps:.0} contracts/s vs \
         single {single_cps:.0} contracts/s ({speedup:.2}x, floor {floor:.2}x)"
    );
    obj(vec![
        ("model", Value::Str(id.into())),
        ("contracts", Value::Num(n as f64)),
        ("trained_on", Value::Num(detector.trained_on() as f64)),
        ("single_ms", Value::Num(single_s * 1e3)),
        ("batched_ms", Value::Num(batched_s * 1e3)),
        ("single_contracts_per_sec", Value::Num(single_cps)),
        ("batched_contracts_per_sec", Value::Num(batched_cps)),
        ("speedup", Value::Num(speedup)),
        ("asserted_floor", Value::Num(floor)),
    ])
}

/// The cascade against its confirmer alone on the same fresh contracts,
/// plus the held-out AUC gate. The two paths do *not* produce identical
/// scores — most contracts never reach the deep model — so the quality
/// contract is AUC parity on labeled data neither stage trained on.
fn cascade_record(cascade: &CascadeDetector, codes: &[Bytecode]) -> Value {
    let floor = pick(3.0, 1.5);
    let [(deep_s, _), (cascade_s, _)] = best_of(
        WARMUP_ITERS,
        pick(15, 9),
        [
            &mut || cascade.confirm().score_codes(codes).iter().sum::<f32>(),
            &mut || {
                cascade
                    .score_codes(codes)
                    .iter()
                    .map(|v| v.probability)
                    .sum()
            },
        ],
    );
    let n = codes.len();
    let deep_cps = n as f64 / deep_s;
    let cascade_cps = n as f64 / cascade_s;
    let speedup = deep_s / cascade_s;
    let escalated = cascade
        .score_codes(codes)
        .iter()
        .filter(|v| v.escalated)
        .count();
    let escalation_rate = escalated as f64 / n as f64;

    let holdout = dataset(99);
    let labels = holdout.labels();
    let caches = CacheBatch::from_caches(holdout.disasm_batch());
    let deep_auc = auc(&cascade.confirm().score_batch(caches.as_slice()), &labels);
    let cascade_scores: Vec<f32> = cascade
        .score_batch(caches.as_slice())
        .iter()
        .map(|v| v.probability)
        .collect();
    let cascade_auc = auc(&cascade_scores, &labels);
    let (screen, confirm) = (cascade.screen().kind().id(), cascade.confirm().kind().id());
    println!(
        "  cascade {screen}→{confirm}: deep-only {deep_cps:.0} contracts/s vs cascade \
         {cascade_cps:.0} contracts/s ({speedup:.2}x, {escalated}/{n} escalated, \
         AUC {cascade_auc:.4} vs deep {deep_auc:.4})"
    );
    assert!(
        cascade_auc >= deep_auc - CASCADE_AUC_SLACK,
        "cascade quality regression: held-out AUC {cascade_auc:.4} vs deep \
         {deep_auc:.4} (slack {CASCADE_AUC_SLACK})"
    );
    assert!(
        speedup >= floor,
        "cascade serving regression: {cascade_cps:.0} contracts/s vs deep-only \
         {deep_cps:.0} contracts/s ({speedup:.2}x, floor {floor:.2}x, \
         escalation rate {escalation_rate:.2})"
    );
    obj(vec![
        ("model", Value::Str("cascade".into())),
        ("screen", Value::Str(screen.into())),
        ("confirm", Value::Str(confirm.into())),
        ("contracts", Value::Num(n as f64)),
        ("deep_only_ms", Value::Num(deep_s * 1e3)),
        ("cascade_ms", Value::Num(cascade_s * 1e3)),
        ("deep_only_contracts_per_sec", Value::Num(deep_cps)),
        ("cascade_contracts_per_sec", Value::Num(cascade_cps)),
        ("speedup", Value::Num(speedup)),
        ("asserted_floor", Value::Num(floor)),
        (
            "escalate_budget",
            Value::Num(cascade.escalate_budget() as f64),
        ),
        ("escalation_rate", Value::Num(escalation_rate)),
        ("band_lo", Value::Num(cascade.band().0 as f64)),
        ("band_hi", Value::Num(cascade.band().1 as f64)),
        ("holdout_auc_deep", Value::Num(deep_auc)),
        ("holdout_auc_cascade", Value::Num(cascade_auc)),
        ("auc_slack", Value::Num(CASCADE_AUC_SLACK)),
    ])
}

/// The memo row: what the server's ingress adds around scoring when no
/// contract repeats. Each pass walks the stream in the queue's default
/// batches in the route's order, from an empty memo: decode the batch's
/// hex (untimed, as the request parser does), plan (timed), score the
/// misses with `score_codes` (timed apart), file (timed), then assemble
/// the reply in input order (untimed: a server without the memo collects
/// its replies too). Each side keeps its fastest pass.
fn memo_record(cascade: &CascadeDetector, stream: &[Bytecode]) -> Value {
    let hexes: Vec<Vec<String>> = stream
        .chunks(DEFAULT_MAX_BATCH)
        .map(|batch| batch.iter().map(Bytecode::to_hex).collect())
        .collect();
    let direct: Vec<CascadeVerdict> = stream
        .chunks(DEFAULT_MAX_BATCH)
        .flat_map(|batch| cascade.score_codes(batch))
        .collect();
    let (mut memo_s, mut score_s) = (f64::INFINITY, f64::INFINITY);
    let mut served = Vec::with_capacity(stream.len());
    for pass in 0..WARMUP_ITERS + pick(15, 9) {
        let memo = VerdictMemo::default();
        let (mut memo_pass, mut score_pass) = (Duration::ZERO, Duration::ZERO);
        served.clear();
        for hex in &hexes {
            let codes: Vec<Bytecode> = hex.iter().map(|h| Bytecode::from_hex(h).unwrap()).collect();
            let n = codes.len();
            let t0 = Instant::now();
            let mut plan = memo.plan(codes);
            let misses = plan.take_misses();
            let t1 = Instant::now();
            let verdicts = cascade.score_codes(&misses);
            let t2 = Instant::now();
            memo.file(plan.miss_keys(), &verdicts);
            let t3 = Instant::now();
            served.extend(plan.finish(&verdicts));
            assert_eq!(misses.len(), n, "the stream repeats a contract");
            memo_pass += (t1 - t0) + (t3 - t2);
            score_pass += t2 - t1;
        }
        if pass >= WARMUP_ITERS {
            memo_s = memo_s.min(memo_pass.as_secs_f64());
            score_s = score_s.min(score_pass.as_secs_f64());
        }
    }
    assert_eq!(
        served, direct,
        "the memo path must hand back exactly the verdicts score_codes gave"
    );
    let n = stream.len();
    let share = memo_s / score_s;
    println!(
        "  memo on {n} distinct contracts: {:.0} ns/contract vs score_codes {:.0} ns/contract \
         ({:.2}% overhead, ceiling {:.0}%)",
        memo_s / n as f64 * 1e9,
        score_s / n as f64 * 1e9,
        share * 100.0,
        MEMO_OVERHEAD_CEILING * 100.0,
    );
    assert!(
        smoke() || share <= MEMO_OVERHEAD_CEILING,
        "memo overhead regression: {:.2}% of score_codes on a stream with no repeats \
         (ceiling {:.0}%)",
        share * 100.0,
        MEMO_OVERHEAD_CEILING * 100.0,
    );
    obj(vec![
        ("contracts", Value::Num(n as f64)),
        ("batch", Value::Num(DEFAULT_MAX_BATCH as f64)),
        ("score_codes_ms", Value::Num(score_s * 1e3)),
        ("memo_ms", Value::Num(memo_s * 1e3)),
        ("overhead_share", Value::Num(share)),
        ("asserted_ceiling", Value::Num(MEMO_OVERHEAD_CEILING)),
    ])
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

struct FleetRun {
    latencies_us: Vec<f64>,
    contracts_per_sec: f64,
    batches: u64,
    max_batch_seen: usize,
}

impl FleetRun {
    fn p50(&self) -> f64 {
        percentile(&self.latencies_us, 0.50)
    }

    fn p99(&self) -> f64 {
        percentile(&self.latencies_us, 0.99)
    }
}

/// K clients, each submitting its own slice of `contracts` sequentially
/// through one queue capped at `max_batch`; every client asserts its
/// scores against the precomputed direct scores. Generic over the scorer
/// so the same fleet drives a flat detector (`Output = f32`) and the
/// two-stage cascade (`Output = CascadeVerdict`).
fn run_fleet<S>(
    scorer: &Arc<S>,
    contracts: &[Bytecode],
    expected: &[S::Output],
    k: usize,
    max_batch: usize,
) -> FleetRun
where
    S: CodeScorer + 'static,
    S::Output: PartialEq + std::fmt::Debug + Sync,
{
    // A short coalescing window: when `max_batch` exceeds what K blocked
    // clients can ever queue at once, the worker's wait for batch-mates
    // times out every cycle, so the window is pure overhead for the
    // deeper tiers.
    let queue = MicroBatcher::start(
        Arc::clone(scorer),
        QueueConfig {
            max_batch,
            batch_wait: Duration::from_micros(50),
            capacity: 1024,
            workers: 1,
        },
    );
    let per = contracts.len() / k;
    // The clients are spawned before the clock starts and released
    // together, so the timed window holds serving, not thread start-up.
    let start = Barrier::new(k + 1);
    let mut t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let (queue, start) = (&queue, &start);
        let handles: Vec<_> = (0..k)
            .map(|client| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(per);
                    start.wait();
                    for i in client * per..(client + 1) * per {
                        let t = Instant::now();
                        let p = queue.submit(contracts[i].clone()).expect("queue accepts");
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(
                            p, expected[i],
                            "queue-coalesced score must be bit-identical to the direct call"
                        );
                    }
                    lat
                })
            })
            .collect();
        start.wait();
        t0 = Instant::now();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let contracts_per_sec = contracts.len() as f64 / t0.elapsed().as_secs_f64();
    let stats = queue.stats();
    queue.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    FleetRun {
        latencies_us: latencies,
        contracts_per_sec,
        batches: stats.batches,
        max_batch_seen: stats.max_batch_seen,
    }
}

/// Runs fleet `0..fleets` (via `run`) `samples` times each, round-robin
/// so drift hits every fleet alike, and keeps each fleet's
/// median-throughput run: one stalled or lucky run cannot decide a floor.
fn median_runs(
    samples: usize,
    fleets: usize,
    mut run: impl FnMut(usize) -> FleetRun,
) -> Vec<FleetRun> {
    let mut runs: Vec<Vec<FleetRun>> = (0..fleets).map(|_| Vec::with_capacity(samples)).collect();
    for _ in 0..samples {
        for (f, fleet_runs) in runs.iter_mut().enumerate() {
            fleet_runs.push(run(f));
        }
    }
    runs.into_iter()
        .map(|mut r| {
            r.sort_by(|a, b| a.contracts_per_sec.total_cmp(&b.contracts_per_sec));
            r.swap_remove(r.len() / 2)
        })
        .collect()
}

/// The ESCORT fleet across [`TIERS`]: tier 1 is the serial serving loop,
/// and the best coalescing tier must beat it by the micro-batching floor.
fn queue_sweep(
    escort: &Arc<Detector>,
    contracts: &[Bytecode],
    k: usize,
) -> Vec<(&'static str, Value)> {
    let n = contracts.len();
    let floor = pick(1.3, 1.2);
    // Ground truth (and warmup for the model's caches/arenas).
    let expected = escort.score_codes(contracts);
    // Warm the fleet machinery itself (threads, channels, first-touch
    // pages) so tier timings compare batching, not startup order.
    run_fleet(escort, contracts, &expected, k, 1);

    let mut tier_records = Vec::new();
    let mut serial_cps = 0.0f64;
    let mut best = (0usize, 0.0f64); // best micro-batched (tier, cps)
    let runs = median_runs(FLEET_SAMPLES, TIERS.len(), |t| {
        run_fleet(escort, contracts, &expected, k, TIERS[t])
    });
    for (tier, run) in TIERS.into_iter().zip(runs) {
        let cps = run.contracts_per_sec;
        println!(
            "  max_batch={tier}: {cps:.0} contracts/s, p50 {:.0}us p99 {:.0}us \
             ({} batches, deepest {})",
            run.p50(),
            run.p99(),
            run.batches,
            run.max_batch_seen,
        );
        if tier == 1 {
            serial_cps = cps;
            assert_eq!(run.max_batch_seen, 1, "tier 1 must not coalesce");
        } else {
            assert!(
                run.max_batch_seen > 1,
                "tier {tier} must actually coalesce (deepest batch was 1)"
            );
            if cps > best.1 {
                best = (tier, cps);
            }
        }
        tier_records.push(obj(vec![
            ("max_batch", Value::Num(tier as f64)),
            ("contracts", Value::Num(n as f64)),
            ("contracts_per_sec", Value::Num(cps)),
            ("p50_us", Value::Num(run.p50())),
            ("p99_us", Value::Num(run.p99())),
            ("batches", Value::Num(run.batches as f64)),
            ("max_batch_seen", Value::Num(run.max_batch_seen as f64)),
        ]));
    }

    let (best_tier, best_cps) = best;
    let speedup = best_cps / serial_cps;
    println!(
        "  serial (batch=1) {serial_cps:.0} contracts/s -> micro-batched {best_cps:.0} \
         contracts/s at max_batch={best_tier} ({speedup:.2}x, floor {floor:.2}x)"
    );
    assert!(
        speedup >= floor,
        "micro-batching regression: best tier (max_batch={best_tier}) {best_cps:.0} \
         contracts/s vs the serial batch=1 loop {serial_cps:.0} contracts/s \
         ({speedup:.2}x, floor {floor:.2}x)"
    );
    vec![
        ("model", Value::Str(escort.kind().id().into())),
        ("clients", Value::Num(k as f64)),
        ("contracts", Value::Num(n as f64)),
        ("serial_contracts_per_sec", Value::Num(serial_cps)),
        ("best_tier", Value::Num(best_tier as f64)),
        ("micro_batched_contracts_per_sec", Value::Num(best_cps)),
        ("micro_batched_speedup", Value::Num(speedup)),
        ("asserted_floor", Value::Num(floor)),
        ("tiers", Value::Arr(tier_records)),
    ]
}

/// The cascade through the queue against the deep-only server shape: the
/// same K-client fleet at the same coalescing tier, the only difference
/// being that the cascade's screen keeps most of the traffic away from
/// the deep model. Every cascade reply is still asserted bit-identical to
/// the direct `score_codes` verdicts.
fn cascade_fleet(cascade: &Arc<CascadeDetector>, contracts: &[Bytecode], k: usize) -> Value {
    let n = contracts.len();
    let floor = pick(3.0, 1.5);
    // One fixed coalescing tier for both fleets.
    let tier = 8;
    // The cascade's own confirmer, reloaded as a standalone detector: its
    // scores are bit-identical to `cascade.confirm()`.
    let deep = Arc::new(
        Detector::from_bytes(&cascade.confirm().to_bytes()).expect("confirmer round-trips"),
    );
    let deep_expected = deep.score_codes(contracts);
    let cascade_expected = cascade.score_codes(contracts);
    // Warm both fleets, then time.
    run_fleet(&deep, contracts, &deep_expected, k, tier);
    run_fleet(cascade, contracts, &cascade_expected, k, tier);
    let mut runs = median_runs(FLEET_SAMPLES, 2, |f| {
        if f == 0 {
            run_fleet(&deep, contracts, &deep_expected, k, tier)
        } else {
            run_fleet(cascade, contracts, &cascade_expected, k, tier)
        }
    });
    let (cascade_run, deep_run) = (runs.pop().unwrap(), runs.pop().unwrap());
    let (deep_cps, cascade_cps) = (deep_run.contracts_per_sec, cascade_run.contracts_per_sec);
    let speedup = cascade_cps / deep_cps;
    let escalated = cascade_expected.iter().filter(|v| v.escalated).count();
    let (screen, confirm) = (cascade.screen().kind().id(), cascade.confirm().kind().id());
    println!(
        "  cascade {screen}→{confirm} via queue: deep-only {deep_cps:.0} contracts/s -> \
         cascade {cascade_cps:.0} contracts/s ({speedup:.2}x, floor {floor:.2}x, \
         {escalated}/{n} escalated, p50 {:.0}us p99 {:.0}us)",
        cascade_run.p50(),
        cascade_run.p99(),
    );
    assert!(
        speedup >= floor,
        "cascade queue regression: {cascade_cps:.0} contracts/s vs deep-only \
         {deep_cps:.0} contracts/s ({speedup:.2}x, floor {floor:.2}x)"
    );
    obj(vec![
        ("screen", Value::Str(screen.into())),
        ("confirm", Value::Str(confirm.into())),
        ("max_batch", Value::Num(tier as f64)),
        ("contracts", Value::Num(n as f64)),
        ("deep_only_contracts_per_sec", Value::Num(deep_cps)),
        ("cascade_contracts_per_sec", Value::Num(cascade_cps)),
        ("speedup", Value::Num(speedup)),
        ("asserted_floor", Value::Num(floor)),
        ("escalation_rate", Value::Num(escalated as f64 / n as f64)),
        ("p50_us", Value::Num(cascade_run.p50())),
        ("p99_us", Value::Num(cascade_run.p99())),
    ])
}

fn main() {
    let ctx = EvalContext::new(&dataset(42), &EvalProfile::quick());
    let forest = Detector::train(&ctx, ModelKind::RandomForest, 7);
    let escort = Arc::new(Detector::train(&ctx, ModelKind::Escort, 7));
    let codes = fresh_contracts(pick(256, 64));
    let clients = pick(32, 16);
    let n = codes.len();

    println!("serving: direct");
    let forest_rec = variant_record(
        &forest,
        n,
        forest_floor(n),
        &mut || codes.iter().map(|c| forest.score_code(c)).sum(),
        &mut || forest.score_codes(&codes).iter().sum(),
    );
    let caches: Vec<DisasmCache> = codes.iter().map(DisasmCache::build).collect();
    let escort_rec = variant_record(
        &escort,
        n,
        pick(1.5, 1.3),
        &mut || caches.iter().map(|c| escort.score_cache(c)).sum(),
        &mut || escort.score_batch(&caches).iter().sum(),
    );
    drop(caches);

    println!("serving: through the queue, {clients} clients");
    let mut latency = queue_sweep(&escort, &codes, clients);

    let cascade = Arc::new(CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::Gpt2Alpha,
        &CascadeConfig::default(),
        7,
    ));
    drop(ctx);
    println!("serving: cascade");
    let cascade_rec = cascade_record(&cascade, &codes);
    latency.push(("cascade", cascade_fleet(&cascade, &codes, clients)));

    println!("serving: verdict memo");
    let memo_rec = memo_record(&cascade, &distinct_contracts(pick(4096, 1024)));

    write_baseline(
        "BENCH_serve.json",
        "serving",
        vec![
            (
                "variants",
                Value::Arr(vec![forest_rec, escort_rec, cascade_rec]),
            ),
            ("memo", memo_rec),
        ],
    );
    write_baseline("BENCH_latency.json", "serving", latency);
}
