//! `drift_adapt`: writes beside reads. The benchmark appends a drifted
//! deployment journal at a fixed rate; the ingest loop
//! ([`run_tail_pipeline`]) tails it, retrains on drift and publishes each
//! generation; a watching replica hot-swaps every generation while one
//! connection reads from it on an open-loop schedule.

use crate::client;
use crate::client::{healthz, Conn};
use crate::drive::{open_loop, REQUEST_TIMEOUT};
use crate::load;
use crate::replica::{self, Replica, SetupProbe};
use crate::report::{Outcome, SetupInfo};
use crate::serving::{LATENCY_WINDOWS, LATE_LIMIT_MS, OPEN_LOOP_TAIL, SETUP_SPAWNS};
use crate::stats::{median, percentile, verdict_auc, windowed, Summary};
use phishinghook::drift::DriftConfig;
use phishinghook::json::Value;
use phishinghook::retry::Clock;
use phishinghook::{Detector, ExtractionStream, Sample};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_evm::{CodeLogTailer, CodeLogWriter, TailConfig};
use phishinghook_ingest::{
    run_tail_pipeline, DriftScenario, TailIngestConfig, TailNote, TailReport,
};
use phishinghook_synth::Month;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Journal records appended per second during the timed phase.
pub const JOURNAL_RATE: f64 = 2000.0;

/// Open-loop `/predict` reads per second against the replica.
pub const READ_RATE: f64 = 200.0;

/// Records appended before timing starts, enough for the ingest loop's
/// bootstrap train (96 labeled records of both classes).
const BOOT_RECORDS: usize = 160;

/// How often the writer appends (and syncs) the records that fell due.
const APPEND_TICK: Duration = Duration::from_millis(2);

/// `/healthz` poll period while no generation is pending, and while one
/// is (published but not yet reported live). A generation is pending
/// most of the run, so the pending period sets how many probes the
/// replica answers besides the reads: at 5 ms about as many as reads,
/// each far cheaper than a scored read, and they count in the replica's
/// CPU.
const IDLE_POLL: Duration = Duration::from_millis(20);
const PENDING_POLL: Duration = Duration::from_millis(5);

/// The ingest loop's configuration: the `ingestd tail` daemon's.
pub fn ingest_config() -> TailIngestConfig {
    let mut config = TailIngestConfig::default();
    config.ingest.drift = DriftConfig {
        window: 64,
        brier_margin: 0.15,
    };
    config.ingest.seed = 42;
    config
}

/// Seed of the drift scenario every episode replays: the one the
/// `ingest_throughput` bench and the `ingestd` demo use. A scenario's
/// seed decides how many drift trips an episode holds (one for this one,
/// two for some others), which would swing the adaptation figures from
/// seed to seed; `--seed` varies the reads instead.
pub const SCENARIO_SEED: u64 = 42;

/// One episode's journal: the drift scenario's deployments in chain
/// order, calm months first, then the injected shift (benign-shaped code
/// flagged as phishing) that trips the drift watch.
pub fn journal_cycle() -> Vec<Sample> {
    let chain = DriftScenario::small(SCENARIO_SEED).build();
    ExtractionStream::new(&chain, Month::FIRST, Month::LAST).collect()
}

/// A tail clock that records how long the ingest loop slept waiting for
/// the writer, and stops sleeping once the run is over so the tail's idle
/// deadline passes at once.
#[derive(Clone)]
pub struct MeteredClock {
    slept_ns: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl MeteredClock {
    /// A clock with nothing slept yet.
    pub fn new() -> Self {
        MeteredClock {
            slept_ns: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Total real time slept.
    pub fn slept(&self) -> Duration {
        Duration::from_nanos(self.slept_ns.load(Ordering::SeqCst))
    }

    /// Ends all further sleeping.
    pub fn finish(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Default for MeteredClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MeteredClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, duration: Duration) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        let t = Instant::now();
        std::thread::sleep(duration);
        self.slept_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
    }
}

/// A generation the ingest loop published.
#[derive(Debug, Clone, Copy)]
struct Published {
    generation: u64,
    /// Journal index of the record that tripped the drift signal (`None`
    /// for the bootstrap baseline).
    trip: Option<usize>,
    at: Instant,
}

/// Keeps one `/healthz` connection and the highest generation seen live.
struct Poller {
    addr: SocketAddr,
    conn: Option<Conn>,
    live: Arc<AtomicU64>,
    seen: Vec<(u64, Instant)>,
}

impl Poller {
    fn poll(&mut self) {
        if self.conn.is_none() {
            self.conn = Conn::connect(self.addr, REQUEST_TIMEOUT).ok();
        }
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        match healthz(conn) {
            Ok(h) => {
                let g = h.get("generation").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                if g > self.live.load(Ordering::SeqCst) {
                    self.live.store(g, Ordering::SeqCst);
                    self.seen.push((g, Instant::now()));
                }
            }
            Err(_) => self.conn = None,
        }
    }

    /// When the replica first reported generation `g` or later.
    fn live_at(&self, g: u64) -> Option<Instant> {
        self.seen.iter().find(|(s, _)| *s >= g).map(|(_, t)| *t)
    }
}

/// One journal replayed into a fresh ingest loop: a drift episode. Each
/// episode bootstraps a baseline (one generation) and retrains once when
/// its journal reaches the scenario's shift (another generation), so
/// back-to-back episodes keep the replica swapping for the whole run.
struct Episode {
    writer: CodeLogWriter,
    clock: MeteredClock,
    thread: std::thread::JoinHandle<Result<(TailReport, Duration), String>>,
    /// Records appended to this episode's journal.
    written: usize,
}

/// What the finished episodes consumed, and how long their loops were
/// busy (wall time minus time spent waiting for the writer).
#[derive(Default)]
struct Consumed {
    records: usize,
    busy: Duration,
    generations: Vec<u64>,
}

/// Starts episode `k`: a fresh journal under `work` and an ingest loop
/// tailing it into `publish_dir`. `base` is the global index of the
/// episode's first record, so trip positions map onto append times.
fn start_episode(
    k: usize,
    base: usize,
    work: &Path,
    publish_dir: &Path,
    notes: &Arc<Mutex<Vec<Published>>>,
    published_gen: &Arc<AtomicU64>,
) -> Result<Episode, String> {
    let log = work.join(format!("scan-{k}.codelog"));
    let writer = CodeLogWriter::create(&log).map_err(|e| e.to_string())?;
    let clock = MeteredClock::new();
    let (dir, thread_clock) = (publish_dir.to_path_buf(), clock.clone());
    let (notes, published_gen) = (Arc::clone(notes), Arc::clone(published_gen));
    let thread = std::thread::spawn(move || -> Result<(TailReport, Duration), String> {
        let started = Instant::now();
        let mut tailer = CodeLogTailer::with_clock(
            &log,
            TailConfig {
                idle_timeout: Some(Duration::from_secs(10)),
                ..TailConfig::default()
            },
            thread_clock,
        );
        let mut publisher = ArtifactPublisher::open(&dir).map_err(|e| e.to_string())?;
        let mut bootstrap = 0usize;
        let report = run_tail_pipeline(&mut tailer, &mut publisher, &ingest_config(), |note| {
            let (generation, trip) = match note {
                TailNote::Bootstrapped { published, samples } => {
                    bootstrap = *samples;
                    (published.generation, None)
                }
                TailNote::Retrained(event) => (
                    event.published.generation,
                    Some(base + bootstrap + event.signal.position - 1),
                ),
                TailNote::Rotated { .. } => return,
            };
            notes.lock().expect("notes lock").push(Published {
                generation,
                trip,
                at: Instant::now(),
            });
            published_gen.store(generation, Ordering::SeqCst);
        })
        .map_err(|e| e.to_string())?;
        Ok((report, started.elapsed()))
    });
    Ok(Episode {
        writer,
        clock,
        thread,
        written: 0,
    })
}

impl Episode {
    /// Ends the episode: lets its loop drain the journal, stop at the
    /// idle deadline, and adds what it consumed to `total`.
    fn finish(self, total: &mut Consumed) -> Result<(), String> {
        self.clock.finish();
        let (report, wall) = self.thread.join().expect("ingest thread")?;
        total.records += report.bootstrapped + report.unlabeled + report.pipeline.streamed;
        total.busy += wall.saturating_sub(self.clock.slept());
        total.generations.extend(report.generations);
        Ok(())
    }
}

/// The journal writer: appends the cycle episode after episode at the
/// records that fall due, syncing after each append so the tail sees them,
/// and stamping each record's append time.
struct Journal<'a> {
    cycle: &'a [Sample],
    work: &'a Path,
    publish_dir: &'a Path,
    notes: &'a Arc<Mutex<Vec<Published>>>,
    published_gen: &'a Arc<AtomicU64>,
    episode: Option<Episode>,
    episodes: usize,
    appended: Vec<Instant>,
    consumed: Consumed,
}

impl Journal<'_> {
    /// Appends every record up to global index `upto`.
    fn append_until(&mut self, upto: usize) -> Result<(), String> {
        while self.appended.len() < upto {
            if self
                .episode
                .as_ref()
                .is_none_or(|e| e.written == self.cycle.len())
            {
                if let Some(done) = self.episode.take() {
                    done.finish(&mut self.consumed)?;
                }
                self.episode = Some(start_episode(
                    self.episodes,
                    self.appended.len(),
                    self.work,
                    self.publish_dir,
                    self.notes,
                    self.published_gen,
                )?);
                self.episodes += 1;
            }
            let episode = self.episode.as_mut().expect("episode started above");
            let take = (upto - self.appended.len()).min(self.cycle.len() - episode.written);
            for s in &self.cycle[episode.written..episode.written + take] {
                episode
                    .writer
                    .append_labeled(&s.bytecode, s.label, s.month.0 as u16)
                    .map_err(|e| e.to_string())?;
            }
            episode.writer.sync().map_err(|e| e.to_string())?;
            episode.written += take;
            let now = Instant::now();
            self.appended.extend(std::iter::repeat_n(now, take));
        }
        Ok(())
    }

    /// Ends the current episode.
    fn close(mut self) -> Result<(Vec<Instant>, Consumed, usize), String> {
        if let Some(done) = self.episode.take() {
            done.finish(&mut self.consumed)?;
        }
        Ok((self.appended, self.consumed, self.episodes))
    }
}

/// Runs the drift workload.
pub fn drift_adapt(
    server_bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let pass = journal_cycle();
    let publish_dir = work.join("published");
    let published_gen = Arc::new(AtomicU64::new(0));
    let notes: Arc<Mutex<Vec<Published>>> = Arc::new(Mutex::new(Vec::new()));
    let mut journal = Journal {
        cycle: &pass,
        work,
        publish_dir: &publish_dir,
        notes: &notes,
        published_gen: &published_gen,
        episode: None,
        episodes: 0,
        appended: Vec::new(),
        consumed: Consumed::default(),
    };

    journal.append_until(BOOT_RECORDS)?;
    let boot_deadline = Instant::now() + Duration::from_secs(60);
    while published_gen.load(Ordering::SeqCst) == 0 {
        if Instant::now() > boot_deadline {
            journal.close()?;
            return Err("the ingest loop never published its baseline".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let server = Replica::spawn(server_bin, &publish_dir).map_err(|e| format!("replica: {e}"))?;
    // Set-up is sampled on a fixed copy of the baseline generation: the
    // live directory gains and prunes generations during the run.
    let probe_dir = work.join("setup-probe");
    let baseline = publish_dir.join(format!("gen-{}.phk", published_gen.load(Ordering::SeqCst)));
    let bytes = std::fs::read(&baseline).map_err(|e| format!("{}: {e}", baseline.display()))?;
    ArtifactPublisher::open(&probe_dir)
        .and_then(|mut p| p.publish(bytes))
        .map_err(|e| format!("set-up probe artifact: {e}"))?;

    // Reads draw from the journal's own contracts.
    let requests: Vec<Vec<u8>> = pass
        .iter()
        .map(|s| {
            client::render(
                "POST",
                "/predict",
                load::predict_body(&s.bytecode).as_bytes(),
            )
        })
        .collect();
    let arrivals = load::poisson_arrivals(seed, READ_RATE, seconds);
    let pick = load::picks(seed, pass.len(), arrivals.len());
    let live = Arc::new(AtomicU64::new(0));
    let mut poller = Poller {
        addr: server.addr,
        conn: None,
        live: Arc::clone(&live),
        seen: Vec::new(),
    };
    poller.poll();

    // The metered interval: CPU of this process (the ingest loops, their
    // workers and the journal writer) minus the reader's, the poller's
    // and the set-up probe's own threads, plus the replica's (reads,
    // watch, decode and swap).
    let steal = replica::StealMeter::start();
    let (cpu0, replica_cpu0) = (
        replica::proc_cpu_seconds("/proc/self/stat"),
        server.cpu_seconds(),
    );
    let probe = SetupProbe::start(
        server_bin,
        &probe_dir,
        SETUP_SPAWNS,
        Duration::from_secs_f64(seconds),
    );
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let lo = || live.load(Ordering::SeqCst);
    let hi = || published_gen.load(Ordering::SeqCst);
    let (reads, load_cpu, mut poller) = std::thread::scope(|s| -> Result<_, String> {
        let reader = s.spawn(|| {
            let cpu0 = replica::thread_cpu_seconds();
            let (reads, conns_cpu) = open_loop(
                server.addr,
                1,
                &arrivals,
                &pick,
                &requests,
                Some((&lo, &hi)),
            );
            (reads, conns_cpu + replica::thread_cpu_seconds() - cpu0)
        });
        let polling = s.spawn(|| {
            let cpu0 = replica::thread_cpu_seconds();
            while Instant::now() < end {
                let pending = published_gen.load(Ordering::SeqCst) > live.load(Ordering::SeqCst);
                poller.poll();
                std::thread::sleep(if pending { PENDING_POLL } else { IDLE_POLL });
            }
            let cpu = replica::thread_cpu_seconds() - cpu0;
            (poller, cpu)
        });
        while Instant::now() < end {
            let due = BOOT_RECORDS + (t0.elapsed().as_secs_f64() * JOURNAL_RATE) as usize;
            journal.append_until(due)?;
            std::thread::sleep(APPEND_TICK);
        }
        let (reads, reader_cpu) = reader.join().expect("reader thread");
        let (poller, poller_cpu) = polling.join().expect("poller thread");
        Ok((reads, reader_cpu + poller_cpu, poller))
    })?;
    let (appended, consumed, episodes) = journal.close()?;
    let (setups, probe_cpu) = probe.finish()?;
    let load_cpu = load_cpu + probe_cpu;
    let ingest_cpu = replica::proc_cpu_seconds("/proc/self/stat") - cpu0 - load_cpu;
    let replica_cpu = server.cpu_seconds() - replica_cpu0;
    let steal = steal.share();
    // Let the last published generation go live before stopping.
    let settle = Instant::now() + Duration::from_secs(3);
    while published_gen.load(Ordering::SeqCst) > live.load(Ordering::SeqCst)
        && Instant::now() < settle
    {
        poller.poll();
        std::thread::sleep(PENDING_POLL);
    }
    let rss = server.peak_rss_mb();
    let setup = SetupInfo::read(&server, &setups)?;
    server.stop();

    // Adaptation latency: trip record appended → generation live.
    let notes = notes.lock().expect("notes lock").clone();
    let mut live_ms = Vec::new();
    let mut lag_ms = Vec::new();
    for n in &notes {
        let Some(trip) = n.trip else { continue };
        if trip < BOOT_RECORDS || trip >= appended.len() {
            continue;
        }
        if let Some(t) = poller.live_at(n.generation) {
            live_ms.push(t.saturating_duration_since(appended[trip]).as_secs_f64() * 1e3);
            lag_ms.push(t.saturating_duration_since(n.at).as_secs_f64() * 1e3);
        }
    }

    // Reads: each must match in-process scoring on a generation between
    // the one live before it was sent and the newest published after.
    let mut detectors: HashMap<u64, Detector> = HashMap::new();
    let (mut attempted, mut failed, mut mismatched) = (0usize, 0usize, 0usize);
    let (mut probs, mut labels) = (Vec::new(), Vec::new());
    for e in &reads {
        attempted += 1;
        if !e.ok() {
            failed += 1;
            continue;
        }
        let served = std::str::from_utf8(&e.body)
            .ok()
            .and_then(phishinghook::json::parse)
            .and_then(|v| v.get("probability").and_then(Value::as_f64))
            .map(|p| p as f32);
        let sample = &pass[pick[e.seq]];
        let matched = served.is_some_and(|p| {
            (e.tags.0.max(1)..=e.tags.1).any(|g| {
                let det = detectors
                    .entry(g)
                    .or_insert_with(|| load_generation(&publish_dir, g));
                det.score_code(&sample.bytecode).to_bits() == p.to_bits()
            })
        });
        if matched {
            probs.push(served.unwrap_or_default());
            labels.push(sample.label);
        } else {
            failed += 1;
            mismatched += 1;
        }
    }

    let lat: Vec<f64> = reads
        .iter()
        .map(|e| {
            if e.ok() {
                e.latency_s * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let whole = Summary::of(&lat).ok_or("too few reads")?;
    let (read_p50, read_tail) =
        windowed(&lat, LATENCY_WINDOWS, OPEN_LOOP_TAIL).ok_or("too few reads")?;
    let late: Vec<f64> = reads.iter().map(|e| e.late_s * 1e3).collect();
    let late_p99 = percentile(&late, 99.0);
    let busy = consumed.busy.as_secs_f64();
    let rate = consumed.records as f64 / busy;
    let live_p50 = if live_ms.is_empty() {
        f64::NAN
    } else {
        median(&live_ms)
    };
    let auc = verdict_auc(&probs, &labels);

    let mut out = Outcome::new("drift_adapt", setup, attempted, failed, mismatched);
    out.valid = late_p99 <= LATE_LIMIT_MS;
    out.metric("adapt_live_p50_ms", live_p50, "ms");
    out.metric("adapt_contracts_per_s", rate, "1/s");
    out.metric(
        &format!("adapt_predict_p{}_ms", whole.tail_p),
        whole.tail,
        "ms",
    );
    out.metric("adapt_predict_p50_ms", whole.p50, "ms");
    out.metric("adapt_predict_sliced_p50_ms", read_p50, "ms");
    out.metric(
        &format!("adapt_predict_sliced_p{OPEN_LOOP_TAIL}_ms"),
        read_tail,
        "ms",
    );
    out.metric("verdict_auc", auc, "auc");
    out.metric("server_peak_rss_mb", rss, "MB");
    // Records the timed interval consumed: the boot records were
    // consumed, and their baseline trained, before it began.
    let per_record =
        |cpu: f64| cpu * 1e6 / consumed.records.saturating_sub(BOOT_RECORDS).max(1) as f64;
    let cpu_us = per_record(ingest_cpu + replica_cpu);
    out.metric("adapt_cpu_us_per_record", cpu_us, "us");
    out.metric(
        "adapt_ingest_cpu_us_per_record",
        per_record(ingest_cpu),
        "us",
    );
    out.metric(
        "adapt_replica_cpu_us_per_record",
        per_record(replica_cpu),
        "us",
    );
    out.metric("host_steal_share", steal, "ratio");
    out.metric(
        "ingest.watch_lag_ms_p50",
        if lag_ms.is_empty() {
            f64::NAN
        } else {
            median(&lag_ms)
        },
        "ms",
    );
    out.metric("gen.late_ms_p99", late_p99, "ms");
    out.check(
        format!("{} drift retrains went live during the run", live_ms.len()),
        live_ms.len() >= 3,
    );
    out.note(format!(
        "journal: {} records appended in {episodes} episodes of {}, {} consumed in {busy:.3} busy s; {} generations published",
        appended.len(),
        pass.len(),
        consumed.records,
        consumed.generations.len()
    ));
    out.note(format!(
        "reads: {} at {READ_RATE}/s on one connection; sliced figures are medians over {LATENCY_WINDOWS} consecutive slices",
        reads.len()
    ));
    out.note(format!(
        "cpu: ingest side {ingest_cpu:.3} s, replica {replica_cpu:.3} s; reader, poller and set-up probe threads ({load_cpu:.3} s) left out"
    ));
    out.headline(cpu_us, auc, rss);
    Ok(out)
}

/// Decodes generation `g` of a publish directory.
fn load_generation(dir: &Path, g: u64) -> Detector {
    let path: PathBuf = dir.join(format!("gen-{g}.phk"));
    Detector::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
