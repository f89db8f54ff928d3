//! The dynamic micro-batching queue: the piece that turns concurrent
//! single-contract requests into the batched scoring calls PR 5/6 made
//! fast.
//!
//! Producers (HTTP connection handlers, bench clients) push
//! `(bytecode, reply-slot)` jobs into one bounded queue; a small pool of
//! warm workers — each holding a clone of one shared
//! [`Arc`]`<`[`CodeScorer`]`>` — drains up to
//! [`QueueConfig::max_batch`] jobs per wake and scores them in **one**
//! `score_many` call (`Detector::score_codes` /
//! `CascadeDetector::score_codes` → `Model::predict_proba` underneath). Scores
//! are delivered back through each job's private reply slot, in input
//! order within the batch.
//!
//! Three timing/pressure rules shape the hot path:
//!
//! * **A lone request is never stalled**: a worker that wakes with fewer
//!   than `max_batch` jobs waits at most [`QueueConfig::batch_wait`]
//!   (default [`DEFAULT_BATCH_WAIT_US`]) for batch-mates
//!   before scoring what it has.
//! * **Backpressure is explicit**: a push that would exceed
//!   [`QueueConfig::capacity`] fails *immediately* with
//!   [`SubmitError::QueueFull`] — the HTTP layer turns that into a 429
//!   with a `Retry-After` hint instead of letting latency collapse.
//! * **Shutdown drains**: [`MicroBatcher::shutdown`] stops new
//!   submissions, then workers keep scoring until the queue is empty, so
//!   every accepted request gets its score.
//!
//! Because the scorer's batched path is bit-identical to its solo path
//! (the [`CodeScorer`] contract), coalescing is invisible to callers:
//! whatever requests a job shares a batch with, its score equals a solo
//! `score_code` call.

use phishinghook::CodeScorer;
use phishinghook_evm::Bytecode;
use phishinghook_retry::knob;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default cap on jobs scored per worker wake.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Default time a worker waits for batch-mates, in microseconds.
pub const DEFAULT_BATCH_WAIT_US: u64 = 200;

/// Default bounded queue capacity.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Tuning knobs for one [`MicroBatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Most jobs a worker drains per wake — the coalescing ceiling and
    /// the batch size `predict_proba` sees under saturation.
    pub max_batch: usize,
    /// How long a worker holding fewer than `max_batch` jobs waits for
    /// batch-mates before scoring. Zero disables the wait entirely.
    pub batch_wait: Duration,
    /// Bounded queue depth; a push beyond it fails fast with
    /// [`SubmitError::QueueFull`].
    pub capacity: usize,
    /// Warm scorer workers draining the queue. Scoring itself fans out on
    /// the linalg worker pool, so one or two queue workers saturate a
    /// host; more only help when batches interleave with I/O.
    pub workers: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_batch: DEFAULT_MAX_BATCH,
            batch_wait: Duration::from_micros(DEFAULT_BATCH_WAIT_US),
            capacity: DEFAULT_QUEUE_CAP,
            workers: 1,
        }
    }
}

impl QueueConfig {
    /// The defaults with two workers on a host with four or more cores,
    /// overridden by the `PHISHINGHOOK_SERVE_WORKERS` knob. A daemon
    /// start-up read: a malformed value exits 2 ([`knob::read_or_exit`]).
    pub fn from_env() -> Self {
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        let workers = knob::read_or_exit::<NonZeroUsize>("PHISHINGHOOK_SERVE_WORKERS")
            .map_or(if hw >= 4 { 2 } else { 1 }, NonZeroUsize::get);
        QueueConfig {
            workers,
            ..QueueConfig::default()
        }
    }
}

/// Why a submission was rejected. Every variant is immediate — submission
/// never blocks on a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; retry after a batch drains.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The batcher is shutting down and accepts no new work.
    Closed,
    /// A worker died (scorer panic) before delivering this job's score.
    WorkerLost,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs in flight)")
            }
            SubmitError::Closed => write!(f, "serving queue is shut down"),
            SubmitError::WorkerLost => write!(f, "scoring worker lost"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Counters a batcher accumulates over its lifetime — the observable
/// evidence that coalescing happens (`scored > batches`) and how big the
/// dynamic batches actually got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// `score_many` calls issued.
    pub batches: u64,
    /// Jobs scored across all batches.
    pub scored: u64,
    /// Largest single batch observed.
    pub max_batch_seen: usize,
}

/// A shared observer callback taking the absorbed panic message.
pub type PanicHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Optional observers the health layer hangs off the worker loop:
/// `on_panic` fires with the payload message each time a scorer panic is
/// absorbed, `on_batch` after each cleanly scored batch. Both run on the
/// worker thread and must be cheap.
#[derive(Clone, Default)]
pub struct QueueHooks {
    /// Called with the panic message when a scoring call panics.
    pub on_panic: Option<PanicHook>,
    /// Called after each batch scores cleanly.
    pub on_batch: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for QueueHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueHooks")
            .field("on_panic", &self.on_panic.is_some())
            .field("on_batch", &self.on_batch.is_some())
            .finish()
    }
}

/// Best-effort panic payload → message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "scorer panicked (non-string payload)"
    }
}

/// One queued unit of work: the contract to score and the slot its
/// submitter blocks on.
struct Job<O> {
    code: Bytecode,
    reply: Reply<O>,
}

/// What a reply slot holds.
enum SlotState<O> {
    Pending,
    Done(O),
    /// The worker dropped the job unscored (its scorer panicked).
    Lost,
}

/// A one-shot reply slot: the submitter parks on the condvar at once.
/// A per-job `mpsc` channel, whose receive spins before it parks, cost
/// about 5 µs more per request in a 32-client fleet pinned to one core.
struct Slot<O> {
    state: Mutex<SlotState<O>>,
    ready: Condvar,
}

impl<O> Slot<O> {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, state: SlotState<O>) {
        *self.state.lock().unwrap() = state;
        self.ready.notify_one();
    }

    /// Blocks until the worker replies: `None` if the job was lost.
    fn wait(&self) -> Option<O> {
        let mut st = self.state.lock().unwrap();
        while matches!(*st, SlotState::Pending) {
            st = self.ready.wait(st).unwrap();
        }
        match std::mem::replace(&mut *st, SlotState::Lost) {
            SlotState::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// The worker's end of a [`Slot`]: [`Reply::send`] fills it, and
/// dropping it unsent marks the job lost, so a submitter never hangs.
struct Reply<O>(Option<Arc<Slot<O>>>);

impl<O> Reply<O> {
    fn send(mut self, value: O) {
        if let Some(slot) = self.0.take() {
            slot.fill(SlotState::Done(value));
        }
    }
}

impl<O> Drop for Reply<O> {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.fill(SlotState::Lost);
        }
    }
}

struct QueueState<O> {
    jobs: VecDeque<Job<O>>,
    closed: bool,
    /// Workers blocked on `wake`, so a submit skips the wake-up syscall
    /// while every worker is busy scoring.
    sleeping: usize,
}

struct Shared<S: CodeScorer> {
    scorer: S,
    state: Mutex<QueueState<S::Output>>,
    /// Signals producers→workers (new job) and shutdown.
    wake: Condvar,
    cfg: QueueConfig,
    hooks: QueueHooks,
    batches: AtomicU64,
    scored: AtomicU64,
    max_batch_seen: AtomicUsize,
}

/// A running micro-batching queue over one shared warm scorer.
///
/// Dropping the batcher shuts it down (draining queued jobs first), so a
/// test or bench that lets it fall out of scope never leaks workers.
pub struct MicroBatcher<S: CodeScorer> {
    shared: Arc<Shared<S>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<S: CodeScorer + 'static> MicroBatcher<S> {
    /// Spawns `cfg.workers` warm workers over `scorer` and starts
    /// accepting jobs. The scorer is typically an `Arc<Detector>` or a
    /// [`ModelSlot`](crate::ModelSlot) — every worker scores through the *same* loaded
    /// artifact, which is what makes the pool cheap to widen.
    ///
    /// # Panics
    ///
    /// Panics on a zero `max_batch`, `capacity`, or `workers` count — a
    /// queue that can hold or score nothing is a configuration bug.
    pub fn start(scorer: S, cfg: QueueConfig) -> MicroBatcher<S> {
        Self::start_with_hooks(scorer, cfg, QueueHooks::default())
    }

    /// [`MicroBatcher::start`] with health observers attached to the
    /// worker loop (see [`QueueHooks`]).
    ///
    /// # Panics
    ///
    /// As [`MicroBatcher::start`].
    pub fn start_with_hooks(scorer: S, cfg: QueueConfig, hooks: QueueHooks) -> MicroBatcher<S> {
        assert!(cfg.max_batch > 0, "max_batch must be at least 1");
        assert!(cfg.capacity > 0, "queue capacity must be at least 1");
        assert!(cfg.workers > 0, "worker pool must hold at least 1 worker");
        let shared = Arc::new(Shared {
            scorer,
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(cfg.capacity.min(4096)),
                closed: false,
                sleeping: 0,
            }),
            wake: Condvar::new(),
            cfg,
            hooks,
            batches: AtomicU64::new(0),
            scored: AtomicU64::new(0),
            max_batch_seen: AtomicUsize::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phk-score-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scoring worker")
            })
            .collect();
        MicroBatcher { shared, workers }
    }

    /// The configuration the batcher runs under.
    pub fn config(&self) -> &QueueConfig {
        &self.shared.cfg
    }

    /// The shared warm scorer (useful for inspecting a test double).
    pub fn scorer(&self) -> &S {
        &self.shared.scorer
    }

    /// Stops accepting new jobs *without* blocking: jobs already admitted
    /// still drain and deliver. [`MicroBatcher::shutdown`] additionally
    /// waits for the drain and joins the workers.
    pub fn close(&self) {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.wake.notify_all();
    }

    /// Lifetime coalescing counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            batches: self.shared.batches.load(Ordering::Relaxed),
            scored: self.shared.scored.load(Ordering::Relaxed),
            max_batch_seen: self.shared.max_batch_seen.load(Ordering::Relaxed),
        }
    }

    /// Current queue depth (jobs accepted, not yet handed to a worker).
    pub fn depth(&self) -> usize {
        self.shared.state.lock().unwrap().jobs.len()
    }

    /// Scores one contract through the queue, blocking until a worker
    /// delivers the result.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] immediately when the bounded queue is at
    /// capacity, [`SubmitError::Closed`] after shutdown began, and
    /// [`SubmitError::WorkerLost`] if the scoring worker died.
    pub fn submit(&self, code: Bytecode) -> Result<S::Output, SubmitError> {
        let mut out = self.submit_many(vec![code])?;
        debug_assert_eq!(out.len(), 1);
        out.pop().ok_or(SubmitError::WorkerLost)
    }

    /// Scores a batch of contracts through the queue: all jobs are
    /// enqueued atomically (all admitted or none), then the call blocks
    /// until every score arrives, returned in input order.
    ///
    /// # Errors
    ///
    /// As [`MicroBatcher::submit`]; `QueueFull` when the *whole* batch
    /// does not fit.
    pub fn submit_many(&self, codes: Vec<Bytecode>) -> Result<Vec<S::Output>, SubmitError> {
        if codes.is_empty() {
            return Ok(Vec::new());
        }
        let (slots, sleeping): (Vec<Arc<Slot<S::Output>>>, bool) = {
            let mut st = self.shared.state.lock().unwrap();
            if st.closed {
                return Err(SubmitError::Closed);
            }
            if st.jobs.len() + codes.len() > self.shared.cfg.capacity {
                return Err(SubmitError::QueueFull {
                    capacity: self.shared.cfg.capacity,
                });
            }
            let slots = codes
                .into_iter()
                .map(|code| {
                    let slot = Slot::new();
                    let reply = Reply(Some(Arc::clone(&slot)));
                    st.jobs.push_back(Job { code, reply });
                    slot
                })
                .collect();
            (slots, st.sleeping > 0)
        };
        // Wake every sleeping worker: one may be mid-coalesce (waiting for
        // batch-mates) while another sits idle; notify_one could land on
        // the wrong sleeper. A busy worker re-checks the queue under the
        // lock before it sleeps, so it needs no wake-up.
        if sleeping {
            self.shared.wake.notify_all();
        }
        slots
            .iter()
            .map(|slot| slot.wait().ok_or(SubmitError::WorkerLost))
            .collect()
    }

    /// Stops accepting new jobs, drains everything already queued, and
    /// joins the workers. Every job admitted before the call still gets
    /// scored and delivered.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<S: CodeScorer> Drop for MicroBatcher<S> {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One warm worker: wake on work, coalesce up to `max_batch` jobs within
/// `batch_wait`, score them in one call, deliver, repeat. Exits when the
/// queue is closed *and* empty — the drain half of the shutdown contract.
fn worker_loop<S: CodeScorer>(shared: &Shared<S>) {
    loop {
        let batch: Vec<Job<S::Output>> = {
            let mut st = shared.state.lock().unwrap();
            // Sleep until there is work (or a drained shutdown).
            loop {
                if !st.jobs.is_empty() {
                    break;
                }
                if st.closed {
                    return;
                }
                st.sleeping += 1;
                st = shared.wake.wait(st).unwrap();
                st.sleeping -= 1;
            }
            // Dynamic coalescing: give batch-mates `batch_wait` to arrive,
            // but never hold a full batch or stall a drain.
            if st.jobs.len() < shared.cfg.max_batch
                && !st.closed
                && !shared.cfg.batch_wait.is_zero()
            {
                let deadline = Instant::now() + shared.cfg.batch_wait;
                while st.jobs.len() < shared.cfg.max_batch && !st.closed {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    st.sleeping += 1;
                    let (guard, timeout) = shared.wake.wait_timeout(st, remaining).unwrap();
                    st = guard;
                    st.sleeping -= 1;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            let take = st.jobs.len().min(shared.cfg.max_batch);
            st.jobs.drain(..take).collect()
        };

        let (codes, replies): (Vec<Bytecode>, Vec<Reply<S::Output>>) =
            batch.into_iter().map(|j| (j.code, j.reply)).unzip();
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .scored
            .fetch_add(codes.len() as u64, Ordering::Relaxed);
        shared
            .max_batch_seen
            .fetch_max(codes.len(), Ordering::Relaxed);

        // A panicking scorer must not take the worker (and with it the
        // whole queue) down: the batch's submitters see WorkerLost via
        // their dropped reply slots and the worker lives on.
        let scores = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.scorer.score_many(&codes)
        }));
        match scores {
            Ok(scores) => {
                debug_assert_eq!(scores.len(), replies.len());
                for (reply, score) in replies.into_iter().zip(scores) {
                    reply.send(score);
                }
                if let Some(on_batch) = &shared.hooks.on_batch {
                    on_batch();
                }
            }
            Err(payload) => {
                if let Some(on_panic) = &shared.hooks.on_panic {
                    on_panic(panic_message(payload.as_ref()));
                }
                drop(replies);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test scorer: output = first byte of the code.
    struct ByteScorer;
    impl CodeScorer for ByteScorer {
        type Output = u8;
        fn score_many(&self, codes: &[Bytecode]) -> Vec<u8> {
            codes
                .iter()
                .map(|c| c.as_bytes().first().copied().unwrap_or(0))
                .collect()
        }
    }

    fn code(b: u8) -> Bytecode {
        Bytecode::new(vec![b, 0x00])
    }

    #[test]
    fn submit_returns_the_scorer_output() {
        let q = MicroBatcher::start(ByteScorer, QueueConfig::default());
        assert_eq!(q.submit(code(7)).unwrap(), 7);
        assert_eq!(q.submit_many(vec![code(1), code(2)]).unwrap(), vec![1, 2]);
        let stats = q.stats();
        assert_eq!(stats.scored, 3);
        assert!(stats.batches >= 1);
        q.shutdown();
    }

    #[test]
    fn zero_worker_config_is_rejected() {
        let cfg = QueueConfig {
            workers: 0,
            ..QueueConfig::default()
        };
        assert!(std::panic::catch_unwind(|| MicroBatcher::start(ByteScorer, cfg)).is_err());
    }

    #[test]
    fn closed_queue_rejects_new_work_without_blocking() {
        let q = MicroBatcher::start(ByteScorer, QueueConfig::default());
        q.close();
        assert_eq!(q.submit(code(1)), Err(SubmitError::Closed));
    }

    #[test]
    fn scorer_panic_is_worker_lost_not_a_hang() {
        struct Bomb;
        impl CodeScorer for Bomb {
            type Output = u8;
            fn score_many(&self, codes: &[Bytecode]) -> Vec<u8> {
                if codes[0].as_bytes()[0] == 0xBB {
                    panic!("boom");
                }
                vec![1; codes.len()]
            }
        }
        let q = MicroBatcher::start(
            Bomb,
            QueueConfig {
                workers: 1,
                ..QueueConfig::default()
            },
        );
        assert_eq!(q.submit(code(0xBB)), Err(SubmitError::WorkerLost));
        // The worker survived the panic and keeps scoring.
        assert_eq!(q.submit(code(0x01)).unwrap(), 1);
        q.shutdown();
    }
}
