//! The HTTP front: `std::net` acceptor + connection handlers feeding the
//! micro-batching queue.
//!
//! Endpoints (all JSON over HTTP/1.1, keep-alive):
//!
//! * `POST /predict` — `{"bytecode":"0x…"}` → `{"model", "probability",
//!   "escalated", "phishing"}` for one contract. Unless the live
//!   generation has already scored these bytes, the request rides the
//!   queue, so concurrent callers are coalesced into one batched model
//!   call without ever waiting more than the configured `batch_wait`.
//! * `POST /predict_batch` — `{"contracts":["0x…", …]}` → the same fields
//!   as arrays in input order, admitted to the queue atomically.
//! * `GET /healthz` — liveness, the served model's identity, the live
//!   queue knobs, breaker counters, routing counters and reuse counters.
//!
//! Flat and cascade models share every route and reply shape; a flat
//! model's `escalated` is always `false`.
//!
//! Both predict routes answer through the live generation's
//! [`VerdictMemo`](crate::memo::VerdictMemo): a contract whose bytes that
//! generation has already scored gets the filed verdict at once, and only
//! the request's distinct misses ride the queue, in one submission. A
//! verdict is filed only while the generation that was live when the
//! request arrived is still live, so no generation's memo holds another
//! generation's verdict. A request that straddles an install can still
//! mix generations across its contracts, as a request whose jobs the
//! queue splits over two batches always could.
//!
//! Failure semantics are part of the API: a full queue answers `429 Too
//! Many Requests` with a `Retry-After` hint (never a hang, never a
//! dropped connection), malformed requests get 4xxs from the length-capped
//! parser, and [`Server::shutdown`] stops accepting, finishes in-flight
//! exchanges, and drains every queued job before returning.

use crate::health::{HealthState, DEFAULT_BREAKER_THRESHOLD};
use crate::http::{read_request, write_response, Limits};
use crate::memo::ReuseStats;
use crate::queue::{MicroBatcher, QueueConfig, QueueHooks, SubmitError};
use crate::swap::{ModelSlot, ServedModel};
use phishinghook::json::Value;
use phishinghook::CascadeVerdict;
use phishinghook_evm::Bytecode;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything the server needs beyond the queue knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Micro-batching queue configuration.
    pub queue: QueueConfig,
    /// HTTP parser caps.
    pub limits: Limits,
    /// Per-connection read timeout; an idle keep-alive connection is
    /// closed after this long, which also bounds how long shutdown waits.
    pub read_timeout: Duration,
    /// Most contracts accepted in one `/predict_batch` request.
    pub max_request_contracts: usize,
    /// Consecutive worker panics or reload failures that flip
    /// `/healthz` to `"degraded"` (see [`HealthState`]).
    pub breaker_threshold: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue: QueueConfig::default(),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            max_request_contracts: 256,
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
        }
    }
}

struct Inner {
    slot: Arc<ModelSlot>,
    queue: MicroBatcher<Arc<ModelSlot>>,
    /// Routing counters: contracts served and contracts escalated to a
    /// cascade's confirmer, reused verdicts included. They belong to the
    /// server, not any one generation, so they survive hot swaps.
    screened: AtomicU64,
    escalated: AtomicU64,
    /// Reuse counters (see [`ReuseStats`]), cumulative like the above.
    reuse_hits: AtomicU64,
    reuse_misses: AtomicU64,
    health: Arc<HealthState>,
    limits: Limits,
    read_timeout: Duration,
    max_request_contracts: usize,
    stop: AtomicBool,
}

/// The queue observers that feed the crash-loop breaker: absorbed scorer
/// panics extend the panic streak, cleanly scored batches re-arm it.
fn health_hooks(health: &Arc<HealthState>) -> QueueHooks {
    let on_panic = {
        let health = Arc::clone(health);
        Arc::new(move |msg: &str| health.record_worker_panic(msg))
            as Arc<dyn Fn(&str) + Send + Sync>
    };
    let on_batch = {
        let health = Arc::clone(health);
        Arc::new(move || health.record_batch_success()) as Arc<dyn Fn() + Send + Sync>
    };
    QueueHooks {
        on_panic: Some(on_panic),
        on_batch: Some(on_batch),
    }
}

/// A running serving tier: acceptor thread, connection handlers, and the
/// warm worker pool behind one shared model.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `model` — a flat detector or a cascade — behind the
    /// micro-batching queue as artifact `generation` (0 for a model
    /// loaded outside any publish directory). The model rides a
    /// hot-swappable [`ModelSlot`]: every queue worker and every request
    /// scores through the slot's live model, which [`Server::install`]
    /// can replace without a restart.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start(
        model: impl Into<ServedModel>,
        generation: u64,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let health = Arc::new(HealthState::new(cfg.breaker_threshold));
        let slot = Arc::new(ModelSlot::new(Arc::new(model.into()), generation));
        let inner = Arc::new(Inner {
            queue: MicroBatcher::start_with_hooks(
                Arc::clone(&slot),
                cfg.queue,
                health_hooks(&health),
            ),
            slot,
            screened: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            reuse_hits: AtomicU64::new(0),
            reuse_misses: AtomicU64::new(0),
            health,
            limits: cfg.limits,
            read_timeout: cfg.read_timeout,
            max_request_contracts: cfg.max_request_contracts,
            stop: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("phk-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if inner.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let inner = Arc::clone(&inner);
                        let handle = std::thread::Builder::new()
                            .name("phk-conn".into())
                            .spawn(move || handle_connection(stream, &inner));
                        if let Ok(handle) = handle {
                            let mut held = conns.lock().unwrap();
                            // Reap finished handlers so a long-lived server
                            // doesn't accumulate join handles.
                            held.retain(|h| !h.is_finished());
                            held.push(handle);
                        }
                    }
                })?
        };
        Ok(Server {
            inner,
            addr: local,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (the ephemeral port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live queue statistics (see
    /// [`QueueStats`](crate::queue::QueueStats)).
    pub fn queue_stats(&self) -> crate::queue::QueueStats {
        self.inner.queue.stats()
    }

    /// Hot-swaps the served model — a flat detector or a whole cascade,
    /// whatever kind was live before. Every batch that starts after this
    /// call scores on `model`; batches already in flight finish on
    /// the previous model and no request is dropped. A cascade's stages,
    /// calibrators and band move in one install, so no batch can pair an
    /// old screen with a new confirmer. The new generation starts with an
    /// empty verdict memo, so it re-scores every repeat once. Returns the
    /// generation that was replaced.
    pub fn install(&self, model: impl Into<ServedModel>, generation: u64) -> u64 {
        self.inner.slot.install(Arc::new(model.into()), generation)
    }

    /// The live artifact generation (also reported by `GET /healthz`).
    pub fn generation(&self) -> u64 {
        self.inner.slot.generation()
    }

    /// The crash-loop breaker and health counters this server reports on
    /// `/healthz`. Shared: a co-located reload loop records its
    /// attempts and failures here.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.inner.health)
    }

    /// The slot a background reload loop installs into.
    pub(crate) fn slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.inner.slot)
    }

    /// A snapshot of the live model.
    pub fn model(&self) -> Arc<ServedModel> {
        self.inner.slot.model()
    }

    /// Cumulative routing counters `(screened, escalated)`: verdicts
    /// served since the server started, and how many of those came from
    /// a cascade's deep confirmer (a flat model never escalates). A
    /// verdict answered from the memo counts as it did when first scored.
    /// Counters survive hot swaps.
    pub fn routing_counters(&self) -> (u64, u64) {
        (
            self.inner.screened.load(Ordering::Relaxed),
            self.inner.escalated.load(Ordering::Relaxed),
        )
    }

    /// Cumulative reuse counters and the live memo's size. Every served
    /// contract is either a hit or one of the misses the queue scored.
    pub fn reuse_stats(&self) -> ReuseStats {
        reuse_stats(&self.inner)
    }

    /// Stops accepting connections, lets in-flight exchanges finish, and
    /// drains every queued job before returning.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Connection handlers exit at their next request boundary (or
        // read timeout); their queued jobs are still scored because the
        // queue drains on drop below.
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Dropping the last strong queue holder closes it and joins the
        // workers after the drain (MicroBatcher::drop).
    }
}

/// JSON error body.
fn err_body(msg: &str) -> Vec<u8> {
    Value::Obj(vec![("error".into(), Value::Str(msg.into()))])
        .render()
        .into_bytes()
}

/// One response, ready to write.
struct Reply {
    status: u16,
    reason: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn ok(body: Vec<u8>) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            extra: Vec::new(),
            body,
        }
    }

    fn error(status: u16, reason: &'static str, msg: &str) -> Reply {
        Reply {
            status,
            reason,
            extra: Vec::new(),
            body: err_body(msg),
        }
    }
}

fn submit_error_reply(e: SubmitError) -> Reply {
    match e {
        SubmitError::QueueFull { capacity } => {
            let mut reply = Reply::error(
                429,
                "Too Many Requests",
                &format!("scoring queue full ({capacity} jobs queued); retry shortly"),
            );
            // The queue turns over within a batch_wait or two; 1 s is the
            // coarsest honest hint HTTP's integer Retry-After can carry.
            reply.extra.push(("Retry-After", "1".to_string()));
            reply
        }
        SubmitError::Closed => Reply::error(503, "Service Unavailable", "server is shutting down"),
        SubmitError::WorkerLost => {
            Reply::error(500, "Internal Server Error", "scoring worker lost")
        }
    }
}

/// Pulls `"0x…"` hex strings out of a JSON array field.
fn parse_contracts(v: &Value, field: &str, cap: usize) -> Result<Vec<Bytecode>, Reply> {
    let arr = v
        .get(field)
        .and_then(Value::as_arr)
        .ok_or_else(|| Reply::error(400, "Bad Request", &format!("missing {field:?} array")))?;
    if arr.is_empty() {
        return Err(Reply::error(400, "Bad Request", "empty contract list"));
    }
    if arr.len() > cap {
        return Err(Reply::error(
            413,
            "Payload Too Large",
            &format!("at most {cap} contracts per request"),
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, entry)| {
            let hex = entry.as_str().ok_or_else(|| {
                Reply::error(400, "Bad Request", &format!("contract {i} is not a string"))
            })?;
            Bytecode::from_hex(hex)
                .map_err(|e| Reply::error(400, "Bad Request", &format!("contract {i}: {e}")))
        })
        .collect()
}

/// Folds a batch of verdicts into the server's routing counters.
fn tally(inner: &Inner, verdicts: &[CascadeVerdict]) {
    inner
        .screened
        .fetch_add(verdicts.len() as u64, Ordering::Relaxed);
    let up = verdicts.iter().filter(|v| v.escalated).count() as u64;
    if up > 0 {
        inner.escalated.fetch_add(up, Ordering::Relaxed);
    }
}

fn reuse_stats(inner: &Inner) -> ReuseStats {
    ReuseStats {
        hits: inner.reuse_hits.load(Ordering::Relaxed),
        misses: inner.reuse_misses.load(Ordering::Relaxed),
        entries: inner.slot.live().memo.len(),
    }
}

/// The health report: liveness, model identity, queue knobs, breaker
/// counters, routing counters (every served verdict, reused ones
/// included) and reuse counters.
fn healthz(inner: &Inner) -> Value {
    let cfg = inner.queue.config();
    let health = inner.health.snapshot();
    let (model, generation) = inner.slot.snapshot();
    let (screen, confirm) = model.stage_ids();
    let (screened, escalated) = (
        inner.screened.load(Ordering::Relaxed),
        inner.escalated.load(Ordering::Relaxed),
    );
    let reuse = reuse_stats(inner);
    let num = |n: u64| Value::Num(n as f64);
    Value::Obj(vec![
        (
            "status".into(),
            Value::Str(if health.degraded { "degraded" } else { "ok" }.into()),
        ),
        ("model".into(), Value::Str(model.label().into())),
        ("generation".into(), num(generation)),
        (
            "uptime_seconds".into(),
            Value::Num(inner.slot.uptime().as_secs_f64()),
        ),
        ("queue_depth".into(), num(inner.queue.depth() as u64)),
        ("max_batch".into(), num(cfg.max_batch as u64)),
        ("workers".into(), num(cfg.workers as u64)),
        (
            "last_error".into(),
            health
                .last_error
                .as_deref()
                .map_or(Value::Null, |e| Value::Str(e.into())),
        ),
        ("reload_attempts".into(), num(health.reload_attempts)),
        ("reload_failures".into(), num(health.reload_failures)),
        ("worker_panics".into(), num(health.worker_panics)),
        ("recoveries".into(), num(health.recoveries)),
        ("screen_model".into(), Value::Str(screen.into())),
        (
            "confirm_model".into(),
            confirm.map_or(Value::Null, |id| Value::Str(id.into())),
        ),
        ("cascade_screened".into(), num(screened)),
        ("cascade_escalated".into(), num(escalated)),
        (
            "cascade_escalation_rate".into(),
            Value::Num(if screened == 0 {
                0.0
            } else {
                escalated as f64 / screened as f64
            }),
        ),
        ("reuse_hits".into(), num(reuse.hits)),
        ("reuse_misses".into(), num(reuse.misses)),
        ("reuse_entries".into(), num(reuse.entries as u64)),
    ])
}

/// A `/predict` reply: the label of the model that was live when the
/// request arrived, then the verdict's fields.
fn verdict_json(label: &str, v: &CascadeVerdict) -> Value {
    Value::Obj(vec![
        ("model".into(), Value::Str(label.into())),
        ("probability".into(), Value::Num(v.probability as f64)),
        ("escalated".into(), Value::Bool(v.escalated)),
        ("phishing".into(), Value::Bool(v.is_phishing())),
    ])
}

/// A `/predict_batch` reply: the same fields as [`verdict_json`], as
/// arrays in input order.
fn verdicts_json(label: &str, verdicts: &[CascadeVerdict]) -> Value {
    let column = |f: fn(&CascadeVerdict) -> Value| Value::Arr(verdicts.iter().map(f).collect());
    Value::Obj(vec![
        ("model".into(), Value::Str(label.into())),
        (
            "probabilities".into(),
            column(|v| Value::Num(v.probability as f64)),
        ),
        ("escalated".into(), column(|v| Value::Bool(v.escalated))),
        ("phishing".into(), column(|v| Value::Bool(v.is_phishing()))),
    ])
}

fn route(inner: &Inner, method: &str, target: &str, body: &[u8]) -> Reply {
    match (method, target) {
        ("GET", "/healthz") => Reply::ok(healthz(inner).render().into_bytes()),
        ("POST", "/predict") | ("POST", "/predict_batch") => {
            let Ok(text) = std::str::from_utf8(body) else {
                return Reply::error(400, "Bad Request", "body is not UTF-8");
            };
            let Some(doc) = phishinghook::json::parse(text) else {
                return Reply::error(400, "Bad Request", "body is not valid JSON");
            };
            let codes = if target == "/predict" {
                let Some(hex) = doc.get("bytecode").and_then(Value::as_str) else {
                    return Reply::error(400, "Bad Request", "missing \"bytecode\" field");
                };
                match Bytecode::from_hex(hex) {
                    Ok(c) => vec![c],
                    Err(e) => return Reply::error(400, "Bad Request", &format!("bytecode: {e}")),
                }
            } else {
                match parse_contracts(&doc, "contracts", inner.max_request_contracts) {
                    Ok(c) => c,
                    Err(reply) => return reply,
                }
            };
            let live = inner.slot.live();
            let mut plan = live.memo.plan(codes);
            let scored = match inner.queue.submit_many(plan.take_misses()) {
                Ok(scored) => scored,
                Err(e) => return submit_error_reply(e),
            };
            // An install since the snapshot may have scored the misses on
            // the new model: file them only while the snapshot is live.
            if !scored.is_empty() && inner.slot.memo_is_live(&live.memo) {
                live.memo.file(plan.miss_keys(), &scored);
            }
            inner
                .reuse_hits
                .fetch_add(plan.hits() as u64, Ordering::Relaxed);
            inner
                .reuse_misses
                .fetch_add(scored.len() as u64, Ordering::Relaxed);
            let verdicts = plan.finish(&scored);
            tally(inner, &verdicts);
            let label = live.model.label();
            let doc = if target == "/predict" {
                verdict_json(label, &verdicts[0])
            } else {
                verdicts_json(label, &verdicts)
            };
            Reply::ok(doc.render().into_bytes())
        }
        (_, "/predict") | (_, "/predict_batch") | (_, "/healthz") => {
            Reply::error(405, "Method Not Allowed", "unsupported method")
        }
        _ => Reply::error(404, "Not Found", "unknown endpoint"),
    }
}

fn handle_connection(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_read_timeout(Some(inner.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    loop {
        match read_request(&mut reader, &inner.limits) {
            Ok(request) => {
                let reply = route(inner, &request.method, &request.target, &request.body);
                let close = request.wants_close() || inner.stop.load(Ordering::SeqCst);
                if write_response(
                    &mut write_half,
                    reply.status,
                    reply.reason,
                    &reply.extra,
                    &reply.body,
                    close,
                )
                .is_err()
                    || close
                {
                    return;
                }
            }
            Err(e) => {
                // Parse failures get their mapped status (then the
                // connection closes — framing is unreliable after a bad
                // request); a clean EOF or timeout just closes.
                if let Some((status, reason)) = e.status() {
                    let _ = write_response(
                        &mut write_half,
                        status,
                        reason,
                        &[],
                        &err_body(e.detail()),
                        true,
                    );
                }
                return;
            }
        }
    }
}
