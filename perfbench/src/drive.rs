//! Load generators: an open loop that sends on a seeded schedule whatever
//! the server's pace, and a closed loop whose callers each wait for their
//! reply. Both keep at most one request in flight per connection, and
//! neither inspects replies while timing; checks run afterwards.

use crate::client::Conn;
use crate::replica::thread_cpu_seconds;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request past this long without a reply counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the request in the generator's sequence.
    pub seq: usize,
    /// Reply time minus due time (open loop) or send time (closed loop),
    /// seconds.
    pub latency_s: f64,
    /// Send time minus due time: how long the request waited for a free
    /// connection (open loop only).
    pub queued_s: f64,
    /// How late the generator itself sent: send time minus the later of
    /// the due time and the moment a connection picked the request up.
    pub late_s: f64,
    /// HTTP status; 0 when the exchange failed at the socket.
    pub status: u16,
    /// Reply body.
    pub body: Vec<u8>,
    /// Caller-defined tags sampled just before sending and just after the
    /// reply (the drift workload records generations here).
    pub tags: (u64, u64),
}

impl Exchange {
    /// A `200` reply.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Sampled before and after each exchange.
pub type Tagger<'a> = &'a (dyn Fn() -> u64 + Sync);

fn one(conn: &mut Option<Conn>, addr: SocketAddr, request: &[u8]) -> (u16, Vec<u8>) {
    if conn.is_none() {
        *conn = Conn::connect(addr, REQUEST_TIMEOUT).ok();
    }
    let Some(c) = conn.as_mut() else {
        return (0, Vec::new());
    };
    match c.exchange(request) {
        Ok(reply) => (reply.status, reply.body),
        Err(_) => {
            // The connection state is unknown after a failure: reconnect
            // for the next request.
            *conn = None;
            (0, Vec::new())
        }
    }
}

/// Open loop: request `i` is due at `arrivals[i]` seconds after start and
/// sends `requests[pick[i]]` on the first free connection of `conns`.
/// Also returns the CPU seconds the connection threads used, so a caller
/// can leave the load generator's own cost out of a CPU figure taken
/// over the whole process.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    arrivals: &[f64],
    pick: &[usize],
    requests: &[Vec<u8>],
    tag: Option<(Tagger<'_>, Tagger<'_>)>,
) -> (Vec<Exchange>, f64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(arrivals.len()));
    let cpu = Mutex::new(0.0f64);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let cpu0 = thread_cpu_seconds();
                let mut conn = Conn::connect(addr, REQUEST_TIMEOUT).ok();
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= arrivals.len() {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(arrivals[i]);
                    let picked = Instant::now();
                    if due > picked {
                        std::thread::sleep(due - picked);
                    }
                    let before = tag.map_or(0, |t| (t.0)());
                    let sent = Instant::now();
                    let (status, body) = one(&mut conn, addr, &requests[pick[i]]);
                    let done = Instant::now();
                    let after = tag.map_or(0, |t| (t.1)());
                    mine.push(Exchange {
                        seq: i,
                        latency_s: done.saturating_duration_since(due).as_secs_f64(),
                        queued_s: sent.saturating_duration_since(due).as_secs_f64(),
                        late_s: sent
                            .saturating_duration_since(due.max(picked))
                            .as_secs_f64(),
                        status,
                        body,
                        tags: (before, after),
                    });
                }
                out.lock().expect("load results lock").extend(mine);
                *cpu.lock().expect("load cpu lock") += thread_cpu_seconds() - cpu0;
            });
        }
    });
    let mut out = out.into_inner().expect("load results lock");
    out.sort_by_key(|e| e.seq);
    (out, cpu.into_inner().expect("load cpu lock"))
}

/// Closed loop for `seconds`: each of `conns` callers sends
/// `requests[order[k % order.len()]]` for successive `k` and waits for
/// the reply before sending again. Returns the exchanges and the wall
/// time from start to the last reply.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    order: &[usize],
    requests: &[Vec<u8>],
    seconds: f64,
) -> (Vec<Exchange>, f64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut conn = Conn::connect(addr, REQUEST_TIMEOUT).ok();
                let mut mine = Vec::new();
                while Instant::now() < stop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let (status, body) = one(&mut conn, addr, &requests[order[k % order.len()]]);
                    let done = Instant::now();
                    mine.push(Exchange {
                        seq: k,
                        latency_s: done.duration_since(sent).as_secs_f64(),
                        queued_s: 0.0,
                        late_s: 0.0,
                        status,
                        body,
                        tags: (0, 0),
                    });
                }
                out.lock().expect("load results lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut out = out.into_inner().expect("load results lock");
    out.sort_by_key(|e| e.seq);
    (out, wall)
}
