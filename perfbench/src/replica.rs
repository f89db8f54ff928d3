//! Spawning and stopping `phishinghook-served --watch` replicas with the
//! server's default configuration: the benchmark sets no serving
//! environment knob, so a change to a default shows up in the numbers.

use crate::client::{healthz, Conn};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a replica may take from spawn to its first `200` on
/// `/healthz` before the run fails.
const BOOT_LIMIT: Duration = Duration::from_secs(60);

/// A running replica process.
pub struct Replica {
    child: Child,
    /// Kept open so the replica's writes to stdout never fail.
    _stdout: BufReader<ChildStdout>,
    /// The replica's bound address.
    pub addr: SocketAddr,
    /// Spawn to first `200` on `/healthz`, wall clock.
    pub setup: Duration,
    /// CPU time the replica used, over all its threads, from spawn to
    /// its first `200` on `/healthz`, in seconds.
    pub setup_cpu_s: f64,
}

impl Replica {
    /// Spawns a replica watching `publish_dir` (which must already hold a
    /// valid generation) on an ephemeral loopback port, and waits for its
    /// first `200` on `/healthz`.
    ///
    /// # Errors
    ///
    /// Spawn failures, an early exit, or no healthy reply within the boot
    /// limit.
    pub fn spawn(server_bin: &Path, publish_dir: &Path) -> std::io::Result<Replica> {
        let started = Instant::now();
        let mut child = Command::new(server_bin)
            .arg("--watch")
            .arg(publish_dir)
            .arg("127.0.0.1:0")
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = match read_addr(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut replica = Replica {
            child,
            _stdout: stdout,
            addr,
            setup: Duration::ZERO,
            setup_cpu_s: 0.0,
        };
        loop {
            let healthy = Conn::connect(addr, Duration::from_secs(5))
                .and_then(|mut c| healthz(&mut c))
                .is_ok();
            if healthy {
                replica.setup = started.elapsed();
                replica.setup_cpu_s = threads_cpu_seconds(replica.child.id());
                return Ok(replica);
            }
            if started.elapsed() > BOOT_LIMIT {
                return Err(std::io::Error::other("replica never became healthy"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The replica's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// CPU time the replica has used so far (user + system, excluding
    /// time its vCPU was stolen by the host), in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        proc_cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Kills the replica and waits until it has exited.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.halt();
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` file, in seconds (the kernel
/// reports clock ticks of 1/100 s).
pub fn proc_cpu_seconds(stat_path: &str) -> f64 {
    let stat = std::fs::read_to_string(stat_path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<f64>() / 100.0
}

/// Run time of one task from its `schedstat` file (nanosecond
/// resolution, excluding time its vCPU was stolen), in seconds.
fn schedstat_seconds(path: &Path) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    schedstat_seconds(Path::new("/proc/thread-self/schedstat"))
}

/// CPU time the live threads of process `pid` have used so far, in
/// seconds.
fn threads_cpu_seconds(pid: u32) -> f64 {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|tasks| {
            tasks
                .flatten()
                .map(|t| schedstat_seconds(&t.path().join("schedstat")))
                .sum()
        })
        .unwrap_or(0.0)
}

/// Host steal time so far, summed over CPUs, in seconds: time the
/// hypervisor ran something else while this machine's vCPUs were ready.
fn host_steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / 100.0)
}

/// Measures the share of this machine's CPU time the host stole over an
/// interval: the context every wall-clock figure of a run needs.
pub struct StealMeter {
    steal: f64,
    started: Instant,
}

impl StealMeter {
    /// Starts the interval.
    pub fn start() -> StealMeter {
        StealMeter {
            steal: host_steal_seconds(),
            started: Instant::now(),
        }
    }

    /// Stolen share of all vCPU time since [`StealMeter::start`].
    pub fn share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        (host_steal_seconds() - self.steal) / (self.started.elapsed().as_secs_f64() * cpus)
    }
}

/// Reads the replica's banner until the `listening on http://<addr>` line.
fn read_addr(stdout: &mut BufReader<ChildStdout>) -> std::io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("replica exited before listening"));
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            return rest
                .trim()
                .parse()
                .map_err(|_| std::io::Error::other(format!("bad listen line {line:?}")));
        }
    }
}

/// Set-up of one replica spawn, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// CPU time from spawn to first healthy.
    pub cpu_s: f64,
    /// Wall time from spawn to first healthy.
    pub wall_s: f64,
}

/// Samples replica set-up across a run: spawns `count` replicas of one
/// publish directory, evenly spaced over a span, each stopped once
/// healthy, on a thread of its own. Spread over the timed phase, the
/// samples see the same host as the workload's figures; taken in one
/// burst, their median follows whatever the host did in that second.
pub struct SetupProbe {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<ProbeResult>>,
}

/// Every spawn's set-up and the probe thread's own CPU seconds.
type ProbeResult = std::io::Result<(Vec<SetupSample>, f64)>;

impl SetupProbe {
    /// Starts sampling; the first spawn is immediate, the last due just
    /// before `span` has passed.
    pub fn start(
        server_bin: &Path,
        publish_dir: &Path,
        count: usize,
        span: Duration,
    ) -> SetupProbe {
        let (server_bin, publish_dir) = (server_bin.to_path_buf(), publish_dir.to_path_buf());
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (started, cpu0) = (Instant::now(), thread_cpu_seconds());
            let mut setups = Vec::with_capacity(count);
            for i in 0..count.max(1) {
                let due = started + span.mul_f64(i as f64 / count.max(1) as f64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let replica = Replica::spawn(&server_bin, &publish_dir)?;
                setups.push(SetupSample {
                    cpu_s: replica.setup_cpu_s,
                    wall_s: replica.setup.as_secs_f64(),
                });
                replica.stop();
            }
            Ok((setups, thread_cpu_seconds() - cpu0))
        });
        SetupProbe {
            stop,
            thread: Some(thread),
        }
    }

    /// Waits for the last spawn; returns every spawn's set-up and the CPU
    /// seconds the probe's own thread used.
    ///
    /// # Errors
    ///
    /// As [`Replica::spawn`].
    pub fn finish(mut self) -> Result<(Vec<SetupSample>, f64), String> {
        self.thread
            .take()
            .expect("the probe is finished once")
            .join()
            .expect("set-up probe thread")
            .map_err(|e| format!("set-up probe replica: {e}"))
    }
}

impl Drop for SetupProbe {
    /// A run that fails before [`SetupProbe::finish`] still waits until
    /// the probe's last replica has been stopped.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
