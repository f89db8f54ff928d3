//! The workspace's worker pool: one sizing policy and one ordered fan-out.
//!
//! Every scoped-thread fan-out in the workspace sizes itself through
//! [`pool_size`], so one `PHISHINGHOOK_THREADS` override pins every pool
//! at once; benches use it to compare pinned worker counts. The GEMM
//! row-sharding in [`gemm`](crate::gemm) and the sharded `train_binary` in
//! `phishinghook-models` write disjoint `&mut` output and spawn their own
//! scoped threads under this policy. Everything else that maps a batch of
//! independent items (store featurization, the MEM trial loop, Random
//! Forest fitting, k-NN prediction) goes through [`parallel_map`].
//!
//! The module lives here, at the bottom of the crate graph, so every crate
//! above `linalg` can reach it without a dependency cycle.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Upper bound on any pool size; beyond this the per-thread work items get
/// too small for the spawn cost to pay off on our workloads.
pub const MAX_WORKERS: usize = 32;

/// The `PHISHINGHOOK_THREADS` override, read once per process: `Some(n)`
/// (clamped to `1..=MAX_WORKERS`) when the variable holds a positive
/// integer, `None` when unset or unparsable.
#[allow(clippy::disallowed_methods)] // a process-wide test hook, read where it acts
pub fn configured_threads() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("PHISHINGHOOK_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .map(|n| n.min(MAX_WORKERS))
    })
}

/// The hardware parallelism, read once per process. On Linux
/// `available_parallelism` re-reads the cgroup CPU quota on every call
/// (tens of µs), and a served batch sizes up to three fan-outs, so the
/// value is cached like the override.
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of workers used for a batch of `n` items: the
/// `PHISHINGHOOK_THREADS` override when set, otherwise the hardware
/// parallelism — both capped by [`MAX_WORKERS`] and by `n` itself.
pub fn pool_size(n: usize) -> usize {
    configured_threads()
        .unwrap_or_else(hardware_threads)
        .min(MAX_WORKERS)
        .min(n)
        .max(1)
}

/// Maps `f` over `items` on a fixed-size scoped-thread pool, returning
/// results in input order (deterministic regardless of scheduling).
///
/// The input is split into one contiguous chunk per worker and the results
/// are concatenated in input order, so a parallel pass is byte-identical
/// to the sequential one. Falls back to a plain sequential map when
/// [`pool_size`] picks one worker (empty or single-item input, a
/// single-core host, or `PHISHINGHOOK_THREADS=1`).
///
/// # Panics
///
/// If `f` panics on some item, the panic is re-raised on the caller with a
/// message naming the worker and its item range plus the original payload,
/// so a failing featurization/training closure reports which chunk died
/// instead of a bare `JoinHandle::join` abort.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = pool_size(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<U>>()))
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => {
                    // Lift the payload out of the opaque Box so the caller
                    // sees the original message alongside the chunk bounds.
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&'static str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    let lo = w * chunk;
                    let hi = (lo + chunk).min(items.len());
                    panic!("parallel_map worker {w} (items {lo}..{hi}) panicked: {msg}");
                }
            }
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_bounded() {
        assert!(pool_size(0) >= 1);
        assert!(pool_size(1_000_000) <= MAX_WORKERS);
        assert!(pool_size(2) <= 2);
    }

    #[test]
    fn override_is_clamped() {
        // The env read is process-cached, so only assert the invariant that
        // holds whichever way the variable was set when the cache filled.
        if let Some(n) = configured_threads() {
            assert!((1..=MAX_WORKERS).contains(&n));
        }
    }

    #[test]
    fn matches_sequential_order() {
        let items: Vec<u64> = (0..1013).collect();
        let par = parallel_map(&items, |&x| x * x);
        let seq: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = parallel_map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_reports_chunk() {
        // Force the parallel path even on single-core CI boxes by pinning
        // the item that dies; the rethrown message must carry the payload.
        let items: Vec<u32> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                assert!(x != 63, "item {x} exploded");
                x
            })
        })
        .expect_err("map over a panicking closure must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        // On single-core hosts the sequential fallback re-raises the raw
        // payload instead; both must mention the exploding item.
        assert!(msg.contains("item 63 exploded"), "got: {msg}");
        if pool_size(items.len()) > 1 {
            assert!(msg.contains("parallel_map worker"), "got: {msg}");
        }
    }
}
