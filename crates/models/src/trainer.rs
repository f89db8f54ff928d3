//! Shared training loop for the deep models: shuffled mini-batches,
//! data-parallel **shards** of each batch across the worker pool, Adam
//! updates, optional frozen parameters.
//!
//! Each deep model has one private batched forward (`logits`) that both
//! [`train_binary`] and [`predict_binary_batch`] call. Each mini-batch is
//! cut into fixed-width shards of [`TRAIN_SHARD`] samples. Every shard
//! records its forward on its own arena-reused [`Tape`] (the model's
//! `logit_fn` consumes the shard at once — a `(B, d)` matmul for the dense
//! models, a per-sample subgraph stacked with [`Tape::stack_rows`] for the
//! sequence and vision models), reduces with
//! [`Tape::bce_with_logits_batch_scaled`] using the *full* batch size as
//! denominator, and differentiates into a private [`GradBuffer`] — so
//! shard losses and gradients sum to exactly the whole-batch mean loss and its
//! gradient. Shards run on scoped worker threads, but the reduction is a
//! **fixed-order fold**: the caller's thread adds the shard buffers into
//! the store in shard-index order before the single Adam step. Because the
//! shard width is a constant (never derived from the worker count), the
//! fitted parameters are bit-identical at every pool size — including the
//! sequential fallback — and reproducible per seed.
//!
//! [`train_binary_per_sample`] and [`predict_binary`] are row-wise
//! baselines: no model uses them; the `nn_throughput` bench measures the
//! batched loop and predictor against them.

use phishinghook_linalg::par;
use phishinghook_nn::{GradBuffer, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Default inference mini-batch for the batched predict path.
pub const PREDICT_BATCH: usize = 64;

/// Fixed data-parallel shard width inside a training mini-batch. A
/// constant — never derived from the worker count — so the shard
/// boundaries, loss scaling and gradient-reduction order are identical
/// whether the shards run on one thread or many. Sized to the default
/// [`TrainConfig::batch_size`]: a default-sized batch records one tape
/// (no sharding overhead on single-core hosts), larger batches fan out
/// across the pool in 16-sample shards.
pub const TRAIN_SHARD: usize = 16;

/// Training hyper-parameters shared by all deep models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size (the loss is averaged per batch).
    pub batch_size: usize,
    /// Shuffle / initialisation seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 4,
            learning_rate: 0.01,
            batch_size: 16,
            seed: 0x5EED,
        }
    }
}

/// Runs the sharded batched loop with the worker count picked by the
/// shared pool policy (hardware parallelism, capped by
/// `PHISHINGHOOK_THREADS`): for each epoch, shuffle, and for each
/// mini-batch fan the [`TRAIN_SHARD`]-wide shards across the pool, fold
/// the shard gradients in shard order, and take one (optionally masked)
/// Adam step. `logit_fn` must return a `(B, 1)` logit column for the `B`
/// samples it is handed — it sees one *shard* per call. Returns the mean
/// loss of the final epoch. The fitted parameters are bit-identical at
/// every worker count (see [`train_binary_sharded`]).
///
/// # Panics
///
/// Panics on empty or mismatched inputs, or when `logit_fn` returns a
/// logit count that disagrees with the shard size.
pub fn train_binary<S: Sync>(
    store: &mut ParamStore,
    samples: &[S],
    labels: &[u8],
    config: &TrainConfig,
    frozen: &[ParamId],
    logit_fn: impl Fn(&mut Tape, &ParamStore, &[&S]) -> Var + Sync,
) -> f32 {
    train_binary_sharded(store, samples, labels, config, frozen, 0, logit_fn)
}

/// Per-shard training state, reused across every batch and epoch of one
/// training run so the tape arenas and gradient buffers reach a zero-
/// allocation steady state.
struct ShardSlot {
    tape: Tape,
    buf: GradBuffer,
    loss: f32,
}

/// [`train_binary`] with an explicit worker cap (`0` = the shared pool
/// policy, `1` = sequential) — the seam the determinism tests and benches
/// pin.
///
/// Worker-count invariance holds by construction: shard boundaries are
/// multiples of the constant [`TRAIN_SHARD`], each shard differentiates
/// into its own [`GradBuffer`] (threads never touch the store), and the
/// caller's thread folds the buffers into the store **in shard-index
/// order** before the Adam step. The worker count only decides which
/// thread computes a shard, never what is computed or in what order it is
/// reduced, so the fitted parameters are bit-identical for every cap.
///
/// # Panics
///
/// Panics on empty or mismatched inputs, or when `logit_fn` returns a
/// logit count that disagrees with the shard size.
pub fn train_binary_sharded<S: Sync>(
    store: &mut ParamStore,
    samples: &[S],
    labels: &[u8],
    config: &TrainConfig,
    frozen: &[ParamId],
    max_workers: usize,
    logit_fn: impl Fn(&mut Tape, &ParamStore, &[&S]) -> Var + Sync,
) -> f32 {
    assert_eq!(samples.len(), labels.len(), "sample/label mismatch");
    assert!(!samples.is_empty(), "cannot train on an empty set");
    let bs = config.batch_size.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let max_shards = bs.div_ceil(TRAIN_SHARD);
    let mut slots: Vec<ShardSlot> = (0..max_shards)
        .map(|_| ShardSlot {
            tape: Tape::new(),
            buf: store.grad_buffer(),
            loss: 0.0,
        })
        .collect();
    let mut batch: Vec<&S> = Vec::with_capacity(bs);
    let mut targets: Vec<f32> = Vec::with_capacity(bs);
    let mut epoch_loss = 0.0f32;
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        epoch_loss = 0.0;
        for chunk in order.chunks(bs) {
            batch.clear();
            targets.clear();
            for &i in chunk {
                batch.push(&samples[i]);
                targets.push(labels[i] as f32);
            }
            let n_shards = chunk.len().div_ceil(TRAIN_SHARD);
            let batch_len = chunk.len();
            {
                // Shared refs only — the closure runs on worker threads.
                let (batch, targets, store, logit_fn) = (&batch, &targets, &*store, &logit_fn);
                let run_shard = move |s: usize, slot: &mut ShardSlot| {
                    let lo = s * TRAIN_SHARD;
                    let hi = (lo + TRAIN_SHARD).min(batch_len);
                    slot.tape.reset();
                    slot.buf.zero();
                    let z = logit_fn(&mut slot.tape, store, &batch[lo..hi]);
                    assert_eq!(
                        slot.tape.value(z).len(),
                        hi - lo,
                        "batched logit_fn must return one logit per sample"
                    );
                    // Denominator = the FULL batch size, so shard losses
                    // and gradients sum to the whole-batch mean.
                    let loss =
                        slot.tape
                            .bce_with_logits_batch_scaled(z, &targets[lo..hi], batch_len);
                    slot.loss = slot.tape.value(loss).item();
                    slot.tape.backward_into(loss, &mut slot.buf);
                };
                let workers = match max_workers {
                    0 => par::pool_size(n_shards),
                    w => w.min(n_shards).max(1),
                };
                let active = &mut slots[..n_shards];
                if workers <= 1 {
                    for (s, slot) in active.iter_mut().enumerate() {
                        run_shard(s, slot);
                    }
                } else {
                    let per = n_shards.div_ceil(workers);
                    std::thread::scope(|scope| {
                        for (w, group) in active.chunks_mut(per).enumerate() {
                            let run_shard = &run_shard;
                            scope.spawn(move || {
                                for (k, slot) in group.iter_mut().enumerate() {
                                    run_shard(w * per + k, slot);
                                }
                            });
                        }
                    });
                }
            }
            // Fixed-order reduction on this thread: shard gradients fold
            // into the store in shard-index order, then one Adam step —
            // the mean loss's 1/B factor is already in the shard scaling.
            store.zero_grads();
            let mut batch_loss = 0.0f32;
            for slot in &slots[..n_shards] {
                store.add_grad_buffer(&slot.buf);
                batch_loss += slot.loss;
            }
            epoch_loss += batch_loss * chunk.len() as f32;
            if frozen.is_empty() {
                store.adam_step(config.learning_rate, 1);
            } else {
                store.adam_step_masked(config.learning_rate, 1, frozen);
            }
        }
        epoch_loss /= samples.len() as f32;
    }
    epoch_loss
}

/// Row-wise training baseline: a fresh [`Tape`] and a full
/// forward/backward per sample, gradients summed across the chunk, one
/// Adam step per mini-batch. Its only use is as the baseline the
/// `nn_throughput` bench compares [`train_binary`] against.
pub fn train_binary_per_sample<S>(
    store: &mut ParamStore,
    samples: &[S],
    labels: &[u8],
    config: &TrainConfig,
    frozen: &[ParamId],
    mut logit_fn: impl FnMut(&mut Tape, &ParamStore, &S) -> Var,
) -> f32 {
    assert_eq!(samples.len(), labels.len(), "sample/label mismatch");
    assert!(!samples.is_empty(), "cannot train on an empty set");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut epoch_loss = 0.0f32;
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        epoch_loss = 0.0;
        for chunk in order.chunks(config.batch_size.max(1)) {
            store.zero_grads();
            for &i in chunk {
                let mut tape = Tape::new();
                let z = logit_fn(&mut tape, store, &samples[i]);
                let loss = tape.bce_with_logit(z, labels[i] as f32);
                epoch_loss += tape.value(loss).item();
                tape.backward(loss, store);
            }
            if frozen.is_empty() {
                store.adam_step(config.learning_rate, chunk.len());
            } else {
                store.adam_step_masked(config.learning_rate, chunk.len(), frozen);
            }
        }
        epoch_loss /= samples.len() as f32;
    }
    epoch_loss
}

/// Flattens a gathered mini-batch of equal-width dense samples into one
/// `(B, d)` input tensor on the tape — the entry point of every truly
/// batched dense forward (ESCORT's trunk, the `nn_throughput` bench).
///
/// # Panics
///
/// Panics on an empty batch or ragged sample widths.
pub fn batch_input(tape: &mut Tape, batch: &[&Vec<f32>]) -> Var {
    assert!(!batch.is_empty(), "cannot batch zero samples");
    let d = batch[0].len();
    let mut data = Vec::with_capacity(batch.len() * d);
    for x in batch {
        assert_eq!(x.len(), d, "ragged batch rows");
        data.extend_from_slice(x);
    }
    tape.input(Tensor::from_vec(&[batch.len(), d], data))
}

/// Flattens per-contract window lists into training samples: each of a
/// contract's first `cap` windows carries the contract's label (chunked
/// fine-tuning). Shared by the GPT-2 and T5 trainers.
pub(crate) fn label_windows<'a>(
    xs: &'a [Vec<Vec<u32>>],
    y: &[u8],
    cap: usize,
) -> (Vec<&'a Vec<u32>>, Vec<u8>) {
    xs.iter()
        .zip(y)
        .flat_map(|(windows, &label)| windows.iter().take(cap).map(move |w| (w, label)))
        .unzip()
}

/// Averages flat per-window probabilities back to per-contract scores:
/// `probs` holds one probability per window of `xs`, flattened in contract
/// order, and each contract's score is the mean of its windows' entries in
/// window order (a contract with no windows scores the 0.5 prior). Shared
/// by the GPT-2 and T5 predictors.
///
/// # Panics
///
/// Panics if `probs` is shorter than the total window count.
pub fn aggregate_window_probs(xs: &[Vec<Vec<u32>>], probs: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(xs.len());
    let mut cursor = probs.iter();
    for windows in xs {
        if windows.is_empty() {
            out.push(0.5);
            continue;
        }
        let mut sum = 0.0f32;
        for _ in windows {
            sum += cursor.next().expect("window/prob alignment");
        }
        out.push(sum / windows.len() as f32);
    }
    out
}

/// Row-wise prediction baseline: `σ(logit)` per sample, one fresh tape
/// each. Its only use is as the baseline the `nn_throughput` bench
/// compares [`predict_binary_batch`] against.
pub fn predict_binary<S>(
    store: &ParamStore,
    samples: &[S],
    mut logit_fn: impl FnMut(&mut Tape, &ParamStore, &S) -> Var,
) -> Vec<f32> {
    samples
        .iter()
        .map(|s| {
            let mut tape = Tape::new();
            let z = logit_fn(&mut tape, store, s);
            let v = tape.value(z).data()[0];
            1.0 / (1.0 + (-v).exp())
        })
        .collect()
}

/// Batched inference, the predict path of every deep model: chunks
/// `samples` into `batch_size` groups, records each group on one
/// arena-reused tape through the batched `logit_fn` (`(B, 1)` logits out),
/// and applies the sigmoid per row. Because every kernel fixes its per-row
/// accumulation order, a sample's probability is bit-identical for any
/// batch size and any batch companions.
///
/// # Panics
///
/// Panics when `logit_fn` returns a logit count that disagrees with the
/// chunk size.
pub fn predict_binary_batch<S>(
    store: &ParamStore,
    samples: &[S],
    batch_size: usize,
    mut logit_fn: impl FnMut(&mut Tape, &ParamStore, &[&S]) -> Var,
) -> Vec<f32> {
    let bs = batch_size.max(1);
    let mut tape = Tape::new();
    let mut batch: Vec<&S> = Vec::with_capacity(bs);
    let mut out = Vec::with_capacity(samples.len());
    for chunk in samples.chunks(bs) {
        batch.clear();
        batch.extend(chunk.iter());
        tape.reset();
        let z = logit_fn(&mut tape, store, &batch);
        assert_eq!(
            tape.value(z).len(),
            chunk.len(),
            "batched logit_fn must return one logit per sample"
        );
        out.extend(
            tape.value(z)
                .data()
                .iter()
                .map(|&v| 1.0 / (1.0 + (-v).exp())),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_nn::{Linear, Tensor};

    #[test]
    fn trains_a_linear_probe() {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut store, 2, 1, &mut rng);
        let samples: Vec<Vec<f32>> = (0..100)
            .map(|i| vec![(i % 2) as f32, 1.0 - (i % 2) as f32])
            .collect();
        let labels: Vec<u8> = (0..100).map(|i| (i % 2) as u8).collect();
        let cfg = TrainConfig {
            epochs: 30,
            learning_rate: 0.05,
            ..Default::default()
        };
        let loss = train_binary(&mut store, &samples, &labels, &cfg, &[], |t, s, batch| {
            let xv = batch_input(t, batch);
            lin.forward(t, s, xv)
        });
        assert!(loss < 0.1, "loss = {loss}");
        let probs = predict_binary(&store, &samples, |t, s, x| {
            let xv = t.input(Tensor::from_vec(&[1, 2], x.clone()));
            lin.forward(t, s, xv)
        });
        let acc = probs
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(acc >= 98);
    }

    #[test]
    fn batched_predict_matches_rowwise_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let lin = Linear::new(&mut store, 3, 1, &mut rng);
        let samples: Vec<Vec<f32>> = (0..37)
            .map(|i| vec![i as f32 * 0.1, 1.0 - i as f32 * 0.05, (i % 3) as f32])
            .collect();
        let rowwise = predict_binary(&store, &samples, |t, s, x| {
            let xv = t.input(Tensor::from_vec(&[1, 3], x.clone()));
            lin.forward(t, s, xv)
        });
        // Odd batch size that does not divide the sample count: the final
        // ragged chunk exercises the partial-batch path.
        for bs in [1usize, 5, 64] {
            let batched = predict_binary_batch(&store, &samples, bs, |t, s, batch| {
                let xv = batch_input(t, batch);
                lin.forward(t, s, xv)
            });
            assert_eq!(
                batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rowwise.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "batch size {bs}"
            );
        }
    }

    #[test]
    fn batched_and_per_sample_loops_both_learn() {
        // Same task, both loops: the batched trainer's gradient
        // accumulation order differs, its learning outcome must not.
        let samples: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![(i % 2) as f32, 1.0 - (i % 2) as f32])
            .collect();
        let labels: Vec<u8> = (0..60).map(|i| (i % 2) as u8).collect();
        let cfg = TrainConfig {
            epochs: 25,
            learning_rate: 0.05,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut store_b = ParamStore::new();
        let lin_b = Linear::new(&mut store_b, 2, 1, &mut rng);
        let batched_loss =
            train_binary(&mut store_b, &samples, &labels, &cfg, &[], |t, s, batch| {
                let xv = batch_input(t, batch);
                lin_b.forward(t, s, xv)
            });
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut store_p = ParamStore::new();
        let lin_p = Linear::new(&mut store_p, 2, 1, &mut rng);
        let per_sample_loss = train_binary_per_sample(
            &mut store_p,
            &samples,
            &labels,
            &cfg,
            &[],
            |t, s, x: &Vec<f32>| {
                let xv = t.input(Tensor::from_vec(&[1, 2], x.clone()));
                lin_p.forward(t, s, xv)
            },
        );
        assert!(batched_loss < 0.1, "batched loss = {batched_loss}");
        assert!(per_sample_loss < 0.1, "per-sample loss = {per_sample_loss}");
    }

    #[test]
    fn sharded_training_is_worker_count_invariant() {
        // 50 samples at batch 48 → one 3-shard batch plus a ragged
        // 2-sample one; the fitted parameters (bytes of export_tensors)
        // must be bit-identical for every worker cap, including the auto
        // policy.
        let samples: Vec<Vec<f32>> = (0..50)
            .map(|i| vec![(i % 2) as f32, 1.0 - (i % 2) as f32, (i % 5) as f32 * 0.25])
            .collect();
        let labels: Vec<u8> = (0..50).map(|i| (i % 2) as u8).collect();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 48,
            ..Default::default()
        };
        let fit = |workers: usize| -> (Vec<u8>, f32) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let mut store = ParamStore::new();
            let lin = Linear::new(&mut store, 3, 1, &mut rng);
            let loss = train_binary_sharded(
                &mut store,
                &samples,
                &labels,
                &cfg,
                &[],
                workers,
                |t, s, batch| {
                    let xv = batch_input(t, batch);
                    lin.forward(t, s, xv)
                },
            );
            (store.export_tensors(), loss)
        };
        let (params_1, loss_1) = fit(1);
        for workers in [2usize, 3, 5, 0] {
            let (params_w, loss_w) = fit(workers);
            assert_eq!(params_w, params_1, "workers {workers}");
            assert_eq!(loss_w.to_bits(), loss_1.to_bits(), "workers {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "sample/label mismatch")]
    fn mismatched_lengths_panic() {
        let mut store = ParamStore::new();
        train_binary(
            &mut store,
            &[1.0f32],
            &[0, 1],
            &TrainConfig::default(),
            &[],
            |t, _, _| t.input(Tensor::from_vec(&[1, 1], vec![0.0])),
        );
    }
}
