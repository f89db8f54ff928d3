//! Minimal neural-network substrate: tensors, tape-based reverse-mode
//! autodiff, layers and an Adam optimizer.
//!
//! The paper trains its deep models with PyTorch on CUDA GPUs; this crate is
//! the from-scratch CPU replacement. It implements exactly the operator set
//! the six models need — dense algebra and attention for the transformers
//! (ViT, GPT-2, T5), a GRU for SCSGuard, and small (grouped) convolutions
//! with ECA channel attention for the EfficientNet-style CNN — with gradient
//! correctness validated against finite differences. Matrix products run
//! on the blocked `phishinghook_linalg::gemm` kernels and the tape
//! recycles its value buffers across mini-batches (`Tape::reset`), so the
//! batched training loop in `phishinghook-models` re-records each batch's
//! forward pass without touching the allocator (backward gradient buffers
//! are still allocated per batch).
//!
//! # Examples
//!
//! Train a one-parameter model end to end:
//!
//! ```
//! use phishinghook_nn::{ParamStore, Tape, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.param(Tensor::from_vec(&[1, 1], vec![0.0]));
//! for _ in 0..100 {
//!     let mut tape = Tape::new();
//!     let wv = tape.param(&store, w);
//!     let x = tape.input(Tensor::from_vec(&[1, 1], vec![1.0]));
//!     let z = tape.matmul(x, wv);
//!     let loss = tape.bce_with_logit(z, 1.0);
//!     store.zero_grads();
//!     tape.backward(loss, &mut store);
//!     store.adam_step(0.1, 1);
//! }
//! assert!(store.value(w).data()[0] > 1.0); // logit pushed towards +inf
//! ```

#![warn(missing_docs)]

pub mod kernels;
pub mod layers;
pub mod params;
pub mod tape;
pub mod tensor;

pub use layers::{
    mean_pool, BlockInference, Gru, LayerNorm, Linear, MultiHeadAttention, TransformerBlock,
};
pub use params::{GradBuffer, ParamId, ParamStore};
pub use tape::{Tape, Var};
pub use tensor::Tensor;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]

        /// Adam steps keep parameters finite for any reasonable gradient.
        #[test]
        fn adam_stays_finite(seed in 0u64..1000, lr in 0.001f32..0.5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let w = store.param(Tensor::random(&[4, 4], 1.0, &mut rng));
            for _ in 0..20 {
                store.zero_grads();
                let mut t = Tape::new();
                let wv = t.param(&store, w);
                let x = t.input(Tensor::random(&[1, 4], 1.0, &mut rng));
                let h = t.matmul(x, wv);
                let w2 = t.input(Tensor::random(&[4, 1], 1.0, &mut rng));
                let z = t.matmul(h, w2);
                let loss = t.bce_with_logit(z, 1.0);
                t.backward(loss, &mut store);
                store.adam_step(lr, 1);
            }
            prop_assert!(store.value(w).data().iter().all(|v| v.is_finite()));
        }

        /// Any randomly shaped, randomly valued parameter store survives
        /// the flat tensor export/import round trip bit-exactly.
        #[test]
        fn param_export_round_trips(seed in 0u64..500, n_tensors in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let mut twin = ParamStore::new();
            for k in 0..n_tensors {
                let shape = [1 + (seed as usize + k) % 4, 1 + k];
                store.param(Tensor::random(&shape, 3.0, &mut rng));
                twin.param(Tensor::zeros(&shape));
            }
            twin.import_tensors(&store.export_tensors()).unwrap();
            for i in 0..store.len() {
                let id = ParamId(i);
                let a: Vec<u32> = store.value(id).data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = twin.value(id).data().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(a, b);
            }
        }

        /// The tape-free block stack, final norm, mean pool and head over
        /// several stacked sequences equal the tape forward on each
        /// sequence alone, bit for bit, for any head count, depth, mask
        /// and mix of sequence lengths.
        #[test]
        fn tape_free_forward_matches_tape(
            seed in 0u64..1000,
            heads in 1usize..5,
            head_dim in 1usize..5,
            depth in 1usize..4,
            context in 1usize..10,
            lens in proptest::collection::vec(0usize..10, 1..6),
            causal in any::<bool>(),
        ) {
            let d = heads * head_dim;
            let lens: Vec<usize> = lens.iter().map(|&l| 1 + l % context).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let blocks: Vec<TransformerBlock> = (0..depth)
                .map(|_| TransformerBlock::new(&mut store, d, heads, &mut rng))
                .collect();
            let norm = LayerNorm::new(&mut store, d);
            let head = Linear::new(&mut store, d, 1, &mut rng);
            // Randomize every weight, so the norms' gains and offsets and
            // the zero-initialized biases take part too.
            let mut twin = ParamStore::new();
            for i in 0..store.len() {
                let shape = store.value(ParamId(i)).shape().to_vec();
                twin.param(Tensor::random(&shape, 0.8, &mut rng));
            }
            store.import_tensors(&twin.export_tensors()).unwrap();
            let seqs: Vec<Tensor> = lens
                .iter()
                .map(|&l| Tensor::random(&[l, d], 1.5, &mut rng))
                .collect();

            let mut want_rows = Vec::new();
            let mut want_logits = Vec::new();
            for seq in &seqs {
                let mut t = Tape::new();
                let mut x = t.input(seq.clone());
                for block in &blocks {
                    x = block.forward(&mut t, &store, x, causal);
                }
                want_rows.extend_from_slice(t.value(x).data());
                let x = norm.forward(&mut t, &store, x);
                let pooled = t.mean_rows(x);
                let z = head.forward(&mut t, &store, pooled);
                want_logits.push(t.value(z).item());
            }

            let mut x: Vec<f32> = seqs.iter().flat_map(|s| s.data().to_vec()).collect();
            for block in &blocks {
                block.inference(&store).forward(&mut x, &lens, causal);
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&x), bits(&want_rows));
            let mut normed = vec![0.0; x.len()];
            norm.forward_rows(&store, &x, &mut normed);
            let pooled = mean_pool(&normed, &lens, d);
            let mut logits = vec![0.0; lens.len()];
            head.forward_rows(&store, &pooled, &mut logits);
            prop_assert_eq!(bits(&logits), bits(&want_logits));
        }

        /// Softmax rows of any 2-D input sum to one.
        #[test]
        fn softmax_rows_sum_to_one(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tape::new();
            let x = t.input(Tensor::random(&[rows, cols], 5.0, &mut rng));
            let s = t.softmax_rows(x);
            let v = t.value(s);
            for r in 0..rows {
                let sum: f32 = v.data()[r * cols..(r + 1) * cols].iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }
}
