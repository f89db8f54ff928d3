//! Batch-level view over per-contract disassembly caches.
//!
//! The evaluation engine decodes a dataset exactly once into a
//! [`CacheBatch`] and then *slices* it per fold: [`CacheBatch::select`]
//! hands out borrowed [`DisasmCache`] references for an index set without
//! cloning op tables or bytecode, so a (model, run, fold) trial costs a
//! pointer gather instead of a re-decode.
//!
//! # Examples
//!
//! ```
//! use phishinghook_evm::{Bytecode, CacheBatch};
//!
//! let codes = vec![Bytecode::new(vec![0x01]), Bytecode::new(vec![0x60, 0x80])];
//! let batch = CacheBatch::build(&codes);
//! let fold = batch.select(&[1]);
//! assert_eq!(fold.len(), 1);
//! assert_eq!(fold[0].op_count(), 1); // PUSH1 0x80
//! ```

use crate::bytecode::Bytecode;
use crate::cache::DisasmCache;

/// A dataset's worth of [`DisasmCache`]s, decoded once and sliced by index
/// thereafter.
#[derive(Debug, Clone, Default)]
pub struct CacheBatch {
    caches: Vec<DisasmCache>,
}

impl CacheBatch {
    /// Decodes every bytecode once, in order. One decode per contract is
    /// recorded on the global [`decode_count`](crate::decode_count).
    pub fn build(codes: &[Bytecode]) -> Self {
        CacheBatch {
            caches: DisasmCache::build_batch(codes),
        }
    }

    /// Wraps caches that were already built (e.g. by a parallel pass).
    pub fn from_caches(caches: Vec<DisasmCache>) -> Self {
        CacheBatch { caches }
    }

    /// Number of contracts in the batch.
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// `true` when the batch holds no contracts.
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// All caches, in sample order.
    pub fn as_slice(&self) -> &[DisasmCache] {
        &self.caches
    }

    /// One contract's cache.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> &DisasmCache {
        &self.caches[index]
    }

    /// Zero-copy fold slice: borrowed caches for `indices`, in index order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Vec<&DisasmCache> {
        indices.iter().map(|&i| &self.caches[i]).collect()
    }

    /// Total bytecode bytes across the batch.
    pub fn total_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.bytes().len()).sum()
    }
}

impl std::ops::Index<usize> for CacheBatch {
    type Output = DisasmCache;

    fn index(&self, index: usize) -> &DisasmCache {
        &self.caches[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> CacheBatch {
        CacheBatch::build(&[
            Bytecode::new(vec![0x01]),
            Bytecode::new(vec![0x60, 0x80, 0x52]),
            Bytecode::new(vec![]),
        ])
    }

    #[test]
    fn select_is_zero_copy_and_ordered() {
        let b = batch();
        let slice = b.select(&[2, 0]);
        assert_eq!(slice.len(), 2);
        assert!(std::ptr::eq(slice[0], b.get(2)));
        assert!(std::ptr::eq(slice[1], b.get(0)));
    }

    #[test]
    fn totals_aggregate_the_batch() {
        let b = batch();
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_bytes(), 4);
        assert_eq!(b[1].op_count(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_select_panics() {
        batch().select(&[7]);
    }
}
