//! The per-generation verdict memo: each distinct bytecode is scored
//! once per model generation.
//!
//! Phishing contracts are mostly clones (the paper's Fig. 2 counts 17,455
//! phishing deployments behind 3,458 unique bytecodes), so a wallet or an
//! indexer meets the same codes again and again. A verdict is a pure
//! function of (generation, bytes) — the
//! [`CodeScorer`](phishinghook::CodeScorer) contract — so
//! answering a repeat from a memo is exact, not an approximation.
//!
//! * **Where it lives.** Each generation of a
//!   [`ModelSlot`](crate::ModelSlot) carries its own [`VerdictMemo`], and
//!   every install starts an empty one, so a verdict is only ever
//!   answered under the generation that scored it. The server consults it
//!   at ingress ([`VerdictMemo::plan`]): hits never enter the queue, and
//!   the distinct misses go through in one submission.
//! * **The key.** [`code_key`] is SipHash-1-3 in its 128-bit output mode
//!   under a secret key drawn once per process from std's
//!   [`RandomState`] (which the OS random source seeds). An unkeyed hash
//!   would let an attacker craft a phishing contract that collides with a
//!   benign one already cached and inherit its verdict; under a secret
//!   key, and with the hash never leaving the process, a collision costs
//!   about 2^64 blind tries. SipHash-1-3 is the round count std's
//!   `HashMap` relies on against chosen-key attacks; SipHash-2-4 would
//!   double the hashing cost (≈350 vs ≈185 ns per 593 B contract) and
//!   push the memo's overhead on a stream with no repeats past 2% of
//!   scoring. Full-byte keys would need no secret, but cost ≈600 B each
//!   instead of 16.
//! * **The bound.** At most [`MEMO_CAP`] entries; filing one more clears
//!   the table first (reset when full). The cap is the most a
//!   [`MEMO_BUCKETS`]-bucket table holds at its 7/8 load limit, so the
//!   table never grows past those buckets: with the server's 32-byte
//!   [`CascadeVerdict`](phishinghook::CascadeVerdict), a 48-byte entry and
//!   one control byte per bucket, that is 16,384 × 49 + 16 = 802,832
//!   bytes (≈0.77 MiB) per live generation at worst. A replaced
//!   generation's memo is freed once its last in-flight request finishes.

use phishinghook_evm::Bytecode;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::{Mutex, OnceLock};

/// Buckets the memo's table may reach: a power of two, sized so the
/// worst case stays under a 1 MiB budget.
pub const MEMO_BUCKETS: usize = 1 << 14;

/// Most verdicts one generation's memo holds: the load limit of
/// [`MEMO_BUCKETS`] buckets. Filing beyond it resets the memo.
pub const MEMO_CAP: usize = MEMO_BUCKETS / 8 * 7;

/// A contract's memo key: [`code_key`] of its bytes.
pub type CodeKey = u128;

/// The per-process SipHash key, drawn on first use.
fn process_key() -> (u64, u64) {
    static KEY: OnceLock<(u64, u64)> = OnceLock::new();
    *KEY.get_or_init(|| {
        let seed = RandomState::new();
        (seed.hash_one(0u64), seed.hash_one(1u64))
    })
}

/// SipHash's round function over the state `v`.
#[inline(always)]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-c-d of `bytes` under `(k0, k1)` in its 128-bit output mode.
fn siphash128<const C: usize, const D: usize>(k0: u64, k1: u64, bytes: &[u8]) -> u128 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut compress = |m: u64| {
        v[3] ^= m;
        for _ in 0..C {
            sip_round(&mut v);
        }
        v[0] ^= m;
    };
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for word in words {
        compress(u64::from_le_bytes(word.try_into().expect("an 8-byte word")));
    }
    // The last word carries the tail bytes and the length's low byte.
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    last[7] = bytes.len() as u8;
    compress(u64::from_le_bytes(last));
    v[2] ^= 0xee;
    for _ in 0..D {
        sip_round(&mut v);
    }
    let lo = v[0] ^ v[1] ^ v[2] ^ v[3];
    v[1] ^= 0xdd;
    for _ in 0..D {
        sip_round(&mut v);
    }
    let hi = v[0] ^ v[1] ^ v[2] ^ v[3];
    u128::from(lo) | (u128::from(hi) << 64)
}

/// The memo key of a contract's code bytes: keyed SipHash-1-3-128 under
/// the per-process key (see the [module docs](self)).
pub fn code_key(bytes: &[u8]) -> CodeKey {
    let (k0, k1) = process_key();
    siphash128::<1, 3>(k0, k1, bytes)
}

/// The table's hasher: a [`CodeKey`] is already a keyed pseudo-random
/// value, so its low 64 bits serve as the bucket hash without a second
/// pass over anything. Requests cannot aim codes at one bucket any more
/// than under std's default hasher: that would take the secret key.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a CodeKey hashes through write_u128 alone")
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = key as u64;
    }
}

type KeyMap<V> = HashMap<CodeKey, V, BuildHasherDefault<KeyHasher>>;

/// One generation's bounded map from [`code_key`] to verdict.
pub struct VerdictMemo<O> {
    map: Mutex<KeyMap<O>>,
}

impl<O> Default for VerdictMemo<O> {
    fn default() -> Self {
        VerdictMemo {
            map: Mutex::new(KeyMap::default()),
        }
    }
}

/// One request's reuse plan, from [`VerdictMemo::plan`]: the hits it
/// already answers and the distinct misses still to score.
pub struct ReusePlan<O> {
    /// Per input position: the memo's verdict, or the index of the
    /// position's code among the misses.
    answers: Vec<Result<O, usize>>,
    misses: Vec<Bytecode>,
    miss_keys: Vec<CodeKey>,
}

impl<O: Copy> ReusePlan<O> {
    /// The distinct codes the memo did not answer, in first-seen order;
    /// score them and pass the verdicts to [`ReusePlan::finish`].
    pub fn take_misses(&mut self) -> Vec<Bytecode> {
        std::mem::take(&mut self.misses)
    }

    /// The keys of the misses, index for index.
    pub fn miss_keys(&self) -> &[CodeKey] {
        &self.miss_keys
    }

    /// Contracts answered without their own scoring: memo hits plus
    /// repeats of a miss within the same request.
    pub fn hits(&self) -> usize {
        self.answers.len() - self.miss_keys.len()
    }

    /// Every contract's verdict in input order, given the misses' scores.
    ///
    /// # Panics
    ///
    /// Panics if `scored` holds fewer verdicts than there were misses.
    pub fn finish(self, scored: &[O]) -> Vec<O> {
        self.answers
            .into_iter()
            .map(|answer| answer.unwrap_or_else(|miss| scored[miss]))
            .collect()
    }
}

impl<O: Copy> VerdictMemo<O> {
    /// Verdicts held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo lock poisoned").len()
    }

    /// `true` while nothing has been filed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys `codes`, answers what the memo holds and dedupes the rest.
    /// The keys are computed before the lock is taken.
    pub fn plan(&self, codes: Vec<Bytecode>) -> ReusePlan<O> {
        let keys: Vec<CodeKey> = codes.iter().map(|c| code_key(c.as_bytes())).collect();
        let mut answers = Vec::with_capacity(codes.len());
        let mut misses = Vec::with_capacity(codes.len());
        let mut miss_keys = Vec::with_capacity(codes.len());
        // Each distinct miss's index among the misses.
        let mut first_seen = KeyMap::with_capacity_and_hasher(codes.len(), Default::default());
        let map = self.map.lock().expect("memo lock poisoned");
        for (code, key) in codes.into_iter().zip(keys) {
            if let Some(&verdict) = map.get(&key) {
                answers.push(Ok(verdict));
                continue;
            }
            let miss = *first_seen.entry(key).or_insert_with(|| {
                miss_keys.push(key);
                misses.push(code);
                miss_keys.len() - 1
            });
            answers.push(Err(miss));
        }
        ReusePlan {
            answers,
            misses,
            miss_keys,
        }
    }

    /// Files `verdicts` under `keys`, index for index, clearing the memo
    /// first whenever it is full.
    pub fn file(&self, keys: &[CodeKey], verdicts: &[O]) {
        let mut map = self.map.lock().expect("memo lock poisoned");
        for (&key, &verdict) in keys.iter().zip(verdicts) {
            if map.len() >= MEMO_CAP {
                map.clear();
            }
            map.insert(key, verdict);
        }
    }
}

/// Cumulative reuse counters of a server, as `/healthz` reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseStats {
    /// Served contracts answered without their own queue job: memo hits
    /// and in-request repeats of a miss.
    pub hits: u64,
    /// Distinct misses sent through the queue and answered.
    pub misses: u64,
    /// Verdicts the live generation's memo holds.
    pub entries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::CascadeVerdict;

    /// SipHash-2-4 in its 64-bit output mode, for checking the shared
    /// round function and message padding against std's `SipHasher`.
    fn siphash64_2_4(k0: u64, k1: u64, bytes: &[u8]) -> u64 {
        let mut v = [
            k0 ^ 0x736f_6d65_7073_6575,
            k1 ^ 0x646f_7261_6e64_6f6d,
            k0 ^ 0x6c79_6765_6e65_7261,
            k1 ^ 0x7465_6462_7974_6573,
        ];
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len() / 8 * 8 + 8, 0);
        let last = padded.len() - 8;
        padded[last + 7] = bytes.len() as u8;
        for word in padded.chunks_exact(8) {
            let m = u64::from_le_bytes(word.try_into().unwrap());
            v[3] ^= m;
            sip_round(&mut v);
            sip_round(&mut v);
            v[0] ^= m;
        }
        v[2] ^= 0xff;
        for _ in 0..4 {
            sip_round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    #[test]
    fn siphash_matches_the_reference_vectors() {
        let (k0, k1) = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        // SipHash-2-4-128 of the empty message under key 00..0f (the
        // reference implementation's first 128-bit vector).
        assert_eq!(
            siphash128::<2, 4>(k0, k1, &[]).to_le_bytes(),
            [
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93
            ]
        );
        #[allow(deprecated)]
        for n in 0..40u8 {
            let msg: Vec<u8> = (0..n).collect();
            let mut std_sip = std::hash::SipHasher::new_with_keys(k0, k1);
            std_sip.write(&msg);
            assert_eq!(siphash64_2_4(k0, k1, &msg), std_sip.finish(), "len {n}");
        }
    }

    #[test]
    fn keys_separate_lengths_and_bytes() {
        let codes: [&[u8]; 5] = [&[], &[0], &[0, 0], &[1], &[0; 8]];
        for (i, a) in codes.iter().enumerate() {
            assert_eq!(code_key(a), code_key(a));
            for b in &codes[i + 1..] {
                assert_ne!(code_key(a), code_key(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn worst_case_table_fits_the_budget() {
        let entry = std::mem::size_of::<(CodeKey, CascadeVerdict)>();
        assert_eq!(entry, 48);
        assert_eq!(MEMO_BUCKETS * (entry + 1) + 16, 802_832);
        assert!(MEMO_BUCKETS * (entry + 1) + 16 <= 1 << 20);

        let memo = VerdictMemo::<u32>::default();
        let keys: Vec<CodeKey> = (0..MEMO_CAP as u128).collect();
        let values: Vec<u32> = (0..MEMO_CAP as u32).collect();
        memo.file(&keys, &values);
        {
            let map = memo.map.lock().unwrap();
            assert_eq!(map.len(), MEMO_CAP);
            // Still the MEMO_BUCKETS table: its usable capacity is the cap.
            assert_eq!(map.capacity(), MEMO_CAP);
        }
        // One more resets the memo rather than growing it.
        memo.file(&[u128::MAX], &[7]);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.map.lock().unwrap().capacity(), MEMO_CAP);
    }

    #[test]
    fn plan_dedupes_misses_and_answers_hits() {
        let memo = VerdictMemo::<u32>::default();
        let code = |b: u8| Bytecode::new(vec![b; 3]);
        memo.file(&[code_key(code(1).as_bytes())], &[10]);
        let mut plan = memo.plan(vec![code(2), code(1), code(3), code(2), code(1)]);
        let misses = plan.take_misses();
        assert_eq!(misses, vec![code(2), code(3)]);
        assert_eq!(plan.hits(), 3);
        assert_eq!(plan.finish(&[20, 30]), vec![20, 10, 30, 20, 10]);
    }
}
