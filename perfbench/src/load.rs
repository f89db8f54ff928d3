//! Seeded inputs: the contract mix, the backfill batches and the
//! open-loop arrival schedule. The same seed always gives the same
//! inputs; the program under test only ever sees the generated bytes.
//!
//! Contracts are deployments of the repository's synthetic corpus
//! (`phishinghook_synth::generate_corpus`), so the family mixture is the
//! one the served model was trained on: a month-dependent phishing
//! mixture, a benign mixture in which EIP-1167 minimal proxies
//! (`synth::minimal_proxy`) are 15%, and the corpus's clone duplication.
//! The backfill batches add a large tail (see [`LARGE_EVERY`]) that the
//! corpus does not have.

use phishinghook_evm::Bytecode;
use phishinghook_synth::{
    generate_contract, generate_corpus, ContractClass, CorpusConfig, Difficulty, Family,
    SynthContract,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One generated contract with its ground-truth label (1 = phishing).
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Runtime bytecode.
    pub code: Bytecode,
    /// Ground truth: 1 for a phishing family, 0 otherwise.
    pub label: u8,
}

/// Contracts per `/predict_batch` request: the server's default
/// `max_batch`, so each request fills exactly one model batch. (The
/// per-request cap is 256, but the server's JSON string parse is
/// quadratic in the body length, which puts a 256-contract request near
/// 1.5 s on a 2-core host: too few per run to measure steadily.)
pub const BATCH: usize = 64;

/// Every this many backfill batches, one carries a contract of 16–22 KB
/// (the large tail below the EIP-170 cap of 24 KB): one in 256
/// contracts. The share is an unverified assumption, not a measured
/// mainnet figure; it keeps the largest bodies in every run.
pub const LARGE_EVERY: usize = 4;

/// Smallest and largest target size of a large-tail contract, in bytes.
pub const LARGE_BYTES: (usize, usize) = (16 * 1024, 22 * 1024);

/// Largest `/predict_batch` body the server accepts (its default cap).
pub const MAX_BODY: usize = 1 << 20;

fn label_of(family: Family) -> u8 {
    u8::from(family.class() == ContractClass::Phishing)
}

/// An endless, seeded stream of corpus deployments: small corpora, each
/// shuffled out of its month order, one after another. Corpus seeds are
/// derived from the stream's seed, never equal to the training corpus's
/// but for a 2^-64 chance.
pub struct Deployments {
    seed: u64,
    round: u64,
    rng: StdRng,
    pending: Vec<SynthContract>,
}

impl Deployments {
    /// The stream for `seed`; `salt` separates the streams of different
    /// inputs drawn from the same seed.
    pub fn new(seed: u64, salt: u64) -> Deployments {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        Deployments {
            seed,
            round: 0,
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
        }
    }

    /// The next deployment.
    fn next_deployment(&mut self) -> SynthContract {
        while self.pending.is_empty() {
            let corpus_seed = self
                .seed
                .wrapping_add(self.round.wrapping_mul(0xD1B5_4A32_D192_ED03));
            self.round += 1;
            self.pending = generate_corpus(&CorpusConfig::small(corpus_seed)).contracts;
            self.pending.shuffle(&mut self.rng);
        }
        self.pending.pop().expect("refilled above")
    }

    /// The next deployment, labelled by its family's ground truth.
    fn next_contract(&mut self) -> Contract {
        let d = self.next_deployment();
        Contract {
            code: d.bytecode,
            label: label_of(d.family),
        }
    }

    /// A large contract: whole bodies of the next non-proxy deployment's
    /// family and month, concatenated until the size reaches a target
    /// drawn from [`LARGE_BYTES`].
    fn large(&mut self) -> Contract {
        let d = loop {
            let d = self.next_deployment();
            if d.family != Family::MinimalProxy {
                break d;
            }
        };
        let target = self.rng.gen_range(LARGE_BYTES.0..=LARGE_BYTES.1);
        let mut bytes = d.bytecode.as_bytes().to_vec();
        while bytes.len() < target {
            let body = generate_contract(d.family, d.month, &Difficulty::default(), &mut self.rng);
            bytes.extend_from_slice(body.as_bytes());
        }
        Contract {
            code: Bytecode::new(bytes),
            label: label_of(d.family),
        }
    }
}

/// One batch: `n_large` large contracts and corpus deployments for the
/// rest, in seeded order.
pub fn batch(stream: &mut Deployments, n_large: usize) -> Vec<Contract> {
    let mut out: Vec<Contract> = (0..BATCH)
        .map(|i| {
            if i < n_large {
                stream.large()
            } else {
                stream.next_contract()
            }
        })
        .collect();
    out.shuffle(&mut stream.rng);
    out
}

/// `n` backfill batches for `seed`; every [`LARGE_EVERY`]-th carries one
/// large contract.
pub fn batches(seed: u64, n: usize) -> Vec<Vec<Contract>> {
    let mut stream = Deployments::new(seed, 0xBAC6_F111);
    (0..n)
        .map(|i| batch(&mut stream, usize::from(i % LARGE_EVERY == 0)))
        .collect()
}

/// A seeded order that serves every one of `len` items once per round,
/// for `rounds` rounds.
pub fn rounds(seed: u64, len: usize, rounds: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x20D5);
    (0..rounds)
        .flat_map(|_| {
            let mut round: Vec<usize> = (0..len).collect();
            round.shuffle(&mut rng);
            round
        })
        .collect()
}

/// The single-contract pool of the screening workload: `len` corpus
/// deployments without the large tail, which a wallet rarely screens and
/// which the backfill workload covers.
pub fn pool(seed: u64, len: usize) -> Vec<Contract> {
    let mut stream = Deployments::new(seed, 0x05C2_EE11);
    (0..len).map(|_| stream.next_contract()).collect()
}

/// The JSON body of a `/predict` request.
pub fn predict_body(code: &Bytecode) -> String {
    format!("{{\"bytecode\":\"{}\"}}", code.to_hex())
}

/// The JSON body of a `/predict_batch` request.
pub fn predict_batch_body(contracts: &[Contract]) -> String {
    let mut body = String::from("{\"contracts\":[");
    for (i, c) in contracts.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&c.code.to_hex());
        body.push('"');
    }
    body.push_str("]}");
    body
}

/// Open-loop Poisson arrivals at `rate` per second over `seconds`, as
/// offsets in seconds from the start, ascending.
pub fn poisson_arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA221_7A15);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// A seeded sequence of `n` indices into a pool of `len` items.
pub fn picks(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x91C4_5EED);
    (0..n).map(|_| rng.gen_range(0..len)).collect()
}
