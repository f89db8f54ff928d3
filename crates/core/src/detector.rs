//! The persistent serving layer: train once, score fresh contracts forever.
//!
//! The evaluation engine ([`mem`](crate::mem)) discards every model it
//! trains — the right shape for a cross-validation study, the wrong one for
//! the paper's motivating deployment, where a wallet fetches bytecode via
//! `eth_getCode` and must warn *before* the user signs. [`Detector::train`]
//! closes that gap: it runs the exact trait-dispatched training path of
//! [`evaluate_trial`](crate::mem::evaluate_trial) but keeps the fitted
//! [`Model`] together with the context's [`FittedEncoders`] (the lookup
//! tables alone — kilobytes, not the training-set matrices), producing an
//! artifact that scores new contracts indefinitely:
//!
//! * [`Detector::score_cache`] / [`Detector::score_batch`] — score decoded
//!   contracts; batches featurize across the worker pool and hit the model
//!   with one [`Model::predict_proba`] call;
//! * [`Detector::score_code`] / [`Detector::score_codes`] — decode **exactly
//!   once** per contract, then score;
//! * [`Detector::score_address`] — the full wallet-guard loop: `eth_getCode`
//!   → decode → encode → probability.
//!
//! A single-model detector featurizes under exactly the one [`Encoding`]
//! its model consumes (a histogram detector never pays for token windows); a
//! [`ModelZoo`] holds several trained kinds and shares each distinct encoding
//! across them, so one pass over a contract yields every model's [`Verdict`].
//!
//! # Examples
//!
//! ```
//! use phishinghook::detector::Detector;
//! use phishinghook::evalstore::EvalContext;
//! use phishinghook::prelude::*;
//!
//! let corpus = generate_corpus(&CorpusConfig::small(5));
//! let chain = SimulatedChain::from_corpus(&corpus);
//! let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
//! let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
//! let detector = Detector::train(&ctx, ModelKind::Knn, 7);
//!
//! // Screen a deployment the wallet user is about to interact with.
//! let rpc = RpcProvider::new(&chain);
//! let address = chain.records()[0].address;
//! let p = detector.score_address(&rpc, &address).unwrap();
//! assert!((0.0..=1.0).contains(&p));
//! ```

use crate::evalstore::EvalContext;
use crate::mem::{fit_kind, EvalProfile, ModelKind};
use crate::par::parallel_map;
use phishinghook_artifact::{
    ArtifactError, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter, OwnedArtifact,
};
use phishinghook_chain::{Address, RpcError, RpcProvider};
use phishinghook_evm::{Bytecode, DisasmCache};
use phishinghook_features::{Encoding, FeatureRow, FeatureVec, FittedEncoders};
use phishinghook_models::Model;
use std::path::Path;

/// Probability at or above which a score is reported as phishing.
pub const PHISHING_THRESHOLD: f32 = 0.5;

/// Serializes the capacity profile a model was built under (fixed field
/// order; the on-disk form is width-independent `u64`s).
fn write_profile(w: &mut ByteWriter, p: &EvalProfile) {
    for v in [
        p.image_side,
        p.nn_epochs,
        p.nn_dim,
        p.context,
        p.bigram_len,
        p.bigram_vocab,
        p.n_trees,
        p.boost_rounds,
        p.knn_k,
        p.linear_epochs,
        p.escort_dim,
    ] {
        w.put_usize(v);
    }
}

/// Inverse of [`write_profile`].
fn read_profile(r: &mut ByteReader<'_>) -> Result<EvalProfile, ArtifactError> {
    Ok(EvalProfile {
        image_side: r.take_usize()?,
        nn_epochs: r.take_usize()?,
        nn_dim: r.take_usize()?,
        context: r.take_usize()?,
        bigram_len: r.take_usize()?,
        bigram_vocab: r.take_usize()?,
        n_trees: r.take_usize()?,
        boost_rounds: r.take_usize()?,
        knn_k: r.take_usize()?,
        linear_epochs: r.take_usize()?,
        escort_dim: r.take_usize()?,
    })
}

/// Rebuilds a fitted model: the normal [`ModelKind::build`] factory under
/// the restored encoders/profile/seed, then state import — byte-for-byte
/// the training-side construction, which is what makes reloaded scores
/// bit-identical.
fn rebuild_model(
    kind: ModelKind,
    encoders: &FittedEncoders,
    profile: &EvalProfile,
    seed: u64,
    state: &[u8],
) -> Result<Box<dyn Model>, ArtifactError> {
    let mut model = kind.build(encoders, profile, seed);
    model.import_state(state)?;
    Ok(model)
}

/// A trained, persistent phishing detector: one fitted [`Model`] plus the
/// fitted encoder set it was trained under.
pub struct Detector {
    kind: ModelKind,
    encoding: Encoding,
    model: Box<dyn Model>,
    encoders: FittedEncoders,
    profile: EvalProfile,
    seed: u64,
    train_seconds: f64,
    trained_on: usize,
}

impl std::fmt::Debug for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Detector")
            .field("kind", &self.kind)
            .field("encoding", &self.encoding)
            .field("trained_on", &self.trained_on)
            .field("train_seconds", &self.train_seconds)
            .finish()
    }
}

impl Detector {
    /// Trains `kind` on every sample of `ctx` and returns the persistent
    /// artifact. This is the vendor-side "train once, ship" call.
    pub fn train(ctx: &EvalContext, kind: ModelKind, seed: u64) -> Detector {
        let all: Vec<usize> = (0..ctx.len()).collect();
        Detector::train_on(ctx, kind, &all, seed)
    }

    /// Trains `kind` on an index subset of `ctx` — the shape that pairs a
    /// detector with a cross-validation fold (the serving-parity tests
    /// train on a fold's training indices and score its held-out caches).
    ///
    /// Training is byte-for-byte the evaluation path: the same
    /// [`ModelKind::build`] factory, the same gathered store rows, the same
    /// optional pre-training phase, so a detector's scores are
    /// bit-identical to the trial that produced its metrics.
    ///
    /// # Panics
    ///
    /// Panics if `train_idx` is empty or holds an out-of-range index.
    pub fn train_on(
        ctx: &EvalContext,
        kind: ModelKind,
        train_idx: &[usize],
        seed: u64,
    ) -> Detector {
        Detector::train_with(ctx, kind, train_idx, ctx.profile(), seed)
    }

    /// [`Detector::train_on`] with capacity knobs overridden; `profile`
    /// must agree with the context's store on feature geometry (see
    /// [`evaluate_trial_with`](crate::mem::evaluate_trial_with)).
    ///
    /// # Panics
    ///
    /// Panics on an empty index slice or a feature-geometry mismatch.
    pub fn train_with(
        ctx: &EvalContext,
        kind: ModelKind,
        train_idx: &[usize],
        profile: &EvalProfile,
        seed: u64,
    ) -> Detector {
        let (model, train_seconds) = fit_kind(ctx, kind, train_idx, profile, seed);
        Detector {
            kind,
            encoding: kind.encoding(),
            model,
            encoders: ctx.store().encoders().clone(),
            profile: *profile,
            seed,
            train_seconds,
            trained_on: train_idx.len(),
        }
    }

    /// The trained model kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The one encoding this detector featurizes contracts under.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The capacity profile the model was trained with.
    pub fn profile(&self) -> &EvalProfile {
        &self.profile
    }

    /// Trainable parameter count of the underlying model (0 for classical
    /// models).
    pub fn parameter_count(&self) -> usize {
        self.model.parameter_count()
    }

    /// Wall-clock training time in seconds.
    pub fn train_seconds(&self) -> f64 {
        self.train_seconds
    }

    /// Number of samples the model was fitted on.
    pub fn trained_on(&self) -> usize {
        self.trained_on
    }

    /// The training seed (persisted so a reloaded artifact rebuilds its
    /// model through the identical factory call).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serializes the detector into its versioned artifact form: a `meta`
    /// section (kind, seed, profile, provenance), the fitted encoder
    /// lookup tables, and the model's fitted state — everything a fresh
    /// process needs to reproduce this detector's scores bit-for-bit, and
    /// nothing it does not (no training matrices).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_str(self.kind.id());
        meta.put_u64(self.seed);
        meta.put_usize(self.trained_on);
        meta.put_f64(self.train_seconds);
        write_profile(&mut meta, &self.profile);

        let mut artifact = ArtifactWriter::new();
        artifact.section("meta", meta.into_bytes());
        artifact.section("encoders", self.encoders.export_state());
        artifact.section("model", self.model.export_state());
        artifact.into_bytes()
    }

    /// Writes the artifact to a file — the "train once, ship" half of the
    /// two-process workflow (see `examples/train_then_serve.rs`).
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reconstructs a detector from [`Detector::to_bytes`] bytes.
    ///
    /// Cold-start parity guarantee: the model is rebuilt through the same
    /// [`ModelKind::build`] factory call as training (same restored
    /// encoders, profile and seed) and its fitted state is imported
    /// bit-exactly, so the loaded detector's scores equal the training
    /// process's scores bit-for-bit — enforced for every kind by
    /// `tests/artifact_roundtrip.rs`.
    ///
    /// # Errors
    ///
    /// Container-level failures (magic/version/checksum), a model kind
    /// this build does not know, or model/encoder state that fails to
    /// validate — a malformed artifact never panics the server.
    pub fn from_bytes(bytes: &[u8]) -> Result<Detector, ArtifactError> {
        let artifact = ArtifactReader::from_bytes(bytes)?;
        Detector::decode(
            artifact.section("meta")?,
            artifact.section("encoders")?,
            artifact.section("model")?,
        )
    }

    /// Reconstructs a detector from a shared [`OwnedArtifact`] — the
    /// serving-pool load path. The artifact's buffer is read in place
    /// (sections are slices into the one shared allocation, never an
    /// intermediate copy) and can go on serving other holders afterwards.
    ///
    /// # Errors
    ///
    /// Everything [`Detector::from_bytes`] rejects.
    pub fn from_artifact(artifact: &OwnedArtifact) -> Result<Detector, ArtifactError> {
        Detector::decode(
            artifact.section("meta")?,
            artifact.section("encoders")?,
            artifact.section("model")?,
        )
    }

    /// The shared decode tail of [`Detector::from_bytes`] and
    /// [`Detector::from_artifact`]: both hand in borrowed section slices,
    /// so the two load paths cannot drift.
    fn decode(
        meta_bytes: &[u8],
        encoder_bytes: &[u8],
        model_bytes: &[u8],
    ) -> Result<Detector, ArtifactError> {
        let mut meta = ByteReader::new(meta_bytes);
        let kind_id = meta.take_str()?;
        let kind = ModelKind::from_id(&kind_id)
            .ok_or_else(|| ArtifactError::Mismatch(format!("unknown model kind {kind_id:?}")))?;
        let seed = meta.take_u64()?;
        let trained_on = meta.take_usize()?;
        let train_seconds = meta.take_f64()?;
        let profile = read_profile(&mut meta)?;
        meta.expect_exhausted("detector meta")?;

        let encoders = FittedEncoders::import_state(encoder_bytes)?;
        let model = rebuild_model(kind, &encoders, &profile, seed, model_bytes)?;
        Ok(Detector {
            kind,
            encoding: kind.encoding(),
            model,
            encoders,
            profile,
            seed,
            train_seconds,
            trained_on,
        })
    }

    /// Reads an artifact file — the cold-start half of the two-process
    /// workflow. Routed through [`OwnedArtifact::open`]: the file is read
    /// into one buffer and decoded in place, and a caller that wants to
    /// build several holders from the same file (a warm detector pool)
    /// opens the [`OwnedArtifact`] once and shares it instead of paying
    /// one read + parse per holder.
    ///
    /// # Errors
    ///
    /// I/O failures plus everything [`Detector::from_bytes`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<Detector, ArtifactError> {
        Detector::from_artifact(&OwnedArtifact::open(path)?)
    }

    /// Phishing probability of one already-decoded contract. Pays for
    /// exactly one encoding — the model's own.
    pub fn score_cache(&self, cache: &DisasmCache) -> f32 {
        let row = self.encoders.encode(cache, self.encoding);
        self.model.predict_proba(&[row.as_row()])[0]
    }

    /// Phishing probabilities for a batch of already-decoded contracts, in
    /// input order: encoding fans across the worker pool, then the model
    /// sees one `predict_proba` call.
    pub fn score_batch(&self, caches: &[DisasmCache]) -> Vec<f32> {
        if caches.is_empty() {
            return Vec::new();
        }
        let encoded: Vec<FeatureVec> =
            parallel_map(caches, |c| self.encoders.encode(c, self.encoding));
        let rows: Vec<FeatureRow<'_>> = encoded.iter().map(FeatureVec::as_row).collect();
        self.model.predict_proba(&rows)
    }

    /// Encodes decoded contracts (by reference, so a cascade can gather an
    /// escalated subset without cloning op tables) under this detector's
    /// encoding across the worker pool, without scoring.
    pub(crate) fn encode_batch(&self, caches: &[&DisasmCache]) -> Vec<FeatureVec> {
        parallel_map(caches, |c| self.encoders.encode(c, self.encoding))
    }

    /// Scores already-encoded rows (which must have been produced under
    /// this detector's encoding) with one batched model call — the other
    /// half of the cascade's row-reuse path.
    pub(crate) fn score_rows(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        if rows.is_empty() {
            return Vec::new();
        }
        self.model.predict_proba(rows)
    }

    /// Scores raw bytecode: decodes it exactly once, then scores.
    pub fn score_code(&self, code: &Bytecode) -> f32 {
        self.score_cache(&DisasmCache::build(code))
    }

    /// Scores a batch of raw bytecodes, decoding each exactly once across
    /// the worker pool.
    ///
    /// Decode and encode are *fused* per contract: a contract's
    /// [`DisasmCache`] is dropped the moment its feature row is extracted,
    /// so the live set is the encoded rows alone — the allocator recycles
    /// one decode buffer per worker instead of holding the whole batch's op
    /// tables, which is what keeps batched throughput at or above the
    /// per-contract path even on a single core.
    pub fn score_codes(&self, codes: &[Bytecode]) -> Vec<f32> {
        if codes.is_empty() {
            return Vec::new();
        }
        let encoded: Vec<FeatureVec> = parallel_map(codes, |c| {
            self.encoders.encode(&DisasmCache::build(c), self.encoding)
        });
        let rows: Vec<FeatureRow<'_>> = encoded.iter().map(FeatureVec::as_row).collect();
        self.model.predict_proba(&rows)
    }

    /// The wallet-guard loop: fetch the deployed bytecode over the
    /// provider's `eth_getCode`, decode once, and score — all before any
    /// signature.
    ///
    /// # Errors
    ///
    /// [`RpcError::NoCode`] when the address holds no code (an
    /// externally-owned account), which a wallet treats as "nothing to
    /// screen".
    pub fn score_address(&self, rpc: &RpcProvider<'_>, address: &Address) -> Result<f32, RpcError> {
        Ok(self.score_code(&rpc.eth_get_code(address)?))
    }

    /// One-contract verdict: the probability plus the thresholded call.
    pub fn verdict(&self, cache: &DisasmCache) -> Verdict {
        Verdict {
            kind: self.kind,
            probability: self.score_cache(cache),
        }
    }
}

/// One model's call on one contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The model that produced the score.
    pub kind: ModelKind,
    /// Probability of the phishing class.
    pub probability: f32,
}

impl Verdict {
    /// `true` when the probability crosses [`PHISHING_THRESHOLD`].
    pub fn is_phishing(&self) -> bool {
        self.probability >= PHISHING_THRESHOLD
    }
}

/// Several trained kinds served together over one shared encoding pass:
/// scoring a contract featurizes each *distinct* encoding once, no matter
/// how many models consume it (all seven histogram classifiers share one
/// histogram row).
pub struct ModelZoo {
    models: Vec<(ModelKind, Box<dyn Model>)>,
    encoders: FittedEncoders,
    profile: EvalProfile,
    seed: u64,
}

impl std::fmt::Debug for ModelZoo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelZoo")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl ModelZoo {
    /// Trains every kind on all of `ctx` with the same seed (each kind's
    /// model matches a [`Detector::train`] of that kind bit-for-bit).
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or the context holds no samples.
    pub fn train(ctx: &EvalContext, kinds: &[ModelKind], seed: u64) -> ModelZoo {
        assert!(!kinds.is_empty(), "empty model zoo");
        assert!(!ctx.is_empty(), "empty training context");
        let all: Vec<usize> = (0..ctx.len()).collect();
        let models = kinds
            .iter()
            .map(|&kind| (kind, fit_kind(ctx, kind, &all, ctx.profile(), seed).0))
            .collect();
        ModelZoo {
            models,
            encoders: ctx.store().encoders().clone(),
            profile: *ctx.profile(),
            seed,
        }
    }

    /// Serializes the zoo: shared `meta` (seed, profile, kinds) and
    /// encoder sections plus one `model.<i>` section per trained kind.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u64(self.seed);
        write_profile(&mut meta, &self.profile);
        meta.put_u32(self.models.len() as u32);
        for (kind, _) in &self.models {
            meta.put_str(kind.id());
        }
        let mut artifact = ArtifactWriter::new();
        artifact.section("meta", meta.into_bytes());
        artifact.section("encoders", self.encoders.export_state());
        for (i, (_, model)) in self.models.iter().enumerate() {
            artifact.section(&format!("model.{i}"), model.export_state());
        }
        artifact.into_bytes()
    }

    /// Writes the zoo artifact to a file.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reconstructs a zoo from [`ModelZoo::to_bytes`] bytes, with the same
    /// cold-start parity guarantee as [`Detector::from_bytes`]: every
    /// member's verdicts are bit-identical to the training process's.
    ///
    /// # Errors
    ///
    /// Container, kind and state-validation failures, typed — never a
    /// panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelZoo, ArtifactError> {
        let artifact = ArtifactReader::from_bytes(bytes)?;
        ModelZoo::decode(
            artifact.section("meta")?,
            artifact.section("encoders")?,
            |i| artifact.section(&format!("model.{i}")),
        )
    }

    /// Reconstructs a zoo from a shared [`OwnedArtifact`] — see
    /// [`Detector::from_artifact`].
    ///
    /// # Errors
    ///
    /// Everything [`ModelZoo::from_bytes`] rejects.
    pub fn from_artifact(artifact: &OwnedArtifact) -> Result<ModelZoo, ArtifactError> {
        ModelZoo::decode(
            artifact.section("meta")?,
            artifact.section("encoders")?,
            |i| artifact.section(&format!("model.{i}")),
        )
    }

    /// The shared decode tail of both zoo load paths.
    fn decode<'a>(
        meta_bytes: &[u8],
        encoder_bytes: &[u8],
        model_section: impl Fn(usize) -> Result<&'a [u8], ArtifactError>,
    ) -> Result<ModelZoo, ArtifactError> {
        let mut meta = ByteReader::new(meta_bytes);
        let seed = meta.take_u64()?;
        let profile = read_profile(&mut meta)?;
        // Every kind id is at least its 4-byte length prefix; the bounded
        // count keeps a crafted meta section from forcing a huge
        // pre-allocation.
        let count = meta.take_count_u32(4)?;
        let mut kinds = Vec::with_capacity(count);
        for _ in 0..count {
            let id = meta.take_str()?;
            kinds
                .push(ModelKind::from_id(&id).ok_or_else(|| {
                    ArtifactError::Mismatch(format!("unknown model kind {id:?}"))
                })?);
        }
        meta.expect_exhausted("zoo meta")?;
        if kinds.is_empty() {
            return Err(ArtifactError::Corrupt("empty model zoo artifact".into()));
        }

        let encoders = FittedEncoders::import_state(encoder_bytes)?;
        let mut models = Vec::with_capacity(count);
        for (i, kind) in kinds.into_iter().enumerate() {
            let state = model_section(i)?;
            models.push((kind, rebuild_model(kind, &encoders, &profile, seed, state)?));
        }
        Ok(ModelZoo {
            models,
            encoders,
            profile,
            seed,
        })
    }

    /// Reads a zoo artifact file.
    ///
    /// # Errors
    ///
    /// I/O failures plus everything [`ModelZoo::from_bytes`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<ModelZoo, ArtifactError> {
        ModelZoo::from_artifact(&OwnedArtifact::open(path)?)
    }

    /// The shared training seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The trained kinds, in training order.
    pub fn kinds(&self) -> Vec<ModelKind> {
        self.models.iter().map(|(k, _)| *k).collect()
    }

    /// Number of models in the zoo.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when the zoo holds no models (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The capacity profile the zoo was trained with.
    pub fn profile(&self) -> &EvalProfile {
        &self.profile
    }

    /// Every model's verdict on one decoded contract, featurizing each
    /// distinct encoding exactly once.
    pub fn score_cache(&self, cache: &DisasmCache) -> Vec<Verdict> {
        let mut encoded: [Option<FeatureVec>; 7] = Default::default();
        self.models
            .iter()
            .map(|(kind, model)| {
                let slot = &mut encoded[kind.encoding().index()];
                let row = slot
                    .get_or_insert_with(|| self.encoders.encode(cache, kind.encoding()))
                    .as_row();
                Verdict {
                    kind: *kind,
                    probability: model.predict_proba(&[row])[0],
                }
            })
            .collect()
    }

    /// Per-contract verdicts for a batch of decoded contracts, in input
    /// order. Each distinct encoding is featurized once per contract
    /// (across the worker pool) and every model sees one `predict_proba`
    /// call.
    pub fn score_batch(&self, caches: &[DisasmCache]) -> Vec<Vec<Verdict>> {
        if caches.is_empty() {
            return Vec::new();
        }
        let mut encoded: [Option<Vec<FeatureVec>>; 7] = Default::default();
        // Vec's clone does not preserve capacity, so build each inner vec
        // explicitly rather than cloning a `with_capacity` template.
        let mut out: Vec<Vec<Verdict>> = (0..caches.len())
            .map(|_| Vec::with_capacity(self.models.len()))
            .collect();
        for (kind, model) in &self.models {
            let encoding = kind.encoding();
            let vecs = encoded[encoding.index()]
                .get_or_insert_with(|| parallel_map(caches, |c| self.encoders.encode(c, encoding)));
            let rows: Vec<FeatureRow<'_>> = vecs.iter().map(FeatureVec::as_row).collect();
            for (i, p) in model.predict_proba(&rows).into_iter().enumerate() {
                out[i].push(Verdict {
                    kind: *kind,
                    probability: p,
                });
            }
        }
        out
    }

    /// Scores raw bytecodes: each contract is decoded exactly once, then
    /// every model votes over the shared encodings.
    pub fn score_codes(&self, codes: &[Bytecode]) -> Vec<Vec<Verdict>> {
        let caches: Vec<DisasmCache> = parallel_map(codes, DisasmCache::build);
        self.score_batch(&caches)
    }
}

/// The batched scoring seam a serving tier coalesces requests into: one
/// call, `codes.len()` outputs, in input order.
///
/// Both serving artifacts implement it — a [`Detector`] yields one
/// probability per contract, a [`ModelZoo`] one [`Verdict`] per model per
/// contract — so a micro-batching queue can be generic over "warm scorer
/// shared by a worker pool" without caring which it holds. The contract
/// that makes coalescing safe is **bit-identity**: a contract's output
/// must not depend on its batch-mates (`score_many(&[a, b])[0] ==
/// score_many(&[a])[0]`, guaranteed by the [`Model::predict_proba`]
/// contract and asserted in `tests/detector_serving.rs` /
/// `tests/batched_parity.rs`).
pub trait CodeScorer: Send + Sync {
    /// Per-contract output.
    type Output: Send + 'static;

    /// Scores a batch of raw bytecodes in input order, decoding each
    /// exactly once.
    fn score_many(&self, codes: &[Bytecode]) -> Vec<Self::Output>;
}

impl CodeScorer for Detector {
    type Output = f32;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<f32> {
        self.score_codes(codes)
    }
}

impl CodeScorer for ModelZoo {
    type Output = Vec<Verdict>;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<Vec<Verdict>> {
        self.score_codes(codes)
    }
}

impl<S: CodeScorer + ?Sized> CodeScorer for std::sync::Arc<S> {
    type Output = S::Output;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<S::Output> {
        (**self).score_many(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::{extract_dataset, BemConfig};
    use crate::dataset::Dataset;
    use phishinghook_chain::SimulatedChain;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn fixture() -> (SimulatedChain, Dataset) {
        let corpus = generate_corpus(&CorpusConfig::small(31));
        let chain = SimulatedChain::from_corpus(&corpus);
        let dataset = extract_dataset(&chain, &BemConfig::default()).0;
        (chain, dataset)
    }

    #[test]
    fn detector_scores_are_probabilities_and_deterministic() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let detector = Detector::train(&ctx, ModelKind::RandomForest, 3);
        assert_eq!(detector.kind(), ModelKind::RandomForest);
        assert_eq!(detector.trained_on(), dataset.len());
        assert_eq!(detector.parameter_count(), 0);

        let caches: Vec<DisasmCache> = ctx.caches().as_slice()[..8].to_vec();
        let batch = detector.score_batch(&caches);
        assert_eq!(batch.len(), 8);
        for (i, cache) in caches.iter().enumerate() {
            assert!((0.0..=1.0).contains(&batch[i]));
            // Single-contract scoring agrees with the batched path.
            assert_eq!(detector.score_cache(cache), batch[i]);
        }
        // Retraining with the same seed reproduces the scores.
        let again = Detector::train(&ctx, ModelKind::RandomForest, 3);
        assert_eq!(again.score_batch(&caches), batch);
    }

    #[test]
    fn score_address_round_trips_the_rpc() {
        let (chain, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let detector = Detector::train(&ctx, ModelKind::Knn, 1);
        let rpc = RpcProvider::new(&chain);
        let record = &chain.records()[0];
        let via_rpc = detector.score_address(&rpc, &record.address).unwrap();
        assert_eq!(via_rpc, detector.score_code(&record.bytecode));
        // An address with no code is an error, not a verdict.
        let empty = Address::from_bytes([0xEE; 20]);
        assert!(detector.score_address(&rpc, &empty).is_err());
    }

    #[test]
    fn zoo_verdicts_match_single_detectors() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let kinds = [ModelKind::RandomForest, ModelKind::Knn, ModelKind::Svm];
        let zoo = ModelZoo::train(&ctx, &kinds, 5);
        assert_eq!(zoo.len(), 3);
        assert_eq!(zoo.kinds(), kinds.to_vec());

        let caches: Vec<DisasmCache> = ctx.caches().as_slice()[..5].to_vec();
        let verdicts = zoo.score_batch(&caches);
        assert_eq!(verdicts.len(), 5);
        for (i, cache) in caches.iter().enumerate() {
            assert_eq!(verdicts[i], zoo.score_cache(cache));
        }
        for (k, kind) in kinds.into_iter().enumerate() {
            let solo = Detector::train(&ctx, kind, 5);
            for (i, cache) in caches.iter().enumerate() {
                assert_eq!(verdicts[i][k].kind, kind);
                assert_eq!(verdicts[i][k].probability, solo.score_cache(cache));
            }
        }
    }

    #[test]
    fn verdict_threshold() {
        let v = Verdict {
            kind: ModelKind::Knn,
            probability: 0.5,
        };
        assert!(v.is_phishing());
        assert!(!Verdict {
            probability: 0.49,
            ..v
        }
        .is_phishing());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_rejected() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        Detector::train_on(&ctx, ModelKind::Knn, &[], 0);
    }

    #[test]
    fn saved_detector_reloads_with_bit_identical_scores() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let detector = Detector::train(&ctx, ModelKind::Xgboost, 11);
        let caches: Vec<DisasmCache> = ctx.caches().as_slice()[..6].to_vec();
        let expected = detector.score_batch(&caches);

        let bytes = detector.to_bytes();
        let reloaded = Detector::from_bytes(&bytes).unwrap();
        assert_eq!(reloaded.kind(), ModelKind::Xgboost);
        assert_eq!(reloaded.seed(), 11);
        assert_eq!(reloaded.trained_on(), detector.trained_on());
        assert_eq!(reloaded.profile(), detector.profile());
        assert_eq!(reloaded.score_batch(&caches), expected);
        // Round trip through a file too.
        let path = std::env::temp_dir().join(format!("phk_detector_{}.phk", std::process::id()));
        detector.save(&path).unwrap();
        assert_eq!(
            Detector::load(&path).unwrap().score_batch(&caches),
            expected
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_owned_artifact_serves_multiple_decodes_from_one_buffer() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let detector = Detector::train(&ctx, ModelKind::Svm, 13);
        let caches: Vec<DisasmCache> = ctx.caches().as_slice()[..4].to_vec();
        let expected = detector.score_batch(&caches);

        let artifact = OwnedArtifact::from_vec(detector.to_bytes()).unwrap();
        // Two holders decode from the same parsed buffer — no re-read, no
        // re-parse, identical scores.
        let a = Detector::from_artifact(&artifact).unwrap();
        let b = Detector::from_artifact(&artifact).unwrap();
        assert_eq!(
            artifact.buffer_refs(),
            1,
            "decoding must not copy the buffer"
        );
        assert_eq!(a.score_batch(&caches), expected);
        assert_eq!(b.score_batch(&caches), expected);
    }

    #[test]
    fn malformed_detector_artifacts_are_typed_errors() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let detector = Detector::train(&ctx, ModelKind::Knn, 1);
        let bytes = detector.to_bytes();
        // Truncations at every structural boundary fail cleanly.
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(Detector::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A flipped payload bit is caught by the section checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            Detector::from_bytes(&flipped),
            Err(ArtifactError::Checksum(_))
        ));
    }

    #[test]
    fn saved_zoo_reloads_with_bit_identical_verdicts() {
        let (_, dataset) = fixture();
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        let kinds = [ModelKind::RandomForest, ModelKind::Svm];
        let zoo = ModelZoo::train(&ctx, &kinds, 9);
        let caches: Vec<DisasmCache> = ctx.caches().as_slice()[..4].to_vec();
        let expected = zoo.score_batch(&caches);

        let reloaded = ModelZoo::from_bytes(&zoo.to_bytes()).unwrap();
        assert_eq!(reloaded.kinds(), kinds.to_vec());
        assert_eq!(reloaded.seed(), 9);
        assert_eq!(reloaded.score_batch(&caches), expected);
    }
}
