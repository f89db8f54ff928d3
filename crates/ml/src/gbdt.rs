//! Gradient-boosted decision trees in the three industrial styles the paper
//! benchmarks: XGBoost (exact greedy, depth-wise), LightGBM (histogram bins,
//! leaf-wise) and CatBoost (oblivious/symmetric trees).
//!
//! The three share one engine: `Forest::boost` runs the second-order
//! logistic-loss loop and `Forest::predict_proba` sums the shrunken trees,
//! both generic over a `BoostTree`. With `p = σ(score)`, the gradient is
//! `g = p − y` and the hessian `h = p (1 − p)`; split gain and leaf weights
//! follow the standard Newton formulas
//! `gain = ½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ` and
//! `w = −G/(H+λ)`.
//!
//! A booster differs from the others only in the tree it grows each round.
//! XGBoost and LightGBM grow the same binary `SplitTree` (one node type,
//! one wire format) by different rules: depth-wise on raw values, and
//! best-first on quantile bins up to a leaf cap. CatBoost grows an
//! `ObliviousTree` on the same bins and keeps its own tree codec.
//!
//! Only the round count and the depth are settable ([`BoostParams`]); the
//! shrinkage, λ, γ, minimum child weight, leaf cap and bin count are fixed
//! constants.

use crate::classifier::{checked_u32_count, positive_rate, validate_fit_inputs, Classifier};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_linalg::Matrix;

/// Shrinkage (learning rate) η applied to every tree's output.
const LEARNING_RATE: f32 = 0.15;
/// L2 regularization λ on leaf weights.
const LAMBDA: f32 = 1.0;
/// Minimum gain γ to accept a binary split.
const GAMMA: f32 = 0.0;
/// Minimum hessian sum per child.
const MIN_CHILD_WEIGHT: f32 = 1.0;
/// Leaf cap of LightGBM's leaf-wise growth.
const MAX_LEAVES: usize = 31;
/// Quantile histogram bins per feature (LightGBM and CatBoost).
const MAX_BINS: usize = 48;

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// Newton leaf weight `−G/(H+λ)`.
fn newton_weight(gsum: f32, hsum: f32) -> f32 {
    -gsum / (hsum + LAMBDA)
}

/// One child's structure score `G²/(H+λ)`.
fn structure_score(gsum: f32, hsum: f32) -> f32 {
    gsum * gsum / (hsum + LAMBDA)
}

/// Gain of sending `(gl, hl)` of a node's `(gsum, hsum)` to the left
/// child, or `None` when a child is lighter than [`MIN_CHILD_WEIGHT`] or
/// the gain does not clear `1e-7`.
fn split_gain(gl: f32, hl: f32, gsum: f32, hsum: f32, parent_score: f32) -> Option<f32> {
    let (gr, hr) = (gsum - gl, hsum - hl);
    if hl < MIN_CHILD_WEIGHT || hr < MIN_CHILD_WEIGHT {
        return None;
    }
    let gain = 0.5 * (structure_score(gl, hl) + structure_score(gr, hr) - parent_score) - GAMMA;
    (gain > 1e-7).then_some(gain)
}

/// Settable boosting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum tree depth (XGBoost) or oblivious-tree depth (CatBoost);
    /// LightGBM's leaf-wise growth is capped by leaf count instead.
    pub max_depth: usize,
}

impl Default for BoostParams {
    fn default() -> Self {
        BoostParams {
            n_rounds: 120,
            max_depth: 6,
        }
    }
}

// ---------------------------------------------------------------------------
// The boosting engine shared by the three styles
// ---------------------------------------------------------------------------

/// A fitted regression tree the boosting engine evaluates and serializes.
trait BoostTree: Sized {
    /// Minimum bytes one serialized tree occupies, which bounds a decoded
    /// tree count by the payload.
    const MIN_WIRE_BYTES: usize;

    /// The tree's (unshrunken) output for one row.
    fn predict_row(&self, row: &[f32]) -> f32;

    /// Appends the tree's wire form.
    fn write(&self, w: &mut ByteWriter);

    /// Inverse of [`BoostTree::write`]; `i` names the tree in errors.
    fn read(r: &mut ByteReader<'_>, i: usize) -> Result<Self, ArtifactError>;
}

/// A fitted booster: the prior's log-odds plus the trees whose shrunken
/// outputs add to it.
#[derive(Debug, Clone, Default)]
struct Forest<T> {
    base_score: f32,
    trees: Vec<T>,
}

impl<T: BoostTree> Forest<T> {
    /// Fits `n_rounds` trees by Newton boosting on the logistic loss;
    /// `grow` fits one tree to a round's gradients and hessians.
    fn boost(
        x: &Matrix,
        y: &[u8],
        n_rounds: usize,
        mut grow: impl FnMut(&[f32], &[f32]) -> T,
    ) -> Self {
        let n = x.rows();
        let prior = positive_rate(y).clamp(1e-5, 1.0 - 1e-5);
        let base_score = (prior / (1.0 - prior)).ln();
        let mut trees = Vec::with_capacity(n_rounds);
        let mut scores = vec![base_score; n];
        let mut g = vec![0.0f32; n];
        let mut h = vec![0.0f32; n];
        for _ in 0..n_rounds {
            for i in 0..n {
                let p = sigmoid(scores[i]);
                g[i] = p - y[i] as f32;
                h[i] = (p * (1.0 - p)).max(1e-8);
            }
            let tree = grow(&g, &h);
            #[allow(clippy::needless_range_loop)] // i indexes scores and x rows
            for i in 0..n {
                scores[i] += LEARNING_RATE * tree.predict_row(x.row(i));
            }
            trees.push(tree);
        }
        Forest { base_score, trees }
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.trees.is_empty(), "predict before fit");
        (0..x.rows())
            .map(|r| {
                let row = x.row(r);
                let score: f32 = self.base_score
                    + self
                        .trees
                        .iter()
                        .map(|t| LEARNING_RATE * t.predict_row(row))
                        .sum::<f32>();
                sigmoid(score)
            })
            .collect()
    }

    /// Base score, tree count, then each tree's own codec.
    fn export(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_f32(self.base_score);
        w.put_u32(self.trees.len() as u32);
        for tree in &self.trees {
            tree.write(&mut w);
        }
        w.into_bytes()
    }

    /// Inverse of [`Forest::export`]; `what` names the state in errors.
    fn import(bytes: &[u8], what: &str) -> Result<Self, ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let base_score = r.take_f32()?;
        let count = checked_u32_count(&mut r, T::MIN_WIRE_BYTES, what)?;
        let mut trees = Vec::with_capacity(count);
        for i in 0..count {
            trees.push(T::read(&mut r, i)?);
        }
        r.expect_exhausted(what)?;
        Ok(Forest { base_score, trees })
    }
}

// ---------------------------------------------------------------------------
// Quantile binning (LightGBM / CatBoost)
// ---------------------------------------------------------------------------

/// Quantile-binned view of a dataset: per-feature bin ids plus the raw upper
/// bound of each bin, so fitted splits transfer back to raw features.
#[derive(Debug, Clone)]
struct BinnedData {
    /// `bins[f][r]` = bin id of sample `r` on feature `f`.
    bins: Vec<Vec<u8>>,
    /// `uppers[f][b]` = largest raw value in bin `b` of feature `f`.
    uppers: Vec<Vec<f32>>,
}

impl BinnedData {
    fn fit(x: &Matrix, max_bins: usize) -> Self {
        let (n, d) = x.shape();
        let mut bins = Vec::with_capacity(d);
        let mut uppers = Vec::with_capacity(d);
        for f in 0..d {
            let mut values: Vec<f32> = (0..n).map(|r| x[(r, f)]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            values.dedup();
            // Choose ≤ max_bins - 1 cut points at (approximate) quantiles of
            // the distinct values.
            let cuts: Vec<f32> = if values.len() <= max_bins {
                values.clone()
            } else {
                (1..=max_bins)
                    .map(|q| values[(q * values.len() / max_bins).min(values.len() - 1)])
                    .collect()
            };
            let col_bins: Vec<u8> = (0..n)
                .map(|r| {
                    let v = x[(r, f)];
                    cuts.partition_point(|&c| c < v).min(cuts.len() - 1) as u8
                })
                .collect();
            bins.push(col_bins);
            uppers.push(cuts);
        }
        BinnedData { bins, uppers }
    }

    fn n_bins(&self, f: usize) -> usize {
        self.uppers[f].len()
    }

    /// Raw threshold equivalent of "bin id <= b".
    fn threshold(&self, f: usize, b: usize) -> f32 {
        self.uppers[f][b]
    }
}

// ---------------------------------------------------------------------------
// Binary split trees (XGBoost depth-wise, LightGBM leaf-wise)
// ---------------------------------------------------------------------------

/// One node of a [`SplitTree`]: a leaf returning `weight`, or the test
/// `row[feature] <= threshold` choosing `left` over `right`.
#[derive(Debug, Clone)]
struct SplitNode {
    feature: u32,
    threshold: f32,
    left: u32,
    right: u32,
    weight: f32,
    is_leaf: bool,
}

impl SplitNode {
    fn leaf(weight: f32) -> Self {
        SplitNode {
            feature: 0,
            threshold: 0.0,
            left: 0,
            right: 0,
            weight,
            is_leaf: true,
        }
    }
}

/// A binary tree as a node arena rooted at index 0; children always sit
/// after their parent.
#[derive(Debug, Clone, Default)]
struct SplitTree {
    nodes: Vec<SplitNode>,
}

struct LeafCandidate {
    node: usize,
    indices: Vec<usize>,
    gain: f32,
    feature: usize,
    bin: usize,
}

impl SplitTree {
    /// Turns leaf `node` into the test `row[feature] <= threshold` over two
    /// new leaves, returning their indices; the caller sets their weights.
    fn split(&mut self, node: usize, feature: usize, threshold: f32) -> (usize, usize) {
        let left = self.nodes.len();
        self.nodes.push(SplitNode::leaf(0.0));
        self.nodes.push(SplitNode::leaf(0.0));
        let n = &mut self.nodes[node];
        n.feature = feature as u32;
        n.threshold = threshold;
        n.left = left as u32;
        n.right = left as u32 + 1;
        n.is_leaf = false;
        (left, left + 1)
    }

    /// XGBoost's rule: exact greedy splits on raw values, grown depth-wise
    /// to `max_depth`.
    fn grow_depthwise(x: &Matrix, g: &[f32], h: &[f32], max_depth: usize) -> SplitTree {
        let mut tree = SplitTree {
            nodes: vec![SplitNode::leaf(0.0)],
        };
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        tree.build(x, g, h, &mut idx, 0, max_depth);
        tree
    }

    /// Sets `node`'s weight from the rows `idx`, then splits it while
    /// `depth_left` allows and a split gains.
    fn build(
        &mut self,
        x: &Matrix,
        g: &[f32],
        h: &[f32],
        idx: &mut [usize],
        node: usize,
        depth_left: usize,
    ) {
        let gsum: f32 = idx.iter().map(|&i| g[i]).sum();
        let hsum: f32 = idx.iter().map(|&i| h[i]).sum();
        self.nodes[node].weight = newton_weight(gsum, hsum);

        if depth_left == 0 || idx.len() < 2 {
            return;
        }

        let parent_score = structure_score(gsum, hsum);
        let mut best: Option<(f32, usize, f32)> = None;
        let mut order: Vec<usize> = Vec::with_capacity(idx.len());
        for f in 0..x.cols() {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_by(|&a, &b| {
                x[(a, f)]
                    .partial_cmp(&x[(b, f)])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let (mut gl, mut hl) = (0.0f32, 0.0f32);
            for k in 0..order.len() - 1 {
                let i = order[k];
                gl += g[i];
                hl += h[i];
                let v = x[(i, f)];
                let v_next = x[(order[k + 1], f)];
                if v == v_next {
                    continue;
                }
                if let Some(gain) = split_gain(gl, hl, gsum, hsum, parent_score) {
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, f, (v + v_next) / 2.0));
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            return;
        };
        let mut mid = 0usize;
        for i in 0..idx.len() {
            if x[(idx[i], feature)] <= threshold {
                idx.swap(i, mid);
                mid += 1;
            }
        }
        let (left, right) = self.split(node, feature, threshold);
        let (l, r) = idx.split_at_mut(mid);
        self.build(x, g, h, l, left, depth_left - 1);
        self.build(x, g, h, r, right, depth_left - 1);
    }

    /// Best (gain, feature, bin) split of a leaf from per-bin histograms.
    fn best_bin_split(
        binned: &BinnedData,
        indices: &[usize],
        g: &[f32],
        h: &[f32],
    ) -> Option<(f32, usize, usize)> {
        let gsum: f32 = indices.iter().map(|&i| g[i]).sum();
        let hsum: f32 = indices.iter().map(|&i| h[i]).sum();
        let parent_score = structure_score(gsum, hsum);
        let mut best: Option<(f32, usize, usize)> = None;
        for f in 0..binned.bins.len() {
            let nb = binned.n_bins(f);
            if nb < 2 {
                continue;
            }
            let mut hist_g = vec![0.0f32; nb];
            let mut hist_h = vec![0.0f32; nb];
            for &i in indices {
                let b = binned.bins[f][i] as usize;
                hist_g[b] += g[i];
                hist_h[b] += h[i];
            }
            let (mut gl, mut hl) = (0.0f32, 0.0f32);
            for b in 0..nb - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                if let Some(gain) = split_gain(gl, hl, gsum, hsum, parent_score) {
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, f, b));
                    }
                }
            }
        }
        best
    }

    /// LightGBM's rule: histogram splits on quantile bins, grown best-first
    /// (the frontier leaf with the largest gain) up to [`MAX_LEAVES`].
    fn grow_leafwise(binned: &BinnedData, g: &[f32], h: &[f32]) -> SplitTree {
        let newton = |indices: &[usize]| {
            let gs: f32 = indices.iter().map(|&i| g[i]).sum();
            let hs: f32 = indices.iter().map(|&i| h[i]).sum();
            newton_weight(gs, hs)
        };
        let root_idx: Vec<usize> = (0..g.len()).collect();
        let mut tree = SplitTree {
            nodes: vec![SplitNode::leaf(newton(&root_idx))],
        };

        let mut frontier: Vec<LeafCandidate> = Vec::new();
        let push = |frontier: &mut Vec<LeafCandidate>, node: usize, indices: Vec<usize>| {
            if let Some((gain, feature, bin)) = Self::best_bin_split(binned, &indices, g, h) {
                frontier.push(LeafCandidate {
                    node,
                    indices,
                    gain,
                    feature,
                    bin,
                });
            }
        };
        push(&mut frontier, 0, root_idx);

        let mut leaves = 1usize;
        while leaves < MAX_LEAVES {
            let Some(pos) = frontier
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.gain
                        .partial_cmp(&b.1.gain)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let cand = frontier.swap_remove(pos);
            let (li, ri): (Vec<usize>, Vec<usize>) = cand
                .indices
                .iter()
                .partition(|&&i| binned.bins[cand.feature][i] as usize <= cand.bin);
            if li.is_empty() || ri.is_empty() {
                continue;
            }
            let threshold = binned.threshold(cand.feature, cand.bin);
            let (left, right) = tree.split(cand.node, cand.feature, threshold);
            tree.nodes[left].weight = newton(&li);
            tree.nodes[right].weight = newton(&ri);
            leaves += 1;
            push(&mut frontier, left, li);
            push(&mut frontier, right, ri);
        }
        tree
    }
}

impl BoostTree for SplitTree {
    /// A tree is at least its 4-byte node count.
    const MIN_WIRE_BYTES: usize = 4;

    fn predict_row(&self, row: &[f32]) -> f32 {
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf {
                return node.weight;
            }
            i = if row[node.feature as usize] <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    fn write(&self, w: &mut ByteWriter) {
        w.put_u32(self.nodes.len() as u32);
        for n in &self.nodes {
            w.put_u32(n.feature);
            w.put_f32(n.threshold);
            w.put_u32(n.left);
            w.put_u32(n.right);
            w.put_f32(n.weight);
            w.put_u8(u8::from(n.is_leaf));
        }
    }

    fn read(r: &mut ByteReader<'_>, _: usize) -> Result<Self, ArtifactError> {
        // 21 bytes per node on the wire; bounding the count by the payload
        // keeps a crafted artifact from forcing a huge pre-allocation.
        let count = checked_u32_count(r, 21, "boosted tree node arena")?;
        if count == 0 {
            // Boosting always emits at least a root leaf; an empty arena
            // would panic the first predict_row.
            return Err(ArtifactError::Corrupt(
                "empty boosted tree node arena".into(),
            ));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            nodes.push(SplitNode {
                feature: r.take_u32()?,
                threshold: r.take_f32()?,
                left: r.take_u32()?,
                right: r.take_u32()?,
                weight: r.take_f32()?,
                is_leaf: r.take_u8()? != 0,
            });
        }
        for (i, n) in nodes.iter().enumerate() {
            // As in the CART arena: children sit strictly deeper, which bounds
            // indices and rules out traversal cycles in a corrupted artifact.
            let (left, right) = (n.left as usize, n.right as usize);
            if !n.is_leaf && (left >= count || right >= count || left <= i || right <= i) {
                return Err(ArtifactError::Corrupt(format!(
                    "boosted tree node {i} has invalid children in a {count}-node arena"
                )));
            }
        }
        Ok(SplitTree { nodes })
    }
}

/// XGBoost-style classifier: exact greedy split finding, depth-wise growth,
/// second-order logistic loss.
#[derive(Debug, Clone)]
pub struct XgbClassifier {
    /// Boosting hyper-parameters.
    pub params: BoostParams,
    forest: Forest<SplitTree>,
}

impl XgbClassifier {
    /// Creates an unfitted model.
    pub fn new(params: BoostParams) -> Self {
        XgbClassifier {
            params,
            forest: Forest::default(),
        }
    }
}

impl Default for XgbClassifier {
    fn default() -> Self {
        XgbClassifier::new(BoostParams::default())
    }
}

impl Classifier for XgbClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        let max_depth = self.params.max_depth;
        self.forest = Forest::boost(x, y, self.params.n_rounds, |g, h| {
            SplitTree::grow_depthwise(x, g, h, max_depth)
        });
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        self.forest.predict_proba(x)
    }

    fn export_state(&self) -> Vec<u8> {
        self.forest.export()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.forest = Forest::import(bytes, "xgboost state")?;
        Ok(())
    }
}

/// LightGBM-style classifier: quantile-histogram split finding with
/// leaf-wise (best-first) growth capped at 31 leaves; it ignores
/// `max_depth`.
#[derive(Debug, Clone)]
pub struct LgbmClassifier {
    /// Boosting hyper-parameters.
    pub params: BoostParams,
    forest: Forest<SplitTree>,
}

impl LgbmClassifier {
    /// Creates an unfitted model.
    pub fn new(params: BoostParams) -> Self {
        LgbmClassifier {
            params,
            forest: Forest::default(),
        }
    }
}

impl Default for LgbmClassifier {
    fn default() -> Self {
        LgbmClassifier::new(BoostParams::default())
    }
}

impl Classifier for LgbmClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        let binned = BinnedData::fit(x, MAX_BINS);
        self.forest = Forest::boost(x, y, self.params.n_rounds, |g, h| {
            SplitTree::grow_leafwise(&binned, g, h)
        });
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        self.forest.predict_proba(x)
    }

    fn export_state(&self) -> Vec<u8> {
        self.forest.export()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.forest = Forest::import(bytes, "lightgbm state")?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// CatBoost-style trees (oblivious/symmetric)
// ---------------------------------------------------------------------------

/// One oblivious tree: the same `(feature, threshold)` test at every node of
/// a level, so a depth-`d` tree is `d` tests and `2^d` leaf weights.
#[derive(Debug, Clone, Default)]
struct ObliviousTree {
    features: Vec<u32>,
    thresholds: Vec<f32>,
    leaves: Vec<f32>,
}

impl ObliviousTree {
    fn fit(binned: &BinnedData, g: &[f32], h: &[f32], max_depth: usize) -> ObliviousTree {
        let n = g.len();
        let mut leaf_of = vec![0usize; n];
        let mut features = Vec::new();
        let mut thresholds = Vec::new();

        for level in 0..max_depth {
            let n_groups = 1usize << level;
            // For each candidate (feature, bin): score = Σ_groups split score.
            let mut best: Option<(f32, usize, usize)> = None;
            for f in 0..binned.bins.len() {
                let nb = binned.n_bins(f);
                if nb < 2 {
                    continue;
                }
                // Histograms per (group, bin).
                let mut hist_g = vec![0.0f32; n_groups * nb];
                let mut hist_h = vec![0.0f32; n_groups * nb];
                for i in 0..n {
                    let slot = leaf_of[i] * nb + binned.bins[f][i] as usize;
                    hist_g[slot] += g[i];
                    hist_h[slot] += h[i];
                }
                for b in 0..nb - 1 {
                    let mut score = 0.0f32;
                    let mut valid = false;
                    for grp in 0..n_groups {
                        let (mut gl, mut hl, mut gt, mut ht) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                        for bb in 0..nb {
                            let slot = grp * nb + bb;
                            gt += hist_g[slot];
                            ht += hist_h[slot];
                            if bb <= b {
                                gl += hist_g[slot];
                                hl += hist_h[slot];
                            }
                        }
                        let (gr, hr) = (gt - gl, ht - hl);
                        score += structure_score(gl, hl) + structure_score(gr, hr);
                        if hl >= MIN_CHILD_WEIGHT && hr >= MIN_CHILD_WEIGHT {
                            valid = true;
                        }
                    }
                    if valid && best.is_none_or(|(bs, _, _)| score > bs) {
                        best = Some((score, f, b));
                    }
                }
            }
            let Some((_, f, b)) = best else {
                break;
            };
            features.push(f as u32);
            thresholds.push(binned.threshold(f, b));
            #[allow(clippy::needless_range_loop)] // i indexes bins and leaf_of
            for i in 0..n {
                if binned.bins[f][i] as usize > b {
                    leaf_of[i] |= 1 << level;
                }
            }
        }

        let n_leaves = 1usize << features.len();
        let mut gsum = vec![0.0f32; n_leaves];
        let mut hsum = vec![0.0f32; n_leaves];
        for i in 0..n {
            gsum[leaf_of[i]] += g[i];
            hsum[leaf_of[i]] += h[i];
        }
        let leaves: Vec<f32> = gsum
            .iter()
            .zip(&hsum)
            .map(|(&gs, &hs)| newton_weight(gs, hs))
            .collect();
        ObliviousTree {
            features,
            thresholds,
            leaves,
        }
    }
}

impl BoostTree for ObliviousTree {
    /// A tree is at least its three 8-byte slice lengths.
    const MIN_WIRE_BYTES: usize = 24;

    fn predict_row(&self, row: &[f32]) -> f32 {
        let mut leaf = 0usize;
        for (l, (&f, &t)) in self.features.iter().zip(&self.thresholds).enumerate() {
            if row[f as usize] > t {
                leaf |= 1 << l;
            }
        }
        self.leaves[leaf]
    }

    fn write(&self, w: &mut ByteWriter) {
        w.put_u32_slice(&self.features);
        w.put_f32_slice(&self.thresholds);
        w.put_f32_slice(&self.leaves);
    }

    fn read(r: &mut ByteReader<'_>, i: usize) -> Result<Self, ArtifactError> {
        let features = r.take_u32_slice()?;
        let thresholds = r.take_f32_slice()?;
        let leaves = r.take_f32_slice()?;
        // Depth bound first: it caps the 1 << len below (a 64+-test tree
        // would overflow the shift) and no sane oblivious tree exceeds it
        // (training depth is single digits).
        if features.len() > 32 {
            return Err(ArtifactError::Corrupt(format!(
                "oblivious tree {i}: implausible depth {}",
                features.len()
            )));
        }
        if thresholds.len() != features.len() || leaves.len() != 1usize << features.len() {
            return Err(ArtifactError::Corrupt(format!(
                "oblivious tree {i}: {} tests, {} thresholds, {} leaves",
                features.len(),
                thresholds.len(),
                leaves.len()
            )));
        }
        Ok(ObliviousTree {
            features,
            thresholds,
            leaves,
        })
    }
}

/// CatBoost-style classifier: gradient boosting over oblivious (symmetric)
/// trees on quantile-binned features.
#[derive(Debug, Clone)]
pub struct CatBoostClassifier {
    /// Boosting hyper-parameters (`max_depth` = oblivious-tree depth).
    pub params: BoostParams,
    forest: Forest<ObliviousTree>,
}

impl CatBoostClassifier {
    /// Creates an unfitted model.
    pub fn new(params: BoostParams) -> Self {
        CatBoostClassifier {
            params,
            forest: Forest::default(),
        }
    }
}

impl Default for CatBoostClassifier {
    fn default() -> Self {
        CatBoostClassifier::new(BoostParams {
            max_depth: 5,
            ..BoostParams::default()
        })
    }
}

impl Classifier for CatBoostClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        let binned = BinnedData::fit(x, MAX_BINS);
        let max_depth = self.params.max_depth;
        self.forest = Forest::boost(x, y, self.params.n_rounds, |g, h| {
            ObliviousTree::fit(&binned, g, h, max_depth)
        });
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        self.forest.predict_proba(x)
    }

    fn export_state(&self) -> Vec<u8> {
        self.forest.export()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.forest = Forest::import(bytes, "catboost state")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn xor_data(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_rows(&rows), y)
    }

    fn accuracy(pred: &[u8], y: &[u8]) -> f32 {
        pred.iter().zip(y).filter(|(a, b)| a == b).count() as f32 / y.len() as f32
    }

    fn small_params() -> BoostParams {
        BoostParams {
            n_rounds: 40,
            ..BoostParams::default()
        }
    }

    #[test]
    fn xgb_learns_xor() {
        let (x, y) = xor_data(400, 1);
        let mut m = XgbClassifier::new(small_params());
        m.fit(&x, &y);
        assert!(accuracy(&m.predict(&x), &y) > 0.97);
    }

    #[test]
    fn lgbm_learns_xor() {
        let (x, y) = xor_data(400, 2);
        let mut m = LgbmClassifier::new(small_params());
        m.fit(&x, &y);
        assert!(accuracy(&m.predict(&x), &y) > 0.96);
    }

    #[test]
    fn catboost_learns_xor() {
        let (x, y) = xor_data(400, 3);
        let mut m = CatBoostClassifier::new(small_params());
        m.fit(&x, &y);
        assert!(accuracy(&m.predict(&x), &y) > 0.95);
    }

    #[test]
    fn binning_respects_order() {
        let x = Matrix::from_rows(&[vec![1.0], vec![5.0], vec![2.0], vec![9.0]]);
        let b = BinnedData::fit(&x, 4);
        // Bin ids must be monotone in the raw value.
        let bins = &b.bins[0];
        assert!(bins[0] <= bins[2] && bins[2] <= bins[1] && bins[1] <= bins[3]);
    }

    #[test]
    fn base_score_matches_prior_on_constant_data() {
        // With constant features, every model predicts (close to) the prior.
        let x = Matrix::from_rows(&vec![vec![1.0]; 10]);
        let y = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0];
        let mut m = XgbClassifier::new(BoostParams {
            n_rounds: 5,
            ..BoostParams::default()
        });
        m.fit(&x, &y);
        let p = m.predict_proba(&x)[0];
        assert!((p - 0.6).abs() < 0.05, "p = {p}");
    }

    #[test]
    fn oblivious_tree_is_symmetric() {
        let (x, y) = xor_data(200, 5);
        let mut m = CatBoostClassifier::new(BoostParams {
            n_rounds: 1,
            max_depth: 3,
        });
        m.fit(&x, &y);
        let t = &m.forest.trees[0];
        assert!(t.features.len() <= 3);
        assert_eq!(t.leaves.len(), 1 << t.features.len());
    }

    #[test]
    fn probabilities_bounded_all_variants() {
        let (x, y) = xor_data(150, 7);
        let mut xgb = XgbClassifier::new(small_params());
        let mut lgb = LgbmClassifier::new(small_params());
        let mut cat = CatBoostClassifier::new(small_params());
        xgb.fit(&x, &y);
        lgb.fit(&x, &y);
        cat.fit(&x, &y);
        for p in xgb
            .predict_proba(&x)
            .into_iter()
            .chain(lgb.predict_proba(&x))
            .chain(cat.predict_proba(&x))
        {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
