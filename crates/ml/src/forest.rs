//! Random Forest — bagged CART ensemble with per-split feature subsampling.
//!
//! The paper's best model overall (93.63% accuracy on Table II), and the one
//! analysed with SHAP in Fig. 9.

use crate::classifier::{checked_u32_count, validate_fit_inputs, Classifier};
use crate::tree::{read_nodes, write_nodes, DecisionTree, TreeParams};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_linalg::par::parallel_map;
use phishinghook_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for the forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters; `max_features = None` defaults to `sqrt(d)` at
    /// fit time, as in scikit-learn.
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the training set.
    pub subsample: f32,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            tree: TreeParams {
                max_depth: 14,
                ..TreeParams::default()
            },
            subsample: 1.0,
        }
    }
}

/// A fitted Random Forest.
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::Matrix;
/// use phishinghook_ml::{Classifier, RandomForest};
///
/// let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.1, 0.9], vec![1.0, 0.0], vec![0.9, 0.1]]);
/// let y = [0, 0, 1, 1];
/// let mut forest = RandomForest::new(25, 7);
/// forest.fit(&x, &y);
/// assert_eq!(forest.predict(&x), vec![0, 0, 1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: ForestParams,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Creates a forest with `n_trees` trees and default tree parameters.
    pub fn new(n_trees: usize, seed: u64) -> Self {
        RandomForest {
            params: ForestParams {
                n_trees,
                ..ForestParams::default()
            },
            seed,
            trees: Vec::new(),
        }
    }

    /// Creates a forest with explicit parameters.
    pub fn with_params(params: ForestParams, seed: u64) -> Self {
        RandomForest {
            params,
            seed,
            trees: Vec::new(),
        }
    }

    /// The fitted trees (empty before `fit`).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Grows tree `t` on its bootstrap sample. Every tree draws from its
    /// own seed, so the forest does not depend on the order trees are fit.
    fn grow_tree(&self, x: &Matrix, y: &[u8], t: usize) -> DecisionTree {
        let sample = ((x.rows() as f32 * self.params.subsample) as usize).max(1);
        let mut rng = StdRng::seed_from_u64(self.seed ^ (t as u64).wrapping_mul(0x9E37));
        let indices: Vec<usize> = (0..sample).map(|_| rng.gen_range(0..x.rows())).collect();
        let mtry = self
            .params
            .tree
            .max_features
            .unwrap_or_else(|| (x.cols() as f32).sqrt().ceil() as usize)
            .max(1);
        let tree_params = TreeParams {
            max_features: Some(mtry),
            ..self.params.tree
        };
        let mut tree = DecisionTree::new(tree_params, rng.gen());
        tree.fit_indices(x, y, &indices);
        tree
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        let tree_ids: Vec<usize> = (0..self.params.n_trees).collect();
        self.trees = parallel_map(&tree_ids, |&t| self.grow_tree(x, y, t));
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.trees.is_empty(), "predict before fit");
        let mut probs = vec![0.0f32; x.rows()];
        for tree in &self.trees {
            for (r, p) in probs.iter_mut().enumerate() {
                *p += tree.predict_row(x.row(r));
            }
        }
        let k = self.trees.len() as f32;
        for p in &mut probs {
            *p /= k;
        }
        probs
    }

    fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.trees.len() as u32);
        for tree in &self.trees {
            write_nodes(&mut w, tree.nodes());
        }
        w.into_bytes()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        let mut r = ByteReader::new(bytes);
        // Each serialized tree is at least its 4-byte node count.
        let count = checked_u32_count(&mut r, 4, "forest tree list")?;
        let mut trees = Vec::with_capacity(count);
        for _ in 0..count {
            trees.push(DecisionTree::from_nodes(read_nodes(&mut r)?));
        }
        r.expect_exhausted("random forest state")?;
        self.trees = trees;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_moons(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t: f32 = rng.gen_range(0.0..std::f32::consts::PI);
            let noise = rng.gen_range(-0.08f32..0.08);
            if i % 2 == 0 {
                rows.push(vec![t.cos() + noise, t.sin() + noise]);
                y.push(0);
            } else {
                rows.push(vec![1.0 - t.cos() + noise, 0.3 - t.sin() + noise]);
                y.push(1);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_boundary() {
        let (x, y) = two_moons(500, 2);
        let mut rf = RandomForest::new(50, 5);
        rf.fit(&x, &y);
        let acc = rf
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f32
            / y.len() as f32;
        assert!(acc > 0.97, "train accuracy = {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = two_moons(200, 3);
        let mut a = RandomForest::new(10, 42);
        let mut b = RandomForest::new(10, 42);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = two_moons(200, 3);
        let mut a = RandomForest::new(10, 1);
        let mut b = RandomForest::new(10, 2);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (x, y) = two_moons(150, 7);
        let mut rf = RandomForest::new(20, 9);
        rf.fit(&x, &y);
        assert!(rf.predict_proba(&x).iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn pool_fit_matches_sequential_tree_order() {
        // More trees than any pool has workers, so multi-core hosts take
        // the parallel branch and every chunk boundary is exercised.
        let (x, y) = two_moons(120, 11);
        let mut rf = RandomForest::new(70, 13);
        rf.fit(&x, &y);
        let sequential: Vec<DecisionTree> = (0..70).map(|t| rf.grow_tree(&x, &y, t)).collect();
        assert_eq!(rf.trees().len(), sequential.len());
        for (t, (pooled, alone)) in rf.trees().iter().zip(&sequential).enumerate() {
            assert_eq!(pooled.nodes(), alone.nodes(), "tree {t}");
        }
    }

    #[test]
    fn single_class_training() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let mut rf = RandomForest::new(5, 0);
        rf.fit(&x, &[1, 1]);
        assert_eq!(rf.predict(&x), vec![1, 1]);
    }
}
