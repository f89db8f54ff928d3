//! Brute-force k-nearest-neighbours classifier.

use crate::classifier::{read_matrix, validate_fit_inputs, write_matrix, Classifier};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_linalg::par::parallel_map;
use phishinghook_linalg::Matrix;

/// k-NN with Euclidean distance and majority vote (ties break towards the
/// positive class, mirroring `predict_proba >= 0.5`).
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::Matrix;
/// use phishinghook_ml::{Classifier, KnnClassifier};
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.2], vec![0.8], vec![1.0]]);
/// let mut knn = KnnClassifier::new(3);
/// knn.fit(&x, &[0, 0, 1, 1]);
/// assert_eq!(knn.predict(&Matrix::from_rows(&[vec![0.05]])), vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    x: Matrix,
    y: Vec<u8>,
}

impl KnnClassifier {
    /// Creates a classifier voting over `k` neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KnnClassifier {
            k,
            x: Matrix::zeros(0, 0),
            y: Vec::new(),
        }
    }

    /// The configured number of neighbours.
    pub fn k(&self) -> usize {
        self.k
    }

    fn vote(&self, row: &[f32]) -> f32 {
        let k = self.k.min(self.y.len());
        // Partial selection of the k smallest distances.
        let mut dists: Vec<(f32, u8)> = (0..self.x.rows())
            .map(|r| {
                let d: f32 = self
                    .x
                    .row(r)
                    .iter()
                    .zip(row)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (d, self.y[r])
            })
            .collect();
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        });
        let pos: usize = dists[..k].iter().map(|(_, l)| *l as usize).sum();
        pos as f32 / k as f32
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        self.x = x.clone();
        self.y = y.to_vec();
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.y.is_empty(), "predict before fit");
        let rows: Vec<usize> = (0..x.rows()).collect();
        parallel_map(&rows, |&r| self.vote(x.row(r)))
    }

    fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_matrix(&mut w, &self.x);
        w.put_bytes(&self.y);
        w.into_bytes()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let x = read_matrix(&mut r)?;
        let y = r.take_bytes()?.to_vec();
        r.expect_exhausted("k-NN state")?;
        if x.rows() != y.len() {
            return Err(ArtifactError::Corrupt(format!(
                "k-NN state holds {} rows but {} labels",
                x.rows(),
                y.len()
            )));
        }
        if y.is_empty() {
            // Fitting rejects empty training sets; an empty neighbour set
            // would panic the first vote.
            return Err(ArtifactError::Corrupt("empty k-NN training set".into()));
        }
        self.x = x;
        self.y = y;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbour_memorizes() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let mut knn = KnnClassifier::new(1);
        knn.fit(&x, &[0, 1]);
        assert_eq!(knn.predict(&x), vec![0, 1]);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let mut knn = KnnClassifier::new(100);
        knn.fit(&x, &[0, 1]);
        assert_eq!(
            knn.predict_proba(&Matrix::from_rows(&[vec![0.5]])),
            vec![0.5]
        );
    }

    #[test]
    fn proba_is_vote_fraction() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![5.0]]);
        let mut knn = KnnClassifier::new(3);
        knn.fit(&x, &[1, 1, 0, 0]);
        let p = knn.predict_proba(&Matrix::from_rows(&[vec![0.05]]));
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn pool_predictions_match_row_order() {
        // More query rows than any pool has workers, so multi-core hosts
        // take the parallel branch and every chunk boundary is exercised.
        let train: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 7) as f32, (i / 7) as f32 * 0.5])
            .collect();
        let labels: Vec<u8> = (0..40).map(|i| u8::from(i % 3 == 0)).collect();
        let mut knn = KnnClassifier::new(5);
        knn.fit(&Matrix::from_rows(&train), &labels);
        let queries: Vec<Vec<f32>> = (0..97)
            .map(|i| vec![(i % 11) as f32 * 0.6, (i % 5) as f32 * 0.7])
            .collect();
        let q = Matrix::from_rows(&queries);
        let sequential: Vec<f32> = (0..q.rows()).map(|r| knn.vote(q.row(r))).collect();
        assert_eq!(knn.predict_proba(&q), sequential);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        KnnClassifier::new(0);
    }
}
