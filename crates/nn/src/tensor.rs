//! Dense `f32` tensors with explicit shapes.

use rand::Rng;

/// A dense row-major tensor.
///
/// # Examples
///
/// ```
/// use phishinghook_nn::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor of a shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![v],
        }
    }

    /// Uniform random tensor in `[-scale, scale]`.
    pub fn random<R: Rng>(shape: &[usize], scale: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(|_| rng.gen_range(-scale..=scale)).collect(),
        }
    }

    /// Kaiming/He-style initialisation for a fan-in.
    pub fn he<R: Rng>(shape: &[usize], fan_in: usize, rng: &mut R) -> Self {
        let scale = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::random(shape, scale, rng)
    }

    /// Shape slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single value of a scalar/1-element tensor.
    ///
    /// # Panics
    ///
    /// Panics unless `len() == 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar tensor");
        self.data[0]
    }

    /// Consumes the tensor, returning its flat data buffer (used by the
    /// tape's arena to recycle allocations across [`Tape::reset`] calls).
    ///
    /// [`Tape::reset`]: crate::Tape::reset
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Rows × cols view check for 2-D ops.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(
            self.shape.len(),
            2,
            "expected 2-D tensor, got {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.dims2(), (2, 2));
        assert_eq!(t.data()[3], 4.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_shape_panics() {
        Tensor::from_vec(&[2, 3], vec![0.0; 5]);
    }
}
