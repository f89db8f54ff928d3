//! Small dense linear-algebra kernel shared by the classical-ML and
//! neural-network crates.
//!
//! The whole reproduction is CPU-only and single-precision is plenty for the
//! models involved, so the central type is a row-major `f32` [`Matrix`] with
//! the handful of BLAS-like operations the upper layers need (GEMM,
//! transpose, row views, axpy) plus seeded random initialisation helpers.
//!
//! # Examples
//!
//! ```
//! use phishinghook_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]

pub mod gemm;
pub mod matrix;
pub mod par;
pub mod transcend;
pub mod vecops;

pub use matrix::Matrix;
pub use vecops::{argmax, argsort, dot, mean, softmax_in_place, std_dev, variance};
