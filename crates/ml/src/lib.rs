//! Classical machine learning from scratch: everything the paper's
//! Histogram Similarity Classifiers (HSC) need.
//!
//! The paper feeds raw opcode histograms to seven scikit-learn-family
//! classifiers; this crate re-implements each one:
//!
//! * [`forest::RandomForest`] — bagged CART ensemble (the paper's overall
//!   winner, 93.63% accuracy);
//! * [`knn::KnnClassifier`] — brute-force k-nearest-neighbours;
//! * [`linear::LogisticRegression`] and [`linear::LinearSvm`] — linear
//!   models trained by gradient descent (hinge loss for the SVM);
//! * [`gbdt::XgbClassifier`] — exact-greedy second-order gradient boosting
//!   (XGBoost style);
//! * [`gbdt::LgbmClassifier`] — histogram-binned, leaf-wise gradient
//!   boosting (LightGBM style);
//! * [`gbdt::CatBoostClassifier`] — oblivious-tree (symmetric) gradient
//!   boosting (CatBoost style);
//! * [`shap`] — exact TreeSHAP attributions for the tree ensembles
//!   (Fig. 9).
//!
//! All models implement the [`Classifier`] trait: `fit` on a feature
//! [`Matrix`](phishinghook_linalg::Matrix) with `0/1` labels, then
//! `predict_proba`/`predict`.
//!
//! The crate also hosts [`calibrate`] — hand-rolled Platt
//! probability calibration, the piece that makes heterogeneous model
//! scores threshold-comparable in the serving cascade.

#![warn(missing_docs)]

pub mod calibrate;
pub mod classifier;
pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod linear;
pub mod shap;
pub mod tree;

pub use calibrate::Calibrator;
pub use classifier::Classifier;
pub use forest::RandomForest;
pub use gbdt::{CatBoostClassifier, LgbmClassifier, XgbClassifier};
pub use knn::KnnClassifier;
pub use linear::{LinearSvm, LogisticRegression};
pub use shap::{forest_shap, tree_shap};
pub use tree::DecisionTree;
