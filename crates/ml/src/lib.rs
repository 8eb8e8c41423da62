//! Self-contained machine-learning substrate for the
//! [ease.ml/ci](https://arxiv.org/abs/1903.00278) reproduction.
//!
//! The paper's experiments run real models (GoogLeNet on infinite MNIST,
//! SemEval-2019 Task 3 submissions). This crate rebuilds the minimum ML
//! stack needed to regenerate those experiments from scratch — datasets,
//! synthetic generators, and classic classifiers — with zero external
//! ML dependencies (`rand` is the only dependency).
//!
//! * [`Matrix`] — dense row-major `f32` linear algebra;
//! * [`Dataset`] — labelled examples with splits and batching;
//! * [`synth`] — Gaussian blobs and a synthetic emotion-classification
//!   corpus standing in for SemEval-2019 Task 3;
//! * [`models`] — majority, naive Bayes, softmax regression, and a
//!   one-hidden-layer MLP behind one
//!   [`Classifier`](models::Classifier) trait;
//! * [`metrics`] — accuracy, prediction difference (`d`), confusion,
//!   and F1.
//!
//! # Examples
//!
//! ```
//! use easeml_ml::models::{Classifier, LogisticRegression};
//! use easeml_ml::synth::{blobs, BlobsConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), easeml_ml::MlError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let data = blobs(2_000, &BlobsConfig::default(), &mut rng)?;
//! let (train, test) = data.split(0.8, &mut rng)?;
//! let mut model = LogisticRegression::default();
//! model.fit(&train)?;
//! let preds = model.predict_dataset(&test)?;
//! let acc = easeml_ml::metrics::accuracy(&preds, test.labels());
//! assert!(acc > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dataset;
mod error;
mod matrix;
pub mod metrics;
pub mod models;
pub mod synth;

pub use dataset::Dataset;
pub use error::{MlError, Result};
pub use matrix::{argmax, dot, softmax_rows, Matrix};
