//! Classifiers: a common trait plus four classic implementations of
//! increasing capacity (majority, naive Bayes, softmax regression,
//! one-hidden-layer MLP).
//!
//! The spread of capacities matters for the CI reproduction: a commit
//! history that climbs from a majority baseline through linear models to
//! an MLP produces exactly the gradual-accuracy / small-prediction-diff
//! trajectories the paper's conditions are designed to test.

mod logistic;
mod majority;
mod mlp;
mod naive_bayes;

pub use logistic::{LogisticRegression, LogisticRegressionConfig};
pub use majority::MajorityClassifier;
pub use mlp::{Mlp, MlpConfig};
pub use naive_bayes::{NaiveBayes, NaiveBayesConfig};

use crate::dataset::Dataset;
use crate::error::Result;
use crate::matrix::Matrix;

/// A trainable multi-class classifier.
///
/// Implementations are deterministic given their configured seed, so CI
/// simulations are reproducible.
pub trait Classifier {
    /// Fit the model to a dataset.
    ///
    /// # Errors
    ///
    /// Returns an error on shape problems or invalid hyper-parameters.
    fn fit(&mut self, data: &Dataset) -> Result<()>;

    /// Predict the class of a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MlError::NotFitted`] before [`Classifier::fit`],
    /// or a shape error for a wrong-length input.
    fn predict_one(&self, features: &[f32]) -> Result<u32>;

    /// Predict every row of a feature matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::predict_one`].
    fn predict(&self, features: &Matrix) -> Result<Vec<u32>> {
        (0..features.rows())
            .map(|r| self.predict_one(features.row(r)))
            .collect()
    }

    /// Predict every example of a dataset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::predict_one`].
    fn predict_dataset(&self, data: &Dataset) -> Result<Vec<u32>> {
        self.predict(data.features())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::synth::{blobs, BlobsConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A moderately separable 4-class problem shared by the model tests.
    pub fn train_test() -> (Dataset, Dataset) {
        let cfg = BlobsConfig {
            num_classes: 4,
            dim: 6,
            noise: 0.5,
            label_noise: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1234);
        let data = blobs(2_400, &cfg, &mut rng).unwrap();
        data.split(0.75, &mut rng).unwrap()
    }

    /// Train, evaluate, and return test accuracy.
    pub fn accuracy_of(model: &mut dyn Classifier) -> f64 {
        let (train, test) = train_test();
        model.fit(&train).unwrap();
        let preds = model.predict_dataset(&test).unwrap();
        crate::metrics::accuracy(&preds, test.labels())
    }
}
