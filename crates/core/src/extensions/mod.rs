//! Extensions sketched in the paper's §2.2 "Discussion and Future
//! Extensions": beyond-accuracy metrics via McDiarmid sensitivity
//! analysis. The F1 helpers here are the reference the measurement
//! layer's `PerClassCounts::f1` and the estimator's McDiarmid leaf are
//! tested against.

mod f1;

pub use f1::{f1_sample_size, f1_score, F1Sensitivity};
