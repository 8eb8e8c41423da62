//! Core of the [ease.ml/ci](https://arxiv.org/abs/1903.00278)
//! reproduction: a continuous-integration system for machine-learning
//! models with rigorous `(ε, δ)` guarantees.
//!
//! # Overview
//!
//! A user writes a CI script whose `ml:` section declares a test
//! condition over three random variables — `n` (new-model accuracy),
//! `o` (old-model accuracy), `d` (fraction of changed predictions) —
//! plus a reliability requirement, a decision [`Mode`]
//! (fp-free / fn-free), an adaptivity policy, and a step budget:
//!
//! ```text
//! ml:
//!   - script     : ./test_model.py
//!   - condition  : n - o > 0.02 +/- 0.01
//!   - reliability: 0.9999
//!   - mode       : fp-free
//!   - adaptivity : full
//!   - steps      : 32
//! ```
//!
//! The crate provides the paper's two system utilities plus the engine:
//!
//! * [`SampleSizeEstimator`] — how many test examples the user must
//!   provide (§3 baseline + §4 optimizations);
//! * the new-testset alarm inside [`CiEngine`] — when the testset's
//!   statistical power is spent;
//! * [`CiEngine`] — evaluates commits over confidence intervals with
//!   three-valued logic and manages adaptivity state.
//!
//! # Quick start
//!
//! ```
//! use easeml_ci_core::{CiEngine, CiScript, ModelCommit, Testset};
//!
//! # fn main() -> Result<(), easeml_ci_core::CiError> {
//! let script = CiScript::builder()
//!     .condition_str("n > 0.6 +/- 0.2")?
//!     .reliability(0.99)
//!     .steps(4)
//!     .build()?;
//!
//! // The sample-size estimator says how many labels the testset needs.
//! let required = easeml_ci_core::SampleSizeEstimator::new().estimate(&script)?;
//!
//! // Build a (toy) testset of that size and run a commit through it.
//! let n = required.total_samples() as usize;
//! let labels = vec![1u32; n];
//! let old_predictions = vec![0u32; n];
//! let mut engine =
//!     CiEngine::new(script, Testset::fully_labeled(labels), old_predictions)?;
//! let receipt = engine.submit(&ModelCommit::new("abc123", vec![1u32; n]))?;
//! assert!(receipt.passed);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
pub mod dsl;
pub mod engine;
mod error;
pub mod estimator;
mod eval;
pub mod extensions;
mod interval;
mod logic;
mod practicality;
pub mod script;

pub use cache::{
    BoundsCache, BoundsKey, Cache, CachePolicy, CacheStats, PlanCache, PlanFingerprint,
};
pub use engine::{
    clause_label_demand, formula_label_demand, validate_metric_formula, AlarmReason, CiEngine,
    CommitEstimates, CommitHistory, CommitReceipt, Gate, GateSavepoint, HistoryEntry, LabelDemand,
    LabelOracle, MeasuredCounts, Measurement, ModelCommit, PerClassCounts, Predictions, Testset,
    VecOracle,
};
pub use error::{CiError, EngineError, ParseError, Result, ScriptError};
pub use estimator::{
    plan_fingerprint, EstimateProvenance, EstimatorConfig, EstimatorStrategy, SampleSizeEstimate,
    SampleSizeEstimator,
};
pub use eval::{
    clause_interval, evaluate_clause, evaluate_clause_at, evaluate_formula, VariableEstimates,
};
pub use interval::Interval;
pub use logic::{Mode, ParseModeError, Tribool};
pub use practicality::{effort, CostModel, EffortReport, Practicality};
pub use script::{CiScript, CiScriptBuilder};
