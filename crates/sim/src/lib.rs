//! Simulation substrate for the
//! [ease.ml/ci](https://arxiv.org/abs/1903.00278) reproduction.
//!
//! The paper's empirical claims are about a *process*: developers commit
//! models, the engine tests them on finite testsets, and the released
//! decisions must respect an `(ε, δ)` guarantee. This crate provides
//! everything needed to replay that process with known ground truth:
//!
//! * [`joint`] — correlated model-pair generators with exact target
//!   `(accuracy, accuracy, difference)` statistics, plus population-level
//!   conditional evolutions for soundness experiments;
//! * [`developer`] — non-adaptive, hill-climbing and adversarial
//!   developer policies;
//! * [`oracle`] — labelling oracles with person-hour cost ledgers;
//! * [`montecarlo`] — Figure-4 style empirical-ε measurement and full
//!   process-level violation-rate experiments against the real engine;
//! * [`workload`] — the SemEval-2019 Task 3 commit history (Figures 5–6).

#![warn(missing_docs)]

pub mod developer;
mod error;
pub mod joint;
pub mod montecarlo;
pub mod oracle;
pub mod stats;
pub mod workload;

pub use error::{Result, SimError};
