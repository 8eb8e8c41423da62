//! The continuous-integration engine: commit evaluation, adaptivity state,
//! and the new-testset alarm (§2, §3.2–3.5).
//!
//! A [`CiEngine`] is configured by a [`CiScript`], holds the current
//! testset era, and evaluates [`ModelCommit`]s one at a time:
//!
//! 1. measure the condition variables (lazily labelling through a
//!    [`LabelOracle`] when one is installed);
//! 2. evaluate the condition over confidence intervals into
//!    `True`/`False`/`Unknown`;
//! 3. hand the outcome to the era's [`Gate`], which collapses it by
//!    mode, spends a step, releases (or withholds) the signal according
//!    to the adaptivity policy, and fires the new-testset alarm when the
//!    era's statistical power is spent;
//! 4. advance the accepted model on a pass.
//!
//! The serving layer's projects record their commits through the same
//! [`Gate`], so the in-process engine and the served gate cannot drift.

mod evaluator;
mod gate;
mod history;
mod sink;
mod testset;

pub use evaluator::{
    clause_label_demand, first_at_or_above, formula_label_demand, validate_metric_formula,
    CommitEstimates, LabelDemand, MeasuredCounts, Measurement, PerClassCounts,
};
pub use gate::{Gate, GateSavepoint};
pub use history::{CommitHistory, HistoryEntry};
pub use sink::{AlarmReason, CiEvent, CollectingSink, MailboxSink, NotificationSink, NullSink};
pub use testset::{LabelOracle, Testset, VecOracle};

use crate::dsl::{classify_clause, ClauseShape};
use crate::error::{CiError, EngineError, Result};
use crate::estimator::{
    implicit_variance_test_phase, EstimateProvenance, ImplicitVariancePlan, OptimizedPlan,
    SampleSizeEstimate, SampleSizeEstimator,
};
use crate::eval::evaluate_clause_at;
use crate::logic::Tribool;
use crate::script::CiScript;
use std::ops::Range;

/// A committed model: an identifier plus its predictions on the current
/// testset (class indices, one per testset item).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCommit {
    /// Commit identifier (e.g. a VCS hash).
    pub id: String,
    /// Predictions over the current testset, in item order.
    pub predictions: Vec<u32>,
}

impl ModelCommit {
    /// Create a commit.
    #[must_use]
    pub fn new(id: impl Into<String>, predictions: Vec<u32>) -> Self {
        ModelCommit {
            id: id.into(),
            predictions,
        }
    }
}

/// What the engine reports back for one submitted commit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitReceipt {
    /// The commit that was evaluated.
    pub commit_id: String,
    /// 1-based step within the current testset era.
    pub step: u32,
    /// 0-based testset era.
    pub era: u32,
    /// The pass/fail bit *as visible to the developer*: `None` when the
    /// adaptivity policy withholds it (`adaptivity: none`).
    pub signal: Option<bool>,
    /// Whether the commit was accepted into the repository.
    pub accepted: bool,
    /// Three-valued outcome (integration-team view).
    pub outcome: Tribool,
    /// Final pass/fail decision (integration-team view).
    pub passed: bool,
    /// Measured statistics and labelling cost.
    pub estimates: CommitEstimates,
    /// Alarm raised by this evaluation, if any.
    pub alarm: Option<AlarmReason>,
    /// Steps left in the era right after this evaluation (not collapsed
    /// to 0 by retirement).
    pub steps_remaining: u32,
}

/// How the testset pool is partitioned among measurement phases.
#[derive(Debug, Clone, PartialEq)]
enum Layout {
    /// Baseline: every statistic over one shared range.
    Single { test: Range<usize> },
    /// Pattern 1: unlabeled filter range for `d`, labelled Bennett range
    /// for the improvement clause.
    FilterTest {
        filter: Range<usize>,
        test: Range<usize>,
        diff_clause: usize,
        improv_clause: usize,
    },
    /// Pattern 2: unlabeled probe range for `d`, labelled range whose
    /// *used prefix* is sized by the observed difference.
    ProbeTest {
        probe: Range<usize>,
        test_full: Range<usize>,
        plan: ImplicitVariancePlan,
    },
    /// Pattern 3: coarse labelled range, fine labelled range.
    CoarseFine {
        coarse: Range<usize>,
        fine: Range<usize>,
    },
}

/// The CI engine. See the module docs for the lifecycle.
pub struct CiEngine {
    script: CiScript,
    estimate: SampleSizeEstimate,
    layout: Layout,
    testset: Testset,
    oracle: Option<Box<dyn LabelOracle>>,
    sink: Box<dyn NotificationSink>,
    old_predictions: Vec<u32>,
    gate: Gate,
}

impl std::fmt::Debug for CiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CiEngine")
            .field("script", &self.script)
            .field("estimate", &self.estimate)
            .field("steps_used", &self.gate.steps_used())
            .field("era", &self.gate.era())
            .field("retired", &self.gate.is_retired())
            .field("testset_len", &self.testset.len())
            .finish_non_exhaustive()
    }
}

impl CiEngine {
    /// Create an engine for a script with an initial testset and the
    /// currently accepted (old) model's predictions on it.
    ///
    /// The required testset size is computed through
    /// [`SampleSizeEstimator`] with default configuration; use
    /// [`CiEngine::with_estimator`] to override.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::TestsetTooSmall`] if the pool cannot
    /// support the configured condition, and
    /// [`EngineError::PredictionLengthMismatch`] if the old model's
    /// predictions do not cover the pool.
    pub fn new(script: CiScript, testset: Testset, old_predictions: Vec<u32>) -> Result<Self> {
        Self::with_estimator(
            script,
            testset,
            old_predictions,
            &SampleSizeEstimator::new(),
        )
    }

    /// Like [`CiEngine::new`] with an explicit estimator configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CiEngine::new`].
    pub fn with_estimator(
        script: CiScript,
        testset: Testset,
        old_predictions: Vec<u32>,
        estimator: &SampleSizeEstimator,
    ) -> Result<Self> {
        let estimate = estimator.estimate(&script)?;
        let layout = Self::check_pool(&script, &estimate, &testset, &old_predictions)?;
        Ok(CiEngine {
            gate: Gate::new(&script),
            script,
            estimate,
            layout,
            testset,
            oracle: None,
            sink: Box::new(NullSink),
            old_predictions,
        })
    }

    /// Install a labelling oracle for lazy / active labelling.
    #[must_use]
    pub fn with_oracle(mut self, oracle: Box<dyn LabelOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Install a notification sink (alarm + third-party result channel).
    #[must_use]
    pub fn with_sink(mut self, sink: Box<dyn NotificationSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Check that a pool meets the estimate and that the old model's
    /// predictions cover it, then partition it ([`CiEngine::build_layout`]).
    fn check_pool(
        script: &CiScript,
        estimate: &SampleSizeEstimate,
        testset: &Testset,
        old_predictions: &[u32],
    ) -> Result<Layout> {
        let want = estimate.total_samples();
        if (testset.len() as u64) < want {
            return Err(EngineError::TestsetTooSmall {
                got: testset.len(),
                want,
            }
            .into());
        }
        if old_predictions.len() != testset.len() {
            return Err(EngineError::PredictionLengthMismatch {
                got: old_predictions.len(),
                want: testset.len(),
            }
            .into());
        }
        Self::build_layout(script, estimate, testset.len())
    }

    /// Partition the pool. Phase ranges use the estimator's sizes for
    /// the early (probe/filter/coarse) phases and extend the final test
    /// range to the whole pool — more samples only tighten the realised
    /// intervals.
    fn build_layout(
        script: &CiScript,
        estimate: &SampleSizeEstimate,
        pool_len: usize,
    ) -> Result<Layout> {
        let to_usize = |v: u64| -> Result<usize> {
            usize::try_from(v).map_err(|_| {
                CiError::Semantic(format!(
                    "required sample count {v} exceeds addressable size"
                ))
            })
        };
        match &estimate.provenance {
            EstimateProvenance::Baseline => Ok(Layout::Single { test: 0..pool_len }),
            EstimateProvenance::Optimized(OptimizedPlan::Hierarchical(plan)) => {
                let shapes: Vec<ClauseShape> = script
                    .condition()
                    .clauses()
                    .iter()
                    .map(classify_clause)
                    .collect();
                let diff_clause = shapes
                    .iter()
                    .position(|s| matches!(s, ClauseShape::DifferenceBound { .. }))
                    .ok_or_else(|| CiError::Semantic("pattern-1 plan without d clause".into()))?;
                let improv_clause = shapes
                    .iter()
                    .position(|s| matches!(s, ClauseShape::AccuracyImprovement { .. }))
                    .ok_or_else(|| {
                        CiError::Semantic("pattern-1 plan without improvement clause".into())
                    })?;
                let f = to_usize(plan.filter.samples)?;
                Ok(Layout::FilterTest {
                    filter: 0..f,
                    test: f..pool_len,
                    diff_clause,
                    improv_clause,
                })
            }
            EstimateProvenance::Optimized(OptimizedPlan::ImplicitVariance(plan)) => {
                let p = to_usize(plan.probe.samples)?;
                Ok(Layout::ProbeTest {
                    probe: 0..p,
                    test_full: p..pool_len,
                    plan: plan.clone(),
                })
            }
            EstimateProvenance::Optimized(OptimizedPlan::CoarseToFine(plan)) => {
                let c = to_usize(plan.coarse.samples)?;
                Ok(Layout::CoarseFine {
                    coarse: 0..c,
                    fine: c..pool_len,
                })
            }
        }
    }

    /// Evaluate one commit. See the module docs for the full lifecycle.
    ///
    /// # Errors
    ///
    /// * [`EngineError::TestsetRetired`] / [`EngineError::BudgetExhausted`]
    ///   when the current era can no longer test commits;
    /// * [`EngineError::PredictionLengthMismatch`] for bad input;
    /// * [`EngineError::LabelUnavailable`] when labels run out;
    /// * [`EngineError::TestsetTooSmall`] when a Pattern-2 probe reveals
    ///   that more labelled data is needed than the pool holds.
    pub fn submit(&mut self, commit: &ModelCommit) -> Result<CommitReceipt> {
        self.gate.ensure_open()?;
        let (outcome, estimates) = self.measure(commit)?;
        let receipt = self.gate.record(&commit.id, outcome, estimates)?;
        // The `o` baseline the integration team deploys advances only on
        // a true pass, even where `adaptivity: none` lands every commit.
        if receipt.passed {
            self.old_predictions = commit.predictions.clone();
        }
        self.sink.notify(&CiEvent::CommitTested {
            commit_id: commit.id.clone(),
            outcome,
            passed: receipt.passed,
            step: receipt.step,
        });
        if let Some(reason) = receipt.alarm {
            self.sink.notify(&CiEvent::NewTestsetAlarm {
                reason,
                steps_used: receipt.step,
            });
        }
        Ok(receipt)
    }

    fn measure(&mut self, commit: &ModelCommit) -> Result<(Tribool, CommitEstimates)> {
        let layout = self.layout.clone();
        let mut measurement = Measurement::new(
            &mut self.testset,
            self.oracle.as_deref_mut(),
            &self.old_predictions,
            &commit.predictions,
        )?;
        let clauses = self.script.condition().clauses();
        let mut est = CommitEstimates::default();
        let outcome = match &layout {
            Layout::Single { test } => {
                let mut verdicts = Vec::with_capacity(clauses.len());
                for clause in clauses {
                    let lhs = measurement.clause_lhs(clause, test.clone())?;
                    record_estimate(&mut est, clause, lhs);
                    verdicts.push(evaluate_clause_at(clause, lhs));
                }
                est.d
                    .get_or_insert_with(|| measurement.difference(test.clone()));
                Tribool::all(verdicts)
            }
            Layout::FilterTest {
                filter,
                test,
                diff_clause,
                improv_clause,
            } => {
                // Filter step: unlabeled d̂; a certain `False` here skips
                // the labelling phase entirely.
                let d_hat = measurement.difference(filter.clone());
                est.d = Some(d_hat);
                let d_verdict = evaluate_clause_at(&clauses[*diff_clause], d_hat);
                if d_verdict == Tribool::False {
                    Tribool::False
                } else {
                    let lhs = measurement.clause_lhs(&clauses[*improv_clause], test.clone())?;
                    record_estimate(&mut est, &clauses[*improv_clause], lhs);
                    d_verdict & evaluate_clause_at(&clauses[*improv_clause], lhs)
                }
            }
            Layout::ProbeTest {
                probe,
                test_full,
                plan,
            } => {
                // With a known a-priori variance bound there is no probe
                // phase and the whole pool serves the test; otherwise the
                // labelled prefix is sized by the observed difference.
                // Either way the engine's ±ε interval semantics are
                // two-sided.
                let needed = if probe.is_empty() {
                    est.d = Some(measurement.difference(test_full.clone()));
                    test_full.len() as u64
                } else {
                    let d_hat = measurement.difference(probe.clone());
                    est.d = Some(d_hat);
                    implicit_variance_test_phase(plan, d_hat, easeml_bounds::Tail::TwoSided)?
                        .samples
                };
                let needed_u64 = needed;
                let needed = usize::try_from(needed).unwrap_or(usize::MAX);
                if needed > test_full.len() {
                    return Err(EngineError::TestsetTooSmall {
                        got: test_full.len(),
                        want: needed_u64,
                    }
                    .into());
                }
                let range = test_full.start..test_full.start + needed;
                let clause = &clauses[0];
                let lhs = measurement.clause_lhs(clause, range)?;
                record_estimate(&mut est, clause, lhs);
                evaluate_clause_at(clause, lhs)
            }
            Layout::CoarseFine { coarse, fine } => {
                let clause = &clauses[0];
                // The coarse pass only justifies the fine pass's variance
                // bound; the decision rests on the fine estimate.
                let _coarse_n = measurement.new_accuracy(coarse.clone())?;
                let fine_n = measurement.new_accuracy(fine.clone())?;
                est.n = Some(fine_n);
                evaluate_clause_at(clause, fine_n)
            }
        };
        est.labels_requested = measurement.labels_requested();
        Ok((outcome, est))
    }

    /// Install a fresh testset (with the accepted model's predictions on
    /// it) and release the old one. Resets the step budget and starts a
    /// new era.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::TestsetTooSmall`] or
    /// [`EngineError::PredictionLengthMismatch`] under the same
    /// conditions as [`CiEngine::new`].
    pub fn install_testset(
        &mut self,
        testset: Testset,
        old_predictions: Vec<u32>,
    ) -> Result<Testset> {
        // Phase ranges depend on the pool size; rebuild for the new era.
        self.layout = Self::check_pool(&self.script, &self.estimate, &testset, &old_predictions)?;
        let released = std::mem::replace(&mut self.testset, testset);
        self.sink.notify(&CiEvent::TestsetReleased {
            size: released.len(),
        });
        self.sink.notify(&CiEvent::TestsetInstalled {
            size: self.testset.len(),
        });
        self.old_predictions = old_predictions;
        self.gate.fresh_era();
        Ok(released)
    }

    /// The script configuring this engine.
    #[must_use]
    pub fn script(&self) -> &CiScript {
        &self.script
    }

    /// The sample-size estimate the current testset must satisfy.
    #[must_use]
    pub fn required(&self) -> &SampleSizeEstimate {
        &self.estimate
    }

    /// Steps consumed in the current era.
    #[must_use]
    pub fn steps_used(&self) -> u32 {
        self.gate.steps_used()
    }

    /// Steps remaining before the budget alarm (0 when retired).
    #[must_use]
    pub fn steps_remaining(&self) -> u32 {
        self.gate.steps_remaining()
    }

    /// Whether the current testset is retired (alarm fired).
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.gate.is_retired()
    }

    /// Current testset era (0-based; increments per fresh testset).
    #[must_use]
    pub fn era(&self) -> u32 {
        self.gate.era()
    }

    /// The evaluation history.
    #[must_use]
    pub fn history(&self) -> &CommitHistory {
        self.gate.history()
    }

    /// Size of the current testset pool.
    #[must_use]
    pub fn testset_len(&self) -> usize {
        self.testset.len()
    }

    /// Labels known in the current testset.
    #[must_use]
    pub fn labeled_count(&self) -> usize {
        self.testset.labeled_count()
    }

    /// The currently accepted model's predictions.
    #[must_use]
    pub fn old_predictions(&self) -> &[u32] {
        &self.old_predictions
    }
}

/// Record the measured LHS into the per-variable estimate slots when the
/// clause is simple enough to attribute.
fn record_estimate(est: &mut CommitEstimates, clause: &crate::dsl::Clause, lhs: f64) {
    use crate::dsl::{LinearForm, Var};
    let form = LinearForm::from_expr(&clause.expr);
    let a_n = form.coefficient(Var::N);
    let a_o = form.coefficient(Var::O);
    let a_d = form.coefficient(Var::D);
    if a_n == 1.0 && a_o == 0.0 && a_d == 0.0 {
        est.n = Some(lhs);
    } else if a_n == 0.0 && a_o == 1.0 && a_d == 0.0 {
        est.o = Some(lhs);
    } else if a_n == 0.0 && a_o == 0.0 && a_d == 1.0 {
        est.d = Some(lhs);
    } else if a_n == 1.0 && a_o == -1.0 && a_d == 0.0 {
        est.diff = Some(lhs);
    }
}
