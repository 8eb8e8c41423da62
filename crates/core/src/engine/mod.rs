//! The continuous-integration engine: commit evaluation, adaptivity state,
//! and the new-testset alarm (§2, §3.2–3.5).
//!
//! A [`CiEngine`] is configured by a [`CiScript`], holds the current
//! testset era, and evaluates [`ModelCommit`]s one at a time:
//!
//! 1. measure each phase of the estimator's plan (one shared range for
//!    the baseline; filter/probe/coarse ranges before the test range for
//!    Patterns 1–3) through [`Measurement::measure_range`], the counting
//!    core the served gate measures through too, lazily labelling
//!    through a [`LabelOracle`] when one is installed;
//! 2. turn the counts into point estimates ([`MeasuredCounts::estimates`])
//!    and evaluate the condition over confidence intervals into
//!    `True`/`False`/`Unknown`, with the served gate's arithmetic;
//! 3. hand the outcome to the era's [`Gate`], which collapses it by
//!    mode, spends a step, releases (or withholds) the signal according
//!    to the adaptivity policy, and fires the new-testset alarm when the
//!    era's statistical power is spent;
//! 4. advance the accepted model on a pass.
//!
//! The serving layer's projects measure through the same core and record
//! their commits through the same [`Gate`], so the in-process engine and
//! the served gate cannot drift, even where a statistic lands exactly on
//! an interval edge. The engine measures `n`, `o` and `d` only: it
//! refuses conditions over metric variables (`f1`/`topk`), whose
//! per-class counts need the class count a served testset declares.

mod evaluator;
mod gate;
mod history;
mod sink;
mod testset;

pub use evaluator::{
    clause_label_demand, formula_label_demand, validate_metric_formula, CommitEstimates,
    LabelDemand, MeasuredCounts, Measurement, PerClassCounts, Predictions,
};
pub use gate::{Gate, GateSavepoint};
pub use history::{CommitHistory, HistoryEntry};
pub use sink::{AlarmReason, CiEvent, CollectingSink, MailboxSink, NotificationSink, NullSink};
pub use testset::{LabelOracle, Testset, VecOracle};

use crate::dsl::{classify_clause, Clause, ClauseShape, LinearForm, Var};
use crate::error::{CiError, EngineError, Result};
use crate::estimator::{
    implicit_variance_test_phase, EstimateProvenance, ImplicitVariancePlan, OptimizedPlan,
    SampleSizeEstimate, SampleSizeEstimator,
};
use crate::eval::{evaluate_clause, evaluate_formula, VariableEstimates};
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
    /// Pattern 3: coarse labelled range, fine labelled range. The fine
    /// phase is sized for a variance bound that holds only when the true
    /// accuracy is at least `floor − coarse_eps`.
    CoarseFine {
        coarse: Range<usize>,
        fine: Range<usize>,
        floor: f64,
        coarse_eps: f64,
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
    /// support the configured condition,
    /// [`EngineError::PredictionLengthMismatch`] if the old model's
    /// predictions do not cover the pool, and [`CiError::Semantic`] for a
    /// condition over metric variables (`f1(...)`/`topk(...)`).
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
        let clauses = script.condition().clauses();
        if let Some(clause) = clauses.iter().find(|c| c.expr.has_metric()) {
            return Err(CiError::Semantic(format!(
                "clause `{clause}` reads metric variables (f1/topk), which the engine cannot \
                 measure: metric conditions need the class count that a served project's \
                 testset declares at registration"
            )));
        }
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
                    floor: plan.floor,
                    coarse_eps: plan.coarse.epsilon,
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
        let receipt = self.gate.step(&commit.id, || {
            measure(
                &self.script,
                &self.layout,
                &mut self.testset,
                self.oracle.as_deref_mut(),
                &self.old_predictions,
                commit,
            )
        })?;
        // The `o` baseline the integration team deploys advances only on
        // a true pass, even where `adaptivity: none` lands every commit.
        if receipt.passed {
            self.old_predictions = commit.predictions.clone();
        }
        self.sink.notify(&CiEvent::CommitTested {
            commit_id: commit.id.clone(),
            outcome: receipt.outcome,
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

    /// Install a fresh testset (with the accepted model's predictions on
    /// it) and release the old one. Resets the step budget and starts a
    /// new era.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::TestsetTooSmall`] or
    /// [`EngineError::PredictionLengthMismatch`] under the same
    /// conditions as [`CiEngine::new`], and [`EngineError::EraOverflow`]
    /// from [`Gate::fresh_era`]; nothing changes on any of them.
    pub fn install_testset(
        &mut self,
        testset: Testset,
        old_predictions: Vec<u32>,
    ) -> Result<Testset> {
        // Phase ranges depend on the pool size; rebuild for the new era.
        let layout = Self::check_pool(&self.script, &self.estimate, &testset, &old_predictions)?;
        self.gate.fresh_era()?;
        self.layout = layout;
        let released = std::mem::replace(&mut self.testset, testset);
        self.sink.notify(&CiEvent::TestsetReleased {
            size: released.len(),
        });
        self.sink.notify(&CiEvent::TestsetInstalled {
            size: self.testset.len(),
        });
        self.old_predictions = old_predictions;
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

/// Measure every phase of `layout` through [`Measurement::measure_range`]
/// and decide on the resulting point estimates, as the served gate does.
/// Label-free phases (filter, probe) run under [`LabelDemand::Free`];
/// labelled ones under the demand of the clauses they measure.
fn measure(
    script: &CiScript,
    layout: &Layout,
    testset: &mut Testset,
    oracle: Option<&mut (dyn LabelOracle + 'static)>,
    old_predictions: &[u32],
    commit: &ModelCommit,
) -> Result<(Tribool, CommitEstimates)> {
    let mut m = Measurement::new(testset, oracle, old_predictions, &commit.predictions)?;
    let mut phase = |demand, range: &Range<usize>| -> Result<VariableEstimates> {
        Ok(m.measure_range(demand, range.clone(), None)?.0.estimates())
    };
    let condition = script.condition();
    let clauses = condition.clauses();
    let mut est = CommitEstimates::default();
    let outcome = match layout {
        Layout::Single { test } => {
            let at = phase(formula_label_demand(condition), test)?;
            for clause in clauses {
                record_estimate(&mut est, clause, &at);
            }
            est.d.get_or_insert(at.d);
            evaluate_formula(condition, &at)
        }
        Layout::FilterTest {
            filter,
            test,
            diff_clause,
            improv_clause,
        } => {
            // Filter step: unlabeled d̂; a certain `False` here skips
            // the labelling phase entirely.
            let filtered = phase(LabelDemand::Free, filter)?;
            est.d = Some(filtered.d);
            let d_verdict = evaluate_clause(&clauses[*diff_clause], &filtered);
            if d_verdict == Tribool::False {
                Tribool::False
            } else {
                let clause = &clauses[*improv_clause];
                let at = phase(clause_label_demand(clause), test)?;
                record_estimate(&mut est, clause, &at);
                d_verdict & evaluate_clause(clause, &at)
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
                est.d = Some(phase(LabelDemand::Free, test_full)?.d);
                test_full.len() as u64
            } else {
                let d_hat = phase(LabelDemand::Free, probe)?.d;
                est.d = Some(d_hat);
                implicit_variance_test_phase(plan, d_hat, easeml_bounds::Tail::TwoSided)?.samples
            };
            let prefix = usize::try_from(needed).unwrap_or(usize::MAX);
            if prefix > test_full.len() {
                return Err(EngineError::TestsetTooSmall {
                    got: test_full.len(),
                    want: needed,
                }
                .into());
            }
            let clause = &clauses[0];
            let at = phase(
                clause_label_demand(clause),
                &(test_full.start..test_full.start + prefix),
            )?;
            record_estimate(&mut est, clause, &at);
            evaluate_clause(clause, &at)
        }
        Layout::CoarseFine {
            coarse,
            fine,
            floor,
            coarse_eps,
        } => {
            let clause = &clauses[0];
            let demand = clause_label_demand(clause);
            // The coarse pass certifies the fine pass's variance
            // bound (true n ≥ floor − ε_c) only when n̂_c ≥ floor.
            // Below that it decides alone: `False` once its whole
            // interval lies under the floor, `Unknown` otherwise.
            let coarse_n = phase(demand, coarse)?.n;
            if coarse_n + coarse_eps < *floor {
                est.n = Some(coarse_n);
                Tribool::False
            } else if coarse_n < *floor {
                est.n = Some(coarse_n);
                Tribool::Unknown
            } else {
                let at = phase(demand, fine)?;
                est.n = Some(at.n);
                evaluate_clause(clause, &at)
            }
        }
    };
    est.labels_requested = m.labels_requested();
    Ok((outcome, est))
}

/// Record a clause's left-hand side at `at` into the per-variable
/// estimate slots when the clause is simple enough to attribute.
fn record_estimate(est: &mut CommitEstimates, clause: &Clause, at: &VariableEstimates) {
    let form = LinearForm::from_expr(&clause.expr);
    let lhs = at.evaluate_expr(&clause.expr);
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
