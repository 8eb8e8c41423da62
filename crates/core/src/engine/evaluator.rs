//! Measurement layer of the engine: turns predictions + (lazily acquired)
//! labels into clause-level estimates.
//!
//! The key optimization (Technical Observation 2, §4) is that the
//! prediction difference `d` needs no labels at all, and a pure
//! difference `n − o` only needs labels where the two models *disagree*:
//! on agreeing points `nᵢ − oᵢ = 0` regardless of the label. The
//! evaluator exploits both, requesting labels from the oracle only when a
//! clause genuinely needs them and reporting how many fresh labels each
//! evaluation consumed.

use super::testset::{LabelOracle, Testset};
use crate::dsl::{Clause, Formula, LinearForm, Var};
use crate::error::{CiError, EngineError, Result};
use crate::eval::{VariableEstimates, MAX_TOPK_ESTIMATES};
use std::ops::Range;

/// How much ground-truth labelling a condition demands per testset item
/// (§4.1.2). Ordered by cost: [`LabelDemand::Free`] <
/// [`LabelDemand::Disagreements`] < [`LabelDemand::Full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LabelDemand {
    /// No labels needed: the condition only reads `d`.
    Free,
    /// Only items where the two models disagree need labels: every
    /// `n`/`o` occurrence cancels into a pure difference (`αₙ = −αₒ`).
    Disagreements,
    /// Every item in the measured range needs a label (a clause reads
    /// `n` or `o` individually).
    Full,
}

/// The labelling demand of a clause: the cheapest strategy sufficient to
/// measure its left-hand side exactly.
///
/// Metric variables (`f1(...)`, `topk(...)`) always demand
/// [`LabelDemand::Full`]: per-class confusion counts need the true class
/// of every item, and their coefficients are invisible to the `n`/`o`
/// cancellation analysis below — without this branch a pure-metric
/// clause would silently classify as [`LabelDemand::Free`].
#[must_use]
pub fn clause_label_demand(clause: &Clause) -> LabelDemand {
    let form = LinearForm::from_expr(&clause.expr);
    if form.has_metric() {
        return LabelDemand::Full;
    }
    let a_n = form.coefficient(Var::N);
    let a_o = form.coefficient(Var::O);
    if a_n == 0.0 && a_o == 0.0 {
        LabelDemand::Free
    } else if a_n == -a_o {
        LabelDemand::Disagreements
    } else {
        LabelDemand::Full
    }
}

/// The labelling demand of a whole formula: the maximum over its clauses.
#[must_use]
pub fn formula_label_demand(formula: &Formula) -> LabelDemand {
    formula
        .clauses()
        .iter()
        .map(clause_label_demand)
        .max()
        .unwrap_or(LabelDemand::Free)
}

/// Evaluation counts derived by measuring prediction vectors against a
/// (possibly partially labelled) testset — the wire currency of the
/// serving layer's counts gate, produced server-side by
/// [`Measurement::measure`].
///
/// `new_correct` and `old_correct` credit *both* models on items whose
/// label stayed unknown, so the pair is exact exactly where the formula's
/// [`LabelDemand`] needs it: `changed` is always exact,
/// `new_correct − old_correct` is exact whenever every disagreement in
/// the range is labelled, and the individual counts are exact under
/// [`LabelDemand::Full`]. Feeding these counts to a gate that evaluates
/// the *same* formula therefore reproduces the fully-labelled decision
/// at a fraction of the labelling cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredCounts {
    /// Items measured.
    pub samples: u64,
    /// Items credited to the new model (see type docs for the
    /// unknown-label convention).
    pub new_correct: u64,
    /// Items credited to the old model.
    pub old_correct: u64,
    /// Items where the two models' predictions differ (always exact,
    /// label-free).
    pub changed: u64,
    /// Fresh labels pulled from the oracle by this derivation.
    pub labels_spent: u64,
}

/// Per-class confusion counts over the *labelled* portion of a measured
/// range — the extra statistics non-binomial metrics (`f1(...)`,
/// `topk(...)`) need beyond [`MeasuredCounts`]. Metric formulas demand
/// [`LabelDemand::Full`], so when these counts back a metric gate every
/// item in the range is labelled and `support` sums to `samples`.
///
/// All vectors are indexed by class id and have length `classes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerClassCounts {
    /// Declared class count (vector length).
    pub classes: u32,
    /// Labelled items whose true class is `c`.
    pub support: Vec<u64>,
    /// Labelled items where the new model predicts `c` correctly.
    pub new_tp: Vec<u64>,
    /// Labelled items where the old model predicts `c` correctly.
    pub old_tp: Vec<u64>,
    /// Labelled items where the new model predicts `c` (right or wrong).
    pub new_pred: Vec<u64>,
    /// Labelled items where the old model predicts `c`.
    pub old_pred: Vec<u64>,
}

impl PerClassCounts {
    /// All-zero counts for `classes` classes.
    #[must_use]
    pub fn zeroed(classes: u32) -> PerClassCounts {
        let n = classes as usize;
        PerClassCounts {
            classes,
            support: vec![0; n],
            new_tp: vec![0; n],
            old_tp: vec![0; n],
            new_pred: vec![0; n],
            old_pred: vec![0; n],
        }
    }

    /// Total labelled items the counts cover.
    #[must_use]
    pub fn labeled(&self) -> u64 {
        self.support.iter().sum()
    }

    /// Binary F1 with class 1 as positive — the statistic `f1(n)` /
    /// `f1(o)` measures. Follows the convention of
    /// [`crate::extensions::f1_score`]: zero true positives give 0.0.
    #[must_use]
    pub fn f1(&self, new_model: bool) -> f64 {
        let positive = 1usize;
        let (tp, pred) = if new_model {
            (self.new_tp[positive], self.new_pred[positive])
        } else {
            (self.old_tp[positive], self.old_pred[positive])
        };
        if tp == 0 {
            return 0.0;
        }
        let fp = pred - tp;
        let fn_ = self.support[positive] - tp;
        2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
    }

    /// The `k` most frequent classes by support, ties broken towards the
    /// lower class id — the class set `topk(m, k)` restricts to.
    #[must_use]
    pub fn top_classes(&self, k: u32) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.classes).collect();
        ids.sort_by(|&a, &b| {
            self.support[b as usize]
                .cmp(&self.support[a as usize])
                .then(a.cmp(&b))
        });
        ids.truncate(k as usize);
        ids
    }

    /// Accuracy restricted to items whose true class is among the `k`
    /// most frequent classes ([`PerClassCounts::top_classes`]) — the
    /// statistic `topk(n, k)` / `topk(o, k)` measures. An empty
    /// restriction (no support in the top classes) gives 0.0.
    #[must_use]
    pub fn topk(&self, new_model: bool, k: u32) -> f64 {
        let tp = if new_model {
            &self.new_tp
        } else {
            &self.old_tp
        };
        let mut num = 0u64;
        let mut den = 0u64;
        for c in self.top_classes(k) {
            num += tp[c as usize];
            den += self.support[c as usize];
        }
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Fill in the metric estimates a formula reads
    /// ([`VariableEstimates::f1_n`] and friends) from these counts.
    ///
    /// # Errors
    ///
    /// Rejects formulas these counts cannot back
    /// (see [`validate_metric_formula`]).
    pub fn populate_estimates(
        &self,
        formula: &Formula,
        estimates: &mut VariableEstimates,
    ) -> Result<()> {
        validate_metric_formula(formula, self.classes)?;
        for var in formula.variables() {
            match var {
                Var::F1N => estimates.f1_n = Some(self.f1(true)),
                Var::F1O => estimates.f1_o = Some(self.f1(false)),
                Var::TopKN(k) => estimates.set_topk(true, k, self.topk(true, k)),
                Var::TopKO(k) => estimates.set_topk(false, k, self.topk(false, k)),
                Var::N | Var::O | Var::D => {}
            }
        }
        Ok(())
    }
}

/// Check that a testset with `classes` classes can measure every metric
/// variable a formula reads. Plain (`n`/`o`/`d`) formulas always pass.
///
/// # Errors
///
/// * `f1(...)` over fewer than 2 classes (F1 is binary, positive = 1);
/// * `topk(m, k)` with `k` exceeding the class count;
/// * more than `MAX_TOPK_ESTIMATES` distinct `k`s in one formula.
pub fn validate_metric_formula(formula: &Formula, classes: u32) -> Result<()> {
    let vars = formula.variables();
    if vars.iter().any(|v| matches!(v, Var::F1N | Var::F1O)) && classes < 2 {
        return Err(CiError::Semantic(format!(
            "f1(...) needs at least 2 classes (positive class is 1), testset declares {classes}"
        )));
    }
    let ks = formula.topk_ks();
    if ks.len() > MAX_TOPK_ESTIMATES {
        return Err(CiError::Semantic(format!(
            "formula uses {} distinct topk class counts, at most {MAX_TOPK_ESTIMATES} supported",
            ks.len()
        )));
    }
    if let Some(&k) = ks.iter().find(|&&k| k > classes) {
        return Err(CiError::Semantic(format!(
            "topk({k}) exceeds the testset's {classes} class(es)"
        )));
    }
    Ok(())
}

/// Per-commit measurement summary, as recorded in receipts and history.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommitEstimates {
    /// Estimated fraction of changed predictions (`d̂`), when measured.
    pub d: Option<f64>,
    /// Estimated new-model accuracy (`n̂`), when individually measured.
    pub n: Option<f64>,
    /// Estimated old-model accuracy (`ô`), when individually measured.
    pub o: Option<f64>,
    /// Directly measured accuracy difference (`n̂ − ô` via the
    /// disagreement trick), when used.
    pub diff: Option<f64>,
    /// Fresh labels requested from the oracle during this evaluation.
    pub labels_requested: u64,
}

/// Evaluation context for one commit: the testset (mutable: labels fill
/// in lazily), an optional oracle, and the two prediction vectors.
///
/// [`Measurement::measure`] is the whole-pool entry the serving layer
/// measures every predictions commit through; the range methods
/// ([`Measurement::clause_lhs`] and friends) serve the engine's phased
/// plans. Every fresh oracle pull is recorded
/// ([`Measurement::fresh_labels`]), so a caller whose commit does not
/// land can hand exactly those labels back ([`Testset::unset_label`]).
pub struct Measurement<'a> {
    testset: &'a mut Testset,
    oracle: Option<&'a mut (dyn LabelOracle + 'static)>,
    old: &'a [u32],
    new: &'a [u32],
    /// Items pulled from the oracle so far, in call order.
    fresh: Vec<usize>,
}

impl std::fmt::Debug for Measurement<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Measurement")
            .field("testset_len", &self.testset.len())
            .field("has_oracle", &self.oracle.is_some())
            .field("labels_requested", &self.fresh.len())
            .finish_non_exhaustive()
    }
}

/// The loud error for a label or prediction outside `0..classes`.
fn out_of_class(what: &str, value: u32, item: usize, classes: u32) -> CiError {
    CiError::Semantic(format!(
        "{what} {value} for item {item} is outside the declared class range 0..{classes}"
    ))
}

/// The first value at or above `bound`, if any. The in-range case costs
/// one vectorised pass: an OR over the vector bounds every value from
/// above, and when it does not settle the question (a bound that is not
/// a power of two) the maximum does. Only a vector holding an offending
/// value is scanned item by item.
#[must_use]
pub fn first_at_or_above(values: &[u32], bound: u32) -> Option<usize> {
    if values.iter().fold(0, |any, &v| any | v) < bound
        || values.iter().fold(0, |max, &v| max.max(v)) < bound
    {
        return None;
    }
    values.iter().position(|&v| v >= bound)
}

/// `LANE_BIT[j]` is bit `j` of a 32-bit half of the known mask. Testing
/// `half & LANE_BIT[j]` is an AND and a compare per item, which
/// vectorises on baseline x86-64 where a per-item variable shift does
/// not.
const LANE_BIT: [u32; 32] = {
    let mut bits = [0; 32];
    let mut j = 0;
    while j < 32 {
        bits[j] = 1 << j;
        j += 1;
    }
    bits
};

impl<'a> Measurement<'a> {
    /// Create a measurement context.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PredictionLengthMismatch`] if either
    /// prediction vector does not cover the testset.
    pub fn new(
        testset: &'a mut Testset,
        oracle: Option<&'a mut (dyn LabelOracle + 'static)>,
        old: &'a [u32],
        new: &'a [u32],
    ) -> Result<Self> {
        let want = testset.len();
        if old.len() != want {
            return Err(EngineError::PredictionLengthMismatch {
                got: old.len(),
                want,
            }
            .into());
        }
        if new.len() != want {
            return Err(EngineError::PredictionLengthMismatch {
                got: new.len(),
                want,
            }
            .into());
        }
        Ok(Measurement {
            testset,
            oracle,
            old,
            new,
            fresh: Vec::new(),
        })
    }

    /// Fresh labels pulled from the oracle so far.
    #[must_use]
    pub fn labels_requested(&self) -> u64 {
        self.fresh.len() as u64
    }

    /// The items pulled from the oracle so far, in call order — what a
    /// rollback unsets. Also complete after an error: a pull that failed
    /// labelled nothing.
    #[must_use]
    pub fn fresh_labels(&self) -> &[usize] {
        &self.fresh
    }

    /// Item `i`'s label, pulled from the oracle (and recorded as fresh)
    /// when the pool lacks it.
    fn pull(&mut self, i: usize) -> Result<u32> {
        let (label, fresh) = self.testset.require_label(i, self.oracle.as_deref_mut())?;
        if fresh {
            self.fresh.push(i);
        }
        Ok(label)
    }

    /// Label-free estimate of `d` over an index range.
    #[must_use]
    pub fn difference(&self, range: Range<usize>) -> f64 {
        let len = range.len().max(1);
        let changed = range
            .clone()
            .filter(|&i| self.new[i] != self.old[i])
            .count();
        changed as f64 / len as f64
    }

    /// Accuracy of the *new* model over a range (labels every item).
    ///
    /// # Errors
    ///
    /// Propagates label-acquisition failures.
    pub fn new_accuracy(&mut self, range: Range<usize>) -> Result<f64> {
        self.accuracy_of(range, /* new */ true)
    }

    /// Accuracy of the *old* model over a range (labels every item).
    ///
    /// # Errors
    ///
    /// Propagates label-acquisition failures.
    pub fn old_accuracy(&mut self, range: Range<usize>) -> Result<f64> {
        self.accuracy_of(range, /* new */ false)
    }

    fn accuracy_of(&mut self, range: Range<usize>, new: bool) -> Result<f64> {
        let len = range.len().max(1);
        let mut correct = 0usize;
        for i in range {
            let label = self.pull(i)?;
            let pred = if new { self.new[i] } else { self.old[i] };
            if pred == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / len as f64)
    }

    /// Directly measure `n − o` over a range via the disagreement trick:
    /// only items where predictions differ are labelled (§4.1.2).
    ///
    /// # Errors
    ///
    /// Propagates label-acquisition failures.
    pub fn accuracy_difference(&mut self, range: Range<usize>) -> Result<f64> {
        let len = range.len().max(1);
        let mut delta = 0i64;
        for i in range {
            if self.new[i] == self.old[i] {
                continue; // contributes 0 regardless of the label
            }
            let label = self.pull(i)?;
            delta += i64::from(self.new[i] == label) - i64::from(self.old[i] == label);
        }
        Ok(delta as f64 / len as f64)
    }

    /// Measure the whole pool for a formula in one pass, spending only
    /// the labels the formula's [`LabelDemand`] requires:
    ///
    /// * [`LabelDemand::Free`]: no oracle calls;
    /// * [`LabelDemand::Disagreements`]: labels only where the two
    ///   models disagree (§4.1.2 difference trick);
    /// * [`LabelDemand::Full`]: labels every item — always the case for
    ///   metric formulas (`f1(...)`/`topk(...)`), which also get their
    ///   [`PerClassCounts`]; plain formulas return `None` for them.
    ///
    /// A pull pre-pass fetches the missing labels in ascending item
    /// order; then one counting loop runs over the predictions, the
    /// pool's label slots and its known mask. Items whose label is known
    /// are scored exactly whatever the demand; items that stay unlabelled
    /// credit both models (see [`MeasuredCounts`] for why this keeps
    /// every decision-relevant statistic exact).
    ///
    /// # Errors
    ///
    /// Propagates label-acquisition failures. Metric formulas are
    /// checked against `classes` ([`validate_metric_formula`]), and a
    /// label or prediction outside `0..classes` is refused at the first
    /// such item, after the labels of the items before it (and its own)
    /// were pulled. Plain formulas ignore `classes`.
    pub fn measure(
        &mut self,
        formula: &Formula,
        classes: u32,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>)> {
        let metric = formula.has_metric();
        let demand = if metric {
            validate_metric_formula(formula, classes)?;
            LabelDemand::Full
        } else {
            formula_label_demand(formula)
        };
        let spent_before = self.fresh.len();
        let len = self.testset.len();
        // Per-class tallies index by class: stop at the first item out
        // of range, after pulling its label, as the per-item order does.
        let stop = if metric {
            self.first_out_of_class(classes)
        } else {
            len
        };
        self.pull_needed(demand, (stop + 1).min(len), metric.then_some(classes))?;
        if stop < len {
            let label = self.testset.label(stop).expect("pulled above");
            return Err(if label >= classes {
                out_of_class("label", label, stop, classes)
            } else if self.old[stop] >= classes {
                out_of_class("old prediction", self.old[stop], stop, classes)
            } else {
                out_of_class("new prediction", self.new[stop], stop, classes)
            });
        }
        let (mut counts, per_class) = if metric {
            let (counts, per_class) = self.count_per_class(classes);
            (counts, Some(per_class))
        } else {
            (self.count(), None)
        };
        counts.labels_spent = (self.fresh.len() - spent_before) as u64;
        Ok((counts, per_class))
    }

    /// The first item whose prediction, or known label, falls outside
    /// `0..classes` (`len` when none does). Unknown label slots hold 0.
    fn first_out_of_class(&self, classes: u32) -> usize {
        let len = self.testset.len();
        let labels = self.testset.label_slots();
        let flagged = [self.old, self.new, labels]
            .iter()
            .any(|values| first_at_or_above(values, classes).is_some());
        if !flagged {
            return len;
        }
        (0..len)
            .find(|&i| {
                self.old[i] >= classes
                    || self.new[i] >= classes
                    || self.testset.label(i).is_some_and(|l| l >= classes)
            })
            .unwrap_or(len)
    }

    /// Pull, in ascending item order, every label `demand` needs that
    /// the pool lacks among items `0..end` — the oracle call sequence of
    /// the per-item loop. With `classes` set, a pulled label outside
    /// `0..classes` stops the pass with the loud error.
    fn pull_needed(&mut self, demand: LabelDemand, end: usize, classes: Option<u32>) -> Result<()> {
        if demand == LabelDemand::Free {
            return Ok(());
        }
        for base in (0..end).step_by(32) {
            let unknown = !(self.testset.known_mask()[base / 64] >> (base % 64)) as u32;
            if unknown == 0 {
                continue;
            }
            let top = (base + 32).min(end);
            let need = match demand {
                LabelDemand::Disagreements => {
                    let items = self.old[base..top].iter().zip(&self.new[base..top]);
                    items.zip(&LANE_BIT).fold(0, |bits, ((o, n), &bit)| {
                        bits | (u32::from(o != n).wrapping_neg() & bit)
                    })
                }
                _ => !0u32 >> (32 - (top - base)),
            };
            let mut fresh = need & unknown;
            while fresh != 0 {
                let i = base + fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                let label = self.pull(i)?;
                if let Some(classes) = classes.filter(|&c| label >= c) {
                    return Err(out_of_class("label", label, i, classes));
                }
            }
        }
        Ok(())
    }

    /// The counting loop of a plain formula: `changed` over every item,
    /// exact credit where the known mask says the label is known, both
    /// models credited where it is not. Branch-free per item.
    fn count(&self) -> MeasuredCounts {
        let labels = self.testset.label_slots();
        let mask = self.testset.known_mask();
        // One 32-bit half of the mask per 32 items.
        let halves = mask.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]);
        let (mut changed, mut new_hits, mut old_hits) = (0u64, 0u64, 0u64);
        let chunks = self.old.chunks(32).zip(self.new.chunks(32));
        for ((old, new), (labels, half)) in chunks.zip(labels.chunks(32).zip(halves)) {
            let (mut c, mut n_hit, mut o_hit) = (0u32, 0u32, 0u32);
            let items = old.iter().zip(new).zip(labels).zip(&LANE_BIT);
            for (((&o, &n), &l), &bit) in items {
                let known = u32::from(half & bit != 0);
                c += u32::from(o != n);
                n_hit += u32::from(n == l) & known;
                o_hit += u32::from(o == l) & known;
            }
            changed += u64::from(c);
            new_hits += u64::from(n_hit);
            old_hits += u64::from(o_hit);
        }
        let unknown = (self.testset.len() - self.testset.labeled_count()) as u64;
        MeasuredCounts {
            samples: self.testset.len() as u64,
            new_correct: new_hits + unknown,
            old_correct: old_hits + unknown,
            changed,
            labels_spent: 0,
        }
    }

    /// The counting loop of a metric formula, once every label is known
    /// and every value lies in `0..classes`: the scalar counts plus the
    /// per-class confusion tallies. Three tallies per item: predictions
    /// per class for each model, and per true class a 4-way split by
    /// which models got the item right (support, `new_tp` and `old_tp`
    /// all read off it).
    fn count_per_class(&self, classes: u32) -> (MeasuredCounts, PerClassCounts) {
        let c = classes as usize;
        let (mut by_label, mut new_pred, mut old_pred) =
            (vec![0u64; 4 * c], vec![0; c], vec![0; c]);
        let mut changed = 0u64;
        let items = self
            .old
            .iter()
            .zip(self.new)
            .zip(self.testset.label_slots());
        for ((&o, &n), &l) in items {
            changed += u64::from(o != n);
            by_label[4 * l as usize + 2 * usize::from(n == l) + usize::from(o == l)] += 1;
            new_pred[n as usize] += 1;
            old_pred[o as usize] += 1;
        }
        let split = |ways: [usize; 2]| -> Vec<u64> {
            by_label
                .chunks(4)
                .map(|t| t[ways[0]] + t[ways[1]])
                .collect()
        };
        let pc = PerClassCounts {
            classes,
            support: by_label.chunks(4).map(|t| t.iter().sum()).collect(),
            new_tp: split([2, 3]),
            old_tp: split([1, 3]),
            new_pred,
            old_pred,
        };
        let counts = MeasuredCounts {
            samples: self.testset.len() as u64,
            new_correct: pc.new_tp.iter().sum(),
            old_correct: pc.old_tp.iter().sum(),
            changed,
            labels_spent: 0,
        };
        (counts, pc)
    }

    /// Measure the left-hand side of a clause over a range, choosing the
    /// cheapest sufficient strategy:
    ///
    /// * `d`-only expressions: label-free;
    /// * expressions where the `n` and `o` coefficients cancel
    ///   (`α_n = −α_o`): disagreement labelling only;
    /// * anything else: full labelling of the range.
    ///
    /// # Errors
    ///
    /// Propagates label-acquisition failures. Rejects metric clauses
    /// loudly: `f1(...)`/`topk(...)` are not linear in the per-item
    /// accuracy statistics this measures, so silently evaluating the
    /// plain terms would report a wrong left-hand side.
    pub fn clause_lhs(&mut self, clause: &Clause, range: Range<usize>) -> Result<f64> {
        let form = LinearForm::from_expr(&clause.expr);
        if form.has_metric() {
            return Err(CiError::Semantic(format!(
                "clause `{clause}` reads metric variables (f1/topk); evaluate it from \
                 per-class counts (Measurement::measure), not clause_lhs"
            )));
        }
        let a_n = form.coefficient(Var::N);
        let a_o = form.coefficient(Var::O);
        let a_d = form.coefficient(Var::D);
        let d_part = if a_d != 0.0 {
            a_d * self.difference(range.clone())
        } else {
            0.0
        };
        if a_n == 0.0 && a_o == 0.0 {
            return Ok(d_part);
        }
        if a_n == -a_o {
            let diff = self.accuracy_difference(range)?;
            return Ok(a_n * diff + d_part);
        }
        let n_part = if a_n != 0.0 {
            a_n * self.new_accuracy(range.clone())?
        } else {
            0.0
        };
        let o_part = if a_o != 0.0 {
            a_o * self.old_accuracy(range)?
        } else {
            0.0
        };
        Ok(n_part + o_part + d_part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_clause;
    use crate::engine::testset::VecOracle;

    /// 10 items; labels all 0. Old model predicts 0 except items 8, 9
    /// (accuracy 0.8). New model predicts 0 except item 9 (accuracy 0.9).
    /// They disagree exactly on item 8 (d = 0.1).
    fn fixture() -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let labels = vec![0u32; 10];
        let mut old = vec![0u32; 10];
        old[8] = 1;
        old[9] = 1;
        let mut new = vec![0u32; 10];
        new[9] = 1;
        (labels, old, new)
    }

    #[test]
    fn difference_needs_no_labels() {
        let (_, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        assert!((m.difference(0..10) - 0.1).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 0);
    }

    #[test]
    fn accuracy_labels_everything_in_range() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        assert!((m.new_accuracy(0..10).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 10);
        // Old accuracy reuses the cached labels.
        assert!((m.old_accuracy(0..10).unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 10);
    }

    #[test]
    fn difference_trick_labels_only_disagreements() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let diff = m.accuracy_difference(0..10).unwrap();
        assert!((diff - 0.1).abs() < 1e-12, "diff = {diff}");
        assert_eq!(m.labels_requested(), 1, "only item 8 disagrees");
    }

    #[test]
    fn clause_lhs_picks_cheapest_strategy() {
        let (labels, old, new) = fixture();
        // d-only: free.
        {
            let mut testset = Testset::unlabeled(10);
            let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
            let clause = parse_clause("d < 0.2 +/- 0.05").unwrap();
            assert!((m.clause_lhs(&clause, 0..10).unwrap() - 0.1).abs() < 1e-12);
            assert_eq!(m.labels_requested(), 0);
        }
        // n - o: disagreement labels only.
        {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let clause = parse_clause("n - o > 0.0 +/- 0.05").unwrap();
            assert!((m.clause_lhs(&clause, 0..10).unwrap() - 0.1).abs() < 1e-12);
            assert_eq!(m.labels_requested(), 1);
        }
        // scaled difference 2*(n-o) still uses the trick.
        {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let clause = parse_clause("2 * (n - o) > 0.0 +/- 0.05").unwrap();
            assert!((m.clause_lhs(&clause, 0..10).unwrap() - 0.2).abs() < 1e-12);
            assert_eq!(m.labels_requested(), 1);
        }
        // bare n: full labelling.
        {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels);
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let clause = parse_clause("n > 0.5 +/- 0.1").unwrap();
            assert!((m.clause_lhs(&clause, 0..10).unwrap() - 0.9).abs() < 1e-12);
            assert_eq!(m.labels_requested(), 10);
        }
    }

    #[test]
    fn mixed_expression_with_d() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let clause = parse_clause("n - o + d > 0.0 +/- 0.05").unwrap();
        // 0.1 + 0.1 = 0.2; still only one label (difference trick + free d).
        assert!((m.clause_lhs(&clause, 0..10).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 1);
    }

    #[test]
    fn label_demand_classification() {
        use crate::dsl::parse_formula;
        let demand = |text: &str| formula_label_demand(&parse_formula(text).unwrap());
        assert_eq!(demand("d < 0.2 +/- 0.05"), LabelDemand::Free);
        assert_eq!(demand("n - o > 0.0 +/- 0.05"), LabelDemand::Disagreements);
        assert_eq!(
            demand("2 * (n - o) > 0.0 +/- 0.05"),
            LabelDemand::Disagreements
        );
        assert_eq!(
            demand("n - o > 0.0 +/- 0.05 /\\ d < 0.2 +/- 0.05"),
            LabelDemand::Disagreements
        );
        assert_eq!(demand("n > 0.5 +/- 0.1"), LabelDemand::Full);
        assert_eq!(demand("n - 1.1 * o > 0.0 +/- 0.1"), LabelDemand::Full);
        assert_eq!(
            demand("n - o > 0.0 +/- 0.05 /\\ o > 0.5 +/- 0.1"),
            LabelDemand::Full
        );
    }

    #[test]
    fn derive_counts_spends_only_what_the_formula_demands() {
        use crate::dsl::parse_formula;
        let (labels, old, new) = fixture();
        let measure = |pool: &mut Testset, oracle: Option<&mut VecOracle>, text: &str| {
            let oracle = oracle.map(|o| o as &mut (dyn LabelOracle + 'static));
            let (counts, per_class) = Measurement::new(pool, oracle, &old, &new)
                .unwrap()
                .measure(&parse_formula(text).unwrap(), 2)
                .unwrap();
            assert!(
                per_class.is_none(),
                "plain formulas carry no per-class counts"
            );
            counts
        };
        // d-only: zero labels, exact `changed`; unknown items credit both.
        let c = measure(&mut Testset::unlabeled(10), None, "d < 0.2 +/- 0.05");
        assert_eq!((c.samples, c.changed, c.labels_spent), (10, 1, 0));
        assert_eq!((c.new_correct, c.old_correct), (10, 10));
        // n - o: only the single disagreement is labelled, and the
        // difference of the counts is the exact accuracy difference.
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels.clone());
        let c = measure(&mut testset, Some(&mut oracle), "n - o > 0.0 +/- 0.05");
        assert_eq!(c.labels_spent, 1, "only item 8 disagrees");
        assert_eq!(c.new_correct as i64 - c.old_correct as i64, 1);
        assert_eq!(c.changed, 1);
        assert_eq!(testset.labeled_count(), 1);
        // Bare n: full labelling, exact confusion counts.
        let mut oracle = VecOracle::new(labels.clone());
        let c = measure(
            &mut Testset::unlabeled(10),
            Some(&mut oracle),
            "n > 0.5 +/- 0.1",
        );
        assert_eq!(c.labels_spent, 10);
        assert_eq!((c.new_correct, c.old_correct, c.changed), (9, 8, 1));
        // Fully labelled pool: counts are the true confusion counts and
        // nothing is spent, whatever the demand.
        let c = measure(
            &mut Testset::fully_labeled(labels),
            None,
            "d < 0.2 +/- 0.05",
        );
        assert_eq!((c.new_correct, c.old_correct, c.labels_spent), (9, 8, 0));
    }

    #[test]
    fn derived_counts_reproduce_clause_lhs() {
        // The equivalence the serving gate rests on: evaluating a clause
        // at the measured counts' point estimates gives exactly the value
        // the measurement layer would have measured for it.
        use crate::dsl::parse_formula;
        let (labels, old, new) = fixture();
        for text in [
            "d < 0.2 +/- 0.05",
            "n - o > 0.0 +/- 0.05",
            "n - o + d > 0.0 +/- 0.05",
            "n > 0.5 +/- 0.1 /\\ d < 0.2 +/- 0.05",
        ] {
            let formula = parse_formula(text).unwrap();
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let (c, _) = m.measure(&formula, 2).unwrap();
            let s = c.samples as f64;
            let est = crate::eval::VariableEstimates::new(
                c.new_correct as f64 / s,
                c.old_correct as f64 / s,
                c.changed as f64 / s,
            );
            // A fresh measurement context over the same (now labelled)
            // pool measures each clause directly.
            let mut m2 = Measurement::new(&mut testset, None, &old, &new).unwrap();
            for clause in formula.clauses() {
                let lhs = m2.clause_lhs(clause, 0..10).unwrap();
                let from_counts = est.evaluate_expr(&clause.expr);
                assert!(
                    (lhs - from_counts).abs() < 1e-12,
                    "{text}: clause `{clause}` measured {lhs} vs counts {from_counts}"
                );
            }
        }
    }

    #[test]
    fn derive_counts_without_needed_oracle_fails() {
        use crate::dsl::parse_formula;
        let (_, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        assert!(m
            .measure(&parse_formula("n > 0.5 +/- 0.1").unwrap(), 2)
            .is_err());
    }

    /// The per-item measurement loop, one item at a time over any range:
    /// the reference [`Measurement::measure`]'s equivalence tests pin
    /// against.
    fn derive_counts_with_classes(
        m: &mut Measurement<'_>,
        formula: &Formula,
        range: Range<usize>,
        classes: u32,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>)> {
        let metric = formula.has_metric();
        if metric {
            validate_metric_formula(formula, classes)?;
        }
        let demand = if metric {
            LabelDemand::Full
        } else {
            formula_label_demand(formula)
        };
        let spent_before = m.fresh.len();
        let mut per_class = metric.then(|| PerClassCounts::zeroed(classes));
        let mut changed = 0u64;
        let mut new_correct = 0u64;
        let mut old_correct = 0u64;
        for i in range.clone() {
            let disagree = m.new[i] != m.old[i];
            changed += u64::from(disagree);
            let need = match demand {
                LabelDemand::Free => false,
                LabelDemand::Disagreements => disagree,
                LabelDemand::Full => true,
            };
            let label = if need {
                Some(m.pull(i)?)
            } else {
                m.testset.label(i)
            };
            let Some(label) = label else {
                // Unknown label: identical credit to both models. The
                // formula never reads the statistics this distorts (or
                // the item would have been labelled above).
                new_correct += 1;
                old_correct += 1;
                continue;
            };
            new_correct += u64::from(m.new[i] == label);
            old_correct += u64::from(m.old[i] == label);
            if let Some(pc) = per_class.as_mut() {
                for (what, value) in [
                    ("label", label),
                    ("old prediction", m.old[i]),
                    ("new prediction", m.new[i]),
                ] {
                    if value >= classes {
                        return Err(out_of_class(what, value, i, classes));
                    }
                }
                pc.support[label as usize] += 1;
                pc.new_pred[m.new[i] as usize] += 1;
                pc.old_pred[m.old[i] as usize] += 1;
                if m.new[i] == label {
                    pc.new_tp[label as usize] += 1;
                }
                if m.old[i] == label {
                    pc.old_tp[label as usize] += 1;
                }
            }
        }
        let counts = MeasuredCounts {
            samples: range.len() as u64,
            new_correct,
            old_correct,
            changed,
            labels_spent: (m.fresh.len() - spent_before) as u64,
        };
        Ok((counts, per_class))
    }

    /// Deterministic xorshift generator for the measurement sweeps.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
        fn vec(&mut self, len: usize, bound: u32) -> Vec<u32> {
            (0..len)
                .map(|_| self.below(u64::from(bound)) as u32)
                .collect()
        }
    }

    /// A ground-truth oracle that records every call, index by index.
    struct RecordingOracle {
        truth: Vec<u32>,
        calls: Vec<usize>,
    }

    impl LabelOracle for RecordingOracle {
        fn label(&mut self, index: usize) -> Option<u32> {
            self.calls.push(index);
            self.truth.get(index).copied()
        }
    }

    /// Everything one measurement leaves behind: its result (errors as
    /// text), the pool, the oracle's calls and the recorded fresh pulls.
    type Outcome = (
        std::result::Result<(MeasuredCounts, Option<PerClassCounts>), String>,
        Testset,
        Vec<usize>,
        Vec<usize>,
    );

    /// Measure `old`/`new` over a copy of `pool` (an oracle over `truth`
    /// when `oracle` is set) through [`Measurement::measure`] and through
    /// the per-item reference.
    #[allow(clippy::too_many_arguments)]
    fn measure_both(
        formula: &Formula,
        classes: u32,
        pool: &Testset,
        truth: &[u32],
        oracle: bool,
        old: &[u32],
        new: &[u32],
    ) -> [Outcome; 2] {
        [false, true].map(|reference| {
            let mut pool = pool.clone();
            let mut recorder = RecordingOracle {
                truth: truth.to_vec(),
                calls: Vec::new(),
            };
            let dyn_oracle: Option<&mut (dyn LabelOracle + 'static)> =
                if oracle { Some(&mut recorder) } else { None };
            let mut m = Measurement::new(&mut pool, dyn_oracle, old, new).unwrap();
            let result = if reference {
                derive_counts_with_classes(&mut m, formula, 0..old.len(), classes)
            } else {
                m.measure(formula, classes)
            };
            let fresh = m.fresh_labels().to_vec();
            (
                result.map_err(|e| e.to_string()),
                pool,
                recorder.calls,
                fresh,
            )
        })
    }

    /// Assert the one pass and the per-item reference agree on counts,
    /// per-class counts, errors, pool state and the oracle's calls.
    fn assert_same(outcomes: &[Outcome; 2], what: &str) {
        let [(got, got_pool, got_calls, got_fresh), (want, want_pool, want_calls, want_fresh)] =
            outcomes;
        assert_eq!(got, want, "{what}: result");
        assert_eq!(got_pool, want_pool, "{what}: label pool");
        assert_eq!(got_calls, want_calls, "{what}: oracle calls");
        assert_eq!(got_fresh, want_fresh, "{what}: fresh labels");
    }

    #[test]
    fn packed_derive_counts_is_bit_identical_to_per_item_path() {
        use crate::dsl::parse_formula;
        // Every LabelDemand shape, as the serving layer classifies them:
        // d-only (Free), pure difference (Disagreements, alone and in a
        // conjunction with d), and individual accuracy (Full).
        let formulas = [
            "d < 0.5 +/- 0.1",
            "n - o > 0.0 +/- 0.1",
            "n - o > 0.0 +/- 0.1 /\\ d < 0.5 +/- 0.1",
            "n > 0.5 +/- 0.1",
        ];
        let mut rng = Rng(0x2447_1339_ace1_d00d);
        for trial in 0..40 {
            let len = 1 + rng.below(130) as usize; // crosses word boundaries
            let classes = 1 + rng.below(7) as u32;
            let truth = rng.vec(len, classes);
            let old = rng.vec(len, classes);
            let new = rng.vec(len, classes);
            // Random partial pre-labelling (always consistent with truth).
            let mut pool = Testset::unlabeled(len);
            for i in (0..len).filter(|_| rng.below(4) == 0) {
                pool.set_label(i, truth[i]);
            }
            for text in formulas {
                let formula = parse_formula(text).unwrap();
                let outcomes = measure_both(&formula, classes, &pool, &truth, true, &old, &new);
                assert!(outcomes[0].0.is_ok());
                assert_same(&outcomes, &format!("trial {trial} formula {text}"));
            }
        }
    }

    #[test]
    fn packed_derive_counts_falls_back_and_errors_like_scalar() {
        use crate::dsl::parse_formula;
        let (labels, old, new) = fixture();
        // Missing oracle under Full demand errors exactly like the
        // per-item path (ascending order ⇒ same first failing item), on
        // an empty pool and on a partly labelled one.
        let formula = parse_formula("n > 0.5 +/- 0.1").unwrap();
        let mut partial = Testset::unlabeled(10);
        partial.set_label(0, 0);
        for pool in [Testset::unlabeled(10), partial] {
            let outcomes = measure_both(&formula, 2, &pool, &labels, false, &old, &new);
            assert!(outcomes[0].0.is_err());
            assert_same(&outcomes, "no oracle");
        }
        // An oracle that runs dry mid-pass stops both at the same item,
        // keeping the labels pulled before it.
        let outcomes = measure_both(
            &formula,
            2,
            &Testset::unlabeled(10),
            &labels[..6],
            true,
            &old,
            &new,
        );
        assert!(outcomes[0].0.as_ref().unwrap_err().contains("6"));
        assert_eq!(outcomes[0].1.labeled_count(), 6);
        assert_same(&outcomes, "short oracle");
        // No class cap: 65 and 70 classes measure like 2 do.
        let f1 = parse_formula("f1(n) - f1(o) > -0.1 +/- 0.1").unwrap();
        let wide: Vec<u32> = (0..130u32).map(|i| i % 70).collect();
        let shifted: Vec<u32> = wide.iter().map(|&v| (v + 1) % 70).collect();
        for classes in [65, 70] {
            let truth: Vec<u32> = wide.iter().map(|&v| v % classes).collect();
            let outcomes = measure_both(
                &f1,
                classes,
                &Testset::unlabeled(130),
                &truth,
                true,
                &truth,
                &shifted.iter().map(|&v| v % classes).collect::<Vec<_>>(),
            );
            assert!(outcomes[0].0.is_ok());
            assert_same(&outcomes, &format!("{classes} classes"));
        }
    }

    #[test]
    fn metric_clauses_demand_full_labelling() {
        use crate::dsl::parse_formula;
        let demand = |text: &str| formula_label_demand(&parse_formula(text).unwrap());
        // Pure metric clauses have zero n/o coefficients; without the
        // metric branch they would misclassify as Free.
        assert_eq!(demand("f1(n) > 0.8 +/- 0.05"), LabelDemand::Full);
        assert_eq!(demand("f1(n) - f1(o) > -0.02 +/- 0.01"), LabelDemand::Full);
        assert_eq!(
            demand("topk(n, 3) - topk(o, 3) > 0.0 +/- 0.1"),
            LabelDemand::Full
        );
        assert_eq!(
            demand("f1(n) - f1(o) > -0.02 +/- 0.01 /\\ d < 0.1 +/- 0.05"),
            LabelDemand::Full
        );
    }

    #[test]
    fn scalar_count_paths_reject_metric_formulas_loudly() {
        use crate::dsl::parse_clause;
        let (labels, old, new) = fixture();
        let mut testset = Testset::fully_labeled(labels);
        let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        let err = m
            .clause_lhs(&parse_clause("f1(n) > 0.8 +/- 0.05").unwrap(), 0..10)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("metric"),
            "error not loud about metrics: {msg}"
        );
    }

    #[test]
    fn validate_metric_formula_rejects_impossible_testsets() {
        use crate::dsl::parse_formula;
        let f = |text: &str| parse_formula(text).unwrap();
        // Plain formulas pass at any class count.
        validate_metric_formula(&f("n - o > 0.0 +/- 0.05"), 1).unwrap();
        // F1 needs a positive class.
        let err = validate_metric_formula(&f("f1(n) > 0.8 +/- 0.05"), 1).unwrap_err();
        assert!(err.to_string().contains("at least 2 classes"));
        validate_metric_formula(&f("f1(n) > 0.8 +/- 0.05"), 2).unwrap();
        // topk cannot outrun the class count.
        let err = validate_metric_formula(&f("topk(n, 5) > 0.8 +/- 0.05"), 3).unwrap_err();
        assert!(err.to_string().contains("topk(5)"));
        validate_metric_formula(&f("topk(n, 5) > 0.8 +/- 0.05"), 5).unwrap();
        // More distinct ks than estimate slots.
        let wide =
            f("topk(n, 1) + topk(n, 2) + topk(n, 3) + topk(n, 4) + topk(n, 5) > 0.0 +/- 0.1");
        let err = validate_metric_formula(&wide, 8).unwrap_err();
        assert!(err.to_string().contains("distinct topk"));
    }

    #[test]
    fn per_class_counts_match_reference_statistics() {
        use crate::dsl::parse_formula;
        use crate::extensions::f1_score;
        // 8 items, 3 classes. Truth: [0,0,0,1,1,2,2,2].
        let truth = vec![0u32, 0, 0, 1, 1, 2, 2, 2];
        let old = vec![0u32, 1, 0, 1, 0, 2, 0, 2];
        let new = vec![0u32, 0, 1, 1, 1, 2, 2, 1];
        let formula =
            parse_formula("f1(n) - f1(o) > -0.5 +/- 0.1 /\\ topk(n, 2) > 0.0 +/- 0.1").unwrap();
        let mut testset = Testset::unlabeled(8);
        let mut oracle = VecOracle::new(truth.clone());
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let (counts, per_class) = m.measure(&formula, 3).unwrap();
        let pc = per_class.expect("metric formula tallies per-class counts");
        assert_eq!(counts.labels_spent, 8, "metric demand labels everything");
        assert_eq!(pc.labeled(), counts.samples);
        assert_eq!(pc.support, vec![3, 2, 3]);
        // F1 agrees with the reference implementation on both models.
        assert_eq!(pc.f1(true), f1_score(&new, &truth, 1));
        assert_eq!(pc.f1(false), f1_score(&old, &truth, 1));
        // Top-2 classes by support: 0 and 2 (tie at 3 beats class 1's 2).
        assert_eq!(pc.top_classes(2), vec![0, 2]);
        // topk(n, 2): items with true class in {0, 2}: indices 0..3 and
        // 5..8; new is right on 0, 1, 5, 6 → 4/6.
        assert!((pc.topk(true, 2) - 4.0 / 6.0).abs() < 1e-12);
        // Estimates populate and evaluate.
        let mut est = VariableEstimates::new(0.0, 0.0, 0.0);
        pc.populate_estimates(&formula, &mut est).unwrap();
        let lhs = est.evaluate_expr(&formula.clauses()[0].expr);
        assert!((lhs - (f1_score(&new, &truth, 1) - f1_score(&old, &truth, 1))).abs() < 1e-12);
    }

    #[test]
    fn per_class_counts_edge_conventions() {
        // Zero true positives → F1 = 0 (reference convention), and an
        // unsupported top-k restriction → 0 rather than NaN.
        let mut pc = PerClassCounts::zeroed(3);
        assert_eq!(pc.f1(true), 0.0);
        assert_eq!(pc.topk(true, 2), 0.0);
        // Ties in support break towards the lower class id.
        pc.support = vec![2, 2, 2];
        assert_eq!(pc.top_classes(2), vec![0, 1]);
    }

    #[test]
    fn derive_counts_with_classes_rejects_out_of_range_values() {
        use crate::dsl::parse_formula;
        let formula = parse_formula("f1(n) > 0.5 +/- 0.1").unwrap();
        // Label 2 exceeds the declared 2 classes; then a prediction out
        // of range is equally loud. Both paths stop at the same item.
        let cases = [
            (vec![0u32, 1, 2], vec![0u32, 1, 1], vec![0u32, 1, 1]),
            (vec![0u32, 1, 1], vec![0u32, 1, 1], vec![0u32, 1, 7]),
        ];
        for (truth, old, new) in cases {
            let outcomes = measure_both(
                &formula,
                2,
                &Testset::unlabeled(3),
                &truth,
                true,
                &old,
                &new,
            );
            let err = outcomes[0].0.as_ref().unwrap_err();
            assert!(err.contains("class range"), "{err}");
            assert_same(&outcomes, "out of range");
        }
    }

    #[test]
    fn packed_metric_derivation_is_bit_identical_to_per_item_path() {
        use crate::dsl::parse_formula;
        let formulas = [
            "f1(n) - f1(o) > -0.02 +/- 0.01",
            "topk(n, 3) - topk(o, 3) > 0.0 +/- 0.1",
            "f1(n) > 0.5 +/- 0.1 /\\ d < 0.5 +/- 0.1",
            "f1(n) - f1(o) + topk(n, 2) - topk(o, 2) > -0.1 +/- 0.05",
        ];
        let mut rng = Rng(0x5eed_f00d_2468_ace2);
        for trial in 0..40 {
            let len = 1 + rng.below(130) as usize;
            let classes = 3 + rng.below(5) as u32; // ≥ 3 so every k fits
            let truth = rng.vec(len, classes);
            let old = rng.vec(len, classes);
            let new = rng.vec(len, classes);
            let mut pool = Testset::unlabeled(len);
            for i in (0..len).filter(|_| rng.below(4) == 0) {
                pool.set_label(i, truth[i]);
            }
            for text in formulas {
                let formula = parse_formula(text).unwrap();
                let outcomes = measure_both(&formula, classes, &pool, &truth, true, &old, &new);
                assert!(outcomes[0].0.as_ref().unwrap().1.is_some());
                assert_same(&outcomes, &format!("trial {trial} formula {text}"));
            }
        }
    }

    #[test]
    fn with_classes_paths_delegate_for_plain_formulas() {
        use crate::dsl::parse_formula;
        let (labels, old, new) = fixture();
        let formula = parse_formula("n - o > 0.0 +/- 0.05").unwrap();
        let outcomes = measure_both(
            &formula,
            2,
            &Testset::unlabeled(10),
            &labels,
            true,
            &old,
            &new,
        );
        let (counts, pc) = outcomes[0].0.clone().unwrap();
        assert!(pc.is_none(), "plain formulas carry no per-class counts");
        assert_eq!(counts.labels_spent, 1);
        assert_same(&outcomes, "plain formula");
    }

    /// One clause of a generated formula: `(template, coefficient)`.
    fn clause_text((template, k): (usize, u32)) -> String {
        match template {
            0 => "d < 0.5 +/- 0.1".into(),
            1 => format!("{k} * (n - o) > 0.0 +/- 0.1"),
            2 => format!("n - o + {k} * d > 0.0 +/- 0.1"),
            3 => "n > 0.5 +/- 0.1".into(),
            4 => format!("n - {k}.5 * o > 0.0 +/- 0.1"),
            5 => "o < 0.9 +/- 0.1".into(),
            6 => "f1(n) - f1(o) > -0.1 +/- 0.1".into(),
            7 => format!("topk(n, {k}) - topk(o, {k}) > 0.0 +/- 0.1"),
            _ => format!("f1(o) + topk(n, {k}) > 0.5 +/- 0.1"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The one pass against the per-item reference: random formulas
        /// of every demand (metric ones included), lazy, partial and full
        /// pools (with and without an oracle), 1..=70 classes, lengths at
        /// and around multiples of 64, and out-of-range values.
        #[test]
        fn measure_matches_the_per_item_reference(
            clauses in proptest::collection::vec((0usize..9, 1u32..5), 1..4),
            classes in 1u32..=70,
            pool_kind in 0u32..4,
            shape in (0usize..5, 0usize..3, 0u32..4, 0usize..200),
            out_of_range in 0u32..3,
            seed in 1u64..u64::MAX,
        ) {
            let text: Vec<String> = clauses.into_iter().map(clause_text).collect();
            let formula = crate::dsl::parse_formula(&text.join(" /\\ ")).unwrap();
            let (words, offset, exact, any) = shape;
            let len = if exact == 0 { any } else { (words * 64 + offset).saturating_sub(1) };
            let mut rng = Rng(seed);
            // Values run past `classes` only when asked to, and rarely.
            let value = |rng: &mut Rng| {
                if out_of_range == 0 && rng.below(50) == 0 {
                    classes + rng.below(3) as u32
                } else {
                    rng.below(u64::from(classes)) as u32
                }
            };
            let truth: Vec<u32> = (0..len).map(|_| value(&mut rng)).collect();
            let old: Vec<u32> = (0..len).map(|_| value(&mut rng)).collect();
            // The new model agrees with the old one on about half the items.
            let new: Vec<u32> = old
                .iter()
                .map(|&o| if rng.below(2) == 0 { o } else { value(&mut rng) })
                .collect();
            let (pool, oracle) = match pool_kind {
                0 => (Testset::unlabeled(len), true),
                1 | 2 => {
                    let mut pool = Testset::unlabeled(len);
                    for i in (0..len).filter(|_| rng.below(3) == 0) {
                        pool.set_label(i, truth[i]);
                    }
                    (pool, pool_kind == 1)
                }
                _ => (Testset::fully_labeled(truth.clone()), false),
            };
            let outcomes = measure_both(&formula, classes, &pool, &truth, oracle, &old, &new);
            assert_same(
                &outcomes,
                &format!("{} over {len} items, {classes} classes, pool {pool_kind}", text.join(" /\\ ")),
            );
        }
    }

    #[test]
    fn rejects_mismatched_predictions() {
        let (_, old, _) = fixture();
        let mut testset = Testset::unlabeled(10);
        let short = vec![0u32; 5];
        assert!(Measurement::new(&mut testset, None, &old, &short).is_err());
        let mut testset2 = Testset::unlabeled(10);
        assert!(Measurement::new(&mut testset2, None, &short, &old).is_err());
    }

    #[test]
    fn subrange_measurement() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        // Range 0..8 excludes both wrong predictions: perfect agreement.
        assert_eq!(m.difference(0..8), 0.0);
        assert_eq!(m.accuracy_difference(0..8).unwrap(), 0.0);
        assert_eq!(m.labels_requested(), 0);
        // Range 8..10: old wrong on both, new wrong on one.
        assert!((m.new_accuracy(8..10).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(m.old_accuracy(8..10).unwrap(), 0.0);
    }
}
