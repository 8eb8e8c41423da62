//! Measurement layer: turns predictions + (lazily acquired) labels into
//! the counts every gate decides on.
//!
//! The key optimization (Technical Observation 2, §4) is that the
//! prediction difference `d` needs no labels at all, and a pure
//! difference `n − o` only needs labels where the two models *disagree*:
//! on agreeing points `nᵢ − oᵢ = 0` regardless of the label. Every
//! measurement, the served gate's and each phase of the engine's plans,
//! runs through one core ([`Measurement::measure_range`]) that exploits
//! both: it requests labels from the oracle only where a [`LabelDemand`]
//! needs them, and reports how many fresh labels each call consumed.
//! The counts become point estimates through
//! [`MeasuredCounts::estimates`], the same arithmetic the served gate
//! uses, so the engine and the server decide alike at interval edges.

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

impl MeasuredCounts {
    /// Point estimates of `n`, `o` and `d` over the measured items
    /// ([`VariableEstimates::from_counts`]).
    #[must_use]
    pub fn estimates(&self) -> VariableEstimates {
        VariableEstimates::from_counts(
            self.samples,
            self.new_correct,
            self.old_correct,
            self.changed,
        )
    }
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
/// [`Measurement::measure_range`] is the one counting core: a label
/// demand, an index range, and a class count for metric formulas. The
/// serving layer measures every predictions commit through its
/// whole-pool form [`Measurement::measure`], over a pair it checked once
/// ([`Measurement::checked`]); the engine measures each phase of its
/// plan (filter, probe, test prefix, coarse, fine) through the core
/// directly ([`Measurement::new`] checks only lengths). Every fresh
/// oracle pull is recorded ([`Measurement::fresh_labels`]), so a caller
/// whose commit does not land can hand exactly those labels back
/// ([`Testset::unset_label`]).
pub struct Measurement<'a> {
    testset: &'a mut Testset,
    oracle: Option<&'a mut (dyn LabelOracle + 'static)>,
    old: &'a [u32],
    new: &'a [u32],
    /// The class count a [`Predictions`] check bounded every prediction
    /// by; `None` for vectors [`Measurement::new`] took.
    bound: Option<u32>,
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
fn first_at_or_above(values: &[u32], bound: u32) -> Option<usize> {
    if values.iter().fold(0, |any, &v| any | v) < bound
        || values.iter().fold(0, |max, &v| max.max(v)) < bound
    {
        return None;
    }
    values.iter().position(|&v| v >= bound)
}

/// A commit's old and new prediction vectors as only
/// [`Predictions::check`] builds them: both cover the pool and lie in
/// `0..classes`, so [`Measurement::checked`] never scans them again.
#[derive(Debug, Clone, Copy)]
pub struct Predictions<'a> {
    old: &'a [u32],
    new: &'a [u32],
    classes: u32,
}

impl<'a> Predictions<'a> {
    /// Check `old` and `new` against a pool of `len` items and `classes`
    /// classes: each vector's length, then its values, each vector read
    /// once by an OR and, when that does not settle it (a fault, or a
    /// class count that is not a power of two), once more by its maximum.
    ///
    /// # Errors
    ///
    /// The reason of the first fault: old length, old values, new
    /// length, new values.
    pub fn check(
        old: &'a [u32],
        new: &'a [u32],
        len: usize,
        classes: u32,
    ) -> std::result::Result<Self, String> {
        #[cfg(test)]
        tests::PREDICTION_SCANS.with(|scans| scans.set(scans.get() + 2));
        let fault = |model: &str, values: &[u32]| {
            let got = values.len();
            if got != len {
                return Some(format!(
                    "{model} prediction vector has {got} items but the testset has {len}"
                ));
            }
            let item = first_at_or_above(values, classes)?;
            Some(format!(
                "{model} prediction {} out of class range 0..{classes}",
                values[item]
            ))
        };
        match fault("old", old).or_else(|| fault("new", new)) {
            Some(fault) => Err(fault),
            None => Ok(Predictions { old, new, classes }),
        }
    }
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

/// Bits `base..base + 32` of a known mask: bit `j` says whether item
/// `base + j` is labelled. An unaligned `base` reads the next word too;
/// the double shift keeps `base % 64 == 0` free of a 64-bit shift.
fn known_bits(mask: &[u64], base: usize) -> u32 {
    let (word, shift) = (base / 64, base % 64);
    let next = mask.get(word + 1).copied().unwrap_or(0);
    ((mask[word] >> shift) | ((next << 1) << (63 - shift))) as u32
}

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
            bound: None,
            fresh: Vec::new(),
        })
    }

    /// Create a measurement context over a pair checked against this
    /// pool: metric measurements up to its class count scan only labels.
    ///
    /// # Panics
    ///
    /// Panics if the pair was checked against a pool of another length.
    pub fn checked(
        testset: &'a mut Testset,
        oracle: Option<&'a mut (dyn LabelOracle + 'static)>,
        predictions: Predictions<'a>,
    ) -> Self {
        let Predictions { old, new, classes } = predictions;
        assert_eq!(old.len(), testset.len(), "checked against another pool");
        Measurement {
            testset,
            oracle,
            old,
            new,
            bound: Some(classes),
            fresh: Vec::new(),
        }
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

    /// Measure the whole pool for a formula in one pass, spending only
    /// the labels the formula's [`LabelDemand`] requires — always
    /// [`LabelDemand::Full`] for metric formulas (`f1(...)`/`topk(...)`),
    /// which also get their [`PerClassCounts`]; plain formulas return
    /// `None` for them. This is [`Measurement::measure_range`] over
    /// `0..len`.
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
        if metric {
            validate_metric_formula(formula, classes)?;
        }
        self.measure_range(
            formula_label_demand(formula),
            0..self.testset.len(),
            metric.then_some(classes),
        )
    }

    /// Measure items `range` in one pass, spending only the labels
    /// `demand` requires there:
    ///
    /// * [`LabelDemand::Free`]: no oracle calls;
    /// * [`LabelDemand::Disagreements`]: labels only where the two
    ///   models disagree (§4.1.2 difference trick);
    /// * [`LabelDemand::Full`]: labels every item. With `classes` set
    ///   the demand is always full, and the per-class confusion counts
    ///   of the range come back too.
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
    /// Propagates label-acquisition failures. With `classes` set, a
    /// label or prediction outside `0..classes` is refused at the first
    /// such item of the range, after the labels of the items before it
    /// (and its own) were pulled.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the pool.
    pub fn measure_range(
        &mut self,
        demand: LabelDemand,
        range: Range<usize>,
        classes: Option<u32>,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>)> {
        let demand = classes.map_or(demand, |_| LabelDemand::Full);
        let spent_before = self.fresh.len();
        let end = range.end;
        // Per-class tallies index by class: stop at the first item out
        // of range, after pulling its label, as the per-item order does.
        let stop = classes.map_or(end, |c| self.first_out_of_class(c, range.clone()));
        self.pull_needed(demand, range.start..(stop + 1).min(end), classes)?;
        if let Some(classes) = classes.filter(|_| stop < end) {
            let label = self.testset.label(stop).expect("pulled above");
            return Err(if label >= classes {
                out_of_class("label", label, stop, classes)
            } else if self.old[stop] >= classes {
                out_of_class("old prediction", self.old[stop], stop, classes)
            } else {
                out_of_class("new prediction", self.new[stop], stop, classes)
            });
        }
        let (mut counts, per_class) = match classes {
            Some(classes) => {
                let (counts, per_class) = self.count_per_class(classes, range);
                (counts, Some(per_class))
            }
            None => (self.count(range), None),
        };
        counts.labels_spent = (self.fresh.len() - spent_before) as u64;
        Ok((counts, per_class))
    }

    /// The first item of `range` whose prediction, or known label, falls
    /// outside `0..classes` (`range.end` when none does). Unknown label
    /// slots hold 0. Predictions checked against at most `classes`
    /// classes ([`Measurement::checked`]) are not scanned again, nor are
    /// the label slots when the pool's [`Testset::label_bound`] is below
    /// `classes`.
    fn first_out_of_class(&self, classes: u32, mut range: Range<usize>) -> usize {
        let end = range.end;
        let labels_unchecked = self.testset.label_bound() >= classes;
        let unchecked = self.bound.is_none_or(|bound| bound > classes);
        #[cfg(test)]
        {
            if labels_unchecked {
                tests::LABEL_SCANS.with(|scans| scans.set(scans.get() + 1));
            }
            if unchecked {
                tests::PREDICTION_SCANS.with(|scans| scans.set(scans.get() + 2));
            }
        }
        let labels = &self.testset.label_slots()[range.clone()];
        let flagged = labels_unchecked && first_at_or_above(labels, classes).is_some()
            || unchecked
                && [&self.old[range.clone()], &self.new[range.clone()]]
                    .iter()
                    .any(|values| first_at_or_above(values, classes).is_some());
        if !flagged {
            return end;
        }
        range
            .find(|&i| {
                self.old[i] >= classes
                    || self.new[i] >= classes
                    || self.testset.label(i).is_some_and(|l| l >= classes)
            })
            .unwrap_or(end)
    }

    /// Pull, in ascending item order, every label `demand` needs that
    /// the pool lacks among items `range` — the oracle call sequence of
    /// the per-item loop. With `classes` set, a pulled label outside
    /// `0..classes` stops the pass with the loud error.
    fn pull_needed(
        &mut self,
        demand: LabelDemand,
        range: Range<usize>,
        classes: Option<u32>,
    ) -> Result<()> {
        if demand == LabelDemand::Free {
            return Ok(());
        }
        let end = range.end;
        for base in range.step_by(32) {
            let unknown = !known_bits(self.testset.known_mask(), base);
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

    /// The counting loop of a plain formula over `range`: `changed`
    /// over every item, exact credit where the known mask says the label
    /// is known, both models credited where it is not. Branch-free per
    /// item.
    fn count(&self, range: Range<usize>) -> MeasuredCounts {
        let (mask, labels) = (self.testset.known_mask(), self.testset.label_slots());
        let (mut changed, mut new_hits, mut old_hits) = (0u64, 0u64, 0u64);
        for base in range.clone().step_by(32) {
            let top = (base + 32).min(range.end);
            let half = known_bits(mask, base);
            let (mut c, mut n_hit, mut o_hit) = (0u32, 0u32, 0u32);
            let items = self.old[base..top].iter().zip(&self.new[base..top]);
            for (((&o, &n), &l), &bit) in items.zip(&labels[base..top]).zip(&LANE_BIT) {
                let unknown = u32::from(half & bit == 0);
                c += u32::from(o != n);
                n_hit += u32::from(n == l) | unknown;
                o_hit += u32::from(o == l) | unknown;
            }
            changed += u64::from(c);
            new_hits += u64::from(n_hit);
            old_hits += u64::from(o_hit);
        }
        MeasuredCounts {
            samples: range.len() as u64,
            new_correct: new_hits,
            old_correct: old_hits,
            changed,
            labels_spent: 0,
        }
    }

    /// The counting loop of a metric formula over `range`, once every
    /// label there is known and every value lies in `0..classes`: the
    /// scalar counts plus the per-class confusion tallies. Up to
    /// [`JOINT_CLASSES`] classes each item is one tally in a
    /// `(label, new, old)` table, and every count is a sum over that
    /// table. The table grows as the cube of the class count (70 classes
    /// would zero and sum 343,000 counters per call), so past the bound
    /// each item makes three tallies: predictions per class for each
    /// model, and per true class a 4-way split by which models got the
    /// item right (support, `new_tp` and `old_tp` all read off it).
    fn count_per_class(
        &self,
        classes: u32,
        range: Range<usize>,
    ) -> (MeasuredCounts, PerClassCounts) {
        let c = classes as usize;
        let items = self.old[range.clone()]
            .iter()
            .zip(&self.new[range.clone()])
            .zip(&self.testset.label_slots()[range.clone()]);
        let mut pc = PerClassCounts::zeroed(classes);
        let mut changed = 0u64;
        if c <= JOINT_CLASSES {
            let mut joint = vec![0u64; c * c * c];
            for ((&o, &n), &l) in items {
                joint[(l as usize * c + n as usize) * c + o as usize] += 1;
            }
            for (key, &count) in joint.iter().enumerate() {
                let (l, n, o) = (key / (c * c), key / c % c, key % c);
                pc.support[l] += count;
                pc.new_tp[l] += if n == l { count } else { 0 };
                pc.old_tp[l] += if o == l { count } else { 0 };
                pc.new_pred[n] += count;
                pc.old_pred[o] += count;
                changed += if n == o { 0 } else { count };
            }
        } else {
            let mut by_label = vec![0u64; 4 * c];
            for ((&o, &n), &l) in items {
                changed += u64::from(o != n);
                by_label[4 * l as usize + 2 * usize::from(n == l) + usize::from(o == l)] += 1;
                pc.new_pred[n as usize] += 1;
                pc.old_pred[o as usize] += 1;
            }
            for (l, t) in by_label.chunks(4).enumerate() {
                pc.support[l] = t.iter().sum();
                pc.new_tp[l] = t[2] + t[3];
                pc.old_tp[l] = t[1] + t[3];
            }
        }
        let counts = MeasuredCounts {
            samples: range.len() as u64,
            new_correct: pc.new_tp.iter().sum(),
            old_correct: pc.old_tp.iter().sum(),
            changed,
            labels_spent: 0,
        };
        (counts, pc)
    }
}

/// The most classes [`Measurement::count_per_class`] tallies in one
/// `classes³` table (512 counters, 4 KiB at eight).
const JOINT_CLASSES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_clause;
    use crate::engine::testset::VecOracle;
    use std::cell::Cell;

    thread_local! {
        /// Prediction vectors scanned for their class range on this
        /// thread.
        pub(super) static PREDICTION_SCANS: Cell<u64> = const { Cell::new(0) };
        /// Label slots scanned for their class range on this thread.
        pub(super) static LABEL_SCANS: Cell<u64> = const { Cell::new(0) };
    }

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

    /// Measure `range` under `demand`: the point estimates and the
    /// labels the call spent.
    fn estimates_over(
        m: &mut Measurement<'_>,
        demand: LabelDemand,
        range: Range<usize>,
    ) -> (VariableEstimates, u64) {
        let (counts, per_class) = m.measure_range(demand, range, None).unwrap();
        assert!(per_class.is_none(), "no class count, no per-class counts");
        (counts.estimates(), counts.labels_spent)
    }

    #[test]
    fn difference_needs_no_labels() {
        let (_, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        let (at, spent) = estimates_over(&mut m, LabelDemand::Free, 0..10);
        assert!((at.d - 0.1).abs() < 1e-12);
        assert_eq!((spent, m.labels_requested()), (0, 0));
    }

    #[test]
    fn accuracy_labels_everything_in_range() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let (at, spent) = estimates_over(&mut m, LabelDemand::Full, 0..10);
        assert!((at.n - 0.9).abs() < 1e-12);
        assert!((at.o - 0.8).abs() < 1e-12);
        assert_eq!(spent, 10);
        // A second full pass reuses the cached labels.
        let (again, spent) = estimates_over(&mut m, LabelDemand::Full, 0..10);
        assert_eq!((again, spent), (at, 0));
        assert_eq!(m.labels_requested(), 10);
    }

    #[test]
    fn difference_trick_labels_only_disagreements() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let (at, spent) = estimates_over(&mut m, LabelDemand::Disagreements, 0..10);
        let diff = at.n - at.o;
        assert!((diff - 0.1).abs() < 1e-12, "diff = {diff}");
        assert_eq!(spent, 1, "only item 8 disagrees");
    }

    #[test]
    fn clause_lhs_picks_cheapest_strategy() {
        // Each clause measured under its own demand: `d` is free, a
        // (scaled) pure difference labels the one disagreement, a bare
        // `n` labels the whole range.
        let (labels, old, new) = fixture();
        for (text, lhs, labels_spent) in [
            ("d < 0.2 +/- 0.05", 0.1, 0),
            ("n - o > 0.0 +/- 0.05", 0.1, 1),
            ("2 * (n - o) > 0.0 +/- 0.05", 0.2, 1),
            ("n > 0.5 +/- 0.1", 0.9, 10),
        ] {
            let clause = parse_clause(text).unwrap();
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            // The label-free clause runs without an oracle.
            let oracle =
                (labels_spent > 0).then_some(&mut oracle as &mut (dyn LabelOracle + 'static));
            let mut m = Measurement::new(&mut testset, oracle, &old, &new).unwrap();
            let (at, spent) = estimates_over(&mut m, clause_label_demand(&clause), 0..10);
            let got = at.evaluate_expr(&clause.expr);
            assert!((got - lhs).abs() < 1e-12, "{text}: {got}");
            assert_eq!(spent, labels_spent, "{text}");
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
        let (at, spent) = estimates_over(&mut m, clause_label_demand(&clause), 0..10);
        assert!((at.evaluate_expr(&clause.expr) - 0.2).abs() < 1e-12);
        assert_eq!(spent, 1);
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
        // The equivalence the serving gate rests on: a clause evaluated
        // at the whole formula's measured estimates gives the value that
        // measuring the clause alone, under its own demand, gives.
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
            let est = c.estimates();
            for clause in formula.clauses() {
                let mut alone = Testset::unlabeled(10);
                let mut oracle = VecOracle::new(labels.clone());
                let mut m = Measurement::new(&mut alone, Some(&mut oracle), &old, &new).unwrap();
                let (at, _) = estimates_over(&mut m, clause_label_demand(clause), 0..10);
                let lhs = at.evaluate_expr(&clause.expr);
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
    fn measure_both(
        formula: &Formula,
        classes: u32,
        pool: &Testset,
        truth: &[u32],
        oracle: bool,
        old: &[u32],
        new: &[u32],
    ) -> [Outcome; 2] {
        measure_both_over(
            formula,
            classes,
            pool,
            truth,
            oracle,
            old,
            new,
            0..old.len(),
        )
    }

    /// [`measure_both`] over items `range`: the whole pool goes through
    /// [`Measurement::measure`], any other range through
    /// [`Measurement::measure_range`] under the formula's demand.
    #[allow(clippy::too_many_arguments)]
    fn measure_both_over(
        formula: &Formula,
        classes: u32,
        pool: &Testset,
        truth: &[u32],
        oracle: bool,
        old: &[u32],
        new: &[u32],
        range: Range<usize>,
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
            let metric = formula.has_metric();
            let result = if reference {
                derive_counts_with_classes(&mut m, formula, range.clone(), classes)
            } else if range == (0..old.len()) {
                m.measure(formula, classes)
            } else {
                validate_metric_formula(formula, classes).and_then(|()| {
                    m.measure_range(
                        formula_label_demand(formula),
                        range.clone(),
                        metric.then_some(classes),
                    )
                })
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
        // The range core never sees a formula, so the engine is where a
        // metric clause could be measured as plain terms: it refuses the
        // script up front, naming the clause.
        let script = crate::CiScript::builder()
            .condition_str("f1(n) > 0.8 +/- 0.05")
            .unwrap()
            .build()
            .unwrap();
        let (labels, old, _) = fixture();
        let err = crate::CiEngine::new(script, Testset::fully_labeled(labels), old).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("metric") && msg.contains("f1(n)"),
            "error not loud about metrics: {msg}"
        );
        // A class count makes the core label and tally every item,
        // whatever demand it was given.
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let (counts, per_class) = m.measure_range(LabelDemand::Free, 2..9, Some(2)).unwrap();
        assert_eq!(counts.labels_spent, 7);
        assert_eq!(per_class.unwrap().labeled(), 7);
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
        /// and around multiples of 64, and out-of-range values; over the
        /// whole pool and over a random sub-range whose ends sit off the
        /// 32- and 64-item word boundaries.
        #[test]
        fn measure_matches_the_per_item_reference(
            clauses in proptest::collection::vec((0usize..9, 1u32..5), 1..4),
            classes in 1u32..=70,
            pool_kind in 0u32..4,
            shape in (0usize..5, 0usize..3, 0u32..4, 0usize..200),
            out_of_range in 0u32..3,
            seed in 1u64..u64::MAX,
            sub in (0usize..8, 1usize..32, 0usize..8, 1usize..32),
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
            let what = format!("{} over {len} items, {classes} classes, pool {pool_kind}", text.join(" /\\ "));
            let outcomes = measure_both(&formula, classes, &pool, &truth, oracle, &old, &new);
            assert_same(&outcomes, &what);
            // Start at 32a + r and end at 32(start / 32 + b) + r', both
            // clamped into the pool.
            let start = (32 * sub.0 + sub.1).min(len);
            let end = (32 * (start / 32 + sub.2) + sub.3).clamp(start, len);
            let outcomes =
                measure_both_over(&formula, classes, &pool, &truth, oracle, &old, &new, start..end);
            assert_same(&outcomes, &format!("{what}, items {start}..{end}"));
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
    fn prediction_faults_come_in_order() {
        let check = |old: &[u32], new: &[u32], classes| {
            Predictions::check(old, new, 3, classes)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        // The OR of 1 and 2 is 3, yet both lie in 0..3.
        assert_eq!(check(&[1, 2, 0], &[0, 2, 1], 3), Ok(()));
        let faults = [
            (
                &[0, 9][..],
                &[7, 0, 0, 0][..],
                "old prediction vector has 2 items",
            ),
            (
                &[0, 9, 0],
                &[7, 0, 0, 0],
                "old prediction 9 out of class range 0..3",
            ),
            (
                &[0, 1, 0],
                &[7, 0, 0, 0],
                "new prediction vector has 4 items",
            ),
            (
                &[0, 1, 0],
                &[0, 7, 3],
                "new prediction 7 out of class range 0..3",
            ),
        ];
        for (old, new, reason) in faults {
            let err = check(old, new, 3).unwrap_err();
            assert!(err.starts_with(reason), "{err}");
        }
    }

    /// A checked pair is scanned once, by its check: a metric measurement
    /// over it reads neither vector again, nor the labels of a pool whose
    /// label bound is below the class count. Unchecked vectors are
    /// scanned at that boundary instead, and so are the labels of a pool
    /// that may hold one out of range, which still fails loudly.
    #[test]
    fn a_checked_metric_measurement_scans_each_vector_once() {
        let (labels, old, new) = fixture();
        let f1 = crate::dsl::parse_formula("f1(n) - f1(o) > -0.5 +/- 0.1").unwrap();
        let scans = || PREDICTION_SCANS.with(Cell::get);
        let label_scans = || LABEL_SCANS.with(Cell::get);
        let (start, label_start) = (scans(), label_scans());
        let mut testset = Testset::fully_labeled(labels.clone());
        let predictions = Predictions::check(&old, &new, 10, 2).unwrap();
        let checked = Measurement::checked(&mut testset, None, predictions)
            .measure(&f1, 2)
            .unwrap();
        assert_eq!(scans() - start, 2, "old and new, once each");
        assert_eq!(label_scans() - label_start, 0, "labels within the bound");
        let mut testset = Testset::fully_labeled(labels);
        let unchecked = Measurement::new(&mut testset, None, &old, &new)
            .unwrap()
            .measure(&f1, 2)
            .unwrap();
        assert_eq!(scans() - start, 4);
        assert_eq!(checked, unchecked);
        // A pair checked against more classes than a measurement counts
        // proves nothing about the narrower range: it is scanned again.
        let mut testset = Testset::fully_labeled(vec![0; 10]);
        let wide = Predictions::check(&old, &new, 10, 3).unwrap();
        Measurement::checked(&mut testset, None, wide)
            .measure(&f1, 2)
            .unwrap();
        assert_eq!(scans() - start, 8);
        assert_eq!(label_scans() - label_start, 0);
        // A pool whose bound reaches the class count is scanned, and its
        // out-of-class label refused at its item.
        let mut labels = vec![0; 10];
        labels[6] = 2;
        let mut testset = Testset::fully_labeled(labels);
        let predictions = Predictions::check(&old, &new, 10, 2).unwrap();
        let err = Measurement::checked(&mut testset, None, predictions)
            .measure(&f1, 2)
            .unwrap_err();
        assert!(err.to_string().contains("label 2"), "{err}");
        assert!(err.to_string().contains("item 6"), "{err}");
        assert_eq!((scans() - start, label_scans() - label_start), (10, 1));
        // A lazy pool that once held the label keeps a bound that reaches
        // the class count after it is unset: its slots are scanned, and
        // find every label in range.
        let mut testset = Testset::unlabeled(10);
        testset.set_label(6, 2);
        testset.unset_label(6);
        let mut oracle = VecOracle::new(vec![1; 10]);
        let predictions = Predictions::check(&old, &new, 10, 2).unwrap();
        Measurement::checked(&mut testset, Some(&mut oracle), predictions)
            .measure(&f1, 2)
            .unwrap();
        assert_eq!((scans() - start, label_scans() - label_start), (12, 2));
    }

    #[test]
    fn subrange_measurement() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        // Range 0..8 excludes both wrong predictions: perfect agreement.
        let (at, _) = estimates_over(&mut m, LabelDemand::Free, 0..8);
        assert_eq!(at.d, 0.0);
        let (at, _) = estimates_over(&mut m, LabelDemand::Disagreements, 0..8);
        assert_eq!(at.n - at.o, 0.0);
        assert_eq!(m.labels_requested(), 0);
        // Range 8..10: old wrong on both, new wrong on one.
        let (at, spent) = estimates_over(&mut m, LabelDemand::Full, 8..10);
        assert!((at.n - 0.5).abs() < 1e-12);
        assert_eq!((at.o, spent), (0.0, 2));
    }
}
