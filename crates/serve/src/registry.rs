//! The project registry and the serving-side commit gate.
//!
//! A *project* is one repository wired into the CI service: a validated
//! [`CiScript`], the sample-size estimate its testset must satisfy, and
//! the per-era gating state (step budget `H`, testset era, retirement
//! flag, commit history). That state is a core [`Gate`], the same state
//! machine [`easeml_ci_core::CiEngine::submit`] records through, so the
//! served decision and the engine's cannot drift. The gate is fed one of
//! two ways:
//!
//! * **counts** — the developer's CI job measured its own predictions
//!   and posts `(samples, new_correct, old_correct, changed)`;
//! * **predictions** — the registration attached a server-side testset
//!   ([`TestsetSpec`]; ground truth fully labelled, or held back behind
//!   the serving-side [`VecOracle`] in partial-labeling mode) and the
//!   commit posts raw old/new prediction vectors, which the *server*
//!   measures in one pass through [`easeml_ci_core::Measurement::measure`],
//!   spending labels only where the condition's
//!   [`easeml_ci_core::LabelDemand`] requires them.
//!
//! A predictions commit's two vectors arrive as `#`-packed strings, JSON
//! arrays or decimal CSV strings; [`PackedPredictions`] holds them in the
//! canonical packed form with their redelivery digest. A `#`-packed
//! string is read once: one pass checks its alphabet, decodes its items
//! and folds its bytes into the FNV-1a digest of `old | "|" | new`. The
//! route and restart replay share that pass, so the digest, the journal
//! line and the receipt are the same bytes whichever encoding the client
//! chose.
//!
//! Both feeds converge on the same [`EvalCounts`] and the same gate code
//! path: point estimates, then the condition over confidence intervals,
//! then [`Gate::record`] (mode collapse, budget decrement, and the
//! new-testset alarm when the era's statistical power is spent) — so
//! counts↔predictions equivalence is structural, not a contract to
//! maintain.
//!
//! Every mutating operation happens under the project's lock, so
//! concurrent submissions serialize into a well-defined step order — the
//! foundation of the journal's determinism contract (see [`crate::store`]).

use crate::error::ServeError;
use crate::json::{decode_packed_into, decode_u32_vec, encode_u32_vec};
use crate::obs::trace::{self, Stage};
use easeml_ci_core::dsl::Formula;
use easeml_ci_core::{
    evaluate_formula, first_at_or_above, validate_metric_formula, AlarmReason, CiScript,
    CommitEstimates, CommitHistory, CommitReceipt, EngineError, EstimatorConfig, Gate,
    GateSavepoint, LabelOracle, MeasuredCounts, Measurement, PerClassCounts, SampleSizeEstimate,
    SampleSizeEstimator, Testset, Tribool, VariableEstimates, VecOracle,
};
use std::borrow::Cow;

/// FNV-1a 64 offset basis: the state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 step: fold `byte` into `hash`.
fn fnv1a_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fold `bytes` into FNV-1a 64 state `hash`.
fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &byte| fnv1a_step(hash, byte))
}

/// FNV-1a 64 over a sequence of byte slices — the digest primitive of
/// the serving layer's testset blobs and prediction-redelivery keys.
#[must_use]
pub(crate) fn fnv1a64(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |hash, part| fnv1a_fold(hash, part))
}

/// The largest class count a testset may declare. Metric commits
/// allocate per-class tables of this length, so an unbounded count would
/// let one registration make every later commit allocate gigabytes.
pub const MAX_CLASSES: u32 = 1 << 16;

/// A server-side testset as uploaded at registration (or with a fresh
/// era): the full ground truth, the class count, and whether the labels
/// are *held back* behind the serving-side label oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestsetSpec {
    /// Ground-truth class labels, one per testset item.
    pub truth: Vec<u32>,
    /// Number of classes; every label and every submitted prediction
    /// must be `< classes`.
    pub classes: u32,
    /// Partial-labeling mode: the pool starts unlabelled and the truth
    /// sits behind the server's [`VecOracle`], so labels are *spent*
    /// lazily, exactly as the §4.1.2 measurement strategies demand them.
    pub lazy: bool,
}

impl TestsetSpec {
    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for empty pools, zero classes or more
    /// than [`MAX_CLASSES`], or labels outside the class range.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.truth.is_empty() {
            return Err(ServeError::BadRequest("testset must be non-empty".into()));
        }
        if self.classes == 0 {
            return Err(ServeError::BadRequest("classes must be positive".into()));
        }
        if self.classes > MAX_CLASSES {
            return Err(ServeError::BadRequest(format!(
                "classes {} exceeds the limit of {MAX_CLASSES}",
                self.classes
            )));
        }
        if let Some(bad) = self.truth.iter().find(|&&l| l >= self.classes) {
            return Err(ServeError::BadRequest(format!(
                "testset label {bad} out of class range 0..{}",
                self.classes
            )));
        }
        Ok(())
    }

    /// Content digest (labels + classes + labeling mode), used for blob
    /// integrity checks and registration idempotency.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a64(&[
            encode_u32_vec(&self.truth).as_bytes(),
            b"|",
            &self.classes.to_le_bytes(),
            &[u8::from(self.lazy)],
        ])
    }
}

/// The serving side of a measured testset era: the ground truth behind
/// a [`VecOracle`], the lazily-filling label pool, and the class count
/// predictions are validated against.
#[derive(Debug, Clone)]
pub struct MeasuredTestset {
    oracle: VecOracle,
    pool: Testset,
    classes: u32,
    lazy: bool,
    /// [`TestsetSpec::digest`] of the spec, computed once at build.
    digest: u64,
}

impl MeasuredTestset {
    /// Build the serving state for an uploaded testset.
    ///
    /// # Errors
    ///
    /// Validation failures from [`TestsetSpec::validate`].
    pub fn from_spec(spec: TestsetSpec) -> Result<MeasuredTestset, ServeError> {
        spec.validate()?;
        let digest = spec.digest();
        let pool = if spec.lazy {
            Testset::unlabeled(spec.truth.len())
        } else {
            Testset::fully_labeled(spec.truth.clone())
        };
        Ok(MeasuredTestset {
            oracle: VecOracle::new(spec.truth),
            pool,
            classes: spec.classes,
            lazy: spec.lazy,
            digest,
        })
    }

    /// The spec this state was built from (labels, classes, mode) — what
    /// the durable testset blob records.
    #[must_use]
    pub fn spec(&self) -> TestsetSpec {
        TestsetSpec {
            truth: self.oracle.truth().to_vec(),
            classes: self.classes,
            lazy: self.lazy,
        }
    }

    /// Content digest of the era's testset (see [`TestsetSpec::digest`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Pool size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the pool is empty (never true for a validated spec).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// Whether labels are held back behind the oracle (partial-labeling
    /// mode).
    #[must_use]
    pub fn lazy(&self) -> bool {
        self.lazy
    }

    /// Items whose label has been spent (or was known up front).
    #[must_use]
    pub fn labeled_count(&self) -> usize {
        self.pool.labeled_count()
    }

    /// Sorted indices of the labelled items — the snapshot's record of
    /// the lazily-filled label state.
    #[must_use]
    pub fn labeled_indices(&self) -> Vec<usize> {
        (0..self.pool.len())
            .filter(|&i| self.pool.label(i).is_some())
            .collect()
    }

    /// The label pool (tests compare it across a rollback).
    #[cfg(test)]
    pub(crate) fn pool(&self) -> &Testset {
        &self.pool
    }

    /// Labels the oracle has served this era.
    #[cfg(test)]
    pub(crate) fn oracle_spend(&self) -> u64 {
        self.oracle.labels_served()
    }

    /// Forget the labels a measurement pulled (its
    /// [`Measurement::fresh_labels`]) when its commit did not land.
    /// Fully-labelled pools never pull, so there is nothing to undo.
    pub(crate) fn unset_labels(&mut self, fresh: &[usize]) {
        for &i in fresh {
            self.pool.unset_label(i);
        }
    }

    /// Restore the label-known state recorded by a snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for out-of-range indices (the caller
    /// maps this to a corrupt-snapshot error).
    pub fn restore_labels(&mut self, indices: &[usize]) -> Result<(), ServeError> {
        for &i in indices {
            let Some(&label) = self.oracle.truth().get(i) else {
                return Err(ServeError::BadRequest(format!(
                    "labeled index {i} out of range for testset of {}",
                    self.pool.len()
                )));
            };
            self.pool.set_label(i, label);
        }
        Ok(())
    }

    /// Validate one prediction vector against this testset.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for length or class-range violations.
    pub fn validate_predictions(&self, what: &str, preds: &[u32]) -> Result<(), ServeError> {
        if preds.len() != self.pool.len() {
            return Err(ServeError::BadRequest(format!(
                "{what} prediction vector has {} items but the testset has {}",
                preds.len(),
                self.pool.len()
            )));
        }
        if let Some(bad) = first_at_or_above(preds, self.classes) {
            return Err(ServeError::BadRequest(format!(
                "{what} prediction {} out of class range 0..{}",
                preds[bad], self.classes
            )));
        }
        Ok(())
    }

    /// Measure one commit: validate both vectors, then one pass of the
    /// core measurement layer ([`Measurement::measure`]) derives the
    /// evaluation counts the gate consumes (and, for metric conditions,
    /// the per-class counts), spending only the labels the condition's
    /// [`easeml_ci_core::LabelDemand`] requires.
    ///
    /// # Errors
    ///
    /// Validation failures and label-acquisition failures (the latter
    /// indicate a corrupted truth vector and map to 500).
    pub fn measure(
        &mut self,
        condition: &Formula,
        old: &[u32],
        new: &[u32],
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>), ServeError> {
        self.measure_recording(condition, old, new, &mut Vec::new())
    }

    /// [`MeasuredTestset::measure`], appending the items it pulled from
    /// the oracle to `fresh` — also when it fails — so a commit that
    /// does not land can hand them back
    /// ([`MeasuredTestset::unset_labels`]).
    pub(crate) fn measure_recording(
        &mut self,
        condition: &Formula,
        old: &[u32],
        new: &[u32],
        fresh: &mut Vec<usize>,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>), ServeError> {
        self.validate_predictions("old", old)?;
        self.validate_predictions("new", new)?;
        let oracle: Option<&mut (dyn LabelOracle + 'static)> = if self.lazy {
            Some(&mut self.oracle)
        } else {
            None
        };
        let mut measurement = Measurement::new(&mut self.pool, oracle, old, new)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let measured = measurement.measure(condition, self.classes);
        fresh.extend_from_slice(measurement.fresh_labels());
        measured.map_err(|e| ServeError::BadRequest(format!("measurement failed: {e}")))
    }
}

/// Evaluation counts for one commit over the current testset era.
///
/// All counts are over the same `samples` testset items; the service
/// validates `new_correct`, `old_correct`, `changed` ≤ `samples`.
/// Conditions over metric variables (`f1`, `topk`) additionally carry
/// the per-class confusion counts the scalar triple cannot express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalCounts {
    /// Testset items evaluated.
    pub samples: u64,
    /// Items the *new* model classified correctly.
    pub new_correct: u64,
    /// Items the *old* (accepted) model classified correctly.
    pub old_correct: u64,
    /// Items where the two models' predictions differ.
    pub changed: u64,
    /// Fresh labels the evaluation consumed (cost accounting; the
    /// labelling itself happens on the client side).
    pub labels: u64,
    /// Per-class confusion counts (support, true positives, prediction
    /// mass per model) over the labelled items — present iff the
    /// condition reads `f1`/`topk` variables. `None` for plain
    /// accuracy/difference conditions.
    pub per_class: Option<PerClassCounts>,
}

impl EvalCounts {
    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when a count is impossible.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.samples == 0 {
            return Err(ServeError::BadRequest("samples must be positive".into()));
        }
        for (name, value) in [
            ("new_correct", self.new_correct),
            ("old_correct", self.old_correct),
            ("changed", self.changed),
        ] {
            if value > self.samples {
                return Err(ServeError::BadRequest(format!(
                    "{name} ({value}) exceeds samples ({})",
                    self.samples
                )));
            }
        }
        if let Some(pc) = &self.per_class {
            self.validate_per_class(pc)?;
        }
        Ok(())
    }

    /// Structural consistency of the per-class confusion counts against
    /// the scalar triple.
    fn validate_per_class(&self, pc: &PerClassCounts) -> Result<(), ServeError> {
        let classes = pc.classes as usize;
        if classes == 0 {
            return Err(ServeError::BadRequest(
                "per_class classes must be positive".into(),
            ));
        }
        for (name, vec) in [
            ("support", &pc.support),
            ("new_tp", &pc.new_tp),
            ("old_tp", &pc.old_tp),
            ("new_pred", &pc.new_pred),
            ("old_pred", &pc.old_pred),
        ] {
            if vec.len() != classes {
                return Err(ServeError::BadRequest(format!(
                    "per_class {name} has {} entries but classes is {classes}",
                    vec.len()
                )));
            }
        }
        for c in 0..classes {
            if pc.new_tp[c] > pc.new_pred[c]
                || pc.old_tp[c] > pc.old_pred[c]
                || pc.new_tp[c] > pc.support[c]
                || pc.old_tp[c] > pc.support[c]
            {
                return Err(ServeError::BadRequest(format!(
                    "per_class true positives for class {c} exceed its prediction \
                     mass or support"
                )));
            }
        }
        let labeled = pc.labeled();
        if labeled > self.samples {
            return Err(ServeError::BadRequest(format!(
                "per_class support sums to {labeled} labelled items but only {} \
                 samples were evaluated",
                self.samples
            )));
        }
        let new_mass: u64 = pc.new_pred.iter().sum();
        let old_mass: u64 = pc.old_pred.iter().sum();
        if new_mass != labeled || old_mass != labeled {
            return Err(ServeError::BadRequest(format!(
                "per_class prediction mass (new {new_mass}, old {old_mass}) must \
                 equal the labelled support sum ({labeled})"
            )));
        }
        Ok(())
    }

    /// Point estimates of the three condition variables.
    #[must_use]
    pub fn estimates(&self) -> VariableEstimates {
        VariableEstimates::from_counts(
            self.samples,
            self.new_correct,
            self.old_correct,
            self.changed,
        )
    }

    /// Point estimates for *this condition*: the plain `n`/`o`/`d`
    /// triple, plus the F1/top-k statistics derived from the per-class
    /// counts when the condition reads metric variables.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the condition reads `f1`/`topk`
    /// but the submission carries no per-class counts (a counts-mode
    /// client that posted only the scalar triple), or when the per-class
    /// shape cannot satisfy the formula (class count too small).
    pub fn estimates_for(&self, condition: &Formula) -> Result<VariableEstimates, ServeError> {
        let mut est = self.estimates();
        if condition.has_metric() {
            let Some(pc) = &self.per_class else {
                return Err(ServeError::BadRequest(
                    "condition reads f1/topk metric variables but the submission \
                     carries no per-class confusion counts"
                        .into(),
                ));
            };
            pc.populate_estimates(condition, &mut est)
                .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        }
        Ok(est)
    }
}

impl From<MeasuredCounts> for EvalCounts {
    fn from(c: MeasuredCounts) -> EvalCounts {
        EvalCounts {
            samples: c.samples,
            new_correct: c.new_correct,
            old_correct: c.old_correct,
            changed: c.changed,
            labels: c.labels_spent,
            per_class: None,
        }
    }
}

/// One commit submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitSubmission {
    /// Commit identifier (e.g. a VCS hash).
    pub commit_id: String,
    /// Evaluation counts.
    pub counts: EvalCounts,
}

/// One commit submitted as raw prediction vectors — the server-measured
/// path: the service scores both vectors against its testset and derives
/// the [`EvalCounts`] itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionsSubmission {
    /// Commit identifier (e.g. a VCS hash).
    pub commit_id: String,
    /// The accepted (old) model's predictions over the current testset.
    pub old: Vec<u32>,
    /// The candidate (new) model's predictions over the current testset.
    pub new: Vec<u32>,
}

impl PredictionsSubmission {
    /// Both vectors in their canonical wire form.
    #[must_use]
    pub fn packed(&self) -> PackedPredictions<'static> {
        let (old, new) = (encode_u32_vec(&self.old), encode_u32_vec(&self.new));
        let digest = fnv1a64(&[old.as_bytes(), b"|", new.as_bytes()]);
        PackedPredictions {
            old: Cow::Owned(old),
            new: Cow::Owned(new),
            digest,
        }
    }

    /// Content digest of the prediction pair (see
    /// [`PackedPredictions::digest`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.packed().digest()
    }
}

/// One prediction vector of a predictions commit as its request body or
/// journal line holds it: read, not yet decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WireVector<'a> {
    /// A string, `#`-packed or decimal CSV, its JSON escapes undone.
    Text(Cow<'a, str>),
    /// An array whose every element is a `u32`.
    Items(Vec<u32>),
    /// Absent or malformed: the refusal reason.
    Invalid(String),
}

impl<'a> WireVector<'a> {
    /// The items alone; a string that does not decode reads
    /// `"{what}: {why}"`.
    pub(crate) fn items(self, what: &str) -> Result<Vec<u32>, String> {
        match self {
            WireVector::Text(text) => decode_u32_vec(&text).map_err(|e| format!("{what}: {e}")),
            WireVector::Items(items) => Ok(items),
            WireVector::Invalid(reason) => Err(reason),
        }
    }

    /// The items and the canonical wire string, with the wire folded
    /// into FNV-1a state `hash`. A `#`-packed string already *is* that
    /// string, and one pass over its bytes checks the alphabet, decodes
    /// the items and folds the digest; other strings and arrays are
    /// decoded, encoded and then folded.
    fn decode(self, what: &str, hash: u64) -> Result<(Cow<'a, str>, Vec<u32>, u64), String> {
        let items = match self {
            WireVector::Text(text) if text.starts_with('#') => {
                let (mut items, mut hash) = (Vec::new(), fnv1a_step(hash, b'#'));
                decode_packed_into(&text[1..], &mut items, |b| hash = fnv1a_step(hash, b))
                    .map_err(|e| format!("{what}: {e}"))?;
                return Ok((text, items, hash));
            }
            other => other.items(what)?,
        };
        let wire = encode_u32_vec(&items);
        let hash = fnv1a_fold(hash, wire.as_bytes());
        Ok((Cow::Owned(wire), items, hash))
    }
}

/// The two vectors of a predictions commit as [`encode_u32_vec`] writes
/// them, with their digest. A served predictions commit holds each
/// vector in this form exactly once — a `#`-packed request string is
/// borrowed from the request as received (owned only when it carried
/// JSON escapes), only arrays and CSV strings are encoded — and the same
/// bytes key redelivery dedup and are what its `commit_predictions`
/// journal op records. Restart replay decodes the journalled strings
/// through the same pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPredictions<'a> {
    old: Cow<'a, str>,
    new: Cow<'a, str>,
    digest: u64,
}

impl<'a> PackedPredictions<'a> {
    /// Decode both vectors of a predictions commit, old first, carrying
    /// one FNV-1a state across `old | "|" | new`: each vector's bytes
    /// are read once (see [`WireVector`]). Returns the wire pair and the
    /// old and new items.
    ///
    /// # Errors
    ///
    /// The reason of the first invalid vector, old before new; a string
    /// that does not decode reads `"{old|new}: {why}"`.
    pub(crate) fn decode(
        old: WireVector<'a>,
        new: WireVector<'a>,
    ) -> Result<(PackedPredictions<'a>, Vec<u32>, Vec<u32>), String> {
        let (old, old_items, hash) = old.decode("old", FNV_OFFSET)?;
        let (new, new_items, digest) = new.decode("new", fnv1a_step(hash, b'|'))?;
        Ok((PackedPredictions { old, new, digest }, old_items, new_items))
    }

    /// The accepted (old) model's packed predictions.
    #[must_use]
    pub(crate) fn old_wire(&self) -> &str {
        &self.old
    }

    /// The candidate (new) model's packed predictions.
    #[must_use]
    pub(crate) fn new_wire(&self) -> &str {
        &self.new
    }

    /// Content digest of the prediction pair, `fnv1a64(old | "|" | new)`
    /// over the packed bytes — the redelivery-dedup key (the *vectors*
    /// identify a resubmission; derived counts may drift as the label
    /// pool fills between delivery attempts).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// What the gate reports back for one submission (the serving analogue of
/// [`easeml_ci_core::CommitReceipt`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GateReceipt {
    /// The commit that was evaluated.
    pub commit_id: String,
    /// 1-based step within the current testset era.
    pub step: u32,
    /// 0-based testset era.
    pub era: u32,
    /// The pass/fail bit *as visible to the developer*: `None` when the
    /// adaptivity policy withholds it.
    pub signal: Option<bool>,
    /// Whether the commit lands in the repository.
    pub accepted: bool,
    /// Three-valued outcome (integration-team view).
    pub outcome: Tribool,
    /// Final pass/fail decision (integration-team view).
    pub passed: bool,
    /// Alarm raised by this evaluation, if any.
    pub alarm: Option<AlarmReason>,
    /// Steps left in the era after this submission.
    pub steps_remaining: u32,
    /// Fresh ground-truth labels this evaluation consumed. Counts-based
    /// submissions pass the client's own accounting through; for
    /// server-measured predictions submissions this is the oracle spend
    /// of [`MeasuredTestset::measure`] (0 when the testset is fully
    /// labelled up front).
    pub labels: u64,
}

impl From<CommitReceipt> for GateReceipt {
    fn from(r: CommitReceipt) -> GateReceipt {
        GateReceipt {
            commit_id: r.commit_id,
            step: r.step,
            era: r.era,
            signal: r.signal,
            accepted: r.accepted,
            outcome: r.outcome,
            passed: r.passed,
            alarm: r.alarm,
            steps_remaining: r.steps_remaining,
            labels: r.estimates.labels_requested,
        }
    }
}

/// The `Gone` answer for an era the gate refuses
/// ([`Gate::ensure_open`]).
fn gate_closed(e: EngineError) -> ServeError {
    ServeError::Gone(match e {
        EngineError::BudgetExhausted { steps } => {
            format!("step budget H = {steps} exhausted; install a fresh testset")
        }
        // The gate refuses with nothing else.
        _ => "testset era is retired; install a fresh testset".into(),
    })
}

/// One registered project and its gating state.
#[derive(Debug, Clone)]
pub struct Project {
    name: String,
    script_text: String,
    script: CiScript,
    estimate: SampleSizeEstimate,
    gate: Gate,
    /// Server-side testset state — present iff the registration uploaded
    /// a testset (the project then accepts predictions submissions).
    measured: Option<MeasuredTestset>,
    /// Per-history-entry redelivery keys, always exactly as long as the
    /// gate's history: the predictions digest (`None` for counts-based
    /// entries), the dedup key of the predictions gate, and the per-class
    /// confusion counts (`None` for plain accuracy/difference
    /// conditions) that restart replay and redelivery dedup re-check
    /// F1/top-k verdicts against.
    entry_keys: Vec<EntryKey>,
}

/// A history entry's predictions digest and per-class confusion counts
/// (see [`Project`]'s `entry_keys`).
pub(crate) type EntryKey = (Option<u64>, Option<PerClassCounts>);

/// Project names become directory names and URL path segments, so they
/// are restricted to a conservative slug alphabet.
pub fn validate_project_name(name: &str) -> Result<(), ServeError> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
    if name.is_empty() || name.len() > 64 {
        return Err(ServeError::BadRequest(
            "project name must be 1..=64 characters".into(),
        ));
    }
    if !name.chars().all(ok_char) || name.starts_with('.') {
        return Err(ServeError::BadRequest(
            "project name may contain only [A-Za-z0-9._-] and must not start with `.`".into(),
        ));
    }
    Ok(())
}

impl Project {
    /// Register a project: validate the name, parse the CI script through
    /// the standard YAML/DSL pipeline, and run the sample-size estimator
    /// so the response can tell the team how large a testset to collect.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for invalid names/scripts (the script
    /// error message is passed through).
    pub fn register(
        name: &str,
        script_text: &str,
        estimator: &SampleSizeEstimator,
    ) -> Result<Project, ServeError> {
        Self::register_with_testset(name, script_text, estimator, None)
    }

    /// [`Project::register`] with an optional server-side testset: the
    /// project then holds the ground truth (fully labelled, or held back
    /// behind the label oracle in partial-labeling mode) and accepts
    /// prediction-vector submissions that the *server* measures.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for invalid names/scripts/testsets.
    pub fn register_with_testset(
        name: &str,
        script_text: &str,
        estimator: &SampleSizeEstimator,
        testset: Option<TestsetSpec>,
    ) -> Result<Project, ServeError> {
        validate_project_name(name)?;
        let script = CiScript::parse(script_text)
            .map_err(|e| ServeError::BadRequest(format!("invalid CI script: {e}")))?;
        let estimate = estimator
            .estimate(&script)
            .map_err(|e| ServeError::BadRequest(format!("cannot estimate sample size: {e}")))?;
        let measured = match testset {
            Some(spec) => {
                // A metric condition that the uploaded testset can never
                // satisfy (f1 over one class, topk(k) past the class
                // count) must fail at registration, not on the first
                // submission.
                validate_metric_formula(script.condition(), spec.classes)
                    .map_err(|e| ServeError::BadRequest(e.to_string()))?;
                Some(MeasuredTestset::from_spec(spec)?)
            }
            None => None,
        };
        Ok(Project {
            name: name.to_owned(),
            script_text: script_text.to_owned(),
            gate: Gate::new(&script),
            script,
            estimate,
            measured,
            entry_keys: Vec::new(),
        })
    }

    /// Evaluate one commit submission and advance the gate.
    ///
    /// Projects holding a server-side testset refuse client counts:
    /// the whole point of predictions mode is that clients *cannot*
    /// self-score (the labels may even be held back behind the oracle),
    /// so accepting fabricated counts here would bypass the trust model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] for predictions-mode projects,
    /// [`ServeError::BadRequest`] for impossible counts,
    /// [`ServeError::Gone`] when the current era is retired or the budget
    /// is exhausted (the caller must install a fresh testset first).
    pub fn submit(&mut self, submission: &CommitSubmission) -> Result<GateReceipt, ServeError> {
        if self.measured.is_some() {
            return Err(ServeError::Conflict(
                "project holds a server-side testset; submit prediction vectors to \
                 /commits/predictions"
                    .into(),
            ));
        }
        self.submit_with_digest(submission, None)
    }

    /// Evaluate one commit submitted as prediction vectors: the server
    /// measures both vectors against its testset (spending only the
    /// labels the condition demands), derives the [`EvalCounts`], and
    /// feeds them through the *same* gate as [`Project::submit`] — the
    /// counts↔predictions equivalence is one code path, not a contract.
    ///
    /// Returns the receipt together with the derived counts (the
    /// response surfaces them so a client can audit the measurement).
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when the project has no server-side
    /// testset, [`ServeError::BadRequest`] for malformed vectors,
    /// [`ServeError::Gone`] for retired/exhausted eras.
    pub fn submit_predictions(
        &mut self,
        submission: &PredictionsSubmission,
    ) -> Result<(GateReceipt, EvalCounts), ServeError> {
        self.submit_packed_predictions(
            &submission.commit_id,
            &submission.packed(),
            &submission.old,
            &submission.new,
            &mut Vec::new(),
        )
    }

    /// [`Project::submit_predictions`] for vectors that arrive with
    /// their wire strings — the one entry the served route (through
    /// [`crate::store::ProjectSlot`]) and restart replay share. `packed`
    /// must be the canonical form of `old`/`new`; its digest becomes the
    /// entry's dedup key. The items the measurement pulled from the
    /// oracle are appended to `fresh`, also on failure, so a caller can
    /// roll them back ([`Project::unset_labels`]).
    pub(crate) fn submit_packed_predictions(
        &mut self,
        commit_id: &str,
        packed: &PackedPredictions<'_>,
        old: &[u32],
        new: &[u32],
        fresh: &mut Vec<usize>,
    ) -> Result<(GateReceipt, EvalCounts), ServeError> {
        if commit_id.is_empty() {
            return Err(ServeError::BadRequest("commit_id must be non-empty".into()));
        }
        if self.measured.is_none() {
            return Err(ServeError::Conflict(
                "project holds no server-side testset; submit evaluation counts to \
                 /commits or re-register with a testset"
                    .into(),
            ));
        }
        // Gate preconditions first; vector validation happens inside
        // `measure` (before any oracle pull), so a refused or malformed
        // submission never spends labels.
        self.gate.ensure_open().map_err(gate_closed)?;
        let condition = self.script.condition();
        let measured = self.measured.as_mut().expect("checked above");
        let (measured_counts, per_class) = trace::time(Stage::Measure, || {
            measured.measure_recording(condition, old, new, fresh)
        })?;
        let mut counts: EvalCounts = measured_counts.into();
        counts.per_class = per_class;
        let receipt = self.submit_with_digest(
            &CommitSubmission {
                commit_id: commit_id.to_owned(),
                counts: counts.clone(),
            },
            Some(packed.digest()),
        )?;
        Ok((receipt, counts))
    }

    /// The gate step both feeds share: validation, point estimates, the
    /// condition over confidence intervals and [`Gate::record`], all in
    /// the `gate` trace stage.
    fn submit_with_digest(
        &mut self,
        submission: &CommitSubmission,
        digest: Option<u64>,
    ) -> Result<GateReceipt, ServeError> {
        trace::time(Stage::Gate, || {
            if submission.commit_id.is_empty() {
                return Err(ServeError::BadRequest("commit_id must be non-empty".into()));
            }
            submission.counts.validate()?;
            self.gate.ensure_open().map_err(gate_closed)?;
            let est = submission.counts.estimates_for(self.script.condition())?;
            let outcome = evaluate_formula(self.script.condition(), &est);
            let estimates = CommitEstimates {
                d: Some(est.d),
                n: Some(est.n),
                o: Some(est.o),
                diff: Some(est.n - est.o),
                labels_requested: submission.counts.labels,
            };
            let receipt = self
                .gate
                .record(&submission.commit_id, outcome, estimates)
                .map_err(gate_closed)?;
            self.entry_keys
                .push((digest, submission.counts.per_class.clone()));
            Ok(receipt.into())
        })
    }

    /// If `submission` is an exact redelivery of an evaluation already
    /// recorded in the current era — same commit id, same derived
    /// estimates, same label count — reconstruct that evaluation's
    /// original receipt instead of spending another budget step.
    ///
    /// This makes the commit gate idempotent under at-least-once
    /// delivery: a client that lost the response (the journal append
    /// happens before the reply) can safely resubmit, and the serving
    /// layer consults this before [`Project::submit`]. The whole era is
    /// searched, not just the latest entry, so the retry stays safe even
    /// when other clients' submissions landed in between. Re-testing
    /// identical counts could only ever reproduce the identical verdict,
    /// so no statistical budget needs to be charged for it.
    #[must_use]
    pub fn duplicate_receipt(&self, submission: &CommitSubmission) -> Option<GateReceipt> {
        // Trust model: a server-measured project refuses client counts
        // (`Project::submit`), so a counts body never matches one of its
        // predictions entries either.
        if self.measured.is_some() {
            return None;
        }
        submission.counts.validate().ok()?;
        let est = submission.counts.estimates();
        let index = self.gate.find_in_era(|i, e| {
            e.commit_id == submission.commit_id
                && e.estimates.n == Some(est.n)
                && e.estimates.o == Some(est.o)
                && e.estimates.d == Some(est.d)
                && e.estimates.labels_requested == submission.counts.labels
                // Identical scalar triples can still carry different
                // per-class confusion shapes — and thus different
                // F1/top-k verdicts — so the dedup key includes them.
                && self.entry_keys.get(i).is_some_and(|k| k.1 == submission.counts.per_class)
        })?;
        Some(self.gate.verdict_of(index).into())
    }

    /// If `submission` redelivers prediction vectors already evaluated in
    /// the current era — same commit id, same *vectors* (by digest) —
    /// reconstruct the original receipt and derived counts.
    ///
    /// The key is the vectors, not the derived counts: the label pool
    /// fills monotonically, so re-measuring the same vectors later could
    /// legitimately attribute more exact per-model credit — a dedup on
    /// counts would miss, re-spend a budget step, and (worse) double-
    /// charge labels. Dedup therefore happens *before* any measurement.
    #[must_use]
    pub fn duplicate_predictions_receipt(
        &self,
        submission: &PredictionsSubmission,
    ) -> Option<(GateReceipt, EvalCounts)> {
        self.duplicate_predictions_keyed(&submission.commit_id, submission.digest())
    }

    /// [`Project::duplicate_predictions_receipt`] with the digest
    /// precomputed by the caller.
    pub(crate) fn duplicate_predictions_keyed(
        &self,
        commit_id: &str,
        digest: u64,
    ) -> Option<(GateReceipt, EvalCounts)> {
        let index = self.gate.find_in_era(|i, e| {
            e.commit_id == commit_id && self.entry_keys.get(i).is_some_and(|k| k.0 == Some(digest))
        })?;
        Some((self.gate.verdict_of(index).into(), self.counts_at(index)))
    }

    /// Reconstruct the derived counts predictions-mode history entry
    /// `index` recorded. Point estimates are exact multiples of
    /// `1/samples`, so rounding `estimate × samples` recovers the integer
    /// counts; the per-class confusion counts are carried verbatim in
    /// `entry_keys`.
    fn counts_at(&self, index: usize) -> EvalCounts {
        let entry = &self.gate.history().entries()[index];
        let samples = self.measured.as_ref().map_or(0, |m| m.len() as u64);
        let s = samples as f64;
        let count = |est: Option<f64>| (est.unwrap_or(0.0) * s).round() as u64;
        EvalCounts {
            samples,
            new_correct: count(entry.estimates.n),
            old_correct: count(entry.estimates.o),
            changed: count(entry.estimates.d),
            labels: entry.estimates.labels_requested,
            per_class: self.entry_keys.get(index).and_then(|k| k.1.clone()),
        }
    }

    /// Install a fresh testset: start a new era with a full step budget.
    /// (Counts-based gating needs no pool hand-over; the client attests
    /// it collected `required_samples()` fresh labelled examples.)
    ///
    /// Projects with a server-side testset must instead hand the new
    /// era's data over through [`Project::install_testset`].
    pub fn fresh_testset(&mut self) -> u32 {
        self.gate.fresh_era()
    }

    /// Install a fresh *server-side* testset: replace the measured pool
    /// (ground truth, oracle state, class count) and start a new era
    /// with a full step budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when the project gates on client counts
    /// (there is no server-side pool to replace), validation failures
    /// from [`TestsetSpec::validate`].
    pub fn install_testset(&mut self, spec: TestsetSpec) -> Result<u32, ServeError> {
        if self.measured.is_none() {
            return Err(ServeError::Conflict(
                "project gates on client counts; POST an empty body to start a fresh era".into(),
            ));
        }
        self.measured = Some(MeasuredTestset::from_spec(spec)?);
        Ok(self.fresh_testset())
    }

    /// Project name (registry key and URL path segment).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw script text as registered.
    #[must_use]
    pub fn script_text(&self) -> &str {
        &self.script_text
    }

    /// The validated script.
    #[must_use]
    pub fn script(&self) -> &CiScript {
        &self.script
    }

    /// The estimator's answer for this script.
    #[must_use]
    pub fn estimate(&self) -> &SampleSizeEstimate {
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

    /// Current testset era.
    #[must_use]
    pub fn era(&self) -> u32 {
        self.gate.era()
    }

    /// Whether the current era is retired (fresh testset required).
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.gate.is_retired()
    }

    /// The evaluation history across all eras.
    #[must_use]
    pub fn history(&self) -> &CommitHistory {
        self.gate.history()
    }

    /// The server-side testset state, when this project measures
    /// predictions itself.
    #[must_use]
    pub fn measured(&self) -> Option<&MeasuredTestset> {
        self.measured.as_ref()
    }

    /// Content digest of the current era's server-side testset, if any.
    #[must_use]
    pub fn testset_digest(&self) -> Option<u64> {
        self.measured.as_ref().map(MeasuredTestset::digest)
    }

    /// The predictions digest recorded for history entry `index`
    /// (`None` for counts-based entries).
    #[must_use]
    pub(crate) fn pred_digest(&self, index: usize) -> Option<u64> {
        self.entry_keys.get(index).and_then(|k| k.0)
    }

    /// The per-class confusion counts recorded for history entry `index`
    /// (`None` for plain scalar conditions).
    #[must_use]
    pub(crate) fn per_class_at(&self, index: usize) -> Option<&PerClassCounts> {
        self.entry_keys.get(index).and_then(|k| k.1.as_ref())
    }

    /// Restore the gate and its redelivery keys from a snapshot (see
    /// [`crate::store`]). `entry_keys` must be aligned with `history`.
    ///
    /// # Errors
    ///
    /// The inconsistency [`Gate::restore`] found; nothing changes then.
    pub(crate) fn restore(
        &mut self,
        steps_used: u32,
        era: u32,
        retired: bool,
        history: CommitHistory,
        entry_keys: Vec<EntryKey>,
    ) -> Result<(), String> {
        debug_assert_eq!(history.len(), entry_keys.len());
        self.gate.restore(steps_used, era, retired, history)?;
        self.entry_keys = entry_keys;
        Ok(())
    }

    /// Replace the measured-testset state wholesale (snapshot restore
    /// and install-rollback paths).
    pub(crate) fn set_measured(&mut self, measured: Option<MeasuredTestset>) {
        self.measured = measured;
    }

    /// Clone of the measured-testset state (captured before mutations
    /// that may need rolling back — the rare install path only; the
    /// per-commit path hands back just its fresh labels,
    /// [`Project::unset_labels`]).
    pub(crate) fn measured_clone(&self) -> Option<MeasuredTestset> {
        self.measured.clone()
    }

    /// Forget the labels a failed predictions commit pulled
    /// ([`MeasuredTestset::unset_labels`]).
    pub(crate) fn unset_labels(&mut self, fresh: &[usize]) {
        if let Some(measured) = self.measured.as_mut() {
            measured.unset_labels(fresh);
        }
    }

    /// Mutable access to the measured-testset state (snapshot restore).
    pub(crate) fn measured_mut(&mut self) -> Option<&mut MeasuredTestset> {
        self.measured.as_mut()
    }

    /// The gate state a mutation can change, captured so a failed
    /// durability step can roll the mutation back (see
    /// [`crate::store::ProjectSlot`]).
    pub(crate) fn mark(&self) -> GateSavepoint {
        self.gate.mark()
    }

    /// Undo the single most recent mutation ([`Gate::rollback`]) and the
    /// dedup keys it appended. Label-pool and testset state are restored
    /// separately (see [`crate::store::ProjectSlot`]).
    pub(crate) fn rollback(&mut self, mark: GateSavepoint) {
        self.gate.rollback(mark);
        let len = self.gate.history().len();
        self.entry_keys.truncate(len);
    }
}

/// The estimator configuration the serving layer registers projects
/// with: exact-binomial leaves (§4.3) so estimates are tight and the
/// expensive inversions flow through the shared
/// [`easeml_ci_core::BoundsCache`].
#[must_use]
pub fn serving_estimator() -> SampleSizeEstimator {
    SampleSizeEstimator::with_config(EstimatorConfig {
        leaf_bound: easeml_ci_core::estimator::LeafBound::ExactBinomial,
        ..EstimatorConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_ci_core::LabelOracle;

    const SCRIPT: &str = "ml:\n\
        \x20 - condition  : n > 0.6 +/- 0.2\n\
        \x20 - reliability: 0.99\n\
        \x20 - mode       : fp-free\n\
        \x20 - adaptivity : full\n\
        \x20 - steps      : 2\n";

    fn counts(new_correct: u64) -> EvalCounts {
        EvalCounts {
            samples: 100,
            new_correct,
            old_correct: 50,
            changed: 30,
            labels: 100,
            per_class: None,
        }
    }

    fn submission(id: &str, new_correct: u64) -> CommitSubmission {
        CommitSubmission {
            commit_id: id.into(),
            counts: counts(new_correct),
        }
    }

    #[test]
    fn register_validates_and_estimates() {
        let p = Project::register("proj-a", SCRIPT, &serving_estimator()).unwrap();
        assert_eq!(p.name(), "proj-a");
        assert_eq!(p.script().steps(), 2);
        assert!(p.estimate().labeled_samples > 0);
        assert_eq!((p.era(), p.steps_used()), (0, 0));

        assert!(Project::register("", SCRIPT, &serving_estimator()).is_err());
        assert!(Project::register("../evil", SCRIPT, &serving_estimator()).is_err());
        assert!(Project::register(".hidden", SCRIPT, &serving_estimator()).is_err());
        assert!(Project::register("a b", SCRIPT, &serving_estimator()).is_err());
        assert!(Project::register("ok", "not a script", &serving_estimator()).is_err());
    }

    #[test]
    fn gate_pass_fail_and_budget_exhaustion() {
        let mut p = Project::register("p", SCRIPT, &serving_estimator()).unwrap();
        // Certain pass: n̂ = 0.9, interval [0.7, 1.1] strictly above 0.6.
        let r = p.submit(&submission("c1", 90)).unwrap();
        assert!(r.passed && r.accepted && r.signal == Some(true));
        assert_eq!((r.step, r.era, r.steps_remaining), (1, 0, 1));
        assert_eq!(r.outcome, Tribool::True);
        assert!(r.alarm.is_none());

        // Certain fail: n̂ = 0.3 → interval [0.1, 0.5] strictly below.
        // Second step exhausts H = 2.
        let r = p.submit(&submission("c2", 30)).unwrap();
        assert!(!r.passed && !r.accepted && r.signal == Some(false));
        assert_eq!(r.alarm, Some(AlarmReason::BudgetExhausted));
        assert!(p.is_retired());
        assert_eq!(p.steps_remaining(), 0);

        // Retired era refuses further commits until a fresh testset.
        assert!(matches!(
            p.submit(&submission("c3", 90)),
            Err(ServeError::Gone(_))
        ));
        assert_eq!(p.fresh_testset(), 1);
        let r = p.submit(&submission("c3", 90)).unwrap();
        assert_eq!((r.step, r.era), (1, 1));
        assert_eq!(p.history().len(), 3);
    }

    #[test]
    fn unknown_outcome_collapses_by_mode() {
        // n̂ = 0.65 → interval [0.45, 0.85] straddles 0.6 → Unknown.
        let mut p = Project::register("p", SCRIPT, &serving_estimator()).unwrap();
        let r = p.submit(&submission("c", 65)).unwrap();
        assert_eq!(r.outcome, Tribool::Unknown);
        assert!(!r.passed, "fp-free rejects Unknown");
    }

    #[test]
    fn counts_are_validated() {
        let mut p = Project::register("p", SCRIPT, &serving_estimator()).unwrap();
        let bad = CommitSubmission {
            commit_id: "c".into(),
            counts: EvalCounts {
                samples: 10,
                new_correct: 11,
                old_correct: 0,
                changed: 0,
                labels: 0,
                per_class: None,
            },
        };
        assert!(matches!(p.submit(&bad), Err(ServeError::BadRequest(_))));
        let zero = CommitSubmission {
            commit_id: "c".into(),
            counts: EvalCounts {
                samples: 0,
                new_correct: 0,
                old_correct: 0,
                changed: 0,
                labels: 0,
                per_class: None,
            },
        };
        assert!(matches!(p.submit(&zero), Err(ServeError::BadRequest(_))));
        let anon = CommitSubmission {
            commit_id: String::new(),
            counts: counts(50),
        };
        assert!(matches!(p.submit(&anon), Err(ServeError::BadRequest(_))));
        // Validation failures must not consume budget.
        assert_eq!(p.steps_used(), 0);
    }

    #[test]
    fn first_change_retires_on_pass() {
        let script = SCRIPT.replace("full", "firstChange");
        let mut p = Project::register("p", &script, &serving_estimator()).unwrap();
        let r = p.submit(&submission("c1", 30)).unwrap();
        assert!(!r.passed && !p.is_retired());
        let r = p.submit(&submission("c2", 90)).unwrap();
        assert_eq!(r.alarm, Some(AlarmReason::PassedInHybrid));
        assert!(p.is_retired());
    }

    #[test]
    fn adaptivity_none_withholds_signal_but_accepts() {
        let script = SCRIPT.replace("full", "none");
        let mut p = Project::register("p", &script, &serving_estimator()).unwrap();
        let r = p.submit(&submission("c1", 30)).unwrap();
        assert_eq!(r.signal, None);
        assert!(
            !r.passed && r.accepted,
            "none-adaptivity lands every commit"
        );
    }

    /// A deterministic testset + prediction pair: truth is all-zeros,
    /// the old model gets `old_correct` right, the new one `new_correct`
    /// (wrong predictions use class 1), errors interleaved so the two
    /// models disagree wherever exactly one of them is wrong.
    fn pred_fixture(
        size: usize,
        old_correct: usize,
        new_correct: usize,
    ) -> (TestsetSpec, Vec<u32>, Vec<u32>) {
        let truth = vec![0u32; size];
        let old: Vec<u32> = (0..size)
            .map(|i| u32::from(i < size - old_correct))
            .collect();
        let new: Vec<u32> = (0..size).map(|i| u32::from(i >= new_correct)).collect();
        (
            TestsetSpec {
                truth,
                classes: 2,
                lazy: false,
            },
            old,
            new,
        )
    }

    #[test]
    fn predictions_gate_derives_counts_and_matches_counts_gate() {
        let estimator = serving_estimator();
        let (spec, old, new) = pred_fixture(100, 50, 90);
        let mut pred_project =
            Project::register_with_testset("pred", SCRIPT, &estimator, Some(spec)).unwrap();
        let (receipt, counts) = pred_project
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c1".into(),
                old: old.clone(),
                new: new.clone(),
            })
            .unwrap();
        // Exact confusion counts on a fully labelled testset.
        assert_eq!(counts.samples, 100);
        assert_eq!(counts.new_correct, 90);
        assert_eq!(counts.old_correct, 50);
        assert_eq!(counts.labels, 0, "full-mode testset spends no fresh labels");
        assert!(receipt.passed && receipt.accepted);

        // The same derived counts through the counts gate of a twin
        // project produce a byte-identical receipt.
        let mut counts_project = Project::register("counts", SCRIPT, &estimator).unwrap();
        let twin = counts_project
            .submit(&CommitSubmission {
                commit_id: "c1".into(),
                counts,
            })
            .unwrap();
        assert_eq!(twin, receipt);
    }

    #[test]
    fn lazy_testset_spends_only_disagreement_labels() {
        // n − o condition: the §4.1.2 trick labels only disagreements.
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        let estimator = serving_estimator();
        let (mut spec, old, new) = pred_fixture(100, 50, 90);
        spec.lazy = true;
        let mut p =
            Project::register_with_testset("lazy", &script, &estimator, Some(spec)).unwrap();
        let (receipt, counts) = p
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c1".into(),
                old: old.clone(),
                new,
            })
            .unwrap();
        // old wrong on items 0..50, new wrong on 90..100: disagreement on
        // 0..50 ∪ 90..100 = 60 items.
        assert_eq!(counts.changed, 60);
        assert_eq!(counts.labels, 60, "only disagreements are labelled");
        assert_eq!(receipt.labels, 60, "label spend is surfaced in the receipt");
        assert_eq!(p.measured().unwrap().labeled_count(), 60);
        // A second commit re-using labelled items spends nothing new.
        let (_, counts2) = p
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c2".into(),
                old: old.clone(),
                new: old,
            })
            .unwrap();
        assert_eq!(counts2.labels, 0, "identical vectors disagree nowhere");
    }

    #[test]
    fn measurement_lanes_agree_through_serving_state() {
        // The serving state measures through the one core pass; the core
        // layer's own per-item loop checks it, so here it is enough that
        // serving adds nothing: a direct `Measurement::measure` over a
        // cloned pool gives identical counts AND an identical pool and
        // oracle spend, at 2 classes and at 70.
        let conditions = [
            "d < 0.7 +/- 0.1",
            "n - o > 0.0 +/- 0.2",
            "n > 0.6 +/- 0.2",
            "f1(n) - f1(o) > -0.1 +/- 0.2",
        ];
        for lazy in [false, true] {
            for classes in [2, 70] {
                let (mut spec, old, new) = pred_fixture(100, 50, 90);
                spec.lazy = lazy;
                spec.classes = classes;
                for text in conditions {
                    let script = SCRIPT.replace("n > 0.6 +/- 0.2", text);
                    let script = CiScript::parse(&script).unwrap();
                    let condition = script.condition();
                    let mut served = MeasuredTestset::from_spec(spec.clone()).unwrap();
                    let mut direct = served.clone();
                    let mut fresh = Vec::new();
                    let a = served
                        .measure_recording(condition, &old, &new, &mut fresh)
                        .unwrap();
                    let oracle: Option<&mut (dyn LabelOracle + 'static)> =
                        lazy.then_some(&mut direct.oracle as _);
                    let mut m = Measurement::new(&mut direct.pool, oracle, &old, &new).unwrap();
                    let b = m.measure(condition, classes).unwrap();
                    assert_eq!(fresh, m.fresh_labels(), "lazy={lazy} condition={text}");
                    assert_eq!(a, b, "lazy={lazy} classes={classes} condition={text}");
                    assert_eq!(served.pool, direct.pool);
                    assert_eq!(served.oracle.labels_served(), direct.oracle.labels_served());
                    // Handing the fresh labels back restores the pool.
                    served.unset_labels(&fresh);
                    assert_eq!(
                        served.pool,
                        MeasuredTestset::from_spec(spec.clone()).unwrap().pool
                    );
                }
            }
        }
    }

    #[test]
    fn predictions_validation_rejects_bad_vectors_without_spending() {
        let estimator = serving_estimator();
        let (spec, old, _) = pred_fixture(100, 50, 90);
        let mut p = Project::register_with_testset("p", SCRIPT, &estimator, Some(spec)).unwrap();
        // Wrong length.
        let err = p
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c".into(),
                old: old.clone(),
                new: vec![0; 99],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        // Class out of range.
        let mut bad = old.clone();
        bad[3] = 2;
        assert!(p
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c".into(),
                old: old.clone(),
                new: bad,
            })
            .is_err());
        // Empty commit id.
        assert!(p
            .submit_predictions(&PredictionsSubmission {
                commit_id: String::new(),
                old: old.clone(),
                new: old.clone(),
            })
            .is_err());
        assert_eq!(p.steps_used(), 0, "rejected submissions spend nothing");
        // Trust model, converse direction: client-measured counts are
        // refused on a server-measured project (fabricated counts must
        // not bypass the server's own scoring).
        assert!(matches!(
            p.submit(&CommitSubmission {
                commit_id: "c".into(),
                counts: EvalCounts {
                    samples: 100,
                    new_correct: 100,
                    old_correct: 0,
                    changed: 100,
                    labels: 0,
                    per_class: None,
                },
            }),
            Err(ServeError::Conflict(_))
        ));
        assert_eq!(p.steps_used(), 0);
        // Counts-mode project refuses predictions outright.
        let mut counts_only = Project::register("c", SCRIPT, &estimator).unwrap();
        assert!(matches!(
            counts_only.submit_predictions(&PredictionsSubmission {
                commit_id: "c".into(),
                old: old.clone(),
                new: old,
            }),
            Err(ServeError::Conflict(_))
        ));
    }

    #[test]
    fn testset_spec_validation() {
        assert!(TestsetSpec {
            truth: vec![],
            classes: 2,
            lazy: false
        }
        .validate()
        .is_err());
        assert!(TestsetSpec {
            truth: vec![0],
            classes: 0,
            lazy: false
        }
        .validate()
        .is_err());
        assert!(TestsetSpec {
            truth: vec![0, 3],
            classes: 3,
            lazy: false
        }
        .validate()
        .is_err());
        let ok = TestsetSpec {
            truth: vec![0, 2],
            classes: 3,
            lazy: true,
        };
        assert!(ok.validate().is_ok());
        // The digest separates labels, classes, and labeling mode.
        let mut full = ok.clone();
        full.lazy = false;
        let mut wide = ok.clone();
        wide.classes = 4;
        assert_ne!(ok.digest(), full.digest());
        assert_ne!(ok.digest(), wide.digest());
        assert_eq!(ok.digest(), ok.clone().digest());
    }

    /// Known answers: both digests are on disk (journal, snapshot,
    /// `project.json`), so their values must never move.
    #[test]
    fn digests_match_known_answers() {
        let packed = PredictionsSubmission {
            commit_id: "kat".into(),
            old: (0..300u32).map(|i| (i * 7) % 64).collect(),
            new: (0..300u32).map(|i| i % 4).collect(),
        };
        let csv = PredictionsSubmission {
            commit_id: "kat".into(),
            old: vec![0, 64, 7, 100_000, u32::MAX],
            new: Vec::new(),
        };
        let spec = TestsetSpec {
            truth: (0..257u32).map(|i| i % 5).collect(),
            classes: 5,
            lazy: true,
        };
        assert_eq!(packed.digest(), 0xccb9_89fb_021f_86c8);
        assert_eq!(csv.digest(), 0x71aa_aaed_341f_c777);
        assert_eq!(spec.digest(), 0x48c0_2a93_7c9e_f04d);
        let measured = MeasuredTestset::from_spec(spec.clone()).unwrap();
        assert_eq!(measured.digest(), spec.digest());
    }

    #[test]
    fn duplicate_predictions_redelivery_reconstructs_receipt() {
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        let estimator = serving_estimator();
        let (mut spec, old, new) = pred_fixture(100, 50, 90);
        spec.lazy = true;
        let mut p = Project::register_with_testset("p", &script, &estimator, Some(spec)).unwrap();
        let sub = PredictionsSubmission {
            commit_id: "c1".into(),
            old,
            new,
        };
        let (receipt, counts) = p.submit_predictions(&sub).unwrap();
        let (again, counts_again) = p.duplicate_predictions_receipt(&sub).unwrap();
        assert_eq!(again, receipt);
        assert_eq!(counts_again, counts);
        // A different pair under the same commit id is NOT a duplicate.
        let mut other = sub.clone();
        other.new = other.old.clone();
        assert!(p.duplicate_predictions_receipt(&other).is_none());
    }

    #[test]
    fn install_testset_starts_a_fresh_era() {
        let estimator = serving_estimator();
        let (spec, old, new) = pred_fixture(100, 50, 30);
        let mut p =
            Project::register_with_testset("p", SCRIPT, &estimator, Some(spec.clone())).unwrap();
        // Exhaust the 2-step budget.
        for (i, preds) in [&new, &old].into_iter().enumerate() {
            p.submit_predictions(&PredictionsSubmission {
                commit_id: format!("c{i}"),
                old: old.clone(),
                new: preds.clone(),
            })
            .unwrap();
        }
        assert!(p.is_retired());
        let (bigger, old2, new2) = pred_fixture(200, 100, 180);
        assert_eq!(p.install_testset(bigger).unwrap(), 1);
        assert_eq!(p.measured().unwrap().len(), 200);
        let (receipt, counts) = p
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c3".into(),
                old: old2,
                new: new2,
            })
            .unwrap();
        assert_eq!((receipt.step, receipt.era), (1, 1));
        assert_eq!(counts.samples, 200);
        // Counts-mode projects cannot install a server-side testset.
        let mut counts_only = Project::register("c", SCRIPT, &estimator).unwrap();
        assert!(matches!(
            counts_only.install_testset(spec),
            Err(ServeError::Conflict(_))
        ));
    }

    /// An F1 gate over a server-side testset: the measurement derives
    /// per-class confusion counts, the gate decides from the F1
    /// statistic, and a counts-mode twin fed the same counts (scalar
    /// triple + per_class) produces a byte-identical receipt.
    #[test]
    fn f1_gate_end_to_end_matches_counts_twin() {
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "f1(n) - f1(o) > -0.1 +/- 0.2");
        let estimator = serving_estimator();
        // Alternating truth: both classes present, F1 well-defined.
        let truth: Vec<u32> = (0..100).map(|i| i % 2).collect();
        let spec = TestsetSpec {
            truth: truth.clone(),
            classes: 2,
            lazy: false,
        };
        let mut pred_project =
            Project::register_with_testset("f1p", &script, &estimator, Some(spec)).unwrap();
        // New model perfect, old model always answers class 0.
        let (receipt, counts) = pred_project
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c1".into(),
                old: vec![0; 100],
                new: truth.clone(),
            })
            .unwrap();
        let pc = counts
            .per_class
            .as_ref()
            .expect("F1 condition derives per-class counts");
        assert_eq!(pc.classes, 2);
        assert_eq!(pc.support, vec![50, 50]);
        assert_eq!(pc.new_tp, vec![50, 50]);
        assert_eq!(pc.old_tp, vec![50, 0]);
        assert!((pc.f1(true) - 1.0).abs() < 1e-12);
        assert!(
            (pc.f1(false) - 0.0).abs() < 1e-12,
            "old never predicts class 1"
        );
        assert!(receipt.passed, "F1 improved from 0 to 1");

        // Twin counts project: same counts (per_class included) through
        // the counts gate → byte-identical receipt.
        let mut counts_project = Project::register("f1c", &script, &estimator).unwrap();
        let twin = counts_project
            .submit(&CommitSubmission {
                commit_id: "c1".into(),
                counts: counts.clone(),
            })
            .unwrap();
        assert_eq!(twin, receipt);

        // Redelivery of the identical vectors reconstructs receipt AND
        // per-class counts without spending a step.
        let (again, counts_again) = pred_project
            .duplicate_predictions_receipt(&PredictionsSubmission {
                commit_id: "c1".into(),
                old: vec![0; 100],
                new: truth,
            })
            .unwrap();
        assert_eq!(again, receipt);
        assert_eq!(counts_again, counts);
    }

    /// Metric conditions without per-class counts are refused loudly on
    /// the counts gate, and a testset that can never satisfy the metric
    /// shape is refused at registration.
    #[test]
    fn metric_gate_validation_is_loud() {
        let f1_script = SCRIPT.replace("n > 0.6 +/- 0.2", "f1(n) - f1(o) > -0.1 +/- 0.2");
        let estimator = serving_estimator();
        // Counts gate without per_class: loud 400, no budget spent.
        let mut p = Project::register("p", &f1_script, &estimator).unwrap();
        let err = p.submit(&submission("c1", 90)).unwrap_err();
        assert!(
            matches!(&err, ServeError::BadRequest(m) if m.contains("per-class")),
            "{err}"
        );
        assert_eq!(p.steps_used(), 0);

        // f1 needs 2 classes; topk(k) must fit the class count.
        let one_class = TestsetSpec {
            truth: vec![0; 10],
            classes: 1,
            lazy: false,
        };
        let err = Project::register_with_testset("q", &f1_script, &estimator, Some(one_class))
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::BadRequest(m) if m.contains("2 classes")),
            "{err}"
        );
        let topk_script = SCRIPT.replace("n > 0.6 +/- 0.2", "topk(n, 5) > 0.5 +/- 0.2");
        let narrow = TestsetSpec {
            truth: vec![0, 1, 2],
            classes: 3,
            lazy: false,
        };
        let err = Project::register_with_testset("r", &topk_script, &estimator, Some(narrow))
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::BadRequest(m) if m.contains("topk(5)")),
            "{err}"
        );
        // Structurally impossible per_class shapes are rejected.
        let mut bad = counts(90);
        bad.per_class = Some(PerClassCounts {
            classes: 2,
            support: vec![60, 50], // sums past samples = 100
            new_tp: vec![0, 0],
            old_tp: vec![0, 0],
            new_pred: vec![55, 55],
            old_pred: vec![55, 55],
        });
        assert!(matches!(bad.validate(), Err(ServeError::BadRequest(_))));
    }

    /// A top-k gate measured over a lazy pool: Full label demand pulls
    /// every label, and the derived per-class counts back the topk
    /// statistic the gate decides on.
    #[test]
    fn topk_gate_measures_over_lazy_pool() {
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "topk(n, 2) > 0.5 +/- 0.2");
        let estimator = serving_estimator();
        // Class frequencies: 0 × 50, 1 × 30, 2 × 20 → top-2 = {0, 1}.
        let truth: Vec<u32> = (0..100u32)
            .map(|i| {
                if i < 50 {
                    0
                } else if i < 80 {
                    1
                } else {
                    2
                }
            })
            .collect();
        let spec = TestsetSpec {
            truth: truth.clone(),
            classes: 3,
            lazy: true,
        };
        let mut p = Project::register_with_testset("tk", &script, &estimator, Some(spec)).unwrap();
        // New model: right on the top-2 classes, wrong on class 2.
        let new: Vec<u32> = truth.iter().map(|&t| if t == 2 { 0 } else { t }).collect();
        let (receipt, counts) = p
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c1".into(),
                old: vec![1; 100],
                new,
            })
            .unwrap();
        assert_eq!(counts.labels, 100, "metric demand labels the whole pool");
        let pc = counts.per_class.as_ref().unwrap();
        assert_eq!(pc.top_classes(2), vec![0, 1]);
        // topk(new, 2) = (tp₀ + tp₁) / (support₀ + support₁) = 80/80.
        assert!((pc.topk(true, 2) - 1.0).abs() < 1e-12);
        assert!(receipt.passed, "1.0 - 0.2 > 0.5 is certain");
    }

    #[test]
    fn gate_matches_engine_decision_semantics() {
        // The serving gate and the in-process engine must agree on the
        // decision for identical measured statistics. Use a fully
        // labelled testset so the engine measures exactly the counts.
        use easeml_ci_core::{CiEngine, ModelCommit, Testset};
        let script = CiScript::parse(SCRIPT).unwrap();
        let estimator = serving_estimator();
        let need = estimator.estimate(&script).unwrap().total_samples() as usize;
        let labels = vec![1u32; need];
        let old = vec![0u32; need]; // old model: all wrong
        let mut engine = CiEngine::with_estimator(
            script,
            Testset::fully_labeled(labels),
            old.clone(),
            &estimator,
        )
        .unwrap();

        // New model: correct on 90% of items, errors interleaved so any
        // contiguous measurement range sees ≈0.9 accuracy (the engine may
        // evaluate phase sub-ranges depending on the plan).
        let preds: Vec<u32> = (0..need).map(|i| if i % 10 == 9 { 2 } else { 1 }).collect();
        let correct = preds.iter().filter(|&&p| p == 1).count();
        let receipt = engine.submit(&ModelCommit::new("c1", preds)).unwrap();

        let mut gate = Project::register("p", SCRIPT, &estimator).unwrap();
        let gr = gate
            .submit(&CommitSubmission {
                commit_id: "c1".into(),
                counts: EvalCounts {
                    samples: need as u64,
                    new_correct: correct as u64,
                    old_correct: 0,
                    changed: need as u64,
                    labels: need as u64,
                    per_class: None,
                },
            })
            .unwrap();
        assert_eq!(gr.passed, receipt.passed);
        assert_eq!(gr.outcome, receipt.outcome);
        assert_eq!(gr.accepted, receipt.accepted);
        assert_eq!(gr.step, receipt.step);
    }

    /// Decode `(old, new)` through the one pass and return what the
    /// route keeps: the items, the wire pair and the digest.
    fn decoded(
        old: WireVector<'_>,
        new: WireVector<'_>,
    ) -> (Vec<u32>, Vec<u32>, String, String, u64) {
        let (packed, old, new) = PackedPredictions::decode(old, new).unwrap();
        let (old_wire, new_wire) = (packed.old_wire().to_owned(), packed.new_wire().to_owned());
        (old, new, old_wire, new_wire, packed.digest())
    }

    #[test]
    fn every_wire_form_decodes_to_the_canonical_string() {
        let small = vec![0u32, 1, 9, 35, 63, 10, 36, 62];
        let packed = encode_u32_vec(&small);
        let big = vec![3u32, 64, 100_000];
        let csv = encode_u32_vec(&big);
        // `#` kept as received, arrays and CSV encoded to it.
        for form in [
            WireVector::Text(Cow::Borrowed(packed.as_str())),
            WireVector::Items(small.clone()),
            WireVector::Text(Cow::Borrowed("0,1,9,35,63,10,36,62")),
        ] {
            let (old, new, old_wire, new_wire, _) =
                decoded(form.clone(), WireVector::Text(csv.as_str().into()));
            assert_eq!((old, old_wire), (small.clone(), packed.clone()));
            assert_eq!((new, new_wire), (big.clone(), csv.clone()));
        }
        // A borrowed `#` string stays borrowed: the request's bytes are
        // the wire.
        let (packed_pair, _, _) = PackedPredictions::decode(
            WireVector::Text(Cow::Borrowed(packed.as_str())),
            WireVector::Items(big.clone()),
        )
        .unwrap();
        assert!(matches!(packed_pair.old, Cow::Borrowed(_)));
        // Old's reason comes first, then new's.
        let bad = |text: &'static str| WireVector::Text(Cow::Borrowed(text));
        for (old, new, reason) in [
            (
                bad("#0!"),
                bad("#0?"),
                "old: invalid packed-vector character `!`",
            ),
            (bad("#0"), bad("1,x"), "new: invalid vector item `x`"),
            (WireVector::Invalid("why".into()), bad("#!"), "why"),
            (bad("#0"), WireVector::Invalid("missing".into()), "missing"),
        ] {
            assert_eq!(PackedPredictions::decode(old, new).unwrap_err(), reason);
        }
    }

    /// Random vectors: small (packed) or with an item past 63 (CSV).
    fn vector(seed: u64) -> Vec<u32> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let len = (next() % 300) as usize;
        let top = if next() % 4 == 0 { 100 } else { 64 };
        (0..len).map(|_| (next() % top) as u32).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The fused pass digests exactly what `fnv1a64` reads over the
        /// canonical wire pair, whatever form each vector came in.
        #[test]
        fn fused_digest_matches_fnv1a64(
            seeds in (0u64..u64::MAX, 0u64..u64::MAX),
            forms in (0u8..3, 0u8..3),
        ) {
            let (old, new) = (vector(seeds.0), vector(seeds.1));
            let form = |items: &[u32], form: u8| match form {
                0 => WireVector::Text(encode_u32_vec(items).into()),
                1 => WireVector::Items(items.to_vec()),
                _ => WireVector::Text(
                    items.iter().map(u32::to_string).collect::<Vec<_>>().join(",").into(),
                ),
            };
            let (old_items, new_items, old_wire, new_wire, digest) =
                decoded(form(&old, forms.0), form(&new, forms.1));
            proptest::prop_assert_eq!((&old_items, &new_items), (&old, &new));
            proptest::prop_assert_eq!(&old_wire, &encode_u32_vec(&old));
            proptest::prop_assert_eq!(&new_wire, &encode_u32_vec(&new));
            let reference = fnv1a64(&[old_wire.as_bytes(), b"|", new_wire.as_bytes()]);
            proptest::prop_assert_eq!(digest, reference);
            let submission = PredictionsSubmission { commit_id: "c".into(), old, new };
            proptest::prop_assert_eq!(submission.digest(), reference);
        }
    }
}
