//! The gate: the per-era decision state machine of §2–3, shared by
//! [`CiEngine`](super::CiEngine) and the serving layer's projects.
//!
//! Callers test a commit through [`Gate::step`], which refuses it unless
//! the era is open, runs the caller's measurement, and is then the one
//! place that collapses the outcome by mode, spends a step, decides what
//! the developer sees and what lands, and raises the new-testset alarm.
//! [`Gate::fresh_era`] is the one place an era starts.

use super::evaluator::CommitEstimates;
use super::history::{CommitHistory, HistoryEntry};
use super::CommitReceipt;
use crate::error::EngineError;
use crate::logic::{Mode, Tribool};
use crate::script::CiScript;
use easeml_bounds::Adaptivity;
use std::fmt;

/// Why the gate asked for a fresh testset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlarmReason {
    /// The pre-declared step budget `H` is used up.
    BudgetExhausted,
    /// Hybrid (`firstChange`) adaptivity: a commit passed, so the
    /// current testset must retire early (§3.4).
    PassedInHybrid,
}

impl fmt::Display for AlarmReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlarmReason::BudgetExhausted => write!(f, "step budget exhausted"),
            AlarmReason::PassedInHybrid => {
                write!(f, "a commit passed under firstChange adaptivity")
            }
        }
    }
}

/// The state [`Gate::rollback`] restores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSavepoint {
    steps_used: u32,
    era: u32,
    retired: bool,
    history_len: usize,
}

/// Step budget `H`, adaptivity policy, mode, steps spent in the current
/// testset era, era counter, retirement latch and commit history.
#[derive(Debug, Clone)]
pub struct Gate {
    steps: u32,
    adaptivity: Adaptivity,
    mode: Mode,
    steps_used: u32,
    era: u32,
    retired: bool,
    history: CommitHistory,
}

impl Gate {
    /// A gate at era 0 with the script's full step budget.
    #[must_use]
    pub fn new(script: &CiScript) -> Gate {
        Gate {
            steps: script.steps(),
            adaptivity: script.adaptivity(),
            mode: script.mode(),
            steps_used: 0,
            era: 0,
            retired: false,
            history: CommitHistory::new(),
        }
    }

    /// Whether the current era can still test a commit.
    fn ensure_open(&self) -> Result<(), EngineError> {
        if self.retired {
            return Err(EngineError::TestsetRetired);
        }
        if self.steps_used >= self.steps {
            return Err(EngineError::BudgetExhausted { steps: self.steps });
        }
        Ok(())
    }

    /// Test one commit: refuse it unless the era is open, then run
    /// `measure` for its three-valued outcome and estimates, collapse the
    /// outcome by mode, spend a step, latch the alarm when the era's
    /// statistical power is spent, and append the history entry. Under
    /// `adaptivity: none` every commit lands; otherwise only a pass does.
    ///
    /// # Errors
    ///
    /// [`EngineError::TestsetRetired`] once the alarm has fired,
    /// [`EngineError::BudgetExhausted`] once all `H` steps are spent
    /// (`measure` does not run then), or `measure`'s own error; nothing
    /// is recorded on any of them.
    pub fn step<E: From<EngineError>>(
        &mut self,
        commit_id: &str,
        measure: impl FnOnce() -> Result<(Tribool, CommitEstimates), E>,
    ) -> Result<CommitReceipt, E> {
        self.ensure_open()?;
        let (outcome, estimates) = measure()?;
        let passed = self.mode.decide(outcome);
        self.steps_used += 1;
        self.retired = self.alarm(passed, self.steps_used).is_some();
        self.history.push(HistoryEntry {
            commit_id: commit_id.to_owned(),
            step: self.steps_used,
            era: self.era,
            estimates,
            outcome,
            passed,
            accepted: passed || self.adaptivity == Adaptivity::None,
        });
        Ok(self.verdict_of(self.history.len() - 1))
    }

    /// The receipt [`Gate::step`] returned for history entry `index`
    /// (redelivery). Only the last entry of a retired era raised an
    /// alarm.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn verdict_of(&self, index: usize) -> CommitReceipt {
        let entry = &self.history.entries()[index];
        let raised = self.retired && entry.era == self.era && index + 1 == self.history.len();
        CommitReceipt {
            commit_id: entry.commit_id.clone(),
            step: entry.step,
            era: entry.era,
            signal: self.adaptivity.releases_signal().then_some(entry.passed),
            accepted: entry.accepted,
            outcome: entry.outcome,
            passed: entry.passed,
            estimates: entry.estimates,
            alarm: raised
                .then(|| self.alarm(entry.passed, entry.step))
                .flatten(),
            steps_remaining: self.steps - entry.step,
        }
    }

    /// A pass under `firstChange` retires the era early (§3.4); the
    /// `H`-th step spends the budget.
    fn alarm(&self, passed: bool, step: u32) -> Option<AlarmReason> {
        if self.adaptivity.retires_on_pass() && passed {
            Some(AlarmReason::PassedInHybrid)
        } else if step >= self.steps {
            Some(AlarmReason::BudgetExhausted)
        } else {
            None
        }
    }

    /// Index of the latest entry of the current era that `matches`
    /// accepts (redelivery lookup).
    pub fn find_in_era(
        &self,
        mut matches: impl FnMut(usize, &HistoryEntry) -> bool,
    ) -> Option<usize> {
        let entries = self.history.entries().iter().enumerate().rev();
        entries
            .take_while(|(_, e)| e.era == self.era)
            .find(|(i, e)| matches(*i, e))
            .map(|(i, _)| i)
    }

    /// Start a new testset era with a full step budget; returns its
    /// number.
    ///
    /// # Errors
    ///
    /// [`EngineError::EraOverflow`] when the era counter is at
    /// `u32::MAX`; nothing changes then.
    pub fn fresh_era(&mut self) -> Result<u32, EngineError> {
        self.era = self.era.checked_add(1).ok_or(EngineError::EraOverflow)?;
        self.steps_used = 0;
        self.retired = false;
        Ok(self.era)
    }

    /// Capture the state the next mutation may change.
    #[must_use]
    pub fn mark(&self) -> GateSavepoint {
        GateSavepoint {
            steps_used: self.steps_used,
            era: self.era,
            retired: self.retired,
            history_len: self.history.len(),
        }
    }

    /// Undo the mutation made since `mark` (one only: the history is
    /// truncated, never rebuilt).
    pub fn rollback(&mut self, mark: GateSavepoint) {
        self.steps_used = mark.steps_used;
        self.era = mark.era;
        self.retired = mark.retired;
        self.history.truncate(mark.history_len);
    }

    /// Replace the state with a recorded one (snapshot restore).
    ///
    /// # Errors
    ///
    /// What is wrong when `steps_used` exceeds `H`, an entry's step lies
    /// outside `1..=H`, or an entry's era is after `era`; the gate is
    /// left unchanged then.
    pub fn restore(
        &mut self,
        steps_used: u32,
        era: u32,
        retired: bool,
        history: CommitHistory,
    ) -> Result<(), String> {
        let h = self.steps;
        if steps_used > h {
            return Err(format!("steps_used {steps_used} exceeds H = {h}"));
        }
        for (i, e) in history.entries().iter().enumerate() {
            if !(1..=h).contains(&e.step) || e.era > era {
                return Err(format!(
                    "history[{i}]: step {} of era {} is outside steps 1..={h} of eras 0..={era}",
                    e.step, e.era
                ));
            }
        }
        self.steps_used = steps_used;
        self.era = era;
        self.retired = retired;
        self.history = history;
        Ok(())
    }

    /// Steps consumed in the current era.
    #[must_use]
    pub fn steps_used(&self) -> u32 {
        self.steps_used
    }

    /// Steps remaining before the budget alarm (0 when retired).
    #[must_use]
    pub fn steps_remaining(&self) -> u32 {
        if self.retired {
            0
        } else {
            self.steps - self.steps_used
        }
    }

    /// Current testset era (0-based).
    #[must_use]
    pub fn era(&self) -> u32 {
        self.era
    }

    /// Whether the current era is retired (alarm fired).
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// The evaluation history across all eras.
    #[must_use]
    pub fn history(&self) -> &CommitHistory {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(adaptivity: &str, mode: &str, steps: u32) -> Gate {
        let script = CiScript::parse(&format!(
            "ml:\n  - condition: n > 0.6 +/- 0.1\n  - reliability: 0.99\n  \
             - mode: {mode}\n  - adaptivity: {adaptivity}\n  - steps: {steps}\n"
        ))
        .unwrap();
        Gate::new(&script)
    }

    fn record(g: &mut Gate, id: &str, outcome: Tribool) -> Result<CommitReceipt, EngineError> {
        g.step(id, || Ok((outcome, CommitEstimates::default())))
    }

    #[test]
    fn alarm_reason_display() {
        assert!(AlarmReason::BudgetExhausted.to_string().contains("budget"));
        assert!(AlarmReason::PassedInHybrid
            .to_string()
            .contains("firstChange"));
    }

    #[test]
    fn verdict_of_reproduces_every_recorded_verdict() {
        let mut g = gate("firstChange", "fp-free", 3);
        let mut live = vec![record(&mut g, "a", Tribool::False).unwrap()];
        live.push(record(&mut g, "b", Tribool::True).unwrap());
        assert_eq!(g.fresh_era(), Ok(1));
        live.push(record(&mut g, "c", Tribool::Unknown).unwrap());
        live.push(record(&mut g, "d", Tribool::Unknown).unwrap());
        live.push(record(&mut g, "e", Tribool::Unknown).unwrap());
        assert_eq!(live[4].alarm, Some(AlarmReason::BudgetExhausted));
        assert_eq!(
            record(&mut g, "f", Tribool::True),
            Err(EngineError::TestsetRetired)
        );
        assert_eq!(g.history().len(), 5, "a refused commit records nothing");
        for (i, v) in live.iter().enumerate().skip(2) {
            assert_eq!(&g.verdict_of(i), v, "entry {i}");
        }
        // The hybrid alarm belonged to the previous era's final entry.
        assert_eq!(g.verdict_of(1).alarm, None);
        assert_eq!(g.find_in_era(|_, e| e.commit_id == "c"), Some(2));
        assert_eq!(g.find_in_era(|_, e| e.commit_id == "a"), None);
    }

    #[test]
    fn fresh_era_refuses_to_wrap_the_counter() {
        let mut g = gate("full", "fp-free", 2);
        record(&mut g, "c", Tribool::True).unwrap();
        let history = g.history().clone();
        g.restore(1, u32::MAX, false, history).unwrap();
        assert_eq!(g.fresh_era(), Err(EngineError::EraOverflow));
        assert_eq!((g.era(), g.steps_used()), (u32::MAX, 1), "nothing changes");
    }

    #[test]
    fn restore_rejects_states_outside_the_budget() {
        let mut source = gate("full", "fp-free", 2);
        record(&mut source, "c", Tribool::True).unwrap();
        let history = source.history().clone();
        let mut g = gate("full", "fp-free", 2);
        assert!(g.restore(3, 0, false, history.clone()).is_err());
        let mut late = history.clone();
        late.truncate(0);
        late.push(HistoryEntry {
            era: 1,
            ..history.entries()[0].clone()
        });
        assert!(g.restore(1, 0, false, late).is_err());
        let mut zero = CommitHistory::new();
        zero.push(HistoryEntry {
            step: 0,
            ..history.entries()[0].clone()
        });
        assert!(g.restore(1, 0, false, zero).is_err());
        assert_eq!(g.history().len(), 0, "a rejected restore changes nothing");
        g.restore(1, 0, false, history).unwrap();
        assert_eq!((g.steps_used(), g.steps_remaining()), (1, 1));
    }
}
