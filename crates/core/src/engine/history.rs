//! Commit history: the engine's append-only log of evaluations.

use super::evaluator::CommitEstimates;
use crate::logic::Tribool;
use std::fmt;

/// One evaluated commit.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Commit identifier as supplied by the developer.
    pub commit_id: String,
    /// 1-based step within the testset era that evaluated it.
    pub step: u32,
    /// 0-based index of the testset era (increments on each fresh
    /// testset).
    pub era: u32,
    /// Measured statistics.
    pub estimates: CommitEstimates,
    /// Three-valued outcome.
    pub outcome: Tribool,
    /// Final pass/fail decision after mode collapse.
    pub passed: bool,
    /// Whether the commit was accepted into the repository (under
    /// `adaptivity: none` every commit is accepted regardless of
    /// `passed`).
    pub accepted: bool,
}

/// Append-only log of evaluated commits across testset eras.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommitHistory {
    entries: Vec<HistoryEntry>,
}

impl CommitHistory {
    /// New empty history.
    #[must_use]
    pub fn new() -> Self {
        CommitHistory::default()
    }

    /// Append an entry.
    pub fn push(&mut self, entry: HistoryEntry) {
        self.entries.push(entry);
    }

    /// Drop entries beyond `len` (no-op if the history is shorter); see
    /// [`crate::Gate::rollback`].
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// All entries in submission order.
    #[must_use]
    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    /// Number of evaluated commits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most recent entry, if any.
    #[must_use]
    pub fn last(&self) -> Option<&HistoryEntry> {
        self.entries.last()
    }

    /// The most recently *passed* commit, if any.
    #[must_use]
    pub fn last_passed(&self) -> Option<&HistoryEntry> {
        self.entries.iter().rev().find(|e| e.passed)
    }

    /// Number of commits that passed.
    #[must_use]
    pub fn passed_count(&self) -> usize {
        self.entries.iter().filter(|e| e.passed).count()
    }

    /// Total fresh labels requested across all evaluations.
    #[must_use]
    pub fn total_labels_requested(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.estimates.labels_requested)
            .sum()
    }
}

impl fmt::Display for CommitHistory {
    /// Render the history as a fixed-width table (one row per commit),
    /// similar to the commit strip of the paper's Figure 5.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>4} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
            "commit", "era", "step", "d", "n", "o", "n-o", "outcome", "pass"
        )?;
        for e in &self.entries {
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "-".to_owned(),
            };
            writeln!(
                f,
                "{:<16} {:>4} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
                e.commit_id,
                e.era,
                e.step,
                fmt_opt(e.estimates.d),
                fmt_opt(e.estimates.n),
                fmt_opt(e.estimates.o),
                fmt_opt(e.estimates.diff),
                e.outcome.to_string(),
                if e.passed { "PASS" } else { "FAIL" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, step: u32, passed: bool, labels: u64) -> HistoryEntry {
        HistoryEntry {
            commit_id: id.into(),
            step,
            era: 0,
            estimates: CommitEstimates {
                d: Some(0.05),
                n: None,
                o: None,
                diff: Some(0.01),
                labels_requested: labels,
            },
            outcome: if passed {
                Tribool::True
            } else {
                Tribool::Unknown
            },
            passed,
            accepted: passed,
        }
    }

    #[test]
    fn push_and_query() {
        let mut h = CommitHistory::new();
        assert!(h.is_empty());
        h.push(entry("c1", 1, false, 100));
        h.push(entry("c2", 2, true, 50));
        h.push(entry("c3", 3, false, 70));
        assert_eq!(h.len(), 3);
        assert_eq!(h.passed_count(), 1);
        assert_eq!(h.last().unwrap().commit_id, "c3");
        assert_eq!(h.last_passed().unwrap().commit_id, "c2");
        assert_eq!(h.total_labels_requested(), 220);
    }

    #[test]
    fn display_renders_table() {
        let mut h = CommitHistory::new();
        h.push(entry("deadbeef", 1, true, 10));
        let text = h.to_string();
        assert!(text.contains("deadbeef"));
        assert!(text.contains("PASS"));
        assert!(text.contains("0.0500"));
        // Unmeasured columns render as "-".
        assert!(text.contains(" - "));
    }
}
