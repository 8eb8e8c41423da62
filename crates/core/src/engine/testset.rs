//! Testset management: partially labelled example pools and the
//! labelling oracle abstraction.
//!
//! ease.ml/ci asks the user for a *pool of unlabeled data points* up
//! front and requests labels lazily (§4.1.2), so the testset tracks, per
//! item, whether its ground-truth label is known yet. Class labels are
//! `u32` indices; predictions are compared by equality only.
//!
//! A rolled-back commit hands its freshly pulled labels back through
//! [`Testset::unset_label`], so the pool never needs copying to be
//! restored.

use crate::error::{EngineError, Result};

/// A pool of test examples with (possibly partial) ground-truth labels.
///
/// Labels live in a plain `u32` vector beside a bit-packed known mask
/// (bit `i % 64` of word `i / 64` is set iff item `i`'s label is known),
/// which [`Testset::set_label`] and [`Testset::unset_label`] keep up to
/// date, so the measurement pass reads both as they are. Unknown items
/// hold label 0, so equal pools compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Testset {
    labels: Vec<u32>,
    known_mask: Vec<u64>,
    known: usize,
}

impl Testset {
    /// A testset whose every item is already labelled.
    #[must_use]
    pub fn fully_labeled(labels: Vec<u32>) -> Self {
        let known = labels.len();
        let mut known_mask = vec![!0u64; known.div_ceil(64)];
        if let Some(last) = known_mask.last_mut() {
            if !known.is_multiple_of(64) {
                *last = (1u64 << (known % 64)) - 1;
            }
        }
        Testset {
            labels,
            known_mask,
            known,
        }
    }

    /// A pool of `size` items with no labels yet (labels arrive through a
    /// [`LabelOracle`]).
    #[must_use]
    pub fn unlabeled(size: usize) -> Self {
        Testset {
            labels: vec![0; size],
            known_mask: vec![0; size.div_ceil(64)],
            known: 0,
        }
    }

    /// A pool with the given partial labelling.
    #[must_use]
    pub fn with_partial_labels(labels: Vec<Option<u32>>) -> Self {
        let mut pool = Testset::unlabeled(labels.len());
        for (i, label) in labels.into_iter().enumerate() {
            if let Some(label) = label {
                pool.set_label(i, label);
            }
        }
        pool
    }

    /// Number of items in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of items whose label is known.
    #[must_use]
    pub fn labeled_count(&self) -> usize {
        self.known
    }

    /// Whether item `index`'s label is known.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub(crate) fn is_known(&self, index: usize) -> bool {
        assert!(index < self.labels.len(), "index {index} out of bounds");
        (self.known_mask[index / 64] >> (index % 64)) & 1 == 1
    }

    /// The label of item `index`, if known.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn label(&self, index: usize) -> Option<u32> {
        self.is_known(index).then(|| self.labels[index])
    }

    /// Record a label for item `index`. Returns whether the label was new.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_label(&mut self, index: usize, label: u32) -> bool {
        let fresh = !self.is_known(index);
        if fresh {
            self.known += 1;
            self.known_mask[index / 64] |= 1u64 << (index % 64);
        }
        self.labels[index] = label;
        fresh
    }

    /// Forget the label of item `index` (rolling back a label pulled by a
    /// measurement whose commit did not land). Returns whether a label
    /// was known.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn unset_label(&mut self, index: usize) -> bool {
        let was_known = self.is_known(index);
        if was_known {
            self.known -= 1;
            self.known_mask[index / 64] &= !(1u64 << (index % 64));
        }
        self.labels[index] = 0;
        was_known
    }

    /// Every item's label slot (0 where the label is unknown); a fully
    /// labelled pool's slots are its ground truth.
    #[must_use]
    pub fn label_slots(&self) -> &[u32] {
        &self.labels
    }

    /// The known mask: bit `i % 64` of word `i / 64` is set iff item
    /// `i`'s label is known; bits past the pool stay clear.
    #[must_use]
    pub(crate) fn known_mask(&self) -> &[u64] {
        &self.known_mask
    }

    /// Ensure item `index` is labelled, pulling from `oracle` when
    /// missing. Returns the label and whether a fresh oracle call was
    /// made.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::LabelUnavailable`] when the label is
    /// missing and no oracle (or an exhausted oracle) is available.
    pub fn require_label(
        &mut self,
        index: usize,
        oracle: Option<&mut (dyn LabelOracle + 'static)>,
    ) -> Result<(u32, bool)> {
        if let Some(label) = self.label(index) {
            return Ok((label, false));
        }
        match oracle {
            Some(oracle) => match oracle.label(index) {
                Some(label) => {
                    self.set_label(index, label);
                    Ok((label, true))
                }
                None => Err(EngineError::LabelUnavailable { index }.into()),
            },
            None => Err(EngineError::LabelUnavailable { index }.into()),
        }
    }
}

/// A source of ground-truth labels, queried lazily by the engine.
///
/// Implementations typically wrap a human labelling team (in production)
/// or a held-out ground-truth vector with a cost ledger (in simulation —
/// see `easeml-sim`).
pub trait LabelOracle {
    /// Produce the label for testset item `index`, or `None` if the
    /// oracle cannot label it (treated as an engine error).
    fn label(&mut self, index: usize) -> Option<u32>;

    /// Total labels served so far (for cost accounting). Default: not
    /// tracked.
    fn labels_served(&self) -> u64 {
        0
    }
}

/// Trivial oracle backed by a complete ground-truth vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecOracle {
    truth: Vec<u32>,
    served: u64,
}

impl VecOracle {
    /// Create an oracle from the full ground truth.
    #[must_use]
    pub fn new(truth: Vec<u32>) -> Self {
        VecOracle { truth, served: 0 }
    }

    /// The full ground-truth vector backing this oracle (used by holders
    /// that must persist or re-verify the truth, e.g. the serving
    /// layer's durable testset blobs).
    #[must_use]
    pub fn truth(&self) -> &[u32] {
        &self.truth
    }
}

impl LabelOracle for VecOracle {
    fn label(&mut self, index: usize) -> Option<u32> {
        let label = self.truth.get(index).copied();
        if label.is_some() {
            self.served += 1;
        }
        label
    }

    fn labels_served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_labeled_pool() {
        let t = Testset::fully_labeled(vec![0, 1, 2, 1]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.labeled_count(), 4);
        assert_eq!(t.label(2), Some(2));
        assert!(!t.is_empty());
    }

    #[test]
    fn unlabeled_pool_fills_lazily() {
        let mut t = Testset::unlabeled(3);
        assert_eq!(t.labeled_count(), 0);
        assert!(t.set_label(1, 7));
        assert!(!t.set_label(1, 7)); // relabel is not fresh
        assert_eq!(t.labeled_count(), 1);
        assert_eq!(t.label(1), Some(7));
        assert_eq!(t.label(0), None);
    }

    #[test]
    fn require_label_uses_oracle_once() {
        let mut t = Testset::unlabeled(3);
        let mut oracle = VecOracle::new(vec![5, 6, 7]);
        let (label, fresh) = t.require_label(2, Some(&mut oracle)).unwrap();
        assert_eq!((label, fresh), (7, true));
        assert_eq!(oracle.labels_served(), 1);
        // Second query hits the cache.
        let (label, fresh) = t.require_label(2, Some(&mut oracle)).unwrap();
        assert_eq!((label, fresh), (7, false));
        assert_eq!(oracle.labels_served(), 1);
    }

    #[test]
    fn require_label_without_oracle_fails() {
        let mut t = Testset::unlabeled(2);
        let err = t.require_label(0, None).unwrap_err();
        assert!(err.to_string().contains("no label available"));
    }

    #[test]
    fn oracle_out_of_range() {
        let mut t = Testset::unlabeled(5);
        let mut oracle = VecOracle::new(vec![1, 2]);
        assert!(t.require_label(4, Some(&mut oracle)).is_err());
    }

    #[test]
    fn partial_labels_counted() {
        let t = Testset::with_partial_labels(vec![Some(1), None, Some(0)]);
        assert_eq!(t.labeled_count(), 2);
    }

    #[test]
    fn known_mask_tracks_set_and_unset() {
        let mut t = Testset::unlabeled(70);
        assert!(t.set_label(3, 9));
        assert!(t.set_label(69, 1));
        assert_eq!(t.known_mask(), &[1u64 << 3, 1u64 << 5]);
        assert!(t.unset_label(69));
        assert!(!t.unset_label(69), "already unknown");
        assert_eq!((t.labeled_count(), t.label(69)), (1, None));
        assert_eq!(t.known_mask(), &[1u64 << 3, 0]);
        // Unsetting restores the exact pool state, label slot included.
        assert!(t.unset_label(3));
        assert_eq!(t, Testset::unlabeled(70));
        // A full pool's mask has no bits past its end.
        assert_eq!(
            Testset::fully_labeled(vec![0; 65]).known_mask(),
            &[!0u64, 1]
        );
        assert_eq!(
            Testset::with_partial_labels(vec![Some(2); 65]),
            Testset::fully_labeled(vec![2; 65])
        );
    }
}
