//! Cross-layer caches for the estimator's expensive answers.
//!
//! The §4.3 exact-binomial inversion is orders of magnitude more costly
//! than the closed-form bounds, and real CI traffic re-asks the same
//! question constantly: every commit against a given script re-derives
//! the same `(ε, δ, tail)` inversion, multi-clause scripts repeat leaves,
//! and a busy server hosts many repositories with near-identical
//! reliability settings. [`BoundsCache`] memoizes those inversions with
//! a process-wide instance ([`BoundsCache::global`]) threaded through
//! the sample-size estimator ([`crate::SampleSizeEstimator`]), the
//! clause/formula recursion ([`crate::estimator::formula_sample_size`]),
//! and — via the estimator — the engine ([`crate::CiEngine`]).
//!
//! `BoundsCache` memoizes *leaf* inversions, but a full estimator query
//! also runs the §4 pattern plan search (Bennett inversions, the Pattern
//! 3 coarse-tolerance scan, budget accounting) that the leaf cache does
//! not cover. [`PlanCache`] memoizes the *entire*
//! [`crate::SampleSizeEstimate`], keyed by a canonicalized script
//! fingerprint ([`crate::estimator::plan_fingerprint`]: formula
//! structure, δ, steps, adaptivity, mode, and every estimator knob), so
//! re-registering a known script costs a map lookup, the same as a warm
//! commit.
//!
//! Both are the one generic [`Cache`]: a single `RwLock`ed map, hit/miss
//! counters, and an entry cap that clears the map when full. The caches
//! live in memory only; a fresh process starts cold and re-derives what
//! it needs.
//!
//! # Key quantization
//!
//! [`BoundsKey`] quantizes the floating-point inputs by zeroing the
//! bottom 8 mantissa bits (a relative grain of 2⁻⁴⁴ ≈ 6·10⁻¹⁴). Inputs
//! that differ by less than the grain share an entry; such perturbations
//! are far below the precision at which the inverted bounds themselves
//! are meaningful, and the quantization makes hit rates robust to benign
//! last-ulp differences in how callers derive `ln δ` (e.g. `ln(δ/k)` vs
//! `ln δ − ln k`).

use crate::estimator::SampleSizeEstimate;
use easeml_bounds::Tail;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Whether an estimator consults the shared caches — both the
/// leaf-level [`BoundsCache`] and the whole-result [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// Use [`BoundsCache::global`] and [`PlanCache::global`] (the
    /// default).
    #[default]
    Shared,
    /// Recompute everything at every layer; used by tests and ablation
    /// benches.
    Bypass,
}

/// Point-in-time cache counters (see [`Cache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// Thread-safe memo with hit/miss counters and an entry cap.
///
/// Reads take the shared lock; a miss computes *outside* the lock (so a
/// slow computation never blocks readers) and then races benignly to
/// insert — both contenders compute identical values. A store into a
/// full map clears it first: the key space is user-controlled on a
/// serving path, so the process-wide instances must not grow without
/// bound, and dropping everything is always correct for a cache.
#[derive(Debug)]
pub struct Cache<K, V> {
    map: RwLock<HashMap<K, V>>,
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> Cache<K, V> {
    /// An empty cache that holds at most `max_entries` entries.
    fn with_max_entries(max_entries: usize) -> Self {
        Cache {
            map: RwLock::default(),
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cached value for `key`, if present. Counts toward the hit/miss
    /// statistics.
    pub fn lookup(&self, key: &K) -> Option<V> {
        let found = self.map.read().expect("cache poisoned").get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store a computed value (see [`Cache::lookup`]).
    pub fn store(&self, key: K, value: V) {
        let mut map = self.map.write().expect("cache poisoned");
        if map.len() >= self.max_entries {
            map.clear();
        }
        map.insert(key, value);
    }

    /// Look up `key`, computing and storing its value on a miss.
    ///
    /// Only successful computations are cached; errors always propagate
    /// and are re-derived on the next call.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(value) = self.lookup(&key) {
            return Ok(value);
        }
        let value = compute()?;
        self.store(key, value.clone());
        Ok(value)
    }

    /// Current hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("cache poisoned").len(),
        }
    }

    /// Drop all entries (counters are kept; mainly for tests).
    pub fn clear(&self) {
        self.map.write().expect("cache poisoned").clear();
    }
}

/// Zero the bottom 8 mantissa bits: the quantization grain of
/// [`BoundsKey`].
fn quantize(x: f64) -> u64 {
    x.to_bits() & !0xFF
}

/// Key of one exact-binomial inversion: the tail and the quantized
/// `(ε, ln δ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundsKey {
    tail: Tail,
    eps: u64,
    ln_delta: u64,
}

impl BoundsKey {
    /// The key of [`easeml_bounds::exact_binomial_sample_size`] at
    /// `(eps, ln_delta.exp(), tail)`.
    #[must_use]
    pub fn new(tail: Tail, eps: f64, ln_delta: f64) -> Self {
        BoundsKey {
            tail,
            eps: quantize(eps),
            ln_delta: quantize(ln_delta),
        }
    }
}

/// Memo of exact-binomial inversions keyed by [`BoundsKey`].
pub type BoundsCache = Cache<BoundsKey, u64>;

impl BoundsCache {
    /// Upper bound on stored entries. A full sweep of 2¹⁶ distinct
    /// inversions re-warms in well under a minute.
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// A fresh, empty cache (useful for isolation in tests; production
    /// code shares [`BoundsCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        Cache::with_max_entries(Self::MAX_ENTRIES)
    }

    /// The process-wide shared instance.
    pub fn global() -> &'static BoundsCache {
        static GLOBAL: OnceLock<BoundsCache> = OnceLock::new();
        GLOBAL.get_or_init(BoundsCache::new)
    }
}

impl Default for BoundsCache {
    fn default() -> Self {
        BoundsCache::new()
    }
}

/// 128-bit FNV-1a, the fingerprint hash of the plan cache. 64 bits would
/// make accidental collisions plausible over a long-lived server's key
/// stream; at 128 bits a collision (which would silently serve a wrong
/// plan) is out of reach.
fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
}

/// Canonicalized identity of one plan-search query: the 128-bit FNV-1a
/// fingerprint of the canonical description string built by
/// [`crate::estimator::plan_fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint(u128);

impl PlanFingerprint {
    /// Fingerprint of a canonical description string.
    #[must_use]
    pub fn of(canonical: &str) -> PlanFingerprint {
        PlanFingerprint(fnv1a128(canonical.as_bytes()))
    }
}

/// Memo of whole plan-search results keyed by [`PlanFingerprint`].
/// Values are full estimates — provenance and per-clause breakdown
/// included — so a cache hit is indistinguishable from a recomputation.
pub type PlanCache = Cache<PlanFingerprint, SampleSizeEstimate>;

impl PlanCache {
    /// Upper bound on stored entries. Plans are a few hundred bytes each
    /// (an order of magnitude heavier than a bounds entry), and distinct
    /// *scripts* arrive far more slowly than distinct `(ε, δ)` leaves, so
    /// the cap is correspondingly smaller: 2¹² plans ≈ a few MB worst
    /// case.
    pub const MAX_ENTRIES: usize = 1 << 12;

    /// A fresh, empty cache (tests; production shares
    /// [`PlanCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        Cache::with_max_entries(Self::MAX_ENTRIES)
    }

    /// The process-wide shared instance.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_bounds::BoundsError;

    fn key(tail: Tail, eps: f64, ln_delta: f64) -> BoundsKey {
        BoundsKey::new(tail, eps, ln_delta)
    }

    #[test]
    fn miss_then_hit() {
        let cache = BoundsCache::new();
        let mut computed = 0u32;
        for _ in 0..3 {
            let n = cache
                .get_or_try_insert_with(key(Tail::TwoSided, 0.05, (0.001f64).ln()), || {
                    computed += 1;
                    Ok::<_, BoundsError>(2_500)
                })
                .unwrap();
            assert_eq!(n, 2_500);
        }
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = BoundsCache::new();
        let err = cache.get_or_try_insert_with(key(Tail::TwoSided, 0.05, -3.0), || {
            Err(BoundsError::ZeroSampleSize)
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        // The next call recomputes and may succeed.
        let ok = cache
            .get_or_try_insert_with(key(Tail::TwoSided, 0.05, -3.0), || Ok::<_, BoundsError>(7));
        assert_eq!(ok.unwrap(), 7);
    }

    #[test]
    fn quantization_merges_last_ulp_noise_but_separates_real_inputs() {
        let cache = BoundsCache::new();
        let base = 0.05f64;
        let wiggled = f64::from_bits(base.to_bits() + 3); // ~1e-18 apart
        let fill = |tail, eps, n: u64| {
            cache
                .get_or_try_insert_with(key(tail, eps, -5.0), || Ok::<_, BoundsError>(n))
                .unwrap()
        };
        fill(Tail::TwoSided, base, 1);
        let hit = fill(Tail::TwoSided, wiggled, 2);
        assert_eq!(hit, 1, "sub-grain wiggle must share the entry");
        let other = fill(Tail::TwoSided, 0.06, 3);
        assert_eq!(other, 3, "distinct eps must get its own entry");
        // Distinct tails are distinct keys.
        let one_sided = fill(Tail::OneSided, base, 4);
        assert_eq!(one_sided, 4);
    }

    #[test]
    fn entry_count_is_bounded() {
        let cache = BoundsCache::new();
        let base = 0.05f64.to_bits();
        // One more distinct quantized key than the cap: the overflowing
        // insert must clear the map instead of growing past MAX_ENTRIES.
        for i in 0..=BoundsCache::MAX_ENTRIES as u64 {
            let eps = f64::from_bits(base + (i << 8));
            cache.store(key(Tail::TwoSided, eps, -5.0), i);
        }
        let entries = cache.stats().entries;
        assert!(
            (1..=BoundsCache::MAX_ENTRIES).contains(&entries),
            "entries = {entries}"
        );
    }

    #[test]
    fn lookup_store_roundtrip() {
        let cache = BoundsCache::new();
        let k = key(Tail::TwoSided, 0.05, -7.0);
        assert_eq!(cache.lookup(&k), None);
        cache.store(k, 123);
        assert_eq!(cache.lookup(&k), Some(123));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    use crate::estimator::{
        ActiveLabelingSchedule, EstimateProvenance, HierarchicalPlan, OptimizedPlan, PhaseEstimate,
    };

    fn baseline_estimate(labeled: u64) -> SampleSizeEstimate {
        SampleSizeEstimate {
            labeled_samples: labeled,
            unlabeled_samples: 0,
            ln_delta_per_test: -9.21,
            provenance: EstimateProvenance::Baseline,
            per_clause: Vec::new(),
        }
    }

    fn optimized_estimate() -> SampleSizeEstimate {
        let phase = |samples: u64, eps: f64| PhaseEstimate {
            samples,
            needs_labels: samples.is_multiple_of(2),
            epsilon: eps,
            ln_delta: -12.5,
        };
        SampleSizeEstimate {
            labeled_samples: 29_048,
            unlabeled_samples: 2_302,
            ln_delta_per_test: -13.8,
            provenance: EstimateProvenance::Optimized(OptimizedPlan::Hierarchical(
                HierarchicalPlan {
                    filter: phase(2_302, 0.01),
                    test: phase(29_048, 0.01),
                    variance_bound: 0.1,
                    active: ActiveLabelingSchedule {
                        pool_size: 29_048,
                        labels_per_commit: 2_188,
                        worst_case_total_labels: 92_960,
                    },
                },
            )),
            per_clause: Vec::new(),
        }
    }

    #[test]
    fn plan_cache_miss_then_hit_returns_identical_estimate() {
        let cache = PlanCache::new();
        let fp = PlanFingerprint::of("formula=n > 0.8 +/- 0.05;delta=…");
        assert_eq!(cache.lookup(&fp), None);
        let est = optimized_estimate();
        cache.store(fp, est.clone());
        assert_eq!(cache.lookup(&fp), Some(est));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A different canonical string is a different key.
        assert_eq!(cache.lookup(&PlanFingerprint::of("other")), None);
    }

    #[test]
    fn plan_cache_entry_count_is_bounded() {
        let cache = PlanCache::new();
        for i in 0..=PlanCache::MAX_ENTRIES as u64 {
            cache.store(
                PlanFingerprint::of(&format!("key-{i}")),
                baseline_estimate(i),
            );
        }
        let entries = cache.stats().entries;
        assert!(
            (1..=PlanCache::MAX_ENTRIES).contains(&entries),
            "entries = {entries}"
        );
    }

    #[test]
    fn cache_is_send_sync_and_concurrent() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BoundsCache>();
        assert_send_sync::<PlanCache>();
        let cache = std::sync::Arc::new(BoundsCache::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let eps = 0.01 + ((t * 7 + i) % 5) as f64 * 0.01;
                        let n = cache
                            .get_or_try_insert_with(key(Tail::TwoSided, eps, -6.0), || {
                                Ok::<_, BoundsError>((eps * 1e6) as u64)
                            })
                            .unwrap();
                        assert_eq!(n, (eps * 1e6) as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 5);
    }
}
