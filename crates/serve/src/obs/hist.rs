//! Sharded, log-bucketed histograms with fixed deterministic bucket
//! edges.
//!
//! The time edges place ~2 buckets per octave from 1 µs to beyond 10 s
//! using exact integer mantissas — per octave `o` the edges are
//! `1000 << o` and `1414 << o` nanoseconds (1414 ≈ 1000·√2) — so the
//! bucket layout is bit-identical on every platform and every run, and
//! the exposition's `le` labels never drift. Recording is lock-free:
//! each histogram holds a small fixed set of shards, a thread picks its
//! shard by a cheap thread-local index, and a snapshot merges the
//! shards. Merging is a plain per-bucket sum, so a merged snapshot is
//! *exactly* what sequential recording of the same values would have
//! produced (property-tested in `tests/observability.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of shards per histogram (and per sharded counter). Eight
/// covers the serving core's thread count (event loop + pool workers)
/// without measurable contention; threads hash onto shards by a
/// process-wide thread index.
pub const SHARDS: usize = 8;

/// Octaves covered by the time edges: `1000 << 23` ns ≈ 8.4 s, and the
/// final `1414 << 23` ≈ 11.9 s edge caps the requested 10 s range.
const TIME_OCTAVES: u32 = 24;

/// The per-thread shard index: threads are numbered in creation order
/// and wrap onto [`SHARDS`].
pub(crate) fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    INDEX.with(|i| *i)
}

/// What a histogram's recorded values measure, which controls how the
/// exposition renders bucket edges and sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Durations in nanoseconds; rendered as seconds (`le="0.000001"`).
    Nanos,
    /// Dimensionless counts (batch sizes); rendered as plain integers.
    Count,
}

/// A bucket-edge layout shared by every histogram in a family.
#[derive(Debug, Clone)]
pub struct Edges {
    bounds: Arc<[u64]>,
    unit: Unit,
}

impl Edges {
    /// The fixed time layout: ~2 buckets/octave from 1 µs to ~11.9 s
    /// (48 finite edges plus the implicit overflow bucket). Edges are
    /// exact integers — `1000 << o` and `1414 << o` ns per octave `o` —
    /// so the layout is deterministic across platforms and runs.
    #[must_use]
    pub fn time() -> Edges {
        static CACHE: OnceLock<Arc<[u64]>> = OnceLock::new();
        let bounds = CACHE.get_or_init(|| {
            (0..TIME_OCTAVES)
                .flat_map(|o| [1000u64 << o, 1414u64 << o])
                .collect()
        });
        Edges {
            bounds: Arc::clone(bounds),
            unit: Unit::Nanos,
        }
    }

    /// Power-of-two count edges `1, 2, 4, …, 2^max_pow` (for batch-size
    /// distributions).
    #[must_use]
    pub fn pow2(max_pow: u32) -> Edges {
        Edges {
            bounds: (0..=max_pow).map(|p| 1u64 << p).collect(),
            unit: Unit::Count,
        }
    }

    /// The finite upper bounds, ascending.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The unit recorded values are in.
    #[must_use]
    pub fn unit(&self) -> Unit {
        self.unit
    }
}

/// One shard's buckets. The 64-byte alignment keeps the hot `sum` /
/// `count` pair of different shards off each other's cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Shard {
    /// Per-bucket (non-cumulative) counts; the last slot is the
    /// overflow bucket (`> last edge`).
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A sharded log-bucketed histogram. `record` is lock-free and
/// wait-free; `snapshot` merges the shards into exact totals.
#[derive(Debug)]
pub struct Histogram {
    edges: Edges,
    shards: Box<[Shard]>,
}

impl Histogram {
    /// An empty histogram over `edges`.
    #[must_use]
    pub fn new(edges: Edges) -> Histogram {
        let buckets = edges.bounds.len() + 1;
        let shards = (0..SHARDS)
            .map(|_| Shard {
                counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })
            .collect();
        Histogram { edges, shards }
    }

    /// Record one value (nanoseconds for [`Unit::Nanos`] layouts). A
    /// value lands in the first bucket whose edge is `>= value`; values
    /// beyond the last edge land in the overflow bucket.
    pub fn record(&self, value: u64) {
        let bucket = self.edges.bounds.partition_point(|&e| e < value);
        let shard = &self.shards[shard_index()];
        shard.counts[bucket].fetch_add(1, Ordering::SeqCst);
        shard.sum.fetch_add(value, Ordering::SeqCst);
        shard.count.fetch_add(1, Ordering::SeqCst);
    }

    /// The bucket layout.
    #[must_use]
    pub fn edges(&self) -> &Edges {
        &self.edges
    }

    /// Merge every shard into exact totals.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.edges.bounds.len() + 1;
        let mut counts = vec![0u64; buckets];
        let mut sum = 0u64;
        let mut count = 0u64;
        for shard in &self.shards {
            for (total, cell) in counts.iter_mut().zip(shard.counts.iter()) {
                *total += cell.load(Ordering::SeqCst);
            }
            sum = sum.saturating_add(shard.sum.load(Ordering::SeqCst));
            count += shard.count.load(Ordering::SeqCst);
        }
        HistogramSnapshot {
            edges: Arc::clone(&self.edges.bounds),
            unit: self.edges.unit,
            counts,
            sum,
            count,
        }
    }
}

/// A merged, point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket edges, ascending.
    pub edges: Arc<[u64]>,
    /// The unit recorded values were in.
    pub unit: Unit,
    /// Per-bucket (non-cumulative) counts; one extra overflow slot.
    pub counts: Vec<u64>,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket holding the target rank. Returns `None` for an
    /// empty histogram. The overflow bucket clamps to the last edge.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n;
            if (next as f64) >= rank {
                let Some(&upper) = self.edges.get(i) else {
                    // Overflow bucket: no finite upper edge to
                    // interpolate toward; clamp to the last edge.
                    return Some(*self.edges.last().expect("non-empty edges") as f64);
                };
                let lower = if i == 0 { 0 } else { self.edges[i - 1] };
                let into = (rank - seen as f64) / n as f64;
                return Some(lower as f64 + (upper - lower) as f64 * into);
            }
            seen = next;
        }
        Some(*self.edges.last().expect("non-empty edges") as f64)
    }
}

/// Format a nanosecond edge as an exact decimal in seconds
/// (`1414 → "0.000001414"`), the form the exposition's `le` labels use.
#[must_use]
pub fn fmt_seconds(ns: u64) -> String {
    let secs = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    if frac == 0 {
        format!("{secs}")
    } else {
        let mut digits = format!("{frac:09}");
        while digits.ends_with('0') {
            digits.pop();
        }
        format!("{secs}.{digits}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_edges_are_the_documented_integer_ladder() {
        let edges = Edges::time();
        let bounds = edges.bounds();
        assert_eq!(bounds.len(), 48, "2 buckets/octave over 24 octaves");
        assert_eq!(&bounds[..6], &[1000, 1414, 2000, 2828, 4000, 5656]);
        assert_eq!(*bounds.last().unwrap(), 1414u64 << 23);
        assert!(*bounds.last().unwrap() >= 10_000_000_000, ">= 10 s");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        // Deterministic: a second construction is bit-identical.
        assert_eq!(bounds, Edges::time().bounds());
    }

    #[test]
    fn values_land_in_the_first_bucket_with_edge_at_least_value() {
        let hist = Histogram::new(Edges::time());
        for value in [0, 1, 999, 1000, 1001, 1414, 1415, 5656, 1414u64 << 23] {
            let snap_before = hist.snapshot();
            hist.record(value);
            let snap = hist.snapshot();
            let bucket = (0..snap.counts.len())
                .find(|&i| snap.counts[i] != snap_before.counts[i])
                .expect("one bucket incremented");
            if bucket > 0 {
                assert!(snap.edges[bucket - 1] < value, "{value}");
            }
            if bucket < snap.edges.len() {
                assert!(value <= snap.edges[bucket], "{value}");
            }
        }
        // Beyond the last edge: overflow bucket.
        hist.record(u64::MAX);
        let snap = hist.snapshot();
        assert_eq!(snap.counts[snap.edges.len()], 1);
    }

    #[test]
    fn snapshot_totals_are_exact() {
        let hist = Histogram::new(Edges::pow2(4));
        for v in [1u64, 2, 3, 8, 16, 17, 40] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 87);
        assert_eq!(snap.counts.iter().sum::<u64>(), 7);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let hist = Histogram::new(Edges::pow2(3)); // edges 1,2,4,8
        assert_eq!(hist.snapshot().quantile(0.5), None);
        for v in [1u64, 2, 2, 4] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "{p50}");
        let p100 = snap.quantile(1.0).unwrap();
        assert!(p100 <= 4.0, "{p100}");
        hist.record(u64::MAX);
        assert_eq!(hist.snapshot().quantile(1.0), Some(8.0), "overflow clamps");
    }

    #[test]
    fn fmt_seconds_is_exact_decimal() {
        assert_eq!(fmt_seconds(1000), "0.000001");
        assert_eq!(fmt_seconds(1414), "0.000001414");
        assert_eq!(fmt_seconds(1_000_000_000), "1");
        assert_eq!(fmt_seconds(8_388_608_000), "8.388608");
        assert_eq!(fmt_seconds(1414u64 << 23), "11.861491712");
    }
}
