//! Cross-layer cache for expensive bound inversions.
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
//! # Sharding
//!
//! The map is split into [`BoundsCache::SHARDS`] independently locked
//! shards selected by the key's hash, so the parallel batch-inversion
//! path ([`crate::SampleSizeEstimator::exact_sample_size_grid`]) and
//! concurrent serving threads don't serialize on one `RwLock`. The
//! global entry budget stays [`BoundsCache::MAX_ENTRIES`], enforced
//! per-shard (each shard clears itself at `MAX_ENTRIES / SHARDS`
//! entries, so the total can never exceed the global cap).
//!
//! # Key quantization
//!
//! Keys quantize the floating-point inputs by zeroing the bottom 8
//! mantissa bits (a relative grain of 2⁻⁴⁴ ≈ 6·10⁻¹⁴). Inputs that
//! differ by less than the grain share an entry; such perturbations are
//! far below the precision at which the inverted bounds themselves are
//! meaningful, and the quantization makes hit rates robust to benign
//! last-ulp differences in how callers derive `ln δ` (e.g.
//! `ln(δ/k)` vs `ln δ − ln k`).
//!
//! # The plan-level cache
//!
//! `BoundsCache` memoizes *leaf* inversions, but a full estimator query
//! also runs the §4 pattern plan search (Bennett inversions, the Pattern
//! 3 coarse-tolerance scan, budget accounting) that the leaf cache does
//! not cover — measured at ~35 ms per fresh `easeml-serve` registration.
//! [`PlanCache`] memoizes the *entire* [`crate::SampleSizeEstimate`],
//! keyed by a canonicalized script fingerprint
//! ([`crate::estimator::plan_fingerprint`]: formula structure, δ, steps,
//! adaptivity, mode, and every estimator knob), with the same 16-way
//! sharding, global entry cap, and versioned/checksummed persistence
//! format as `BoundsCache` — so re-registering a known script costs a
//! map lookup, the same as a warm commit.

use crate::estimator::SampleSizeEstimate;
use easeml_bounds::{BoundsError, Tail};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Which inversion an entry caches (part of the key, so differently
/// shaped bounds never collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// [`easeml_bounds::exact_binomial_sample_size`].
    ExactBinomialSampleSize,
}

impl BoundKind {
    /// Stable single-byte wire code (on-disk contract: never renumber).
    fn code(self) -> u8 {
        match self {
            BoundKind::ExactBinomialSampleSize => 0,
        }
    }

    fn from_code(code: u8) -> Option<BoundKind> {
        match code {
            0 => Some(BoundKind::ExactBinomialSampleSize),
            _ => None,
        }
    }
}

/// Why a persisted cache file was rejected by [`BoundsCache::load_from`]
/// or [`PlanCache::load_from`]. The message does not name the cache; the
/// caller knows which dump it was reading.
#[derive(Debug)]
pub enum CachePersistError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is not a well-formed cache dump: wrong magic/version,
    /// malformed entry, count mismatch, or checksum failure. Nothing is
    /// loaded from a corrupt file.
    Corrupt {
        /// 1-based line where the corruption was detected.
        line: usize,
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for CachePersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CachePersistError::Io(e) => write!(f, "cache I/O error: {e}"),
            CachePersistError::Corrupt { line, reason } => {
                write!(f, "cache file corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CachePersistError {}

impl From<std::io::Error> for CachePersistError {
    fn from(e: std::io::Error) -> Self {
        CachePersistError::Io(e)
    }
}

/// Magic + version line of the on-disk format (see [`BoundsCache::save_to`]).
const PERSIST_MAGIC: &str = "easeml-bounds-cache v1";

/// FNV-1a over the entry block, the integrity check of the on-disk format.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

/// Zero the bottom 8 mantissa bits: the cache's quantization grain.
fn quantize(x: f64) -> u64 {
    x.to_bits() & !0xFF
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: BoundKind,
    tail: Tail,
    eps: u64,
    ln_delta: u64,
}

impl Key {
    fn new(kind: BoundKind, tail: Tail, eps: f64, ln_delta: f64) -> Self {
        Key {
            kind,
            tail,
            eps: quantize(eps),
            ln_delta: quantize(ln_delta),
        }
    }

    /// Shard index: high bits of the sip-hashed key (the low bits pick
    /// the bucket inside the shard's map, so reusing them would skew the
    /// shard distribution).
    fn shard(&self) -> usize {
        let mut hasher = std::hash::DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() >> 32) as usize % BoundsCache::SHARDS
    }
}

/// Point-in-time cache counters (see [`BoundsCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored (summed over shards).
    pub entries: usize,
}

/// Thread-safe, sharded memo of bound inversions keyed by quantized
/// `(kind, tail, ε, ln δ)`.
///
/// Reads take one shard's shared lock; a miss computes *outside* any
/// lock (so a slow inversion never blocks readers) and then races
/// benignly to insert — both contenders compute identical values.
#[derive(Debug)]
pub struct BoundsCache {
    shards: Vec<RwLock<HashMap<Key, u64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BoundsCache {
    fn default() -> Self {
        BoundsCache {
            shards: (0..Self::SHARDS).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl BoundsCache {
    /// Number of independently locked shards. A power of two comfortably
    /// above the worker counts the workspace runs, so parallel batch
    /// inversion almost never contends on a shard lock.
    pub const SHARDS: usize = 16;

    /// Upper bound on stored entries across all shards.
    ///
    /// The key space is user-controlled on a serving path (every distinct
    /// script tolerance/reliability is a fresh `(ε, ln δ)` pair), so the
    /// process-wide instance must not grow without bound. Each shard
    /// drops its map at `MAX_ENTRIES / SHARDS` entries — always correct
    /// for a cache, and a full sweep of 2¹⁶ distinct inversions re-warms
    /// in well under a minute.
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// A fresh, empty cache (useful for isolation in tests; production
    /// code shares [`BoundsCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        BoundsCache::default()
    }

    /// The process-wide shared instance.
    pub fn global() -> &'static BoundsCache {
        static GLOBAL: OnceLock<BoundsCache> = OnceLock::new();
        GLOBAL.get_or_init(BoundsCache::new)
    }

    /// Cached inversion for `(kind, tail, eps, ln_delta)`, if present.
    /// Counts toward the hit/miss statistics.
    pub fn lookup(&self, kind: BoundKind, tail: Tail, eps: f64, ln_delta: f64) -> Option<u64> {
        let key = Key::new(kind, tail, eps, ln_delta);
        let found = self.shards[key.shard()]
            .read()
            .expect("bounds cache poisoned")
            .get(&key)
            .copied();
        match found {
            Some(n) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(n)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a computed inversion (see [`BoundsCache::lookup`]).
    pub fn store(&self, kind: BoundKind, tail: Tail, eps: f64, ln_delta: f64, n: u64) {
        let key = Key::new(kind, tail, eps, ln_delta);
        let mut shard = self.shards[key.shard()]
            .write()
            .expect("bounds cache poisoned");
        if shard.len() >= Self::MAX_ENTRIES / Self::SHARDS {
            shard.clear();
        }
        shard.insert(key, n);
    }

    /// Look up the `(kind, tail, eps, ln_delta)` inversion, computing and
    /// storing it on a miss.
    ///
    /// Only successful computations are cached; errors always propagate
    /// and are re-derived on the next call.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn sample_size_with(
        &self,
        kind: BoundKind,
        tail: Tail,
        eps: f64,
        ln_delta: f64,
        compute: impl FnOnce() -> Result<u64, BoundsError>,
    ) -> Result<u64, BoundsError> {
        if let Some(n) = self.lookup(kind, tail, eps, ln_delta) {
            return Ok(n);
        }
        let n = compute()?;
        self.store(kind, tail, eps, ln_delta, n);
        Ok(n)
    }

    /// Current hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("bounds cache poisoned").len())
                .sum(),
        }
    }

    /// Drop all entries (counters are kept; mainly for tests).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("bounds cache poisoned").clear();
        }
    }

    /// Persist every cached inversion to `path` so a later process can
    /// start warm ([`BoundsCache::load_from`]).
    ///
    /// The format is versioned, line-oriented text:
    ///
    /// ```text
    /// easeml-bounds-cache v1 count=<entries>
    /// <kind> <tail> <eps_bits:016x> <ln_delta_bits:016x> <n>
    /// ...
    /// checksum=<fnv1a64 over the entry block:016x>
    /// ```
    ///
    /// Entries are sorted by key, so the same cache contents always
    /// produce the same bytes. The file is written to a temporary sibling
    /// and renamed into place, so readers never observe a half-written
    /// dump. Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Any I/O failure while writing.
    pub fn save_to(&self, path: &Path) -> Result<usize, CachePersistError> {
        let mut entries: Vec<(Key, u64)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("bounds cache poisoned");
            entries.extend(shard.iter().map(|(k, v)| (*k, *v)));
        }
        entries.sort_by_key(|(k, _)| (k.kind.code(), k.tail.code(), k.eps, k.ln_delta));
        let lines: Vec<String> = entries
            .iter()
            .map(|(key, n)| {
                format!(
                    "{} {} {:016x} {:016x} {}",
                    key.kind.code(),
                    key.tail.code(),
                    key.eps,
                    key.ln_delta,
                    n,
                )
            })
            .collect();
        save_dump(path, PERSIST_MAGIC, &lines)
    }

    /// Load a dump written by [`BoundsCache::save_to`] into this cache,
    /// returning the number of entries loaded.
    ///
    /// Parsing is strict: a wrong magic/version line, a malformed entry,
    /// an entry-count mismatch, or a checksum failure rejects the whole
    /// file with [`CachePersistError::Corrupt`] and loads nothing — a
    /// damaged dump must never seed wrong sample sizes. Loaded entries
    /// are inserted through the normal capacity-enforcing path and do not
    /// count toward hit/miss statistics.
    ///
    /// # Errors
    ///
    /// [`CachePersistError::Io`] on read failure (including a missing
    /// file — callers that treat absence as a cold start should check
    /// existence first), [`CachePersistError::Corrupt`] on any format
    /// violation.
    pub fn load_from(&self, path: &Path) -> Result<usize, CachePersistError> {
        let entries = load_dump(path, PERSIST_MAGIC, |line| {
            let mut fields = line.split(' ');
            let mut next =
                |what: &str| fields.next().ok_or_else(|| format!("missing {what} field"));
            let kind = next("kind")?
                .parse::<u8>()
                .ok()
                .and_then(BoundKind::from_code)
                .ok_or_else(|| "unknown bound kind".to_owned())?;
            let tail = next("tail")?
                .parse::<u8>()
                .ok()
                .and_then(Tail::from_code)
                .ok_or_else(|| "unknown tail code".to_owned())?;
            let eps = u64::from_str_radix(next("eps")?, 16)
                .map_err(|_| "unparsable eps bits".to_owned())?;
            let ln_delta = u64::from_str_radix(next("ln_delta")?, 16)
                .map_err(|_| "unparsable ln_delta bits".to_owned())?;
            let n = next("n")?
                .parse::<u64>()
                .map_err(|_| "unparsable sample size".to_owned())?;
            if fields.next().is_some() {
                return Err("trailing fields".to_owned());
            }
            Ok((
                Key {
                    kind,
                    tail,
                    eps,
                    ln_delta,
                },
                n,
            ))
        })?;
        let loaded = entries.len();
        for (key, n) in entries {
            let mut shard = self.shards[key.shard()]
                .write()
                .expect("bounds cache poisoned");
            if shard.len() >= Self::MAX_ENTRIES / Self::SHARDS {
                shard.clear();
            }
            shard.insert(key, n);
        }
        Ok(loaded)
    }
}

/// Write one versioned, checksummed cache dump — the shared persistence
/// engine behind [`BoundsCache::save_to`] and [`PlanCache::save_to`]:
///
/// ```text
/// <magic> count=<entries>
/// <one pre-encoded entry per line>
/// checksum=<fnv1a64 over the entry block:016x>
/// ```
///
/// The file is written to a temporary sibling and renamed into place, so
/// readers never observe a half-written dump. Returns the entry count.
fn save_dump(path: &Path, magic: &str, lines: &[String]) -> Result<usize, CachePersistError> {
    let mut body = String::new();
    for line in lines {
        use std::fmt::Write as _;
        let _ = writeln!(body, "{line}");
    }
    let text = format!(
        "{magic} count={}\n{body}checksum={:016x}\n",
        lines.len(),
        fnv1a64(body.as_bytes()),
    );
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(lines.len())
}

/// Strictly parse a dump written by [`save_dump`]: a wrong magic/version
/// line, a malformed entry (`decode` returns the reason), an entry-count
/// mismatch, a checksum failure, or any line after the checksum line
/// (trailing content, two dumps concatenated) rejects the whole file with
/// [`CachePersistError::Corrupt`] — nothing is returned from a corrupt
/// dump. The header's count is validated against the parsed entries, so
/// it is never trusted for an allocation.
fn load_dump<E>(
    path: &Path,
    magic: &str,
    mut decode: impl FnMut(&str) -> Result<E, String>,
) -> Result<Vec<E>, CachePersistError> {
    let text = std::fs::read_to_string(path)?;
    let corrupt = |line: usize, reason: &str| CachePersistError::Corrupt {
        line,
        reason: reason.to_owned(),
    };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| corrupt(1, "empty file"))?;
    let count: usize = header
        .strip_prefix(magic)
        .and_then(|rest| rest.strip_prefix(" count="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| corrupt(1, "bad magic/version header"))?;
    let mut entries: Vec<E> = Vec::new();
    let mut body = String::new();
    let mut checksum: Option<u64> = None;
    let mut last_line = 1;
    for (idx, line) in lines.by_ref() {
        last_line = idx + 1;
        if let Some(sum) = line.strip_prefix("checksum=") {
            checksum = Some(
                u64::from_str_radix(sum, 16)
                    .map_err(|_| corrupt(last_line, "unparsable checksum"))?,
            );
            break;
        }
        entries.push(decode(line).map_err(|reason| corrupt(last_line, &reason))?);
        use std::fmt::Write as _;
        let _ = writeln!(body, "{line}");
    }
    let checksum = checksum.ok_or_else(|| corrupt(last_line, "missing checksum line"))?;
    if let Some((idx, _)) = lines.next() {
        return Err(corrupt(idx + 1, "trailing content after the checksum line"));
    }
    if entries.len() != count {
        return Err(corrupt(
            last_line,
            &format!("header promised {count} entries, found {}", entries.len()),
        ));
    }
    if fnv1a64(body.as_bytes()) != checksum {
        return Err(corrupt(last_line, "checksum mismatch"));
    }
    Ok(entries)
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

    /// Shard index (high bits; independent of the map's bucket choice).
    fn shard(self) -> usize {
        (self.0 >> 96) as usize % PlanCache::SHARDS
    }
}

/// Magic + version line of the plan cache's on-disk format.
const PLAN_PERSIST_MAGIC: &str = "easeml-plan-cache v1";

/// Thread-safe, sharded memo of whole plan-search results
/// ([`SampleSizeEstimate`]) keyed by [`PlanFingerprint`].
///
/// Structurally a sibling of [`BoundsCache`]: 16 hash-picked `RwLock`
/// shards, a global entry cap enforced per-shard (each shard clears
/// itself at `MAX_ENTRIES / SHARDS`), hit/miss counters, and the same
/// versioned, checksummed, sorted, atomically-written persistence format
/// ([`PlanCache::save_to`] / [`PlanCache::load_from`]). Values are full
/// estimates — provenance and per-clause breakdown included — so a
/// cache hit is indistinguishable from a recomputation.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<RwLock<HashMap<PlanFingerprint, SampleSizeEstimate>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            shards: (0..Self::SHARDS).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl PlanCache {
    /// Number of independently locked shards (same geometry as
    /// [`BoundsCache::SHARDS`]).
    pub const SHARDS: usize = 16;

    /// Upper bound on stored entries across all shards. Plans are a few
    /// hundred bytes each (an order of magnitude heavier than a bounds
    /// entry), and distinct *scripts* arrive far more slowly than
    /// distinct `(ε, δ)` leaves, so the cap is correspondingly smaller:
    /// 2¹² plans ≈ a few MB worst case.
    pub const MAX_ENTRIES: usize = 1 << 12;

    /// A fresh, empty cache (tests; production shares
    /// [`PlanCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The process-wide shared instance.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Cached estimate for `fingerprint`, if present. Counts toward the
    /// hit/miss statistics.
    pub fn lookup(&self, fingerprint: PlanFingerprint) -> Option<SampleSizeEstimate> {
        let found = self.shards[fingerprint.shard()]
            .read()
            .expect("plan cache poisoned")
            .get(&fingerprint)
            .cloned();
        match found {
            Some(est) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(est)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a computed estimate (see [`PlanCache::lookup`]).
    pub fn store(&self, fingerprint: PlanFingerprint, estimate: SampleSizeEstimate) {
        let mut shard = self.shards[fingerprint.shard()]
            .write()
            .expect("plan cache poisoned");
        if shard.len() >= Self::MAX_ENTRIES / Self::SHARDS {
            shard.clear();
        }
        shard.insert(fingerprint, estimate);
    }

    /// Current hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("plan cache poisoned").len())
                .sum(),
        }
    }

    /// Drop all entries (counters are kept; mainly for tests).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("plan cache poisoned").clear();
        }
    }

    /// Persist every cached plan to `path` so a later process can start
    /// warm ([`PlanCache::load_from`]).
    ///
    /// Same structure as [`BoundsCache::save_to`] — versioned header,
    /// one entry per line, FNV-checksummed body, sorted keys (equal
    /// contents give byte-identical dumps), atomic temp-file + rename:
    ///
    /// ```text
    /// easeml-plan-cache v1 count=<entries>
    /// <fingerprint:032x> <wire-encoded estimate>
    /// ...
    /// checksum=<fnv1a64 over the entry block:016x>
    /// ```
    ///
    /// Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Any I/O failure while writing.
    pub fn save_to(&self, path: &Path) -> Result<usize, CachePersistError> {
        let mut entries: Vec<(PlanFingerprint, SampleSizeEstimate)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("plan cache poisoned");
            entries.extend(shard.iter().map(|(k, v)| (*k, v.clone())));
        }
        entries.sort_by_key(|(k, _)| *k);
        let lines: Vec<String> = entries
            .iter()
            .map(|(key, estimate)| format!("{:032x} {}", key.0, estimate.encode_wire()))
            .collect();
        save_dump(path, PLAN_PERSIST_MAGIC, &lines)
    }

    /// Load a dump written by [`PlanCache::save_to`], returning the
    /// number of entries loaded.
    ///
    /// Parsing is strict, like [`BoundsCache::load_from`]: wrong
    /// magic/version, a malformed fingerprint or estimate encoding, an
    /// entry-count mismatch, or a checksum failure rejects the whole
    /// file and loads nothing — a damaged dump must never seed wrong
    /// plans. Loaded entries go through the capacity-enforcing path and
    /// do not count toward hit/miss statistics.
    ///
    /// # Errors
    ///
    /// [`CachePersistError::Io`] on read failure,
    /// [`CachePersistError::Corrupt`] on any format violation.
    pub fn load_from(&self, path: &Path) -> Result<usize, CachePersistError> {
        let entries = load_dump(path, PLAN_PERSIST_MAGIC, |line| {
            let (fp, blob) = line
                .split_once(' ')
                .ok_or_else(|| "missing estimate field".to_owned())?;
            let fp =
                u128::from_str_radix(fp, 16).map_err(|_| "unparsable fingerprint".to_owned())?;
            let estimate = SampleSizeEstimate::decode_wire(blob)
                .ok_or_else(|| "unparsable estimate encoding".to_owned())?;
            Ok((PlanFingerprint(fp), estimate))
        })?;
        let loaded = entries.len();
        for (key, estimate) in entries {
            let mut shard = self.shards[key.shard()]
                .write()
                .expect("plan cache poisoned");
            if shard.len() >= Self::MAX_ENTRIES / Self::SHARDS {
                shard.clear();
            }
            shard.insert(key, estimate);
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let cache = BoundsCache::new();
        let mut computed = 0u32;
        for _ in 0..3 {
            let n = cache
                .sample_size_with(
                    BoundKind::ExactBinomialSampleSize,
                    Tail::TwoSided,
                    0.05,
                    (0.001f64).ln(),
                    || {
                        computed += 1;
                        Ok(2_500)
                    },
                )
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
        let err = cache.sample_size_with(
            BoundKind::ExactBinomialSampleSize,
            Tail::TwoSided,
            0.05,
            -3.0,
            || Err(BoundsError::ZeroSampleSize),
        );
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        // The next call recomputes and may succeed.
        let ok = cache.sample_size_with(
            BoundKind::ExactBinomialSampleSize,
            Tail::TwoSided,
            0.05,
            -3.0,
            || Ok(7),
        );
        assert_eq!(ok.unwrap(), 7);
    }

    #[test]
    fn quantization_merges_last_ulp_noise_but_separates_real_inputs() {
        let cache = BoundsCache::new();
        let base = 0.05f64;
        let wiggled = f64::from_bits(base.to_bits() + 3); // ~1e-18 apart
        let k = BoundKind::ExactBinomialSampleSize;
        cache
            .sample_size_with(k, Tail::TwoSided, base, -5.0, || Ok(1))
            .unwrap();
        let hit = cache
            .sample_size_with(k, Tail::TwoSided, wiggled, -5.0, || Ok(2))
            .unwrap();
        assert_eq!(hit, 1, "sub-grain wiggle must share the entry");
        let other = cache
            .sample_size_with(k, Tail::TwoSided, 0.06, -5.0, || Ok(3))
            .unwrap();
        assert_eq!(other, 3, "distinct eps must get its own entry");
        // Distinct tails are distinct keys.
        let one_sided = cache
            .sample_size_with(k, Tail::OneSided, base, -5.0, || Ok(4))
            .unwrap();
        assert_eq!(one_sided, 4);
    }

    #[test]
    fn entry_count_is_bounded() {
        let cache = BoundsCache::new();
        let base = 0.05f64.to_bits();
        // One more distinct quantized key than the cap: overflow inserts
        // must drop shards instead of growing past MAX_ENTRIES.
        for i in 0..=BoundsCache::MAX_ENTRIES as u64 {
            let eps = f64::from_bits(base + (i << 8));
            cache
                .sample_size_with(
                    BoundKind::ExactBinomialSampleSize,
                    Tail::TwoSided,
                    eps,
                    -5.0,
                    || Ok(i),
                )
                .unwrap();
        }
        let entries = cache.stats().entries;
        assert!(
            (1..=BoundsCache::MAX_ENTRIES).contains(&entries),
            "entries = {entries}"
        );
    }

    #[test]
    fn keys_spread_across_shards() {
        // Realistic Figure-2-style keys must not all hash to one shard
        // (the whole point of sharding the lock).
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let eps = 0.01 + i as f64 * 0.005;
            let key = Key::new(
                BoundKind::ExactBinomialSampleSize,
                Tail::TwoSided,
                eps,
                -6.0,
            );
            seen.insert(key.shard());
        }
        assert!(
            seen.len() >= BoundsCache::SHARDS / 2,
            "64 distinct keys landed in only {} shards",
            seen.len()
        );
    }

    #[test]
    fn lookup_store_roundtrip() {
        let cache = BoundsCache::new();
        let k = BoundKind::ExactBinomialSampleSize;
        assert_eq!(cache.lookup(k, Tail::TwoSided, 0.05, -7.0), None);
        cache.store(k, Tail::TwoSided, 0.05, -7.0, 123);
        assert_eq!(cache.lookup(k, Tail::TwoSided, 0.05, -7.0), Some(123));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("easeml-cache-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_round_trip_preserves_entries() {
        let cache = BoundsCache::new();
        let k = BoundKind::ExactBinomialSampleSize;
        let cases = [
            (Tail::TwoSided, 0.05, -5.0, 2_500),
            (Tail::TwoSided, 0.025, -9.2, 11_093),
            (Tail::OneSided, 0.1, -4.6, 271),
        ];
        for &(tail, eps, ln_delta, n) in &cases {
            cache.store(k, tail, eps, ln_delta, n);
        }
        let path = temp_path("roundtrip.v1");
        assert_eq!(cache.save_to(&path).unwrap(), cases.len());

        let restored = BoundsCache::new();
        assert_eq!(restored.load_from(&path).unwrap(), cases.len());
        for &(tail, eps, ln_delta, n) in &cases {
            assert_eq!(restored.lookup(k, tail, eps, ln_delta), Some(n));
        }
        // Same contents → byte-identical dump (entries are sorted).
        let path2 = temp_path("roundtrip2.v1");
        restored.save_to(&path2).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(path2).unwrap();
    }

    #[test]
    fn corrupt_files_are_rejected_and_load_nothing() {
        let cache = BoundsCache::new();
        cache.store(
            BoundKind::ExactBinomialSampleSize,
            Tail::TwoSided,
            0.05,
            -5.0,
            2_500,
        );
        let path = temp_path("corrupt.v1");
        cache.save_to(&path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        let corruptions: &[(&str, String)] = &[
            ("bad magic", good.replacen("easeml-bounds-cache", "x", 1)),
            ("future version", good.replacen("v1", "v9", 1)),
            ("flipped sample size", good.replacen("2500", "9999", 1)),
            ("unknown tail code", good.replacen("0 2 ", "0 7 ", 1)),
            ("unknown kind code", good.replacen("0 2 ", "3 2 ", 1)),
            ("count mismatch", good.replacen("count=1", "count=2", 1)),
            (
                "missing checksum",
                good.lines().next().unwrap().to_owned() + "\n",
            ),
            ("truncated", good[..good.len() / 2].to_owned()),
            ("trailing line", good.clone() + "extra\n"),
            ("two dumps concatenated", good.repeat(2)),
            ("empty", String::new()),
        ];
        for (what, text) in corruptions {
            std::fs::write(&path, text).unwrap();
            let fresh = BoundsCache::new();
            let err = fresh.load_from(&path);
            assert!(
                matches!(err, Err(CachePersistError::Corrupt { .. })),
                "{what}: expected Corrupt, got {err:?}"
            );
            if matches!(*what, "trailing line" | "two dumps concatenated") {
                let after = good.lines().count() + 1;
                assert!(
                    matches!(err, Err(CachePersistError::Corrupt { line, .. }) if line == after),
                    "{what}: must name line {after}, got {err:?}"
                );
            }
            assert_eq!(fresh.stats().entries, 0, "{what}: must load nothing");
        }
        // A missing file is an I/O error, not a corruption.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            BoundsCache::new().load_from(&path),
            Err(CachePersistError::Io(_))
        ));
    }

    #[test]
    fn persisted_entries_serve_sample_size_with() {
        // The whole point: a warm dump short-circuits the expensive
        // compute closure in a fresh process.
        let cache = BoundsCache::new();
        cache.store(
            BoundKind::ExactBinomialSampleSize,
            Tail::TwoSided,
            0.05,
            (0.001f64).ln(),
            4_242,
        );
        let path = temp_path("warm.v1");
        cache.save_to(&path).unwrap();
        let restored = BoundsCache::new();
        restored.load_from(&path).unwrap();
        let n = restored
            .sample_size_with(
                BoundKind::ExactBinomialSampleSize,
                Tail::TwoSided,
                0.05,
                (0.001f64).ln(),
                || panic!("warm cache must not recompute"),
            )
            .unwrap();
        assert_eq!(n, 4_242);
        std::fs::remove_file(path).unwrap();
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
        assert_eq!(cache.lookup(fp), None);
        let est = optimized_estimate();
        cache.store(fp, est.clone());
        assert_eq!(cache.lookup(fp), Some(est));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A different canonical string is a different key.
        assert_eq!(cache.lookup(PlanFingerprint::of("other")), None);
    }

    #[test]
    fn plan_cache_save_load_round_trip() {
        let cache = PlanCache::new();
        cache.store(PlanFingerprint::of("a"), baseline_estimate(6_279));
        cache.store(PlanFingerprint::of("b"), optimized_estimate());
        let path = temp_path("plan-roundtrip.v1");
        assert_eq!(cache.save_to(&path).unwrap(), 2);

        let restored = PlanCache::new();
        assert_eq!(restored.load_from(&path).unwrap(), 2);
        assert_eq!(
            restored.lookup(PlanFingerprint::of("a")),
            Some(baseline_estimate(6_279))
        );
        assert_eq!(
            restored.lookup(PlanFingerprint::of("b")),
            Some(optimized_estimate())
        );
        // Same contents → byte-identical dump (entries are sorted).
        let path2 = temp_path("plan-roundtrip2.v1");
        restored.save_to(&path2).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(path2).unwrap();
    }

    #[test]
    fn plan_cache_rejects_corrupt_dumps() {
        let cache = PlanCache::new();
        cache.store(PlanFingerprint::of("a"), baseline_estimate(6_279));
        let path = temp_path("plan-corrupt.v1");
        cache.save_to(&path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        let corruptions: &[(&str, String)] = &[
            ("bad magic", good.replacen("easeml-plan-cache", "x", 1)),
            ("future version", good.replacen("v1", "v9", 1)),
            ("flipped sample count", good.replacen("6279", "9999", 1)),
            ("count mismatch", good.replacen("count=1", "count=2", 1)),
            ("mangled provenance", good.replacen(";B;", ";Q;", 1)),
            (
                "missing checksum",
                good.lines().next().unwrap().to_owned() + "\n",
            ),
            ("truncated", good[..good.len() / 2].to_owned()),
            ("trailing line", good.clone() + "extra\n"),
            ("two dumps concatenated", good.repeat(2)),
            ("empty", String::new()),
        ];
        for (what, text) in corruptions {
            std::fs::write(&path, text).unwrap();
            let fresh = PlanCache::new();
            let err = fresh.load_from(&path);
            assert!(
                matches!(err, Err(CachePersistError::Corrupt { .. })),
                "{what}: expected Corrupt, got {err:?}"
            );
            if matches!(*what, "trailing line" | "two dumps concatenated") {
                let after = good.lines().count() + 1;
                assert!(
                    matches!(err, Err(CachePersistError::Corrupt { line, .. }) if line == after),
                    "{what}: must name line {after}, got {err:?}"
                );
            }
            let message = err.unwrap_err().to_string();
            assert!(
                !message.contains("bounds"),
                "{what}: plan cache error names the bounds cache: {message}"
            );
            assert_eq!(fresh.stats().entries, 0, "{what}: must load nothing");
        }
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            PlanCache::new().load_from(&path),
            Err(CachePersistError::Io(_))
        ));
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
        let cache = std::sync::Arc::new(BoundsCache::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let eps = 0.01 + ((t * 7 + i) % 5) as f64 * 0.01;
                        let n = cache
                            .sample_size_with(
                                BoundKind::ExactBinomialSampleSize,
                                Tail::TwoSided,
                                eps,
                                -6.0,
                                || Ok((eps * 1e6) as u64),
                            )
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
