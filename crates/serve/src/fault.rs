//! Crash-consistency matrix: enumerate every kill point of a fixed
//! serving schedule, reboot after each, and check the durability
//! contract.
//!
//! The harness drives a [`Registry`] directly (no HTTP — the store is
//! the durability boundary) through a deterministic two-project
//! schedule: `alpha` gates on client-measured counts (commits, a
//! snapshot, a fresh-testset era bump), `beta` gates on server-measured
//! prediction vectors over a lazily labelled testset (predictions, a
//! snapshot, a testset install). A recording [`FaultVfs`] first runs
//! the schedule fault-free to log every counted I/O operation; the
//! matrix then re-runs the schedule once per (operation, fault) pair —
//! process kill, power cut, torn write, `ENOSPC` — reboots from the
//! surviving disk image, and asserts:
//!
//! * **reboot never bricks** — [`Registry::open_with`] succeeds on
//!   every survivor (only genuine tamper may refuse);
//! * **no phantom** — the rebooted history is consistent with the ack
//!   order, and any *unacked* survivor is an operation the client
//!   actually attempted (an errored request may legitimately land —
//!   at-least-once semantics — but an id the client never sent, or a
//!   reorder, is corruption);
//! * **no acked loss** — a process kill or `ENOSPC` never loses an
//!   acked registration or commit; a power cut or torn write never
//!   loses a registration (its record is fsynced and renamed on the
//!   registering thread before the ack, in both modes) or a commit
//!   acked after its covering fsync (in `group` durability every commit
//!   ack waited on the flusher's batched journal sync, so *no* acked
//!   commit may be lost; in `relaxed` only a completed snapshot covers
//!   the commits acked before it);
//! * **byte-faithful history** — for halting faults the survivor's
//!   journal, after torn-tail repair, is byte-for-byte a prefix of the
//!   fault-free baseline journal (journal lines carry no timestamps);
//! * **post-reboot liveness** — a probe submission to each surviving
//!   project is answered by the gate (any verdict but
//!   [`ServeError::Corrupt`] / [`ServeError::Io`]).
//!
//! The per-project action streams run as one [`Pool`] task each, so
//! per-scope operation order — the fault-plan address space — is
//! deterministic for any pool width; `journal_bytes_after_run` exposes
//! that determinism for the property test in
//! `tests/crash_matrix.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use easeml_par::{splitmix64, Pool};

use crate::error::ServeError;
use crate::json::Value;
use crate::registry::{
    serving_estimator, CommitSubmission, EvalCounts, PredictionsSubmission, TestsetSpec,
};
use crate::store::{group, Durability, Registry};
use crate::vfs::{Fault, FaultKind, FaultPlan, FaultVfs, MemVfs, OpRecord, Vfs};

/// Virtual data-directory root the matrix schedule runs under (a
/// [`MemVfs`] path — nothing touches the real filesystem).
pub const FAULT_ROOT: &str = "/easeml-fault";

/// Testset size for the server-measured project (both eras).
const TESTSET_SIZE: usize = 60;

const COUNTS_SCRIPT: &str = "ml:\n  - condition  : n > 0.6 +/- 0.2\n  - reliability: 0.99\n  - mode       : fp-free\n  - adaptivity : full\n  - steps      : 3\n";
const PREDICTIONS_SCRIPT: &str = "ml:\n  - condition  : n - o > 0.0 +/- 0.2\n  - reliability: 0.99\n  - mode       : fp-free\n  - adaptivity : full\n  - steps      : 3\n";
const F1_SCRIPT: &str = "ml:\n  - condition  : f1(n) - f1(o) > -0.1 +/- 0.2\n  - reliability: 0.99\n  - mode       : fp-free\n  - adaptivity : full\n  - steps      : 3\n";

/// Options for [`run_matrix`].
#[derive(Debug, Clone, Copy)]
pub struct MatrixOptions {
    /// Sample every third operation instead of every one (CI mode).
    pub quick: bool,
    /// Seed for the schedule's evaluation counts and vectors.
    pub seed: u64,
    /// Durability mode the schedule (and every reboot) runs under.
    pub durability: Durability,
}

impl Default for MatrixOptions {
    fn default() -> MatrixOptions {
        MatrixOptions {
            quick: false,
            seed: 7,
            durability: Durability::Group,
        }
    }
}

/// Outcome of one (operation, fault) cell of the matrix.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Fault-plan scope the fault was injected in.
    pub scope: String,
    /// Operation index within the scope.
    pub index: u64,
    /// Operation kind at the injection point (`write`, `sync`, …).
    pub op: &'static str,
    /// Fault injected: `kill`, `power_cut`, `torn`, or `enospc`.
    pub fault: &'static str,
    /// Commits acked across both projects during the faulted run.
    pub acked_commits: usize,
    /// Commits present in the rebooted histories.
    pub surviving_commits: usize,
    /// First violated invariant, if any.
    pub failure: Option<String>,
}

/// Full matrix outcome: one [`CaseResult`] per enumerated cell.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Schedule seed the matrix ran with.
    pub seed: u64,
    /// Whether quick (strided) sampling was used.
    pub quick: bool,
    /// Pool width the schedules ran on.
    pub threads: usize,
    /// Counted operations in the fault-free baseline run.
    pub ops_enumerated: usize,
    /// Per-cell outcomes.
    pub cases: Vec<CaseResult>,
}

impl MatrixReport {
    /// Whether every cell held its invariants.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.cases.iter().all(|c| c.failure.is_none())
    }

    /// The cells that violated an invariant.
    #[must_use]
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.cases.iter().filter(|c| c.failure.is_some()).collect()
    }

    /// JSON summary (the shape `repro_faults` writes to
    /// `results/BENCH_faults.json`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut per_fault: BTreeMap<&'static str, u64> = BTreeMap::new();
        for case in &self.cases {
            *per_fault.entry(case.fault).or_insert(0) += 1;
        }
        let failures: Vec<Value> = self
            .failures()
            .iter()
            .map(|c| {
                Value::object([
                    ("scope", Value::from(c.scope.as_str())),
                    ("index", Value::from(c.index)),
                    ("op", Value::from(c.op)),
                    ("fault", Value::from(c.fault)),
                    (
                        "failure",
                        Value::from(c.failure.as_deref().unwrap_or_default()),
                    ),
                ])
            })
            .collect();
        Value::object([
            ("seed", Value::from(self.seed)),
            ("quick", Value::from(self.quick)),
            ("threads", Value::from(self.threads)),
            ("ops_enumerated", Value::from(self.ops_enumerated)),
            ("cases", Value::from(self.cases.len())),
            (
                "cases_per_fault",
                Value::object(
                    per_fault
                        .into_iter()
                        .map(|(k, v)| (k, Value::from(v)))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("passed", Value::from(self.passed())),
            ("failures", Value::array(failures)),
        ])
    }
}

/// Run the crash-consistency matrix on the global pool.
#[must_use]
pub fn run_matrix(options: &MatrixOptions) -> MatrixReport {
    run_matrix_on(Pool::global(), options)
}

/// Run the crash-consistency matrix on a caller-supplied pool.
#[must_use]
pub fn run_matrix_on(pool: &Pool, options: &MatrixOptions) -> MatrixReport {
    let root = Path::new(FAULT_ROOT);
    let baseline_vfs = FaultVfs::new(root, FaultPlan::new());
    baseline_vfs.start_recording();
    let vfs: Arc<dyn Vfs> = Arc::new(baseline_vfs.clone());
    let baseline = match run_schedule(&vfs, pool, options.seed, options.durability) {
        Ok(logs) => logs,
        Err(e) => {
            return MatrixReport {
                seed: options.seed,
                quick: options.quick,
                threads: pool.threads(),
                ops_enumerated: 0,
                cases: vec![CaseResult {
                    scope: String::new(),
                    index: 0,
                    op: "open",
                    fault: "none",
                    acked_commits: 0,
                    surviving_commits: 0,
                    failure: Some(format!("fault-free baseline run failed: {e}")),
                }],
            };
        }
    };
    let oplog = baseline_vfs.take_oplog();
    let disk = baseline_vfs.disk();
    let mut baseline_journals: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for name in baseline.keys() {
        if let Some(bytes) = disk.file_bytes(&journal_path(name)) {
            baseline_journals.insert(name.clone(), bytes);
        }
    }

    let stride = if options.quick { 3 } else { 1 };
    let mut cases = Vec::new();
    for (i, rec) in oplog.iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let mut faults: Vec<(&'static str, Fault)> =
            vec![("kill", Fault::Kill), ("power_cut", Fault::PowerCut)];
        if rec.kind == "write" && rec.len >= 2 {
            // keep < len: a torn write must stay torn (a full-length
            // "tear" would land a complete, replayable line).
            faults.push(("torn", Fault::Torn { keep: rec.len / 2 }));
        }
        if is_mutating(rec.kind) {
            faults.push(("enospc", Fault::Fail(FaultKind::Enospc)));
        }
        for (name, fault) in faults {
            cases.push(run_case(
                pool,
                options.seed,
                rec,
                fault,
                name,
                &baseline_journals,
                options.durability,
            ));
        }
    }
    MatrixReport {
        seed: options.seed,
        quick: options.quick,
        threads: pool.threads(),
        ops_enumerated: oplog.len(),
        cases,
    }
}

/// Run the schedule under `plan` and return each project's final
/// journal bytes (durable *and* pending — the process image).
///
/// Two runs with the same seed and plan must return identical maps for
/// any pool width: per-project operation streams are single tasks, so
/// per-scope fault addresses and journal contents cannot depend on
/// cross-project interleaving. `tests/crash_matrix.rs` holds the
/// property test. (Halting faults are excluded from that property: a
/// halt freezes the *other* project mid-stream at a point that does
/// depend on thread timing.)
#[must_use]
pub fn journal_bytes_after_run(
    pool: &Pool,
    seed: u64,
    plan: FaultPlan,
    durability: Durability,
) -> BTreeMap<String, Vec<u8>> {
    let fvfs = FaultVfs::new(Path::new(FAULT_ROOT), plan);
    let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
    let _ = run_schedule(&vfs, pool, seed, durability);
    let disk = fvfs.disk();
    schedule(seed)
        .into_iter()
        .map(|(name, _)| {
            let bytes = disk.file_bytes(&journal_path(&name)).unwrap_or_default();
            (name, bytes)
        })
        .collect()
}

fn journal_path(project: &str) -> PathBuf {
    Path::new(FAULT_ROOT)
        .join("projects")
        .join(project)
        .join("journal.log")
}

/// Whether `needle` appears in `haystack` in order (not necessarily
/// contiguously).
fn is_ordered_subsequence(needle: &[&str], haystack: &[String]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

fn is_mutating(kind: &str) -> bool {
    matches!(
        kind,
        "create_dir"
            | "remove"
            | "rename"
            | "create"
            | "open_append"
            | "write"
            | "sync"
            | "set_len"
    )
}

// ---------------------------------------------------------------------
// The deterministic schedule
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Action {
    Register {
        script: &'static str,
        testset: Option<TestsetSpec>,
    },
    Commit(CommitSubmission),
    Predictions(PredictionsSubmission),
    FreshTestset,
    InstallTestset(TestsetSpec),
    Snapshot,
}

fn commit(id: &str, new_correct: u64) -> Action {
    Action::Commit(CommitSubmission {
        commit_id: id.to_owned(),
        counts: EvalCounts {
            samples: 100,
            new_correct,
            old_correct: 50,
            changed: 30,
            labels: 100,
            per_class: None,
        },
    })
}

/// Prediction vector that is correct on the first `correct` items of an
/// all-zeros truth (wrong answers say class 1).
fn vector(correct: usize) -> Vec<u32> {
    (0..TESTSET_SIZE).map(|i| u32::from(i >= correct)).collect()
}

fn predictions(id: &str, new_correct: usize) -> Action {
    Action::Predictions(PredictionsSubmission {
        commit_id: id.to_owned(),
        old: vector(30),
        new: vector(new_correct),
    })
}

fn lazy_zeros() -> TestsetSpec {
    TestsetSpec {
        truth: vec![0; TESTSET_SIZE],
        classes: 2,
        lazy: true,
    }
}

fn lazy_alternating() -> TestsetSpec {
    TestsetSpec {
        truth: (0..TESTSET_SIZE as u32).map(|i| i % 2).collect(),
        classes: 2,
        lazy: true,
    }
}

fn full_alternating() -> TestsetSpec {
    TestsetSpec {
        truth: (0..TESTSET_SIZE as u32).map(|i| i % 2).collect(),
        classes: 2,
        lazy: false,
    }
}

/// The fixed two-project schedule. Counts and vectors are seeded but
/// consecutive draws are forced distinct so the store's
/// redelivery-dedup path (which matches the most recent evaluation)
/// never swallows a scheduled submission.
fn schedule(seed: u64) -> Vec<(String, Vec<Action>)> {
    let mut prev = u64::MAX;
    let mut draw = |k: u64, modulus: u64| {
        let mut v = splitmix64(seed, k) % modulus;
        if v == prev {
            v = (v + 1) % modulus;
        }
        prev = v;
        v
    };

    let alpha = vec![
        Action::Register {
            script: COUNTS_SCRIPT,
            testset: None,
        },
        commit("a1", 20 + draw(1, 61)),
        commit("a2", 20 + draw(2, 61)),
        Action::Snapshot,
        commit("a3", 20 + draw(3, 61)),
        Action::FreshTestset,
        commit("a4", 20 + draw(4, 61)),
        Action::Snapshot,
    ];

    let size = TESTSET_SIZE as u64;
    let beta = vec![
        Action::Register {
            script: PREDICTIONS_SCRIPT,
            testset: Some(lazy_zeros()),
        },
        predictions("b1", draw(101, size + 1) as usize),
        predictions("b2", draw(102, size + 1) as usize),
        Action::Snapshot,
        predictions("b3", draw(103, size + 1) as usize),
        Action::InstallTestset(lazy_alternating()),
        predictions("b4", draw(104, size + 1) as usize),
        Action::Snapshot,
    ];

    // F1 gating over a fully-labelled alternating testset: journal ops
    // and snapshots carry per-class confusion counts, and every reboot
    // re-measures them through the packed per-class lane.
    let gamma = vec![
        Action::Register {
            script: F1_SCRIPT,
            testset: Some(full_alternating()),
        },
        predictions("g1", draw(201, size + 1) as usize),
        predictions("g2", draw(202, size + 1) as usize),
        Action::Snapshot,
        predictions("g3", draw(203, size + 1) as usize),
        Action::InstallTestset(full_alternating()),
        predictions("g4", draw(204, size + 1) as usize),
        Action::Snapshot,
    ];

    vec![
        ("alpha".to_owned(), alpha),
        ("beta".to_owned(), beta),
        ("gamma".to_owned(), gamma),
    ]
}

// ---------------------------------------------------------------------
// Running a schedule and recording acks
// ---------------------------------------------------------------------

/// What one project's driver observed: every commit id *attempted* (in
/// schedule order), labels for every *acked* (successfully returned)
/// action, and the number of commits known fsync-covered at ack time —
/// the power-cut durability watermark. Under `group` every ack is
/// fsync-covered; under `relaxed` only a completed snapshot raises the
/// watermark. The schedule's projects journal far fewer than
/// [`crate::store::SNAPSHOT_EVERY`] ops, so neither the cadence snapshot
/// nor `relaxed`'s periodic journal sync ever fires in the matrix.
#[derive(Debug, Default, Clone)]
struct ProjectLog {
    attempted: Vec<String>,
    acked: Vec<String>,
    synced_commits: usize,
}

impl ProjectLog {
    fn commits(&self) -> Vec<&str> {
        self.acked
            .iter()
            .filter_map(|l| l.strip_prefix("commit:"))
            .collect()
    }

    fn registered(&self) -> bool {
        self.acked.iter().any(|l| l == "registered")
    }
}

/// Drive one action and — under `group` durability — wait for its
/// deferred durable ack, exactly as the route layer holds the HTTP
/// response until the waiter resolves. The waiter is drained
/// unconditionally so no thread-local state leaks across actions.
fn apply(registry: &Registry, name: &str, action: &Action) -> Result<String, ServeError> {
    let result = apply_inner(registry, name, action);
    match group::take_pending() {
        Some(waiter) if result.is_ok() => {
            waiter.wait().map_err(ServeError::Unavailable).and(result)
        }
        _ => result,
    }
}

fn apply_inner(registry: &Registry, name: &str, action: &Action) -> Result<String, ServeError> {
    if let Action::Register { script, testset } = action {
        return registry
            .register(name, script, testset.clone())
            .map(|_| "registered".to_owned());
    }
    let slot = registry
        .get(name)
        .ok_or_else(|| ServeError::NotFound(format!("project `{name}`")))?;
    let mut slot = slot.lock().expect("slot poisoned");
    match action {
        Action::Register { .. } => unreachable!("handled above"),
        Action::Commit(sub) => slot
            .submit(sub)
            .map(|_| format!("commit:{}", sub.commit_id)),
        Action::Predictions(sub) => slot
            .submit_predictions(sub)
            .map(|_| format!("commit:{}", sub.commit_id)),
        Action::FreshTestset => slot.fresh_testset().map(|era| format!("era:{era}")),
        Action::InstallTestset(spec) => slot
            .install_testset(spec.clone())
            .map(|era| format!("era:{era}")),
        Action::Snapshot => slot.snapshot().map(|()| "snapshot".to_owned()),
    }
}

/// Open a registry on `vfs` and drive the schedule, one pool task per
/// project. Action failures (injected faults, post-halt errors, gate
/// rejections) are simply not acked; the stream continues — exactly a
/// client whose request errored.
fn run_schedule(
    vfs: &Arc<dyn Vfs>,
    pool: &Pool,
    seed: u64,
    durability: Durability,
) -> Result<BTreeMap<String, ProjectLog>, ServeError> {
    let registry = Registry::open_with_durability(
        Path::new(FAULT_ROOT),
        serving_estimator(),
        Arc::clone(vfs),
        durability,
        None,
    )?;
    // Every ack in group mode is fsync-covered, so the power-cut
    // watermark advances per acked commit; in relaxed mode only a
    // completed snapshot (which fsyncs the journal first) advances it.
    let ack_is_synced = durability == Durability::Group;
    let streams = schedule(seed);
    let logs: Mutex<BTreeMap<String, ProjectLog>> = Mutex::new(BTreeMap::new());
    pool.scope(|scope| {
        for (name, actions) in &streams {
            let registry = &registry;
            let logs = &logs;
            scope.spawn(move || {
                let mut log = ProjectLog::default();
                for action in actions {
                    match action {
                        Action::Commit(sub) => log.attempted.push(sub.commit_id.clone()),
                        Action::Predictions(sub) => log.attempted.push(sub.commit_id.clone()),
                        _ => {}
                    }
                    if let Ok(label) = apply(registry, name, action) {
                        let snapshot = label == "snapshot";
                        let commit = label.starts_with("commit:");
                        log.acked.push(label);
                        if snapshot || (commit && ack_is_synced) {
                            log.synced_commits = log.commits().len();
                        }
                    }
                }
                logs.lock()
                    .expect("logs poisoned")
                    .insert(name.clone(), log);
            });
        }
    });
    Ok(logs.into_inner().expect("logs poisoned"))
}

// ---------------------------------------------------------------------
// One matrix cell
// ---------------------------------------------------------------------

#[allow(clippy::too_many_lines)]
fn run_case(
    pool: &Pool,
    seed: u64,
    rec: &OpRecord,
    fault: Fault,
    fault_name: &'static str,
    baseline_journals: &BTreeMap<String, Vec<u8>>,
    durability: Durability,
) -> CaseResult {
    let root = Path::new(FAULT_ROOT);
    let plan = FaultPlan::new().at(&rec.scope, rec.index, fault);
    let fvfs = FaultVfs::new(root, plan);
    let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
    // An open()-time fault legitimately fails the whole run: nothing
    // acked, so the invariants below hold vacuously on the survivor.
    let acked = run_schedule(&vfs, pool, seed, durability).unwrap_or_default();
    let halting = fvfs.halted();
    let survivor: MemVfs = if halting {
        fvfs.captured_disk()
            .unwrap_or_else(|| fvfs.disk().kill_view())
    } else {
        fvfs.disk().kill_view()
    };

    let mut result = CaseResult {
        scope: rec.scope.clone(),
        index: rec.index,
        op: rec.kind,
        fault: fault_name,
        acked_commits: acked.values().map(|l| l.commits().len()).sum(),
        surviving_commits: 0,
        failure: None,
    };

    let reboot: Arc<dyn Vfs> = Arc::new(survivor.clone());
    let registry =
        match Registry::open_with_durability(root, serving_estimator(), reboot, durability, None) {
            Ok(r) => r,
            Err(e) => {
                result.failure = Some(format!("reboot bricked: {e}"));
                return result;
            }
        };

    for (name, log) in &acked {
        let slot = registry.get(name);
        if log.registered() && slot.is_none() {
            result.failure = Some(format!("{name}: acked registration lost on reboot"));
            return result;
        }
        let Some(slot) = slot else { continue };
        let surviving: Vec<String> = {
            let guard = slot.lock().expect("slot poisoned");
            guard
                .project
                .history()
                .entries()
                .iter()
                .map(|e| e.commit_id.clone())
                .collect()
        };
        result.surviving_commits += surviving.len();
        let acked_ids = log.commits();

        // Ack-order consistency: where the survivor and the ack log
        // overlap, they must agree exactly — a reorder or a swapped-in
        // foreign id is corruption regardless of fault timing.
        let overlap = surviving.len().min(acked_ids.len());
        if surviving
            .iter()
            .take(overlap)
            .zip(&acked_ids)
            .any(|(s, a)| s != a)
        {
            result.failure = Some(format!(
                "{name}: surviving history {surviving:?} diverges from ack order {acked_ids:?}"
            ));
            return result;
        }
        // Unacked survivors: an op whose request *errored* may still
        // have landed (its record was written before the fault stopped
        // the ack) — legitimate at-least-once ambiguity — but every
        // such record must be an actually attempted id, in attempt
        // order.
        if surviving.len() > acked_ids.len() {
            let extras: Vec<&str> = surviving[acked_ids.len()..]
                .iter()
                .map(String::as_str)
                .collect();
            if !is_ordered_subsequence(&extras, &log.attempted) {
                result.failure = Some(format!(
                    "{name}: phantom commits {extras:?} survived that were never attempted \
                     (attempted {:?})",
                    log.attempted
                ));
                return result;
            }
        }
        match fault {
            // The full process image survives a kill or a plain I/O
            // failure: no acked commit may be missing.
            Fault::Kill | Fault::Fail(_) | Fault::FailFrom(_) => {
                if surviving.len() < acked_ids.len() {
                    result.failure = Some(format!(
                        "{name}: acked commit lost without a power cut \
                         ({} acked, {} survived)",
                        acked_ids.len(),
                        surviving.len()
                    ));
                    return result;
                }
            }
            // A power cut (and a torn write, which halts with the
            // durable image) may drop unsynced acks, but never one the
            // durability mode had fsync-covered at ack time.
            Fault::PowerCut | Fault::Torn { .. } => {
                if surviving.len() < log.synced_commits {
                    result.failure = Some(format!(
                        "{name}: fsync-covered acked commit lost \
                         ({} survived < {} covered)",
                        surviving.len(),
                        log.synced_commits
                    ));
                    return result;
                }
            }
        }

        // Byte-faithful history: after reboot (which repairs a torn
        // tail), the survivor's journal must be a byte prefix of the
        // fault-free baseline's. Skipped for ENOSPC: a rolled-back
        // append legitimately makes later journal offsets diverge.
        if halting {
            let bytes = survivor.file_bytes(&journal_path(name)).unwrap_or_default();
            let base = baseline_journals
                .get(name)
                .map(Vec::as_slice)
                .unwrap_or_default();
            if !base.starts_with(&bytes) {
                result.failure = Some(format!(
                    "{name}: survivor journal ({} bytes) diverges from the \
                     fault-free baseline ({} bytes)",
                    bytes.len(),
                    base.len()
                ));
                return result;
            }
        }
    }

    // Liveness probe: the rebooted instance must answer a submission
    // with a gate verdict, not corruption or I/O failure — in
    // particular a repaired torn tail must accept appends again.
    for name in registry.names() {
        if let Err(failure) = probe(&registry, &name) {
            result.failure = Some(failure);
            return result;
        }
    }
    result
}

fn probe(registry: &Registry, name: &str) -> Result<(), String> {
    let Some(slot) = registry.get(name) else {
        return Ok(());
    };
    let mut slot = slot.lock().expect("slot poisoned");
    let outcome = probe_submit(&mut slot);
    // Drain (and honour) the group-mode waiter: a probe on a healthy
    // survivor must also reach durability.
    let outcome = match group::take_pending() {
        Some(waiter) if outcome.is_ok() => {
            waiter.wait().map_err(ServeError::Unavailable).and(outcome)
        }
        _ => outcome,
    };
    match outcome {
        Err(e @ (ServeError::Corrupt { .. } | ServeError::Io(_))) => {
            Err(format!("{name}: post-reboot probe failed hard: {e}"))
        }
        // Gone / Conflict / a pass-fail verdict are all live answers.
        _ => Ok(()),
    }
}

fn probe_submit(slot: &mut crate::store::ProjectSlot) -> Result<(), ServeError> {
    if slot.project.measured().is_some() {
        slot.submit_predictions(&PredictionsSubmission {
            commit_id: "probe".to_owned(),
            old: vector(30),
            new: vector(31),
        })
        .map(|_| ())
    } else {
        slot.submit(&CommitSubmission {
            commit_id: "probe".to_owned(),
            counts: EvalCounts {
                samples: 100,
                new_correct: 61,
                old_correct: 50,
                changed: 30,
                labels: 100,
                per_class: None,
            },
        })
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick cell sweep under relaxed durability: acks never wait
    /// on a journal fsync, yet a kill must still lose no acked
    /// registration or commit, and a power cut none the last completed
    /// snapshot covered.
    #[test]
    fn single_kill_cell_holds_invariants() {
        let report = run_matrix_on(
            &Pool::new(2),
            &MatrixOptions {
                quick: true,
                seed: 3,
                durability: Durability::Relaxed,
            },
        );
        assert!(
            report.ops_enumerated > 20,
            "oplog too small: {}",
            report.ops_enumerated
        );
        assert!(!report.cases.is_empty());
        if let Some(case) = report.failures().first() {
            panic!(
                "matrix cell failed: {}/{} {} {} — {}",
                case.scope,
                case.index,
                case.op,
                case.fault,
                case.failure.as_deref().unwrap_or_default()
            );
        }
    }

    /// The same cell sweep under group-commit durability: every fault
    /// address also lands at the flusher's deferred journal syncs, and
    /// the invariants must still hold — in particular no acked
    /// (fsync-covered) commit may be lost even to a power cut.
    #[test]
    fn group_mode_matrix_holds_invariants() {
        let report = run_matrix_on(
            &Pool::new(2),
            &MatrixOptions {
                quick: true,
                seed: 3,
                durability: Durability::Group,
            },
        );
        assert!(
            report.ops_enumerated > 20,
            "oplog too small: {}",
            report.ops_enumerated
        );
        assert!(!report.cases.is_empty());
        if let Some(case) = report.failures().first() {
            panic!(
                "group matrix cell failed: {}/{} {} {} — {}",
                case.scope,
                case.index,
                case.op,
                case.fault,
                case.failure.as_deref().unwrap_or_default()
            );
        }
    }

    /// Tamper (flipping a byte inside a *complete* journal line) must
    /// still brick the boot — torn-tail repair must not have widened
    /// into accepting corruption.
    #[test]
    fn tampered_complete_line_still_bricks() {
        let fvfs = FaultVfs::new(Path::new(FAULT_ROOT), FaultPlan::new());
        let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
        let pool = Pool::new(1);
        run_schedule(&vfs, &pool, 7, Durability::Group).expect("baseline");
        let disk = fvfs.disk().kill_view();
        // The schedule ends in a snapshot, whose covered journal prefix
        // is skipped (not re-parsed) at boot; drop it so the journal
        // replays in full and the tamper is in validated territory.
        let snapshot = Path::new(FAULT_ROOT)
            .join("projects")
            .join("alpha")
            .join("snapshot.json");
        disk.remove_file(&snapshot).expect("remove snapshot");
        let path = journal_path("alpha");
        let mut bytes = disk.file_bytes(&path).expect("journal");
        let second_line = bytes.iter().position(|&b| b == b'\n').expect("newline") + 1;
        assert_eq!(bytes[second_line], b'{');
        bytes[second_line] = b'#';
        // Rewrite the tampered image through the vfs interface.
        disk.remove_file(&path).expect("remove");
        {
            let mut file = disk.create(&path).expect("create");
            file.write_all(&bytes).expect("write");
            file.sync_data().expect("sync");
        }
        let reboot: Arc<dyn Vfs> = Arc::new(disk);
        let err = Registry::open_with(Path::new(FAULT_ROOT), serving_estimator(), reboot)
            .expect_err("tampered journal must refuse to boot");
        assert!(
            matches!(err, ServeError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
    }
}
