//! Per-request stage tracing.
//!
//! Each request is assigned an id and accumulates per-stage durations
//! as it moves through the serving core: parse (first byte → complete
//! head+body), queue (parsed → handler start, i.e. dispatch/pool wait),
//! a registration's sample-size estimate, gate compute, measurement, journal append, fsync, snapshot, the
//! handler total, the durable wait (handler end → the group-commit
//! round that released the response), and response write. The deep layers (`store.rs`,
//! `registry.rs`, the metered [`crate::vfs::Vfs`] wrapper) report into a
//! thread-local slot rather than threading a context argument through
//! every signature — this works because a request's handler runs on
//! exactly one thread (the event loop for inline routes, one pool
//! worker otherwise). Outside a request (boot-time journal replay,
//! shutdown snapshots) the slot is inactive and reporting is a no-op.
//!
//! Completed stage vectors feed the per-stage histograms in
//! [`super::ServeMetrics`]; requests whose total exceeds the configured
//! `--slow-request-ms` threshold additionally emit one structured
//! slow-log line on stderr and an entry in a fixed-size [`TraceRing`]
//! served by `GET /admin/trace`.

use crate::json::JsonWriter;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of traced stages.
pub const STAGE_COUNT: usize = 11;

/// Capacity of the in-memory slow-request ring served by
/// `GET /admin/trace`.
pub const TRACE_RING_CAP: usize = 256;

/// One stage of a request's lifecycle. Stages are disjoint except that
/// `Handler` spans `Estimate..=Snapshot` (an off-loop handler's own
/// group-commit round lands in `Fsync` and `Handler`), and an fsync issued inside a
/// snapshot write is counted under both `Fsync` and `Snapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First byte of the request on the wire → head+body fully parsed.
    Parse,
    /// Parsed → handler start (event-loop dispatch and pool queueing).
    Queue,
    /// A registration's sample-size estimate: plan search and the
    /// exact-binomial inversions behind it.
    Estimate,
    /// Statistical gate evaluation: a commit's point estimates and its
    /// condition over their confidence intervals.
    Gate,
    /// Server-side measurement of an uploaded prediction vector.
    Measure,
    /// Journal record append (buffer build + write).
    JournalAppend,
    /// `sync_data` and `sync_dir` calls made on the request's own
    /// thread: a registration's record and directory syncs, snapshot
    /// seals, segment creation, and an off-loop handler's own
    /// group-commit round. The event loop runs its rounds outside any
    /// request, so this stage does not time them;
    /// `easeml_group_commit_flush_seconds` does.
    Fsync,
    /// Snapshot serialization + atomic write (every Nth commit).
    Snapshot,
    /// Total time inside the route handler.
    Handler,
    /// Handler end → end of the group-commit round that released the
    /// response (0 when no round held it: `relaxed`, reads).
    DurableWait,
    /// Response queued → last byte written to the socket.
    ResponseWrite,
}

/// Every stage, in recording order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Parse,
    Stage::Queue,
    Stage::Estimate,
    Stage::Gate,
    Stage::Measure,
    Stage::JournalAppend,
    Stage::Fsync,
    Stage::Snapshot,
    Stage::Handler,
    Stage::DurableWait,
    Stage::ResponseWrite,
];

impl Stage {
    /// Stable snake_case name used in metric labels, slow-log lines,
    /// and the `/admin/trace` dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Estimate => "estimate",
            Stage::Gate => "gate",
            Stage::Measure => "measure",
            Stage::JournalAppend => "journal_append",
            Stage::Fsync => "fsync",
            Stage::Snapshot => "snapshot",
            Stage::Handler => "handler",
            Stage::DurableWait => "durable_wait",
            Stage::ResponseWrite => "response_write",
        }
    }

    /// Index into a stage vector.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SLOT: RefCell<[u64; STAGE_COUNT]> = const { RefCell::new([0; STAGE_COUNT]) };
}

/// Arm this thread's trace slot for a new request, clearing any
/// previous durations.
pub(crate) fn begin() {
    SLOT.with(|s| *s.borrow_mut() = [0; STAGE_COUNT]);
    ACTIVE.with(|a| a.set(true));
}

/// Add a duration to `stage` on the active trace; no-op when no request
/// is being traced on this thread.
pub(crate) fn add(stage: Stage, dur: Duration) {
    if ACTIVE.with(Cell::get) {
        SLOT.with(|s| {
            let slot = &mut s.borrow_mut()[stage.index()];
            *slot = slot.saturating_add(ns(dur));
        });
    }
}

/// Run `f`, attributing its wall time to `stage` when a trace is
/// active. When inactive (boot replay, shutdown), `f` runs unmeasured —
/// not even the `Instant` reads are paid.
pub(crate) fn time<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
    if !ACTIVE.with(Cell::get) {
        return f();
    }
    let start = Instant::now();
    let out = f();
    add(stage, start.elapsed());
    out
}

/// Disarm the slot and return the accumulated stage durations.
pub(crate) fn finish() -> [u64; STAGE_COUNT] {
    ACTIVE.with(|a| a.set(false));
    SLOT.with(|s| *s.borrow())
}

/// Saturating `Duration` → nanoseconds.
#[must_use]
pub fn ns(dur: Duration) -> u64 {
    u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX)
}

/// A completed request trace: id, route, status, and per-stage
/// durations in nanoseconds (indexed by [`Stage::index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRec {
    /// Process-wide request id (monotonic from 1).
    pub id: u64,
    /// Normalized route name (`"commit"`, `"register"`, …).
    pub route: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// Per-stage durations in nanoseconds.
    pub stages_ns: [u64; STAGE_COUNT],
}

impl TraceRec {
    /// End-to-end time attributed to this request: wire stages, the
    /// handler total (whose sub-stages are not double-counted) and the
    /// durable wait.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stages_ns[Stage::Parse.index()]
            + self.stages_ns[Stage::Queue.index()]
            + self.stages_ns[Stage::Handler.index()]
            + self.stages_ns[Stage::DurableWait.index()]
            + self.stages_ns[Stage::ResponseWrite.index()]
    }

    /// The `/admin/trace` JSON shape: id/route/status/total plus one
    /// `<stage>_us` field per non-zero stage.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("id").u64(self.id);
        w.key("route").string(self.route);
        w.key("status").u64(self.status.into());
        w.key("total_us").u64(self.total_ns() / 1_000);
        for stage in STAGES {
            let stage_ns = self.stages_ns[stage.index()];
            if stage_ns > 0 {
                w.key(&format!("{}_us", stage.name())).u64(stage_ns / 1_000);
            }
        }
        w.end_object();
    }

    /// One structured slow-log line (key=value, microsecond units), the
    /// format documented in the README's Observability section.
    #[must_use]
    pub fn slow_log_line(&self) -> String {
        let mut line = format!(
            "slow-request id={} route={} status={} total_us={}",
            self.id,
            self.route,
            self.status,
            self.total_ns() / 1_000
        );
        for stage in STAGES {
            let stage_ns = self.stages_ns[stage.index()];
            if stage_ns > 0 {
                line.push_str(&format!(" {}_us={}", stage.name(), stage_ns / 1_000));
            }
        }
        line
    }
}

/// Fixed-size ring of recent slow-request traces, newest last.
#[derive(Debug, Default)]
pub struct TraceRing {
    entries: Mutex<VecDeque<TraceRec>>,
}

impl TraceRing {
    /// An empty ring with capacity [`TRACE_RING_CAP`].
    #[must_use]
    pub fn new() -> TraceRing {
        TraceRing::default()
    }

    /// Append a trace, evicting the oldest entry once full.
    pub fn push(&self, rec: TraceRec) {
        let mut entries = self.entries.lock().expect("trace ring poisoned");
        if entries.len() == TRACE_RING_CAP {
            entries.pop_front();
        }
        entries.push_back(rec);
    }

    /// Snapshot the ring contents, oldest first.
    #[must_use]
    pub fn entries(&self) -> Vec<TraceRec> {
        self.entries
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> TraceRec {
        let mut stages_ns = [0; STAGE_COUNT];
        stages_ns[Stage::Parse.index()] = 2_000;
        stages_ns[Stage::Queue.index()] = 1_000;
        stages_ns[Stage::Gate.index()] = 5_000;
        stages_ns[Stage::Handler.index()] = 40_000;
        stages_ns[Stage::ResponseWrite.index()] = 3_000;
        TraceRec {
            id,
            route: "commit",
            status: 200,
            stages_ns,
        }
    }

    #[test]
    fn total_counts_wire_stages_and_handler_once() {
        // Gate is inside Handler and must not be double-counted.
        assert_eq!(rec(1).total_ns(), 2_000 + 1_000 + 40_000 + 3_000);
    }

    #[test]
    fn total_adds_the_durable_wait_after_the_handler() {
        let mut traced = rec(1);
        traced.stages_ns[Stage::DurableWait.index()] = 500_000;
        assert_eq!(traced.total_ns(), rec(1).total_ns() + 500_000);
        assert!(traced.slow_log_line().contains(" durable_wait_us=500"));
    }

    #[test]
    fn slow_log_line_is_structured_and_skips_zero_stages() {
        let line = rec(7).slow_log_line();
        assert!(line.starts_with("slow-request id=7 route=commit status=200 total_us=46"));
        assert!(line.contains(" gate_us=5"));
        assert!(!line.contains("snapshot_us"), "zero stages omitted: {line}");
    }

    #[test]
    fn thread_local_slot_accumulates_only_while_active() {
        add(Stage::Gate, Duration::from_micros(5));
        begin();
        add(Stage::Gate, Duration::from_micros(2));
        add(Stage::Gate, Duration::from_micros(3));
        let out = time(Stage::Measure, || 42);
        assert_eq!(out, 42);
        let stages = finish();
        assert_eq!(stages[Stage::Gate.index()], 5_000);
        // After finish, reporting is a no-op again.
        add(Stage::Gate, Duration::from_micros(9));
        begin();
        assert_eq!(finish()[Stage::Gate.index()], 0, "begin clears the slot");
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let ring = TraceRing::new();
        for id in 0..(TRACE_RING_CAP as u64 + 10) {
            ring.push(rec(id));
        }
        let entries = ring.entries();
        assert_eq!(entries.len(), TRACE_RING_CAP);
        assert_eq!(entries.first().unwrap().id, 10);
        assert_eq!(entries.last().unwrap().id, TRACE_RING_CAP as u64 + 9);
    }
}
