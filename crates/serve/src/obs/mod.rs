//! First-class observability for the serving core: a dependency-free
//! metrics registry with Prometheus-style text exposition, sharded
//! atomic counters and log-bucketed histograms, and per-request stage
//! tracing.
//!
//! The registry ([`Metrics`]) holds metric *families* (name + type +
//! help) each containing labeled *series*. Hot paths never touch the
//! registry lock: they hold pre-created [`Counter`] / [`Gauge`] /
//! [`Histogram`] handles (bundled in [`ServeMetrics`]) and record
//! through sharded atomics. Derived values that already live elsewhere
//! (inflight admission count, cache hit counters, project count) are
//! registered as closure-backed series evaluated at render time, so
//! `/healthz`, `/cache/stats`, and `/metrics` all read one source of
//! truth. `GET /metrics` renders the whole registry as deterministic
//! Prometheus text (fixed bucket edges, label-sorted series);
//! [`expo`] parses it back for tests and the bench harness.

pub mod expo;
pub mod hist;
pub mod trace;

use hist::{shard_index, Edges, Histogram, Unit, SHARDS};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use trace::{Stage, TraceRing, STAGES, STAGE_COUNT};

/// One cache-line-aligned counter cell, so shards don't false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PadCell(AtomicU64);

/// A monotonically increasing counter, sharded across cache lines so
/// concurrent increments from the event loop and pool workers don't
/// contend.
#[derive(Debug)]
pub struct Counter {
    shards: [PadCell; SHARDS],
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Counter {
        Counter {
            shards: std::array::from_fn(|_| PadCell::default()),
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::SeqCst);
    }

    /// Sum across shards.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::SeqCst)).sum()
    }
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::SeqCst);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::SeqCst);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// Metric family type, driving the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One labeled series inside a family.
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// Closure-backed value read at render time (for numbers whose
    /// source of truth lives elsewhere, e.g. cache stats).
    Func(Box<dyn Fn() -> f64 + Send + Sync>),
}

impl fmt::Debug for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Series::Counter(c) => f.debug_tuple("Counter").field(&c.get()).finish(),
            Series::Gauge(g) => f.debug_tuple("Gauge").field(&g.get()).finish(),
            Series::Histogram(_) => f.write_str("Histogram(..)"),
            Series::Func(_) => f.write_str("Func(..)"),
        }
    }
}

#[derive(Debug)]
struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    series: Vec<(Vec<(String, String)>, Series)>,
}

#[derive(Debug, Default)]
struct Inner {
    families: Vec<Family>,
    index: HashMap<&'static str, usize>,
}

/// The metrics registry: families of labeled series, rendered as
/// Prometheus text by [`Metrics::render`]. Handle creation takes a
/// write lock; recording through returned handles is lock-free.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: RwLock<Inner>,
}

/// Escape a label value per the Prometheus text format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render an f64 without a trailing `.0` for whole numbers.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn with_series<T>(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
        extract: impl Fn(&Series) -> Option<T>,
    ) -> T {
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        if let Some(found) = {
            let inner = self.inner.read().expect("metrics registry poisoned");
            inner.index.get(name).and_then(|&fi| {
                let family = &inner.families[fi];
                assert_eq!(
                    family.kind, kind,
                    "metric {name} re-registered as a different type"
                );
                family
                    .series
                    .iter()
                    .find(|(l, _)| *l == owned)
                    .map(|(_, s)| extract(s).expect("series type matches family kind"))
            })
        } {
            return found;
        }
        let mut inner = self.inner.write().expect("metrics registry poisoned");
        let fi = match inner.index.get(name) {
            Some(&fi) => fi,
            None => {
                let fi = inner.families.len();
                inner.families.push(Family {
                    name,
                    help,
                    kind,
                    series: Vec::new(),
                });
                inner.index.insert(name, fi);
                fi
            }
        };
        let family = &mut inner.families[fi];
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered as a different type"
        );
        if let Some((_, existing)) = family.series.iter().find(|(l, _)| *l == owned) {
            return extract(existing).expect("series type matches family kind");
        }
        let series = make();
        let out = extract(&series).expect("freshly made series matches kind");
        family.series.push((owned, series));
        out
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or create a labeled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.with_series(
            name,
            help,
            Kind::Counter,
            labels,
            || Series::Counter(Arc::new(Counter::new())),
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a labeled gauge.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.with_series(
            name,
            help,
            Kind::Gauge,
            labels,
            || Series::Gauge(Arc::new(Gauge::default())),
            |s| match s {
                Series::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get or create a labeled histogram over `edges`.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        edges: Edges,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.with_series(
            name,
            help,
            Kind::Histogram,
            labels,
            move || Series::Histogram(Arc::new(Histogram::new(edges))),
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Register a closure-backed series rendered under a counter
    /// family. Registering the same (name, labels) again replaces the
    /// closure.
    pub fn func_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register_func(name, help, Kind::Counter, labels, Box::new(f));
    }

    /// Register a closure-backed series rendered under a gauge family.
    /// Registering the same (name, labels) again replaces the closure.
    pub fn func_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register_func(name, help, Kind::Gauge, labels, Box::new(f));
    }

    fn register_func(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, &str)],
        f: Box<dyn Fn() -> f64 + Send + Sync>,
    ) {
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        let mut inner = self.inner.write().expect("metrics registry poisoned");
        let fi = match inner.index.get(name) {
            Some(&fi) => fi,
            None => {
                let fi = inner.families.len();
                inner.families.push(Family {
                    name,
                    help,
                    kind,
                    series: Vec::new(),
                });
                inner.index.insert(name, fi);
                fi
            }
        };
        let family = &mut inner.families[fi];
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered as a different type"
        );
        if let Some(slot) = family.series.iter_mut().find(|(l, _)| *l == owned) {
            slot.1 = Series::Func(f);
        } else {
            family.series.push((owned, Series::Func(f)));
        }
    }

    /// Render the whole registry as Prometheus text. Output is
    /// deterministic: families in registration order, series sorted by
    /// label values, bucket edges fixed by [`Edges`].
    #[must_use]
    pub fn render(&self) -> String {
        let inner = self.inner.read().expect("metrics registry poisoned");
        let mut out = String::with_capacity(16 * 1024);
        for family in &inner.families {
            if family.series.is_empty() {
                continue;
            }
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind.name()));
            let mut order: Vec<usize> = (0..family.series.len()).collect();
            order.sort_by(|&a, &b| family.series[a].0.cmp(&family.series[b].0));
            for i in order {
                let (labels, series) = &family.series[i];
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            c.get()
                        ));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            g.get()
                        ));
                    }
                    Series::Func(f) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            fmt_value(f())
                        ));
                    }
                    Series::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (bucket, &n) in snap.counts.iter().enumerate() {
                            cumulative += n;
                            let le = match snap.edges.get(bucket) {
                                Some(&edge) => match snap.unit {
                                    Unit::Nanos => hist::fmt_seconds(edge),
                                    Unit::Count => format!("{edge}"),
                                },
                                None => "+Inf".to_string(),
                            };
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                family.name,
                                render_labels(labels, Some(("le", &le))),
                                cumulative
                            ));
                        }
                        let sum = match snap.unit {
                            Unit::Nanos => fmt_value(snap.sum as f64 / 1e9),
                            Unit::Count => format!("{}", snap.sum),
                        };
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            sum
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Pre-created request counters for one normalized route.
#[derive(Debug)]
pub struct RouteSlot {
    /// Requests dispatched to this route.
    pub requests_total: Arc<Counter>,
    /// Handler wall time for this route (nanoseconds recorded, seconds
    /// exposed).
    pub duration: Arc<Histogram>,
}

/// Vfs operation kinds counted by the metered wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsOp {
    /// `VfsFile::write_all`.
    Write,
    /// `VfsFile::sync_data` and `Vfs::sync_dir`.
    Sync,
    /// `VfsFile::set_len` (journal truncation on failed appends).
    SetLen,
    /// `Vfs::create`.
    Create,
    /// `Vfs::open_append`.
    OpenAppend,
    /// `Vfs::read_to_string`.
    Read,
    /// `Vfs::rename` (atomic snapshot installs).
    Rename,
    /// `Vfs::remove_file`.
    Remove,
    /// `Vfs::create_dir_all`.
    Mkdir,
    /// Metadata reads: `list_dir`, `is_dir`, `exists`, `VfsFile::len`.
    Stat,
}

/// Every [`VfsOp`], for iteration during registration.
const VFS_OPS: [VfsOp; 10] = [
    VfsOp::Write,
    VfsOp::Sync,
    VfsOp::SetLen,
    VfsOp::Create,
    VfsOp::OpenAppend,
    VfsOp::Read,
    VfsOp::Rename,
    VfsOp::Remove,
    VfsOp::Mkdir,
    VfsOp::Stat,
];

impl VfsOp {
    /// Stable label value for `easeml_vfs_ops_total{op=...}`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VfsOp::Write => "write",
            VfsOp::Sync => "sync",
            VfsOp::SetLen => "set_len",
            VfsOp::Create => "create",
            VfsOp::OpenAppend => "open_append",
            VfsOp::Read => "read",
            VfsOp::Rename => "rename",
            VfsOp::Remove => "remove",
            VfsOp::Mkdir => "mkdir",
            VfsOp::Stat => "stat",
        }
    }

    fn index(self) -> usize {
        VFS_OPS
            .iter()
            .position(|&op| op == self)
            .expect("listed op")
    }
}

/// Handles for the metered [`crate::vfs::Vfs`] wrapper: per-op counts,
/// byte totals, per-op latency for the expensive ops, and
/// journal/snapshot-specific rollups.
#[derive(Debug, Clone)]
pub struct VfsMetrics {
    ops: [Arc<Counter>; 10],
    write_latency: Arc<Histogram>,
    sync_latency: Arc<Histogram>,
    /// Bytes written through the facade.
    pub write_bytes_total: Arc<Counter>,
    /// Journal record appends (writes to journal segments).
    pub journal_appends_total: Arc<Counter>,
    /// Bytes appended to journals.
    pub journal_bytes_total: Arc<Counter>,
    /// `sync_data` calls on journal files.
    pub journal_fsyncs_total: Arc<Counter>,
    /// Atomic snapshot installs (renames landing on `snapshot.json`).
    pub snapshot_writes_total: Arc<Counter>,
}

impl VfsMetrics {
    fn new(registry: &Metrics) -> VfsMetrics {
        VfsMetrics {
            ops: std::array::from_fn(|i| {
                registry.counter_with(
                    "easeml_vfs_ops_total",
                    "Vfs facade operations by kind.",
                    &[("op", VFS_OPS[i].name())],
                )
            }),
            write_latency: registry.histogram_with(
                "easeml_vfs_op_seconds",
                "Latency of expensive Vfs operations.",
                Edges::time(),
                &[("op", "write")],
            ),
            sync_latency: registry.histogram_with(
                "easeml_vfs_op_seconds",
                "Latency of expensive Vfs operations.",
                Edges::time(),
                &[("op", "sync")],
            ),
            write_bytes_total: registry.counter(
                "easeml_vfs_write_bytes_total",
                "Bytes written through the Vfs facade.",
            ),
            journal_appends_total: registry.counter(
                "easeml_journal_appends_total",
                "Write calls landing on a project journal.",
            ),
            journal_bytes_total: registry.counter(
                "easeml_journal_bytes_total",
                "Bytes appended to project journals.",
            ),
            journal_fsyncs_total: registry.counter(
                "easeml_journal_fsyncs_total",
                "sync_data calls on project journals.",
            ),
            snapshot_writes_total: registry.counter(
                "easeml_snapshot_writes_total",
                "Atomic snapshot installs (renames onto snapshot.json).",
            ),
        }
    }

    /// Count one operation of the given kind.
    pub fn op(&self, op: VfsOp) {
        self.ops[op.index()].inc();
    }

    /// Record a write's latency (nanoseconds).
    pub fn write_latency(&self, dur_ns: u64) {
        self.write_latency.record(dur_ns);
    }

    /// Record an fsync's latency (nanoseconds).
    pub fn sync_latency(&self, dur_ns: u64) {
        self.sync_latency.record(dur_ns);
    }
}

/// Status classes for `easeml_responses_total{class=...}`.
const STATUS_CLASSES: [&str; 5] = ["1xx", "2xx", "3xx", "4xx", "5xx"];

/// A gate decision, as `easeml_gate_outcomes_total` labels it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOutcome {
    /// The commit passed.
    Pass,
    /// The commit failed.
    Fail,
    /// The decision spent the era's last budget step.
    BudgetExhausted,
}

impl GateOutcome {
    /// The `outcome` label value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GateOutcome::Pass => "pass",
            GateOutcome::Fail => "fail",
            GateOutcome::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// One project's `easeml_gate_outcomes_total` handles, one per
/// [`GateOutcome`]. Each is resolved from the registry the first time
/// its outcome occurs — so a series still appears in `/metrics` with
/// its first count — and incremented through the handle after, without
/// the registry lock or a scan of every project's series.
#[derive(Debug, Default)]
pub struct OutcomeCounters([Option<Arc<Counter>>; 3]);

/// Pre-created handles for every always-on serving metric. Hot paths
/// record through these without touching the registry lock; the
/// per-project gate-outcome counters are resolved once per project and
/// outcome and held in the project's [`OutcomeCounters`].
#[derive(Debug)]
pub struct ServeMetrics {
    /// The backing registry (rendered by `GET /metrics`).
    pub registry: Metrics,
    next_request_id: AtomicU64,
    routes: HashMap<&'static str, RouteSlot>,
    fallback_route: RouteSlot,
    stage_hist: [Arc<Histogram>; STAGE_COUNT],
    status_classes: [Arc<Counter>; 5],
    /// Requests whose traced total exceeded `--slow-request-ms`.
    pub slow_requests_total: Arc<Counter>,
    /// Poller wait calls by the event loop.
    pub loop_polls_total: Arc<Counter>,
    /// Wake-pipe firings observed by the event loop.
    pub loop_wakeups_total: Arc<Counter>,
    /// Readiness events delivered by the poller.
    pub loop_ready_events_total: Arc<Counter>,
    /// Ready-batch size distribution per poller wait.
    pub loop_ready_batch: Arc<Histogram>,
    /// Deadline timers fired.
    pub loop_timer_fires_total: Arc<Counter>,
    /// Requests handled inline on the event thread.
    pub dispatch_inline_total: Arc<Counter>,
    /// Requests dispatched to the worker pool.
    pub dispatch_pool_total: Arc<Counter>,
    /// Accepted connections.
    pub connections_accepted_total: Arc<Counter>,
    /// Closed connections.
    pub connections_closed_total: Arc<Counter>,
    /// Currently open connections.
    pub connections_open: Arc<Gauge>,
    /// accept() failures that triggered backoff.
    pub accept_errors_total: Arc<Counter>,
    /// Requests failed by the request-deadline timer.
    pub request_timeouts_total: Arc<Counter>,
    /// Requests shed by admission control (503 + Retry-After).
    pub shed_total: Arc<Counter>,
    /// Journal append failures (drives degraded mode).
    pub journal_append_failures_total: Arc<Counter>,
    /// Vfs facade handles.
    pub vfs: VfsMetrics,
}

impl ServeMetrics {
    /// Build the full always-on catalog, pre-creating one
    /// requests/duration pair per route in `routes`.
    #[must_use]
    pub fn new(routes: &[&'static str]) -> ServeMetrics {
        let registry = Metrics::new();
        let route_slot = |name: &'static str| RouteSlot {
            requests_total: registry.counter_with(
                "easeml_requests_total",
                "Requests dispatched, by normalized route.",
                &[("route", name)],
            ),
            duration: registry.histogram_with(
                "easeml_request_duration_seconds",
                "Route handler wall time.",
                Edges::time(),
                &[("route", name)],
            ),
        };
        let routes_map: HashMap<&'static str, RouteSlot> = routes
            .iter()
            .map(|&name| (name, route_slot(name)))
            .collect();
        let fallback_route = route_slot("other");
        let stage_hist = std::array::from_fn(|i| {
            registry.histogram_with(
                "easeml_request_stage_seconds",
                "Per-request stage durations.",
                Edges::time(),
                &[("stage", STAGES[i].name())],
            )
        });
        let status_classes = std::array::from_fn(|i| {
            registry.counter_with(
                "easeml_responses_total",
                "Responses by status class.",
                &[("class", STATUS_CLASSES[i])],
            )
        });
        let vfs = VfsMetrics::new(&registry);
        ServeMetrics {
            next_request_id: AtomicU64::new(1),
            routes: routes_map,
            fallback_route,
            stage_hist,
            status_classes,
            slow_requests_total: registry.counter(
                "easeml_slow_requests_total",
                "Requests exceeding the --slow-request-ms threshold.",
            ),
            loop_polls_total: registry.counter(
                "easeml_loop_polls_total",
                "Poller wait calls by the event loop.",
            ),
            loop_wakeups_total: registry.counter(
                "easeml_loop_wakeups_total",
                "Wake-pipe firings observed by the event loop.",
            ),
            loop_ready_events_total: registry.counter(
                "easeml_loop_ready_events_total",
                "Readiness events delivered by the poller.",
            ),
            loop_ready_batch: registry.histogram_with(
                "easeml_loop_ready_batch",
                "Ready-event batch size per poller wait.",
                Edges::pow2(10),
                &[],
            ),
            loop_timer_fires_total: registry.counter(
                "easeml_loop_timer_fires_total",
                "Deadline timers fired by the event loop's deadline heap.",
            ),
            dispatch_inline_total: registry.counter(
                "easeml_dispatch_inline_total",
                "Requests handled inline on the event thread.",
            ),
            dispatch_pool_total: registry.counter(
                "easeml_dispatch_pool_total",
                "Requests dispatched to the worker pool.",
            ),
            connections_accepted_total: registry
                .counter("easeml_connections_accepted_total", "Accepted connections."),
            connections_closed_total: registry
                .counter("easeml_connections_closed_total", "Closed connections."),
            connections_open: registry
                .gauge("easeml_connections_open", "Currently open connections."),
            accept_errors_total: registry.counter(
                "easeml_accept_errors_total",
                "accept() failures that triggered listener backoff.",
            ),
            request_timeouts_total: registry.counter(
                "easeml_request_timeouts_total",
                "Requests failed by the request-deadline timer.",
            ),
            shed_total: registry.counter(
                "easeml_shed_total",
                "Requests shed by admission control (503 + Retry-After).",
            ),
            journal_append_failures_total: registry.counter(
                "easeml_journal_append_failures_total",
                "Journal append failures (drives degraded mode).",
            ),
            vfs,
            registry,
        }
    }

    /// Allocate the next process-wide request id (monotonic from 1).
    #[must_use]
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The pre-created slot for a normalized route name (falls back to
    /// the `"other"` slot for unknown names).
    #[must_use]
    pub fn route(&self, name: &'static str) -> &RouteSlot {
        self.routes.get(name).unwrap_or(&self.fallback_route)
    }

    /// The per-stage latency histogram.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stage_hist[stage.index()]
    }

    /// Feed a completed stage vector into the per-stage histograms
    /// (zero stages are skipped — they didn't run).
    pub fn observe_stages(&self, stages_ns: &[u64; STAGE_COUNT]) {
        for stage in STAGES {
            let stage_ns = stages_ns[stage.index()];
            if stage_ns > 0 {
                self.stage_hist[stage.index()].record(stage_ns);
            }
        }
    }

    /// Count a response under its status class.
    pub fn count_status(&self, status: u16) {
        let class = (usize::from(status) / 100).clamp(1, 5) - 1;
        self.status_classes[class].inc();
    }

    /// Count a gate decision for `project` through its handles in
    /// `counters`, resolving the outcome's handle on its first use.
    pub fn gate_outcome(
        &self,
        counters: &mut OutcomeCounters,
        project: &str,
        outcome: GateOutcome,
    ) {
        counters.0[outcome as usize]
            .get_or_insert_with(|| {
                self.registry.counter_with(
                    "easeml_gate_outcomes_total",
                    "Gate decisions by project and outcome.",
                    &[("project", project), ("outcome", outcome.label())],
                )
            })
            .inc();
    }

    /// Count a rejected submission (never reached a gate decision) by
    /// error kind.
    pub fn gate_rejection(&self, kind: &str) {
        self.registry
            .counter_with(
                "easeml_gate_rejections_total",
                "Submissions rejected before a gate decision, by error kind.",
                &[("kind", kind)],
            )
            .inc();
    }
}

/// Everything the serving stack shares for observability: the metric
/// handles, the slow-request ring, and the slow threshold.
#[derive(Debug)]
pub struct ServeObs {
    /// Metric handle bundle + registry.
    pub metrics: ServeMetrics,
    /// Recent slow-request traces (`GET /admin/trace`).
    pub ring: TraceRing,
    /// Threshold above which a request is slow-logged, in milliseconds.
    pub slow_request_ms: u64,
    /// `Poller::modify` calls the event loop made (interest changes).
    #[cfg(test)]
    pub(crate) interest_changes: Counter,
}

impl ServeObs {
    /// Build the bundle for the given route names and slow threshold.
    #[must_use]
    pub fn new(routes: &[&'static str], slow_request_ms: u64) -> ServeObs {
        ServeObs {
            metrics: ServeMetrics::new(routes),
            ring: TraceRing::new(),
            slow_request_ms,
            #[cfg(test)]
            interest_changes: Counter::new(),
        }
    }

    /// The slow threshold in nanoseconds.
    #[must_use]
    pub fn slow_ns(&self) -> u64 {
        self.slow_request_ms.saturating_mul(1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip_through_render() {
        let metrics = Metrics::new();
        let c = metrics.counter_with("test_total", "A counter.", &[("k", "v")]);
        c.add(41);
        c.inc();
        let g = metrics.gauge("test_depth", "A gauge.");
        g.set(5);
        g.add(-2);
        metrics.func_gauge("test_func", "A func gauge.", &[], || 2.5);
        let text = metrics.render();
        let expo = expo::parse(&text).expect("own render parses");
        assert_eq!(expo.value("test_total", &[("k", "v")]), Some(42.0));
        assert_eq!(expo.value("test_depth", &[]), Some(3.0));
        assert_eq!(expo.value("test_func", &[]), Some(2.5));
        assert_eq!(expo.types["test_total"], "counter");
        assert_eq!(expo.types["test_depth"], "gauge");
    }

    #[test]
    fn handle_creation_is_idempotent() {
        let metrics = Metrics::new();
        let a = metrics.counter("dup_total", "help");
        let b = metrics.counter("dup_total", "help");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same underlying counter");
        let h1 = metrics.histogram_with("h_seconds", "h", Edges::time(), &[("r", "x")]);
        let h2 = metrics.histogram_with("h_seconds", "h", Edges::time(), &[("r", "x")]);
        h1.record(1);
        assert_eq!(h2.snapshot().count, 1);
    }

    #[test]
    fn histogram_renders_cumulative_buckets_and_inf() {
        let metrics = Metrics::new();
        let h = metrics.histogram_with("lat_seconds", "Latency.", Edges::time(), &[]);
        h.record(500); // <= 1000 ns bucket
        h.record(1_200); // <= 1414 ns bucket
        h.record(u64::MAX); // overflow
        let expo = expo::parse(&metrics.render()).unwrap();
        assert_eq!(
            expo.value("lat_seconds_bucket", &[("le", "0.000001")]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("lat_seconds_bucket", &[("le", "0.000001414")]),
            Some(2.0)
        );
        assert_eq!(
            expo.value("lat_seconds_bucket", &[("le", "+Inf")]),
            Some(3.0)
        );
        assert_eq!(expo.value("lat_seconds_count", &[]), Some(3.0));
    }

    #[test]
    fn render_is_deterministically_ordered() {
        let build = || {
            let metrics = Metrics::new();
            // Insert series in shuffled order; render must sort them.
            for route in ["zeta", "alpha", "mid"] {
                metrics
                    .counter_with("r_total", "By route.", &[("route", route)])
                    .inc();
            }
            metrics.render()
        };
        assert_eq!(build(), build());
        let text = build();
        let alpha = text.find("route=\"alpha\"").unwrap();
        let zeta = text.find("route=\"zeta\"").unwrap();
        assert!(alpha < zeta, "series sorted by labels");
    }

    #[test]
    fn serve_metrics_routes_and_status_classes() {
        let metrics = ServeMetrics::new(&["commit", "healthz"]);
        metrics.route("commit").requests_total.inc();
        metrics.route("unknown-route").requests_total.inc();
        metrics.count_status(200);
        metrics.count_status(503);
        metrics.gate_outcome(&mut OutcomeCounters::default(), "demo", GateOutcome::Pass);
        metrics.gate_rejection("conflict");
        assert_eq!(metrics.next_request_id(), 1);
        assert_eq!(metrics.next_request_id(), 2);
        let expo = expo::parse(&metrics.registry.render()).unwrap();
        assert_eq!(
            expo.value("easeml_requests_total", &[("route", "commit")]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("easeml_requests_total", &[("route", "other")]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("easeml_responses_total", &[("class", "2xx")]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("easeml_responses_total", &[("class", "5xx")]),
            Some(1.0)
        );
        assert_eq!(
            expo.value(
                "easeml_gate_outcomes_total",
                &[("project", "demo"), ("outcome", "pass")]
            ),
            Some(1.0)
        );
    }

    /// Outcome handles held per project render exactly what a registry
    /// lookup per decision rendered, over many projects: no series
    /// before its first count, every count after, and each handle is
    /// the registry's own series.
    #[test]
    fn outcome_handles_render_like_per_decision_lookups() {
        const PROJECTS: usize = 300;
        let (by_handle, by_lookup) = (ServeMetrics::new(&[]), ServeMetrics::new(&[]));
        let mut handles: Vec<OutcomeCounters> =
            (0..PROJECTS).map(|_| OutcomeCounters::default()).collect();
        let outcomes = [
            GateOutcome::Pass,
            GateOutcome::Fail,
            GateOutcome::BudgetExhausted,
        ];
        for i in 0..6_000usize {
            let project = i * 7_919 % PROJECTS;
            // Every third project never exhausts its budget, so some
            // series stay absent.
            let outcome = outcomes[i * 31 % 7 % 3 % (2 + usize::from(!project.is_multiple_of(3)))];
            let name = format!("project-{project}");
            by_handle.gate_outcome(&mut handles[project], &name, outcome);
            by_lookup
                .registry
                .counter_with(
                    "easeml_gate_outcomes_total",
                    "Gate decisions by project and outcome.",
                    &[("project", &name), ("outcome", outcome.label())],
                )
                .inc();
        }
        let text = by_handle.registry.render();
        assert_eq!(text, by_lookup.registry.render());
        assert!(!text.contains("project=\"project-0\",outcome=\"budget_exhausted\""));
        let series = by_handle.registry.counter_with(
            "easeml_gate_outcomes_total",
            "Gate decisions by project and outcome.",
            &[("project", "project-1"), ("outcome", "pass")],
        );
        let held = handles[1].0[GateOutcome::Pass as usize].as_ref();
        assert!(held.is_some_and(|held| Arc::ptr_eq(held, &series)));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_is_a_registration_bug() {
        let metrics = Metrics::new();
        let _ = metrics.counter("clash", "help");
        let _ = metrics.gauge("clash", "help");
    }
}
