//! The HTTP service: routing, connection handling on the `easeml-par`
//! pool, and lifecycle (boot replay, graceful stop, durable shutdown).
//!
//! # Endpoints
//!
//! | Method | Path                                    | Purpose |
//! |--------|-----------------------------------------|---------|
//! | GET    | `/healthz`                              | liveness + readiness (degraded state, in-flight depth, shed counts) |
//! | GET    | `/projects`                             | sorted project listing |
//! | POST   | `/projects`                             | register `{name, script[, testset]}` → estimate + budget |
//! | GET    | `/projects/{name}`                      | status (era, budget, estimate, testset) |
//! | POST   | `/projects/{name}/commits`              | gate a commit's evaluation counts |
//! | POST   | `/projects/{name}/commits/predictions`  | gate raw prediction vectors (server measures) |
//! | GET    | `/projects/{name}/history`              | full evaluation history |
//! | GET    | `/projects/{name}/budget`               | adaptivity budget status |
//! | POST   | `/projects/{name}/testset`              | fresh era (`{testset}` body for server-measured projects) |
//! | GET    | `/cache/stats`                          | per-cache (bounds vs. plan) hit/miss/entry counters |
//! | GET    | `/metrics`                              | Prometheus-style text exposition of every serving metric |
//! | GET    | `/admin/trace`                          | recent slow-request stage traces (see `--slow-request-ms`) |
//! | POST   | `/admin/persist`                        | snapshot all projects |
//! | POST   | `/admin/shutdown`                       | graceful stop (flush durable state, then exit `run`) |
//!
//! # Trust model
//!
//! `/commits` trusts the client's evaluation counts (the developer's CI
//! job measured its own predictions). `/commits/predictions` inverts
//! that: the *server* holds the testset — uploaded at registration,
//! optionally with the ground truth held back behind the serving-side
//! label oracle — scores both prediction vectors itself through the core
//! measurement layer, spends labels only where the condition's
//! [`easeml_ci_core::LabelDemand`] requires them, and derives the same
//! `EvalCounts` the counts gate consumes. Both paths share one gate code
//! path, making counts↔predictions equivalence a structural invariant.
//! The two modes are mutually exclusive per project: a server-measured
//! project refuses client counts (fabricated counts must not bypass the
//! held-back testset), and a counts project refuses vector uploads.
//!
//! # Concurrency
//!
//! Connections are owned by the event-driven core in `crate::net`:
//! one readiness loop multiplexes every keep-alive socket and parses
//! requests incrementally. µs-scale requests (gate commits, status
//! reads — see `RouteHandler::inline`) execute directly on the event
//! thread; only expensive ones (registration's plan search,
//! `/admin/persist` snapshots) are spawned as jobs on one
//! [`easeml_par::Pool::scope`] — so `--threads N` bounds concurrent
//! *expensive* handlers exactly like it bounds every other fan-out in
//! the workspace, while idle connections cost no worker at all. Pool responses return to the event loop
//! through a completion queue and wake pipe. Under `group` durability
//! the loop also runs the group-commit round of the commits it handled,
//! once per readiness sweep (see `crate::net`). All gate mutations
//! serialize on the owning project's lock (see [`crate::store`] for the
//! resulting determinism contract), which keeps journal bytes identical
//! across worker widths.

use crate::error::ServeError;
use crate::http::{Request, Response};
use crate::json::{JsonError, JsonWriter, Reader, Value};
use crate::net::{NetConfig, ReqMeta, WakeHub};
use crate::obs::trace::{self, Stage, TraceRec};
use crate::obs::{Counter, GateOutcome, ServeObs};
use crate::record::{commit_members, decode_document, decode_project, TestsetFields};
use crate::registry::{
    serving_estimator, CommitSubmission, EvalCounts, GateReceipt, MeasuredTestset,
    PackedPredictions, Project, TestsetSpec, WireVector,
};
use crate::store::{
    group, tribool_str, write_history_entry_fields, write_per_class, Durability, GroupMetrics,
    Registry,
};
use crate::vfs::{MeteredVfs, RealVfs, Vfs};
use easeml_ci_core::{effort, AlarmReason, BoundsCache, CostModel, EstimateProvenance, PlanCache};
use easeml_par::Pool;
use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default for [`ServeConfig::idle_timeout_ms`]. Idle keep-alive
/// connections no longer occupy a pool worker, so this is generous where
/// the blocking server's 500 ms was a pool-starvation workaround.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 30_000;

/// Default for [`ServeConfig::request_timeout_ms`]: once a request's
/// first byte has arrived, the peer gets this long to deliver the rest
/// (head + body). Requests may freely span packets and short stalls;
/// only a genuinely stalled peer is cut off.
pub const DEFAULT_REQUEST_TIMEOUT_MS: u64 = 2_000;

/// Default for [`ServeConfig::degraded_after`]: consecutive durable-write
/// failures on mutating routes before the server drops into read-only
/// degraded mode. One failure can be a blip worth retrying against; a
/// streak means the disk (or quota) is genuinely gone.
pub const DEFAULT_DEGRADED_AFTER: u32 = 3;

/// The `Retry-After` value (seconds) attached to admission-shed 503s.
/// Pool-bound work is tens of milliseconds, so one second from now the
/// queue that shed this request has almost certainly drained.
pub const SHED_RETRY_AFTER_SECS: u32 = 1;

/// Default for [`ServeConfig::slow_request_ms`]. Inline routes finish in
/// microseconds and registrations in tens of milliseconds, so a quarter
/// second of end-to-end latency is pathological on every route.
pub const DEFAULT_SLOW_REQUEST_MS: u64 = 250;

/// Every normalized route name, for pre-creating the per-route metric
/// series (so `/metrics` exposes the full catalog from the first
/// scrape, and hot paths never take the registry write lock).
const ROUTE_NAMES: [&str; 14] = [
    "healthz",
    "metrics",
    "projects_list",
    "register",
    "status",
    "commit",
    "commit_predictions",
    "history",
    "budget",
    "testset",
    "cache_stats",
    "admin_persist",
    "admin_trace",
    "admin_shutdown",
];

/// Normalize a request to its route name for metric labels. Unknown
/// paths (404s) collapse into `"other"` so cardinality stays bounded no
/// matter what clients probe.
fn route_name(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["projects"]) => "projects_list",
        ("POST", ["projects"]) => "register",
        ("GET", ["projects", _]) => "status",
        ("POST", ["projects", _, "commits"]) => "commit",
        ("POST", ["projects", _, "commits", "predictions"]) => "commit_predictions",
        ("GET", ["projects", _, "history"]) => "history",
        ("GET", ["projects", _, "budget"]) => "budget",
        ("POST", ["projects", _, "testset"]) => "testset",
        ("GET", ["cache", "stats"]) => "cache_stats",
        ("POST", ["admin", "persist"]) => "admin_persist",
        ("GET", ["admin", "trace"]) => "admin_trace",
        ("POST", ["admin", "shutdown"]) => "admin_shutdown",
        _ => "other",
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `host:port` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Durable state directory (created if missing).
    pub data_dir: PathBuf,
    /// Worker threads for request handling; `0` uses the process-wide
    /// pool ([`Pool::global`]).
    pub threads: usize,
    /// Close a keep-alive connection after this many milliseconds
    /// without a request.
    pub idle_timeout_ms: u64,
    /// Budget in milliseconds from a request's first byte to its fully
    /// parsed form; a peer stalling longer mid-request gets a 400.
    pub request_timeout_ms: u64,
    /// Cap on pool-bound requests admitted concurrently (registration,
    /// `/admin/persist`); one more is shed with `503` + `Retry-After`.
    /// `0` sizes it automatically to twice the worker-pool width —
    /// enough queue to keep every worker busy, shallow enough that
    /// admitted requests never wait behind a long backlog.
    pub max_inflight: usize,
    /// Consecutive durable-write failures on mutating routes before the
    /// server degrades to read-only (`0` disables degradation; failures
    /// then surface only as per-request 500s).
    pub degraded_after: u32,
    /// A request whose traced end-to-end time exceeds this many
    /// milliseconds emits one structured slow-log line on stderr and an
    /// entry in the `GET /admin/trace` ring (`0` traces every request —
    /// useful in tests, ruinous in production).
    pub slow_request_ms: u64,
    /// Injected filesystem for the durability layer (`None` = the real
    /// filesystem). Every file the server reads or writes goes through
    /// it.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// When acknowledgements become durable: `group` (the default)
    /// batches the journal fsyncs of the commits the event loop handles
    /// in one readiness sweep into one group-commit round, which the
    /// loop runs before it sleeps, and releases their responses once
    /// the round lands; `relaxed` acknowledges commits before any
    /// fsync and syncs the journal inline every
    /// [`crate::store::SNAPSHOT_EVERY`] ops, so a power cut may lose the
    /// acked commits since the last such sync. Registrations fsync and
    /// rename their own record before answering, in both modes. See
    /// [`crate::store::Durability`].
    pub durability: Durability,
}

impl ServeConfig {
    /// Config with the standard defaults for `data_dir`.
    #[must_use]
    pub fn new(addr: impl Into<String>, data_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            data_dir: data_dir.into(),
            threads: 0,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            request_timeout_ms: DEFAULT_REQUEST_TIMEOUT_MS,
            max_inflight: 0,
            degraded_after: DEFAULT_DEGRADED_AFTER,
            slow_request_ms: DEFAULT_SLOW_REQUEST_MS,
            vfs: None,
            durability: Durability::default(),
        }
    }
}

/// Liveness counters shared between the event core (admission control)
/// and the routing layer (degraded-mode gating, `/healthz` reporting).
/// The monotone counters are handles into the metrics registry, so
/// `/healthz` and `/metrics` report the same numbers by construction.
#[derive(Debug)]
pub(crate) struct ServeStats {
    max_inflight: usize,
    inflight: AtomicUsize,
    shed_total: Arc<Counter>,
    journal_failures_total: Arc<Counter>,
    journal_failure_streak: AtomicU32,
    degraded_after: u32,
    read_only: AtomicBool,
}

impl ServeStats {
    fn new(max_inflight: usize, degraded_after: u32, obs: &ServeObs) -> ServeStats {
        ServeStats {
            max_inflight,
            inflight: AtomicUsize::new(0),
            shed_total: Arc::clone(&obs.metrics.shed_total),
            journal_failures_total: Arc::clone(&obs.metrics.journal_append_failures_total),
            journal_failure_streak: AtomicU32::new(0),
            degraded_after,
            read_only: AtomicBool::new(false),
        }
    }

    /// Try to take an in-flight slot for a pool-bound request. `false`
    /// means the request must be shed (the shed counter is bumped here).
    pub(crate) fn try_admit(&self) -> bool {
        let admitted = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.max_inflight).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.shed_total.inc();
        }
        admitted
    }

    /// Return an admitted request's in-flight slot.
    pub(crate) fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// A mutating route failed on durable I/O. A streak of
    /// `degraded_after` trips read-only mode (sticky until restart: the
    /// state that *caused* the streak — a full disk — does not heal by
    /// itself, and flapping in and out of read-only would turn client
    /// retries into a coin toss).
    pub(crate) fn note_durable_failure(&self) {
        self.journal_failures_total.inc();
        let streak = self.journal_failure_streak.fetch_add(1, Ordering::SeqCst) + 1;
        if self.degraded_after > 0 && streak >= self.degraded_after {
            self.read_only.store(true, Ordering::SeqCst);
        }
    }

    /// A mutating route succeeded: the disk is writable, reset the streak.
    fn note_durable_success(&self) {
        self.journal_failure_streak.store(0, Ordering::SeqCst);
    }

    /// Whether the server has degraded to read-only.
    pub(crate) fn read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }
}

/// A bound, state-loaded server, ready to [`Server::run`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    hub: Arc<WakeHub>,
    pool: Pool,
    net_cfg: NetConfig,
    stats: Arc<ServeStats>,
    obs: Arc<ServeObs>,
}

/// Remote control for a running [`Server`] (clonable, thread-safe).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hub: Arc<WakeHub>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop: sets the flag, wakes every event loop,
    /// and (belt and braces, for the window before the loops have
    /// registered their wake pipes) pokes the listener with a throwaway
    /// connection.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.hub.wake();
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind the listener and load durable state: the project registry
    /// from `data_dir`. The shared [`BoundsCache`] and [`PlanCache`]
    /// start cold; boot re-estimates every project through them.
    ///
    /// A corrupt project directory fails the boot — gate state must
    /// never silently diverge.
    ///
    /// # Errors
    ///
    /// Bind failures, I/O failures, and corrupt project state.
    pub fn bind(config: &ServeConfig) -> Result<Server, ServeError> {
        let obs = Arc::new(ServeObs::new(&ROUTE_NAMES, config.slow_request_ms));
        // Every byte of durable I/O flows through the metered facade —
        // counting wraps the configured filesystem without changing its
        // semantics (fault injection sees the same op indices).
        let meter = |base: Arc<dyn Vfs>| -> Arc<dyn Vfs> {
            Arc::new(MeteredVfs::new(base, obs.metrics.vfs.clone()))
        };
        let group_metrics = Some(GroupMetrics::register(&obs.metrics.registry));
        let vfs = config
            .vfs
            .clone()
            .unwrap_or_else(|| Arc::new(RealVfs) as Arc<dyn Vfs>);
        let registry = Registry::open_with_durability(
            &config.data_dir,
            serving_estimator(),
            meter(vfs),
            config.durability,
            group_metrics,
        )?;
        let listener = TcpListener::bind(&config.addr)?;
        let pool = if config.threads == 0 {
            *Pool::global()
        } else {
            Pool::new(config.threads)
        };
        let max_inflight = if config.max_inflight == 0 {
            pool.threads().max(1) * 2
        } else {
            config.max_inflight
        };
        let registry = Arc::new(registry);
        let stats = Arc::new(ServeStats::new(max_inflight, config.degraded_after, &obs));
        register_derived_metrics(&obs, &registry, &stats);
        Ok(Server {
            listener,
            registry,
            stop: Arc::new(AtomicBool::new(false)),
            hub: Arc::new(WakeHub::new()),
            pool,
            net_cfg: NetConfig {
                idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
                request_timeout: Duration::from_millis(config.request_timeout_ms.max(1)),
            },
            stats,
            obs,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Panics
    ///
    /// Panics if the socket address cannot be read back (not observed in
    /// practice on bound listeners).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// A remote-control handle (clone freely; works across threads).
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            stop: Arc::clone(&self.stop),
            hub: Arc::clone(&self.hub),
        }
    }

    /// Serve until [`ServerHandle::stop`] is called, then snapshot every
    /// project and return.
    ///
    /// # Errors
    ///
    /// Fatal event-loop setup failures and shutdown persistence
    /// failures.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            listener,
            registry,
            stop,
            hub,
            pool,
            net_cfg,
            stats,
            obs,
        } = self;
        let ctx = Ctx {
            registry: Arc::clone(&registry),
            stop: Arc::clone(&stop),
            hub: Arc::clone(&hub),
            addr: listener.local_addr().expect("bound listener has addr"),
            stats: Arc::clone(&stats),
            obs: Arc::clone(&obs),
        };
        let handler = RouteHandler { ctx };
        pool.scope(|scope| {
            // The loop runs a group-commit round after each sweep, so the
            // commits it handles inline leave their journal syncs to it.
            let _rounds = registry.defer_rounds();
            crate::net::serve(
                listener, &net_cfg, scope, &stop, &hub, &handler, &stats, &obs,
            )
        })?;
        // Durable shutdown: compact every project.
        registry.snapshot_all()?;
        Ok(())
    }
}

/// Register the closure-backed series whose source of truth lives
/// outside the registry: admission state, project count, degraded flag,
/// what boot recovery replayed, the stores' survived I/O failures, and
/// the core cache counters. `/healthz`, `/cache/stats`, and `/metrics`
/// thereby report identical numbers by construction.
fn register_derived_metrics(obs: &ServeObs, registry: &Arc<Registry>, stats: &Arc<ServeStats>) {
    let metrics = &obs.metrics.registry;
    {
        let stats = Arc::clone(stats);
        metrics.func_gauge(
            "easeml_inflight",
            "Pool-bound requests currently admitted.",
            &[],
            move || stats.inflight.load(Ordering::SeqCst) as f64,
        );
    }
    {
        let stats = Arc::clone(stats);
        metrics.func_gauge(
            "easeml_max_inflight",
            "Admission cap on concurrent pool-bound requests.",
            &[],
            move || stats.max_inflight as f64,
        );
    }
    {
        let stats = Arc::clone(stats);
        metrics.func_gauge(
            "easeml_degraded",
            "1 when the server is in read-only degraded mode.",
            &[],
            move || f64::from(stats.read_only()),
        );
    }
    {
        let registry = Arc::clone(registry);
        metrics.func_gauge("easeml_projects", "Registered projects.", &[], move || {
            registry.len() as f64
        });
    }
    let boot = registry.boot_replay();
    metrics.func_counter(
        "easeml_boot_replay_ops_total",
        "Journal ops boot recovery replayed past snapshot watermarks.",
        &[],
        move || boot.ops as f64,
    );
    metrics.func_gauge(
        "easeml_boot_replay_seconds",
        "Wall time of boot recovery: records, snapshots, journal suffixes.",
        &[],
        move || boot.seconds,
    );
    metrics.func_counter(
        "easeml_boot_snapshot_bytes_total",
        "Bytes of snapshot.json boot recovery read.",
        &[],
        move || boot.snapshot_bytes as f64,
    );
    metrics.func_counter(
        "easeml_boot_journal_bytes_total",
        "Bytes of journal segments boot recovery read: those at or past each snapshot's watermark.",
        &[],
        move || boot.journal_bytes as f64,
    );
    let failures = Arc::clone(registry.store_failures());
    metrics.func_counter(
        "easeml_snapshot_failures_total",
        "Cadence snapshots that failed to land (journal intact, retried later).",
        &[],
        move || failures.snapshots.load(Ordering::Relaxed) as f64,
    );
    let failures = Arc::clone(registry.store_failures());
    metrics.func_counter(
        "easeml_journal_sync_failures_total",
        "Relaxed-mode inline journal syncs that failed (retried by the next).",
        &[],
        move || failures.journal_syncs.load(Ordering::Relaxed) as f64,
    );
    type CacheStatsFn = fn() -> easeml_ci_core::CacheStats;
    let caches: [(&str, CacheStatsFn); 2] = [
        ("bounds", || BoundsCache::global().stats()),
        ("plan", || PlanCache::global().stats()),
    ];
    for (label, stats_fn) in caches {
        metrics.func_counter(
            "easeml_cache_hits_total",
            "Core cache hits (same counters as /cache/stats).",
            &[("cache", label)],
            move || stats_fn().hits as f64,
        );
        metrics.func_counter(
            "easeml_cache_misses_total",
            "Core cache misses (same counters as /cache/stats).",
            &[("cache", label)],
            move || stats_fn().misses as f64,
        );
        metrics.func_gauge(
            "easeml_cache_entries",
            "Core cache resident entries.",
            &[("cache", label)],
            move || stats_fn().entries as f64,
        );
    }
}

/// Everything a request handler needs: the registry plus the stop flag,
/// wake hub, and bound address (for the `/admin/shutdown` route).
#[derive(Debug)]
struct Ctx {
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    hub: Arc<WakeHub>,
    addr: SocketAddr,
    stats: Arc<ServeStats>,
    obs: Arc<ServeObs>,
}

/// Routes requests for the event core and classifies them for its
/// inline fast path (see [`crate::net::Handler`]).
#[derive(Debug)]
struct RouteHandler {
    ctx: Ctx,
}

impl crate::net::Handler for RouteHandler {
    /// Route the request inside a stage trace: arm the thread-local
    /// slot, credit the wire stages the event core measured (parse,
    /// queue), let the deep layers (gate, measurement, journal, fsync,
    /// snapshot) report into the slot as they run, then fold the
    /// completed vector into the per-stage histograms and hand the
    /// [`TraceRec`] back on the response so the event loop can finish
    /// the response-write stage and apply the slow threshold.
    fn handle(&self, request: &Request, meta: &ReqMeta) -> Response {
        let metrics = &self.ctx.obs.metrics;
        let started = Instant::now();
        trace::begin();
        if let Some(received) = meta.received {
            trace::add(
                Stage::Parse,
                meta.parsed.saturating_duration_since(received),
            );
        }
        trace::add(Stage::Queue, started.saturating_duration_since(meta.parsed));
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let name = route_name(request.method.as_str(), &segments);
        let mut response = route(&self.ctx, request);
        // Group-commit durability: a mutating route deposits a waiter
        // for its journal bytes in a thread-local during the append.
        // Take it unconditionally — it must never leak into the next
        // request this thread handles — and hand it to the event core,
        // which parks the response until its sweep's round lands the
        // fsync. The handler-duration histogram below excludes that
        // wait: the loop credits it to the `durable_wait` stage.
        response.pending = group::take_pending();
        let handler_ns = trace::ns(started.elapsed());
        let mut stages_ns = trace::finish();
        stages_ns[Stage::Handler.index()] = handler_ns;
        let slot = metrics.route(name);
        slot.requests_total.inc();
        slot.duration.record(handler_ns);
        metrics.count_status(response.status);
        metrics.observe_stages(&stages_ns);
        response.trace = Some(Box::new(TraceRec {
            id: metrics.next_request_id(),
            route: name,
            status: response.status,
            stages_ns,
        }));
        response
    }

    /// Registration (`POST /projects`) runs the sample-size plan search
    /// and fsyncs its record and two directories (2.2 ms p50 cold with
    /// the record fsync alone in `results/BENCH_serve.json`,
    /// `registration.cold`), and
    /// `POST /admin/persist` snapshots every project with fsyncs; both
    /// belong on a pool worker.
    /// Every other route is µs-scale work against precomputed plan
    /// state (gate arithmetic, buffered journal appends, status reads)
    /// and gains far more from skipping the pool round-trip than the
    /// event loop loses hosting it.
    fn inline(&self, request: &Request) -> bool {
        if request.method != "POST" {
            return true;
        }
        let mut segments = request.path.split('/').filter(|s| !s.is_empty());
        !matches!(
            (segments.next(), segments.next(), segments.next()),
            (Some("projects"), None, None) | (Some("admin"), Some("persist"), None)
        )
    }

    fn round(&self) {
        self.ctx.registry.round();
    }
}

/// Whether a route writes durable project state. These are the routes
/// degraded mode refuses, and whose I/O failures feed the degradation
/// streak. Admin routes stay reachable in read-only mode — shutdown must
/// always work, and a persist attempt is how an operator probes whether
/// the disk recovered.
fn mutates_durable_state(method: &str, segments: &[&str]) -> bool {
    method == "POST"
        && matches!(
            segments,
            ["projects"]
                | ["projects", _, "commits"]
                | ["projects", _, "commits", "predictions"]
                | ["projects", _, "testset"]
        )
}

/// Dispatch one request.
fn route(ctx: &Ctx, request: &Request) -> Response {
    let registry: &Registry = &ctx.registry;
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let mutating = mutates_durable_state(method, &segments);
    if mutating && ctx.stats.read_only() {
        // Degraded: durable writes are persistently failing. Reads
        // (history, budget, status) keep working below; writes would
        // either fail anyway or — worse — ack state the disk cannot
        // hold. No Retry-After: this is not a transient queue.
        return Response::error_with_reason(
            503,
            "degraded_read_only",
            "service is read-only (degraded): durable writes are failing; \
             reads remain available",
        );
    }
    let result = match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(healthz(ctx)),
        ("GET", ["metrics"]) => Ok(Response::text(200, ctx.obs.metrics.registry.render())),
        ("GET", ["projects"]) => Ok(list_projects(registry)),
        ("POST", ["projects"]) => register_project(registry, request),
        ("GET", ["projects", name]) => project_status(registry, name),
        ("POST", ["projects", name, "commits"]) => {
            note_rejection(ctx, submit_commit(ctx, name, request))
        }
        ("POST", ["projects", name, "commits", "predictions"]) => {
            note_rejection(ctx, submit_predictions(ctx, name, request))
        }
        ("GET", ["projects", name, "history"]) => project_history(registry, name),
        ("GET", ["projects", name, "budget"]) => project_budget(registry, name),
        ("POST", ["projects", name, "testset"]) => fresh_testset(registry, name, request),
        ("GET", ["cache", "stats"]) => Ok(cache_stats()),
        ("GET", ["admin", "trace"]) => Ok(admin_trace(ctx)),
        ("POST", ["admin", "persist"]) => persist_all(ctx),
        ("POST", ["admin", "shutdown"]) => {
            // The graceful-stop path reachable from plain HTTP (the CLI
            // binary has no other signal channel): flag the stop, wake
            // every event loop, and let `Server::run` finish its
            // durable-shutdown sequence (snapshots + cache save). The
            // response itself is delivered by the drain: in-flight
            // dispatches finish writing before their connections close.
            ctx.stop.store(true, Ordering::SeqCst);
            ctx.hub.wake();
            let _ = TcpStream::connect(ctx.addr);
            Ok(Response::json(
                200,
                &Value::object([("stopping", Value::from(true))]),
            ))
        }
        _ => Err(ServeError::NotFound(format!(
            "no route for {method} {}",
            request.path
        ))),
    };
    if mutating {
        // Degradation tracking: any I/O failure on a durable-write route
        // is a journal/snapshot append that could not reach the disk.
        // Gate rejections (4xx) say nothing about the disk either way.
        match &result {
            Ok(_) => ctx.stats.note_durable_success(),
            Err(ServeError::Io(_)) => ctx.stats.note_durable_failure(),
            Err(_) => {}
        }
    }
    result.unwrap_or_else(|e| Response::error(e.status(), &e.to_string()))
}

/// `/healthz`: liveness (the process answers) plus readiness (whether
/// writes are being accepted) and the overload/degradation counters.
fn healthz(ctx: &Ctx) -> Response {
    let stats = &ctx.stats;
    let read_only = stats.read_only();
    Response::json(
        200,
        &Value::object([
            (
                "status",
                Value::from(if read_only { "degraded" } else { "ok" }),
            ),
            ("ready", Value::from(!read_only)),
            ("read_only", Value::from(read_only)),
            ("projects", Value::from(ctx.registry.len())),
            (
                "inflight",
                Value::from(stats.inflight.load(Ordering::SeqCst)),
            ),
            ("max_inflight", Value::from(stats.max_inflight)),
            ("shed_total", Value::from(stats.shed_total.get())),
            (
                "journal_append_failures",
                Value::from(stats.journal_failures_total.get()),
            ),
        ]),
    )
}

/// `/admin/trace`: the slow threshold plus the ring of recent
/// slow-request traces, oldest first.
fn admin_trace(ctx: &Ctx) -> Response {
    let entries: Vec<Value> = ctx
        .obs
        .ring
        .entries()
        .iter()
        .map(TraceRec::to_json)
        .collect();
    Response::json(
        200,
        &Value::object([
            ("slow_request_ms", Value::from(ctx.obs.slow_request_ms)),
            ("entries", Value::Array(entries)),
        ]),
    )
}

fn with_project<T>(
    registry: &Registry,
    name: &str,
    f: impl FnOnce(&mut crate::store::ProjectSlot) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let slot = registry
        .get(name)
        .ok_or_else(|| ServeError::NotFound(format!("no project `{name}`")))?;
    let mut slot = slot.lock().expect("project poisoned");
    f(&mut slot)
}

fn budget_json(project: &crate::registry::Project) -> Value {
    Value::object([
        ("steps", Value::from(project.script().steps())),
        ("used", Value::from(project.steps_used())),
        ("remaining", Value::from(project.steps_remaining())),
        ("era", Value::from(project.era())),
        ("retired", Value::from(project.is_retired())),
        ("fresh_testset_required", Value::from(project.is_retired())),
    ])
}

fn estimate_json(project: &crate::registry::Project) -> Value {
    let estimate = project.estimate();
    let strategy = match &estimate.provenance {
        EstimateProvenance::Baseline => "baseline",
        EstimateProvenance::Optimized(_) => "optimized",
    };
    let report = effort(estimate.labeled_samples, &CostModel::paper_default());
    Value::object([
        ("labeled", Value::from(estimate.labeled_samples)),
        ("unlabeled", Value::from(estimate.unlabeled_samples)),
        ("total", Value::from(estimate.total_samples())),
        ("strategy", Value::from(strategy)),
        ("person_days", Value::from(report.person_days)),
    ])
}

fn list_projects(registry: &Registry) -> Response {
    let names: Vec<Value> = registry.names().into_iter().map(Value::from).collect();
    Response::json(200, &Value::object([("projects", Value::Array(names))]))
}

/// Decode a request body with `decode`, after the refusals every JSON
/// route gives first: the body must be UTF-8, then JSON throughout.
fn decode_body<'a, T>(
    body: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<T, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    decode_document(text, decode).map_err(|e| ServeError::BadRequest(e.to_string()))
}

/// An uploaded testset spec: `{"labels": <array|packed string>,
/// "labeling": "full"|"lazy", "classes": <u32>}`. `labeling` defaults to
/// `full` (so does a `labeling` that is no string); `classes` defaults
/// to `max(label) + 1`.
fn testset_spec(fields: TestsetFields<'_>) -> Result<TestsetSpec, ServeError> {
    let truth = fields
        .labels
        .ok_or_else(|| ServeError::BadRequest("testset is missing field `labels`".into()))?
        .items("testset.labels")
        .map_err(ServeError::BadRequest)?;
    let lazy = match fields.labeling.as_deref() {
        None | Some("full") => false,
        Some("lazy") => true,
        Some(other) => {
            return Err(ServeError::BadRequest(format!(
                "unknown labeling mode `{other}` (expected `full` or `lazy`)"
            )))
        }
    };
    let classes = match fields.classes {
        None => truth.iter().max().map_or(1, |&m| m.saturating_add(1)),
        Some(classes) => classes
            .ok_or_else(|| ServeError::BadRequest("testset `classes` must be a u32".into()))?,
    };
    let spec = TestsetSpec {
        truth,
        classes,
        lazy,
    };
    spec.validate()?;
    Ok(spec)
}

/// The testset section of registration/status responses.
fn testset_json(measured: &MeasuredTestset, meets_estimate: bool) -> Value {
    Value::object([
        ("size", Value::from(measured.len())),
        (
            "labeling",
            Value::from(if measured.lazy() { "lazy" } else { "full" }),
        ),
        ("classes", Value::from(measured.classes())),
        ("labeled", Value::from(measured.labeled_count())),
        ("meets_estimate", Value::from(meets_estimate)),
    ])
}

/// A register body as its route reads it: name, script and testset spec.
type RegisterBody<'a> = (Cow<'a, str>, Cow<'a, str>, Option<TestsetSpec>);

/// A register body, `{"name", "script"[, "testset"]}`, refused in order:
/// UTF-8, syntax anywhere, `name`, `script`, then the testset spec.
fn register_body(body: &[u8]) -> Result<RegisterBody<'_>, ServeError> {
    let body = decode_body(body, decode_project)?;
    let name = body
        .name
        .ok_or_else(|| ServeError::BadRequest("missing string field `name`".into()))?;
    let script = body
        .script
        .ok_or_else(|| ServeError::BadRequest("missing string field `script`".into()))?;
    let testset = body.testset.map(testset_spec).transpose()?;
    Ok((name, script, testset))
}

fn register_project(registry: &Registry, request: &Request) -> Result<Response, ServeError> {
    let (name, script, testset) = register_body(&request.body)?;
    let slot = registry.register(&name, &script, testset)?;
    let slot = slot.lock().expect("project poisoned");
    let project = &slot.project;
    let mut fields = vec![
        ("project", Value::from(&*name)),
        (
            "condition",
            Value::from(project.script().condition().to_string()),
        ),
        ("reliability", Value::from(project.script().reliability())),
        (
            "adaptivity",
            Value::from(project.script().adaptivity().to_string()),
        ),
        ("mode", Value::from(project.script().mode().to_string())),
        ("estimate", estimate_json(project)),
        ("budget", budget_json(project)),
    ];
    if let Some(measured) = project.measured() {
        let meets = measured.len() as u64 >= project.estimate().total_samples();
        fields.push(("testset", testset_json(measured, meets)));
    }
    Ok(Response::json(201, &Value::object(fields)))
}

pub(crate) fn project_status(registry: &Registry, name: &str) -> Result<Response, ServeError> {
    with_project(registry, name, |slot| {
        Ok(Response::json(200, &status_json(&slot.project)))
    })
}

/// The `/projects/{name}` body.
pub(crate) fn status_json(project: &crate::registry::Project) -> Value {
    let mut fields = vec![
        ("project", Value::from(project.name())),
        (
            "condition",
            Value::from(project.script().condition().to_string()),
        ),
        ("estimate", estimate_json(project)),
        ("budget", budget_json(project)),
        ("commits", Value::from(project.history().len())),
        (
            "labels_total",
            Value::from(project.history().total_labels_requested()),
        ),
    ];
    if let Some(measured) = project.measured() {
        let meets = measured.len() as u64 >= project.estimate().total_samples();
        fields.push(("testset", testset_json(measured, meets)));
    }
    Value::object(fields)
}

/// The `easeml_gate_outcomes_total{outcome=...}` label for a decision.
fn gate_outcome(receipt: &GateReceipt) -> GateOutcome {
    if matches!(receipt.alarm, Some(AlarmReason::BudgetExhausted)) {
        GateOutcome::BudgetExhausted
    } else if receipt.passed {
        GateOutcome::Pass
    } else {
        GateOutcome::Fail
    }
}

/// The `easeml_gate_rejections_total{kind=...}` label for a submission
/// that never reached a gate decision.
fn rejection_kind(error: &ServeError) -> &'static str {
    match error {
        ServeError::BadRequest(_) => "bad_request",
        ServeError::NotFound(_) => "not_found",
        ServeError::Conflict(_) => "conflict",
        ServeError::Gone(_) => "retired",
        ServeError::Unavailable(_) => "unavailable",
        ServeError::Corrupt { .. } => "corrupt",
        ServeError::Io(_) => "io",
    }
}

/// Count a gate-route error under `easeml_gate_rejections_total` —
/// these submissions never reached a gate decision.
fn note_rejection(ctx: &Ctx, result: Result<Response, ServeError>) -> Result<Response, ServeError> {
    if let Err(e) = &result {
        ctx.obs.metrics.gate_rejection(rejection_kind(e));
    }
    result
}

/// A counts commit body, `{"commit_id", "samples", "new_correct",
/// "old_correct", "changed"[, "labels"][, "per_class"]}`, refused in
/// that order. `labels` may be absent or `null` (no labels charged);
/// `per_class` is required when the project's condition reads
/// `f1`/`topk` variables (scalar counts cannot carry a confusion
/// matrix), and refused with the reasons restart replay gives.
fn counts_submission(body: &[u8]) -> Result<CommitSubmission, ServeError> {
    let body = decode_body(body, |r| commit_members(r, "commit_id"))?;
    let bad = ServeError::BadRequest;
    let commit_id = body
        .id
        .ok_or_else(|| bad("missing string field `commit_id`".into()))?;
    let count = |value: Option<u64>, key: &str| {
        value.ok_or_else(|| bad(format!("missing integer field `{key}`")))
    };
    Ok(CommitSubmission {
        commit_id: commit_id.into_owned(),
        counts: EvalCounts {
            samples: count(body.samples, "samples")?,
            new_correct: count(body.new_correct, "new_correct")?,
            old_correct: count(body.old_correct, "old_correct")?,
            changed: count(body.changed, "changed")?,
            labels: body
                .labels
                .unwrap_or(Some(0))
                .ok_or_else(|| bad("`labels` must be a non-negative integer".into()))?,
            per_class: body.per_class.transpose().map_err(bad)?,
        },
    })
}

fn submit_commit(ctx: &Ctx, name: &str, request: &Request) -> Result<Response, ServeError> {
    let registry: &Registry = &ctx.registry;
    let submission = counts_submission(&request.body)?;
    with_project(registry, name, |slot| {
        let receipt = slot.submit(&submission)?;
        ctx.obs
            .metrics
            .gate_outcome(&mut slot.outcomes, name, gate_outcome(&receipt));
        let mut w = JsonWriter::compact();
        w.begin_object();
        write_receipt_fields(&mut w, &receipt, &slot.project);
        w.end_object();
        Ok(Response::json_text(200, w.finish()))
    })
}

/// A predictions commit as its route reads it: the commit id, the packed
/// pair and the old and new items.
type PredictionsInput<'a> = (Cow<'a, str>, PackedPredictions<'a>, Vec<u32>, Vec<u32>);

/// A predictions commit body, `{"commit_id", "old", "new"}`, refused in
/// that order. The commit id and every escape-free vector string are
/// borrowed from the request, and each vector is decoded in one pass
/// with the redelivery digest ([`PackedPredictions::decode`]).
fn predictions_submission(body: &[u8]) -> Result<PredictionsInput<'_>, ServeError> {
    let body = decode_body(body, |r| commit_members(r, "commit_id"))?;
    let commit_id = body
        .id
        .ok_or_else(|| ServeError::BadRequest("missing string field `commit_id`".into()))?;
    let missing = |key: &str| WireVector::Invalid(format!("missing field `{key}`"));
    let (packed, old, new) = PackedPredictions::decode(
        body.old.unwrap_or_else(|| missing("old")),
        body.new.unwrap_or_else(|| missing("new")),
    )
    .map_err(ServeError::BadRequest)?;
    Ok((commit_id, packed, old, new))
}

fn submit_predictions(ctx: &Ctx, name: &str, request: &Request) -> Result<Response, ServeError> {
    let registry: &Registry = &ctx.registry;
    let (commit_id, packed, old, new) = predictions_submission(&request.body)?;
    with_project(registry, name, |slot| {
        let (receipt, counts) = slot.submit_packed_predictions(&commit_id, &packed, &old, &new)?;
        ctx.obs
            .metrics
            .gate_outcome(&mut slot.outcomes, name, gate_outcome(&receipt));
        Ok(Response::json_text(
            200,
            predictions_receipt(&receipt, &counts, &slot.project),
        ))
    })
}

/// A predictions commit's response: the receipt fields, then the
/// derived counts in a `measurement` object. The counts come *after*
/// the receipt fields, so the receipt part stays byte-comparable to the
/// counts route's response for the equivalence tests (and for auditing
/// clients).
fn predictions_receipt(receipt: &GateReceipt, counts: &EvalCounts, project: &Project) -> String {
    let labeled_total = project.measured().map_or(0, MeasuredTestset::labeled_count);
    let mut w = JsonWriter::compact();
    w.begin_object();
    write_receipt_fields(&mut w, receipt, project);
    w.key("measurement").begin_object();
    w.key("samples").u64(counts.samples);
    w.key("new_correct").u64(counts.new_correct);
    w.key("old_correct").u64(counts.old_correct);
    w.key("changed").u64(counts.changed);
    w.key("labels_spent").u64(counts.labels);
    w.key("labeled_total").u64(labeled_total as u64);
    if let Some(pc) = &counts.per_class {
        w.key("per_class");
        write_per_class(&mut w, pc);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// The fields of a commit receipt, shared by both commit routes.
fn write_receipt_fields(w: &mut JsonWriter, receipt: &GateReceipt, project: &Project) {
    w.key("commit_id").string(&receipt.commit_id);
    w.key("step").u64(receipt.step.into());
    w.key("era").u64(receipt.era.into());
    match receipt.signal {
        Some(signal) => w.key("signal").bool(signal),
        None => w.key("signal").null(),
    }
    w.key("accepted").bool(receipt.accepted);
    w.key("outcome").string(tribool_str(receipt.outcome));
    w.key("passed").bool(receipt.passed);
    match receipt.alarm {
        Some(reason) => w.key("alarm").string(alarm_str(reason)),
        None => w.key("alarm").null(),
    }
    w.key("labels").u64(receipt.labels);
    w.key("budget").begin_object();
    w.key("steps").u64(project.script().steps().into());
    w.key("used").u64(project.steps_used().into());
    w.key("remaining").u64(project.steps_remaining().into());
    w.key("era").u64(project.era().into());
    w.key("retired").bool(project.is_retired());
    w.key("fresh_testset_required").bool(project.is_retired());
    w.end_object();
}

fn alarm_str(reason: AlarmReason) -> &'static str {
    match reason {
        AlarmReason::BudgetExhausted => "budget_exhausted",
        AlarmReason::PassedInHybrid => "passed_in_hybrid",
    }
}

/// The receipt as a [`Value`] tree: the test reference for
/// [`write_receipt_fields`].
#[cfg(test)]
fn receipt_json(receipt: &GateReceipt, budget: &Value) -> Value {
    Value::object([
        ("commit_id", Value::from(receipt.commit_id.as_str())),
        ("step", Value::from(receipt.step)),
        ("era", Value::from(receipt.era)),
        ("signal", Value::from(receipt.signal)),
        ("accepted", Value::from(receipt.accepted)),
        ("outcome", Value::from(tribool_str(receipt.outcome))),
        ("passed", Value::from(receipt.passed)),
        ("alarm", Value::from(receipt.alarm.map(alarm_str))),
        ("labels", Value::from(receipt.labels)),
        ("budget", budget.clone()),
    ])
}

pub(crate) fn project_history(registry: &Registry, name: &str) -> Result<Response, ServeError> {
    with_project(registry, name, |slot| {
        Ok(Response::json_text(200, history_body(name, &slot.project)))
    })
}

/// The `/projects/{name}/history` body, rendered in one pass.
pub(crate) fn history_body(name: &str, project: &crate::registry::Project) -> String {
    let entries = project.history().entries();
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("project").string(name);
    w.key("entries").begin_array();
    for e in entries {
        w.begin_object();
        write_history_entry_fields(&mut w, e);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

pub(crate) fn project_budget(registry: &Registry, name: &str) -> Result<Response, ServeError> {
    with_project(registry, name, |slot| {
        Ok(Response::json(200, &budget_body(&slot.project)))
    })
}

/// The `/projects/{name}/budget` body.
pub(crate) fn budget_body(project: &crate::registry::Project) -> Value {
    Value::object([
        ("project", Value::from(project.name())),
        ("budget", budget_json(project)),
        (
            "labels_total",
            Value::from(project.history().total_labels_requested()),
        ),
    ])
}

/// A fresh-testset body: empty, or `{"testset": <spec>}` (absent or
/// `null` reads as no spec), refused in order: UTF-8, syntax anywhere,
/// then the spec.
fn fresh_testset_body(body: &[u8]) -> Result<Option<TestsetSpec>, ServeError> {
    if body.is_empty() {
        return Ok(None);
    }
    let body = decode_body(body, decode_project)?;
    body.testset.map(testset_spec).transpose()
}

fn fresh_testset(
    registry: &Registry,
    name: &str,
    request: &Request,
) -> Result<Response, ServeError> {
    // Counts-mode projects POST an empty body (the client attests it
    // collected a fresh testset); server-measured projects must hand the
    // new era's testset data over in a `testset` object.
    let testset = fresh_testset_body(&request.body)?;
    with_project(registry, name, |slot| {
        let era = match testset {
            Some(spec) => slot.install_testset(spec)?,
            None => slot.fresh_testset()?,
        };
        let mut fields = vec![
            ("project", Value::from(name)),
            ("era", Value::from(era)),
            ("budget", budget_json(&slot.project)),
        ];
        if let Some(measured) = slot.project.measured() {
            let meets = measured.len() as u64 >= slot.project.estimate().total_samples();
            fields.push(("testset", testset_json(measured, meets)));
        }
        Ok(Response::json(200, &Value::object(fields)))
    })
}

fn cache_stats() -> Response {
    let counters = |stats: easeml_ci_core::CacheStats| {
        Value::object([
            ("hits", Value::from(stats.hits)),
            ("misses", Value::from(stats.misses)),
            ("entries", Value::from(stats.entries)),
        ])
    };
    Response::json(
        200,
        &Value::object([
            ("bounds", counters(BoundsCache::global().stats())),
            ("plan", counters(PlanCache::global().stats())),
        ]),
    )
}

fn persist_all(ctx: &Ctx) -> Result<Response, ServeError> {
    ctx.registry.snapshot_all()?;
    Ok(Response::json(
        200,
        &Value::object([("persisted", Value::from(true))]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{decode_u32_vec, encode_u32_vec, u32_vec_from_value};
    use crate::record::hostile::{edited, edits, Edit};
    use crate::registry::{fnv1a64, PredictionsSubmission};
    use crate::vfs::MemVfs;
    use easeml_ci_core::{PerClassCounts, Tribool};
    use proptest::test_runner::TestCaseError;
    use std::fmt::Write as _;
    use std::path::Path;

    /// The `per_class` section of a predictions response's measurement
    /// block — the request shape a counts body carries, so a counts-mode
    /// twin can round-trip it byte-exactly. The route writes it with
    /// [`write_per_class`]; this tree is the test reference.
    fn per_class_response_json(pc: &PerClassCounts) -> Value {
        let vec = |v: &[u64]| Value::Array(v.iter().map(|&x| Value::from(x)).collect());
        Value::object([
            ("classes", Value::from(pc.classes)),
            ("support", vec(&pc.support)),
            ("new_tp", vec(&pc.new_tp)),
            ("old_tp", vec(&pc.old_tp)),
            ("new_pred", vec(&pc.new_pred)),
            ("old_pred", vec(&pc.old_pred)),
        ])
    }

    /// What a predictions route keeps of a body: the commit id, both
    /// vectors, both wire strings and the digest.
    type Decoded = (String, Vec<u32>, Vec<u32>, String, String, u64);

    /// The tree path the route took before it decoded its body in one
    /// pull pass: parse the whole body into a [`Value`], take each
    /// member, decode each vector, encode arrays and CSV strings to their
    /// wire string, digest the pair.
    fn decode_with_the_tree(body: &[u8]) -> Result<Decoded, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        let body = Value::parse(text).map_err(|e| e.to_string())?;
        let Some(Value::String(commit_id)) = body.get("commit_id").cloned() else {
            return Err("missing string field `commit_id`".into());
        };
        let vector = |key: &str| -> Result<(Vec<u32>, String), String> {
            match body
                .get(key)
                .cloned()
                .ok_or_else(|| format!("missing field `{key}`"))?
            {
                Value::String(text) if text.starts_with('#') => {
                    let items = decode_u32_vec(&text).map_err(|e| format!("{key}: {e}"))?;
                    Ok((items, text))
                }
                value => {
                    let items = u32_vec_from_value(&value, key)?;
                    let wire = encode_u32_vec(&items);
                    Ok((items, wire))
                }
            }
        };
        let (old, old_wire) = vector("old")?;
        let (new, new_wire) = vector("new")?;
        let digest = fnv1a64(&[old_wire.as_bytes(), b"|", new_wire.as_bytes()]);
        Ok((commit_id, old, new, old_wire, new_wire, digest))
    }

    /// The route's path: the commit-record decoder, then the one pass.
    fn decode_typed(body: &[u8]) -> Result<Decoded, String> {
        let (commit_id, packed, old, new) =
            predictions_submission(body).map_err(|e| e.to_string())?;
        let wires = (packed.old_wire().to_owned(), packed.new_wire().to_owned());
        Ok((
            commit_id.into_owned(),
            old,
            new,
            wires.0,
            wires.1,
            packed.digest(),
        ))
    }

    /// A small deterministic generator for the body fuzzer.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// A JSON string literal for ASCII `s`, each character `\u`-escaped
    /// with probability `1 / every`.
    fn literal(s: &str, rng: &mut Rng, every: u64) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            if rng.below(every) == 0 {
                let _ = write!(out, "\\u{:04x}", c as u32);
            } else if c == '"' || c == '\\' {
                out.push('\\');
                out.push(c);
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    /// Whitespace the grammar allows between tokens, or none.
    fn space(rng: &mut Rng) -> &'static str {
        rng.pick(&["", "", "", " ", "\n  ", "\t"])
    }

    /// One `old`/`new` member value in any of the forms the route
    /// accepts or refuses.
    fn vector_json(rng: &mut Rng) -> String {
        let top = if rng.below(4) == 0 { 70 } else { 4 };
        let items: Vec<u32> = (0..rng.below(40)).map(|_| rng.below(top) as u32).collect();
        let array = |items: &[String], rng: &mut Rng| {
            let sep = format!("{},{}", space(rng), space(rng));
            format!("[{}{}{}]", space(rng), items.join(&sep), space(rng))
        };
        let numbers: Vec<String> = items.iter().map(u32::to_string).collect();
        let wire = encode_u32_vec(&items);
        match rng.below(9) {
            0 => literal(&wire, rng, u64::MAX),
            1 => literal(&wire, rng, 3),
            2 => array(&numbers, rng),
            3 => literal(&numbers.join(","), rng, u64::MAX),
            4 => {
                let mut numbers = numbers;
                for _ in 0..1 + rng.below(2) {
                    let bad = rng.pick(&[
                        "-1",
                        "1.5",
                        "4294967296",
                        "\"3\"",
                        "[1]",
                        "null",
                        "true",
                        "{}",
                        "1e2",
                        "-0",
                        "9007199254740993",
                    ]);
                    let at = rng.below(numbers.len() as u64 + 1) as usize;
                    numbers.insert(at, bad.to_owned());
                }
                array(&numbers, rng)
            }
            5 => {
                let mut text = wire;
                let at = 1.min(text.len()) + rng.below(text.len() as u64) as usize;
                let at = at.min(text.len());
                text.insert_str(at, rng.pick(&["!", "é", ",,", "x", " ", "#"]));
                literal(&text, rng, 5)
            }
            6 => rng
                .pick(&["true", "null", "12", "{\"a\": [1]}", "\"\""])
                .to_owned(),
            7 => literal(wire.trim_start_matches('#'), rng, u64::MAX),
            _ => array(&numbers, rng).replace(',', ",\n    "),
        }
    }

    /// A predictions body from `seed`: members in any order, missing,
    /// duplicated, unknown, escaped keys, other top-level values, and a
    /// quarter of the bodies cut, spliced or made non-UTF-8.
    fn arbitrary_body(seed: u64) -> Vec<u8> {
        let mut rng = Rng(seed);
        let mut members: Vec<(String, String)> = Vec::new();
        let commit_id = |rng: &mut Rng| match rng.below(6) {
            0..=2 => literal(&format!("c{}", rng.below(10)), rng, u64::MAX),
            3 => literal("c\"1", rng, 2),
            4 => "7".to_owned(),
            _ => "null".to_owned(),
        };
        for key in ["commit_id", "old", "new"] {
            for _ in 0..[0, 1, 1, 1, 1, 1, 1, 2][rng.below(8) as usize] {
                let value = if key == "commit_id" {
                    commit_id(&mut rng)
                } else {
                    vector_json(&mut rng)
                };
                members.push((literal(key, &mut rng, 12), value));
            }
        }
        if rng.below(4) == 0 {
            members.push(("\"extra\"".into(), vector_json(&mut rng)));
        }
        for i in (1..members.len()).rev() {
            members.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let parts: Vec<String> = members
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}{k}{}:{}{v}",
                    space(&mut rng),
                    space(&mut rng),
                    space(&mut rng)
                )
            })
            .collect();
        let text = match rng.below(16) {
            0 => format!(
                "[{}]",
                members
                    .iter()
                    .map(|(_, v)| v.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            1 => rng.pick(&["12", "\"x\"", "null", ""]).to_owned(),
            _ => format!(
                "{{{}{}}}{}",
                parts.join(","),
                space(&mut rng),
                space(&mut rng)
            ),
        };
        let mut bytes = text.into_bytes();
        if rng.below(4) == 0 && !bytes.is_empty() {
            let at = rng.below(bytes.len() as u64) as usize;
            match rng.below(4) {
                0 => bytes.truncate(at),
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, 0xff),
                _ => {
                    let noise =
                        rng.pick(&["{", "}", "[", "]", ",", ":", "\"", "\\", " ", "x", "0"]);
                    bytes.splice(at..at, noise.bytes());
                }
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// The typed body decoder accepts exactly the bodies the tree
        /// path accepted, with the same items, wire strings and digest,
        /// and refuses the others with the same reason (every refusal is
        /// a 400 on both paths).
        #[test]
        fn predictions_body_decoder_matches_the_tree(seed in 0u64..u64::MAX) {
            let body = arbitrary_body(seed);
            proptest::prop_assert_eq!(
                decode_typed(&body),
                decode_with_the_tree(&body),
                "{}",
                String::from_utf8_lossy(&body)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(250_000))]

        /// [`predictions_body_decoder_matches_the_tree`] over many more
        /// bodies; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn predictions_body_decoder_matches_the_tree_exhaustively(seed in 0u64..u64::MAX) {
            let body = arbitrary_body(seed);
            proptest::prop_assert_eq!(
                decode_typed(&body),
                decode_with_the_tree(&body),
                "{}",
                String::from_utf8_lossy(&body)
            );
        }
    }

    #[test]
    fn predictions_body_refusals_come_in_order() {
        let reason = |body: &str| decode_typed(body.as_bytes()).unwrap_err();
        assert_eq!(
            decode_typed(b"{\"commit_id\": \"c\", \"old\": \"#0\xff\"}").unwrap_err(),
            "body is not UTF-8"
        );
        assert!(reason("{\"old\": \"#!\", \"new\": [1,]}").starts_with("JSON error at byte"));
        assert_eq!(
            reason("{\"commit_id\": 3, \"old\": \"#!\"}"),
            "missing string field `commit_id`"
        );
        assert_eq!(
            reason("{\"commit_id\": \"c\", \"old\": \"#!\"}"),
            "old: invalid packed-vector character `!`"
        );
        assert_eq!(
            reason("{\"commit_id\": \"c\", \"new\": [1, 2.5], \"old\": [0, -1]}"),
            "old[1] is not a u32"
        );
        assert_eq!(
            reason("{\"commit_id\": \"c\", \"old\": \"1,2\"}"),
            "missing field `new`"
        );
        assert_eq!(
            reason("{\"commit_id\": \"c\", \"old\": \"1\", \"new\": {}}"),
            "new must be an array of integers or a packed vector string"
        );
        // The first of duplicate keys wins, escaped keys match.
        let (id, old, new, ..) = decode_typed(
            b"{\"\\u0063ommit_id\": \"a\", \"commit_id\": \"b\", \"old\": \"#1\", \"new\": [2], \"old\": 9}",
        )
        .unwrap();
        assert_eq!((id.as_str(), old, new), ("a", vec![1], vec![2]));
    }

    /// Reference `per_class` reader of the counts route: the tree walk
    /// the shared pull reader ([`crate::record::decode_per_class`])
    /// replaced, with the route's old reasons.
    fn parse_per_class_reference(body: &Value) -> Result<Option<PerClassCounts>, ServeError> {
        let value = match body.get("per_class") {
            None | Some(Value::Null) => return Ok(None),
            Some(v) => v,
        };
        let classes = value
            .get("classes")
            .and_then(Value::as_u64)
            .and_then(|c| u32::try_from(c).ok())
            .ok_or_else(|| {
                ServeError::BadRequest("per_class is missing integer `classes`".into())
            })?;
        let vec = |key: &str| -> Result<Vec<u64>, ServeError> {
            value
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| {
                    ServeError::BadRequest(format!("per_class is missing array `{key}`"))
                })?
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        ServeError::BadRequest(format!("per_class `{key}` holds a non-integer"))
                    })
                })
                .collect()
        };
        Ok(Some(PerClassCounts {
            classes,
            support: vec("support")?,
            new_tp: vec("new_tp")?,
            old_tp: vec("old_tp")?,
            new_pred: vec("new_pred")?,
            old_pred: vec("old_pred")?,
        }))
    }

    /// A `per_class` refusal of [`parse_per_class_reference`] worded as
    /// the shared reader words it: the counts route's one change of
    /// reason. Other reasons pass through.
    fn shared_per_class_reason(reason: String) -> String {
        if reason == "per_class is missing integer `classes`" {
            return "per_class: missing or bad `classes`".into();
        }
        if let Some(key) = reason.strip_prefix("per_class is missing array ") {
            return format!("per_class: missing {key}");
        }
        match reason
            .strip_prefix("per_class ")
            .and_then(|r| r.strip_suffix(" holds a non-integer"))
        {
            Some(key) => format!("per_class: non-integer entry in {key}"),
            None => reason,
        }
    }

    /// Reference counts-body reader: the tree walk [`counts_submission`]
    /// replaced, except that `labels` follows the rule the route now
    /// applies (absent or `null` is 0, anything else must be an exact
    /// integer, where the tree read it as 0).
    fn counts_submission_reference(body: &[u8]) -> Result<CommitSubmission, ServeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
        let body = Value::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let commit_id = body
            .get("commit_id")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing string field `commit_id`".into()))?;
        let count = |key: &str| -> Result<u64, ServeError> {
            body.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ServeError::BadRequest(format!("missing integer field `{key}`")))
        };
        Ok(CommitSubmission {
            commit_id: commit_id.to_owned(),
            counts: EvalCounts {
                samples: count("samples")?,
                new_correct: count("new_correct")?,
                old_correct: count("old_correct")?,
                changed: count("changed")?,
                labels: match body.get("labels") {
                    None | Some(Value::Null) => 0,
                    Some(v) => v.as_u64().ok_or_else(|| {
                        ServeError::BadRequest("`labels` must be a non-negative integer".into())
                    })?,
                },
                per_class: parse_per_class_reference(&body)?,
            },
        })
    }

    /// Reference testset-spec reader: the tree walk [`testset_spec`]
    /// replaced.
    fn parse_testset_spec_reference(value: &Value) -> Result<TestsetSpec, ServeError> {
        let truth = value
            .get("labels")
            .ok_or_else(|| ServeError::BadRequest("testset is missing field `labels`".into()))
            .and_then(|v| {
                u32_vec_from_value(v, "testset.labels").map_err(ServeError::BadRequest)
            })?;
        let lazy = match value.get("labeling").and_then(Value::as_str) {
            None | Some("full") => false,
            Some("lazy") => true,
            Some(other) => {
                return Err(ServeError::BadRequest(format!(
                    "unknown labeling mode `{other}` (expected `full` or `lazy`)"
                )))
            }
        };
        let classes = match value.get("classes") {
            None | Some(Value::Null) => truth.iter().max().map_or(1, |&m| m.saturating_add(1)),
            Some(v) => v
                .as_u64()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| ServeError::BadRequest("testset `classes` must be a u32".into()))?,
        };
        let spec = TestsetSpec {
            truth,
            classes,
            lazy,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A register or fresh-testset body as the tree reader took it.
    fn tree_body(body: &[u8]) -> Result<Value, ServeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
        Value::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))
    }

    /// The `testset` member of a tree body: absent or `null` is none.
    fn tree_testset(body: &Value) -> Result<Option<TestsetSpec>, ServeError> {
        match body.get("testset") {
            None | Some(Value::Null) => Ok(None),
            Some(value) => parse_testset_spec_reference(value).map(Some),
        }
    }

    /// What a register body decodes to.
    type Registration = (String, String, Option<TestsetSpec>);

    /// Reference register-body reader: the tree walk [`register_body`]
    /// replaced.
    fn register_body_reference(body: &[u8]) -> Result<Registration, ServeError> {
        let body = tree_body(body)?;
        let field = |key: &str| {
            body.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ServeError::BadRequest(format!("missing string field `{key}`")))
        };
        let (name, script) = (field("name")?, field("script")?);
        Ok((name, script, tree_testset(&body)?))
    }

    /// Reference fresh-testset-body reader: the tree walk
    /// [`fresh_testset_body`] replaced.
    fn fresh_testset_body_reference(body: &[u8]) -> Result<Option<TestsetSpec>, ServeError> {
        if body.is_empty() {
            return Ok(None);
        }
        tree_testset(&tree_body(body)?)
    }

    /// Values a hostile body puts where a count, `labels` or a
    /// `per_class` member belongs.
    const ODD_MEMBERS: &[&str] = &[
        "1.5",
        "\"100\"",
        "-1",
        "1e2",
        "-0",
        "9007199254740993",
        "4294967296",
        "true",
        "null",
        "[]",
        "{}",
        "[1, -1]",
        "[1, 2.5]",
        "[\"1\"]",
    ];

    /// An object of `members` in shuffled order, keys escaped now and
    /// then, one member in four duplicated with an odd value, and now
    /// and then an unknown key.
    fn object_json(mut members: Vec<(&str, String)>, rng: &mut Rng) -> String {
        if rng.below(4) == 0 && !members.is_empty() {
            let key = members[rng.below(members.len() as u64) as usize].0;
            members.push((key, rng.pick(ODD_MEMBERS).to_owned()));
        }
        if rng.below(4) == 0 {
            members.push(("extra", rng.pick(ODD_MEMBERS).to_owned()));
        }
        for i in (1..members.len()).rev() {
            members.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let parts: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{}{}:{}{v}", space(rng), literal(k, rng, 12), space(rng)))
            .collect();
        format!("{{{}{}}}", parts.join(","), space(rng))
    }

    fn numbers_json(items: &[u64]) -> String {
        let items: Vec<String> = items.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(", "))
    }

    /// A `per_class` member for `samples` items: usually an object the
    /// gate accepts, else with one member made odd or dropped, or no
    /// object at all.
    fn per_class_json(rng: &mut Rng, samples: u64) -> String {
        let classes = 2 + rng.below(3);
        let support: Vec<u64> = (0..classes)
            .map(|_| rng.below(samples / classes + 1))
            .collect();
        let mut new_pred = support.clone();
        new_pred.rotate_left(1);
        let new_tp: Vec<u64> = (0..classes as usize)
            .map(|i| support[i].min(new_pred[i]) / (1 + rng.below(2)))
            .collect();
        let old_tp: Vec<u64> = support.iter().map(|&s| s / (1 + rng.below(3))).collect();
        let mut members = vec![
            ("classes", classes.to_string()),
            ("support", numbers_json(&support)),
            ("new_tp", numbers_json(&new_tp)),
            ("old_tp", numbers_json(&old_tp)),
            ("new_pred", numbers_json(&new_pred)),
            ("old_pred", numbers_json(&support)),
        ];
        match rng.below(8) {
            0 => members[rng.below(6) as usize].1 = rng.pick(ODD_MEMBERS).to_owned(),
            1 => drop(members.remove(rng.below(6) as usize)),
            2 => return rng.pick(&["5", "\"x\"", "[]", "true"]).to_owned(),
            _ => {}
        }
        object_json(members, rng)
    }

    /// A counts commit body from `seed`: every member usually well
    /// formed, sometimes missing or odd; `labels` absent, `null`, an
    /// integer or odd; `per_class` absent, `null`, well formed or not;
    /// keys shuffled, escaped, duplicated or unknown. One body in
    /// thirty-two is no object, one in thirty-two is not UTF-8.
    fn counts_body(seed: u64) -> Vec<u8> {
        let mut rng = Rng(seed);
        let samples = 40 + rng.below(200);
        let mut members = Vec::new();
        let commit_id = match rng.below(32) {
            0 => "7".to_owned(),
            1 => "null".to_owned(),
            _ => literal(&format!("c{}", rng.below(4)), &mut rng, 5),
        };
        members.push(("commit_id", commit_id));
        for key in ["samples", "new_correct", "old_correct", "changed"] {
            let value = match rng.below(32) {
                0 => continue,
                1 => rng.pick(ODD_MEMBERS).to_owned(),
                _ if key == "samples" => samples.to_string(),
                _ => rng.below(samples + 1).to_string(),
            };
            members.push((key, value));
        }
        match rng.below(6) {
            0 => {}
            1 => members.push(("labels", "null".to_owned())),
            2 => members.push(("labels", rng.pick(ODD_MEMBERS).to_owned())),
            _ => members.push(("labels", rng.below(100).to_string())),
        }
        match rng.below(6) {
            0 => {}
            1 => members.push(("per_class", "null".to_owned())),
            _ => members.push(("per_class", per_class_json(&mut rng, samples))),
        }
        let text = match rng.below(32) {
            0 => rng.pick(&["[1]", "12", "\"x\"", "null"]).to_owned(),
            _ => object_json(members, &mut rng),
        };
        let mut bytes = text.into_bytes();
        if rng.below(32) == 0 {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.insert(at, 0xff);
        }
        bytes
    }

    /// A register body from `seed` (a fresh-testset body reads its
    /// `testset` member): `name`, `script` and a testset spec whose
    /// `labels` come as an array, a packed or a CSV string, or odd,
    /// `labeling` and `classes` valid, absent, `null` or odd. One body
    /// in thirty-two is empty.
    fn register_body_json(seed: u64) -> Vec<u8> {
        let mut rng = Rng(seed);
        if rng.below(32) == 0 {
            return Vec::new();
        }
        let mut members = Vec::new();
        match rng.below(24) {
            0 => {}
            1 => members.push(("name", "7".to_owned())),
            _ => members.push((
                "name",
                literal(&format!("proj-{}", rng.below(9)), &mut rng, 9),
            )),
        }
        if rng.below(24) != 0 {
            members.push(("script", Value::from(FRESH_SCRIPT).encode()));
        }
        let top = [2, 4, 70][rng.below(3) as usize];
        let labels: Vec<u32> = (0..rng.below(30)).map(|_| rng.below(top) as u32).collect();
        let mut spec = Vec::new();
        let numbers: Vec<u64> = labels.iter().map(|&l| u64::from(l)).collect();
        match rng.below(6) {
            0 => {}
            1 => spec.push(("labels", numbers_json(&numbers))),
            2 => spec.push(("labels", rng.pick(ODD_MEMBERS).to_owned())),
            3 => spec.push((
                "labels",
                literal(
                    &encode_u32_vec(&labels).replace(',', ",,"),
                    &mut rng,
                    u64::MAX,
                ),
            )),
            _ => spec.push(("labels", literal(&encode_u32_vec(&labels), &mut rng, 7))),
        }
        match rng.below(6) {
            0 => {}
            1 => spec.push(("labeling", "\"lazy\"".to_owned())),
            2 => spec.push(("labeling", rng.pick(&["\"other\"", "5", "null"]).to_owned())),
            _ => spec.push(("labeling", "\"full\"".to_owned())),
        }
        match rng.below(5) {
            0 => {}
            1 => spec.push(("classes", "null".to_owned())),
            2 => spec.push(("classes", rng.pick(ODD_MEMBERS).to_owned())),
            _ => spec.push(("classes", rng.below(top + 2).to_string())),
        }
        match rng.below(8) {
            0 => {}
            1 => members.push(("testset", "null".to_owned())),
            2 => members.push(("testset", rng.pick(&["5", "[]", "\"x\""]).to_owned())),
            _ => members.push(("testset", object_json(spec, &mut rng))),
        }
        object_json(members, &mut rng).into_bytes()
    }

    /// The script of the projects the route tests register.
    const FRESH_SCRIPT: &str = "ml:\n\
        \x20 - condition  : n - o > 0.0 +/- 0.2\n\
        \x20 - reliability: 0.99\n\
        \x20 - mode       : fp-free\n\
        \x20 - adaptivity : full\n\
        \x20 - steps      : 8\n";

    /// `body` after `edits`, when it is UTF-8.
    fn hostile(body: Vec<u8>, edits: &[Edit], compact: bool) -> Vec<u8> {
        match String::from_utf8(body) {
            Ok(text) => edited(&text, edits, compact).into_bytes(),
            Err(e) => e.into_bytes(),
        }
    }

    /// A counts body gets the tree reference's verdict: the same counts,
    /// or the same 400 reason, a `per_class` reason worded as the shared
    /// reader words it.
    fn check_counts_case(seed: u64, edits: &[Edit], compact: bool) -> Result<(), TestCaseError> {
        let body = hostile(counts_body(seed), edits, compact);
        let pull = counts_submission(&body).map_err(|e| e.to_string());
        let tree =
            counts_submission_reference(&body).map_err(|e| shared_per_class_reason(e.to_string()));
        proptest::prop_assert_eq!(pull, tree, "{}", String::from_utf8_lossy(&body));
        Ok(())
    }

    /// A register body, and the same bytes as a fresh-testset body, get
    /// the tree reference's verdicts.
    fn check_register_case(seed: u64, edits: &[Edit], compact: bool) -> Result<(), TestCaseError> {
        let body = hostile(register_body_json(seed), edits, compact);
        let pull = register_body(&body)
            .map(|(name, script, spec)| (name.into_owned(), script.into_owned(), spec))
            .map_err(|e| e.to_string());
        let tree = register_body_reference(&body).map_err(|e| e.to_string());
        proptest::prop_assert_eq!(pull, tree, "{}", String::from_utf8_lossy(&body));
        proptest::prop_assert_eq!(
            fresh_testset_body(&body).map_err(|e| e.to_string()),
            fresh_testset_body_reference(&body).map_err(|e| e.to_string()),
            "{}",
            String::from_utf8_lossy(&body)
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// Counts bodies read alike through the commit-record decoder and
        /// the tree walk it replaced.
        #[test]
        fn hostile_counts_bodies_get_the_tree_reference_verdict(
            seed in 0u64..u64::MAX,
            edits in edits(2),
            compact in 0u32..2,
        ) {
            check_counts_case(seed, &edits, compact == 1)?;
        }

        /// Register and fresh-testset bodies read alike through the
        /// project decoder and the tree walks it replaced.
        #[test]
        fn hostile_register_bodies_get_the_tree_reference_verdict(
            seed in 0u64..u64::MAX,
            edits in edits(2),
            compact in 0u32..2,
        ) {
            check_register_case(seed, &edits, compact == 1)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(250_000))]

        /// [`hostile_counts_bodies_get_the_tree_reference_verdict`] over
        /// many more bodies; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn hostile_counts_bodies_get_the_tree_reference_verdict_exhaustively(
            seed in 0u64..u64::MAX,
            edits in edits(2),
            compact in 0u32..2,
        ) {
            check_counts_case(seed, &edits, compact == 1)?;
        }

        /// [`hostile_register_bodies_get_the_tree_reference_verdict`]
        /// over many more bodies; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn hostile_register_bodies_get_the_tree_reference_verdict_exhaustively(
            seed in 0u64..u64::MAX,
            edits in edits(2),
            compact in 0u32..2,
        ) {
            check_register_case(seed, &edits, compact == 1)?;
        }
    }

    /// A route context over a registry on `disk`; booting it replays
    /// what the disk holds.
    fn ctx_on(disk: &MemVfs) -> Ctx {
        let obs = Arc::new(ServeObs::new(&ROUTE_NAMES, DEFAULT_SLOW_REQUEST_MS));
        let registry = Registry::open_with(
            Path::new("/live"),
            serving_estimator(),
            Arc::new(disk.clone()),
        )
        .unwrap();
        Ctx {
            registry: Arc::new(registry),
            stop: Arc::new(AtomicBool::new(false)),
            hub: Arc::new(WakeHub::new()),
            addr: SocketAddr::from(([127, 0, 0, 1], 9)),
            stats: Arc::new(ServeStats::new(4, 0, &obs)),
            obs,
        }
    }

    /// POST `body` to the counts route of project `p`.
    fn post_counts(ctx: &Ctx, body: &[u8]) -> Response {
        let request = Request {
            method: "POST".into(),
            path: "/projects/p/commits".into(),
            body: body.to_vec(),
            close: false,
        };
        let response = route(ctx, &request);
        drop(group::take_pending());
        response
    }

    /// A counts body the route accepts is journalled as a line that boot
    /// replays to the same counts: the rebooted project holds the same
    /// history and per-class counts, and the same body redelivered to it
    /// answers the route's receipt byte for byte (redelivery matches on
    /// the counts, `labels` and `per_class` included). A body the route
    /// refuses journals nothing.
    fn check_live_and_boot(seed: u64, f1: bool) -> Result<(), TestCaseError> {
        let disk = MemVfs::new();
        let ctx = ctx_on(&disk);
        let script = if f1 {
            FRESH_SCRIPT.replace("n - o > 0.0", "f1(n) - f1(o) > -0.5")
        } else {
            FRESH_SCRIPT.to_owned()
        };
        ctx.registry.register("p", &script, None).unwrap();
        let body = counts_body(seed);
        let live = post_counts(&ctx, &body);
        let journal = disk
            .read_to_string(Path::new("/live/projects/p/journal.0.log"))
            .unwrap_or_default();
        let shown = String::from_utf8_lossy(&body);
        if live.status != 200 {
            proptest::prop_assert!(live.status == 400, "{} for {}", live.status, shown);
            proptest::prop_assert_eq!(journal, "", "{}", shown);
            return Ok(());
        }
        proptest::prop_assert_eq!(journal.lines().count(), 1, "{}", shown);
        let rebooted = ctx_on(&disk);
        let again = post_counts(&rebooted, &body);
        proptest::prop_assert_eq!((again.status, &again.body), (200, &live.body), "{}", shown);
        let state = |ctx: &Ctx| {
            let slot = ctx.registry.get("p").unwrap();
            let slot = slot.lock().unwrap();
            (
                history_body("p", &slot.project),
                slot.project.per_class_at(0).cloned(),
            )
        };
        proptest::prop_assert_eq!(state(&rebooted), state(&ctx), "{}", shown);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn counts_route_and_boot_replay_read_the_same_counts(
            seed in 0u64..u64::MAX,
            f1 in 0u32..2,
        ) {
            check_live_and_boot(seed, f1 == 1)?;
        }
    }

    /// Projects in the budget states a receipt reports: fresh, one step
    /// spent, retired, and a lazy predictions pool with labels spent.
    fn projects() -> Vec<Project> {
        let script = "ml:\n\
            \x20 - condition  : n - o > 0.0 +/- 0.2\n\
            \x20 - reliability: 0.99\n\
            \x20 - mode       : fp-free\n\
            \x20 - adaptivity : full\n\
            \x20 - steps      : 2\n";
        let estimator = serving_estimator();
        let counts = CommitSubmission {
            commit_id: "c".into(),
            counts: EvalCounts {
                samples: 100_000,
                new_correct: 90_000,
                old_correct: 50_000,
                changed: 40_000,
                labels: 100_000,
                per_class: None,
            },
        };
        let mut out = Vec::new();
        for commits in 0..3 {
            let mut project = Project::register("p", script, &estimator).unwrap();
            for i in 0..commits {
                let submission = CommitSubmission {
                    commit_id: format!("c{i}"),
                    ..counts.clone()
                };
                project.submit(&submission).unwrap();
            }
            out.push(project);
        }
        let spec = TestsetSpec {
            truth: vec![0; 100],
            classes: 2,
            lazy: true,
        };
        let mut project =
            Project::register_with_testset("q", script, &estimator, Some(spec)).unwrap();
        let preds = |correct: usize| (0..100).map(|i| u32::from(i >= correct)).collect();
        project
            .submit_predictions(&PredictionsSubmission {
                commit_id: "c".into(),
                old: preds(50),
                new: preds(90),
            })
            .unwrap();
        out.push(project);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Both routes' receipts, written straight into a `JsonWriter`,
        /// match the [`Value`] trees they used to be encoded from, byte
        /// for byte: escapes, `null`s, integers past 2^53 and the
        /// per-class section included.
        #[test]
        fn writer_receipts_match_the_value_reference(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let big = |rng: &mut Rng| match rng.below(3) {
                0 => rng.below(1000),
                1 => rng.below(1 << 53),
                _ => rng.below(u64::MAX),
            };
            let receipt = GateReceipt {
                commit_id: rng.pick(&["c1", "", "a\"b\\c", "é\n\u{1}😀"]).to_owned(),
                step: rng.below(u64::from(u32::MAX) + 1) as u32,
                era: rng.below(5) as u32,
                signal: [None, Some(true), Some(false)][rng.below(3) as usize],
                accepted: rng.below(2) == 0,
                outcome: [Tribool::True, Tribool::False, Tribool::Unknown][rng.below(3) as usize],
                passed: rng.below(2) == 0,
                alarm: [None, Some(AlarmReason::BudgetExhausted), Some(AlarmReason::PassedInHybrid)]
                    [rng.below(3) as usize],
                steps_remaining: rng.below(10) as u32,
                labels: big(&mut rng),
            };
            let per_class = (rng.below(2) == 0).then(|| {
                let classes = 1 + rng.below(5) as u32;
                let mut vector = || (0..classes).map(|_| big(&mut rng)).collect::<Vec<_>>();
                PerClassCounts {
                    classes,
                    support: vector(),
                    new_tp: vector(),
                    old_tp: vector(),
                    new_pred: vector(),
                    old_pred: vector(),
                }
            });
            let counts = EvalCounts {
                samples: big(&mut rng),
                new_correct: big(&mut rng),
                old_correct: big(&mut rng),
                changed: big(&mut rng),
                labels: big(&mut rng),
                per_class,
            };
            for project in projects() {
                let mut w = JsonWriter::compact();
                w.begin_object();
                write_receipt_fields(&mut w, &receipt, &project);
                w.end_object();
                let reference = receipt_json(&receipt, &budget_json(&project));
                proptest::prop_assert_eq!(w.finish(), reference.encode());

                let Value::Object(mut fields) = reference else { unreachable!() };
                let labeled_total = project.measured().map_or(0, MeasuredTestset::labeled_count);
                let mut measurement = vec![
                    ("samples", Value::from(counts.samples)),
                    ("new_correct", Value::from(counts.new_correct)),
                    ("old_correct", Value::from(counts.old_correct)),
                    ("changed", Value::from(counts.changed)),
                    ("labels_spent", Value::from(counts.labels)),
                    ("labeled_total", Value::from(labeled_total)),
                ];
                if let Some(pc) = &counts.per_class {
                    measurement.push(("per_class", per_class_response_json(pc)));
                }
                fields.push(("measurement".into(), Value::object(measurement)));
                proptest::prop_assert_eq!(
                    predictions_receipt(&receipt, &counts, &project),
                    Value::Object(fields).encode()
                );
            }
        }
    }
}
