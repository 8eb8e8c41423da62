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
//! one or more readiness loops (`--event-threads`) multiplex every
//! keep-alive socket and parse requests incrementally. µs-scale
//! requests (gate commits, status reads — see
//! `RouteHandler::inline`) execute directly on the event thread;
//! only expensive ones (registration's plan search, cache persistence)
//! are spawned as jobs on one [`easeml_par::Pool::scope`] — so
//! `--threads N` bounds concurrent *expensive* handlers exactly like it
//! bounds every other fan-out in the workspace, while idle connections
//! cost no worker at all. Pool responses return to the event loop
//! through a completion queue and wake pipe. All gate mutations
//! serialize on the owning project's lock (see [`crate::store`] for the
//! resulting determinism contract), which keeps journal bytes identical
//! across worker widths *and* event-thread counts.

use crate::error::ServeError;
use crate::http::{Request, Response};
use crate::json::{u32_vec_from_value, u32_vec_with_wire, JsonWriter, Value};
use crate::net::{NetConfig, ReqMeta, WakeHub};
use crate::obs::trace::{self, Stage, TraceRec};
use crate::obs::{Counter, ServeObs};
use crate::registry::{
    serving_estimator, CommitSubmission, EvalCounts, GateReceipt, MeasuredTestset,
    PackedPredictions, TestsetSpec,
};
use crate::store::{
    group, tribool_str, write_history_entry_fields, Durability, GroupMetrics, Registry,
};
use crate::vfs::{MeteredVfs, RealVfs, Vfs};
use easeml_ci_core::{
    effort, AlarmReason, BoundsCache, CostModel, EstimateProvenance, PerClassCounts, PlanCache,
};
use easeml_par::Pool;
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
    /// Event (readiness) loops; loop 0 owns the listener. One is right
    /// for almost every deployment — parsing and buffer shuffling for
    /// thousands of connections fits one core; a second loop mainly buys
    /// isolation from accept bursts.
    pub event_threads: usize,
    /// Close a keep-alive connection after this many milliseconds
    /// without a request.
    pub idle_timeout_ms: u64,
    /// Budget in milliseconds from a request's first byte to its fully
    /// parsed form; a peer stalling longer mid-request gets a 400.
    pub request_timeout_ms: u64,
    /// Cap on pool-bound requests admitted concurrently (registration,
    /// cache persistence); one more is shed with `503` + `Retry-After`.
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
    /// batches fsyncs on a dedicated flusher and releases responses once
    /// their round lands; `relaxed` acknowledges commits before any
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
            event_threads: 1,
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
        self.hub.wake_all();
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
                event_threads: config.event_threads.max(1),
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
        // which defers queueing the response until the batched fsync
        // lands. The handler-duration histogram below intentionally
        // excludes that wait: it measures compute, the flush-latency
        // histogram measures durability.
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
    /// and fsyncs its record (2.8 ms p50 cold in
    /// `results/BENCH_serve.json`, `registration.cold`), and
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
            ctx.hub.wake_all();
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

/// Parse an uploaded testset object: `{"labels": <array|packed string>,
/// "labeling": "full"|"lazy", "classes": <u32>}`. `labeling` defaults to
/// `full`; `classes` defaults to `max(label) + 1`.
fn parse_testset_spec(value: &Value) -> Result<TestsetSpec, ServeError> {
    let truth = value
        .get("labels")
        .ok_or_else(|| ServeError::BadRequest("testset is missing field `labels`".into()))
        .and_then(|v| u32_vec_from_value(v, "testset.labels").map_err(ServeError::BadRequest))?;
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

fn register_project(registry: &Registry, request: &Request) -> Result<Response, ServeError> {
    let body = request.json_body().map_err(ServeError::BadRequest)?;
    let name = body
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field `name`".into()))?;
    let script = body
        .get("script")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field `script`".into()))?;
    let testset = match body.get("testset") {
        None | Some(Value::Null) => None,
        Some(value) => Some(parse_testset_spec(value)?),
    };
    let slot = registry.register(name, script, testset)?;
    let slot = slot.lock().expect("project poisoned");
    let project = &slot.project;
    let mut fields = vec![
        ("project", Value::from(name)),
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
        let project = &slot.project;
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
        Ok(Response::json(200, &Value::object(fields)))
    })
}

/// The `easeml_gate_outcomes_total{outcome=...}` label for a decision.
fn gate_outcome_str(receipt: &GateReceipt) -> &'static str {
    if matches!(receipt.alarm, Some(AlarmReason::BudgetExhausted)) {
        "budget_exhausted"
    } else if receipt.passed {
        "pass"
    } else {
        "fail"
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

/// Parse the optional `per_class` object of a counts submission:
/// `{"classes": C, "support": [...], "new_tp": [...], "old_tp": [...],
/// "new_pred": [...], "old_pred": [...]}` — required when the project's
/// condition reads `f1`/`topk` variables (scalar counts cannot carry a
/// confusion matrix), absent otherwise.
fn parse_per_class(body: &Value) -> Result<Option<PerClassCounts>, ServeError> {
    let value = match body.get("per_class") {
        None | Some(Value::Null) => return Ok(None),
        Some(v) => v,
    };
    let classes = value
        .get("classes")
        .and_then(Value::as_u64)
        .and_then(|c| u32::try_from(c).ok())
        .ok_or_else(|| ServeError::BadRequest("per_class is missing integer `classes`".into()))?;
    let vec = |key: &str| -> Result<Vec<u64>, ServeError> {
        value
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| ServeError::BadRequest(format!("per_class is missing array `{key}`")))?
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

/// The `per_class` section of a predictions response's measurement
/// block — mirrors the request shape [`parse_per_class`] accepts, so a
/// counts-mode twin can round-trip it byte-exactly.
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

fn submit_commit(ctx: &Ctx, name: &str, request: &Request) -> Result<Response, ServeError> {
    let registry: &Registry = &ctx.registry;
    let body = request.json_body().map_err(ServeError::BadRequest)?;
    let commit_id = body
        .get("commit_id")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field `commit_id`".into()))?;
    let count = |key: &str| -> Result<u64, ServeError> {
        body.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| ServeError::BadRequest(format!("missing integer field `{key}`")))
    };
    let submission = CommitSubmission {
        commit_id: commit_id.to_owned(),
        counts: EvalCounts {
            samples: count("samples")?,
            new_correct: count("new_correct")?,
            old_correct: count("old_correct")?,
            changed: count("changed")?,
            labels: body.get("labels").and_then(Value::as_u64).unwrap_or(0),
            per_class: parse_per_class(&body)?,
        },
    };
    with_project(registry, name, |slot| {
        let receipt = slot.submit(&submission)?;
        ctx.obs
            .metrics
            .gate_outcome(name, gate_outcome_str(&receipt));
        Ok(Response::json(
            200,
            &receipt_json(&receipt, &budget_json(&slot.project)),
        ))
    })
}

fn submit_predictions(ctx: &Ctx, name: &str, request: &Request) -> Result<Response, ServeError> {
    let registry: &Registry = &ctx.registry;
    let mut body = request.json_body().map_err(ServeError::BadRequest)?;
    let Some(Value::String(commit_id)) = body.take("commit_id") else {
        return Err(ServeError::BadRequest(
            "missing string field `commit_id`".into(),
        ));
    };
    // Each vector moves out of the parsed body with its wire string: a
    // `#`-packed one is journalled and digested as received.
    let mut vector = |key: &str| -> Result<(Vec<u32>, String), ServeError> {
        let value = body
            .take(key)
            .ok_or_else(|| ServeError::BadRequest(format!("missing field `{key}`")))?;
        u32_vec_with_wire(value, key).map_err(ServeError::BadRequest)
    };
    let (old, old_wire) = vector("old")?;
    let (new, new_wire) = vector("new")?;
    let packed = PackedPredictions::new(old_wire, new_wire);
    with_project(registry, name, |slot| {
        let (receipt, counts) = slot.submit_packed_predictions(&commit_id, &packed, &old, &new)?;
        ctx.obs
            .metrics
            .gate_outcome(name, gate_outcome_str(&receipt));
        let Value::Object(mut fields) = receipt_json(&receipt, &budget_json(&slot.project)) else {
            unreachable!("receipt_json builds an object")
        };
        // The derived counts are appended *after* the receipt fields:
        // the receipt part stays byte-comparable to the counts route's
        // response for the equivalence tests (and for auditing clients).
        let labeled_total = slot
            .project
            .measured()
            .map_or(0, crate::registry::MeasuredTestset::labeled_count);
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
        Ok(Response::json(200, &Value::Object(fields)))
    })
}

fn receipt_json(receipt: &GateReceipt, budget: &Value) -> Value {
    let alarm = receipt.alarm.map(|reason| match reason {
        AlarmReason::BudgetExhausted => "budget_exhausted",
        AlarmReason::PassedInHybrid => "passed_in_hybrid",
    });
    Value::object([
        ("commit_id", Value::from(receipt.commit_id.as_str())),
        ("step", Value::from(receipt.step)),
        ("era", Value::from(receipt.era)),
        ("signal", Value::from(receipt.signal)),
        ("accepted", Value::from(receipt.accepted)),
        ("outcome", Value::from(tribool_str(receipt.outcome))),
        ("passed", Value::from(receipt.passed)),
        ("alarm", Value::from(alarm)),
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
        let project = &slot.project;
        Ok(Response::json(
            200,
            &Value::object([
                ("project", Value::from(project.name())),
                ("budget", budget_json(project)),
                (
                    "labels_total",
                    Value::from(project.history().total_labels_requested()),
                ),
            ]),
        ))
    })
}

fn fresh_testset(
    registry: &Registry,
    name: &str,
    request: &Request,
) -> Result<Response, ServeError> {
    // Counts-mode projects POST an empty body (the client attests it
    // collected a fresh testset); server-measured projects must hand the
    // new era's testset data over in a `testset` object.
    let testset = if request.body.is_empty() {
        None
    } else {
        let body = request.json_body().map_err(ServeError::BadRequest)?;
        match body.get("testset") {
            None | Some(Value::Null) => None,
            Some(value) => Some(parse_testset_spec(value)?),
        }
    };
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
