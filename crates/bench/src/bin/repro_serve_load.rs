//! Load test of the `easeml-serve` HTTP CI service.
//!
//! Starts an in-process server on an ephemeral port with a scratch data
//! directory, drives N concurrent clients — each registering its own
//! project and pushing a deterministic stream of commit submissions —
//! and reports latency percentiles, throughput, and restart recovery
//! time to `results/BENCH_serve.json`: with the estimator caches still
//! warm from serving (`warm_restart_ms`), and with them emptied, as a
//! fresh process boots (`cold_restart_ms`). Each is timed five times
//! and written as the median with its min and max: one boot's time on a
//! shared VM spreads wider than the changes it is quoted for.
//!
//! Registration latency is reported as its own cold-vs-warm section
//! (`registration`): every client uses a script *unique to it* (a
//! distinct step budget), so its first registration runs the full plan
//! search with cold caches, and then registers a second project against
//! the same script, which the plan cache serves. Both include the
//! registration record's fsync.
//!
//! A `predictions` section drives the server-measured gate: each client
//! registers a project with a 1000-item lazily-labelled testset and
//! uploads raw old/new prediction vectors to `/commits/predictions`, so
//! every commit pays JSON vector decoding + server-side measurement +
//! vector journalling on top of the gate itself. The section reports the
//! latency ratio against the counts-gate p50 (same 1 k-sample scale) and
//! the total label spend of the lazy oracle.
//!
//! Before the main server stops, the harness scrapes `GET /metrics`,
//! dumps the raw exposition to `results/METRICS_serve.txt` (the CI
//! bench-smoke artifact), and reconstructs the per-stage latency
//! histograms from their cumulative buckets into a `stage_breakdown`
//! section — p50/p99 per pipeline stage (parse, queue, gate, measure,
//! journal_append, …) as the server itself measured them.
//!
//! The `durability` section runs the commit workloads on fresh servers
//! under `group` and `relaxed`. Each cell records its group-commit
//! rounds as `round_flush` (from `easeml_group_commit_flush_seconds`):
//! the loop runs those rounds outside any request, so the `fsync` stage
//! times only the syncs a request makes on its own thread.
//!
//! Every target the run checks (the sweep's p50 ratio and p99, overload
//! shedding and victim p99, Retry-After, the backoff budget, the
//! group@64 pipeline p50s and fsyncs per commit, the predictions/counts
//! p50 ratio) lands in a `targets` array as `{name, value, bound, met}`;
//! a missed one also prints a `WARNING:` line, and the run still exits 0.
//!
//! Usage: `cargo run --release --bin repro_serve_load [--quick] [--threads N]`

use easeml_bench::{format_sig, init_threads_from_args, results_dir, Table};
use easeml_ci_core::{BoundsCache, PlanCache};
use easeml_par::splitmix64;
use easeml_serve::json::{encode_u32_vec, Value};
use easeml_serve::obs::expo::{self, Exposition};
use easeml_serve::obs::hist::{fmt_seconds, Edges, HistogramSnapshot, Unit};
use easeml_serve::obs::trace::STAGES;
use easeml_serve::store::SNAPSHOT_EVERY;
use easeml_serve::{Client, Durability, RetryPolicy, ServeConfig, Server, ServerHandle};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The counts legs' condition.
const ACCURACY: &str = "n > 0.6 +/- 0.2";

/// Per-client CI script gating `condition`. The step budget varies by
/// client so every client's plan fingerprint (and every leaf `ln δ`) is
/// distinct — its cold registration can never ride another client's
/// cache fill.
fn script_with(condition: &str, client_id: u64) -> String {
    format!(
        "ml:\n\
         \x20 - script     : ./test_model.py\n\
         \x20 - condition  : {condition}\n\
         \x20 - reliability: 0.999\n\
         \x20 - mode       : fp-free\n\
         \x20 - adaptivity : full\n\
         \x20 - steps      : {}\n",
        1_000 + client_id
    )
}

/// [`script_with`] the [`ACCURACY`] condition.
fn script_for(client_id: u64) -> String {
    script_with(ACCURACY, client_id)
}

/// A `POST /projects` body. `testset` is an encoded label vector and
/// its labeling (`"lazy"` or `"full"`), over two classes.
fn register_body(name: &str, script: &str, testset: Option<(&str, &str)>) -> Value {
    let mut fields = vec![("name", Value::from(name)), ("script", Value::from(script))];
    if let Some((labels, labeling)) = testset {
        let testset = Value::object([
            ("labels", Value::from(labels)),
            ("labeling", Value::from(labeling)),
            ("classes", Value::from(2u64)),
        ]);
        fields.push(("testset", testset));
    }
    Value::object(fields)
}

/// A counts commit whose new model's score is drawn from `roll`.
fn counts_body(commit_id: String, roll: u64) -> Value {
    Value::object([
        ("commit_id", Value::from(commit_id)),
        ("samples", Value::from(1_000u64)),
        ("new_correct", Value::from(300 + roll % 700)),
        ("old_correct", Value::from(500u64)),
        ("changed", Value::from(roll % 1_000)),
        ("labels", Value::from(1_000u64)),
    ])
}

/// A predictions commit against the `old` vector; the new vector's
/// score is drawn from `roll`.
fn predictions_body(commit_id: String, old: &str, roll: u64) -> Value {
    Value::object([
        ("commit_id", Value::from(commit_id)),
        ("old", Value::from(old)),
        ("new", Value::from(pred_vector(300 + roll % 700))),
    ])
}

/// Send one request and time it; its status must be `want`. Returns
/// the elapsed ns and the response.
fn timed(
    client: &mut Client,
    method: &str,
    path: &str,
    body: Option<&Value>,
    want: u16,
) -> (f64, Value) {
    let t = Instant::now();
    let (status, response) = client
        .request(method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(status, want, "{method} {path}: {response}");
    (ns, response)
}

/// Split client ids `0..clients` evenly over `threads` scoped driver
/// threads and run `drive` on each thread's share; results come back in
/// thread order.
fn fan_out<T: Send>(
    clients: usize,
    threads: usize,
    drive: impl Fn(Range<u64>) -> T + Sync,
) -> Vec<T> {
    let drive = &drive;
    std::thread::scope(|s| {
        let drivers: Vec<_> = (0..threads)
            .map(|t| {
                let ids = (clients * t / threads) as u64..(clients * (t + 1) / threads) as u64;
                s.spawn(move || drive(ids))
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("driver"))
            .collect()
    })
}

/// A server running on its own thread.
struct Running {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<()>,
    data_dir: PathBuf,
}

impl Running {
    /// Empty `config.data_dir`, then bind and run a server on it.
    fn start(config: &ServeConfig) -> Running {
        let _ = std::fs::remove_dir_all(&config.data_dir);
        Running::run(Server::bind(config).expect("bind server"), &config.data_dir)
    }

    /// Run the bound `server` of `data_dir` on its own thread.
    fn run(server: Server, data_dir: &Path) -> Running {
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        Running {
            addr,
            handle,
            thread,
            data_dir: data_dir.to_path_buf(),
        }
    }

    /// Stop gracefully (every project is snapshotted); returns the data
    /// dir.
    fn stop(self) -> PathBuf {
        self.handle.stop();
        self.thread.join().expect("server thread");
        self.data_dir
    }
}

/// A scratch data dir for the server `tag` of this process.
fn scratch_dir(tag: &str, quick: bool) -> PathBuf {
    let size = if quick { "quick" } else { "full" };
    std::env::temp_dir().join(format!("easeml-serve-{tag}-{}-{size}", std::process::id()))
}

/// Restarts timed per cache state (warm, cold).
const RESTARTS: usize = 5;

/// Median, min and max of a restart's timings, in ms.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut ms: Vec<f64>) -> Spread {
        ms.sort_by(f64::total_cmp);
        let mid = ms.len() / 2;
        let median = if ms.len() % 2 == 1 {
            ms[mid]
        } else {
            (ms[mid - 1] + ms[mid]) / 2.0
        };
        Spread {
            median,
            min: ms[0],
            max: ms[ms.len() - 1],
        }
    }

    fn json(&self) -> Value {
        Value::object([
            ("median", Value::from(self.median)),
            ("min", Value::from(self.min)),
            ("max", Value::from(self.max)),
            ("samples", Value::from(RESTARTS)),
        ])
    }
}

/// Boot `data_dir` until `RESTARTS` boots are timed, `first` (a boot
/// timed already) included. `before` runs ahead of each boot, and each
/// server is stopped gracefully right after it.
fn timed_restarts(
    data_dir: &Path,
    durability: Durability,
    first: Option<f64>,
    before: impl Fn(),
) -> Spread {
    let mut ms: Vec<f64> = first.into_iter().collect();
    while ms.len() < RESTARTS {
        before();
        let (restarted, boot_ms) = timed_restart(data_dir, durability);
        ms.push(boot_ms);
        Running::run(restarted, data_dir).stop();
    }
    Spread::of(ms)
}

/// Bind a server on `data_dir` and time it: snapshot loads, journal
/// replay and boot re-estimation.
fn timed_restart(data_dir: &Path, durability: Durability) -> (Server, f64) {
    let t = Instant::now();
    let server = Server::bind(&ServeConfig {
        durability,
        ..ServeConfig::new("127.0.0.1:0", data_dir)
    })
    .expect("restart");
    (server, t.elapsed().as_nanos() as f64 / 1e6)
}

/// Latency percentiles over one request class.
struct Percentiles {
    count: usize,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn percentiles(mut samples_ns: Vec<f64>) -> Percentiles {
    assert!(!samples_ns.is_empty());
    samples_ns.sort_by(f64::total_cmp);
    let at = |p: f64| -> f64 {
        let idx = (p / 100.0 * (samples_ns.len() - 1) as f64).round() as usize;
        samples_ns[idx] / 1e3
    };
    Percentiles {
        count: samples_ns.len(),
        p50_us: at(50.0),
        p90_us: at(90.0),
        p99_us: at(99.0),
        max_us: samples_ns[samples_ns.len() - 1] / 1e3,
    }
}

/// The load test's targets: each is recorded in the artifact's
/// `targets` array, met or not, and a missed one also prints a
/// `WARNING:` line. A miss does not fail the run.
#[derive(Default)]
struct Targets(Vec<Value>);

impl Targets {
    /// Record target `name`: `value` against `bound` (e.g. `"< 2"`);
    /// when not `met`, print `WARNING: {miss}`.
    fn check(
        &mut self,
        name: &str,
        value: f64,
        bound: &str,
        met: bool,
        miss: impl FnOnce() -> String,
    ) {
        if !met {
            eprintln!("WARNING: {}", miss());
        }
        self.0.push(Value::object([
            ("name", Value::from(name)),
            ("value", Value::from(value)),
            ("bound", Value::from(bound)),
            ("met", Value::from(met)),
        ]));
    }
}

fn percentiles_json(p: &Percentiles) -> Value {
    Value::object([
        ("count", Value::from(p.count)),
        ("p50_us", Value::from(p.p50_us)),
        ("p90_us", Value::from(p.p90_us)),
        ("p99_us", Value::from(p.p99_us)),
        ("max_us", Value::from(p.max_us)),
    ])
}

/// One raw HTTP/1.1 round trip on its own `connection: close`
/// connection; returns the status and the whole response text. The
/// [`Client`] hides headers and reads only JSON bodies: the shed
/// contract is a header, and the scrape is text.
fn raw_round_trip(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let length = if body.is_empty() {
        String::new()
    } else {
        format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        )
    };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n{length}\r\n{body}"
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status = text.split(' ').nth(1).and_then(|s| s.parse().ok());
    (status.expect("status line"), text)
}

/// `GET /metrics`: the parsed exposition and its raw text.
fn scrape_metrics(addr: &str) -> (Exposition, String) {
    let (status, text) = raw_round_trip(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "GET /metrics must succeed");
    let body = text[text.find("\r\n\r\n").expect("header/body split") + 4..].to_string();
    (expo::parse(&body).expect("parse /metrics scrape"), body)
}

/// Rebuild the time histogram (`Edges::time`) `name{labels}` of a
/// parsed scrape: its cumulative `le` ladder, `+Inf` last, back into
/// per-bucket counts. `None` when the series is absent or empty.
fn read_histogram(
    expo: &Exposition,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSnapshot> {
    let count = expo
        .value(&format!("{name}_count"), labels)
        .filter(|&c| c > 0.0)?;
    let sum_s = expo
        .value(&format!("{name}_sum"), labels)
        .expect("_sum next to _count");
    let edges = Edges::time();
    let bucket = format!("{name}_bucket");
    let mut below = 0.0;
    let les = edges.bounds().iter().map(|&edge| fmt_seconds(edge));
    let counts = les
        .chain(["+Inf".to_string()])
        .map(|le| {
            let with_le: Vec<_> = labels.iter().copied().chain([("le", &*le)]).collect();
            let cumulative = expo
                .value(&bucket, &with_le)
                .unwrap_or_else(|| panic!("{bucket}{labels:?} lacks le={le}"));
            let n = (cumulative - below).round() as u64;
            below = cumulative;
            n
        })
        .collect();
    Some(HistogramSnapshot {
        edges: Arc::from(edges.bounds()),
        unit: Unit::Nanos,
        counts,
        sum: (sum_s * 1e9).round() as u64,
        count: count as u64,
    })
}

/// The samples of `name{labels}` recorded after the scrape `base` and by
/// the scrape `end`: `end`'s histogram less `base`'s, bucket by bucket
/// (`base = None` reads `end` alone). `None` when none landed between.
fn read_histogram_since(
    base: Option<&Exposition>,
    end: &Exposition,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSnapshot> {
    let mut h = read_histogram(end, name, labels)?;
    if let Some(before) = base.and_then(|base| read_histogram(base, name, labels)) {
        for (n, b) in h.counts.iter_mut().zip(&before.counts) {
            *n -= b;
        }
        h.count -= before.count;
        h.sum -= before.sum;
    }
    (h.count > 0).then_some(h)
}

/// A server-side histogram's count, p50 and p99 (µs) and total (ms).
#[derive(Default)]
struct ServerQuantiles {
    count: u64,
    p50_us: f64,
    p99_us: f64,
    total_ms: f64,
}

impl ServerQuantiles {
    /// Read `name{labels}` over the samples [`read_histogram_since`]
    /// keeps; `None` when there are none.
    fn read(
        base: Option<&Exposition>,
        end: &Exposition,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<ServerQuantiles> {
        let h = read_histogram_since(base, end, name, labels)?;
        Some(ServerQuantiles {
            count: h.count,
            p50_us: h.quantile(0.50)? / 1e3,
            p99_us: h.quantile(0.99)? / 1e3,
            total_ms: h.sum as f64 / 1e6,
        })
    }

    fn json(&self) -> Value {
        Value::object([
            ("count", Value::from(self.count)),
            ("p50_us", Value::from(self.p50_us)),
            ("p99_us", Value::from(self.p99_us)),
        ])
    }
}

/// Each stage's quantiles from `easeml_request_stage_seconds`, over the
/// samples recorded after `base` and by `end`. Stages that recorded
/// none are skipped.
fn stage_breakdown(
    base: Option<&Exposition>,
    end: &Exposition,
) -> Vec<(&'static str, ServerQuantiles)> {
    STAGES
        .iter()
        .filter_map(|stage| {
            let stage = stage.name();
            let labels = [("stage", stage)];
            let q = ServerQuantiles::read(base, end, "easeml_request_stage_seconds", &labels);
            Some((stage, q?))
        })
        .collect()
}

/// Counters the scrape must show as non-zero after the load phases —
/// the CI bench-smoke contract (it greps the dumped artifact for the
/// same names).
const CURATED_NONZERO: [(&str, &[(&str, &str)]); 11] = [
    ("easeml_requests_total", &[("route", "commit")]),
    ("easeml_requests_total", &[("route", "commit_predictions")]),
    ("easeml_requests_total", &[("route", "register")]),
    ("easeml_responses_total", &[("class", "2xx")]),
    ("easeml_journal_appends_total", &[]),
    ("easeml_journal_bytes_total", &[]),
    ("easeml_connections_accepted_total", &[]),
    ("easeml_loop_polls_total", &[]),
    // Every gate decision lands here — the F1 leg included — so the
    // artifact proves submissions reached actual verdicts.
    ("easeml_gate_outcomes_total", &[]),
    // The counts leg runs past two cadence snapshots per project, so
    // the commit path wrote cadence snapshots and timed them.
    ("easeml_snapshot_writes_total", &[]),
    (
        "easeml_request_stage_seconds_count",
        &[("stage", "snapshot")],
    ),
];

/// One client's lifecycle; returns (cold_register_ns, warm_register_ns,
/// commit_ns[], read_ns[]).
fn drive_client(addr: &str, client_id: u64, commits: u64) -> (f64, f64, Vec<f64>, Vec<f64>) {
    let mut client = Client::new(addr);
    let script = script_for(client_id);
    let name = format!("load-{client_id}");
    let mut register = |name: &str| {
        let body = register_body(name, &script, None);
        timed(&mut client, "POST", "/projects", Some(&body), 201).0
    };
    // Cold: this script's plan fingerprint has never been estimated.
    let register_ns = register(&name);
    // Warm: same script, fresh project — the plan cache serves the
    // whole estimate.
    let warm_register_ns = register(&format!("load-warm-{client_id}"));

    let commit_path = format!("/projects/{name}/commits");
    let budget_path = format!("/projects/{name}/budget");
    let mut commit_ns = Vec::with_capacity(commits as usize);
    let mut read_ns = Vec::new();
    for i in 0..commits {
        let body = counts_body(format!("c{i}"), splitmix64(client_id, i));
        commit_ns.push(timed(&mut client, "POST", &commit_path, Some(&body), 200).0);
        // A sprinkling of read traffic, like a dashboard would generate.
        if i % 16 == 15 {
            read_ns.push(timed(&mut client, "GET", &budget_path, None, 200).0);
        }
    }
    (register_ns, warm_register_ns, commit_ns, read_ns)
}

/// Size of the predictions-mode testset (the ISSUE's 1 k-sample scale).
const PRED_TESTSET: usize = 1_000;

/// Prediction vector over an all-zeros truth: correct (0) on the first
/// `correct` items, wrong (1) after.
fn pred_vector(correct: u64) -> String {
    let preds: Vec<u32> = (0..PRED_TESTSET as u64)
        .map(|i| u32::from(i >= correct))
        .collect();
    encode_u32_vec(&preds)
}

/// A leg of prediction-vector commits: each client registers
/// `{prefix}-{id}` gating `condition` over the testset `labels`
/// (encoded, labelled `labeling`), then uploads old/new vector pairs,
/// the new one's score drawn from `splitmix64(id + seed, i)`.
struct VectorLeg {
    prefix: &'static str,
    condition: &'static str,
    labels: String,
    labeling: &'static str,
    seed: u64,
}

/// One client of `leg`; returns (commit_ns[], labels spent, gate
/// passes).
fn drive_vector_client(
    addr: &str,
    leg: &VectorLeg,
    client_id: u64,
    commits: u64,
) -> (Vec<f64>, u64, u64) {
    let mut client = Client::new(addr);
    let name = format!("{}-{client_id}", leg.prefix);
    let script = script_with(leg.condition, client_id);
    let body = register_body(&name, &script, Some((&leg.labels, leg.labeling)));
    timed(&mut client, "POST", "/projects", Some(&body), 201);

    let commit_path = format!("/projects/{name}/commits/predictions");
    let old = pred_vector(500);
    let mut commit_ns = Vec::with_capacity(commits as usize);
    let (mut labels, mut passes) = (0u64, 0u64);
    for i in 0..commits {
        let body = predictions_body(format!("c{i}"), &old, splitmix64(client_id + leg.seed, i));
        let (ns, receipt) = timed(&mut client, "POST", &commit_path, Some(&body), 200);
        commit_ns.push(ns);
        labels += receipt
            .get("labels")
            .and_then(Value::as_u64)
            .expect("labels");
        passes += u64::from(receipt.get("passed").and_then(Value::as_bool) == Some(true));
        // A metric condition's receipt exposes the per-class confusion
        // shape its estimate was computed from.
        let per_class = receipt.get("measurement").and_then(|m| m.get("per_class"));
        assert_eq!(
            per_class.is_some(),
            leg.condition.starts_with("f1("),
            "{}: receipt measurement {receipt}",
            leg.condition
        );
    }
    (commit_ns, labels, passes)
}

/// One concurrency level of the keep-alive sweep: `clients` connections
/// stay open simultaneously while every client pushes `commits`
/// submissions against its own project. Driver threads each own a slice
/// of the clients and round-robin over them, so concurrency comes from
/// open *connections* (what the event loop multiplexes), not from
/// thousands of OS threads. The driver width is pinned across levels so
/// every level offers the same in-flight load and the sweep isolates
/// the cost of *open connections* — the thing the event loop scales —
/// from request queueing, which on a small host would otherwise drown
/// the signal. Returns (commit latencies ns, measured wall time of the
/// slowest driver).
fn sweep_level(addr: &str, clients: usize, commits: u64) -> (Vec<f64>, f64) {
    let threads = clients.min(8);
    let barrier = Barrier::new(threads);
    let script = script_for(0); // plan-cache-warm for all
    let drivers = fan_out(clients, threads, |ids| {
        // Setup: one keep-alive connection + one project per client; the
        // connection stays open through the barrier.
        let mut owned: Vec<(u64, Client, String)> = ids
            .map(|id| {
                let mut client = Client::new(addr);
                let name = format!("sweep{clients}-{id}");
                let body = register_body(&name, &script, None);
                timed(&mut client, "POST", "/projects", Some(&body), 201);
                (id, client, format!("/projects/{name}/commits"))
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut latencies = Vec::with_capacity(owned.len() * commits as usize);
        for i in 0..commits {
            for (id, client, path) in &mut owned {
                let body = counts_body(format!("c{i}"), splitmix64(*id, i));
                latencies.push(timed(client, "POST", path, Some(&body), 200).0);
            }
        }
        (latencies, t0.elapsed().as_nanos() as f64 / 1e6)
    });
    let wall_ms = drivers.iter().map(|d| d.1).fold(0.0, f64::max);
    (drivers.into_iter().flat_map(|d| d.0).collect(), wall_ms)
}

// ---------------------------------------------------------------------
// Durability phase (group vs relaxed)
// ---------------------------------------------------------------------

/// Counts projects shared per durability level: clients are spread over
/// this many journals, so one group-commit round retires many commits
/// with at most this many fsyncs — the batching the mode exists for.
const DUR_PROJECTS: usize = 4;

/// One concurrency level of the durability sweep.
struct DurabilityLevel {
    clients: usize,
    counts_commits: u64,
    preds_commits: u64,
    counts: Percentiles,
    predictions: Percentiles,
    /// The `commit` and `commit_predictions` routes as the server
    /// itself measured them.
    counts_server: ServerQuantiles,
    predictions_server: ServerQuantiles,
    /// Pipeline-stage quantiles (gate / measure / journal_append /
    /// fsync) from the cell's own scrape.
    stages: Vec<(&'static str, ServerQuantiles)>,
    /// The loop's group-commit rounds (all 0 under `relaxed`).
    round_flush: ServerQuantiles,
    commits: u64,
    fsyncs: u64,
    fsyncs_per_commit: f64,
    wall_ms: f64,
    rps: f64,
}

impl DurabilityLevel {
    /// p50 of one pipeline stage in this cell (0 when the stage never
    /// ran — e.g. `fsync` in a cell whose rounds had nothing to sync).
    fn stage_p50(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|(stage, _)| *stage == name)
            .map_or(0.0, |(_, q)| q.p50_us)
    }
}

/// Outcome of one durability mode's level sweep.
struct DurabilityMode {
    mode: &'static str,
    plan_warm_register: Percentiles,
    levels: Vec<DurabilityLevel>,
}

/// Drive one (mode, clients) cell: a fresh server in `durability` mode,
/// `clients` keep-alive connections spread over [`DUR_PROJECTS`] counts
/// projects and as many predictions projects, pushing the familiar
/// commit workloads. Registration latencies (all plan-warm: the scripts
/// were estimated in the main phase) feed the per-mode registration
/// percentile; the two scrapes bracket the commit storm so the
/// fsyncs-per-commit ratio and every server histogram exclude
/// registration I/O.
fn run_durability_level(
    durability: Durability,
    quick: bool,
    clients: usize,
    register_ns: &mut Vec<f64>,
) -> DurabilityLevel {
    let counts_commits = (2_000 / clients as u64).max(4);
    let preds_commits = (800 / clients as u64).max(2);
    let dir = scratch_dir(&format!("dur-{durability}-{clients}"), quick);
    let server = Running::start(&ServeConfig {
        durability,
        ..ServeConfig::new("127.0.0.1:0", dir)
    });
    let addr = server.addr.as_str();

    // Shared projects, registered up front (their journals are what a
    // group-commit round batches across).
    let mut setup = Client::new(addr);
    let truth = encode_u32_vec(&[0; PRED_TESTSET]);
    let lazy = Some((truth.as_str(), "lazy"));
    for (prefix, script, testset) in [("dur", script_for(0), None), ("durp", script_for(1), lazy)] {
        for p in 0..DUR_PROJECTS {
            let body = register_body(&format!("{prefix}-{p}"), &script, testset);
            register_ns.push(timed(&mut setup, "POST", "/projects", Some(&body), 201).0);
        }
    }
    drop(setup);

    let (baseline, _) = scrape_metrics(addr);
    let fsyncs_before = baseline
        .value("easeml_journal_fsyncs_total", &[])
        .unwrap_or(0.0);

    // One driver thread per client: group-commit batching depth is set
    // by how many commits are genuinely in flight at once (each blocks
    // until its group-commit round retires), so unlike the keep-alive sweep
    // the drivers must not multiplex clients onto a fixed thread pool.
    let barrier = Barrier::new(clients);
    let wall = Instant::now();
    let drivers = fan_out(clients, clients, |ids| {
        let mut owned: Vec<(u64, Client)> = ids.map(|id| (id, Client::new(addr))).collect();
        barrier.wait();
        let mut counts_ns = Vec::new();
        let mut preds_ns = Vec::new();
        for i in 0..counts_commits {
            for (id, client) in &mut owned {
                let path = format!("/projects/dur-{}/commits", *id as usize % DUR_PROJECTS);
                let body = counts_body(format!("c{id}-{i}"), splitmix64(*id, i));
                counts_ns.push(timed(client, "POST", &path, Some(&body), 200).0);
            }
        }
        let old = pred_vector(500);
        for i in 0..preds_commits {
            for (id, client) in &mut owned {
                let project = *id as usize % DUR_PROJECTS;
                let path = format!("/projects/durp-{project}/commits/predictions");
                let body = predictions_body(format!("p{id}-{i}"), &old, splitmix64(*id + 9_000, i));
                preds_ns.push(timed(client, "POST", &path, Some(&body), 200).0);
            }
        }
        (counts_ns, preds_ns)
    });
    let wall_ms = wall.elapsed().as_nanos() as f64 / 1e6;
    let counts_ns: Vec<f64> = drivers.iter().flat_map(|d| d.0.iter().copied()).collect();
    let preds_ns: Vec<f64> = drivers.iter().flat_map(|d| d.1.iter().copied()).collect();

    let (end, _) = scrape_metrics(addr);
    let fsyncs_after = end.value("easeml_journal_fsyncs_total", &[]).unwrap_or(0.0);
    let commits: f64 = ["commit", "commit_predictions"]
        .iter()
        .map(|route| end.value("easeml_requests_total", &[("route", route)]))
        .map(|requests| requests.unwrap_or(0.0))
        .sum();
    // The pipeline-stage view of the same cell: what the durable-commit
    // stages themselves cost, net of the per-request wrapper (HTTP/JSON
    // parse, response build, tracing) that is identical in every mode.
    // The latency targets are stated against these stage histograms;
    // the route-duration quantiles below are the stricter whole-handler
    // numbers, reported alongside.
    let stages = stage_breakdown(Some(&baseline), &end)
        .into_iter()
        .filter(|(stage, _)| matches!(*stage, "gate" | "measure" | "journal_append" | "fsync"))
        .collect();
    let since = |name, labels: &[_]| ServerQuantiles::read(Some(&baseline), &end, name, labels);
    let route = |route| {
        since("easeml_request_duration_seconds", &[("route", route)])
            .unwrap_or_else(|| panic!("{route} route histogram"))
    };
    let (counts_server, predictions_server) = (route("commit"), route("commit_predictions"));
    let round_flush = since("easeml_group_commit_flush_seconds", &[]);
    let _ = std::fs::remove_dir_all(server.stop());

    let commits = commits as u64;
    let fsyncs = (fsyncs_after - fsyncs_before).max(0.0) as u64;
    let requests = counts_ns.len() + preds_ns.len();
    DurabilityLevel {
        clients,
        counts_commits,
        preds_commits,
        counts: percentiles(counts_ns),
        predictions: percentiles(preds_ns),
        counts_server,
        predictions_server,
        stages,
        round_flush: round_flush.unwrap_or_default(),
        commits,
        fsyncs,
        fsyncs_per_commit: fsyncs as f64 / commits.max(1) as f64,
        wall_ms,
        rps: requests as f64 / (wall_ms / 1e3),
    }
}

/// The durability sweep — group and relaxed over the same client
/// levels — reporting client- and server-side gate latency plus
/// the fsyncs-per-commit ratio that group commit exists to shrink
/// (relaxed anchors the floor: acks that never wait on an fsync).
fn run_durability_phase(quick: bool) -> Vec<DurabilityMode> {
    let levels: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    [Durability::Group, Durability::Relaxed]
        .into_iter()
        .map(|durability| {
            let mut register_ns = Vec::new();
            let levels: Vec<DurabilityLevel> = levels
                .iter()
                .map(|&clients| {
                    let level = run_durability_level(durability, quick, clients, &mut register_ns);
                    let pipeline = level.stage_p50("gate") + level.stage_p50("journal_append");
                    println!(
                        "durability {durability} @ {clients:>3} clients: counts p50 {:.0} us \
                         (handler {:.1} us, pipeline {pipeline:.1} us), preds p50 {:.0} us \
                         (handler {:.1} us), group-commit round p50 {:.0} us ({} rounds), \
                         in-handler fsync p50 {:.0} us, {:.3} fsyncs/commit, {:.0} req/s",
                        level.counts.p50_us,
                        level.counts_server.p50_us,
                        level.predictions.p50_us,
                        level.predictions_server.p50_us,
                        level.round_flush.p50_us,
                        level.round_flush.count,
                        level.stage_p50("fsync"),
                        level.fsyncs_per_commit,
                        level.rps,
                    );
                    level
                })
                .collect();
            DurabilityMode {
                mode: durability.as_str(),
                plan_warm_register: percentiles(register_ns),
                levels,
            }
        })
        .collect()
}

fn main() {
    let threads = init_threads_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    // `--durability` sets the *main-phase* server's mode (default:
    // group, the server default). The durability comparison phase
    // below always measures both modes.
    let mut durability = Durability::default();
    let mut flags = std::env::args();
    while let Some(arg) = flags.next() {
        if arg == "--durability" {
            let value = flags.next().unwrap_or_default();
            durability = Durability::parse(&value).unwrap_or_else(|| {
                eprintln!("error: --durability expects group|relaxed, got `{value}`");
                std::process::exit(2);
            });
        }
    }
    let (clients, commits_per_client): (u64, u64) = if quick { (4, 25) } else { (8, 200) };
    // Each counts project runs until it has written two cadence
    // snapshots: the first lands at op 64, the second once the journal
    // past it outgrows it, near op 190 for these commit bodies (checked
    // on disk before the graceful stop).
    let counts_commits_per_client = commits_per_client.max(4 * SNAPSHOT_EVERY);

    let server = Running::start(&ServeConfig {
        durability,
        ..ServeConfig::new("127.0.0.1:0", scratch_dir("load", quick))
    });
    let addr = server.addr.as_str();

    println!(
        "== serve load test ({durability} durability): {clients} clients x {counts_commits_per_client} counts + {commits_per_client} predictions + {commits_per_client} f1 commits on {} ({} pool threads) ==",
        addr,
        easeml_par::Pool::global().threads(),
    );

    // Each main leg runs one driver thread per client.
    let per_client = clients as usize;
    let wall = Instant::now();
    let counts = fan_out(per_client, per_client, |ids| {
        drive_client(addr, ids.start, counts_commits_per_client)
    });
    let register_ns: Vec<f64> = counts.iter().map(|c| c.0).collect();
    let warm_register_ns: Vec<f64> = counts.iter().map(|c| c.1).collect();
    let commit_ns: Vec<f64> = counts.iter().flat_map(|c| c.2.iter().copied()).collect();
    let read_ns: Vec<f64> = counts.iter().flat_map(|c| c.3.iter().copied()).collect();

    // Predictions phase: the server does the measuring on a 1 k-sample
    // lazily-labelled testset per client. F1 phase: non-binomial
    // (McDiarmid-backed) gates over the same prediction-vector
    // transport on a fully labelled two-class testset, on the main
    // server so the gate decisions land in the /metrics scrape below.
    let f1_truth: Vec<u32> = (0..PRED_TESTSET as u32).map(|i| i % 2).collect();
    let legs = [
        VectorLeg {
            prefix: "pred",
            condition: ACCURACY,
            labels: encode_u32_vec(&[0; PRED_TESTSET]),
            labeling: "lazy",
            seed: 1_000,
        },
        VectorLeg {
            prefix: "f1",
            condition: "f1(n) - f1(o) > -0.5 +/- 0.2",
            labels: encode_u32_vec(&f1_truth),
            labeling: "full",
            seed: 2_000,
        },
    ];
    let [pred, f1] = legs.map(|leg| {
        let runs = fan_out(per_client, per_client, |ids| {
            drive_vector_client(addr, &leg, ids.start, commits_per_client)
        });
        let commit_ns: Vec<f64> = runs.iter().flat_map(|r| r.0.iter().copied()).collect();
        let labels: u64 = runs.iter().map(|r| r.1).sum();
        (commit_ns, labels, runs.iter().map(|r| r.2).sum::<u64>())
    });
    let (pred_commit_ns, pred_labels_total, _) = pred;
    let (f1_commit_ns, _, f1_passes) = f1;
    let wall_ms = wall.elapsed().as_nanos() as f64 / 1e6;
    let total_requests = register_ns.len()
        + warm_register_ns.len()
        + commit_ns.len()
        + read_ns.len()
        + clients as usize // predictions registrations
        + pred_commit_ns.len()
        + clients as usize // f1 registrations
        + f1_commit_ns.len();

    // Scrape the live server's /metrics before it stops: the raw text
    // is the CI artifact, the parsed stage histograms become the
    // stage_breakdown section.
    let (expo, scrape) = scrape_metrics(addr);
    let metrics_path = results_dir().join("METRICS_serve.txt");
    std::fs::write(&metrics_path, &scrape).expect("write METRICS_serve.txt");
    println!(
        "[metrics] wrote {} ({} bytes)",
        metrics_path.display(),
        scrape.len()
    );
    assert!(
        expo.series_count() >= 25,
        "scrape must carry the full catalog (got {} series)",
        expo.series_count()
    );
    if durability == Durability::Group {
        // Each round retires at least one staged append's sync.
        let rounds = expo.value("easeml_group_commit_rounds_total", &[]);
        let appends = expo.value("easeml_journal_appends_total", &[]);
        assert!(
            rounds.is_some_and(|r| r > 0.0 && Some(r) <= appends),
            "group durability must retire its syncs in rounds: {rounds:?} rounds, {appends:?} appends"
        );
    }
    for (name, labels) in CURATED_NONZERO {
        let value = expo.value(name, labels);
        assert!(
            value.is_some_and(|v| v > 0.0),
            "curated counter {name}{labels:?} must be non-zero after load (got {value:?})"
        );
    }
    let stages = stage_breakdown(None, &expo);
    assert!(
        ["gate", "journal_append", "handler", "response_write"]
            .iter()
            .all(|s| stages.iter().any(|(stage, _)| stage == s)),
        "core pipeline stages must have recorded samples"
    );

    for c in 0..clients {
        let path = server
            .data_dir
            .join(format!("projects/load-{c}/snapshot.json"));
        let snapshot = Value::parse(&std::fs::read_to_string(&path).expect("cadence snapshot"))
            .expect("snapshot json");
        let watermark = snapshot.get("journal_ops").and_then(Value::as_u64);
        assert!(
            watermark.is_some_and(|ops| ops > SNAPSHOT_EVERY),
            "project load-{c} wrote fewer than two cadence snapshots (last at op {watermark:?})"
        );
    }

    // Graceful stop snapshots every project.
    let data_dir = server.stop();

    // Restart: snapshot load plus journal replay. The estimator caches
    // stay warm in this process, so boot re-estimation is map lookups.
    let (restarted, restart_ms) = timed_restart(&data_dir, durability);
    // Recovered state must reflect every journalled commit.
    let restarted = Running::run(restarted, &data_dir);
    let mut probe = Client::new(restarted.addr.as_str());
    let (_, health) = timed(&mut probe, "GET", "/healthz", None, 200);
    assert_eq!(
        health.get("projects").and_then(Value::as_u64),
        // One cold + one plan-warm + one predictions + one F1 project
        // per client.
        Some(4 * clients),
        "all projects must survive the restart"
    );
    // F1 and predictions replay re-measure the journalled vectors (F1
    // through the per-class confusion path); losing a commit here means
    // a measurement did not survive the restart.
    for (prefix, suffix, used) in [
        ("f1", "", commits_per_client),
        ("pred", "", commits_per_client),
        ("load", "/budget", counts_commits_per_client),
    ] {
        for c in 0..clients {
            let path = format!("/projects/{prefix}-{c}{suffix}");
            let (_, body) = timed(&mut probe, "GET", &path, None, 200);
            let budget = body.get("budget").and_then(|b| b.get("used"));
            assert_eq!(
                budget.and_then(Value::as_u64),
                Some(used),
                "{path} lost commits across restart"
            );
        }
    }
    drop(probe);
    restarted.stop();
    // More warm restarts of the same directory (each stop rewrites the
    // same snapshots), then cold ones: a fresh process boots with empty
    // estimator caches and re-derives every project's estimate.
    let restart_ms = timed_restarts(&data_dir, durability, Some(restart_ms), || {});
    let cold_restart_ms = timed_restarts(&data_dir, durability, None, || {
        BoundsCache::global().clear();
        PlanCache::global().clear();
    });

    // Keep-alive concurrency sweep on a fresh server instance (its own
    // data dir, so the restart-recovery checks above stay untouched):
    // the same commit workload at 8 / 256 / 1000 simultaneously open
    // connections. The event loop must hold the commit gate's latency
    // flat as mostly-idle keep-alive connections pile up.
    let sweep_levels: &[usize] = if quick { &[8, 256] } else { &[8, 256, 1_000] };
    let sweep_server = Running::start(&ServeConfig::new(
        "127.0.0.1:0",
        scratch_dir("sweep", quick),
    ));
    let mut sweep_rows = Vec::new();
    for &level in sweep_levels {
        // Similar sample counts per level: fewer commits per client as
        // the client count grows.
        let commits = (4_000 / level as u64).max(4);
        let (latencies, level_wall_ms) = sweep_level(&sweep_server.addr, level, commits);
        let requests = latencies.len();
        let p = percentiles(latencies);
        let level_rps = requests as f64 / (level_wall_ms / 1e3);
        println!(
            "sweep {level:>5} clients: {requests} commits, p50 {:.0} us, p99 {:.0} us, {:.0} req/s",
            p.p50_us, p.p99_us, level_rps
        );
        sweep_rows.push((level, commits, requests, level_wall_ms, level_rps, p));
    }
    let _ = std::fs::remove_dir_all(sweep_server.stop());

    let sweep_baseline_p50 = sweep_rows[0].5.p50_us;
    let sweep_top = sweep_rows.last().expect("at least one sweep level");
    let sweep_ratio = sweep_top.5.p50_us / sweep_baseline_p50;
    println!(
        "commit gate p50 at {} keep-alive clients: {:.0} us ({:.2}x the {}-client baseline, \
         target <2x) | p99 {:.0} us (target <10 ms)",
        sweep_top.0, sweep_top.5.p50_us, sweep_ratio, sweep_rows[0].0, sweep_top.5.p99_us
    );
    let mut targets = Targets::default();
    targets.check(
        "sweep_p50_ratio",
        sweep_ratio,
        "< 2",
        sweep_ratio < 2.0,
        || {
            format!(
                "commit p50 at {} clients is {sweep_ratio:.2}x the baseline (target <2x)",
                sweep_top.0
            )
        },
    );
    let sweep_p99 = sweep_top.5.p99_us;
    targets.check(
        "sweep_p99_us",
        sweep_p99,
        "< 10000",
        sweep_p99 < 10_000.0,
        || {
            format!(
                "commit p99 at {} clients is {sweep_p99:.0} us (target <10 ms)",
                sweep_top.0
            )
        },
    );

    // Overload phase: sustained offered load far past the admission
    // limit. Floods of heavy pool-bound registrations must be shed with
    // 503 + Retry-After while inline commit traffic keeps its latency;
    // afterwards, backoff clients must converge without manual pacing.
    let overload = run_overload_phase(quick);
    println!(
        "overload: {} offered into {} slots -> {} accepted, {} shed ({:.0}% shed rate) | \
         victim commit p99 {:.0} us during overload (target <10 ms)",
        overload.offered,
        overload.max_inflight,
        overload.accepted,
        overload.shed,
        overload.shed_rate * 100.0,
        overload.victim.p99_us,
    );
    println!(
        "overload convergence: {} backoff clients all registered in {:.0} ms with {} retries",
        overload.converge_clients, overload.converge_wall_ms, overload.converge_retries,
    );
    targets.check(
        "overload_shed",
        overload.shed as f64,
        ">= 1",
        overload.shed > 0,
        || "overload phase shed nothing (offered load did not saturate)".into(),
    );
    targets.check(
        "overload_retry_after_on_all_sheds",
        f64::from(u8::from(overload.retry_after_on_all_sheds)),
        "= 1",
        overload.retry_after_on_all_sheds,
        || "some shed responses lacked a Retry-After header".into(),
    );
    let victim_p99 = overload.victim.p99_us;
    targets.check(
        "overload_victim_p99_us",
        victim_p99,
        "< 10000",
        victim_p99 < 10_000.0,
        || format!("victim commit p99 under overload is {victim_p99:.0} us (target <10 ms)"),
    );
    targets.check(
        "backoff_converged",
        f64::from(u8::from(overload.converged)),
        "= 1",
        overload.converged,
        || "a backoff client exhausted its retry budget without registering".into(),
    );

    // Durability phase: the same commit workloads against fresh servers
    // in `group` (batched fsync, ack-after-durable) and `relaxed` (ack
    // before any fsync) modes, across client levels. Group must hold
    // the gate's µs-scale server-side latency while collapsing the
    // fsync-per-commit ratio.
    let durability_modes = run_durability_phase(quick);
    for mode in &durability_modes {
        if mode.mode != "group" {
            continue;
        }
        for level in &mode.levels {
            if level.clients != 64 {
                continue;
            }
            // The targets are stated against the server's stage
            // histograms: the durable-commit pipeline stages, net of
            // the mode-independent request wrapper.
            let counts_path = level.stage_p50("gate") + level.stage_p50("journal_append");
            let preds_path = counts_path + level.stage_p50("measure");
            targets.check(
                "group64_counts_pipeline_p50_us",
                counts_path,
                "<= 10",
                counts_path <= 10.0,
                || {
                    format!(
                        "group@64 counts-gate pipeline p50 is {counts_path:.1} us \
                         (gate + journal_append, target <=10 us)"
                    )
                },
            );
            targets.check(
                "group64_predictions_pipeline_p50_us",
                preds_path,
                "<= 20",
                preds_path <= 20.0,
                || {
                    format!(
                        "group@64 predictions pipeline p50 is {preds_path:.1} us \
                         (gate + measure + journal_append, target <=20 us)"
                    )
                },
            );
            let fsyncs = level.fsyncs_per_commit;
            targets.check(
                "group64_fsyncs_per_commit",
                fsyncs,
                "< 0.25",
                fsyncs < 0.25,
                || format!("group@64 fsyncs-per-commit is {fsyncs:.3} (target <0.25)"),
            );
        }
    }

    let reg = percentiles(register_ns);
    let warm_reg = percentiles(warm_register_ns);
    let commit = percentiles(commit_ns);
    let reads = percentiles(read_ns);
    let pred_commit = percentiles(pred_commit_ns);
    let f1_commit = percentiles(f1_commit_ns);
    let rps = total_requests as f64 / (wall_ms / 1e3);

    let mut table = Table::new(["request", "count", "p50_us", "p90_us", "p99_us", "max_us"]);
    for (name, p) in [
        ("register_cold", &reg),
        ("register_plan_warm", &warm_reg),
        ("commit", &commit),
        ("commit_predictions", &pred_commit),
        ("commit_f1", &f1_commit),
        ("budget_read", &reads),
    ] {
        table.push_row([
            name.to_string(),
            p.count.to_string(),
            format_sig(p.p50_us),
            format_sig(p.p90_us),
            format_sig(p.p99_us),
            format_sig(p.max_us),
        ]);
    }
    println!("{}", table.render());

    // Server-side view of the same load: where request time actually
    // went, stage by stage, from the scrape's histograms.
    let mut stage_table = Table::new(["stage", "count", "p50_us", "p99_us", "total_ms"]);
    for (stage, q) in &stages {
        stage_table.push_row([
            stage.to_string(),
            q.count.to_string(),
            format_sig(q.p50_us),
            format_sig(q.p99_us),
            format_sig(q.total_ms),
        ]);
    }
    println!("{}", stage_table.render());

    println!(
        "wall {:.0} ms | {:.0} req/s | restart (snapshot + journal replay, median of \
         {RESTARTS}) warm {:.1} ms [{:.1}-{:.1}], cold {:.1} ms [{:.1}-{:.1}]",
        wall_ms,
        rps,
        restart_ms.median,
        restart_ms.min,
        restart_ms.max,
        cold_restart_ms.median,
        cold_restart_ms.min,
        cold_restart_ms.max,
    );
    println!(
        "registration p50: cold {:.0} us -> plan-cache-warm {:.1} us ({:.0}x)",
        reg.p50_us,
        warm_reg.p50_us,
        reg.p50_us / warm_reg.p50_us,
    );
    let pred_ratio = pred_commit.p50_us / commit.p50_us;
    println!(
        "predictions gate p50 {:.0} us vs counts gate p50 {:.0} us ({:.1}x, target <5x on a \
         {PRED_TESTSET}-sample testset) | {} labels spent by the lazy oracle",
        pred_commit.p50_us, commit.p50_us, pred_ratio, pred_labels_total,
    );
    targets.check(
        "predictions_vs_counts_p50_ratio",
        pred_ratio,
        "< 5",
        pred_ratio < 5.0,
        || {
            format!(
                "predictions-gate p50 is {pred_ratio:.1}x the counts-gate p50 \
                 (acceptance target <5x)"
            )
        },
    );
    println!(
        "f1 gate p50 {:.0} us over a fully-labelled {PRED_TESTSET}-sample testset | \
         {f1_passes} of {} metric-gated commits passed",
        f1_commit.p50_us, f1_commit.count,
    );

    let json = Value::object([
        ("bench", Value::from("serve")),
        ("quick", Value::from(quick)),
        (
            "environment",
            Value::object([
                ("threads", Value::from(threads)),
                (
                    "host_available_parallelism",
                    Value::from(
                        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
                    ),
                ),
            ]),
        ),
        ("clients", Value::from(clients)),
        ("commits_per_client", Value::from(commits_per_client)),
        (
            "counts_commits_per_client",
            Value::from(counts_commits_per_client),
        ),
        ("total_requests", Value::from(total_requests)),
        ("wall_ms", Value::from(wall_ms)),
        ("throughput_rps", Value::from(rps)),
        (
            "latency",
            Value::object([
                ("register", percentiles_json(&reg)),
                ("commit", percentiles_json(&commit)),
                ("budget_read", percentiles_json(&reads)),
            ]),
        ),
        // Server-measured gate: raw 1 k-item prediction vectors through
        // /commits/predictions (JSON vector decode + measurement + vector
        // journalling per request), vs the counts gate's p50.
        (
            "predictions",
            Value::object([
                ("testset_size", Value::from(PRED_TESTSET)),
                ("labeling", Value::from("lazy")),
                ("commit", percentiles_json(&pred_commit)),
                ("counts_gate_p50_us", Value::from(commit.p50_us)),
                ("p50_ratio_vs_counts", Value::from(pred_ratio)),
                ("labels_spent_total", Value::from(pred_labels_total)),
            ]),
        ),
        // Non-binomial gate: F1 conditions routed through the McDiarmid
        // estimator over per-class confusion counts the server derives
        // from the same prediction-vector transport.
        (
            "f1",
            Value::object([
                ("testset_size", Value::from(PRED_TESTSET)),
                ("labeling", Value::from("full")),
                ("commit", percentiles_json(&f1_commit)),
                ("passes", Value::from(f1_passes)),
            ]),
        ),
        // Server-measured per-stage latency, reconstructed from the
        // /metrics scrape's cumulative stage histograms. The raw scrape
        // itself is dumped to results/METRICS_serve.txt.
        (
            "stage_breakdown",
            Value::object([
                ("source", Value::from("/metrics scrape before shutdown")),
                ("series_count", Value::from(expo.series_count())),
                (
                    "stages",
                    Value::array(stages.iter().map(|(stage, q)| {
                        Value::object([
                            ("stage", Value::from(*stage)),
                            ("count", Value::from(q.count)),
                            ("p50_us", Value::from(q.p50_us)),
                            ("p99_us", Value::from(q.p99_us)),
                            ("total_ms", Value::from(q.total_ms)),
                        ])
                    })),
                ),
            ]),
        ),
        // Registration cold-vs-warm as its own section: `cold` runs the
        // full plan search on a never-seen script; `plan_warm` registers
        // a second project against the same script and is served end to
        // end by the plan cache.
        (
            "registration",
            Value::object([
                ("cold", percentiles_json(&reg)),
                ("plan_warm", percentiles_json(&warm_reg)),
                ("p50_speedup", Value::from(reg.p50_us / warm_reg.p50_us)),
            ]),
        ),
        ("warm_restart_ms", restart_ms.json()),
        ("cold_restart_ms", cold_restart_ms.json()),
        // Keep-alive concurrency sweep: per-level throughput + commit
        // latency with N connections simultaneously open.
        (
            "concurrency",
            Value::object([
                (
                    "levels",
                    Value::array(sweep_rows.iter().map(
                        |(level, commits, requests, wall_ms, rps, p)| {
                            Value::object([
                                ("clients", Value::from(*level)),
                                ("commits_per_client", Value::from(*commits)),
                                ("requests", Value::from(*requests)),
                                ("wall_ms", Value::from(*wall_ms)),
                                ("throughput_rps", Value::from(*rps)),
                                ("commit", percentiles_json(p)),
                            ])
                        },
                    )),
                ),
                ("baseline_clients", Value::from(sweep_rows[0].0)),
                ("baseline_p50_us", Value::from(sweep_baseline_p50)),
                ("top_clients", Value::from(sweep_top.0)),
                ("top_p50_us", Value::from(sweep_top.5.p50_us)),
                ("top_p99_us", Value::from(sweep_top.5.p99_us)),
                ("p50_ratio_top_vs_baseline", Value::from(sweep_ratio)),
            ]),
        ),
        // Overload shedding: offered > capacity through the admission
        // gate, inline commit latency of a victim during the storm, and
        // the retry/backoff convergence of the shed clients.
        (
            "overload",
            Value::object([
                ("max_inflight", Value::from(overload.max_inflight)),
                ("flood_threads", Value::from(overload.flood_threads)),
                ("offered", Value::from(overload.offered)),
                ("accepted", Value::from(overload.accepted)),
                ("shed", Value::from(overload.shed)),
                ("shed_rate", Value::from(overload.shed_rate)),
                (
                    "retry_after_on_all_sheds",
                    Value::from(overload.retry_after_on_all_sheds),
                ),
                ("victim_commit", percentiles_json(&overload.victim)),
                (
                    "convergence",
                    Value::object([
                        ("clients", Value::from(overload.converge_clients)),
                        ("converged", Value::from(overload.converged)),
                        ("retries", Value::from(overload.converge_retries)),
                        ("wall_ms", Value::from(overload.converge_wall_ms)),
                    ]),
                ),
            ]),
        ),
        // Group-vs-relaxed durability sweep: client- and server-side
        // commit latency, the group-commit rounds and the
        // fsync-per-commit ratio at each client level, and the plan-warm
        // registration percentile per mode.
        (
            "durability",
            Value::array(durability_modes.iter().map(|mode| {
                Value::object([
                    ("mode", Value::from(mode.mode)),
                    (
                        "plan_warm_register",
                        percentiles_json(&mode.plan_warm_register),
                    ),
                    (
                        "levels",
                        Value::array(mode.levels.iter().map(|level| {
                            Value::object([
                                ("clients", Value::from(level.clients)),
                                (
                                    "counts_commits_per_client",
                                    Value::from(level.counts_commits),
                                ),
                                ("preds_commits_per_client", Value::from(level.preds_commits)),
                                ("counts", percentiles_json(&level.counts)),
                                ("predictions", percentiles_json(&level.predictions)),
                                ("counts_server", level.counts_server.json()),
                                ("predictions_server", level.predictions_server.json()),
                                (
                                    "stages",
                                    Value::object(
                                        level.stages.iter().map(|(stage, q)| (*stage, q.json())),
                                    ),
                                ),
                                ("round_flush", level.round_flush.json()),
                                ("commits", Value::from(level.commits)),
                                ("fsyncs", Value::from(level.fsyncs)),
                                ("fsyncs_per_commit", Value::from(level.fsyncs_per_commit)),
                                ("wall_ms", Value::from(level.wall_ms)),
                                ("throughput_rps", Value::from(level.rps)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
        // Every target above, met or missed.
        ("targets", Value::Array(targets.0)),
    ]);
    let path = results_dir().join("BENCH_serve.json");
    std::fs::write(&path, json.pretty()).expect("write BENCH_serve.json");
    println!("[json] wrote {}", path.display());

    let _ = std::fs::remove_dir_all(&data_dir);
}

// ---------------------------------------------------------------------
// Overload phase
// ---------------------------------------------------------------------

/// Outcome of the overload phase.
struct OverloadOutcome {
    max_inflight: usize,
    flood_threads: usize,
    offered: usize,
    accepted: usize,
    shed: usize,
    shed_rate: f64,
    retry_after_on_all_sheds: bool,
    victim: Percentiles,
    converge_clients: usize,
    converged: bool,
    converge_retries: u64,
    converge_wall_ms: f64,
}

/// Drive the admission gate past saturation: `flood_threads` concurrent
/// streams of heavy pool-bound registrations (a predictions-mode
/// project with a large server-side testset each — decode + digest +
/// blob write per request) against `max_inflight = 2` slots, while a
/// victim client measures inline commit latency through the storm.
/// Afterwards, shed-and-retry clients must all converge.
fn run_overload_phase(quick: bool) -> OverloadOutcome {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (flood_threads, rounds, testset_size, converge_clients) = if quick {
        (8usize, 4u64, 80_000usize, 4usize)
    } else {
        (12, 8, 150_000, 6)
    };
    let max_inflight = 2usize;

    // threads: 4 so pool spawns are genuinely asynchronous and the
    // admission slots are actually held while handlers run (a width-1
    // pool executes spawns inline and could never contend).
    let server = Running::start(&ServeConfig {
        threads: 4,
        max_inflight,
        ..ServeConfig::new("127.0.0.1:0", scratch_dir("overload", quick))
    });
    let addr = server.addr.as_str();

    // The victim project: inline counts-gate commits with a budget deep
    // enough to outlast the storm.
    let mut victim_client = Client::new(addr);
    let body = register_body("overload-victim", &script_for(50_000), None);
    timed(&mut victim_client, "POST", "/projects", Some(&body), 201);

    // The heavy registration: a lazy testset of `testset_size` items.
    let labels = encode_u32_vec(&vec![0u32; testset_size]);
    let heavy_script = script_for(60_000);
    let heavy = |name: &str| register_body(name, &heavy_script, Some((&labels, "lazy")));
    // The flood encodes it once and splices each request's name in, so
    // its threads wait on the server instead of encoding.
    let encoded = heavy("").encode();
    let tail = encoded.strip_prefix(r#"{"name":"""#).expect("name leads");

    let stop = AtomicBool::new(false);
    let (flood, victim_ns) = std::thread::scope(|s| {
        let victim = s.spawn(|| {
            let mut client = Client::with_policy(addr, RetryPolicy::none());
            let mut latencies_ns = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let body = counts_body(format!("v{i}"), splitmix64(0xdead_10ad, i));
                let path = "/projects/overload-victim/commits";
                latencies_ns.push(timed(&mut client, "POST", path, Some(&body), 200).0);
                i += 1;
            }
            latencies_ns
        });
        // The flood: every thread fires rounds of heavy registrations
        // back-to-back — sustained offered concurrency of
        // `flood_threads` against `max_inflight` slots.
        let barrier = Barrier::new(flood_threads);
        let flood = fan_out(flood_threads, flood_threads, |ids| {
            barrier.wait();
            let (mut accepted, mut shed, mut retry_after_ok) = (0usize, 0usize, true);
            for r in 0..rounds {
                let body = format!(r#"{{"name":"flood-{}-{r}"{tail}"#, ids.start);
                let (status, response) = raw_round_trip(addr, "POST", "/projects", &body);
                match status {
                    201 => accepted += 1,
                    503 => {
                        shed += 1;
                        retry_after_ok &= response.contains("retry-after:");
                    }
                    other => panic!("unexpected flood status {other}"),
                }
            }
            (accepted, shed, retry_after_ok)
        });
        stop.store(true, Ordering::Relaxed);
        (flood, victim.join().expect("victim thread"))
    });

    let accepted: usize = flood.iter().map(|(a, _, _)| a).sum();
    let shed: usize = flood.iter().map(|(_, s, _)| s).sum();
    let retry_after_on_all_sheds = flood.iter().all(|(_, _, ok)| *ok);
    let offered = accepted + shed;

    // Convergence: the burst again, but through retrying clients that
    // honor Retry-After plus jitter — every one must land a 201.
    let barrier = Barrier::new(converge_clients);
    let converge_start = Instant::now();
    let converge = fan_out(converge_clients, converge_clients, |ids| {
        let policy = RetryPolicy {
            attempts: 10,
            seed: 0x0e11_a000 + ids.start,
            ..RetryPolicy::default()
        };
        let mut client = Client::with_policy(addr, policy);
        let body = heavy(&format!("converge-{}", ids.start));
        barrier.wait();
        let (status, _) = client
            .request("POST", "/projects", Some(&body))
            .expect("converge register");
        (status, client.retries())
    });
    let converge_wall_ms = converge_start.elapsed().as_nanos() as f64 / 1e6;
    let converged = converge.iter().all(|(status, _)| *status == 201);
    let converge_retries: u64 = converge.iter().map(|(_, r)| r).sum();
    let _ = std::fs::remove_dir_all(server.stop());

    OverloadOutcome {
        max_inflight,
        flood_threads,
        offered,
        accepted,
        shed,
        shed_rate: shed as f64 / offered.max(1) as f64,
        retry_after_on_all_sheds,
        victim: percentiles(victim_ns),
        converge_clients,
        converged,
        converge_retries,
        converge_wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_serve::obs::Metrics;

    /// The histogram reader gives back exactly what the server recorded:
    /// per-bucket counts (the `+Inf` overflow included), count, sum and
    /// quantiles, for a labelled and an unlabelled series.
    #[test]
    fn read_histogram_rebuilds_what_was_recorded() {
        let metrics = Metrics::new();
        let help = "A test histogram.";
        let plain = metrics.histogram_with("easeml_plain_seconds", help, Edges::time(), &[]);
        let labelled = ("stage", "gate");
        let staged =
            metrics.histogram_with("easeml_staged_seconds", help, Edges::time(), &[labelled]);
        metrics.histogram_with("easeml_empty_seconds", help, Edges::time(), &[]);
        // Values on an edge, between edges, below the first and past the
        // last (the overflow bucket), several of them repeated.
        let last = *Edges::time().bounds().last().unwrap();
        for ns in [1, 1_000, 1_414, 2_500, 2_500, 70_000, 9_999_999, last + 1] {
            plain.record(ns);
        }
        for ns in [700, 3_000, 3_000, 3_000, 123_456_789, last * 3, last * 3] {
            staged.record(ns);
        }

        let expo = expo::parse(&metrics.render()).unwrap();
        for (name, labels, source) in [
            ("easeml_plain_seconds", &[][..], plain.snapshot()),
            ("easeml_staged_seconds", &[labelled][..], staged.snapshot()),
        ] {
            assert!(source.counts.last() > Some(&0), "{name}: overflow recorded");
            let read = read_histogram(&expo, name, labels).unwrap();
            assert_eq!(read.counts, source.counts, "{name}");
            assert_eq!((read.count, read.sum), (source.count, source.sum), "{name}");
            for q in [0.50, 0.99] {
                assert_eq!(read.quantile(q), source.quantile(q), "{name} q{q}");
            }
            assert_eq!(read, source, "{name}");
        }
        assert!(read_histogram(&expo, "easeml_staged_seconds", &[("stage", "fsync")]).is_none());
        assert!(read_histogram(&expo, "easeml_absent_seconds", &[]).is_none());
        assert!(read_histogram(&expo, "easeml_empty_seconds", &[]).is_none());
    }

    /// The difference of two scrapes of a histogram is the histogram of
    /// the samples recorded between them.
    #[test]
    fn read_histogram_since_keeps_the_samples_between_two_scrapes() {
        let help = "A test histogram.";
        let labelled = [("stage", "fsync")];
        let metrics = Metrics::new();
        let h = metrics.histogram_with("easeml_staged_seconds", help, Edges::time(), &labelled);
        let between = Metrics::new();
        let only = between.histogram_with("easeml_staged_seconds", help, Edges::time(), &labelled);
        let last = *Edges::time().bounds().last().unwrap();
        for ns in [1, 1_414, 2_500, 70_000, last + 1] {
            h.record(ns);
        }
        let base = expo::parse(&metrics.render()).unwrap();
        let name = "easeml_staged_seconds";
        assert!(read_histogram_since(Some(&base), &base, name, &labelled).is_none());
        for ns in [1_000, 2_500, 2_500, 9_999_999, last * 3] {
            h.record(ns);
            only.record(ns);
        }
        let end = expo::parse(&metrics.render()).unwrap();
        let since = read_histogram_since(Some(&base), &end, name, &labelled).unwrap();
        assert_eq!(since, only.snapshot());
        for q in [0.50, 0.99] {
            assert_eq!(since.quantile(q), only.snapshot().quantile(q), "q{q}");
        }
        // A series the base scrape lacks is read whole; no base reads `end`.
        let empty = expo::parse(&Metrics::new().render()).unwrap();
        let whole = read_histogram(&end, name, &labelled);
        assert_eq!(
            read_histogram_since(Some(&empty), &end, name, &labelled),
            whole
        );
        assert_eq!(read_histogram_since(None, &end, name, &labelled), whole);
    }
}
