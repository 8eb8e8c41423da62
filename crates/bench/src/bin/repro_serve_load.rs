//! Load test of the `easeml-serve` HTTP CI service.
//!
//! Starts an in-process server on an ephemeral port with a scratch data
//! directory, drives N concurrent clients — each registering its own
//! project and pushing a deterministic stream of commit submissions —
//! and reports latency percentiles, throughput, and restart recovery
//! time to `results/BENCH_serve.json`: once with the estimator caches
//! still warm from serving (`warm_restart_ms`), once with them emptied,
//! as a fresh process boots (`cold_restart_ms`).
//!
//! Registration latency is reported as its own cold-vs-warm section:
//! every client uses a script *unique to it* (a distinct step budget),
//! so its first registration runs the full plan search with cold caches,
//! and then registers a second project against the same script, which
//! the plan cache serves (the committed quick run, `registration` in
//! `results/BENCH_serve.json`: 2.8 ms cold against 1.3 ms warm, p50).
//! Both include the registration record's fsync.
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
//! Usage: `cargo run --release --bin repro_serve_load [--quick] [--threads N]`

use easeml_bench::{format_sig, init_threads_from_args, results_dir, Table};
use easeml_ci_core::{BoundsCache, PlanCache};
use easeml_par::splitmix64;
use easeml_serve::json::Value;
use easeml_serve::obs::expo::Exposition;
use easeml_serve::obs::hist::{fmt_seconds, Edges, HistogramSnapshot, Unit};
use easeml_serve::obs::trace::STAGES;
use easeml_serve::server::{ServeConfig, Server};
use easeml_serve::store::SNAPSHOT_EVERY;
use easeml_serve::Client;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Per-client CI script. The step budget varies by client so every
/// client's plan fingerprint (and every leaf `ln δ`) is distinct — its
/// cold registration can never ride another client's cache fill.
fn script_for(client_id: u64) -> String {
    format!(
        "ml:\n\
         \x20 - script     : ./test_model.py\n\
         \x20 - condition  : n > 0.6 +/- 0.2\n\
         \x20 - reliability: 0.999\n\
         \x20 - mode       : fp-free\n\
         \x20 - adaptivity : full\n\
         \x20 - steps      : {}\n",
        1_000 + client_id
    )
}

/// Bind a server on `data_dir` and time it: snapshot loads, journal
/// replay and boot re-estimation.
fn timed_restart(
    data_dir: &std::path::Path,
    durability: easeml_serve::Durability,
) -> (Server, f64) {
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

fn percentiles_json(p: &Percentiles) -> Value {
    Value::object([
        ("count", Value::from(p.count)),
        ("p50_us", Value::from(p.p50_us)),
        ("p90_us", Value::from(p.p90_us)),
        ("p99_us", Value::from(p.p99_us)),
        ("max_us", Value::from(p.max_us)),
    ])
}

/// Fetch the raw text body of `GET /metrics` over one throwaway
/// connection (the JSON [`Client`] can't carry a text exposition).
fn scrape_metrics(addr: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect for scrape");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n")
        .expect("write scrape");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read scrape");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("scrape status line");
    assert_eq!(status, 200, "GET /metrics must succeed");
    let body_at = text.find("\r\n\r\n").expect("header/body split") + 4;
    text[body_at..].to_string()
}

/// Per-stage latency reconstructed from the scrape.
struct StageQuantiles {
    stage: &'static str,
    count: u64,
    p50_us: f64,
    p99_us: f64,
    total_ms: f64,
}

/// Rebuild each stage's [`HistogramSnapshot`] from the cumulative
/// `easeml_request_stage_seconds_bucket` ladder in a parsed scrape and
/// read p50/p99 off it. Stages that never recorded are skipped.
fn stage_breakdown(expo: &Exposition) -> Vec<StageQuantiles> {
    let edges = Edges::time();
    let bounds = edges.bounds();
    let mut out = Vec::new();
    for stage in STAGES {
        let name = stage.name();
        let Some(count) = expo.value("easeml_request_stage_seconds_count", &[("stage", name)])
        else {
            continue;
        };
        if count == 0.0 {
            continue;
        }
        let sum_s = expo
            .value("easeml_request_stage_seconds_sum", &[("stage", name)])
            .expect("stage _sum next to _count");
        // Un-accumulate the le ladder back into per-bucket counts.
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        let mut prev = 0.0;
        for &edge in bounds {
            let le = fmt_seconds(edge);
            let cum = expo
                .value(
                    "easeml_request_stage_seconds_bucket",
                    &[("stage", name), ("le", le.as_str())],
                )
                .unwrap_or_else(|| panic!("bucket le={le} for stage {name}"));
            counts.push((cum - prev).round() as u64);
            prev = cum;
        }
        let inf = expo
            .value(
                "easeml_request_stage_seconds_bucket",
                &[("stage", name), ("le", "+Inf")],
            )
            .unwrap_or_else(|| panic!("+Inf bucket for stage {name}"));
        counts.push((inf - prev).round() as u64);
        let snap = HistogramSnapshot {
            edges: Arc::from(bounds),
            unit: Unit::Nanos,
            counts,
            sum: (sum_s * 1e9).round() as u64,
            count: count as u64,
        };
        out.push(StageQuantiles {
            stage: name,
            count: snap.count,
            p50_us: snap.quantile(0.50).expect("non-empty stage") / 1e3,
            p99_us: snap.quantile(0.99).expect("non-empty stage") / 1e3,
            total_ms: sum_s * 1e3,
        });
    }
    out
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
    let register = |client: &mut Client, name: &str| -> f64 {
        let body = Value::object([
            ("name", Value::from(name)),
            ("script", Value::from(script.as_str())),
        ]);
        let t = Instant::now();
        let (status, response) = client
            .request("POST", "/projects", Some(&body))
            .expect("register");
        let elapsed = t.elapsed().as_nanos() as f64;
        assert_eq!(status, 201, "{response}");
        elapsed
    };
    // Cold: this script's plan fingerprint has never been estimated.
    let register_ns = register(&mut client, &name);
    // Warm: same script, fresh project — the plan cache serves the
    // whole estimate.
    let warm_register_ns = register(&mut client, &format!("load-warm-{client_id}"));

    let commit_path = format!("/projects/{name}/commits");
    let budget_path = format!("/projects/{name}/budget");
    let mut commit_ns = Vec::with_capacity(commits as usize);
    let mut read_ns = Vec::new();
    for i in 0..commits {
        let roll = splitmix64(client_id, i);
        let body = Value::object([
            ("commit_id", Value::from(format!("c{i}"))),
            ("samples", Value::from(1_000u64)),
            ("new_correct", Value::from(300 + roll % 700)),
            ("old_correct", Value::from(500u64)),
            ("changed", Value::from(roll % 1_000)),
            ("labels", Value::from(1_000u64)),
        ]);
        let t = Instant::now();
        let (status, response) = client
            .request("POST", &commit_path, Some(&body))
            .expect("commit");
        commit_ns.push(t.elapsed().as_nanos() as f64);
        assert_eq!(status, 200, "{response}");
        // A sprinkling of read traffic, like a dashboard would generate.
        if i % 16 == 15 {
            let t = Instant::now();
            let (status, _) = client.request("GET", &budget_path, None).expect("budget");
            read_ns.push(t.elapsed().as_nanos() as f64);
            assert_eq!(status, 200);
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
    easeml_serve::json::encode_u32_vec(&preds)
}

/// One predictions-mode client: registers a project with a 1 k-item lazy
/// testset and uploads `commits` old/new vector pairs. Returns
/// (commit_ns[], labels_spent_total).
fn drive_predictions_client(addr: &str, client_id: u64, commits: u64) -> (Vec<f64>, u64) {
    let mut client = Client::new(addr);
    let name = format!("pred-{client_id}");
    let script = script_for(client_id);
    let truth = vec![0u32; PRED_TESTSET];
    let body = Value::object([
        ("name", Value::from(name.as_str())),
        ("script", Value::from(script.as_str())),
        (
            "testset",
            Value::object([
                (
                    "labels",
                    Value::from(easeml_serve::json::encode_u32_vec(&truth)),
                ),
                ("labeling", Value::from("lazy")),
                ("classes", Value::from(2u64)),
            ]),
        ),
    ]);
    let (status, response) = client
        .request("POST", "/projects", Some(&body))
        .expect("register predictions project");
    assert_eq!(status, 201, "{response}");

    let commit_path = format!("/projects/{name}/commits/predictions");
    let old = pred_vector(500);
    let mut commit_ns = Vec::with_capacity(commits as usize);
    let mut labels_total = 0u64;
    for i in 0..commits {
        let roll = splitmix64(client_id + 1_000, i);
        let body = Value::object([
            ("commit_id", Value::from(format!("c{i}"))),
            ("old", Value::from(old.as_str())),
            ("new", Value::from(pred_vector(300 + roll % 700))),
        ]);
        let t = Instant::now();
        let (status, response) = client
            .request("POST", &commit_path, Some(&body))
            .expect("predictions commit");
        commit_ns.push(t.elapsed().as_nanos() as f64);
        assert_eq!(status, 200, "{response}");
        labels_total += response
            .get("labels")
            .and_then(Value::as_u64)
            .expect("labels in receipt");
    }
    (commit_ns, labels_total)
}

/// F1-gating leg: each client registers a metric-conditioned project
/// (`f1(n) - f1(o)` over a fully-labelled two-class testset) and pushes
/// prediction-vector commits through the McDiarmid-backed estimator —
/// the non-binomial gate path end-to-end, and the traffic that feeds
/// `easeml_gate_outcomes_total` into the CI metrics artifact. Returns
/// (commit_ns[], gate passes).
fn drive_f1_client(addr: &str, client_id: u64, commits: u64) -> (Vec<f64>, u64) {
    let mut client = Client::new(addr);
    let name = format!("f1-{client_id}");
    let script = format!(
        "ml:\n\
         \x20 - script     : ./test_model.py\n\
         \x20 - condition  : f1(n) - f1(o) > -0.5 +/- 0.2\n\
         \x20 - reliability: 0.999\n\
         \x20 - mode       : fp-free\n\
         \x20 - adaptivity : full\n\
         \x20 - steps      : {}\n",
        1_000 + client_id
    );
    let truth: Vec<u32> = (0..PRED_TESTSET as u32).map(|i| i % 2).collect();
    let body = Value::object([
        ("name", Value::from(name.as_str())),
        ("script", Value::from(script.as_str())),
        (
            "testset",
            Value::object([
                (
                    "labels",
                    Value::from(easeml_serve::json::encode_u32_vec(&truth)),
                ),
                ("labeling", Value::from("full")),
                ("classes", Value::from(2u64)),
            ]),
        ),
    ]);
    let (status, response) = client
        .request("POST", "/projects", Some(&body))
        .expect("register f1 project");
    assert_eq!(status, 201, "{response}");

    let commit_path = format!("/projects/{name}/commits/predictions");
    let old = pred_vector(500);
    let mut commit_ns = Vec::with_capacity(commits as usize);
    let mut passes = 0u64;
    for i in 0..commits {
        let roll = splitmix64(client_id + 2_000, i);
        let body = Value::object([
            ("commit_id", Value::from(format!("c{i}"))),
            ("old", Value::from(old.as_str())),
            ("new", Value::from(pred_vector(300 + roll % 700))),
        ]);
        let t = Instant::now();
        let (status, response) = client
            .request("POST", &commit_path, Some(&body))
            .expect("f1 commit");
        commit_ns.push(t.elapsed().as_nanos() as f64);
        assert_eq!(status, 200, "{response}");
        // The receipt must expose the per-class confusion shape the F1
        // estimate was computed from.
        assert!(
            response
                .get("measurement")
                .and_then(|m| m.get("per_class"))
                .is_some(),
            "f1 receipt lacks measurement.per_class: {response}"
        );
        passes += u64::from(response.get("passed").and_then(Value::as_bool) == Some(true));
    }
    (commit_ns, passes)
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
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
    let script = std::sync::Arc::new(script_for(0)); // plan-cache-warm for all
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.to_owned();
            let barrier = std::sync::Arc::clone(&barrier);
            let script = std::sync::Arc::clone(&script);
            std::thread::spawn(move || {
                let lo = clients * t / threads;
                let hi = clients * (t + 1) / threads;
                // Setup: one keep-alive connection + one project per
                // client; the connection stays open through the barrier.
                let mut owned: Vec<(u64, Client, String)> = (lo..hi)
                    .map(|id| {
                        let mut client = Client::new(addr.clone());
                        let name = format!("sweep{clients}-{id}");
                        let body = Value::object([
                            ("name", Value::from(name.as_str())),
                            ("script", Value::from(script.as_str())),
                        ]);
                        let (status, response) = client
                            .request("POST", "/projects", Some(&body))
                            .expect("sweep register");
                        assert_eq!(status, 201, "{response}");
                        (id as u64, client, format!("/projects/{name}/commits"))
                    })
                    .collect();
                barrier.wait();
                let t0 = Instant::now();
                let mut latencies = Vec::with_capacity(owned.len() * commits as usize);
                for i in 0..commits {
                    for (id, client, path) in &mut owned {
                        let roll = splitmix64(*id, i);
                        let body = Value::object([
                            ("commit_id", Value::from(format!("c{i}"))),
                            ("samples", Value::from(1_000u64)),
                            ("new_correct", Value::from(300 + roll % 700)),
                            ("old_correct", Value::from(500u64)),
                            ("changed", Value::from(roll % 1_000)),
                            ("labels", Value::from(1_000u64)),
                        ]);
                        let t = Instant::now();
                        let (status, response) = client
                            .request("POST", path.as_str(), Some(&body))
                            .expect("sweep commit");
                        latencies.push(t.elapsed().as_nanos() as f64);
                        assert_eq!(status, 200, "{response}");
                    }
                }
                (latencies, t0.elapsed().as_nanos() as f64 / 1e6)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut wall_ms = 0f64;
    for worker in workers {
        let (lat, wall) = worker.join().expect("sweep driver thread");
        latencies.extend(lat);
        wall_ms = wall_ms.max(wall);
    }
    (latencies, wall_ms)
}

// ---------------------------------------------------------------------
// Durability phase (group vs relaxed)
// ---------------------------------------------------------------------

/// Counts projects shared per durability level: clients are spread over
/// this many journals, so one group-commit flusher round retires many
/// commits with at most this many fsyncs — the batching the mode exists
/// for.
const DUR_PROJECTS: usize = 4;

/// Server-side latency of one route, reconstructed from the scrape's
/// cumulative `easeml_request_duration_seconds` ladder.
fn route_duration_quantiles(expo: &Exposition, route: &str) -> Option<(u64, f64, f64)> {
    let edges = Edges::time();
    let bounds = edges.bounds();
    let count = expo.value("easeml_request_duration_seconds_count", &[("route", route)])?;
    if count == 0.0 {
        return None;
    }
    let sum_s = expo.value("easeml_request_duration_seconds_sum", &[("route", route)])?;
    let mut counts = Vec::with_capacity(bounds.len() + 1);
    let mut prev = 0.0;
    for &edge in bounds {
        let le = fmt_seconds(edge);
        let cum = expo.value(
            "easeml_request_duration_seconds_bucket",
            &[("route", route), ("le", le.as_str())],
        )?;
        counts.push((cum - prev).round() as u64);
        prev = cum;
    }
    let inf = expo.value(
        "easeml_request_duration_seconds_bucket",
        &[("route", route), ("le", "+Inf")],
    )?;
    counts.push((inf - prev).round() as u64);
    let snap = HistogramSnapshot {
        edges: Arc::from(bounds),
        unit: Unit::Nanos,
        counts,
        sum: (sum_s * 1e9).round() as u64,
        count: count as u64,
    };
    Some((
        snap.count,
        snap.quantile(0.50)? / 1e3,
        snap.quantile(0.99)? / 1e3,
    ))
}

/// One concurrency level of the durability sweep.
struct DurabilityLevel {
    clients: usize,
    counts_commits: u64,
    preds_commits: u64,
    counts: Percentiles,
    predictions: Percentiles,
    /// (count, p50_us, p99_us) of the `commit` route as the server
    /// itself measured it.
    counts_server: (u64, f64, f64),
    predictions_server: (u64, f64, f64),
    /// Pipeline-stage quantiles (gate / measure / journal_append /
    /// fsync) from the cell's own scrape.
    stages: Vec<StageQuantiles>,
    commits: u64,
    fsyncs: u64,
    fsyncs_per_commit: f64,
    wall_ms: f64,
    rps: f64,
}

impl DurabilityLevel {
    /// p50 of one pipeline stage in this cell (0 when the stage never
    /// ran — e.g. `fsync` in a cell whose flusher had nothing to sync).
    fn stage_p50(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|q| q.stage == name)
            .map_or(0.0, |q| q.p50_us)
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
/// fsyncs-per-commit ratio excludes registration I/O.
fn run_durability_level(
    durability: easeml_serve::Durability,
    quick: bool,
    clients: usize,
    register_ns: &mut Vec<f64>,
) -> DurabilityLevel {
    let counts_commits = (2_000 / clients as u64).max(4);
    let preds_commits = (800 / clients as u64).max(2);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "easeml-serve-dur-{}-{}-{clients}-{}",
        std::process::id(),
        durability,
        if quick { "quick" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServeConfig {
        durability,
        ..ServeConfig::new("127.0.0.1:0", dir.clone())
    })
    .expect("bind durability server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("durability server run"));

    // Shared projects, registered up front (their journals are what the
    // flusher batches across).
    let mut setup = Client::new(addr.clone());
    let counts_script = script_for(0);
    for p in 0..DUR_PROJECTS {
        let body = Value::object([
            ("name", Value::from(format!("dur-{p}"))),
            ("script", Value::from(counts_script.as_str())),
        ]);
        let t = Instant::now();
        let (status, response) = setup
            .request("POST", "/projects", Some(&body))
            .expect("durability register");
        register_ns.push(t.elapsed().as_nanos() as f64);
        assert_eq!(status, 201, "{response}");
    }
    let preds_script = script_for(1);
    let truth = easeml_serve::json::encode_u32_vec(&vec![0u32; PRED_TESTSET]);
    for p in 0..DUR_PROJECTS {
        let body = Value::object([
            ("name", Value::from(format!("durp-{p}"))),
            ("script", Value::from(preds_script.as_str())),
            (
                "testset",
                Value::object([
                    ("labels", Value::from(truth.as_str())),
                    ("labeling", Value::from("lazy")),
                    ("classes", Value::from(2u64)),
                ]),
            ),
        ]);
        let t = Instant::now();
        let (status, response) = setup
            .request("POST", "/projects", Some(&body))
            .expect("durability predictions register");
        register_ns.push(t.elapsed().as_nanos() as f64);
        assert_eq!(status, 201, "{response}");
    }
    drop(setup);

    let baseline = easeml_serve::obs::expo::parse(&scrape_metrics(&addr)).expect("baseline scrape");
    let fsyncs_before = baseline
        .value("easeml_journal_fsyncs_total", &[])
        .unwrap_or(0.0);

    // One driver thread per client: group-commit batching depth is set
    // by how many commits are genuinely in flight at once (each blocks
    // until its flush round retires), so unlike the keep-alive sweep
    // the drivers must not multiplex clients onto a fixed thread pool.
    let threads = clients;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
    let wall = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let lo = clients * t / threads;
                let hi = clients * (t + 1) / threads;
                let mut owned: Vec<(u64, Client)> = (lo..hi)
                    .map(|id| (id as u64, Client::new(addr.clone())))
                    .collect();
                barrier.wait();
                let mut counts_ns = Vec::new();
                let mut preds_ns = Vec::new();
                for i in 0..counts_commits {
                    for (id, client) in &mut owned {
                        let roll = splitmix64(*id, i);
                        let path = format!("/projects/dur-{}/commits", *id as usize % DUR_PROJECTS);
                        let body = Value::object([
                            ("commit_id", Value::from(format!("c{id}-{i}"))),
                            ("samples", Value::from(1_000u64)),
                            ("new_correct", Value::from(300 + roll % 700)),
                            ("old_correct", Value::from(500u64)),
                            ("changed", Value::from(roll % 1_000)),
                            ("labels", Value::from(1_000u64)),
                        ]);
                        let t = Instant::now();
                        let (status, response) = client
                            .request("POST", &path, Some(&body))
                            .expect("durability commit");
                        counts_ns.push(t.elapsed().as_nanos() as f64);
                        assert_eq!(status, 200, "{response}");
                    }
                }
                let old = pred_vector(500);
                for i in 0..preds_commits {
                    for (id, client) in &mut owned {
                        let roll = splitmix64(*id + 9_000, i);
                        let path = format!(
                            "/projects/durp-{}/commits/predictions",
                            *id as usize % DUR_PROJECTS
                        );
                        let body = Value::object([
                            ("commit_id", Value::from(format!("p{id}-{i}"))),
                            ("old", Value::from(old.as_str())),
                            ("new", Value::from(pred_vector(300 + roll % 700))),
                        ]);
                        let t = Instant::now();
                        let (status, response) = client
                            .request("POST", &path, Some(&body))
                            .expect("durability predictions commit");
                        preds_ns.push(t.elapsed().as_nanos() as f64);
                        assert_eq!(status, 200, "{response}");
                    }
                }
                (counts_ns, preds_ns)
            })
        })
        .collect();
    let mut counts_ns = Vec::new();
    let mut preds_ns = Vec::new();
    for worker in workers {
        let (c, p) = worker.join().expect("durability driver");
        counts_ns.extend(c);
        preds_ns.extend(p);
    }
    let wall_ms = wall.elapsed().as_nanos() as f64 / 1e6;

    let end = easeml_serve::obs::expo::parse(&scrape_metrics(&addr)).expect("end scrape");
    let fsyncs_after = end.value("easeml_journal_fsyncs_total", &[]).unwrap_or(0.0);
    let commits_total = end
        .value("easeml_requests_total", &[("route", "commit")])
        .unwrap_or(0.0)
        + end
            .value("easeml_requests_total", &[("route", "commit_predictions")])
            .unwrap_or(0.0);
    // The pipeline-stage view of the same cell: what the durable-commit
    // stages themselves cost, net of the per-request wrapper (HTTP/JSON
    // parse, response build, tracing) that is identical in every mode.
    // The ISSUE's latency acceptance is stated against these stage
    // histograms; the route-duration quantiles below are the stricter
    // whole-handler numbers, reported alongside.
    let stages = stage_breakdown(&end)
        .into_iter()
        .filter(|q| matches!(q.stage, "gate" | "measure" | "journal_append" | "fsync"))
        .collect();
    let counts_server = route_duration_quantiles(&end, "commit").expect("commit route histogram");
    let predictions_server = route_duration_quantiles(&end, "commit_predictions")
        .expect("commit_predictions route histogram");

    handle.stop();
    server_thread.join().expect("durability server thread");
    let _ = std::fs::remove_dir_all(&dir);

    let commits = commits_total as u64;
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
    use easeml_serve::Durability;
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
                         (handler {:.1} us), fsync p50 {:.0} us, {:.3} fsyncs/commit, \
                         {:.0} req/s",
                        level.counts.p50_us,
                        level.counts_server.1,
                        level.predictions.p50_us,
                        level.predictions_server.1,
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
    let mut durability = easeml_serve::Durability::default();
    let mut flags = std::env::args();
    while let Some(arg) = flags.next() {
        if arg == "--durability" {
            let value = flags.next().unwrap_or_default();
            durability = easeml_serve::Durability::parse(&value).unwrap_or_else(|| {
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

    let data_dir: PathBuf = std::env::temp_dir().join(format!(
        "easeml-serve-load-{}-{}",
        std::process::id(),
        if quick { "quick" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&data_dir);

    let server = Server::bind(&ServeConfig {
        durability,
        ..ServeConfig::new("127.0.0.1:0", data_dir.clone())
    })
    .expect("bind server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    println!(
        "== serve load test ({durability} durability): {clients} clients x {counts_commits_per_client} counts + {commits_per_client} predictions + {commits_per_client} f1 commits on {} ({} pool threads) ==",
        addr,
        easeml_par::Pool::global().threads(),
    );

    let wall = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || drive_client(&addr, c, counts_commits_per_client))
        })
        .collect();
    let mut register_ns = Vec::new();
    let mut warm_register_ns = Vec::new();
    let mut commit_ns = Vec::new();
    let mut read_ns = Vec::new();
    for worker in workers {
        let (reg, warm_reg, commits, reads) = worker.join().expect("client thread");
        register_ns.push(reg);
        warm_register_ns.push(warm_reg);
        commit_ns.extend(commits);
        read_ns.extend(reads);
    }

    // Predictions phase: the server does the measuring on a 1 k-sample
    // lazily-labelled testset per client.
    let pred_workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || drive_predictions_client(&addr, c, commits_per_client))
        })
        .collect();
    let mut pred_commit_ns = Vec::new();
    let mut pred_labels_total = 0u64;
    for worker in pred_workers {
        let (commits, labels) = worker.join().expect("predictions client thread");
        pred_commit_ns.extend(commits);
        pred_labels_total += labels;
    }

    // F1 phase: non-binomial (McDiarmid-backed) gates over the same
    // prediction-vector transport, on the main server so the gate
    // decisions land in the /metrics scrape below.
    let f1_workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || drive_f1_client(&addr, c, commits_per_client))
        })
        .collect();
    let mut f1_commit_ns = Vec::new();
    let mut f1_passes = 0u64;
    for worker in f1_workers {
        let (commits, passes) = worker.join().expect("f1 client thread");
        f1_commit_ns.extend(commits);
        f1_passes += passes;
    }
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
    let scrape = scrape_metrics(&addr);
    let metrics_path = results_dir().join("METRICS_serve.txt");
    std::fs::write(&metrics_path, &scrape).expect("write METRICS_serve.txt");
    println!(
        "[metrics] wrote {} ({} bytes)",
        metrics_path.display(),
        scrape.len()
    );
    let expo = easeml_serve::obs::expo::parse(&scrape).expect("parse /metrics scrape");
    assert!(
        expo.series_count() >= 25,
        "scrape must carry the full catalog (got {} series)",
        expo.series_count()
    );
    for (name, labels) in CURATED_NONZERO {
        let value = expo.value(name, labels);
        assert!(
            value.is_some_and(|v| v > 0.0),
            "curated counter {name}{labels:?} must be non-zero after load (got {value:?})"
        );
    }
    let stages = stage_breakdown(&expo);
    assert!(
        ["gate", "journal_append", "handler", "response_write"]
            .iter()
            .all(|s| stages.iter().any(|q| q.stage == *s)),
        "core pipeline stages must have recorded samples"
    );

    for c in 0..clients {
        let path = data_dir.join(format!("projects/load-{c}/snapshot.json"));
        let snapshot = Value::parse(&std::fs::read_to_string(&path).expect("cadence snapshot"))
            .expect("snapshot json");
        let watermark = snapshot.get("journal_ops").and_then(Value::as_u64);
        assert!(
            watermark.is_some_and(|ops| ops > SNAPSHOT_EVERY),
            "project load-{c} wrote fewer than two cadence snapshots (last at op {watermark:?})"
        );
    }

    // Graceful stop snapshots every project.
    handle.stop();
    server_thread.join().expect("server thread");

    // Restart: snapshot load plus journal replay. The estimator caches
    // stay warm in this process, so boot re-estimation is map lookups.
    let (restarted, restart_ms) = timed_restart(&data_dir, durability);
    // Recovered state must reflect every journalled commit.
    let handle = restarted.handle();
    let restarted_addr = restarted.local_addr().to_string();
    let restart_thread = std::thread::spawn(move || restarted.run().expect("restarted run"));
    let mut probe = Client::new(restarted_addr);
    let (status, health) = probe.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(
        health.get("projects").and_then(Value::as_u64),
        // One cold + one plan-warm + one predictions + one F1 project
        // per client.
        Some(4 * clients),
        "all projects must survive the restart"
    );
    for c in 0..clients {
        // F1 replay re-measures the journalled vectors through the
        // per-class confusion path; losing a commit here means the
        // metric shape did not survive the restart.
        let (_, status) = probe
            .request("GET", &format!("/projects/f1-{c}"), None)
            .expect("f1 project status");
        assert_eq!(
            status
                .get("budget")
                .and_then(|b| b.get("used"))
                .and_then(Value::as_u64),
            Some(commits_per_client),
            "f1 project f1-{c} lost commits across restart"
        );
    }
    for c in 0..clients {
        let (_, status) = probe
            .request("GET", &format!("/projects/pred-{c}"), None)
            .expect("predictions project status");
        assert_eq!(
            status
                .get("budget")
                .and_then(|b| b.get("used"))
                .and_then(Value::as_u64),
            Some(commits_per_client),
            "predictions project pred-{c} lost commits across restart \
             (replay re-measures the journalled vectors)"
        );
    }
    for c in 0..clients {
        let (_, budget) = probe
            .request("GET", &format!("/projects/load-{c}/budget"), None)
            .expect("budget");
        assert_eq!(
            budget
                .get("budget")
                .and_then(|b| b.get("used"))
                .and_then(Value::as_u64),
            Some(counts_commits_per_client),
            "project load-{c} lost commits across restart"
        );
    }
    drop(probe);
    handle.stop();
    restart_thread.join().expect("restart thread");

    // Cold restart: a fresh process boots with empty estimator caches
    // and re-derives every project's estimate.
    BoundsCache::global().clear();
    PlanCache::global().clear();
    let (restarted, cold_restart_ms) = timed_restart(&data_dir, durability);
    let handle = restarted.handle();
    let restart_thread = std::thread::spawn(move || restarted.run().expect("restarted run"));
    handle.stop();
    restart_thread.join().expect("restart thread");

    // Keep-alive concurrency sweep on a fresh server instance (its own
    // data dir, so the restart-recovery checks above stay untouched):
    // the same commit workload at 8 / 256 / 1000 simultaneously open
    // connections. The event loop must hold the commit gate's latency
    // flat as mostly-idle keep-alive connections pile up.
    let sweep_levels: &[usize] = if quick { &[8, 256] } else { &[8, 256, 1_000] };
    let sweep_dir: PathBuf = std::env::temp_dir().join(format!(
        "easeml-serve-sweep-{}-{}",
        std::process::id(),
        if quick { "quick" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&sweep_dir);
    let sweep_server = Server::bind(&ServeConfig::new("127.0.0.1:0", sweep_dir.clone()))
        .expect("bind sweep server");
    let sweep_addr = sweep_server.local_addr().to_string();
    let sweep_handle = sweep_server.handle();
    let sweep_thread = std::thread::spawn(move || sweep_server.run().expect("sweep server run"));
    let mut sweep_rows = Vec::new();
    for &level in sweep_levels {
        // Similar sample counts per level: fewer commits per client as
        // the client count grows.
        let commits = (4_000 / level as u64).max(4);
        let (latencies, level_wall_ms) = sweep_level(&sweep_addr, level, commits);
        let requests = latencies.len();
        let p = percentiles(latencies);
        let level_rps = requests as f64 / (level_wall_ms / 1e3);
        println!(
            "sweep {level:>5} clients: {requests} commits, p50 {:.0} us, p99 {:.0} us, {:.0} req/s",
            p.p50_us, p.p99_us, level_rps
        );
        sweep_rows.push((level, commits, requests, level_wall_ms, level_rps, p));
    }
    sweep_handle.stop();
    sweep_thread.join().expect("sweep server thread");
    let _ = std::fs::remove_dir_all(&sweep_dir);

    let sweep_baseline_p50 = sweep_rows[0].5.p50_us;
    let sweep_top = sweep_rows.last().expect("at least one sweep level");
    let sweep_ratio = sweep_top.5.p50_us / sweep_baseline_p50;
    println!(
        "commit gate p50 at {} keep-alive clients: {:.0} us ({:.2}x the {}-client baseline, \
         target <2x) | p99 {:.0} us (target <10 ms)",
        sweep_top.0, sweep_top.5.p50_us, sweep_ratio, sweep_rows[0].0, sweep_top.5.p99_us
    );
    if sweep_ratio >= 2.0 {
        eprintln!(
            "WARNING: commit p50 at {} clients is {sweep_ratio:.2}x the baseline (target <2x)",
            sweep_top.0
        );
    }
    if sweep_top.5.p99_us >= 10_000.0 {
        eprintln!(
            "WARNING: commit p99 at {} clients is {:.0} us (target <10 ms)",
            sweep_top.0, sweep_top.5.p99_us
        );
    }

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
    if overload.shed == 0 {
        eprintln!("WARNING: overload phase shed nothing (offered load did not saturate)");
    }
    if !overload.retry_after_on_all_sheds {
        eprintln!("WARNING: some shed responses lacked a Retry-After header");
    }
    if overload.victim.p99_us >= 10_000.0 {
        eprintln!(
            "WARNING: victim commit p99 under overload is {:.0} us (target <10 ms)",
            overload.victim.p99_us
        );
    }
    if !overload.converged {
        eprintln!("WARNING: a backoff client exhausted its retry budget without registering");
    }

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
            // Acceptance is stated against the server's stage
            // histograms: the durable-commit pipeline stages the PR
            // owns, net of the mode-independent request wrapper.
            let counts_path = level.stage_p50("gate") + level.stage_p50("journal_append");
            let preds_path = counts_path + level.stage_p50("measure");
            if counts_path > 10.0 {
                eprintln!(
                    "WARNING: group@64 counts-gate pipeline p50 is {counts_path:.1} us \
                     (gate + journal_append, target <=10 us)"
                );
            }
            if preds_path > 20.0 {
                eprintln!(
                    "WARNING: group@64 predictions pipeline p50 is {preds_path:.1} us \
                     (gate + measure + journal_append, target <=20 us)"
                );
            }
            if level.fsyncs_per_commit >= 0.25 {
                eprintln!(
                    "WARNING: group@64 fsyncs-per-commit is {:.3} (target <0.25)",
                    level.fsyncs_per_commit
                );
            }
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
    for q in &stages {
        stage_table.push_row([
            q.stage.to_string(),
            q.count.to_string(),
            format_sig(q.p50_us),
            format_sig(q.p99_us),
            format_sig(q.total_ms),
        ]);
    }
    println!("{}", stage_table.render());

    println!(
        "wall {:.0} ms | {:.0} req/s | restart (snapshot + journal replay) warm {:.1} ms, cold {:.1} ms",
        wall_ms, rps, restart_ms, cold_restart_ms
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
    if pred_ratio >= 5.0 {
        eprintln!(
            "WARNING: predictions-gate p50 is {pred_ratio:.1}x the counts-gate p50 \
             (acceptance target <5x)"
        );
    }
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
                    Value::Array(
                        stages
                            .iter()
                            .map(|q| {
                                Value::object([
                                    ("stage", Value::from(q.stage)),
                                    ("count", Value::from(q.count)),
                                    ("p50_us", Value::from(q.p50_us)),
                                    ("p99_us", Value::from(q.p99_us)),
                                    ("total_ms", Value::from(q.total_ms)),
                                ])
                            })
                            .collect(),
                    ),
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
        ("warm_restart_ms", Value::from(restart_ms)),
        ("cold_restart_ms", Value::from(cold_restart_ms)),
        // Keep-alive concurrency sweep: per-level throughput + commit
        // latency with N connections simultaneously open.
        (
            "concurrency",
            Value::object([
                (
                    "levels",
                    Value::Array(
                        sweep_rows
                            .iter()
                            .map(|(level, commits, requests, wall_ms, rps, p)| {
                                Value::object([
                                    ("clients", Value::from(*level)),
                                    ("commits_per_client", Value::from(*commits)),
                                    ("requests", Value::from(*requests)),
                                    ("wall_ms", Value::from(*wall_ms)),
                                    ("throughput_rps", Value::from(*rps)),
                                    ("commit", percentiles_json(p)),
                                ])
                            })
                            .collect(),
                    ),
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
        // commit latency plus the fsync-per-commit ratio at each client
        // level, and the plan-warm registration percentile per mode.
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
                                (
                                    "counts_server",
                                    Value::object([
                                        ("count", Value::from(level.counts_server.0)),
                                        ("p50_us", Value::from(level.counts_server.1)),
                                        ("p99_us", Value::from(level.counts_server.2)),
                                    ]),
                                ),
                                (
                                    "predictions_server",
                                    Value::object([
                                        ("count", Value::from(level.predictions_server.0)),
                                        ("p50_us", Value::from(level.predictions_server.1)),
                                        ("p99_us", Value::from(level.predictions_server.2)),
                                    ]),
                                ),
                                (
                                    "stages",
                                    Value::object(level.stages.iter().map(|q| {
                                        (
                                            q.stage,
                                            Value::object([
                                                ("count", Value::from(q.count)),
                                                ("p50_us", Value::from(q.p50_us)),
                                                ("p99_us", Value::from(q.p99_us)),
                                            ]),
                                        )
                                    })),
                                ),
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

/// One raw HTTP round trip with `connection: close`; returns the status
/// and whether the response carried a `retry-after` header (the
/// [`Client`] hides headers, and the shed contract is about the header).
fn raw_round_trip(addr: &str, method: &str, path: &str, body: &str) -> (u16, bool) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, text.contains("retry-after:"))
}

/// Drive the admission gate past saturation: `flood_threads` concurrent
/// streams of heavy pool-bound registrations (a predictions-mode
/// project with a large server-side testset each — decode + digest +
/// blob write per request) against `max_inflight = 2` slots, while a
/// victim client measures inline commit latency through the storm.
/// Afterwards, shed-and-retry clients must all converge.
fn run_overload_phase(quick: bool) -> OverloadOutcome {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    let (flood_threads, rounds, testset_size, converge_clients) = if quick {
        (8usize, 4u64, 80_000usize, 4usize)
    } else {
        (12, 8, 150_000, 6)
    };
    let max_inflight = 2usize;

    let dir: PathBuf = std::env::temp_dir().join(format!(
        "easeml-serve-overload-{}-{}",
        std::process::id(),
        if quick { "quick" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // threads: 4 so pool spawns are genuinely asynchronous and the
    // admission slots are actually held while handlers run (a width-1
    // pool executes spawns inline and could never contend).
    let server = Server::bind(&ServeConfig {
        threads: 4,
        max_inflight,
        ..ServeConfig::new("127.0.0.1:0", dir.clone())
    })
    .expect("bind overload server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("overload server run"));

    // The victim project: inline counts-gate commits with a budget deep
    // enough to outlast the storm.
    let mut victim_client = Client::new(addr.clone());
    let victim_script = script_for(50_000);
    let (status, response) = victim_client
        .request(
            "POST",
            "/projects",
            Some(&Value::object([
                ("name", Value::from("overload-victim")),
                ("script", Value::from(victim_script)),
            ])),
        )
        .expect("victim register");
    assert_eq!(status, 201, "{response}");

    // The heavy registration body, minus the unique name: built once,
    // spliced per request.
    let labels = easeml_serve::json::encode_u32_vec(&vec![0u32; testset_size]);
    let body_tail: Arc<String> = Arc::new(format!(
        "\"script\":{},\"testset\":{{\"labels\":\"{labels}\",\"labeling\":\"lazy\",\"classes\":2}}}}",
        Value::from(script_for(60_000)).encode(),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let victim_stop = Arc::clone(&stop);
    let victim_addr = addr.clone();
    let victim = std::thread::spawn(move || {
        let mut client = Client::with_policy(victim_addr, easeml_serve::RetryPolicy::none());
        let mut latencies_ns = Vec::new();
        let mut i = 0u64;
        while !victim_stop.load(Ordering::Relaxed) {
            let roll = splitmix64(0xdead_10ad, i);
            let body = Value::object([
                ("commit_id", Value::from(format!("v{i}"))),
                ("samples", Value::from(1_000u64)),
                ("new_correct", Value::from(300 + roll % 700)),
                ("old_correct", Value::from(500u64)),
                ("changed", Value::from(roll % 1_000)),
                ("labels", Value::from(1_000u64)),
            ]);
            let t = Instant::now();
            let (status, response) = client
                .request("POST", "/projects/overload-victim/commits", Some(&body))
                .expect("victim commit");
            latencies_ns.push(t.elapsed().as_nanos() as f64);
            assert_eq!(status, 200, "victim commit shed or failed: {response}");
            i += 1;
        }
        latencies_ns
    });

    // The flood: every thread fires rounds of heavy registrations
    // back-to-back — sustained offered concurrency of `flood_threads`
    // against `max_inflight` slots.
    let barrier = Arc::new(Barrier::new(flood_threads));
    let flood: Vec<(usize, usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..flood_threads)
            .map(|i| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                let tail = Arc::clone(&body_tail);
                s.spawn(move || {
                    barrier.wait();
                    let (mut accepted, mut shed, mut retry_after_ok) = (0usize, 0usize, true);
                    for r in 0..rounds {
                        let body = format!("{{\"name\":\"flood-{i}-{r}\",{tail}");
                        let (status, has_retry_after) =
                            raw_round_trip(&addr, "POST", "/projects", &body);
                        match status {
                            201 => accepted += 1,
                            503 => {
                                shed += 1;
                                retry_after_ok &= has_retry_after;
                            }
                            other => panic!("unexpected flood status {other}"),
                        }
                    }
                    (accepted, shed, retry_after_ok)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    stop.store(true, Ordering::Relaxed);
    let victim_ns = victim.join().expect("victim thread");

    let accepted: usize = flood.iter().map(|(a, _, _)| a).sum();
    let shed: usize = flood.iter().map(|(_, s, _)| s).sum();
    let retry_after_on_all_sheds = flood.iter().all(|(_, _, ok)| *ok);
    let offered = accepted + shed;

    // Convergence: the burst again, but through retrying clients that
    // honor Retry-After plus jitter — every one must land a 201.
    let barrier = Arc::new(Barrier::new(converge_clients));
    let converge_start = Instant::now();
    let converge: Vec<(u16, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..converge_clients)
            .map(|i| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                let tail = Arc::clone(&body_tail);
                s.spawn(move || {
                    let policy = easeml_serve::RetryPolicy {
                        attempts: 10,
                        seed: 0x0e11_a000 + i as u64,
                        ..easeml_serve::RetryPolicy::default()
                    };
                    let mut client = Client::with_policy(addr, policy);
                    let body =
                        Value::parse(&format!("{{\"name\":\"converge-{i}\",{tail}")).expect("body");
                    barrier.wait();
                    let (status, _) = client
                        .request("POST", "/projects", Some(&body))
                        .expect("converge register");
                    (status, client.retries())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let converge_wall_ms = converge_start.elapsed().as_nanos() as f64 / 1e6;
    let converged = converge.iter().all(|(status, _)| *status == 201);
    let converge_retries: u64 = converge.iter().map(|(_, r)| r).sum();

    handle.stop();
    server_thread.join().expect("overload server thread");
    let _ = std::fs::remove_dir_all(&dir);

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
