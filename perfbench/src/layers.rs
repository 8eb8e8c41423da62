//! The traced run's per-layer metrics, measured from outside the
//! program: deltas of the server's own `/metrics` counters across each
//! round's timed part, and self-times from replaying the same seeded inputs
//! in-process through each layer's public function.

use crate::check::parse;
use crate::client::Conn;
use crate::inputs::{Inputs, Op, Workload, ROUNDS};
use crate::ramdisk::RamDisk;
use crate::run::{median, Driven, DATA_DIR};
use easeml_ci_core::{BoundsCache, CacheStats, CiScript, EstimateProvenance, PlanCache};
use easeml_serve::http::RequestParser;
use easeml_serve::json::{u32_vec_from_value, Value};
use easeml_serve::obs::expo::{self, Exposition};
use easeml_serve::registry::{
    serving_estimator, CommitSubmission, EvalCounts, MeasuredTestset, PredictionsSubmission,
    Project, TestsetSpec,
};
use easeml_serve::store::{Durability, Registry};
use easeml_serve::ServeError;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics plus any disagreement between the replays and
/// the live run.
pub struct Layered {
    pub metrics: Vec<(&'static str, f64)>,
    pub problems: Vec<String>,
}

/// Fetch and parse `GET /metrics`.
pub fn scrape(addr: &str) -> Result<Exposition, String> {
    let (status, body) = Conn::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("scrape: {e}"))?;
    if status != 200 {
        return Err(format!("scrape: status {status}"));
    }
    expo::parse(&String::from_utf8_lossy(&body))
}

/// `(before, after)` scrapes of each round's server around its timed
/// part.
pub type Scrapes = [(Exposition, Exposition)];

/// Change of one unlabelled series across the rounds' timed parts.
fn delta(scrapes: &Scrapes, name: &str) -> f64 {
    scrapes
        .iter()
        .map(|(before, after)| {
            after.value(name, &[]).unwrap_or(0.0) - before.value(name, &[]).unwrap_or(0.0)
        })
        .sum()
}

/// Quantile `q` (in the histogram's unit) of the observations a
/// histogram gained across the rounds' timed parts, interpolated within
/// its bucket; 0 when it gained none.
fn delta_quantile(scrapes: &Scrapes, family: &str, labels: &[(&str, &str)], q: f64) -> f64 {
    let bucket = format!("{family}_bucket");
    let cumulative = |e: &Exposition| -> Vec<(f64, f64)> {
        e.named(&bucket)
            .filter(|s| labels.iter().all(|(k, v)| s.label(k) == Some(v)))
            .map(|s| {
                let le = s.label("le").unwrap_or("+Inf");
                (le.parse().unwrap_or(f64::INFINITY), s.value)
            })
            .collect()
    };
    // Every server renders the same bucket ladder, so the rounds' gains
    // add bucket by bucket.
    let mut gained: Vec<(f64, f64)> = Vec::new();
    for (before, after) in scrapes {
        let (b, a) = (cumulative(before), cumulative(after));
        for (i, &(le, n)) in a.iter().enumerate() {
            let n = n - b.get(i).map_or(0.0, |x| x.1);
            match gained.get_mut(i) {
                Some(g) => g.1 += n,
                None => gained.push((le, n)),
            }
        }
    }
    let Some(&(_, total)) = gained.last() else {
        return 0.0;
    };
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for (le, n) in gained {
        if n >= target {
            if le.is_infinite() {
                return lower;
            }
            let span = n - below;
            let frac = if span > 0.0 {
                (target - below) / span
            } else {
                1.0
            };
            return lower + frac * (le - lower);
        }
        (lower, below) = (le, n);
    }
    lower
}

/// Run `f`, returning its result and its duration in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A registry over `disk` in the server's durability mode.
fn open_registry(disk: &RamDisk) -> Result<Registry, ServeError> {
    Registry::open_with_durability(
        Path::new(DATA_DIR),
        serving_estimator(),
        Arc::new(disk.clone()),
        Durability::Group,
        None,
    )
}

/// Self-time of each layer on each operation's path, in nanoseconds, one
/// entry per operation (0 where the operation does not reach the layer).
#[derive(Default)]
struct PerOp {
    http: Vec<u64>,
    decode: Vec<u64>,
    dsl: Vec<u64>,
    estimator: Vec<u64>,
    gate: Vec<u64>,
    measure: Vec<u64>,
    store: Vec<u64>,
    encode: Vec<u64>,
}

/// Mean of per-operation nanoseconds, in µs.
fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e3 / ns.len().max(1) as f64
}

/// Median of per-operation nanoseconds, in µs.
fn median_us(ns: &[u64]) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&us)
}

/// What the estimator replay counts.
#[derive(Default)]
struct EstimatorCounts {
    estimates: usize,
    optimized: usize,
    plan: (u64, u64),
    bounds: (u64, u64),
}

fn stats_delta(before: CacheStats, after: CacheStats) -> (u64, u64) {
    (after.hits - before.hits, after.misses - before.misses)
}

/// Parse and estimate `scripts` in order, in `blocks` equal blocks that
/// each start from empty caches, as the server meets the workload's
/// registrations. Per-operation times are recorded when `per_op` is
/// given (the register workload, where every operation is one of these
/// scripts).
fn replay_estimator(
    scripts: &[&str],
    blocks: usize,
    mut per_op: Option<&mut PerOp>,
) -> Result<EstimatorCounts, String> {
    let mut parsed = Vec::with_capacity(scripts.len());
    for text in scripts {
        let (script, ns) = timed(|| CiScript::parse(text));
        parsed.push(script.map_err(|e| format!("script: {e}"))?);
        if let Some(per_op) = per_op.as_deref_mut() {
            per_op.dsl.push(ns);
        }
    }
    let (plan0, bounds0) = (PlanCache::global().stats(), BoundsCache::global().stats());
    let estimator = serving_estimator();
    let mut counts = EstimatorCounts::default();
    let block = parsed.len().div_ceil(blocks);
    for (i, script) in parsed.iter().enumerate() {
        if i % block == 0 {
            crate::run::clear_caches();
        }
        let (estimate, ns) = timed(|| estimator.estimate(script));
        let estimate = estimate.map_err(|e| format!("estimate: {e}"))?;
        if let Some(per_op) = per_op.as_deref_mut() {
            per_op.estimator.push(ns);
        }
        counts.estimates += 1;
        counts.optimized += usize::from(matches!(
            estimate.provenance,
            EstimateProvenance::Optimized(_)
        ));
    }
    counts.plan = stats_delta(plan0, PlanCache::global().stats());
    counts.bounds = stats_delta(bounds0, BoundsCache::global().stats());
    Ok(counts)
}

fn receipt_matches(live: &Value, step: u32, passed: bool) -> bool {
    live.get("step").and_then(Value::as_u64) == Some(u64::from(step))
        && live.get("passed").and_then(Value::as_bool) == Some(passed)
}

/// A decoded request body, with its prediction vectors when it has them.
type Decoded = (Value, Option<[Vec<u32>; 2]>);

/// What the operation replay measured besides per-operation times.
#[derive(Default)]
struct Replayed {
    request_bytes: usize,
    labels: u64,
    snapshot_ms: Vec<f64>,
}

/// Replay every operation, in order, through the wire layers (HTTP
/// parse, JSON decode, JSON encode of the live reply) and the registry
/// and store layers on in-memory twins of the server's projects.
fn replay_ops(
    inputs: &Inputs,
    driven: &Driven,
    per_op: &mut PerOp,
    problems: &mut Vec<String>,
) -> Result<Replayed, String> {
    let estimator = serving_estimator();
    let scratch =
        open_registry(&RamDisk::default()).map_err(|e| format!("scratch registry: {e}"))?;
    let mut twins = Vec::new();
    let mut measured = Vec::new();
    let mut conditions = Vec::new();
    for project in &inputs.projects {
        // The gate twin is counts-mode: it runs exactly the decision the
        // predictions route feeds its derived counts into.
        twins.push(
            Project::register(&project.name, &project.script, &estimator)
                .map_err(|e| format!("twin: {e}"))?,
        );
        conditions.push(CiScript::parse(&project.script).map_err(|e| e.to_string())?);
        let spec = project.testset.as_ref().map(|t| TestsetSpec {
            truth: t.truth(),
            classes: crate::inputs::CLASSES,
            lazy: t.lazy,
        });
        measured.push(match &spec {
            Some(spec) => {
                Some(MeasuredTestset::from_spec(spec.clone()).map_err(|e| format!("twin: {e}"))?)
            }
            None => None,
        });
        scratch
            .register(&project.name, &project.script, spec)
            .map_err(|e| format!("scratch register: {e}"))?;
    }

    let mut out = Replayed::default();
    let mut parser = RequestParser::new();
    for (ops, responses) in inputs.conns.iter().zip(&driven.responses) {
        for (op, (_, reply)) in ops.iter().zip(responses) {
            let bytes = inputs.request(op);
            out.request_bytes += bytes.len();
            let (request, ns) = timed(|| {
                parser.push(&bytes);
                parser.next_request()
            });
            per_op.http.push(ns);
            let request = request
                .ok()
                .flatten()
                .ok_or("request parser rejected a benchmark request")?;
            let (decoded, ns) = timed(|| -> Result<Decoded, String> {
                let body = request.json_body()?;
                let vectors = match op {
                    Op::Predictions { .. } => {
                        let vector = |key: &str| {
                            u32_vec_from_value(body.get(key).unwrap_or(&Value::Null), key)
                        };
                        Some([vector("old")?, vector("new")?])
                    }
                    _ => None,
                };
                Ok((body, vectors))
            });
            per_op.decode.push(ns);
            let (body, vectors) = decoded?;
            let reply = parse(reply)?;
            let (_, ns) = timed(|| black_box(reply.encode()));
            per_op.encode.push(ns);

            // Registry and store layers. The store's self-time is the
            // slot call minus the registry calls it makes.
            let (gate_ns, measure_ns, slot_ns) = match op {
                Op::Register { name, script } => {
                    let text = &inputs.mix[*script];
                    // An untimed registration caches the plan, so both
                    // timed calls below estimate from the same warm cache.
                    Project::register(name, text, &estimator)
                        .map_err(|e| format!("register twin: {e}"))?;
                    let (project, project_ns) = timed(|| Project::register(name, text, &estimator));
                    project.map_err(|e| format!("register twin: {e}"))?;
                    let (slot, slot_ns) = timed(|| scratch.register(name, text, None));
                    slot.map_err(|e| format!("scratch register: {e}"))?;
                    (0, 0, slot_ns.saturating_sub(project_ns))
                }
                Op::Counts { project, .. } => {
                    let count = |key: &str| body.get(key).and_then(Value::as_u64).unwrap_or(0);
                    let submission = CommitSubmission {
                        commit_id: body
                            .get("commit_id")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .into(),
                        counts: EvalCounts {
                            samples: count("samples"),
                            new_correct: count("new_correct"),
                            old_correct: count("old_correct"),
                            changed: count("changed"),
                            labels: count("labels"),
                            per_class: None,
                        },
                    };
                    let (receipt, gate_ns) = timed(|| twins[*project].submit(&submission));
                    let receipt = receipt.map_err(|e| format!("gate twin: {e}"))?;
                    if !receipt_matches(&reply, receipt.step, receipt.passed) {
                        problems.push(format!("gate twin disagrees with the server on {reply}"));
                    }
                    let slot = scratch
                        .get(&inputs.projects[*project].name)
                        .ok_or("no slot")?;
                    let mut slot = slot.lock().expect("slot");
                    let (done, slot_ns) = timed(|| slot.submit(&submission));
                    done.map_err(|e| format!("scratch submit: {e}"))?;
                    (gate_ns, 0, slot_ns.saturating_sub(gate_ns))
                }
                Op::Predictions { project, .. } => {
                    let [old, new] = vectors.expect("predictions carry vectors");
                    let testset = measured[*project].as_mut().expect("predictions twin");
                    let condition = conditions[*project].condition();
                    let (result, measure_ns) = timed(|| testset.measure(condition, &old, &new));
                    let (counts, per_class) = result.map_err(|e| format!("measure twin: {e}"))?;
                    out.labels += counts.labels_spent;
                    if reply.get("labels").and_then(Value::as_u64) != Some(counts.labels_spent) {
                        problems.push(format!("measure twin spends other labels than {reply}"));
                    }
                    let commit_id: String = body
                        .get("commit_id")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .into();
                    let mut eval: EvalCounts = counts.into();
                    eval.per_class = per_class;
                    let derived = CommitSubmission {
                        commit_id: commit_id.clone(),
                        counts: eval,
                    };
                    let (receipt, gate_ns) = timed(|| twins[*project].submit(&derived));
                    let receipt = receipt.map_err(|e| format!("gate twin: {e}"))?;
                    if !receipt_matches(&reply, receipt.step, receipt.passed) {
                        problems.push(format!("gate twin disagrees with the server on {reply}"));
                    }
                    let submission = PredictionsSubmission {
                        commit_id,
                        old,
                        new,
                    };
                    let slot = scratch
                        .get(&inputs.projects[*project].name)
                        .ok_or("no slot")?;
                    let mut slot = slot.lock().expect("slot");
                    let (done, slot_ns) = timed(|| slot.submit_predictions(&submission));
                    done.map_err(|e| format!("scratch submit: {e}"))?;
                    (
                        gate_ns,
                        measure_ns,
                        slot_ns.saturating_sub(gate_ns + measure_ns),
                    )
                }
            };
            per_op.gate.push(gate_ns);
            per_op.measure.push(measure_ns);
            per_op.store.push(slot_ns);
        }
    }

    // One snapshot per project at its final history length.
    for name in scratch.names() {
        let slot = scratch.get(&name).ok_or("no slot")?;
        let slot = slot.lock().expect("slot");
        let (done, ns) = timed(|| slot.snapshot());
        done.map_err(|e| format!("snapshot: {e}"))?;
        out.snapshot_ms.push(ns as f64 / 1e6);
    }
    Ok(out)
}

/// Every per-layer metric of a traced run.
pub fn measure(
    inputs: &Inputs,
    driven: &Driven,
    scrapes: &Scrapes,
    disk: &RamDisk,
) -> Result<Layered, String> {
    let ops = inputs.ops();
    let mut per_op = PerOp::default();
    let mut problems = Vec::new();

    let estimates = match inputs.workload {
        Workload::Register => {
            let scripts: Vec<&str> = inputs
                .conns
                .iter()
                .flatten()
                .map(|op| match op {
                    Op::Register { script, .. } => inputs.mix[*script].as_str(),
                    _ => unreachable!("register workload"),
                })
                .collect();
            replay_estimator(&scripts, ROUNDS, Some(&mut per_op))?
        }
        // The commit workloads estimate only their set-up projects; no
        // timed operation reaches the parser or the estimator.
        Workload::CommitCounts | Workload::CommitPredictions => {
            let scripts: Vec<&str> = inputs.projects.iter().map(|p| p.script.as_str()).collect();
            per_op.dsl = vec![0; ops];
            per_op.estimator = vec![0; ops];
            replay_estimator(&scripts, 1, None)?
        }
    };
    let replayed = replay_ops(inputs, driven, &mut per_op, &mut problems)?;

    let replay_s: Vec<f64> = (0..3)
        .map(|_| {
            let (registry, ns) = timed(|| open_registry(disk));
            drop(registry.map_err(|e| format!("replay: {e}"))?);
            Ok(ns as f64 / 1e9)
        })
        .collect::<Result<_, String>>()?;

    let (_, p50_ms, _) = driven.raw_summary();
    let route = inputs.workload.route();
    let inline = delta(scrapes, "easeml_dispatch_inline_total");
    let pool = delta(scrapes, "easeml_dispatch_pool_total");
    let batch = delta(scrapes, "easeml_group_commit_batch_size_sum")
        / delta(scrapes, "easeml_group_commit_batch_size_count").max(1.0);
    let lookups = |(hits, misses): (u64, u64)| (hits + misses) as f64;
    let mut metrics = vec![
        ("dsl.parse_us_per_op", median_us(&per_op.dsl)),
        // A registration either hits the caches or runs cold inversions:
        // the mean is the estimator's busy time (what throughput pays),
        // the median what the typical registration waits for.
        ("estimator.busy_ms_per_op", mean_us(&per_op.estimator) / 1e3),
        ("estimator.median_us_per_op", median_us(&per_op.estimator)),
        (
            "estimator.optimized_share",
            ratio(estimates.optimized as f64, estimates.estimates as f64),
        ),
        (
            "cache.plan_hit_ratio",
            ratio(estimates.plan.0 as f64, lookups(estimates.plan)),
        ),
        (
            "cache.plan_lookups_per_op",
            lookups(estimates.plan) / ops as f64,
        ),
        (
            "cache.bounds_hit_ratio",
            ratio(estimates.bounds.0 as f64, lookups(estimates.bounds)),
        ),
        (
            "cache.bounds_lookups_per_op",
            lookups(estimates.bounds) / ops as f64,
        ),
        (
            "cache.bounds_misses_per_op",
            estimates.bounds.1 as f64 / ops as f64,
        ),
        ("http.parse_us_per_op", median_us(&per_op.http)),
        (
            "http.request_bytes_per_op",
            replayed.request_bytes as f64 / ops as f64,
        ),
        ("json.decode_us_per_op", median_us(&per_op.decode)),
        ("json.encode_us_per_op", median_us(&per_op.encode)),
        ("registry.gate_us_per_op", median_us(&per_op.gate)),
        ("registry.measure_us_per_op", median_us(&per_op.measure)),
        (
            "registry.labels_per_op",
            replayed.labels as f64 / ops as f64,
        ),
        ("store.append_us_per_op", median_us(&per_op.store)),
        ("store.snapshot_ms", median(&replayed.snapshot_ms)),
        ("store.replay_s", median(&replay_s)),
        (
            "group.fsyncs_per_op",
            delta(scrapes, "easeml_journal_fsyncs_total") / ops as f64,
        ),
        ("group.batch_size_mean", batch),
        (
            "group.flush_ms_p50",
            delta_quantile(scrapes, "easeml_group_commit_flush_seconds", &[], 0.5) * 1e3,
        ),
        (
            "vfs.write_bytes_per_op",
            delta(scrapes, "easeml_vfs_write_bytes_total") / ops as f64,
        ),
        (
            "obs.server_total_us_p50",
            delta_quantile(
                scrapes,
                "easeml_request_duration_seconds",
                &[("route", route)],
                0.5,
            ) * 1e6,
        ),
        ("net.dispatch_inline_share", ratio(inline, inline + pool)),
    ];
    let residual = p50_ms * 1e3 - layer_sum_us(&metrics);
    metrics.push(("net.residual_us_per_op", residual));
    Ok(Layered { metrics, problems })
}

/// The per-operation layer metrics whose sum, with
/// `net.residual_us_per_op`, is the client's median latency: each layer's
/// median self-time per operation, so the residual is what the kernel,
/// the wire, the event loop, queueing behind the other connection, and
/// the durable wait add.
const LAYER_SUM: [&str; 8] = [
    "http.parse_us_per_op",
    "json.decode_us_per_op",
    "dsl.parse_us_per_op",
    "estimator.median_us_per_op",
    "registry.gate_us_per_op",
    "registry.measure_us_per_op",
    "store.append_us_per_op",
    "json.encode_us_per_op",
];

/// Sum of the [`LAYER_SUM`] metrics in µs per operation.
pub fn layer_sum_us(metrics: &[(&str, f64)]) -> f64 {
    LAYER_SUM
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .expect("every summed layer is measured")
                .1
        })
        .sum()
}
