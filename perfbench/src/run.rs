//! One benchmark run: [`ROUNDS`] identical rounds, each of which starts
//! an in-process server on a fresh in-memory disk, sets up, drives its
//! share of the workload closed-loop, checks every response as it
//! arrives, stops cleanly, and times reboots of the round's data
//! directory.

use crate::calib;
use crate::check::{self, field_u64, parse, Expected};
use crate::client::Conn;
use crate::host;
use crate::inputs::{Inputs, Workload, ROUNDS};
use crate::layers;
use crate::ramdisk::RamDisk;
use easeml_serve::json::Value;
use easeml_serve::obs::expo::Exposition;
use easeml_serve::server::{ServeConfig, Server, ServerHandle};
use easeml_serve::ServeError;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Worker-pool width of the server.
pub const POOL_THREADS: usize = 2;

/// Data directory inside the in-memory disk.
pub const DATA_DIR: &str = "data";

/// Reboots per round; the first also checks the recovered state.
const BOOTS_PER_ROUND: usize = 2;

/// What one run measured.
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: usize,
    /// Operations whose response failed a check.
    pub failed: usize,
    /// Every check held (operations, reboot state, in-process replays).
    pub correct: bool,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host diagnostics, printed beside the result but never gated.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// Human-readable reasons for failed checks (first few).
    pub problems: Vec<String>,
}

/// A running in-process server.
pub struct Live {
    /// `host:port` it listens on.
    pub addr: String,
    handle: ServerHandle,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Live {
    /// Bind a server over `disk` (group durability, the default) and run
    /// it on its own thread.
    pub fn start(disk: &RamDisk) -> Result<Live, String> {
        let mut config = ServeConfig::new("127.0.0.1:0", DATA_DIR);
        config.threads = POOL_THREADS;
        config.vfs = Some(Arc::new(disk.clone()));
        let server = Server::bind(&config).map_err(|e| format!("server bind: {e}"))?;
        let handle = server.handle();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Live {
            addr,
            handle,
            thread,
        })
    }

    /// Stop cleanly (the server snapshots every project) and join.
    pub fn stop(self) -> Result<(), String> {
        self.handle.stop();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server stop: {e}"))
    }
}

/// Empty both process-wide estimation caches.
pub fn clear_caches() {
    easeml_ci_core::BoundsCache::global().clear();
    easeml_ci_core::PlanCache::global().clear();
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of sorted nanosecond samples, in milliseconds.
fn quantile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// Mean of `values` without their highest and lowest eighth. The
/// samples of a figure are spread over the whole run, so their mean
/// follows the host's average speed over the run, and the trimming drops
/// the few that a stall on the host hit.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 8;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Register round `r`'s set-up projects and check each registration.
fn set_up(addr: &str, inputs: &Inputs, r: usize) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for p in inputs.setup_projects(r) {
        let project = &inputs.projects[p];
        let (status, body) = conn
            .exchange(&inputs.setup_request(p))
            .map_err(|e| format!("register {}: {e}", project.name))?;
        let reply = parse(&body)?;
        if status != 201 {
            return Err(format!(
                "register {}: status {status}: {reply}",
                project.name
            ));
        }
        let total = field_u64(&reply, &["estimate", "total"])?;
        if total != project.estimate_total {
            return Err(format!(
                "register {}: estimate {total} differs from the in-process {}",
                project.name, project.estimate_total
            ));
        }
        if project.testset.is_some()
            && reply
                .get("testset")
                .and_then(|t| t.get("meets_estimate"))
                .and_then(Value::as_bool)
                != Some(true)
        {
            return Err(format!(
                "{}: testset does not meet its estimate",
                project.name
            ));
        }
    }
    Ok(())
}

/// One round of the timed phase.
pub struct Round {
    /// Client-observed latency of every operation in the round, sorted.
    pub latencies_ns: Vec<u64>,
    /// Wall time from the round's first send to its last response.
    pub wall_s: f64,
    /// Factor that scales the round's times to the reference host.
    pub scale: f64,
}

/// The timed phase's results, every response already checked.
pub struct Driven {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Labels the operations asked for.
    pub labels: u64,
    /// Operations whose response failed its check.
    pub failed: usize,
    /// The first few failed checks.
    pub problems: Vec<String>,
    /// Per connection, `(status, body)` per operation in send order; kept
    /// only for the traced run's replay.
    pub responses: Vec<Vec<(u16, Vec<u8>)>>,
}

impl Driven {
    fn new(conns: usize) -> Driven {
        Driven {
            rounds: Vec::with_capacity(ROUNDS),
            labels: 0,
            failed: 0,
            problems: Vec::new(),
            responses: vec![Vec::new(); conns],
        }
    }

    /// Wall time of the timed phase.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// `(ops_per_s, op_p50_ms, op_p99_ms)`, each the [`trimmed_mean`] of
    /// the rounds' figures scaled to the reference host.
    pub fn summary(&self) -> (f64, f64, f64) {
        self.figures(|r| r.scale)
    }

    /// The same figures as measured, unscaled.
    pub fn raw_summary(&self) -> (f64, f64, f64) {
        self.figures(|_| 1.0)
    }

    fn figures(&self, scale: impl Fn(&Round) -> f64) -> (f64, f64, f64) {
        let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
            trimmed_mean(&self.rounds.iter().map(f).collect::<Vec<_>>())
        };
        (
            per_round(&|r| r.latencies_ns.len() as f64 / (r.wall_s * scale(r))),
            per_round(&|r| quantile_ms(&r.latencies_ns, 0.50) * scale(r)),
            per_round(&|r| quantile_ms(&r.latencies_ns, 0.99) * scale(r)),
        )
    }
}

/// What one connection's driver thread brings back from a round.
struct ConnDriven {
    start: Instant,
    end: Instant,
    latencies: Vec<u64>,
    labels: u64,
    failed: usize,
    problems: Vec<String>,
    responses: Vec<(u16, Vec<u8>)>,
}

/// Drive round `r` on every connection closed-loop: each sends its next
/// request only once the previous response is in and checked. The
/// connections start together.
fn drive_round(
    addr: &str,
    inputs: &Inputs,
    expected: &[Vec<Expected>],
    r: usize,
    keep_responses: bool,
    driven: &mut Driven,
) -> Result<(), String> {
    let barrier = Barrier::new(inputs.conns.len());
    let per_conn = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..inputs.conns.len())
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<ConnDriven, String> {
                    let range = inputs.round_ops(c, r);
                    let ops = &inputs.conns[c][range.clone()];
                    let expected = &expected[c][range];
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut latencies = Vec::with_capacity(ops.len());
                    let (mut labels, mut failed) = (0, 0);
                    let mut problems = Vec::new();
                    let mut responses = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    for (op, expected) in ops.iter().zip(expected) {
                        let request = inputs.request(op);
                        let t = Instant::now();
                        let result = conn.exchange(&request);
                        latencies.push(t.elapsed().as_nanos() as u64);
                        let (status, body) = match result {
                            Ok(reply) => reply,
                            Err(e) => {
                                conn =
                                    Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                                (0, e.to_string().into_bytes())
                            }
                        };
                        match check::verify(inputs, op, expected, status, &body) {
                            Ok(l) => labels += l,
                            Err(e) => {
                                failed += 1;
                                if problems.len() < 5 {
                                    problems.push(e);
                                }
                            }
                        }
                        if keep_responses {
                            responses.push((status, body));
                        }
                    }
                    Ok(ConnDriven {
                        start,
                        end: Instant::now(),
                        latencies,
                        labels,
                        failed,
                        problems,
                        responses,
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("driver thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let start = per_conn
        .iter()
        .map(|c| c.start)
        .min()
        .expect("a connection");
    let end = per_conn.iter().map(|c| c.end).max().expect("a connection");
    let mut latencies_ns: Vec<u64> = per_conn
        .iter()
        .flat_map(|c| c.latencies.iter().copied())
        .collect();
    latencies_ns.sort_unstable();
    driven.rounds.push(Round {
        latencies_ns,
        wall_s: (end - start).as_secs_f64(),
        scale: 1.0,
    });
    for (c, conn) in per_conn.into_iter().enumerate() {
        driven.labels += conn.labels;
        driven.failed += conn.failed;
        driven.problems.extend(conn.problems);
        driven.responses[c].extend(conn.responses);
    }
    driven.problems.truncate(5);
    Ok(())
}

/// A project's `/history` and `/budget` response bodies.
type ProjectState = (Vec<u8>, Vec<u8>);

/// `/history` and `/budget` bodies of every project.
fn capture_state(addr: &str, names: &[String]) -> Result<Vec<ProjectState>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    names
        .iter()
        .map(|name| {
            let mut get = |what: &str| -> Result<Vec<u8>, String> {
                let (status, body) = conn
                    .get(&format!("/projects/{name}/{what}"))
                    .map_err(|e| format!("GET {what} of {name}: {e}"))?;
                if status != 200 {
                    return Err(format!("GET {what} of {name}: status {status}"));
                }
                Ok(body)
            };
            Ok((get("history")?, get("budget")?))
        })
        .collect()
}

/// Start a server over `disk` and wait for `/healthz`: `(server,
/// seconds)`.
fn boot(disk: &RamDisk) -> Result<(Live, f64), String> {
    let t = Instant::now();
    let live = Live::start(disk)?;
    let (status, _) = Conn::connect(&live.addr)
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("healthz: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("healthz: status {status}"));
    }
    Ok((live, elapsed))
}

/// Run `workload` once.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let inputs = Inputs::new(workload, seed, seconds);
    let expected = check::expectations(&inputs);
    let ops = inputs.ops();

    let mut driven = Driven::new(inputs.conns.len());
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut boots = Vec::with_capacity(ROUNDS * BOOTS_PER_ROUND);
    let mut disk_bytes = 0;
    let mut problems = Vec::new();
    let mut scrapes: Vec<(Exposition, Exposition)> = Vec::new();
    let mut last_disk = None;
    let (mut cpu_s, mut faults) = (0.0, 0);
    let ticks_before = host::cpu_ticks();
    let mut calibrations = Vec::with_capacity(3 * ROUNDS);
    for r in 0..ROUNDS {
        // The host's speed is taken before, amid and after the round.
        let mut calibration = vec![calib::measure()?];

        // Set up on a fresh disk with empty estimation caches.
        clear_caches();
        let disk = RamDisk::default();
        let t = Instant::now();
        let live = Live::start(&disk)?;
        set_up(&live.addr, &inputs, r)?;
        let (status, _) = Conn::connect(&live.addr)
            .and_then(|mut c| c.get("/healthz"))
            .map_err(|e| format!("healthz: {e}"))?;
        if status != 200 {
            return Err(format!("healthz: status {status}"));
        }
        setup_s.push(t.elapsed().as_secs_f64());

        // The timed part starts from empty estimation caches too.
        clear_caches();
        let scrape_before = if trace {
            Some(layers::scrape(&live.addr)?)
        } else {
            None
        };
        let (cpu_before, faults_before) = (host::cpu_seconds(), host::minor_faults());
        drive_round(&live.addr, &inputs, &expected, r, trace, &mut driven)?;
        cpu_s += host::cpu_seconds() - cpu_before;
        faults += host::minor_faults() - faults_before;
        if let Some(before) = scrape_before {
            scrapes.push((before, layers::scrape(&live.addr)?));
        }
        calibration.push(calib::measure()?);

        let names = inputs.round_names(r);
        let before_stop = capture_state(&live.addr, &names)?;
        live.stop()?;
        disk_bytes += disk.bytes_under(Path::new(DATA_DIR));
        let mut round_boots = Vec::with_capacity(BOOTS_PER_ROUND);
        for i in 0..BOOTS_PER_ROUND {
            let (live, seconds) = boot(&disk)?;
            round_boots.push(seconds);
            if i == 0 && capture_state(&live.addr, &names)? != before_stop {
                problems.push(format!("round {r}: history/budget differ after reboot"));
            }
            live.stop()?;
        }
        last_disk = Some(disk);

        calibration.push(calib::measure()?);
        let scale = calib::REFERENCE_S / median(&calibration);
        driven
            .rounds
            .last_mut()
            .expect("the round just driven")
            .scale = scale;
        *setup_s.last_mut().expect("the round's set-up") *= scale;
        boots.extend(round_boots.into_iter().map(|b| b * scale));
        calibrations.extend(calibration);
    }
    let steal = host::steal_share(ticks_before, host::cpu_ticks());
    drop(expected);
    problems.extend(driven.problems.iter().cloned());

    let (ops_per_s, p50, p99) = driven.summary();
    let (raw_ops_per_s, raw_p50, raw_p99) = driven.raw_summary();
    let calibration_ms = trimmed_mean(&calibrations) * 1e3;
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    if trace {
        let layered = layers::measure(
            &inputs,
            &driven,
            &scrapes,
            last_disk.as_ref().expect("at least one round"),
        )?;
        problems.extend(layered.problems);
        metrics.extend(layered.metrics);
        // Self-times are as measured, so the traced run's client figures
        // are too.
        metrics.extend([
            ("traced.ops_per_s", raw_ops_per_s),
            ("traced.op_p50_ms", raw_p50),
            ("traced.op_p99_ms", raw_p99),
            ("host.steal_share", steal),
            ("host.cpu_ms_per_op", cpu_s * 1e3 / ops as f64),
            ("host.calibration_ms", calibration_ms),
        ]);
    } else {
        metrics.extend([
            ("setup_s", trimmed_mean(&setup_s)),
            ("ops_per_s", ops_per_s),
            ("op_p50_ms", p50),
            ("op_p99_ms", p99),
            ("recovery_s", trimmed_mean(&boots)),
            ("labels_per_op", driven.labels as f64 / ops as f64),
            ("disk_bytes_per_op", disk_bytes as f64 / ops as f64),
            ("peak_rss_mb", host::peak_rss_mb()),
        ]);
    }
    Ok(Outcome {
        attempted: ops,
        failed: driven.failed,
        correct: driven.failed == 0 && problems.is_empty(),
        metrics,
        diagnostics: vec![
            ("steal_share", steal),
            ("cpu_ms_per_op", cpu_s * 1e3 / ops as f64),
            ("minor_faults_per_op", faults as f64 / ops as f64),
            ("calibration_ms", calibration_ms),
            ("raw_ops_per_s", raw_ops_per_s),
            ("raw_op_p50_ms", raw_p50),
            ("raw_op_p99_ms", raw_p99),
            ("timed_ops", ops as f64),
            ("timed_wall_s", driven.wall_s()),
        ],
        problems,
    })
}
