//! Repository benchmark for the `easeml-serve` gate service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload register|commit-counts|commit-predictions \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each call pins itself to one CPU and runs the workload in identical
//! rounds. Each round starts an in-process server (group durability,
//! worker pool of two, data directory on a tmpfs-like in-memory disk),
//! sets up, drives its share of one seeded workload closed-loop over
//! keep-alive connections, checks every response, stops the server
//! cleanly, and times reboots of the round's data directory. A host-speed
//! calibration beside each round scales the round's times to a reference
//! host. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for what each metric measures.

mod calib;
mod check;
mod client;
mod host;
mod inputs;
mod layers;
mod ramdisk;
mod run;

use easeml_serve::json::Value;
use inputs::Workload;

/// The benchmark's declaration; the metric tables are read from it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric under `key` (`end_to_end` or
/// `per_layer`) in `BENCHMARK.json`, in order.
fn declared(key: &str) -> Vec<(String, String)> {
    let json = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

const USAGE: &str =
    "usage: perfbench --workload register|commit-counts|commit-predictions --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: the named metrics with units, in table order.
fn result_line(outcome: &run::Outcome, table: &[(String, String)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let table = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let line = run::run(args.workload, args.seed, args.seconds, args.trace).and_then(|outcome| {
        for problem in &outcome.problems {
            eprintln!("perfbench: check failed: {problem}");
        }
        let diagnostics: Vec<String> = outcome
            .diagnostics
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        println!("diagnostics {{{}}}", diagnostics.join(", "));
        result_line(&outcome, &table)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs share the process-wide estimation caches, which a run
    /// empties; tests that run workloads take turns.
    static RUNS: Mutex<()> = Mutex::new(());

    fn value(outcome: &run::Outcome, name: &str) -> f64 {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    /// At tiny size every workload `BENCHMARK.json` declares passes its
    /// checks and prints every declared metric with its unit; on the
    /// traced run the layer sum plus the residual is the client median.
    #[test]
    fn tiny_runs_print_every_metric() {
        let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        let json = Value::parse(BENCHMARK_JSON).unwrap();
        let workloads = json.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for declared_workload in workloads {
            let name = declared_workload
                .get("name")
                .and_then(Value::as_str)
                .unwrap();
            let workload = Workload::parse(name).unwrap();
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let table = declared(key);
                let outcome = run::run(workload, 5, 1, trace).unwrap();
                assert!(
                    outcome.correct,
                    "{}: {:?}",
                    workload.name(),
                    outcome.problems
                );
                let line = result_line(&outcome, &table).unwrap();
                let parsed = Value::parse(&line).unwrap();
                for (name, unit) in &table {
                    let metric = parsed.get("metrics").and_then(|m| m.get(name)).unwrap();
                    assert_eq!(
                        metric.get("unit").and_then(Value::as_str),
                        Some(unit.as_str())
                    );
                }
                if trace {
                    let sum = layers::layer_sum_us(&outcome.metrics);
                    let total = sum + value(&outcome, "net.residual_us_per_op");
                    let p50_us = value(&outcome, "traced.op_p50_ms") * 1e3;
                    assert!(
                        (total - p50_us).abs() < 1e-6 * p50_us.max(1.0),
                        "{total} vs {p50_us}"
                    );
                }
            }
        }
    }

    /// Seed discipline: the seed moves only timing, never what is
    /// labelled or written.
    #[test]
    fn labels_and_disk_bytes_repeat_across_seeds() {
        let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        for workload in Workload::ALL {
            let a = run::run(workload, 11, 1, false).unwrap();
            let b = run::run(workload, 12, 1, false).unwrap();
            assert_eq!(
                value(&a, "disk_bytes_per_op"),
                value(&b, "disk_bytes_per_op"),
                "{}",
                workload.name()
            );
            if workload == Workload::Register {
                assert_eq!(value(&a, "labels_per_op"), value(&b, "labels_per_op"));
            }
        }
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = [
            "--workload",
            "commit-counts",
            "--seed",
            "3",
            "--seconds",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload, Workload::CommitCounts);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 2, false));
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
    }
}
