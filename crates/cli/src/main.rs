//! `easeml-ci` — command-line front end of the ease.ml/ci reproduction.
//!
//! ```text
//! easeml-ci validate <script.yml>            check a CI script
//! easeml-ci estimate <script.yml>            testset size + labelling effort
//! easeml-ci table                            print the Figure 2 sample-size table
//! easeml-ci simulate <script.yml> [options]  drive a simulated commit history
//! easeml-ci serve [options]                  run the persistent HTTP CI service
//! ```
//!
//! Every command accepts a global `--threads N` option sizing the
//! parallel execution layer (default: auto via `EASEML_THREADS` or the
//! hardware).

use easeml_bounds::{Adaptivity, Tail};
use easeml_ci_core::dsl::parse_clause;
use easeml_ci_core::estimator::{clause_sample_size, Allocation, LeafBound};
use easeml_ci_core::{
    effort, CiScript, CostModel, EstimateProvenance, Practicality, SampleSizeEstimator,
};
use easeml_sim::developer::RandomWalkDeveloper;
use easeml_sim::montecarlo::{run_process, ProcessConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match extract_threads(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("table") => cmd_table(),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `easeml-ci help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Strip the global `--threads N` / `--threads=N` option from the argv
/// (shared grammar: [`easeml_par::extract_threads_flag`]) and size the
/// process-wide pool (`0` or absent means auto, i.e. `EASEML_THREADS`
/// or the hardware).
fn extract_threads(args: Vec<String>) -> Result<Vec<String>, String> {
    let (rest, requested) = easeml_par::extract_threads_flag(args)?;
    if let Some(requested) = requested {
        if requested > 0 {
            easeml_par::set_global_threads(requested);
        }
    }
    Ok(rest)
}

fn print_usage() {
    println!(
        "easeml-ci — continuous integration for ML models with (epsilon, delta) guarantees\n\
         \n\
         USAGE:\n\
         \x20 easeml-ci [--threads N] validate <script.yml>\n\
         \x20 easeml-ci [--threads N] estimate <script.yml>\n\
         \x20 easeml-ci [--threads N] table\n\
         \x20 easeml-ci [--threads N] simulate <script.yml> [--commits N] [--seed S] [--accuracy A]\n\
         \x20 easeml-ci [--threads N] serve [--addr HOST:PORT] [--data-dir DIR]\n\
         \x20                                [--event-threads N] [--idle-timeout-ms MS]\n\
         \x20                                [--request-timeout-ms MS] [--max-inflight N]\n\
         \x20                                [--degraded-after N] [--slow-request-ms MS]\n\
         \x20                                [--durability group|relaxed]\n\
         \n\
         OPTIONS:\n\
         \x20 --threads N   worker threads for the parallel execution layer\n\
         \x20               (default: auto via EASEML_THREADS or the hardware)\n\
         \n\
         SERVE OPTIONS:\n\
         \x20 --addr HOST:PORT        bind address (default 127.0.0.1:8642; port 0 is ephemeral)\n\
         \x20 --data-dir DIR          durable state directory (default ./easeml-serve-data):\n\
         \x20                         project registry, per-project journals + snapshots\n\
         \x20 --event-threads N       event loops multiplexing connections (default 1;\n\
         \x20                         one loop handles thousands of keep-alive clients)\n\
         \x20 --idle-timeout-ms MS    close a keep-alive connection after this long\n\
         \x20                         without a request (default 30000)\n\
         \x20 --request-timeout-ms MS budget for reading one request and for write\n\
         \x20                         progress on one response (default 2000)\n\
         \x20 --max-inflight N        pool-bound requests (registrations, persists)\n\
         \x20                         admitted concurrently before shedding with\n\
         \x20                         503 + Retry-After (default: 2x worker threads)\n\
         \x20 --degraded-after N      consecutive durable-write failures before the\n\
         \x20                         server degrades to read-only; 0 disables\n\
         \x20                         (default 3)\n\
         \x20 --slow-request-ms MS    slow-log a request (stderr line + GET /admin/trace\n\
         \x20                         ring entry) when its traced end-to-end time\n\
         \x20                         exceeds MS; 0 traces everything (default 250)\n\
         \x20 --durability MODE       when acknowledgements become durable (default group):\n\
         \x20                         group   = one batched fsync per flusher round;\n\
         \x20                                   responses released when their round lands\n\
         \x20                         relaxed = acknowledge commits before any fsync (the\n\
         \x20                                   journal is synced every 64 ops, so a\n\
         \x20                                   power cut may lose up to 63 acked commits)\n\
         \n\
         Stop the service gracefully with `POST /admin/shutdown` (snapshots\n\
         every project). A hard kill loses no acknowledged gate state: it is\n\
         journaled before every response (with --durability relaxed, a\n\
         power cut may lose the acked commits since the last 64-op sync).\n\
         \n\
         The script is a .travis.yml-style file with an `ml:` section, e.g.\n\
         \n\
         \x20 ml:\n\
         \x20   - script     : ./test_model.py\n\
         \x20   - condition  : n - o > 0.02 +/- 0.01\n\
         \x20   - reliability: 0.9999\n\
         \x20   - mode       : fp-free\n\
         \x20   - adaptivity : full\n\
         \x20   - steps      : 32"
    );
}

fn load_script(args: &[String]) -> Result<CiScript, String> {
    let path = args.first().ok_or("expected a script path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    CiScript::parse(&text).map_err(|e| e.to_string())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let script = load_script(args)?;
    println!("script OK:\n{script}");
    Ok(())
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    let script = load_script(args)?;
    let estimator = SampleSizeEstimator::new();
    let estimate = estimator.estimate(&script).map_err(|e| e.to_string())?;
    println!("condition   : {}", script.condition());
    println!(
        "reliability : {} (delta = {})",
        script.reliability(),
        script.delta()
    );
    println!(
        "adaptivity  : {} over {} steps",
        script.adaptivity(),
        script.steps()
    );
    match &estimate.provenance {
        EstimateProvenance::Baseline => println!("strategy    : baseline (Hoeffding)"),
        EstimateProvenance::Optimized(_) => println!("strategy    : optimized (section-4 pattern)"),
    }
    println!("labelled    : {}", estimate.labeled_samples);
    println!("unlabeled   : {}", estimate.unlabeled_samples);
    let report = effort(estimate.labeled_samples, &CostModel::paper_default());
    println!(
        "effort      : {:.1} person-days at 2 s/label -> {}",
        report.person_days, report.verdict
    );
    let baseline = estimator
        .estimate_baseline(&script)
        .map_err(|e| e.to_string())?;
    if baseline.labeled_samples > estimate.labeled_samples {
        println!(
            "saving      : {:.1}x fewer labels than the baseline ({})",
            baseline.labeled_samples as f64 / estimate.labeled_samples.max(1) as f64,
            baseline.labeled_samples
        );
    }
    Ok(())
}

fn cmd_table() -> Result<(), String> {
    println!("Figure 2: samples required (H = 32 steps, one-sided)\n");
    println!(
        "{:>9} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "1-delta", "eps", "F1/F4 none", "F1/F4 full", "F2/F3 none", "F2/F3 full"
    );
    for reliability in [0.99, 0.999, 0.9999, 0.99999] {
        let delta = ((1.0f64 - reliability) * 1e9).round() / 1e9;
        for eps in [0.1, 0.05, 0.025, 0.01] {
            let cell = |cond: &str, adaptivity: Adaptivity| -> Result<u64, String> {
                let clause = parse_clause(cond).map_err(|e| e.to_string())?;
                let ln_delta = adaptivity
                    .ln_effective_delta(delta, 32)
                    .map_err(|e| e.to_string())?;
                Ok(clause_sample_size(
                    &clause,
                    ln_delta,
                    Allocation::EqualSplit,
                    LeafBound::Hoeffding,
                    Tail::OneSided,
                )
                .map_err(|e| e.to_string())?
                .samples)
            };
            let f1 = format!("n > 0.9 +/- {eps}");
            let f2 = format!("n - o > 0.02 +/- {eps}");
            println!(
                "{:>9} {:>7} {:>12} {:>12} {:>12} {:>12}",
                reliability,
                eps,
                cell(&f1, Adaptivity::None)?,
                cell(&f1, Adaptivity::Full)?,
                cell(&f2, Adaptivity::None)?,
                cell(&f2, Adaptivity::Full)?,
            );
        }
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let script = load_script(args)?;
    let mut commits = script.steps();
    let mut seed = 42u64;
    let mut accuracy = 0.75f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--commits" => {
                commits = next_value(args, &mut i)?
                    .parse()
                    .map_err(|_| "bad --commits")?;
            }
            "--seed" => {
                seed = next_value(args, &mut i)?
                    .parse()
                    .map_err(|_| "bad --seed")?;
            }
            "--accuracy" => {
                accuracy = next_value(args, &mut i)?
                    .parse()
                    .map_err(|_| "bad --accuracy")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    let config = ProcessConfig {
        script,
        estimator: easeml_ci_core::EstimatorConfig::default(),
        commits,
        initial_accuracy: accuracy,
        num_classes: 4,
        churn: 0.5,
    };
    let mut developer = RandomWalkDeveloper::new(accuracy, 0.015, 0.06, seed);
    let outcome = run_process(&config, &mut developer, seed).map_err(|e| e.to_string())?;
    println!("commits evaluated  : {}", outcome.commits);
    println!("passes             : {}", outcome.passes);
    println!("labels requested   : {}", outcome.labels_requested);
    println!("stopped early      : {}", outcome.stopped_early);
    println!(
        "ground-truth errors: {} false positives, {} false negatives",
        outcome.false_positives, outcome.false_negatives
    );
    println!(
        "practicality       : {}",
        Practicality::of(outcome.labels_requested)
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:8642".to_owned();
    let mut data_dir = "./easeml-serve-data".to_owned();
    let mut config = easeml_serve::ServeConfig::new("", "");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = next_value(args, &mut i)?.to_owned(),
            "--data-dir" => data_dir = next_value(args, &mut i)?.to_owned(),
            "--event-threads" => {
                config.event_threads =
                    parse_positive(next_value(args, &mut i)?, "--event-threads")?;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms =
                    parse_positive(next_value(args, &mut i)?, "--idle-timeout-ms")? as u64;
            }
            "--request-timeout-ms" => {
                config.request_timeout_ms =
                    parse_positive(next_value(args, &mut i)?, "--request-timeout-ms")? as u64;
            }
            "--max-inflight" => {
                config.max_inflight = parse_positive(next_value(args, &mut i)?, "--max-inflight")?;
            }
            "--degraded-after" => {
                let value = next_value(args, &mut i)?;
                config.degraded_after = value
                    .parse::<u32>()
                    .map_err(|_| format!("--degraded-after expects a number, got `{value}`"))?;
            }
            "--slow-request-ms" => {
                let value = next_value(args, &mut i)?;
                config.slow_request_ms = value
                    .parse::<u64>()
                    .map_err(|_| format!("--slow-request-ms expects a number, got `{value}`"))?;
            }
            "--durability" => {
                let value = next_value(args, &mut i)?;
                config.durability = easeml_serve::Durability::parse(value)
                    .ok_or_else(|| format!("--durability expects group|relaxed, got `{value}`"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    config.addr = addr;
    config.data_dir = data_dir.clone().into();
    let server = easeml_serve::Server::bind(&config).map_err(|e| e.to_string())?;
    // The bound address goes out first and flushed: with port 0 it is the
    // only way for a supervisor (or test harness) to learn the port.
    println!(
        "listening on {} (data dir: {data_dir})",
        server.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

fn next_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
}

fn parse_positive(value: &str, flag: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{value}`")),
    }
}
