//! Crash-consistency matrix harness runner.
//!
//! Runs the deterministic fault-injection matrix from
//! [`easeml_serve::fault`]: a fixed two-project serving schedule is
//! first recorded fault-free, then re-run once per (I/O operation,
//! fault) pair — process kill, power cut, torn write, `ENOSPC` —
//! rebooting from the surviving in-memory disk image after each and
//! checking the durability contract (no acked commit lost past its
//! durability class, no un-acked commit visible, reboot never bricks,
//! survivor journals byte-faithful to the baseline).
//!
//! Writes a machine-readable report to `results/BENCH_faults.json` and
//! exits non-zero if any matrix cell fails — CI runs this in `--quick`
//! (strided) mode across an `EASEML_THREADS` matrix.
//!
//! Usage: `cargo run --release --bin repro_faults [--quick] [--threads N]
//! [--durability group|relaxed]` (default group)

use easeml_bench::{init_threads_from_args, results_dir, write_text, Table};
use easeml_serve::fault::{run_matrix, MatrixOptions};
use easeml_serve::json::Value;
use easeml_serve::Durability;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let threads = init_threads_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let mut durability = Durability::default();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--durability" {
            let value = args.next().unwrap_or_default();
            durability = Durability::parse(&value).unwrap_or_else(|| {
                eprintln!("error: --durability expects group|relaxed, got `{value}`");
                std::process::exit(2);
            });
        }
    }
    println!(
        "== crash-consistency matrix ({} mode, {durability} durability, {threads} threads) ==",
        if quick { "quick" } else { "full" }
    );

    let options = MatrixOptions {
        quick,
        seed: 7,
        durability,
    };
    let start = Instant::now();
    let report = run_matrix(&options);
    let elapsed = start.elapsed();

    let mut per_fault: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for case in &report.cases {
        let entry = per_fault.entry(case.fault).or_insert((0, 0));
        entry.0 += 1;
        if case.failure.is_some() {
            entry.1 += 1;
        }
    }
    let mut table = Table::new(["fault", "cells", "failed"]);
    for (fault, (cells, failed)) in &per_fault {
        table.push_row([(*fault).to_owned(), cells.to_string(), failed.to_string()]);
    }
    println!("{}", table.render());
    println!(
        "{} ops enumerated, {} cells, {:.1} ms",
        report.ops_enumerated,
        report.cases.len(),
        elapsed.as_secs_f64() * 1e3
    );

    let json = Value::object([
        ("bench", Value::from("crash_matrix")),
        ("durability", Value::from(durability.as_str())),
        ("elapsed_ms", Value::from(elapsed.as_secs_f64() * 1e3)),
        ("matrix", report.to_json()),
    ]);
    write_text("BENCH_faults.json", &format!("{}\n", json.pretty()));
    println!(
        "wrote {}",
        results_dir().join("BENCH_faults.json").display()
    );

    if report.passed() {
        println!("PASS: every matrix cell held the durability contract");
    } else {
        for case in report.failures() {
            eprintln!(
                "FAIL {}/{} {} {}: {}",
                case.scope,
                case.index,
                case.op,
                case.fault,
                case.failure.as_deref().unwrap_or_default()
            );
        }
        std::process::exit(1);
    }
}
