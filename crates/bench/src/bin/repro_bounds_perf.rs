//! Perf trajectory of the §4.3 exact-binomial hot path.
//!
//! Times the optimized inversion against the preserved seed
//! implementation (`easeml_bounds::reference`), the cached estimator
//! path against the uncached one, and the parallel execution layer
//! (batched table inversion and pooled Monte-Carlo trials) against the
//! sequential per-cell/one-thread paths, then writes machine-readable
//! results to `results/BENCH_bounds.json` so future PRs can track the
//! trajectory.
//!
//! Usage: `cargo run --release --bin repro_bounds_perf [--quick] [--threads N]`

use easeml_bench::{format_sig, init_threads_from_args, results_dir, Table};
use easeml_bounds::{
    exact_binomial_sample_size, exact_binomial_sample_size_batch_with_pool, hoeffding_sample_size,
    reference, Tail,
};
use easeml_ci_core::{
    BoundsCache, CiScript, EstimatorConfig, Mode, PlanCache, SampleSizeEstimator,
};
use easeml_par::Pool;
use easeml_serve::json::Value;
use easeml_sim::developer::{Developer, OverfitterDeveloper};
use easeml_sim::montecarlo::{violation_report_with_pool, ProcessConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// The Figure-2-style 5×5 table the parallel section inverts: paper-like
/// tolerances crossed with paper-like reliabilities.
const TABLE_EPSILONS: [f64; 5] = [0.1, 0.05, 0.04, 0.025, 0.02];
const TABLE_DELTAS: [f64; 5] = [0.05, 0.01, 1e-3, 1e-4, 1e-5];

/// One measured case.
struct Case {
    name: &'static str,
    eps: f64,
    delta: f64,
    tail: Tail,
    /// `Some(n)` for a serving-size leaf inversion, pinned to its row of
    /// `crates/bounds/tests/data/exact_sample_size.golden`: the answer is
    /// asserted, and the seed implementation, far too slow at these
    /// sizes, is not timed.
    golden_n: Option<u64>,
}

const CASES: &[Case] = &[
    Case {
        name: "eps0.10_delta0.01",
        eps: 0.10,
        delta: 0.01,
        tail: Tail::TwoSided,
        golden_n: None,
    },
    Case {
        name: "eps0.05_delta0.001",
        eps: 0.05,
        delta: 0.001,
        tail: Tail::TwoSided,
        golden_n: None,
    },
    Case {
        name: "eps0.05_delta0.0001",
        eps: 0.05,
        delta: 1e-4,
        tail: Tail::TwoSided,
        golden_n: None,
    },
    Case {
        name: "eps0.10_delta0.01_one_sided",
        eps: 0.10,
        delta: 0.01,
        tail: Tail::OneSided,
        golden_n: None,
    },
    // One-sided leaves the serving estimator inverts for `register`-mix
    // scripts (reliability 0.999..0.9999, up to 64 steps): cold climbs
    // at these sizes are what a registration pays for.
    Case {
        name: "eps0.05_delta2.08e-6_one_sided",
        eps: 0.05,
        delta: f64::from_bits(0x3ec1_79ec_9cbd_7ffd),
        tail: Tail::OneSided,
        golden_n: Some(2_138),
    },
    Case {
        name: "eps0.02_delta1.49e-10_one_sided",
        eps: 0.02,
        delta: f64::from_bits(0x3de4_7ae1_47ae_148a),
        tail: Tail::OneSided,
        golden_n: Some(24_853),
    },
    Case {
        name: "eps0.01_delta5.42e-24_one_sided",
        eps: 0.01,
        delta: f64::from_bits(0x3b1a_36e2_eb1c_4005),
        tail: Tail::OneSided,
        golden_n: Some(251_781),
    },
];

/// Median-of-runs wall time for `f`, in nanoseconds.
fn time_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall time of one `f()` invocation, in nanoseconds.
fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_nanos() as f64)
}

/// Measure the parallel execution layer: (a) the 5×5 table via
/// `invert_batch` (threads 1 and N) against sequential per-cell
/// inversion, (b) `violation_report` trials at threads 1 vs N. Returns
/// the JSON fragment.
fn parallel_section(threads: usize, quick: bool, runs: usize) -> String {
    // Measure at the requested width when one was given (so multicore
    // hosts can demonstrate their full fan-out); otherwise at the
    // acceptance-criterion default of 4.
    let n_pool = Pool::new(if threads >= 2 { threads } else { 4 });
    // (a) Batched table inversion. Median-of-runs; every measurement
    // re-inverts from scratch (no BoundsCache on this path).
    let seq_ns = time_ns(runs, || {
        let mut grid = Vec::with_capacity(TABLE_EPSILONS.len());
        for &eps in &TABLE_EPSILONS {
            let mut row = Vec::with_capacity(TABLE_DELTAS.len());
            for &delta in &TABLE_DELTAS {
                row.push(exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap());
            }
            grid.push(row);
        }
        grid
    });
    let batch_t1_ns = time_ns(runs, || {
        exact_binomial_sample_size_batch_with_pool(
            &TABLE_EPSILONS,
            &TABLE_DELTAS,
            Tail::TwoSided,
            &Pool::new(1),
        )
        .unwrap()
    });
    let batch_tn_ns = time_ns(runs, || {
        exact_binomial_sample_size_batch_with_pool(
            &TABLE_EPSILONS,
            &TABLE_DELTAS,
            Tail::TwoSided,
            &n_pool,
        )
        .unwrap()
    });
    // Bit-identity across widths and against the per-cell inversion.
    let per_cell: Vec<Vec<u64>> = TABLE_EPSILONS
        .iter()
        .map(|&eps| {
            TABLE_DELTAS
                .iter()
                .map(|&delta| exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap())
                .collect()
        })
        .collect();
    let batch_t1 = exact_binomial_sample_size_batch_with_pool(
        &TABLE_EPSILONS,
        &TABLE_DELTAS,
        Tail::TwoSided,
        &Pool::new(1),
    )
    .unwrap();
    let batch_tn = exact_binomial_sample_size_batch_with_pool(
        &TABLE_EPSILONS,
        &TABLE_DELTAS,
        Tail::TwoSided,
        &n_pool,
    )
    .unwrap();
    assert_eq!(batch_t1, batch_tn, "batch must be thread-count invariant");
    assert_eq!(batch_t1, per_cell, "batch must match per-cell inversion");

    // (b) Pooled Monte-Carlo soundness trials against the real engine.
    let trials: u32 = if quick { 200 } else { 1_000 };
    let script = CiScript::builder()
        .condition_str("n - o > 0.02 +/- 0.02")
        .unwrap()
        .reliability(0.95)
        .mode(Mode::FpFree)
        .adaptivity(easeml_bounds::Adaptivity::Full)
        .steps(6)
        .build()
        .unwrap();
    let config = ProcessConfig {
        script,
        estimator: EstimatorConfig::default(),
        commits: 6,
        initial_accuracy: 0.75,
        num_classes: 4,
        churn: 0.5,
    };
    let adversary = |seed: u64| -> Box<dyn Developer + Send> {
        Box::new(OverfitterDeveloper::new(0.75, 0.003, 0.05, seed))
    };
    let (report_t1, mc_t1_ns) = time_once(|| {
        violation_report_with_pool(&config, adversary, trials, 7, &Pool::new(1)).unwrap()
    });
    let (report_tn, mc_tn_ns) =
        time_once(|| violation_report_with_pool(&config, adversary, trials, 7, &n_pool).unwrap());
    assert_eq!(
        report_t1, report_tn,
        "violation_report must be thread-count invariant"
    );

    // Serving path: the estimator's grid entry point consults the
    // shared BoundsCache first, so a warm table is pure lookups.
    let estimator = SampleSizeEstimator::new();
    let (_, grid_cold_ns) = time_once(|| {
        estimator
            .exact_sample_size_grid(&TABLE_EPSILONS, &TABLE_DELTAS, Tail::TwoSided)
            .unwrap()
    });
    let grid_warm_ns = time_ns(runs.max(5), || {
        estimator
            .exact_sample_size_grid(&TABLE_EPSILONS, &TABLE_DELTAS, Tail::TwoSided)
            .unwrap()
    });

    println!(
        "\n== parallel execution layer (pool: {} threads available, measured at {}) ==",
        threads,
        n_pool.threads()
    );
    println!(
        "grid entry    : cold {:.1} ms, warm (cache) {:.1} us per 25-cell table",
        grid_cold_ns / 1e6,
        grid_warm_ns / 1e3,
    );
    println!(
        "5x5 table     : per-cell {:.1} ms | batch t1 {:.1} ms ({:.2}x) | batch t{} {:.1} ms ({:.2}x)",
        seq_ns / 1e6,
        batch_t1_ns / 1e6,
        seq_ns / batch_t1_ns,
        n_pool.threads(),
        batch_tn_ns / 1e6,
        seq_ns / batch_tn_ns,
    );
    println!(
        "{} MC trials : t1 {:.0} ms | t{} {:.0} ms ({:.2}x), outputs bit-identical",
        trials,
        mc_t1_ns / 1e6,
        n_pool.threads(),
        mc_tn_ns / 1e6,
        mc_t1_ns / mc_tn_ns,
    );

    format!(
        "{{\n    \"threads_available\": {}, \"threads_measured\": {},\n    \
         \"table\": {{\"epsilons\": {}, \"deltas\": {}, \"tail\": \"two-sided\", \
         \"sequential_per_cell_ns\": {:.0}, \"batch_t1_ns\": {:.0}, \"batch_tn_ns\": {:.0}, \
         \"batch_speedup_t1\": {:.2}, \"batch_speedup_tn\": {:.2}, \"bit_identical\": true}},\n    \
         \"violation_report\": {{\"trials\": {}, \"t1_ns\": {:.0}, \"tn_ns\": {:.0}, \
         \"speedup\": {:.2}, \"bit_identical\": true}},\n    \
         \"grid_entry\": {{\"cells\": {}, \"cold_ns\": {:.0}, \"warm_cached_ns\": {:.0}}}\n  }}",
        threads,
        n_pool.threads(),
        TABLE_EPSILONS.len(),
        TABLE_DELTAS.len(),
        seq_ns,
        batch_t1_ns,
        batch_tn_ns,
        seq_ns / batch_t1_ns,
        seq_ns / batch_tn_ns,
        trials,
        mc_t1_ns,
        mc_tn_ns,
        mc_t1_ns / mc_tn_ns,
        TABLE_EPSILONS.len() * TABLE_DELTAS.len(),
        grid_cold_ns,
        grid_warm_ns,
    )
}

fn main() {
    let threads = init_threads_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 9 };
    let mut table = Table::new([
        "case",
        "n_exact",
        "n_hoeffding",
        "seed_ms",
        "optimized_us",
        "speedup",
    ]);
    let mut json_cases = String::new();

    for case in CASES {
        // Time the very first optimized invocation of this case: for the
        // first case the process-wide ln-factorial table is empty (a true
        // cold start); later cases pay only the incremental table growth
        // their larger bracket triggers. Steady-state cost is measured
        // separately below.
        let cold_t = Instant::now();
        let n_opt = std::hint::black_box(
            exact_binomial_sample_size(case.eps, case.delta, case.tail).unwrap(),
        );
        let cold_ns = cold_t.elapsed().as_nanos() as f64;
        let n_hoeff = hoeffding_sample_size(1.0, case.eps, case.delta, case.tail).unwrap();
        let opt_ns = time_ns(runs, || {
            exact_binomial_sample_size(case.eps, case.delta, case.tail).unwrap()
        });
        // (seed n, seed ns) where the seed implementation is timed.
        let seed = match case.golden_n {
            Some(golden) => {
                assert_eq!(n_opt, golden, "{}: golden leaf row moved", case.name);
                None
            }
            None => {
                let n_ref =
                    reference::exact_binomial_sample_size(case.eps, case.delta, case.tail).unwrap();
                // Acceptance is breakpoint-exact for both tails: it sees
                // sawtooth teeth the seed's 64-point grid missed, so its
                // answers may sit a few teeth above the seed's (never
                // below).
                assert!(
                    n_opt >= n_ref,
                    "{}: optimized {} below grid-accepted seed {}",
                    case.name,
                    n_opt,
                    n_ref
                );
                assert!(
                    n_opt.abs_diff(n_ref) as f64 <= (n_ref as f64 * 0.05).max(8.0),
                    "{}: optimized {} vs seed {} drifted apart",
                    case.name,
                    n_opt,
                    n_ref
                );
                let ref_runs = if quick { 1 } else { 3 };
                let seed_ns = time_ns(ref_runs, || {
                    reference::exact_binomial_sample_size(case.eps, case.delta, case.tail).unwrap()
                });
                Some((n_ref, seed_ns))
            }
        };
        table.push_row([
            case.name.to_string(),
            n_opt.to_string(),
            n_hoeff.to_string(),
            seed.map_or("-".to_string(), |(_, ns)| format_sig(ns / 1e6)),
            format_sig(opt_ns / 1e3),
            seed.map_or("-".to_string(), |(_, ns)| format!("{:.0}x", ns / opt_ns)),
        ]);
        // Untimed seed fields are JSON nulls.
        let (n_ref, seed_ns, speedup) = match seed {
            Some((n, ns)) => (
                n.to_string(),
                format!("{ns:.0}"),
                format!("{:.1}", ns / opt_ns),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        let _ = write!(
            json_cases,
            "{}    {{\"case\": \"{}\", \"eps\": {}, \"delta\": {:e}, \"tail\": \"{}\", \
             \"n_exact\": {}, \"n_seed_impl\": {}, \"n_hoeffding\": {}, \
             \"seed_ns\": {}, \"optimized_ns\": {:.0}, \"optimized_cold_ns\": {:.0}, \
             \"speedup\": {}}}",
            if json_cases.is_empty() { "" } else { ",\n" },
            case.name,
            case.eps,
            case.delta,
            case.tail,
            n_opt,
            n_ref,
            n_hoeff,
            seed_ns,
            opt_ns,
            cold_ns,
            speedup,
        );
    }

    // Cross-layer caches: repeated estimates of the same script must
    // collapse to lookups. The first estimate fills both layers (the
    // BoundsCache with the leaf inversion, the PlanCache with the whole
    // plan-search result); replays are served entirely by the PlanCache.
    let script = CiScript::builder()
        .condition_str("n > 0.8 +/- 0.05")
        .unwrap()
        .reliability(0.999)
        .steps(8)
        .build()
        .unwrap();
    let estimator = SampleSizeEstimator::with_config(EstimatorConfig {
        leaf_bound: easeml_ci_core::estimator::LeafBound::ExactBinomial,
        tail: Tail::TwoSided,
        ..EstimatorConfig::default()
    });
    let cold = estimator.estimate(&script).unwrap(); // populate
    let warm_ns = time_ns(runs.max(5), || estimator.estimate(&script).unwrap());
    let stats = BoundsCache::global().stats();
    let plan_stats = PlanCache::global().stats();
    assert!(
        plan_stats.hits > 0,
        "warm estimates must hit the plan cache"
    );
    assert!(
        stats.entries > 0,
        "the cold estimate must fill the bounds cache"
    );
    println!("exact-binomial inversion: seed vs optimized\n");
    println!("{}", table.render());
    println!(
        "cached estimator replay: {:.1} us/estimate (n = {}, bounds cache: {} hits / {} misses / {} entries; plan cache: {} hits / {} misses / {} entries)",
        warm_ns / 1e3,
        cold.labeled_samples,
        stats.hits,
        stats.misses,
        stats.entries,
        plan_stats.hits,
        plan_stats.misses,
        plan_stats.entries,
    );

    let parallel_json = parallel_section(threads, quick, runs);

    // Self-describing environment block (shared JSON writer with the
    // serve bench): committed numbers from a 1-CPU container and
    // multicore re-runs must be distinguishable at a glance.
    let environment = Value::object([
        ("threads", Value::from(threads)),
        (
            "host_available_parallelism",
            Value::from(
                std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
            ),
        ),
    ])
    .encode();

    let json = format!(
        "{{\n  \"bench\": \"bounds\",\n  \"unit\": \"ns\",\n  \"environment\": {environment},\n  \
         \"cases\": [\n{json_cases}\n  ],\n  \
         \"cached_estimator\": {{\"warm_estimate_ns\": {:.0}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"cache_entries\": {}, \"plan_cache_hits\": {}, \
         \"plan_cache_misses\": {}, \"plan_cache_entries\": {}}},\n  \
         \"parallel\": {parallel_json}\n}}\n",
        warm_ns,
        stats.hits,
        stats.misses,
        stats.entries,
        plan_stats.hits,
        plan_stats.misses,
        plan_stats.entries,
    );
    let path = results_dir().join("BENCH_bounds.json");
    std::fs::write(&path, json).expect("write BENCH_bounds.json");
    println!("[json] wrote {}", path.display());
}
