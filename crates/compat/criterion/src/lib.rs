//! Offline stand-in for the subset of the `criterion` benchmarking API
//! this workspace uses.
//!
//! The build container has no crates.io access, so the workspace vendors
//! a minimal harness with the same surface: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`criterion_group!`], [`criterion_main!`],
//! [`BatchSize`], and [`Throughput`].
//!
//! Measurement model: each benchmark is calibrated with a short warm-up,
//! then timed in chunks of equal iteration count until the chunks fill a
//! fixed measurement window and number at least [`MIN_CHUNKS`]. The
//! median ns/iter over the chunks is printed with its quartiles, so a
//! reader can see how far one call's figure spreads. This is
//! deliberately simpler than criterion's bootstrap statistics; compare
//! two builds over repeated, interleaved calls.
//!
//! Passing `--test` (as `cargo bench -- --test` or criterion's own smoke
//! mode) runs every routine exactly once without timing.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost; accepted and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per sample.
    PerIteration,
}

/// Units-processed-per-iteration annotation; printed alongside timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes handled per iteration.
    Bytes(u64),
    /// Logical elements handled per iteration.
    Elements(u64),
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    mode: Mode,
    /// Filled in by the timing loop: ns/iter of each measurement chunk.
    result: Option<Vec<f64>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--test`: run once, no timing.
    Smoke,
    /// Timed measurement.
    Measure,
}

/// Measurement window per benchmark (split over calibration + chunks).
const MEASURE_WINDOW: Duration = Duration::from_millis(200);

/// Fewest measurement chunks a benchmark is timed over, so its quartiles
/// rest on at least this many samples.
pub const MIN_CHUNKS: usize = 10;

/// Time `chunk` (which runs `per_chunk` iterations and returns its own
/// elapsed time) until the chunks fill [`MEASURE_WINDOW`] and number at
/// least [`MIN_CHUNKS`]; returns each chunk's ns/iter.
fn measure_chunks(per_chunk: u64, mut chunk: impl FnMut() -> Duration) -> Vec<f64> {
    let mut total = Duration::ZERO;
    let mut samples = Vec::new();
    while total < MEASURE_WINDOW || samples.len() < MIN_CHUNKS {
        let elapsed = chunk();
        total += elapsed;
        samples.push(elapsed.as_nanos() as f64 / per_chunk as f64);
    }
    samples
}

/// The `q`-quantile of sorted `samples`, interpolated linearly between
/// neighbouring ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

impl Bencher {
    /// Time `routine` run back-to-back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            Mode::Smoke => {
                black_box(routine());
            }
            Mode::Measure => {
                // Calibrate: how many iterations fit in ~1/10 the window?
                let t0 = Instant::now();
                black_box(routine());
                let once = t0.elapsed().max(Duration::from_nanos(1));
                let per_chunk = (MEASURE_WINDOW.as_nanos() / MIN_CHUNKS as u128 / once.as_nanos())
                    .clamp(1, 10_000_000) as u64;
                self.result = Some(measure_chunks(per_chunk, || {
                    let t = Instant::now();
                    for _ in 0..per_chunk {
                        black_box(routine());
                    }
                    t.elapsed()
                }));
            }
        }
    }

    /// Time `routine` over inputs produced by `setup` (setup excluded
    /// from timing as far as this simplified harness can).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        match self.mode {
            Mode::Smoke => {
                black_box(routine(setup()));
            }
            Mode::Measure => {
                let input = setup();
                let t0 = Instant::now();
                black_box(routine(input));
                let once = t0.elapsed().max(Duration::from_nanos(1));
                let per_chunk = (MEASURE_WINDOW.as_nanos() / MIN_CHUNKS as u128 / once.as_nanos())
                    .clamp(1, 1_000_000) as u64;
                self.result = Some(measure_chunks(per_chunk, || {
                    let inputs: Vec<I> = (0..per_chunk).map(|_| setup()).collect();
                    let t = Instant::now();
                    for input in inputs {
                        black_box(routine(input));
                    }
                    t.elapsed()
                }));
            }
        }
    }
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    mode: Mode,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mode = if args.iter().any(|a| a == "--test") {
            Mode::Smoke
        } else {
            Mode::Measure
        };
        // First free-standing arg (not a flag) filters benchmark names,
        // like criterion's substring filter.
        let filter = args.into_iter().find(|a| !a.starts_with('-'));
        Criterion { mode, filter }
    }
}

impl Criterion {
    /// Run (or smoke-run) one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        run_one(self.mode, &self.filter, id.as_ref(), None, f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.as_ref().to_string(),
            throughput: None,
        }
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness sizes its own windows.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Annotate subsequent benchmarks with a throughput figure.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run (or smoke-run) one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.as_ref());
        run_one(
            self.criterion.mode,
            &self.criterion.filter,
            &full,
            self.throughput,
            f,
        );
        self
    }

    /// End the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    mode: Mode,
    filter: &Option<String>,
    name: &str,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if let Some(filter) = filter {
        if !name.contains(filter.as_str()) {
            return;
        }
    }
    let mut b = Bencher { mode, result: None };
    f(&mut b);
    match (mode, b.result) {
        (Mode::Smoke, _) => println!("{name}: ok (smoke)"),
        (Mode::Measure, Some(mut samples)) => {
            samples.sort_by(f64::total_cmp);
            let ns = quantile(&samples, 0.5);
            let spread = format!(
                "q1 {:.1}, q3 {:.1} over {} chunks",
                quantile(&samples, 0.25),
                quantile(&samples, 0.75),
                samples.len()
            );
            match throughput {
                Some(Throughput::Bytes(bytes)) => {
                    let mbps = bytes as f64 / (ns / 1e9) / 1e6;
                    println!("{name}: median {ns:.1} ns/iter ({spread}; {mbps:.1} MB/s)");
                }
                Some(Throughput::Elements(elems)) => {
                    let eps = elems as f64 / (ns / 1e9);
                    println!("{name}: median {ns:.1} ns/iter ({spread}; {eps:.0} elem/s)");
                }
                None => println!("{name}: median {ns:.1} ns/iter ({spread})"),
            }
        }
        (Mode::Measure, None) => println!("{name}: no measurement recorded"),
    }
}

/// Bundle benchmark functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` for a set of benchmark groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_smoke_runs_once() {
        let mut calls = 0u32;
        let mut b = Bencher {
            mode: Mode::Smoke,
            result: None,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.result.is_none());
    }

    #[test]
    fn bencher_measure_records() {
        let mut b = Bencher {
            mode: Mode::Measure,
            result: None,
        };
        b.iter(|| black_box(3u64.wrapping_mul(5)));
        let samples = b.result.expect("measured");
        assert!(samples.len() >= MIN_CHUNKS);
        assert!(samples.iter().all(|ns| ns.is_finite() && *ns >= 0.0));
    }

    /// Chunks keep coming until both the window and the chunk floor are
    /// met, however long each one takes.
    #[test]
    fn measurement_fills_window_and_chunk_floor() {
        let quick = measure_chunks(4, || Duration::from_millis(1));
        assert_eq!(quick.len(), 200);
        assert!(quick.iter().all(|&ns| ns == 250_000.0));
        let slow = measure_chunks(1, || MEASURE_WINDOW);
        assert_eq!(slow.len(), MIN_CHUNKS);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 5.5);
        assert_eq!(quantile(&sorted, 0.25), 3.25);
        assert_eq!(quantile(&sorted, 0.75), 7.75);
        assert_eq!(quantile(&[4.0], 0.25), 4.0);
    }

    #[test]
    fn iter_batched_smoke_consumes_setup() {
        let mut b = Bencher {
            mode: Mode::Smoke,
            result: None,
        };
        b.iter_batched(|| vec![1, 2, 3], |v| v.len(), BatchSize::SmallInput);
        assert!(b.result.is_none());
    }
}
