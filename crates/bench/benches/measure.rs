//! Criterion benches for the serving layer's predictions measurement:
//! one `MeasuredTestset::measure` pass over 5,120-item vectors (the
//! benchmark workload's geometry) for a lazy `n - o` pool, a fully
//! labelled 4-class `f1` pool and a fully labelled 70-class pool.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use easeml_ci_core::dsl::parse_formula;
use easeml_serve::{MeasuredTestset, TestsetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const ITEMS: usize = 5_120;

/// Truth plus an old model right on ~80% of items and a new model that
/// differs from the old one on ~10%.
fn vectors(classes: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(5);
    let truth: Vec<u32> = (0..ITEMS).map(|_| rng.random_range(0..classes)).collect();
    let old: Vec<u32> = truth
        .iter()
        .map(|&t| {
            if rng.random::<f64>() < 0.8 {
                t
            } else {
                (t + 1) % classes
            }
        })
        .collect();
    let new: Vec<u32> = old
        .iter()
        .map(|&o| {
            if rng.random::<f64>() < 0.1 {
                rng.random_range(0..classes)
            } else {
                o
            }
        })
        .collect();
    (truth, old, new)
}

fn bench_measure(c: &mut Criterion) {
    let mut group = c.benchmark_group("measure");
    group.throughput(Throughput::Elements(ITEMS as u64));
    for (name, condition, classes, lazy) in [
        ("lazy n-o", "n - o > 0.0 +/- 0.05", 4, true),
        ("full f1", "f1(n) - f1(o) > -0.02 +/- 0.05", 4, false),
        (
            "full f1, 70 classes",
            "f1(n) - f1(o) > -0.02 +/- 0.05",
            70,
            false,
        ),
    ] {
        let formula = parse_formula(condition).unwrap();
        let (truth, old, new) = vectors(classes);
        let mut testset = MeasuredTestset::from_spec(TestsetSpec {
            truth,
            classes,
            lazy,
        })
        .unwrap();
        // The first commit pulls the disagreements' labels; the timed
        // passes see the partly filled pool a served project keeps.
        testset.measure(&formula, &old, &new).unwrap();
        group.bench_function(format!("measure[{name}]"), |b| {
            b.iter(|| black_box(testset.measure(&formula, &old, &new).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_measure);
criterion_main!(benches);
