//! Criterion benches for the ML substrate: training and inference cost
//! of each classifier on the shared blobs task.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use easeml_ml::models::{Classifier, LogisticRegression, Mlp, MlpConfig, NaiveBayes};
use easeml_ml::synth::{blobs, BlobsConfig};
use easeml_ml::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn data() -> Dataset {
    let mut rng = StdRng::seed_from_u64(3);
    blobs(2_000, &BlobsConfig::default(), &mut rng).unwrap()
}

fn bench_training(c: &mut Criterion) {
    let train = data();
    let mut group = c.benchmark_group("model_fit_2000x8");
    group.sample_size(10);
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("naive_bayes", |b| {
        b.iter_batched(
            NaiveBayes::default,
            |mut m| {
                m.fit(black_box(&train)).unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("logistic_regression", |b| {
        b.iter_batched(
            LogisticRegression::default,
            |mut m| {
                m.fit(black_box(&train)).unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("mlp_h32", |b| {
        b.iter_batched(
            || {
                Mlp::new(MlpConfig {
                    epochs: 10,
                    ..Default::default()
                })
            },
            |mut m| {
                m.fit(black_box(&train)).unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let train = data();
    let mut lr = LogisticRegression::default();
    lr.fit(&train).unwrap();
    let mut mlp = Mlp::new(MlpConfig {
        epochs: 10,
        ..Default::default()
    });
    mlp.fit(&train).unwrap();
    let mut group = c.benchmark_group("model_predict_2000x8");
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("logistic_regression", |b| {
        b.iter(|| lr.predict_dataset(black_box(&train)).unwrap());
    });
    group.bench_function("mlp_h32", |b| {
        b.iter(|| mlp.predict_dataset(black_box(&train)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_inference);
criterion_main!(benches);
