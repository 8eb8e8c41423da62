//! The centerpiece invariant of the predictions gate: submitting
//! prediction vectors to `/commits/predictions` and submitting the
//! server-derived `EvalCounts` to `/commits` yield byte-identical
//! receipts and identical budget/history state — for random testsets,
//! random prediction vectors, either labeling mode, and every condition
//! shape the measurement layer distinguishes (`d`-only, cancelling
//! `n − o`, bare `n`, and the non-binomial `f1`/`topk` metrics, whose
//! counts twin must carry the server-derived per-class confusion
//! shape). One server instance (on the process-wide pool, so the CI
//! `EASEML_THREADS` matrix exercises widths 1 and 4) serves every
//! case; each case registers a fresh pair of projects.
//!
//! A second proptest pins the served gate against the in-process
//! `CiEngine`: both record through the core `Gate`, and across random
//! scripts, adaptivity policies, modes and budgets they agree on every
//! receipt, refusal and redelivery.

use easeml_ci_core::{
    CiEngine, CiError, CiScript, EngineError, EstimatorConfig, EstimatorStrategy, ModelCommit,
    SampleSizeEstimator, Testset, Tribool,
};
use easeml_serve::json::{encode_u32_vec, Value};
use easeml_serve::registry::{
    serving_estimator, MeasuredTestset, PredictionsSubmission, Project, TestsetSpec,
};
use easeml_serve::server::{ServeConfig, Server, ServerHandle};
use easeml_serve::{Client, ServeError};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static SERVER: OnceLock<(String, ServerHandle)> = OnceLock::new();
static CASE: AtomicU64 = AtomicU64::new(0);

fn server_addr() -> String {
    let (addr, _) = SERVER.get_or_init(|| {
        let dir = std::env::temp_dir()
            .join("easeml-serve-equivalence")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServeConfig::new("127.0.0.1:0", dir)).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::spawn(move || server.run().expect("server run"));
        (addr, handle)
    });
    addr.clone()
}

fn script_for(condition: &str, steps: u32) -> String {
    format!(
        "ml:\n\
         \x20 - script     : ./test_model.py\n\
         \x20 - condition  : {condition}\n\
         \x20 - reliability: 0.99\n\
         \x20 - mode       : fp-free\n\
         \x20 - adaptivity : full\n\
         \x20 - steps      : {steps}\n",
    )
}

/// The condition shapes with distinct `LabelDemand`s, plus the
/// non-binomial metric conditions (McDiarmid-backed, full label
/// demand, per-class confusion counts on the wire).
const CONDITIONS: [&str; 6] = [
    "d < 0.5 +/- 0.1",
    "n - o > 0.0 +/- 0.2",
    "n > 0.5 +/- 0.2",
    "n - o > 0.0 +/- 0.2 /\\ d < 0.5 +/- 0.1",
    "f1(n) - f1(o) > -0.5 +/- 0.2",
    "topk(n, 2) > 0.2 +/- 0.2",
];

/// Drop the predictions route's extra `measurement` section so the
/// receipt part compares byte-for-byte against the counts route.
fn strip_measurement(v: &Value) -> Value {
    let Value::Object(fields) = v.clone() else {
        panic!("response is not an object: {v}")
    };
    Value::Object(
        fields
            .into_iter()
            .filter(|(k, _)| k != "measurement")
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predictions_and_derived_counts_are_equivalent(
        condition_idx in 0usize..CONDITIONS.len(),
        lazy_bit in 0u32..2,
        truth in prop::collection::vec(0u32..4, 12..60),
        commit_seeds in prop::collection::vec((0u32..4, 0u32..4, 0u32..8), 1..4),
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let lazy = lazy_bit == 1;
        let condition = CONDITIONS[condition_idx];
        let script = script_for(condition, 8);
        let size = truth.len();
        let mut client = Client::new(server_addr());

        // Twin registrations: one measures server-side, one trusts counts.
        let pred_name = format!("eq-pred-{case}");
        let counts_name = format!("eq-counts-{case}");
        let register = |client: &mut Client, name: &str, with_testset: bool| {
            let mut fields = vec![
                ("name", Value::from(name)),
                ("script", Value::from(script.as_str())),
            ];
            if with_testset {
                fields.push((
                    "testset",
                    Value::object([
                        ("labels", Value::from(encode_u32_vec(&truth))),
                        ("labeling", Value::from(if lazy { "lazy" } else { "full" })),
                        ("classes", Value::from(4u64)),
                    ]),
                ));
            }
            let (status, body) = client
                .request("POST", "/projects", Some(&Value::object(fields)))
                .expect("register");
            assert_eq!(status, 201, "{body}");
        };
        register(&mut client, &pred_name, true);
        register(&mut client, &counts_name, false);

        // Deterministic pseudo-random prediction vectors per commit.
        for (i, (old_salt, new_salt, flip)) in commit_seeds.iter().enumerate() {
            let vector = |salt: u32| -> Vec<u32> {
                (0..size)
                    .map(|j| {
                        let roll = easeml_par::splitmix64(u64::from(salt) + case, j as u64);
                        if roll % 8 < u64::from(*flip) {
                            (roll % 4) as u32
                        } else {
                            truth[j]
                        }
                    })
                    .collect()
            };
            let old = vector(*old_salt);
            let new = vector(*new_salt + 16);
            let commit_id = format!("c{i}");
            let (status, pred_response) = client
                .request(
                    "POST",
                    &format!("/projects/{pred_name}/commits/predictions"),
                    Some(&Value::object([
                        ("commit_id", Value::from(commit_id.as_str())),
                        ("old", Value::from(encode_u32_vec(&old))),
                        ("new", Value::from(encode_u32_vec(&new))),
                    ])),
                )
                .expect("predictions submit");
            prop_assert_eq!(status, 200, "{}", pred_response);
            let m = pred_response.get("measurement").expect("measurement");
            let field = |key: &str| m.get(key).and_then(Value::as_u64).expect("count field");

            let mut counts_fields = vec![
                ("commit_id", Value::from(commit_id.as_str())),
                ("samples", Value::from(field("samples"))),
                ("new_correct", Value::from(field("new_correct"))),
                ("old_correct", Value::from(field("old_correct"))),
                ("changed", Value::from(field("changed"))),
                ("labels", Value::from(field("labels_spent"))),
            ];
            // Metric conditions publish the per-class confusion shape in
            // the measurement; the counts twin echoes it back verbatim
            // (the request schema mirrors the response schema exactly).
            if let Some(pc) = m.get("per_class") {
                counts_fields.push(("per_class", pc.clone()));
            }
            let (status, counts_response) = client
                .request(
                    "POST",
                    &format!("/projects/{counts_name}/commits"),
                    Some(&Value::object(counts_fields)),
                )
                .expect("counts submit");
            prop_assert_eq!(status, 200, "{}", counts_response);
            prop_assert_eq!(
                counts_response.encode(),
                strip_measurement(&pred_response).encode(),
                "receipts diverged for condition `{}` commit {}",
                condition,
                i
            );
        }

        // Identical end state: budget and full history.
        let state = |client: &mut Client, name: &str, path: &str| -> Value {
            let (status, body) = client
                .request("GET", &format!("/projects/{name}/{path}"), None)
                .expect("read");
            assert_eq!(status, 200);
            // The project name appears in the payload; normalize it out.
            let Value::Object(fields) = body else {
                panic!("not an object")
            };
            Value::Object(fields.into_iter().filter(|(k, _)| k != "project").collect())
        };
        let budget_pred = state(&mut client, &pred_name, "budget");
        let budget_counts = state(&mut client, &counts_name, "budget");
        prop_assert_eq!(budget_pred.encode(), budget_counts.encode());
        let history_pred = state(&mut client, &pred_name, "history");
        let history_counts = state(&mut client, &counts_name, "history");
        prop_assert_eq!(history_pred.encode(), history_counts.encode());
    }
}

/// Satellite pin: on a schedule containing both passes and fails, the
/// partial-labeling (lazy) mode spends strictly fewer labels than a
/// fully-labelled testset of the same size holds — §4.1.2's entire point
/// — and the per-receipt `labels` fields sum to exactly the pool's
/// final labelled count.
#[test]
fn partial_labeling_spends_strictly_fewer_labels_than_full() {
    let mut client = Client::new(server_addr());
    const SIZE: usize = 400;
    let truth = vec![0u32; SIZE];
    let script = script_for("n - o > 0.0 +/- 0.1", 8);
    let (status, _) = client
        .request(
            "POST",
            "/projects",
            Some(&Value::object([
                ("name", Value::from("label-spend")),
                ("script", Value::from(script.as_str())),
                (
                    "testset",
                    Value::object([
                        ("labels", Value::from(encode_u32_vec(&truth))),
                        ("labeling", Value::from("lazy")),
                        ("classes", Value::from(2u64)),
                    ]),
                ),
            ])),
        )
        .expect("register");
    assert_eq!(status, 201);

    // Full pass/fail schedule: clear pass, clear fail, marginal unknown.
    let preds =
        |correct: usize| -> Vec<u32> { (0..SIZE).map(|i| u32::from(i >= correct)).collect() };
    let schedule = [
        ("pass", preds(SIZE / 2), preds(SIZE)), // n − o = 0.5: pass
        ("fail", preds(SIZE / 2), preds(SIZE / 4)), // n − o = −0.25: fail
        ("edge", preds(SIZE / 2), preds(SIZE / 2 + SIZE / 50)), // straddles
    ];
    let mut labels_total = 0u64;
    let mut passes = 0u32;
    let mut fails = 0u32;
    for (id, old, new) in &schedule {
        let (status, response) = client
            .request(
                "POST",
                "/projects/label-spend/commits/predictions",
                Some(&Value::object([
                    ("commit_id", Value::from(*id)),
                    ("old", Value::from(encode_u32_vec(old))),
                    ("new", Value::from(encode_u32_vec(new))),
                ])),
            )
            .expect("submit");
        assert_eq!(status, 200, "{response}");
        labels_total += response.get("labels").and_then(Value::as_u64).unwrap();
        if response.get("passed").and_then(Value::as_bool) == Some(true) {
            passes += 1;
        } else {
            fails += 1;
        }
    }
    assert!(passes >= 1 && fails >= 1, "schedule must pass AND fail");

    let (_, status_body) = client
        .request("GET", "/projects/label-spend", None)
        .expect("status");
    let labeled = status_body
        .get("testset")
        .and_then(|t| t.get("labeled"))
        .and_then(Value::as_u64)
        .expect("labeled count");
    assert_eq!(
        labels_total, labeled,
        "per-receipt label spend must sum to the pool's labelled count"
    );
    assert!(
        labeled < SIZE as u64,
        "partial labeling must spend strictly fewer labels ({labeled}) than the \
         full-labeling cost ({SIZE})"
    );
    assert_eq!(
        status_body
            .get("labels_total")
            .and_then(Value::as_u64)
            .unwrap(),
        labels_total,
        "history accounting agrees with the receipts"
    );
}

/// The statistic a generated clause bounds, with its threshold and
/// tolerance in hundredths.
#[derive(Debug, Clone, Copy)]
struct ClauseEdge {
    var: usize,
    threshold: i64,
    tolerance: i64,
}

/// One random clause over `n`, `o`, `d` or `n - o`. Thresholds and
/// tolerances sit on a 0.05 grid, and half the pools below have sizes
/// that are multiples of 20, so the [`on_edge`] commits put measured
/// statistics exactly on interval edges. The engine and the server form
/// their estimates with the same arithmetic, so they must agree there
/// too.
fn gate_clause() -> impl Strategy<Value = (String, ClauseEdge)> {
    (0usize..4, 0u32..2, 0i64..=16, 2i64..=4).prop_map(|(var, gt, grid, tol)| {
        let (name, threshold) = match var {
            0 => ("n", 10 + 5 * grid),
            1 => ("o", 10 + 5 * grid),
            2 => ("d", 10 + 5 * grid),
            _ => ("n - o", 5 * grid - 40),
        };
        let text = format!(
            "{name} {} {:.2} +/- {:.2}",
            if gt == 1 { ">" } else { "<" },
            threshold as f64 / 100.0,
            (5 * tol) as f64 / 100.0
        );
        let edge = ClauseEdge {
            var,
            threshold,
            tolerance: 5 * tol,
        };
        (text, edge)
    })
}

/// A new-model vector that puts the clause's statistic (n̂, d̂ or n̂ − ô
/// against the deployed `old` model) on `threshold + side · tolerance`,
/// exactly when the pool size is a multiple of 20 and to the nearest
/// item otherwise. `None` for `o` clauses, which the new model cannot
/// move, and for targets outside the pool.
fn on_edge(truth: &[u32], old: &[u32], edge: ClauseEdge, side: i64) -> Option<Vec<u32>> {
    let size = truth.len() as i64;
    let target = (size * (edge.threshold + side * edge.tolerance) + 50).div_euclid(100);
    let wrong = |t: u32| (t + 1) % 3;
    let count = match edge.var {
        0 | 2 => target,
        3 => target + truth.iter().zip(old).filter(|(t, o)| t == o).count() as i64,
        _ => return None,
    };
    let count = usize::try_from(count).ok().filter(|&c| c <= truth.len())?;
    Some(if edge.var == 2 {
        // Disagree with the old model on exactly `count` items.
        old.iter()
            .enumerate()
            .map(|(j, &o)| if j < count { wrong(o) } else { o })
            .collect()
    } else {
        // Right on exactly `count` items.
        truth
            .iter()
            .enumerate()
            .map(|(j, &t)| if j < count { t } else { wrong(t) })
            .collect()
    })
}

/// A pseudo-random vector over 3 classes: `truth` with each item wrong
/// with probability `wrong_per_mille / 1000`.
fn noisy(truth: &[u32], seed: u64, wrong_per_mille: u64) -> Vec<u32> {
    truth
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            let roll = easeml_par::splitmix64(seed, j as u64);
            if roll % 1000 < wrong_per_mille {
                (t + 1 + (roll >> 32) as u32 % 2) % 3
            } else {
                t
            }
        })
        .collect()
}

/// The `Gone` text the server answers a refusal of the engine with.
fn gone_text(refusal: &EngineError) -> String {
    match refusal {
        EngineError::TestsetRetired => "testset era is retired; install a fresh testset".into(),
        EngineError::BudgetExhausted { steps } => {
            format!("step budget H = {steps} exhausted; install a fresh testset")
        }
        other => panic!("the engine refused with a non-gate error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn served_gate_matches_engine_across_policies_and_eras(
        clauses in prop::collection::vec(gate_clause(), 1..3),
        adaptivity in 0usize..3,
        mode in 0usize..2,
        steps in 1u32..=6,
        seed in 0u64..=u64::MAX,
    ) {
        let adaptivity = ["none", "full", "firstChange"][adaptivity];
        let mode = ["fp-free", "fn-free"][mode];
        let texts: Vec<&str> = clauses.iter().map(|(text, _)| text.as_str()).collect();
        let condition = texts.join(" /\\ ");
        let script_text = format!(
            "ml:\n\
             \x20 - condition  : {condition}\n\
             \x20 - reliability: 0.99\n\
             \x20 - mode       : {mode}\n\
             \x20 - adaptivity : {adaptivity}\n\
             \x20 - steps      : {steps}\n",
        );
        let script = CiScript::parse(&script_text).unwrap();
        // Baseline-only: the engine measures every clause over the whole
        // pool, as the server does.
        let estimator = SampleSizeEstimator::with_config(EstimatorConfig {
            strategy: EstimatorStrategy::BaselineOnly,
            ..EstimatorConfig::default()
        });
        let want = estimator.estimate(&script).unwrap().total_samples().max(64);
        let size = if seed % 2 == 0 { want.next_multiple_of(20) } else { want + seed % 20 };
        let size = size as usize;
        let truth: Vec<u32> = (0..size)
            .map(|j| (easeml_par::splitmix64(seed, j as u64) % 3) as u32)
            .collect();
        let spec = TestsetSpec { truth: truth.clone(), classes: 3, lazy: false };
        let testset = MeasuredTestset::from_spec(spec).unwrap();
        let mut engine = CiEngine::with_estimator(
            script,
            Testset::fully_labeled(truth.clone()),
            noisy(&truth, seed ^ 1, seed % 1000),
            &estimator,
        )
        .unwrap();
        let mut project = Project::register_with_testset(
            "gate-eq",
            &script_text,
            &serving_estimator(),
            Some(testset.clone()),
        )
        .unwrap();

        // Live receipts of the current era, for the redelivery check.
        let mut era_receipts = Vec::new();
        for i in 0..3 * u64::from(steps) + 2 {
            // One commit in three aims a clause's statistic at an end of
            // its interval; the rest are noisy.
            let roll = easeml_par::splitmix64(seed ^ 2, i);
            let (_, edge) = clauses[(roll >> 8) as usize % clauses.len()];
            let side = if roll & 16 == 0 { 1 } else { -1 };
            let new = roll.is_multiple_of(3)
                .then(|| on_edge(&truth, engine.old_predictions(), edge, side))
                .flatten()
                .unwrap_or_else(|| noisy(&truth, seed.wrapping_add(i + 3), roll % 1001));
            let submission = PredictionsSubmission {
                commit_id: format!("c{i}"),
                old: engine.old_predictions().to_vec(),
                new: new.clone(),
            };
            let live = engine.submit(&ModelCommit::new(submission.commit_id.clone(), new));
            match (live, project.submit_predictions(&submission)) {
                (Ok(e), Ok((s, counts))) => {
                    prop_assert_eq!(
                        (e.step, e.era, e.signal, e.accepted, e.outcome, e.passed, e.alarm),
                        (s.step, s.era, s.signal, s.accepted, s.outcome, s.passed, s.alarm),
                        "`{}` commit {}", condition, i
                    );
                    era_receipts.push((submission, s, counts));
                }
                (Err(CiError::Engine(refusal)), Err(ServeError::Gone(text))) => {
                    prop_assert_eq!(text, gone_text(&refusal));
                    let old = engine.old_predictions().to_vec();
                    engine.install_testset(Testset::fully_labeled(truth.clone()), old).unwrap();
                    project.fresh_testset(Some(testset.clone())).unwrap();
                    era_receipts.clear();
                }
                (e, s) => prop_assert!(false, "engine {:?} vs served {:?}", e, s),
            }
            for (submission, receipt, counts) in &era_receipts {
                prop_assert_eq!(
                    project.duplicate_predictions_receipt(submission),
                    Some((receipt.clone(), counts.clone())),
                    "redelivery of {}", submission.commit_id
                );
            }
        }
        prop_assert_eq!(engine.era(), project.era());
        prop_assert_eq!(engine.steps_used(), project.steps_used());
        prop_assert_eq!(engine.history().len(), project.history().len());
    }
}

/// A statistic exactly on an interval edge: n̂ = 0.4 and ô = 0.1 under
/// `n - o > 0.2 +/- 0.1` put the interval's lower end at the threshold
/// up to rounding. `0.4 - 0.1` rounds to 0.30000000000000004, just
/// clear of the edge; a route that divided the count difference instead
/// (3/10 = 0.3) would read Unknown. The engine and the served gate must
/// decide alike.
#[test]
fn engine_and_server_agree_on_an_exact_interval_edge() {
    let script_text = script_for("n - o > 0.2 +/- 0.1", 1);
    let script = CiScript::parse(&script_text).unwrap();
    let baseline = SampleSizeEstimator::with_config(EstimatorConfig {
        strategy: EstimatorStrategy::BaselineOnly,
        ..EstimatorConfig::default()
    });
    let want = [&baseline, &serving_estimator()]
        .map(|e| e.estimate(&script).unwrap().total_samples())
        .into_iter()
        .max()
        .unwrap();
    let size = want.next_multiple_of(10) as usize;
    let truth = vec![0u32; size];
    // The old model is right on the first tenth, the new one on the
    // first four tenths.
    let old: Vec<u32> = (0..size).map(|i| u32::from(i >= size / 10)).collect();
    let new: Vec<u32> = (0..size).map(|i| u32::from(i >= 4 * size / 10)).collect();
    let mut engine = CiEngine::with_estimator(
        script,
        Testset::fully_labeled(truth.clone()),
        old.clone(),
        &baseline,
    )
    .unwrap();
    let spec = TestsetSpec {
        truth,
        classes: 2,
        lazy: false,
    };
    let mut project = Project::register_with_testset(
        "edge",
        &script_text,
        &serving_estimator(),
        Some(MeasuredTestset::from_spec(spec).unwrap()),
    )
    .unwrap();
    let engine_receipt = engine
        .submit(&ModelCommit::new("edge", new.clone()))
        .unwrap();
    let (served, counts) = project
        .submit_predictions(&PredictionsSubmission {
            commit_id: "edge".into(),
            old,
            new,
        })
        .unwrap();
    assert_eq!(
        (counts.samples, counts.new_correct, counts.old_correct),
        (size as u64, 4 * size as u64 / 10, size as u64 / 10)
    );
    assert_eq!(served.outcome, Tribool::True);
    assert_eq!(engine_receipt.outcome, served.outcome);
    assert_eq!(engine_receipt.passed, served.passed);
}
