//! Response checks. What a correct response says is worked out from the
//! inputs before the timed phase, so each response is checked as soon as
//! it arrives and no response body outlives its check (unless the traced
//! run keeps it for its replay).

use crate::inputs::{Inputs, Op, CLASSES};
use easeml_serve::json::Value;

/// What a correct response to one operation says.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// The receipt's `labels`; registrations take theirs from the reply.
    labels: u64,
    /// Predictions receipts: `measurement` fields.
    measurement: Vec<(&'static str, u64)>,
    /// F1 projects: `measurement.per_class` arrays.
    per_class: Vec<(&'static str, Vec<u64>)>,
}

/// Per connection, per operation in send order, what a correct response
/// says. A project's commits all travel on one connection, in order, so
/// walking the connections in turn replays each lazy pool's labelling.
pub fn expectations(inputs: &Inputs) -> Vec<Vec<Expected>> {
    let mut labeled: Vec<Vec<bool>> = inputs
        .projects
        .iter()
        .map(|p| match &p.testset {
            Some(t) => vec![!t.lazy; t.len],
            None => Vec::new(),
        })
        .collect();
    inputs
        .conns
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| match op {
                    Op::Register { .. } => Expected::default(),
                    Op::Counts { project, value, .. } => Expected {
                        labels: inputs.counts(*project, *value)[4],
                        ..Expected::default()
                    },
                    Op::Predictions { project, commit } => {
                        recount(inputs, *project, *commit, &mut labeled[*project])
                    }
                })
                .collect()
        })
        .collect()
}

/// Recount a predictions commit's measurement from the generated vectors
/// and their truth, given the items of the pool already labelled.
fn recount(inputs: &Inputs, project: usize, commit: usize, labeled: &mut [bool]) -> Expected {
    let testset = inputs.projects[project]
        .testset
        .as_ref()
        .expect("predictions project");
    let truth = testset.truth();
    let old = testset.predictions(commit, false);
    let new = testset.predictions(commit, true);
    let mut spent = 0u64;
    let (mut new_correct, mut old_correct, mut changed) = (0u64, 0u64, 0u64);
    for i in 0..truth.len() {
        new_correct += u64::from(new[i] == truth[i]);
        old_correct += u64::from(old[i] == truth[i]);
        if old[i] != new[i] {
            changed += 1;
            if !labeled[i] {
                labeled[i] = true;
                spent += 1;
            }
        }
    }
    let labeled_total = labeled.iter().filter(|&&l| l).count() as u64;
    let per_class = if testset.lazy {
        Vec::new()
    } else {
        let count = |f: &dyn Fn(usize, usize) -> bool| -> Vec<u64> {
            (0..CLASSES as usize)
                .map(|c| (0..truth.len()).filter(|&i| f(i, c)).count() as u64)
                .collect()
        };
        vec![
            ("support", count(&|i, c| truth[i] as usize == c)),
            (
                "new_tp",
                count(&|i, c| truth[i] as usize == c && new[i] == truth[i]),
            ),
            (
                "old_tp",
                count(&|i, c| truth[i] as usize == c && old[i] == truth[i]),
            ),
            ("new_pred", count(&|i, c| new[i] as usize == c)),
            ("old_pred", count(&|i, c| old[i] as usize == c)),
        ]
    };
    Expected {
        labels: spent,
        measurement: vec![
            ("samples", truth.len() as u64),
            ("new_correct", new_correct),
            ("old_correct", old_correct),
            ("changed", changed),
            ("labels_spent", spent),
            ("labeled_total", labeled_total),
        ],
        per_class,
    }
}

pub fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 response".to_owned())?;
    Value::parse(text).map_err(|e| format!("bad JSON response: {e}"))
}

fn field<'a>(value: &'a Value, path: &[&str]) -> Result<&'a Value, String> {
    path.iter().try_fold(value, |v, key| {
        v.get(key)
            .ok_or_else(|| format!("response lacks `{}`", path.join(".")))
    })
}

pub fn field_u64(value: &Value, path: &[&str]) -> Result<u64, String> {
    field(value, path)?
        .as_u64()
        .ok_or_else(|| format!("`{}` is not an integer", path.join(".")))
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: server says {got}, recount says {want}"))
    }
}

/// Check one response against what the benchmark knows; returns the
/// labels the operation asked of a human.
pub fn verify(
    inputs: &Inputs,
    op: &Op,
    expected: &Expected,
    status: u16,
    body: &[u8],
) -> Result<u64, String> {
    let want_status = if matches!(op, Op::Register { .. }) {
        201
    } else {
        200
    };
    if status != want_status {
        return Err(format!(
            "status {status} (want {want_status}): {}",
            String::from_utf8_lossy(body)
        ));
    }
    let reply = parse(body)?;
    let (project, commit) = match op {
        Op::Register { name, .. } => {
            if field(&reply, &["project"])?.as_str() != Some(name.as_str()) {
                return Err(format!("registration echoes another name: {reply}"));
            }
            field_u64(&reply, &["estimate", "total"])?;
            return field_u64(&reply, &["estimate", "labeled"]);
        }
        Op::Counts {
            project, commit, ..
        }
        | Op::Predictions { project, commit } => (*project, *commit),
    };
    let id = inputs.commit_id(project, commit);
    if field(&reply, &["commit_id"])?.as_str() != Some(id.as_str()) {
        return Err(format!("receipt for another commit: {reply}"));
    }
    expect_eq("step", field_u64(&reply, &["step"])?, commit as u64 + 1)?;
    if field(&reply, &["alarm"])? != &Value::Null {
        return Err(format!("commit raised an alarm: {reply}"));
    }
    if field(&reply, &["budget", "retired"])?.as_bool() != Some(false) {
        return Err(format!("budget retired mid-run: {reply}"));
    }
    for (key, want) in &expected.measurement {
        expect_eq(key, field_u64(&reply, &["measurement", key])?, *want)?;
    }
    for (key, want) in &expected.per_class {
        let got: Vec<u64> = field(&reply, &["measurement", "per_class", key])?
            .as_array()
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        if &got != want {
            return Err(format!("per_class.{key}: server {got:?}, recount {want:?}"));
        }
    }
    expect_eq("labels", field_u64(&reply, &["labels"])?, expected.labels)?;
    Ok(expected.labels)
}
