//! Seeded workload inputs.
//!
//! Seed discipline: the seed decides the *order* of operations, the
//! project and commit *names*, and the *positions* of prediction flips.
//! It never decides what is in the mix — which scripts, how many of them
//! repeat, which counts a commit carries, how many flips a commit has —
//! so label spend and the bytes the store writes repeat exactly across
//! seeds, and only timing varies.

use easeml_ci_core::CiScript;
use easeml_par::splitmix64;
use easeml_serve::json::encode_u32_vec;
use easeml_serve::registry::serving_estimator;

/// Classes of every predictions testset.
pub const CLASSES: u32 = 4;

/// Items of each class flipped to a wrong prediction, per model, per
/// commit.
const FLIPS_PER_CLASS: usize = 40;

/// Step budget of the commit workloads' projects, plus the project's
/// index: larger than any run's commits per project, so no timed commit
/// meets a spent budget, and different for every project, so each set-up
/// registration is a fresh plan search rather than a cache hit.
const COMMIT_STEPS: u32 = 65_536;

/// Every `REUSE_EVERY`-th registration re-uses an earlier script under a
/// new name (a plan-cache hit on the server).
const REUSE_EVERY: usize = 8;

/// Rounds a run is cut into. Each round starts its own server on its own
/// fresh disk, sets up, drives its share of the workload, stops, and
/// reboots: every round is the same work from the same starting state —
/// its own projects, or the same registrations under new names against
/// empty estimation caches — so every figure is sampled across the whole
/// run rather than in one stretch of it.
pub const ROUNDS: usize = 24;

/// Projects each round of a commit workload commits to, round-robin.
const PROJECTS_PER_ROUND: usize = 20;

/// Commits to each project at the least, so that even a tiny run covers
/// every lazy pool.
const MIN_COMMITS: usize = 32;

/// Projects every round registers during set-up: the commit workloads'
/// targets, or the registrations `register` finds in place.
const SETUP_PER_ROUND: usize = PROJECTS_PER_ROUND;

/// Projects a run registers during set-up, over all rounds.
const SETUP_PROJECTS: usize = ROUNDS * SETUP_PER_ROUND;

/// The four condition families of the registration mix; `{e}` is the
/// tolerance ε.
const FAMILIES: [&str; 4] = [
    "n > 0.8 +/- {e}",
    "n - o > 0.02 +/- {e}",
    "n - o > -0.02 +/- {e} /\\ d < 0.1 +/- {e}",
    "d < 0.1 +/- {e}",
];
const EPSILONS: [&str; 9] = [
    "0.01", "0.015", "0.02", "0.025", "0.03", "0.035", "0.04", "0.045", "0.05",
];
const RELIABILITIES: [&str; 3] = ["0.99", "0.999", "0.9999"];
const ADAPTIVITIES: [&str; 3] = ["none", "full", "firstChange"];
const MODES: [&str; 2] = ["fp-free", "fn-free"];
const MAX_STEPS: u64 = 64;
/// Size of the stratified grid: families × ε × reliability × adaptivity
/// × mode × steps.
const GRID: u64 = 4 * 9 * 3 * 3 * 2 * MAX_STEPS;
/// A prime coprime to [`GRID`]: walking the grid with this stride spreads
/// any prefix of it evenly over every stratum.
const GRID_STRIDE: u64 = 7_919;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct counts-mode registrations over one connection.
    Register,
    /// Counts-mode commits over a few projects, two connections.
    CommitCounts,
    /// Prediction-vector commits over a few projects, two connections.
    CommitPredictions,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Register,
        Workload::CommitCounts,
        Workload::CommitPredictions,
    ];

    /// The workload named on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Register => "register",
            Workload::CommitCounts => "commit-counts",
            Workload::CommitPredictions => "commit-predictions",
        }
    }

    /// Keep-alive connections the closed loop drives.
    pub fn connections(self) -> usize {
        match self {
            Workload::Register => 1,
            Workload::CommitCounts | Workload::CommitPredictions => 2,
        }
    }

    /// The server's route label for this workload's operation.
    pub fn route(self) -> &'static str {
        match self {
            Workload::Register => "register",
            Workload::CommitCounts => "commit",
            Workload::CommitPredictions => "commit_predictions",
        }
    }

    /// Operations per second of `--seconds`. The work of a run is fixed
    /// by `--seconds` alone, never by a clock, so two runs of the same
    /// seed do the same work however fast the host is.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::Register => 4_000,
            Workload::CommitCounts => 24_000,
            Workload::CommitPredictions => 3_000,
        }
    }

    /// Operations timed by one run of `seconds`.
    pub fn ops(self, seconds: u64) -> usize {
        let ops = self.ops_per_second() * seconds as usize;
        match self {
            Workload::Register => ops.div_ceil(ROUNDS) * ROUNDS,
            // The same number of commits to every project.
            Workload::CommitCounts | Workload::CommitPredictions => {
                let unit = ROUNDS * PROJECTS_PER_ROUND;
                ops.div_ceil(unit).max(MIN_COMMITS) * unit
            }
        }
    }
}

/// The `i`-th draw of an independent stream of the seed.
fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed, stream), i)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    for i in (1..items.len()).rev() {
        let j = (draw(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A fixed-width seeded tag, so names differ by seed but never in length.
fn tag(seed: u64, stream: u64, i: u64) -> String {
    format!("{:08x}", draw(seed, stream, i) as u32)
}

/// A CI script in the repository's YAML form.
pub fn script(
    condition: &str,
    reliability: &str,
    mode: &str,
    adaptivity: &str,
    steps: u32,
) -> String {
    format!(
        "ml:\n\
         \x20 - script     : ./test_model.py\n\
         \x20 - condition  : {condition}\n\
         \x20 - reliability: {reliability}\n\
         \x20 - mode       : {mode}\n\
         \x20 - adaptivity : {adaptivity}\n\
         \x20 - steps      : {steps}\n"
    )
}

/// The `j`-th script of the stratified registration grid (distinct for
/// distinct `j < GRID`).
fn grid_script(j: u64) -> String {
    let g = (j * GRID_STRIDE) % GRID;
    let eps = EPSILONS[((g / 4) % 9) as usize];
    script(
        &FAMILIES[(g % 4) as usize].replace("{e}", eps),
        RELIABILITIES[((g / 36) % 3) as usize],
        MODES[((g / 324) % 2) as usize],
        ADAPTIVITIES[((g / 108) % 3) as usize],
        (1 + g / 648) as u32,
    )
}

/// The registration mix of `n` operations: the one block of scripts
/// every round registers, in canonical, seed-free order. It holds fresh
/// grid scripts, and one in [`REUSE_EVERY`] of its registrations re-uses
/// one of them (every round starts from empty caches, so every round
/// meets the same cold and warm searches).
pub fn register_mix(n: usize) -> Vec<String> {
    let block = n / ROUNDS;
    let reused = block / REUSE_EVERY;
    let distinct = block - reused;
    assert!(
        (distinct + SETUP_PROJECTS) as u64 <= GRID,
        "register workload exceeds the script grid"
    );
    let mut mix: Vec<String> = (0..distinct).map(|j| grid_script(j as u64)).collect();
    mix.extend_from_within(..reused);
    mix
}

/// Prediction-vector geometry of one predictions project: truth is
/// `i % CLASSES`, and each class's items are walked in a seeded order,
/// `FLIPS_PER_CLASS` at a time, to choose which items a model gets
/// wrong. The old and the new model of a commit take adjacent, disjoint
/// windows, so every item they disagree on has exactly one wrong side.
#[derive(Debug, Clone)]
pub struct Testset {
    /// Pool size (a multiple of `CLASSES * 2 * FLIPS_PER_CLASS`).
    pub len: usize,
    /// Labels held back behind the server's oracle.
    pub lazy: bool,
    /// Packed truth (`#` + one character per item).
    packed_truth: Vec<u8>,
    /// Packed character of the wrong prediction for each true class.
    wrong: [u8; CLASSES as usize],
    /// Per class: that class's item indices in seeded order.
    order: Vec<Vec<u32>>,
}

impl Testset {
    fn new(len: usize, lazy: bool, seed: u64, stream: u64) -> Testset {
        let truth: Vec<u32> = (0..len as u32).map(|i| i % CLASSES).collect();
        let packed_truth = encode_u32_vec(&truth).into_bytes();
        let classes: Vec<u32> = (0..CLASSES).collect();
        let packed_classes = encode_u32_vec(&classes).into_bytes();
        let wrong = std::array::from_fn(|c| packed_classes[1 + (c + 1) % CLASSES as usize]);
        let order = (0..CLASSES)
            .map(|c| {
                let mut items: Vec<u32> = (c..len as u32).step_by(CLASSES as usize).collect();
                shuffle(&mut items, seed, stream * 16 + u64::from(c));
                items
            })
            .collect();
        Testset {
            len,
            lazy,
            packed_truth,
            wrong,
            order,
        }
    }

    /// Ground truth.
    pub fn truth(&self) -> Vec<u32> {
        (0..self.len as u32).map(|i| i % CLASSES).collect()
    }

    /// Items the model of commit `k` gets wrong (`new` picks the new
    /// model's window, else the old one's).
    pub fn flips(&self, k: usize, new: bool) -> impl Iterator<Item = usize> + '_ {
        let windows = self.len / CLASSES as usize / FLIPS_PER_CLASS;
        let w = (2 * k + usize::from(new)) % windows;
        self.order.iter().flat_map(move |items| {
            items[w * FLIPS_PER_CLASS..(w + 1) * FLIPS_PER_CLASS]
                .iter()
                .map(|&i| i as usize)
        })
    }

    /// The packed prediction vector of one model of commit `k`.
    fn packed(&self, k: usize, new: bool) -> Vec<u8> {
        let mut out = self.packed_truth.clone();
        for i in self.flips(k, new) {
            out[1 + i] = self.wrong[i % CLASSES as usize];
        }
        out
    }

    /// The decoded prediction vector of one model of commit `k`.
    pub fn predictions(&self, k: usize, new: bool) -> Vec<u32> {
        let mut out = self.truth();
        for i in self.flips(k, new) {
            out[i] = (out[i] + 1) % CLASSES;
        }
        out
    }
}

/// A project registered during set-up.
#[derive(Debug, Clone)]
pub struct Project {
    /// Project name.
    pub name: String,
    /// CI script text.
    pub script: String,
    /// The registration estimate's total: the counts every commit
    /// reports as `samples`, and the floor of the testset size.
    pub estimate_total: u64,
    /// Server-side testset (predictions workload only).
    pub testset: Option<Testset>,
}

/// One timed operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Register `mix[script]` under `name`.
    Register { name: String, script: usize },
    /// The `commit`-th counts commit of `project`, reporting value
    /// `value` of the fixed counts table.
    Counts {
        project: usize,
        commit: usize,
        value: u64,
    },
    /// The `commit`-th predictions commit of `project`.
    Predictions { project: usize, commit: usize },
}

/// Everything one run sends, derived from (workload, seed, seconds).
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    /// Registration mix (register workload only).
    pub mix: Vec<String>,
    /// Projects registered during set-up (commit workloads only).
    pub projects: Vec<Project>,
    /// Per connection, the operations in send order.
    pub conns: Vec<Vec<Op>>,
}

/// Smallest multiple of `unit` that is at least `n`.
fn round_up(n: u64, unit: u64) -> u64 {
    n.div_ceil(unit) * unit
}

/// The registration estimate's total for `script_text`.
fn estimate_total(script_text: &str) -> u64 {
    let parsed = CiScript::parse(script_text).expect("benchmark script parses");
    serving_estimator()
        .estimate(&parsed)
        .expect("benchmark script estimates")
        .total_samples()
}

impl Inputs {
    /// Build the inputs of one run.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let n = workload.ops(seconds);
        let conns = workload.connections();
        match workload {
            Workload::Register => {
                let mix = register_mix(n);
                // Every round registers the whole block, each in its own
                // seeded order, so every round does the same work whatever
                // the seed.
                let block = mix.len();
                let ops = (0..ROUNDS)
                    .flat_map(|b| {
                        let mut order: Vec<usize> = (0..block).collect();
                        shuffle(&mut order, seed, 1 + b as u64);
                        order
                    })
                    .enumerate()
                    .map(|(pos, script)| Op::Register {
                        name: format!("r{pos:05}-{}", tag(seed, 2, pos as u64)),
                        script,
                    })
                    .collect();
                Inputs {
                    workload,
                    seed,
                    mix,
                    projects: (0..SETUP_PROJECTS)
                        .map(|k| setup_registration(k, seed))
                        .collect(),
                    conns: vec![ops],
                }
            }
            Workload::CommitCounts | Workload::CommitPredictions => {
                let predictions = workload == Workload::CommitPredictions;
                let per_project = n / (ROUNDS * PROJECTS_PER_ROUND);
                assert!(
                    per_project < COMMIT_STEPS as usize,
                    "run exceeds step budget"
                );
                let projects: Vec<Project> = (0..SETUP_PROJECTS)
                    .map(|p| commit_project(predictions, p, seed))
                    .collect();
                // Every lazy pool ends fully labelled, so what the store
                // writes about it cannot depend on the seed.
                for t in projects.iter().filter_map(|p| p.testset.as_ref()) {
                    assert!(
                        2 * per_project * FLIPS_PER_CLASS * CLASSES as usize >= t.len,
                        "run too short to cover every lazy pool"
                    );
                }
                // Round `r` commits to its own projects; connection `c`
                // owns those with `p ≡ c (mod conns)` and round-robins over
                // them. Each project's counts values are a seeded
                // permutation of one fixed table.
                let mut per_conn: Vec<Vec<Op>> = vec![Vec::new(); conns];
                for r in 0..ROUNDS {
                    let round_projects = setup_range(r);
                    let values: Vec<Vec<u64>> = round_projects
                        .clone()
                        .map(|p| {
                            let mut v: Vec<u64> = (0..per_project as u64).collect();
                            shuffle(&mut v, seed, 100 + p as u64);
                            v
                        })
                        .collect();
                    for commit in 0..per_project {
                        for (p, project_values) in round_projects.clone().zip(&values) {
                            per_conn[p % conns].push(if predictions {
                                Op::Predictions { project: p, commit }
                            } else {
                                Op::Counts {
                                    project: p,
                                    commit,
                                    value: project_values[commit],
                                }
                            });
                        }
                    }
                }
                Inputs {
                    workload,
                    seed,
                    mix: Vec::new(),
                    projects,
                    conns: per_conn,
                }
            }
        }
    }

    /// Operations timed.
    pub fn ops(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }

    /// Commit id of a commit: fixed width, seeded suffix.
    pub fn commit_id(&self, project: usize, commit: usize) -> String {
        format!(
            "{commit:06}-{}",
            tag(self.seed, 200 + project as u64, commit as u64)
        )
    }

    /// The counts a counts commit reports: `(samples, new_correct,
    /// old_correct, changed, labels)`. Accuracy moves between −3 and +3
    /// points around 80 %, so verdicts vary; the client labels exactly
    /// the items the models disagree on.
    pub fn counts(&self, project: usize, value: u64) -> [u64; 5] {
        let samples = self.projects[project].estimate_total;
        let point = samples / 100;
        let old = samples * 80 / 100;
        let delta = (value % 7) as i64 - 3;
        let new = (old as i64 + delta * point as i64) as u64;
        let changed = delta.unsigned_abs() * point + samples / 50;
        [samples, new, old, changed, changed]
    }

    /// Path of the operation's request.
    pub fn path(&self, op: &Op) -> String {
        match op {
            Op::Register { .. } => "/projects".to_owned(),
            Op::Counts { project, .. } => {
                format!("/projects/{}/commits", self.projects[*project].name)
            }
            Op::Predictions { project, .. } => {
                format!(
                    "/projects/{}/commits/predictions",
                    self.projects[*project].name
                )
            }
        }
    }

    /// JSON body of the operation's request.
    pub fn body(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Register { name, script } => register_body(name, &self.mix[*script], None),
            Op::Counts {
                project,
                commit,
                value,
            } => {
                let [samples, new, old, changed, labels] = self.counts(*project, *value);
                format!(
                    "{{\"commit_id\":\"{}\",\"samples\":{samples},\"new_correct\":{new},\
                     \"old_correct\":{old},\"changed\":{changed},\"labels\":{labels}}}",
                    self.commit_id(*project, *commit)
                )
                .into_bytes()
            }
            Op::Predictions { project, commit } => {
                let testset = self.projects[*project]
                    .testset
                    .as_ref()
                    .expect("predictions project has a testset");
                let mut body = format!(
                    "{{\"commit_id\":\"{}\",\"old\":\"",
                    self.commit_id(*project, *commit)
                )
                .into_bytes();
                body.extend_from_slice(&testset.packed(*commit, false));
                body.extend_from_slice(b"\",\"new\":\"");
                body.extend_from_slice(&testset.packed(*commit, true));
                body.extend_from_slice(b"\"}");
                body
            }
        }
    }

    /// The full request bytes of one operation.
    pub fn request(&self, op: &Op) -> Vec<u8> {
        http_request("POST", &self.path(op), &self.body(op))
    }

    /// The set-up registration request of project `p`.
    pub fn setup_request(&self, p: usize) -> Vec<u8> {
        let project = &self.projects[p];
        let body = register_body(&project.name, &project.script, project.testset.as_ref());
        http_request("POST", "/projects", &body)
    }

    /// Round `r`'s share of connection `conn`'s operations.
    pub fn round_ops(&self, conn: usize, r: usize) -> std::ops::Range<usize> {
        let len = self.conns[conn].len();
        r * len / ROUNDS..(r + 1) * len / ROUNDS
    }

    /// Indices into [`Inputs::projects`] of round `r`'s set-up projects.
    pub fn setup_projects(&self, r: usize) -> std::ops::Range<usize> {
        setup_range(r)
    }

    /// Names of every project round `r` creates (set-up and timed).
    pub fn round_names(&self, r: usize) -> Vec<String> {
        let mut names: Vec<String> = self.projects[setup_range(r)]
            .iter()
            .map(|p| p.name.clone())
            .collect();
        for (c, ops) in self.conns.iter().enumerate() {
            for op in &ops[self.round_ops(c, r)] {
                if let Op::Register { name, .. } = op {
                    names.push(name.clone());
                }
            }
        }
        names
    }
}

/// Indices of round `r`'s set-up projects.
fn setup_range(r: usize) -> std::ops::Range<usize> {
    r * SETUP_PER_ROUND..(r + 1) * SETUP_PER_ROUND
}

/// The `k`-th registration of the register workload's set-up: a script
/// from the far end of the grid, which no timed registration uses.
fn setup_registration(k: usize, seed: u64) -> Project {
    let script = grid_script(GRID - 1 - k as u64);
    Project {
        name: format!("rs{k:03}-{}", tag(seed, 4, k as u64)),
        estimate_total: estimate_total(&script),
        script,
        testset: None,
    }
}

/// A commit workload's `p`-th project. Predictions projects `p ≡ 3 (mod
/// 4)` (five per round) gate on `f1(n) - f1(o)` over a fully labelled pool; the rest on
/// the paper's no-regression difference over a lazily labelled pool.
fn commit_project(predictions: bool, p: usize, seed: u64) -> Project {
    let name_tag = tag(seed, 3, p as u64);
    if !predictions {
        let script = script(
            "n - o > -0.02 +/- 0.02",
            "0.999",
            "fp-free",
            "none",
            COMMIT_STEPS + p as u32,
        );
        return Project {
            name: format!("cc{p:03}-{name_tag}"),
            estimate_total: estimate_total(&script),
            script,
            testset: None,
        };
    }
    let f1 = p % 4 == 3;
    let condition = if f1 {
        "f1(n) - f1(o) > -0.3 +/- 0.3"
    } else {
        "n - o > -0.05 +/- 0.05"
    };
    let script = script(
        condition,
        "0.999",
        "fp-free",
        "none",
        COMMIT_STEPS + p as u32,
    );
    let total = estimate_total(&script);
    let len = round_up(total, u64::from(CLASSES) * 2 * FLIPS_PER_CLASS as u64) as usize;
    Project {
        name: format!("cp{p:03}-{name_tag}"),
        estimate_total: total,
        script,
        testset: Some(Testset::new(len, !f1, seed, 300 + p as u64)),
    }
}

/// A registration body, with the testset packed when present.
fn register_body(name: &str, script: &str, testset: Option<&Testset>) -> Vec<u8> {
    let mut body = format!(
        "{{\"name\":\"{name}\",\"script\":{}",
        easeml_serve::json::Value::from(script).encode()
    )
    .into_bytes();
    if let Some(t) = testset {
        body.extend_from_slice(b",\"testset\":{\"labels\":\"");
        body.extend_from_slice(&t.packed_truth);
        body.extend_from_slice(
            format!(
                "\",\"labeling\":\"{}\",\"classes\":{CLASSES}}}",
                if t.lazy { "lazy" } else { "full" }
            )
            .as_bytes(),
        );
    }
    body.push(b'}');
    body
}

/// HTTP/1.1 request bytes with a JSON body.
pub fn http_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted<T: Ord + Clone>(items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        v.sort();
        v
    }

    #[test]
    fn register_mix_is_seed_free_and_reuses_a_fixed_share() {
        let a = Inputs::new(Workload::Register, 1, 1);
        let b = Inputs::new(Workload::Register, 2, 1);
        assert_eq!(a.mix, b.mix);
        let scripts = |i: &Inputs| -> Vec<usize> {
            i.conns[0]
                .iter()
                .map(|op| match op {
                    Op::Register { script, .. } => *script,
                    _ => unreachable!(),
                })
                .collect()
        };
        // Same multiset of scripts, different order and names.
        assert_eq!(sorted(&scripts(&a)), sorted(&scripts(&b)));
        assert_ne!(scripts(&a), scripts(&b));
        assert_ne!(a.round_names(0), b.round_names(0));
        let distinct: std::collections::HashSet<&String> = a.mix.iter().collect();
        let block = a.mix.len();
        assert_eq!(block * ROUNDS, a.ops());
        assert_eq!(distinct.len(), block - block / REUSE_EVERY);
        // Every round sends the whole block, in its own order.
        for (sa, sb) in scripts(&a).chunks(block).zip(scripts(&b).chunks(block)) {
            assert_eq!(sorted(sa), (0..block).collect::<Vec<_>>());
            assert_eq!(sorted(sb), (0..block).collect::<Vec<_>>());
        }
        for stratum in ["n > 0.8", "n - o > 0.02", "/\\", "d < 0.1"] {
            assert!(a.mix.iter().any(|s| s.contains(stratum)), "{stratum}");
        }
        for adaptivity in ADAPTIVITIES {
            let needle = format!("adaptivity : {adaptivity}\n");
            assert!(a.mix.iter().any(|s| s.contains(&needle)), "{adaptivity}");
        }
    }

    #[test]
    fn commit_inputs_change_only_order_names_and_flip_positions() {
        for workload in [Workload::CommitCounts, Workload::CommitPredictions] {
            let a = Inputs::new(workload, 1, 1);
            let b = Inputs::new(workload, 2, 1);
            assert_eq!(a.ops(), b.ops());
            for (pa, pb) in a.projects.iter().zip(&b.projects) {
                assert_eq!(pa.script, pb.script);
                assert_eq!(pa.estimate_total, pb.estimate_total);
                assert_eq!(pa.name.len(), pb.name.len());
                assert_ne!(pa.name, pb.name);
                if let (Some(ta), Some(tb)) = (&pa.testset, &pb.testset) {
                    assert!(ta.len as u64 >= pa.estimate_total, "testset meets estimate");
                    assert_eq!(ta.truth(), tb.truth());
                    let fa: Vec<usize> = ta.flips(0, true).collect();
                    let fb: Vec<usize> = tb.flips(0, true).collect();
                    assert_eq!(fa.len(), fb.len());
                    assert_ne!(sorted(&fa), sorted(&fb));
                }
            }
            // Each project's counts values are the same multiset.
            let values = |i: &Inputs, p: usize| -> Vec<u64> {
                i.conns
                    .iter()
                    .flatten()
                    .filter_map(|op| match op {
                        Op::Counts { project, value, .. } if *project == p => {
                            Some(i.counts(p, *value)[1])
                        }
                        _ => None,
                    })
                    .collect()
            };
            for p in 0..a.projects.len() {
                assert_eq!(sorted(&values(&a, p)), sorted(&values(&b, p)));
            }
        }
    }

    #[test]
    fn old_and_new_flips_are_disjoint_and_cover_the_pool() {
        let inputs = Inputs::new(Workload::CommitPredictions, 7, 1);
        let t = inputs.projects[0].testset.as_ref().unwrap();
        let mut seen = vec![false; t.len];
        for k in 0..t.len / (2 * CLASSES as usize * FLIPS_PER_CLASS) {
            let old: Vec<usize> = t.flips(k, false).collect();
            let new: Vec<usize> = t.flips(k, true).collect();
            assert_eq!(old.len(), CLASSES as usize * FLIPS_PER_CLASS);
            assert!(old.iter().all(|i| !new.contains(i)));
            for i in old.into_iter().chain(new) {
                assert!(
                    !seen[i],
                    "item {i} flipped twice before the pool is covered"
                );
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn packed_vectors_decode_to_the_generated_predictions() {
        let inputs = Inputs::new(Workload::CommitPredictions, 3, 1);
        let t = inputs.projects[3].testset.as_ref().unwrap();
        for new in [false, true] {
            let packed = String::from_utf8(t.packed(5, new)).unwrap();
            assert_eq!(
                easeml_serve::json::decode_u32_vec(&packed).unwrap(),
                t.predictions(5, new)
            );
        }
    }
}
