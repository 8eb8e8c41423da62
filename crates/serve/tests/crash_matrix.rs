//! Crash-consistency matrix: the full kill-point enumeration in every
//! durability mode, plus the pool-width and cross-mode determinism
//! properties of the fault-plan address space.

use easeml_par::Pool;
use easeml_serve::fault::{journal_bytes_after_run, run_matrix, MatrixOptions};
use easeml_serve::vfs::{Fault, FaultKind, FaultPlan};
use easeml_serve::Durability;

/// Every (operation, fault) cell of the full matrix holds the
/// durability contract: reboot never bricks, no acked commit is lost
/// past its durability class, no un-acked commit appears, survivor
/// journals stay byte-faithful to the baseline. Runs on the global
/// pool, so `EASEML_THREADS` (the CI matrix axis) varies the schedule's
/// thread interleaving. Swept in `group` and `relaxed` — both kill the
/// process at every stage of a durable write (registration staged,
/// fsync issued, rename landed) because each of those is an enumerated
/// I/O operation of the baseline oplog; the group sweep also hits the
/// journal sync of every group-commit round.
#[test]
fn full_matrix_holds_durability_contract() {
    for durability in [Durability::Group, Durability::Relaxed] {
        let report = run_matrix(&MatrixOptions {
            quick: false,
            seed: 7,
            durability,
        });
        assert!(
            report.ops_enumerated > 40,
            "{durability}: baseline oplog suspiciously small: {} ops",
            report.ops_enumerated
        );
        assert!(
            report.cases.len() > 100,
            "{durability}: matrix suspiciously small: {} cases",
            report.cases.len()
        );
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "{durability}: {} of {} matrix cells failed; first: {}/{} {} {} — {}",
            failures.len(),
            report.cases.len(),
            failures[0].scope,
            failures[0].index,
            failures[0].op,
            failures[0].fault,
            failures[0].failure.as_deref().unwrap_or_default()
        );
        // The schedule must actually exercise commits: both the acked
        // count and at least one surviving history should be
        // non-trivial.
        assert!(report.cases.iter().any(|c| c.acked_commits >= 8));
        assert!(report.cases.iter().any(|c| c.surviving_commits >= 8));
    }
}

/// Fault-plan determinism: the same seed and plan produce byte-identical
/// per-project journals at pool widths 1 and 4. Per-project action
/// streams are single pool tasks, so per-scope operation order — and
/// with it every fault address and journal byte — cannot depend on
/// cross-project interleaving. Non-halting faults only: a halt freezes
/// the *other* project at a thread-timing-dependent point by design.
#[test]
fn journal_bytes_identical_across_pool_widths() {
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let plan = FaultPlan::new()
            .at("alpha", 9, Fault::Fail(FaultKind::Enospc))
            .at("alpha", 17, Fault::Fail(FaultKind::Eio))
            .at("beta", 12, Fault::Fail(FaultKind::Enospc))
            .at("beta", 21, Fault::Fail(FaultKind::Eio))
            .at("", 2, Fault::Fail(FaultKind::Eio));
        let narrow = journal_bytes_after_run(&Pool::new(1), seed, plan.clone(), Durability::Group);
        let wide = journal_bytes_after_run(&Pool::new(4), seed, plan, Durability::Group);
        assert_eq!(
            narrow.keys().collect::<Vec<_>>(),
            wide.keys().collect::<Vec<_>>(),
            "seed {seed}: project sets differ across pool widths"
        );
        for (project, bytes) in &narrow {
            assert!(
                !bytes.is_empty(),
                "seed {seed}: project {project} wrote no journal (schedule did not run?)"
            );
            assert_eq!(
                Some(bytes),
                wide.get(project),
                "seed {seed}: journal bytes for {project} differ between 1 and 4 threads"
            );
        }
    }
}

/// A fault-free run at two widths is also byte-identical (the plan
/// machinery itself must not perturb the schedule).
#[test]
fn fault_free_run_identical_across_pool_widths() {
    let narrow = journal_bytes_after_run(&Pool::new(1), 42, FaultPlan::new(), Durability::Group);
    let wide = journal_bytes_after_run(&Pool::new(4), 42, FaultPlan::new(), Durability::Group);
    assert_eq!(narrow, wide);
}

/// Group-commit changes *when* journal bytes become durable, never
/// *which* bytes are written: records are serialized under the project
/// lock in every mode, so the same schedule yields byte-identical
/// journals in `group` and `relaxed` — at pool widths 1 and 4 alike.
/// This is the invariance that lets one fault-plan address space (and
/// one baseline oplog) cover both modes.
#[test]
fn journal_bytes_identical_across_durability_modes() {
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        let group = journal_bytes_after_run(&pool, 7, FaultPlan::new(), Durability::Group);
        let relaxed = journal_bytes_after_run(&pool, 7, FaultPlan::new(), Durability::Relaxed);
        assert_eq!(
            group.keys().collect::<Vec<_>>(),
            relaxed.keys().collect::<Vec<_>>(),
            "{threads} threads: project sets differ across durability modes"
        );
        for (project, bytes) in &group {
            assert!(
                !bytes.is_empty(),
                "{threads} threads: {project} journal empty"
            );
            assert_eq!(
                Some(bytes),
                relaxed.get(project),
                "{threads} threads: journal bytes for {project} differ between group and relaxed"
            );
        }
    }
}
