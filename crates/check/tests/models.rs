//! The mirrored protocol harnesses: each shipping protocol must verify
//! exhaustively within the preemption bound, and every seeded mutant
//! must be caught — with its counterexample schedule replaying to the
//! same failure (the property that turns any future counterexample
//! into a checked-in regression test). The protocols checked as they
//! ship are in `crates/parchan/tests/protocols.rs`.

use chanos_check::models::{nr, steal};
use chanos_check::{Config, Explorer, FailureKind};

fn explorer() -> Explorer {
    Explorer::new(Config {
        max_preemptions: 3,
        max_schedules: 200_000,
        max_steps: 20_000,
        sleep_sets: true,
    })
}

/// A mutant must be caught, and its schedule must replay to the same
/// failure kind.
fn assert_caught<F>(model: F, expect: &[FailureKind])
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    let report = explorer().check(model.clone());
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("mutant not caught in {} schedules", report.schedules));
    assert!(
        expect.contains(&failure.kind),
        "expected one of {expect:?}, got {failure}"
    );
    let replayed = explorer()
        .replay(&failure.schedule, model)
        .expect("counterexample schedule must replay deterministically");
    assert_eq!(replayed.kind, failure.kind, "replay diverged: {replayed}");
}

// --- steal: owner pop vs stealer batch-claim on the packed head ---------

#[test]
fn steal_verifies() {
    let report = explorer().check(|| steal::steal_model(steal::Mutant::None));
    report.assert_ok();
    assert!(report.schedules > 0);
}

#[test]
fn steal_mutant_stale_head_caught() {
    // The plain-store claim double-consumes a slot (sentinel panic) or
    // loses one (multiset panic) depending on the interleaving.
    assert_caught(
        || steal::steal_model(steal::Mutant::StaleHeadSteal),
        &[FailureKind::Panic],
    );
}

#[test]
fn steal_mutant_publish_before_write_caught() {
    assert_caught(
        || steal::steal_model(steal::Mutant::PublishBeforeWrite),
        &[FailureKind::Panic],
    );
}

// --- nr: log-append reservation/commit vs replica catch-up --------------

#[test]
fn nr_log_verifies() {
    let report = explorer().check(|| nr::nr_log_model(nr::Mutant::None));
    report.assert_ok();
    assert!(report.schedules > 0);
}

#[test]
fn nr_mutant_apply_before_publish_caught() {
    // Tail committed before the slots are published: a catch-up racing
    // the appender applies the unpublished sentinel.
    assert_caught(
        || nr::nr_log_model(nr::Mutant::ApplyBeforePublish),
        &[FailureKind::Panic],
    );
}

#[test]
fn nr_mutant_stale_tail_read_caught() {
    // A read that starts after both appends completed but serves from
    // a stale tail misses committed entries.
    assert_caught(
        || nr::nr_log_model(nr::Mutant::StaleTailRead),
        &[FailureKind::Panic],
    );
}

// --- nr: flat-combining burst claim vs per-client responses -------------

#[test]
fn nr_combine_verifies() {
    let report = explorer().check(|| nr::nr_combine_model(nr::Mutant::None));
    report.assert_ok();
}

#[test]
fn nr_mutant_lost_combiner_handoff_caught() {
    // The combiner claims a two-op burst but answers only the first;
    // the second client parks forever.
    assert_caught(
        || nr::nr_combine_model(nr::Mutant::LostCombinerHandoff),
        &[FailureKind::Deadlock],
    );
}
