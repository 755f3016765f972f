//! The mirrored stealing ring: the shipping protocol must verify
//! exhaustively within the preemption bound, and every seeded mutant
//! must be caught — with its counterexample schedule replaying to the
//! same failure (the property that turns any future counterexample
//! into a checked-in regression test). The protocols checked as they
//! ship are in `crates/parchan/tests/protocols.rs` and
//! `crates/nr/tests/protocols.rs`.

use chanos_check::models::steal;
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
