//! The mirrored protocol harnesses: each shipping protocol must verify
//! exhaustively within the preemption bound, and every seeded mutant
//! must be caught — with its counterexample schedule replaying to the
//! same failure (the property that turns any future counterexample
//! into a checked-in regression test). The protocols checked as they
//! ship are in `crates/parchan/tests/protocols.rs`.

use chanos_check::models::{nr, pinned, priority, steal};
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

// --- steal: idle-bitmask park handshake vs notify_work ------------------

#[test]
fn idle_mask_verifies() {
    let report = explorer().check(|| steal::idle_mask_model(steal::Mutant::None, 2));
    report.assert_ok();
}

#[test]
fn idle_mask_mutant_scan_before_publish_caught() {
    assert_caught(
        || steal::idle_mask_model(steal::Mutant::ScanBeforePublish, 2),
        &[FailureKind::Deadlock],
    );
}

#[test]
fn idle_mask_mutant_no_recheck_caught() {
    assert_caught(
        || steal::idle_mask_model(steal::Mutant::NoRecheck, 2),
        &[FailureKind::Deadlock],
    );
}

#[test]
fn idle_mask_mutant_lost_searching_clear_caught() {
    // The leaked `searching` increment makes every producer elide its
    // wake; the worker parks forever.
    assert_caught(
        || steal::idle_mask_model(steal::Mutant::LostSearchingClear, 2),
        &[FailureKind::Deadlock],
    );
}

#[test]
fn idle_mask_mutant_stale_token_keeps_bit_caught() {
    // A token owed to a registration the worker already withdrew ends
    // the next park with that park's bit still set.
    assert_caught(
        || steal::idle_mask_model(steal::Mutant::StaleTokenKeepsBit, 2),
        &[FailureKind::Panic],
    );
}

#[test]
fn idle_mask_stale_token_schedule_replays() {
    // The explorer's counterexample against `worker_loop` as it stood
    // (46th schedule): the worker registers, the producer publishes and
    // claims the bit, the worker's re-check takes the task and its
    // deregister loses; it registers again, finds nothing, and the
    // token of the lost race ends the park with the new bit still set.
    const SCHEDULE: &str = "0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.0.0.0.0.0.0.0.0.0.0.0.0";
    let stale = explorer()
        .replay(SCHEDULE, || {
            steal::idle_mask_model(steal::Mutant::StaleTokenKeepsBit, 2)
        })
        .expect("the un-fixed loop leaves the park registered idle");
    assert_eq!(stale.kind, FailureKind::Panic, "{stale}");
    // The same decisions against the shipping loop: the token's
    // consumer withdraws the registration.
    let fixed = explorer().replay(SCHEDULE, || steal::idle_mask_model(steal::Mutant::None, 2));
    assert!(fixed.is_none(), "{}", fixed.unwrap());
}

// --- priority: high-priority lane vs the park handshake -----------------

#[test]
fn priority_lane_verifies() {
    let report = explorer().check(|| priority::priority_lane_model(priority::Mutant::None, 2, 1));
    report.assert_ok();
    assert!(report.schedules > 0);
}

#[test]
fn priority_mutant_recheck_skips_high_lane_caught() {
    // Priority inversion on park: the pre-park re-check misses the
    // hi lane, so the one task that must not wait strands the worker.
    assert_caught(
        || priority::priority_lane_model(priority::Mutant::RecheckSkipsHighLane, 1, 1),
        &[FailureKind::Deadlock],
    );
}

#[test]
fn priority_mutant_lost_high_lane_wake_caught() {
    // Publishing High work without notify_work: running workers poll
    // the lane every dispatch, a parked worker never does.
    assert_caught(
        || priority::priority_lane_model(priority::Mutant::LostHighLaneWake, 1, 1),
        &[FailureKind::Deadlock],
    );
}

// --- pinned: a wake only its own worker may take ----------------------

#[test]
fn pinned_wake_verifies() {
    // Holds: finding 1's hang (workers ticking on the park backstop
    // with nothing queued) is not in this handshake.
    let report = explorer().check(|| pinned::pinned_wake_model(pinned::Mutant::None, 2));
    report.assert_ok();
    assert!(report.schedules > 0);
}

#[test]
fn pinned_mutant_recheck_skips_pinned_caught() {
    assert_caught(
        || pinned::pinned_wake_model(pinned::Mutant::RecheckSkipsPinned, 1),
        &[FailureKind::Deadlock],
    );
}

#[test]
fn pinned_mutant_elides_for_searcher_caught() {
    // A sibling mid-search covers stealable work, never a pinned task.
    assert_caught(
        || pinned::pinned_wake_model(pinned::Mutant::ElidesForSearcher, 1),
        &[FailureKind::Deadlock],
    );
}
