//! Node replication as it ships, model-checked: each check builds a
//! parchan `Runtime` inside a `chanos_check` model, so its workers are
//! model threads, and drives `Replicated::{spawn, write, read}` on it.
//! The combiners, the shared log and the replicas' catch-up then run
//! as the code that ships, with every atomic, lock and park an
//! interleaving point the explorer enumerates up to a preemption
//! bound. The feature flips parchan's `crate::sync` facade, which the
//! log takes its primitives from as `rt::sync`:
//!
//! ```text
//! cargo test --release -p chanos-nr --features chanos_check --test protocols
//! ```
//!
//! The checks cover the three paths the benchmark's NR traffic takes:
//! two combiners appending at once, a lagging replica caught up while
//! an append commits, and a two-write burst answered by one combiner.
//! CI explores in release, where `debug_assert!`s are off, so each
//! check asserts on what a caller sees: every write answered with the
//! log position its op landed at, every read a prefix of the one log,
//! and every replica holding that log once the writes are answered.
//!
//! As in parchan's executor checks, the root shuts down a clone of the
//! runtime and keeps `rt` to the end, and no check sleeps: the timer
//! thread is not a model thread.

#![cfg(feature = "chanos_check")]

use chanos_check::{thread, Config, Explorer};
use chanos_nr::{NrService, Replicated};
use chanos_parchan::Runtime;
use chanos_rt::{self as rt, join2, CoreId};

/// The replicated state under check: the ops in the order this replica
/// applied them. A write answers its op's 1-based log position, so an
/// answer, a read and a replica can be compared with one another.
#[derive(Default)]
struct Seq(Vec<u64>);

impl NrService for Seq {
    type ReadOp = ();
    type ReadResp = Vec<u64>;
    type WriteOp = u64;
    type WriteResp = usize;

    fn read(&self, _: &()) -> Vec<u64> {
        self.0.clone()
    }

    fn apply(&mut self, op: &u64) -> usize {
        self.0.push(*op);
        self.0.len()
    }
}

/// Explores `model` up to `max_preemptions`, and fails on any
/// counterexample or on running out of budget (`CHANOS_CHECK_BUDGET`,
/// default 50 000 schedules) before the space is exhausted. A
/// counterexample is first replayed twice: one that does not come back
/// the same way is reported as such.
fn verify(max_preemptions: usize, model: impl Fn() + Clone + Send + Sync + 'static) {
    let explorer = Explorer::new(Config {
        max_preemptions,
        ..Config::default()
    });
    let report = explorer.check(model.clone());
    if let Some(failure) = &report.failure {
        eprintln!("caught after {} schedules: {failure}", report.schedules);
        for _ in 0..2 {
            let again = explorer.replay(&failure.schedule, model.clone());
            assert_eq!(
                again.map(|f| f.kind),
                Some(failure.kind.clone()),
                "{failure} does not replay"
            );
        }
    }
    report.assert_ok();
    eprintln!(
        "verified at bound {max_preemptions}: {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// Reads the replica of `core` from a task pinned there.
async fn read_on(nr: &Replicated<Seq>, core: CoreId) -> Vec<u64> {
    let nr = nr.clone();
    rt::spawn_on(core, async move { nr.read(()).await })
        .join()
        .await
        .expect("a read task does not fail")
}

/// A write's answer is the position its op holds in `log`.
fn assert_answered_at(log: &[u64], op: u64, answer: usize) {
    assert_eq!(
        log.get(answer.wrapping_sub(1)),
        Some(&op),
        "op {op} was answered {answer}, but the log is {log:?}"
    );
}

/// Two replicas, on workers 0 and 1. The root writes `1` through
/// worker 0's combiner while a task on worker 1 writes `2` through the
/// other: the two reservations race on the cursor, and the later one
/// waits its turn to commit. Both replicas must end with one log
/// holding each op once, at the position its write was answered.
fn two_combiners_append_at_once() {
    let rt = Runtime::new(2);
    rt.block_on(async {
        let nr = Replicated::spawn("seq", &[CoreId(0), CoreId(1)], Seq::default);
        let far = {
            let nr = nr.clone();
            rt::spawn_on(CoreId(1), async move { nr.write(2).await })
        };
        let here = nr.write(1).await.expect("combiner 0 answers");
        let there = far
            .join()
            .await
            .expect("the writer does not fail")
            .expect("combiner 1 answers");
        let log = nr.read(()).await;
        assert_eq!(read_on(&nr, CoreId(1)).await, log, "the replicas disagree");
        assert_eq!(log.len(), 2, "the log is {log:?}");
        assert_answered_at(&log, 1, here);
        assert_answered_at(&log, 2, there);
    });
    rt.clone().shutdown();
}

#[test]
fn two_combiners_append_at_once_and_agree() {
    verify(1, two_combiners_append_at_once);
}

/// Reads once the other threads may have run: the second of two
/// yields waits until another thread has taken a step, so one
/// preemption puts the read anywhere inside their next steps.
async fn read_later(nr: &Replicated<Seq>) -> Vec<u64> {
    thread::yield_now();
    thread::yield_now();
    nr.read(()).await
}

/// Two replicas, on workers 0 and 1. The root writes `5` through
/// worker 0's combiner and reads its own replica while that append is
/// in flight; a task on worker 1 reads the other replica, which must
/// catch up from the log. Each read sees a prefix of the log, the
/// write is answered with position 1, and once it is, both replicas
/// hold it.
fn lagging_replica_catches_up() {
    let rt = Runtime::new(2);
    rt.block_on(async {
        let nr = Replicated::spawn("seq", &[CoreId(0), CoreId(1)], Seq::default);
        let far = {
            let nr = nr.clone();
            rt::spawn_on(CoreId(1), async move { read_later(&nr).await })
        };
        let (wrote, seen) = join2(nr.write(5), read_later(&nr)).await;
        assert_eq!(wrote, Ok(1), "the write was not answered at position 1");
        let seen_far = far.join().await.expect("the reader does not fail");
        for s in [&seen, &seen_far] {
            assert!(s.is_empty() || s[..] == [5], "a read saw {s:?}");
        }
        assert_eq!(nr.read(()).await, [5], "replica 0 misses the write");
        assert_eq!(
            read_on(&nr, CoreId(1)).await,
            [5],
            "replica 1 misses the write"
        );
    });
    rt.clone().shutdown();
}

#[test]
fn a_lagging_replica_catches_up_while_an_append_commits() {
    verify(1, lagging_replica_catches_up);
}

/// One replica, on the only worker. The root submits two writes before
/// awaiting either, so its combiner drains them as one burst or as two,
/// and answers each through its reply batch with the position its op
/// took.
fn burst() {
    let rt = Runtime::new(1);
    rt.block_on(async {
        let nr = Replicated::spawn("seq", &[CoreId(0)], Seq::default);
        let (a, b) = join2(nr.write(1), nr.write(2)).await;
        let log = nr.read(()).await;
        assert_eq!(log.len(), 2, "the log is {log:?}");
        assert_answered_at(&log, 1, a.expect("the first write is answered"));
        assert_answered_at(&log, 2, b.expect("the second write is answered"));
    });
    rt.clone().shutdown();
}

#[test]
fn a_two_write_burst_is_answered_by_one_combiner() {
    verify(2, burst);
}

/// One bound deeper: ~47 000 schedules and about twenty seconds, so
/// CI runs it nightly, with `CHANOS_CHECK_BUDGET=200000` and
/// `-- --ignored`.
#[test]
#[ignore = "twenty seconds; CI runs it nightly"]
fn a_two_write_burst_is_answered_by_one_combiner_at_bound_3() {
    verify(3, burst);
}
