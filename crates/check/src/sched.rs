//! The bounded-interleaving explorer: a loom-shaped stateless model
//! checker with no dependencies.
//!
//! # How an execution runs
//!
//! A *model* is a closure that spawns [`crate::thread::spawn`] model
//! threads and synchronizes them through the [`crate::sync`] shim
//! types. Each model thread is a real OS thread, but only **one runs
//! at a time**: every visible operation (atomic op, value-cell
//! access, mutex op, condvar wait/notify, park/unpark, spawn/join,
//! yield) first reports itself to the [`Controller`] and hands the
//! baton on. The thread handing it on takes the scheduling decision
//! itself — often to go on, which then costs no context switch — and
//! blocks until it is granted the baton again. The decision therefore
//! sees, at every step, the full set of runnable threads and the
//! operation each would perform next — which is exactly the
//! information a model checker needs; the caller's thread only starts
//! an execution and tears it down.
//!
//! # How the state space is explored
//!
//! [`Explorer::check`] runs the model repeatedly, driving each
//! execution down a different schedule (depth-first over the decision
//! tree, re-executing from the start with a forced prefix — the
//! standard stateless-model-checking shape):
//!
//! * **Preemption bounding**: switching away from a thread that could
//!   have continued costs one preemption; schedules are explored only
//!   up to [`Config::max_preemptions`] of them (default 3). Almost
//!   all real concurrency bugs need very few preemptions, so this
//!   turns an exponential space into a small polynomial one.
//! * **Sleep sets (DPOR-lite)**: after exploring thread `t` at a
//!   decision point, `t` is put to sleep in the sibling branches and
//!   stays asleep until some *dependent* operation (same location
//!   with a write, same mutex, or any opaque op) executes. A branch
//!   whose every runnable thread is asleep is provably redundant and
//!   is pruned without completing.
//!
//! Atomic operations execute with their real `std` semantics while
//! serialized by the baton, so each explored schedule is a
//! sequentially-consistent interleaving; each op's declared
//! [`Ordering`](std::sync::atomic::Ordering) is recorded and reported
//! ([`Report::ordering_counts`]) so a harness can show which
//! orderings a protocol's hot path actually relies on. Weak-memory
//! reorderings are *not* simulated — that is what the ThreadSanitizer
//! CI job is for; the checker proves schedule-level protocol
//! properties (no lost wakes, no double resolve, no deadlock, model
//! assertions).
//!
//! # Counterexamples
//!
//! Any failure — a model panic (assertion), a deadlock (every live
//! thread blocked: the built-in lost-wake detector), or a runaway
//! execution — is reported with a **schedule string** (the decision
//! sequence, e.g. `"0.1.1.0.2"`). [`Explorer::replay`] re-runs the
//! model forcing exactly that schedule, which turns any
//! counterexample into a deterministic regression test.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default preemption bound (see module docs).
pub const DEFAULT_PREEMPTIONS: usize = 3;
/// Default schedule budget per [`Explorer::check`] call.
pub const DEFAULT_SCHEDULES: usize = 50_000;
/// Default per-execution step bound (livelock/runaway guard).
pub const DEFAULT_STEPS: usize = 20_000;

/// Identifies a model thread within one execution (dense, from 0).
pub type ThreadId = usize;

/// What a model thread is about to do, as reported to the scheduler.
/// `loc` identifies the contended resource (atomic address, mutex
/// address, park/unpark target) for the dependence relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// First scheduling point of a spawned thread.
    Start,
    /// Atomic load at `loc`.
    Load { loc: usize },
    /// Atomic store at `loc`.
    Store { loc: usize },
    /// Atomic read-modify-write (swap/CAS/fetch_*) at `loc`.
    Rmw { loc: usize },
    /// A memory fence.
    Fence,
    /// A `put` or `take` on the [`crate::sync::ValueCell`] at `loc`.
    Cell { loc: usize },
    /// Mutex acquire; enabled only while the mutex is free.
    MutexLock { loc: usize },
    /// Mutex release.
    MutexUnlock { loc: usize },
    /// Park the calling thread; enabled only once a token is
    /// available (exact `std::thread::park` token semantics).
    Park,
    /// Deposit a token at (and wake) thread `target`.
    Unpark { target: ThreadId },
    /// Condvar wait on the condvar at `loc`; enabled once a notify
    /// took the thread off that condvar's wait queue.
    CondWait { loc: usize },
    /// Condvar notify at `loc`: wakes its oldest waiter, or every
    /// waiter if `all`; with none waiting it is lost, as in `std`.
    CondNotify { loc: usize, all: bool },
    /// Spawn of a new model thread.
    Spawn,
    /// Join on thread `target`; enabled once it finished.
    Join { target: ThreadId },
    /// Voluntary yield: runnable again only after another thread has
    /// taken a step (so spin loops cannot monopolize a schedule).
    Yield,
}

impl Op {
    /// The dependence relation for sleep sets. Conservative: anything
    /// not proven independent is dependent (over-approximation keeps
    /// pruning sound).
    fn depends(a: &Op, b: &Op) -> bool {
        use Op::*;
        match (a, b) {
            (Yield, _) | (_, Yield) => false,
            // A value cell's accesses meet each other only.
            (Cell { loc: x }, Cell { loc: y }) => x == y,
            (Cell { .. }, _) | (_, Cell { .. }) => false,
            (Load { .. }, Load { .. }) => false, // two reads commute
            (Load { loc: x }, Store { loc: y } | Rmw { loc: y })
            | (Store { loc: x } | Rmw { loc: x }, Load { loc: y })
            | (Store { loc: x } | Rmw { loc: x }, Store { loc: y } | Rmw { loc: y }) => x == y,
            (
                MutexLock { loc: x } | MutexUnlock { loc: x },
                MutexLock { loc: y } | MutexUnlock { loc: y },
            ) => x == y,
            (Load { .. } | Store { .. } | Rmw { .. }, MutexLock { .. } | MutexUnlock { .. })
            | (MutexLock { .. } | MutexUnlock { .. }, Load { .. } | Store { .. } | Rmw { .. }) => {
                false
            }
            // Park/Unpark/Spawn/Join/Fence/Start: treated as dependent
            // with everything (sound, rarely hot).
            _ => true,
        }
    }
}

/// Why an execution (and therefore the whole exploration) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (failed assertion, explicit bug trap).
    Panic,
    /// Every live thread was blocked — a parked thread nobody will
    /// wake (the lost-wake invariant), a mutex cycle, or a join knot.
    Deadlock,
    /// One execution exceeded [`Config::max_steps`] scheduling
    /// points: a livelock or an unbounded spin in the model.
    StepLimit,
    /// A replayed schedule diverged from the model (the model changed
    /// since the schedule was recorded, or the string is corrupt).
    ReplayDivergence,
}

/// A counterexample: what went wrong plus the schedule to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Classification of the failure.
    pub kind: FailureKind,
    /// Decision sequence; feed to [`Explorer::replay`].
    pub schedule: String,
    /// Human-readable detail (panic message, blocked-thread list).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: {} [schedule {}]",
            self.kind, self.detail, self.schedule
        )
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum preemptive context switches per schedule.
    pub max_preemptions: usize,
    /// Maximum schedules to run before giving up (sets
    /// [`Report::truncated`] when hit). Overridable at runtime via
    /// the `CHANOS_CHECK_BUDGET` environment variable, so CI can
    /// raise the budget without recompiling.
    pub max_schedules: usize,
    /// Maximum scheduling points in one execution.
    pub max_steps: usize,
    /// Enable sleep-set pruning (on by default; off is useful for
    /// validating the pruner against a full enumeration).
    pub sleep_sets: bool,
}

impl Default for Config {
    fn default() -> Config {
        let budget = std::env::var("CHANOS_CHECK_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SCHEDULES);
        Config {
            max_preemptions: DEFAULT_PREEMPTIONS,
            max_schedules: budget,
            max_steps: DEFAULT_STEPS,
            sleep_sets: true,
        }
    }
}

/// What an exploration did and found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules run to completion.
    pub schedules: usize,
    /// Branches cut by the sleep-set rule (provably redundant).
    pub pruned: usize,
    /// `true` if the schedule budget ran out before the space was
    /// exhausted.
    pub truncated: bool,
    /// The first counterexample found, if any.
    pub failure: Option<Failure>,
    /// Atomic-op orderings observed across all executions, indexed
    /// Relaxed / Acquire / Release / AcqRel / SeqCst.
    pub ordering_counts: [u64; 5],
}

impl Report {
    /// Panics with the counterexample if the exploration failed or
    /// was truncated; models call this as their last line.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!("model check failed: {f}");
        }
        assert!(
            !self.truncated,
            "model check truncated at {} schedules without exhausting the space",
            self.schedules
        );
    }
}

fn ordering_index(o: Ordering) -> usize {
    match o {
        Ordering::Relaxed => 0,
        Ordering::Acquire => 1,
        Ordering::Release => 2,
        Ordering::AcqRel => 3,
        Ordering::SeqCst => 4,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Controller: the per-execution baton and thread table.
// ---------------------------------------------------------------------------

/// Panic payload used to unwind model threads when an execution is
/// torn down early (failure elsewhere, pruned branch). Swallowed by
/// the model-thread trampoline; never reaches user code as a failure.
pub(crate) struct ExecutionAbort;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a scheduling point, `pending` says what it wants.
    Waiting,
    /// Holds the baton and is executing model code.
    Running,
    /// Ran to completion (or unwound during teardown).
    Finished,
}

struct Th {
    status: Status,
    pending: Op,
    /// `std::thread::park`-style token for Park/Unpark.
    token: bool,
    /// Set by `Yield`; cleared when any *other* thread is granted.
    yield_gated: bool,
    /// Granted flag for the handshake (consumed by the thread).
    go: bool,
}

struct CtlState {
    threads: Vec<Th>,
    /// Mutex owner table: shim-mutex address -> owning thread.
    mutex_owners: std::collections::HashMap<usize, ThreadId>,
    /// Condvar wait queues: shim-condvar address -> waiters, oldest
    /// first.
    cond_waiters: std::collections::HashMap<usize, std::collections::VecDeque<ThreadId>>,
    /// First failure recorded this execution.
    failure: Option<(FailureKind, String)>,
    /// Set when the scheduler tears the execution down; every entry
    /// point unwinds instead of waiting.
    aborting: bool,
    /// Scheduling points granted this execution.
    steps: usize,
    ordering_counts: [u64; 5],
    plan: Plan,
    /// The root thread was [`strand`]ed: its OS thread never ends.
    root_stranded: bool,
}

/// How one execution is scheduled, and the decisions it took. It lives
/// with the thread table because the thread that hands the baton on
/// makes the next decision itself: a step that continues the same
/// thread then costs no context switch.
struct Plan {
    cfg: Config,
    /// Decisions to replay before choosing freely.
    forced: Vec<ThreadId>,
    /// The sleep set to enter at a depth (the branch being explored).
    branch_sleep: Option<(usize, u64)>,
    /// Report a divergence from `forced` instead of asserting none.
    strict: bool,
    decisions: Vec<Decision>,
    /// Thread granted at the previous decision.
    prev: Option<ThreadId>,
    preemptions: usize,
    cur_sleep: u64,
    /// Set once the branch is redundant or over the preemption bound.
    /// It is then run to its end without recording decisions, rather
    /// than torn down at once: unwinding a thread in the middle of a
    /// critical section can run a destructor that takes the lock the
    /// same thread holds.
    pruned: bool,
    /// Set when the execution is over, for the explorer to tear down.
    end: Option<ExecEnd>,
}

/// The per-execution coordinator shared by the scheduler and every
/// model thread. Exposed only to the shim layer and the model-thread
/// trampoline.
pub(crate) struct Controller {
    state: Mutex<CtlState>,
    /// Where the explorer waits for the execution's end and teardown.
    cv: Condvar,
    /// Where each model thread waits for its grant.
    turns: [Condvar; 64],
}

thread_local! {
    /// (controller, my thread id) while executing model code.
    static CTX: std::cell::RefCell<Option<(Arc<Controller>, ThreadId)>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's model context, if it is a model thread of a
/// live execution.
pub(crate) fn ctx() -> Option<(Arc<Controller>, ThreadId)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(v: Option<(Arc<Controller>, ThreadId)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

fn plock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Controller {
    fn new(plan: Plan) -> Arc<Controller> {
        Arc::new(Controller {
            state: Mutex::new(CtlState {
                threads: Vec::new(),
                mutex_owners: std::collections::HashMap::new(),
                cond_waiters: std::collections::HashMap::new(),
                failure: None,
                aborting: false,
                steps: 0,
                ordering_counts: [0; 5],
                plan,
                root_stranded: false,
            }),
            cv: Condvar::new(),
            turns: std::array::from_fn(|_| Condvar::new()),
        })
    }

    /// Registers a new model thread (Waiting on its `Start` op);
    /// returns its id. Called by the *parent* before the OS thread
    /// exists, so the scheduler never observes a half-born thread.
    pub(crate) fn register(&self) -> ThreadId {
        let mut st = plock(&self.state);
        st.threads.push(Th {
            status: Status::Waiting,
            pending: Op::Start,
            token: false,
            yield_gated: false,
            go: false,
        });
        st.threads.len() - 1
    }

    /// One scheduling point: report `op`, hand the baton on, wait
    /// until granted. Resource effects (mutex owner, park token) are
    /// applied at grant time.
    pub(crate) fn switch(&self, me: ThreadId, op: Op) {
        // Never block (or double-panic) from inside an unwind: Drop
        // impls of model types hit shim ops while tearing down.
        if std::thread::panicking() {
            return;
        }
        let mut st = plock(&self.state);
        if st.aborting {
            drop(st);
            panic::panic_any(ExecutionAbort);
        }
        // `Start`, the registration op, is reported by a thread that
        // does not hold the baton: it only waits for its first grant,
        // which may already have come (`go` set before this OS thread
        // got here).
        if op != Op::Start {
            st.threads[me].pending = op;
            st.threads[me].status = Status::Waiting;
            self.hand_on(&mut st);
        }
        loop {
            if st.aborting {
                drop(st);
                panic::panic_any(ExecutionAbort);
            }
            if st.threads[me].go {
                st.threads[me].go = false;
                debug_assert_eq!(st.threads[me].status, Status::Running);
                return;
            }
            st = self.turns[me].wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Called by the thread releasing the baton: grants the next
    /// thread and wakes it (the caller's own grant it finds in `go`),
    /// or records the execution's end and wakes the explorer.
    fn hand_on(&self, st: &mut CtlState) {
        if st.aborting || st.plan.end.is_some() {
            self.cv.notify_all();
            return;
        }
        match decide(st) {
            Ok(chosen) => self.turns[chosen].notify_one(),
            Err(end) => {
                st.plan.end = Some(end);
                self.cv.notify_all();
            }
        }
    }

    pub(crate) fn record_ordering(&self, o: Ordering) {
        if std::thread::panicking() {
            return;
        }
        plock(&self.state).ordering_counts[ordering_index(o)] += 1;
    }

    /// Marks the calling model thread finished and hands the baton on.
    pub(crate) fn exit(&self, me: ThreadId) {
        let mut st = plock(&self.state);
        st.threads[me].status = Status::Finished;
        self.hand_on(&mut st);
    }

    /// Records a model panic (assertion failure) and finishes the
    /// thread; the scheduler turns it into a counterexample.
    pub(crate) fn record_panic(&self, me: ThreadId, msg: String) {
        let mut st = plock(&self.state);
        if st.failure.is_none() {
            st.failure = Some((FailureKind::Panic, msg));
        }
        st.threads[me].status = Status::Finished;
        self.hand_on(&mut st);
    }

    /// Deposits a park token at `target` (Unpark op effect).
    fn deposit_token(st: &mut CtlState, target: ThreadId) {
        st.threads[target].token = true;
    }
}

// ---------------------------------------------------------------------------
// Shim entry points (called from crate::sync / crate::thread).
// ---------------------------------------------------------------------------

/// Scheduling point for an atomic/fence op; no resource effect.
pub(crate) fn sync_op(op: Op, ordering: Ordering) {
    if let Some((ctl, me)) = ctx() {
        ctl.record_ordering(ordering);
        ctl.switch(me, op);
    }
}

/// Scheduling point for a value-cell access; it declares no ordering.
pub(crate) fn cell_op(loc: usize) {
    if let Some((ctl, me)) = ctx() {
        ctl.switch(me, Op::Cell { loc });
    }
}

/// Records `msg` as the calling model thread's panic without a second
/// unwind (which would abort), and blocks its OS thread for good.
pub(crate) fn strand(msg: &str) -> ! {
    let Some((ctl, me)) = ctx() else {
        panic!("{msg}")
    };
    plock(&ctl.state).root_stranded |= me == 0;
    ctl.record_panic(me, msg.to_string());
    loop {
        std::thread::park();
    }
}

/// Mutex acquire: scheduling point whose grant *is* the acquisition
/// (the scheduler only grants it while the mutex is free and marks
/// the caller as owner before waking it).
pub(crate) fn mutex_lock(loc: usize) {
    if let Some((ctl, me)) = ctx() {
        ctl.switch(me, Op::MutexLock { loc });
    }
}

/// Mutex try-acquire: a scheduling point, then a non-blocking claim.
/// Returns whether the mutex was free (and now owned by the caller).
pub(crate) fn mutex_try_lock(loc: usize) -> bool {
    if let Some((ctl, me)) = ctx() {
        // The *attempt* is the visible op; model it as a lock op so
        // the dependence relation treats it as contending.
        ctl.switch(me, Op::Fence);
        if std::thread::panicking() {
            return true;
        }
        let mut st = plock(&ctl.state);
        match st.mutex_owners.entry(loc) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(me);
                true
            }
        }
    } else {
        true
    }
}

pub(crate) fn mutex_unlock(loc: usize) {
    if let Some((ctl, me)) = ctx() {
        if std::thread::panicking() {
            // Bookkeeping only — a Drop during unwind must not wait
            // for the baton.
            plock(&ctl.state).mutex_owners.remove(&loc);
            return;
        }
        ctl.switch(me, Op::MutexUnlock { loc });
    }
}

/// Park with `std::thread::park` token semantics: enabled only while
/// a token is present; the grant consumes it.
pub(crate) fn park() {
    if let Some((ctl, me)) = ctx() {
        ctl.switch(me, Op::Park);
    }
}

pub(crate) fn unpark(target: ThreadId) {
    if let Some((ctl, me)) = ctx() {
        ctl.switch(me, Op::Unpark { target });
    }
}

pub(crate) fn yield_now() {
    if let Some((ctl, me)) = ctx() {
        ctl.switch(me, Op::Yield);
    } else {
        std::thread::yield_now();
    }
}

/// Whether the calling thread is a model thread of a live execution.
pub(crate) fn in_model() -> bool {
    ctx().is_some()
}

/// Condvar wait: releases the mutex at `mutex` and joins the wait
/// queue of the condvar at `cv` in the caller's current step — one
/// atomic move, as in `std` — then blocks until a notify picks it.
/// The caller relocks the mutex afterwards.
pub(crate) fn cond_wait(cv: usize, mutex: usize) {
    if let Some((ctl, me)) = ctx() {
        {
            let mut st = plock(&ctl.state);
            st.mutex_owners.remove(&mutex);
            st.cond_waiters.entry(cv).or_default().push_back(me);
        }
        ctl.switch(me, Op::CondWait { loc: cv });
    }
}

/// Condvar notify scheduling point; the grant picks the waiters.
pub(crate) fn cond_notify(cv: usize, all: bool) {
    if let Some((ctl, me)) = ctx() {
        ctl.switch(me, Op::CondNotify { loc: cv, all });
    }
}

/// Undoes a `mutex_try_lock` claim that could not be honored (only
/// reachable outside a model, but kept sound regardless).
pub(crate) fn mutex_release_claim(loc: usize) {
    if let Some((ctl, _)) = ctx() {
        plock(&ctl.state).mutex_owners.remove(&loc);
    }
}

// ---------------------------------------------------------------------------
// Model threads.
// ---------------------------------------------------------------------------

/// Handle to a spawned model thread; `join` is a scheduling point
/// enabled once the thread finished.
pub struct ModelJoinHandle<T> {
    tid: ThreadId,
    result: Arc<Mutex<Option<T>>>,
    os: Option<std::thread::JoinHandle<()>>,
}

impl<T> ModelJoinHandle<T> {
    /// The model-thread id (the number that appears in schedule
    /// strings and is the target for [`crate::thread::unpark`]).
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// Waits (as a model operation) for the thread and returns its
    /// result. Panics if the thread itself panicked — the panic is
    /// already the counterexample.
    pub fn join(mut self) -> T {
        if let Some((ctl, me)) = ctx() {
            ctl.switch(me, Op::Join { target: self.tid });
        }
        if let Some(os) = self.os.take() {
            let _ = os.join();
        }
        plock(&self.result)
            .take()
            .expect("joined thread left no result (it panicked)")
    }
}

impl<T> Drop for ModelJoinHandle<T> {
    fn drop(&mut self) {
        // The scheduler tears the thread down; do not block here.
        if let Some(os) = self.os.take() {
            drop(os);
        }
    }
}

/// Spawns a model thread. Must be called from model code (inside an
/// [`Explorer::check`] closure); outside one it falls back to a
/// plain `std::thread::spawn` + eager join semantics for tests.
pub(crate) fn model_spawn<T, F>(f: F) -> ModelJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (ctl, me) = ctx().expect("check::thread::spawn outside a model execution");
    // The spawn is itself a visible op (it makes a new thread
    // runnable); schedule it first.
    ctl.switch(me, Op::Spawn);
    let tid = ctl.register();
    let result = Arc::new(Mutex::new(None));
    let os = {
        let ctl = ctl.clone();
        let result = result.clone();
        std::thread::Builder::new()
            .name(format!("model-{tid}"))
            .spawn(move || trampoline(ctl, tid, result, f))
            .expect("spawn model thread")
    };
    ModelJoinHandle {
        tid,
        result,
        os: Some(os),
    }
}

/// Body of every model OS thread: wait for the first grant, run the
/// closure, classify the outcome.
fn trampoline<T, F>(ctl: Arc<Controller>, tid: ThreadId, result: Arc<Mutex<Option<T>>>, f: F)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    set_ctx(Some((ctl.clone(), tid)));
    let out = panic::catch_unwind(AssertUnwindSafe(|| {
        // First scheduling point: the registered `Start` op. The
        // parent made us Waiting; we block until granted.
        ctl.switch(tid, Op::Start);
        f()
    }));
    set_ctx(None);
    match out {
        Ok(v) => {
            *plock(&result) = Some(v);
            ctl.exit(tid);
        }
        Err(payload) => {
            if payload.downcast_ref::<ExecutionAbort>().is_some() {
                ctl.exit(tid);
            } else {
                ctl.record_panic(tid, panic_message(payload.as_ref()));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The explorer: DFS over schedules.
// ---------------------------------------------------------------------------

/// One decision point, as remembered for backtracking.
struct Decision {
    /// Threads that were enabled here.
    enabled: Vec<ThreadId>,
    /// The thread granted in the execution this record came from.
    chosen: ThreadId,
    /// Thread granted at the previous decision (preemption basis).
    prev: Option<ThreadId>,
    /// Whether `prev` was enabled here (a switch away = preemption).
    prev_enabled: bool,
    /// Preemptions spent on the prefix *before* this decision.
    preemptions_before: usize,
    /// Sleep set on entry (before this branch's choice).
    sleep_entry: u64,
    /// All choices explored at this point so far (bitmask).
    explored: u64,
}

enum ExecEnd {
    /// All threads finished.
    Done,
    /// Sleep-set cut: every enabled thread was asleep.
    Pruned,
    /// A failure was recorded (panic/deadlock/step limit).
    Failed(FailureKind, String),
}

struct ExecResult {
    decisions: Vec<Decision>,
    end: ExecEnd,
}

/// The model-checking front end. Construct with a [`Config`], call
/// [`Explorer::check`] with the model closure.
pub struct Explorer {
    cfg: Config,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new(Config::default())
    }
}

impl Explorer {
    /// Creates an explorer with the given parameters.
    pub fn new(cfg: Config) -> Explorer {
        Explorer { cfg }
    }

    /// Explores the model's schedules until the space is exhausted, a
    /// counterexample is found, or the budget runs out.
    pub fn check<F>(&self, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let model = Arc::new(model);
        let mut report = Report {
            schedules: 0,
            pruned: 0,
            truncated: false,
            failure: None,
            ordering_counts: [0; 5],
        };
        // DFS stack of decision records from the latest execution,
        // with exploration history merged in.
        let mut stack: Vec<Decision> = Vec::new();
        let mut forced: Vec<ThreadId> = Vec::new();
        let mut branch_sleep: Option<(usize, u64)> = None;
        loop {
            if report.schedules + report.pruned >= self.cfg.max_schedules {
                report.truncated = true;
                return report;
            }
            let res = run_execution(
                model.clone(),
                &self.cfg,
                &forced,
                branch_sleep,
                None,
                &mut report.ordering_counts,
            );
            match res.end {
                ExecEnd::Done => report.schedules += 1,
                ExecEnd::Pruned => report.pruned += 1,
                ExecEnd::Failed(kind, detail) => {
                    report.schedules += 1;
                    let schedule = schedule_string(&res.decisions);
                    report.failure = Some(Failure {
                        kind,
                        schedule,
                        detail,
                    });
                    return report;
                }
            }
            // Merge the fresh decisions into the stack: prefix
            // records keep their exploration history, the suffix is
            // new.
            let fresh = res.decisions;
            let keep = stack.len().min(fresh.len());
            let mut merged: Vec<Decision> = Vec::with_capacity(fresh.len());
            for (i, d) in fresh.into_iter().enumerate() {
                if i < keep && i < forced.len() {
                    // Replayed prefix: keep accumulated `explored`.
                    let mut old = std::mem::replace(
                        &mut stack[i],
                        Decision {
                            enabled: Vec::new(),
                            chosen: 0,
                            prev: None,
                            prev_enabled: false,
                            preemptions_before: 0,
                            sleep_entry: 0,
                            explored: 0,
                        },
                    );
                    old.chosen = d.chosen;
                    old.explored |= 1 << d.chosen;
                    merged.push(old);
                } else {
                    merged.push(d);
                }
            }
            stack = merged;
            // Backtrack: find the deepest decision with an untried,
            // non-sleeping, preemption-feasible alternative.
            loop {
                let Some(d) = stack.last() else {
                    return report; // space exhausted
                };
                let depth = stack.len() - 1;
                let mut next: Option<ThreadId> = None;
                for &t in &d.enabled {
                    if d.explored & (1 << t) != 0 {
                        continue;
                    }
                    if self.cfg.sleep_sets && d.sleep_entry & (1 << t) != 0 {
                        continue;
                    }
                    let is_preemption = d.prev_enabled && Some(t) != d.prev;
                    if is_preemption && d.preemptions_before >= self.cfg.max_preemptions {
                        continue;
                    }
                    next = Some(t);
                    break;
                }
                match next {
                    Some(t) => {
                        let d = stack.last_mut().expect("nonempty");
                        let sleep = if self.cfg.sleep_sets {
                            // Previously explored siblings sleep in
                            // this branch.
                            d.sleep_entry | d.explored
                        } else {
                            0
                        };
                        d.explored |= 1 << t;
                        d.chosen = t;
                        forced = stack[..depth].iter().map(|d| d.chosen).collect();
                        forced.push(t);
                        branch_sleep = Some((depth, sleep));
                        break;
                    }
                    None => {
                        stack.pop();
                    }
                }
            }
        }
    }

    /// Re-runs the model forcing the given schedule string; returns
    /// the failure it reproduces (or `None` if the schedule completes
    /// cleanly — meaning the bug it once witnessed is fixed).
    pub fn replay<F>(&self, schedule: &str, model: F) -> Option<Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let forced: Vec<ThreadId> = schedule
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap_or(usize::MAX))
            .collect();
        if forced.contains(&usize::MAX) {
            return Some(Failure {
                kind: FailureKind::ReplayDivergence,
                schedule: schedule.to_string(),
                detail: "unparsable schedule string".to_string(),
            });
        }
        let mut counts = [0u64; 5];
        let res = run_execution(
            Arc::new(model),
            &self.cfg,
            &forced,
            None,
            Some(forced.len()),
            &mut counts,
        );
        match res.end {
            ExecEnd::Done | ExecEnd::Pruned => None,
            ExecEnd::Failed(kind, detail) => Some(Failure {
                kind,
                schedule: schedule_string(&res.decisions),
                detail,
            }),
        }
    }
}

fn schedule_string(decisions: &[Decision]) -> String {
    decisions
        .iter()
        .map(|d| d.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Is thread `t` able to take its pending op right now?
fn is_enabled(st: &CtlState, t: ThreadId) -> bool {
    let th = &st.threads[t];
    if th.status != Status::Waiting {
        return false;
    }
    match th.pending {
        Op::MutexLock { loc } => !st.mutex_owners.contains_key(&loc),
        Op::Park => th.token,
        Op::Join { target } => st.threads[target].status == Status::Finished,
        Op::CondWait { loc } => !st.cond_waiters.get(&loc).is_some_and(|q| q.contains(&t)),
        Op::Yield => !th.yield_gated,
        _ => true,
    }
}

/// Runs one execution: spawns the root model thread and lets the
/// threads schedule one another along `forced`, then by free choice,
/// until the execution ends; records the decisions. `replay_strict`
/// (Some(len)) turns schedule divergence into a failure instead of
/// continuing greedily.
fn run_execution(
    model: Arc<dyn Fn() + Send + Sync>,
    cfg: &Config,
    forced: &[ThreadId],
    branch_sleep: Option<(usize, u64)>,
    replay_strict: Option<usize>,
    ordering_counts: &mut [u64; 5],
) -> ExecResult {
    let ctl = Controller::new(Plan {
        cfg: cfg.clone(),
        forced: forced.to_vec(),
        branch_sleep,
        strict: replay_strict.is_some(),
        decisions: Vec::new(),
        prev: None,
        preemptions: 0,
        cur_sleep: 0,
        pruned: false,
        end: None,
    });
    let root = ctl.register();
    debug_assert_eq!(root, 0);
    let result = Arc::new(Mutex::new(None));
    let os_root = {
        let ctl = ctl.clone();
        let result = result.clone();
        std::thread::Builder::new()
            .name("model-0".to_string())
            .spawn(move || trampoline(ctl, root, result, move || model()))
            .expect("spawn root model thread")
    };
    // Grant the root its first step; from then on the threads pass
    // the baton among themselves until one of them ends the execution.
    let mut st = plock(&ctl.state);
    ctl.hand_on(&mut st);
    while st.plan.end.is_none() {
        st = ctl.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let end = st.plan.end.take().expect("the execution ended");
    let end = finish(&ctl, st, end);
    // Join the root OS thread (grant/abort already released it).
    if !plock(&ctl.state).root_stranded {
        let _ = os_root.join();
    }
    // Fold this execution's recorded orderings into the caller's
    // running tally.
    let mut st = plock(&ctl.state);
    for (acc, n) in ordering_counts.iter_mut().zip(st.ordering_counts) {
        *acc += n;
    }
    ExecResult {
        decisions: std::mem::take(&mut st.plan.decisions),
        end,
    }
}

/// Takes one decision: picks the thread that takes the next step and
/// grants it, or says how the execution ends.
fn decide(st: &mut CtlState) -> Result<ThreadId, ExecEnd> {
    // Past its cut a pruned branch is outside the exploration: however
    // it ends, it ends as `Pruned`, and nothing it meets is reported.
    let pruned = st.plan.pruned;
    let end = |e| Err(if pruned { ExecEnd::Pruned } else { e });
    if let Some((kind, detail)) = st.failure.take() {
        return end(ExecEnd::Failed(kind, detail));
    }
    if st.threads.iter().all(|t| t.status == Status::Finished) {
        return end(ExecEnd::Done);
    }
    if st.steps >= st.plan.cfg.max_steps {
        let limit = st.plan.cfg.max_steps;
        let detail = format!("execution exceeded {limit} scheduling points");
        return end(ExecEnd::Failed(FailureKind::StepLimit, detail));
    }
    let mut enabled: Vec<ThreadId> = (0..st.threads.len())
        .filter(|&t| is_enabled(st, t))
        .collect();
    if enabled.is_empty() {
        // If every would-be-runnable thread is only yield-gated,
        // lift the gates (a spinner must eventually re-run).
        let gated: Vec<ThreadId> = (0..st.threads.len())
            .filter(|&t| {
                st.threads[t].status == Status::Waiting
                    && matches!(st.threads[t].pending, Op::Yield)
                    && st.threads[t].yield_gated
            })
            .collect();
        if gated.is_empty() {
            let blocked: Vec<String> = (0..st.threads.len())
                .filter(|&t| st.threads[t].status == Status::Waiting)
                .map(|t| format!("t{} blocked on {:?}", t, st.threads[t].pending))
                .collect();
            let detail = format!("all live threads blocked: {}", blocked.join(", "));
            return end(ExecEnd::Failed(FailureKind::Deadlock, detail));
        }
        for t in gated {
            st.threads[t].yield_gated = false;
        }
        enabled = (0..st.threads.len())
            .filter(|&t| is_enabled(st, t))
            .collect();
    }
    let plan = &mut st.plan;
    let depth = plan.decisions.len();
    // Entry sleep set for this decision (branch point override).
    if let Some((d, sleep)) = plan.branch_sleep {
        if depth == d {
            plan.cur_sleep = sleep;
        }
    }
    let prev = plan.prev;
    let prev_enabled = prev.is_some_and(|p| enabled.contains(&p));
    // How a pruned branch is run out: the previous thread while it can
    // go on, else the lowest enabled one.
    let run_out = prev.filter(|_| prev_enabled).unwrap_or(enabled[0]);
    let chosen = if plan.pruned {
        run_out
    } else if depth < plan.forced.len() {
        let want = plan.forced[depth];
        if !enabled.contains(&want) {
            if plan.strict {
                return Err(ExecEnd::Failed(
                    FailureKind::ReplayDivergence,
                    format!("schedule step {depth} wants t{want}, not enabled"),
                ));
            }
            // Backtracking replays must match by construction.
            unreachable!("forced prefix diverged at step {depth}");
        }
        want
    } else {
        // Free choice: prefer continuing `prev` (no preemption),
        // else the lowest candidate we can afford.
        let candidates: Vec<ThreadId> = enabled
            .iter()
            .copied()
            .filter(|&t| !plan.cfg.sleep_sets || plan.cur_sleep & (1 << t) == 0)
            .collect();
        match prev.filter(|p| candidates.contains(p)) {
            // Continuing the previous thread is free.
            Some(p) => p,
            // prev is enabled but asleep (or gone): any pick is a
            // preemption; prune if over budget, or if every candidate
            // sleeps.
            None if candidates.is_empty()
                || prev_enabled && plan.preemptions >= plan.cfg.max_preemptions =>
            {
                plan.pruned = true;
                run_out
            }
            None => candidates[0],
        }
    };
    if !plan.pruned {
        let preempted = prev_enabled && Some(chosen) != prev;
        plan.decisions.push(Decision {
            enabled,
            chosen,
            prev,
            prev_enabled,
            preemptions_before: plan.preemptions,
            sleep_entry: plan.cur_sleep,
            explored: 1 << chosen,
        });
        plan.preemptions += usize::from(preempted);
    }
    // Sleep-set maintenance: executing `chosen`'s op wakes every
    // sleeping thread whose own pending op depends on it.
    if plan.cfg.sleep_sets && !plan.pruned {
        let executed = st.threads[chosen].pending;
        plan.cur_sleep &= !(1u64 << chosen);
        for t in 0..st.threads.len() {
            if plan.cur_sleep & (1 << t) != 0
                && st.threads[t].status == Status::Waiting
                && Op::depends(&executed, &st.threads[t].pending)
            {
                plan.cur_sleep &= !(1u64 << t);
            }
        }
    }
    plan.prev = Some(chosen);
    // Apply the op's resource effects, grant the baton.
    grant(st, chosen);
    st.steps += 1;
    Ok(chosen)
}

/// Applies `chosen`'s op effects under the lock and marks it granted.
fn grant(st: &mut CtlState, chosen: ThreadId) {
    let pending = st.threads[chosen].pending;
    match pending {
        Op::MutexLock { loc } => {
            let prev = st.mutex_owners.insert(loc, chosen);
            debug_assert!(prev.is_none(), "granted a held mutex");
        }
        Op::MutexUnlock { loc } => {
            st.mutex_owners.remove(&loc);
        }
        Op::Park => {
            debug_assert!(st.threads[chosen].token, "granted park without token");
            st.threads[chosen].token = false;
        }
        Op::Unpark { target } => Controller::deposit_token(st, target),
        Op::CondNotify { loc, all } => {
            if let Some(q) = st.cond_waiters.get_mut(&loc) {
                if all {
                    q.clear();
                } else {
                    q.pop_front();
                }
            }
        }
        Op::Yield => {}
        _ => {}
    }
    // Any grant lifts every *other* thread's yield gate.
    for (t, th) in st.threads.iter_mut().enumerate() {
        if t != chosen {
            th.yield_gated = false;
        }
    }
    if matches!(pending, Op::Yield) {
        st.threads[chosen].yield_gated = true;
    }
    st.threads[chosen].status = Status::Running;
    st.threads[chosen].go = true;
}

/// How long a teardown may go without a thread finishing its unwind.
const TEARDOWN_LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

/// Tears the execution down: aborts every still-live thread and waits
/// for them to unwind, then returns `end`. The unwind runs the model's
/// destructors outside the schedule, so one that blocks for good (a
/// lock its own thread holds) is reported here rather than hanging
/// the exploration.
fn finish(ctl: &Arc<Controller>, mut st: MutexGuard<'_, CtlState>, end: ExecEnd) -> ExecEnd {
    st.aborting = true;
    ctl.turns.iter().for_each(Condvar::notify_all);
    let live = |st: &CtlState| {
        st.threads
            .iter()
            .filter(|t| t.status != Status::Finished)
            .count()
    };
    while live(&st) > 0 {
        let before = live(&st);
        let (next, wait) = ctl
            .cv
            .wait_timeout(st, TEARDOWN_LIMIT)
            .unwrap_or_else(|e| e.into_inner());
        st = next;
        assert!(
            !wait.timed_out() || live(&st) < before,
            "teardown hung: {} thread(s) blocked in a destructor while unwinding",
            live(&st)
        );
    }
    end
}
