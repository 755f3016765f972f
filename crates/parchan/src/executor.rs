//! An M:N executor: lightweight tasks over a pool of worker threads.
//!
//! This is the §3 model on *real* hardware: `start { foo(); }` is
//! [`Runtime::spawn`], threads are cheap (a heap allocation, not a
//! stack and a kernel object), and all communication happens through
//! the channels in [`crate::chan`].
//!
//! The pool is std-only (no external dependencies) and, like the
//! paper argues a multicore OS must, treats *placement* as a
//! first-class scheduler input rather than advisory metadata. Task
//! dispatch — push, pop, steal, pinned placement, and the park/unpark
//! handshake — takes **no lock** on any path (zero `Mutex::lock`
//! calls, audited by the facade lint over the queue modules); a lock
//! remains only where a worker really sleeps (`park_lock`):
//!
//! * Each worker owns a **local run queue** ([`crate::queue`]) — an
//!   unstealable LIFO slot for the task that just woke (cache-hot
//!   message ping-pong) plus a fixed-size SPMC ring. The owner
//!   pushes/pops with plain stores and a CAS; an idle sibling
//!   **steals half the ring in one batch** via a CAS on the packed
//!   head word, sweeping victims from a randomized start.
//! * A global lock-free **injector** ([`crate::injector`]) absorbs
//!   ring overflow and spawns/wakes from off-pool threads
//!   (`block_on` callers, the timer thread); consumers drain it in
//!   FIFO bursts.
//! * [`Runtime::spawn_pinned`] places a task on a per-worker
//!   **unstealable** queue — an injector of its own that any thread
//!   pushes to and only its worker takes from: pinned tasks are polled
//!   only by their assigned worker, which is what makes
//!   `chanos-rt::spawn_on` placement real on this backend. The worker
//!   keeps what one take returned and pops it before taking again, so
//!   pinned tasks run in arrival order.
//! * An **idle bitmask + searching counter** ([`crate::idle`]) runs
//!   the Dekker-style park protocol: producers publish work, fence,
//!   and read one word; workers register, fence, and re-sweep before
//!   blocking. `park_lock`/`park_cv` are touched only when a worker
//!   actually sleeps.
//! * A second injector — the **high-priority lane** — carries tasks
//!   spawned or woken with [`Priority::High`]. Every dispatch checks
//!   it *before* the local LIFO slot and ring, and searching workers
//!   drain it before stealing normal rings, so latency-critical
//!   tasks jump any ring backlog regardless of which worker they
//!   land on ([`Runtime::spawn_with_priority`]). The pre-park
//!   re-check covers the lane too — a worker never sleeps while a
//!   high task waits (model-checked on this code:
//!   `a_high_task_reaches_a_parking_worker` in `tests/protocols.rs`).
//!
//! Fairness: the LIFO slot is capped at [`LIFO_CAP`] consecutive
//! polls, the injector is polled first every [`INJECTOR_INTERVAL`]
//! dispatches, and pinned/local priority alternates every dispatch,
//! so no queue can starve another.

use crate::counters::{next_task_key, Counter, Entered, Table};
use crate::idle::{IdleSet, MAX_WORKERS};
use crate::injector::{Burst, Injector};
use crate::queue::{LifoSlot, Ring};
use crate::sync::{
    catch_unwind, fence, thread, Arc, AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize,
    Condvar, Mutex, MutexGuard, Ordering, Weak,
};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Task lifecycle states (see `TaskCell::state`).
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const COMPLETE: u8 = 4;

/// Consecutive polls the LIFO slot may win before the FIFO queue
/// gets a turn (a self-waking task must not starve its siblings).
const LIFO_CAP: u8 = 16;

/// Every this-many dispatches a worker polls the injector *first*,
/// so globally-submitted work cannot be starved by local queues.
const INJECTOR_INTERVAL: u32 = 61;

/// Backstop for the park condvar: a parked worker re-sweeps at this
/// interval even if it missed a notification.
const PARK_BACKSTOP: Duration = Duration::from_millis(50);

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Locks a mutex, ignoring poisoning (a panicked task must not take
/// the whole runtime down; panics are surfaced via join handles).
/// (`chanos-parchan` is dependency-free, so it cannot use the shared
/// `chanos_sim::plock`.)
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Priority class of a task. The scheduler is two-level: `High`
/// tasks route through a dedicated injector lane that every dispatch
/// consults before its local queues, so a high task's queueing delay
/// is bounded by one poll, not by ring depth. `Normal` is the
/// default and the only class the plain `spawn` entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Batch/background work: local LIFO slot, ring, injector.
    #[default]
    Normal,
    /// Latency-critical work: the high lane, checked first on every
    /// dispatch and preferred by steal sweeps.
    High,
}

pub(crate) struct TaskCell {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    rt: Weak<RtInner>,
    /// Worker this task is pinned to; pinned tasks live on that
    /// worker's unstealable queue and are polled only by it.
    pin: Option<usize>,
    /// Priority class; fixed at spawn (`Normal` for every pinned task:
    /// `spawn_pinned` takes no priority).
    priority: Priority,
    /// The task's [`current_task_key`]; fixed at spawn.
    key: u64,
    /// Intrusive link for [`crate::injector`]: a task is in at most
    /// one queue at a time (`SCHEDULED` state exclusivity), so one
    /// embedded pointer suffices and injector pushes allocate
    /// nothing. A shim atomic like the rest, so the injector's
    /// in-crate check explores its splices.
    pub(crate) next_injected: AtomicPtr<TaskCell>,
}

#[cfg(test)]
impl TaskCell {
    /// A cell of no runtime, for the queue modules' unit tests.
    pub(crate) fn detached() -> Arc<TaskCell> {
        Arc::new(TaskCell {
            future: Mutex::new(None),
            state: AtomicU8::new(SCHEDULED),
            rt: Weak::new(),
            pin: None,
            priority: Priority::Normal,
            key: 0,
            next_injected: AtomicPtr::new(std::ptr::null_mut()),
        })
    }
}

impl Wake for TaskCell {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(rt) = self.rt.upgrade() {
                            schedule(&rt, self.clone(), true);
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or finished.
                SCHEDULED | NOTIFIED | COMPLETE => return,
                _ => unreachable!("invalid task state"),
            }
        }
    }
}

struct WorkerState {
    /// Lock-free SPMC ring: owner pushes/pops, siblings batch-steal.
    rq: Ring,
    /// Unstealable owner-only slot for the most recent local wake.
    lifo: LifoSlot,
    /// Unstealable queue for tasks pinned to this worker: any thread
    /// pushes, only this worker takes (`pop_pinned`).
    pinned: Injector,
    /// `true` = a wakeup was delivered and not yet consumed. Only
    /// touched when a worker actually blocks (or is handed a token);
    /// the lock-free handshake lives in [`IdleSet`].
    park_lock: Mutex<bool>,
    park_cv: Condvar,
}

impl WorkerState {
    fn new() -> WorkerState {
        WorkerState {
            rq: Ring::new(),
            lifo: LifoSlot::new(),
            pinned: Injector::new(),
            park_lock: Mutex::new(false),
            park_cv: Condvar::new(),
        }
    }
}

struct RtInner {
    /// Lock-free injector for off-pool spawns/wakes and ring
    /// overflow.
    injector: Injector,
    /// The high-priority lane: every spawn/wake of a `Priority::High`
    /// task lands here, and every dispatch checks
    /// it before any local queue. Trading away cache-hot LIFO
    /// placement buys the latency guarantee: a high task is never
    /// behind ring backlog.
    hi: Injector,
    workers: Vec<WorkerState>,
    /// Idle bitmask + searching counter: the lock-free park/unpark
    /// handshake.
    idle: IdleSet,
    shutdown: AtomicBool,
    live_tasks: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    started: Instant,
    /// Every counter of this runtime, `sched.*` and `chan.*` included.
    counters: Table,
    /// Every live task, for shutdown reaping: abandoned tasks must
    /// complete their `JoinState` (joiners would hang forever
    /// otherwise). Entries are `Weak`; compacted amortizedly.
    tasks: Mutex<Vec<Weak<TaskCell>>>,
    /// Cells handed to `schedule` after shutdown: parked here so the
    /// last task reference is never dropped from inside a waker
    /// callback (which may hold the caller's locks); the shutdown
    /// reaper drains it lock-free-ly.
    graveyard: Mutex<Vec<Arc<TaskCell>>>,
}

/// Routes a ready task to a run queue and wakes a worker for it.
/// `from_wake` distinguishes waker-originated schedules from initial
/// spawns so the `sched.wakes_*` routing counters count wakes only.
fn schedule(rt: &Arc<RtInner>, cell: Arc<TaskCell>, from_wake: bool) {
    // ordering: SeqCst with the store in `shutdown` keeps the
    // graveyard decision in the global order; a schedule that still
    // reads `false` parks its cell in a run queue, whose tasks the
    // reaper completes through the registry.
    if rt.shutdown.load(Ordering::SeqCst) {
        // Workers are gone (or going); the shutdown reaper owns
        // completion of every registered task. Do NOT drop `cell`
        // inline: we may be the last reference, and this wake often
        // fires from inside a channel's Drop *while its mutex is
        // held* — recursively dropping the task's future (which owns
        // endpoints of that same channel) would re-lock the mutex on
        // this thread and deadlock. Park the ref in the graveyard;
        // the reaper frees it outside all locks.
        plock(&rt.graveyard).push(cell);
        return;
    }
    let me = local_worker(rt);
    let count_wake = |c| {
        if from_wake {
            rt.counters.add(me, c, 1);
        }
    };
    if let Some(w) = cell.pin {
        count_wake(Counter::WakesPinned);
        rt.workers[w].pinned.push(cell);
        rt.notify_specific(w);
        return;
    }
    if cell.priority == Priority::High {
        // Always the high lane — even for a wake from the running
        // worker, where the LIFO slot would be cache-hotter: the
        // lane is what every dispatch (and every searcher) checks
        // first, so it is the only placement that preserves the
        // jump-the-backlog guarantee in all schedules.
        count_wake(Counter::PriorityWakes);
        rt.hi.push(cell);
        rt.notify_work();
        return;
    }
    if let Some(me) = me {
        count_wake(Counter::WakesLocal);
        let ws = &rt.workers[me];
        // SAFETY: `local_worker` proved the calling thread *is*
        // worker `me` of this runtime — the owner of its LIFO
        // slot and ring.
        if let Some(prev) = unsafe { ws.lifo.put(cell) } {
            push_local_or_overflow(rt, me, prev);
            // This worker is busy (it is running us); invite a
            // sibling to steal the backlog.
            rt.notify_work();
        } else if !ws.rq.is_empty() {
            rt.notify_work();
        }
        return;
    }
    count_wake(Counter::WakesInjector);
    rt.injector.push(cell);
    rt.notify_work();
}

/// Owner-side ring push with overflow: a full ring spills half of
/// itself (plus the new task) to the injector as one pre-linked
/// chain, keeping recent wakes local and migrating the oldest work.
fn push_local_or_overflow(rt: &Arc<RtInner>, me: usize, task: Arc<TaskCell>) {
    let ws = &rt.workers[me];
    // SAFETY: caller verified the current thread is worker `me`.
    if let Err(task) = unsafe { ws.rq.push(task) } {
        rt.count(Counter::Overflows, 1);
        let mut spill = Vec::with_capacity(crate::queue::LOCAL_QUEUE_CAP / 2 + 1);
        for _ in 0..crate::queue::LOCAL_QUEUE_CAP / 2 {
            // SAFETY: same owner thread.
            match unsafe { ws.rq.pop() } {
                Some(t) => spill.push(t),
                None => break,
            }
        }
        spill.push(task);
        rt.injector.push_batch(spill);
    }
}

/// The calling thread's worker index, if it is a worker of *this*
/// runtime (tests run several runtimes side by side).
fn local_worker(rt: &RtInner) -> Option<usize> {
    let id = WORKER_ID.with(|w| w.get())?;
    let ours = WORKER_RT.with(|w| {
        w.borrow()
            .as_ref()
            .is_some_and(|wk| std::ptr::eq(wk.as_ptr(), rt))
    });
    ours.then_some(id)
}

impl RtInner {
    /// Counts a scheduler event in the calling worker's block (the
    /// shared one when the caller is not a worker of this runtime).
    fn count(&self, c: Counter, v: u64) {
        self.counters.add(local_worker(self), c, v);
    }

    /// Producer half of the park protocol, for stealable work: after
    /// publishing to a queue, wake one worker — unless a searching
    /// worker is already guaranteed to find it.
    fn notify_work(&self) {
        // ordering: Dekker producer side — the SeqCst fence orders
        // our queue publication before the `searching`/mask reads
        // below, so a worker whose registration we miss re-checks
        // *after* our publish and finds the work itself.
        // Model-checked on this code by
        // `off_pool_spawns_meet_a_parking_worker` (catches the scan
        // moved before the publish, and a searcher that never ends).
        fence(Ordering::SeqCst);
        if self.idle.searching() > 0 {
            // A searcher either finds this work in its sweep or
            // re-checks for it after registering idle.
            self.count(Counter::UnparksElided, 1);
            return;
        }
        if let Some(w) = self.idle.claim_any(self.workers.len()) {
            self.deliver_token(w);
        }
    }

    /// Producer half for *pinned* work: only worker `w` may run it,
    /// so claim that specific worker (searchers don't help here, so
    /// nothing is elided). Model-checked on this code by
    /// `a_pinned_task_reaches_its_parking_worker_past_a_searching_sibling`
    /// (catches the wake elided for a searcher, and a re-check that
    /// skips the pinned queue).
    fn notify_specific(&self, w: usize) {
        // ordering: same Dekker fence as `notify_work` — publication
        // of the pinned push must precede the mask read inside
        // `claim`.
        fence(Ordering::SeqCst);
        if self.idle.claim(w) {
            self.deliver_token(w);
        }
    }

    /// Delivers the wake token claimed from the idle mask. The mutex
    /// here is the OS-blocking backend of the protocol, reached only
    /// for a worker that really parked (or is about to).
    fn deliver_token(&self, w: usize) {
        let ws = &self.workers[w];
        let mut g = plock(&ws.park_lock);
        *g = true;
        ws.park_cv.notify_one();
    }

    /// Anything worker `me` could run right now? Mirrors the sources
    /// `find_task` consults; used for the pre-park re-check.
    /// Lock-free.
    fn has_work(&self, me: usize) -> bool {
        let ws = &self.workers[me];
        // The high lane is part of every pre-park re-check: a worker
        // parking while a high task sits here would be a priority
        // inversion (the latency-critical task waits on the park
        // backstop). Model-checked on this code by
        // `a_high_task_reaches_a_parking_worker`.
        if !self.hi.is_empty() {
            return true;
        }
        // The pinned queue is the one source only this worker may
        // drain: no searching sibling covers it. (The burst of it the
        // worker holds is empty here: `find_task` just came up dry.)
        if !ws.pinned.is_empty() {
            return true;
        }
        if !self.injector.is_empty() || ws.lifo.is_occupied() || !ws.rq.is_empty() {
            return true;
        }
        self.workers
            .iter()
            .enumerate()
            .any(|(v, vs)| v != me && !vs.rq.is_empty())
    }

    /// Registers a task for shutdown reaping. Compaction keeps the
    /// vector within a constant factor of the live-task count.
    fn register(&self, cell: &Arc<TaskCell>) {
        let mut t = plock(&self.tasks);
        if t.len() >= 64 && t.len() >= 2 * self.live_tasks.load(Ordering::Relaxed) {
            t.retain(|w| w.strong_count() > 0);
        }
        t.push(Arc::downgrade(cell));
    }

    /// Takes the task's future out and drops it without polling. The
    /// wrapper's completion guard then finishes the `JoinState` with
    /// `Panicked("runtime shut down")`, waking every joiner.
    /// Idempotent: racing reapers find the slot empty.
    fn reap_cell(cell: &Arc<TaskCell>) {
        let fut = plock(&cell.future).take();
        cell.state.store(COMPLETE, Ordering::Release);
        drop(fut);
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Vec<Weak<RtInner>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    static WORKER_ID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    /// The runtime the current worker thread belongs to (a thread is
    /// a worker of at most one runtime for its whole life).
    static WORKER_RT: std::cell::RefCell<Option<Weak<RtInner>>> =
        const { std::cell::RefCell::new(None) };
    /// Key and class of the task this thread is polling, or of the
    /// future its `block_on` drives; `None` outside both.
    static POLLING: std::cell::Cell<Option<(u64, Priority)>> =
        const { std::cell::Cell::new(None) };
}

/// Names the task the thread polls (`POLLING`) until dropped.
struct PollingGuard {
    outer: Option<(u64, Priority)>,
}

impl PollingGuard {
    fn enter(key: u64, priority: Priority) -> PollingGuard {
        PollingGuard {
            outer: POLLING.with(|p| p.replace(Some((key, priority)))),
        }
    }
}

impl Drop for PollingGuard {
    fn drop(&mut self) {
        POLLING.with(|p| p.set(self.outer));
    }
}

/// The key of the task the calling thread is polling, or of the
/// future its [`Runtime::block_on`] drives: stable across the task's
/// suspensions and steals, and unique among the tasks of the process.
/// `None` outside both.
pub fn current_task_key() -> Option<u64> {
    POLLING.with(|p| p.get().map(|(key, _)| key))
}

/// The class of the task the calling thread is polling; `Normal` for
/// a `block_on` driver and outside any task.
pub fn current_priority() -> Priority {
    POLLING.with(|p| p.get().map_or(Priority::Normal, |(_, priority)| priority))
}

/// A handle for spawning onto (and inspecting) a running [`Runtime`]
/// from inside its tasks; obtained via [`current`] or
/// [`Runtime::handle`].
#[derive(Clone)]
pub struct Handle {
    inner: Arc<RtInner>,
}

/// Returns a handle to the runtime whose worker (or `block_on`) is
/// executing the calling code, if any.
pub fn current() -> Option<Handle> {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .and_then(Weak::upgrade)
            .map(|inner| Handle { inner })
    })
}

/// Returns `true` when called from inside a [`Runtime`] worker or a
/// `block_on` driven by one.
pub fn in_runtime() -> bool {
    // Asked on every facade call: look at the count, do not take one
    // (an upgrade is two RMWs on the line every worker shares).
    CURRENT.with(|c| c.borrow().last().is_some_and(|w| w.strong_count() > 0))
}

/// The index of the worker thread executing the caller (a stable
/// "core id" on the real-threads backend), if on a worker.
pub fn current_worker() -> Option<usize> {
    WORKER_ID.with(|w| w.get())
}

struct CurrentGuard {
    _counters: Entered,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Makes `inner` the calling thread's ambient runtime: as `worker`,
/// or as a thread driving `block_on`.
fn enter(inner: &Arc<RtInner>, worker: Option<usize>) -> CurrentGuard {
    CURRENT.with(|c| c.borrow_mut().push(Arc::downgrade(inner)));
    CurrentGuard {
        _counters: inner.counters.enter(worker),
    }
}

impl Handle {
    /// Spawns a lightweight task; returns a handle to its result.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        spawn_impl(&self.inner, None, Priority::Normal, fut)
    }

    /// Spawns a task with an explicit [`Priority`]. `High` tasks
    /// route through the high-priority injector lane, which every
    /// dispatch checks before its local queues — use it for
    /// latency-critical request handling that must not queue behind
    /// batch work.
    pub fn spawn_with_priority<T, F>(&self, priority: Priority, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        spawn_impl(&self.inner, None, priority, fut)
    }

    /// Spawns a task pinned to worker `worker % workers()`: it is
    /// placed on that worker's unstealable queue and every poll runs
    /// on that worker thread ([`current_worker`] observes the pin).
    pub fn spawn_pinned<T, F>(&self, worker: usize, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        let w = worker % self.inner.workers.len();
        spawn_impl(&self.inner, Some(w), Priority::Normal, fut)
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Nanoseconds of wall-clock time since the runtime started.
    pub fn now_nanos(&self) -> u64 {
        self.inner.started.elapsed().as_nanos() as u64
    }

    /// Reads a named counter's current value: a name counted through
    /// [`crate::stat_add`], or one of the built-in `sched.*` and
    /// `chan.*` counters. All are per-runtime; `chan.*` counts the
    /// channel operations made by threads that had entered this
    /// runtime (its workers, its `block_on` callers).
    pub fn stat_get(&self, name: &str) -> u64 {
        self.inner.counters.get(name)
    }

    /// Every counter of this runtime as name-sorted `(name, value)`
    /// pairs.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.counters.snapshot()
    }

    /// Scheduler wake-routing counters:
    /// `(local_steal_free, injector, pinned)`.
    pub fn wake_counts(&self) -> (u64, u64, u64) {
        let sum = |c: Counter| self.inner.counters.sum(c as usize);
        (
            sum(Counter::WakesLocal),
            sum(Counter::WakesInjector),
            sum(Counter::WakesPinned),
        )
    }
}

/// A handle to the runtime; clone freely, spawn from any thread.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
    threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl Runtime {
    /// Starts a work-stealing runtime with `workers` OS threads. At
    /// most 64 workers (the idle bitmask is one word).
    pub fn new(workers: usize) -> Runtime {
        assert!(workers > 0);
        assert!(
            workers <= MAX_WORKERS,
            "at most {MAX_WORKERS} workers (one-word idle bitmask)"
        );
        let inner = Arc::new(RtInner {
            injector: Injector::new(),
            hi: Injector::new(),
            workers: (0..workers).map(|_| WorkerState::new()).collect(),
            idle: IdleSet::new(),
            shutdown: AtomicBool::new(false),
            live_tasks: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            started: Instant::now(),
            counters: Table::new(workers),
            tasks: Mutex::new(Vec::new()),
            graveyard: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let rt = inner.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("parchan-worker{i}"))
                    .spawn(move || worker_loop(rt, i))
                    .expect("spawn worker thread"),
            );
        }
        Runtime {
            inner,
            threads: Arc::new(Mutex::new(threads)),
        }
    }

    /// Starts a runtime with one worker per available CPU (capped at
    /// the 64-worker bitmask limit).
    pub fn new_per_core() -> Runtime {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        Runtime::new(n.min(MAX_WORKERS))
    }

    /// Returns a [`Handle`] for ambient use (spawning, stats).
    pub fn handle(&self) -> Handle {
        Handle {
            inner: self.inner.clone(),
        }
    }

    /// Spawns a lightweight task; returns a handle to its result.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        spawn_impl(&self.inner, None, Priority::Normal, fut)
    }

    /// Spawns a task with an explicit [`Priority`]; see
    /// [`Handle::spawn_with_priority`].
    pub fn spawn_with_priority<T, F>(&self, priority: Priority, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        spawn_impl(&self.inner, None, priority, fut)
    }

    /// Spawns a task pinned to worker `worker % workers`; see
    /// [`Handle::spawn_pinned`].
    pub fn spawn_pinned<T, F>(&self, worker: usize, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        self.handle().spawn_pinned(worker, fut)
    }

    /// Drives a future on the calling thread until it completes,
    /// while workers run spawned tasks. The runtime is ambient
    /// ([`current`]) inside `fut`.
    pub fn block_on<T, F: Future<Output = T>>(&self, fut: F) -> T {
        let _ambient = enter(&self.inner, None);
        let _polling = PollingGuard::enter(next_task_key(), Priority::Normal);
        let parker = Arc::new(ThreadParker {
            thread: thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(parker.clone());
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    while !parker.notified.swap(false, Ordering::AcqRel) {
                        thread::park();
                    }
                }
            }
        }
    }

    /// Blocks the calling thread until no live tasks remain.
    pub fn wait_idle(&self) {
        let mut g = plock(&self.inner.idle_lock);
        while self.inner.live_tasks.load(Ordering::Acquire) > 0 {
            g = self
                .inner
                .idle_cv
                .wait(g)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Shuts the runtime down, joining all workers.
    ///
    /// Tasks that never completed — queued, mid-await, or pinned —
    /// are *reaped*: their `JoinState` is finished with
    /// `Panicked("runtime shut down")` and every joiner (blocking or
    /// [`Watch`]) is woken. Nothing hangs on an abandoned task.
    pub fn shutdown(self) {
        // ordering: SeqCst store pairs with the SeqCst loads in
        // `schedule`, `spawn_inner`, and the worker park protocol —
        // a worker that registered idle before this store is woken
        // by the notify sweep below; one that parks after sees the
        // flag in its re-sweep.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for w in &self.inner.workers {
            let mut g = plock(&w.park_lock);
            *g = true;
            w.park_cv.notify_all();
        }
        {
            let mut threads = plock(&self.threads);
            for t in threads.drain(..) {
                let _ = t.join();
            }
        }
        // Reap every task that never ran to completion. Dropping a
        // future can run arbitrary Drop code (which may spawn — i.e.
        // re-register — or wake peers into the graveyard), so sweep
        // until a pass finds both empty. Futures are dropped outside
        // every lock.
        loop {
            let cells: Vec<Weak<TaskCell>> = std::mem::take(&mut *plock(&self.inner.tasks));
            let grave: Vec<Arc<TaskCell>> = std::mem::take(&mut *plock(&self.inner.graveyard));
            if cells.is_empty() && grave.is_empty() {
                break;
            }
            for w in cells {
                if let Some(cell) = w.upgrade() {
                    RtInner::reap_cell(&cell);
                }
            }
            // Graveyard cells are registered too, so their futures
            // were just taken above (or in an earlier sweep);
            // releasing the refs here runs no user Drop code beyond
            // what reaping already did.
            drop(grave);
        }
        // Release queue references so cells (and their wakers) free.
        // SAFETY: workers are joined and post-shutdown `schedule`
        // calls go to the graveyard, so this thread has exclusive
        // queue access — the owner-only contract holds vacuously.
        while self.inner.injector.take_all().is_some() {}
        while self.inner.hi.take_all().is_some() {}
        for w in &self.inner.workers {
            while w.pinned.take_all().is_some() {}
            unsafe {
                while w.rq.pop().is_some() {}
                drop(w.lifo.take());
            }
        }
    }
}

/// Completes the task's `JoinState` exactly once: with the task's
/// result on the normal path, or — if the runtime abandons the task
/// (shutdown) and the future is dropped unpolled — with
/// `Panicked("runtime shut down")` from `Drop`. Either way all
/// blocking joiners and `Watch` futures are woken and the live-task
/// count is released.
struct CompletionGuard<T> {
    join: Option<Arc<JoinState<T>>>,
    rt: Weak<RtInner>,
}

impl<T> CompletionGuard<T> {
    fn finish(&mut self, out: Result<T, Panicked>) {
        let Some(join) = self.join.take() else { return };
        let mut slot = plock(&join.slot);
        slot.result = Some(out);
        let waiters = std::mem::take(&mut slot.waiters);
        drop(slot);
        join.cv.notify_all();
        for (_, w) in waiters {
            w.wake();
        }
        if let Some(rt) = self.rt.upgrade() {
            // Only the completion that empties the runtime takes the
            // idle lock; per-task completions stay lock-free (a
            // `wait_idle` caller that loads a stale nonzero count
            // is woken by that last completion's notify).
            if rt.live_tasks.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = plock(&rt.idle_lock);
                rt.idle_cv.notify_all();
            }
        }
    }
}

impl<T> Drop for CompletionGuard<T> {
    fn drop(&mut self) {
        self.finish(Err(Panicked("runtime shut down".to_string())));
    }
}

fn spawn_impl<T, F>(
    inner: &Arc<RtInner>,
    pin: Option<usize>,
    priority: Priority,
    fut: F,
) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    if priority == Priority::High {
        inner.count(Counter::PrioritySpawns, 1);
    }
    let join = Arc::new(JoinState {
        slot: Mutex::new(JoinSlot {
            result: None,
            waiters: Vec::new(),
        }),
        cv: Condvar::new(),
        next_watch: AtomicU64::new(0),
    });
    let mut guard = CompletionGuard {
        join: Some(join.clone()),
        rt: Arc::downgrade(inner),
    };
    let wrapped = async move {
        let out = AssertUnwindSafe(fut).catch_unwind_lite().await;
        guard.finish(out);
    };
    inner.live_tasks.fetch_add(1, Ordering::AcqRel);
    let cell = Arc::new(TaskCell {
        future: Mutex::new(Some(Box::pin(wrapped))),
        state: AtomicU8::new(SCHEDULED),
        rt: Arc::downgrade(inner),
        pin,
        priority,
        key: next_task_key(),
        next_injected: AtomicPtr::new(std::ptr::null_mut()),
    });
    inner.register(&cell);
    // ordering: SeqCst with the `shutdown` store — registration
    // precedes this load, so either we see the flag and reap here,
    // or the reaper's registry sweep (which runs after the store)
    // sees our registration.
    if inner.shutdown.load(Ordering::SeqCst) {
        // The shutdown reaper may already have swept past us; either
        // way completing here is safe (reaping is idempotent).
        RtInner::reap_cell(&cell);
    } else {
        schedule(inner, cell, false);
    }
    JoinHandle { state: join }
}

struct ThreadParker {
    thread: thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Cheap thread-local PRNG for steal-victim selection (splitmix64).
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn worker_loop(rt: Arc<RtInner>, me: usize) {
    WORKER_ID.with(|w| w.set(Some(me)));
    WORKER_RT.with(|w| *w.borrow_mut() = Some(Arc::downgrade(&rt)));
    let _ambient = enter(&rt, Some(me));
    let mut rng: u64 = 0x5EED ^ ((me as u64 + 1) << 17);
    let mut tick: u32 = 0;
    let mut lifo_streak: u8 = 0;
    // What is left of this worker's last pinned take, oldest first.
    let mut pinned: Option<Burst> = None;
    // The last park ended on the backstop, not on a token.
    let mut backstop = false;
    let ws = &rt.workers[me];
    while !rt.shutdown.load(Ordering::Acquire) {
        let after_backstop = std::mem::take(&mut backstop);
        if let Some(task) = find_task(&rt, me, &mut tick, &mut lifo_streak, &mut rng, &mut pinned) {
            if after_backstop {
                rt.count(Counter::BackstopRescues, 1);
            }
            run_task(task, &rt);
            continue;
        }
        // ordering: park protocol (Dekker): register the idle bit,
        // SeqCst-fence, then re-sweep every source. A producer
        // publishes work, fences, then scans the mask; in the SeqCst
        // order one of us must see the other. Model-checked on this
        // code by `off_pool_spawns_meet_a_parking_worker` (catches the
        // re-check skipped).
        rt.idle.register(me);
        fence(Ordering::SeqCst);
        // ordering: the shutdown re-check rides the same fence — the
        // SeqCst store in `shutdown()` either precedes it (we see the
        // flag here) or follows our registration (the notify sweep
        // delivers a token).
        if rt.has_work(me) || rt.shutdown.load(Ordering::SeqCst) {
            if rt.idle.deregister(me) {
                rt.count(Counter::ParksSkipped, 1);
            }
            // else: a producer claimed us; its pending token ends the
            // next park early (see there).
            continue;
        }
        let mut g = plock(&ws.park_lock);
        loop {
            if rt.shutdown.load(Ordering::Acquire) {
                break;
            }
            if *g {
                *g = false;
                // The token may be owed to an earlier registration (a
                // claim that raced the self-rescue above), not to the
                // bit just set: withdraw it, or this worker runs tasks
                // while the mask says idle and `claim_any` spends a
                // wake on it instead of a parked sibling (asserted
                // below the loop under the model checker).
                rt.idle.deregister(me);
                break;
            }
            let (ng, res) = ws
                .park_cv
                .wait_timeout(g, PARK_BACKSTOP)
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
            // Backstop resweep: `deregister` wins the bit over any
            // concurrent claim (single RMW), so either we withdraw
            // cleanly or a producer's token is already in flight and
            // the next loop iteration consumes it.
            if res.timed_out() && rt.idle.deregister(me) {
                backstop = true;
                break;
            }
        }
        // Unless for shutdown, the loop leaves with this worker's bit
        // clear: a token consumed with the bit still up would have it
        // run tasks while `claim_any` counts it idle. The cost of that
        // bug is a wasted wake, which no check could observe, so the
        // model checker asserts the invariant itself.
        #[cfg(feature = "chanos_check")]
        assert!(
            rt.shutdown.load(Ordering::Acquire) || !rt.idle.is_registered(me),
            "worker {me} left the park loop registered idle"
        );
    }
    // Back to the queue the shutdown reaper drains: it, not a worker,
    // drops the futures of tasks that never ran.
    if let Some(rest) = pinned {
        rest.put_back(&ws.pinned);
    }
}

/// One dispatch: pick the next task for worker `me`.
///
/// Order (with fairness rotations): the high-priority lane always
/// first, then pinned/local alternating, then the search phase — the
/// high lane again, an injector burst, then a randomized steal sweep
/// over siblings. Every [`INJECTOR_INTERVAL`]-th call checks the
/// normal injector first (after the high lane).
fn find_task(
    rt: &Arc<RtInner>,
    me: usize,
    tick: &mut u32,
    lifo_streak: &mut u8,
    rng: &mut u64,
    pinned: &mut Option<Burst>,
) -> Option<Arc<TaskCell>> {
    *tick = tick.wrapping_add(1);
    let ws = &rt.workers[me];
    // The high lane outranks every other source on every dispatch:
    // this is the whole priority guarantee — a high task waits at
    // most one poll, never a ring's depth.
    if let Some(t) = take_hi(rt) {
        *lifo_streak = 0;
        return Some(t);
    }
    if (*tick).is_multiple_of(INJECTOR_INTERVAL) {
        let (t, extra) = take_injector_burst(rt, me);
        if extra > 0 {
            rt.notify_work();
        }
        if let Some(t) = t {
            return Some(t);
        }
    }
    let pinned_first = (*tick).is_multiple_of(2);
    if pinned_first {
        if let Some(t) = pop_pinned(ws, pinned) {
            return Some(t);
        }
    }
    // SAFETY: this function runs only on worker `me`'s thread —
    // the owner of its LIFO slot and ring.
    unsafe {
        if ws.lifo.is_occupied() && *lifo_streak < LIFO_CAP {
            if let Some(t) = ws.lifo.take() {
                *lifo_streak += 1;
                return Some(t);
            }
        }
        if let Some(t) = ws.rq.pop() {
            *lifo_streak = 0;
            return Some(t);
        }
        if let Some(t) = ws.lifo.take() {
            *lifo_streak = 0;
            return Some(t);
        }
    }
    if !pinned_first {
        if let Some(t) = pop_pinned(ws, pinned) {
            return Some(t);
        }
    }
    // The search phase: announce it (producers elide wakes while a
    // searcher is out — see `IdleSet`), prefer the high lane, then
    // drain an injector burst or steal a batch, then hand off a wake
    // if we deposited more than we are about to run.
    rt.idle.start_search();
    let mut extra = 0;
    let mut found = take_hi(rt);
    if found.is_none() {
        (found, extra) = take_injector_burst(rt, me);
    }
    if found.is_none() {
        if let Some((t, batch_extra)) = steal_sweep(rt, me, rng) {
            found = Some(t);
            extra = batch_extra;
        }
    }
    rt.idle.end_search();
    if extra > 0 {
        // Our ring now has backlog siblings can steal.
        rt.notify_work();
    }
    found
}

/// The owner's pinned dispatch: the rest of its last take first, a
/// new take only once that is spent — nothing is put back, so pinned
/// tasks run in arrival order.
fn pop_pinned(ws: &WorkerState, held: &mut Option<Burst>) -> Option<Arc<TaskCell>> {
    if let Some(t) = held.as_mut().and_then(Burst::pop) {
        return Some(t);
    }
    *held = ws.pinned.take_all();
    held.as_mut()?.pop()
}

/// Claims the high lane: returns the oldest high task and puts the
/// remainder *back into the lane* (not the local ring — high tasks
/// must stay ahead of every ring, and siblings check the lane on
/// their next dispatch anyway), beneath any high task that arrived
/// since. A non-empty remainder triggers one wake so an idle sibling
/// comes for it.
fn take_hi(rt: &Arc<RtInner>) -> Option<Arc<TaskCell>> {
    let mut burst = rt.hi.take_all()?;
    rt.count(Counter::PriorityBursts, 1);
    let first = burst.pop();
    burst.put_back(&rt.hi);
    if !rt.hi.is_empty() {
        rt.notify_work();
    }
    first
}

/// Drains one injector burst: the first task is returned for
/// immediate execution, the rest are deposited into `me`'s ring
/// (leftovers that don't fit go back to the injector as one chain).
/// Returns `(first, redistributed)`.
fn take_injector_burst(rt: &Arc<RtInner>, me: usize) -> (Option<Arc<TaskCell>>, usize) {
    let Some(mut burst) = rt.injector.take_all() else {
        return (None, 0);
    };
    rt.count(Counter::InjectorBursts, 1);
    let first = burst.pop();
    let ws = &rt.workers[me];
    let mut redistributed = 0;
    while let Some(t) = burst.pop() {
        // SAFETY: this function runs only on worker `me`'s thread.
        match unsafe { ws.rq.push(t) } {
            Ok(()) => redistributed += 1,
            Err(t) => {
                // Ring full: return this task and the remainder, in
                // order and beneath anything pushed since, to the
                // injector for another worker's burst.
                burst.push_front(t);
                redistributed += burst.len();
                burst.put_back(&rt.injector);
                break;
            }
        }
    }
    (first, redistributed)
}

/// Randomized steal sweep: claim half of some sibling's ring into our
/// own. Returns the first stolen task and how many extra tasks were
/// deposited locally.
fn steal_sweep(rt: &Arc<RtInner>, me: usize, rng: &mut u64) -> Option<(Arc<TaskCell>, usize)> {
    let n = rt.workers.len();
    if n <= 1 {
        return None;
    }
    let start = next_rand(rng) as usize % n;
    for k in 0..n {
        let v = (start + k) % n;
        if v == me {
            continue;
        }
        // SAFETY: we are worker `me` (the dst owner), and we only
        // reach the sweep with an empty ring, so a half-ring batch
        // always fits.
        if let Some((first, batch)) = unsafe { rt.workers[v].rq.steal_into(&rt.workers[me].rq) } {
            rt.count(Counter::Steals, batch as u64);
            rt.count(Counter::StealBatches, 1);
            return Some((first, batch - 1));
        }
    }
    None
}

fn run_task(task: Arc<TaskCell>, rt: &Arc<RtInner>) {
    task.state.store(RUNNING, Ordering::Release);
    let waker = Waker::from(task.clone());
    let mut cx = Context::from_waker(&waker);
    let mut fut = {
        let mut slot = plock(&task.future);
        match slot.take() {
            Some(f) => f,
            None => return, // Completed (or reaped) elsewhere.
        }
    };
    let poll = {
        let _polling = PollingGuard::enter(task.key, task.priority);
        catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
    };
    match poll {
        Ok(Poll::Ready(())) | Err(_) => {
            // Panics are surfaced through the JoinHandle by the
            // catch in the wrapper; a panic reaching here means the
            // wrapper itself failed, which we treat as completion.
            task.state.store(COMPLETE, Ordering::Release);
        }
        Ok(Poll::Pending) => {
            *plock(&task.future) = Some(fut);
            // Were we woken during the poll?
            match task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {}
                Err(NOTIFIED) => {
                    task.state.store(SCHEDULED, Ordering::Release);
                    schedule(rt, task, true);
                }
                Err(s) => unreachable!("bad state after poll: {s}"),
            }
        }
    }
}

struct JoinSlot<T> {
    result: Option<Result<T, Panicked>>,
    /// Waiters keyed by the owning [`Watch`]'s id so a re-poll
    /// replaces its old waker and a dropped `Watch` removes its
    /// entry (no unbounded accumulation under `choose!` loops).
    waiters: Vec<(u64, Waker)>,
}

struct JoinState<T> {
    slot: Mutex<JoinSlot<T>>,
    cv: Condvar,
    next_watch: AtomicU64,
}

/// A task failed with a panic; carries the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Panicked(pub String);

impl std::fmt::Display for Panicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.0)
    }
}

impl std::error::Error for Panicked {}

/// Handle to a spawned task's result.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// Blocks the calling OS thread until the task finishes.
    pub fn join_blocking(self) -> Result<T, Panicked> {
        let mut slot = plock(&self.state.slot);
        loop {
            if let Some(r) = slot.result.take() {
                return r;
            }
            slot = self.state.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Awaits the task's completion from another task.
    pub fn join(self) -> Watch<T> {
        Watch::new(self.state.clone())
    }

    /// Awaits completion *without* consuming the handle (result is
    /// still single-take; the first observer gets it).
    pub fn watch(&self) -> Watch<T> {
        Watch::new(self.state.clone())
    }

    /// Returns `true` once the task has finished.
    pub fn is_finished(&self) -> bool {
        plock(&self.state.slot).result.is_some()
    }

    /// Current number of registered async waiters (test hook).
    #[doc(hidden)]
    pub fn waiter_count(&self) -> usize {
        plock(&self.state.slot).waiters.len()
    }
}

/// Future returned by [`JoinHandle::join`] / [`JoinHandle::watch`].
pub struct Watch<T> {
    state: Arc<JoinState<T>>,
    key: u64,
}

impl<T> Watch<T> {
    fn new(state: Arc<JoinState<T>>) -> Watch<T> {
        let key = state.next_watch.fetch_add(1, Ordering::Relaxed);
        Watch { state, key }
    }
}

impl<T> Unpin for Watch<T> {}

impl<T> Future for Watch<T> {
    type Output = Result<T, Panicked>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = plock(&self.state.slot);
        if let Some(r) = slot.result.take() {
            return Poll::Ready(r);
        }
        match slot.waiters.iter_mut().find(|(k, _)| *k == self.key) {
            // Re-poll (e.g. inside `choose!`): replace our previous
            // waker in place instead of accumulating entries.
            Some((_, w)) => {
                if !w.will_wake(cx.waker()) {
                    *w = cx.waker().clone();
                }
            }
            None => slot.waiters.push((self.key, cx.waker().clone())),
        }
        Poll::Pending
    }
}

impl<T> Drop for Watch<T> {
    fn drop(&mut self) {
        // Remove our waker so an abandoned watch doesn't keep its
        // task (via the waker) or the entry alive forever.
        let mut slot = plock(&self.state.slot);
        slot.waiters.retain(|(k, _)| *k != self.key);
    }
}

/// Suspends the calling task once, waking it immediately: a
/// cooperative reschedule through the run queues, so sibling tasks
/// (and thieves) get a turn. The threads-backend analogue of the
/// simulator's suspension points.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug, Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Minimal catch-unwind for futures (poll-level catch), avoiding a
/// dependency on the `futures` crate.
trait CatchUnwindLite: Future + Sized {
    fn catch_unwind_lite(self) -> CatchUnwind<Self> {
        CatchUnwind { inner: self }
    }
}

impl<F: Future> CatchUnwindLite for AssertUnwindSafe<F> {}

struct CatchUnwind<F> {
    inner: F,
}

impl<F: Future> Future for CatchUnwind<AssertUnwindSafe<F>> {
    type Output = Result<F::Output, Panicked>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of the only field; we never move
        // it after this projection.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.inner.0) };
        match catch_unwind(AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "unknown panic payload".to_string()
                };
                Poll::Ready(Err(Panicked(msg)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_runtime_follows_the_entered_runtime() {
        assert!(!in_runtime());
        let rt = Runtime::new(1);
        assert!(!in_runtime(), "creating a runtime does not enter it");
        assert!(rt.spawn(async { in_runtime() }).join_blocking().unwrap());
        assert!(rt.block_on(async { in_runtime() }));
        assert!(!in_runtime());
        // Entered, then shut down and dropped under our feet: the
        // thread is in no runtime although the guard still stands.
        let entered = enter(&rt.inner, None);
        assert!(in_runtime());
        rt.shutdown();
        assert!(!in_runtime());
        assert!(current().is_none());
        drop(entered);
        assert!(!in_runtime());
    }
}
