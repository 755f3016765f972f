//! The discrete-event executor: virtual time, the event heap, per-core
//! run queues, and the task poll loop.
//!
//! # Model
//!
//! Simulated threads are futures. A core runs one task at a time,
//! non-preemptively: the task holds the core until it awaits. When the
//! core frees, it dispatches its oldest ready high-class task, else its
//! oldest ready normal one (the thread pool's rule for
//! `Priority::High`: its high lane is checked before every other
//! queue). Awaiting
//! [`crate::delay`] keeps the core busy (modeling compute); blocking on
//! a channel or [`crate::sleep`] releases it. Code between awaits runs
//! in zero virtual time — all costs are charged explicitly.
//!
//! Determinism: a single-threaded executor, an event heap ordered by
//! `(time, sequence)`, and a seeded PCG RNG mean the same seed always
//! produces the same trace (see [`Simulation::trace_hash`]).

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::config::Config;
use crate::ctx;
use crate::ids::{CoreId, Cycles, TaskId};
use crate::join::{JoinError, JoinHandle, JoinInner};
use crate::rng::Pcg32;
use crate::slab::Slab;
use crate::stats::Stats;

pub(crate) type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// What a pending poll asked the executor to do with the core.
pub(crate) enum PollEffect {
    /// Keep the core busy for this many cycles, then re-poll
    /// (explicit compute cost; used by `delay`).
    BusyFor(Cycles),
    /// Put the task at the back of its core's run queue for its class
    /// (used by `yield_now` and `migrate`).
    Yield,
    /// Block waiting for a wake but *keep occupying the core* — a
    /// spinning wait. Used by the simulated spinlocks: the core burns
    /// cycles until the lock holder's release wakes the spinner.
    BlockHoldingCore,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskState {
    /// In a core's run queue.
    Ready,
    /// Owns a core; a `Poll` event is pending (context-switch time).
    Scheduled,
    /// Being polled right now (transient).
    Polling,
    /// Owns a core, burning cycles in a `delay`.
    Busy,
    /// Waiting for an external wake (channel, timer, join).
    Blocked,
}

pub(crate) struct Task {
    pub(crate) future: Option<TaskFuture>,
    pub(crate) state: TaskState,
    pub(crate) core: CoreId,
    pub(crate) gen: u32,
    pub(crate) name: Rc<str>,
    pub(crate) daemon: bool,
    /// Scheduling class, fixed at spawn: `true` for the high class
    /// (the facade's `Priority::High`).
    pub(crate) high: bool,
    pub(crate) waker: Waker,
    /// Cycles of the busy spans this task has closed: from its
    /// dispatch (context switch included) to the release of its core.
    pub(crate) busy_cycles: Cycles,
    /// Completes the join state on panic or kill; returns waiters to
    /// wake. Called outside the `Inner` borrow.
    pub(crate) on_abnormal: Option<Box<dyn FnOnce(JoinError) -> Vec<TaskId>>>,
}

pub(crate) struct Cpu {
    /// Ready normal-class tasks, oldest first.
    queue: VecDeque<TaskId>,
    /// Ready high-class tasks, oldest first; dispatched before `queue`.
    high: VecDeque<TaskId>,
    pub(crate) running: Option<TaskId>,
    pub(crate) dispatch_scheduled: bool,
    pub(crate) busy_cycles: Cycles,
    pub(crate) busy_since: Option<Cycles>,
    is_device: bool,
}

impl Cpu {
    pub(crate) fn new_device() -> Self {
        Cpu::new(true)
    }

    fn new(is_device: bool) -> Self {
        Cpu {
            queue: VecDeque::new(),
            high: VecDeque::new(),
            running: None,
            dispatch_scheduled: false,
            busy_cycles: 0,
            busy_since: None,
            is_device,
        }
    }

    /// Appends a ready task to the run queue of its class.
    fn push(&mut self, id: TaskId, high: bool) {
        if high {
            self.high.push_back(id);
        } else {
            self.queue.push_back(id);
        }
    }

    /// Takes the oldest ready high-class entry, else the oldest normal.
    fn pop(&mut self) -> Option<TaskId> {
        self.high.pop_front().or_else(|| self.queue.pop_front())
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Dispatch(CoreId),
    Poll(TaskId),
    Wake(TaskId),
}

struct Event {
    at: Cycles,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Inverted so `BinaryHeap` (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Hints given to a placement policy when a task is spawned.
pub struct SpawnInfo<'a> {
    /// Core of the spawning task, if spawned from inside the sim.
    pub parent: Option<CoreId>,
    /// The task's name.
    pub name: &'a str,
}

/// A placement policy: chooses a core for each new task.
pub type Placer = Box<dyn FnMut(&SpawnInfo<'_>, &mut Pcg32, usize) -> CoreId>;

pub(crate) struct Inner {
    pub(crate) now: Cycles,
    seq: u64,
    events: BinaryHeap<Event>,
    pub(crate) tasks: Slab<Task>,
    gens: Vec<u32>,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) real_cores: usize,
    pub(crate) wake_sink: Arc<Mutex<Vec<TaskId>>>,
    pub(crate) rng: Pcg32,
    pub(crate) stats: Stats,
    pub(crate) cfg: Config,
    pub(crate) poll_effect: Option<PollEffect>,
    pub(crate) ext: HashMap<TypeId, Arc<dyn Any>>,
    trace_hash: u64,
    /// Busy cycles of the tasks that have exited, by task name.
    busy_exited: BTreeMap<Rc<str>, Cycles>,
    rr_next: usize,
    placer: Option<Placer>,
    pub(crate) system_device_core: Option<CoreId>,
}

struct WakeEntry {
    id: TaskId,
    sink: Arc<Mutex<Vec<TaskId>>>,
}

impl Wake for WakeEntry {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.sink.lock().expect("wake sink poisoned").push(self.id);
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_step(hash: u64, v: u64) -> u64 {
    let mut h = hash;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Inner {
    pub(crate) fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks
            .get(id.index as usize)
            .filter(|t| t.gen == id.gen)
    }

    pub(crate) fn task_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.tasks
            .get_mut(id.index as usize)
            .filter(|t| t.gen == id.gen)
    }

    fn schedule(&mut self, at: Cycles, kind: EventKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { at, seq, kind });
    }

    pub(crate) fn ensure_dispatch(&mut self, core: CoreId) {
        let now = self.now;
        let cpu = &mut self.cpus[core.index()];
        let ready = !cpu.high.is_empty() || !cpu.queue.is_empty();
        if cpu.running.is_none() && !cpu.dispatch_scheduled && ready {
            cpu.dispatch_scheduled = true;
            self.schedule(now, EventKind::Dispatch(core));
        }
    }

    /// Frees `core`, closing its busy span on the core and on the task
    /// that held it.
    fn release_cpu(&mut self, core: CoreId) {
        let now = self.now;
        let cpu = &mut self.cpus[core.index()];
        let running = cpu.running.take();
        let Some(since) = cpu.busy_since.take() else {
            return;
        };
        cpu.busy_cycles += now - since;
        if let Some(task) = running.and_then(|id| self.task_mut(id)) {
            task.busy_cycles += now - since;
        }
    }

    /// Moves a blocked task to the ready queue of its core.
    pub(crate) fn wake_task(&mut self, id: TaskId) {
        let Some(task) = self.task(id) else {
            return;
        };
        if task.state != TaskState::Blocked {
            return;
        }
        let (core, high) = (task.core, task.high);
        if self.cpus[core.index()].running == Some(id) {
            // A spinning waiter already owns its core: poll directly.
            self.task_mut(id).expect("checked above").state = TaskState::Scheduled;
            let now = self.now;
            self.schedule(now, EventKind::Poll(id));
            return;
        }
        self.task_mut(id).expect("checked above").state = TaskState::Ready;
        self.cpus[core.index()].push(id, high);
        self.ensure_dispatch(core);
    }

    pub(crate) fn schedule_wake(&mut self, id: TaskId, at: Cycles) {
        let at = at.max(self.now);
        self.schedule(at, EventKind::Wake(id));
    }

    /// Removes a finished task and frees its core if it owned one.
    ///
    /// Returns the abnormal-completion hook; the caller must invoke or
    /// drop it *outside* the `Inner` borrow, because completing the
    /// join state can run arbitrary user `Drop` code.
    fn remove_task(&mut self, id: TaskId) -> Option<Box<dyn FnOnce(JoinError) -> Vec<TaskId>>> {
        let task = self.task_mut(id)?;
        let core = task.core;
        let hook = task.on_abnormal.take();
        // Free the core if the task owned it (running, busy-delaying,
        // or blocked-while-spinning), closing the task's last span.
        let owned = self.cpus[core.index()].running == Some(id);
        if owned {
            self.release_cpu(core);
        }
        let task = self
            .tasks
            .remove(id.index as usize)
            .expect("looked up above");
        if task.busy_cycles > 0 {
            *self.busy_exited.entry(task.name).or_default() += task.busy_cycles;
        }
        self.gens[id.index as usize] = self.gens[id.index as usize].wrapping_add(1);
        if owned {
            self.ensure_dispatch(core);
        }
        // A `Ready` task still sits in some run queue; the dispatch
        // loop skips entries whose task no longer exists.
        hook
    }

    fn place(&mut self, info: &SpawnInfo<'_>) -> CoreId {
        if let Some(mut placer) = self.placer.take() {
            let core = placer(info, &mut self.rng, self.real_cores);
            self.placer = Some(placer);
            assert!(
                core.index() < self.cpus.len(),
                "placer returned nonexistent core {core}"
            );
            return core;
        }
        if let Some(parent) = info.parent {
            // Inherit the spawner's core by default; device-core
            // children fall back to round-robin over real cores.
            if parent.index() < self.real_cores {
                return parent;
            }
        }
        let core = CoreId((self.rr_next % self.real_cores) as u32);
        self.rr_next += 1;
        core
    }

    fn note_event(&mut self, ev: &Event) {
        let disc: u64 = match ev.kind {
            EventKind::Dispatch(c) => 0x10 | (u64::from(c.0) << 8),
            EventKind::Poll(t) => 0x20 ^ t.as_u64().rotate_left(8),
            EventKind::Wake(t) => 0x30 ^ t.as_u64().rotate_left(8),
        };
        self.trace_hash = fnv_step(fnv_step(self.trace_hash, ev.at), disc);
    }
}

/// Options accepted by the spawn entry points.
pub(crate) struct SpawnOpts {
    pub(crate) name: Option<String>,
    pub(crate) core: Option<CoreId>,
    pub(crate) daemon: bool,
    pub(crate) high: bool,
}

impl SpawnOpts {
    pub(crate) fn new() -> Self {
        SpawnOpts {
            name: None,
            core: None,
            daemon: false,
            high: false,
        }
    }
}

/// Shared spawn path used by [`Simulation`] methods and the in-task
/// free functions.
pub(crate) fn spawn_impl<T, F>(
    rc: &Rc<RefCell<Inner>>,
    opts: SpawnOpts,
    parent: Option<CoreId>,
    fut: F,
) -> JoinHandle<T>
where
    T: 'static,
    F: Future<Output = T> + 'static,
{
    let join = Arc::new(Mutex::new(JoinInner::new()));
    let join_ok = join.clone();
    let wrapped = async move {
        let v = fut.await;
        let waiters = join_ok
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .complete(Ok(v));
        for w in waiters {
            ctx::wake_now(w);
        }
    };
    let join_err = join.clone();
    let hook = Box::new(move |e: JoinError| {
        join_err
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .complete(Err(e))
    });

    let mut inner = rc.borrow_mut();
    let name = opts.name.unwrap_or_else(|| "task".to_string());
    let core = match opts.core {
        Some(c) => {
            assert!(
                c.index() < inner.cpus.len(),
                "spawn_on: nonexistent core {c}"
            );
            c
        }
        None => inner.place(&SpawnInfo {
            parent,
            name: &name,
        }),
    };
    let idx = inner.tasks.insert(Task {
        future: Some(Box::pin(wrapped)),
        state: TaskState::Ready,
        core,
        gen: 0,
        name: name.into(),
        daemon: opts.daemon,
        high: opts.high,
        waker: Waker::noop().clone(),
        busy_cycles: 0,
        on_abnormal: Some(hook),
    });
    if idx >= inner.gens.len() {
        inner.gens.resize(idx + 1, 0);
    }
    let gen = inner.gens[idx];
    let id = TaskId {
        index: idx as u32,
        gen,
    };
    let sink = inner.wake_sink.clone();
    let task = inner.tasks.get_mut(idx).expect("just inserted");
    task.gen = gen;
    task.waker = Waker::from(Arc::new(WakeEntry { id, sink }));
    inner.stats.incr("sim.tasks_spawned");
    inner.cpus[core.index()].push(id, opts.high);
    inner.ensure_dispatch(core);
    JoinHandle::new(id, join)
}

/// Kills a task: drops its future (running its cancellation `Drop`
/// code) and completes its join state with [`JoinError::Killed`].
pub(crate) fn kill_impl(rc: &Rc<RefCell<Inner>>, id: TaskId) -> bool {
    let (fut, hook) = {
        let mut inner = rc.borrow_mut();
        let Some(task) = inner.task_mut(id) else {
            return false;
        };
        assert!(
            task.state != TaskState::Polling,
            "a task cannot kill itself; return from its future instead"
        );
        let fut = task.future.take();
        let hook = inner.remove_task(id);
        inner.stats.incr("sim.tasks_killed");
        (fut, hook)
    };
    // Drop the future outside the borrow: channel guards deregister,
    // child handles may cascade kills, all of which re-enter `Inner`.
    drop(fut);
    if let Some(hook) = hook {
        let waiters = hook(JoinError::Killed);
        let mut inner = rc.borrow_mut();
        for w in waiters {
            inner.wake_task(w);
        }
    }
    true
}

/// Why a run returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEnd {
    /// Every non-daemon task finished.
    Completed,
    /// The time limit passed; events may remain.
    TimeLimit,
    /// A stop predicate became true (e.g. the `block_on` task
    /// finished while daemon timers were still ticking).
    Stopped,
    /// No events remain but non-daemon tasks are still blocked.
    /// Contains `name@state` descriptions of the stuck tasks.
    Deadlock(Vec<String>),
}

/// Result of [`Simulation::run_until_idle`] / [`Simulation::run_for`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub end: RunEnd,
    /// Virtual time when it stopped.
    pub now: Cycles,
}

/// A deterministic simulation of an N-core machine.
///
/// # Examples
///
/// ```
/// use chanos_sim::{Simulation, delay, now};
///
/// let mut sim = Simulation::new(4);
/// let h = sim.spawn(async {
///     delay(100).await;
///     now()
/// });
/// sim.run_until_idle();
/// // 50 cycles of context switch (default) + 100 cycles of compute.
/// assert_eq!(h.try_take().unwrap().unwrap(), 150);
/// ```
pub struct Simulation {
    rc: Rc<RefCell<Inner>>,
}

impl Simulation {
    /// Creates a machine with `cores` CPU cores and default settings.
    pub fn new(cores: usize) -> Self {
        Self::with_config(Config::with_cores(cores))
    }

    /// Creates a machine from an explicit [`Config`].
    pub fn with_config(cfg: Config) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        let cpus = (0..cfg.cores).map(|_| Cpu::new(false)).collect();
        let inner = Inner {
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            tasks: Slab::new(),
            gens: Vec::new(),
            cpus,
            real_cores: cfg.cores,
            wake_sink: Arc::new(Mutex::new(Vec::new())),
            rng: Pcg32::new(cfg.seed),
            stats: Stats::new(),
            cfg,
            poll_effect: None,
            ext: HashMap::new(),
            trace_hash: FNV_OFFSET,
            busy_exited: BTreeMap::new(),
            rr_next: 0,
            placer: None,
            system_device_core: None,
        };
        Simulation {
            rc: Rc::new(RefCell::new(inner)),
        }
    }

    /// Adds a device pseudo-core (for device models; no context-switch
    /// cost, does not count as a CPU) and returns its id.
    pub fn add_device_core(&self) -> CoreId {
        let mut inner = self.rc.borrow_mut();
        inner.cpus.push(Cpu::new(true));
        CoreId((inner.cpus.len() - 1) as u32)
    }

    /// Installs a placement policy consulted for spawns without an
    /// explicit core.
    pub fn set_placer(&self, placer: Placer) {
        self.rc.borrow_mut().placer = Some(placer);
    }

    /// Spawns a task, letting the placement policy pick the core.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        spawn_impl(&self.rc, SpawnOpts::new(), None, fut)
    }

    /// Spawns a task pinned to `core`.
    pub fn spawn_on<T: 'static>(
        &self,
        core: CoreId,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let mut opts = SpawnOpts::new();
        opts.core = Some(core);
        spawn_impl(&self.rc, opts, None, fut)
    }

    /// Spawns a named task (names appear in deadlock reports).
    pub fn spawn_named<T: 'static>(
        &self,
        name: &str,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let mut opts = SpawnOpts::new();
        opts.name = Some(name.to_string());
        spawn_impl(&self.rc, opts, None, fut)
    }

    /// Spawns a named daemon task on a specific core. Daemons (e.g.
    /// server loops) do not keep the simulation alive and are not
    /// reported as deadlocked.
    pub fn spawn_daemon_on<T: 'static>(
        &self,
        name: &str,
        core: CoreId,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let mut opts = SpawnOpts::new();
        opts.name = Some(name.to_string());
        opts.core = Some(core);
        opts.daemon = true;
        spawn_impl(&self.rc, opts, None, fut)
    }

    /// Kills a task from outside the simulation loop.
    pub fn kill(&self, id: TaskId) -> bool {
        kill_impl(&self.rc, id)
    }

    /// Runs until no events remain or all non-daemon tasks finish.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_inner(None, || false)
    }

    /// Runs for at most `budget` more cycles of virtual time.
    pub fn run_for(&mut self, budget: Cycles) -> RunOutcome {
        let limit = self.now() + budget;
        self.run_inner(Some(limit), || false)
    }

    /// Runs until `stop` returns true (checked between events), the
    /// event queue drains, or all non-daemon tasks finish.
    pub fn run_until(&mut self, stop: impl FnMut() -> bool) -> RunOutcome {
        self.run_inner(None, stop)
    }

    /// Spawns `fut` on core 0, runs until it completes, and returns
    /// its result. Daemon timers may still be pending afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stops (deadlock) before the task
    /// finishes.
    pub fn block_on<T: 'static>(
        &mut self,
        fut: impl Future<Output = T> + 'static,
    ) -> Result<T, JoinError> {
        let handle = self.spawn_on(CoreId(0), fut);
        let outcome = self.run_inner(None, || handle.is_finished());
        handle.try_take().unwrap_or_else(|| {
            panic!("block_on: simulation stopped before task finished: {outcome:?}")
        })
    }

    fn run_inner(&mut self, limit: Option<Cycles>, mut stop: impl FnMut() -> bool) -> RunOutcome {
        assert!(
            !ctx::in_sim(),
            "cannot run a Simulation from inside a simulated task"
        );
        loop {
            self.drain_wakes();
            if stop() {
                let now = self.now();
                return RunOutcome {
                    end: RunEnd::Stopped,
                    now,
                };
            }
            let ev = {
                let mut inner = self.rc.borrow_mut();
                match inner.events.peek() {
                    None => break,
                    Some(ev) => {
                        if let Some(l) = limit {
                            if ev.at > l {
                                inner.now = l;
                                return RunOutcome {
                                    end: RunEnd::TimeLimit,
                                    now: l,
                                };
                            }
                        }
                    }
                }
                let ev = inner.events.pop().expect("peeked above");
                inner.now = ev.at;
                inner.note_event(&ev);
                inner.stats.incr("sim.events");
                ev
            };
            match ev.kind {
                EventKind::Dispatch(core) => self.handle_dispatch(core),
                EventKind::Wake(id) => {
                    self.rc.borrow_mut().wake_task(id);
                }
                EventKind::Poll(id) => self.poll_task(id),
            }
        }
        let (end, now) = {
            let inner = self.rc.borrow();
            let stuck: Vec<String> = inner
                .tasks
                .iter()
                .filter(|(_, t)| !t.daemon)
                .map(|(_, t)| format!("{}@{:?}", t.name, t.state))
                .collect();
            let end = if stuck.is_empty() {
                RunEnd::Completed
            } else {
                RunEnd::Deadlock(stuck)
            };
            (end, inner.now)
        };
        RunOutcome { end, now }
    }

    fn drain_wakes(&mut self) {
        let ids: Vec<TaskId> = {
            let inner = self.rc.borrow();
            let mut sink = inner.wake_sink.lock().expect("wake sink poisoned");
            sink.drain(..).collect()
        };
        if !ids.is_empty() {
            let mut inner = self.rc.borrow_mut();
            for id in ids {
                inner.wake_task(id);
            }
        }
    }

    fn handle_dispatch(&mut self, core: CoreId) {
        let mut inner = self.rc.borrow_mut();
        inner.cpus[core.index()].dispatch_scheduled = false;
        if inner.cpus[core.index()].running.is_some() {
            return;
        }
        while let Some(id) = inner.cpus[core.index()].pop() {
            let ready = inner
                .task(id)
                .map(|t| t.state == TaskState::Ready)
                .unwrap_or(false);
            if !ready {
                continue; // Stale queue entry for a finished task.
            }
            let now = inner.now;
            let cpu = &mut inner.cpus[core.index()];
            cpu.running = Some(id);
            cpu.busy_since = Some(now);
            let ctx_cost = if cpu.is_device {
                0
            } else {
                inner.cfg.ctx_switch
            };
            inner.task_mut(id).expect("checked ready").state = TaskState::Scheduled;
            inner.schedule(now + ctx_cost, EventKind::Poll(id));
            inner.stats.incr("sim.dispatches");
            return;
        }
    }

    fn poll_task(&mut self, id: TaskId) {
        let (mut fut, running_core, waker) = {
            let mut inner = self.rc.borrow_mut();
            let Some(task) = inner.task_mut(id) else {
                return; // Stale poll event for a dead task.
            };
            if !matches!(task.state, TaskState::Scheduled | TaskState::Busy) {
                return;
            }
            task.state = TaskState::Polling;
            let fut = task.future.take().expect("live task has a future");
            let waker = task.waker.clone();
            (fut, task.core, waker)
        };

        let mut cx = Context::from_waker(&waker);
        let poll_result = {
            let _guard = ctx::enter(self.rc.clone(), id, running_core);
            panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
        };

        match poll_result {
            Ok(Poll::Pending) => {
                let mut inner = self.rc.borrow_mut();
                inner.stats.incr("sim.polls");
                let effect = inner.poll_effect.take();
                let Some(task) = inner.task_mut(id) else {
                    // The task cannot have been killed mid-poll
                    // (single-threaded, kill asserts !Polling).
                    unreachable!("task vanished during its own poll");
                };
                task.future = Some(fut);
                match effect {
                    Some(PollEffect::BusyFor(n)) => {
                        task.state = TaskState::Busy;
                        let at = inner.now + n;
                        inner.schedule(at, EventKind::Poll(id));
                    }
                    Some(PollEffect::Yield) => {
                        let task = inner.task_mut(id).expect("present");
                        task.state = TaskState::Ready;
                        let (dest, high) = (task.core, task.high);
                        inner.cpus[dest.index()].push(id, high);
                        inner.release_cpu(running_core);
                        inner.ensure_dispatch(running_core);
                        inner.ensure_dispatch(dest);
                    }
                    Some(PollEffect::BlockHoldingCore) => {
                        // Spin-wait: blocked for wake purposes, but the
                        // core stays occupied (and accrues busy time).
                        task.state = TaskState::Blocked;
                    }
                    None => {
                        task.state = TaskState::Blocked;
                        inner.release_cpu(running_core);
                        inner.ensure_dispatch(running_core);
                    }
                }
            }
            Ok(Poll::Ready(())) => {
                // Drop the future before re-borrowing: its Drop may
                // deregister from channels, which touches `Inner`.
                drop(fut);
                let hook = {
                    let mut inner = self.rc.borrow_mut();
                    inner.stats.incr("sim.polls");
                    inner.stats.incr("sim.tasks_finished");
                    inner.remove_task(id)
                };
                // Normal completion: the wrapper already stored the
                // result. Drop the unused hook outside the borrow.
                drop(hook);
            }
            Err(payload) => {
                drop(fut);
                let msg = panic_message(payload);
                let hook = {
                    let mut inner = self.rc.borrow_mut();
                    inner.stats.incr("sim.tasks_panicked");
                    inner.remove_task(id)
                };
                if let Some(hook) = hook {
                    let waiters = hook(JoinError::Panicked(msg));
                    let mut inner = self.rc.borrow_mut();
                    for w in waiters {
                        inner.wake_task(w);
                    }
                }
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.rc.borrow().now
    }

    /// Snapshot of the statistics registry.
    pub fn stats(&self) -> Stats {
        self.rc.borrow().stats.clone()
    }

    /// Per-CPU-core utilization in `[0, 1]` since time zero.
    pub fn core_utilization(&self) -> Vec<f64> {
        let inner = self.rc.borrow();
        let now = inner.now.max(1);
        inner
            .cpus
            .iter()
            .take(inner.real_cores)
            .map(|c| {
                let busy = c.busy_cycles + c.busy_since.map(|s| inner.now - s).unwrap_or(0);
                busy as f64 / now as f64
            })
            .collect()
    }

    /// Busy cycles by task name since time zero: every span from a
    /// task's dispatch (its context switch included) to the release of
    /// its core, summed over the tasks of that name, exited or alive.
    /// A span still open is counted up to now.
    pub fn busy_by_task(&self) -> BTreeMap<String, Cycles> {
        let inner = self.rc.borrow();
        let mut out: BTreeMap<String, Cycles> = inner
            .busy_exited
            .iter()
            .map(|(name, &busy)| (name.to_string(), busy))
            .collect();
        for (idx, task) in inner.tasks.iter() {
            let id = TaskId {
                index: idx as u32,
                gen: task.gen,
            };
            let cpu = &inner.cpus[task.core.index()];
            let open = match cpu.busy_since {
                Some(since) if cpu.running == Some(id) => inner.now - since,
                _ => 0,
            };
            if task.busy_cycles + open > 0 {
                *out.entry(task.name.to_string()).or_default() += task.busy_cycles + open;
            }
        }
        out
    }

    /// Rolling FNV hash of every handled event; equal seeds and
    /// workloads produce equal hashes (the determinism test relies on
    /// this).
    pub fn trace_hash(&self) -> u64 {
        self.rc.borrow().trace_hash
    }

    /// Number of CPU (non-device) cores.
    pub fn cores(&self) -> usize {
        self.rc.borrow().real_cores
    }

    /// Stores a value in the simulation's extension registry, keyed by
    /// type (used by higher layers to attach cost models).
    pub fn ext_insert<T: 'static>(&self, value: T) {
        self.rc
            .borrow_mut()
            .ext
            .insert(TypeId::of::<T>(), Arc::new(value));
    }

    /// Fetches a value from the extension registry.
    pub fn ext_get<T: 'static>(&self) -> Option<Arc<T>> {
        let inner = self.rc.borrow();
        inner
            .ext
            .get(&TypeId::of::<T>())
            .cloned()
            .and_then(ctx::downcast_arc::<T>)
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}
