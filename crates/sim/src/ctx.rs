//! The ambient task context: free functions available inside simulated
//! tasks.
//!
//! While the executor polls a task it installs a thread-local context
//! pointing at the simulation, the current task, and its core. The
//! functions here (and the synchronization primitives in higher
//! crates) use that context, which keeps application code free of
//! handle-threading: `spawn(async { delay(10).await })` just works.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use crate::executor::{kill_impl, spawn_impl, Inner, PollEffect, SpawnOpts};
use crate::ids::{CoreId, Cycles, TaskId};
use crate::join::JoinHandle;
use crate::rng::Pcg32;

struct Ctx {
    rc: Rc<RefCell<Inner>>,
    task: TaskId,
    core: CoreId,
}

thread_local! {
    static CTX: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

pub(crate) struct CtxGuard;

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

pub(crate) fn enter(rc: Rc<RefCell<Inner>>, task: TaskId, core: CoreId) -> CtxGuard {
    CTX.with(|c| c.borrow_mut().push(Ctx { rc, task, core }));
    CtxGuard
}

/// Returns `true` when called from inside a simulated task.
pub fn in_sim() -> bool {
    CTX.with(|c| !c.borrow().is_empty())
}

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CTX.with(|c| {
        let stack = c.borrow();
        let ctx = stack
            .last()
            .expect("this operation requires a running simulated task");
        f(ctx)
    })
}

pub(crate) fn with_inner<R>(f: impl FnOnce(&mut Inner) -> R) -> R {
    with_ctx(|ctx| f(&mut ctx.rc.borrow_mut()))
}

/// Current virtual time, in cycles.
pub fn now() -> Cycles {
    with_inner(|i| i.now)
}

/// Id of the task being polled.
pub fn current_task() -> TaskId {
    with_ctx(|ctx| ctx.task)
}

/// Core the current task is running on.
pub fn current_core() -> CoreId {
    with_ctx(|ctx| ctx.core)
}

/// Returns `true` if the current task was spawned in the high class
/// ([`spawn_named_high`]).
pub fn current_task_is_high() -> bool {
    with_ctx(|ctx| ctx.rc.borrow().task(ctx.task).is_some_and(|t| t.high))
}

/// Number of CPU (non-device) cores in the machine.
pub fn real_cores() -> usize {
    with_inner(|i| i.real_cores)
}

/// Returns the shared "system device" pseudo-core, creating it on
/// first use. Hardware-engine activities (coherence retirement, DMA
/// models) run here so they can never be starved by busy CPU cores.
pub fn system_device_core() -> CoreId {
    with_inner(|i| {
        if let Some(c) = i.system_device_core {
            return c;
        }
        i.cpus.push(crate::executor::Cpu::new_device());
        let c = CoreId((i.cpus.len() - 1) as u32);
        i.system_device_core = Some(c);
        c
    })
}

/// Returns `true` while the task exists and has not finished.
pub fn task_alive(id: TaskId) -> bool {
    with_inner(|i| i.task(id).is_some())
}

/// Immediately makes a blocked task runnable (no-op otherwise).
pub fn wake_now(id: TaskId) {
    with_inner(|i| i.wake_task(id));
}

/// Schedules a wake for `id` at absolute time `at`.
pub fn schedule_wake_at(id: TaskId, at: Cycles) {
    with_inner(|i| i.schedule_wake(id, at));
}

/// Kills a task from inside the simulation.
///
/// Returns `true` if the task was alive. The task's future is dropped
/// (running its cleanup code) and joiners observe
/// [`crate::JoinError::Killed`].
///
/// # Panics
///
/// Panics if a task attempts to kill itself.
pub fn kill(id: TaskId) -> bool {
    let rc = with_ctx(|ctx| ctx.rc.clone());
    kill_impl(&rc, id)
}

pub(crate) fn set_poll_effect(effect: PollEffect) {
    with_inner(|i| i.poll_effect = Some(effect));
}

/// Marks the current pending await as a *spinning* wait: the task
/// blocks until woken, but its core stays occupied (burning cycles).
///
/// For use by synchronization-primitive futures (simulated spinlocks);
/// call just before returning `Poll::Pending`.
pub fn block_holding_core() {
    set_poll_effect(PollEffect::BlockHoldingCore);
}

/// Adds `v` to a named counter in the simulation statistics.
pub fn stat_add(name: &str, v: u64) {
    with_inner(|i| i.stats.add(name, v));
}

/// Increments a named counter.
pub fn stat_incr(name: &str) {
    stat_add(name, 1);
}

/// Reads a named counter's current value.
pub fn stat_get(name: &str) -> u64 {
    with_inner(|i| i.stats.counter(name))
}

/// Every counter as name-sorted `(name, value)` pairs.
pub fn stat_snapshot() -> Vec<(String, u64)> {
    with_inner(|i| {
        i.stats
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    })
}

/// Runs a closure with the simulation's deterministic RNG.
pub fn with_rng<R>(f: impl FnOnce(&mut Pcg32) -> R) -> R {
    with_inner(|i| f(&mut i.rng))
}

/// Fetches a typed value from the simulation's extension registry.
///
/// Values are stored behind `Arc` so higher layers can hold handles
/// that are `Send` when `T` is (the runtime facade relies on this).
pub fn ext_get<T: 'static>() -> Option<std::sync::Arc<T>> {
    with_inner(|i| {
        i.ext
            .get(&std::any::TypeId::of::<T>())
            .cloned()
            .and_then(downcast_arc::<T>)
    })
}

/// Downcasts an `Arc<dyn Any>` (no `Send + Sync` bound, unlike the
/// std `Arc::downcast`) by checking the type id and re-tagging the
/// pointer.
pub(crate) fn downcast_arc<T: 'static>(
    rc: std::sync::Arc<dyn std::any::Any>,
) -> Option<std::sync::Arc<T>> {
    if (*rc).is::<T>() {
        // SAFETY: the concrete type behind the erased pointer is `T`
        // (just checked); re-tagging the Arc preserves the refcount.
        let raw = std::sync::Arc::into_raw(rc) as *const T;
        Some(unsafe { std::sync::Arc::from_raw(raw) })
    } else {
        None
    }
}

/// Stores a typed value in the extension registry.
pub fn ext_insert<T: 'static>(value: T) {
    with_inner(|i| {
        i.ext
            .insert(std::any::TypeId::of::<T>(), std::sync::Arc::new(value));
    });
}

/// Spawns a task from inside the simulation; placement follows the
/// installed policy (default: inherit the spawner's core).
pub fn spawn<T: 'static>(fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
    let (rc, core) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    spawn_impl(&rc, SpawnOpts::new(), Some(core), fut)
}

/// Spawns a task pinned to `core`.
pub fn spawn_on<T: 'static>(core: CoreId, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
    let (rc, parent) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    let mut opts = SpawnOpts::new();
    opts.core = Some(core);
    spawn_impl(&rc, opts, Some(parent), fut)
}

/// Spawns a named task.
pub fn spawn_named<T: 'static>(
    name: &str,
    fut: impl Future<Output = T> + 'static,
) -> JoinHandle<T> {
    let (rc, core) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    let mut opts = SpawnOpts::new();
    opts.name = Some(name.to_string());
    spawn_impl(&rc, opts, Some(core), fut)
}

/// Spawns a named task in the high class (the facade's
/// `Priority::High`): while it is ready, its core dispatches it, and
/// high-class tasks that became ready before it, ahead of every other
/// ready task.
pub fn spawn_named_high<T: 'static>(
    name: &str,
    fut: impl Future<Output = T> + 'static,
) -> JoinHandle<T> {
    let (rc, core) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    let mut opts = SpawnOpts::new();
    opts.name = Some(name.to_string());
    opts.high = true;
    spawn_impl(&rc, opts, Some(core), fut)
}

/// Spawns a named task pinned to `core`.
pub fn spawn_named_on<T: 'static>(
    name: &str,
    core: CoreId,
    fut: impl Future<Output = T> + 'static,
) -> JoinHandle<T> {
    let (rc, parent) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    let mut opts = SpawnOpts::new();
    opts.name = Some(name.to_string());
    opts.core = Some(core);
    spawn_impl(&rc, opts, Some(parent), fut)
}

/// Spawns a named daemon task (does not keep the simulation alive).
pub fn spawn_daemon<T: 'static>(
    name: &str,
    fut: impl Future<Output = T> + 'static,
) -> JoinHandle<T> {
    let (rc, core) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    let mut opts = SpawnOpts::new();
    opts.name = Some(name.to_string());
    opts.daemon = true;
    spawn_impl(&rc, opts, Some(core), fut)
}

/// Spawns a named daemon task pinned to `core`.
pub fn spawn_daemon_on<T: 'static>(
    name: &str,
    core: CoreId,
    fut: impl Future<Output = T> + 'static,
) -> JoinHandle<T> {
    let (rc, parent) = with_ctx(|ctx| (ctx.rc.clone(), ctx.core));
    let mut opts = SpawnOpts::new();
    opts.name = Some(name.to_string());
    opts.core = Some(core);
    opts.daemon = true;
    spawn_impl(&rc, opts, Some(parent), fut)
}
