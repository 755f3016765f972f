//! Counters: one table per [`crate::Runtime`], the only place a
//! counter lives on the threads backend.
//!
//! A table is one cache-line-aligned [`Block`] per worker plus one
//! shared by every thread that is not a worker of the runtime (the
//! callers of `block_on`; the timer thread or another runtime's
//! worker waking one of its tasks). A block holds an atomic for each
//! built-in counter and a map for the names that arrive as strings
//! through [`stat_add`]. A bump writes only the block of the thread
//! making it; a read sums the blocks.
//!
//! The thread's block is found through one thread-local, installed
//! by the executor for as long as the thread is a worker or drives
//! `block_on`. Channels belong to no runtime, so a `chan.*` bump is
//! counted by the runtime the *calling thread* has entered; **a
//! thread in no runtime counts into nothing**.
//!
//! Counters are statistics, not protocol: every access is `Relaxed`
//! and publishes nothing, so the atomics come from `std` directly
//! (like `Arc` in [`crate::sync`]) and add no interleavings under
//! `--features chanos_check`.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Declares the built-in counters once: `Counter::X as usize` is the
/// position of X's name in [`NAMES`] and of its atomic in a block.
macro_rules! builtin_counters {
    ($($(#[$doc:meta])* $id:ident = $name:literal,)*) => {
        /// A counter the runtime itself maintains.
        #[derive(Clone, Copy)]
        pub(crate) enum Counter {
            $($(#[$doc])* $id,)*
        }

        /// Names of the built-in counters, in `Counter` order.
        pub(crate) const NAMES: &[&str] = &[$($name,)*];
    };
}

builtin_counters! {
    /// Sends that completed on their first poll without parking.
    FastSends = "chan.fast_sends",
    /// Sends that parked (registered a waker) at least once.
    SlowSends = "chan.slow_sends",
    /// Receives that completed on their first poll without parking.
    FastRecvs = "chan.fast_recvs",
    /// Receives that parked at least once.
    SlowRecvs = "chan.slow_recvs",
    /// Wakeups issued to parked receivers.
    RecvWakes = "chan.recv_wakes",
    /// Wakeups issued to parked senders.
    SendWakes = "chan.send_wakes",
    /// Batched drains (`recv_many` / `try_recv_many`).
    RecvManyCalls = "chan.recv_many_calls",
    /// Messages moved by batched drains.
    RecvManyMsgs = "chan.recv_many_msgs",
    /// Batched submits (`Sender::try_send_many`).
    SendManyCalls = "chan.send_many_calls",
    /// Messages enqueued by batched submits.
    SendManyMsgs = "chan.send_many_msgs",
    /// Duplicate same-task wakes absorbed by a `WakeBatch`.
    ReplyWakesCoalesced = "chan.reply_wakes_coalesced",
    /// Tasks migrated by steals.
    Steals = "sched.steals",
    /// Successful batch claims (an idle worker taking half a
    /// sibling's ring in one CAS).
    StealBatches = "sched.steal_batches",
    /// Injector take-alls that yielded at least one task.
    InjectorBursts = "sched.injector_bursts",
    /// Local-ring overflows spilled to the injector.
    Overflows = "sched.overflows",
    /// Pre-park re-checks that found work and self-rescued.
    ParksSkipped = "sched.parks_skipped",
    /// Park backstop timeouts after which the worker's next search
    /// found a task: work that was queued while every worker slept,
    /// with no notification delivered. Zero while no wake is lost.
    BackstopRescues = "sched.backstop_rescues",
    /// Producer wakes skipped because a searching worker covers the
    /// new work.
    UnparksElided = "sched.unparks_elided",
    /// Wakes that landed on the waking worker's own run queue
    /// (cache-hot, steal-free: no unpark, no injector).
    WakesLocal = "sched.wakes_local",
    /// Wakes routed through the global injector (off-pool).
    WakesInjector = "sched.wakes_injector",
    /// Wakes routed to a pinned queue.
    WakesPinned = "sched.wakes_pinned",
    /// High-priority tasks spawned.
    PrioritySpawns = "sched.priority_spawns",
    /// High-priority wakes routed through the high lane.
    PriorityWakes = "sched.priority_wakes",
    /// Non-empty high-lane claims; zero under high-priority load
    /// means the lane is dead and every "high" task silently ran at
    /// normal priority.
    PriorityBursts = "sched.priority_bursts",
}

/// The next task key (`current_task_key`). Keys are unique in the
/// process, not per runtime, because a key names a task to code above
/// parchan that may span runtimes (the protocol deadlock registry).
/// Like a counter it is `Relaxed` and publishes nothing, so it is
/// `std` and adds no interleavings under `--features chanos_check`.
static NEXT_TASK_KEY: AtomicU64 = AtomicU64::new(1);

/// Hands out a fresh task key.
pub(crate) fn next_task_key() -> u64 {
    NEXT_TASK_KEY.fetch_add(1, Ordering::Relaxed)
}

/// One thread's counters. Aligned to two cache lines so neighbouring
/// blocks never share one (nor an adjacent-line prefetch pair).
#[repr(align(128))]
struct Block {
    builtin: [AtomicU64; NAMES.len()],
    named: Mutex<HashMap<String, u64>>,
}

impl Block {
    fn named(&self) -> MutexGuard<'_, HashMap<String, u64>> {
        // A panic under the lock leaves every entry a valid count.
        self.named.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A runtime's counters: block `w` belongs to worker `w`, the last
/// one to everybody else.
pub(crate) struct Table {
    blocks: Box<[Arc<Block>]>,
}

thread_local! {
    /// The calling thread's block in the runtime it has entered; null
    /// in no runtime. A non-null pointer here, or in an
    /// [`Entered::outer`], came from `Arc::into_raw` and *owns* that
    /// reference, so it points to a live block wherever it is found —
    /// whatever order guards are dropped in, and if one is leaked. (A
    /// plain pointer because every channel operation reads it: behind
    /// a `RefCell<Option<Arc<_>>>`, `bounded(64)` 4p4c at one worker
    /// ran 4 % under the process-wide statics this table replaced, in
    /// ten of ten alternating pairs; like this it ties them.)
    static HERE: Cell<*const Block> = const { Cell::new(std::ptr::null()) };
}

/// Restores the thread's previous block when dropped.
pub(crate) struct Entered {
    outer: *const Block,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let inner = HERE.replace(self.outer);
        if !inner.is_null() {
            // SAFETY: a non-null pointer taken out of `HERE` owns the
            // `Arc` reference `enter` put in.
            drop(unsafe { Arc::from_raw(inner) });
        }
    }
}

/// Runs `f` on the calling thread's block, if it has entered a
/// runtime.
#[inline]
fn here(f: impl FnOnce(&Block)) {
    // SAFETY: `HERE` owns a reference to the block it points to, and
    // only this thread can release it — by dropping an `Entered`,
    // which `f` (a bump, in this module) does not.
    if let Some(block) = unsafe { HERE.get().as_ref() } {
        f(block);
    }
}

impl Table {
    pub(crate) fn new(workers: usize) -> Table {
        let block = || Block {
            builtin: std::array::from_fn(|_| AtomicU64::new(0)),
            named: Mutex::new(HashMap::new()),
        };
        Table {
            blocks: (0..workers + 1).map(|_| Arc::new(block())).collect(),
        }
    }

    /// `worker`'s block, or the shared one.
    fn block(&self, worker: Option<usize>) -> &Arc<Block> {
        &self.blocks[worker.unwrap_or(self.blocks.len() - 1)]
    }

    /// Makes this the calling thread's table until the guard drops:
    /// the thread counts as `worker`, or as a caller of `block_on`.
    pub(crate) fn enter(&self, worker: Option<usize>) -> Entered {
        let block = Arc::into_raw(self.block(worker).clone());
        Entered {
            outer: HERE.replace(block),
        }
    }

    /// Counts on *this* table whichever runtime the calling thread
    /// has entered — the scheduler routes other runtimes' tasks too,
    /// and says itself whether it runs as one of this one's workers.
    pub(crate) fn add(&self, worker: Option<usize>, c: Counter, v: u64) {
        self.block(worker).builtin[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// The built-in counter at index `i` (`Counter::X as usize`).
    pub(crate) fn sum(&self, i: usize) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.builtin[i].load(Ordering::Relaxed))
            .sum()
    }

    /// Reads one counter by name (0 if nothing ever counted it).
    pub(crate) fn get(&self, name: &str) -> u64 {
        // Both homes are summed so that a `stat_add` to a built-in
        // name is not lost.
        let builtin = NAMES.iter().position(|n| *n == name);
        let named = self
            .blocks
            .iter()
            .filter_map(|b| b.named().get(name).copied());
        builtin.map_or(0, |i| self.sum(i)) + named.sum::<u64>()
    }

    /// Every counter, name-sorted: all built-ins, and each name
    /// `stat_add` has seen.
    pub(crate) fn snapshot(&self) -> Vec<(String, u64)> {
        let mut all: BTreeMap<String, u64> = NAMES
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), self.sum(i)))
            .collect();
        for b in self.blocks.iter() {
            for (name, v) in b.named().iter() {
                *all.entry(name.clone()).or_default() += v;
            }
        }
        all.into_iter().collect()
    }
}

/// Counts on the table of the runtime the calling thread has entered.
#[inline]
pub(crate) fn add(c: Counter, v: u64) {
    here(|b| {
        b.builtin[c as usize].fetch_add(v, Ordering::Relaxed);
    });
}

/// Adds `v` to a named counter of the runtime the calling thread has
/// entered (see [`crate::Handle::stat_get`] for reading it back).
/// Touches only the calling thread's block, and allocates only the
/// first time that block sees `name`.
pub fn stat_add(name: &str, v: u64) {
    here(|b| {
        let mut named = b.named();
        if let Some(c) = named.get_mut(name) {
            *c += v;
        } else {
            named.insert(name.to_string(), v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::NAMES;

    #[test]
    fn every_builtin_name_is_in_the_stat_registry() {
        let registry: Vec<&str> = include_str!("../../check/stat_registry.txt")
            .lines()
            .collect();
        for name in NAMES {
            assert!(registry.contains(name), "{name} is not registered");
        }
    }
}
