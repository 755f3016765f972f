//! The lock-free injector: the one queue type the scheduler shares
//! between threads.
//!
//! An intrusive Treiber stack over `TaskCell::next_injected`: `push`
//! leaks the `Arc` into a raw pointer and CASes it onto `head` —
//! **zero allocation**, which is what keeps the warm pipelined-
//! syscall path at one allocation a call (`tests/zero_alloc.rs`: every
//! off-pool wake of the server task goes through here). Consumers
//! take the *whole* stack with one `swap` and reverse it in place,
//! so each take yields one FIFO **burst** (the "bucket" granularity:
//! `sched.injector_bursts` counts these). Leftovers a consumer hands
//! back with [`Burst::put_back`] re-enter *beneath* everything pushed
//! since their take, so the next take yields them first, in their
//! order, and no later push overtakes them.
//!
//! ABA is a non-issue: a node (TaskCell) can only be in one queue at
//! a time (`SCHEDULED` state exclusivity), and a popped node is only
//! re-pushed through the same ownership transfer, so a head pointer
//! seen twice still has a `next_injected` we wrote ourselves.
//!
//! The executor instantiates this type for every queue more than one
//! thread pushes to: the global injector (ring overflow, spawns and
//! wakes from off-pool threads — `block_on` callers, the timer
//! thread), the **high-priority lane** that `Priority::High`
//! spawns/wakes route through (checked before any local queue on
//! every dispatch — see the executor's `take_hi`), and one **pinned
//! queue per worker**, which any thread pushes to and only its worker
//! takes from (it pops the burst it took before taking again, so
//! pinned tasks run in arrival order).
//!
//! Zero `Mutex::lock` calls in this module (audited by the facade
//! lint's mutex-free rule). Under `--features chanos_check` the
//! unit test `put_back_is_fifo_against_a_concurrent_push` explores
//! a take, pop and put-back against a racing push on this code.

use crate::executor::TaskCell;
use crate::sync::{Arc, AtomicPtr, Ordering};

pub(crate) struct Injector {
    head: AtomicPtr<TaskCell>,
}

// SAFETY: the raw pointers are `Arc::into_raw` of `Send + Sync` task
// cells; ownership transfers atomically through the head CAS.
unsafe impl Send for Injector {}
unsafe impl Sync for Injector {}

impl Injector {
    pub(crate) fn new() -> Injector {
        Injector {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Cheap emptiness probe for `has_work` re-checks.
    pub(crate) fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null()
    }

    /// Pushes one task. Allocation-free: the `Arc` itself becomes the
    /// queue node.
    pub(crate) fn push(&self, task: Arc<TaskCell>) {
        let ptr = Arc::into_raw(task) as *mut TaskCell;
        // SAFETY: `ptr` is a one-node chain of a leaked `Arc` we own.
        unsafe { self.push_chain(ptr, ptr) };
    }

    /// Splices a pre-linked chain (head `first` .. tail `last`, linked
    /// through `next_injected`) in one CAS. Used by `push` and by ring
    /// overflow to spill half a local queue.
    ///
    /// # Safety
    /// `first..last` must be a valid chain of leaked `Arc`s owned by
    /// the caller, `last`'s next link writable.
    unsafe fn push_chain(&self, first: *mut TaskCell, last: *mut TaskCell) {
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: the chain is the caller's until the CAS below
            // publishes it (this fn's contract), so `last` is a live
            // `TaskCell` whose link nobody else reads yet.
            unsafe { (*last).next_injected.store(cur, Ordering::Relaxed) };
            // Release publishes the chain's links (and the push
            // itself) to the consumer's Acquire swap.
            match self
                .head
                .compare_exchange(cur, first, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => cur = h,
            }
        }
    }

    /// Pushes a whole batch (FIFO order: `tasks[0]` should come out
    /// first) as one pre-linked chain with a single CAS. Used by ring
    /// overflow to spill half a local queue.
    pub(crate) fn push_batch(&self, tasks: Vec<Arc<TaskCell>>) {
        // Build the chain newest-at-head so the next `take_all`'s
        // reversal yields `tasks[0]` first.
        let mut head: *mut TaskCell = std::ptr::null_mut();
        let mut tail: *mut TaskCell = std::ptr::null_mut();
        for t in tasks {
            let ptr = Arc::into_raw(t) as *mut TaskCell;
            // SAFETY: we own `ptr` until the splice below.
            unsafe { (*ptr).next_injected.store(head, Ordering::Relaxed) };
            if tail.is_null() {
                tail = ptr;
            }
            head = ptr;
        }
        if head.is_null() {
            return;
        }
        // SAFETY: `head..tail` is the chain we just linked.
        unsafe { self.push_chain(head, tail) };
    }

    /// Takes everything in one swap and reverses the chain in place,
    /// yielding a FIFO [`Burst`] (oldest push first). Returns `None`
    /// when empty.
    pub(crate) fn take_all(&self) -> Option<Burst> {
        let top = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        if top.is_null() {
            return None;
        }
        // SAFETY: the swap detached the whole chain; it is ours.
        Some(Burst {
            head: unsafe { reverse(top) },
        })
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        drop(self.take_all());
    }
}

/// Reverses a null-terminated chain in place and returns its new
/// head (the old last node).
///
/// # Safety
/// The chain from `cur` must be detached and owned by the caller.
unsafe fn reverse(mut cur: *mut TaskCell) -> *mut TaskCell {
    let mut prev: *mut TaskCell = std::ptr::null_mut();
    while !cur.is_null() {
        // SAFETY: the chain is the caller's (this fn's contract).
        let next = unsafe { (*cur).next_injected.load(Ordering::Relaxed) };
        unsafe { (*cur).next_injected.store(prev, Ordering::Relaxed) };
        prev = cur;
        cur = next;
    }
    prev
}

/// One take-all's worth of injector tasks in FIFO order. Owns the
/// chain: dropping a non-empty burst releases the remaining refs.
pub(crate) struct Burst {
    head: *mut TaskCell,
}

// SAFETY: exclusive owner of a detached chain of leaked `Arc`s.
unsafe impl Send for Burst {}

impl Burst {
    /// Remaining chain length (O(n) walk; only used on the rare
    /// ring-overflow path for counter bookkeeping).
    pub(crate) fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head;
        while !cur.is_null() {
            n += 1;
            // SAFETY: exclusive chain walk.
            cur = unsafe { (*cur).next_injected.load(Ordering::Relaxed) };
        }
        n
    }

    pub(crate) fn pop(&mut self) -> Option<Arc<TaskCell>> {
        if self.head.is_null() {
            return None;
        }
        let ptr = self.head;
        // SAFETY: we own the chain; `ptr` came from `Arc::into_raw`.
        self.head = unsafe { (*ptr).next_injected.load(Ordering::Relaxed) };
        Some(unsafe { Arc::from_raw(ptr) })
    }

    /// Returns a popped task to the front: the next `pop` yields it.
    pub(crate) fn push_front(&mut self, task: Arc<TaskCell>) {
        task.next_injected.store(self.head, Ordering::Relaxed);
        self.head = Arc::into_raw(task) as *mut TaskCell;
    }

    /// Returns the remaining tasks to `inj` *beneath* every task
    /// pushed since the take that produced this burst: the next
    /// `take_all` yields these first, in their order, then the
    /// arrivals in theirs. The leftovers are published only onto an
    /// empty stack (a CAS from null); whatever was pushed meanwhile is
    /// detached first and linked above them, retrying while pushes
    /// race.
    pub(crate) fn put_back(mut self, inj: &Injector) {
        let oldest = std::mem::replace(&mut self.head, std::ptr::null_mut());
        if oldest.is_null() {
            return;
        }
        // SAFETY: we own the chain. Reversed into stack order it runs
        // from the newest leftover down to `oldest`, whose link is now
        // null: the stack's bottom.
        let mut top = unsafe { reverse(oldest) };
        // Release publishes our links to the next Acquire swap.
        while inj
            .head
            .compare_exchange(
                std::ptr::null_mut(),
                top,
                Ordering::Release,
                Ordering::Relaxed,
            )
            .is_err()
        {
            // Acquire pairs with the arrivals' Release pushes.
            let arrivals = inj.head.swap(std::ptr::null_mut(), Ordering::Acquire);
            if arrivals.is_null() {
                continue; // another consumer took them
            }
            // SAFETY: the swap detached the arrivals; they are ours.
            // Their oldest (last) node's link is null; pointing it at
            // our chain stacks them above it.
            unsafe {
                let mut last = arrivals;
                loop {
                    let next = (*last).next_injected.load(Ordering::Relaxed);
                    if next.is_null() {
                        break;
                    }
                    last = next;
                }
                (*last).next_injected.store(top, Ordering::Relaxed);
            }
            top = arrivals;
        }
    }
}

impl Drop for Burst {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells<const N: usize>() -> [Arc<TaskCell>; N] {
        std::array::from_fn(|_| TaskCell::detached())
    }

    /// Everything `inj` holds, oldest first, by cell identity.
    fn drain(inj: &Injector, of: &[Arc<TaskCell>]) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(mut burst) = inj.take_all() {
            while let Some(t) = burst.pop() {
                out.push(
                    of.iter()
                        .position(|c| Arc::ptr_eq(c, &t))
                        .expect("known cell"),
                );
            }
        }
        out
    }

    #[test]
    fn push_push_batch_and_take_all_keep_push_order() {
        let cs = cells::<5>();
        let inj = Injector::new();
        assert!(inj.is_empty() && inj.take_all().is_none());
        inj.push(cs[0].clone());
        inj.push_batch(vec![cs[1].clone(), cs[2].clone(), cs[3].clone()]);
        inj.push_batch(Vec::new());
        inj.push(cs[4].clone());
        assert!(!inj.is_empty());
        let burst = inj.take_all().expect("five pushed");
        assert_eq!(burst.len(), 5);
        assert!(inj.is_empty());
        burst.put_back(&inj);
        assert_eq!(drain(&inj, &cs), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn put_back_goes_beneath_what_was_pushed_since_the_take() {
        let cs = cells::<4>();
        let inj = Injector::new();
        for c in &cs[..3] {
            inj.push(c.clone());
        }
        let mut burst = inj.take_all().expect("three pushed");
        assert!(Arc::ptr_eq(&burst.pop().expect("oldest"), &cs[0]));
        inj.push(cs[3].clone());
        burst.put_back(&inj);
        assert_eq!(drain(&inj, &cs), [1, 2, 3], "a later push overtook");
    }

    /// The test above, explored: D's push may land before the take,
    /// between the take and the put-back, or inside the put-back's
    /// retry loop, and B C D must come out in every schedule.
    #[cfg(feature = "chanos_check")]
    #[test]
    fn put_back_is_fifo_against_a_concurrent_push() {
        use chanos_check::{thread, Explorer};
        Explorer::default()
            .check(|| {
                let cs = cells::<4>();
                let inj = Arc::new(Injector::new());
                for c in &cs[..3] {
                    inj.push(c.clone());
                }
                let pusher = {
                    let (inj, d) = (inj.clone(), cs[3].clone());
                    thread::spawn(move || inj.push(d))
                };
                let mut burst = inj.take_all().expect("three pushed");
                assert!(Arc::ptr_eq(&burst.pop().expect("oldest"), &cs[0]));
                burst.put_back(&inj);
                pusher.join();
                assert_eq!(drain(&inj, &cs), [1, 2, 3], "a push overtook the put-back");
            })
            .assert_ok();
    }

    #[test]
    fn push_front_is_popped_next_and_put_back_first() {
        let cs = cells::<3>();
        let inj = Injector::new();
        inj.push_batch(cs.to_vec());
        let mut burst = inj.take_all().expect("three pushed");
        let first = burst.pop().expect("oldest");
        burst.push_front(first);
        assert_eq!(burst.len(), 3);
        burst.put_back(&inj);
        assert_eq!(drain(&inj, &cs), [0, 1, 2]);
    }

    #[test]
    fn a_dropped_burst_or_injector_releases_every_task() {
        let cs = cells::<3>();
        let inj = Injector::new();
        for c in &cs {
            inj.push(c.clone());
        }
        let mut burst = inj.take_all().expect("three pushed");
        drop(burst.pop());
        drop(burst);
        inj.push_batch(cs.to_vec());
        drop(inj);
        for c in &cs {
            assert_eq!(Arc::strong_count(c), 1);
        }
    }
}
