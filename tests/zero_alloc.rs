//! The io_uring-shape claim, enforced: once the port is warm, a
//! pipelined `getpid` round — 32 deferred calls, one submit, 32
//! completions — allocates **one reply slot per call and nothing
//! else**.
//!
//! A reply slot is §3's "fresh channel used to send the return value
//! back": allocated by the call, freed on completion. Everything else
//! on the path is reused: the batch's request buffer, the calls
//! vector, the channel queues, the server's drain buffers, its
//! `ReplyBatch` and wake buffer. A counting global allocator proves
//! it.
//!
//! This file holds exactly one test: the allocator counter is
//! process-global, so a sibling test running in a parallel thread
//! would charge its allocations to our measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chanos::kernel::{boot, BootCfg, FsKind, KernelKind};
use chanos::parchan::Runtime;
use chanos::rt::CoreId;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const DEPTH: usize = 32;

async fn round(
    b: &mut chanos::kernel::SyscallBatch,
    calls: &mut Vec<chanos::rt::Call<chanos::kernel::Pid>>,
) {
    for _ in 0..DEPTH {
        calls.push(b.getpid());
    }
    b.submit().await;
    for c in calls.drain(..) {
        c.await.expect("getpid");
    }
}

#[test]
fn warm_pipelined_getpid_round_allocates_one_reply_slot_per_call() {
    let rt = Runtime::new(2);
    let min_delta = rt.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            (0..2).map(CoreId).collect(),
        ))
        .await;
        let env = os.procs.env();
        let mut b = env.batch();
        let mut calls = Vec::with_capacity(DEPTH);
        // Warm everything with one-time capacity: the channel queues,
        // the server's drain buffers.
        for _ in 0..200 {
            round(&mut b, &mut calls).await;
        }
        // Several measurement windows, scored by the best one: the
        // steady state must contain *a* window with the reply slots
        // and nothing else; a stray allocation on another runtime
        // thread may dirty an individual window without disproving
        // that.
        let mut min_delta = u64::MAX;
        for _ in 0..5 {
            let before = ALLOCS.load(Ordering::SeqCst);
            for _ in 0..20 {
                round(&mut b, &mut calls).await;
            }
            min_delta = min_delta.min(ALLOCS.load(Ordering::SeqCst) - before);
        }
        drop(b);
        drop(os);
        min_delta
    });
    rt.shutdown();
    assert_eq!(
        min_delta,
        20 * DEPTH as u64,
        "a warm depth-{DEPTH} pipelined getpid round allocates its {DEPTH} \
         reply slots and nothing else (best window of 20 rounds performed \
         {min_delta} allocations)"
    );
}
