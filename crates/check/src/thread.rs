//! Model-thread handles: the `std::thread` subset a model may use.
//!
//! Threads spawned here are real OS threads serialized by the
//! explorer's baton (see [`crate::sched`]); `park`/`unpark` carry the
//! exact token semantics of `std::thread::park`, except the scheduler
//! *knows* a parked thread is blocked — which is how the built-in
//! lost-wake detector works: a model that ends with a thread parked
//! and nobody left to unpark it is reported as a deadlock with the
//! schedule that got there.

use crate::sched;

pub use crate::sched::{ModelJoinHandle as JoinHandle, ThreadId};

/// Spawns a model thread. Panics if called outside a model execution.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    sched::model_spawn(f)
}

/// The calling model thread's id, the target a waker built on this
/// thread hands to [`unpark`]. Panics outside a model execution.
pub fn current() -> ThreadId {
    sched::ctx()
        .expect("check::thread::current outside a model execution")
        .1
}

/// Blocks the calling model thread until a token is available, then
/// consumes it (`std::thread::park` semantics, minus spurious wakes —
/// the explorer enumerates real wake orders instead).
pub fn park() {
    sched::park();
}

/// Deposits a token at (and makes runnable) the thread with id
/// `target` — the id from [`JoinHandle::id`], or `0` for the model's
/// root thread.
pub fn unpark(target: ThreadId) {
    sched::unpark(target);
}

/// A scheduling point that lets every other runnable thread go first:
/// the model equivalent of `std::thread::yield_now`, and the way a
/// model writes a spin-retry loop without monopolizing a schedule.
pub fn yield_now() {
    sched::yield_now();
}
