//! Drop-in replacements for the `std::sync` types, the `std::thread`
//! subset, `catch_unwind` and `spin_loop` that parchan and chanos-nr
//! use, and [`ValueCell`], the checked form of parchan's value slots.
//!
//! Each type wraps its `std` counterpart and adds exactly one thing:
//! when the calling thread is a *model thread* of a live
//! [`Explorer`](crate::sched::Explorer) execution, every visible
//! operation first yields to the controlling scheduler (becoming an
//! explored interleaving point) and records its declared
//! [`Ordering`]. Outside a model execution every operation is a plain
//! passthrough, so code compiled against these types behaves
//! identically to `std` — that is what makes the parchan
//! `crate::sync` facade (which chanos-nr reaches as `rt::sync`) safe
//! to flip with one cfg.

use std::sync::atomic::Ordering;
use std::sync::{LockResult, TryLockError, TryLockResult};

use crate::sched::{self, Op};

/// Re-exported so a facade can `use chanos_check::sync::fence`.
pub fn fence(order: Ordering) {
    sched::sync_op(Op::Fence, order);
    std::sync::atomic::fence(order);
}

macro_rules! shim_atomic {
    ($name:ident, $std:ty, $val:ty) => {
        /// Model-checked wrapper around the matching `std` atomic.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Const-constructible, so statics keep working.
            pub const fn new(v: $val) -> Self {
                Self {
                    inner: <$std>::new(v),
                }
            }

            fn loc(&self) -> usize {
                self as *const _ as usize
            }

            pub fn load(&self, order: Ordering) -> $val {
                sched::sync_op(Op::Load { loc: self.loc() }, order);
                self.inner.load(order)
            }

            pub fn store(&self, v: $val, order: Ordering) {
                sched::sync_op(Op::Store { loc: self.loc() }, order);
                self.inner.store(v, order)
            }

            pub fn swap(&self, v: $val, order: Ordering) -> $val {
                sched::sync_op(Op::Rmw { loc: self.loc() }, order);
                self.inner.swap(v, order)
            }

            pub fn compare_exchange(
                &self,
                current: $val,
                new: $val,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$val, $val> {
                // A failed CAS is only a load, but modeling every CAS
                // as an RMW over-approximates dependence, which keeps
                // sleep-set pruning sound.
                sched::sync_op(Op::Rmw { loc: self.loc() }, success);
                self.inner.compare_exchange(current, new, success, failure)
            }

            pub fn compare_exchange_weak(
                &self,
                current: $val,
                new: $val,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$val, $val> {
                sched::sync_op(Op::Rmw { loc: self.loc() }, success);
                // Under the checker a weak CAS never fails spuriously:
                // spurious failure is just a shorter interleaving of
                // the retry loop the explorer already covers.
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Exclusive access: no concurrency, no scheduling point.
            pub fn get_mut(&mut self) -> &mut $val {
                self.inner.get_mut()
            }

            pub fn into_inner(self) -> $val {
                self.inner.into_inner()
            }
        }
    };
}

macro_rules! shim_atomic_arith {
    ($name:ident, $val:ty) => {
        impl $name {
            pub fn fetch_add(&self, v: $val, order: Ordering) -> $val {
                sched::sync_op(Op::Rmw { loc: self.loc() }, order);
                self.inner.fetch_add(v, order)
            }

            pub fn fetch_sub(&self, v: $val, order: Ordering) -> $val {
                sched::sync_op(Op::Rmw { loc: self.loc() }, order);
                self.inner.fetch_sub(v, order)
            }

            pub fn fetch_or(&self, v: $val, order: Ordering) -> $val {
                sched::sync_op(Op::Rmw { loc: self.loc() }, order);
                self.inner.fetch_or(v, order)
            }

            pub fn fetch_and(&self, v: $val, order: Ordering) -> $val {
                sched::sync_op(Op::Rmw { loc: self.loc() }, order);
                self.inner.fetch_and(v, order)
            }

            pub fn fetch_max(&self, v: $val, order: Ordering) -> $val {
                sched::sync_op(Op::Rmw { loc: self.loc() }, order);
                self.inner.fetch_max(v, order)
            }
        }
    };
}

shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
shim_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);
shim_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
shim_atomic_arith!(AtomicU8, u8);
shim_atomic_arith!(AtomicU32, u32);
shim_atomic_arith!(AtomicU64, u64);
shim_atomic_arith!(AtomicUsize, usize);

/// Model-checked wrapper around `std::sync::atomic::AtomicPtr` (the
/// macro above takes no generic parameter, so it is spelled out).
#[derive(Debug)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    pub const fn new(p: *mut T) -> Self {
        Self {
            inner: std::sync::atomic::AtomicPtr::new(p),
        }
    }

    fn loc(&self) -> usize {
        self as *const _ as usize
    }

    pub fn load(&self, order: Ordering) -> *mut T {
        sched::sync_op(Op::Load { loc: self.loc() }, order);
        self.inner.load(order)
    }

    pub fn store(&self, p: *mut T, order: Ordering) {
        sched::sync_op(Op::Store { loc: self.loc() }, order);
        self.inner.store(p, order)
    }

    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        sched::sync_op(Op::Rmw { loc: self.loc() }, order);
        self.inner.swap(p, order)
    }

    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        // Modeled as an RMW either way, as in the value atomics.
        sched::sync_op(Op::Rmw { loc: self.loc() }, success);
        self.inner.compare_exchange(current, new, success, failure)
    }
}

impl AtomicBool {
    pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
        sched::sync_op(Op::Rmw { loc: self.loc() }, order);
        self.inner.fetch_or(v, order)
    }

    pub fn fetch_and(&self, v: bool, order: Ordering) -> bool {
        sched::sync_op(Op::Rmw { loc: self.loc() }, order);
        self.inner.fetch_and(v, order)
    }
}

/// Checked stand-in for parchan's `UnsafeCell<MaybeUninit<T>>` value
/// slot: an `Option<T>`, so a `put` into a full cell, a `take` from an
/// empty one and a full cell dropped (the real cell leaks) panic. In a
/// model each access is a scheduling point at the cell's address,
/// dependent only on accesses to the same cell, recording no ordering.
pub struct ValueCell<T>(std::cell::UnsafeCell<Option<T>>);

impl<T> Default for ValueCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ValueCell<T> {
    pub const fn new() -> Self {
        Self(std::cell::UnsafeCell::new(None))
    }

    /// # Safety
    /// As for the real cell: the caller has exclusive access.
    pub unsafe fn put(&self, v: T) {
        sched::cell_op(self as *const _ as usize);
        // SAFETY: this fn's contract; in a model only one thread runs.
        let old = unsafe { (*self.0.get()).replace(v) };
        assert!(old.is_none(), "ValueCell::put into a full cell");
    }

    /// # Safety
    /// As for the real cell: the caller has exclusive access.
    pub unsafe fn take(&self) -> T {
        sched::cell_op(self as *const _ as usize);
        // SAFETY: as in `put`.
        match unsafe { (*self.0.get()).take() } {
            Some(v) => v,
            // A second misuse, met by a destructor of the first's unwind.
            None if std::thread::panicking() => sched::strand(EMPTY),
            None => panic!("{EMPTY}"),
        }
    }
}

const EMPTY: &str = "ValueCell::take from an empty cell";

impl<T> Drop for ValueCell<T> {
    fn drop(&mut self) {
        if self.0.get_mut().is_some() && !std::thread::panicking() {
            panic!("a full ValueCell dropped: the real cell would leak its value");
        }
    }
}

/// Model-checked mutex. Lock acquisition is a scheduling point whose
/// *grant* is the acquisition: the scheduler only picks a thread
/// blocked on a lock while the mutex is free, so the inner `std`
/// mutex below is always uncontended inside a model.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(v: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(v),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn loc(&self) -> usize {
        self as *const _ as *const () as usize
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        sched::mutex_lock(self.loc());
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            inner: Some(inner),
            mutex: self,
        })
    }

    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        if !sched::mutex_try_lock(self.loc()) {
            return Err(TryLockError::WouldBlock);
        }
        match self.inner.try_lock() {
            Ok(inner) => Ok(MutexGuard {
                inner: Some(inner),
                mutex: self,
            }),
            Err(TryLockError::Poisoned(e)) => Ok(MutexGuard {
                inner: Some(e.into_inner()),
                mutex: self,
            }),
            Err(TryLockError::WouldBlock) => {
                // Unreachable in a model (the scheduler owns the
                // claim) and means real contention outside one.
                sched::mutex_release_claim(self.loc());
                Err(TryLockError::WouldBlock)
            }
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

/// Guard for [`Mutex`]; release is a scheduling point.
pub struct MutexGuard<'a, T: ?Sized> {
    /// `Some` until dropped or dismantled by `Condvar::wait`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            // Release the real lock first; no other model thread can
            // run until the scheduling point below parks us anyway.
            drop(g);
            sched::mutex_unlock(self.mutex.loc());
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard dismantled")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard dismantled")
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Model-checked reader-writer lock, modeled as a [`Mutex`] (inside a
/// model and out): `read` and `write` both take it exclusively, so two
/// readers are serialized rather than overlapped. A read section that
/// only reads loses no interleaving by it; see ARCHITECTURE.md, "Scope
/// honesty".
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(Mutex<T>);

/// What [`RwLock::write`] returns: the mutex's guard, as `read`'s is.
pub type RwLockWriteGuard<'a, T> = MutexGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(v: T) -> RwLock<T> {
        RwLock(Mutex::new(v))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> LockResult<MutexGuard<'_, T>> {
        self.0.lock()
    }

    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        self.0.lock()
    }
}

/// `std::hint::spin_loop`, except that in a model it is a
/// [`Yield`](crate::sched::Op::Yield): a spin-wait gives every other
/// runnable thread a step before it retries, instead of spending the
/// schedule's preemptions (or its step bound) on one thread re-reading
/// a value nobody else can change while it runs.
pub fn spin_loop() {
    if sched::in_model() {
        sched::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Mirror of `std::sync::WaitTimeoutResult` (which has no public
/// constructor) so facade code can keep calling `.timed_out()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model-checked condition variable.
///
/// Inside a model, `wait` releases the mutex and joins this condvar's
/// wait queue in one step, atomically, as `std` does; the thread then
/// blocks until a `notify_*` picks it and relocks the mutex. A notify
/// with nobody waiting is lost, and a wait never wakes spuriously. The
/// timeout of `wait_timeout` is not modeled (it waits like `wait` and
/// never reports `timed_out()`), so a wake that a timeout backstop
/// would cover on real hardware shows up as a deadlock.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn loc(&self) -> usize {
        self as *const _ as usize
    }

    /// The model wait: hands the mutex back, waits, relocks.
    fn model_wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.mutex;
        // Unlock without `MutexUnlock`'s scheduling point: the release
        // is part of the wait's own step.
        drop(guard.inner.take());
        sched::cond_wait(self.loc(), mutex.loc());
        mutex.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves the real guard out of a shim guard for a `std` wait.
    fn unwrap_guard<'a, T>(
        mut guard: MutexGuard<'a, T>,
    ) -> (std::sync::MutexGuard<'a, T>, &'a Mutex<T>) {
        let inner = guard.inner.take().expect("guard dismantled");
        (inner, guard.mutex)
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if sched::in_model() {
            return Ok(self.model_wait(guard));
        }
        let (inner, mutex) = Self::unwrap_guard(guard);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            inner: Some(inner),
            mutex,
        })
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if sched::in_model() {
            return Ok((self.model_wait(guard), WaitTimeoutResult(false)));
        }
        let (inner, mutex) = Self::unwrap_guard(guard);
        let (inner, res) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(|e| e.into_inner());
        Ok((
            MutexGuard {
                inner: Some(inner),
                mutex,
            },
            WaitTimeoutResult(res.timed_out()),
        ))
    }

    pub fn notify_one(&self) {
        if sched::in_model() {
            sched::cond_notify(self.loc(), false);
        } else {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if sched::in_model() {
            sched::cond_notify(self.loc(), true);
        } else {
            self.inner.notify_all();
        }
    }
}

/// `std::panic::catch_unwind`, except that the unwind with which the
/// explorer tears down an execution passes through: code that catches
/// a task's panic must not take the teardown for one.
pub fn catch_unwind<F: FnOnce() -> R + std::panic::UnwindSafe, R>(f: F) -> std::thread::Result<R> {
    std::panic::catch_unwind(f).map_err(|payload| {
        if payload.is::<sched::ExecutionAbort>() {
            std::panic::resume_unwind(payload);
        }
        payload
    })
}

/// Drop-in for the `std::thread` subset parchan's executor uses. A
/// thread spawned from a model thread is a model thread of the same
/// execution, and `park`/`unpark` between model threads carry the
/// explorer's token; outside a model execution everything is `std`.
pub mod thread {
    use crate::sched::{self, ModelJoinHandle, ThreadId};

    /// `std::thread::Builder`'s `new`, `name` and `spawn`.
    pub struct Builder(std::thread::Builder);

    impl Default for Builder {
        fn default() -> Builder {
            Builder::new()
        }
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder(std::thread::Builder::new())
        }

        /// Names the OS thread (a model thread keeps its `model-N`).
        pub fn name(self, name: String) -> Builder {
            Builder(self.0.name(name))
        }

        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if sched::in_model() {
                return Ok(JoinHandle(Joinable::Model(sched::model_spawn(f))));
            }
            self.0.spawn(f).map(|h| JoinHandle(Joinable::Std(h)))
        }
    }

    /// An owned permission to join a thread spawned by [`Builder`].
    pub struct JoinHandle<T>(Joinable<T>);

    enum Joinable<T> {
        Std(std::thread::JoinHandle<T>),
        Model(ModelJoinHandle<T>),
    }

    impl<T> JoinHandle<T> {
        /// Joining a model thread is a scheduling point, enabled once
        /// it finished (its panic is already the counterexample).
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Joinable::Std(h) => h.join(),
                Joinable::Model(h) => Ok(h.join()),
            }
        }
    }

    /// A handle to a thread, for [`Thread::unpark`].
    #[derive(Clone, Debug)]
    pub struct Thread(Parkable);

    #[derive(Clone, Debug)]
    enum Parkable {
        Std(std::thread::Thread),
        Model(ThreadId),
    }

    impl Thread {
        pub fn unpark(&self) {
            match &self.0 {
                Parkable::Std(t) => t.unpark(),
                Parkable::Model(id) => sched::unpark(*id),
            }
        }
    }

    /// The calling thread.
    pub fn current() -> Thread {
        Thread(match sched::ctx() {
            Some((_, me)) => Parkable::Model(me),
            None => Parkable::Std(std::thread::current()),
        })
    }

    /// Blocks until the calling thread's token is available.
    pub fn park() {
        if sched::in_model() {
            sched::park();
        } else {
            std::thread::park();
        }
    }
}
