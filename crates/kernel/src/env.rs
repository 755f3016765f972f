//! The process environment: the libc-like system-call stubs a
//! "program" uses, over either kernel architecture.
//!
//! §4: *"legacy code can be linked against a compatibility library
//! and used unchanged"* — a program written against [`Env`] cannot
//! tell whether its calls trap (conventional kernel) or become
//! messages to kernel cores (the proposal); only its performance
//! differs.
//!
//! The message path issues every call through a typed
//! [`Port`](chanos_rt::Port), so transport failures keep their
//! meaning: [`KError::Gone`] when the kernel service died before
//! serving the call, [`KError::Cancelled`] when it accepted the call
//! but shut down without answering. [`Env::batch`] exposes the
//! pipelined submit-then-complete surface: queue several syscalls,
//! submit them as **one** kernel message burst, then complete them in
//! any order.
//!
//! On the message kernel the process copies a read's or a write's
//! bytes itself, on its own core, and pays [`copy_cost`] for them
//! there: a read's answer is the blocks the bytes lie in, shared with
//! the cache, and a write's buffer is the one that becomes the file's
//! blocks. The kernel cores move no payload bytes.
//!
//! The message kernel's process keeps its files' offsets: its kernel
//! task hands a read, a write or an `fstat` on to the file system with
//! the process's reply, and the answer comes straight back here, the
//! only place that sees it. A read or a write takes the offset when it
//! is issued and moves it by its length; the answer gives back what a
//! short read did not read (see `Offset`). Clones of an `Env` share
//! the offsets, as they share the fd table.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use chanos_rt::{self as rt, Call, CallError, CoreId, Cycles, JoinHandle, Port, ReplyTo};
use chanos_sim::plock;
use chanos_vfs::{copy_cost, FileSlice, Stat};

use crate::pids::{PidInfo, PidTable};
use crate::syscall::{MsgKernel, Syscall, TrapKernel};
use crate::types::{Fd, KError, Pid};

/// Which kernel a process talks to.
#[derive(Clone)]
pub enum KernelHandle {
    /// System calls are messages to the process's kernel task.
    Msg(MsgKernel),
    /// System calls trap and run on the caller's core.
    Trap(Arc<TrapKernel>),
}

/// Lowers a completed port call to the syscall's result, preserving
/// the transport taxonomy instead of flattening it to `Gone`; an answer
/// of the file system's is its error as a syscall's.
fn flatten<T, E: Into<KError>>(r: Result<Result<T, E>, CallError>) -> Result<T, KError> {
    match r {
        Ok(answer) => answer.map_err(Into::into),
        Err(e) => Err(e.into()),
    }
}

/// Where a read or a write is sent: at `at`, or, if `or_end`, at `at`
/// or the end of the file, whichever comes first.
///
/// A call moves its descriptor's offset when it is sent, a read by the
/// bytes it asks for; until a read's answer says how many it got, the
/// offset after it is `or_end`. A read that came up short stopped at the
/// end of the file, and an offset is never past the end (there is no
/// `lseek`, and no file shrinks while it is open), so a read sent from
/// there reads what it would have after the answer, and a write lands
/// where it would have.
#[derive(Clone, Copy)]
struct Offset {
    at: u64,
    or_end: bool,
}

/// A descriptor's offset: exact where the calls still unsettled start,
/// and those calls, in the order they were sent. Answers settle the
/// calls in that order, each starting where the one before it ended, so
/// the offset is exact again once every call sent has been answered,
/// whatever order the answers were taken in.
#[derive(Default)]
struct Cursor {
    base: u64,
    unsettled: VecDeque<Unsettled>,
    /// How many calls were settled: numbers the calls sent.
    settled: u64,
}

/// A call sent and not yet settled: how far it may move the offset,
/// whether it is a read, and how far it did, once its answer is in.
struct Unsettled {
    by: u64,
    read: bool,
    moved: Option<u64>,
}

/// The offset a call was sent at, and which call it was.
#[derive(Clone, Copy)]
struct Sent {
    from: Offset,
    nth: u64,
}

/// A process's offsets, one per descriptor, shared by every clone of its
/// `Env` and every batch made from one.
#[derive(Clone, Default)]
struct Cursors(Arc<Mutex<HashMap<Fd, Cursor>>>);

impl Cursors {
    /// Makes a call at `fd`'s offset with `send`, moving the offset by
    /// `by` bytes (at most `by`, for a read). The offset is held while
    /// `send` runs, so calls from clones reach the kernel in the order
    /// they took their offsets.
    fn send<R>(&self, fd: Fd, by: u64, read: bool, send: impl FnOnce(Offset) -> R) -> (Sent, R) {
        let mut all = plock(&self.0);
        let cursor = all.entry(fd).or_default();
        let from = Offset {
            at: cursor.base + cursor.unsettled.iter().map(|c| c.by).sum::<u64>(),
            or_end: cursor.unsettled.iter().any(|c| c.read),
        };
        cursor.unsettled.push_back(Unsettled {
            by,
            read,
            moved: None,
        });
        let nth = cursor.settled + cursor.unsettled.len() as u64;
        (Sent { from, nth }, send(from))
    }

    /// The call `sent` on `fd` was answered and moved the offset
    /// `moved` bytes: a read the bytes it got, a write all of them or,
    /// failed, none. A read that got bytes started at its offset, so it
    /// settles every call before it too, answered or not.
    fn answered(&self, fd: Fd, sent: Sent, moved: u64) {
        let mut all = plock(&self.0);
        let Some(cursor) = all.get_mut(&fd) else {
            return;
        };
        // Settled already: a read after it got bytes.
        let Some(i) = sent.nth.checked_sub(cursor.settled + 1) else {
            return;
        };
        let Some(call) = cursor.unsettled.get_mut(i as usize) else {
            return;
        };
        if call.read && moved > 0 {
            cursor.base = sent.from.at + moved;
            cursor.unsettled.drain(..=i as usize);
            cursor.settled = sent.nth;
        } else {
            call.moved = Some(moved);
        }
        while let Some(moved) = cursor.unsettled.front().and_then(|c| c.moved) {
            cursor.base += moved;
            cursor.unsettled.pop_front();
            cursor.settled += 1;
        }
    }

    /// A read sent at `sent` was answered `out`.
    fn read(&self, fd: Fd, sent: Sent, out: &Result<FileSlice, KError>) {
        match out {
            Err(KError::BadFd) => self.close(fd),
            out => self.answered(fd, sent, out.as_ref().map_or(0, FileSlice::len) as u64),
        }
    }

    /// A write sent at `sent` was answered `out`.
    fn write(&self, fd: Fd, sent: Sent, out: &Result<usize, KError>) {
        match out {
            Err(KError::BadFd) => self.close(fd),
            out => self.answered(fd, sent, *out.as_ref().unwrap_or(&0) as u64),
        }
    }

    /// `fd` is closed, or never was open: its offset goes.
    fn close(&self, fd: Fd) {
        plock(&self.0).remove(&fd);
    }
}

/// A process's end of the message kernel: its kernel task's port, and
/// its offsets.
#[derive(Clone)]
struct MsgEnd {
    port: Port<Syscall>,
    cursors: Cursors,
}

impl MsgEnd {
    /// Makes `make`'s call now, or defers it into `buf`, a batch's.
    fn call<Resp: Send + 'static>(
        &self,
        buf: Option<&mut VecDeque<Syscall>>,
        make: impl FnOnce(ReplyTo<Resp>) -> Syscall,
    ) -> Call<Resp> {
        match buf {
            Some(buf) => self.port.call_deferred(buf, make),
            None => self.port.call(make),
        }
    }

    /// Sends a read of `len` bytes at `fd`'s offset (see
    /// [`MsgEnd::call`]); the returned call gives back what the read did
    /// not get.
    fn read(
        &self,
        fd: Fd,
        len: usize,
        buf: Option<&mut VecDeque<Syscall>>,
    ) -> impl std::future::Future<Output = Result<Result<FileSlice, KError>, CallError>> {
        let (sent, read) = self.cursors.send(fd, len as u64, true, |at| {
            self.call(buf, move |reply| Syscall::Read {
                fd,
                off: at.at,
                len,
                reply,
            })
        });
        let cursors = self.cursors.clone();
        async move {
            let out = read.await?.map_err(KError::from);
            cursors.read(fd, sent, &out);
            Ok(out)
        }
    }

    /// Sends a write of `data` at `fd`'s offset (see [`MsgEnd::read`]).
    fn write(
        &self,
        fd: Fd,
        data: &[u8],
        buf: Option<&mut VecDeque<Syscall>>,
    ) -> impl std::future::Future<Output = Result<Result<usize, KError>, CallError>> {
        let len = data.len();
        let data: Box<[u8]> = data.into();
        let (sent, write) = self.cursors.send(fd, len as u64, false, |at| {
            self.call(buf, move |reply| Syscall::Write {
                fd,
                or_end: at.or_end,
                off: at.at,
                data,
                reply,
            })
        });
        let cursors = self.cursors.clone();
        async move {
            let out = write.await?.map(|()| len).map_err(KError::from);
            cursors.write(fd, sent, &out);
            Ok(out)
        }
    }
}

/// A process's end of its kernel.
#[derive(Clone)]
enum Attached {
    /// The port of the process's kernel task, and its offsets.
    Msg(MsgEnd),
    Trap(Arc<TrapKernel>),
}

/// A process's view of the OS. Clones are the same process: on the
/// message kernel they share one kernel task and one fd table, which
/// go away when the last clone (and the last batch made from one) is
/// dropped.
#[derive(Clone)]
pub struct Env {
    /// This process's id.
    pub pid: Pid,
    kernel: Attached,
}

impl Env {
    /// Builds an environment for `pid` over the given kernel. On the
    /// message kernel this starts the process's kernel task
    /// ([`MsgKernel::attach`]), so it must run inside a runtime.
    pub fn new(pid: Pid, kernel: KernelHandle) -> Env {
        let kernel = match kernel {
            KernelHandle::Msg(k) => Attached::Msg(MsgEnd {
                port: k.attach(pid),
                cursors: Cursors::default(),
            }),
            KernelHandle::Trap(k) => Attached::Trap(k),
        };
        Env { pid, kernel }
    }

    /// Opens an existing file.
    pub async fn open(&self, path: &str) -> Result<Fd, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.open(self.pid, path).await,
            Attached::Msg(k) => {
                let path = path.to_string();
                let opened = k.port.call(move |reply| Syscall::Open { path, reply });
                flatten(opened.await)
            }
        }
    }

    /// Creates and opens a file.
    pub async fn create(&self, path: &str) -> Result<Fd, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.create(self.pid, path).await,
            Attached::Msg(k) => {
                let path = path.to_string();
                let created = k.port.call(move |reply| Syscall::Create { path, reply });
                flatten(created.await)
            }
        }
    }

    /// Reads up to `len` bytes at the descriptor's offset.
    pub async fn read(&self, fd: Fd, len: usize) -> Result<Vec<u8>, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.read(self.pid, fd, len).await,
            Attached::Msg(k) => {
                let read = k.read(fd, len, None);
                Ok(flatten(read.await)?.copy_out().await)
            }
        }
    }

    /// Writes `data` at the descriptor's offset.
    pub async fn write(&self, fd: Fd, data: &[u8]) -> Result<usize, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.write(self.pid, fd, data).await,
            Attached::Msg(k) => {
                rt::delay(copy_cost(data.len())).await;
                flatten(k.write(fd, data, None).await)
            }
        }
    }

    /// Closes a descriptor.
    pub async fn close(&self, fd: Fd) -> Result<(), KError> {
        match &self.kernel {
            Attached::Trap(k) => k.close(self.pid, fd).await,
            Attached::Msg(k) => {
                let out = flatten(k.port.call(move |reply| Syscall::Close { fd, reply }).await);
                k.cursors.close(fd);
                out
            }
        }
    }

    /// Stats an open descriptor.
    pub async fn fstat(&self, fd: Fd) -> Result<Stat, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.fstat(self.pid, fd).await,
            Attached::Msg(k) => {
                flatten(k.port.call(move |reply| Syscall::Fstat { fd, reply }).await)
            }
        }
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> Result<(), KError> {
        match &self.kernel {
            Attached::Trap(k) => k.mkdir(self.pid, path).await,
            Attached::Msg(k) => {
                let path = path.to_string();
                let made = k.port.call(move |reply| Syscall::Mkdir { path, reply });
                flatten(made.await).map(drop)
            }
        }
    }

    /// Removes a file or empty directory.
    pub async fn unlink(&self, path: &str) -> Result<(), KError> {
        match &self.kernel {
            Attached::Trap(k) => k.unlink(self.pid, path).await,
            Attached::Msg(k) => {
                let path = path.to_string();
                let unlinked = k.port.call(move |reply| Syscall::Unlink { path, reply });
                flatten(unlinked.await)
            }
        }
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> Result<Vec<String>, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.readdir(self.pid, path).await,
            Attached::Msg(k) => {
                let path = path.to_string();
                let listed = k.port.call(move |reply| Syscall::ReadDir { path, reply });
                let entries = flatten(listed.await)?;
                Ok(entries.into_iter().map(|e| e.name).collect())
            }
        }
    }

    /// The null system call.
    pub async fn getpid(&self) -> Pid {
        match &self.kernel {
            Attached::Trap(k) => k.getpid(self.pid).await,
            Attached::Msg(k) => k
                .port
                .call(|reply| Syscall::GetPid { reply })
                .await
                .unwrap_or(self.pid),
        }
    }

    /// Starts a pipelined syscall batch: queue calls, [`submit`] them
    /// as one kernel message burst, then complete them in any order.
    ///
    /// ```ignore
    /// let mut b = env.batch();
    /// let pid = b.getpid();
    /// let data = b.read(fd, 64);
    /// b.submit().await;               // one burst, one server wake
    /// let n = data.await;             // complete out of order
    /// let p = pid.await;
    /// ```
    ///
    /// On the message kernel this is FlexSC-style call batching: the
    /// process's kernel task wakes once, drains the burst with `recv_many`,
    /// and answers it in order through one `ReplyBatch`. On the trap kernel
    /// there is no submission queue — which is the paper's point —
    /// so each call simply runs when first awaited.
    ///
    /// [`submit`]: SyscallBatch::submit
    pub fn batch(&self) -> SyscallBatch {
        SyscallBatch {
            pid: self.pid,
            inner: match &self.kernel {
                Attached::Msg(end) => BatchInner::Msg {
                    end: end.clone(),
                    buf: VecDeque::new(),
                    copying: 0,
                },
                Attached::Trap(k) => BatchInner::Trap(k.clone()),
            },
        }
    }
}

enum BatchInner {
    /// Message kernel: requests accumulate and submit as one burst.
    /// A read or a write takes its offset when it is queued.
    Msg {
        end: MsgEnd,
        buf: VecDeque<Syscall>,
        /// Cycles of the queued writes' copies, paid at submit.
        copying: Cycles,
    },
    /// Trap kernel: no submission queue exists; calls run on await.
    Trap(Arc<TrapKernel>),
}

/// A pipelined syscall submission queue (see [`Env::batch`]).
///
/// Each method returns a held [`Call`]; nothing reaches the kernel
/// until [`SyscallBatch::submit`]. The batch is reusable: submit,
/// queue more calls, submit again.
pub struct SyscallBatch {
    pid: Pid,
    inner: BatchInner,
}

impl SyscallBatch {
    /// Queues the null system call.
    pub fn getpid(&mut self) -> Call<Pid> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg { end, buf, .. } => end
                .port
                .call_deferred(buf, |reply| Syscall::GetPid { reply }),
            BatchInner::Trap(k) => {
                let k = k.clone();
                Call::from_future(async move { Ok(k.getpid(pid).await) })
            }
        }
    }

    /// Queues an `open`.
    pub fn open(&mut self, path: &str) -> Call<Result<Fd, KError>> {
        let pid = self.pid;
        let path = path.to_string();
        match &mut self.inner {
            BatchInner::Msg { end, buf, .. } => end
                .port
                .call_deferred(buf, move |reply| Syscall::Open { path, reply }),
            BatchInner::Trap(k) => {
                let k = k.clone();
                Call::from_future(async move { Ok(k.open(pid, &path).await) })
            }
        }
    }

    /// Queues a `create`.
    pub fn create(&mut self, path: &str) -> Call<Result<Fd, KError>> {
        let pid = self.pid;
        let path = path.to_string();
        match &mut self.inner {
            BatchInner::Msg { end, buf, .. } => end
                .port
                .call_deferred(buf, move |reply| Syscall::Create { path, reply }),
            BatchInner::Trap(k) => {
                let k = k.clone();
                Call::from_future(async move { Ok(k.create(pid, &path).await) })
            }
        }
    }

    /// Queues a `read` at the descriptor's current offset. The bytes
    /// are copied out when the call completes.
    pub fn read(&mut self, fd: Fd, len: usize) -> Call<Result<Vec<u8>, KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg { end, buf, .. } => {
                let read = end.read(fd, len, Some(buf));
                Call::from_future(async move {
                    Ok(match read.await? {
                        Ok(data) => Ok(data.copy_out().await),
                        Err(e) => Err(e),
                    })
                })
            }
            BatchInner::Trap(k) => {
                let k = k.clone();
                Call::from_future(async move { Ok(k.read(pid, fd, len).await) })
            }
        }
    }

    /// Queues a `write` at the descriptor's current offset. The bytes
    /// are copied now; the copy is paid for at [`submit`].
    ///
    /// [`submit`]: SyscallBatch::submit
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Call<Result<usize, KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg { end, buf, copying } => {
                *copying += copy_cost(data.len());
                Call::from_future(end.write(fd, data, Some(buf)))
            }
            BatchInner::Trap(k) => {
                let (k, data) = (k.clone(), data.to_vec());
                Call::from_future(async move { Ok(k.write(pid, fd, &data).await) })
            }
        }
    }

    /// Queues a `close`.
    pub fn close(&mut self, fd: Fd) -> Call<Result<(), KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg { end, buf, .. } => {
                let close = end
                    .port
                    .call_deferred(buf, move |reply| Syscall::Close { fd, reply });
                let cursors = end.cursors.clone();
                Call::from_future(async move {
                    let out = close.await;
                    cursors.close(fd);
                    out
                })
            }
            BatchInner::Trap(k) => {
                let k = k.clone();
                Call::from_future(async move { Ok(k.close(pid, fd).await) })
            }
        }
    }

    /// Number of queued, not-yet-submitted syscalls.
    pub fn pending(&self) -> usize {
        match &self.inner {
            BatchInner::Msg { buf, .. } => buf.len(),
            BatchInner::Trap(_) => 0,
        }
    }

    /// Submits every queued syscall as one message burst (one server
    /// wake on real threads; one send event per call on the
    /// simulator). Failures surface on the individual calls:
    /// [`KError::Gone`] if the kernel is gone, [`KError::Cancelled`]
    /// if it cancels a call mid-batch.
    pub async fn submit(&mut self) {
        match &mut self.inner {
            BatchInner::Msg { end, buf, copying } => {
                let copying = std::mem::take(copying);
                if copying > 0 {
                    rt::delay(copying).await;
                }
                end.port.submit(buf)
            }
            BatchInner::Trap(_) => {}
        }
    }
}

/// Allocates process ids and launches processes.
///
/// Pid *numbers* come from a monotonic counter (never reused), so
/// [`env`](ProcessTable::env) and
/// [`spawn_process`](ProcessTable::spawn_process) stay synchronous.
/// Pid *metadata* (which pids are alive, where they run) lives in the
/// node-replicated [`PidTable`]: spawned processes register on entry
/// and deregister on exit, and `alive`/`info`/`count` queries are
/// served from the caller's local replica. Standalone [`Env`]s from
/// [`env`](ProcessTable::env) are anonymous — caller-driven benches
/// don't pay for registration.
pub struct ProcessTable {
    kernel: KernelHandle,
    next_pid: AtomicU32,
    pids: PidTable,
}

impl ProcessTable {
    /// Creates a process table over a kernel, with the pid metadata
    /// service replicated across `service_cores`.
    pub fn new(kernel: KernelHandle, service_cores: &[CoreId]) -> ProcessTable {
        ProcessTable {
            kernel,
            next_pid: AtomicU32::new(1),
            pids: PidTable::spawn(service_cores),
        }
    }

    /// The pid metadata service.
    pub fn pids(&self) -> &PidTable {
        &self.pids
    }

    /// Allocates a pid and returns a standalone [`Env`] for it — a
    /// "process" driven by the caller rather than a spawned task
    /// (benches and REPL-style drivers use this). Not registered in
    /// the pid table; use [`alloc`](ProcessTable::alloc) for that.
    /// On the message kernel it starts the process's kernel task, so
    /// call it inside `block_on` (see [`Env::new`]).
    pub fn env(&self) -> Env {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        Env::new(pid, self.kernel.clone())
    }

    /// Allocates a pid, registers it in the pid table, and returns
    /// its [`Env`] — the registered flavor of
    /// [`env`](ProcessTable::env). Pair with
    /// [`free`](ProcessTable::free).
    pub async fn alloc(&self, name: &str, core: CoreId) -> Env {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        self.pids.register(pid, name, core).await;
        Env::new(pid, self.kernel.clone())
    }

    /// Deregisters a pid allocated with [`alloc`](ProcessTable::alloc);
    /// `true` if it was registered.
    pub async fn free(&self, pid: Pid) -> bool {
        self.pids.exit(pid).await
    }

    /// Is the pid registered? Served from the local replica.
    pub async fn alive(&self, pid: Pid) -> bool {
        self.pids.alive(pid).await
    }

    /// Metadata for a registered pid.
    pub async fn info(&self, pid: Pid) -> Option<PidInfo> {
        self.pids.info(pid).await
    }

    /// Number of registered processes.
    pub async fn count(&self) -> u64 {
        self.pids.count().await
    }

    /// Launches a "program" (any async closure over its [`Env`]) as a
    /// process pinned to `core`; returns (pid, join handle). The
    /// process registers itself in the pid table when it starts and
    /// deregisters when its body returns.
    pub fn spawn_process<F, Fut, T>(&self, core: CoreId, body: F) -> (Pid, JoinHandle<T>)
    where
        F: FnOnce(Env) -> Fut,
        Fut: std::future::Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        let env = Env::new(pid, self.kernel.clone());
        let name = format!("proc{}", pid.0);
        let pids = self.pids.clone();
        let fut = body(env);
        let task = {
            let name = name.clone();
            async move {
                pids.register(pid, &name, core).await;
                let out = fut.await;
                pids.exit(pid).await;
                out
            }
        };
        let h = rt::spawn_named_on(&name, core, task);
        rt::stat_incr("kernel.processes_spawned");
        (pid, h)
    }
}
