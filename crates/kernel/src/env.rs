//! The process environment: the libc-like system-call stubs a
//! "program" uses, over either kernel architecture.
//!
//! §4: *"legacy code can be linked against a compatibility library
//! and used unchanged"* — a program written against [`Env`] cannot
//! tell whether its calls trap (conventional kernel) or become
//! messages to kernel cores (the proposal); only its performance
//! differs.
//!
//! On the message kernel a process makes its calls itself, each to the
//! kernel thread that serves it. A namespace call (`open`, `create`,
//! `mkdir`, `unlink`, `readdir`) goes through the root directory's
//! [`File`], which the kernel gives the process ([`MsgKernel::root`]),
//! to the root's vnode, and the vnode that serves it validates it
//! ([`VALIDATE_CYCLES`]) and answers here ([`File::forward_path`]). A
//! lock engine has no root vnode, and its path calls go to the
//! process's kernel task, as `getpid` does, through a typed
//! [`Port`](chanos_rt::Port), so transport failures keep their meaning:
//! [`KError::Gone`] when the kernel task died before serving the call,
//! [`KError::Cancelled`] when it accepted the call but dropped it
//! unanswered. A call the file system drops unanswered is `Cancelled`.
//! [`Env::batch`] exposes the pipelined submit-then-complete surface:
//! queue several syscalls, submit them as **one** burst, then complete
//! them in any order.
//!
//! On the message kernel an open file is the process's. Its fd table
//! lives here, shared by every clone of an `Env` and every batch made
//! from one: fd → [`File`] and offset, and the next fd number. An
//! `open` or a `create` is given the next number when it is sent, so
//! numbers follow the order the calls were sent and are never reused;
//! the file its answer carries is installed there. A `read`, a `write`
//! or an `fstat` goes from here straight to the file's vnode, which
//! validates it ([`VALIDATE_CYCLES`]) and answers here; a lock engine's
//! file has no vnode, and its call goes to the kernel task. A `close`
//! runs here and pays the same validation, on the process's own core.
//! An `open`'s answer has one owner, the caller that made it: the
//! batch that queued it installs it at its submit, in queue order, and
//! [`Env::open`] is a batch of one. A call made on a descriptor whose
//! `open` is still in flight is held in the descriptor, in the order it
//! was made, and goes on when the answer is installed; it waits only for
//! its own reply. A batch dropped before it has installed its `open`s
//! cancels them: their descriptors close, and the calls held on them
//! answer `BadFd`.
//!
//! A `close` still pays the whole [`VALIDATE_CYCLES`], on the process's
//! core: it removes an entry of the process's own map, which no kernel
//! thread sees, so no kernel thread is there to take the charge. A
//! cheaper, argued charge for it is a model change of its own, left
//! open.
//!
//! The process copies a read's or a write's bytes itself, on its own
//! core, and pays [`copy_cost`] for them there: a read's answer is the
//! blocks the bytes lie in, shared with the cache, and a write's buffer
//! is the one that becomes the file's blocks. The kernel cores move no
//! payload bytes.
//!
//! The process keeps its files' offsets, and the answer that would move
//! one comes back here, the only place that sees it. A read or a write
//! takes the offset when it is issued and moves it by its length; the
//! answer gives back what a short read did not read (see `Offset`), and
//! a call a dropped batch never made gives back all of it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use chanos_rt::{
    self as rt, Call, CallError, CoreId, Cycles, JoinHandle, Port, Reply, ReplyBatch, ReplyTo,
};
use chanos_sim::plock;
use chanos_vfs::{copy_cost, File, FileCall, FileSlice, FsError, PathCall, Stat, VALIDATE_CYCLES};

use crate::pids::{PidInfo, PidTable};
use crate::syscall::{MsgKernel, Syscall, TrapKernel};
use crate::types::{Fd, KError, Pid};

/// Which kernel a process talks to.
#[derive(Clone)]
pub enum KernelHandle {
    /// System calls are messages to kernel threads on kernel cores.
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
#[derive(Clone, Copy, Default)]
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

impl Cursor {
    /// Takes the offset for a call that moves it by `by` bytes (at most
    /// `by`, for a read).
    fn take(&mut self, by: u64, read: bool) -> Sent {
        let from = Offset {
            at: self.base + self.unsettled.iter().map(|c| c.by).sum::<u64>(),
            or_end: self.unsettled.iter().any(|c| c.read),
        };
        self.unsettled.push_back(Unsettled {
            by,
            read,
            moved: None,
        });
        let nth = self.settled + self.unsettled.len() as u64;
        Sent { from, nth }
    }

    /// The call `sent` was answered and moved the offset `moved` bytes:
    /// a read the bytes it got, a write all of them or, failed, none. A
    /// read that got bytes started at its offset, so it settles every
    /// call before it too, answered or not.
    fn answered(&mut self, sent: Sent, moved: u64) {
        // Already settled: a read after it got bytes.
        let Some(i) = sent.nth.checked_sub(self.settled + 1) else {
            return;
        };
        let Some(call) = self.unsettled.get_mut(i as usize) else {
            return;
        };
        if call.read && moved > 0 {
            self.base = sent.from.at + moved;
            self.unsettled.drain(..=i as usize);
            self.settled = sent.nth;
        } else {
            call.moved = Some(moved);
        }
        while let Some(moved) = self.unsettled.front().and_then(|c| c.moved) {
            self.base += moved;
            self.unsettled.pop_front();
            self.settled += 1;
        }
    }
}

/// A process's fd table on the message kernel: its open descriptors,
/// and the number the next `open` or `create` is given (0–2 are
/// reserved).
struct FdTable {
    next: u32,
    open: HashMap<Fd, OpenFd>,
}

/// An open descriptor: its file, and its offset.
struct OpenFd {
    file: Opened,
    cursor: Cursor,
}

/// What a descriptor is open on.
enum Opened {
    /// The file its `open` or `create` answered.
    File(File),
    /// Its `open` or `create` is in flight: the calls made on it since,
    /// in the order they were made, which go on when its answer is
    /// installed.
    Opening(Vec<Held>),
}

/// A call on a descriptor, made where the descriptor is.
enum Held {
    /// A `read`, `write` or `fstat`, for the file.
    Call(FileCall),
    /// A `close`, and where to say whether the descriptor was open.
    Close(ReplyTo<Result<(), KError>>),
}

impl Held {
    /// Answers the call: the descriptor is not open.
    fn refuse(self, replies: &mut ReplyBatch) {
        match self {
            Held::Call(call) => call.refuse(FsError::BadFd, replies),
            Held::Close(reply) => replies.send(reply, Err(KError::BadFd)),
        }
    }
}

/// Hands a process's `call` on to `file`: to its vnode, or into
/// `burst`, for the kernel task, if it has none.
fn dispatch(file: &File, call: FileCall, burst: &mut VecDeque<Syscall>) {
    if let Err(call) = file.forward(call) {
        burst.push_back(Syscall::File(Box::new((file.clone(), call))));
    }
}

impl FdTable {
    /// Makes `held` on `fd`: a call goes to the file, a `close` removes
    /// the descriptor. Either waits in the descriptor while its `open`
    /// is in flight; on a descriptor not open it is refused.
    fn apply(
        &mut self,
        fd: Fd,
        held: Held,
        burst: &mut VecDeque<Syscall>,
        replies: &mut ReplyBatch,
    ) {
        match self.open.get_mut(&fd).map(|open| &mut open.file) {
            None => held.refuse(replies),
            Some(Opened::Opening(waiting)) => waiting.push(held),
            Some(Opened::File(file)) => match held {
                Held::Call(call) => dispatch(file, call, burst),
                Held::Close(reply) => {
                    self.open.remove(&fd);
                    replies.send(reply, Ok(()));
                }
            },
        }
    }

    /// `fd`'s `open` was answered `out`: installs the file, or removes
    /// the descriptor if the open failed, and makes the calls held on it
    /// in order.
    fn install(
        &mut self,
        fd: Fd,
        out: &Result<File, KError>,
        burst: &mut VecDeque<Syscall>,
        replies: &mut ReplyBatch,
    ) {
        let Some(open) = self.open.get_mut(&fd) else {
            return;
        };
        let Opened::Opening(held) = &mut open.file else {
            return;
        };
        let held = std::mem::take(held);
        match out {
            Ok(file) => open.file = Opened::File(file.clone()),
            Err(_) => {
                self.open.remove(&fd);
            }
        }
        for held in held {
            self.apply(fd, held, burst, replies);
        }
    }

    /// `fd`'s offset, if it is open.
    fn cursor(&mut self, fd: Fd) -> Option<&mut Cursor> {
        self.open.get_mut(&fd).map(|open| &mut open.cursor)
    }
}

/// An `open` or a `create` made and not yet installed: its descriptor,
/// its call, and where a batch's caller waits for the descriptor (none
/// for [`Env::open`], which takes the answer itself).
struct Open {
    fd: Fd,
    call: Call<Result<File, FsError>>,
    reply: Option<ReplyTo<Result<Fd, KError>>>,
}

/// A call on a descriptor, made: its answer, and the offset it took, if
/// it moves one.
struct FdCall<T: Send + 'static> {
    answer: Reply<Result<T, FsError>>,
    sent: Option<Sent>,
}

/// A `close` made now.
enum Closing {
    /// Answered at once.
    Now(Result<(), KError>),
    /// Held in its descriptor while its `open` is in flight, and
    /// answered once that open is installed.
    Held(Reply<Result<(), KError>>),
}

/// A close's answer, held while its descriptor's `open` was in flight.
async fn closed(answer: Reply<Result<(), KError>>) -> Result<(), KError> {
    answer.recv().await.unwrap_or(Err(KError::Gone))
}

/// A process's end of the message kernel: its kernel task's port, its
/// root directory, and its fd table.
#[derive(Clone)]
struct MsgEnd {
    port: Port<Syscall>,
    /// Where the process's path calls go ([`MsgKernel::root`]); none
    /// over a lock engine, whose kernel task takes them.
    root: Option<File>,
    files: Arc<Mutex<FdTable>>,
}

impl MsgEnd {
    fn new(port: Port<Syscall>, root: Option<File>) -> MsgEnd {
        let table = FdTable {
            next: 3,
            open: HashMap::new(),
        };
        MsgEnd {
            port,
            root,
            files: Arc::new(Mutex::new(table)),
        }
    }

    /// Makes `make`'s call to the kernel task now, or defers it into
    /// `buf`, a batch's.
    fn call<Resp: Send + 'static>(
        &self,
        buf: Option<&mut VecDeque<Syscall>>,
        make: impl FnOnce(ReplyTo<Resp>) -> Syscall,
    ) -> Call<Resp> {
        match buf {
            Some(buf) => self.port.call_deferred(buf, make),
            None => {
                rt::stat_incr("kernel.syscalls");
                self.port.call(make)
            }
        }
    }

    /// Makes the call `make` builds on `path` now, or queues it into
    /// `batch` to be made at its submit: through the root directory
    /// ([`File::forward_path`]), or, with no root vnode, to the kernel
    /// task.
    fn on_path<T: Send + 'static>(
        &self,
        batch: Option<&mut Deferred>,
        path: &str,
        make: impl FnOnce(ReplyTo<Result<T, FsError>>) -> PathCall,
    ) -> Call<Result<T, FsError>> {
        let path = path.to_string();
        let Some(root) = &self.root else {
            let kernel = batch.map(|batch| &mut batch.kernel);
            return self.call(kernel, move |reply| Syscall::on_path(path, make(reply)));
        };
        let (reply, answer) = rt::reply_channel();
        let call = make(reply);
        match batch {
            Some(batch) => batch.direct(Direct::Path(root.clone(), path, call)),
            None => {
                rt::stat_incr("kernel.syscalls");
                root.forward_path(&path, call);
            }
        }
        // Nothing but a dropped batch drops the reply unanswered.
        Call::from_future(async move { answer.recv().await.map_err(|_| CallError::Cancelled) })
    }

    /// Makes the `open` or `create` `make` builds on `path` now, or
    /// queues it into `batch`, and gives it the process's next
    /// descriptor, open from now on for the calls made on it. Its answer
    /// is for [`MsgEnd::install`].
    fn open(
        &self,
        batch: Option<&mut Deferred>,
        path: &str,
        make: impl FnOnce(ReplyTo<Result<File, FsError>>) -> PathCall,
    ) -> (Fd, Call<Result<File, FsError>>) {
        let mut table = plock(&self.files);
        let fd = Fd(table.next);
        table.next += 1;
        let call = self.on_path(batch, path, make);
        let open = OpenFd {
            file: Opened::Opening(Vec::new()),
            cursor: Cursor::default(),
        };
        table.open.insert(fd, open);
        (fd, call)
    }

    /// `fd`'s `open` was answered `out`: installs it (see
    /// [`FdTable::install`]) and gives the open's answer, `fd` or the
    /// error.
    fn install(&self, fd: Fd, out: Result<File, KError>) -> Result<Fd, KError> {
        let (mut burst, mut replies) = (VecDeque::new(), ReplyBatch::default());
        let mut table = plock(&self.files);
        table.install(fd, &out, &mut burst, &mut replies);
        self.port.submit(&mut burst);
        out.map(|_| fd)
    }

    /// Makes a call on `fd` now, or queues it into `batch` to be made at
    /// its submit: built by `make` around its reply and, if it moves the
    /// offset (`by` bytes, at most, for a `read`), the offset it takes
    /// now. The offset is held while the call is made, so calls from
    /// clones reach the file in the order they took their offsets.
    /// `BadFd` at once if `fd` is not open.
    fn on_fd<T: Send + 'static>(
        &self,
        fd: Fd,
        moves: Option<(u64, bool)>,
        batch: Option<&mut Deferred>,
        make: impl FnOnce(Offset, ReplyTo<Result<T, FsError>>) -> FileCall,
    ) -> Result<FdCall<T>, KError> {
        let mut table = plock(&self.files);
        let Some(open) = table.open.get_mut(&fd) else {
            rt::stat_incr("kernel.syscalls");
            return Err(KError::BadFd);
        };
        let sent = moves.map(|(by, read)| open.cursor.take(by, read));
        let (reply, answer) = rt::reply_channel();
        let held = Held::Call(make(sent.map_or(Offset::default(), |s| s.from), reply));
        match batch {
            Some(batch) => batch.direct(Direct::Fd(fd, held, sent)),
            None => {
                rt::stat_incr("kernel.syscalls");
                let (mut burst, mut replies) = (VecDeque::new(), ReplyBatch::default());
                table.apply(fd, held, &mut burst, &mut replies);
                self.port.submit(&mut burst);
            }
        }
        Ok(FdCall { answer, sent })
    }

    /// Awaits `call`'s answer and moves `fd`'s offset by what `moved`
    /// says the answer moved it.
    async fn finish<T: Send + 'static>(
        &self,
        fd: Fd,
        call: FdCall<T>,
        moved: impl FnOnce(&T) -> u64,
    ) -> Result<T, KError> {
        let out = match call.answer.recv().await {
            Ok(out) => out.map_err(KError::from),
            Err(_) => Err(KError::Gone),
        };
        if let Some(sent) = call.sent {
            if let Some(cursor) = plock(&self.files).cursor(fd) {
                cursor.answered(sent, out.as_ref().map_or(0, moved));
            }
        }
        out
    }

    /// Closes `fd` now: `Ok` or `BadFd` at once, or, held while its
    /// `open` is in flight, once that is installed.
    fn close(&self, fd: Fd) -> Closing {
        rt::stat_incr("kernel.syscalls");
        let mut table = plock(&self.files);
        match table.open.get_mut(&fd).map(|open| &mut open.file) {
            None => Closing::Now(Err(KError::BadFd)),
            Some(Opened::File(_)) => {
                table.open.remove(&fd);
                Closing::Now(Ok(()))
            }
            Some(Opened::Opening(held)) => {
                let (reply, answer) = rt::reply_channel();
                held.push(Held::Close(reply));
                Closing::Held(answer)
            }
        }
    }
}

/// A read's answer: how far it moved the offset.
fn read_len(data: &FileSlice) -> u64 {
    data.len() as u64
}

/// A process's end of its kernel.
#[derive(Clone)]
enum Attached {
    /// The port of the process's kernel task, its root directory and
    /// its fd table.
    Msg(MsgEnd),
    Trap(Arc<TrapKernel>),
}

/// A process's view of the OS. Clones are the same process: on the
/// message kernel they share one kernel task and one fd table; the task
/// goes away when the last clone (and the last batch made from one) is
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
            KernelHandle::Msg(k) => Attached::Msg(MsgEnd::new(k.attach(pid), k.root())),
            KernelHandle::Trap(k) => Attached::Trap(k),
        };
        Env { pid, kernel }
    }

    /// Opens an existing file.
    pub async fn open(&self, path: &str) -> Result<Fd, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.open(self.pid, path).await,
            Attached::Msg(k) => {
                MsgBatch::new(k)
                    .open_now(path, |reply| PathCall::Open { reply })
                    .await
            }
        }
    }

    /// Creates and opens a file.
    pub async fn create(&self, path: &str) -> Result<Fd, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.create(self.pid, path).await,
            Attached::Msg(k) => {
                MsgBatch::new(k)
                    .open_now(path, |reply| PathCall::Create { reply })
                    .await
            }
        }
    }

    /// Reads up to `len` bytes at the descriptor's offset.
    pub async fn read(&self, fd: Fd, len: usize) -> Result<Vec<u8>, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.read(self.pid, fd, len).await,
            Attached::Msg(k) => {
                let read = k.on_fd(fd, Some((len as u64, true)), None, |at, reply| {
                    FileCall::Read {
                        off: at.at,
                        len,
                        reply,
                    }
                })?;
                Ok(k.finish(fd, read, read_len).await?.copy_out().await)
            }
        }
    }

    /// Writes `data` at the descriptor's offset.
    pub async fn write(&self, fd: Fd, data: &[u8]) -> Result<usize, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.write(self.pid, fd, data).await,
            Attached::Msg(k) => {
                rt::delay(copy_cost(data.len())).await;
                let (len, data) = (data.len(), data.to_vec());
                let write = k.on_fd(fd, Some((len as u64, false)), None, |at, reply| {
                    FileCall::Write {
                        off: at.at,
                        or_end: at.or_end,
                        data,
                        reply,
                    }
                })?;
                k.finish(fd, write, |()| len as u64).await.map(|()| len)
            }
        }
    }

    /// Closes a descriptor. On the message kernel this runs in the
    /// process, which pays [`VALIDATE_CYCLES`] for it.
    pub async fn close(&self, fd: Fd) -> Result<(), KError> {
        match &self.kernel {
            Attached::Trap(k) => k.close(self.pid, fd).await,
            Attached::Msg(k) => {
                rt::delay(VALIDATE_CYCLES).await;
                match k.close(fd) {
                    Closing::Now(out) => out,
                    Closing::Held(answer) => closed(answer).await,
                }
            }
        }
    }

    /// Stats an open descriptor.
    pub async fn fstat(&self, fd: Fd) -> Result<Stat, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.fstat(self.pid, fd).await,
            Attached::Msg(k) => {
                let stat = k.on_fd(fd, None, None, |_, reply| FileCall::Stat { reply })?;
                k.finish(fd, stat, |_| 0).await
            }
        }
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> Result<(), KError> {
        match &self.kernel {
            Attached::Trap(k) => k.mkdir(self.pid, path).await,
            Attached::Msg(k) => {
                let made = k.on_path(None, path, |reply| PathCall::Mkdir { reply });
                flatten(made.await).map(drop)
            }
        }
    }

    /// Removes a file or empty directory.
    pub async fn unlink(&self, path: &str) -> Result<(), KError> {
        match &self.kernel {
            Attached::Trap(k) => k.unlink(self.pid, path).await,
            Attached::Msg(k) => {
                let unlinked = k.on_path(None, path, |reply| PathCall::Unlink { reply });
                flatten(unlinked.await)
            }
        }
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> Result<Vec<String>, KError> {
        match &self.kernel {
            Attached::Trap(k) => k.readdir(self.pid, path).await,
            Attached::Msg(k) => {
                let listed = k.on_path(None, path, |reply| PathCall::ReadDir { reply });
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
                .call(None, |reply| Syscall::GetPid { reply })
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
    /// process's kernel task wakes once, drains its calls with
    /// `recv_many`, and answers them in order through one `ReplyBatch`;
    /// the calls on descriptors and on paths are made at submit, in the
    /// order they were queued, each where it is served. On the trap kernel
    /// there is no submission queue — which is the paper's point — so
    /// each call simply runs when first awaited.
    ///
    /// [`submit`]: SyscallBatch::submit
    pub fn batch(&self) -> SyscallBatch {
        SyscallBatch {
            pid: self.pid,
            inner: match &self.kernel {
                Attached::Msg(end) => BatchInner::Msg(MsgBatch::new(end)),
                Attached::Trap(k) => BatchInner::Trap(k.clone()),
            },
        }
    }
}

/// A batch's calls, in the order they were queued: the kernel task's,
/// and those the process makes itself, each after the first `n` of the
/// kernel's.
#[derive(Default)]
struct Deferred {
    kernel: VecDeque<Syscall>,
    direct: Vec<(usize, Direct)>,
}

/// A call the process makes itself, not through its kernel task.
enum Direct {
    /// A call on a descriptor, made where the descriptor is, and the
    /// offset it took, if it moves one.
    Fd(Fd, Held, Option<Sent>),
    /// A call on a path, for the root directory ([`File::forward_path`]).
    Path(File, String, PathCall),
}

impl Deferred {
    fn direct(&mut self, call: Direct) {
        self.direct.push((self.kernel.len(), call));
    }
}

/// A batch on the message kernel: the calls it queued, to be made at
/// its submit, and the opens it made, until their answers are
/// installed. It owns those answers: its submit installs them in the
/// order the opens were queued, and a drop cancels what is left.
struct MsgBatch {
    end: MsgEnd,
    queued: Deferred,
    opens: VecDeque<Open>,
    /// Cycles the process spends at submit: the queued writes' copies
    /// and the queued closes' validation.
    local: Cycles,
}

impl MsgBatch {
    fn new(end: &MsgEnd) -> MsgBatch {
        MsgBatch {
            end: end.clone(),
            queued: Deferred::default(),
            opens: VecDeque::new(),
            local: 0,
        }
    }

    /// Makes the `open` or `create` `make` builds on `path` now, as a
    /// batch of one, and installs its answer; dropped first, the batch
    /// cancels it.
    async fn open_now(
        mut self,
        path: &str,
        make: impl FnOnce(ReplyTo<Result<File, FsError>>) -> PathCall,
    ) -> Result<Fd, KError> {
        let (fd, call) = self.end.open(None, path, make);
        let reply = None;
        self.opens.push_back(Open { fd, call, reply });
        self.install_oldest().await.expect("the open just made")
    }

    /// Queues the `open` or `create` `make` builds on `path`; its
    /// descriptor is numbered now, so calls on it may be queued behind
    /// it, and answered once [`SyscallBatch::submit`] installs it.
    fn queue_open(
        &mut self,
        path: &str,
        make: impl FnOnce(ReplyTo<Result<File, FsError>>) -> PathCall,
    ) -> Call<Result<Fd, KError>> {
        let (fd, call) = self.end.open(Some(&mut self.queued), path, make);
        let (reply, answer) = rt::reply_channel();
        let reply = Some(reply);
        self.opens.push_back(Open { fd, call, reply });
        // A batch dropped before the open is installed drops the reply.
        Call::from_future(async move { Ok(answer.recv().await.unwrap_or(Err(KError::Cancelled))) })
    }

    /// Makes every queued call, in the order they were queued: the
    /// kernel task's as one burst, each call on a descriptor where the
    /// descriptor is, each path call through the root.
    fn send(&mut self) {
        let Deferred { kernel, direct } = &mut self.queued;
        rt::stat_add("kernel.syscalls", (kernel.len() + direct.len()) as u64);
        if direct.is_empty() {
            return self.end.port.submit(kernel);
        }
        let (mut burst, mut replies) = (VecDeque::new(), ReplyBatch::default());
        let mut table = plock(&self.end.files);
        let mut kernel = kernel.drain(..);
        let mut taken = 0;
        for (at, call) in direct.drain(..) {
            burst.extend(kernel.by_ref().take(at - taken));
            taken = at;
            match call {
                Direct::Fd(fd, held, _) => table.apply(fd, held, &mut burst, &mut replies),
                Direct::Path(root, path, call) => root.forward_path(&path, call),
            }
        }
        burst.extend(kernel);
        self.end.port.submit(&mut burst);
    }

    /// Awaits the oldest open's answer, installs it ([`MsgEnd::install`])
    /// and answers the open's caller; `None` once no open is left.
    async fn install_oldest(&mut self) -> Option<Result<Fd, KError>> {
        // Left in `opens` while awaited, so a drop mid-wait cancels it.
        let open = self.opens.front_mut()?;
        let out = flatten((&mut open.call).await);
        let open = self.opens.pop_front().expect("the oldest open was awaited");
        let answer = self.end.install(open.fd, out);
        if let Some(reply) = open.reply {
            ReplyBatch::default().send(reply, answer.clone());
        }
        Some(answer)
    }
}

impl Drop for MsgBatch {
    /// A batch dropped makes none of the calls it has not submitted and
    /// installs none of its opens. Each open answers `Cancelled` and its
    /// descriptor closes, so a call held on one, in the batch or made
    /// since, answers `BadFd`; a queued call on a descriptor open
    /// elsewhere gives back the offset it took.
    fn drop(&mut self) {
        if self.opens.is_empty() && self.queued.direct.is_empty() {
            return;
        }
        let (mut burst, mut replies) = (VecDeque::new(), ReplyBatch::default());
        let mut table = plock(&self.end.files);
        for open in self.opens.drain(..) {
            let cancelled = Err(KError::Cancelled);
            table.install(open.fd, &cancelled, &mut burst, &mut replies);
        }
        for (_, call) in self.queued.direct.drain(..) {
            let Direct::Fd(fd, held, sent) = call else {
                continue;
            };
            match (table.cursor(fd), sent) {
                (None, _) => held.refuse(&mut replies),
                (Some(cursor), Some(sent)) => cursor.answered(sent, 0),
                (Some(_), None) => {}
            }
        }
    }
}

enum BatchInner {
    /// Message kernel: requests accumulate and are made at submit. A
    /// read or a write takes its offset when it is queued.
    Msg(MsgBatch),
    /// Trap kernel: no submission queue exists; calls run on await.
    Trap(Arc<TrapKernel>),
}

/// A pipelined syscall submission queue (see [`Env::batch`]).
///
/// Each method returns a held [`Call`]; nothing is made until
/// [`SyscallBatch::submit`]. The batch is reusable: submit, queue more
/// calls, submit again.
pub struct SyscallBatch {
    pid: Pid,
    inner: BatchInner,
}

impl SyscallBatch {
    /// Queues the null system call.
    pub fn getpid(&mut self) -> Call<Pid> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg(b) => b
                .end
                .call(Some(&mut b.queued.kernel), |reply| Syscall::GetPid {
                    reply,
                }),
            BatchInner::Trap(k) => {
                let k = k.clone();
                Call::from_future(async move { Ok(k.getpid(pid).await) })
            }
        }
    }

    /// Queues an `open`. Its descriptor's number is given now, so calls
    /// on it may be queued behind it.
    pub fn open(&mut self, path: &str) -> Call<Result<Fd, KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg(b) => b.queue_open(path, |reply| PathCall::Open { reply }),
            BatchInner::Trap(k) => {
                let (k, path) = (k.clone(), path.to_string());
                Call::from_future(async move { Ok(k.open(pid, &path).await) })
            }
        }
    }

    /// Queues a `create` (see [`SyscallBatch::open`]).
    pub fn create(&mut self, path: &str) -> Call<Result<Fd, KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg(b) => b.queue_open(path, |reply| PathCall::Create { reply }),
            BatchInner::Trap(k) => {
                let (k, path) = (k.clone(), path.to_string());
                Call::from_future(async move { Ok(k.create(pid, &path).await) })
            }
        }
    }

    /// Queues a `read` at the descriptor's current offset. The bytes
    /// are copied out when the call completes.
    pub fn read(&mut self, fd: Fd, len: usize) -> Call<Result<Vec<u8>, KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg(b) => {
                let queued = Some(&mut b.queued);
                let read = b
                    .end
                    .on_fd(fd, Some((len as u64, true)), queued, |at, reply| {
                        FileCall::Read {
                            off: at.at,
                            len,
                            reply,
                        }
                    });
                let end = b.end.clone();
                Call::from_future(async move {
                    let read = async {
                        let data = end.finish(fd, read?, read_len).await?;
                        Ok(data.copy_out().await)
                    };
                    Ok(read.await)
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
            BatchInner::Msg(b) => {
                b.local += copy_cost(data.len());
                let (len, data) = (data.len(), data.to_vec());
                let queued = Some(&mut b.queued);
                let write = b
                    .end
                    .on_fd(fd, Some((len as u64, false)), queued, |at, reply| {
                        FileCall::Write {
                            off: at.at,
                            or_end: at.or_end,
                            data,
                            reply,
                        }
                    });
                let end = b.end.clone();
                Call::from_future(async move {
                    let write = async { end.finish(fd, write?, |()| len as u64).await };
                    Ok(write.await.map(|()| len))
                })
            }
            BatchInner::Trap(k) => {
                let (k, data) = (k.clone(), data.to_vec());
                Call::from_future(async move { Ok(k.write(pid, fd, &data).await) })
            }
        }
    }

    /// Queues a `close`; its validation is paid for at
    /// [`submit`](SyscallBatch::submit).
    pub fn close(&mut self, fd: Fd) -> Call<Result<(), KError>> {
        let pid = self.pid;
        match &mut self.inner {
            BatchInner::Msg(b) => {
                b.local += VALIDATE_CYCLES;
                let (reply, answer) = rt::reply_channel();
                b.queued.direct(Direct::Fd(fd, Held::Close(reply), None));
                Call::from_future(async move { Ok(closed(answer).await) })
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
            BatchInner::Msg(b) => b.queued.kernel.len() + b.queued.direct.len(),
            BatchInner::Trap(_) => 0,
        }
    }

    /// Submits every queued syscall: the kernel task's as one message
    /// burst (one server wake on real threads; one send event per call
    /// on the simulator), and each call on a descriptor or a path where
    /// it is served, in the order they were queued. Then it awaits the
    /// batch's opens in that order and installs each answer, so when it
    /// returns no descriptor of the batch is in flight and its calls may
    /// be awaited in any order. Failures surface on the individual
    /// calls: [`KError::Gone`] if the kernel is gone,
    /// [`KError::Cancelled`] if it cancels a call mid-batch.
    pub async fn submit(&mut self) {
        let BatchInner::Msg(b) = &mut self.inner else {
            return;
        };
        let local = std::mem::take(&mut b.local);
        if local > 0 {
            rt::delay(local).await;
        }
        b.send();
        while b.install_oldest().await.is_some() {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, BootCfg, FsKind, KernelKind};
    use chanos_sim::Pcg32;
    use std::future::Future;

    /// A call of the property test below: what it may move the offset,
    /// whether it is a read, what [`Cursor::take`] gave it, and what its
    /// answer says it moved, once the answer is taken.
    struct Model {
        by: u64,
        read: bool,
        sent: Sent,
        moved: u64,
        taken: bool,
    }

    /// The offset a call sent now must take, computed afresh from the
    /// history: `exact[i]` is where call `i` was served, the answers
    /// applied in send order. The calls up to the last read whose answer
    /// got bytes, and then every call whose answer is taken, in order,
    /// are settled; past them the offset is moved by what each call may
    /// move it, and is `or_end` if one of them is a read.
    fn expected(calls: &[Model], exact: &[u64]) -> Offset {
        let after_read = calls
            .iter()
            .rposition(|c| c.taken && c.read && c.moved > 0)
            .map_or(0, |i| i + 1);
        let settled = after_read + calls[after_read..].iter().take_while(|c| c.taken).count();
        let unsettled = &calls[settled..];
        Offset {
            at: exact[settled] + unsettled.iter().map(|c| c.by).sum::<u64>(),
            or_end: unsettled.iter().any(|c| c.read),
        }
    }

    /// For any interleaving of sends and answers, some answers never
    /// taken (a call whose future was dropped), each call's offset is
    /// what [`expected`] says, and it reaches the file where the same
    /// calls made one after another would: a read reads what it would
    /// have, and a write lands where it would have. The file serves the
    /// calls in send order, as a vnode does; a write always succeeds.
    #[test]
    fn a_cursor_agrees_with_a_reference_that_applies_the_answers_in_send_order() {
        let mut g = Pcg32::new(0xC0_5E55);
        for script in 0..20_000 {
            let mut size = g.range(0, 64);
            let mut cursor = Cursor::default();
            let (mut calls, mut exact) = (Vec::<Model>::new(), vec![0]);
            let mut pending = Vec::new();
            let n = g.range(1, 12) as usize;
            while calls.len() < n || !pending.is_empty() {
                let send = calls.len() < n && (pending.is_empty() || g.chance(0.5));
                if !send {
                    let i = pending.swap_remove(g.index(pending.len()));
                    if g.chance(0.8) {
                        let call: &mut Model = &mut calls[i];
                        call.taken = true;
                        cursor.answered(call.sent, call.moved);
                    }
                    continue;
                }
                let (by, read) = (g.range(0, 16), g.chance(0.5));
                let want = expected(&calls, &exact);
                let sent = cursor.take(by, read);
                let (at, or_end) = (sent.from.at, sent.from.or_end);
                let ctx = format!("script {script}, call {}", calls.len());
                assert_eq!((at, or_end), (want.at, want.or_end), "{ctx}: its offset");
                let here = *exact.last().expect("one offset per call and one more");
                let moved = match read {
                    true => {
                        let moved = by.min(size.saturating_sub(at));
                        assert_eq!(moved, by.min(size - here), "{ctx}: bytes read");
                        assert!(moved == 0 || at == here, "{ctx}: where it read");
                        moved
                    }
                    false => {
                        let lands = if or_end { at.min(size) } else { at };
                        assert_eq!(lands, here, "{ctx}: where it wrote");
                        size = size.max(here + by);
                        by
                    }
                };
                exact.push(here + moved);
                pending.push(calls.len());
                let taken = false;
                calls.push(Model {
                    by,
                    read,
                    sent,
                    moved,
                    taken,
                });
            }
            let (last, want) = (cursor.take(0, false).from, expected(&calls, &exact));
            assert_eq!(
                (last.at, last.or_end),
                (want.at, want.or_end),
                "script {script}: the end"
            );
        }
    }

    /// A batch dropped unsubmitted, over a message kernel on MsgFs: its
    /// `open`, a `read` queued behind it in the batch, and a `read` made
    /// behind it since; and how many descriptors the process holds once
    /// the batch is gone.
    async fn a_dropped_batchs_open() -> (Vec<Result<u64, KError>>, usize) {
        let cores = vec![CoreId(0), CoreId(1)];
        let os = boot(BootCfg::new(KernelKind::Message, FsKind::Message, cores)).await;
        os.vfs.create("/f").await.unwrap();
        let env = os.procs.env();
        let Attached::Msg(end) = &env.kernel else {
            unreachable!("a message kernel")
        };
        let mut batch = env.batch();
        let open = batch.open("/f");
        let fd = Fd(3);
        let queued = batch.read(fd, 4);
        let read = |at: Offset, reply| FileCall::Read {
            off: at.at,
            len: 4,
            reply,
        };
        let made = end.on_fd(fd, Some((4, true)), None, read).unwrap();
        drop(batch);
        let held = plock(&end.files).open.len();
        let answers = vec![
            open.await.unwrap().map(|fd| u64::from(fd.0)),
            queued.await.unwrap().map(|data| data.len() as u64),
            end.finish(fd, made, read_len)
                .await
                .map(|data| data.len() as u64),
        ];
        (answers, held)
    }

    /// Dropping a batch before its submit answers its opens `Cancelled`
    /// at once and closes their descriptors, and the calls held behind
    /// them, in the batch or made since, answer `BadFd`, on both
    /// backends. (Before, the open's descriptor stayed in the table until
    /// a call made on it took the answer, and a call queued behind it in
    /// the batch answered `Gone`.)
    #[test]
    fn a_dropped_batch_cancels_its_opens_on_both_backends() {
        let want = (
            vec![
                Err(KError::Cancelled),
                Err(KError::BadFd),
                Err(KError::BadFd),
            ],
            0,
        );
        let mut s = chanos_sim::Simulation::with_config(chanos_sim::Config {
            cores: 4,
            ..chanos_sim::Config::default()
        });
        assert_eq!(s.block_on(a_dropped_batchs_open()).unwrap(), want);
        let rt = chanos_parchan::Runtime::new(2);
        let got = rt.block_on(a_dropped_batchs_open());
        rt.shutdown();
        assert_eq!(got, want, "threads");
    }

    /// A process whose kernel task is `port`, with no root vnode: its
    /// path calls go to the kernel task, as a lock engine's do.
    fn env_on(port: Port<Syscall>) -> Env {
        let kernel = Attached::Msg(MsgEnd::new(port, None));
        Env {
            pid: Pid(7),
            kernel,
        }
    }

    /// A message kernel's transport failures keep their meaning: an
    /// `open` whose kernel task takes it and drops it unanswered is
    /// `Cancelled`, one with no kernel task to take it is `Gone`.
    #[test]
    fn env_distinguishes_kernel_gone_from_cancellation() {
        let mut s = chanos_sim::Simulation::with_config(chanos_sim::Config {
            cores: 2,
            ..chanos_sim::Config::default()
        });
        s.block_on(async {
            let (port, rx) = rt::port_channel::<Syscall>(rt::Capacity::Unbounded);
            rt::spawn(async move {
                while let Ok(call) = rx.recv().await {
                    drop(call);
                }
            });
            assert_eq!(env_on(port).open("/x").await, Err(KError::Cancelled));

            let (port, rx) = rt::port_channel::<Syscall>(rt::Capacity::Unbounded);
            drop(rx);
            assert_eq!(env_on(port).open("/x").await, Err(KError::Gone));
        })
        .unwrap();
    }

    /// A batch whose `submit` is dropped while it awaits the batch's
    /// `open`, with a `read` and a `close` held on the open's
    /// descriptor; the kernel task takes the open and never answers it.
    /// The answers, and how many descriptors the process holds once the
    /// batch is gone.
    async fn a_dropped_submits_open() -> (Vec<Result<(), KError>>, usize) {
        let (port, rx) = rt::port_channel::<Syscall>(rt::Capacity::Unbounded);
        let env = env_on(port);
        let Attached::Msg(end) = &env.kernel else {
            unreachable!("a message kernel")
        };
        let mut batch = env.batch();
        let open = batch.open("/f");
        let (read, close) = (batch.read(Fd(3), 4), batch.close(Fd(3)));
        let mut submit = Box::pin(batch.submit());
        let mut taken = Box::pin(rx.recv());
        let unanswered = std::future::poll_fn(|cx| {
            let submitted = submit.as_mut().poll(cx);
            assert!(submitted.is_pending(), "submit awaits the open");
            taken.as_mut().poll(cx)
        })
        .await;
        drop(submit);
        drop(batch);
        let held = plock(&end.files).open.len();
        let answers = vec![
            open.await.unwrap().map(drop),
            read.await.unwrap().map(drop),
            close.await.unwrap(),
        ];
        drop(unanswered);
        (answers, held)
    }

    /// A `submit` dropped mid-wait leaves nothing waiting, on both
    /// backends: the batch's drop cancels the open it had not installed,
    /// so the open answers `Cancelled`, the calls held on its descriptor
    /// answer `BadFd`, and no descriptor of the batch is left.
    #[test]
    fn a_submit_dropped_while_it_awaits_an_open_resolves_every_call_on_both_backends() {
        let want = (
            vec![
                Err(KError::Cancelled),
                Err(KError::BadFd),
                Err(KError::BadFd),
            ],
            0,
        );
        let mut s = chanos_sim::Simulation::with_config(chanos_sim::Config {
            cores: 2,
            ..chanos_sim::Config::default()
        });
        assert_eq!(s.block_on(a_dropped_submits_open()).unwrap(), want);
        let rt = chanos_parchan::Runtime::new(2);
        let got = rt.block_on(a_dropped_submits_open());
        rt.shutdown();
        assert_eq!(got, want, "threads");
    }

    /// A lock engine's process sends its path calls to its kernel task,
    /// so a path call to a kernel task that is gone answers `Gone`,
    /// served alone or in a batch: the kernel gives it no root to send
    /// them through.
    #[test]
    fn a_lock_engines_path_call_to_a_gone_kernel_task_answers_gone() {
        let mut s = chanos_sim::Simulation::with_config(chanos_sim::Config {
            cores: 4,
            ..chanos_sim::Config::default()
        });
        for fs in [FsKind::BigLock, FsKind::Sharded] {
            let cores = vec![CoreId(0), CoreId(1)];
            let answers = s
                .block_on(async move {
                    let os = boot(BootCfg::new(KernelKind::Message, fs, cores)).await;
                    let KernelHandle::Msg(k) = &os.kernel else {
                        unreachable!("a message kernel")
                    };
                    assert!(k.root().is_none(), "a lock engine has no root vnode");
                    // The end `Env::new` makes, its kernel task gone.
                    let (port, rx) = rt::port_channel::<Syscall>(rt::Capacity::Unbounded);
                    drop(rx);
                    let env = env_on(port);
                    let mut batch = env.batch();
                    let batched = batch.open("/f");
                    batch.submit().await;
                    vec![
                        env.open("/f").await.map(drop),
                        env.create("/f").await.map(drop),
                        env.mkdir("/d").await,
                        env.unlink("/f").await,
                        env.readdir("/").await.map(drop),
                        batched.await.unwrap().map(drop),
                    ]
                })
                .unwrap();
            assert_eq!(answers, vec![Err(KError::Gone); 6], "{fs:?}");
        }
    }
}
