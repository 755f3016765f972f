//! The system-call layer, in both architectures §4 discusses.
//!
//! **Message kernel** (the proposal): *"Making a system call involves
//! sending a message from an application thread running on an
//! application core to a kernel thread running on a kernel core. This
//! can be done without any mode transitions."* System calls are
//! ordinary messages carrying a reply channel, and the kernel thread
//! that takes one is the one that serves it: a process sends its file
//! calls to the file system's vnodes itself. The reply channel is a
//! capability (§3), and so is the port it travels on. An open file is
//! the process's: `open` and `create` answer it a [`File`], which the
//! process installs in its own fd table (`Env`), and a `read`, a
//! `write` or an `fstat` goes from the process straight to the file's
//! vnode, which validates it; `close` runs in the process. The
//! namespace is the root directory's [`File`] ([`MsgKernel::root`]): an
//! `open`, a `create`, an `unlink`, a `mkdir` or a `readdir` goes from
//! the process to the root's vnode, each directory on the way hands it
//! on, and the vnode that serves it validates it and answers the
//! process. No lock exists anywhere on the path, and a call that waits
//! on the file system delays only the process that made it.
//!
//! Every process still has a kernel task of its own on a kernel core
//! ([`MsgKernel::attach`]), which keeps nothing of the process but its
//! pid. It serves `getpid`, the null system call, and a lock engine's
//! calls: those on its files ([`Syscall::File`]) and on its paths, which
//! have no vnode to take them and wait on locks and the disk where they
//! arrive. It drains its port in bursts and answers a burst through one
//! [`ReplyBatch`]: the same loop on the simulator, where each answer is
//! sent as it is produced, and on real threads, where a process with
//! several outstanding calls is woken once for them.
//!
//! **Trap kernel** (the baseline): the conventional design. Each call
//! pays a mode-switch in and out, runs the kernel code *on the
//! caller's core*, takes the fd-table lock, and — following the FlexSC
//! observation \[22\] — pays a cache-pollution penalty on return to user
//! mode.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use chanos_rt::{
    self as rt, delay, port_channel, Capacity, CoreId, Cycles, Port, ReplyBatch, ReplyTo,
};
use chanos_shmem::SimMutex;
use chanos_vfs::{Dirent, File, FileCall, FsError, PathCall, Stat, Vfs};

use crate::types::{Fd, KError, Pid};

/// One system call message. The reply channel rides inside, exactly
/// as §3's RPC derivation prescribes. The caller is not named: the port
/// a call arrives on belongs to one process ([`MsgKernel::attach`]). A
/// path call or a call on a file comes here only on a lock engine, which
/// has no vnodes (see the module docs); an `open`'s answer goes back to
/// the process, where the call or the batch that sent it installs it
/// (`Env`).
pub enum Syscall {
    /// Opens an existing file.
    Open {
        /// Absolute path.
        path: String,
        /// Completion channel, handed on to the file system: the file,
        /// for the process to install.
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Creates and opens a new file.
    Create {
        /// Absolute path.
        path: String,
        /// Completion channel, handed on to the file system.
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Creates a directory.
    Mkdir {
        /// Absolute path.
        path: String,
        /// Completion channel, handed on to the file system: the new
        /// directory, opened.
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Removes a file or empty directory.
    Unlink {
        /// Absolute path.
        path: String,
        /// Completion channel, handed on to the file system.
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// Lists a directory.
    ReadDir {
        /// Absolute path.
        path: String,
        /// Completion channel, handed on to the file system.
        reply: ReplyTo<Result<Vec<Dirent>, FsError>>,
    },
    /// The null system call (the classic microbenchmark).
    GetPid {
        /// Completion channel.
        reply: ReplyTo<Pid>,
    },
    /// A `read`, `write` or `fstat` on a lock engine's file, which has
    /// no vnode to take it ([`File::forward`]): served by the kernel
    /// task. Boxed, so the message stays as small as a path call.
    File(Box<(File, FileCall)>),
}

impl Syscall {
    /// The kernel task's message for `call` on `path`.
    pub(crate) fn on_path(path: String, call: PathCall) -> Syscall {
        match call {
            PathCall::Open { reply } => Syscall::Open { path, reply },
            PathCall::Create { reply } => Syscall::Create { path, reply },
            PathCall::Mkdir { reply } => Syscall::Mkdir { path, reply },
            PathCall::Unlink { reply } => Syscall::Unlink { path, reply },
            PathCall::ReadDir { reply } => Syscall::ReadDir { path, reply },
        }
    }
}

/// How many queued syscalls a kernel task drains per wakeup.
const SYSCALL_BATCH: usize = 32;

/// Kernel cost parameters shared by both architectures.
#[derive(Debug, Clone)]
pub struct KernelCosts {
    /// CPU cycles of kernel work per system call (dispatch,
    /// validation, fd table) beyond the file-system work itself. On the
    /// message kernel over MsgFs a call pays the same,
    /// [`chanos_vfs::VALIDATE_CYCLES`], where it is served instead: at
    /// the vnode that answers it, or in the process for a `close`.
    pub syscall_cpu: Cycles,
    /// Trap kernel only: one mode switch (entry or exit).
    pub mode_switch: Cycles,
    /// Trap kernel only: cache/TLB pollution penalty charged to the
    /// caller after returning to user mode (FlexSC's motivation).
    pub pollution: Cycles,
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts {
            syscall_cpu: 300,
            mode_switch: 700,
            pollution: 900,
        }
    }
}

/// One process's kernel-side state: its pid. Its open files are its
/// own (`Env`).
struct ProcState {
    pid: Pid,
    vfs: Vfs,
    costs: KernelCosts,
}

impl ProcState {
    /// Serves one call, answering through `replies`. A lock engine's
    /// call may wait here for a disk, so the burst's answers so far are
    /// flushed first: a `GetPid` is never held behind a cold read.
    async fn handle(&mut self, call: Syscall, replies: &mut ReplyBatch) {
        delay(self.costs.syscall_cpu).await;
        if !matches!(call, Syscall::GetPid { .. }) {
            replies.flush();
        }
        let (path, call) = match call {
            Syscall::Open { path, reply } => (path, PathCall::Open { reply }),
            Syscall::Create { path, reply } => (path, PathCall::Create { reply }),
            Syscall::Mkdir { path, reply } => (path, PathCall::Mkdir { reply }),
            Syscall::Unlink { path, reply } => (path, PathCall::Unlink { reply }),
            Syscall::ReadDir { path, reply } => (path, PathCall::ReadDir { reply }),
            Syscall::GetPid { reply } => return replies.send(reply, self.pid),
            Syscall::File(call) => {
                let (file, call) = *call;
                return self.vfs.on_file(&file, call, replies).await;
            }
        };
        self.vfs.on_path(&path, call, replies).await;
    }
}

/// A process's kernel task: serves its syscalls in arrival order until
/// the last handle on its port (every clone of the process's `Env`,
/// every batch made from one) is dropped.
async fn proc_task(mut st: ProcState, rx: rt::Receiver<Syscall>) {
    // Drain bursts: one wakeup and one dispatch serve a whole batch of
    // syscalls instead of one each, and a process with several
    // outstanding calls is woken once for the answers.
    let mut batch = Vec::with_capacity(SYSCALL_BATCH);
    let mut replies = ReplyBatch::default();
    loop {
        let n = rx.recv_many(&mut batch, SYSCALL_BATCH).await;
        if n == 0 {
            break;
        }
        rt::stat_incr("kernel.syscall_drains");
        rt::stat_add("kernel.syscall_batched", n as u64);
        for call in batch.drain(..) {
            st.handle(call, &mut replies).await;
        }
        replies.flush();
    }
    rt::stat_incr("kernel.proc_tasks_exited");
}

/// The message-kernel: one kernel task per process on dedicated kernel
/// cores, addressed through typed [`Port`]s, over one file system.
#[derive(Clone)]
pub struct MsgKernel {
    vfs: Vfs,
    costs: KernelCosts,
    kernel_cores: Vec<CoreId>,
}

impl MsgKernel {
    /// A message kernel over `vfs` whose per-process tasks run on
    /// `kernel_cores`.
    pub fn new(vfs: Vfs, costs: KernelCosts, kernel_cores: &[CoreId]) -> MsgKernel {
        assert!(!kernel_cores.is_empty());
        MsgKernel {
            vfs,
            costs,
            kernel_cores: kernel_cores.to_vec(),
        }
    }

    /// The root directory, which takes a process's path calls
    /// ([`File::forward_path`]): the root vnode, over
    /// [`MsgFs`](chanos_vfs::MsgFs). A lock engine has no root vnode: the
    /// process's kernel task takes its path calls.
    pub fn root(&self) -> Option<File> {
        self.vfs.root()
    }

    /// Starts `pid`'s kernel task, on kernel core `pid mod n`, and gives
    /// the port its system calls go to; the task lives until every clone
    /// of that port is dropped. Must run inside a runtime.
    pub fn attach(&self, pid: Pid) -> Port<Syscall> {
        let (port, rx) = port_channel::<Syscall>(Capacity::Unbounded);
        let st = ProcState {
            pid,
            vfs: self.vfs.clone(),
            costs: self.costs.clone(),
        };
        let core = self.kernel_cores[pid.0 as usize % self.kernel_cores.len()];
        rt::spawn_daemon_on(&format!("kproc{}", pid.0), core, proc_task(st, rx));
        rt::stat_incr("kernel.proc_tasks_spawned");
        port
    }
}

/// A trap kernel's open file: the file `open` or `create` answered,
/// which reaches that file and no other, and the offset the kernel
/// keeps.
#[derive(Debug, Clone)]
struct OpenFile {
    file: File,
    offset: u64,
}

/// The trap-kernel baseline: kernel code runs on the caller's core
/// behind mode switches and an fd-table lock.
pub struct TrapKernel {
    vfs: Vfs,
    costs: KernelCosts,
    // One global fd-table lock — the classic shared kernel structure.
    files: SimMutex<HashMap<(Pid, Fd), OpenFile>>,
    next_fd: Mutex<HashMap<Pid, u32>>,
}

impl TrapKernel {
    /// Creates the trap kernel. Must be called inside the simulation
    /// (its locks model coherence costs, which only exist there).
    pub fn new(vfs: Vfs, costs: KernelCosts) -> Arc<TrapKernel> {
        Arc::new(TrapKernel {
            vfs,
            costs,
            files: SimMutex::new(HashMap::new()),
            next_fd: Mutex::new(HashMap::new()),
        })
    }

    async fn enter(&self) {
        delay(self.costs.mode_switch).await;
        delay(self.costs.syscall_cpu).await;
        rt::stat_incr("kernel.syscalls");
    }

    async fn exit(&self) {
        delay(self.costs.mode_switch).await;
        // FlexSC: returning to user mode finds the caches trashed.
        delay(self.costs.pollution).await;
    }

    fn alloc_fd(&self, pid: Pid) -> Fd {
        let mut t = self.next_fd.lock().unwrap_or_else(|e| e.into_inner());
        let n = t.entry(pid).or_insert(3);
        let fd = Fd(*n);
        *n += 1;
        fd
    }

    /// `open(2)`.
    pub async fn open(&self, pid: Pid, path: &str) -> Result<Fd, KError> {
        self.enter().await;
        let out = match self.vfs.open(path).await {
            Ok(file) => {
                let fd = self.alloc_fd(pid);
                let g = self.files.lock().await;
                g.with(|f| f.insert((pid, fd), OpenFile { file, offset: 0 }));
                Ok(fd)
            }
            Err(e) => Err(KError::Fs(e)),
        };
        self.exit().await;
        out
    }

    /// `creat(2)`.
    pub async fn create(&self, pid: Pid, path: &str) -> Result<Fd, KError> {
        self.enter().await;
        let out = match self.vfs.create_open(path).await {
            Ok(file) => {
                let fd = self.alloc_fd(pid);
                let g = self.files.lock().await;
                g.with(|f| f.insert((pid, fd), OpenFile { file, offset: 0 }));
                Ok(fd)
            }
            Err(e) => Err(KError::Fs(e)),
        };
        self.exit().await;
        out
    }

    /// `read(2)`.
    pub async fn read(&self, pid: Pid, fd: Fd, len: usize) -> Result<Vec<u8>, KError> {
        self.enter().await;
        let of = {
            let g = self.files.lock().await;
            g.with(|f| f.get(&(pid, fd)).cloned())
        };
        let out = match of {
            None => Err(KError::BadFd),
            Some(of) => match self.vfs.read_file(&of.file, of.offset, len).await {
                Ok(data) => {
                    let g = self.files.lock().await;
                    g.with(|f| {
                        if let Some(e) = f.get_mut(&(pid, fd)) {
                            e.offset += data.len() as u64;
                        }
                    });
                    Ok(data)
                }
                Err(e) => Err(KError::Fs(e)),
            },
        };
        self.exit().await;
        out
    }

    /// `write(2)`.
    pub async fn write(&self, pid: Pid, fd: Fd, data: &[u8]) -> Result<usize, KError> {
        self.enter().await;
        let of = {
            let g = self.files.lock().await;
            g.with(|f| f.get(&(pid, fd)).cloned())
        };
        let out = match of {
            None => Err(KError::BadFd),
            Some(of) => match self.vfs.write_file(&of.file, of.offset, data).await {
                Ok(()) => {
                    let g = self.files.lock().await;
                    g.with(|f| {
                        if let Some(e) = f.get_mut(&(pid, fd)) {
                            e.offset += data.len() as u64;
                        }
                    });
                    Ok(data.len())
                }
                Err(e) => Err(KError::Fs(e)),
            },
        };
        self.exit().await;
        out
    }

    /// `close(2)`.
    pub async fn close(&self, pid: Pid, fd: Fd) -> Result<(), KError> {
        self.enter().await;
        let g = self.files.lock().await;
        let out = g.with(|f| f.remove(&(pid, fd)).map(|_| ()).ok_or(KError::BadFd));
        drop(g);
        self.exit().await;
        out
    }

    /// `fstat(2)`.
    pub async fn fstat(&self, pid: Pid, fd: Fd) -> Result<Stat, KError> {
        self.enter().await;
        let of = {
            let g = self.files.lock().await;
            g.with(|f| f.get(&(pid, fd)).cloned())
        };
        let out = match of {
            None => Err(KError::BadFd),
            Some(of) => self.vfs.stat_file(&of.file).await.map_err(KError::Fs),
        };
        self.exit().await;
        out
    }

    /// `mkdir(2)`.
    pub async fn mkdir(&self, pid: Pid, path: &str) -> Result<(), KError> {
        let _ = pid;
        self.enter().await;
        let out = self.vfs.mkdir(path).await.map(|_| ()).map_err(KError::Fs);
        self.exit().await;
        out
    }

    /// `unlink(2)`.
    pub async fn unlink(&self, pid: Pid, path: &str) -> Result<(), KError> {
        let _ = pid;
        self.enter().await;
        let out = self.vfs.unlink(path).await.map_err(KError::Fs);
        self.exit().await;
        out
    }

    /// `readdir(3)`.
    pub async fn readdir(&self, pid: Pid, path: &str) -> Result<Vec<String>, KError> {
        let _ = pid;
        self.enter().await;
        let out = match self.vfs.readdir(path).await {
            Ok(entries) => Ok(entries.into_iter().map(|e| e.name).collect()),
            Err(e) => Err(KError::Fs(e)),
        };
        self.exit().await;
        out
    }

    /// `getpid(2)` — the null syscall.
    pub async fn getpid(&self, pid: Pid) -> Pid {
        self.enter().await;
        self.exit().await;
        pid
    }
}
