//! # chanos-kernel — the operating system §4 proposes
//!
//! The paper's architecture, assembled: system calls are messages
//! from application cores to kernel cores ([`MsgKernel`]); the kernel
//! is a constellation of autonomous threads (a kernel task per
//! process, the vnode and cylinder-group threads of `chanos-vfs`, the driver
//! threads of `chanos-drivers`) that communicate only by channels;
//! kernel→application events flow over channels instead of signals;
//! partial failure is contained by Erlang-style supervision trees.
//!
//! For every claim there is a conventional baseline in the same
//! crate: the trap kernel ([`TrapKernel`]), the Unix signal model
//! ([`events`]), and unsupervised operation.
//!
//! | module | paper claim |
//! |---|---|
//! | [`syscall`] | §4: no mode transitions; syscalls as messages (vs FlexSC-style traps) |
//! | [`env`](mod@env) | §4: legacy API unchanged over either kernel |
//! | [`placement`] | §5: thread/core placement policies |
//! | [`supervision`] | §5: partial failure, Erlang-style "aim for not failing" |
//! | [`events`] | §3.1: signals abandon/unwind/redo vs channel delivery |
//! | [`pipe`](mod@pipe) | §4: IPC "relegated to hardware" — pipes with no kernel |
//! | [`compat`] | §1/§4: unmodified sequential code on the new OS |
//! | [`boot`](mod@boot) | whole-OS assembly |

pub mod boot;
pub mod compat;
pub mod env;
pub mod events;
pub mod pids;
pub mod pipe;
pub mod placement;
pub mod supervision;
pub mod syscall;
pub mod types;

pub use boot::{boot, BootCfg, FsKind, KernelKind, Os};
pub use compat::{compat_copy, CompatFile};
pub use env::{Env, KernelHandle, ProcessTable, SyscallBatch};
pub use events::{run_channel_model, run_signal_model, EventExpCfg, EventExpResult};
pub use pids::{PidInfo, PidTable};
pub use pipe::{pipe, PipeReader, PipeWriter, PIPE_DEPTH};
pub use placement::Policy;
pub use supervision::{ChildSpec, Restart, Strategy, Supervisor, SupervisorExit};
pub use syscall::{KernelCosts, MsgKernel, Syscall, TrapKernel};
pub use types::{Fd, KError, Pid};
