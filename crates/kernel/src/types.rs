//! Kernel identifier and error types.

use chanos_rt::CallError;
use chanos_vfs::FsError;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// File descriptor, per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

impl std::fmt::Display for Fd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Errors surfaced by system calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KError {
    /// Unknown or closed file descriptor.
    BadFd,
    /// A file-system error.
    Fs(FsError),
    /// The call was interrupted by a signal (the baseline event
    /// model; never produced by the channel event model).
    Interrupted,
    /// The kernel service handling the call went away (the syscall
    /// was not served).
    Gone,
    /// The kernel accepted the syscall but cancelled it without
    /// answering (server shut down mid-batch). Distinct from
    /// [`KError::Gone`]: the service may still be alive.
    Cancelled,
}

impl std::fmt::Display for KError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KError::BadFd => write!(f, "bad file descriptor"),
            KError::Fs(e) => write!(f, "{e}"),
            KError::Interrupted => write!(f, "interrupted system call"),
            KError::Gone => write!(f, "kernel service unavailable"),
            KError::Cancelled => write!(f, "system call cancelled by the kernel"),
        }
    }
}

impl std::error::Error for KError {}

impl From<FsError> for KError {
    /// A file system's answer as a syscall's: the kernel's own refusal
    /// of a descriptor, which travels in the file system's answer type
    /// when the call was handed on, is `BadFd` again.
    fn from(e: FsError) -> Self {
        match e {
            FsError::BadFd => KError::BadFd,
            e => KError::Fs(e),
        }
    }
}

impl From<CallError> for KError {
    fn from(e: CallError) -> Self {
        match e {
            CallError::ServerGone => KError::Gone,
            CallError::Cancelled => KError::Cancelled,
            // A deadline elapsing is a client-side cancellation: the
            // server may still be alive (and may even answer late,
            // into a dropped endpoint).
            CallError::TimedOut => KError::Cancelled,
        }
    }
}
