//! File-system error type.

use chanos_drivers::DiskError;

/// Errors surfaced by every file-system engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Name already exists in the directory.
    Exists,
    /// A non-directory appeared where a directory was required.
    NotDir,
    /// A directory appeared where a file was required.
    IsDir,
    /// Directory not empty (unlink of a populated directory).
    NotEmpty,
    /// No free data blocks.
    NoSpace,
    /// No free inodes.
    NoInodes,
    /// File would exceed the maximum supported size.
    TooBig,
    /// Name exceeds the dirent limit.
    NameTooLong,
    /// Malformed path or argument.
    Invalid,
    /// Underlying device error.
    Io(DiskError),
    /// A server in the file-system service went away, or the file an
    /// open handle names was removed.
    Gone,
    /// The descriptor names no open file: the kernel's refusal of a
    /// call on a closed or unknown descriptor. It travels in the file
    /// system's answer type because the kernel hands such a call's
    /// reply on to the file system, which answers the process itself.
    BadFd,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NoInodes => write!(f, "no free inodes"),
            FsError::TooBig => write!(f, "file too large"),
            FsError::NameTooLong => write!(f, "file name too long"),
            FsError::Invalid => write!(f, "invalid argument"),
            FsError::Io(e) => write!(f, "I/O error: {e}"),
            FsError::Gone => write!(f, "filesystem service unavailable"),
            FsError::BadFd => write!(f, "bad file descriptor"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<DiskError> for FsError {
    fn from(e: DiskError) -> Self {
        FsError::Io(e)
    }
}

impl From<chanos_rt::CallError> for FsError {
    fn from(_: chanos_rt::CallError) -> Self {
        // Both transport failures (server gone, call cancelled by a
        // reaping server) surface as the service being unavailable at
        // the file-system API.
        FsError::Gone
    }
}
