//! The legacy-compatibility layer (§1/§4): a sequential, Unix-shaped
//! file API over the message kernel.
//!
//! *"Existing single-threaded code that is not performance critical
//! can run unchanged."* `CompatFile` presents blocking-looking
//! open/read/write/close; underneath, each call is one synchronous
//! round trip to the process's kernel task. Experiment E12 measures
//! the cost of running such unmodified code versus code restructured
//! to pipeline its requests.

use crate::env::Env;
use crate::types::{Fd, KError};

/// A sequential file handle in the style of `std::fs::File`.
pub struct CompatFile<'e> {
    env: &'e Env,
    fd: Fd,
    closed: bool,
}

impl<'e> CompatFile<'e> {
    /// Opens an existing file.
    pub async fn open(env: &'e Env, path: &str) -> Result<CompatFile<'e>, KError> {
        let fd = env.open(path).await?;
        Ok(CompatFile {
            env,
            fd,
            closed: false,
        })
    }

    /// Creates (and opens) a new file.
    pub async fn create(env: &'e Env, path: &str) -> Result<CompatFile<'e>, KError> {
        let fd = env.create(path).await?;
        Ok(CompatFile {
            env,
            fd,
            closed: false,
        })
    }

    /// Reads up to `len` bytes from the current offset.
    pub async fn read(&mut self, len: usize) -> Result<Vec<u8>, KError> {
        self.env.read(self.fd, len).await
    }

    /// Writes all of `data` at the current offset.
    pub async fn write_all(&mut self, data: &[u8]) -> Result<(), KError> {
        let n = self.env.write(self.fd, data).await?;
        if n == data.len() {
            Ok(())
        } else {
            Err(KError::Fs(chanos_vfs::FsError::Invalid))
        }
    }

    /// File size in bytes.
    pub async fn size(&self) -> Result<u64, KError> {
        Ok(self.env.fstat(self.fd).await?.size)
    }

    /// Closes the file (also happens implicitly on drop, but without
    /// error reporting).
    pub async fn close(mut self) -> Result<(), KError> {
        self.closed = true;
        self.env.close(self.fd).await
    }
}

/// Copies `src` to `dst` the way a 1980s `cp` would: sequential
/// read/write of `chunk`-byte buffers.
pub async fn compat_copy(env: &Env, src: &str, dst: &str, chunk: usize) -> Result<u64, KError> {
    let mut from = CompatFile::open(env, src).await?;
    let mut to = CompatFile::create(env, dst).await?;
    let mut copied = 0u64;
    loop {
        let buf = from.read(chunk).await?;
        if buf.is_empty() {
            break;
        }
        copied += buf.len() as u64;
        to.write_all(&buf).await?;
    }
    from.close().await?;
    to.close().await?;
    Ok(copied)
}
