//! The pid table as a node-replicated kernel service.
//!
//! Before this module, chanos's process metadata was the paper's
//! anti-pattern in miniature: one shared structure every core
//! consults. Here the pid→[`PidInfo`] map becomes a
//! [`chanos_nr::Replicated`] service — registrations and exits are
//! log entries, while `alive`/`info`/`count` queries are served from
//! the querying core's local replica with **no cross-core
//! communication** on the fast path.
//!
//! Pid *numbers* are not part of the replicated state: allocation
//! stays a monotonically increasing counter (pids are never reused,
//! matching the pre-NR behavior), so `ProcessTable::env` and
//! `spawn_process` keep their synchronous signatures.

use std::collections::HashMap;

use chanos_nr::{NrService, Replicated};
use chanos_rt::CoreId;

use crate::types::Pid;

/// What the kernel knows about a live process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PidInfo {
    /// Task name (`proc<pid>` for spawned processes).
    pub name: String,
    /// Core the process was placed on.
    pub core: CoreId,
}

/// Read-only pid table queries (served from the local replica).
pub enum PidRead {
    /// Is this pid currently registered?
    Alive(Pid),
    /// Metadata for a pid, if registered.
    Info(Pid),
    /// Number of live processes.
    Count,
}

/// Responses to [`PidRead`] queries.
pub enum PidReadResp {
    /// Answer to [`PidRead::Alive`].
    Alive(bool),
    /// Answer to [`PidRead::Info`].
    Info(Option<PidInfo>),
    /// Answer to [`PidRead::Count`].
    Count(u64),
}

/// Mutating pid table ops: the log entries every replica applies.
#[derive(Debug, Clone)]
pub enum PidWrite {
    /// A process came to life.
    Register {
        /// Its pid (allocated by the caller's counter).
        pid: Pid,
        /// Its metadata.
        info: PidInfo,
    },
    /// A process exited.
    Exit {
        /// The departing pid.
        pid: Pid,
    },
}

/// The replicated state: live pids and their metadata.
#[derive(Default)]
pub struct PidState {
    live: HashMap<u32, PidInfo>,
}

impl NrService for PidState {
    type ReadOp = PidRead;
    type ReadResp = PidReadResp;
    type WriteOp = PidWrite;
    type WriteResp = bool;

    fn read(&self, op: &PidRead) -> PidReadResp {
        match op {
            PidRead::Alive(pid) => PidReadResp::Alive(self.live.contains_key(&pid.0)),
            PidRead::Info(pid) => PidReadResp::Info(self.live.get(&pid.0).cloned()),
            PidRead::Count => PidReadResp::Count(self.live.len() as u64),
        }
    }

    fn apply(&mut self, op: &PidWrite) -> bool {
        match op {
            PidWrite::Register { pid, info } => self.live.insert(pid.0, info.clone()).is_none(),
            PidWrite::Exit { pid } => self.live.remove(&pid.0).is_some(),
        }
    }
}

/// The pid table service handle. Cheap to clone. A write's transport
/// error (kernel shutting down mid-call) degrades to `false` rather
/// than surfacing; reads are served locally and cannot fail.
#[derive(Clone)]
pub struct PidTable {
    svc: Replicated<PidState>,
}

impl PidTable {
    /// Boots the pid table with a replica on each kernel service
    /// core. Must run inside a runtime.
    pub fn spawn(cores: &[CoreId]) -> PidTable {
        PidTable {
            svc: Replicated::spawn("pidtab", cores, PidState::default),
        }
    }

    /// Registers a live process; `true` if the pid was fresh.
    pub async fn register(&self, pid: Pid, name: &str, core: CoreId) -> bool {
        let info = PidInfo {
            name: name.to_string(),
            core,
        };
        self.svc
            .write(PidWrite::Register { pid, info })
            .await
            .unwrap_or(false)
    }

    /// Removes an exited process; `true` if it was registered.
    pub async fn exit(&self, pid: Pid) -> bool {
        self.svc
            .write(PidWrite::Exit { pid })
            .await
            .unwrap_or(false)
    }

    /// Is the pid registered? Local-replica read.
    pub async fn alive(&self, pid: Pid) -> bool {
        match self.svc.read(PidRead::Alive(pid)).await {
            PidReadResp::Alive(b) => b,
            _ => unreachable!("Alive answered with another response"),
        }
    }

    /// Metadata for a pid. Local-replica read.
    pub async fn info(&self, pid: Pid) -> Option<PidInfo> {
        match self.svc.read(PidRead::Info(pid)).await {
            PidReadResp::Info(i) => i,
            _ => unreachable!("Info answered with another response"),
        }
    }

    /// Number of live processes. Local-replica read.
    pub async fn count(&self) -> u64 {
        match self.svc.read(PidRead::Count).await {
            PidReadResp::Count(n) => n,
            _ => unreachable!("Count answered with another response"),
        }
    }
}
