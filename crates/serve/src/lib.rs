//! # chanos-serve — serve traffic, not microbenchmarks
//!
//! Every benchmark below this layer exercises the stack from the
//! inside (channel matrices, pipelined getpid, NR read storms). This
//! crate asks the paper's actual question — does the channel-OS
//! design hold up as a *system serving real workloads* — by putting
//! applications on the libOS surface. What an operator would read off
//! them — tail latency and goodput, not just throughput — is measured
//! by the benchmark of record, `benchmark/` (`kv_open`, `kv_sat`,
//! `file_get`), which draws its keys from [`Zipf`].
//!
//! Two pieces:
//!
//! * **Applications** ([`kv`], [`file`]) — a memcached-style KV
//!   server (GET/SET/DEL over a sharded store, each shard one task
//!   draining its [`chanos_rt::Port`] in `recv_many` bursts) and a
//!   static-file server whose burst drains turn into one
//!   `DiskClient::read_extents` per burst, one extent per distinct
//!   file, read and answered by a child task per burst so several
//!   bursts are in flight at once (the driver elevator-sorts their
//!   reads together and programs nearby files as one command). Both
//!   run unchanged on the simulator and on real threads.
//! * **Priority-aware serving** — server tasks take a
//!   [`chanos_rt::Priority`]; spawning servers `High` puts them ahead
//!   of every ready `Normal` task on both backends, so request
//!   handling keeps its tail latency while batch work floods the
//!   machine
//!   (`high_priority_is_not_starved_under_overload_on_both_backends`
//!   in `tests/backend_equiv.rs` asserts exactly that).
//!
//! Everything goes through the `chanos-rt` facade — no raw threads,
//! no wall-clock reads — so the whole serving stack is deterministic
//! under the simulator and model-checkable where it touches the
//! scheduler.

pub mod file;
pub mod kv;
pub mod zipf;

pub use file::{spawn_file_server, FileClient, FileReq};
pub use kv::{spawn_kv, KvCfg, KvClient, KvReq};
pub use zipf::Zipf;
