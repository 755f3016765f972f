//! # chanos-net — the shared-nothing cluster substrate
//!
//! Holland & Seltzer (HotOS XIII 2011) frame the multicore future
//! through the supercomputing past: shared-memory multiprocessors
//! "developed into massive shared-nothing clusters that communicate
//! by message passing, like BlueGene" (§1), cluster messages are
//! *middleweight* — "comparable to a system call or network packet"
//! (§2) — and the failure mode to avoid is "turning such a chip into
//! a cluster of hundreds of apparently separate virtual machines"
//! (§6). This crate builds that cluster world so the evaluation suite
//! can price it against the lightweight on-die channels of
//! `chanos-csp`:
//!
//! | module | contents |
//! |---|---|
//! | [`wire`] | [`Wire`]: byte encoding of values (marshalling cost) |
//! | [`frame`] | [`Frame`]: addressed, checksummed datagrams |
//! | [`link`] | [`LinkParams`]: latency/bandwidth/loss/jitter model |
//! | [`node`] | [`Cluster`], [`Iface`]: nodes, switch, port demux |
//! | [`rdt`] | [`connect`]/[`listen`]/[`Conn`]: reliable go-back-N transport |
//! | [`rpc`] | [`RpcClient`]/[`serve`]: correlation-id request/response, [`SerdeCost`] |
//!
//! ## Example: two shared-nothing nodes
//!
//! The cluster is written against the `chanos-rt` facade, so the same
//! code runs on the deterministic simulator (below) and on the
//! `chanos-parchan` thread pool (`Runtime::block_on`).
//!
//! ```
//! use chanos_net::{
//!     connect, listen, Cluster, ClusterParams, NodeId, RdtParams,
//! };
//! use chanos_rt::spawn;
//! use chanos_sim::Simulation;
//!
//! let mut machine = Simulation::new(4);
//! machine
//!     .block_on(async {
//!         let cluster = Cluster::new(ClusterParams::default());
//!         let listener =
//!             listen(&cluster.iface(NodeId(1)), 80, RdtParams::default()).unwrap();
//!         let server = spawn(async move {
//!             let conn = listener.accept().await.unwrap();
//!             let msg = conn.recv().await.unwrap();
//!             conn.send(msg).await.unwrap(); // Echo.
//!             conn.finish();
//!         });
//!         let conn = connect(&cluster.iface(NodeId(0)), NodeId(1), 80, RdtParams::default())
//!             .await
//!             .unwrap();
//!         conn.send(b"ping".to_vec()).await.unwrap();
//!         assert_eq!(conn.recv().await.unwrap(), b"ping");
//!         server.join().await.unwrap();
//!     })
//!     .unwrap();
//! ```

pub mod frame;
pub mod link;
pub mod node;
pub mod rdt;
pub mod rpc;
pub mod wire;

pub use frame::{Frame, FrameError, FrameHeader, FrameKind, NodeId};
pub use link::LinkParams;
pub use node::{Cluster, ClusterParams, Iface, NetError};
pub use rdt::{connect, listen, Conn, ConnectError, Listener, RdtMode, RdtParams};
pub use rpc::{serve, RpcClient, RpcError, SerdeCost};
pub use wire::{Wire, WireError};
