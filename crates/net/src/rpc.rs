//! Request/response over a cluster connection.
//!
//! §3 derives RPC from channels: `c <- (a, b, c1); r <- c1;`. On-die,
//! `c1` is a real channel that travels inside the message. Across a
//! cluster link channels cannot travel, so `c1` degenerates into a
//! *correlation id* — precisely the machinery every network RPC
//! system re-invents, and a concrete illustration of what the
//! lightweight model gets for free.
//!
//! The client supports multiple outstanding calls (a dispatcher task
//! routes responses by id); the server processes requests serially,
//! like the single-threaded drivers of §4.

use std::collections::BTreeMap;
use std::future::Future;
use std::sync::Arc;
use std::sync::Mutex;

use chanos_rt::{self as rt, plock, reply_channel, Cycles, ReplyTo};

use crate::rdt::Conn;
use crate::wire::Wire;

/// Marshalling cost model: `per_msg + per_byte * len` cycles charged
/// on each encode and each decode.
#[derive(Debug, Clone, Copy)]
pub struct SerdeCost {
    /// Fixed cost per message (cycles).
    pub per_msg: Cycles,
    /// Cost per encoded byte (cycles).
    pub per_byte: Cycles,
}

impl Default for SerdeCost {
    fn default() -> Self {
        // A few hundred cycles of dispatch plus ~1 cycle/byte of
        // copying: the "memory bandwidth overhead" of §3.
        SerdeCost {
            per_msg: 300,
            per_byte: 1,
        }
    }
}

impl SerdeCost {
    /// Zero-cost marshalling, for isolating protocol overheads in
    /// experiments.
    pub const FREE: SerdeCost = SerdeCost {
        per_msg: 0,
        per_byte: 0,
    };

    /// Cycles to (en/de)code `len` bytes.
    pub fn cost(&self, len: usize) -> Cycles {
        self.per_msg + self.per_byte * len as Cycles
    }
}

/// Error from [`RpcClient::call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// Connection closed before the response arrived.
    Closed,
    /// The response bytes did not decode.
    Decode,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Closed => f.write_str("rpc connection closed"),
            RpcError::Decode => f.write_str("rpc response malformed"),
        }
    }
}

impl std::error::Error for RpcError {}

type Pending<Resp> = Arc<Mutex<BTreeMap<u64, ReplyTo<Result<Resp, RpcError>>>>>;

/// A typed RPC client over one cluster connection.
///
/// Cloning shares the connection and the outstanding-call table, so
/// several tasks can issue calls concurrently.
pub struct RpcClient<Req: Wire, Resp: Wire + 'static> {
    conn: Arc<Conn>,
    cost: SerdeCost,
    next_id: Arc<Mutex<u64>>,
    pending: Pending<Resp>,
    _marker: std::marker::PhantomData<fn(Req) -> Resp>,
}

impl<Req: Wire, Resp: Wire> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient {
            conn: Arc::clone(&self.conn),
            cost: self.cost,
            next_id: Arc::clone(&self.next_id),
            pending: Arc::clone(&self.pending),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<Req: Wire, Resp: Wire + 'static> RpcClient<Req, Resp> {
    /// Wraps `conn` as an RPC client and starts the response
    /// dispatcher.
    pub fn new(conn: Conn, cost: SerdeCost) -> RpcClient<Req, Resp> {
        let conn = Arc::new(conn);
        let pending: Pending<Resp> = Pending::<Resp>::default();
        let dispatcher_conn = Arc::clone(&conn);
        let dispatcher_pending = Arc::clone(&pending);
        rt::spawn_daemon("rpc-dispatch", async move {
            loop {
                let bytes = match dispatcher_conn.recv().await {
                    Ok(b) => b,
                    Err(_) => break,
                };
                rt::delay(cost.cost(bytes.len())).await;
                let parsed: Result<(u64, Resp), _> = <(u64, Resp)>::from_bytes(&bytes);
                match parsed {
                    Ok((id, resp)) => {
                        let waiter = plock(&dispatcher_pending).remove(&id);
                        if let Some(reply) = waiter {
                            let _ = reply.send(Ok(resp)).await;
                        } else {
                            rt::stat_incr("rpc.orphan_responses");
                        }
                    }
                    Err(_) => rt::stat_incr("rpc.bad_responses"),
                }
            }
            // Connection gone: fail everything still outstanding.
            let waiters: Vec<_> = {
                let mut p = plock(&dispatcher_pending);
                std::mem::take(&mut *p).into_values().collect()
            };
            for w in waiters {
                let _ = w.send(Err(RpcError::Closed)).await;
            }
        });
        RpcClient {
            conn,
            cost,
            next_id: Arc::new(Mutex::new(1)),
            pending,
            _marker: std::marker::PhantomData,
        }
    }

    /// Issues one call and awaits its response.
    ///
    /// Calls from different tasks interleave freely; responses are
    /// matched by correlation id.
    pub async fn call(&self, req: &Req) -> Result<Resp, RpcError> {
        let id = {
            let mut n = plock(&self.next_id);
            let id = *n;
            *n += 1;
            id
        };
        let (reply_to, reply) = reply_channel();
        plock(&self.pending).insert(id, reply_to);
        let mut bytes = Vec::new();
        id.encode(&mut bytes);
        req.encode(&mut bytes);
        rt::delay(self.cost.cost(bytes.len())).await;
        rt::stat_incr("rpc.calls");
        if self.conn.send(bytes).await.is_err() {
            plock(&self.pending).remove(&id);
            return Err(RpcError::Closed);
        }
        match reply.recv().await {
            Ok(result) => result,
            Err(_) => Err(RpcError::Closed),
        }
    }

    /// Half-closes the connection; outstanding calls still complete.
    pub fn finish(&self) {
        self.conn.finish();
    }
}

/// Serves RPC requests on `conn` until the peer finishes.
///
/// Requests are handled strictly in order by `handler` — the
/// single-threaded service discipline §4 prescribes for drivers.
/// Handler errors (undecodable requests) are counted and skipped.
pub async fn serve<Req, Resp, F, Fut>(conn: Conn, cost: SerdeCost, mut handler: F)
where
    Req: Wire,
    Resp: Wire,
    F: FnMut(Req) -> Fut,
    Fut: Future<Output = Resp>,
{
    while let Ok(bytes) = conn.recv().await {
        rt::delay(cost.cost(bytes.len())).await;
        let parsed: Result<(u64, Req), _> = <(u64, Req)>::from_bytes(&bytes);
        let (id, req) = match parsed {
            Ok(v) => v,
            Err(_) => {
                rt::stat_incr("rpc.bad_requests");
                continue;
            }
        };
        let resp = handler(req).await;
        let mut out = Vec::new();
        id.encode(&mut out);
        resp.encode(&mut out);
        rt::delay(cost.cost(out.len())).await;
        rt::stat_incr("rpc.served");
        if conn.send(out).await.is_err() {
            break;
        }
    }
    conn.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeId;
    use crate::link::LinkParams;
    use crate::node::{Cluster, ClusterParams};
    use crate::rdt::{connect, listen, RdtParams};
    use chanos_sim::Simulation;

    async fn kv_cluster(loss: f64) -> (RpcClient<(String, u64), Option<u64>>, ()) {
        let link = if loss > 0.0 {
            LinkParams::lossy(loss)
        } else {
            LinkParams::default()
        };
        let cl = Cluster::new(ClusterParams { nodes: 2, link });
        let listener = listen(&cl.iface(NodeId(1)), 80, RdtParams::default()).unwrap();
        rt::spawn_daemon("kv-server", async move {
            let conn = listener.accept().await.unwrap();
            let store = Arc::new(Mutex::new(BTreeMap::<String, u64>::new()));
            serve(
                conn,
                SerdeCost::default(),
                move |(key, val): (String, u64)| {
                    let store = Arc::clone(&store);
                    async move {
                        // val 0 = get, otherwise put-and-return-old.
                        if val == 0 {
                            plock(&store).get(&key).copied()
                        } else {
                            plock(&store).insert(key, val)
                        }
                    }
                },
            )
            .await;
        });
        let conn = connect(&cl.iface(NodeId(0)), NodeId(1), 80, RdtParams::default())
            .await
            .unwrap();
        (RpcClient::new(conn, SerdeCost::default()), ())
    }

    #[test]
    fn calls_roundtrip() {
        let mut s = Simulation::new(4);
        s.block_on(async {
            let (client, ()) = kv_cluster(0.0).await;
            assert_eq!(client.call(&("x".into(), 0)).await.unwrap(), None);
            assert_eq!(client.call(&("x".into(), 7)).await.unwrap(), None);
            assert_eq!(client.call(&("x".into(), 0)).await.unwrap(), Some(7));
            assert_eq!(client.call(&("x".into(), 9)).await.unwrap(), Some(7));
            client.finish();
        })
        .unwrap();
    }

    #[test]
    fn concurrent_calls_correlate_correctly() {
        let mut s = Simulation::new(8);
        s.block_on(async {
            let (client, ()) = kv_cluster(0.0).await;
            // Seed the store.
            for i in 1..=8u64 {
                client.call(&(format!("k{i}"), i * 100)).await.unwrap();
            }
            // Fan out 8 concurrent readers; each must get its own key's
            // value despite sharing one connection.
            let mut handles = Vec::new();
            for i in 1..=8u64 {
                let c = client.clone();
                handles.push(rt::spawn(async move {
                    let got = c.call(&(format!("k{i}"), 0)).await.unwrap();
                    assert_eq!(got, Some(i * 100), "call {i} got someone else's answer");
                }));
            }
            for h in handles {
                h.join().await.unwrap();
            }
            client.finish();
        })
        .unwrap();
    }

    #[test]
    fn calls_survive_a_lossy_link() {
        let mut s = Simulation::new(4);
        s.block_on(async {
            let (client, ()) = kv_cluster(0.2).await;
            client.call(&("a".into(), 5)).await.unwrap();
            assert_eq!(client.call(&("a".into(), 0)).await.unwrap(), Some(5));
            client.finish();
        })
        .unwrap();
    }

    #[test]
    fn outstanding_calls_fail_cleanly_when_server_dies() {
        let mut s = Simulation::new(4);
        s.block_on(async {
            let cl = Cluster::new(ClusterParams::default());
            let listener = listen(&cl.iface(NodeId(1)), 80, RdtParams::default()).unwrap();
            rt::spawn_daemon("rude-server", async move {
                let conn = listener.accept().await.unwrap();
                // Read one request, then hang up without answering.
                let _ = conn.recv().await;
                conn.finish();
                // Conn dropped here: Fin goes out.
            });
            let conn = connect(&cl.iface(NodeId(0)), NodeId(1), 80, RdtParams::default())
                .await
                .unwrap();
            let client: RpcClient<u64, u64> = RpcClient::new(conn, SerdeCost::FREE);
            let err = client.call(&42).await.unwrap_err();
            assert_eq!(err, RpcError::Closed);
        })
        .unwrap();
    }
}
