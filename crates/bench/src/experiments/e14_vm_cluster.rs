//! E14 — "The alternative is to give up and run a thousand VMs in one
//! box; that seems undesirable" (§1), "the thoroughly unsatisfying
//! and inefficient approach of turning such a chip into a cluster of
//! hundreds of apparently separate virtual machines" (§6).
//!
//! The same 64-core box runs the same sharded-service workload two
//! ways. As **one message-passing OS**, every request is a
//! lightweight on-die channel RPC to the shard's owning thread. As a
//! **cluster of P VM partitions**, a request for a shard owned by
//! another partition must cross a virtual network: Wire-marshalling,
//! framed datagrams, go-back-N reliability, correlation-id RPC — the
//! full middleweight stack of `chanos-net`. With uniform shard
//! access, a fraction `(P-1)/P` of requests pay that stack.
//!
//! Reported per partition count: throughput, slowdown vs the single
//! OS, the remote-request fraction, and the frames the virtual
//! network moved. The paper's prediction is the shape: monotonically
//! worse as the box fragments.

use std::collections::BTreeMap;
use std::rc::Rc;

use chanos_csp::{channel, request, Capacity, ReplyTo, Sender};
use chanos_net::{
    connect, listen, Cluster, ClusterParams, LinkParams, NodeId, RdtParams, RpcClient, SerdeCost,
};
use chanos_noc::Interconnect;
use chanos_sim::{self as sim, Config, CoreId, Simulation};

use crate::table::{f2, ops_per_mcycle, Table};

const CORES: usize = 64;
/// Shards of the service (e.g. vnodes, page ranges, KV buckets).
const SHARDS: u32 = 64;
/// Per-request compute at the owning shard.
const SHARD_WORK: u64 = 150;

struct ShardReq {
    key: u32,
    reply: ReplyTo<u64>,
}

/// Spawns the shard service threads a partition owns, returning the
/// request channel per shard (indexed by shard id).
fn spawn_shards(
    partition: u32,
    partitions: u32,
    cores: &[CoreId],
) -> BTreeMap<u32, Sender<ShardReq>> {
    let mut map = BTreeMap::new();
    for (next_core, shard) in (0..SHARDS)
        .filter(|s| s % partitions == partition)
        .enumerate()
    {
        let (tx, rx) = channel::<ShardReq>(Capacity::Unbounded);
        let core = cores[next_core % cores.len()];
        sim::spawn_daemon_on(&format!("shard-{shard}"), core, async move {
            let mut hits = 0u64;
            while let Ok(req) = rx.recv().await {
                sim::delay(SHARD_WORK).await;
                hits += 1;
                let _ = req.reply.send(u64::from(req.key) + hits).await;
            }
        });
        map.insert(shard, tx);
    }
    map
}

/// One run: the box split into `partitions` VMs. Returns (ops, total
/// cycles, remote ops, frames sent).
fn run_partitioned(partitions: u32, ops_per_worker: u64, seed: u64) -> (u64, u64, u64, u64) {
    let s = Simulation::with_config(Config {
        cores: CORES,
        ctx_switch: 20,
        seed,
    });
    chanos_csp::install(&s, Interconnect::mesh_for(CORES));
    let mut s = s;
    let cores_per = CORES as u32 / partitions;
    s.block_on(async move {
        // The virtual ethernet between partitions (absent for P=1).
        let cluster = (partitions > 1).then(|| {
            Cluster::new(ClusterParams {
                nodes: partitions,
                link: LinkParams::default(),
            })
        });

        // Per partition: shard threads + an RPC server for remote
        // requests + RPC clients to every other partition.
        let mut shard_maps: Vec<Rc<BTreeMap<u32, Sender<ShardReq>>>> = Vec::new();
        for p in 0..partitions {
            let cores: Vec<CoreId> = (p * cores_per..(p + 1) * cores_per).map(CoreId).collect();
            shard_maps.push(Rc::new(spawn_shards(p, partitions, &cores)));
        }
        if let Some(cl) = &cluster {
            for p in 0..partitions {
                let listener = listen(&cl.iface(NodeId(p)), 80, RdtParams::default()).unwrap();
                let shards = Rc::clone(&shard_maps[p as usize]);
                sim::spawn_daemon(&format!("vm{p}-rpc-server"), async move {
                    while let Ok(conn) = listener.accept().await {
                        let shards = Rc::clone(&shards);
                        sim::spawn_daemon("vm-rpc-conn", async move {
                            chanos_net::serve(conn, SerdeCost::default(), move |key: u32| {
                                let shards = Rc::clone(&shards);
                                async move {
                                    let tx = shards.get(&key).expect("shard owned here");
                                    request(tx, |reply| ShardReq { key, reply })
                                        .await
                                        .unwrap_or(0)
                                }
                            })
                            .await;
                        });
                    }
                });
            }
        }

        // Dial every partition pair up front (P*(P-1) connections).
        let mut clients: Vec<BTreeMap<u32, RpcClient<u32, u64>>> = Vec::new();
        for p in 0..partitions {
            let mut m = BTreeMap::new();
            if let Some(cl) = &cluster {
                for q in 0..partitions {
                    if q == p {
                        continue;
                    }
                    let conn = connect(&cl.iface(NodeId(p)), NodeId(q), 80, RdtParams::default())
                        .await
                        .expect("virtual network connect");
                    m.insert(q, RpcClient::new(conn, SerdeCost::default()));
                }
            }
            clients.push(m);
        }

        // Workers: one per core, each issuing uniform-random shard ops.
        let t0 = sim::now();
        let mut joins = Vec::new();
        for w in 0..CORES as u32 {
            let p = w / cores_per;
            let shards = Rc::clone(&shard_maps[p as usize]);
            let remote = clients[p as usize].clone();
            joins.push(sim::spawn_on(CoreId(w), async move {
                let mut rng = sim::with_rng(|r| r.clone());
                let mut remote_ops = 0u64;
                for _ in 0..ops_per_worker {
                    let key = rng.bounded(u64::from(SHARDS)) as u32;
                    let owner = key % partitions;
                    if owner == p {
                        let tx = shards.get(&key).expect("local shard");
                        request(tx, |reply| ShardReq { key, reply }).await.unwrap();
                    } else {
                        remote_ops += 1;
                        remote[&owner].call(&key).await.expect("remote shard call");
                    }
                }
                remote_ops
            }));
        }
        let mut remote_total = 0u64;
        for j in joins {
            remote_total += j.join().await.unwrap();
        }
        let elapsed = sim::now() - t0;
        let ops = ops_per_worker * CORES as u64;
        (ops, elapsed, remote_total, sim::stat_get("net.frames_sent"))
    })
    .unwrap()
}

/// Runs E14.
pub fn run(quick: bool) -> Vec<Table> {
    let ops_per_worker: u64 = if quick { 20 } else { 80 };
    let mut t = Table::new(
        "E14",
        "one message-passing OS vs a box of VM partitions (64 cores)",
        &[
            "partitions",
            "ops",
            "Mcycles",
            "ops/Mcycle",
            "slowdown",
            "remote fraction",
            "net frames",
        ],
    );
    let mut baseline: Option<f64> = None;
    for partitions in [1u32, 2, 4, 8, 16] {
        let (ops, cycles, remote, frames) = run_partitioned(partitions, ops_per_worker, 42);
        let thr = ops as f64 * 1e6 / cycles as f64;
        let base = *baseline.get_or_insert(thr);
        t.row(vec![
            partitions.to_string(),
            ops.to_string(),
            f2(cycles as f64 / 1e6),
            ops_per_mcycle(ops, cycles),
            format!("{}x", f2(base / thr)),
            f2(remote as f64 / ops as f64),
            frames.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e14_shape_holds() {
        let t = &super::run(true)[0];
        let thr: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // The single message-passing OS beats every partitioning, and
        // fragmentation hurts more as it deepens.
        assert!(
            thr[0] > thr[1] && thr[0] > thr[4],
            "single OS should win: {thr:?}"
        );
        assert!(
            thr[0] > 3.0 * thr[4],
            "16-way fragmentation should cost at least 3x: {thr:?}"
        );
        // Remote fraction grows towards (P-1)/P.
        let remote16: f64 = t.rows[4][5].parse().unwrap();
        assert!(remote16 > 0.8, "16 partitions should see >80% remote ops");
        // The single OS sends no network frames at all.
        assert_eq!(t.rows[0][6], "0");
    }
}
