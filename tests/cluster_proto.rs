//! Integration tests spanning the cluster substrate (`chanos-net`),
//! protocol verification (`chanos-proto`), supervision
//! (`chanos-kernel`), and the deterministic simulator.

use chanos::csp::{channel, request, Capacity, ReplyTo};
use chanos::kernel::{ChildSpec, Restart, Strategy, Supervisor};
use chanos::net::{
    connect, listen, Cluster, ClusterParams, LinkParams, NodeId, RdtParams, RpcClient, RpcError,
    SerdeCost,
};
use chanos::proto::{conforms_complete, deadlock, rpc_loop, session, Recorder, Tagged};
use chanos::sim::{self, Config, CoreId, Simulation};

/// Runs a lossy echo workload and returns the machine's trace hash.
///
/// Runs on a fresh thread so per-thread runtime state (the `choose!`
/// rotation counter, connection-id counters) starts from zero — the
/// determinism contract is "same seed, fresh runtime, same trace".
fn lossy_echo_trace(seed: u64) -> u64 {
    // chanos-lint: allow — the fresh OS thread IS the point: the test
    // needs virgin thread-local state, which no facade spawn (running
    // inside an existing runtime) can provide.
    std::thread::spawn(move || lossy_echo_trace_inner(seed))
        .join()
        .expect("no panic")
}

fn lossy_echo_trace_inner(seed: u64) -> u64 {
    let mut s = Simulation::with_config(Config {
        cores: 4,
        seed,
        ..Config::default()
    });
    s.block_on(async {
        let link = LinkParams::lossy(0.2);
        let cl = Cluster::new(ClusterParams { nodes: 2, link });
        let listener = listen(&cl.iface(NodeId(1)), 80, RdtParams::default()).unwrap();
        sim::spawn_daemon("echo", async move {
            let conn = listener.accept().await.unwrap();
            while let Ok(m) = conn.recv().await {
                if conn.send(m).await.is_err() {
                    break;
                }
            }
        });
        let conn = connect(&cl.iface(NodeId(0)), NodeId(1), 80, RdtParams::default())
            .await
            .unwrap();
        for i in 0..20u8 {
            conn.send(vec![i; 100]).await.unwrap();
            assert_eq!(conn.recv().await.unwrap(), vec![i; 100]);
        }
    })
    .unwrap();
    s.trace_hash()
}

#[test]
fn same_seed_same_trace_under_loss() {
    // Determinism survives the full transport stack, including the
    // RNG-driven loss and retransmission machinery.
    assert_eq!(lossy_echo_trace(7), lossy_echo_trace(7));
}

#[test]
fn different_seeds_diverge_under_loss() {
    assert_ne!(lossy_echo_trace(7), lossy_echo_trace(8));
}

#[test]
fn weight_ladder_cluster_vs_on_die() {
    // §2's taxonomy as one measured ratio: the same request/reply
    // work costs an order of magnitude more across the cluster
    // fabric than over on-die channels.
    let mut s = Simulation::new(8);
    let (cluster_cycles, local_cycles) = s
        .block_on(async {
            const CALLS: u64 = 50;
            let cl = Cluster::new(ClusterParams::default());
            let listener = listen(&cl.iface(NodeId(1)), 9, RdtParams::default()).unwrap();
            sim::spawn_daemon("server", async move {
                let conn = listener.accept().await.unwrap();
                chanos::net::serve(conn, SerdeCost::default(), |x: u64| async move {
                    sim::delay(100).await;
                    x + 1
                })
                .await;
            });
            let conn = connect(&cl.iface(NodeId(0)), NodeId(1), 9, RdtParams::default())
                .await
                .unwrap();
            let rpc: RpcClient<u64, u64> = RpcClient::new(conn, SerdeCost::default());
            let t0 = sim::now();
            for i in 0..CALLS {
                assert_eq!(rpc.call(&i).await.unwrap(), i + 1);
            }
            let cluster_cycles = sim::now() - t0;
            rpc.finish();

            struct Req(u64, ReplyTo<u64>);
            let (tx, rx) = channel::<Req>(Capacity::Unbounded);
            sim::spawn_daemon("local", async move {
                while let Ok(Req(x, reply)) = rx.recv().await {
                    sim::delay(100).await;
                    let _ = reply.send(x + 1).await;
                }
            });
            let t1 = sim::now();
            for i in 0..CALLS {
                let v = request(&tx, |reply| Req(i, reply)).await.unwrap();
                assert_eq!(v, i + 1);
            }
            (cluster_cycles, sim::now() - t1)
        })
        .unwrap();
    assert!(
        cluster_cycles > 5 * local_cycles,
        "cluster RPC ({cluster_cycles}) should dwarf on-die RPC ({local_cycles})"
    );
}

#[test]
fn supervised_network_service_survives_kills() {
    // An Erlang-style supervisor (§5, "aim for not failing") keeps a
    // cluster service available while a fault injector repeatedly
    // kills it; the client reconnects and finishes all its work.
    let mut s = Simulation::with_config(Config {
        cores: 8,
        seed: 3,
        ..Config::default()
    });
    let (completed, starts, kills) = s
        .block_on(async {
            const TOTAL: u64 = 120;
            let cl = Cluster::new(ClusterParams::default());
            let listener =
                std::sync::Arc::new(listen(&cl.iface(NodeId(1)), 9, RdtParams::default()).unwrap());

            // Supervised server: accepts one connection at a time and
            // serves it inline, so a kill takes the whole service down.
            let starts = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let current_task: std::sync::Arc<std::sync::Mutex<Option<sim::TaskId>>> =
                std::sync::Arc::new(std::sync::Mutex::new(None));
            let spec_starts = std::sync::Arc::clone(&starts);
            let spec_listener = std::sync::Arc::clone(&listener);
            let spec_task = std::sync::Arc::clone(&current_task);
            let spec = ChildSpec::new(Restart::Permanent, move || {
                spec_starts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let listener = std::sync::Arc::clone(&spec_listener);
                let me = std::sync::Arc::clone(&spec_task);
                chanos::rt::spawn_named_on("hash-server", CoreId(1), async move {
                    *me.lock().expect("task slot") = Some(sim::current_task());
                    loop {
                        let Ok(conn) = listener.accept().await else {
                            break;
                        };
                        chanos::net::serve(conn, SerdeCost::FREE, |x: u64| async move {
                            sim::delay(50).await;
                            x * 3
                        })
                        .await;
                    }
                })
            });
            let sup = Supervisor::new(Strategy::OneForOne)
                .intensity(100, 100_000_000)
                .child(spec);
            sup.spawn("sup", CoreId(2));

            // Fault injector: kill the live server every 300k cycles,
            // three times.
            let injector_task = std::sync::Arc::clone(&current_task);
            let kills = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let injector_kills = std::sync::Arc::clone(&kills);
            sim::spawn_daemon_on("injector", CoreId(3), async move {
                for _ in 0..3 {
                    sim::sleep(300_000).await;
                    let t = *injector_task.lock().expect("task slot");
                    if let Some(t) = t {
                        if sim::kill(t) {
                            injector_kills.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });

            // Client: reconnect whenever the connection dies.
            let iface = cl.iface(NodeId(0));
            let mut done = 0u64;
            while done < TOTAL {
                let Ok(conn) = connect(&iface, NodeId(1), 9, RdtParams::default()).await else {
                    continue; // Server mid-restart; dial again.
                };
                let rpc: RpcClient<u64, u64> = RpcClient::new(conn, SerdeCost::FREE);
                loop {
                    match rpc.call(&done).await {
                        Ok(v) => {
                            assert_eq!(v, done * 3);
                            done += 1;
                            if done == TOTAL {
                                break;
                            }
                        }
                        Err(RpcError::Closed) => break, // Reconnect.
                        Err(e) => panic!("unexpected rpc error: {e}"),
                    }
                }
            }
            (
                done,
                starts.load(std::sync::atomic::Ordering::Relaxed),
                kills.load(std::sync::atomic::Ordering::Relaxed),
            )
        })
        .unwrap();
    assert_eq!(completed, 120);
    assert!(kills >= 2, "injector should land kills, got {kills}");
    assert!(
        starts > kills,
        "supervisor must restart after each kill: starts={starts} kills={kills}"
    );
}

#[test]
fn many_monitored_sessions_conform_and_stay_deadlock_free() {
    // Sixteen concurrent monitored conversations on a 16-core
    // machine: every recorded trace conforms to the protocol, and the
    // watchdog confirms nothing.
    #[derive(Debug)]
    enum Req {
        Get(u64),
        Done,
    }
    impl Tagged for Req {
        fn tag(&self) -> &'static str {
            match self {
                Req::Get(_) => "Get",
                Req::Done => "Done",
            }
        }
    }
    #[derive(Debug)]
    enum Resp {
        Val(u64),
    }
    impl Tagged for Resp {
        fn tag(&self) -> &'static str {
            "Val"
        }
    }

    deadlock::reset();
    let proto = rpc_loop("kv", "Get", "Val", Some("Done"));
    let mut s = Simulation::with_config(Config {
        cores: 16,
        seed: 11,
        ..Config::default()
    });
    let (recorders, watch) = s
        .block_on(async move {
            let mut recorders = Vec::new();
            let mut joins = Vec::new();
            for i in 0..16u32 {
                let (mut client, server) =
                    session::<Req, Resp>(&proto, chanos::rt::Capacity::Bounded(2));
                let rec = Recorder::new();
                client.record_into(rec.clone());
                recorders.push(rec);
                sim::spawn_daemon_on(&format!("kv-{i}"), CoreId(i % 16), async move {
                    while let Ok(Req::Get(k)) = server.recv().await {
                        sim::delay(40).await;
                        if server.send(Resp::Val(k * 2)).await.is_err() {
                            break;
                        }
                    }
                });
                joins.push(sim::spawn_on(CoreId((i + 1) % 16), async move {
                    for k in 0..25u64 {
                        client.send(Req::Get(k)).await.unwrap();
                        let Resp::Val(v) = client.recv().await.unwrap();
                        assert_eq!(v, k * 2);
                    }
                    client.send(Req::Done).await.unwrap();
                    client.close().unwrap();
                }));
            }
            let watch = deadlock::watch(2_000, 100_000).await;
            for j in joins {
                j.join().await.unwrap();
            }
            (recorders, watch)
        })
        .unwrap();
    deadlock::reset();
    assert!(
        watch.confirmed.is_empty(),
        "healthy sessions flagged: {:?}",
        watch.confirmed
    );
    for rec in recorders {
        // 25 Get/Val pairs + Done = 51 events, all conforming.
        let events = rec.events();
        assert_eq!(events.len(), 51);
        conforms_complete(&rpc_loop("kv", "Get", "Val", Some("Done")), &events)
            .expect("recorded trace must conform");
    }
}
