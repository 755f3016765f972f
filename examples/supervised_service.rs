//! "Aim for not failing": an Erlang-style supervised service under
//! fault injection (§5; the AXD301's nine nines [2]).
//!
//! Four worker threads serve requests; a fault injector kills one
//! every ~150k cycles; a one-for-one supervisor restarts them. The
//! service keeps answering.
//!
//! ```text
//! cargo run --example supervised_service
//! ```

use std::sync::{Arc, Mutex};

use chanos::kernel::{ChildSpec, Restart, Strategy, Supervisor};
use chanos::rt::{port_channel, Capacity, Port, ReplyTo};
use chanos::sim::{CoreId, Cycles, Simulation, TaskId};

struct Req {
    n: u64,
    reply: ReplyTo<u64>,
}

const WORKERS: usize = 4;
const RUN_FOR: Cycles = 5_000_000;
const KILL_GAP: Cycles = 150_000;

fn main() {
    let mut machine = Simulation::new(WORKERS + 2);
    let (attempts, successes) = machine
        .block_on(async {
            let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
            let registry: Arc<Mutex<Vec<TaskId>>> = Arc::new(Mutex::new(Vec::new()));

            // The supervised worker pool.
            let mut sup = Supervisor::new(Strategy::OneForOne).intensity(100_000, 1_000_000);
            for i in 0..WORKERS {
                let rx = rx.clone();
                let registry = registry.clone();
                sup = sup.child(ChildSpec::new(Restart::Permanent, move || {
                    let rx = rx.clone();
                    let registry = registry.clone();
                    let h = chanos::rt::spawn_named_on(
                        &format!("worker{i}"),
                        CoreId((i % WORKERS) as u32),
                        async move {
                            while let Ok(Req { n, reply }) = rx.recv().await {
                                chanos::sim::delay(500).await;
                                let _ = reply.send(n * 2).await;
                            }
                        },
                    );
                    registry
                        .lock()
                        .expect("registry")
                        .push(h.task_id().expect("sim backend"));
                    h
                }));
            }
            sup.spawn("pool-supervisor", CoreId(WORKERS as u32));

            // Chaos monkey.
            let reg = registry.clone();
            chanos::sim::spawn_daemon_on("chaos", CoreId(WORKERS as u32), async move {
                let mut rng = chanos::sim::with_rng(|r| r.clone());
                loop {
                    let gap = rng.exp(KILL_GAP as f64).max(1.0) as Cycles;
                    chanos::sim::sleep(gap).await;
                    let victim = {
                        let mut v = reg.lock().expect("registry");
                        v.retain(|&t| chanos::sim::task_alive(t));
                        if v.is_empty() {
                            continue;
                        }
                        v[rng.index(v.len())]
                    };
                    chanos::sim::kill(victim);
                    chanos::sim::stat_incr("chaos.kills");
                }
            });

            // Client load.
            let t_end = chanos::sim::now() + RUN_FOR;
            let mut attempts = 0u64;
            let mut successes = 0u64;
            while chanos::sim::now() < t_end {
                attempts += 1;
                if call(&port, attempts).await == Some(attempts * 2) {
                    successes += 1;
                }
                chanos::sim::sleep(300).await;
            }
            (attempts, successes)
        })
        .unwrap();

    let stats = machine.stats();
    let availability = 100.0 * successes as f64 / attempts as f64;
    println!(
        "supervised service: {successes}/{attempts} requests ok ({availability:.3}% availability)"
    );
    println!(
        "workers killed: {}, restarts performed: {}",
        stats.counter("chaos.kills"),
        stats.counter("supervisor.restarts"),
    );
    assert!(
        availability > 99.0,
        "supervision should keep the service up"
    );
}

async fn call(port: &Port<Req>, n: u64) -> Option<u64> {
    // The deadline lives inside the call itself: a timed-out call
    // resolves `CallError::TimedOut` from its own poll (counted as
    // `port.calls_timed_out`), and the dropped reply endpoint makes
    // a late answer from a dying worker fail cleanly — no
    // `choose!`+`after` scaffolding, no leaked reply channel.
    port.call_timeout(50_000, move |reply| Req { n, reply })
        .await
        .ok()
}
