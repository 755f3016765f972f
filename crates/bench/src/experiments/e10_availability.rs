//! E10 — partial failure and the Erlang answer (§5).
//!
//! *"Partial failure … becomes a problem whenever there are multiple
//! nontrivial autonomous entities. … given some of the experience
//! with Erlang it may be feasible to aim for not failing as an
//! alternative."*
//!
//! A service of W worker threads serves a continuous request stream
//! while a fault injector kills random workers at rate λ. Reported:
//! request availability (successes / attempts) and worker-seconds
//! lost, with and without a supervision tree. The supervised column
//! is how the AXD301 got its nine nines \[2\].

use std::sync::{Arc, Mutex};

use chanos_csp::{channel, Capacity, ReplyTo, Sender};
use chanos_kernel::{ChildSpec, Restart, Strategy, Supervisor};
use chanos_sim::{Config, CoreId, Cycles, Simulation, TaskId};

use crate::table::{f2, Table};

const WORKERS: usize = 4;
const REQ_WORK: Cycles = 400;
const REQ_TIMEOUT: Cycles = 60_000;

struct Req {
    reply: ReplyTo<u64>,
}

fn spawn_worker(
    i: usize,
    rx: chanos_csp::Receiver<Req>,
    registry: Arc<Mutex<Vec<TaskId>>>,
) -> chanos_rt::JoinHandle<()> {
    let h = chanos_rt::spawn_named_on(
        &format!("svc-worker{i}"),
        CoreId((i % WORKERS) as u32),
        async move {
            while let Ok(Req { reply }) = rx.recv().await {
                chanos_sim::delay(REQ_WORK).await;
                let _ = reply.send(42).await;
            }
        },
    );
    registry
        .lock()
        .expect("registry")
        .push(h.task_id().expect("sim backend"));
    h
}

/// Runs the service for `duration` cycles under kill rate
/// `mean_kill_gap`; returns (attempts, successes).
fn run_service(mean_kill_gap: Cycles, duration: Cycles, supervised: bool) -> (u64, u64) {
    let mut s = Simulation::with_config(Config {
        cores: WORKERS + 2,
        ctx_switch: 20,
        ..Config::default()
    });
    let h = s.spawn_on(CoreId(WORKERS as u32), async move {
        let (tx, rx) = channel::<Req>(Capacity::Unbounded);
        let registry: Arc<Mutex<Vec<TaskId>>> = Arc::new(Mutex::new(Vec::new()));

        if supervised {
            let mut sup = Supervisor::new(Strategy::OneForOne).intensity(10_000, 1_000_000);
            for i in 0..WORKERS {
                let rx = rx.clone();
                let registry = registry.clone();
                sup = sup.child(ChildSpec::new(Restart::Permanent, move || {
                    spawn_worker(i, rx.clone(), registry.clone())
                }));
            }
            sup.spawn("svc-supervisor", CoreId(WORKERS as u32));
        } else {
            for i in 0..WORKERS {
                spawn_worker(i, rx.clone(), registry.clone());
            }
        }

        // Fault injector: kill a random live worker every ~gap.
        let reg2 = registry.clone();
        chanos_sim::spawn_daemon_on("fault-injector", CoreId((WORKERS + 1) as u32), async move {
            let mut rng = chanos_sim::with_rng(|r| r.clone());
            loop {
                let gap = rng.exp(mean_kill_gap as f64).max(1.0) as Cycles;
                chanos_sim::sleep(gap).await;
                let victim = {
                    let mut reg = reg2.lock().expect("registry");
                    reg.retain(|&t| chanos_sim::task_alive(t));
                    if reg.is_empty() {
                        continue;
                    }
                    let i = rng.index(reg.len());
                    reg[i]
                };
                chanos_sim::kill(victim);
                chanos_sim::stat_incr("e10.kills");
            }
        });

        // Open-loop client: one request every fixed period regardless
        // of completions, so downtime cannot hide by slowing the
        // attempt rate (each in-flight request is its own task).
        const PERIOD: Cycles = 2_000;
        let t_end = chanos_sim::now() + duration;
        let mut inflight = Vec::new();
        while chanos_sim::now() < t_end {
            let tx = tx.clone();
            inflight.push(chanos_sim::spawn(async move {
                request_with_timeout(&tx, REQ_TIMEOUT).await.is_some()
            }));
            chanos_sim::sleep(PERIOD).await;
        }
        let mut attempts = 0u64;
        let mut successes = 0u64;
        for h in inflight {
            attempts += 1;
            if h.join().await.unwrap_or(false) {
                successes += 1;
            }
        }
        (attempts, successes)
    });
    // The fault injector is immortal; stop when the client is done.
    s.run_until(|| h.is_finished());
    h.try_take().unwrap().unwrap()
}

async fn request_with_timeout(tx: &Sender<Req>, timeout: Cycles) -> Option<u64> {
    let (reply_to, reply) = chanos_csp::reply_channel();
    tx.send(Req { reply: reply_to }).await.ok()?;
    let mut fut = Box::pin(reply.recv());
    chanos_csp::choose! {
        r = fut.as_mut() => r.ok(),
        _ = chanos_csp::after(timeout) => None,
    }
}

/// Runs E10.
pub fn run(quick: bool) -> Vec<Table> {
    let duration: Cycles = if quick { 2_000_000 } else { 10_000_000 };
    let gaps: &[Cycles] = if quick {
        &[500_000, 100_000]
    } else {
        &[1_000_000, 300_000, 100_000, 30_000]
    };
    let mut t = Table::new(
        "E10",
        "service availability under fault injection",
        &[
            "mean kill gap (cycles)",
            "unsupervised avail %",
            "supervised avail %",
            "supervised nines",
        ],
    );
    for &gap in gaps {
        let (a1, s1) = run_service(gap, duration, false);
        let (a2, s2) = run_service(gap, duration, true);
        let unsup = 100.0 * s1 as f64 / a1.max(1) as f64;
        let sup = 100.0 * s2 as f64 / a2.max(1) as f64;
        let nines = if s2 == a2 {
            format!(">{:.1}", -((1.0 / a2.max(1) as f64).log10()))
        } else {
            format!("{:.1}", -((1.0 - sup / 100.0).log10()))
        };
        t.row(vec![gap.to_string(), f2(unsup), f2(sup), nines]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_supervision_preserves_availability() {
        let tables = super::run(true);
        let t = &tables[0];
        for row in &t.rows {
            let unsup: f64 = row[1].parse().unwrap();
            let sup: f64 = row[2].parse().unwrap();
            assert!(
                sup > unsup,
                "gap {}: supervised ({sup}%) must beat unsupervised ({unsup}%)",
                row[0]
            );
            assert!(
                sup > 99.0,
                "gap {}: supervised availability should stay high ({sup}%)",
                row[0]
            );
        }
        // Under the heaviest kill rate the unsupervised service
        // should have collapsed hard.
        let worst: f64 = t.rows.last().expect("rows")[1].parse().unwrap();
        assert!(worst < 90.0, "unsupervised should collapse: {worst}%");
    }
}
