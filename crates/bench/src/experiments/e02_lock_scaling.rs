//! E2 — "Conventional thread programming using locks and shared
//! memory does not scale to hundreds of cores" (§1).
//!
//! The headline experiment. Every core increments a shared counter
//! with think time between operations, through six designs:
//!
//! * shared atomic `fetch_add`;
//! * TAS spinlock, ticket lock, MCS lock around a plain counter;
//! * a *counter server thread* receiving increment messages (the
//!   paper's design);
//! * per-core counters merged at the end (the shared-memory escape
//!   hatch that changes the programming model).
//!
//! Expected shape: lock and atomic throughput collapses as the
//! coherence directory serializes growing invalidation storms; the
//! message server saturates at its service rate and stays flat; the
//! sharded design scales linearly.

use chanos_csp::{channel, Capacity};
use chanos_shmem::{McsLock, SimAtomicU64, TasSpinlock, TicketLock};
use chanos_sim::{delay, Config, CoreId, Simulation};

use crate::table::{ops_per_mcycle, Table};

const THINK: u64 = 400;
/// Work done while holding the lock (updating the protected data:
/// its cache lines must be fetched and written too). The message
/// server pays the same per-increment work, so the comparison is
/// about coordination, not the update itself.
const CS: u64 = 250;
const SEED: u64 = 0x2011;

fn sim(cores: usize) -> Simulation {
    Simulation::with_config(Config {
        cores,
        ctx_switch: 20,
        seed: SEED,
    })
}

fn elapsed_of(mut s: Simulation, total_ops: u64) -> String {
    let out = s.run_until_idle();
    assert!(
        matches!(out.end, chanos_sim::RunEnd::Completed),
        "run must complete: {:?}",
        out.end
    );
    ops_per_mcycle(total_ops, out.now)
}

fn atomic_run(cores: usize, per: u64) -> String {
    let mut s = sim(cores);
    let a = s.block_on(async { SimAtomicU64::new(0) }).unwrap();
    for c in 0..cores {
        let a = a.clone();
        s.spawn_on(CoreId(c as u32), async move {
            for _ in 0..per {
                a.fetch_add(1).await;
                delay(THINK).await;
            }
        });
    }
    let total = cores as u64 * per;

    elapsed_of(s, total)
}

macro_rules! lock_run {
    ($name:ident, $lock:ty) => {
        fn $name(cores: usize, per: u64) -> String {
            let mut s = sim(cores);
            let lock = s.block_on(async { <$lock>::new() }).unwrap();
            let counter = std::rc::Rc::new(std::cell::Cell::new(0u64));
            for c in 0..cores {
                let lock = lock.clone();
                let counter = counter.clone();
                s.spawn_on(CoreId(c as u32), async move {
                    for _ in 0..per {
                        let g = lock.lock().await;
                        // The protected update is real work; see CS.
                        delay(CS).await;
                        counter.set(counter.get() + 1);
                        drop(g);
                        delay(THINK).await;
                    }
                });
            }
            let total = cores as u64 * per;
            elapsed_of(s, total)
        }
    };
}

lock_run!(tas_run, TasSpinlock);
lock_run!(ticket_run, TicketLock);
lock_run!(mcs_run, McsLock);

fn server_run(cores: usize, per: u64) -> String {
    let mut s = sim(cores);
    let tx = s
        .block_on(async {
            let (tx, rx) = channel::<u64>(Capacity::Bounded(256));
            chanos_sim::spawn_daemon_on("counter-server", CoreId(0), async move {
                let mut count = 0u64;
                while let Ok(v) = rx.recv().await {
                    delay(CS).await;
                    count += v;
                }
                chanos_sim::stat_add("e2.server_count", count);
            });
            tx
        })
        .unwrap();
    // Clients on cores 1..; core 0 is the server's (shared when the
    // machine has only one core).
    let clients = cores.saturating_sub(1).max(1);
    for c in 0..clients {
        let tx = tx.clone();
        let client_core = if cores == 1 { 0 } else { 1 + c % (cores - 1) };
        s.spawn_on(CoreId(client_core as u32), async move {
            for _ in 0..per {
                tx.send(1).await.unwrap();
                delay(THINK).await;
            }
        });
    }
    let total = clients as u64 * per;
    elapsed_of(s, total)
}

fn sharded_run(cores: usize, per: u64) -> String {
    let mut s = sim(cores);
    let counters = s
        .block_on(async move { (0..cores).map(|_| SimAtomicU64::new(0)).collect::<Vec<_>>() })
        .unwrap();
    for (c, counter) in counters.into_iter().enumerate() {
        s.spawn_on(CoreId(c as u32), async move {
            for _ in 0..per {
                counter.fetch_add(1).await;
                delay(THINK).await;
            }
        });
    }
    let total = cores as u64 * per;
    elapsed_of(s, total)
}

/// Runs E2.
pub fn run(quick: bool) -> Vec<Table> {
    let core_counts: &[usize] = if quick {
        &[2, 8, 32, 128]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    };
    let mut t = Table::new(
        "E2",
        "shared counter throughput (ops/Mcycle) vs cores",
        &[
            "cores",
            "atomic",
            "tas",
            "ticket",
            "mcs",
            "msg server",
            "per-core",
        ],
    );
    for &n in core_counts {
        // Throughput is a rate; fewer ops per core at huge core
        // counts keeps the event count (and host time) bounded
        // without changing the steady-state measurement.
        let per: u64 = if quick {
            20
        } else if n >= 256 {
            10
        } else {
            50
        };
        t.row(vec![
            n.to_string(),
            atomic_run(n, per),
            tas_run(n, per),
            ticket_run(n, per),
            mcs_run(n, per),
            server_run(n, per),
            sharded_run(n, per),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e2_locks_collapse_messages_hold() {
        let tables = super::run(true);
        let t = &tables[0];
        let get = |row: usize, col: usize| -> f64 { t.rows[row][col].parse().unwrap() };
        let last = t.rows.len() - 1;
        // TAS at 128 cores must be far below its 8-core throughput
        // (collapse), while the message server holds within 3x.
        let tas_small = get(1, 2);
        let tas_big = get(last, 2);
        assert!(
            tas_big < tas_small * 0.8,
            "TAS should degrade with cores: {tas_small} -> {tas_big}"
        );
        let srv_small = get(1, 5);
        let srv_big = get(last, 5);
        assert!(
            srv_big * 3.0 > srv_small,
            "server throughput should not collapse: {srv_small} -> {srv_big}"
        );
        // Per-core sharding scales: 128 cores beat 8 cores.
        let shard_small = get(1, 6);
        let shard_big = get(last, 6);
        assert!(shard_big > shard_small * 2.0);
    }
}
