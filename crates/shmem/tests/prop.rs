//! Randomized-property tests for the coherence directory and lock
//! invariants, driven by the simulator's deterministic PCG RNG.

use chanos_noc::Interconnect;
use chanos_shmem::{CoherenceCosts, Directory, McsLock, SimMutex, TasSpinlock, TicketLock};
use chanos_sim::{Config, CoreId, Pcg32, Simulation};

/// Directory costs are always at least the L1 hit cost, and an
/// access by the same core immediately after its own access is a
/// hit.
#[test]
fn directory_costs_bounded_below() {
    let mut g = Pcg32::new(0x10C4_0001);
    for case in 0..24 {
        let ops = g.range(1, 200);
        let ic = Interconnect::mesh_for(16);
        let costs = CoherenceCosts::default();
        let mut dir = Directory::default();
        let mut now = 0;
        for _ in 0..ops {
            let line = g.bounded(8);
            let core = g.index(16);
            let write = g.chance(0.5);
            now += 1_000_000; // Quiesce queueing to isolate transfer costs.
            let c = if write {
                dir.write(&ic, &costs, line, core, now)
            } else {
                dir.read(&ic, &costs, line, core, now)
            };
            assert!(c >= costs.l1_hit, "case {case}");
            // Immediately repeated read by the same core always hits.
            let again = dir.read(&ic, &costs, line, core, now);
            assert!(
                again == costs.l1_hit,
                "case {case}: repeat read must hit: got {again}"
            );
        }
    }
}

/// Queueing: transactions at the same instant on one line are
/// strictly increasing in cost; on distinct lines they are not
/// coupled.
#[test]
fn same_line_queues_distinct_lines_do_not() {
    let mut g = Pcg32::new(0x10C4_0002);
    for _ in 0..24 {
        let cores = g.range(2, 12) as usize;
        let ic = Interconnect::mesh_for(16);
        let costs = CoherenceCosts::default();
        let mut dir = Directory::default();
        let mut last = 0;
        for c in 0..cores {
            let cost = dir.write(&ic, &costs, 7, c, 0);
            assert!(cost > last, "later requester must queue");
            last = cost;
        }
        let mut dir2 = Directory::default();
        let solo = dir2.write(&ic, &costs, 1, 0, 0);
        let other = dir2.write(&ic, &costs, 2, 1, 0);
        // A second line is independent: no queueing premium.
        assert!(other <= solo + costs.per_hop * 30);
    }
}

/// Mutual exclusion holds for every lock type under random
/// contention patterns, and all increments survive.
#[test]
fn locks_never_lose_updates() {
    let mut g = Pcg32::new(0x10C4_0003);
    for case in 0..24 {
        let seed = g.next_u64();
        let cores = g.range(2, 6) as usize;
        let per = g.range(1, 12);
        let which = g.index(4);
        let mut s = Simulation::with_config(Config {
            cores,
            ctx_switch: 10,
            seed,
        });
        let total = s
            .block_on(async move {
                let counter = std::rc::Rc::new(std::cell::Cell::new(0u64));
                let in_cs = std::rc::Rc::new(std::cell::Cell::new(false));
                macro_rules! contend {
                    ($lock:expr, $method:ident) => {{
                        let lock = $lock;
                        let hs: Vec<_> = (0..cores)
                            .map(|c| {
                                let lock = lock.clone();
                                let counter = counter.clone();
                                let in_cs = in_cs.clone();
                                chanos_sim::spawn_on(CoreId(c as u32), async move {
                                    for _ in 0..per {
                                        let g = lock.$method().await;
                                        assert!(!in_cs.replace(true), "overlap!");
                                        let pause = chanos_sim::with_rng(|r| r.range(1, 30));
                                        chanos_sim::delay(pause).await;
                                        counter.set(counter.get() + 1);
                                        in_cs.set(false);
                                        drop(g);
                                    }
                                })
                            })
                            .collect();
                        for h in hs {
                            h.join().await.unwrap();
                        }
                    }};
                }
                match which {
                    0 => contend!(TasSpinlock::new(), lock),
                    1 => contend!(TicketLock::new(), lock),
                    2 => contend!(McsLock::new(), lock),
                    _ => contend!(SimMutex::new(()), lock),
                }
                counter.get()
            })
            .unwrap();
        assert_eq!(total, cores as u64 * per, "case {case}");
    }
}
