//! Randomized-property tests for channel invariants: whatever the
//! interleaving, messages are neither lost nor duplicated, and FIFO
//! order holds per sender. Driven by the simulator's deterministic
//! PCG RNG (no external property-testing framework is available).

use chanos_csp::{channel, Capacity};
use chanos_sim::{Config, CoreId, Pcg32, Simulation};

fn run_exchange(
    seed: u64,
    cap: Capacity,
    producers: usize,
    consumers: usize,
    per_producer: usize,
) -> Vec<u64> {
    let mut s = Simulation::with_config(Config {
        cores: 8,
        ctx_switch: 10,
        seed,
    });
    s.block_on(async move {
        let (tx, rx) = channel::<u64>(cap);
        let consumers: Vec<_> = (0..consumers)
            .map(|c| {
                let rx = rx.clone();
                chanos_sim::spawn_on(CoreId((c % 4) as u32), async move {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv().await {
                        got.push(v);
                        // Random pacing to vary interleavings.
                        let pause = chanos_sim::with_rng(|r| r.range(0, 40));
                        if pause > 0 {
                            chanos_sim::sleep(pause).await;
                        }
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..producers)
            .map(|p| {
                let tx = tx.clone();
                chanos_sim::spawn_on(CoreId((4 + p % 4) as u32), async move {
                    for i in 0..per_producer {
                        let v = (p as u64) << 32 | i as u64;
                        tx.send(v).await.unwrap();
                        let pause = chanos_sim::with_rng(|r| r.range(0, 25));
                        if pause > 0 {
                            chanos_sim::sleep(pause).await;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().await.unwrap();
        }
        let mut all = Vec::new();
        for c in consumers {
            all.extend(c.join().await.unwrap());
        }
        all
    })
    .unwrap()
}

fn want(producers: usize, per: usize) -> Vec<u64> {
    let mut v: Vec<u64> = (0..producers)
        .flat_map(|p| (0..per).map(move |i| (p as u64) << 32 | i as u64))
        .collect();
    v.sort_unstable();
    v
}

/// Unbounded MPMC: the received multiset equals the sent multiset.
#[test]
fn no_loss_no_duplication_unbounded() {
    let mut g = Pcg32::new(0xCA5E_0001);
    for case in 0..24 {
        let seed = g.next_u64();
        let producers = g.range(1, 4) as usize;
        let consumers = g.range(1, 4) as usize;
        let per = g.range(1, 30) as usize;
        let mut got = run_exchange(seed, Capacity::Unbounded, producers, consumers, per);
        got.sort_unstable();
        assert_eq!(got, want(producers, per), "case {case}");
    }
}

/// Bounded channels under backpressure: same invariant.
#[test]
fn no_loss_no_duplication_bounded() {
    let mut g = Pcg32::new(0xCA5E_0002);
    for case in 0..24 {
        let seed = g.next_u64();
        let depth = g.range(1, 5) as usize;
        let producers = g.range(1, 4) as usize;
        let per = g.range(1, 25) as usize;
        let mut got = run_exchange(seed, Capacity::Bounded(depth), producers, 2, per);
        got.sort_unstable();
        assert_eq!(got, want(producers, per), "case {case}");
    }
}

/// Rendezvous channels: same invariant (every handoff paired).
#[test]
fn no_loss_no_duplication_rendezvous() {
    let mut g = Pcg32::new(0xCA5E_0003);
    for case in 0..24 {
        let seed = g.next_u64();
        let producers = g.range(1, 3) as usize;
        let per = g.range(1, 15) as usize;
        let mut got = run_exchange(seed, Capacity::Rendezvous, producers, 2, per);
        got.sort_unstable();
        assert_eq!(got, want(producers, per), "case {case}");
    }
}

/// With one consumer, per-producer FIFO order is preserved.
#[test]
fn per_sender_fifo() {
    let mut g = Pcg32::new(0xCA5E_0004);
    for case in 0..24 {
        let seed = g.next_u64();
        let producers = g.range(1, 4) as usize;
        let per = g.range(2, 25) as usize;
        let got = run_exchange(seed, Capacity::Unbounded, producers, 1, per);
        for p in 0..producers as u64 {
            let seq: Vec<u64> = got
                .iter()
                .filter(|&&v| v >> 32 == p)
                .map(|&v| v & 0xFFFF_FFFF)
                .collect();
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            assert_eq!(seq, sorted, "case {case}: producer {p} out of order");
        }
    }
}
