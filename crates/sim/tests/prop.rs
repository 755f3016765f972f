//! Randomized-property tests for the simulator's data structures and
//! determinism guarantees, driven by the crate's own deterministic
//! PCG RNG (no external property-testing framework is available).

use chanos_sim::{delay, sleep, yield_now, Config, CoreId, Pcg32, Simulation, Slab};

const CASES: u64 = 32;

/// Slab keys stay valid across arbitrary insert/remove sequences
/// (model-checked against a HashMap).
#[test]
fn slab_matches_hashmap_model() {
    let mut g = Pcg32::new(0x5EED_0002);
    for case in 0..CASES {
        let ops = g.range(1, 200);
        let mut slab = Slab::new();
        let mut model: std::collections::HashMap<usize, u16> = std::collections::HashMap::new();
        let mut keys: Vec<usize> = Vec::new();
        for _ in 0..ops {
            let op = g.bounded(2);
            let val = g.bounded(64) as u16;
            if op == 0 || keys.is_empty() {
                let k = slab.insert(val);
                assert!(
                    !model.contains_key(&k),
                    "case {case}: slab reused a live key"
                );
                model.insert(k, val);
                keys.push(k);
            } else {
                let idx = (val as usize) % keys.len();
                let k = keys.swap_remove(idx);
                assert_eq!(slab.remove(k), model.remove(&k), "case {case}");
            }
        }
        assert_eq!(slab.len(), model.len());
        for (&k, &v) in &model {
            assert_eq!(slab.get(k), Some(&v), "case {case}");
        }
    }
}

/// PCG bounded sampling is always in range.
#[test]
fn pcg_bounded_in_range() {
    let mut g = Pcg32::new(0x5EED_0003);
    for _ in 0..CASES {
        let seed = g.next_u64();
        let bound = g.range(1, 1_000_000);
        let mut rng = Pcg32::new(seed);
        for _ in 0..50 {
            assert!(rng.bounded(bound) < bound);
        }
    }
}

/// Identical seeds give identical traces for a randomized task mix;
/// the simulation always terminates.
#[test]
fn runs_are_deterministic() {
    let mut g = Pcg32::new(0x5EED_0004);
    for _ in 0..12 {
        let seed = g.next_u64();
        let tasks = g.range(1, 20) as usize;
        let run = |seed: u64| {
            let mut s = Simulation::with_config(Config {
                cores: 4,
                ctx_switch: 7,
                seed,
            });
            for i in 0..tasks {
                s.spawn_on(CoreId((i % 4) as u32), async move {
                    let jitter = chanos_sim::with_rng(|r| r.range(1, 100));
                    delay(jitter).await;
                    yield_now().await;
                    sleep(jitter / 2 + 1).await;
                });
            }
            let out = s.run_until_idle();
            assert!(matches!(out.end, chanos_sim::RunEnd::Completed));
            (out.now, s.trace_hash())
        };
        assert_eq!(run(seed), run(seed));
    }
}
