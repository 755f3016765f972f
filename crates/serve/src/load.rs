//! An open-loop load generator for the KV service.
//!
//! *Open loop* means arrivals come from a timeline, not from
//! completions: each client issues a pipelined burst every
//! [`LoadCfg::gap`] cycles whether or not earlier bursts have
//! resolved, so a slow server accumulates queueing delay in the
//! recorded latencies instead of silently throttling the offered
//! load (the classic closed-loop benchmarking mistake —
//! coordinated omission). `gap = 0` degrades to a closed loop for
//! maximum-throughput runs.
//!
//! Keys are zipf-distributed over the in-tree PCG (seeded, so both
//! backends replay the same key sequence), values are fixed-size,
//! and every burst goes out through `call_batch` — `clients × depth`
//! in-flight [`chanos_rt::Call`]s at steady state. Latencies land in
//! a [`LatencyHist`] per client and merge into the run's report.

use std::sync::Arc;

use chanos_rt::{self as rt, CallError, Cycles, Pcg32};

use crate::hist::LatencyHist;
use crate::kv::KvClient;

/// A zipf(θ) sampler over ranks `0..n` (rank 0 most popular),
/// sampled by binary search over the precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` keys with skew `theta` (0 = uniform;
    /// 0.99 is the YCSB default).
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Pcg32) -> u64 {
        let u = f64::from(rng.next_u32()) / (f64::from(u32::MAX) + 1.0);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Configuration for [`run_kv_load`].
#[derive(Debug, Clone)]
pub struct LoadCfg {
    /// Key-space size.
    pub keys: usize,
    /// Zipf skew (0.99 = YCSB-style hot set).
    pub theta: f64,
    /// Value size for SETs, bytes.
    pub val_len: usize,
    /// Concurrent client tasks.
    pub clients: usize,
    /// Calls pipelined per client burst.
    pub depth: usize,
    /// Bursts per client.
    pub rounds: usize,
    /// SET fraction in percent (rest are GETs).
    pub set_percent: u32,
    /// Open-loop inter-burst gap per client, in cycles (≈ns on
    /// threads); 0 = closed loop.
    pub gap: Cycles,
    /// PRNG seed; client `i` uses stream `i`, so runs replay.
    pub seed: u64,
}

impl Default for LoadCfg {
    fn default() -> Self {
        LoadCfg {
            keys: 10_000,
            theta: 0.99,
            val_len: 64,
            clients: 4,
            depth: 32,
            rounds: 50,
            set_percent: 10,
            gap: 0,
            seed: 0x5EED,
        }
    }
}

/// What a load run measured.
pub struct LoadReport {
    /// Per-call latency, burst issue → completion, in cycles.
    pub hist: LatencyHist,
    /// Calls that resolved with a value.
    pub completed: u64,
    /// Calls that failed at the transport layer.
    pub errors: u64,
    /// Wall/virtual cycles the whole run took.
    pub elapsed: Cycles,
}

impl LoadReport {
    /// Completed operations per second (cycles ≈ ns on threads).
    pub fn goodput(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.elapsed as f64 * 1e-9)
    }
}

/// Runs the configured open-loop workload against `kv` and merges
/// every client's measurements.
pub async fn run_kv_load(kv: &KvClient, cfg: LoadCfg) -> LoadReport {
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.theta));
    let t0 = rt::now();
    let mut clients = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let kv = kv.clone();
        let cfg = cfg.clone();
        let zipf = zipf.clone();
        // Clients inherit the caller's priority class, so a load run
        // driven from a High task measures the high lane end to end
        // (`examples/kv_server.rs` drives its overload run this way).
        clients.push(rt::spawn_named_with_priority(
            &format!("load-client{c}"),
            rt::current_priority(),
            client_loop(kv, cfg, zipf, c as u64),
        ));
    }
    let mut hist = LatencyHist::new();
    let (mut completed, mut errors) = (0u64, 0u64);
    for h in clients {
        let (ch, cc, ce) = h.join().await.expect("load client survives");
        hist.merge(&ch);
        completed += cc;
        errors += ce;
    }
    rt::stat_add("serve.load_ops", completed);
    rt::stat_add("serve.load_errors", errors);
    LoadReport {
        hist,
        completed,
        errors,
        elapsed: rt::now() - t0,
    }
}

async fn client_loop(
    kv: KvClient,
    cfg: LoadCfg,
    zipf: Arc<Zipf>,
    client: u64,
) -> (LatencyHist, u64, u64) {
    let mut rng = Pcg32::with_stream(cfg.seed, client + 1);
    let mut hist = LatencyHist::new();
    let (mut completed, mut errors) = (0u64, 0u64);
    let mut next_due = rt::now();
    for _ in 0..cfg.rounds {
        if cfg.gap > 0 {
            let now = rt::now();
            if next_due > now {
                rt::sleep(next_due - now).await;
            }
            // Schedule from the timeline, not from this burst's
            // completion: lateness carries into the next burst's
            // recorded latency instead of shrinking offered load.
            next_due += cfg.gap;
        }
        let mut get_keys = Vec::with_capacity(cfg.depth);
        let mut set_pairs = Vec::new();
        for _ in 0..cfg.depth {
            let key = zipf.sample(&mut rng);
            if rng.bounded(100) < u64::from(cfg.set_percent) {
                set_pairs.push((key, vec![client as u8; cfg.val_len]));
            } else {
                get_keys.push(key);
            }
        }
        let issued = rt::now();
        let gets = kv.get_many(&get_keys);
        let sets = kv.set_many(set_pairs);
        for call in gets {
            record(
                &mut hist,
                issued,
                call.await.map(|_| ()),
                &mut completed,
                &mut errors,
            );
        }
        for call in sets {
            record(
                &mut hist,
                issued,
                call.await.map(|_| ()),
                &mut completed,
                &mut errors,
            );
        }
    }
    (hist, completed, errors)
}

fn record(
    hist: &mut LatencyHist,
    issued: Cycles,
    res: Result<(), CallError>,
    completed: &mut u64,
    errors: &mut u64,
) {
    hist.record(rt::now() - issued);
    match res {
        Ok(()) => *completed += 1,
        Err(_) => *errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{spawn_kv, KvCfg};
    use chanos_sim::{Config, Simulation};

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let z = Zipf::new(1000, 0.99);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Pcg32::new(42);
        let mut hot = 0u32;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                hot += 1;
            }
        }
        // Top-1% of ranks should carry far more than 1% of draws.
        assert!(hot > 2000, "only {hot}/10000 draws hit the hot set");
    }

    #[test]
    fn load_run_reports_all_operations_on_sim() {
        let report = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        })
        .block_on(async {
            let kv = spawn_kv(KvCfg::default());
            run_kv_load(
                &kv,
                LoadCfg {
                    clients: 2,
                    depth: 8,
                    rounds: 5,
                    gap: 10_000,
                    ..LoadCfg::default()
                },
            )
            .await
        })
        .unwrap();
        assert_eq!(report.completed + report.errors, 2 * 8 * 5);
        assert_eq!(report.errors, 0);
        assert_eq!(report.hist.count(), 2 * 8 * 5);
        assert!(report.hist.p999() >= report.hist.p50());
        assert!(report.goodput() > 0.0);
    }

    #[test]
    fn load_replays_identically_for_a_fixed_seed() {
        let run = || {
            Simulation::with_config(Config {
                cores: 4,
                ..Config::default()
            })
            .block_on(async {
                let kv = spawn_kv(KvCfg::default());
                let r = run_kv_load(
                    &kv,
                    LoadCfg {
                        clients: 2,
                        depth: 8,
                        rounds: 4,
                        ..LoadCfg::default()
                    },
                )
                .await;
                (r.completed, r.elapsed, r.hist.p50(), r.hist.p999())
            })
            .unwrap()
        };
        assert_eq!(run(), run(), "sim load run is not deterministic");
    }
}
