//! Runs a workload on the modeled machine: one *segment* builds a
//! fresh `Simulation`, sets the workload up (timed on the host clock),
//! warms up, measures, and reads the public counters around the
//! measured phase. A run pools several segments.
//!
//! The machine is 16 cores on the default mesh with the program's
//! default cost tables; nothing here overrides a cost constant.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chanos_rt::CoreId;
use chanos_serve::Zipf;
use chanos_sim::{Config, Simulation};

use crate::drive::{mix, ClientRec, Ctl, Span, Stop, DRAIN_LIMIT_MODELED};
use crate::hist::ExactHist;
use crate::workloads::{self, Kind, Layout, Load, Sizes};

pub type Counters = BTreeMap<String, u64>;

#[derive(Clone)]
pub struct SegmentCfg {
    pub kind: Kind,
    pub layout: Layout,
    pub sizes: Sizes,
    pub seed: u64,
    pub stop: Stop,
    pub tracing: bool,
    /// Open loop only; see [`Load::mean_gap`].
    pub mean_gap: Option<f64>,
}

/// The per-client mean gap, in cycles, that offers `rate` requests per
/// modeled second in total.
pub fn gap_for_rate(layout: &Layout, rate: f64) -> f64 {
    layout.clients as f64 * 1e9 / rate
}

pub struct SegmentOut {
    pub rec: ClientRec,
    pub setup_host: Duration,
    pub measure_host: Duration,
    /// Modeled cycles of the measured phase.
    pub cycles: u64,
    /// Counter increments during the measured phase.
    pub counters: Counters,
    /// Busy cycles per CPU core during the measured phase.
    pub busy: Vec<f64>,
}

/// A 16-core (or `cores`-core) machine whose unpinned service tasks are
/// placed by name: KV shard `s` on core `s`, the file server on core 2;
/// every other unpinned task inherits its spawner's core, as without a
/// placer.
pub fn machine(cores: usize, service: usize, seed: u64) -> Simulation {
    let sim = Simulation::with_config(Config {
        cores,
        seed,
        ..Config::default()
    });
    let mut next = 0usize;
    sim.set_placer(Box::new(move |info, _rng, real_cores| {
        if let Some(s) = info.name.strip_prefix("kv-shard") {
            let s: usize = s.parse().expect("kv shard index");
            return CoreId((s % service) as u32);
        }
        if info.name == "file-server" {
            return CoreId(2);
        }
        match info.parent {
            Some(p) if p.index() < real_cores => p,
            _ => {
                next += 1;
                CoreId(((next - 1) % real_cores) as u32)
            }
        }
    }));
    sim
}

fn snapshot(sim: &Simulation) -> (Counters, Vec<f64>) {
    let now = sim.now();
    let counters = sim
        .stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let busy = sim
        .core_utilization()
        .into_iter()
        .map(|u| u * now.max(1) as f64)
        .collect();
    (counters, busy)
}

pub fn run_segment(cfg: &SegmentCfg, zipf: &Arc<Zipf>) -> SegmentOut {
    let t_setup = Instant::now();
    let mut sim = machine(cfg.layout.cores, cfg.layout.service, cfg.seed);
    let dev = if cfg.kind == Kind::FileGet {
        sim.add_device_core()
    } else {
        CoreId(0)
    };
    let world = sim
        .block_on(workloads::setup(cfg.kind, cfg.layout, cfg.sizes, dev))
        .expect("set-up completes");
    let setup_host = t_setup.elapsed();

    let ctl = Ctl::new(
        workloads::warm_ops(cfg.kind, &cfg.layout),
        cfg.stop,
        cfg.tracing,
        DRAIN_LIMIT_MODELED,
    );
    let load = Load {
        kind: cfg.kind,
        layout: cfg.layout,
        ctl: ctl.clone(),
        zipf: zipf.clone(),
        seed: cfg.seed,
        mean_gap: cfg.mean_gap,
    };
    let h = sim.spawn_on(CoreId(0), workloads::run(world, load));
    sim.run_until(|| ctl.is_warm() || h.is_finished());
    assert!(ctl.is_warm(), "workload ended during warm-up");
    let (c0, b0) = snapshot(&sim);
    let outcome = sim.run_until(|| h.is_finished());
    let measure_host = ctl.host_warm().elapsed();
    let (c1, b1) = snapshot(&sim);
    let rec = h
        .try_take()
        .unwrap_or_else(|| panic!("workload did not finish: {outcome:?}"))
        .expect("workload task survives");

    let counters = c1
        .into_iter()
        .map(|(k, v)| {
            let before = c0.get(&k).copied().unwrap_or(0);
            (k, v - before)
        })
        .collect();
    let busy = b1.iter().zip(&b0).map(|(a, b)| a - b).collect();
    SegmentOut {
        cycles: rec.t_end - ctl.t_warm(),
        rec,
        setup_host,
        measure_host,
        counters,
        busy,
    }
}

/// Several segments of one workload, pooled.
#[derive(Default)]
pub struct Pooled {
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub cycles: u64,
    pub lat: ExactHist,
    pub late: ExactHist,
    pub segments: u64,
    pub setup_s: Vec<f64>,
    pub measure_host_s: f64,
    pub counters: Counters,
    pub busy: Vec<f64>,
    pub spans: Vec<Span>,
}

impl Pooled {
    pub fn add(&mut self, seg: SegmentOut) {
        self.segments += 1;
        self.ops += seg.rec.ops;
        self.attempted += seg.rec.attempted;
        self.failed += seg.rec.failed;
        self.cycles += seg.cycles;
        self.lat.merge(&seg.rec.lat);
        self.late.merge(&seg.rec.late);
        self.setup_s.push(seg.setup_host.as_secs_f64());
        self.measure_host_s += seg.measure_host.as_secs_f64();
        for (k, v) in seg.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        if self.busy.len() < seg.busy.len() {
            self.busy.resize(seg.busy.len(), 0.0);
        }
        for (a, b) in self.busy.iter_mut().zip(&seg.busy) {
            *a += b;
        }
        self.spans.extend(seg.rec.spans);
    }

    /// Verified operations per modeled second (1 cycle = 1 ns).
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.cycles.max(1) as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.lat.quantile(q) / 1000.0
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn per_op(&self, name: &str) -> f64 {
        self.counter(name) / self.ops.max(1) as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs segments of one workload — segment `i` seeded from (`seed`,
/// `i`) — and pools them: at least `min_segments`, then more until
/// `fill` of host time has passed since the first began.
///
/// A segment measures a fixed number of operations (`base.stop`), so
/// what it measures is a function of its seed alone; host speed only
/// decides how many segments fit. (Segments that measured for a share
/// of host time read differently on a faster host: `sys_files`' p50
/// falls 4 % per doubling of a segment's length, as its processes
/// bunch up behind slow operations over the first 10^5 of them.)
pub fn run_pooled(
    base: &SegmentCfg,
    zipf: &Arc<Zipf>,
    seed: u64,
    min_segments: u64,
    fill: Duration,
) -> Pooled {
    let started = Instant::now();
    let mut pooled = Pooled::default();
    let mut seg = 0;
    while seg < min_segments || started.elapsed() < fill {
        let cfg = SegmentCfg {
            seed: mix(seed, seg),
            ..base.clone()
        };
        pooled.add(run_segment(&cfg, zipf));
        seg += 1;
    }
    pooled
}

/// The standard configuration of a workload on the base machine.
pub fn base_cfg(kind: Kind, sizes: Sizes, stop: Stop, tracing: bool) -> SegmentCfg {
    let layout = Layout::base(kind);
    let rate = workloads::KV_SINGLE_CALL_SATURATION * workloads::KV_OPEN_LOAD;
    SegmentCfg {
        kind,
        layout,
        sizes,
        seed: 0,
        stop,
        tracing,
        mean_gap: (kind == Kind::KvOpen).then(|| gap_for_rate(&layout, rate)),
    }
}

pub fn zipf_for(kind: Kind, sizes: Sizes) -> Arc<Zipf> {
    Arc::new(Zipf::new(sizes.items(kind), workloads::ZIPF_THETA))
}
