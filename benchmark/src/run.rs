//! One benchmark run: the untraced run that yields the end-to-end
//! metrics, the traced run that yields every per-layer metric, and
//! the `check` that both are deterministic where they claim to be.

use std::time::Duration;

use crate::drive::Stop;
use crate::json::{number, quote};
use crate::ladder::{self, Rungs};
use crate::layers::{self, Values};
use crate::machine::{base_cfg, gap_for_rate, median, run_pooled, zipf_for, Pooled, SegmentCfg};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::threads;
use crate::workloads::{Kind, Layout, Sizes, KV_SINGLE_CALL_SATURATION};

/// Fewest segments of an untraced run: ten set-ups to take `setup_s`'s
/// median over, ten seeds pooled into every modeled number. Sized
/// (`Plan::segment_ops`) so that ten take ~17 s on the box the
/// benchmark was defined on; more are added until `--seconds` is up.
pub const SEGMENTS: u64 = 10;
/// Fewest segments of the traced run's main workload, which gets half
/// of `--seconds`; the rest of the traced run is fixed-size work.
const TRACED_SEGMENTS: u64 = 2;
/// Share of the saturation rate at each sweep point.
const SWEEP: [(u32, &str); 4] = [
    (25, "load.p99_us_at_25"),
    (50, "load.p99_us_at_50"),
    (75, "load.p99_us_at_75"),
    (90, "load.p99_us_at_90"),
];
/// The latency limit of `load.max_rate_under_limit`: 4x the p99 read at
/// 25 % of saturation when this benchmark was defined (0.883 us).
pub const KV_OPEN_P99_LIMIT_US: f64 = 4.0 * 0.883;

/// How big a run is: the benchmark itself, or a quick version for
/// debug-build unit tests.
#[derive(Clone, Copy)]
pub struct Plan {
    pub sizes: Sizes,
    /// Divides the fixed operation counts.
    pub ops_div: u64,
    /// Fewest segments of an untraced run.
    pub min_segments: u64,
    /// Run the real-threads leg (needs this program as a child).
    pub threads_leg: bool,
}

impl Plan {
    pub fn full() -> Plan {
        Plan {
            sizes: Sizes::full(),
            ops_div: 1,
            min_segments: SEGMENTS,
            threads_leg: true,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Plan {
        Plan {
            sizes: Sizes::tiny(),
            ops_div: 40,
            min_segments: 2,
            threads_leg: false,
        }
    }

    /// Measured operations of one segment: ~1.5 s of host time each
    /// on the box the benchmark was defined on.
    pub fn segment_ops(&self, kind: Kind) -> u64 {
        let full = match kind {
            Kind::KvOpen => 600_000,
            Kind::KvSat => 1_100_000,
            Kind::SysFiles => 25_000,
            Kind::FileGet => 20_000,
        };
        full / self.ops_div
    }

    /// Measured operations of the short paired runs (traced against
    /// untraced, 64 cores against 16).
    pub fn fixed_ops(&self, kind: Kind) -> u64 {
        self.segment_ops(kind) / 3
    }

    fn segment_stop(&self, kind: Kind) -> Stop {
        Stop::Ops(self.segment_ops(kind))
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line of the contract.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!("{} {} {}", m.name, number(m.value), m.unit);
        }
        println!("{}", self.result_line());
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

fn modeled_rows(p: &Pooled) -> [(&'static str, f64); 3] {
    [
        ("ops_per_s", p.ops_per_s()),
        ("p50_us", p.quantile_us(0.5)),
        ("p99_us", p.quantile_us(0.99)),
    ]
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64, plan: Plan) -> RunResult {
    let zipf = zipf_for(kind, plan.sizes);
    let cfg = base_cfg(kind, plan.sizes, plan.segment_stop(kind), false);
    let fill = Duration::from_secs_f64(seconds);
    let p = run_pooled(&cfg, &zipf, seed, plan.min_segments, fill);
    let mut values = Values::new();
    values.extend(modeled_rows(&p));
    values.insert("setup_s", median(&p.setup_s));
    values.insert("rss_peak_mb", rss_peak_mb());
    RunResult {
        correct: p.failed == 0 && p.ops > 0,
        attempted: p.attempted,
        failed: p.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: values[m.name],
                unit: m.unit,
            })
            .collect(),
        notes: vec![format!(
            "{}: {} verified operations in {} segments of {} modeled us in all",
            kind.name(),
            p.ops,
            p.segments,
            p.cycles / 1000
        )],
    }
}

/// A run of `kind` on `layout` for a fixed number of measured
/// operations: its modeled numbers repeat bit for bit.
pub fn fixed_run(
    kind: Kind,
    layout: Layout,
    ops: u64,
    tracing: bool,
    seed: u64,
    plan: Plan,
) -> Pooled {
    let zipf = zipf_for(kind, plan.sizes);
    let mut cfg = base_cfg(kind, plan.sizes, Stop::Ops(ops), tracing);
    cfg.layout = layout;
    run_pooled(&cfg, &zipf, seed, 1, Duration::ZERO)
}

/// The closed-loop single-call rate `KV_SINGLE_CALL_SATURATION` was
/// frozen from: `kv_open`'s clients issuing back to back.
pub fn saturation(seed: u64, seconds: f64) -> f64 {
    let kind = Kind::KvOpen;
    let sizes = Sizes::full();
    let cfg = SegmentCfg {
        mean_gap: None,
        ..base_cfg(kind, sizes, Plan::full().segment_stop(kind), false)
    };
    let fill = Duration::from_secs_f64(seconds);
    run_pooled(&cfg, &zipf_for(kind, sizes), seed, 2, fill).ops_per_s()
}

/// `kv_open` at fixed shares of the saturation rate: p99 at each, and
/// the highest swept rate that meets the latency limit while the
/// generator keeps up (achieved rate within 1 % of offered — a growing
/// backlog shows as a shortfall).
fn sweep(seed: u64, plan: Plan, out: &mut Values) {
    let kind = Kind::KvOpen;
    let zipf = zipf_for(kind, plan.sizes);
    let mut best = 0.0;
    for (i, (pct, name)) in SWEEP.iter().enumerate() {
        let rate = KV_SINGLE_CALL_SATURATION * f64::from(*pct) / 100.0;
        let cfg = SegmentCfg {
            mean_gap: Some(gap_for_rate(&Layout::base(kind), rate)),
            ..base_cfg(kind, plan.sizes, plan.segment_stop(kind), false)
        };
        let seed = crate::drive::mix(seed, 1000 + i as u64);
        let p = run_pooled(&cfg, &zipf, seed, 1, Duration::ZERO);
        let p99 = p.quantile_us(0.99);
        out.insert(name, p99);
        if p99 <= KV_OPEN_P99_LIMIT_US && p.failed == 0 && p.ops_per_s() >= 0.99 * rate {
            best = rate;
        }
    }
    out.insert("load.max_rate_under_limit", best);
}

/// The traced run: every per-layer metric.
pub fn per_layer(kind: Kind, seed: u64, seconds: f64, plan: Plan) -> RunResult {
    let mut values = Values::new();
    let mut notes = Vec::new();

    // The ladder: exact cycles, and the rungs that sum to each trip.
    let rungs: Rungs = ladder::measure();
    notes.extend(ladder::identities(&rungs));
    values.extend(rungs.clone());

    // The workload with spans recorded, for half of `--seconds`.
    let zipf = zipf_for(kind, plan.sizes);
    let p = run_pooled(
        &base_cfg(kind, plan.sizes, plan.segment_stop(kind), true),
        &zipf,
        seed,
        TRACED_SEGMENTS,
        Duration::from_secs_f64(seconds / 2.0),
    );
    layers::workload_rows(kind, &p, &rungs, &mut values);
    layers::span_rows(&p.spans, &mut values);
    match layers::write_spans(kind, seed, &p.spans) {
        Ok(path) => notes.push(format!(
            "{} spans written to {}",
            p.spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }

    // Tracing must not move the model: the same fixed-count run with
    // and without spans.
    let base = Layout::base(kind);
    let n = plan.fixed_ops(kind);
    let plain = fixed_run(kind, base, n, false, seed, plan);
    let traced = fixed_run(kind, base, n, true, seed, plan);
    let shift = (traced.ops_per_s() - plain.ops_per_s()).abs() / plain.ops_per_s();
    values.insert("trace.model_shift_share", shift);
    values.insert(
        "trace.host_overhead_share",
        (traced.measure_host_s - plain.measure_host_s) / plain.measure_host_s,
    );

    // Scale-out (closed loops): 4x the machine, clients and service
    // cores, 4x the operations, over the 16-core rate.
    if kind.is_closed_loop() {
        let big = fixed_run(kind, Layout::scaled4(kind), 4 * n, false, seed, plan);
        values.insert("sim.scale4x_ops_ratio", big.ops_per_s() / plain.ops_per_s());
    }
    if kind == Kind::KvOpen {
        sweep(seed, plan, &mut values);
    }

    if plan.threads_leg {
        let (rows, note) = threads::run_leg(kind, seed);
        values.extend(rows);
        notes.extend(note);
    }

    let failed = p.failed + plain.failed + traced.failed;
    RunResult {
        correct: failed == 0 && p.ops > 0 && shift == 0.0,
        attempted: p.attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                // Rows only another workload fills (the sweep, the
                // scale-out ratio, its counters) or a skipped threads
                // leg would fill read 0 here.
                value: values.get(m.name).copied().unwrap_or(0.0),
                unit: m.unit,
            })
            .collect(),
        notes,
    }
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn modeled_fingerprint(p: &Pooled) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = modeled_rows(p)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    out.push(("p999_us".into(), p.quantile_us(0.999)));
    out.push(("ops".into(), p.ops as f64));
    out.push(("cycles".into(), p.cycles as f64));
    out.extend(p.counters.iter().map(|(k, v)| (k.clone(), *v as f64)));
    out
}

/// Verifies what the benchmark promises about itself; `Err` lists
/// every broken promise.
pub fn check(plan: Plan, seed: u64, traced_seconds: f64) -> Result<Vec<String>, Vec<String>> {
    let mut ok = Vec::new();
    let mut bad = Vec::new();

    let a = ladder::measure();
    let b = ladder::measure();
    if a == b {
        ok.push(format!("ladder: {} rows repeat bit for bit", a.len()));
    } else {
        bad.push("ladder differs between two measurements".to_string());
    }

    let mut nonzero_somewhere = std::collections::BTreeSet::new();
    for w in crate::spec::WORKLOADS {
        let kind = Kind::parse(w.name).expect("every declared workload runs");
        let n = plan.fixed_ops(kind);
        let base = Layout::base(kind);
        let one = fixed_run(kind, base, n, false, seed, plan);
        let two = fixed_run(kind, base, n, false, seed, plan);
        let traced = fixed_run(kind, base, n, true, seed, plan);
        if modeled_fingerprint(&one) == modeled_fingerprint(&two) {
            ok.push(format!(
                "{}: modeled metrics and counters repeat bit for bit",
                w.name
            ));
        } else {
            bad.push(format!("{}: two runs of one seed differ", w.name));
        }
        if modeled_rows(&one) == modeled_rows(&traced) {
            ok.push(format!(
                "{}: traced and untraced modeled metrics are equal",
                w.name
            ));
        } else {
            bad.push(format!("{}: tracing moved the model", w.name));
        }
        if one.failed + traced.failed > 0 {
            bad.push(format!(
                "{}: {} failed operations",
                w.name,
                one.failed + traced.failed
            ));
        }

        let e2e = end_to_end(kind, seed, traced_seconds, plan);
        for m in END_TO_END {
            match e2e.value(m.name) {
                Some(v) if v > 0.0 => {}
                Some(v) => bad.push(format!("{}: {} reads {v}", w.name, m.name)),
                None => bad.push(format!("{}: {} not printed", w.name, m.name)),
            }
        }
        if e2e.metrics.len() != END_TO_END.len() || !e2e.correct {
            bad.push(format!("{}: end-to-end run incorrect or misshapen", w.name));
        }
        let layered = per_layer(kind, seed, traced_seconds, plan);
        if !layered.correct {
            bad.push(format!("{}: traced run incorrect", w.name));
        }
        for m in PER_LAYER {
            match layered.value(m.name) {
                Some(v) if v != 0.0 => {
                    nonzero_somewhere.insert(m.name);
                }
                Some(_) => {}
                None => bad.push(format!("{}: {} not printed", w.name, m.name)),
            }
        }
    }
    for m in PER_LAYER {
        let from_leg = m.name.starts_with("threads.")
            || m.name.starts_with("parchan.")
            || m.name.starts_with("rt.stat_incr");
        let excused = m.may_be_zero || (from_leg && !plan.threads_leg);
        if !excused && !nonzero_somewhere.contains(m.name) {
            bad.push(format!("{} reads 0 on every workload", m.name));
        }
    }
    ok.push(format!(
        "{} per-layer and {} end-to-end names printed",
        PER_LAYER.len(),
        END_TO_END.len()
    ));
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_on_the_quick_plan() {
        match check(Plan::tiny(), 7, 0.4) {
            Ok(lines) => assert!(!lines.is_empty()),
            Err(bad) => panic!("check failed:\n{}", bad.join("\n")),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = end_to_end(Kind::KvSat, 3, 0.2, Plan::tiny());
        let v = crate::json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = v.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = v
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
    }
}
