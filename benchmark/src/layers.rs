//! Per-layer numbers of a workload, read from outside the layers: the
//! public counters around the measured phase as ratios per operation,
//! and the spans the clients recorded around their calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use crate::drive::Span;
use crate::hist::ExactHist;
use crate::ladder::Rungs;
use crate::machine::Pooled;
use crate::workloads::Kind;

pub type Values = BTreeMap<&'static str, f64>;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The unloaded ladder round trip of the operation `kind` issues:
/// `load.queue_wait_p50_us` is the loaded median minus this.
fn unloaded_cycles(kind: Kind, rungs: &Rungs) -> f64 {
    match kind {
        Kind::KvOpen | Kind::KvSat => rungs["serve.kv_get_cycles"],
        Kind::FileGet => rungs["serve.file_get_cycles"],
        Kind::SysFiles => {
            // 24 of a process's 28 syscalls per 8 rounds are
            // open/read/close: take the middle one of the three.
            let mut orc = [
                rungs["kernel.open_cycles"],
                rungs["kernel.read_cycles"],
                rungs["kernel.close_cycles"],
            ];
            orc.sort_by(f64::total_cmp);
            orc[1]
        }
    }
}

/// Counter ratios and generator numbers of one traced workload run.
pub fn workload_rows(kind: Kind, p: &Pooled, rungs: &Rungs, out: &mut Values) {
    let c = |name: &str| p.counter(name);
    let kop = p.ops.max(1) as f64 / 1000.0;

    out.insert("core.sends_per_op", p.per_op("csp.sends"));
    out.insert(
        "core.remote_send_share",
        ratio(
            c("csp.sends_remote"),
            c("csp.sends_remote") + c("csp.sends_local"),
        ),
    );
    out.insert("core.hops_per_send", ratio(c("csp.hops"), c("csp.recvs")));
    out.insert("core.bytes_per_op", p.per_op("csp.bytes"));

    out.insert("sim.dispatches_per_op", p.per_op("sim.dispatches"));
    out.insert("sim.events_per_op", p.per_op("sim.events"));
    let cycles = p.cycles.max(1) as f64;
    let busiest = p.busy.iter().copied().fold(0.0, f64::max);
    out.insert("sim.util_busiest_core", busiest / cycles);
    out.insert(
        "sim.util_mean",
        p.busy.iter().sum::<f64>() / (cycles * p.busy.len().max(1) as f64),
    );
    out.insert(
        "sim.host_ns_per_event",
        ratio(p.measure_host_s * 1e9, c("sim.events")),
    );
    out.insert("sim.host_ops_per_s", ratio(p.ops as f64, p.measure_host_s));

    out.insert(
        "rt.calls_failed",
        c("port.calls_cancelled") + c("port.calls_timed_out") + c("port.calls_dropped_at_submit"),
    );

    out.insert(
        "serve.kv_reqs_per_burst",
        ratio(
            c("serve.kv_gets") + c("serve.kv_sets") + c("serve.kv_dels"),
            c("serve.kv_bursts"),
        ),
    );
    out.insert(
        "serve.file_gets_per_burst",
        ratio(c("serve.file_gets"), c("serve.file_bursts")),
    );
    out.insert(
        "serve.file_blocks_per_get",
        ratio(c("serve.file_blocks_read"), c("serve.file_gets")),
    );

    out.insert("kernel.syscalls_per_op", p.per_op("kernel.syscalls"));
    out.insert(
        "kernel.batched_share",
        ratio(c("kernel.syscall_batched"), c("kernel.syscalls")),
    );

    out.insert(
        "vfs.cache_hit_share",
        ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
    );
    out.insert(
        "vfs.vnode_spawns_per_kop",
        c("msgfs.vnode_threads_spawned") / kop,
    );

    out.insert(
        "drivers.disk_cmds_per_op",
        p.per_op("disk.reads") + p.per_op("disk.writes"),
    );
    out.insert(
        "drivers.sorted_bursts_per_kop",
        c("disk.bursts_sorted") / kop,
    );
    out.insert(
        "drivers.io_errors",
        c("disk.io_errors") + c("disk.clobbered_commands") + c("driver.tag_mismatches"),
    );

    out.insert(
        "nr.local_read_share",
        ratio(
            c("nr.local_reads"),
            c("nr.local_reads") + c("nr.server_reads"),
        ),
    );
    out.insert(
        "nr.ops_per_append",
        ratio(c("nr.append_ops"), c("nr.log_appends")),
    );
    out.insert(
        "nr.catchup_ops_per_write",
        ratio(c("nr.catchup_ops"), c("nr.append_ops")),
    );

    out.insert(
        "load.failed_share",
        ratio(p.failed as f64, p.attempted as f64),
    );
    out.insert("load.issue_late_p99_us", p.late.quantile(0.99) / 1000.0);
    out.insert("load.p999_us", p.quantile_us(0.999));
    out.insert(
        "load.queue_wait_p50_us",
        p.quantile_us(0.5) - unloaded_cycles(kind, rungs) / 1000.0,
    );
}

/// Span statistics: the median request and its parts, and how much of
/// the requests' time their child spans cover. A layer's self time is
/// a span minus its children; a request's is `1 - cover_share`.
pub fn span_rows(spans: &[Span], out: &mut Values) {
    let p50_us = |pick: &dyn Fn(&Span) -> bool| {
        let mut h = ExactHist::new();
        for s in spans.iter().filter(|s| pick(s)) {
            h.record(s.end - s.start);
        }
        h.quantile(0.5) / 1000.0
    };
    out.insert("trace.request_p50_us", p50_us(&|s| s.parent.is_none()));
    out.insert(
        "trace.issue_wait_p50_us",
        p50_us(&|s| s.name == "issue_wait"),
    );
    out.insert("trace.submit_p50_us", p50_us(&|s| s.name == "submit"));
    out.insert("trace.await_p50_us", p50_us(&|s| s.name == "await"));
    let total = |root: bool| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent.is_none() == root)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    };
    out.insert("trace.cover_share", ratio(total(false), total(true)));
}

/// Where the traced run writes its spans.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the spans as JSON lines (times in modeled cycles).
pub fn write_spans(kind: Kind, seed: u64, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{seed}.jsonl", kind.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            f,
            "{{\"req\": {}, \"span\": \"{}\", \"parent\": {}, \"start\": {}, \"end\": {}}}",
            s.req, s.name, parent, s.start, s.end
        )?;
    }
    f.flush()?;
    Ok(path)
}
