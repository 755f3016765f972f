//! The benchmark's tables — workloads, end-to-end metrics, per-layer
//! metrics — and `BENCHMARK.json` generated from them (`manifest`
//! mode). Later issues refer to these names; the measuring code looks
//! its outputs up here, so a name cannot be printed without being
//! declared or declared without being printed (`check` mode).

use crate::json::{number, quote};

/// How long one run measures, in host seconds.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "kv_open",
        why: "Open-loop single KV calls at 60% of saturation: what a chanos-serve client sees as requests arrive; the per-call wake and reply path dominates and batching cannot help.",
    },
    Workload {
        name: "kv_sat",
        why: "Closed-loop get_many/set_many bursts of 32 on the same store: the batch path (call_batch, recv_many) does all the work, so batching changes show here and per-call changes barely.",
    },
    Workload {
        name: "sys_files",
        why: "12 processes doing open/read/close with create/write/unlink and process churn on the message kernel and MsgFs: what a process sees per syscall; serve is bypassed.",
    },
    Workload {
        name: "file_get",
        why: "Closed-loop bursts of 8 file-server GETs over 512 files on the modeled disk: the device-bound path, the only place a drivers change moves an end-to-end number.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        // `sys_files`' median sits where its latency distribution is
        // thin (between the read and open clusters): same-code runs
        // spread 1.4-2.1 %, over a third of the first guess of 0.05.
        bound: 0.10,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count of failures or a difference that is legitimately 0;
    /// every other per-layer metric must be non-zero on at least the
    /// workload that exercises it (`check` mode).
    pub may_be_zero: bool,
}

const fn row(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        may_be_zero: false,
    }
}

const fn zero_ok(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        may_be_zero: true,
    }
}

const LO: &str = "lower";
const HI: &str = "higher";

pub const PER_LAYER: &[Layer] = &[
    // core / noc
    row("core.chan_rtt_cycles", "cycles", LO),
    row("core.chan_rtt_far_cycles", "cycles", LO),
    row("core.sends_per_op", "count", LO),
    row("core.remote_send_share", "share", LO),
    row("core.hops_per_send", "count", LO),
    row("core.bytes_per_op", "count", LO),
    // sim
    row("sim.dispatches_per_op", "count", LO),
    row("sim.events_per_op", "count", LO),
    row("sim.util_busiest_core", "share", LO),
    row("sim.util_mean", "share", LO),
    row("sim.scale4x_ops_ratio", "ratio", HI),
    row("sim.host_ns_per_event", "ns", LO),
    row("sim.host_ops_per_s", "1/s", HI),
    // rt
    row("rt.port_call_cycles", "cycles", LO),
    row("rt.port_batch32_cycles_per_call", "cycles", LO),
    zero_ok("rt.port_self_cycles", "cycles", LO),
    zero_ok("rt.calls_failed", "count", LO),
    row("rt.stat_incr_ns", "ns", LO),
    row("rt.stat_incr_contended_ns", "ns", LO),
    // serve
    row("serve.kv_get_cycles", "cycles", LO),
    row("serve.kv_batch32_cycles_per_get", "cycles", LO),
    zero_ok("serve.kv_self_cycles", "cycles", LO),
    row("serve.kv_reqs_per_burst", "count", HI),
    row("serve.file_get_cycles", "cycles", LO),
    row("serve.file_self_cycles", "cycles", LO),
    row("serve.file_gets_per_burst", "count", HI),
    row("serve.file_blocks_per_get", "count", LO),
    // kernel
    row("kernel.getpid_cycles", "cycles", LO),
    row("kernel.getpid_batch32_cycles_per_call", "cycles", LO),
    row("kernel.self_cycles", "cycles", LO),
    row("kernel.open_cycles", "cycles", LO),
    row("kernel.read_cycles", "cycles", LO),
    row("kernel.close_cycles", "cycles", LO),
    row("kernel.create_write_unlink_cycles", "cycles", LO),
    row("kernel.read_self_cycles", "cycles", LO),
    row("kernel.syscalls_per_op", "count", LO),
    row("kernel.batched_share", "share", HI),
    // vfs
    row("vfs.lookup_cycles", "cycles", LO),
    row("vfs.read_cycles", "cycles", LO),
    row("vfs.read_cold_cycles", "cycles", LO),
    row("vfs.create_unlink_cycles", "cycles", LO),
    row("vfs.read_self_cycles", "cycles", LO),
    row("vfs.cache_hit_share", "share", HI),
    row("vfs.vnode_spawns_per_kop", "count", LO),
    // drivers
    row("drivers.disk_read_cycles", "cycles", LO),
    row("drivers.disk_write_cycles", "cycles", LO),
    row("drivers.disk_batch8_cycles_per_block", "cycles", LO),
    row("drivers.disk_cmds_per_op", "count", LO),
    row("drivers.sorted_bursts_per_kop", "count", HI),
    zero_ok("drivers.io_errors", "count", LO),
    // nr
    zero_ok("nr.read_cycles", "cycles", LO),
    row("nr.write_cycles", "cycles", LO),
    row("nr.local_read_share", "share", HI),
    row("nr.ops_per_append", "count", HI),
    row("nr.catchup_ops_per_write", "count", LO),
    // load (the generator)
    zero_ok("load.failed_share", "share", LO),
    zero_ok("load.issue_late_p99_us", "us", LO),
    row("load.p999_us", "us", LO),
    row("load.queue_wait_p50_us", "us", LO),
    row("load.p99_us_at_25", "us", LO),
    row("load.p99_us_at_50", "us", LO),
    row("load.p99_us_at_75", "us", LO),
    row("load.p99_us_at_90", "us", LO),
    row("load.max_rate_under_limit", "1/s", HI),
    // trace
    row("trace.request_p50_us", "us", LO),
    zero_ok("trace.issue_wait_p50_us", "us", LO),
    zero_ok("trace.submit_p50_us", "us", LO),
    row("trace.await_p50_us", "us", LO),
    row("trace.cover_share", "share", HI),
    zero_ok("trace.model_shift_share", "share", LO),
    zero_ok("trace.host_overhead_share", "share", LO),
    // parchan + the threads leg (host wall-clock)
    row("threads.ops_per_s", "1/s", HI),
    row("threads.p50_us", "us", LO),
    row("threads.p99_us", "us", LO),
    row("threads.cores_busy", "count", LO),
    zero_ok("threads.hang_retries", "count", LO),
    row("parchan.chan_rtt_ns", "ns", LO),
    row("parchan.chan_burst32_ns_per_msg", "ns", LO),
    row("parchan.spawn_join_ns", "ns", LO),
    row("parchan.wake_to_poll_ns", "ns", LO),
    zero_ok("parchan.sleep_overshoot_us", "us", LO),
    row("parchan.wakes_per_op", "count", LO),
    zero_ok("parchan.steals_per_kop", "count", LO),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let paths: Vec<String> = PATHS.iter().map(|s| quote(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                number(m.bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        paths.join(", "),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(well_formed(n), "malformed name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(matches!(m.better, "higher" | "lower"));
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn manifest_is_json_with_exactly_the_contract_keys() {
        let v = parse(&manifest_json()).unwrap();
        let keys: Vec<&str> = v.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Json::Arr(layers)) = v.get("per_layer") else {
            panic!("per_layer is a list")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    /// `BENCHMARK.json` at the root of the repository is generated
    /// (`manifest` mode); this keeps the two equal.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // (Not `assert_eq!`: it would print both 10 KB texts.)
        assert!(
            on_disk == manifest_json(),
            "BENCHMARK.json is stale; regenerate it with: \
             cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }
}
