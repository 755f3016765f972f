//! Channel microbench matrix: capacity x producers x consumers x
//! payload x drain batch, on the `chanos-parchan` threads backend.
//!
//! Each case moves the same message volume through `channel()`
//! (which picks the mutex core or the lock-free ring from the
//! capacity), plus an E1-style RPC round-trip. Results print as
//! markdown and are recorded to `BENCH_chan.json` (override the path
//! with `CHANOS_BENCH_OUT`) — the first entry of the repo's perf
//! trajectory.
//!
//! Quick mode (`CHANOS_BENCH_MS` < 100, as in CI) shrinks the
//! message counts so the matrix stays a smoke test.

use std::time::Instant;

use chanos_bench::harness::default_budget;
use chanos_parchan::{chan_counter, channel, reset_chan_counters, Capacity, Runtime};

#[derive(Clone)]
struct Case {
    cap: Capacity,
    producers: usize,
    consumers: usize,
    payload: usize,
    batch: usize,
}

struct Row {
    case: Case,
    workers: usize,
    msgs: u64,
    nanos: u128,
}

impl Row {
    fn msgs_per_sec(&self) -> f64 {
        self.msgs as f64 / (self.nanos as f64 / 1e9)
    }
}

fn cap_name(c: Capacity) -> String {
    match c {
        Capacity::Rendezvous => "rendezvous".into(),
        Capacity::Bounded(n) => format!("bounded({n})"),
        Capacity::Unbounded => "unbounded".into(),
    }
}

/// Moves `msgs_per_producer * producers` messages of type `T`
/// through one channel and returns the wall time. The payload
/// constructor runs per message on the producer (a plain `u64` for
/// the 8-byte cases — no allocator noise — and an owned `Vec` for
/// the larger ones).
fn run_typed<T: Send + 'static>(
    case: &Case,
    workers: usize,
    msgs_per_producer: u64,
    make: impl Fn() -> T + Clone + Send + 'static,
) -> Row {
    let rt = Runtime::new(workers);
    let (tx, rx) = channel::<T>(case.cap);
    let total = msgs_per_producer * case.producers as u64;

    let t0 = Instant::now();
    let consumers: Vec<_> = (0..case.consumers)
        .map(|_| {
            let rx = rx.clone();
            let batch = case.batch;
            rt.spawn(async move {
                let mut got = 0u64;
                if batch <= 1 {
                    while let Ok(v) = rx.recv().await {
                        std::hint::black_box(&v);
                        got += 1;
                    }
                } else {
                    let mut buf = Vec::with_capacity(batch);
                    loop {
                        let n = rx.recv_many(&mut buf, batch).await;
                        if n == 0 {
                            break;
                        }
                        for v in buf.drain(..) {
                            std::hint::black_box(&v);
                        }
                        got += n as u64;
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    let producers: Vec<_> = (0..case.producers)
        .map(|_| {
            let tx = tx.clone();
            let make = make.clone();
            rt.spawn(async move {
                for _ in 0..msgs_per_producer {
                    assert!(tx.send(make()).await.is_ok(), "channel closed early");
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join_blocking().expect("producer");
    }
    let got: u64 = consumers
        .into_iter()
        .map(|c| c.join_blocking().expect("consumer"))
        .sum();
    let nanos = t0.elapsed().as_nanos();
    rt.shutdown();
    assert_eq!(got, total, "bench lost messages");
    Row {
        case: case.clone(),
        workers,
        msgs: total,
        nanos,
    }
}

fn run_case(case: &Case, workers: usize, msgs_per_producer: u64) -> Row {
    if case.payload <= 8 {
        run_typed::<u64>(case, workers, msgs_per_producer, || 0xAB)
    } else {
        let payload = case.payload;
        run_typed::<Vec<u8>>(case, workers, msgs_per_producer, move || {
            vec![0xAB; payload]
        })
    }
}

/// E1-style RPC round trip (request + reply channel); returns
/// ns/round-trip.
fn rpc_round_trip(rounds: u64) -> f64 {
    let rt = Runtime::new(2);
    let (req_tx, req_rx) = channel::<(u64, chanos_parchan::Sender<u64>)>(Capacity::Unbounded);
    let _server = rt.spawn(async move {
        while let Ok((x, reply)) = req_rx.recv().await {
            let _ = reply.send(x.wrapping_mul(3)).await;
        }
    });
    let t0 = Instant::now();
    rt.block_on(async {
        for i in 0..rounds {
            let (rtx, rrx) = channel::<u64>(Capacity::Bounded(1));
            req_tx.send((i, rtx)).await.unwrap();
            std::hint::black_box(rrx.recv().await.unwrap());
        }
    });
    let ns = t0.elapsed().as_nanos() as f64 / rounds as f64;
    drop(req_tx);
    rt.shutdown();
    ns
}

fn json_escape_free(s: &str) -> String {
    // All emitted strings are ASCII identifiers; keep it simple.
    s.replace('"', "'")
}

fn main() {
    let quick = default_budget() < std::time::Duration::from_millis(100);
    let msgs: u64 = if quick { 2_000 } else { 25_000 };
    let rpc_rounds: u64 = if quick { 2_000 } else { 20_000 };

    let cases = [
        Case {
            cap: Capacity::Bounded(4),
            producers: 1,
            consumers: 1,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Bounded(64),
            producers: 1,
            consumers: 1,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Bounded(64),
            producers: 4,
            consumers: 4,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Bounded(64),
            producers: 4,
            consumers: 4,
            payload: 256,
            batch: 1,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 1,
            consumers: 1,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 4,
            consumers: 4,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 4,
            consumers: 4,
            payload: 8,
            batch: 32,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 4,
            consumers: 1,
            payload: 256,
            batch: 32,
        },
    ];

    println!("\n## Channel microbench (4 workers)\n");
    println!("| capacity | prod x cons | payload | drain | msgs/s |");
    println!("|---|---|---|---|---|");

    reset_chan_counters();
    let mut rows: Vec<Row> = Vec::new();
    for case in &cases {
        let r = run_case(case, 4, msgs / case.producers as u64);
        println!(
            "| {} | {}x{} | {}B | {} | {:.0} |",
            cap_name(case.cap),
            case.producers,
            case.consumers,
            case.payload,
            case.batch,
            r.msgs_per_sec(),
        );
        rows.push(r);
    }

    // Worker-count scaling on the headline contended case: the same
    // message volume at 1, 2, 4, and host_cores workers. On a
    // single-CPU host the counts timeshare one core, so the
    // trajectory is flat there by construction — the rows exist so a
    // multicore host records a real scaling curve under the same key.
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut worker_counts = vec![1usize, 2, 4, host_cores.max(1)];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    let scaling_case = Case {
        cap: Capacity::Bounded(64),
        producers: 4,
        consumers: 4,
        payload: 8,
        batch: 1,
    };
    println!("\n## Worker-count scaling: bounded(64) 4p/4c, host_cores={host_cores}\n");
    println!("| workers | msgs/s |");
    println!("|---|---|");
    let mut scaling_rows: Vec<Row> = Vec::new();
    for &w in &worker_counts {
        let r = run_case(&scaling_case, w, msgs / scaling_case.producers as u64);
        println!("| {w} | {:.0} |", r.msgs_per_sec());
        scaling_rows.push(r);
    }

    let rpc_ns = rpc_round_trip(rpc_rounds);
    println!("\n## E1 RPC round trip on real threads\n");
    println!("{rpc_ns:.0} ns/round-trip");

    println!("\n## Channel path counters (whole run)\n");
    println!("| counter | value |");
    println!("|---|---|");
    for (name, v) in chanos_parchan::chan_counters() {
        println!("| {name} | {v} |");
    }

    // Record the run as JSON (hand-rolled; no serde in this build).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"bench\": \"chan_micro\",\n  \"quick\": {quick},\n  \"workers\": 4,\n"
    ));
    j.push_str(&format!(
        "  \"host_cores\": {host_cores},\n  \"backend\": \"threads\",\n"
    ));
    j.push_str(&format!("  \"rpc_ns_per_round_trip\": {rpc_ns:.1},\n"));
    let emit_rows = |j: &mut String, rows: &[Row]| {
        for (i, r) in rows.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"capacity\": \"{}\", \"producers\": {}, \"consumers\": {}, \
                 \"payload_bytes\": {}, \"drain_batch\": {}, \
                 \"workers\": {}, \"msgs\": {}, \"nanos\": {}, \"msgs_per_sec\": {:.1}}}{}\n",
                json_escape_free(&cap_name(r.case.cap)),
                r.case.producers,
                r.case.consumers,
                r.case.payload,
                r.case.batch,
                r.workers,
                r.msgs,
                r.nanos,
                r.msgs_per_sec(),
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
    };
    j.push_str("  \"scaling\": [\n");
    emit_rows(&mut j, &scaling_rows);
    j.push_str("  ],\n  \"matrix\": [\n");
    emit_rows(&mut j, &rows);
    j.push_str("  ],\n  \"counters\": {\n");
    let counters = chanos_parchan::chan_counters();
    for (i, (name, v)) in counters.iter().enumerate() {
        j.push_str(&format!(
            "    \"{name}\": {v}{}\n",
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    j.push_str("  }\n}\n");
    chanos_bench::harness::write_bench_json("CHANOS_BENCH_OUT", "BENCH_chan.json", &j);
    // Keep one counter alive for the linker regardless of matrix.
    std::hint::black_box(chan_counter("chan.fast_sends"));
}
