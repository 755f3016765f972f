//! The real-threads leg: the same workload clients for a few seconds
//! on `parchan::Runtime`, plus a small parchan ladder — host
//! wall-clock numbers, expected to wobble by ±20 % on this box, never
//! bounded.
//!
//! It runs in a **child process** under a timeout. About one run in
//! 120 hangs (a pinned task's wake onto a parked worker is never
//! delivered; see the README's findings), so the parent kills a child
//! that overruns and retries, counting the retries in
//! `threads.hang_retries`, and the child exits by itself when its
//! parent dies (its stdin pipe closes) so none is ever left behind.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chanos_parchan::Runtime;
use chanos_rt::{self as rt, Capacity, CoreId};

use crate::drive::mix;
use crate::drive::{Ctl, Stop};
use crate::hist::ExactHist;
use crate::json;
use crate::layers::{out_dir, Values};
use crate::machine::{gap_for_rate, zipf_for};
use crate::spec::PER_LAYER;
use crate::workloads::{self, Kind, Layout, Load, Sizes};

/// How long the workload runs on real threads.
pub const LEG_SECONDS: f64 = 3.0;
/// A child still running this long after its start is taken for hung.
const CHILD_TIMEOUT: Duration = Duration::from_secs(40);
const MAX_RETRIES: u32 = 3;
/// The open loop's drain deadline on real threads, where a call takes
/// ~100 us and a descheduled worker can hold one for milliseconds.
const DRAIN_LIMIT_WALL_NS: u64 = 1_000_000_000;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

// ---------------------------------------------------------------------------
// The child.
// ---------------------------------------------------------------------------

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` (clock ticks of 10 ms).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

async fn ping_pong_ns(rounds: u32) -> f64 {
    let (to_tx, to_rx) = rt::channel::<u64>(Capacity::Unbounded);
    let (back_tx, back_rx) = rt::channel::<u64>(Capacity::Unbounded);
    rt::spawn_on(CoreId(1), async move {
        while let Ok(v) = to_rx.recv().await {
            if back_tx.send(v).await.is_err() {
                return;
            }
        }
    });
    rt::spawn_on(CoreId(0), async move {
        let t = Instant::now();
        for i in 0..rounds {
            to_tx.send(u64::from(i)).await.expect("echo alive");
            back_rx.recv().await.expect("echo alive");
        }
        t.elapsed().as_nanos() as f64 / f64::from(rounds)
    })
    .join()
    .await
    .expect("ping-pong task")
}

async fn burst32_ns_per_msg(rounds: u32) -> f64 {
    let (to_tx, to_rx) = rt::channel::<u64>(Capacity::Unbounded);
    let (back_tx, back_rx) = rt::channel::<u64>(Capacity::Unbounded);
    rt::spawn_on(CoreId(1), async move {
        let mut buf = Vec::with_capacity(32);
        let mut got = 0;
        loop {
            buf.clear();
            let n = to_rx.recv_many(&mut buf, 32).await;
            if n == 0 {
                return;
            }
            got += n;
            if got == 32 {
                got = 0;
                if back_tx.send(0).await.is_err() {
                    return;
                }
            }
        }
    });
    rt::spawn_on(CoreId(0), async move {
        let t = Instant::now();
        for _ in 0..rounds {
            let mut burst: std::collections::VecDeque<u64> = (0..32).collect();
            assert_eq!(to_tx.try_send_many(&mut burst), 32);
            back_rx.recv().await.expect("drain task alive");
        }
        t.elapsed().as_nanos() as f64 / (f64::from(rounds) * 32.0)
    })
    .join()
    .await
    .expect("burst task")
}

async fn spawn_join_ns(rounds: u32) -> f64 {
    let t = Instant::now();
    for i in 0..rounds {
        let v = rt::spawn(async move { i })
            .join()
            .await
            .expect("trivial task");
        std::hint::black_box(v);
    }
    t.elapsed().as_nanos() as f64 / f64::from(rounds)
}

/// Median time from a send that wakes a parked receiver on another
/// worker to that receiver running with the message.
async fn wake_to_poll_ns(rounds: u32) -> f64 {
    let (to_tx, to_rx) = rt::channel::<Instant>(Capacity::Unbounded);
    let (back_tx, back_rx) = rt::channel::<u64>(Capacity::Unbounded);
    rt::spawn_on(CoreId(1), async move {
        while let Ok(sent) = to_rx.recv().await {
            if back_tx
                .send(sent.elapsed().as_nanos() as u64)
                .await
                .is_err()
            {
                return;
            }
        }
    });
    rt::spawn_on(CoreId(0), async move {
        let mut h = ExactHist::new();
        for _ in 0..rounds {
            to_tx.send(Instant::now()).await.expect("receiver alive");
            h.record(back_rx.recv().await.expect("receiver alive"));
        }
        h.quantile(0.5)
    })
    .join()
    .await
    .expect("wake task")
}

async fn sleep_overshoot_us(rounds: u32) -> f64 {
    const ASK_NS: u64 = 200_000;
    let mut h = ExactHist::new();
    for _ in 0..rounds {
        let t = Instant::now();
        rt::sleep(ASK_NS).await;
        h.record((t.elapsed().as_nanos() as u64).saturating_sub(ASK_NS));
    }
    h.quantile(0.5) / 1000.0
}

async fn stat_incr_ns(tasks: u32, rounds: u32) -> f64 {
    let handles: Vec<_> = (0..tasks)
        .map(|w| {
            rt::spawn_on(CoreId(w), async move {
                let t = Instant::now();
                for _ in 0..rounds {
                    rt::stat_incr("benchmark.stat_incr_probe");
                }
                t.elapsed().as_nanos() as f64 / f64::from(rounds)
            })
        })
        .collect();
    let mut worst = 0.0f64;
    for h in handles {
        worst = worst.max(h.join().await.expect("stat task"));
    }
    worst
}

/// The child's work: the parchan ladder, then the workload leg.
fn measure(kind: Kind, seed: u64, seconds: f64) -> Values {
    let mut out = Values::new();
    let n = workers();

    let rt = Runtime::new(n);
    let rows = rt.block_on(async {
        [
            ("parchan.chan_rtt_ns", ping_pong_ns(20_000).await),
            (
                "parchan.chan_burst32_ns_per_msg",
                burst32_ns_per_msg(2_000).await,
            ),
            ("parchan.spawn_join_ns", spawn_join_ns(20_000).await),
            ("parchan.wake_to_poll_ns", wake_to_poll_ns(5_000).await),
            ("parchan.sleep_overshoot_us", sleep_overshoot_us(100).await),
            ("rt.stat_incr_ns", stat_incr_ns(1, 200_000).await),
            (
                "rt.stat_incr_contended_ns",
                stat_incr_ns(n as u32, 200_000).await,
            ),
        ]
    });
    rt.shutdown();
    out.extend(rows);

    let sizes = Sizes::full();
    let layout = Layout::base(kind);
    let zipf = zipf_for(kind, sizes);
    let ctl = Ctl::new(
        workloads::warm_ops(kind, &layout),
        Stop::Host(Duration::from_secs_f64(seconds)),
        false,
        DRAIN_LIMIT_WALL_NS,
    );
    let load = Load {
        kind,
        layout,
        ctl: ctl.clone(),
        zipf,
        seed: mix(seed, u64::MAX),
        mean_gap: (kind == Kind::KvOpen)
            .then(|| gap_for_rate(&layout, workloads::KV_OPEN_THREADS_RATE)),
    };
    let rt = Runtime::new(n);
    let handle = rt.handle();
    let wakes = |h: &chanos_parchan::Handle| {
        let (a, b, c) = h.wake_counts();
        (a + b + c) as f64
    };
    let probe = handle.clone();
    let (rec, wakes0, steals0, cpu0, wall0) = rt.block_on(async move {
        let world = workloads::setup(kind, layout, sizes, CoreId(0)).await;
        let before = (
            wakes(&probe),
            probe.stat_get("sched.steals") as f64,
            cpu_seconds(),
            Instant::now(),
        );
        let rec = workloads::run(world, load).await;
        (rec, before.0, before.1, before.2, before.3)
    });
    let wall = wall0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let all_ops = ctl.completed().max(1) as f64;
    out.insert("parchan.wakes_per_op", (wakes(&handle) - wakes0) / all_ops);
    out.insert(
        "parchan.steals_per_kop",
        (handle.stat_get("sched.steals") as f64 - steals0) * 1000.0 / all_ops,
    );
    rt.shutdown();

    let window_ns = (rec.t_end - ctl.t_warm()).max(1) as f64;
    out.insert("threads.ops_per_s", rec.ops as f64 * 1e9 / window_ns);
    out.insert("threads.p50_us", rec.lat.quantile(0.5) / 1000.0);
    out.insert("threads.p99_us", rec.lat.quantile(0.99) / 1000.0);
    out.insert("threads.cores_busy", cpu / wall);
    // A failed reply on real threads is a finding, not a number to
    // hide in a rate: refuse the whole leg.
    assert_eq!(rec.failed, 0, "threads leg: {} failed replies", rec.failed);
    out
}

/// Entry point of `threads-child`: prints one JSON object of
/// `threads.*`, `parchan.*` and the `rt.stat_incr*` rows.
pub fn child_main(kind: Kind, seed: u64, seconds: f64) {
    // Die with the parent: it holds our stdin; EOF means it is gone.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(3);
    });
    let values = measure(kind, seed, seconds);
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
        .collect();
    println!("{{{}}}", body.join(", "));
}

// ---------------------------------------------------------------------------
// The parent.
// ---------------------------------------------------------------------------

/// Kills and reaps its child on every exit path, unwinding included.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

enum Attempt {
    Done(Values),
    /// Still running at the timeout: killed, worth another try.
    Hung,
    /// Ended by itself without a result: retrying would not help.
    Failed(String),
}

fn attempt(kind: Kind, seed: u64, tmp: &std::path::Path) -> Attempt {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["threads-child", "--workload", kind.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &LEG_SECONDS.to_string()])
            // The file-backed disk of the threads backend creates its image
            // in the temp directory: keep it inside the checkout.
            .env("TMPDIR", tmp)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let mut child = match spawned {
        Ok(child) => Reaped(child),
        Err(e) => return Attempt::Failed(format!("cannot start the child: {e}")),
    };
    let started = Instant::now();
    let status = loop {
        match child.0.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) => return Attempt::Hung, // `Reaped` kills it
            Err(e) => return Attempt::Failed(format!("cannot wait for the child: {e}")),
        }
    };
    if !status.success() {
        return Attempt::Failed(format!("the child ended with {status}"));
    }
    let mut text = String::new();
    if let Some(mut stdout) = child.0.stdout.take() {
        let _ = stdout.read_to_string(&mut text);
    }
    let Some(Ok(parsed)) = text.lines().last().map(json::parse) else {
        return Attempt::Failed("the child printed no result".into());
    };
    let mut out = Values::new();
    for (k, v) in parsed.entries() {
        match (PER_LAYER.iter().find(|m| m.name == k), v.num()) {
            (Some(row), Some(v)) => out.insert(row.name, v),
            _ => return Attempt::Failed(format!("the child printed an undeclared row {k}")),
        };
    }
    Attempt::Done(out)
}

/// Runs the threads leg under its guard: the rows, and a note if it
/// gave none (the rows then read 0). Hung children are killed and
/// retried up to `MAX_RETRIES` times, counted in `threads.hang_retries`.
pub fn run_leg(kind: Kind, seed: u64) -> (Values, Option<String>) {
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&tmp);
    let mut hangs = 0u32;
    let (mut out, note) = loop {
        match attempt(kind, seed, &tmp) {
            Attempt::Done(values) => break (values, None),
            Attempt::Failed(why) => break (Values::new(), Some(why)),
            Attempt::Hung if hangs == MAX_RETRIES => {
                break (Values::new(), Some("the child hung on every try".into()))
            }
            Attempt::Hung => hangs += 1,
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    out.insert("threads.hang_retries", f64::from(hangs));
    (
        out,
        note.map(|why| format!("threads leg gave no numbers: {why}")),
    )
}
