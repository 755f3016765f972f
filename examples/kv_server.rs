//! The serving layer, end to end on real hardware: boot a thread-pool
//! runtime, put a memcached-style KV server and a disk-backed static
//! file server on it — both spawned **high priority**, so their tasks
//! ride the scheduler's hi lane — then drive the KV store with
//! pipelined zipf bursts while a flood of batch tasks fights for the
//! same workers, and print the latencies an operator would read.
//!
//! This is the position the paper stakes out, made runnable: an OS
//! built from messages should *serve traffic*, and interactive
//! service should keep its tail latency while batch work saturates
//! the machine. Compare the two summaries this prints. (They are a
//! demonstration; the numbers of record come from `benchmark/`.)
//!
//! ```text
//! cargo run --release --example kv_server
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chanos::parchan::Runtime;
use chanos::rt::{current_priority, now, spawn_named_with_priority, CoreId, Pcg32, Priority};
use chanos::serve::{spawn_file_server, spawn_kv, KvCfg, Zipf};

/// Spawns a 4-shard `High` KV store and drives it closed-loop: 4
/// clients × 100 bursts of 32 zipf keys (3 SETs, 29 GETs), clients
/// inheriting the caller's priority class. Returns one line: exact
/// p50/p99 of issue → completion over all calls, and goodput.
async fn drive_kv() -> String {
    let kv = spawn_kv(KvCfg {
        shards: 4,
        priority: Priority::High,
    });
    let zipf = Arc::new(Zipf::new(10_000, 0.99));
    let t0 = now();
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let (kv, zipf) = (kv.clone(), zipf.clone());
            spawn_named_with_priority("kv-client", current_priority(), async move {
                let mut rng = Pcg32::with_stream(0x5EED, c + 1);
                let mut lat = Vec::new();
                for _ in 0..100 {
                    let keys: Vec<u64> = (0..32).map(|_| zipf.sample(&mut rng)).collect();
                    let pairs = keys[..3].iter().map(|&k| (k, vec![c as u8; 64]));
                    let issued = now();
                    let gets = kv.get_many(&keys[3..]);
                    let sets = kv.set_many(pairs.collect());
                    for call in gets {
                        call.await.expect("get");
                        lat.push(now() - issued);
                    }
                    for call in sets {
                        call.await.expect("set");
                        lat.push(now() - issued);
                    }
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for client in clients {
        lat.extend(client.join().await.expect("client"));
    }
    lat.sort_unstable();
    let at = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
    let goodput = lat.len() as f64 / ((now() - t0) as f64 * 1e-9);
    format!(
        "n={} p50={}ns p99={}ns goodput {goodput:.0} ops/s",
        lat.len(),
        at(0.50),
        at(0.99)
    )
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4);
    println!("booting the serving layer on {workers} OS threads...\n");
    let rt = Runtime::new(workers);

    // --- a static-file server over the real disk stack ------------
    rt.block_on(async {
        let (hw, irq) =
            chanos::drivers::install_disk(1024, chanos::drivers::DiskParams::default(), CoreId(0));
        let disk = chanos::drivers::spawn_disk_driver(hw, irq, CoreId(0));
        let files = vec![
            ("/index.html".to_string(), b"<h1>chanos</h1>".to_vec()),
            ("/logo.bin".to_string(), vec![0xAB; 10_000]),
        ];
        let srv = spawn_file_server(disk, files, Priority::High)
            .await
            .expect("format disk");
        let page = srv.get("/index.html").await.expect("serve").expect("hit");
        println!(
            "file server: GET /index.html -> {} bytes ({})",
            page.len(),
            String::from_utf8_lossy(&page)
        );
        let blob = srv.get("/logo.bin").await.expect("serve").expect("hit");
        println!("file server: GET /logo.bin  -> {} bytes", blob.len());
        assert_eq!(srv.get("/missing").await.expect("serve"), None);
        println!("file server: GET /missing   -> 404\n");
    });

    // --- the KV server under zipf load, idle machine ---------------
    let idle = rt.block_on(drive_kv());
    println!("zipf KV, idle machine:   {idle}\n");

    // --- the same workload while batch tasks flood the pool --------
    let loaded = rt.block_on(async {
        let stop = Arc::new(AtomicBool::new(false));
        let flood: Vec<_> = (0..4 * workers)
            .map(|_| {
                let stop = stop.clone();
                chanos::rt::spawn_named("batch-flood", async move {
                    let mut x = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..2_000 {
                            x = std::hint::black_box(x.wrapping_mul(2862933555777941757));
                        }
                        chanos::parchan::yield_now().await;
                    }
                })
            })
            .collect();
        // The whole serving stack — shards, coordinator, and (by
        // inheritance) every client — runs High, jumping the flood at
        // every dispatch.
        let run = spawn_named_with_priority("load-run", Priority::High, drive_kv());
        let summary = run.join().await.expect("load run");
        stop.store(true, Ordering::Relaxed);
        for f in flood {
            let _ = f.join().await;
        }
        summary
    });
    println!("zipf KV, flooded (High): {loaded}");
    println!(
        "                         {} wakes routed through the hi lane",
        rt.handle().stat_get("sched.priority_wakes")
    );

    rt.shutdown();
    println!("\nclean shutdown.");
}
