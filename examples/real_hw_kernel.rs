//! The message kernel on real hardware: boot the whole OS — syscall
//! servers, the vnode-per-thread file system, the disk driver — on an
//! OS thread pool instead of the simulator, and serve system calls.
//!
//! This is the paper's claim made concrete: the same kernel code that
//! runs on the deterministic 100-core model (`examples/boot_os.rs`)
//! runs here on the cores you actually have, via the `chanos-rt`
//! runtime facade. Nothing in `chanos-kernel`, `chanos-vfs`, or
//! `chanos-drivers` knows which backend it is on.
//!
//! ```text
//! cargo run --release --example real_hw_kernel
//! ```

use std::time::Duration;

use chanos::kernel::{boot, BootCfg, FsKind, KernelKind};
use chanos::parchan::Runtime;
use chanos::rt::CoreId;

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4);
    println!("booting the message kernel on {workers} OS threads...");
    let rt = Runtime::new(workers);

    // Boot: disk → driver → MsgFs → message kernel. Identical code
    // and identical BootCfg to the simulated examples.
    let os = rt.block_on(async {
        boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            (0..2).map(CoreId).collect(),
        ))
        .await
    });

    // A few processes doing real work through real message syscalls.
    // Timed with the runtime's own clock (`rt::now()` is wall-clock
    // nanoseconds on the threads backend) — the same facade the
    // kernel code uses, so the example stays backend-portable.
    let (results, elapsed_ns) = rt.block_on(async {
        let t0 = chanos::rt::now();
        let results = async {
            os.vfs.mkdir("/home").await.expect("mkdir /home");
            let handles: Vec<_> = (0..4u32)
                .map(|p| {
                    let (pid, h) = os.procs.spawn_process(CoreId(p), move |env| async move {
                        let path = format!("/home/user{p}");
                        let fd = env.create(&path).await.expect("create");
                        let payload = format!("hello from process {p} on a real thread");
                        let n = env.write(fd, payload.as_bytes()).await.expect("write");
                        env.close(fd).await.expect("close");
                        let fd = env.open(&path).await.expect("open");
                        let back = env.read(fd, 128).await.expect("read");
                        env.close(fd).await.expect("close");
                        assert_eq!(back, payload.as_bytes());
                        (env.getpid().await, n)
                    });
                    (pid, h)
                })
                .collect();
            let mut out = Vec::new();
            for (pid, h) in handles {
                let (seen_pid, bytes) = h.join().await.expect("process");
                assert_eq!(pid, seen_pid, "getpid must agree with spawn");
                out.push((pid, bytes));
            }
            // Directory listing through a syscall, to prove the FS is
            // shared state across all processes.
            let env = os.procs.env();
            let mut names = env.readdir("/home").await.expect("readdir");
            names.sort();
            (out, names)
        }
        .await;
        (results, chanos::rt::now() - t0)
    });
    let elapsed = Duration::from_nanos(elapsed_ns);

    let (procs, names) = results;
    for (pid, bytes) in &procs {
        println!("  process {pid:?}: wrote {bytes} bytes via message syscalls");
    }
    println!("  /home: {names:?}");
    println!(
        "4 processes, {} syscalls each, on {workers} threads in {elapsed:.2?}",
        6
    );
    assert_eq!(names, vec!["user0", "user1", "user2", "user3"]);
    rt.shutdown();
    println!("kernel served syscalls on real hardware; shut down cleanly.");
}
