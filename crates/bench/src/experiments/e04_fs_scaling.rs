//! E4 — "Every vnode is its own thread … cylinder groups and
//! free-maps and so forth" (§4).
//!
//! File-system operation throughput as client concurrency grows, over
//! the three engines built on the identical on-disk layout: big-lock,
//! sharded locks ("Solaris at great effort"), and the paper's
//! vnode-per-thread message design. Workload per client: private file
//! create + write/read/stat mix, plus occasional operations in a
//! shared directory (cross-client metadata contention).

use chanos_drivers::{install_disk, spawn_disk_driver, DiskParams};
use chanos_sim::{Config, CoreId, RunEnd, Simulation};
use chanos_vfs::{BigLockFs, MsgFs, ShardedFs, Vfs};

use crate::table::{ops_per_mcycle, Table};

const SERVICE_CORES: usize = 4;
const DISK_BLOCKS: u64 = 16384;
const GROUPS: u64 = 8;
/// Rounds per client, in quick mode too: the time is the slowest
/// client's finish, and at 8 rounds that tail is a large share of the
/// run, enough to move a cell against the full run's sign when the
/// model changes. Quick mode only drops client counts, so each of its
/// cells equals the full run's.
const ROUNDS: u64 = 24;

fn machine(cores: usize) -> Simulation {
    Simulation::with_config(Config {
        cores,
        ctx_switch: 20,
        ..Config::default()
    })
}

async fn make_fs(which: &str) -> Vfs {
    let driver_core = CoreId((SERVICE_CORES - 1) as u32);
    // Fast disk so concurrency control, not the device, dominates.
    let params = DiskParams {
        base: 4_000,
        per_block: 400,
        seek_per_1k_lba: 0,
        mmio_write: 100,
    };
    let (hw, irq) = install_disk(DISK_BLOCKS, params, driver_core);
    let disk = spawn_disk_driver(hw, irq, driver_core);
    let service: Vec<CoreId> = (0..SERVICE_CORES as u32).map(CoreId).collect();
    match which {
        "biglock" => Vfs::Big(
            BigLockFs::format(disk, DISK_BLOCKS, GROUPS, 1024)
                .await
                .unwrap(),
        ),
        "sharded" => Vfs::Sharded(
            ShardedFs::format(disk, DISK_BLOCKS, GROUPS, 8, 128)
                .await
                .unwrap(),
        ),
        _ => Vfs::Msg(
            MsgFs::format(disk, DISK_BLOCKS, GROUPS, 8, 128, service)
                .await
                .unwrap(),
        ),
    }
}

/// Ops per client: returns completed op count. A client holds its
/// private file open, as a process does: its writes, reads and stats go
/// through the [`File`](chanos_vfs::File) its `create` answered.
async fn client_workload(fs: Vfs, id: usize, rounds: u64) -> u64 {
    let mut ops = 0u64;
    let path = format!("/c{id}");
    let file = fs.create_open(&path).await.unwrap();
    ops += 1;
    let blob = vec![id as u8; 2048];
    for r in 0..rounds {
        fs.write_file(&file, (r % 8) * 2048, &blob).await.unwrap();
        ops += 1;
        let _ = fs.read_file(&file, 0, 2048).await.unwrap();
        ops += 1;
        let _ = fs.stat_file(&file).await.unwrap();
        ops += 1;
        if r % 4 == 0 {
            // Shared-directory metadata traffic.
            let shared = format!("/shared/s{id}_{r}");
            fs.create(&shared).await.unwrap();
            fs.unlink(&shared).await.unwrap();
            ops += 2;
        }
    }
    ops
}

fn throughput(which: &'static str, clients: usize, rounds: u64) -> (String, u64) {
    let cores = SERVICE_CORES + clients;
    let mut s = machine(cores);
    let h = s.spawn_on(CoreId(SERVICE_CORES as u32), async move {
        let fs = make_fs(which).await;
        fs.mkdir("/shared").await.unwrap();
        let t0 = chanos_sim::now();
        let hs: Vec<_> = (0..clients)
            .map(|c| {
                let fs = fs.clone();
                chanos_sim::spawn_on(
                    CoreId((SERVICE_CORES + c) as u32),
                    client_workload(fs, c, rounds),
                )
            })
            .collect();
        let mut total = 0u64;
        for h in hs {
            total += h.join().await.unwrap();
        }
        (total, chanos_sim::now() - t0)
    });
    let out = s.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed, "{which}/{clients} clients");
    let (ops, cycles) = h.try_take().unwrap().unwrap();
    let vnodes = s.stats().counter("msgfs.vnode_threads_spawned");
    (ops_per_mcycle(ops, cycles), vnodes)
}

/// Runs E4.
pub fn run(quick: bool) -> Vec<Table> {
    let client_counts: &[usize] = if quick {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 24]
    };
    let mut t = Table::new(
        "E4",
        "file-system throughput (ops/Mcycle) vs clients",
        &[
            "clients",
            "biglock",
            "sharded",
            "msgfs",
            "msgfs vnode threads",
        ],
    );
    for &c in client_counts {
        let (big, _) = throughput("biglock", c, ROUNDS);
        let (sharded, _) = throughput("sharded", c, ROUNDS);
        let (msg, vnodes) = throughput("msgfs", c, ROUNDS);
        t.row(vec![c.to_string(), big, sharded, msg, vnodes.to_string()]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_msgfs_scales_past_biglock() {
        let tables = super::run(true);
        let t = &tables[0];
        let get = |row: usize, col: usize| -> f64 { t.rows[row][col].parse().unwrap() };
        let last = t.rows.len() - 1;
        // At the highest client count, the message FS must beat the
        // big lock.
        let big = get(last, 1);
        let msg = get(last, 3);
        assert!(
            msg > big,
            "at max clients msgfs ({msg}) should beat biglock ({big})"
        );
        // And the big lock must not scale: its throughput at max
        // clients is below 2.5x its single-client number while msgfs
        // grows by more.
        let big_gain = get(last, 1) / get(0, 1);
        let msg_gain = get(last, 3) / get(0, 3);
        assert!(
            msg_gain > big_gain,
            "msgfs should scale better: {msg_gain:.2}x vs {big_gain:.2}x"
        );
    }
}
