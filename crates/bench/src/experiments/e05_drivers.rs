//! E5 — "Give each device driver its own, single, thread … this
//! eliminates a fertile source of driver bugs" (§4).
//!
//! Table comparing the three driver structures under the same
//! concurrent request storm:
//!
//! * throughput and latency — the single-threaded design must be
//!   competitive with the locked multi-threaded one (the hardware
//!   serializes anyway: "most hardware has limited if any ability to
//!   do more than one thing at once");
//! * bugs — the racy driver's clobbered commands, tag mismatches and
//!   timeouts, counted across seeds; the other two must show zero.

use chanos_drivers::{
    install_disk, read_with_timeout, spawn_disk_driver, spawn_locked_disk_driver,
    spawn_racy_disk_driver, write_with_timeout, DiskClient, DiskParams, BLOCK_SIZE,
};
use chanos_sim::{Config, CoreId, Simulation};

use crate::table::{f2, ops_per_mcycle, Table};

const CLIENTS: usize = 4;
const TIMEOUT: u64 = 5_000_000;

fn machine(seed: u64) -> Simulation {
    Simulation::with_config(Config {
        cores: 2 + CLIENTS,
        ctx_switch: 20,
        seed,
    })
}

struct Outcome {
    throughput: String,
    mean_latency: f64,
    damage: u64,
    completed: u64,
}

fn storm(which: &'static str, per: u64, seed: u64) -> Outcome {
    let mut s = machine(seed);
    let dev = s.add_device_core();
    let h = s.spawn_on(CoreId(0), async move {
        let (hw, irq) = install_disk(8192, DiskParams::default(), dev);
        let cores: Vec<CoreId> = vec![CoreId(0), CoreId(1)];
        let disk: DiskClient = match which {
            "single" => spawn_disk_driver(hw, irq, CoreId(0)),
            "locked" => {
                let d = spawn_locked_disk_driver(hw, irq, 4, &cores);
                chanos_sim::sleep(1_000).await; // Let workers boot.
                d
            }
            _ => spawn_racy_disk_driver(hw, irq, 4, &cores),
        };
        let t0 = chanos_sim::now();
        let hs: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let disk = disk.clone();
                chanos_sim::spawn_on(CoreId((2 + c) as u32), async move {
                    let mut completed = 0u64;
                    let mut latency_sum = 0u64;
                    for i in 0..per {
                        let lba = (c as u64) * 512 + i * 3;
                        let pat = (lba % 250) as u8 + 1;
                        let w0 = chanos_sim::now();
                        let ok = matches!(
                            write_with_timeout(&disk, lba, vec![pat; BLOCK_SIZE], TIMEOUT).await,
                            Some(Ok(()))
                        );
                        if !ok {
                            continue;
                        }
                        match read_with_timeout(&disk, lba, 1, TIMEOUT).await {
                            Some(Ok(data)) if data.iter().all(|&b| b == pat) => {
                                completed += 1;
                                latency_sum += chanos_sim::now() - w0;
                            }
                            _ => {}
                        }
                    }
                    (completed, latency_sum)
                })
            })
            .collect();
        let mut completed = 0u64;
        let mut latency_sum = 0u64;
        for h in hs {
            let (c, l) = h.join().await.unwrap();
            completed += c;
            latency_sum += l;
        }
        (completed, latency_sum, chanos_sim::now() - t0)
    });
    let out = s.run_until_idle();
    assert!(matches!(out.end, chanos_sim::RunEnd::Completed));
    let (completed, latency_sum, cycles) = h.try_take().unwrap().unwrap();
    let st = s.stats();
    Outcome {
        throughput: ops_per_mcycle(completed, cycles),
        mean_latency: if completed == 0 {
            f64::INFINITY
        } else {
            latency_sum as f64 / completed as f64
        },
        damage: st.counter("disk.clobbered_commands")
            + st.counter("driver.tag_mismatches")
            + st.counter("driver.request_timeouts"),
        completed,
    }
}

/// Runs E5.
pub fn run(quick: bool) -> Vec<Table> {
    let per: u64 = if quick { 10 } else { 30 };
    let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let mut t = Table::new(
        "E5",
        "driver structure under concurrent load (summed over seeds)",
        &[
            "driver",
            "ops/Mcycle (seed 1)",
            "mean latency (cycles)",
            "completed",
            "expected",
            "bugs observed",
        ],
    );
    for which in ["single", "locked", "racy"] {
        let mut damage = 0u64;
        let mut completed = 0u64;
        let mut first: Option<Outcome> = None;
        for &seed in seeds {
            let o = storm(which, per, seed);
            damage += o.damage;
            completed += o.completed;
            if first.is_none() {
                first = Some(o);
            }
        }
        let first = first.expect("at least one seed");
        let expected = per * CLIENTS as u64 * seeds.len() as u64;
        t.row(vec![
            which.to_string(),
            first.throughput.clone(),
            f2(first.mean_latency),
            completed.to_string(),
            expected.to_string(),
            damage.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_only_the_racy_driver_breaks() {
        let tables = super::run(true);
        let t = &tables[0];
        let bugs = |row: usize| -> u64 { t.rows[row][5].parse().unwrap() };
        let completed = |row: usize| -> u64 { t.rows[row][3].parse().unwrap() };
        let expected: u64 = t.rows[0][4].parse().unwrap();
        assert_eq!(bugs(0), 0, "single-threaded driver must be clean");
        assert_eq!(bugs(1), 0, "locked driver must be clean");
        assert!(bugs(2) > 0, "racy driver must misbehave");
        assert_eq!(completed(0), expected);
        assert_eq!(completed(1), expected);
    }
}
