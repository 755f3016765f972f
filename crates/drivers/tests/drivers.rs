//! Integration tests for device models and the three driver designs.

use chanos_drivers::{
    install_disk, install_nic, read_with_timeout, spawn_disk_driver, spawn_locked_disk_driver,
    spawn_nic_driver, spawn_racy_disk_driver, spawn_tty_driver, write_with_timeout, DiskError,
    DiskParams, NicParams, BLOCK_SIZE,
};
use chanos_sim::{Config, CoreId, Simulation};

fn sim(cores: usize) -> Simulation {
    Simulation::with_config(Config {
        cores,
        ctx_switch: 0,
        ..Config::default()
    })
}

fn block_of(byte: u8) -> Vec<u8> {
    vec![byte; BLOCK_SIZE]
}

#[test]
fn single_driver_write_read_roundtrip() {
    let mut s = sim(2);
    let dev = s.add_device_core();
    let got = s
        .block_on(async move {
            let (hw, irq) = install_disk(128, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(1));
            disk.write(5, block_of(0xAB)).await.unwrap();
            disk.read(5, 1).await.unwrap()
        })
        .unwrap();
    assert_eq!(got.len(), BLOCK_SIZE);
    assert!(got.iter().all(|&b| b == 0xAB));
}

#[test]
fn disk_latency_includes_base_cost() {
    let mut s = sim(2);
    let dev = s.add_device_core();
    let elapsed = s
        .block_on(async move {
            let params = DiskParams::default();
            let base = params.base;
            let (hw, irq) = install_disk(16, params, dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(1));
            let t0 = chanos_sim::now();
            disk.read(0, 1).await.unwrap();
            (chanos_sim::now() - t0, base)
        })
        .unwrap();
    assert!(
        elapsed.0 >= elapsed.1,
        "read took {} but device base cost is {}",
        elapsed.0,
        elapsed.1
    );
}

#[test]
fn out_of_range_is_reported() {
    let mut s = sim(2);
    let dev = s.add_device_core();
    let got = s
        .block_on(async move {
            let (hw, irq) = install_disk(8, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(1));
            disk.read(7, 4).await
        })
        .unwrap();
    assert_eq!(got, Err(DiskError::OutOfRange));
}

/// Runs `script` against a disk of `blocks` blocks behind the
/// single-thread driver, block `i` filled with `i + 1`, and returns
/// its result with how many read commands, merged parts and modeled
/// cycles it cost.
fn on_patterned_disk<T, F, Fut>(blocks: u64, script: F) -> (T, u64, u64, u64)
where
    T: Send + 'static,
    F: FnOnce(chanos_drivers::DiskClient) -> Fut + Send + 'static,
    Fut: std::future::Future<Output = T> + Send,
{
    let mut s = sim(3);
    let dev = s.add_device_core();
    s.block_on(async move {
        let (hw, irq) = install_disk(blocks, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw, irq, CoreId(1));
        let image: Vec<u8> = (0..blocks).flat_map(|i| block_of(i as u8 + 1)).collect();
        disk.write(0, image).await.unwrap();
        let reads0 = chanos_sim::stat_get("disk.reads");
        let merged0 = chanos_sim::stat_get("driver.reads_merged");
        let t0 = chanos_sim::now();
        let out = script(disk).await;
        (
            out,
            chanos_sim::stat_get("disk.reads") - reads0,
            chanos_sim::stat_get("driver.reads_merged") - merged0,
            chanos_sim::now() - t0,
        )
    })
    .unwrap()
}

#[test]
fn adjacent_reads_of_one_burst_are_one_command() {
    let lbas = [5u64, 2, 7, 0, 3, 6, 1, 4];
    let (got, reads, merged, cycles) =
        on_patterned_disk(16, move |disk| async move { disk.read_batch(&lbas).await });
    for (lba, block) in lbas.iter().zip(got) {
        assert_eq!(block.unwrap(), block_of(*lba as u8 + 1), "lba {lba}");
    }
    assert_eq!(reads, 1, "eight adjacent blocks are one device command");
    assert_eq!(merged, 7);
    // One command: four register writes and GO, one base, eight
    // blocks of transfer (eight commands would be eight of each);
    // the other 282 cycles are the burst's channel hops.
    let p = DiskParams::default();
    let device = 5 * p.mmio_write + p.base + 8 * p.per_block;
    assert_eq!(cycles, device + 282);
}

/// The widest hole the driver reads through on `p`: `h` blocks of
/// transfer must cost less than a command's base and its five
/// register writes.
fn hole_limit(p: &DiskParams) -> u64 {
    (0..)
        .take_while(|h| h * p.per_block < p.base + 5 * p.mmio_write)
        .last()
        .unwrap()
}

/// `driver.hole_blocks_read` so far.
fn hole_blocks() -> u64 {
    chanos_sim::stat_get("driver.hole_blocks_read")
}

#[test]
fn a_hole_cheaper_than_a_command_is_read_through() {
    let lbas = [0u64, 1, 3, 4];
    let ((got, hole), reads, merged, cycles) = on_patterned_disk(16, move |disk| async move {
        let hole0 = hole_blocks();
        let got = disk.read_batch(&lbas).await;
        (got, hole_blocks() - hole0)
    });
    for (lba, block) in lbas.iter().zip(got) {
        assert_eq!(block.unwrap(), block_of(*lba as u8 + 1), "lba {lba}");
    }
    assert_eq!((reads, merged), (1, 3), "blocks 0-4 are one command");
    assert_eq!(hole, 1, "block 2 was read for nobody");
    // One command: four register writes and GO, one base, five blocks
    // of transfer (two commands would cost a second base and GO); the
    // other 282 cycles are the burst's channel hops.
    let p = DiskParams::default();
    let device = 5 * p.mmio_write + p.base + 5 * p.per_block;
    assert_eq!(cycles, device + 282);
}

#[test]
fn a_hole_dearer_than_a_command_splits_the_run() {
    let p = DiskParams::default();
    let limit = hole_limit(&p);
    assert_eq!(limit, 12, "the default device reads through 12 blocks");
    for (hole, commands) in [(limit, 1), (limit + 1, 2)] {
        let lbas = [0u64, 1 + hole];
        let (got, reads, merged, _) =
            on_patterned_disk(32, move |disk| async move { disk.read_batch(&lbas).await });
        for (lba, block) in lbas.iter().zip(got) {
            assert_eq!(block.unwrap(), block_of(*lba as u8 + 1), "lba {lba}");
        }
        assert_eq!((reads, merged), (commands, 2 - commands), "hole {hole}");
    }
}

#[test]
fn overlapping_reads_are_one_command() {
    let extents = [(2u64, 4u32), (2, 4), (3, 1)];
    let ((got, hole), reads, merged, _) = on_patterned_disk(16, move |disk| async move {
        let hole0 = hole_blocks();
        let got = disk.read_extents(&extents).await;
        (got, hole_blocks() - hole0)
    });
    for ((lba, count), bytes) in extents.iter().zip(got) {
        let want: Vec<u8> = (*lba..lba + u64::from(*count))
            .flat_map(|b| block_of(b as u8 + 1))
            .collect();
        assert_eq!(bytes.unwrap(), want, "extent at {lba}");
    }
    assert_eq!((reads, merged, hole), (1, 2, 0));
}

#[test]
fn a_run_that_straddles_the_head_is_one_command() {
    let lbas = [2u64, 3, 4, 5];
    let (got, reads, merged, _) = on_patterned_disk(16, move |disk| async move {
        // Leave the head at block 4, inside the run asked for next.
        disk.read(4, 1).await.unwrap();
        disk.read_batch(&lbas).await
    });
    for (lba, block) in lbas.iter().zip(got) {
        assert_eq!(block.unwrap(), block_of(*lba as u8 + 1), "lba {lba}");
    }
    // The head's own read, then blocks 2-5 as one: a sweep starting at
    // the head would have left 4-5 first and come back for 2-3.
    assert_eq!((reads, merged), (2, 3));
}

#[test]
fn nothing_merges_across_a_write_in_a_hole() {
    use chanos_drivers::DiskReq;
    let ((got, burst_reads), reads, merged, _) = on_patterned_disk(16, |disk| async move {
        // One burst, and no hazard: the write overlaps neither read,
        // so the queue is sorted and the write sits in the hole
        // between them.
        let reads0 = chanos_sim::stat_get("disk.reads");
        let port = disk.port();
        let read = |lba| {
            port.call(move |reply| DiskReq::Read {
                lba,
                count: 1,
                reply,
            })
        };
        let r0 = read(0);
        let w2 = port.call(|reply| DiskReq::Write {
            lba: 2,
            data: block_of(0xEE),
            reply,
        });
        let r4 = read(4);
        w2.await.unwrap().unwrap();
        let got = [r0.await, r4.await].map(|r| r.unwrap().unwrap());
        let burst_reads = chanos_sim::stat_get("disk.reads") - reads0;
        (
            [
                got[0].clone(),
                got[1].clone(),
                disk.read(2, 1).await.unwrap(),
            ],
            burst_reads,
        )
    });
    assert_eq!(got[0], block_of(1));
    assert_eq!(got[1], block_of(5));
    assert_eq!(
        got[2],
        block_of(0xEE),
        "a read after the burst sees the write"
    );
    assert_eq!(
        (burst_reads, merged),
        (2, 0),
        "blocks 0 and 4 are two commands, not one read through the write"
    );
    assert_eq!(reads, 3);
}

#[test]
fn nothing_merges_across_a_write() {
    use chanos_drivers::DiskReq;
    let (got, reads, merged, _) = on_patterned_disk(16, |disk| async move {
        // One burst, in this order; the write overlaps the read
        // behind it, so the queue keeps arrival order.
        let port = disk.port();
        let read = |lba| {
            port.call(move |reply| DiskReq::Read {
                lba,
                count: 1,
                reply,
            })
        };
        let r0 = read(0);
        let w1 = port.call(|reply| DiskReq::Write {
            lba: 1,
            data: block_of(0xEE),
            reply,
        });
        let r1 = read(1);
        let r2 = read(2);
        w1.await.unwrap().unwrap();
        [r0.await, r1.await, r2.await].map(|r| r.unwrap().unwrap())
    });
    assert_eq!(got[0], block_of(1));
    assert_eq!(got[1], block_of(0xEE), "the read behind the write sees it");
    assert_eq!(got[2], block_of(3));
    // Block 0 alone, then the write, then blocks 1-2 as one command;
    // without the write all three would have been one.
    assert_eq!((reads, merged), (2, 1));
}

#[test]
fn a_read_past_the_end_does_not_fail_its_neighbours() {
    let lbas = [5u64, 6, 7, 8];
    let (got, reads, _, _) =
        on_patterned_disk(8, move |disk| async move { disk.read_batch(&lbas).await });
    for (lba, block) in [5u8, 6, 7].iter().zip(&got) {
        assert_eq!(block.as_ref().unwrap(), &block_of(lba + 1), "lba {lba}");
    }
    assert_eq!(got[3], Err(DiskError::OutOfRange));
    assert_eq!(reads, 1, "the bad request never reached the device");
}

#[test]
fn single_driver_serves_many_clients_without_clobbers() {
    let mut s = sim(8);
    let dev = s.add_device_core();
    let ok = s
        .block_on(async move {
            let (hw, irq) = install_disk(256, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(0));
            let hs: Vec<_> = (0..6)
                .map(|c| {
                    let disk = disk.clone();
                    chanos_sim::spawn_on(CoreId(c + 1), async move {
                        for i in 0..10u64 {
                            let lba = u64::from(c) * 32 + i;
                            let pat = (lba % 251) as u8;
                            disk.write(lba, block_of(pat)).await.unwrap();
                            let back = disk.read(lba, 1).await.unwrap();
                            assert!(back.iter().all(|&b| b == pat), "lba {lba} corrupted");
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().await.unwrap();
            }
            true
        })
        .unwrap();
    assert!(ok);
    let st = s.stats();
    assert_eq!(st.counter("disk.clobbered_commands"), 0);
    assert_eq!(st.counter("driver.tag_mismatches"), 0);
}

#[test]
fn locked_driver_is_also_correct() {
    let mut s = sim(8);
    let dev = s.add_device_core();
    s.block_on(async move {
        let (hw, irq) = install_disk(256, DiskParams::default(), dev);
        let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
        let disk = spawn_locked_disk_driver(hw, irq, 4, &cores);
        // Let the bootstrap task spawn workers.
        chanos_sim::sleep(1_000).await;
        let hs: Vec<_> = (0..4)
            .map(|c| {
                let disk = disk.clone();
                chanos_sim::spawn_on(CoreId(c + 4), async move {
                    for i in 0..8u64 {
                        let lba = u64::from(c) * 16 + i;
                        let pat = (lba % 249) as u8 + 1;
                        disk.write(lba, block_of(pat)).await.unwrap();
                        let back = disk.read(lba, 1).await.unwrap();
                        assert!(back.iter().all(|&b| b == pat), "lba {lba} corrupted");
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().await.unwrap();
        }
    })
    .unwrap();
    let st = s.stats();
    assert_eq!(st.counter("disk.clobbered_commands"), 0);
    assert_eq!(st.counter("driver.tag_mismatches"), 0);
}

#[test]
fn racy_driver_corrupts_under_load() {
    let mut s = sim(8);
    let dev = s.add_device_core();
    let (completed, failed) = s
        .block_on(async move {
            let (hw, irq) = install_disk(4096, DiskParams::default(), dev);
            let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
            let disk = spawn_racy_disk_driver(hw, irq, 4, &cores);
            let mut handles = Vec::new();
            for c in 0..4u32 {
                let disk = disk.clone();
                handles.push(chanos_sim::spawn_on(CoreId(c + 4), async move {
                    let mut done = 0u32;
                    let mut bad = 0u32;
                    for i in 0..20u64 {
                        let lba = u64::from(c) * 64 + i;
                        match write_with_timeout(&disk, lba, block_of(7), 3_000_000).await {
                            Some(Ok(())) => {}
                            _ => {
                                bad += 1;
                                continue;
                            }
                        }
                        match read_with_timeout(&disk, lba, 1, 3_000_000).await {
                            Some(Ok(data)) if data.iter().all(|&b| b == 7) => done += 1,
                            _ => bad += 1,
                        }
                    }
                    (done, bad)
                }));
            }
            let mut done = 0;
            let mut bad = 0;
            for h in handles {
                let (d, b) = h.join().await.unwrap();
                done += d;
                bad += b;
            }
            (done, bad)
        })
        .unwrap();
    let st = s.stats();
    let damage = st.counter("disk.clobbered_commands")
        + st.counter("driver.tag_mismatches")
        + st.counter("driver.request_timeouts");
    assert!(
        damage > 0,
        "the racy driver should misbehave under concurrent load \
         (completed={completed}, failed={failed})"
    );
}

#[test]
fn nic_delivers_packets_and_counts_drops() {
    let mut s = sim(2);
    let dev = s.add_device_core();
    let received = s
        .block_on(async move {
            let rx_ring = install_nic(
                NicParams {
                    mean_interarrival: 1_000,
                    rx_ring: 4,
                    rx_total: 200,
                    ..NicParams::default()
                },
                dev,
            );
            let (_tx, stack) = spawn_nic_driver(rx_ring, 2_000, CoreId(1));
            let mut got = 0u32;
            while got < 50 {
                if stack.recv().await.is_err() {
                    break;
                }
                got += 1;
            }
            got
        })
        .unwrap();
    assert_eq!(received, 50);
    assert!(s.stats().counter("nic.rx_packets") >= 50);
}

#[test]
fn nic_tx_completes() {
    let mut s = sim(2);
    let dev = s.add_device_core();
    s.block_on(async move {
        let rx_ring = install_nic(
            NicParams {
                rx_total: 1,
                ..NicParams::default()
            },
            dev,
        );
        let (tx, _stack) = spawn_nic_driver(rx_ring, 1_000, CoreId(1));
        let t0 = chanos_sim::now();
        tx.call(|reply| chanos_drivers::TxReq {
            packet: chanos_drivers::Packet { id: 1, bytes: 100 },
            reply,
        })
        .await
        .unwrap();
        assert!(chanos_sim::now() - t0 >= 1_000);
    })
    .unwrap();
}

#[test]
fn tty_writes_drain_at_per_byte_cost() {
    let mut s = sim(2);
    s.block_on(async move {
        let tty = spawn_tty_driver(10, CoreId(1));
        let t0 = chanos_sim::now();
        tty.write("hello chanos\n").await;
        let took = chanos_sim::now() - t0;
        assert!(took >= 130, "13 bytes at 10 cycles each, took {took}");
    })
    .unwrap();
    assert_eq!(s.stats().counter("tty.bytes_written"), 13);
}

#[cfg(target_pointer_width = "64")]
#[test]
fn disk_request_layout_is_pinned() {
    // The simulator charges a message `size_of::<T>()` bytes: a failure
    // here means every modeled number is about to move.
    assert_eq!(std::mem::size_of::<chanos_drivers::DiskReq>(), 56);
}
