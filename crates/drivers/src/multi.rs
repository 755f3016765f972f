//! Multi-threaded driver baselines: locked (correct but lock-bound)
//! and racy (the "fertile source of driver bugs" of §4).
//!
//! Both spawn `workers` tasks that pull from a shared request channel
//! and program the shared register file. The locked variant wraps the
//! whole program-fire-await-interrupt sequence in a [`SimMutex`]; the
//! racy variant omits the lock, exactly reproducing the classic driver
//! bug: register writes from two requests interleave across await
//! points, commands get clobbered or mis-tagged, and completions go
//! missing. Experiment E5 counts the damage.

use chanos_rt::{self as rt, port_channel, Capacity, CoreId, Receiver};
use chanos_shmem::SimMutex;

use crate::disk::{DiskClient, DiskError, DiskHw, DiskIrq, DiskOp, DiskReq};

async fn program_and_fire(hw: &DiskHw, req: &DiskReq, tag: u64) {
    match req {
        DiskReq::Read { lba, count, .. } => {
            hw.write_lba(*lba).await;
            hw.write_count(*count).await;
            hw.write_op(DiskOp::Read).await;
            hw.write_tag(tag).await;
            hw.go().await;
        }
        DiskReq::Write { lba, data, .. } => {
            hw.write_lba(*lba).await;
            hw.write_count((data.len() / crate::disk::BLOCK_SIZE) as u32)
                .await;
            hw.write_op(DiskOp::Write).await;
            hw.write_tag(tag).await;
            hw.write_dma(data.clone()).await;
            hw.go().await;
        }
    }
}

async fn finish(req: DiskReq, irq: DiskIrq, expect_tag: u64) {
    let tag_ok = irq.tag == expect_tag;
    if !tag_ok {
        rt::stat_incr("driver.tag_mismatches");
    }
    match req {
        DiskReq::Read { reply, .. } => {
            let r = if !tag_ok {
                Err(DiskError::BadTag)
            } else if irq.ok {
                Ok(irq.data)
            } else {
                Err(DiskError::OutOfRange)
            };
            let _ = reply.send(r).await;
        }
        DiskReq::Write { reply, .. } => {
            let r = if !tag_ok {
                Err(DiskError::BadTag)
            } else if irq.ok {
                Ok(())
            } else {
                Err(DiskError::OutOfRange)
            };
            let _ = reply.send(r).await;
        }
    }
}

/// Spawns a conventionally-locked multi-threaded disk driver.
///
/// Each worker holds a global driver mutex across the entire
/// program/fire/interrupt sequence. Correct, but the lock serializes
/// everything the single-threaded design serialized for free — plus
/// its coherence costs.
pub fn spawn_locked_disk_driver(
    hw: DiskHw,
    irq_rx: Receiver<DiskIrq>,
    workers: usize,
    cores: &[CoreId],
) -> DiskClient {
    let (port, rx) = port_channel::<DiskReq>(Capacity::Unbounded);
    // The mutex must be created inside the simulation; do it in a
    // bootstrap task that then spawns the workers.
    let boot_cores: Vec<CoreId> = cores.to_vec();
    rt::spawn_daemon_on("disk-driver-boot", boot_cores[0], async move {
        let lock = SimMutex::new(());
        let mut next_tag: u64 = 1 << 32;
        for w in 0..workers {
            let rx = rx.clone();
            let irq_rx = irq_rx.clone();
            let hw = hw.clone();
            let lock = lock.clone();
            let core = boot_cores[w % boot_cores.len()];
            let tag_base = next_tag;
            next_tag += 1 << 20;
            rt::spawn_daemon_on(&format!("disk-worker{w}"), core, async move {
                let mut tag = tag_base;
                while let Ok(req) = rx.recv().await {
                    tag += 1;
                    let guard = lock.lock().await;
                    program_and_fire(&hw, &req, tag).await;
                    let irq = irq_rx.recv().await;
                    drop(guard);
                    let Ok(irq) = irq else { break };
                    finish(req, irq, tag).await;
                }
            });
        }
    });
    DiskClient::new(port)
}

/// Spawns the racy multi-threaded disk driver: identical to the
/// locked driver with the lock deleted.
///
/// Under concurrent load, register programming from different workers
/// interleaves (each MMIO write is an await point), commands clobber
/// each other, and workers steal each other's completions. This is
/// the bug class §4 eliminates by construction.
pub fn spawn_racy_disk_driver(
    hw: DiskHw,
    irq_rx: Receiver<DiskIrq>,
    workers: usize,
    cores: &[CoreId],
) -> DiskClient {
    let (port, rx) = port_channel::<DiskReq>(Capacity::Unbounded);
    for w in 0..workers {
        let rx = rx.clone();
        let irq_rx = irq_rx.clone();
        let hw = hw.clone();
        let core = cores[w % cores.len()];
        let tag_base = (w as u64 + 1) << 40;
        rt::spawn_daemon_on(&format!("disk-racy-worker{w}"), core, async move {
            let mut tag = tag_base;
            while let Ok(req) = rx.recv().await {
                tag += 1;
                // BUG (deliberate): no mutual exclusion around the
                // device registers.
                program_and_fire(&hw, &req, tag).await;
                let Ok(irq) = irq_rx.recv().await else { break };
                finish(req, irq, tag).await;
            }
        });
    }
    DiskClient::new(port)
}

/// A disk client wrapper that gives up on a request after `timeout`
/// cycles — needed to survive the racy driver's lost completions.
/// The deadline rides inside the call itself ([`Port::call_timeout`]);
/// no `choose!`+`after` scaffolding.
///
/// [`Port::call_timeout`]: chanos_rt::Port::call_timeout
pub async fn read_with_timeout(
    client: &DiskClient,
    lba: u64,
    count: u32,
    timeout: u64,
) -> Option<Result<Vec<u8>, DiskError>> {
    let call = client
        .port()
        .call_timeout(timeout, move |reply| DiskReq::Read { lba, count, reply });
    match call.await {
        Err(rt::CallError::TimedOut) => {
            rt::stat_incr("driver.request_timeouts");
            None
        }
        Err(e) => Some(Err(e.into())),
        Ok(r) => Some(r),
    }
}

/// Like [`read_with_timeout`], for writes.
pub async fn write_with_timeout(
    client: &DiskClient,
    lba: u64,
    data: Vec<u8>,
    timeout: u64,
) -> Option<Result<(), DiskError>> {
    let call = client
        .port()
        .call_timeout(timeout, move |reply| DiskReq::Write { lba, data, reply });
    match call.await {
        Err(rt::CallError::TimedOut) => {
            rt::stat_incr("driver.request_timeouts");
            None
        }
        Err(e) => Some(Err(e.into())),
        Ok(r) => Some(r),
    }
}
