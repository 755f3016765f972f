//! The paper's driver architecture: one thread per device (§4).
//!
//! *"Drivers would receive and queue requests from elsewhere in the
//! kernel; the code to process the requests can then be written as
//! simple active procedural code, with no need for further
//! synchronization except to wait for interrupts. This eliminates a
//! fertile source of driver bugs."*
//!
//! The driver below is exactly that: a single task owning the device
//! registers outright, joining its request channel and its interrupt
//! channel with `choose!`. There is no lock and there can be no
//! register-interleaving bug by construction.
//!
//! Owning the whole queue is also what lets it treat the queue as a
//! whole, so the queue, not each caller, decides how many commands a
//! burst costs. A request that does not fit on the device is answered
//! `OutOfRange` when it arrives and never queued. The rest is
//! elevator-sorted, and a sweep never starts inside a run. When the
//! head of the queue is a read, every queued read that follows it,
//! starts at or after its first block and leaves a hole of at most
//! [`DiskHw::read_through_limit`] blocks after the run so far (an
//! overlap is no hole) leaves with it as **one** device command; the
//! completion is cut at each part's offset and scattered to the
//! callers, and the hole's blocks are transferred and dropped
//! (`driver.hole_blocks_read`). Each command pays `DiskParams::base`
//! once, so eight adjacent single-block reads cost one base, not
//! eight, and a hole is read through while that is cheaper than a
//! second command. Writes are never merged and nothing is merged
//! across one, not even a write that sits inside a hole: a write keeps
//! its own command and its place, so the write-hazard rule below and
//! the buffer cache's "two write-backs of one block stay in arrival
//! order" hold exactly as before.

use std::collections::VecDeque;

use chanos_rt::{self as rt, choose, port_channel, Capacity, CoreId, Receiver, ReplyTo};

use crate::disk::{DiskClient, DiskError, DiskHw, DiskIrq, DiskOp, DiskReq, BLOCK_SIZE};

/// How many queued requests the driver drains per wakeup on top of
/// the one its `choose!` arm delivered.
const DRIVER_BATCH: usize = 31;

type ReadReply = ReplyTo<Result<Vec<u8>, DiskError>>;
type WriteReply = ReplyTo<Result<(), DiskError>>;

/// A queued request; `count` is in blocks for either operation.
struct Pending {
    lba: u64,
    count: u32,
    op: PendingOp,
}

enum PendingOp {
    Read(ReadReply),
    Write(Vec<u8>, WriteReply),
}

impl Pending {
    fn is_write(&self) -> bool {
        matches!(self.op, PendingOp::Write(..))
    }

    /// One past the last block the request touches.
    fn end(&self) -> u64 {
        self.lba + u64::from(self.count)
    }
}

/// Who waits for the command the device is working on.
enum Inflight {
    /// A run of reads programmed as one command: each part's offset
    /// into the run and block count, in blocks, and its reply.
    Reads(Vec<(u32, u32, ReadReply)>),
    Write(WriteReply),
}

/// The end of the read run over `[start, end)` once `next` joins it,
/// or `None` if `next` does not join: it must be a read that starts at
/// or after the run's first block and leaves a hole of at most `limit`
/// blocks after the run's end (an overlap leaves none), and the run
/// must still fit the 32-bit count register.
fn joins(start: u64, end: u64, next: &Pending, limit: u64) -> Option<u64> {
    if next.is_write() || next.lba < start || next.lba.saturating_sub(end) > limit {
        return None;
    }
    let end = end.max(next.end());
    u32::try_from(end - start).ok().map(|_| end)
}

/// Queues `req`, or answers it `OutOfRange` at once when it does not
/// fit on a device of `blocks` blocks: such a request is never
/// programmed, so it costs no device command and cannot fail the
/// in-range reads it would otherwise have been merged with.
async fn enqueue(queue: &mut VecDeque<Pending>, blocks: u64, req: DiskReq) {
    let p = match req {
        DiskReq::Read { lba, count, reply } => Pending {
            lba,
            count,
            op: PendingOp::Read(reply),
        },
        DiskReq::Write { lba, data, reply } => Pending {
            lba,
            count: (data.len() / BLOCK_SIZE) as u32,
            op: PendingOp::Write(data, reply),
        },
    };
    let fits = p
        .lba
        .checked_add(u64::from(p.count))
        .is_some_and(|end| end <= blocks);
    if fits {
        queue.push_back(p);
        return;
    }
    match p.op {
        PendingOp::Read(reply) => {
            let _ = reply.send(Err(DiskError::OutOfRange)).await;
        }
        PendingOp::Write(_, reply) => {
            let _ = reply.send(Err(DiskError::OutOfRange)).await;
        }
    }
}

/// Total head travel (in LBAs) to serve `queue` in order, starting
/// from `head` — the same start-LBA seek metric `DiskHw` charges.
fn seek_distance(head: u64, queue: &VecDeque<Pending>) -> u64 {
    let mut at = head;
    let mut dist = 0u64;
    for p in queue {
        dist += at.abs_diff(p.lba);
        at = p.lba;
    }
    dist
}

/// `true` if reordering the queue could change observable results: a
/// write whose block range overlaps any other queued request must
/// keep its arrival-order position.
fn has_write_hazard(queue: &VecDeque<Pending>) -> bool {
    if !queue.iter().any(Pending::is_write) {
        return false;
    }
    for (i, a) in queue.iter().enumerate() {
        for b in queue.iter().skip(i + 1) {
            if !(a.is_write() || b.is_write()) {
                continue;
            }
            if a.lba < b.end() && b.lba < a.end() {
                return true;
            }
        }
    }
    false
}

/// Elevator-sorts the pending queue for the current head position:
/// requests at or past the head in ascending LBA order first, then
/// one sweep back from the start (C-SCAN). The sweep starts where the
/// run holding the first request at or past the head starts, so a run
/// that straddles the head (runs as [`issue`] forms them, `limit` its
/// hole limit) leaves as one command. Skipped when a write hazard
/// demands arrival order. Counted as `disk.bursts_sorted`; the head
/// travel the sort saved over arrival order accumulates in
/// `disk.seek_distance_saved` (same units the seek cost model charges
/// per LBA of travel).
fn elevator_sort(queue: &mut VecDeque<Pending>, head: u64, limit: u64) {
    if queue.len() < 2 || has_write_hazard(queue) {
        return;
    }
    let before = seek_distance(head, queue);
    let sorted = queue.make_contiguous();
    sorted.sort_by_key(|p| p.lba);
    let at_head = sorted.iter().position(|p| p.lba >= head).unwrap_or(0);
    let mut sweep = 0;
    let mut run: Option<(u64, u64)> = None;
    for (i, p) in sorted[..=at_head].iter().enumerate() {
        run = match run.and_then(|(start, end)| Some((start, joins(start, end, p, limit)?))) {
            Some(joined) => Some(joined),
            None => {
                sweep = i;
                (!p.is_write()).then(|| (p.lba, p.end()))
            }
        };
    }
    sorted.rotate_left(sweep);
    let after = seek_distance(head, queue);
    rt::stat_incr("disk.bursts_sorted");
    rt::stat_add("disk.seek_distance_saved", before.saturating_sub(after));
}

/// Programs one command for the head of the queue, `first`. A read
/// takes with it every queued read that follows and [`joins`] the run
/// so far (`driver.reads_merged` counts the parts that rode along,
/// `driver.hole_blocks_read` the blocks read for nobody); the walk
/// stops at the first request that does not, so it never steps over a
/// write.
async fn issue(
    hw: &DiskHw,
    first: Pending,
    queue: &mut VecDeque<Pending>,
    tag: u64,
    limit: u64,
) -> Inflight {
    hw.write_lba(first.lba).await;
    let (start, mut end) = (first.lba, first.end());
    match first.op {
        PendingOp::Read(reply) => {
            let mut hole = 0;
            let mut parts = vec![(0, first.count, reply)];
            while let Some(joined) = queue
                .front()
                .and_then(|next| joins(start, end, next, limit))
            {
                let Some(Pending {
                    lba,
                    count,
                    op: PendingOp::Read(reply),
                }) = queue.pop_front()
                else {
                    unreachable!("a write never joins a run");
                };
                hole += lba.saturating_sub(end);
                end = joined;
                parts.push(((lba - start) as u32, count, reply));
            }
            rt::stat_add("driver.reads_merged", parts.len() as u64 - 1);
            rt::stat_add("driver.hole_blocks_read", hole);
            hw.write_count((end - start) as u32).await;
            hw.write_op(DiskOp::Read).await;
            hw.write_tag(tag).await;
            hw.go().await;
            Inflight::Reads(parts)
        }
        PendingOp::Write(data, reply) => {
            hw.write_count(first.count).await;
            hw.write_op(DiskOp::Write).await;
            hw.write_tag(tag).await;
            hw.write_dma(data).await;
            hw.go().await;
            Inflight::Write(reply)
        }
    }
}

/// Answers whoever waited for the command `irq` completes. A wrong
/// tag or a failed command fails every part of a merged read.
async fn complete(inflight: Inflight, irq: DiskIrq, expect_tag: u64) {
    let status = if irq.tag != expect_tag {
        rt::stat_incr("driver.tag_mismatches");
        Err(DiskError::BadTag)
    } else if irq.ok {
        Ok(())
    } else {
        // Range was checked before the command was queued, so the
        // device refusing it is the store failing.
        Err(DiskError::Io)
    };
    match inflight {
        Inflight::Write(reply) => {
            let _ = reply.send(status).await;
        }
        Inflight::Reads(parts) => {
            if let Err(e) = status {
                for (_, _, reply) in parts {
                    let _ = reply.send(Err(e.clone())).await;
                }
                return;
            }
            // A lone caller gets the DMA buffer itself; a run is cut
            // at each part's offset.
            let alone = parts.len() == 1;
            let mut data = irq.data;
            for (offset, count, reply) in parts {
                let bytes = if alone {
                    std::mem::take(&mut data)
                } else {
                    let at = offset as usize * BLOCK_SIZE;
                    data[at..at + count as usize * BLOCK_SIZE].to_vec()
                };
                let _ = reply.send(Ok(bytes)).await;
            }
        }
    }
}

/// Spawns the single-threaded disk driver on `core`; returns the
/// client handle the rest of the kernel uses.
pub fn spawn_disk_driver(hw: DiskHw, irq_rx: Receiver<DiskIrq>, core: CoreId) -> DiskClient {
    let (port, rx) = port_channel::<DiskReq>(Capacity::Unbounded);
    rt::spawn_daemon_on("disk-driver", core, async move {
        let blocks = hw.blocks();
        let limit = hw.read_through_limit();
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let mut inflight: Option<(u64, Inflight)> = None;
        let mut next_tag: u64 = 1;
        let mut head_lba: u64 = 0;
        let mut burst: Vec<DiskReq> = Vec::with_capacity(DRIVER_BATCH);
        loop {
            choose! {
                req = rx.recv() => {
                    let Ok(req) = req else { break };
                    enqueue(&mut queue, blocks, req).await;
                    rt::stat_incr("driver.requests");
                    // Drain the burst that arrived with it: one
                    // wakeup enqueues the whole backlog.
                    let n = rx.try_recv_many(&mut burst, DRIVER_BATCH);
                    rt::stat_add("driver.requests", n as u64);
                    for r in burst.drain(..) {
                        enqueue(&mut queue, blocks, r).await;
                    }
                    // Batch-aware, not just batch-fed: program the
                    // device in elevator order, not arrival order.
                    elevator_sort(&mut queue, head_lba, limit);
                },
                irq = irq_rx.recv() => {
                    let Ok(irq) = irq else { break };
                    if let Some((tag, waiting)) = inflight.take() {
                        complete(waiting, irq, tag).await;
                    } else {
                        rt::stat_incr("driver.spurious_irqs");
                    }
                },
            }
            // Keep the device fed: one outstanding command.
            if inflight.is_none() {
                if let Some(first) = queue.pop_front() {
                    let tag = next_tag;
                    next_tag += 1;
                    head_lba = first.lba;
                    inflight = Some((tag, issue(&hw, first, &mut queue, tag, limit).await));
                }
            }
        }
    });
    DiskClient::new(port)
}
