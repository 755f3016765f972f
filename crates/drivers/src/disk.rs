//! The disk device model: a block device with seek/transfer latency,
//! a register-file programming interface, and interrupt completion.
//!
//! The register interface is deliberately a *multi-step* MMIO
//! protocol (LBA, count, DMA buffer, GO), each step taking time. A
//! correctly structured driver — the paper's single driver thread
//! (§4) — serializes programming trivially. A carelessly locked or
//! unlocked multi-threaded driver can interleave register writes from
//! two requests, which the device punishes exactly like real hardware:
//! the GO snapshot mixes fields, and a GO while busy clobbers the
//! in-flight command (experiment E5 counts these).
//!
//! A command transfers `count` blocks and costs `DiskParams::base`
//! once plus `per_block` for each, so the fixed cost is per command,
//! not per block — which is why the single-thread driver folds queued
//! reads into one command, reading through any hole cheaper than a
//! command ([`DiskHw::read_through_limit`]), and [`DiskClient`] lets a
//! caller ask for whole extents ([`DiskClient::read_extents`]). The
//! device reports failure as `ok: false` and nothing more; the driver
//! checks range itself before it queues a request, so what it reports
//! for a failed command is [`DiskError::Io`].
//!
//! Behind the register file sit two block stores, selected by the
//! ambient runtime backend ([`install_disk`]): the simulator keeps the
//! deterministic in-memory store with modeled seek/transfer latency,
//! while the real-threads backend does **real I/O** — `pread`/`pwrite`
//! against a sparse image file — so a kernel booted on OS threads
//! drives boot → MsgFs → driver → file end-to-end (`disk.file_*`
//! counters prove it).

use std::sync::{Arc, Mutex};

use chanos_rt::{self as rt, channel, delay, plock, sleep, Capacity, Receiver, Sender};
use chanos_rt::{CoreId, Cycles};

/// Size of one disk block, in bytes.
pub const BLOCK_SIZE: usize = 4096;

/// Latency parameters of the disk model (cycles; 1 cycle ~ 1ns).
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Fixed cost of any command (controller + flash lookup).
    pub base: Cycles,
    /// Extra cost per block transferred.
    pub per_block: Cycles,
    /// Extra cost proportional to LBA distance from the previous
    /// command (a light seek model; ~0 for SSDs).
    pub seek_per_1k_lba: Cycles,
    /// Cost of one MMIO register write from the driver.
    pub mmio_write: Cycles,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            base: 25_000,
            per_block: 2_000,
            seek_per_1k_lba: 100,
            mmio_write: 200,
        }
    }
}

/// Errors reported by the disk stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// LBA or length outside the device.
    OutOfRange,
    /// An in-range command failed: the block store behind the device
    /// reported a real I/O error (`disk.io_errors`).
    Io,
    /// The device or driver went away.
    Gone,
    /// Completion carried the wrong tag (a symptom of driver races).
    BadTag,
}

impl From<chanos_rt::CallError> for DiskError {
    fn from(_: chanos_rt::CallError) -> Self {
        DiskError::Gone
    }
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::OutOfRange => write!(f, "block address out of range"),
            DiskError::Io => write!(f, "device I/O error"),
            DiskError::Gone => write!(f, "device unavailable"),
            DiskError::BadTag => write!(f, "completion tag mismatch"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Operation code in the command register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Read `count` blocks starting at `lba`.
    Read,
    /// Write the DMA buffer to `count` blocks starting at `lba`.
    Write,
}

/// A completion interrupt from the device.
#[derive(Debug)]
pub struct DiskIrq {
    /// Tag from the command's snapshot of the tag register.
    pub tag: u64,
    /// Data read (for reads), empty for writes.
    pub data: Vec<u8>,
    /// Whether the command succeeded.
    pub ok: bool,
}

#[derive(Debug, Clone)]
struct Regs {
    lba: u64,
    count: u32,
    op: DiskOp,
    tag: u64,
    dma: Vec<u8>,
}

/// Names a fresh sparse image in the system temp directory.
#[cfg(unix)]
fn fresh_image_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("chanos-disk-{}-{}.img", std::process::id(), seq))
}

/// A real file behind the register protocol; the image is sparse
/// (`set_len`, no data written) and removed on drop. The handle is
/// shared (`Arc`) so commands can do their positional I/O *outside*
/// the device-state lock.
struct FileStore {
    file: Arc<std::fs::File>,
    path: std::path::PathBuf,
}

impl Drop for FileStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The in-memory store is sparse, like the image file: a block takes
/// memory once it has been written and reads as zeros until then. One
/// contiguous buffer for the whole device would have to find a hole
/// of its size in the heap every time a disk is installed.
enum Store {
    Mem(Vec<Option<Box<[u8]>>>),
    #[cfg(unix)]
    File(FileStore),
}

/// Copies `count` blocks starting at `lba` out of the sparse store.
fn mem_read(store: &[Option<Box<[u8]>>], lba: usize, count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(count * BLOCK_SIZE);
    for block in &store[lba..lba + count] {
        match block {
            Some(bytes) => out.extend_from_slice(bytes),
            None => out.resize(out.len() + BLOCK_SIZE, 0),
        }
    }
    out
}

/// Copies `data` into the sparse store starting at block `lba`; a
/// short tail leaves the rest of its block as it was.
fn mem_write(store: &mut [Option<Box<[u8]>>], lba: usize, data: &[u8]) {
    for (block, chunk) in store[lba..].iter_mut().zip(data.chunks(BLOCK_SIZE)) {
        let bytes = block.get_or_insert_with(|| vec![0; BLOCK_SIZE].into_boxed_slice());
        bytes[..chunk.len()].copy_from_slice(chunk);
    }
}

impl Store {
    /// The store of the ambient backend: memory behind the latency
    /// model on the simulator, a sparse image file on real threads —
    /// commands do real positional reads and writes and pay real I/O
    /// time instead of the model's.
    fn new(blocks: u64) -> Store {
        // chanos-lint: allow — choosing the device is the one thing a
        // driver may ask the backend: the simulator models a disk, real
        // threads have a real file.
        #[cfg(unix)]
        if rt::backend() == rt::Backend::Threads {
            let path = fresh_image_path();
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .expect("create disk image");
            file.set_len(blocks * BLOCK_SIZE as u64)
                .expect("size disk image");
            return Store::File(FileStore {
                file: Arc::new(file),
                path,
            });
        }
        Store::Mem(vec![None; blocks as usize])
    }

    /// The backing file handle, if file-backed.
    fn file(&self) -> Option<Arc<std::fs::File>> {
        match self {
            Store::Mem(_) => None,
            #[cfg(unix)]
            Store::File(fs) => Some(Arc::clone(&fs.file)),
        }
    }
}

/// Reads `len` bytes at `start` from the image; `None` on a real-I/O
/// error. `count` charges the `disk.file_*` counters (debug peeks
/// skip them so they only measure commands).
#[cfg(unix)]
fn file_read(file: &std::fs::File, start: usize, len: usize, count: bool) -> Option<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let mut buf = vec![0u8; len];
    match file.read_exact_at(&mut buf, start as u64) {
        Ok(()) => {
            if count {
                rt::stat_incr("disk.file_reads");
                rt::stat_add("disk.file_bytes_read", len as u64);
            }
            Some(buf)
        }
        Err(_) => {
            rt::stat_incr("disk.io_errors");
            None
        }
    }
}

#[cfg(not(unix))]
fn file_read(_: &std::fs::File, _: usize, _: usize, _: bool) -> Option<Vec<u8>> {
    unreachable!("file backing exists only on unix")
}

/// Writes `data` at `start` into the image; `false` on a real-I/O
/// error.
#[cfg(unix)]
fn file_write(file: &std::fs::File, start: usize, data: &[u8]) -> bool {
    use std::os::unix::fs::FileExt;
    match file.write_all_at(data, start as u64) {
        Ok(()) => {
            rt::stat_incr("disk.file_writes");
            rt::stat_add("disk.file_bytes_written", data.len() as u64);
            true
        }
        Err(_) => {
            rt::stat_incr("disk.io_errors");
            false
        }
    }
}

#[cfg(not(unix))]
fn file_write(_: &std::fs::File, _: usize, _: &[u8]) -> bool {
    unreachable!("file backing exists only on unix")
}

struct DeviceState {
    store: Store,
    blocks: u64,
    regs: Regs,
    /// In-flight command generation; a GO while busy bumps it,
    /// aborting the previous command.
    generation: u64,
    busy: bool,
    head_lba: u64,
}

/// Handle to the disk hardware: the register file plus the interrupt
/// line. Cloneable so multiple (buggy) driver threads can share it.
pub struct DiskHw {
    params: Arc<DiskParams>,
    state: Arc<Mutex<DeviceState>>,
    irq_tx: Sender<DiskIrq>,
    dev_core: CoreId,
}

impl Clone for DiskHw {
    fn clone(&self) -> Self {
        DiskHw {
            params: self.params.clone(),
            state: self.state.clone(),
            irq_tx: self.irq_tx.clone(),
            dev_core: self.dev_core,
        }
    }
}

/// Creates a disk of `blocks` blocks and returns the hardware handle
/// plus the interrupt receive channel.
///
/// The block store is selected by the ambient runtime backend:
/// in-memory + modeled latency on the simulator (deterministic),
/// file-backed real I/O on real threads.
///
/// On the simulator `dev_core` is a device pseudo-core (see
/// `chanos_sim::Simulation::add_device_core`); on threads it maps to
/// a worker pin for the disk engine tasks.
pub fn install_disk(
    blocks: u64,
    params: DiskParams,
    dev_core: CoreId,
) -> (DiskHw, Receiver<DiskIrq>) {
    let (irq_tx, irq_rx) = channel::<DiskIrq>(Capacity::Unbounded);
    let state = Arc::new(Mutex::new(DeviceState {
        store: Store::new(blocks),
        blocks,
        regs: Regs {
            lba: 0,
            count: 0,
            op: DiskOp::Read,
            tag: 0,
            dma: Vec::new(),
        },
        generation: 0,
        busy: false,
        head_lba: 0,
    }));
    (
        DiskHw {
            params: Arc::new(params),
            state,
            irq_tx,
            dev_core,
        },
        irq_rx,
    )
}

impl DiskHw {
    /// Number of blocks on the device.
    pub fn blocks(&self) -> u64 {
        plock(&self.state).blocks
    }

    /// The widest hole, in blocks, that one read command is cheaper
    /// to transfer and drop than a second command is to program: a
    /// hole of `h` blocks costs `h × per_block`, a command `base` plus
    /// its five register writes (LBA, count, op, tag, GO). 12 blocks
    /// on the default parameters.
    pub fn read_through_limit(&self) -> u64 {
        let p = &self.params;
        let command = p.base + 5 * p.mmio_write;
        match p.per_block {
            0 => u64::MAX,
            per_block => command.saturating_sub(1) / per_block,
        }
    }

    /// Programs the LBA register.
    pub async fn write_lba(&self, lba: u64) {
        delay(self.params.mmio_write).await;
        plock(&self.state).regs.lba = lba;
    }

    /// Programs the block-count register.
    pub async fn write_count(&self, count: u32) {
        delay(self.params.mmio_write).await;
        plock(&self.state).regs.count = count;
    }

    /// Programs the operation register.
    pub async fn write_op(&self, op: DiskOp) {
        delay(self.params.mmio_write).await;
        plock(&self.state).regs.op = op;
    }

    /// Programs the completion-tag register.
    pub async fn write_tag(&self, tag: u64) {
        delay(self.params.mmio_write).await;
        plock(&self.state).regs.tag = tag;
    }

    /// Stages the DMA buffer for a write command.
    pub async fn write_dma(&self, data: Vec<u8>) {
        delay(self.params.mmio_write).await;
        plock(&self.state).regs.dma = data;
    }

    /// Fires the command currently in the register file.
    ///
    /// If the device is busy, the in-flight command is **clobbered**
    /// (it will never complete) — the hazard a correct driver must
    /// serialize against.
    pub async fn go(&self) {
        delay(self.params.mmio_write).await;
        let (snapshot, generation) = {
            let mut st = plock(&self.state);
            if st.busy {
                rt::stat_incr("disk.clobbered_commands");
            }
            st.generation += 1;
            st.busy = true;
            (st.regs.clone(), st.generation)
        };
        let hw = self.clone();
        rt::spawn_daemon_on("disk-engine", self.dev_core, async move {
            hw.execute(snapshot, generation).await;
        });
    }

    /// Runs one command to completion on the device core.
    async fn execute(&self, cmd: Regs, generation: u64) {
        let (latency, file, blocks) = {
            let st = plock(&self.state);
            let distance = st.head_lba.abs_diff(cmd.lba);
            let l = self.params.base
                + self.params.per_block * Cycles::from(cmd.count)
                + self.params.seek_per_1k_lba * (distance / 1024);
            (l, st.store.file(), st.blocks)
        };
        if file.is_some() {
            // Real I/O pays real time below; yield once so the engine
            // stays a separate completion step, as on the simulator.
            delay(1).await;
        } else {
            sleep(latency).await;
        }
        let in_range = cmd
            .lba
            .checked_add(Cycles::from(cmd.count))
            .map(|end| end <= blocks)
            .unwrap_or(false);
        let start = (cmd.lba as usize) * BLOCK_SIZE;
        let len = (cmd.count as usize) * BLOCK_SIZE;
        // File backing: the real pread/pwrite runs *outside* the
        // device-state lock — a slow disk must stall this command,
        // not every task touching the register file. A command
        // clobbered while its I/O is in flight may still have hit the
        // platter (as real in-flight DMA would); its IRQ is
        // suppressed by the generation check below.
        let file_irq: Option<DiskIrq> = match &file {
            Some(f) if in_range => Some(match cmd.op {
                DiskOp::Read => match file_read(f, start, len, true) {
                    Some(data) => {
                        rt::stat_incr("disk.reads");
                        DiskIrq {
                            tag: cmd.tag,
                            data,
                            ok: true,
                        }
                    }
                    None => DiskIrq {
                        tag: cmd.tag,
                        data: Vec::new(),
                        ok: false,
                    },
                },
                DiskOp::Write => {
                    let n = cmd.dma.len().min(len);
                    let ok = file_write(f, start, &cmd.dma[..n]);
                    if ok {
                        rt::stat_incr("disk.writes");
                    }
                    DiskIrq {
                        tag: cmd.tag,
                        data: Vec::new(),
                        ok,
                    }
                }
            }),
            _ => None,
        };
        let mut st = plock(&self.state);
        if st.generation != generation {
            // We were clobbered mid-flight; drop silently, as real
            // hardware would.
            return;
        }
        st.busy = false;
        st.head_lba = cmd.lba;
        let irq = if !in_range {
            DiskIrq {
                tag: cmd.tag,
                data: Vec::new(),
                ok: false,
            }
        } else if let Some(irq) = file_irq {
            irq
        } else {
            // Memory store: the transfer is a memcpy under the lock
            // (and the only store the single-threaded simulator uses).
            match cmd.op {
                DiskOp::Read => {
                    let data = match &st.store {
                        Store::Mem(blocks) => {
                            mem_read(blocks, cmd.lba as usize, cmd.count as usize)
                        }
                        #[cfg(unix)]
                        Store::File(_) => unreachable!("file commands handled above"),
                    };
                    rt::stat_incr("disk.reads");
                    DiskIrq {
                        tag: cmd.tag,
                        data,
                        ok: true,
                    }
                }
                DiskOp::Write => {
                    let n = cmd.dma.len().min(len);
                    match &mut st.store {
                        Store::Mem(blocks) => mem_write(blocks, cmd.lba as usize, &cmd.dma[..n]),
                        #[cfg(unix)]
                        Store::File(_) => unreachable!("file commands handled above"),
                    }
                    rt::stat_incr("disk.writes");
                    DiskIrq {
                        tag: cmd.tag,
                        data: Vec::new(),
                        ok: true,
                    }
                }
            }
        };
        drop(st);
        let _ = self.irq_tx.try_send(irq);
    }

    /// Test/debug access to the raw store (no cost model, no
    /// `disk.file_*` counters; file peeks read outside the lock).
    pub fn peek_block(&self, lba: u64) -> Vec<u8> {
        let start = (lba as usize) * BLOCK_SIZE;
        let st = plock(&self.state);
        match &st.store {
            Store::Mem(blocks) => mem_read(blocks, lba as usize, 1),
            #[cfg(unix)]
            Store::File(fs) => {
                let f = Arc::clone(&fs.file);
                drop(st);
                file_read(&f, start, BLOCK_SIZE, false).expect("peek within device")
            }
        }
    }
}

/// A request to the disk driver.
pub enum DiskReq {
    /// Read `count` blocks at `lba`.
    Read {
        /// Starting block address.
        lba: u64,
        /// Number of blocks.
        count: u32,
        /// Where the data goes.
        reply: chanos_rt::ReplyTo<Result<Vec<u8>, DiskError>>,
    },
    /// Write `data` (multiple of [`BLOCK_SIZE`]) at `lba`.
    Write {
        /// Starting block address.
        lba: u64,
        /// Data to write.
        data: Vec<u8>,
        /// Completion notification.
        reply: chanos_rt::ReplyTo<Result<(), DiskError>>,
    },
}

/// A cloneable client handle to a disk driver; requests go through a
/// typed [`chanos_rt::Port`], so callers can also pipeline reads with
/// [`DiskClient::read_extents`].
#[derive(Clone)]
pub struct DiskClient {
    port: chanos_rt::Port<DiskReq>,
}

impl DiskClient {
    /// Wraps the port of a driver's request channel.
    pub fn new(port: chanos_rt::Port<DiskReq>) -> Self {
        DiskClient { port }
    }

    /// Reads `count` blocks starting at `lba`.
    pub async fn read(&self, lba: u64, count: u32) -> Result<Vec<u8>, DiskError> {
        self.port
            .call(|reply| DiskReq::Read { lba, count, reply })
            .await
            .unwrap_or_else(|e| Err(e.into()))
    }

    /// Writes `data` starting at block `lba`.
    pub async fn write(&self, lba: u64, data: Vec<u8>) -> Result<(), DiskError> {
        self.port
            .call(|reply| DiskReq::Write { lba, data, reply })
            .await
            .unwrap_or_else(|e| Err(e.into()))
    }

    /// Pipelines single-block reads; [`DiskClient::read_extents`]
    /// with every count 1.
    pub async fn read_batch(&self, lbas: &[u64]) -> Vec<Result<Vec<u8>, DiskError>> {
        let extents: Vec<(u64, u32)> = lbas.iter().map(|&lba| (lba, 1)).collect();
        self.read_extents(&extents).await
    }

    /// Pipelines reads of `(lba, count)` extents: all requests are
    /// submitted as one burst (one driver wake per burst on real
    /// threads), then completed together. The driver sorts its queue
    /// and programs each run of nearby or overlapping extents as one
    /// command, so what the caller splits up for its own reasons the
    /// device still sees whole. Results are in request order.
    pub async fn read_extents(&self, extents: &[(u64, u32)]) -> Vec<Result<Vec<u8>, DiskError>> {
        let calls = self.port.call_batch(
            extents
                .iter()
                .map(|&(lba, count)| move |reply| DiskReq::Read { lba, count, reply }),
        );
        chanos_rt::join_all(calls)
            .await
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| Err(e.into())))
            .collect()
    }

    /// The request port (for pipelined callers).
    pub fn port(&self) -> &chanos_rt::Port<DiskReq> {
        &self.port
    }
}
