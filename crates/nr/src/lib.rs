//! # chanos-nr — node replication for kernel services
//!
//! The source paper's thesis is that shared-memory kernel state won't
//! scale: kernel state should be **replicated or partitioned, with
//! explicit communication**. This crate is the replication half,
//! built on the typed ports of `chanos-rt` (the communication half).
//!
//! A [`Replicated<S>`] service keeps one full copy of the state `S`
//! per service core. All replicas agree on a single **shared ordered
//! operation log** of mutating ops:
//!
//! ```text
//!              writes (port call / call_batch)
//! client ──────────────────────────────▶ combiner task (one per replica core)
//!                                          │ drains a burst with recv_many,
//!                                          │ appends the WHOLE burst as one
//!                                          ▼ log append (flat combining)
//!                                    shared ordered log
//!                                          ▲
//!              reads (no ports!)           │ catch-up: apply entries
//! client ──▶ local replica ────────────────┘ up to the published tail
//! ```
//!
//! * **Writes** are port calls to the combiner of the caller's local
//!   replica. The combiner drains a burst, reserves a log range with
//!   one CAS, publishes the ops, commits the range in reservation
//!   order, applies its own replica through the range, and answers
//!   the burst through one [`ReplyBatch`] (one wake per waiting
//!   writer per burst on real threads) — the batch-aware server
//!   machinery, reused as a flat combiner.
//! * **Reads** perform **zero port round-trips**: the caller checks
//!   the log tail against its local replica's applied index, catches
//!   the replica up if behind (applying published entries in order),
//!   and serves the read from local state. The common case — replica
//!   already current — is two atomic loads and a read-lock.
//!
//! Because every replica applies the same ops in the same log order,
//! and `S::apply` is deterministic, all replicas stay in lockstep;
//! a read that starts after a write's reply sees a tail that covers
//! the write, so reads are linearizable with writes.
//!
//! The log, the replicas and the combiner take their atomics, `Mutex`,
//! `RwLock` and `spin_loop` from `rt::sync`, parchan's facade: `std`
//! in every build, the `chanos-check` shims when parchan's
//! `chanos_check` feature is on. `tests/protocols.rs` then explores
//! this code as it ships — combiners on a parchan runtime's model
//! threads appending at once, a lagging replica catching up while an
//! append commits, a two-write burst answered by one combiner — with
//! `cargo test --release -p chanos-nr --features chanos_check --test
//! protocols`.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use chanos_rt::sync::{
    spin_loop, Arc, AtomicU64, Mutex, MutexGuard, OnceLock, Ordering, RwLock, RwLockWriteGuard,
};
use chanos_rt::{self as rt, port_channel, CallError, Capacity, CoreId, Port, ReplyBatch, ReplyTo};

// ---------------------------------------------------------------------------
// The service trait.
// ---------------------------------------------------------------------------

/// A kernel service whose state can be node-replicated.
///
/// `apply` must be **deterministic**: every replica applies the same
/// write ops in the same log order, and replica agreement (and write
/// responses, which any replica could in principle compute) depends
/// on identical ops producing identical transitions. Side effects
/// that must happen once (spawning a task, allocating a resource)
/// belong in the *caller*, with the result threaded through the op —
/// see the vnode registry in `chanos-vfs` for the pattern.
pub trait NrService: Send + Sync + 'static {
    /// A read-only operation (served from the local replica).
    type ReadOp: Send + 'static;
    /// Response to a read.
    type ReadResp: Send + 'static;
    /// A mutating operation: a log entry, shared read-only by every
    /// replica (hence `Sync`) and cloned out of the log to apply.
    type WriteOp: Clone + Send + Sync + 'static;
    /// Response to a write.
    type WriteResp: Send + 'static;

    /// Serves a read against the current state.
    fn read(&self, op: &Self::ReadOp) -> Self::ReadResp;
    /// Applies a mutating op; must be deterministic.
    fn apply(&mut self, op: &Self::WriteOp) -> Self::WriteResp;
}

// ---------------------------------------------------------------------------
// The shared ordered log.
// ---------------------------------------------------------------------------

/// Log entries per storage chunk.
const LOG_CHUNK: usize = 64;

/// Keep at most this many fully-applied entries before garbage
/// collecting leading chunks.
const GC_SLACK: u64 = (4 * LOG_CHUNK) as u64;

struct LogChunk<T> {
    /// Index of `slots[0]`.
    base: u64,
    /// Write-once cells: published exactly once by the reserving
    /// appender, then only read.
    slots: Box<[OnceLock<T>]>,
}

impl<T> LogChunk<T> {
    fn new(base: u64) -> LogChunk<T> {
        LogChunk {
            base,
            slots: (0..LOG_CHUNK).map(|_| OnceLock::new()).collect(),
        }
    }
}

struct LogStore<T> {
    /// First retained index (GC high-water mark).
    base: u64,
    chunks: VecDeque<Arc<LogChunk<T>>>,
}

/// The shared ordered operation log.
///
/// Append protocol:
///
/// 1. **Reserve** a range `[start, start+n)` with a CAS on the
///    reservation cursor (`resv`).
/// 2. **Publish** the ops into the reserved write-once slots.
/// 3. **Commit** in reservation order: wait until the published tail
///    equals `start` (predecessors committed), then advance it over
///    the range. Readers only ever see `tail` ≤ fully-published
///    entries, so catch-up never observes a gap.
///
/// Entries below every replica's applied index are garbage collected
/// a chunk at a time, which is what lets ops carry owned resources
/// (e.g. a vnode port) without retaining them forever.
pub(crate) struct Log<T> {
    /// Reservation cursor: next index to hand to an appender.
    resv: AtomicU64,
    /// Published tail: every entry below it is committed and visible.
    tail: AtomicU64,
    store: Mutex<LogStore<T>>,
    /// Each replica's applied index, for GC.
    cursors: Vec<Arc<AtomicU64>>,
}

impl<T: Clone + Send + 'static> Log<T> {
    fn new(cursors: Vec<Arc<AtomicU64>>) -> Log<T> {
        Log {
            resv: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            store: Mutex::new(LogStore {
                base: 0,
                chunks: VecDeque::new(),
            }),
            cursors,
        }
    }

    fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    fn lock_store(&self) -> MutexGuard<'_, LogStore<T>> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Chunks covering `[from, to)`, growing the store as needed.
    fn chunks_covering(&self, from: u64, to: u64, grow: bool) -> (u64, Vec<Arc<LogChunk<T>>>) {
        let mut g = self.lock_store();
        debug_assert!(from >= g.base, "nr: reading garbage-collected log entries");
        if grow {
            let mut next = g.base + (g.chunks.len() * LOG_CHUNK) as u64;
            while next < to {
                g.chunks.push_back(Arc::new(LogChunk::new(next)));
                next += LOG_CHUNK as u64;
            }
        }
        let first = ((from - g.base) as usize) / LOG_CHUNK;
        let last = ((to - 1 - g.base) as usize) / LOG_CHUNK;
        let base0 = g.chunks[first].base;
        (base0, (first..=last).map(|i| g.chunks[i].clone()).collect())
    }

    /// Steps 1–2: reserve a range and publish the ops into it.
    /// Invisible to readers until [`Log::commit`].
    fn reserve_publish(&self, ops: Vec<T>) -> (u64, u64) {
        let n = ops.len() as u64;
        debug_assert!(n > 0);
        let mut cur = self.resv.load(Ordering::Relaxed);
        let start = loop {
            match self
                .resv
                .compare_exchange_weak(cur, cur + n, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break cur,
                Err(now) => cur = now,
            }
        };
        let (base0, chunks) = self.chunks_covering(start, start + n, true);
        for (i, op) in ops.into_iter().enumerate() {
            let idx = start + i as u64;
            let c = &chunks[((idx - base0) as usize) / LOG_CHUNK];
            if c.slots[(idx - c.base) as usize].set(op).is_err() {
                panic!("nr: log slot {idx} double-published");
            }
        }
        (start, n)
    }

    /// Waits for our commit turn (predecessor reservations
    /// committed). Never actually suspends on the simulator — an
    /// appender's reserve→commit window contains no await points, so
    /// no other sim task can be observed inside one. Under the model
    /// checker `spin_loop` lets the combiner ahead of us run.
    async fn wait_turn(&self, start: u64) {
        while self.tail.load(Ordering::Acquire) != start {
            spin_loop();
            yield_now().await;
        }
    }

    /// Step 3: publishes the range to readers. The caller holds its
    /// replica's state lock, so on that replica commit-and-apply is
    /// atomic and the combiner always harvests its own responses.
    fn commit(&self, start: u64, n: u64) {
        debug_assert_eq!(self.tail.load(Ordering::Acquire), start);
        self.tail.store(start + n, Ordering::Release);
    }

    /// Clones committed entries `[from, to)` out of the log.
    fn collect(&self, from: u64, to: u64, out: &mut Vec<T>) {
        if from >= to {
            return;
        }
        let (base0, chunks) = self.chunks_covering(from, to, false);
        for idx in from..to {
            let c = &chunks[((idx - base0) as usize) / LOG_CHUNK];
            let v = c.slots[(idx - c.base) as usize]
                .get()
                .expect("nr: committed log entry not published");
            out.push(v.clone());
        }
    }

    /// Drops leading chunks every replica has applied.
    fn maybe_gc(&self) {
        let min = self
            .cursors
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        let mut g = self.lock_store();
        if self.tail.load(Ordering::Acquire).saturating_sub(g.base) < GC_SLACK {
            return;
        }
        while let Some(front) = g.chunks.front() {
            if front.base + LOG_CHUNK as u64 <= min {
                g.base = front.base + LOG_CHUNK as u64;
                g.chunks.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Re-schedules the current task once (both backends); the commit
/// wait's polite spin.
fn yield_now() -> YieldNow {
    YieldNow(false)
}

struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Replicas.
// ---------------------------------------------------------------------------

struct Replica<S: NrService> {
    state: RwLock<S>,
    /// Log entries applied to `state`; advances only under the state
    /// write lock, read lock-free by the up-to-date check.
    applied: Arc<AtomicU64>,
}

impl<S: NrService> Replica<S> {
    fn new(state: S) -> Replica<S> {
        Replica {
            state: RwLock::new(state),
            applied: Arc::new(AtomicU64::new(0)),
        }
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, S> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies committed log entries up to `to` (a tail observed by
    /// the caller). No-op if another task already caught us up.
    fn catch_up(&self, log: &Log<S::WriteOp>, to: u64) {
        let mut s = self.write_state();
        let from = self.applied.load(Ordering::Acquire);
        if from >= to {
            return;
        }
        let mut buf = Vec::with_capacity((to - from) as usize);
        log.collect(from, to, &mut buf);
        for op in &buf {
            let _ = s.apply(op);
        }
        self.applied.store(to, Ordering::Release);
        rt::stat_incr("nr.catch_ups");
        rt::stat_add("nr.catchup_ops", buf.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// A write bound for a combiner.
struct WriteReq<S: NrService> {
    op: S::WriteOp,
    reply: ReplyTo<S::WriteResp>,
}

/// Requests a combiner drains per wakeup (and therefore the most ops
/// it folds into one log append).
const NR_BATCH: usize = 32;

// ---------------------------------------------------------------------------
// Server tasks.
// ---------------------------------------------------------------------------

/// A replica's combiner: drains a burst of writes, appends the whole
/// burst as **one** log append, applies its replica through the
/// range, and answers the burst through one [`ReplyBatch`].
async fn combiner_task<S: NrService>(
    replica: Arc<Replica<S>>,
    log: Arc<Log<S::WriteOp>>,
    rx: rt::Receiver<WriteReq<S>>,
) {
    let mut batch: Vec<WriteReq<S>> = Vec::with_capacity(NR_BATCH);
    let mut out = ReplyBatch::default();
    loop {
        let n = rx.recv_many(&mut batch, NR_BATCH).await;
        if n == 0 {
            break;
        }
        let mut ops = Vec::with_capacity(n);
        let mut replies = Vec::with_capacity(n);
        for req in batch.drain(..) {
            ops.push(req.op);
            replies.push(req.reply);
        }
        // One reserve+publish for the whole drained burst: this is
        // the flat-combining claim the bench's nr.append_ops /
        // nr.log_appends ratio measures.
        let (start, count) = log.reserve_publish(ops);
        log.wait_turn(start).await;
        let mut resps = Vec::with_capacity(count as usize);
        {
            // Commit inside the state lock: on THIS replica,
            // commit-and-apply is atomic, so no concurrent local
            // reader can apply our range first and discard the
            // responses our callers are waiting for.
            let mut s = replica.write_state();
            log.commit(start, count);
            let from = replica.applied.load(Ordering::Acquire);
            debug_assert!(from <= start);
            let mut buf = Vec::with_capacity((start + count - from) as usize);
            log.collect(from, start + count, &mut buf);
            for (i, op) in buf.iter().enumerate() {
                let resp = s.apply(op);
                if from + i as u64 >= start {
                    resps.push(resp);
                }
            }
            replica.applied.store(start + count, Ordering::Release);
        }
        rt::stat_incr("nr.log_appends");
        rt::stat_add("nr.append_ops", count);
        log.maybe_gc();
        for (reply, resp) in replies.drain(..).zip(resps.drain(..)) {
            out.send(reply, resp);
        }
        out.flush();
    }
}

// ---------------------------------------------------------------------------
// The replicated service handle.
// ---------------------------------------------------------------------------

struct Inner<S: NrService> {
    cores: Vec<CoreId>,
    ports: Vec<Port<WriteReq<S>>>,
    replicas: Vec<Arc<Replica<S>>>,
    log: Arc<Log<S::WriteOp>>,
}

/// A kernel service behind the node-replication layer. Cheap to
/// clone; all clones share the same servers.
pub struct Replicated<S: NrService> {
    inner: Arc<Inner<S>>,
}

impl<S: NrService> Clone for Replicated<S> {
    fn clone(&self) -> Self {
        Replicated {
            inner: self.inner.clone(),
        }
    }
}

impl<S: NrService> Replicated<S> {
    /// Boots the service with one replica on each of `cores`.
    /// `factory` must build identical initial states (one per
    /// replica). Must run inside a runtime.
    pub fn spawn<F>(name: &str, cores: &[CoreId], mut factory: F) -> Replicated<S>
    where
        F: FnMut() -> S,
    {
        assert!(!cores.is_empty(), "nr: need at least one service core");
        let replicas: Vec<Arc<Replica<S>>> = cores
            .iter()
            .map(|_| Arc::new(Replica::new(factory())))
            .collect();
        let log = Arc::new(Log::new(
            replicas.iter().map(|r| r.applied.clone()).collect(),
        ));
        let mut ports = Vec::with_capacity(cores.len());
        for (i, &core) in cores.iter().enumerate() {
            let (port, rx) = port_channel::<WriteReq<S>>(Capacity::Unbounded);
            let replica = replicas[i].clone();
            let log = log.clone();
            rt::spawn_daemon_on(&format!("{name}-r{i}"), core, async move {
                combiner_task(replica, log, rx).await;
            });
            ports.push(port);
        }
        Replicated {
            inner: Arc::new(Inner {
                cores: cores.to_vec(),
                ports,
                replicas,
                log,
            }),
        }
    }

    /// The replica (index) serving the given core, and whether it is
    /// that core's own (a core that holds none is served by replica
    /// `core mod replicas`).
    fn replica_idx(&self, core: CoreId) -> (usize, bool) {
        let cores = &self.inner.cores;
        match cores.iter().position(|c| *c == core) {
            Some(i) => (i, true),
            None => (core.0 as usize % cores.len(), false),
        }
    }

    /// Serves a read-only op entirely from the caller's local
    /// replica — an up-to-date check against the log tail, a catch-up
    /// if behind, then the read under a replica-local read lock.
    /// **No port round-trips, no cross-core communication.** A caller
    /// on a core that holds no replica reads the replica of core
    /// `core mod replicas` instead, which is neither; those reads are
    /// counted apart, as `nr.foreign_reads`. A read cannot fail; it
    /// is `async` so that a foreign read may be charged for the
    /// cross-core traffic it stands for without changing its callers.
    pub async fn read(&self, op: S::ReadOp) -> S::ReadResp {
        let (idx, local) = self.replica_idx(rt::current_core());
        let r = &self.inner.replicas[idx];
        let log = &self.inner.log;
        let tail = log.tail();
        if r.applied.load(Ordering::Acquire) < tail {
            r.catch_up(log, tail);
        }
        let out = r.state.read().unwrap_or_else(|e| e.into_inner()).read(&op);
        rt::stat_incr(if local {
            "nr.local_reads"
        } else {
            "nr.foreign_reads"
        });
        out
    }

    /// Submits one mutating op: a port call to the local replica's
    /// combiner, which folds concurrent writers' bursts into shared
    /// log appends.
    pub async fn write(&self, op: S::WriteOp) -> Result<S::WriteResp, CallError> {
        self.inner.ports[self.replica_idx(rt::current_core()).0]
            .call(move |reply| WriteReq { op, reply })
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl NrService for Counter {
        type ReadOp = ();
        type ReadResp = u64;
        type WriteOp = u64;
        type WriteResp = u64;

        fn read(&self, _: &()) -> u64 {
            self.0
        }

        fn apply(&mut self, add: &u64) -> u64 {
            self.0 += add;
            self.0
        }
    }

    /// Entries each GC run below appends: past the point where GC
    /// starts dropping chunks (`GC_SLACK`) by two chunks more.
    const ENTRIES: u64 = GC_SLACK + 2 * LOG_CHUNK as u64 + 3;

    /// Entries the log's storage holds (GC drops whole chunks).
    fn retained<S: NrService>(nr: &Replicated<S>) -> u64 {
        (nr.inner.log.lock_store().chunks.len() * LOG_CHUNK) as u64
    }

    /// Boots a `Counter` with a replica on each of three cores of the
    /// simulator, appends `ENTRIES` ones round-robin over `used`, each
    /// write followed by a read on the same core, and returns what every
    /// replica then reads and how many entries the log retains.
    fn gc_run(used: &[u32]) -> (Vec<u64>, u64) {
        let mut sim = chanos_sim::Simulation::with_config(chanos_sim::Config {
            cores: 3,
            ..chanos_sim::Config::default()
        });
        let used = used.to_vec();
        sim.block_on(async move {
            let cores = [CoreId(0), CoreId(1), CoreId(2)];
            let nr = Replicated::spawn("gc", &cores, || Counter(0));
            for i in 0..ENTRIES {
                let core = CoreId(used[i as usize % used.len()]);
                let nr2 = nr.clone();
                rt::spawn_on(core, async move {
                    nr2.write(1).await.expect("the combiner answers");
                    nr2.read(()).await
                })
                .join()
                .await
                .expect("the writer does not fail");
            }
            let retained = retained(&nr);
            let mut answers = Vec::new();
            for core in cores {
                let nr = nr.clone();
                answers.push(
                    rt::spawn_on(core, async move { nr.read(()).await })
                        .join()
                        .await
                        .unwrap(),
                );
            }
            (answers, retained)
        })
        .expect("the simulation finishes")
    }

    #[test]
    fn gc_keeps_the_log_bounded_when_every_replica_is_used() {
        let (answers, retained) = gc_run(&[0, 1, 2]);
        assert_eq!(answers, [ENTRIES; 3], "the replicas disagree");
        assert!(
            retained <= GC_SLACK + 2 * LOG_CHUNK as u64,
            "{retained} of {ENTRIES} entries retained"
        );
    }

    /// The known gap: GC frees only what *every* replica has applied,
    /// and a replica nobody on its core writes or reads never catches
    /// up, so it holds back the whole log — and with it whatever the
    /// ops own (a vnode that lost a spawn race exits only when GC drops
    /// its port). The replicas still agree once read; the log does not
    /// shrink.
    #[test]
    fn a_replica_nobody_uses_holds_back_gc() {
        let (answers, retained) = gc_run(&[0, 1]);
        assert_eq!(answers, [ENTRIES; 3], "the replicas disagree");
        assert!(
            retained >= ENTRIES,
            "{retained} of {ENTRIES} entries retained"
        );
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn write_request_layout_is_pinned() {
        // The simulator charges a message `size_of::<T>()` bytes: a failure
        // here means every modeled number is about to move.
        // A combiner request is the op plus its reply endpoint.
        assert_eq!(std::mem::size_of::<WriteReq<Counter>>(), 32);
    }
}
