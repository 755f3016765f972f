//! Shared run control and per-client recording, written against the
//! `chanos-rt` facade so the same client code runs on the simulator
//! (the measurement of record) and on real threads (the threads leg).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use chanos_rt as rt;

use crate::hist::ExactHist;

/// One request in `SPAN_SAMPLE` is recorded as spans, picked by a hash
/// of its id: a fixed stride would alias with the workloads' own
/// periods (every 8th `sys_files` round writes).
pub const SPAN_SAMPLE: u64 = 64;

/// An open-loop request finishing later than this after the stop
/// instant counts as failed (the drain deadline): 1 ms of modeled
/// time, where an unloaded call takes 0.3 us.
pub const DRAIN_LIMIT_MODELED: u64 = 1_000_000;

/// An unrelated 64-bit value for each (`seed`, `n`) pair.
pub fn mix(seed: u64, n: u64) -> u64 {
    // splitmix64 over the pair, so neighbouring seeds and segment
    // indices give unrelated streams.
    let mut z = seed
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// When the measured phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this much host time, checked between requests (the
    /// threads leg, whose clock is the host's anyway).
    Host(Duration),
    /// After this many measured operations: the modeled numbers then
    /// repeat bit for bit for a seed (every run on the simulator).
    Ops(u64),
}

/// Run control shared by every client of a segment.
pub struct Ctl {
    warm_ops: u64,
    stop: Stop,
    pub tracing: bool,
    drain_limit: u64,
    completed: AtomicU64,
    measured: AtomicU64,
    warm: AtomicBool,
    stopping: AtomicBool,
    /// `rt::now()` when the warm-up count was reached / when the stop
    /// was flagged.
    t_warm: AtomicU64,
    t_stop: AtomicU64,
    host_warm: OnceLock<Instant>,
}

impl Ctl {
    /// `drain_limit` is in units of `rt::now()`: modeled cycles on the
    /// simulator, wall-clock nanoseconds on real threads.
    pub fn new(warm_ops: u64, stop: Stop, tracing: bool, drain_limit: u64) -> Arc<Ctl> {
        Arc::new(Ctl {
            warm_ops,
            stop,
            tracing,
            drain_limit,
            completed: AtomicU64::new(0),
            measured: AtomicU64::new(0),
            warm: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            t_warm: AtomicU64::new(0),
            t_stop: AtomicU64::new(0),
            host_warm: OnceLock::new(),
        })
    }

    pub fn is_warm(&self) -> bool {
        self.warm.load(Ordering::Acquire)
    }

    pub fn t_warm(&self) -> u64 {
        self.t_warm.load(Ordering::Acquire)
    }

    /// Operations completed so far, warm-up included.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    pub fn host_warm(&self) -> Instant {
        *self.host_warm.get().expect("warm-up completed")
    }

    /// Counts `n` completed operations; `true` if they fall in the
    /// measured phase. The operations that complete the warm-up count
    /// are themselves still warm-up.
    pub fn complete(&self, n: u64) -> bool {
        let before = self.completed.fetch_add(n, Ordering::AcqRel);
        if before >= self.warm_ops {
            self.measured.fetch_add(n, Ordering::AcqRel);
            return true;
        }
        if before + n >= self.warm_ops {
            self.t_warm.store(rt::now(), Ordering::Release);
            let _ = self.host_warm.set(Instant::now());
            self.warm.store(true, Ordering::Release);
        }
        false
    }

    /// Checked by every client between requests.
    pub fn keep_going(&self) -> bool {
        if self.stopping.load(Ordering::Acquire) {
            return false;
        }
        let over = match self.stop {
            Stop::Ops(n) => self.measured.load(Ordering::Acquire) >= n,
            Stop::Host(d) => self.is_warm() && self.host_warm().elapsed() >= d,
        };
        if over && !self.stopping.swap(true, Ordering::AcqRel) {
            self.t_stop.store(rt::now(), Ordering::Release);
        }
        !over
    }

    /// Open-loop variant: a request due at `due` is still issued after
    /// the stop was flagged if it was due before it, so the generator
    /// drains its backlog instead of dropping it.
    pub fn keep_issuing(&self, due: u64) -> bool {
        self.keep_going() || due <= self.t_stop.load(Ordering::Acquire)
    }

    /// Open loop: did a request complete too long after the stop to
    /// count? (Closed-loop clients just finish the request in hand.)
    pub fn past_drain_deadline(&self, done: u64) -> bool {
        self.stopping.load(Ordering::Acquire)
            && done > self.t_stop.load(Ordering::Acquire) + self.drain_limit
    }
}

/// A span around one call into a layer, in cycles of `rt::now()`.
#[derive(Clone, Debug)]
pub struct Span {
    /// One id per request: client id in the high bits, the client's
    /// request sequence number in the low.
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: u64,
    pub end: u64,
}

/// What one client task measured.
#[derive(Default)]
pub struct ClientRec {
    id: u64,
    seq: u64,
    tracing: bool,
    /// Latency of every measured operation: due (open loop) or issued
    /// (closed loop) to completion observed by the caller.
    pub lat: ExactHist,
    /// How late each measured open-loop request was issued.
    pub late: ExactHist,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    /// `rt::now()` when this client returned.
    pub t_end: u64,
}

impl ClientRec {
    pub fn new(id: u64, ctl: &Ctl) -> ClientRec {
        ClientRec::resume(id, 0, ctl)
    }

    /// A recorder whose request numbering continues from `seq`: the
    /// short-lived processes of one `sys_files` slot share one
    /// sequence, so span sampling still sees every 64th round.
    pub fn resume(id: u64, seq: u64, ctl: &Ctl) -> ClientRec {
        ClientRec {
            id,
            seq,
            tracing: ctl.tracing,
            ..ClientRec::default()
        }
    }

    /// Starts a request; `Some(id)` if its spans are to be recorded.
    pub fn begin(&mut self) -> Option<u64> {
        self.seq += 1;
        let sampled = self.tracing && mix(self.id, self.seq).is_multiple_of(SPAN_SAMPLE);
        sampled.then_some(self.id << 40 | self.seq)
    }

    pub fn span(
        &mut self,
        req: Option<u64>,
        name: &'static str,
        parent: Option<&'static str>,
        start: u64,
        end: u64,
    ) {
        if let Some(req) = req {
            self.spans.push(Span {
                req,
                name,
                parent,
                start,
                end,
            });
        }
    }

    /// Records the standard request spans: `request` ⊃ `issue_wait`
    /// (due → issue), `submit` (issue → handed to the layer), `await`
    /// (→ completion).
    pub fn request_spans(&mut self, req: Option<u64>, due: u64, issue: u64, sub: u64, done: u64) {
        self.span(req, "request", None, due, done);
        self.span(req, "issue_wait", Some("request"), due, issue);
        self.span(req, "submit", Some("request"), issue, sub);
        self.span(req, "await", Some("request"), sub, done);
    }

    /// Counts one finished operation that took `from..done`; `true`
    /// if it fell in the measured phase.
    pub fn op(&mut self, ctl: &Ctl, from: u64, done: u64, ok: bool) -> bool {
        if !ctl.complete(1) {
            return false;
        }
        self.attempted += 1;
        if ok {
            self.ops += 1;
            self.lat.record(done - from);
        } else {
            self.failed += 1;
        }
        true
    }

    pub fn merge(&mut self, other: ClientRec) {
        self.lat.merge(&other.lat);
        self.late.merge(&other.late);
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.spans.extend(other.spans);
        self.t_end = self.t_end.max(other.t_end);
    }
}
