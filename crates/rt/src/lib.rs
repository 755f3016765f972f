//! # chanos-rt — one OS stack, two execution substrates
//!
//! The paper's argument is that a message-passing OS structure is
//! viable *on real multicore hardware*, not just in a model. This
//! crate makes the claim testable: it exposes the common runtime
//! surface that both executors already share — task spawning,
//! channel construction, timers, cost charging, core identity,
//! statistics, and join handles — dispatched at runtime to whichever
//! backend the calling task runs on:
//!
//! * **`Backend::Sim`** — the deterministic many-core simulator
//!   (`chanos-sim` + `chanos-csp`). Virtual time, modeled message
//!   latencies, bit-identical traces. The default for experiments.
//! * **`Backend::Threads`** — the work-stealing OS thread pool
//!   (`chanos-parchan`). Wall-clock time, real parallelism, real
//!   cache misses. [`delay`] (modeled compute) becomes one cooperative
//!   yield; [`sleep`] becomes a wall-clock timer at 1 cycle ≈ 1 ns.
//!
//! `chanos-kernel`, `chanos-vfs::MsgFs`, and `chanos-drivers` are
//! written against this facade, so the *same* kernel boots inside a
//! `Simulation::block_on` and inside a `parchan::Runtime::block_on`
//! — see `examples/real_hw_kernel.rs`, `tests/backend_equiv.rs`, and
//! the benchmark's real-threads leg (`threads.*` in `BENCHMARK.json`).
//!
//! Dispatch is ambient, like the backends themselves: code running
//! inside a simulated task sees `Backend::Sim`; code running on a
//! parchan worker (or under `Runtime::block_on`) sees
//! `Backend::Threads`. Handles (channels, join handles) remember
//! their backend, so they can be carried across `spawn` boundaries
//! freely within one backend.
//!
//! All facade types are `Send` so a single generic OS code base can
//! be scheduled on real threads; on the simulator they are only ever
//! touched from its single executor thread.
//!
//! The facade only dispatches: what a task is — its key, its
//! [`Priority`] class — is recorded by the scheduler that runs it and
//! read back from there ([`current_task_key`], [`current_priority`]).

#![forbid(unsafe_code)]

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use chanos_csp as csp;
use chanos_parchan as par;
use chanos_sim as sim;

mod port;

pub use chanos_parchan::Priority;
pub use chanos_select::vocab::{Capacity, RecvError, SendError, TryRecvError, TrySendError};
pub use chanos_select::{choose, join2, join_all, race, select_all, Either};
pub use chanos_sim::{plock, CoreId, Cycles, Pcg32, TaskId};
pub use port::{port_channel, Call, CallError, Port};

/// The primitives shared state above the runtime takes — atomics,
/// `Mutex`, `RwLock`, `spin_loop` — from parchan's facade: `std` in
/// every build, except that parchan's `chanos_check` feature makes
/// them the model checker's shims, so a check explores the code that
/// uses them as it ships (chanos-nr's log and replicas).
pub use chanos_parchan::sync;

/// Which execution substrate the calling task is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic simulator (`chanos-sim`).
    Sim,
    /// Real OS threads (`chanos-parchan`).
    Threads,
}

/// Returns the backend of the calling task.
///
/// # Panics
///
/// Panics when called from a thread that is neither inside a
/// simulation nor inside a parchan runtime.
pub fn backend() -> Backend {
    if sim::in_sim() {
        Backend::Sim
    } else if par::in_runtime() {
        Backend::Threads
    } else {
        panic!(
            "chanos-rt: no ambient runtime (call from inside \
             Simulation::block_on or parchan::Runtime::block_on)"
        )
    }
}

/// Returns `true` if some backend is ambient on this thread.
pub fn in_runtime() -> bool {
    sim::in_sim() || par::in_runtime()
}

/// Like [`backend`], but `None` instead of panicking outside any
/// runtime (for code that must also work from plain test threads).
pub fn try_backend() -> Option<Backend> {
    if sim::in_sim() {
        Some(Backend::Sim)
    } else if par::in_runtime() {
        Some(Backend::Threads)
    } else {
        None
    }
}

fn par_handle() -> par::Handle {
    par::current().expect("chanos-rt: parchan runtime is gone")
}

// ---------------------------------------------------------------------------
// Channels.
// ---------------------------------------------------------------------------

enum SenderImpl<T> {
    Sim(csp::Sender<T>),
    Par(par::Sender<T>),
}

enum ReceiverImpl<T> {
    Sim(csp::Receiver<T>),
    Par(par::Receiver<T>),
}

/// The sending endpoint of a channel. Clone freely; send through
/// other channels.
pub struct Sender<T>(SenderImpl<T>);

/// The receiving endpoint of a channel. Clone freely; send through
/// other channels.
pub struct Receiver<T>(ReceiverImpl<T>);

/// Creates a channel of the given capacity on the calling task's
/// backend.
///
/// The simulator models the message as `size_of::<T>()` bytes on the
/// interconnect; use [`channel_with_bytes`] when the payload
/// semantically owns more.
pub fn channel<T: Send + 'static>(cap: Capacity) -> (Sender<T>, Receiver<T>) {
    channel_with_bytes(cap, std::mem::size_of::<T>().max(1))
}

/// Creates a channel whose messages are modeled as `bytes` bytes on
/// the simulator's interconnect (ignored on real threads, where the
/// memory system is the real one).
pub fn channel_with_bytes<T: Send + 'static>(
    cap: Capacity,
    bytes: usize,
) -> (Sender<T>, Receiver<T>) {
    match backend() {
        Backend::Sim => {
            let (tx, rx) = csp::channel_with_bytes(cap, bytes);
            (Sender(SenderImpl::Sim(tx)), Receiver(ReceiverImpl::Sim(rx)))
        }
        Backend::Threads => {
            let (tx, rx) = par::channel(cap);
            (Sender(SenderImpl::Par(tx)), Receiver(ReceiverImpl::Par(rx)))
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(match &self.0 {
            SenderImpl::Sim(s) => SenderImpl::Sim(s.clone()),
            SenderImpl::Par(s) => SenderImpl::Par(s.clone()),
        })
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver(match &self.0 {
            ReceiverImpl::Sim(r) => ReceiverImpl::Sim(r.clone()),
            ReceiverImpl::Par(r) => ReceiverImpl::Par(r.clone()),
        })
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            SenderImpl::Sim(s) => s.fmt(f),
            SenderImpl::Par(s) => s.fmt(f),
        }
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            ReceiverImpl::Sim(r) => r.fmt(f),
            ReceiverImpl::Par(r) => r.fmt(f),
        }
    }
}

impl<T: Send + 'static> Sender<T> {
    /// Sends `value`; completes according to the channel capacity.
    pub fn send(&self, value: T) -> SendFut<'_, T> {
        match &self.0 {
            SenderImpl::Sim(s) => SendFut(SendFutImpl::Sim(s.send(value))),
            SenderImpl::Par(s) => SendFut(SendFutImpl::Par(s.send(value))),
        }
    }

    /// Attempts to send without waiting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        match &self.0 {
            SenderImpl::Sim(s) => s.try_send(value),
            SenderImpl::Par(s) => s.try_send(value),
        }
    }

    /// Enqueues the items of `buf` in order as one burst, stopping at
    /// the first item the channel cannot accept; unsent items remain
    /// at the front of `buf`. Returns how many were enqueued.
    ///
    /// On real threads the receiving task is woken **once for the
    /// whole burst** (`chan.send_many_calls` / `chan.send_many_msgs`).
    /// On the simulator each item is still charged as its own send
    /// event, so traces stay deterministic — exactly mirroring how
    /// [`Receiver::recv_many`] batches the other direction.
    pub fn try_send_many(&self, buf: &mut std::collections::VecDeque<T>) -> usize {
        match &self.0 {
            SenderImpl::Sim(s) => {
                let mut n = 0;
                while let Some(v) = buf.pop_front() {
                    match s.try_send(v) {
                        Ok(()) => n += 1,
                        Err(TrySendError::Full(v)) | Err(TrySendError::Closed(v)) => {
                            buf.push_front(v);
                            break;
                        }
                    }
                }
                n
            }
            SenderImpl::Par(s) => s.try_send_many(buf),
        }
    }

    /// Closes the channel: subsequent sends fail; receivers drain the
    /// queue and then observe [`RecvError::Closed`].
    pub fn close(&self) {
        match &self.0 {
            SenderImpl::Sim(s) => s.close(),
            SenderImpl::Par(s) => s.close(),
        }
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        match &self.0 {
            SenderImpl::Sim(s) => s.is_closed(),
            SenderImpl::Par(s) => s.is_closed(),
        }
    }

    /// Number of buffered (including in-flight) messages.
    pub fn len(&self) -> usize {
        match &self.0 {
            SenderImpl::Sim(s) => s.len(),
            SenderImpl::Par(s) => s.len(),
        }
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        match (&self.0, &other.0) {
            (SenderImpl::Sim(a), SenderImpl::Sim(b)) => a.same_channel(b),
            (SenderImpl::Par(a), SenderImpl::Par(b)) => a.same_channel(b),
            _ => false,
        }
    }
}

impl<T: Send + 'static> Receiver<T> {
    /// Receives the next message; waits for arrival (including
    /// modeled transit time on the simulator).
    pub fn recv(&self) -> RecvFut<'_, T> {
        match &self.0 {
            ReceiverImpl::Sim(r) => RecvFut(RecvFutImpl::Sim(r.recv())),
            ReceiverImpl::Par(r) => RecvFut(RecvFutImpl::Par(r.recv())),
        }
    }

    /// Attempts to receive without waiting.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.0 {
            ReceiverImpl::Sim(r) => r.try_recv(),
            ReceiverImpl::Par(r) => r.try_recv(),
        }
    }

    /// Moves up to `max` *ready* messages into `buf` without waiting;
    /// returns how many were moved (0 when none are ready or the
    /// channel is closed).
    ///
    /// On the simulator "ready" means the modeled transit time has
    /// elapsed, and every drained message is charged as its own
    /// receive event, so traces stay deterministic. On real threads
    /// the drain takes the channel's lock once for the whole burst.
    pub fn try_recv_many(&self, buf: &mut Vec<T>, max: usize) -> usize {
        match &self.0 {
            ReceiverImpl::Sim(r) => {
                let mut n = 0;
                while n < max {
                    match r.try_recv() {
                        Ok(v) => {
                            buf.push(v);
                            n += 1;
                        }
                        Err(_) => break,
                    }
                }
                n
            }
            ReceiverImpl::Par(r) => r.try_recv_many(buf, max),
        }
    }

    /// Waits for at least one message, then moves up to `max` of them
    /// into `buf`; resolves to the number moved. Resolves to 0 when
    /// the channel is closed and drained — or immediately when
    /// `max == 0`, so callers that loop on `n == 0` must pass
    /// `max >= 1`.
    ///
    /// One wakeup and one scheduler dispatch amortize over the whole
    /// batch — the server-loop hot path on real threads. Semantics
    /// are identical on both backends (on the simulator each drained
    /// message is still charged as its own receive event).
    ///
    /// Cancel-safe: messages already drained are in `buf`, owned by
    /// the caller.
    pub fn recv_many<'a>(&'a self, buf: &'a mut Vec<T>, max: usize) -> RecvMany<'a, T> {
        RecvMany {
            rx: self,
            buf,
            max,
            first: None,
        }
    }

    /// Closes the channel from the receiving side.
    pub fn close(&self) {
        match &self.0 {
            ReceiverImpl::Sim(r) => r.close(),
            ReceiverImpl::Par(r) => r.close(),
        }
    }

    /// Number of buffered (including in-flight) messages.
    pub fn len(&self) -> usize {
        match &self.0 {
            ReceiverImpl::Sim(r) => r.len(),
            ReceiverImpl::Par(r) => r.len(),
        }
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Receiver<T>) -> bool {
        match (&self.0, &other.0) {
            (ReceiverImpl::Sim(a), ReceiverImpl::Sim(b)) => a.same_channel(b),
            (ReceiverImpl::Par(a), ReceiverImpl::Par(b)) => a.same_channel(b),
            _ => false,
        }
    }
}

enum SendFutImpl<'a, T> {
    Sim(csp::SendFut<'a, T>),
    Par(par::SendFut<'a, T>),
}

/// Future returned by [`Sender::send`]; cancel-safe (a `choose!`
/// arm).
pub struct SendFut<'a, T>(SendFutImpl<'a, T>);

impl<T> Unpin for SendFut<'_, T> {}

impl<T: Send + 'static> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.0 {
            SendFutImpl::Sim(f) => Pin::new(f).poll(cx),
            SendFutImpl::Par(f) => Pin::new(f).poll(cx),
        }
    }
}

enum RecvFutImpl<'a, T> {
    Sim(csp::RecvFut<'a, T>),
    Par(par::RecvFut<'a, T>),
}

/// Future returned by [`Receiver::recv`]; cancel-safe (a `choose!`
/// arm).
pub struct RecvFut<'a, T>(RecvFutImpl<'a, T>);

impl<T> Unpin for RecvFut<'_, T> {}

impl<T: Send + 'static> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.0 {
            RecvFutImpl::Sim(f) => Pin::new(f).poll(cx),
            RecvFutImpl::Par(f) => Pin::new(f).poll(cx),
        }
    }
}

/// Future returned by [`Receiver::recv_many`]; cancel-safe. Resolves
/// to the number of messages appended to `buf` (0 = closed and
/// drained).
pub struct RecvMany<'a, T> {
    rx: &'a Receiver<T>,
    buf: &'a mut Vec<T>,
    max: usize,
    /// In-flight wait for the first message of the batch.
    first: Option<RecvFutImpl<'a, T>>,
}

impl<T> Unpin for RecvMany<'_, T> {}

impl<T: Send + 'static> Future for RecvMany<'_, T> {
    type Output = usize;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        let this = &mut *self;
        if this.max == 0 {
            return Poll::Ready(0);
        }
        let rx = this.rx;
        let first = this.first.get_or_insert_with(|| match &rx.0 {
            ReceiverImpl::Sim(r) => RecvFutImpl::Sim(r.recv()),
            ReceiverImpl::Par(r) => RecvFutImpl::Par(r.recv()),
        });
        let got = match first {
            RecvFutImpl::Sim(f) => Pin::new(f).poll(cx),
            RecvFutImpl::Par(f) => Pin::new(f).poll(cx),
        };
        match got {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Err(_)) => {
                this.first = None;
                Poll::Ready(0)
            }
            Poll::Ready(Ok(v)) => {
                this.first = None;
                this.buf.push(v);
                // Top up the batch with whatever is already ready.
                let n = 1 + rx.try_recv_many(this.buf, this.max - 1);
                Poll::Ready(n)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reply channels (the §3 RPC pattern).
// ---------------------------------------------------------------------------

/// Creates a single-use reply channel on the calling task's backend.
///
/// On the simulator this is a `Bounded(1)` modeled channel, so the
/// reply is charged as its own send event and traces stay
/// deterministic. On real threads it is a `chanos-parchan` oneshot
/// completion slot: one `Arc`'d slot with an atomic state machine —
/// no ring, no waiter lists — allocated here and freed when both
/// halves are gone.
pub fn reply_channel<T: Send + 'static>() -> (ReplyTo<T>, Reply<T>) {
    match backend() {
        Backend::Sim => {
            let (tx, rx) = channel(Capacity::Bounded(1));
            (
                ReplyTo(ReplyToImpl::Sim(tx)),
                Reply(ReplyImpl::Sim(SimReply::Idle(Some(rx)))),
            )
        }
        Backend::Threads => {
            let (tx, rx) = par::oneshot::oneshot();
            (ReplyTo(ReplyToImpl::Par(tx)), Reply(ReplyImpl::Par(rx)))
        }
    }
}

enum ReplyToImpl<T: Send + 'static> {
    Sim(Sender<T>),
    Par(par::oneshot::OneSender<T>),
}

/// The responding half of a reply channel; consumed by `send`.
pub struct ReplyTo<T: Send + 'static>(ReplyToImpl<T>);

impl<T: Send + 'static> ReplyTo<T> {
    /// Sends the reply, consuming the endpoint.
    ///
    /// Returns the value if the requester has gone away.
    pub async fn send(self, value: T) -> Result<(), T> {
        match self.0 {
            ReplyToImpl::Sim(tx) => tx.send(value).await.map_err(SendError::into_inner),
            ReplyToImpl::Par(tx) => tx.send(value),
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for ReplyTo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplyTo")
    }
}

/// The simulator reply keeps the modeled channel; the first owned
/// poll moves it into a boxed resolver (the consuming [`Reply::recv`]
/// still awaits the channel directly, unboxed).
enum SimReply<T: Send + 'static> {
    Idle(Option<Receiver<T>>),
    Polling(Pin<Box<dyn Future<Output = Result<T, RecvError>> + Send>>),
}

enum ReplyImpl<T: Send + 'static> {
    Sim(SimReply<T>),
    Par(par::oneshot::OneReceiver<T>),
}

/// The requesting half of a reply channel; consumed by `recv`, or
/// polled in place with [`Reply::poll_recv`] (how [`Call`] embeds a
/// completion without boxing a resolver future).
pub struct Reply<T: Send + 'static>(ReplyImpl<T>);

impl<T: Send + 'static> Reply<T> {
    /// Awaits the reply, consuming the endpoint.
    pub async fn recv(self) -> Result<T, RecvError> {
        match self.0 {
            ReplyImpl::Sim(SimReply::Idle(rx)) => {
                rx.expect("unpolled reply holds its receiver").recv().await
            }
            ReplyImpl::Sim(SimReply::Polling(mut f)) => {
                std::future::poll_fn(move |cx| f.as_mut().poll(cx)).await
            }
            ReplyImpl::Par(rx) => rx.recv().await,
        }
    }

    /// Owned poll for the reply: `Ready(Ok)` once the server
    /// answered, `Ready(Err(Closed))` if it dropped the endpoint
    /// unanswered. Polling after `Ready` is a caller bug.
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Result<T, RecvError>> {
        match &mut self.0 {
            ReplyImpl::Sim(sim_reply) => {
                if let SimReply::Idle(rx) = sim_reply {
                    let rx = rx.take().expect("unpolled reply holds its receiver");
                    *sim_reply = SimReply::Polling(Box::pin(async move { rx.recv().await }));
                }
                match sim_reply {
                    SimReply::Polling(f) => f.as_mut().poll(cx),
                    SimReply::Idle(_) => unreachable!("moved to Polling above"),
                }
            }
            ReplyImpl::Par(rx) => rx.poll_recv(cx),
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for Reply<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply")
    }
}

/// The answers to one drained burst of requests: what a batching
/// server uses in place of [`ReplyTo::send`].
///
/// [`send`](ReplyBatch::send) publishes the value at once on both
/// backends. On the simulator that is all there is: the reply is sent
/// where it is produced, as its own send event, exactly as
/// `reply.send(v).await` would. On real threads the batch keeps back
/// the *wakes* — one per waiting task, however many of its calls were
/// answered (`chan.reply_wakes_coalesced` counts the rest) — until
/// [`flush`](ReplyBatch::flush), so a client with several outstanding
/// calls is woken once per burst instead of once per reply.
///
/// The batch is owned by the server task and may be held across
/// `.await`s. Flush before waiting on something slow, or the callers
/// already answered wait with you; dropping the batch flushes it, so
/// a server that returns mid-burst strands nobody.
#[derive(Debug, Default)]
pub struct ReplyBatch {
    wakes: par::WakeBatch,
}

impl ReplyBatch {
    /// Answers `reply` with `value` without suspending. A reply
    /// endpoint always has room for its one reply; a requester that
    /// has gone away is not an error to a server, so nothing comes
    /// back.
    pub fn send<T: Send + 'static>(&mut self, reply: ReplyTo<T>, value: T) {
        match reply.0 {
            ReplyToImpl::Sim(tx) => {
                let _ = tx.try_send(value);
            }
            ReplyToImpl::Par(tx) => self.wakes.hold(|| {
                let _ = tx.send(value);
            }),
        }
    }

    /// Wakes every task answered since the last flush.
    pub fn flush(&mut self) {
        self.wakes.flush();
    }
}

// ---------------------------------------------------------------------------
// Join handles.
// ---------------------------------------------------------------------------

/// Why a task ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The task's future panicked; the payload is the panic message.
    Panicked(String),
    /// The task was killed (cancelled) before completing. Only the
    /// simulator backend can kill tasks.
    Killed,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            JoinError::Killed => write!(f, "task killed"),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<sim::JoinError> for JoinError {
    fn from(e: sim::JoinError) -> JoinError {
        match e {
            sim::JoinError::Panicked(m) => JoinError::Panicked(m),
            sim::JoinError::Killed => JoinError::Killed,
        }
    }
}

enum JoinHandleImpl<T> {
    Sim(sim::JoinHandle<T>),
    Par(par::JoinHandle<T>),
}

/// An owned handle to a spawned task; dropping it detaches the task.
pub struct JoinHandle<T>(JoinHandleImpl<T>);

impl<T> JoinHandle<T> {
    /// The simulator task id behind this handle, if on the simulator
    /// backend (thread-pool tasks have no external identity).
    pub fn task_id(&self) -> Option<TaskId> {
        match &self.0 {
            JoinHandleImpl::Sim(h) => Some(h.id()),
            JoinHandleImpl::Par(_) => None,
        }
    }

    /// Returns `true` once the task has finished (normally or not).
    pub fn is_finished(&self) -> bool {
        match &self.0 {
            JoinHandleImpl::Sim(h) => h.is_finished(),
            JoinHandleImpl::Par(h) => h.is_finished(),
        }
    }

    /// Kills the task if the backend supports it.
    ///
    /// On the simulator this cancels the task (joiners observe
    /// [`JoinError::Killed`]); on real threads cooperative tasks
    /// cannot be killed and this returns `false`.
    pub fn abort(&self) -> bool {
        match &self.0 {
            JoinHandleImpl::Sim(h) => h.abort(),
            JoinHandleImpl::Par(_) => false,
        }
    }

    /// Awaits the task's completion, yielding its result.
    pub fn join(self) -> Join<T> {
        match self.0 {
            JoinHandleImpl::Sim(h) => Join(JoinImpl::Sim(h.join())),
            JoinHandleImpl::Par(h) => Join(JoinImpl::Par(h.join())),
        }
    }

    /// Awaits the task's completion *without* consuming the handle.
    ///
    /// The result is single-take: the first `watch`/`join` future to
    /// observe completion takes it.
    pub fn watch(&self) -> Join<T> {
        match &self.0 {
            JoinHandleImpl::Sim(h) => Join(JoinImpl::Sim(h.watch())),
            JoinHandleImpl::Par(h) => Join(JoinImpl::Par(h.watch())),
        }
    }
}

enum JoinImpl<T> {
    Sim(sim::Join<T>),
    Par(par::Watch<T>),
}

/// Future returned by [`JoinHandle::join`] / [`JoinHandle::watch`];
/// cancel-safe (usable as a `choose!` arm).
pub struct Join<T>(JoinImpl<T>);

impl<T> Unpin for Join<T> {}

impl<T> Future for Join<T> {
    type Output = Result<T, JoinError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.0 {
            JoinImpl::Sim(f) => Pin::new(f).poll(cx).map_err(JoinError::from),
            JoinImpl::Par(f) => Pin::new(f).poll(cx).map_err(|p| JoinError::Panicked(p.0)),
        }
    }
}

// ---------------------------------------------------------------------------
// Spawning.
// ---------------------------------------------------------------------------

/// A backend-neutral identity for the calling task, usable as a map
/// key (e.g. by the protocol deadlock detector): stable across the
/// task's suspensions (and, on real threads, steals), and distinct for
/// any two live tasks.
///
/// The scheduler polling the task names it: on the simulator this is
/// [`TaskId::as_u64`]; on real threads, the key the pool gave the task
/// at spawn, or, for code running directly under `Runtime::block_on`,
/// the key of that `block_on` call.
pub fn current_task_key() -> u64 {
    match backend() {
        Backend::Sim => sim::current_task().as_u64(),
        Backend::Threads => {
            par::current_task_key().expect("chanos-rt: current_task_key outside a task")
        }
    }
}

/// The [`Priority`] class of the calling task, as the scheduler
/// polling it recorded at spawn: what it was spawned with via
/// [`spawn_with_priority`], `Normal` otherwise (and for a `block_on`
/// driver). A child inherits nothing: pass `current_priority()` to
/// [`spawn_with_priority`] to spawn it in its parent's class.
pub fn current_priority() -> Priority {
    match backend() {
        Backend::Sim if sim::current_task_is_high() => Priority::High,
        Backend::Sim => Priority::Normal,
        Backend::Threads => par::current_priority(),
    }
}

/// The one spawn path. `priority` is `Normal` for every pinned or
/// daemon spawn: no entry point takes a class together with either.
fn spawn_dispatch<T, F>(
    name: Option<&str>,
    core: Option<CoreId>,
    daemon: bool,
    priority: Priority,
    fut: F,
) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    match backend() {
        Backend::Sim => {
            let name = name.unwrap_or("task");
            let h = match (core, daemon) {
                (Some(c), true) => sim::spawn_daemon_on(name, c, fut),
                (Some(c), false) => sim::spawn_named_on(name, c, fut),
                (None, true) => sim::spawn_daemon(name, fut),
                (None, false) if priority == Priority::High => sim::spawn_named_high(name, fut),
                (None, false) => sim::spawn_named(name, fut),
            };
            JoinHandle(JoinHandleImpl::Sim(h))
        }
        // Real threads: a core pin maps to a parchan worker pin
        // (worker `core % workers`) — the task lands on that
        // worker's unstealable queue and every poll runs there, so
        // `current_core()` observes the pin and `chanos-kernel`
        // placement policies hold on hardware. Names stay advisory
        // (tasks are not OS threads; there is nothing to label).
        Backend::Threads => {
            let h = par_handle();
            let jh = match core {
                Some(c) => h.spawn_pinned(c.index(), fut),
                None => h.spawn_with_priority(priority, fut),
            };
            JoinHandle(JoinHandleImpl::Par(jh))
        }
    }
}

/// Spawns a task; placement follows the backend's default policy.
pub fn spawn<T, F>(fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(None, None, false, Priority::Normal, fut)
}

/// Spawns a named task with an explicit [`Priority`] class.
///
/// Both schedulers are two-level: while a `High` task is ready, it is
/// dispatched before every ready `Normal` task, and ready `High` tasks
/// run in the order they became ready. On real threads `High` tasks
/// route through the pool's high-priority lane, which every dispatch
/// checks before the local run queues, so the task never waits behind
/// ring backlog; on the simulator each core keeps a `High` run queue
/// that it dispatches before its `Normal` one. Use it for
/// latency-critical request handling that must stay responsive while
/// batch work floods the machine. [`current_priority`] reports the
/// class inside the task on both backends.
pub fn spawn_named_with_priority<T, F>(name: &str, priority: Priority, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(Some(name), None, false, priority, fut)
}

/// Spawns a task with an explicit [`Priority`] class; see
/// [`spawn_named_with_priority`].
pub fn spawn_with_priority<T, F>(priority: Priority, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_named_with_priority("task", priority, fut)
}

/// Spawns a task pinned to `core`: the simulated core on the
/// simulator, worker `core % workers` on real threads (unstealable;
/// every poll runs there).
pub fn spawn_on<T, F>(core: CoreId, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(None, Some(core), false, Priority::Normal, fut)
}

/// Spawns a named task.
pub fn spawn_named<T, F>(name: &str, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(Some(name), None, false, Priority::Normal, fut)
}

/// Spawns a named task pinned to `core` (see [`spawn_on`]).
pub fn spawn_named_on<T, F>(name: &str, core: CoreId, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(Some(name), Some(core), false, Priority::Normal, fut)
}

/// Spawns a named daemon task (does not keep the simulation alive;
/// ordinary task on real threads).
pub fn spawn_daemon<T, F>(name: &str, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(Some(name), None, true, Priority::Normal, fut)
}

/// Spawns a named daemon task pinned to `core`.
pub fn spawn_daemon_on<T, F>(name: &str, core: CoreId, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    spawn_dispatch(Some(name), Some(core), true, Priority::Normal, fut)
}

/// Spawns a daemon task that models *device or fabric* work (network
/// switches, port demultiplexers, in-flight frames, disk engines).
///
/// On the simulator it is pinned to the system device pseudo-core, so
/// modeled device time never occupies a CPU core. On real threads the
/// device is just more code: the task runs unpinned on the worker
/// pool.
pub fn spawn_device<T, F>(name: &str, fut: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    match backend() {
        Backend::Sim => JoinHandle(JoinHandleImpl::Sim(sim::spawn_daemon_on(
            name,
            sim::system_device_core(),
            fut,
        ))),
        Backend::Threads => spawn_dispatch(Some(name), None, true, Priority::Normal, fut),
    }
}

// ---------------------------------------------------------------------------
// Time and cost charging.
// ---------------------------------------------------------------------------

enum DelayImpl {
    Sim(sim::Delay),
    /// Real hardware does real work; modeled compute cost is a
    /// cooperative yield (the actual instructions the kernel executes
    /// are the cost). Suspending exactly once mirrors the simulator's
    /// suspension point: delay()-paced loops stay interleavable
    /// instead of monopolizing a worker.
    Par(par::YieldNow),
}

/// Future returned by [`delay`].
pub struct Delay(DelayImpl);

impl Unpin for Delay {}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match &mut self.0 {
            DelayImpl::Sim(f) => Pin::new(f).poll(cx),
            DelayImpl::Par(f) => Pin::new(f).poll(cx),
        }
    }
}

/// Charges `n` cycles of *modeled compute* to the current core.
///
/// On the simulator the core stays busy for `n` virtual cycles. On
/// real threads the cost model is the hardware itself, so this only
/// yields to the scheduler once and completes on the next poll.
pub fn delay(n: Cycles) -> Delay {
    match backend() {
        Backend::Sim => Delay(DelayImpl::Sim(sim::delay(n))),
        Backend::Threads => Delay(DelayImpl::Par(par::yield_now())),
    }
}

enum SleepImpl {
    Sim(sim::Sleep),
    Par(par::Sleep),
}

/// Future returned by [`sleep`] / [`after`].
pub struct Sleep(SleepImpl);

impl Unpin for Sleep {}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match &mut self.0 {
            SleepImpl::Sim(f) => Pin::new(f).poll(cx),
            SleepImpl::Par(f) => Pin::new(f).poll(cx),
        }
    }
}

/// Sleeps `n` cycles without occupying the core: virtual time on the
/// simulator, wall-clock time (1 cycle ≈ 1 ns) on real threads.
pub fn sleep(n: Cycles) -> Sleep {
    match backend() {
        Backend::Sim => Sleep(SleepImpl::Sim(sim::sleep(n))),
        Backend::Threads => Sleep(SleepImpl::Par(par::after(Duration::from_nanos(n)))),
    }
}

/// Alias for [`sleep`]: the timeout arm of a `choose!`.
pub fn after(n: Cycles) -> Sleep {
    sleep(n)
}

/// Current time in cycles: virtual time on the simulator, wall-clock
/// nanoseconds since runtime start on real threads.
pub fn now() -> Cycles {
    match backend() {
        Backend::Sim => sim::now(),
        Backend::Threads => par_handle().now_nanos(),
    }
}

/// The core the calling task runs on: the simulated core, or the
/// worker-thread index (0 when called from `block_on` off-pool).
pub fn current_core() -> CoreId {
    match backend() {
        Backend::Sim => sim::current_core(),
        Backend::Threads => CoreId(par::current_worker().unwrap_or(0) as u32),
    }
}

/// Number of cores available for OS service placement.
pub fn real_cores() -> usize {
    match backend() {
        Backend::Sim => sim::real_cores(),
        Backend::Threads => par_handle().workers(),
    }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Adds `v` to a named counter of the ambient runtime.
pub fn stat_add(name: &str, v: u64) {
    match backend() {
        Backend::Sim => sim::stat_add(name, v),
        Backend::Threads => par::stat_add(name, v),
    }
}

/// Increments a named counter.
pub fn stat_incr(name: &str) {
    stat_add(name, 1);
}

/// Reads a named counter's current value.
pub fn stat_get(name: &str) -> u64 {
    match backend() {
        Backend::Sim => sim::stat_get(name),
        Backend::Threads => par_handle().stat_get(name),
    }
}

/// Every counter of the ambient runtime as name-sorted
/// `(name, value)` pairs: the same map on both backends.
pub fn stat_snapshot() -> Vec<(String, u64)> {
    match backend() {
        Backend::Sim => sim::stat_snapshot(),
        Backend::Threads => par_handle().counters(),
    }
}

thread_local! {
    /// Per-thread RNG for the threads backend, seeded from the worker
    /// index so different workers draw different streams.
    static PAR_RNG: std::cell::RefCell<sim::Pcg32> = std::cell::RefCell::new(
        sim::Pcg32::with_stream(0x0C4A05, par::current_worker().unwrap_or(usize::MAX) as u64),
    );
}

/// Runs a closure with a runtime RNG: the simulation's deterministic
/// PCG on the simulator, a per-worker PCG on real threads.
pub fn with_rng<R>(f: impl FnOnce(&mut sim::Pcg32) -> R) -> R {
    match backend() {
        Backend::Sim => sim::with_rng(f),
        Backend::Threads => PAR_RNG.with(|r| f(&mut r.borrow_mut())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn handle_layout_is_pinned() {
        // The simulator charges a message `size_of::<T>()` bytes: a failure
        // here means every modeled number is about to move.
        // (Handles ride inside the requests, so the `*Impl` nesting is
        // part of the model.)
        assert_eq!(std::mem::size_of::<ReplyTo<u64>>(), 24);
        assert_eq!(std::mem::size_of::<Reply<u64>>(), 24);
        assert_eq!(std::mem::size_of::<Sender<u64>>(), 16);
        assert_eq!(std::mem::size_of::<Receiver<u64>>(), 16);
        // A `Port` rides in `vfs`'s registry `Insert`: the sender and the probe.
        assert_eq!(std::mem::size_of::<Port<u64>>(), 24);
    }

    #[test]
    fn facade_types_are_send() {
        assert_send::<Sender<Vec<u8>>>();
        assert_send::<Receiver<Vec<u8>>>();
        assert_send::<ReplyTo<u64>>();
        assert_send::<Reply<u64>>();
        assert_send::<JoinHandle<u64>>();
        assert_send::<Join<u64>>();
        assert_send::<Delay>();
        assert_send::<Sleep>();
    }

    #[test]
    fn sim_backend_dispatch() {
        let mut s = sim::Simulation::new(2);
        let out = s
            .block_on(async {
                assert_eq!(backend(), Backend::Sim);
                let (tx, rx) = channel::<u32>(Capacity::Unbounded);
                spawn(async move {
                    tx.send(7).await.unwrap();
                });
                delay(10).await;
                stat_incr("rt.test");
                rx.recv().await.unwrap()
            })
            .unwrap();
        assert_eq!(out, 7);
    }

    #[test]
    fn threads_backend_dispatch() {
        let rt = par::Runtime::new(2);
        let out = rt.block_on(async {
            assert_eq!(backend(), Backend::Threads);
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            let h = spawn(async move {
                delay(10).await; // One yield on threads.
                tx.send(9).await.unwrap();
                3u32
            });
            let v = rx.recv().await.unwrap();
            let r = h.join().await.unwrap();
            stat_incr("rt.test");
            v + r
        });
        assert_eq!(out, 12);
        rt.shutdown();
    }

    #[test]
    fn try_ops_report_closed_on_both_backends() {
        async fn check() {
            let (tx, rx) = channel::<u32>(Capacity::Bounded(1));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            // Let the message's (modeled or wall-clock) transit pass.
            sleep(100_000).await;
            assert_eq!(rx.try_recv(), Ok(1));
            rx.close();
            assert_eq!(tx.try_send(3), Err(TrySendError::Closed(3)));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
        }
        let mut s = sim::Simulation::new(1);
        s.block_on(check()).unwrap();
        let rt = par::Runtime::new(1);
        rt.block_on(check());
        rt.shutdown();
    }

    #[test]
    fn delay_yields_to_peer_tasks_on_threads() {
        // A delay()-paced loop on a single worker must not starve a
        // sibling task: each delay suspends once.
        let rt = par::Runtime::new(1);
        let done = rt.block_on(async {
            let (tx, rx) = channel::<u32>(Capacity::Unbounded);
            let pacer = spawn(async move {
                for _ in 0..100 {
                    delay(1).await;
                }
                drop(tx);
            });
            // If delay never yielded, this recv could only run after
            // the pacer's entire loop; interleaving is what we prove
            // by completing at all on one worker.
            let got = rx.recv().await;
            pacer.join().await.unwrap();
            got
        });
        assert_eq!(done, Err(RecvError::Closed));
        rt.shutdown();
    }

    /// Reads the task's key before and after each of several sleeps.
    /// A sleep's wake comes from the timer thread through the pool's
    /// injector, so on four workers the task may resume on any of
    /// them: the key must follow it.
    async fn key_across_sleeps() -> u64 {
        let key = current_task_key();
        for _ in 0..8 {
            sleep(1_000).await;
            assert_eq!(current_task_key(), key, "a task's key moved");
        }
        key
    }

    #[test]
    fn current_task_key_is_stable_and_distinct_on_threads() {
        let rt = par::Runtime::new(4);
        rt.block_on(async {
            let driver = current_task_key();
            let a = spawn(key_across_sleeps());
            let b = spawn(key_across_sleeps());
            let (ka, kb) = (a.join().await.unwrap(), b.join().await.unwrap());
            assert_ne!(ka, kb, "two live tasks share a key");
            assert_eq!(
                current_task_key(),
                driver,
                "the block_on driver's key moved"
            );
            assert!(driver != ka && driver != kb);
        });
        rt.shutdown();
    }

    #[test]
    fn current_task_key_is_the_task_id_on_the_simulator() {
        let mut s = sim::Simulation::new(2);
        s.block_on(async {
            assert_eq!(current_task_key(), sim::current_task().as_u64());
            let h = spawn(async { (current_task_key(), sim::current_task().as_u64()) });
            let (key, id) = h.join().await.unwrap();
            assert_eq!(key, id);
            assert_ne!(key, current_task_key());
        })
        .unwrap();
    }

    #[test]
    fn spawn_on_pins_to_worker_on_threads() {
        let rt = par::Runtime::new(4);
        rt.block_on(async {
            for c in 0..4u32 {
                let h = spawn_on(CoreId(c), async move {
                    let mut seen = vec![current_core()];
                    // The pin must hold across suspension points,
                    // not just on the first poll.
                    for _ in 0..3 {
                        sleep(1_000).await;
                        seen.push(current_core());
                    }
                    seen
                });
                for got in h.join().await.unwrap() {
                    assert_eq!(got, CoreId(c));
                }
            }
        });
        rt.shutdown();
    }
}
