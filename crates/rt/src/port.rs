//! Typed service ports: the §3 "syscall is an RPC" pattern as a
//! first-class, *pipelined* API.
//!
//! Every OS service in this repo is a task draining an enum-of-
//! requests channel, where each variant smuggles a [`ReplyTo`].
//! [`Port`] packages that pattern:
//!
//! * [`Port::call`] submits a request **immediately** and returns a
//!   [`Call`] — a future that can be *held*. Clients issue many calls
//!   before awaiting any (pipelining) and await them in any order.
//! * [`Port::call_batch`] submits a slice of requests as one burst:
//!   on real threads the server is woken **once** for the whole burst
//!   (`chan.send_many_*`), composing with a [`ReplyBatch`] on the
//!   reply side; on the simulator each request is still charged as
//!   its own send event, so traces stay deterministic.
//! * [`Port::call_deferred`] + [`Port::submit`] split issue from
//!   submission for builder surfaces (`Env::batch()` in
//!   `chanos-kernel` is built on it).
//!
//! A port's queue is unbounded, so a request is submitted where it is
//! made: the queue takes it, or the server is gone and the call fails
//! [`CallError::ServerGone`] at once. Nothing waits for room. Overload
//! is meant to be met by shedding calls at the port, not by making a
//! caller wait for space.
//!
//! Each call's reply endpoint is §3's "fresh channel used to send the
//! return value back": a [`reply_channel`](crate::reply_channel) made
//! for the call and freed with it. The port keeps no pool and takes no
//! lock.
//!
//! The error taxonomy replaces the lossy `unwrap_or(Err(Gone))`
//! idiom: a failed call distinguishes [`CallError::ServerGone`] (the
//! request channel is closed — the server died or was never there)
//! from [`CallError::Cancelled`] (the server dropped the reply
//! endpoint without answering *and is still serving*). The
//! classification is as of completion time: a server that cancels a
//! call and then exits reports `ServerGone` — by the time the client
//! observes the failure the service **is** gone, which is the version
//! of events a retrying caller can act on. Application-level errors
//! ride inside the response type itself, exactly as before.
//!
//! Dropping an unresolved [`Call`] is a *cancellation*, not a leak:
//! the reply channel closes (so the server's answer fails cleanly)
//! and the drop is counted on the ambient `port.calls_cancelled`
//! statistic (a [`Call::from_future`] belongs to no port and is not
//! counted).
//!
//! [`ReplyBatch`]: crate::ReplyBatch

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::{reply_channel, Cycles, Receiver, Reply, ReplyTo, Sender, Sleep, TrySendError};

/// Why a [`Call`] failed at the transport layer. Application errors
/// are carried inside the response type instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallError {
    /// The server's request channel is closed: the server is gone (or
    /// died before answering) and the request was not served.
    ServerGone,
    /// The server dropped the reply endpoint without answering while
    /// its request channel was still open — it cancelled this call
    /// and kept serving. (A server that cancels and *then* exits
    /// reports [`CallError::ServerGone`] instead: the classification
    /// is as of completion time.)
    Cancelled,
    /// The call's deadline ([`Port::call_timeout`]) elapsed before the
    /// server answered.
    /// The reply endpoint is dropped, so a late answer fails cleanly
    /// on the server side — same as a client-side cancellation.
    TimedOut,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::ServerGone => write!(f, "service is gone"),
            CallError::Cancelled => write!(f, "call cancelled by the service"),
            CallError::TimedOut => write!(f, "call deadline elapsed"),
        }
    }
}

impl std::error::Error for CallError {}

/// State shared by a port and its in-flight calls: failure
/// classification (which survives the port being dropped).
struct PortCore {
    /// Resolve-time ServerGone-vs-Cancelled probe. One clone of the
    /// request sender, type-erased here at attach time — calls carry
    /// only their `Arc<PortCore>`, never a cloned `Sender`.
    server_gone: Box<dyn Fn() -> bool + Send + Sync>,
}

impl PortCore {
    fn classify_reply_drop(&self) -> CallError {
        if (self.server_gone)() {
            CallError::ServerGone
        } else {
            CallError::Cancelled
        }
    }
}

/// A typed client handle to a service task: requests of type `Req` go
/// in, each carrying its own [`ReplyTo`]; completions come back as
/// [`Call`] futures.
///
/// Clone freely — clones share the underlying channel. The server side is an ordinary
/// [`Receiver<Req>`]; servers keep draining with `recv_many` exactly
/// as before.
pub struct Port<Req> {
    tx: Sender<Req>,
    core: Arc<PortCore>,
}

impl<Req> Clone for Port<Req> {
    fn clone(&self) -> Self {
        Port {
            tx: self.tx.clone(),
            core: self.core.clone(),
        }
    }
}

impl<Req> std::fmt::Debug for Port<Req> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Port {{ closed: {} }}", (self.core.server_gone)())
    }
}

/// Creates a service channel on the calling task's backend: the client
/// [`Port`] and the server [`Receiver`].
///
/// `cap` must be [`Capacity::Unbounded`](crate::Capacity::Unbounded):
/// every call is submitted where it is made, and a port has no path
/// for a request its queue cannot take yet. The argument stays only
/// because callers outside this workspace still pass it.
///
/// # Panics
///
/// If `cap` is bounded or a rendezvous.
pub fn port_channel<Req: Send + 'static>(cap: crate::Capacity) -> (Port<Req>, Receiver<Req>) {
    assert_eq!(
        cap,
        crate::Capacity::Unbounded,
        "a port's queue is unbounded"
    );
    let (tx, rx) = crate::channel(cap);
    (Port::attach(tx), rx)
}

impl<Req: Send + 'static> Port<Req> {
    fn attach(tx: Sender<Req>) -> Port<Req> {
        let probe = tx.clone();
        Port {
            tx,
            core: Arc::new(PortCore {
                server_gone: Box::new(move || probe.is_closed()),
            }),
        }
    }

    /// Returns `true` if the server can no longer receive requests.
    pub fn is_closed(&self) -> bool {
        self.tx.is_closed()
    }

    /// Issues one call: builds the request around a fresh reply
    /// channel and submits it **now**. The returned [`Call`] is only
    /// the completion — hold several before awaiting any to pipeline
    /// requests into the server's batch drain. If the server is gone,
    /// the call resolves [`CallError::ServerGone`].
    pub fn call<Resp, F>(&self, make: F) -> Call<Resp>
    where
        Resp: Send + 'static,
        F: FnOnce(ReplyTo<Resp>) -> Req,
    {
        self.issue(None, make)
    }

    /// [`Port::call`] with a deadline: the call resolves
    /// [`CallError::TimedOut`] if the server has not answered within
    /// `timeout` cycles of issue (virtual cycles on the simulator, ≈ ns
    /// on real threads). The timeout is resolved inside the call's own
    /// poll — a `Call` racing a deadline is still one plain future,
    /// usable as a `choose!` arm or held in a pipeline, with no
    /// `choose!`+`after` scaffolding at the call site.
    pub fn call_timeout<Resp, F>(&self, timeout: Cycles, make: F) -> Call<Resp>
    where
        Resp: Send + 'static,
        F: FnOnce(ReplyTo<Resp>) -> Req,
    {
        self.issue(Some(timeout), make)
    }

    fn issue<Resp, F>(&self, deadline: Option<Cycles>, make: F) -> Call<Resp>
    where
        Resp: Send + 'static,
        F: FnOnce(ReplyTo<Resp>) -> Req,
    {
        let (reply_to, reply) = reply_channel();
        if self.tx.try_send(make(reply_to)).is_err() {
            return Call::failed(CallError::ServerGone);
        }
        let mut call = self.waiting_call(reply);
        call.deadline = deadline.map(crate::after);
        call
    }

    /// Issues a batch of same-response-type calls, submitted as one
    /// burst: on real threads the server wakes **once** for the whole
    /// slice; on the simulator each request is its own send event
    /// (deterministic traces). Returns the calls in submission order;
    /// completion order is the client's choice. The server takes the
    /// requests in submission order; if it is gone, every call resolves
    /// [`CallError::ServerGone`].
    pub fn call_batch<Resp, F>(&self, makes: impl IntoIterator<Item = F>) -> Vec<Call<Resp>>
    where
        Resp: Send + 'static,
        F: FnOnce(ReplyTo<Resp>) -> Req,
    {
        let mut msgs = VecDeque::new();
        let mut replies = Vec::new();
        for make in makes {
            let (reply_to, reply) = reply_channel();
            msgs.push_back(make(reply_to));
            replies.push(reply);
        }
        let sent = self.tx.try_send_many(&mut msgs);
        replies
            .into_iter()
            .enumerate()
            .map(|(i, reply)| {
                if i < sent {
                    self.waiting_call(reply)
                } else {
                    Call::failed(CallError::ServerGone)
                }
            })
            .collect()
    }

    /// Builds a call but only *buffers* the request into `buf`; the
    /// caller submits the accumulated burst later with
    /// [`Port::submit`]. This is the building block for typed batch
    /// builders (`Env::batch()`).
    ///
    /// A deferred call that is never submitted resolves as
    /// [`CallError::Cancelled`] once `buf` is dropped.
    pub fn call_deferred<Resp, F>(&self, buf: &mut VecDeque<Req>, make: F) -> Call<Resp>
    where
        Resp: Send + 'static,
        F: FnOnce(ReplyTo<Resp>) -> Req,
    {
        let (reply_to, reply) = reply_channel();
        buf.push_back(make(reply_to));
        self.waiting_call(reply)
    }

    /// Submits previously deferred requests as one burst (one server
    /// wake on real threads, one send event per message on the
    /// simulator), leaving `buf` empty. The queue takes every request
    /// unless the server is gone; then the requests are dropped —
    /// counted on the ambient `port.calls_dropped_at_submit` statistic
    /// — and their calls resolve as [`CallError::ServerGone`]
    /// deterministically (the request channel *is* closed by the time
    /// they observe the dropped reply endpoint).
    pub fn submit(&self, buf: &mut VecDeque<Req>) {
        self.tx.try_send_many(buf);
        if !buf.is_empty() && crate::in_runtime() {
            crate::stat_add("port.calls_dropped_at_submit", buf.len() as u64);
        }
        buf.clear();
    }

    /// Forwards a pre-built request — e.g. delegating a message whose
    /// [`ReplyTo`] belongs to another client further down a service
    /// chain (channels as capabilities, §3). Returns the request if
    /// the server is gone.
    pub fn forward(&self, req: Req) -> Result<(), Req> {
        self.tx.try_send(req).map_err(|e| match e {
            TrySendError::Closed(req) | TrySendError::Full(req) => req,
        })
    }

    fn waiting_call<Resp: Send + 'static>(&self, reply: Reply<Resp>) -> Call<Resp> {
        // The completion is held *inline*: an owned `Reply` polled in
        // place, no boxed resolver, no cloned probe `Sender` — the
        // ServerGone-vs-Cancelled classification happens at resolve
        // time through the shared `PortCore`.
        Call {
            state: CallState::Waiting(reply, self.core.clone()),
            deadline: None,
        }
    }
}

enum CallState<Resp: Send + 'static> {
    /// Failed at issue time (server gone before submission).
    Failed(Option<CallError>),
    /// Submitted; the completion slot polled in place, beside the
    /// port it was issued through.
    Waiting(Reply<Resp>, Arc<PortCore>),
    /// Resolving through an owned future: the [`Call::from_future`]
    /// adapter, which belongs to no port.
    Boxed(Pin<Box<dyn Future<Output = Result<Resp, CallError>> + Send>>),
    /// Resolved; polling again is a bug.
    Done,
}

/// An in-flight RPC issued through a [`Port`]: a future resolving to
/// the response or a [`CallError`].
///
/// Calls are *held* completions: issue several, then await them in
/// any order (each is also a valid `choose!` arm). Dropping an
/// unresolved call cancels it — the server's reply fails cleanly and
/// the drop is counted (`port.calls_cancelled`). A call with a
/// deadline ([`Port::call_timeout`]) resolves [`CallError::TimedOut`]
/// from inside its own poll.
#[must_use = "a Call does nothing unless awaited; dropping it cancels the RPC"]
pub struct Call<Resp: Send + 'static> {
    state: CallState<Resp>,
    deadline: Option<Sleep>,
}

impl<Resp: Send + 'static> Call<Resp> {
    fn failed(e: CallError) -> Call<Resp> {
        Call {
            state: CallState::Failed(Some(e)),
            deadline: None,
        }
    }

    /// Wraps an arbitrary future as a call — the adapter non-message
    /// backends use to expose the same submit-then-complete surface
    /// (e.g. the trap kernel, which has no submission queue and runs
    /// the call when first polled).
    pub fn from_future<F>(fut: F) -> Call<Resp>
    where
        F: Future<Output = Result<Resp, CallError>> + Send + 'static,
    {
        Call {
            state: CallState::Boxed(Box::pin(fut)),
            deadline: None,
        }
    }
}

impl<Resp: Send + 'static> Unpin for Call<Resp> {}

impl<Resp: Send + 'static> Future for Call<Resp> {
    type Output = Result<Resp, CallError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match &mut this.state {
            CallState::Failed(e) => {
                let e = e.take().expect("failure taken once");
                this.state = CallState::Done;
                this.deadline = None;
                return Poll::Ready(Err(e));
            }
            CallState::Waiting(reply, core) => {
                if let Poll::Ready(out) = reply.poll_recv(cx) {
                    // The reply endpoint died unanswered: if the
                    // request channel is closed too, the server is
                    // gone; otherwise the server is alive and chose to
                    // drop this call.
                    let out = out.map_err(|_| core.classify_reply_drop());
                    this.state = CallState::Done;
                    this.deadline = None;
                    return Poll::Ready(out);
                }
            }
            CallState::Boxed(f) => {
                if let Poll::Ready(out) = f.as_mut().poll(cx) {
                    this.state = CallState::Done;
                    this.deadline = None;
                    return Poll::Ready(out);
                }
            }
            CallState::Done => panic!("Call polled after completion"),
        }
        // Still pending: arm/check the deadline. Timing out drops the
        // reply endpoint, so a late server answer fails cleanly —
        // from the server's view this is a client cancellation.
        if let Some(sleep) = &mut this.deadline {
            if Pin::new(sleep).poll(cx).is_ready() {
                this.state = CallState::Done;
                this.deadline = None;
                if crate::in_runtime() {
                    crate::stat_incr("port.calls_timed_out");
                }
                return Poll::Ready(Err(CallError::TimedOut));
            }
        }
        Poll::Pending
    }
}

impl<Resp: Send + 'static> Drop for Call<Resp> {
    fn drop(&mut self) {
        // An unresolved call dropped = a cancellation, observable
        // in the runtime statistics (never a silent reply-channel
        // leak: dropping the held reply receiver closes the
        // completion slot, so the server's answer fails cleanly). A
        // `from_future` call has no port, so it is not counted.
        if matches!(self.state, CallState::Waiting(..)) && crate::in_runtime() {
            crate::stat_incr("port.calls_cancelled");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Capacity};
    use chanos_parchan as par;
    use chanos_sim as sim;

    enum Req {
        Add(u32, u32, ReplyTo<u32>),
        Drop(ReplyTo<u32>),
    }

    fn spawn_server(rx: Receiver<Req>) {
        crate::spawn(async move {
            while let Ok(msg) = rx.recv().await {
                match msg {
                    Req::Add(a, b, reply) => {
                        let _ = reply.send(a + b).await;
                    }
                    Req::Drop(reply) => drop(reply),
                }
            }
        });
    }

    async fn pipelined_out_of_order() -> (u32, u32) {
        let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
        spawn_server(rx);
        let c1 = port.call(|r| Req::Add(1, 2, r));
        let c2 = port.call(|r| Req::Add(10, 20, r));
        // Await in reverse issue order.
        let v2 = c2.await.unwrap();
        let v1 = c1.await.unwrap();
        (v1, v2)
    }

    #[test]
    fn pipelined_calls_resolve_out_of_order_on_both_backends() {
        let mut s = sim::Simulation::new(2);
        assert_eq!(s.block_on(pipelined_out_of_order()).unwrap(), (3, 30));
        let rt = par::Runtime::new(2);
        assert_eq!(rt.block_on(pipelined_out_of_order()), (3, 30));
        rt.shutdown();
    }

    async fn taxonomy() -> (Result<u32, CallError>, Result<u32, CallError>) {
        // Server gone: channel with no receiver.
        let (gone_port, rx) = port_channel::<Req>(Capacity::Unbounded);
        drop(rx);
        let gone = gone_port.call(|r| Req::Add(1, 1, r)).await;
        // Cancelled: server alive but drops the reply.
        let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
        spawn_server(rx);
        let cancelled = port.call(Req::Drop).await;
        (gone, cancelled)
    }

    #[test]
    fn error_taxonomy_on_both_backends() {
        let expect = (Err(CallError::ServerGone), Err(CallError::Cancelled));
        let mut s = sim::Simulation::new(2);
        assert_eq!(s.block_on(taxonomy()).unwrap(), expect);
        let rt = par::Runtime::new(2);
        assert_eq!(rt.block_on(taxonomy()), expect);
        rt.shutdown();
    }

    async fn dropped_call_counts() -> u64 {
        let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
        spawn_server(rx);
        let before = crate::stat_get("port.calls_cancelled");
        let c1 = port.call(|r| Req::Add(1, 2, r));
        let c2 = port.call(|r| Req::Add(3, 4, r));
        drop(c1);
        let _ = c2.await;
        crate::stat_get("port.calls_cancelled") - before
    }

    async fn dropped_adapter_then_port_call() -> (u64, u64) {
        let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
        spawn_server(rx);
        let before = crate::stat_get("port.calls_cancelled");
        drop(Call::<u32>::from_future(std::future::pending()));
        let after_adapter = crate::stat_get("port.calls_cancelled") - before;
        drop(port.call(|r| Req::Add(1, 2, r)));
        let after_port = crate::stat_get("port.calls_cancelled") - before;
        (after_adapter, after_port)
    }

    #[test]
    fn ambient_cancellations_count_port_calls_only() {
        // A dropped `from_future` call involves no port and is not
        // counted; a dropped port call is.
        let mut s = sim::Simulation::new(2);
        assert_eq!(
            s.block_on(dropped_adapter_then_port_call()).unwrap(),
            (0, 1)
        );
        let rt = par::Runtime::new(2);
        assert_eq!(rt.block_on(dropped_adapter_then_port_call()), (0, 1));
        rt.shutdown();
    }

    #[test]
    fn dropped_call_is_a_counted_cancellation() {
        let mut s = sim::Simulation::new(2);
        assert_eq!(s.block_on(dropped_call_counts()).unwrap(), 1);
        let rt = par::Runtime::new(2);
        assert_eq!(rt.block_on(dropped_call_counts()), 1);
        rt.shutdown();
    }

    async fn batch_fifo() -> Vec<u32> {
        let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
        // Server that tags responses with arrival order.
        crate::spawn(async move {
            let mut order = 0u32;
            while let Ok(Req::Add(a, _, reply)) = rx.recv().await {
                order += 1;
                let _ = reply.send(a * 100 + order).await;
            }
        });
        let calls = port.call_batch((0..4u32).map(|i| move |r| Req::Add(i, 0, r)));
        let mut out = Vec::new();
        for c in calls {
            out.push(c.await.unwrap());
        }
        out
    }

    #[test]
    fn call_batch_preserves_per_client_fifo() {
        // Request i arrives i+1th: submission order holds end-to-end.
        let expect = vec![1, 102, 203, 304];
        let mut s = sim::Simulation::new(2);
        assert_eq!(s.block_on(batch_fifo()).unwrap(), expect);
        let rt = par::Runtime::new(2);
        assert_eq!(rt.block_on(batch_fifo()), expect);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "a port's queue is unbounded")]
    fn a_bounded_port_is_refused_on_the_simulator() {
        let mut s = sim::Simulation::new(1);
        s.block_on(async { drop(port_channel::<Req>(Capacity::Bounded(1))) })
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "a port's queue is unbounded")]
    fn a_bounded_port_is_refused_on_threads() {
        let rt = par::Runtime::new(1);
        rt.block_on(async { drop(port_channel::<Req>(Capacity::Bounded(1))) });
    }

    /// Forwards a request to a port whose server is gone; the request
    /// comes back from `forward` itself, with nothing awaited.
    fn forward_to_a_gone_server() -> Option<u32> {
        let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
        drop(rx);
        let (reply_to, _reply) = crate::reply_channel();
        match port.forward(Req::Add(7, 8, reply_to)) {
            Err(Req::Add(a, b, _)) => Some(a + b),
            _ => None,
        }
    }

    #[test]
    fn forward_to_a_gone_server_hands_the_request_back_on_both_backends() {
        let mut s = sim::Simulation::new(1);
        assert_eq!(
            s.block_on(async { forward_to_a_gone_server() }).unwrap(),
            Some(15)
        );
        let rt = par::Runtime::new(1);
        assert_eq!(rt.block_on(async { forward_to_a_gone_server() }), Some(15));
        rt.shutdown();
    }

    #[test]
    fn deferred_calls_submit_as_one_burst() {
        async fn run() -> (u32, u32) {
            let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
            spawn_server(rx);
            let mut buf = VecDeque::new();
            let c1 = port.call_deferred(&mut buf, |r| Req::Add(2, 3, r));
            let c2 = port.call_deferred(&mut buf, |r| Req::Add(4, 5, r));
            port.submit(&mut buf);
            (c1.await.unwrap(), c2.await.unwrap())
        }
        let mut s = sim::Simulation::new(2);
        assert_eq!(s.block_on(run()).unwrap(), (5, 9));
        let rt = par::Runtime::new(2);
        assert_eq!(rt.block_on(run()), (5, 9));
        rt.shutdown();
    }

    #[test]
    fn call_is_send_and_port_clones_share_the_counter() {
        fn assert_send<T: Send>() {}
        assert_send::<Port<Req>>();
        assert_send::<Call<u32>>();
        let rt = par::Runtime::new(1);
        let n = rt.block_on(async {
            assert_eq!(crate::backend(), Backend::Threads);
            let (port, rx) = port_channel::<Req>(Capacity::Unbounded);
            spawn_server(rx);
            let before = crate::stat_get("port.calls_cancelled");
            drop(port.clone().call(|r| Req::Add(1, 1, r)));
            crate::stat_get("port.calls_cancelled") - before
        });
        assert_eq!(n, 1);
        rt.shutdown();
    }
}
