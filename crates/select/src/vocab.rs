//! The channel vocabulary: buffering disciplines and the errors a
//! channel operation can return.
//!
//! Declared here, once, because this is the one crate both channel
//! implementations (`chanos-csp` on the simulator, `chanos-parchan` on
//! real threads) already depend on. Each re-exports these names under
//! its own path, and so does the `chanos-rt` facade, so a value moves
//! between the three without being rebuilt variant by variant.

/// Buffering discipline of a channel (§3's send-semantics choices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// No buffer: send blocks until a receiver takes the value.
    Rendezvous,
    /// Buffer of the given depth; send blocks when full.
    Bounded(usize),
    /// Unlimited buffer: send never blocks.
    Unbounded,
}

/// Error returned by `send`: the value comes back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The channel was closed, or every receiver was dropped.
    Closed(T),
}

impl<T> SendError<T> {
    /// Recovers the unsent value.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Closed(v) => v,
        }
    }
}

/// Error returned by `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The channel is closed and drained.
    Closed,
}

/// Error returned by `try_send`: the value comes back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel cannot accept a message right now.
    Full(T),
    /// The channel was closed, or every receiver was dropped.
    Closed(T),
}

/// Error returned by `try_recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is ready. On the simulator the queue may still hold
    /// messages whose modeled transit has not completed.
    Empty,
    /// The channel is closed and drained.
    Closed,
}
