//! Wait-for-graph deadlock detection for monitored sessions.
//!
//! §5 of the paper predicts that *"waiting for channels to become
//! ready will likely be a source of hassles"* and that partial
//! failure "becomes a problem whenever there are multiple nontrivial
//! autonomous entities". One concrete hassle is cyclic waiting: task
//! A blocks receiving from B while B blocks receiving from A.
//!
//! Monitored endpoints ([`Endpoint`](crate::Endpoint)) register
//! themselves here whenever an operation blocks. [`snapshot`] turns
//! the registry into a [`WaitGraph`] whose edges point from a blocked
//! task to the task that must act to unblock it; a cycle in that
//! graph that persists across samples is a deadlock.
//!
//! On the simulator the registry is per-thread (the simulator is
//! single-threaded and deterministic, and parallel test threads stay
//! isolated); on the real-threads backend — where one runtime's tasks
//! run on many worker threads — it is process-global behind a mutex.
//! Endpoints clean up after themselves on drop either way, so state
//! never leaks between runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

use chanos_rt::{plock, Backend};

use crate::spec::Dir;

/// Backend-neutral identity of a task, as produced by
/// [`chanos_rt::current_task_key`]: the packed simulator `TaskId` on
/// `Backend::Sim`, a facade-assigned key on `Backend::Threads`.
pub type TaskKey = u64;

/// Identifies one monitored session (a pair of endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

/// Which endpoint of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The endpoint running the protocol as specified.
    Left,
    /// The endpoint running the dual.
    Right,
}

impl Side {
    /// The other endpoint of the same session.
    pub fn peer(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// One blocked channel operation, as recorded in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOp {
    /// The blocked task.
    pub task: TaskKey,
    /// Session it is blocked on.
    pub session: SessionId,
    /// Which endpoint it holds.
    pub side: Side,
    /// Whether it is stuck sending or receiving.
    pub dir: Dir,
    /// Unique id of this *operation instance*. A healthy task that
    /// blocks, completes, and blocks again gets a fresh id each time;
    /// a deadlocked task keeps the same one forever — the property
    /// the watchdog uses to avoid aliasing false positives on
    /// periodic workloads.
    pub op: u64,
}

struct Registry {
    next_session: u64,
    next_op: u64,
    /// Task that most recently operated each endpoint ("owner").
    owners: BTreeMap<(SessionId, Side), TaskKey>,
    /// Currently blocked operations, keyed by endpoint.
    blocked: BTreeMap<(SessionId, Side), (TaskKey, Dir, u64)>,
}

impl Registry {
    const fn empty() -> Registry {
        Registry {
            next_session: 0,
            next_op: 0,
            owners: BTreeMap::new(),
            blocked: BTreeMap::new(),
        }
    }
}

thread_local! {
    /// Sim (and off-runtime) registry: per-thread, so parallel test
    /// simulations never observe each other's sessions.
    static REGISTRY: RefCell<Registry> = const { RefCell::new(Registry::empty()) };
}

/// Threads-backend registry: the runtime's tasks hop across worker
/// threads, so blocked-op state must be shared.
static GLOBAL_REGISTRY: Mutex<Registry> = Mutex::new(Registry::empty());

fn with_reg<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    // chanos-lint: allow — picks where the registry lives (shared
    // across workers, or per simulation thread), not what it does.
    if chanos_rt::try_backend() == Some(Backend::Threads) {
        f(&mut plock(&GLOBAL_REGISTRY))
    } else {
        REGISTRY.with(|r| f(&mut r.borrow_mut()))
    }
}

/// Allocates a fresh session id (used by [`session`](crate::session)).
pub fn next_session_id() -> SessionId {
    with_reg(|r| {
        r.next_session += 1;
        SessionId(r.next_session)
    })
}

/// Records `task` as the owner of `(session, side)`.
pub(crate) fn note_owner(session: SessionId, side: Side, task: TaskKey) {
    with_reg(|r| {
        r.owners.insert((session, side), task);
    });
}

/// Removes all registry entries for one endpoint (called on drop).
pub(crate) fn drop_side(session: SessionId, side: Side) {
    with_reg(|r| {
        r.owners.remove(&(session, side));
        r.blocked.remove(&(session, side));
    });
}

/// Marks an operation blocked for the lifetime of the returned guard.
pub(crate) fn block(session: SessionId, side: Side, task: TaskKey, dir: Dir) -> BlockGuard {
    with_reg(|r| {
        r.next_op += 1;
        let op = r.next_op;
        r.blocked.insert((session, side), (task, dir, op));
    });
    BlockGuard { session, side }
}

/// Clears the blocked mark when the operation completes or is
/// cancelled (e.g. it lost a `choose!`).
pub(crate) struct BlockGuard {
    session: SessionId,
    side: Side,
}

impl Drop for BlockGuard {
    fn drop(&mut self) {
        with_reg(|r| {
            r.blocked.remove(&(self.session, self.side));
        });
    }
}

/// Forgets all sessions (both the calling thread's simulator registry
/// and the shared threads-backend registry). Tests that share a
/// thread across simulations may call this for full isolation;
/// endpoint drops normally make it unnecessary.
pub fn reset() {
    REGISTRY.with(|r| *r.borrow_mut() = Registry::empty());
    *plock(&GLOBAL_REGISTRY) = Registry::empty();
}

/// A directed wait-for graph over nodes of type `N`.
///
/// An edge `(a, b)` means `a` is blocked and only `b` can unblock it.
/// Generic so the cycle algorithm is testable with plain integers;
/// the live system instantiates it with [`TaskKey`] via [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitGraph<N: Copy + Ord = TaskKey> {
    /// Wait-for edges.
    pub edges: Vec<(N, N)>,
}

// Manual impl: the derive would wrongly require `N: Default`.
impl<N: Copy + Ord> Default for WaitGraph<N> {
    fn default() -> Self {
        WaitGraph { edges: Vec::new() }
    }
}

impl<N: Copy + Ord> WaitGraph<N> {
    /// Builds a graph directly from edges.
    pub fn from_edges(edges: Vec<(N, N)>) -> WaitGraph<N> {
        WaitGraph { edges }
    }

    /// Finds all wait cycles.
    ///
    /// Every returned cycle is a list of distinct nodes `t0 -> t1 ->
    /// ... -> t0`, rotated to start at its smallest node. Each
    /// blocked task has one outgoing edge in practice, so following
    /// the first successor is complete for snapshots; merged graphs
    /// with fan-out are explored first-successor-first (best effort).
    pub fn cycles(&self) -> Vec<Vec<N>> {
        let mut succ: BTreeMap<N, Vec<N>> = BTreeMap::new();
        for &(a, b) in &self.edges {
            succ.entry(a).or_default().push(b);
        }
        let mut cycles: Vec<Vec<N>> = Vec::new();
        let mut done: BTreeSet<N> = BTreeSet::new();
        for &start in succ.keys() {
            if done.contains(&start) {
                continue;
            }
            // Walk successors keeping the path; revisiting a path
            // node closes a cycle.
            let mut path: Vec<N> = vec![start];
            let mut on_path: BTreeSet<N> = [start].into_iter().collect();
            loop {
                let cur = *path.last().expect("path never empty");
                let next = match succ.get(&cur).and_then(|n| n.first()) {
                    Some(&n) => n,
                    None => break, // Waits on an unblocked node: no cycle this way.
                };
                if on_path.contains(&next) {
                    let pos = path.iter().position(|&t| t == next).expect("on path");
                    let mut cyc: Vec<N> = path[pos..].to_vec();
                    let min_pos = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, t)| **t)
                        .map(|(i, _)| i)
                        .expect("cycle non-empty");
                    cyc.rotate_left(min_pos);
                    if !cycles.contains(&cyc) {
                        cycles.push(cyc);
                    }
                    break;
                }
                if done.contains(&next) {
                    break;
                }
                on_path.insert(next);
                path.push(next);
            }
            done.extend(path);
        }
        cycles
    }

    /// True if any wait cycle exists.
    pub fn has_deadlock(&self) -> bool {
        !self.cycles().is_empty()
    }
}

/// What [`snapshot`] saw: the blocked operations and the wait-for
/// graph they induce.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Blocked operations at snapshot time.
    pub blocked: Vec<BlockedOp>,
    /// Wait-for edges derived from `blocked` and endpoint ownership.
    pub graph: WaitGraph<TaskKey>,
}

impl Snapshot {
    /// Convenience: cycles of the underlying graph.
    pub fn cycles(&self) -> Vec<Vec<TaskKey>> {
        self.graph.cycles()
    }

    /// True if any deadlock cycle exists at snapshot time.
    pub fn has_deadlock(&self) -> bool {
        self.graph.has_deadlock()
    }
}

/// Captures the current wait-for graph of all monitored sessions.
pub fn snapshot() -> Snapshot {
    with_reg(|r| {
        let mut snap = Snapshot::default();
        for (&(session, side), &(task, dir, op)) in &r.blocked {
            snap.blocked.push(BlockedOp {
                task,
                session,
                side,
                dir,
                op,
            });
            // Whoever owns the peer endpoint is the only party that
            // can complete this operation.
            if let Some(&peer) = r.owners.get(&(session, side.peer())) {
                if peer != task {
                    snap.graph.edges.push((task, peer));
                }
            }
        }
        snap
    })
}

/// Result of [`watch`]: what the watchdog saw.
#[derive(Debug, Clone, Default)]
pub struct WatchReport {
    /// Deadlock cycles that persisted across two consecutive samples.
    pub confirmed: Vec<Vec<TaskKey>>,
    /// Number of samples taken.
    pub samples: u64,
}

/// Samples the wait-for graph every `period` cycles for the next
/// `for_cycles` cycles, confirming cycles that persist across two
/// consecutive samples.
///
/// Cycles are virtual time on the simulator and wall-clock
/// nanoseconds on the real-threads backend (1 cycle ≈ 1 ns), so the
/// same watchdog code guards both.
///
/// Persistence is judged on *operation instances*, not just task
/// identities: a cycle counts as the same cycle only if every task in
/// it is still stuck in the same blocked operation (same
/// [`BlockedOp::op`]). A healthy periodic workload whose transient
/// in-flight window happens to align with the sampling period
/// produces fresh operation ids every round trip and is never
/// confirmed; a true deadlock never changes them.
pub async fn watch(period: chanos_rt::Cycles, for_cycles: chanos_rt::Cycles) -> WatchReport {
    let until = chanos_rt::now() + for_cycles;
    let mut report = WatchReport::default();
    // Each signature pairs the tasks of a cycle with their blocked-op
    // instance ids.
    let mut prev: Vec<Vec<(TaskKey, u64)>> = Vec::new();
    while chanos_rt::now() < until {
        chanos_rt::sleep(period).await;
        report.samples += 1;
        let snap = snapshot();
        let op_of = |t: TaskKey| {
            snap.blocked
                .iter()
                .find(|b| b.task == t)
                .map(|b| b.op)
                .unwrap_or(0)
        };
        let cur: Vec<Vec<(TaskKey, u64)>> = snap
            .cycles()
            .into_iter()
            .map(|cycle| cycle.into_iter().map(|t| (t, op_of(t))).collect())
            .collect();
        for sig in &cur {
            let tasks: Vec<TaskKey> = sig.iter().map(|(t, _)| *t).collect();
            if prev.contains(sig) && !report.confirmed.contains(&tasks) {
                report.confirmed.push(tasks);
                chanos_rt::stat_incr("proto.deadlocks_confirmed");
            }
        }
        prev = cur;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_edges_no_cycles() {
        let g: WaitGraph<u32> = WaitGraph::from_edges(vec![]);
        assert!(g.cycles().is_empty());
        assert!(!g.has_deadlock());
    }

    #[test]
    fn two_cycle_found() {
        let g = WaitGraph::from_edges(vec![(1u32, 2), (2, 1)]);
        assert_eq!(g.cycles(), vec![vec![1, 2]]);
    }

    #[test]
    fn three_cycle_found_once_normalized() {
        let g = WaitGraph::from_edges(vec![(3u32, 1), (1, 2), (2, 3)]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], vec![1, 2, 3]);
    }

    #[test]
    fn chain_without_cycle_clean() {
        let g = WaitGraph::from_edges(vec![(1u32, 2), (2, 3)]);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = WaitGraph::from_edges(vec![(5u32, 5)]);
        assert_eq!(g.cycles(), vec![vec![5]]);
    }

    #[test]
    fn disjoint_cycles_both_found() {
        let g = WaitGraph::from_edges(vec![(1u32, 2), (2, 1), (7, 9), (9, 7)]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 2);
        assert!(cycles.contains(&vec![1, 2]));
        assert!(cycles.contains(&vec![7, 9]));
    }

    #[test]
    fn cycle_with_tail_reports_only_cycle() {
        // 0 -> 1 -> 2 -> 1: the cycle is {1, 2}.
        let g = WaitGraph::from_edges(vec![(0u32, 1), (1, 2), (2, 1)]);
        assert_eq!(g.cycles(), vec![vec![1, 2]]);
    }

    #[test]
    fn big_ring_found() {
        let n = 64u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = WaitGraph::from_edges(edges);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), n as usize);
        assert_eq!(cycles[0][0], 0);
    }
}
