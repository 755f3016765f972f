//! Erlang-style supervision: links, restart strategies, supervision
//! trees (§5's partial-failure discussion).
//!
//! *"Partial failure … becomes a problem whenever there are multiple
//! nontrivial autonomous entities. … given some of the experience
//! with Erlang it may be feasible to aim for not failing as an
//! alternative."* The AXD301's nine nines \[2\] came from exactly this
//! structure: supervisors that restart crashed components faster than
//! anyone notices. Experiment E10 measures availability under fault
//! injection with and without these trees.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use chanos_rt::{self as rt, select_all, CoreId, Cycles, JoinHandle};

use chanos_sim::plock;

/// When a child should be restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restart {
    /// Always restart, even after a normal exit (long-lived servers).
    Permanent,
    /// Restart only after an abnormal exit (panic or kill).
    Transient,
    /// Never restart.
    Temporary,
}

/// What a child's failure does to its siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Restart only the failed child.
    OneForOne,
    /// Kill and restart every child.
    OneForAll,
    /// Kill and restart the failed child and all later siblings.
    RestForOne,
}

/// Description of one supervised child.
pub struct ChildSpec {
    restart: Restart,
    start: Box<dyn Fn() -> JoinHandle<()> + Send>,
}

impl ChildSpec {
    /// Creates a child spec; `start` launches (or relaunches) the
    /// child and returns its handle.
    pub fn new(restart: Restart, start: impl Fn() -> JoinHandle<()> + Send + 'static) -> ChildSpec {
        ChildSpec {
            restart,
            start: Box::new(start),
        }
    }
}

/// Why a supervisor returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorExit {
    /// Every child finished and none required a restart.
    AllChildrenDone,
    /// The restart intensity limit was exceeded; the supervisor gave
    /// up and killed its remaining children (failure propagates up
    /// the tree).
    TooManyRestarts,
}

/// An Erlang-style supervisor.
///
/// Run it inline with [`Supervisor::run`] or as its own task with
/// [`Supervisor::spawn`]; nest supervisors by making a child's start
/// closure spawn another supervisor.
pub struct Supervisor {
    strategy: Strategy,
    max_restarts: u32,
    window: Cycles,
    children: Vec<ChildSpec>,
}

impl Supervisor {
    /// Creates a supervisor with the given strategy and a default
    /// intensity limit (5 restarts per 1M cycles).
    pub fn new(strategy: Strategy) -> Supervisor {
        Supervisor {
            strategy,
            max_restarts: 5,
            window: 1_000_000,
            children: Vec::new(),
        }
    }

    /// Sets the restart intensity limit: more than `max` restarts
    /// within `window` cycles aborts the supervisor.
    pub fn intensity(mut self, max: u32, window: Cycles) -> Supervisor {
        self.max_restarts = max;
        self.window = window;
        self
    }

    /// Adds a child.
    pub fn child(mut self, spec: ChildSpec) -> Supervisor {
        self.children.push(spec);
        self
    }

    /// Runs the supervision loop until all children are done or the
    /// intensity limit trips.
    ///
    /// # Backend support
    ///
    /// Restart-on-failure works on both backends (the threads
    /// backend surfaces child panics through its join handles). The
    /// *kill-based* strategies — [`Strategy::OneForAll`] and
    /// [`Strategy::RestForOne`] — additionally need to cancel live
    /// siblings, which only the simulator can do; on the threads
    /// backend they would duplicate still-running children, so this
    /// method refuses them there.
    pub async fn run(self) -> SupervisorExit {
        let Supervisor {
            strategy,
            max_restarts,
            window,
            children,
        } = self;

        // chanos-lint: allow — refuses an operation one backend cannot
        // perform (killing a task); nothing is served differently.
        assert!(
            strategy == Strategy::OneForOne || rt::backend() == rt::Backend::Sim,
            "kill-based restart strategies ({strategy:?}) require the simulator backend; \
             real-thread tasks are cooperative and cannot be killed"
        );

        let handles: Arc<Mutex<Vec<Option<JoinHandle<()>>>>> = Arc::new(Mutex::new(
            children.iter().map(|c| Some((c.start)())).collect(),
        ));
        // If this supervisor is itself killed, take the subtree down.
        let _guard = KillSubtree {
            handles: handles.clone(),
        };
        let mut restarts: VecDeque<Cycles> = VecDeque::new();
        loop {
            // Watch every live child.
            let watches: Vec<_> = {
                let hs = plock(&handles);
                hs.iter()
                    .enumerate()
                    .filter_map(|(i, h)| {
                        h.as_ref().map(|h| {
                            let w = h.watch();
                            async move { (i, w.await) }
                        })
                    })
                    .collect()
            };
            if watches.is_empty() {
                return SupervisorExit::AllChildrenDone;
            }
            let (_, (i, result)) = select_all(watches).await;
            let needs_restart = match (children[i].restart, &result) {
                (Restart::Temporary, _) => false,
                (Restart::Transient, Ok(())) => false,
                (Restart::Transient, Err(_)) => true,
                (Restart::Permanent, _) => true,
            };
            if result.is_err() {
                rt::stat_incr("supervisor.child_failures");
            }
            if !needs_restart {
                plock(&handles)[i] = None;
                continue;
            }
            // Restart intensity accounting.
            let now = rt::now();
            restarts.push_back(now);
            while restarts
                .front()
                .is_some_and(|&t| now.saturating_sub(t) > window)
            {
                restarts.pop_front();
            }
            if restarts.len() as u32 > max_restarts {
                rt::stat_incr("supervisor.gave_up");
                kill_all(&mut plock(&handles));
                return SupervisorExit::TooManyRestarts;
            }
            rt::stat_incr("supervisor.restarts");
            match strategy {
                Strategy::OneForOne => {
                    plock(&handles)[i] = Some((children[i].start)());
                }
                Strategy::OneForAll => {
                    let mut hs = plock(&handles);
                    kill_all(&mut hs);
                    for (j, slot) in hs.iter_mut().enumerate() {
                        *slot = Some((children[j].start)());
                    }
                }
                Strategy::RestForOne => {
                    let mut hs = plock(&handles);
                    for slot in hs.iter_mut().skip(i) {
                        if let Some(h) = slot.take() {
                            h.abort();
                        }
                    }
                    for (j, slot) in hs.iter_mut().enumerate().skip(i) {
                        *slot = Some((children[j].start)());
                    }
                }
            }
        }
    }

    /// Runs the supervisor as its own named task.
    pub fn spawn(self, name: &str, core: CoreId) -> JoinHandle<SupervisorExit> {
        rt::spawn_daemon_on(name, core, self.run())
    }
}

fn kill_all(handles: &mut [Option<JoinHandle<()>>]) {
    for slot in handles.iter_mut() {
        if let Some(h) = slot.take() {
            h.abort();
        }
    }
}

struct KillSubtree {
    handles: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
}

impl Drop for KillSubtree {
    fn drop(&mut self) {
        if rt::in_runtime() {
            kill_all(&mut plock(&self.handles));
        }
    }
}
