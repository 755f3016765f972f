//! Thread-to-core placement policies (§5: "the specific problem of
//! deciding which threads to place on which cores … is likely to
//! present a new range of difficulties").
//!
//! [`Policy::build`] is a [`chanos_sim::Placer`] factory; install it
//! with [`chanos_sim::Simulation::set_placer`]. Experiment E9 compares
//! policies on a communication-heavy pipeline over a 2D mesh. (On the
//! threads backend placement is explicit: a `CoreId` passed to
//! `chanos_rt::spawn_named_on` is an unstealable parchan worker pin —
//! `spawn_on_is_honored_on_both_backends` in `tests/backend_equiv.rs`.)

use std::cell::Cell;
use std::rc::Rc;

use chanos_sim::{CoreId, Placer};

/// Does `name` look like a kernel service task? (The partitioned
/// policy's kernel/application split keys off service names.)
fn is_kernel_name(name: &str) -> bool {
    name.contains("server")
        || name.contains("kproc")
        || name.contains("driver")
        || name.contains("vnode")
        || name.contains("fs-")
        || name.contains("cache")
}

/// Names a placement policy for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Spread tasks round-robin over all cores.
    RoundRobin,
    /// Uniformly random core per task.
    Random,
    /// Children run on their spawner's core (communication affinity:
    /// most messages stay core-local).
    Inherit,
    /// Kernel/application split: named kernel tasks go to the first
    /// `kernel_cores` cores, everything else round-robins over the
    /// rest.
    Partitioned {
        /// Number of cores reserved for kernel service tasks.
        kernel_cores: usize,
    },
}

impl Policy {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::Random => "random",
            Policy::Inherit => "inherit",
            Policy::Partitioned { .. } => "partitioned",
        }
    }

    /// Builds the placer closure implementing this policy.
    pub fn build(self) -> Placer {
        match self {
            Policy::RoundRobin => {
                let next = Rc::new(Cell::new(0usize));
                Box::new(move |_info, _rng, cores| {
                    let c = next.get();
                    next.set(c + 1);
                    CoreId((c % cores) as u32)
                })
            }
            Policy::Random => Box::new(|_info, rng, cores| CoreId(rng.index(cores) as u32)),
            Policy::Inherit => {
                let next = Rc::new(Cell::new(0usize));
                Box::new(move |info, _rng, cores| match info.parent {
                    Some(p) if p.index() < cores => p,
                    _ => {
                        let c = next.get();
                        next.set(c + 1);
                        CoreId((c % cores) as u32)
                    }
                })
            }
            Policy::Partitioned { kernel_cores } => {
                let next_k = Rc::new(Cell::new(0usize));
                let next_a = Rc::new(Cell::new(0usize));
                Box::new(move |info, _rng, cores| {
                    let k = kernel_cores.min(cores.saturating_sub(1)).max(1);
                    if is_kernel_name(info.name) {
                        let c = next_k.get();
                        next_k.set(c + 1);
                        CoreId((c % k) as u32)
                    } else {
                        let c = next_a.get();
                        next_a.set(c + 1);
                        CoreId((k + c % (cores - k)) as u32)
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chanos_sim::Simulation;

    #[test]
    fn round_robin_cycles_cores() {
        let mut s = Simulation::new(4);
        s.set_placer(Policy::RoundRobin.build());
        let hs: Vec<_> = (0..8)
            .map(|_| s.spawn(async { chanos_sim::current_core() }))
            .collect();
        s.run_until_idle();
        let cores: Vec<u32> = hs
            .into_iter()
            .map(|h| h.try_take().unwrap().unwrap().0)
            .collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn partitioned_separates_kernel_names() {
        let mut s = Simulation::new(4);
        s.set_placer(Policy::Partitioned { kernel_cores: 2 }.build());
        let k = s.spawn_named("kproc7", async { chanos_sim::current_core() });
        let a = s.spawn_named("app", async { chanos_sim::current_core() });
        s.run_until_idle();
        assert!(k.try_take().unwrap().unwrap().index() < 2);
        assert!(a.try_take().unwrap().unwrap().index() >= 2);
    }

    #[test]
    fn random_stays_in_range() {
        let mut s = Simulation::new(8);
        s.set_placer(Policy::Random.build());
        let hs: Vec<_> = (0..50)
            .map(|_| s.spawn(async { chanos_sim::current_core() }))
            .collect();
        s.run_until_idle();
        for h in hs {
            assert!(h.try_take().unwrap().unwrap().index() < 8);
        }
    }
}
