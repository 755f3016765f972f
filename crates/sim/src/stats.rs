//! Simulation statistics: named counters.
//!
//! Experiments read these after a run to produce the derived tables and
//! figures; the registry is intentionally simple (a string-keyed BTree
//! map) so snapshots are deterministic and diffable.

use std::collections::BTreeMap;

/// The named-statistic registry carried by a simulation.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of the named counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_incr() {
        let mut s = Stats::new();
        s.incr("x");
        s.add("x", 4);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("absent"), 0);
    }
}
