//! Simulation configuration.

use crate::ids::Cycles;

/// Parameters of the simulated machine and executor.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of real CPU cores in the machine.
    pub cores: usize,
    /// Cost, in cycles, of dispatching a task onto a core (context
    /// switch). Charged every time a core picks a task off its run
    /// queue. Device cores never pay this.
    pub ctx_switch: Cycles,
    /// Seed for the simulation's deterministic RNG.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cores: 4,
            ctx_switch: 50,
            seed: 0x5EED,
        }
    }
}

impl Config {
    /// Returns a default configuration with the given core count.
    pub fn with_cores(cores: usize) -> Self {
        Config {
            cores,
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = Config::default();
        assert!(c.cores > 0);
        assert!(c.ctx_switch > 0);
    }

    #[test]
    fn with_cores_overrides_only_cores() {
        let c = Config::with_cores(128);
        assert_eq!(c.cores, 128);
        assert_eq!(c.ctx_switch, Config::default().ctx_switch);
    }
}
