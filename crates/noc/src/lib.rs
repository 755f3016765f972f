//! # chanos-noc — on-die interconnect models
//!
//! Substrate for the `chanos` reproduction of Holland & Seltzer
//! (HotOS XIII 2011). The paper assumes future many-core chips are
//! shared-nothing with hardware message delivery (§4); this crate
//! supplies the delivery cost model: a [`Topology`] (how far apart two
//! cores are) and a [`CostModel`] (what a message of a given size
//! costs across that distance).
//!
//! The channel runtime (`chanos-csp`) charges these costs on every
//! send, and the coherence model in `chanos-shmem` reuses the same
//! distances for invalidation traffic, so the message-passing and
//! shared-memory worlds being compared by the experiments live on the
//! same physical interconnect.

mod cost;
mod topology;

pub use cost::CostModel;
pub use topology::{Bus, Crossbar, Hypercube, Mesh2D, Ring, Topology, Torus2D};

/// A boxed topology plus cost model, as installed into a simulation.
pub struct Interconnect {
    topo: Box<dyn Topology + Send + Sync>,
    cost: CostModel,
}

impl Interconnect {
    /// Pairs a topology with a cost model.
    pub fn new(topo: impl Topology + 'static, cost: CostModel) -> Self {
        Interconnect {
            topo: Box::new(topo),
            cost,
        }
    }

    /// A square 2D mesh over `cores` cores with default costs — the
    /// configuration the headline experiments use.
    pub fn mesh_for(cores: usize) -> Self {
        Interconnect::new(Mesh2D::square_for(cores), CostModel::default())
    }

    /// Transit cycles for a message.
    pub fn transit(&self, from: usize, to: usize, bytes: usize) -> u64 {
        self.cost.transit(self.topo.as_ref(), from, to, bytes)
    }

    /// Hop count for a message.
    pub fn hops(&self, from: usize, to: usize) -> u32 {
        self.cost.hops(self.topo.as_ref(), from, to)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interconnect_delegates() {
        let ic = Interconnect::mesh_for(64);
        assert!(ic.topology().cores() >= 64);
        assert_eq!(ic.hops(0, 0), 0);
        assert!(ic.transit(0, 63, 64) > ic.transit(0, 1, 64));
    }
}
