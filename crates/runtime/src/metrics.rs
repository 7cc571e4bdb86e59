//! Round and message accounting.
//!
//! The paper composes procedures in two ways, and [`RoundReport`] has one combinator for
//! each: **sequentially** ([`RoundReport::then`] — e.g. Procedure Arbdefective-Coloring runs
//! Procedure Partial-Orientation and then Procedure Simple-Arbdefective; rounds add) and **in
//! parallel on disjoint subgraphs** ([`RoundReport::alongside`], folded over many branches by
//! [`parallel_max`] — e.g. Procedure Legal-Coloring recurses on every subgraph of the current
//! decomposition simultaneously; disjoint subgraphs exchange no messages, so rounds take the
//! maximum).  Every driver composes its headline report from these two combinators.

use serde::{Deserialize, Serialize};
use std::ops::Add;

/// The cost of one execution (or one phase) of a distributed algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Number of synchronous communication rounds until every node halted.
    pub rounds: usize,
    /// Total number of point-to-point messages delivered.
    pub messages: usize,
    /// Total bits across all delivered messages, as measured by
    /// [`MessageCost`](crate::cost::MessageCost).  Zero for hand-modelled phases that charge
    /// messages without executing them.
    pub total_bits: u64,
    /// The largest bit load any single edge (per direction) carried in any one round — the
    /// quantity the CONGEST model bounds by `O(log n)`.
    pub max_edge_bits: u64,
}

impl RoundReport {
    /// A zero-cost report.
    pub fn zero() -> Self {
        RoundReport::default()
    }

    /// Creates a report from explicit round and message counts (no measured bandwidth —
    /// the executors fill the bit columns; hand-modelled phases leave them zero).
    pub fn new(rounds: usize, messages: usize) -> Self {
        RoundReport { rounds, messages, total_bits: 0, max_edge_bits: 0 }
    }

    /// Sequential composition: rounds, messages, and total bits add; the per-edge peak is
    /// the worst round of either phase, so it maxes.
    #[must_use]
    pub fn then(self, later: RoundReport) -> RoundReport {
        RoundReport {
            rounds: self.rounds + later.rounds,
            messages: self.messages + later.messages,
            total_bits: self.total_bits + later.total_bits,
            max_edge_bits: self.max_edge_bits.max(later.max_edge_bits),
        }
    }

    /// Parallel composition on disjoint subnetworks: rounds take the maximum (the subnetworks
    /// run concurrently), messages and total bits add, and the per-edge peak maxes (disjoint
    /// subnetworks share no edge).
    #[must_use]
    pub fn alongside(self, other: RoundReport) -> RoundReport {
        RoundReport {
            rounds: self.rounds.max(other.rounds),
            messages: self.messages + other.messages,
            total_bits: self.total_bits + other.total_bits,
            max_edge_bits: self.max_edge_bits.max(other.max_edge_bits),
        }
    }
}

impl Add for RoundReport {
    type Output = RoundReport;

    fn add(self, rhs: RoundReport) -> RoundReport {
        self.then(rhs)
    }
}

/// Combines the reports of executions that ran concurrently on disjoint subgraphs:
/// rounds take the maximum, messages add.
pub fn parallel_max(branches: &[RoundReport]) -> RoundReport {
    branches.iter().fold(RoundReport::zero(), |acc, &r| acc.alongside(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_composition() {
        let a = RoundReport::new(5, 100);
        let b = RoundReport::new(3, 50);
        assert_eq!(a.then(b), RoundReport::new(8, 150));
        assert_eq!(a + b, RoundReport::new(8, 150));
        assert_eq!(a.alongside(b), RoundReport::new(5, 150));
        assert_eq!(RoundReport::zero().then(a), a);
    }

    #[test]
    fn parallel_branches_take_max_rounds() {
        let branches = [RoundReport::new(3, 30), RoundReport::new(7, 10), RoundReport::new(5, 5)];
        assert_eq!(parallel_max(&branches), RoundReport::new(7, 45));
        assert_eq!(parallel_max(&[]), RoundReport::zero());
    }
}
