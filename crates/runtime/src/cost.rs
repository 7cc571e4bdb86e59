//! CONGEST-model cost accounting: measured message widths and per-edge bandwidth budgets.
//!
//! The LOCAL model charges rounds only — a message may carry arbitrarily much information,
//! so nothing distinguishes a polylog-round algorithm that ships `O(log n)`-bit colors from
//! one that floods whole neighborhood tables.  The **CONGEST** model closes that loophole:
//! every message is limited to `O(log n)` bits per edge per round.  This module makes the
//! distinction measurable and enforceable:
//!
//! * [`MessageCost`] — every message type reports its encoded width in bits.  Widths are
//!   *measured*, not declared: a `u64` carrying the color `5` costs 3 bits, not 64, so the
//!   accounting reflects what a real CONGEST encoding of the algorithm would transmit.
//! * [`CostMode`] — an executor knob.  Under [`CostMode::Local`] bandwidth is recorded but
//!   unlimited; under [`CostMode::Congest`] the executors return a typed
//!   [`RuntimeError::CongestBudgetExceeded`]
//!   (naming the round, the edge, and the measured width) as soon as any single edge
//!   carries more than `bits_per_edge` bits in one round.
//! * `BandwidthMeter` (crate-internal) — the per-arc accumulator both executors feed from
//!   their delivery paths, symmetrically, so `total_bits` and `max_edge_bits` in
//!   [`RoundReport`] are bit-identical across the work-stealing executor (at any thread
//!   count) and the reference executor.
//!
//! Executors start out in [`CostMode::Local`]; a [`RunConfig`](crate::RunConfig) carries the
//! mode the drivers' runs use, so installing one with [`CostMode::Congest`] switches every
//! run of a driver on the installing thread into Congest accounting.

use crate::metrics::RoundReport;
use crate::network::{arc_owner, RuntimeError};
use arbcolor_graph::Graph;

/// The measured width of a message on the wire, in bits.
///
/// Implementations report the width of the *value being sent*, not of the Rust type: a
/// `u64` holding a color from a palette of size `p` costs `⌈log2(p)⌉`-ish bits, which is
/// what makes the CONGEST accounting meaningful.  Every message costs at least 1 bit
/// (receiving it is an observable event).
pub trait MessageCost {
    /// Number of bits this message occupies on an edge.
    fn encoded_bits(&self) -> u64;
}

impl MessageCost for u64 {
    /// The binary width of the value (1 bit minimum, so sending `0` is not free).
    fn encoded_bits(&self) -> u64 {
        u64::from(u64::BITS - self.leading_zeros()).max(1)
    }
}

impl MessageCost for u32 {
    fn encoded_bits(&self) -> u64 {
        u64::from(*self).encoded_bits()
    }
}

impl MessageCost for bool {
    fn encoded_bits(&self) -> u64 {
        1
    }
}

impl MessageCost for () {
    /// A payload-free pulse still occupies one bit: its arrival is the information.
    fn encoded_bits(&self) -> u64 {
        1
    }
}

/// Which cost model an executor charges (and enforces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostMode {
    /// Classical LOCAL: rounds are charged, message widths are recorded but unlimited.
    #[default]
    Local,
    /// CONGEST: additionally *asserts* that no edge carries more than `bits_per_edge` bits
    /// in any single round (per direction).  Violations surface as
    /// [`RuntimeError::CongestBudgetExceeded`].
    Congest {
        /// The per-edge per-round bit budget (the `c·log n` of the model definition).
        bits_per_edge: u64,
    },
}

impl CostMode {
    /// The standard CONGEST budget for an `n`-vertex network: `c · ⌈log2 n⌉` bits per edge
    /// per round (with `n` clamped to 2 so the budget is never zero).
    pub fn congest_for(n: usize, c: u64) -> Self {
        CostMode::Congest {
            bits_per_edge: c * u64::from(n.max(2).next_power_of_two().trailing_zeros()),
        }
    }

    /// The per-edge budget, or `None` under [`CostMode::Local`].
    pub fn bits_per_edge(&self) -> Option<u64> {
        match self {
            CostMode::Local => None,
            CostMode::Congest { bits_per_edge } => Some(*bits_per_edge),
        }
    }
}

/// What one round put on the wire, as reported by [`BandwidthMeter::finish_round`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RoundBits {
    /// Bits summed over all messages of the round.
    pub(crate) total: u64,
    /// Bits over the most loaded single edge (per direction) of the round.
    pub(crate) max_edge: u64,
}

/// Per-arc bit accumulator for one execution.
///
/// All three executors call [`BandwidthMeter::add`] once per delivered message (keyed by the
/// receiver-side arc, the same index the flat mailboxes use) and
/// [`BandwidthMeter::finish_round`] once per round, in the same places, so the accounting is
/// bit-identical across them.  Clearing is O(messages of the round), not O(arcs).
pub(crate) struct BandwidthMeter {
    /// Bits accumulated on each arc in the current round.
    arc_bits: Vec<u64>,
    /// Arcs touched this round (so clearing is proportional to traffic).
    touched: Vec<usize>,
    /// Running total of the current round.
    round_total: u64,
    /// Running per-arc maximum of the current round, with its arg.
    round_max: u64,
    round_max_arc: usize,
}

impl BandwidthMeter {
    /// A meter over `num_arcs` arcs with nothing recorded.
    pub(crate) fn new(num_arcs: usize) -> Self {
        BandwidthMeter {
            arc_bits: vec![0; num_arcs],
            touched: Vec::new(),
            round_total: 0,
            round_max: 0,
            round_max_arc: 0,
        }
    }

    /// Records `bits` arriving on `arc` (a receiver-side arc index) in the current round.
    #[inline]
    pub(crate) fn add(&mut self, arc: usize, bits: u64) {
        let cell = &mut self.arc_bits[arc];
        if *cell == 0 {
            self.touched.push(arc);
        }
        *cell += bits;
        self.round_total += bits;
        if *cell > self.round_max {
            self.round_max = *cell;
            self.round_max_arc = arc;
        }
    }

    /// Closes the round labelled `round`: folds the round's bandwidth into `report`
    /// (`total_bits` adds, `max_edge_bits` maxes), enforces `mode`'s budget, resets the
    /// per-round state, and returns the round's figures for tracing.
    ///
    /// # Errors
    ///
    /// Under [`CostMode::Congest`], returns
    /// [`RuntimeError::CongestBudgetExceeded`] naming the round, the most loaded edge
    /// (sender → receiver), its measured bit load, and the budget.
    pub(crate) fn finish_round(
        &mut self,
        graph: &Graph,
        round: usize,
        mode: CostMode,
        report: &mut RoundReport,
    ) -> Result<RoundBits, RuntimeError> {
        let bits = RoundBits { total: self.round_total, max_edge: self.round_max };
        report.total_bits += bits.total;
        report.max_edge_bits = report.max_edge_bits.max(bits.max_edge);
        for &arc in &self.touched {
            self.arc_bits[arc] = 0;
        }
        self.touched.clear();
        self.round_total = 0;
        self.round_max = 0;
        if let CostMode::Congest { bits_per_edge } = mode {
            if bits.max_edge > bits_per_edge {
                let arc = self.round_max_arc;
                return Err(RuntimeError::CongestBudgetExceeded {
                    round,
                    sender: graph.arc_target(arc),
                    receiver: arc_owner(graph, arc),
                    bits: bits.max_edge,
                    budget: bits_per_edge,
                });
            }
        }
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_measured_not_declared() {
        assert_eq!(0u64.encoded_bits(), 1, "sending zero is not free");
        assert_eq!(1u64.encoded_bits(), 1);
        assert_eq!(2u64.encoded_bits(), 2);
        assert_eq!(255u64.encoded_bits(), 8);
        assert_eq!(256u64.encoded_bits(), 9);
        assert_eq!(u64::MAX.encoded_bits(), 64);
        assert_eq!(7u32.encoded_bits(), 3);
        assert_eq!(true.encoded_bits(), 1);
        assert_eq!(false.encoded_bits(), 1);
        assert_eq!(().encoded_bits(), 1);
    }

    #[test]
    fn congest_budget_is_c_log_n() {
        assert_eq!(CostMode::congest_for(1024, 4).bits_per_edge(), Some(40));
        assert_eq!(CostMode::congest_for(1000, 4).bits_per_edge(), Some(40), "ceil(log2)");
        assert_eq!(CostMode::congest_for(0, 4).bits_per_edge(), Some(4), "n clamps to 2");
        assert_eq!(CostMode::Local.bits_per_edge(), None);
    }

    #[test]
    fn meter_tracks_per_edge_maximum_and_resets_between_rounds() {
        let g = arbcolor_graph::generators::path(3).unwrap();
        let mut meter = BandwidthMeter::new(g.num_arcs());
        let mut report = RoundReport::zero();
        meter.add(0, 3);
        meter.add(1, 2);
        meter.add(1, 4);
        let bits = meter.finish_round(&g, 1, CostMode::Local, &mut report).unwrap();
        assert_eq!(bits, RoundBits { total: 9, max_edge: 6 });
        assert_eq!(report.total_bits, 9);
        assert_eq!(report.max_edge_bits, 6);
        // The next round starts from zero, and a lower round max keeps the report max.
        meter.add(2, 5);
        let bits = meter.finish_round(&g, 2, CostMode::Local, &mut report).unwrap();
        assert_eq!(bits, RoundBits { total: 5, max_edge: 5 });
        assert_eq!(report.total_bits, 14);
        assert_eq!(report.max_edge_bits, 6);
    }

    #[test]
    fn meter_enforces_the_congest_budget_with_a_typed_error() {
        let g = arbcolor_graph::generators::path(2).unwrap();
        let mut meter = BandwidthMeter::new(g.num_arcs());
        let mut report = RoundReport::zero();
        meter.add(0, 9);
        let err = meter
            .finish_round(&g, 3, CostMode::Congest { bits_per_edge: 8 }, &mut report)
            .unwrap_err();
        match err {
            RuntimeError::CongestBudgetExceeded { round, bits, budget, .. } => {
                assert_eq!((round, bits, budget), (3, 9, 8));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The report still records what the round put on the wire.
        assert_eq!(report.total_bits, 9);
        assert_eq!(report.max_edge_bits, 9);
    }
}
