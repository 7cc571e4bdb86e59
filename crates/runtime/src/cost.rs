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
//! * `EdgeLoad` (crate-internal) — one round's total bits and most loaded edge.  The
//!   work-stealing executor meters on the sender side, per stolen chunk, and merges the
//!   chunks in order; the reference executor keeps its own per-arc meter.  Both produce the
//!   same `total_bits` and `max_edge_bits` in [`RoundReport`], and the same edge in a
//!   budget error, at any thread count and chunk size.
//!
//! Executors start out in [`CostMode::Local`]; a [`RunConfig`](crate::RunConfig) carries the
//! mode the drivers' runs use, so installing one with [`CostMode::Congest`] switches every
//! run of a driver on the installing thread into Congest accounting.

use crate::metrics::RoundReport;
use crate::network::RuntimeError;
use arbcolor_graph::Vertex;

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

/// What one round put on the wire: the total bits, and the most loaded directed edge with
/// its load.
///
/// The flat executor meters on the **sender** side.  In a round a directed edge carries at
/// most one message, its sender's one broadcast, so each stolen chunk folds its senders'
/// broadcasts into one `EdgeLoad` in O(1) each with [`EdgeLoad::charge_broadcast`], and the
/// commit [`merge`](EdgeLoad::merge)s the chunks in chunk order.  Both keep the first edge,
/// in send order, that reached the running maximum (a strictly larger load replaces it), so
/// the figures — and the edge a [`RuntimeError::CongestBudgetExceeded`] names — equal those
/// of one sequential per-arc meter fed message by message, at any thread count and chunk
/// size.  The [`ReferenceExecutor`](crate::ReferenceExecutor) keeps such a per-arc meter of
/// its own, fed with [`EdgeLoad::charge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EdgeLoad {
    /// Bits summed over all messages of the round.
    pub(crate) total: u64,
    /// Bits over the most loaded single edge (per direction) of the round.
    pub(crate) max: u64,
    /// That edge as `(sender, receiver)`.
    pub(crate) edge: (Vertex, Vertex),
}

impl EdgeLoad {
    /// Records a message of `bits` that brought `edge`'s load in this round to `load`.
    #[inline]
    pub(crate) fn charge(&mut self, bits: u64, load: u64, edge: (Vertex, Vertex)) {
        self.total += bits;
        if load > self.max {
            self.max = load;
            self.edge = edge;
        }
    }

    /// Records one broadcast of `bits` per port over `ports` ports, the only message each
    /// of those edges carries in the round.  Fed message by message in send order, port 0
    /// would reach `bits` first and the other ports would only tie it, so this equals
    /// `ports` calls to [`charge`](EdgeLoad::charge) with `edge` on port 0.
    #[inline]
    pub(crate) fn charge_broadcast(&mut self, bits: u64, ports: usize, edge: (Vertex, Vertex)) {
        self.total += bits * ports as u64;
        if bits > self.max {
            self.max = bits;
            self.edge = edge;
        }
    }

    /// Folds in the load of messages sent after all of `self`'s.
    pub(crate) fn merge(&mut self, later: EdgeLoad) {
        self.total += later.total;
        if later.max > self.max {
            self.max = later.max;
            self.edge = later.edge;
        }
    }

    /// Closes the round labelled `round`: folds its bandwidth into `report` (`total_bits`
    /// adds, `max_edge_bits` maxes), enforces `mode`'s budget, and returns the round's
    /// figures for tracing.
    ///
    /// # Errors
    ///
    /// Under [`CostMode::Congest`], returns [`RuntimeError::CongestBudgetExceeded`] naming
    /// the round, the most loaded edge (sender → receiver), its measured bit load, and the
    /// budget.
    pub(crate) fn finish(
        self,
        round: usize,
        mode: CostMode,
        report: &mut RoundReport,
    ) -> Result<EdgeLoad, RuntimeError> {
        report.total_bits += self.total;
        report.max_edge_bits = report.max_edge_bits.max(self.max);
        match mode {
            CostMode::Congest { bits_per_edge } if self.max > bits_per_edge => {
                Err(RuntimeError::CongestBudgetExceeded {
                    round,
                    sender: self.edge.0,
                    receiver: self.edge.1,
                    bits: self.max,
                    budget: bits_per_edge,
                })
            }
            _ => Ok(self),
        }
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
        let mut report = RoundReport::zero();
        // Edge (0, 1) carries 3 bits; edge (1, 2) carries 2 then 4 bits, reaching 6.
        let mut round = EdgeLoad::default();
        round.charge(3, 3, (0, 1));
        round.charge(2, 2, (1, 2));
        round.charge(4, 6, (1, 2));
        let bits = round.finish(1, CostMode::Local, &mut report).unwrap();
        assert_eq!((bits.total, bits.max, bits.edge), (9, 6, (1, 2)));
        assert_eq!(report.total_bits, 9);
        assert_eq!(report.max_edge_bits, 6);
        // The next round starts from zero, and a lower round max keeps the report max.
        let mut round = EdgeLoad::default();
        round.charge(5, 5, (2, 1));
        let bits = round.finish(2, CostMode::Local, &mut report).unwrap();
        assert_eq!((bits.total, bits.max), (5, 5));
        assert_eq!(report.total_bits, 14);
        assert_eq!(report.max_edge_bits, 6);
        // Ties keep the edge that reached the maximum first, within a chunk and across a
        // merge of chunks taken in order.
        let mut first = EdgeLoad::default();
        first.charge(4, 4, (0, 1));
        first.charge(4, 4, (1, 0));
        let mut later = EdgeLoad::default();
        later.charge(4, 4, (2, 1));
        first.merge(later);
        assert_eq!((first.total, first.max, first.edge), (12, 4, (0, 1)));
        let mut larger = EdgeLoad::default();
        larger.charge(5, 5, (1, 2));
        first.merge(larger);
        assert_eq!((first.total, first.max, first.edge), (17, 5, (1, 2)));
        // A broadcast from vertex 3 over its ports towards 4, 5 and 6, then one from vertex
        // 7 that only ties it, equal the per-port charges in send order: port 0 of the
        // first sender reaches the maximum first.
        let (mut per_port, mut broadcast) = (EdgeLoad::default(), EdgeLoad::default());
        for (sender, receivers) in [(3, &[4, 5, 6][..]), (7, &[8, 9][..])] {
            for &receiver in receivers {
                per_port.charge(5, 5, (sender, receiver));
            }
            broadcast.charge_broadcast(5, receivers.len(), (sender, receivers[0]));
        }
        assert_eq!(broadcast, per_port);
        assert_eq!((broadcast.total, broadcast.max, broadcast.edge), (25, 5, (3, 4)));
    }

    #[test]
    fn meter_enforces_the_congest_budget_with_a_typed_error() {
        let mut report = RoundReport::zero();
        let mut round = EdgeLoad::default();
        round.charge(9, 9, (1, 0));
        let err = round.finish(3, CostMode::Congest { bits_per_edge: 8 }, &mut report).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::CongestBudgetExceeded {
                round: 3,
                sender: 1,
                receiver: 0,
                bits: 9,
                budget: 8
            }
        );
        // The report still records what the round put on the wire.
        assert_eq!(report.total_bits, 9);
        assert_eq!(report.max_edge_bits, 9);
    }
}
