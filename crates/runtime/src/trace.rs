//! Round-by-round execution traces.
//!
//! The executor reports aggregate costs; for debugging node programs and for the per-round
//! plots in the experiment write-ups it is useful to see how activity evolves over the rounds.
//! [`TraceRecorder`] collects one [`RoundTrace`] per round (how many nodes were still active,
//! how many messages were exchanged, which vertices halted), and renders a compact activity
//! profile.

use serde::{Deserialize, Serialize};

/// What a traced run should capture beyond the always-on per-round counters.
///
/// `run_traced` on all three executors uses the default configuration; the
/// `run_traced_with` variants accept an explicit one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capture the identities of the vertices that halted each round in
    /// [`RoundTrace::halted`].  Off by default: million-vertex traced runs would otherwise
    /// pay a per-round `Vec<usize>` allocation, and [`RoundTrace::halts`] (a plain counter,
    /// always filled) covers [`TraceRecorder::completion_round`].
    pub capture_halted: bool,
}

impl TraceConfig {
    /// A configuration that captures per-round halted-vertex identities.
    pub fn with_halted() -> Self {
        TraceConfig { capture_halted: true }
    }
}

/// What happened in one synchronous round.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// The round number (1-based).
    pub round: usize,
    /// Number of nodes that were still active at the start of the round.
    pub active_nodes: usize,
    /// Number of vertices actually stepped this round — the frontier: vertices with pending
    /// mail or an alarm due this round that had not halted.  This, not `active_nodes`, is
    /// what a round's work is proportional to under frontier-driven execution.
    pub frontier: usize,
    /// Number of messages delivered in this round (sent in round `round − 1`; round 1
    /// delivers the `init` sends).  Summing this column over a full trace reproduces
    /// `RoundReport::messages` bit-exactly — the invariant `tests/obs_spans.rs` pins.
    pub messages: usize,
    /// Bits across this round's deliveries, as measured by
    /// [`MessageCost`](crate::cost::MessageCost) (same delivery-side attribution as
    /// `messages`, so the column sums to `RoundReport::total_bits`).
    pub total_bits: u64,
    /// The largest bit load a single edge (per direction) carried among this round's
    /// deliveries.
    pub max_edge_bits: u64,
    /// Number of vertices that halted during this round (always filled by the executors).
    pub halts: usize,
    /// Vertices that halted during this round.  Filled only when
    /// [`TraceConfig::capture_halted`] is set — empty does **not** mean nobody halted;
    /// check [`RoundTrace::halts`].
    pub halted: Vec<usize>,
    /// Wall-clock nanoseconds the executor spent stepping this round (advisory; 0 when the
    /// recorder was filled by hand).
    pub wall_ns: u64,
}

/// Collects per-round traces.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecorder {
    rounds: Vec<RoundTrace>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Records one round.
    pub fn record(&mut self, trace: RoundTrace) {
        self.rounds.push(trace);
    }

    /// The recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundTrace] {
        &self.rounds
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total number of messages across all recorded rounds.
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// The round in which the last node halted, if any node halted at all.  Uses the
    /// always-on [`RoundTrace::halts`] counter, falling back to the opt-in
    /// [`RoundTrace::halted`] list for hand-built traces that only filled the latter.
    pub fn completion_round(&self) -> Option<usize> {
        self.rounds.iter().rev().find(|r| r.halts > 0 || !r.halted.is_empty()).map(|r| r.round)
    }

    /// The per-round frontier sizes (vertices actually stepped), in round order.
    pub fn frontier_profile(&self) -> Vec<usize> {
        self.rounds.iter().map(|r| r.frontier).collect()
    }

    /// The largest per-round frontier, or 0 if nothing was recorded.
    pub fn peak_frontier(&self) -> usize {
        self.rounds.iter().map(|r| r.frontier).max().unwrap_or(0)
    }

    /// Total vertex steps across all recorded rounds (the executor's round-loop work under
    /// frontier-driven execution; an everyone-runs executor would have paid
    /// `active_nodes` per round instead).
    pub fn total_steps(&self) -> usize {
        self.rounds.iter().map(|r| r.frontier).sum()
    }

    /// A compact textual activity profile: one character per round, scaled by the fraction of
    /// nodes still active (`#` ≥ 75 %, `+` ≥ 50 %, `-` ≥ 25 %, `.` > 0 %, space = idle).
    pub fn activity_profile(&self, total_nodes: usize) -> String {
        self.rounds
            .iter()
            .map(|r| {
                if total_nodes == 0 || r.active_nodes == 0 {
                    ' '
                } else {
                    let frac = r.active_nodes as f64 / total_nodes as f64;
                    if frac >= 0.75 {
                        '#'
                    } else if frac >= 0.5 {
                        '+'
                    } else if frac >= 0.25 {
                        '-'
                    } else {
                        '.'
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::new();
        t.record(RoundTrace {
            round: 1,
            active_nodes: 10,
            frontier: 10,
            messages: 40,
            halted: vec![],
            ..RoundTrace::default()
        });
        t.record(RoundTrace {
            round: 2,
            active_nodes: 6,
            frontier: 5,
            messages: 24,
            halted: vec![3, 4],
            ..RoundTrace::default()
        });
        t.record(RoundTrace {
            round: 3,
            active_nodes: 2,
            frontier: 1,
            messages: 4,
            halted: vec![0, 1],
            ..RoundTrace::default()
        });
        t
    }

    #[test]
    fn aggregates_are_consistent() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.total_messages(), 68);
        assert_eq!(t.completion_round(), Some(3));
        assert_eq!(t.rounds()[1].halted, vec![3, 4]);
        assert_eq!(t.frontier_profile(), vec![10, 5, 1]);
        assert_eq!(t.peak_frontier(), 10);
        assert_eq!(t.total_steps(), 16);
    }

    #[test]
    fn activity_profile_scales_with_active_fraction() {
        let t = sample();
        assert_eq!(t.activity_profile(10), "#+.");
        assert_eq!(t.activity_profile(0), "   ");
        assert_eq!(TraceRecorder::new().activity_profile(5), "");
    }

    #[test]
    fn completion_round_prefers_the_halt_counter() {
        let mut t = TraceRecorder::new();
        t.record(RoundTrace { round: 1, halts: 0, ..RoundTrace::default() });
        t.record(RoundTrace { round: 2, halts: 3, ..RoundTrace::default() });
        t.record(RoundTrace { round: 3, halts: 0, ..RoundTrace::default() });
        assert_eq!(t.completion_round(), Some(2), "counter works without halted identities");
        assert_eq!(TraceConfig::default(), TraceConfig { capture_halted: false });
        assert!(TraceConfig::with_halted().capture_halted);
    }

    #[test]
    fn empty_recorder_has_no_completion_round() {
        assert_eq!(TraceRecorder::new().completion_round(), None);
        assert_eq!(TraceRecorder::new().total_messages(), 0);
    }
}
