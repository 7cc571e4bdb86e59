//! The pull message fabric and the types shared by every executor.
//!
//! # The message fabric
//!
//! The LOCAL model charges one round for all messages at once, so the simulator's delivery
//! path is the hot loop of every experiment.  In every procedure the workspace runs, a
//! vertex sends the same color or flag to all of its neighbors, so the fabric is built
//! around the broadcast.  A message stays with its sender, and each receiver pulls it in its
//! own step, the way a Pregel vertex reads what its neighbors sent:
//!
//! 1. **A broadcast is one record.**  A step sends at most one message, a
//!    [`broadcast`](crate::Outbox::broadcast) to every neighbor, and a step that sends one
//!    leaves one record for its sender: the message in the sender's slot, and the sender's
//!    bit in a vertex bitset of the round the message is read in.  The bit is the record's
//!    stamp, so a slot is never cleared, only overwritten by the sender's next broadcast.
//!    The sender's bandwidth is metered in O(1); its message count is its degree.
//! 2. **Receivers pull.**  A receiver reads its mail while it is stepped, in parallel with
//!    the other receivers: for each port, one bit of the sender bitset (n / 8 bytes, 25 KB
//!    at n = 2·10⁵, so it stays in cache), and the sender's slot when the bit is set.  A hub
//!    that gets mail on a few of its thousands of ports pays one cached bit test per port,
//!    and the senders pay nothing per message beyond marking the receiver into the next
//!    frontier.
//! 3. **Order preservation.**  Adjacency lists are sorted, so reading a vertex's ports in
//!    ascending order equals the sender-index order the old `Vec<Vec<(port, msg)>>`
//!    mailboxes produced; outputs, rounds, and message counts are bit-identical to the
//!    [`reference`](crate::reference) executor (enforced by `tests/message_fabric.rs`).
//!
//! The records are written only by the coordinator, between steps: its commit moves each
//! chunk's broadcasts into their senders' slots and sets their bits (clearing the previous
//! round's), in O(chunks + broadcasts).  A round of broadcasts costs the coordinator
//! nothing per message.  The round being read needs no second buffer, because every
//! receiver has read it before the commit overwrites it.
//!
//! # Frontier-driven rounds
//!
//! On top of the fabric, the round loop ([`Executor`](crate::Executor)) only steps the
//! **frontier** (see [`frontier`](crate::frontier)): sending to a vertex marks its frontier
//! bit, and an alarm ([`Status::WakeAt`](crate::Status::WakeAt) or
//! [`Status::SleepUntil`](crate::Status::SleepUntil)) marks its vertex when its round
//! opens, so a round walks the frontier in ascending vertex order instead of all of `0..n`.
//! Vertices that halted, sleep, or wait to halt ([`Status::HaltAt`](crate::Status::HaltAt))
//! can still be marked by mail; they are skipped at iteration time (their mail is dropped
//! unread).  A vertex waiting to halt halts when its round opens, with no step.
//!
//! This module holds the fabric and the types every executor shares; the loop itself lives
//! in [`shard`](crate::shard).

use crate::metrics::RoundReport;
use crate::node::{Inbox, NodeCtx};
use arbcolor_graph::{Graph, Vertex};
use std::error::Error;
use std::fmt;

/// Errors raised by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The algorithm did not terminate within the configured round limit.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// How many nodes were still active when the limit was hit.
        still_active: usize,
    },
    /// Under [`CostMode::Congest`](crate::CostMode::Congest), a single edge carried more
    /// bits in one round than the configured per-edge budget allows.
    CongestBudgetExceeded {
        /// The round whose deliveries exceeded the budget (1-based; round `r`'s deliveries
        /// are the messages sent in round `r - 1`, with round 1 carrying the `init` sends).
        round: usize,
        /// The vertex that sent over the overloaded edge.
        sender: Vertex,
        /// The vertex receiving over the overloaded edge.
        receiver: Vertex,
        /// The measured bit load of the edge in that round.
        bits: u64,
        /// The configured per-edge per-round budget.
        budget: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RoundLimitExceeded { limit, still_active } => write!(
                f,
                "algorithm exceeded the round limit of {limit} with {still_active} nodes still active"
            ),
            RuntimeError::CongestBudgetExceeded { round, sender, receiver, bits, budget } => {
                write!(
                    f,
                    "round {round}: edge {sender} -> {receiver} carried {bits} bits, \
                     over the CONGEST budget of {budget} bits per edge per round"
                )
            }
        }
    }
}

impl Error for RuntimeError {}

/// The result of running an algorithm to completion.
#[derive(Debug, Clone)]
pub struct ExecutionResult<O> {
    /// Per-vertex outputs, indexed by vertex.
    pub outputs: Vec<O>,
    /// Round and message accounting for this execution.
    pub report: RoundReport,
}

/// Builds the [`NodeCtx`] of vertex `v` (shared by the executor and the reference oracle so
/// node programs observe identical contexts under either).
pub(crate) fn node_ctx(graph: &Graph, v: usize) -> NodeCtx {
    NodeCtx { vertex: v, id: graph.id(v), degree: graph.degree(v) }
}

/// The broadcast records of one round: each vertex's latest broadcast in its slot, and the
/// bitset of the vertices whose slot holds mail for the round.
#[derive(Debug)]
pub(crate) struct Records<M> {
    /// Per vertex, the message of its latest broadcast (`None` before its first).
    pub(crate) slots: Vec<Option<M>>,
    /// Bit `v` set ⇔ `slots[v]` is read in the round.
    pub(crate) sent: Vec<u64>,
}

impl<M> Records<M> {
    /// The broadcast of `sender` in the round, if it left one.
    #[inline]
    pub(crate) fn get(&self, sender: Vertex) -> Option<&M> {
        if self.sent[sender / 64] & (1 << (sender % 64)) != 0 {
            self.slots[sender].as_ref()
        } else {
            None
        }
    }
}

/// The pull fabric of one run (see the [module docs](self)).
///
/// The workers of a step only read it; the coordinator writes it between steps.
pub(crate) struct Fabric<M> {
    records: Records<M>,
    /// The nonzero words of `records.sent`, cleared when the next round's bits are set.
    sent_words: Vec<usize>,
}

impl<M> Fabric<M> {
    /// An empty fabric over `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Fabric {
            records: Records {
                slots: (0..n).map(|_| None).collect(),
                sent: vec![0; n.div_ceil(64)],
            },
            sent_words: Vec::new(),
        }
    }

    /// Retires the open round's records, before the commit that follows its step stores the
    /// next round's; O(words of the sender bitset that were set).
    pub(crate) fn retire(&mut self) {
        for w in self.sent_words.drain(..) {
            self.records.sent[w] = 0;
        }
    }

    /// Stores `v`'s broadcast of the open round, read in the next one.
    pub(crate) fn store(&mut self, v: Vertex, message: M) {
        self.records.slots[v] = Some(message);
        let word = &mut self.records.sent[v / 64];
        if *word == 0 {
            self.sent_words.push(v / 64);
        }
        *word |= 1 << (v % 64);
    }

    /// The inbox of `v` in `round`, the round whose records are stored.
    pub(crate) fn read<'a>(&'a self, graph: &'a Graph, v: Vertex, round: usize) -> Inbox<'a, M> {
        Inbox::pulled(round, graph.neighbors(v), &self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FloodMaxId, ProposeMaxId};
    use crate::Executor;
    use arbcolor_graph::generators;

    #[test]
    fn propose_max_id_takes_one_round() {
        let g = generators::cycle(10).unwrap().with_shuffled_ids(3);
        let result = Executor::new(&g).run(&ProposeMaxId).unwrap();
        assert_eq!(result.report.rounds, 1);
        assert_eq!(result.report.messages, 2 * g.m());
        for v in g.vertices() {
            let expected = g
                .neighbors(v)
                .iter()
                .map(|&u| g.id(u))
                .chain(std::iter::once(g.id(v)))
                .max()
                .unwrap();
            assert_eq!(result.outputs[v], expected);
        }
    }

    #[test]
    fn flood_max_id_converges_to_global_max_within_diameter_rounds() {
        let g = generators::path(12).unwrap().with_shuffled_ids(8);
        let result = Executor::new(&g).run(&FloodMaxId { rounds: 11 }).unwrap();
        let global_max = g.ids().iter().copied().max().unwrap();
        assert!(result.outputs.iter().all(|&x| x == global_max));
        assert_eq!(result.report.rounds, 11);
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = generators::path(4).unwrap();
        let err =
            Executor::new(&g).with_max_rounds(3).run(&FloodMaxId { rounds: 100 }).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 3, .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn isolated_vertices_halt_immediately() {
        let g = arbcolor_graph::Graph::empty(5);
        let result = Executor::new(&g).run(&ProposeMaxId).unwrap();
        assert_eq!(result.report.rounds, 0);
        assert_eq!(result.report.messages, 0);
        for v in g.vertices() {
            assert_eq!(result.outputs[v], g.id(v));
        }
    }
}
