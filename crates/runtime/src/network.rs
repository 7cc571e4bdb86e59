//! The arc-indexed message fabric and the types shared by every executor.
//!
//! # The message fabric
//!
//! The LOCAL model charges one round for all messages at once, so the simulator's delivery
//! path is the hot loop of every experiment.  Four structural facts make it allocation-,
//! scan- and sort-free:
//!
//! 1. **O(1) routing.**  A message leaving `sender` on `port` arrives at the mirror arc
//!    `graph.mirror_arcs()[arc_range(sender).start + port]` — a single array read
//!    precomputed by the CSR build, replacing the per-message `port_of` scan of the
//!    receiver's adjacency list.
//! 2. **Flat mailboxes.**  Pending messages live in one arc-indexed slot buffer
//!    (`ArcMailboxes`): slot `a` holds the first message delivered to arc `a` this round,
//!    and a shared spill vector absorbs the rare second message per port — so a round
//!    performs no per-vertex `Vec` pushes and, on the one-message-per-port fast path, no
//!    heap allocation at all.
//! 3. **Bitset occupancy.**  One bit per arc says which slots are occupied, and a list of
//!    the words that became nonzero lets clearing visit only those words — O(messages),
//!    not O(arcs).  A vertex reads its mail by walking the set bits of its own arc range,
//!    so its inbox is in port order without sorting anything: a round costs
//!    O(|frontier| + messages) plus O(degree / 64) per stepped vertex.  Only the spill is
//!    sorted (stably, by arc, and only when it is non-empty); a cursor seeded once per
//!    frontier chunk hands each vertex its spill window.
//! 4. **Order preservation.**  Adjacency lists are sorted, so reading a vertex's slots in
//!    port order equals the sender-index order the old `Vec<Vec<(port, msg)>>` mailboxes
//!    produced; outputs, rounds, and message counts are bit-identical to the
//!    [`reference`](crate::reference) executor (enforced by `tests/message_fabric.rs`).
//!
//! # Frontier-driven rounds
//!
//! On top of the fabric, the round loop ([`Executor`](crate::Executor)) only steps the
//! **frontier** (see [`frontier`](crate::frontier)): delivering a message marks the
//! receiver's frontier bit, and an alarm ([`Status::WakeAt`](crate::Status::WakeAt)) marks
//! its vertex when its round opens, so a round walks the frontier in ascending vertex
//! order instead of all of `0..n`.  Halted vertices can still be marked by late mail; they
//! are skipped at iteration time (their mail is dropped unread).
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

/// The flat arc-indexed mailbox buffer of one executor side (pending or inbox).
///
/// `slots[a]` holds the first message delivered to arc `a` in the current round;
/// additional messages to the same arc overflow into `spill` in arrival order.  Bit `a` of
/// `occupied` is set exactly when `slots[a]` is, and `words` lists the words of `occupied`
/// that became nonzero, so clearing is O(messages), not O(arcs).
pub(crate) struct ArcMailboxes<M> {
    /// First (usually only) message per arc this round.
    slots: Vec<Option<M>>,
    /// One bit per arc: whether its slot is occupied.
    occupied: Vec<u64>,
    /// Indices of the nonzero words of `occupied`, in the order they became nonzero.
    words: Vec<usize>,
    /// Overflow messages as `(arc, message)`, arrival order; stably sorted by arc by
    /// [`ArcMailboxes::seal`].
    spill: Vec<(usize, M)>,
    /// The round these messages are read in, set by [`ArcMailboxes::seal`].
    round: usize,
}

impl<M> ArcMailboxes<M> {
    /// An empty buffer with one slot per arc of a graph with `arcs` arcs.
    pub(crate) fn new(arcs: usize) -> Self {
        ArcMailboxes {
            slots: (0..arcs).map(|_| None).collect(),
            occupied: vec![0; arcs.div_ceil(64)],
            words: Vec::new(),
            spill: Vec::new(),
            round: 0,
        }
    }

    /// Delivers `message` to `arc`.
    #[inline]
    pub(crate) fn push(&mut self, arc: usize, message: M) {
        let slot = &mut self.slots[arc];
        if slot.is_none() {
            *slot = Some(message);
            let word = &mut self.occupied[arc / 64];
            if *word == 0 {
                self.words.push(arc / 64);
            }
            *word |= 1 << (arc % 64);
        } else {
            self.spill.push((arc, message));
        }
    }

    /// Prepares the buffer for reading in `round`: stably groups the spill by arc,
    /// preserving send order within an arc.  The slots need no preparation: a vertex reads
    /// its occupied ports in ascending order off the bitset.
    pub(crate) fn seal(&mut self, round: usize) {
        self.round = round;
        if !self.spill.is_empty() {
            self.spill.sort_by_key(|&(arc, _)| arc);
        }
    }

    /// Empties the buffer in O(messages), retaining all capacity.
    pub(crate) fn clear(&mut self) {
        for w in self.words.drain(..) {
            let mut word = std::mem::take(&mut self.occupied[w]);
            while word != 0 {
                self.slots[w * 64 + word.trailing_zeros() as usize] = None;
                word &= word - 1;
            }
        }
        self.spill.clear();
    }

    /// The inbox of the vertex owning `arcs`, given its spill `window` from a
    /// [`MailboxCursor`].
    pub(crate) fn read(
        &self,
        window: std::ops::Range<usize>,
        arcs: std::ops::Range<usize>,
    ) -> Inbox<'_, M> {
        Inbox::from_slots(
            self.round,
            &self.slots[arcs.clone()],
            &self.occupied,
            &self.spill[window],
            arcs.start,
        )
    }

    /// A [`MailboxCursor`] positioned at the first spill entry with arc `>= arc` in a
    /// **sealed** buffer, by binary search — O(log spill), so each frontier chunk seeds its
    /// own cursor wherever it starts.
    pub(crate) fn cursor_at(&self, arc: usize) -> MailboxCursor {
        MailboxCursor { spill_pos: self.spill.partition_point(|&(a, _)| a < arc) }
    }
}

/// Walks the spill of a sealed [`ArcMailboxes`] in ascending vertex order from the position
/// [`ArcMailboxes::cursor_at`] seeded, handing each vertex its spill window in O(spilled
/// messages for that vertex) amortized.
pub(crate) struct MailboxCursor {
    spill_pos: usize,
}

impl MailboxCursor {
    /// Consumes all spill entries with arc `< arc_end` (the current vertex's arcs; callers
    /// must advance vertices in ascending order) and returns their range.
    pub(crate) fn advance<M>(
        &mut self,
        mail: &ArcMailboxes<M>,
        arc_end: usize,
    ) -> std::ops::Range<usize> {
        let start = self.spill_pos;
        while self.spill_pos < mail.spill.len() && mail.spill[self.spill_pos].0 < arc_end {
            self.spill_pos += 1;
        }
        start..self.spill_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FloodMaxId, ProposeMaxId};
    use crate::node::{Algorithm, NodeProgram, Outbox, Status};
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

    /// Sends two messages down the same port in one round: both must arrive, in send order
    /// (the spill path of the flat mailboxes).
    #[derive(Debug, Clone, Copy)]
    struct DoubleSend;

    #[derive(Debug, Clone)]
    struct DoubleSendNode {
        received: Vec<(usize, u64)>,
    }

    impl NodeProgram for DoubleSendNode {
        type Msg = u64;
        type Output = Vec<(usize, u64)>;

        fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
            for port in 0..ctx.degree {
                outbox.send(port, ctx.id * 10);
                outbox.send(port, ctx.id * 10 + 1);
            }
            Status::Active
        }

        fn round(
            &mut self,
            _ctx: &NodeCtx,
            inbox: &Inbox<'_, u64>,
            _outbox: &mut Outbox<u64>,
        ) -> Status {
            self.received = inbox.iter().map(|(p, &m)| (p, m)).collect();
            Status::Halted
        }

        fn output(&self, _ctx: &NodeCtx) -> Vec<(usize, u64)> {
            self.received.clone()
        }
    }

    impl Algorithm for DoubleSend {
        type Node = DoubleSendNode;

        fn node(&self, _ctx: &NodeCtx) -> DoubleSendNode {
            DoubleSendNode { received: Vec::new() }
        }
    }

    #[test]
    fn multiple_messages_per_port_take_the_spill_path_in_send_order() {
        let g = generators::path(3).unwrap(); // vertex 1 has ports to 0 and 2
        let result = Executor::new(&g).run(&DoubleSend).unwrap();
        assert_eq!(result.report.messages, 2 * 2 * g.m());
        let id = |v: usize| g.id(v);
        assert_eq!(
            result.outputs[1],
            vec![(0, id(0) * 10), (0, id(0) * 10 + 1), (1, id(2) * 10), (1, id(2) * 10 + 1),]
        );
        assert_eq!(result.outputs[0], vec![(0, id(1) * 10), (0, id(1) * 10 + 1)]);
    }
}
