//! The node-program interface of the LOCAL-model simulator.

use crate::network::Records;
use arbcolor_graph::Vertex;

/// Everything a vertex is allowed to know at the start of an algorithm.
///
/// In the LOCAL model a vertex initially knows its own unique identifier and its degree; the
/// global parameters of a problem (`n`, `Δ`, the size of the identifier space) are part of
/// the algorithm, which every vertex knows.  The simulator starts vertices under `KT0`: a
/// vertex does not know its neighbors' identifiers, and a program that needs them learns
/// them with one round of communication.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx {
    /// Simulator-internal vertex index (stable across phases of a multi-phase algorithm, but
    /// *not* to be used as an identifier by node programs — use [`NodeCtx::id`]).
    pub vertex: Vertex,
    /// The unique LOCAL-model identifier of this vertex.
    pub id: u64,
    /// Degree of this vertex.
    pub degree: usize,
}

/// What a node asks of the executor after an `init`/`round` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Step the node again only when mail arrives.
    Active,
    /// Step the node in round `r`, or earlier if mail arrives.  `r` must be later than the
    /// round that returned it (`init` returns from round 0); the executors panic otherwise.
    /// Every invocation's status replaces the previous one, so an alarm is cancelled by a
    /// later invocation that returns [`Status::Active`], another `WakeAt`, or
    /// [`Status::Halted`].
    WakeAt(usize),
    /// Step the node in round `r` with that round's mail, and not before: mail that arrives
    /// earlier is dropped unread, as for a halted node (it was counted when it was sent).
    /// `r` must be later than the round that returned it.
    SleepUntil(usize),
    /// The node's output is final, and it is never stepped again: its mail is dropped
    /// unread.  It counts as active until round `r`, and halts at the start of that round
    /// without a step (the halt counts in round `r`), so the run lasts exactly as long as
    /// if the node had been stepped in round `r` to return [`Status::Halted`].  `r` must be
    /// later than the round that returned it.
    HaltAt(usize),
    /// The node's output is final; it sends the messages produced in this round and then
    /// stops participating.
    Halted,
}

impl Status {
    /// Panics unless a [`Status::WakeAt`], [`Status::SleepUntil`] or [`Status::HaltAt`]
    /// returned by `vertex` in `round` names a later round.
    pub(crate) fn check_alarm(self, vertex: Vertex, round: usize) {
        if let Status::WakeAt(at) | Status::SleepUntil(at) | Status::HaltAt(at) = self {
            assert!(
                at > round,
                "vertex {vertex} returned {self:?} in round {round}: an alarm must name a \
                 later round"
            );
        }
    }
}

/// Messages delivered to a node at the start of a round.
///
/// Logically a sequence of `(port, message)` pairs, where `port` is the receiving vertex's
/// port towards the sender, at most one per port.  Two physical representations exist: a
/// plain pair slice ([`Inbox::new`], used by the reference executor and tests) and the
/// executor's pulled view of the message fabric (see [`network`](crate::network)), which
/// reads the mail where the senders left it: the broadcast record of each neighbor whose
/// bit is set in the round's sender bitset.  Reading it costs one cached bit test per port,
/// plus one read per message.  Iteration order is identical in both: ports ascending —
/// which equals sender-index ascending, because adjacency lists are sorted.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    round: usize,
    repr: InboxRepr<'a, M>,
}

/// Physical layout of an [`Inbox`].
#[derive(Debug)]
enum InboxRepr<'a, M> {
    /// `(port, message)` pairs in delivery order.
    Pairs(&'a [(usize, M)]),
    /// One receiver's view of the pull fabric.
    Pulled {
        /// The receiver's neighbors, indexed by port.
        neighbors: &'a [Vertex],
        /// The round's broadcast records of every vertex.
        records: &'a Records<M>,
    },
}

impl<'a, M> Inbox<'a, M> {
    /// Wraps a slice of `(port, message)` pairs delivered in `round`.
    ///
    /// This representation is deliberately kept alive alongside the pulled one: the
    /// [`ReferenceExecutor`](crate::ReferenceExecutor) oracle must share no fabric code with
    /// the executors it checks, so it builds its inboxes from plain per-vertex pair vectors
    /// through this constructor (as do hand-rolled node-program tests).
    pub fn new(round: usize, messages: &'a [(usize, M)]) -> Self {
        Inbox { round, repr: InboxRepr::Pairs(messages) }
    }

    /// Wraps one receiver's view of the pull fabric (see the type docs) in `round`.
    pub(crate) fn pulled(round: usize, neighbors: &'a [Vertex], records: &'a Records<M>) -> Self {
        Inbox { round, repr: InboxRepr::Pulled { neighbors, records } }
    }

    /// The current round, counted from 1 (round 0 is `init`, which has no inbox).  Every
    /// processor shares this clock, so slot schedules and phase machines read it instead
    /// of counting rounds themselves.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Iterates over `(port, &message)` pairs, ports ascending.  The iterator is a cheap
    /// copy of a few positions, so a program may clone it to walk its mail twice without
    /// buffering it.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + Clone + '_ {
        match self.repr {
            InboxRepr::Pairs(messages) => InboxIter::Pairs(messages.iter()),
            InboxRepr::Pulled { neighbors, records } => {
                InboxIter::Pulled(RecordPorts { neighbors, records, port: 0 })
            }
        }
    }

    /// The message received from the neighbor at `port`, if any.
    ///
    /// On the pulled view this is one bit test; O(len) on the pair slice.
    pub fn from_port(&self, port: usize) -> Option<&'a M> {
        match self.repr {
            InboxRepr::Pairs(messages) => messages.iter().find(|(p, _)| *p == port).map(|(_, m)| m),
            InboxRepr::Pulled { neighbors, records } => records.get(*neighbors.get(port)?),
        }
    }

    /// Number of messages received this round: one bit test per port on the pulled view.
    pub fn len(&self) -> usize {
        match self.repr {
            InboxRepr::Pairs(messages) => messages.len(),
            InboxRepr::Pulled { neighbors, records } => {
                neighbors.iter().filter(|&&u| records.get(u).is_some()).count()
            }
        }
    }

    /// Whether no messages were received this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Iterator behind [`Inbox::iter`].
enum InboxIter<'a, M> {
    Pairs(std::slice::Iter<'a, (usize, M)>),
    Pulled(RecordPorts<'a, M>),
}

// Written out rather than derived: a derive would demand `M: Clone`, and the iterator
// holds only positions and shared references.
impl<M> Clone for InboxIter<'_, M> {
    fn clone(&self) -> Self {
        match self {
            InboxIter::Pairs(iter) => InboxIter::Pairs(iter.clone()),
            InboxIter::Pulled(recorded) => InboxIter::Pulled(recorded.clone()),
        }
    }
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (usize, &'a M);

    fn next(&mut self) -> Option<(usize, &'a M)> {
        match self {
            InboxIter::Pairs(iter) => iter.next().map(|(p, m)| (*p, m)),
            InboxIter::Pulled(recorded) => recorded.next(),
        }
    }
}

/// The ports of one receiver whose neighbor left a record for the round, ascending, with
/// the recorded messages.
struct RecordPorts<'a, M> {
    neighbors: &'a [Vertex],
    records: &'a Records<M>,
    /// The next port to test.
    port: usize,
}

impl<M> Clone for RecordPorts<'_, M> {
    fn clone(&self) -> Self {
        RecordPorts { neighbors: self.neighbors, records: self.records, port: self.port }
    }
}

impl<'a, M> Iterator for RecordPorts<'a, M> {
    type Item = (usize, &'a M);

    fn next(&mut self) -> Option<(usize, &'a M)> {
        while let Some(&sender) = self.neighbors.get(self.port) {
            self.port += 1;
            if let Some(message) = self.records.get(sender) {
                return Some((self.port - 1, message));
            }
        }
        None
    }
}

/// The message a node wants delivered to its neighbors at the start of the next round.
///
/// A step sends at most one message, and it goes to every neighbor: the outbox holds one
/// [`broadcast`](Outbox::broadcast), which the executor hands to every receiver as one
/// record instead of copying it per port.
#[derive(Debug)]
pub struct Outbox<M> {
    message: Option<M>,
    degree: usize,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox for a vertex of the given degree.
    pub fn new(degree: usize) -> Self {
        Outbox { message: None, degree }
    }

    /// Re-targets the outbox at a vertex of the given degree, clearing the queued message —
    /// the executors reuse one outbox across all vertices.
    pub fn reset(&mut self, degree: usize) {
        self.message = None;
        self.degree = degree;
    }

    /// Sends `message` to every neighbor.  On a vertex without neighbors it reaches nobody,
    /// and counts as no message.
    ///
    /// # Panics
    ///
    /// Panics on a second broadcast in the same step: a step sends at most one message.
    pub fn broadcast(&mut self, message: M) {
        assert!(self.message.is_none(), "a step broadcasts at most once");
        self.message = Some(message);
    }

    /// Number of messages queued: the degree after a broadcast, else 0.
    pub fn len(&self) -> usize {
        if self.message.is_some() {
            self.degree
        } else {
            0
        }
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the broadcast out of the outbox, leaving it empty.
    pub(crate) fn take(&mut self) -> Option<M> {
        self.message.take()
    }
}

/// The per-vertex state machine of a distributed algorithm.
///
/// The executor drives it as follows: `init` runs before the first communication round (for
/// **every** vertex, as round 0) and may queue a message; then rounds 1, 2, … deliver the
/// messages queued in the previous round and invoke `round` on the vertices that must act
/// (see below).  Each invocation sends at most one message, a
/// [`broadcast`](Outbox::broadcast) to every neighbor, as every procedure of the paper
/// does; a second broadcast in one invocation panics.  When a node returns
/// [`Status::Halted`] or [`Status::HaltAt`], the message it queued in that invocation is
/// still delivered, but it is never invoked again.  `output` is read once the whole network
/// has halted.
///
/// # Activation contract
///
/// Every processor shares one round clock, read as [`Inbox::round`].  A round only invokes
/// `round` on the **frontier**: the vertices that received at least one message in that
/// round and are neither asleep nor waiting to halt, plus those whose previous
/// `init`/`round` invocation returned [`Status::WakeAt`] or [`Status::SleepUntil`] for this
/// round.  Quiescent vertices are free — a round costs
/// O(|frontier| + messages), plus one cached bit test per port of each stepped vertex to
/// find its mail (see [`Inbox`]), not O(n).  The status each invocation returns is the
/// vertex's whole request:
///
/// * [`Status::Active`] — step me only when mail arrives.  Purely message-driven programs
///   (empty-inbox rounds would be no-ops) return it and are not invoked until mail shows up.
/// * [`Status::WakeAt(r)`](Status::WakeAt) — step me in round `r`, or earlier if mail
///   arrives.  A slot schedule returns its slot, a give-up deadline its round, and a phase
///   machine that acts every round `WakeAt(round + 1)`.  An earlier invocation (on mail)
///   returns a new status, which replaces the alarm.
/// * [`Status::SleepUntil(r)`](Status::SleepUntil) — step me in round `r` and not before;
///   drop my mail until then.  A vertex whose next action cannot depend on the mail it
///   would get before its slot returns it.
/// * [`Status::HaltAt(r)`](Status::HaltAt) — my output is final; never step me again and
///   drop my mail, but count me as active until round `r`, where I halt without a step.  A
///   vertex that would otherwise be stepped in a common finalize round only to halt, with
///   an output no later mail can change, returns it.
/// * [`Status::Halted`] — done; any pending alarm is dropped.
///
/// An active vertex that is skipped in a round observes nothing, so a program must treat an
/// invocation before its alarm with an empty inbox as a no-op that returns the same alarm.
/// The [`ReferenceExecutor`](crate::ReferenceExecutor) oracle still invokes every active
/// vertex every round, except one that sleeps or waits to halt (it only checks that alarms
/// name a later round), so the bit-identity suites double as a check that programs treat a
/// skipped no-op round and an executed one identically.
pub trait NodeProgram {
    /// Message type exchanged by this algorithm.  The [`MessageCost`](crate::cost::MessageCost)
    /// bound is what lets the executors account CONGEST bandwidth for every algorithm.
    type Msg: Clone + crate::cost::MessageCost;
    /// Per-vertex output of the algorithm.
    type Output;

    /// Local initialization; may queue the message of the first round.
    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<Self::Msg>) -> Status;

    /// One synchronous round: consume the delivered messages, queue the next round's message.
    fn round(
        &mut self,
        ctx: &NodeCtx,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
    ) -> Status;

    /// The final output of this vertex.
    fn output(&self, ctx: &NodeCtx) -> Self::Output;
}

/// A distributed algorithm: a factory of node programs plus a display name.
///
/// The factory receives the [`NodeCtx`] of the vertex, so per-vertex inputs computed by a
/// previous phase (an orientation, a defective coloring, …) can be embedded into the node
/// program at construction time — exactly as in the paper, where the output of one procedure
/// is locally known to each vertex when the next procedure starts.
pub trait Algorithm {
    /// The node program type.
    type Node: NodeProgram;

    /// Creates the node program for the vertex described by `ctx`.
    fn node(&self, ctx: &NodeCtx) -> Self::Node;

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str {
        "algorithm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_broadcast() {
        // A broadcast is one entry however many ports it reaches, taken whole; on a vertex
        // without ports it counts as no message.
        let mut out: Outbox<u32> = Outbox::new(3);
        assert!(out.is_empty());
        out.broadcast(4);
        assert_eq!(out.len(), 3);
        assert_eq!(out.take(), Some(4));
        assert!(out.is_empty());
        assert_eq!(out.take(), None);
        let mut out: Outbox<u32> = Outbox::new(0);
        out.broadcast(4);
        assert_eq!(out.len(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn outbox_reset_retargets_and_clears() {
        let mut out: Outbox<u32> = Outbox::new(1);
        out.broadcast(5);
        out.reset(2);
        assert!(out.is_empty());
        out.broadcast(6); // a new step may broadcast again
        assert_eq!(out.len(), 2);
        assert_eq!(out.take(), Some(6));
    }

    #[test]
    #[should_panic(expected = "a step broadcasts at most once")]
    fn a_second_broadcast_in_one_step_panics() {
        let mut out: Outbox<u32> = Outbox::new(2);
        out.broadcast(1);
        out.broadcast(2);
    }

    #[test]
    fn inbox_lookup() {
        let raw = vec![(0usize, 5u32), (2, 7)];
        let inbox = Inbox::new(1, &raw);
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from_port(2), Some(&7));
        assert_eq!(inbox.from_port(1), None);
        let collected: Vec<_> = inbox.iter().collect();
        assert_eq!(collected, vec![(0, &5), (2, &7)]);
    }

    /// The records of `n` vertices, holding the `(vertex, message, read this round?)`
    /// entries given.
    fn records(n: usize, stored: &[(usize, u32, bool)]) -> Records<u32> {
        let mut records = Records { slots: vec![None; n], sent: vec![0; n.div_ceil(64)] };
        for &(v, message, current) in stored {
            records.slots[v] = Some(message);
            if current {
                records.sent[v / 64] |= 1 << (v % 64);
            }
        }
        records
    }

    #[test]
    fn pulled_inbox_matches_pair_inbox() {
        // A degree-4 vertex towards vertices 3, 5, 8 and 9.  Vertices 3 and 8 left a record
        // for the round, and vertex 5's record is an old one (its bit is clear).
        let neighbors = [3usize, 5, 8, 9];
        let recs = records(10, &[(3, 5, true), (5, 99, false), (8, 7, true)]);
        let inbox = Inbox::pulled(1, &neighbors, &recs);
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from_port(0), Some(&5));
        assert_eq!(inbox.from_port(1), None);
        assert_eq!(inbox.from_port(2), Some(&7));
        assert_eq!(inbox.from_port(9), None);
        let collected: Vec<_> = inbox.iter().collect();
        assert_eq!(collected, vec![(0, &5), (2, &7)]);

        // Without the round's bits, the slots hold nothing to read.
        let stale = records(10, &[(3, 5, false), (8, 7, false)]);
        let empty = Inbox::pulled(2, &neighbors, &stale);
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty.from_port(0), None);

        // A degree-150 vertex adjacent to vertices 0..150, so its senders' bits span three
        // words, with records on both sides of every word boundary.
        let neighbors: Vec<usize> = (0..150).collect();
        let hit = [0usize, 1, 13, 14, 50, 63, 64, 127, 128, 149];
        let stored: Vec<(usize, u32, bool)> =
            hit.iter().map(|&port| (port, port as u32 * 10, true)).collect();
        let recs = records(neighbors.len(), &stored);
        let inbox = Inbox::pulled(2, &neighbors, &recs);
        let pairs: Vec<(usize, u32)> = hit.iter().map(|&port| (port, port as u32 * 10)).collect();
        let expected = Inbox::new(2, &pairs);
        assert_eq!(inbox.iter().collect::<Vec<_>>(), expected.iter().collect::<Vec<_>>());
        assert_eq!(inbox.len(), inbox.iter().count());
        assert_eq!(inbox.len(), expected.len());
        assert_eq!(inbox.from_port(149), Some(&1490));
        assert_eq!(inbox.from_port(64), Some(&640));
        assert_eq!(inbox.from_port(15), None);
    }

    #[test]
    fn inboxes_carry_the_round() {
        let raw = vec![(0usize, 1u32)];
        assert_eq!(Inbox::new(4, &raw).round(), 4);
        let recs = records(0, &[]);
        let empty: Inbox<'_, u32> = Inbox::pulled(7, &[], &recs);
        assert_eq!(empty.round(), 7);
    }

    #[test]
    fn alarms_must_name_a_later_round() {
        Status::WakeAt(3).check_alarm(0, 2);
        Status::Active.check_alarm(0, 9);
        Status::Halted.check_alarm(0, 9);
        Status::SleepUntil(3).check_alarm(0, 2);
        Status::HaltAt(3).check_alarm(0, 2);
        for late in [Status::WakeAt(2), Status::SleepUntil(2), Status::HaltAt(1)] {
            let caught = std::panic::catch_unwind(|| late.check_alarm(5, 2));
            assert!(caught.is_err(), "{late:?} in round 2 must panic");
        }
    }
}
