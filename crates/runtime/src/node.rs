//! The node-program interface of the LOCAL-model simulator.

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
    /// The node's output is final; it sends the messages produced in this round and then
    /// stops participating.
    Halted,
}

impl Status {
    /// Panics unless a [`Status::WakeAt`] returned by `vertex` in `round` names a later round.
    pub(crate) fn check_alarm(self, vertex: Vertex, round: usize) {
        if let Status::WakeAt(at) = self {
            assert!(
                at > round,
                "vertex {vertex} returned WakeAt({at}) in round {round}: an alarm must name a \
                 later round"
            );
        }
    }
}

/// Messages delivered to a node at the start of a round.
///
/// Logically a sequence of `(port, message)` pairs, where `port` is the receiving vertex's
/// port towards the sender.  Two physical representations exist: a plain pair slice
/// ([`Inbox::new`], used by the reference executor and tests) and the flat arc-indexed slot
/// view of the zero-allocation message fabric (`Inbox::from_slots`), which walks the set
/// bits of the round's occupancy bitset over the vertex's arcs.  Iteration order is
/// identical in both: ports ascending — which equals sender-index ascending, because
/// adjacency lists are sorted — with multiple messages from the same port kept in send
/// order.
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
    /// Arc-indexed slots of the flat message fabric.
    Slots {
        /// This vertex's slot window, indexed by port; `Some` holds the first (usually
        /// only) message delivered to that port this round.
        slots: &'a [Option<M>],
        /// The round's slot-occupancy bitset over all arcs (bit `a` set ⇔ arc `a`'s slot
        /// holds a message); this vertex reads bits `base..base + slots.len()`.
        occupied: &'a [u64],
        /// Overflow `(arc, message)` pairs for ports that received more than one message,
        /// sorted by arc with send order preserved within an arc.
        spill: &'a [(usize, M)],
        /// The vertex's first arc index; `port = arc - base`.
        base: usize,
    },
}

impl<'a, M> Inbox<'a, M> {
    /// Wraps a slice of `(port, message)` pairs delivered in `round`.
    ///
    /// This representation is deliberately kept alive alongside the flat-slot one: the
    /// [`ReferenceExecutor`](crate::ReferenceExecutor) oracle must share no fabric code with
    /// the executors it checks, so it builds its inboxes from plain per-vertex pair vectors
    /// through this constructor (as do hand-rolled node-program tests).
    pub fn new(round: usize, messages: &'a [(usize, M)]) -> Self {
        Inbox { round, repr: InboxRepr::Pairs(messages) }
    }

    /// Wraps one vertex's window of the flat arc-indexed fabric (see the type docs),
    /// delivered in `round`.
    pub(crate) fn from_slots(
        round: usize,
        slots: &'a [Option<M>],
        occupied: &'a [u64],
        spill: &'a [(usize, M)],
        base: usize,
    ) -> Self {
        Inbox { round, repr: InboxRepr::Slots { slots, occupied, spill, base } }
    }

    /// The current round, counted from 1 (round 0 is `init`, which has no inbox).  Every
    /// processor shares this clock, so slot schedules and phase machines read it instead
    /// of counting rounds themselves.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Iterates over `(port, &message)` pairs (ports ascending; same-port messages in send
    /// order).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + '_ {
        match self.repr {
            InboxRepr::Pairs(messages) => InboxIter::Pairs(messages.iter()),
            InboxRepr::Slots { slots, occupied, spill, base } => {
                let end = base + slots.len();
                let word = if base < end { port_bits(occupied, base / 64, base, end) } else { 0 };
                InboxIter::Slots {
                    slots,
                    occupied,
                    end,
                    w: base / 64,
                    word,
                    spill,
                    spos: 0,
                    base,
                    current: None,
                }
            }
        }
    }

    /// The first message received from the neighbor at `port`, if any.
    ///
    /// O(1) on the flat-slot representation (one array read), O(len) on the pair slice.
    pub fn from_port(&self, port: usize) -> Option<&'a M> {
        match self.repr {
            InboxRepr::Pairs(messages) => messages.iter().find(|(p, _)| *p == port).map(|(_, m)| m),
            InboxRepr::Slots { slots, .. } => slots.get(port).and_then(|slot| slot.as_ref()),
        }
    }

    /// Number of messages received this round.
    ///
    /// On the flat-slot representation this is a popcount over the vertex's occupancy
    /// bits, O(degree / 64).
    pub fn len(&self) -> usize {
        match self.repr {
            InboxRepr::Pairs(messages) => messages.len(),
            InboxRepr::Slots { slots, occupied, spill, base } => {
                let end = base + slots.len();
                let slotted: u32 = (base / 64..end.div_ceil(64))
                    .map(|w| port_bits(occupied, w, base, end).count_ones())
                    .sum();
                slotted as usize + spill.len()
            }
        }
    }

    /// Whether no messages were received this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Word `w` of the occupancy bitset `occupied`, masked to the arcs `base..end`.
#[inline]
fn port_bits(occupied: &[u64], w: usize, base: usize, end: usize) -> u64 {
    let first = w * 64;
    let mut word = occupied[w];
    if base > first {
        word &= u64::MAX << (base - first);
    }
    if end < first + 64 {
        word &= (1u64 << (end - first)) - 1;
    }
    word
}

/// Iterator behind [`Inbox::iter`], merging slots and spill in port order.
enum InboxIter<'a, M> {
    Pairs(std::slice::Iter<'a, (usize, M)>),
    Slots {
        slots: &'a [Option<M>],
        occupied: &'a [u64],
        /// One past the vertex's last arc.
        end: usize,
        /// The occupancy word being walked, and its bits not yet yielded.
        w: usize,
        word: u64,
        spill: &'a [(usize, M)],
        spos: usize,
        base: usize,
        /// Arc whose spill entries are being drained (its slot message was already
        /// yielded).
        current: Option<usize>,
    },
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (usize, &'a M);

    fn next(&mut self) -> Option<(usize, &'a M)> {
        match self {
            InboxIter::Pairs(iter) => iter.next().map(|(p, m)| (*p, m)),
            InboxIter::Slots { slots, occupied, end, w, word, spill, spos, base, current } => {
                if let Some(arc) = *current {
                    if let Some((a, m)) = spill.get(*spos) {
                        if *a == arc {
                            *spos += 1;
                            return Some((arc - *base, m));
                        }
                    }
                    *current = None;
                }
                while *word == 0 {
                    *w += 1;
                    if *w * 64 >= *end {
                        return None;
                    }
                    *word = port_bits(occupied, *w, *base, *end);
                }
                let arc = *w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                *current = Some(arc);
                let message =
                    slots[arc - *base].as_ref().expect("occupied arcs have an occupied slot");
                Some((arc - *base, message))
            }
        }
    }
}

/// Messages a node wants delivered to its neighbors at the start of the next round.
#[derive(Debug)]
pub struct Outbox<M> {
    messages: Vec<(usize, M)>,
    degree: usize,
}

impl<M: Clone> Outbox<M> {
    /// Creates an empty outbox for a vertex of the given degree.
    pub fn new(degree: usize) -> Self {
        Outbox { messages: Vec::new(), degree }
    }

    /// Re-targets the outbox at a vertex of the given degree, clearing queued messages but
    /// keeping the buffer's capacity — the executors reuse one outbox across all vertices
    /// so steady-state rounds allocate nothing.
    pub fn reset(&mut self, degree: usize) {
        self.messages.clear();
        self.degree = degree;
    }

    /// Sends `message` to the neighbor at `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a valid port of this vertex.
    pub fn send(&mut self, port: usize, message: M) {
        assert!(port < self.degree, "port {port} out of range (degree {})", self.degree);
        self.messages.push((port, message));
    }

    /// Sends a copy of `message` to every neighbor.
    pub fn broadcast(&mut self, message: M) {
        for port in 0..self.degree {
            self.messages.push((port, message.clone()));
        }
    }

    /// Number of messages queued.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The queued `(port, message)` pairs, in send order.
    pub(crate) fn queued(&self) -> &[(usize, M)] {
        &self.messages
    }

    /// Removes and returns the queued `(port, message)` pairs, keeping the buffer capacity.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, M)> + '_ {
        self.messages.drain(..)
    }

    /// Consumes the outbox, returning the queued `(port, message)` pairs.
    pub fn into_messages(self) -> Vec<(usize, M)> {
        self.messages
    }
}

/// The per-vertex state machine of a distributed algorithm.
///
/// The executor drives it as follows: `init` runs before the first communication round (for
/// **every** vertex, as round 0) and may queue messages; then rounds 1, 2, … deliver the
/// messages queued in the previous round and invoke `round` on the vertices that must act
/// (see below).  When a node returns [`Status::Halted`], the messages it queued in that
/// invocation are still delivered, but it takes no further part in the execution.  `output`
/// is read once the whole network has halted.
///
/// # Activation contract
///
/// Every processor shares one round clock, read as [`Inbox::round`].  A round only invokes
/// `round` on the **frontier**: the vertices that received at least one message in that
/// round, plus those whose previous `init`/`round` invocation returned
/// [`Status::WakeAt`] for this round.  Quiescent vertices are free — a round costs
/// O(|frontier| + messages), plus O(degree / 64) to read each stepped vertex's inbox off
/// the occupancy bitset, not O(n).  The status each invocation returns is the vertex's
/// whole request:
///
/// * [`Status::Active`] — step me only when mail arrives.  Purely message-driven programs
///   (empty-inbox rounds would be no-ops) return it and are not invoked until mail shows up.
/// * [`Status::WakeAt(r)`](Status::WakeAt) — step me in round `r`, or earlier if mail
///   arrives.  A slot schedule returns its slot, a give-up deadline its round, and a phase
///   machine that acts every round `WakeAt(round + 1)`.  An earlier invocation (on mail)
///   returns a new status, which replaces the alarm.
/// * [`Status::Halted`] — done; any pending alarm is dropped.
///
/// An active vertex that is skipped in a round observes nothing, so a program must treat an
/// invocation before its alarm with an empty inbox as a no-op that returns the same alarm.
/// The [`ReferenceExecutor`](crate::ReferenceExecutor) oracle still invokes every active
/// vertex every round (it only checks that alarms name a later round), so the bit-identity
/// suites double as a check that programs treat a skipped no-op round and an executed one
/// identically.
pub trait NodeProgram {
    /// Message type exchanged by this algorithm.  The [`MessageCost`](crate::cost::MessageCost)
    /// bound is what lets the executors account CONGEST bandwidth for every algorithm.
    type Msg: Clone + crate::cost::MessageCost;
    /// Per-vertex output of the algorithm.
    type Output;

    /// Local initialization; may queue the messages of the first round.
    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<Self::Msg>) -> Status;

    /// One synchronous round: consume the delivered messages, queue the next round's messages.
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
        let mut out: Outbox<u32> = Outbox::new(3);
        assert!(out.is_empty());
        out.send(1, 7);
        out.broadcast(9);
        assert_eq!(out.len(), 4);
        let msgs = out.into_messages();
        assert_eq!(msgs[0], (1, 7));
        assert_eq!(msgs.len(), 4);
    }

    #[test]
    fn outbox_reset_retargets_and_clears() {
        let mut out: Outbox<u32> = Outbox::new(1);
        out.send(0, 3);
        out.reset(2);
        assert!(out.is_empty());
        out.send(1, 4); // port 1 is valid after the reset to degree 2
        assert_eq!(out.drain().collect::<Vec<_>>(), vec![(1, 4)]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outbox_rejects_bad_port() {
        let mut out: Outbox<u32> = Outbox::new(2);
        out.send(2, 1);
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

    /// The occupancy bitset of `arcs` occupied arcs out of `total`.
    fn occupancy(total: usize, arcs: &[usize]) -> Vec<u64> {
        let mut words = vec![0u64; total.div_ceil(64)];
        for &a in arcs {
            words[a / 64] |= 1 << (a % 64);
        }
        words
    }

    #[test]
    fn slot_inbox_matches_pair_inbox() {
        // A degree-4 vertex whose arcs are 10..14; ports 0 and 2 received one message each,
        // port 3 received three (one slotted + two spilled).  Arcs 9 and 14 belong to other
        // vertices and are occupied too.
        let slots = vec![Some(5u32), None, Some(7), Some(9)];
        let occupied = occupancy(20, &[9, 10, 12, 13, 14]);
        let spill = vec![(13usize, 11u32), (13, 13)];
        let inbox = Inbox::from_slots(1, &slots, &occupied, &spill, 10);
        assert_eq!(inbox.len(), 5);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from_port(0), Some(&5));
        assert_eq!(inbox.from_port(1), None);
        assert_eq!(inbox.from_port(3), Some(&9));
        assert_eq!(inbox.from_port(9), None);
        let collected: Vec<_> = inbox.iter().collect();
        assert_eq!(collected, vec![(0, &5), (2, &7), (3, &9), (3, &11), (3, &13)]);

        let empty: Inbox<'_, u32> = Inbox::from_slots(1, &slots[1..2], &occupied, &[], 11);
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);

        // A degree-150 vertex whose arcs 50..200 start mid-word and span four words, with
        // mail on both ends of every word boundary, spill on the boundary arcs 63, 64 and
        // 199, and occupied neighbors' arcs 49 and 200 just outside its range.
        let (base, end) = (50usize, 200usize);
        let hit = [50usize, 51, 63, 64, 100, 127, 128, 191, 192, 199];
        let mut arcs = hit.to_vec();
        arcs.extend([49, 200]);
        let occupied = occupancy(256, &arcs);
        let slots: Vec<Option<u32>> =
            (base..end).map(|a| hit.contains(&a).then_some(a as u32 * 10)).collect();
        let spill: Vec<(usize, u32)> =
            vec![(63, 631), (64, 641), (64, 642), (199, 1991), (199, 1992), (199, 1993)];
        let inbox = Inbox::from_slots(2, &slots, &occupied, &spill, base);
        let mut pairs = Vec::new();
        for &a in &hit {
            pairs.push((a - base, a as u32 * 10));
            pairs.extend(spill.iter().filter(|&&(s, _)| s == a).map(|&(_, m)| (a - base, m)));
        }
        let expected = Inbox::new(2, &pairs);
        assert_eq!(inbox.iter().collect::<Vec<_>>(), expected.iter().collect::<Vec<_>>());
        assert_eq!(inbox.len(), inbox.iter().count());
        assert_eq!(inbox.len(), expected.len());
        assert_eq!(inbox.from_port(199 - base), Some(&1990));
        assert_eq!(inbox.from_port(65 - base), None);
    }

    #[test]
    fn inboxes_carry_the_round() {
        let raw = vec![(0usize, 1u32)];
        assert_eq!(Inbox::new(4, &raw).round(), 4);
        let empty: Inbox<'_, u32> = Inbox::from_slots(7, &[None], &[0], &[], 0);
        assert_eq!(empty.round(), 7);
    }

    #[test]
    fn alarms_must_name_a_later_round() {
        Status::WakeAt(3).check_alarm(0, 2);
        Status::Active.check_alarm(0, 9);
        Status::Halted.check_alarm(0, 9);
        let late = std::panic::catch_unwind(|| Status::WakeAt(2).check_alarm(5, 2));
        assert!(late.is_err(), "WakeAt(current round) must panic");
    }
}
