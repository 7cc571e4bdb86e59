//! Frontier scheduling primitives of the round loop.
//!
//! The [`Executor`](crate::Executor) drives node programs off a **frontier**: the set of
//! vertices that must act in the upcoming round because they received a message or an
//! alarm they set with [`Status::WakeAt`] comes due.  A round then costs
//! O(|frontier| + messages) instead of O(n), which is where the late rounds of the headline
//! algorithms — tiny active sets, most vertices finalized and silent — and the waits of slot
//! schedules stop paying for the vertices that have nothing to do.
//!
//! Two small types live here:
//!
//! * [`Frontier`] — one bit per vertex, the list of words that became nonzero, and a count.
//!   Marking is O(1) with mark-once dedup.  Enumeration sorts only the nonzero-word list
//!   (at most min(|frontier|, ⌈n / 64⌉) entries) and expands each word's bits in ascending
//!   order while zeroing it, so iteration is deterministic and opening the next round needs
//!   no O(n) clear.  At n = 2·10⁵ the bitset is 25 KB.
//! * `Statuses` — the status every vertex last returned: who has halted, with a maintained
//!   count, and the pending alarms, keyed by round.

use crate::node::Status;
use arbcolor_graph::Vertex;
use std::collections::BTreeMap;

/// A dense vertex bitset with deterministic, vertex-ordered enumeration.
///
/// Bit `v` is set when `v` is marked for the upcoming round.  The words that became nonzero
/// are listed as they do, so enumeration and reset visit only those words and never scan
/// all `n` bits; a count of the set bits answers `len` in O(1).
#[derive(Debug, Clone)]
pub struct Frontier {
    /// One bit per vertex: marked for the upcoming round.
    bits: Vec<u64>,
    /// Indices of the nonzero words of `bits`, in the order they became nonzero.
    words: Vec<usize>,
    /// Number of marked vertices.
    len: usize,
}

impl Frontier {
    /// An empty frontier over vertices `0..n`.
    pub fn new(n: usize) -> Self {
        Frontier { bits: vec![0; n.div_ceil(64)], words: Vec::new(), len: 0 }
    }

    /// Marks `v` for the upcoming round; marking twice is a no-op.
    #[inline]
    pub fn mark(&mut self, v: Vertex) {
        let word = &mut self.bits[v / 64];
        let bit = 1 << (v % 64);
        if *word & bit == 0 {
            if *word == 0 {
                self.words.push(v / 64);
            }
            *word |= bit;
            self.len += 1;
        }
    }

    /// Whether `v` is marked for the upcoming round.
    pub fn contains(&self, v: Vertex) -> bool {
        self.bits[v / 64] & (1 << (v % 64)) != 0
    }

    /// Number of vertices marked for the upcoming round.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vertex is marked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Closes the current round: writes the marked vertices into `schedule` in ascending
    /// vertex order (deterministic iteration regardless of mark order) and unmarks them.
    /// Sorts only the nonzero-word list — at most min(|frontier|, ⌈n / 64⌉) entries — then
    /// expands each word's bits in ascending order, zeroing it.  The buffers retain their
    /// capacity.
    pub fn take(&mut self, schedule: &mut Vec<Vertex>) {
        schedule.clear();
        schedule.reserve(self.len);
        self.words.sort_unstable();
        for w in self.words.drain(..) {
            let mut word = std::mem::take(&mut self.bits[w]);
            while word != 0 {
                schedule.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        self.len = 0;
    }
}

/// The last [`Status`] every vertex returned: the halt flags (with a maintained count) and
/// the pending alarms of the round loop.
///
/// An alarm for the next round goes straight into the frontier; later ones wait in a
/// round → vertices map that grows with the alarms set, never with the round numbers they
/// name.  A vertex's newest status replaces its alarm, and the stale entry is skipped when
/// its round opens.
#[derive(Debug, Clone)]
pub(crate) struct Statuses {
    /// Per vertex: `HALTED`, the round of its pending alarm, or 0 (mail only).
    last: Vec<usize>,
    active: usize,
    alarms: BTreeMap<usize, Vec<Vertex>>,
}

impl Statuses {
    const HALTED: usize = usize::MAX;

    /// All of `0..n` active, waiting for mail.
    pub(crate) fn new(n: usize) -> Self {
        Statuses { last: vec![0; n], active: n, alarms: BTreeMap::new() }
    }

    /// Whether `v` has not halted.
    #[inline]
    pub(crate) fn is_active(&self, v: Vertex) -> bool {
        self.last[v] != Self::HALTED
    }

    /// Number of vertices still active.
    pub(crate) fn count(&self) -> usize {
        self.active
    }

    /// Records the `status` that active vertex `v` returned in `round` (0 for `init`),
    /// marking an alarm due next round into `frontier`; returns whether `v` halted.
    ///
    /// # Panics
    ///
    /// Panics if an alarm names a round not after `round`.
    pub(crate) fn record(
        &mut self,
        v: Vertex,
        status: Status,
        round: usize,
        frontier: &mut Frontier,
    ) -> bool {
        status.check_alarm(v, round);
        self.last[v] = match status {
            Status::Active => 0,
            Status::WakeAt(at) if at == round + 1 => {
                frontier.mark(v);
                0
            }
            Status::WakeAt(at) => {
                if self.last[v] != at {
                    self.alarms.entry(at).or_default().push(v);
                }
                at
            }
            Status::Halted => {
                self.active -= 1;
                Self::HALTED
            }
        };
        status == Status::Halted
    }

    /// Marks into `frontier` every vertex whose pending alarm is for `round`, and forgets
    /// that round's entries.
    pub(crate) fn ring(&mut self, round: usize, frontier: &mut Frontier) {
        for v in self.alarms.remove(&round).unwrap_or_default() {
            if self.last[v] == round {
                self.last[v] = 0;
                frontier.mark(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_dedups_and_enumerates_in_vertex_order() {
        let mut f = Frontier::new(8);
        assert!(f.is_empty());
        for v in [5, 2, 5, 7, 2, 0] {
            f.mark(v);
        }
        assert_eq!(f.len(), 4);
        assert!(f.contains(5) && f.contains(0) && !f.contains(1));
        let mut schedule = Vec::new();
        f.take(&mut schedule);
        assert_eq!(schedule, vec![0, 2, 5, 7]);
        // Taking unmarks everything: nothing stays marked.
        assert!(f.is_empty());
        assert!(!f.contains(5));
    }

    #[test]
    fn epochs_do_not_leak_across_rounds() {
        let mut f = Frontier::new(4);
        let mut schedule = Vec::new();
        f.mark(1);
        f.take(&mut schedule);
        assert_eq!(schedule, vec![1]);
        // Re-marking the same vertex in the next round works; unmarked vertices stay out.
        f.mark(1);
        f.mark(3);
        f.take(&mut schedule);
        assert_eq!(schedule, vec![1, 3]);
        f.take(&mut schedule);
        assert!(schedule.is_empty());
    }

    #[test]
    fn statuses_ring_alarms_once_and_forget_replaced_ones() {
        let mut st = Statuses::new(5);
        let mut f = Frontier::new(5);
        let mut schedule = Vec::new();
        let pending = |st: &Statuses| st.alarms.values().map(Vec::len).sum::<usize>();
        // `init` (round 0): alarms for rounds 1, 3 and 5, one halt.
        assert!(!st.record(0, Status::WakeAt(1), 0, &mut f), "due next round: marked now");
        assert!(!st.record(1, Status::WakeAt(3), 0, &mut f));
        assert!(!st.record(2, Status::WakeAt(3), 0, &mut f));
        assert!(!st.record(3, Status::WakeAt(5), 0, &mut f));
        assert!(st.record(4, Status::Halted, 0, &mut f));
        assert_eq!((st.count(), pending(&st)), (4, 3));
        assert!(!st.is_active(4) && st.is_active(3));
        f.take(&mut schedule);
        assert_eq!(schedule, vec![0]);
        // Round 1: vertex 1 repeats its alarm (no new entry), vertex 2 moves its alarm to
        // round 4, vertex 3 halts and so drops its alarm.
        st.ring(1, &mut f);
        assert!(!st.record(1, Status::WakeAt(3), 1, &mut f));
        assert!(!st.record(2, Status::WakeAt(4), 1, &mut f));
        assert!(st.record(3, Status::Halted, 1, &mut f));
        assert_eq!((st.count(), pending(&st)), (3, 4));
        f.take(&mut schedule);
        assert!(schedule.is_empty());
        for (round, due) in [(2, vec![]), (3, vec![1]), (4, vec![2]), (5, vec![])] {
            st.ring(round, &mut f);
            f.take(&mut schedule);
            assert_eq!(schedule, due, "round {round}");
        }
        assert_eq!(pending(&st), 0, "rung rounds are forgotten");
    }
}
