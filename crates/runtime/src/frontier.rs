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
//! * [`Frontier`] — an epoch-stamped dense bitmap plus a fill list.  Marking is O(1) with
//!   mark-once dedup, enumeration is O(|frontier| log |frontier|) (the fill list is sorted
//!   into ascending vertex order so iteration is deterministic), and opening the next round
//!   is O(1): bumping the epoch invalidates every stamp at once, so there is no per-round
//!   O(n) clear.
//! * `Statuses` — the status every vertex last returned: who has halted, with a maintained
//!   count, and the pending alarms, keyed by round.

use crate::node::Status;
use arbcolor_graph::Vertex;
use std::collections::BTreeMap;

/// An epoch-stamped dense vertex set with deterministic, vertex-ordered enumeration.
///
/// `stamps[v] == epoch` means `v` is marked for the upcoming round; the marked vertices are
/// also appended to a fill list so enumeration never scans all `n` stamps.  Advancing to the
/// next round just increments the epoch — every stamp becomes stale simultaneously, no
/// clearing pass required.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// `stamps[v] == epoch` ⇔ `v` is marked for the upcoming round.
    stamps: Vec<u64>,
    /// The current marking epoch (starts at 1 so the zeroed stamps mean "unmarked").
    epoch: u64,
    /// Marked vertices in mark order (deduplicated via the stamps).
    marked: Vec<Vertex>,
}

impl Frontier {
    /// An empty frontier over vertices `0..n`.
    pub fn new(n: usize) -> Self {
        Frontier { stamps: vec![0; n], epoch: 1, marked: Vec::new() }
    }

    /// Marks `v` for the upcoming round; marking twice is a no-op.
    #[inline]
    pub fn mark(&mut self, v: Vertex) {
        if self.stamps[v] != self.epoch {
            self.stamps[v] = self.epoch;
            self.marked.push(v);
        }
    }

    /// Whether `v` is marked for the upcoming round.
    pub fn contains(&self, v: Vertex) -> bool {
        self.stamps[v] == self.epoch
    }

    /// Number of vertices marked for the upcoming round.
    pub fn len(&self) -> usize {
        self.marked.len()
    }

    /// Whether no vertex is marked.
    pub fn is_empty(&self) -> bool {
        self.marked.is_empty()
    }

    /// Closes the current epoch: moves the marked vertices into `schedule` sorted into
    /// ascending vertex order (deterministic iteration regardless of mark order), and opens
    /// the next epoch.  O(|frontier| log |frontier|); the buffer swap retains capacity.
    pub fn take(&mut self, schedule: &mut Vec<Vertex>) {
        schedule.clear();
        std::mem::swap(&mut self.marked, schedule);
        schedule.sort_unstable();
        self.epoch += 1;
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
        // The epoch bump invalidates all stamps at once: nothing stays marked.
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
        // Re-marking the same vertex in the new epoch works; unmarked vertices stay out.
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
