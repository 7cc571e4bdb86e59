//! Frontier scheduling primitives of the round loop.
//!
//! The [`Executor`](crate::Executor) drives node programs off a **frontier**: the set of
//! vertices that must act in the upcoming round because they received a message or
//! explicitly scheduled themselves with
//! [`NodeCtx::wake_next_round`](crate::NodeCtx::wake_next_round).  A round then costs
//! O(|frontier| + messages) instead of O(n), which is where the late rounds of the
//! headline algorithms — tiny active sets, most vertices finalized and silent — stop paying
//! for the vertices that no longer participate.
//!
//! Two small types live here:
//!
//! * [`Frontier`] — an epoch-stamped dense bitmap plus a fill list.  Marking is O(1) with
//!   mark-once dedup, enumeration is O(|frontier| log |frontier|) (the fill list is sorted
//!   into ascending vertex order so iteration is deterministic), and opening the next round
//!   is O(1): bumping the epoch invalidates every stamp at once, so there is no per-round
//!   O(n) clear.
//! * [`ActiveSet`] — the "who has not halted yet" flags with a maintained count.

use arbcolor_graph::Vertex;

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

/// Halt bookkeeping of the round loop: one flag per vertex plus a maintained count.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    live: Vec<bool>,
    count: usize,
}

impl ActiveSet {
    /// All of `0..n` active.
    pub fn new(n: usize) -> Self {
        ActiveSet { live: vec![true; n], count: n }
    }

    /// Whether `v` has not halted.
    #[inline]
    pub fn is_active(&self, v: Vertex) -> bool {
        self.live[v]
    }

    /// Marks `v` halted; idempotent.
    #[inline]
    pub fn halt(&mut self, v: Vertex) {
        if self.live[v] {
            self.live[v] = false;
            self.count -= 1;
        }
    }

    /// Number of vertices still active.
    pub fn count(&self) -> usize {
        self.count
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
    fn active_set_counts_and_is_idempotent() {
        let mut a = ActiveSet::new(3);
        assert_eq!(a.count(), 3);
        assert!(a.is_active(2));
        a.halt(2);
        a.halt(2);
        assert_eq!(a.count(), 2);
        assert!(!a.is_active(2));
        a.halt(0);
        a.halt(1);
        assert_eq!(a.count(), 0);
    }
}
