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
//!   no O(n) clear.  At n = 2·10⁵ the bitset is 25 KB.  Each worker of the executor marks
//!   the receivers of its senders into a frontier of its own, with plain stores, and the
//!   coordinator [`absorb`](Frontier::absorb)s them in O(words marked): an OR commutes, so
//!   the union does not depend on which worker stepped which sender.
//! * `Statuses` — the status every vertex last returned: who has halted, with a maintained
//!   count, and the pending alarms, keyed by round.  An alarm set with
//!   [`Status::SleepUntil`] or [`Status::HaltAt`] also puts its vertex to sleep: it takes no
//!   mail until the alarm rings, which wakes it or halts it without a step.  The worker that
//!   steps a vertex records its status; the coordinator folds in each step's halt count and
//!   new alarms.

use crate::node::Status;
use arbcolor_graph::Vertex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Moves every mark of `other` (a frontier over the same vertices) into this one,
    /// leaving `other` empty; O(words `other` marked).
    pub fn absorb(&mut self, other: &mut Frontier) {
        for w in other.words.drain(..) {
            let added = std::mem::take(&mut other.bits[w]);
            let word = &mut self.bits[w];
            if *word == 0 {
                self.words.push(w);
            }
            self.len += (added & !*word).count_ones() as usize;
            *word |= added;
        }
        other.len = 0;
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
/// its round opens.  A vertex that returned [`Status::SleepUntil`] or [`Status::HaltAt`] is
/// asleep until its alarm rings: mail marks it into the frontier, but the round loop skips
/// it there ([`is_awake`](Statuses::is_awake)).  The ring wakes a sleeper into the frontier
/// and halts a vertex waiting to halt, which stays counted as active until then.
///
/// A step's workers record the statuses of the vertices they stepped through a shared
/// reference — each vertex is stepped by one worker per round, and its flag is a relaxed
/// atomic, a plain load or store — and the coordinator [`merge`](Statuses::merge)s the
/// step's halt count and alarms.
#[derive(Debug)]
pub(crate) struct Statuses {
    /// Per vertex: `HALTED`; the round of its pending alarm, tagged with `ASLEEP` when it
    /// takes no mail until then and with `HALTS` too when it halts then; or 0 (mail only).
    last: Vec<AtomicUsize>,
    active: usize,
    alarms: BTreeMap<usize, Vec<Vertex>>,
}

impl Statuses {
    const ASLEEP: usize = 1 << (usize::BITS - 1);
    const HALTS: usize = 1 << (usize::BITS - 2);
    const HALTED: usize = usize::MAX;

    /// All of `0..n` active, waiting for mail.
    pub(crate) fn new(n: usize) -> Self {
        Statuses {
            last: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            active: n,
            alarms: BTreeMap::new(),
        }
    }

    /// Whether `v` takes its mail: it has not halted, and it neither sleeps nor waits to
    /// halt.
    #[inline]
    pub(crate) fn is_awake(&self, v: Vertex) -> bool {
        self.last[v].load(Ordering::Relaxed) & Self::ASLEEP == 0
    }

    /// Number of vertices still active, as of the last [`merge`](Statuses::merge) or
    /// [`ring`](Statuses::ring).
    pub(crate) fn count(&self) -> usize {
        self.active
    }

    /// Records the `status` that awake vertex `v` returned in `round` (0 for `init`), from
    /// the worker that stepped it: an alarm due next round is marked into `marks`, a later
    /// new one is appended to `alarms` as `(round, v)`.  Returns whether `v` halted; the
    /// halt and the alarms count once [`merge`](Statuses::merge)d.
    ///
    /// # Panics
    ///
    /// Panics if an alarm names a round not after `round`, or one that reaches the two top
    /// bits of a `usize`, which tag the stored round.
    pub(crate) fn record(
        &self,
        v: Vertex,
        status: Status,
        round: usize,
        marks: &mut Frontier,
        alarms: &mut Vec<(usize, Vertex)>,
    ) -> bool {
        status.check_alarm(v, round);
        let (next, alarm) = match status {
            Status::Active => (0, None),
            // No mail can arrive before the next round, so sleeping until it is waking in it.
            Status::WakeAt(at) | Status::SleepUntil(at) if at == round + 1 => {
                marks.mark(v);
                (0, None)
            }
            Status::WakeAt(at) => (at, Some(at)),
            Status::SleepUntil(at) => (Self::ASLEEP | at, Some(at)),
            Status::HaltAt(at) => (Self::ASLEEP | Self::HALTS | at, Some(at)),
            Status::Halted => (Self::HALTED, None),
        };
        let last = &self.last[v];
        if let Some(at) = alarm {
            assert!(at < Self::HALTS, "vertex {v} set an alarm for round {at}, out of range");
            if last.load(Ordering::Relaxed) != next {
                alarms.push((at, v));
            }
        }
        last.store(next, Ordering::Relaxed);
        status == Status::Halted
    }

    /// Folds in what a step's [`record`](Statuses::record) calls returned: `halts` vertices
    /// halted, and `alarms` (left empty) were set.
    pub(crate) fn merge(&mut self, halts: usize, alarms: &mut Vec<(usize, Vertex)>) {
        self.active -= halts;
        for (at, v) in alarms.drain(..) {
            self.alarms.entry(at).or_default().push(v);
        }
    }

    /// Opens `round`'s alarms: marks into `frontier` every vertex whose pending
    /// [`Status::WakeAt`] or [`Status::SleepUntil`] is for `round`, halts every vertex whose
    /// [`Status::HaltAt`] is, and forgets that round's entries.  Returns how many halted.
    pub(crate) fn ring(&mut self, round: usize, frontier: &mut Frontier) -> usize {
        let mut halts = 0;
        for v in self.alarms.remove(&round).unwrap_or_default() {
            let last = self.last[v].get_mut();
            if *last == round || *last == Self::ASLEEP | round {
                *last = 0;
                frontier.mark(v);
            } else if *last == Self::ASLEEP | Self::HALTS | round {
                *last = Self::HALTED;
                halts += 1;
            }
        }
        self.active -= halts;
        halts
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
    fn absorbing_merges_marks_in_any_order_and_empties_the_source() {
        let mut schedule = Vec::new();
        let mut merged = Vec::new();
        for order in [[0usize, 1], [1, 0]] {
            let mut workers = [Frontier::new(200), Frontier::new(200)];
            for v in [3, 70, 199, 70] {
                workers[0].mark(v);
            }
            for v in [70, 4, 130] {
                workers[1].mark(v);
            }
            let mut f = Frontier::new(200);
            f.mark(3);
            for i in order {
                f.absorb(&mut workers[i]);
                assert!(workers[i].is_empty());
                workers[i].take(&mut schedule);
                assert!(schedule.is_empty(), "the source keeps no bits");
            }
            assert_eq!(f.len(), 5);
            f.take(&mut schedule);
            merged.push(schedule.clone());
        }
        assert_eq!(merged, vec![vec![3, 4, 70, 130, 199]; 2]);
    }

    #[test]
    fn statuses_ring_alarms_once_and_forget_replaced_ones() {
        let mut st = Statuses::new(5);
        let mut f = Frontier::new(5);
        let mut schedule = Vec::new();
        let pending = |st: &Statuses| st.alarms.values().map(Vec::len).sum::<usize>();
        // Records one step's statuses as a worker does, then merges them.
        let step = |st: &mut Statuses, f: &mut Frontier, round, statuses: &[(Vertex, Status)]| {
            let (mut marks, mut alarms) = (Frontier::new(5), Vec::new());
            let halted: Vec<bool> = statuses
                .iter()
                .map(|&(v, status)| st.record(v, status, round, &mut marks, &mut alarms))
                .collect();
            st.merge(halted.iter().filter(|&&h| h).count(), &mut alarms);
            f.absorb(&mut marks);
            halted
        };
        // `init` (round 0): alarms for rounds 1, 3 and 5, one halt; the alarm due next round
        // is marked now.
        let halted = step(
            &mut st,
            &mut f,
            0,
            &[
                (0, Status::WakeAt(1)),
                (1, Status::WakeAt(3)),
                (2, Status::WakeAt(3)),
                (3, Status::WakeAt(5)),
                (4, Status::Halted),
            ],
        );
        assert_eq!(halted, vec![false, false, false, false, true]);
        assert_eq!((st.count(), pending(&st)), (4, 3));
        assert!(!st.is_awake(4) && st.is_awake(3));
        f.take(&mut schedule);
        assert_eq!(schedule, vec![0]);
        // Round 1: vertex 1 repeats its alarm (no new entry), vertex 2 moves its alarm to
        // round 4, vertex 3 halts and so drops its alarm.
        st.ring(1, &mut f);
        let halted = step(
            &mut st,
            &mut f,
            1,
            &[(1, Status::WakeAt(3)), (2, Status::WakeAt(4)), (3, Status::Halted)],
        );
        assert_eq!(halted, vec![false, false, true]);
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

    #[test]
    fn sleepers_take_no_mail_and_halters_halt_when_their_round_opens() {
        let mut st = Statuses::new(4);
        let mut f = Frontier::new(4);
        let mut schedule = Vec::new();
        let step = |st: &mut Statuses, f: &mut Frontier, round, statuses: &[(Vertex, Status)]| {
            let (mut marks, mut alarms) = (Frontier::new(4), Vec::new());
            for &(v, status) in statuses {
                assert!(!st.record(v, status, round, &mut marks, &mut alarms));
            }
            st.merge(0, &mut alarms);
            f.absorb(&mut marks);
        };
        // `init`: sleeping until the next round is waking in it; vertex 1 sleeps until round
        // 3, vertex 2 waits to halt in round 2, vertex 3 sets a plain alarm for round 3.
        step(
            &mut st,
            &mut f,
            0,
            &[
                (0, Status::SleepUntil(1)),
                (1, Status::SleepUntil(3)),
                (2, Status::HaltAt(2)),
                (3, Status::WakeAt(3)),
            ],
        );
        assert_eq!(st.count(), 4, "a vertex waiting to halt is active");
        let awake: Vec<bool> = (0..4).map(|v| st.is_awake(v)).collect();
        assert_eq!(awake, vec![true, false, false, true]);
        assert_eq!(st.ring(1, &mut f), 0);
        f.take(&mut schedule);
        assert_eq!(schedule, vec![0]);
        // Round 1: vertex 0 will halt in round 3, together with the wake-ups there.
        step(&mut st, &mut f, 1, &[(0, Status::HaltAt(3))]);
        assert!(!st.is_awake(0));
        assert_eq!((st.ring(2, &mut f), st.count()), (1, 3), "vertex 2 halts in round 2");
        f.take(&mut schedule);
        assert!(schedule.is_empty());
        assert_eq!((st.ring(3, &mut f), st.count()), (1, 2), "vertex 0 halts in round 3");
        f.take(&mut schedule);
        assert_eq!(schedule, vec![1, 3], "the sleeper and the alarm ring in round 3");
        assert!(st.is_awake(1) && !st.is_awake(0) && !st.is_awake(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_alarm_round_in_the_tag_bits_is_rejected() {
        // Stored untagged, round `usize::MAX` would read as a halt that was never counted.
        let st = Statuses::new(1);
        st.record(0, Status::WakeAt(usize::MAX), 0, &mut Frontier::new(1), &mut Vec::new());
    }
}
