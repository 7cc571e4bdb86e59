//! The word-level bitset palette engine: [`PaletteSet`] strike sets, the [`ColorPool`]
//! flat color-list arena, and the [`PaletteStats`] reuse counters.
//!
//! Every coloring algorithm in this workspace ultimately runs the same inner loop: a vertex
//! scans its candidate list for the first color not struck by a neighbor.  Before this
//! module that loop was `list.iter().find(|c| !taken.contains(c))` over unsorted `Vec`s —
//! O(deg²) per pick with `taken` growing one entry per received message.  [`PaletteSet`]
//! replaces the `Vec` with a `u64`-word bitmask over a bounded color space:
//!
//! * **strike** is one word OR (idempotent, so duplicate announcements are free),
//! * **first-unstruck** is a trailing-zeros scan of `!word`, 64 colors per step,
//! * **clear** is an epoch bump: a word is "live" only while its stamp equals the current
//!   epoch, so reusing a set across rounds or vertices costs O(1) and zero allocation.
//!
//! [`ColorPool`] is the companion storage layout: all per-vertex color lists of an
//! instance in one flat array plus an offsets array (the same CSR shape as the graph's
//! adjacency), so building a sub-instance is slice copies instead of per-vertex
//! `Vec` clones, and node programs borrow `&[u64]` slices instead of owning lists.
//!
//! Picks stay bit-identical to the `Vec`-scan path by construction: the first unstruck
//! color of a list is a property of the *set* of struck colors, not of its representation.

/// Internal: the number of bits per storage word.
const WORD_BITS: u64 = 64;

/// Internal: one storage lane — a strike word and its epoch stamp, kept adjacent so a
/// strike or membership probe touches one cache line, not two parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    bits: u64,
    stamp: u64,
}

/// Internal: lanes stored inline in the set itself.  Color spaces up to
/// `INLINE_LANES * 64` colors (every greedy palette of a degree-≤127 vertex) never touch
/// the heap, so per-node scratch sets cost zero allocations and strikes stay on the node
/// struct's own cache lines.
const INLINE_LANES: usize = 2;

/// An epoch-stamped bitset of *struck* colors over the bounded space `[0, bound)`.
///
/// Colors outside the bound are silently ignored by [`strike`](PaletteSet::strike) — a
/// color that no candidate list contains can never be picked, so striking it is a no-op
/// by definition.  [`clear`](PaletteSet::clear) retires all strikes in O(1) by bumping
/// the epoch; words are lazily treated as zero when their stamp is stale.
#[derive(Debug, Clone)]
pub struct PaletteSet {
    /// The first [`INLINE_LANES`] words, heap-free.
    inline: [Lane; INLINE_LANES],
    /// Words beyond the inline capacity; empty for small bounds.
    spill: Vec<Lane>,
    /// Number of live words covering `[0, bound)`.
    nwords: usize,
    /// Current epoch; bumped by [`clear`](PaletteSet::clear).
    epoch: u64,
    /// Number of struck colors in the current epoch.
    struck: u64,
    /// Number of distinct words written in the current epoch.
    touched: u64,
    /// One past the largest representable color.
    bound: u64,
}

impl PaletteSet {
    /// An empty strike set over the color space `[0, bound)`.
    pub fn new(bound: u64) -> Self {
        let nwords = bound.div_ceil(WORD_BITS) as usize;
        let spill = if nwords > INLINE_LANES {
            vec![Lane::default(); nwords - INLINE_LANES]
        } else {
            Vec::new()
        };
        PaletteSet {
            inline: [Lane::default(); INLINE_LANES],
            spill,
            nwords,
            epoch: 1,
            struck: 0,
            touched: 0,
            bound,
        }
    }

    /// One past the largest representable color.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Number of struck colors since the last [`clear`](PaletteSet::clear).
    pub fn struck_count(&self) -> u64 {
        self.struck
    }

    /// Retires every strike in O(1) by bumping the epoch; returns the number of words
    /// that held strikes (the "words cleared" figure fed to [`PaletteStats`]).
    pub fn clear(&mut self) -> u64 {
        let cleared = self.touched;
        self.epoch += 1;
        self.struck = 0;
        self.touched = 0;
        cleared
    }

    /// Re-dimensions the set to `[0, bound)`, reusing the spill allocation, and clears it.
    pub fn reset(&mut self, bound: u64) -> u64 {
        let nwords = bound.div_ceil(WORD_BITS) as usize;
        if nwords > INLINE_LANES && nwords - INLINE_LANES > self.spill.len() {
            self.spill.resize(nwords - INLINE_LANES, Lane::default());
        }
        self.nwords = nwords;
        self.bound = bound;
        self.clear()
    }

    /// The lane holding word `w`.
    #[inline]
    fn lane(&self, w: usize) -> Lane {
        if w < INLINE_LANES {
            self.inline[w]
        } else {
            self.spill[w - INLINE_LANES]
        }
    }

    /// The live value of word `w` (zero when its stamp is stale).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        let lane = self.lane(w);
        if lane.stamp == self.epoch {
            lane.bits
        } else {
            0
        }
    }

    /// Strikes `color`.  Returns `true` iff the color is in range and was not already
    /// struck — so callers can maintain live counts without membership pre-checks, and
    /// duplicate announcements (two non-adjacent neighbors adopting the same color)
    /// cost nothing.
    #[inline]
    pub fn strike(&mut self, color: u64) -> bool {
        if color >= self.bound {
            return false;
        }
        let w = (color / WORD_BITS) as usize;
        let bit = 1u64 << (color % WORD_BITS);
        let epoch = self.epoch;
        let lane =
            if w < INLINE_LANES { &mut self.inline[w] } else { &mut self.spill[w - INLINE_LANES] };
        if lane.stamp != epoch {
            lane.stamp = epoch;
            lane.bits = 0;
            self.touched += 1;
        }
        if lane.bits & bit != 0 {
            return false;
        }
        lane.bits |= bit;
        self.struck += 1;
        true
    }

    /// Whether `color` is struck (colors outside the bound are never struck).
    #[inline]
    pub fn is_struck(&self, color: u64) -> bool {
        if color >= self.bound {
            return false;
        }
        let w = (color / WORD_BITS) as usize;
        self.word(w) & (1u64 << (color % WORD_BITS)) != 0
    }

    /// The smallest unstruck color in `[0, bound)`, by trailing-zeros word scan.
    pub fn first_unstruck(&self) -> Option<u64> {
        self.first_unstruck_in_range(0, self.bound)
    }

    /// The smallest unstruck color in `[lo, hi ∧ bound)`: each probed word contributes
    /// `(!struck & mask).trailing_zeros()`, covering 64 colors per step.
    pub fn first_unstruck_in_range(&self, lo: u64, hi: u64) -> Option<u64> {
        let hi = hi.min(self.bound);
        if lo >= hi {
            return None;
        }
        let mut w = (lo / WORD_BITS) as usize;
        let last = ((hi - 1) / WORD_BITS) as usize;
        while w <= last {
            let base = w as u64 * WORD_BITS;
            let mut free = !self.word(w);
            if base < lo {
                free &= u64::MAX << (lo - base);
            }
            if base + WORD_BITS > hi {
                free &= u64::MAX >> (base + WORD_BITS - hi);
            }
            if free != 0 {
                return Some(base + u64::from(free.trailing_zeros()));
            }
            w += 1;
        }
        None
    }

    /// The first unstruck color of `list`, scanned in the list's own (preference) order
    /// with O(1) membership per element.
    pub fn first_unstruck_of(&self, list: &[u64]) -> Option<u64> {
        list.iter().copied().find(|&c| !self.is_struck(c))
    }

    /// Number of struck colors in `[lo, hi ∧ bound)`, by popcount.
    pub fn struck_in_range(&self, lo: u64, hi: u64) -> u64 {
        let hi = hi.min(self.bound);
        if lo >= hi {
            return 0;
        }
        let mut total = 0u64;
        let mut w = (lo / WORD_BITS) as usize;
        let last = ((hi - 1) / WORD_BITS) as usize;
        while w <= last {
            let base = w as u64 * WORD_BITS;
            let mut bits = self.word(w);
            if base < lo {
                bits &= u64::MAX << (lo - base);
            }
            if base + WORD_BITS > hi {
                bits &= u64::MAX >> (base + WORD_BITS - hi);
            }
            total += u64::from(bits.count_ones());
            w += 1;
        }
        total
    }

    /// Number of *unstruck* colors `list` retains (its live intersection with the
    /// complement of the strike set), by O(1) membership per element.
    pub fn intersect_count(&self, list: &[u64]) -> u64 {
        list.iter().filter(|&&c| !self.is_struck(c)).count() as u64
    }

    /// The position of the `k`-th (0-based) unstruck color in `[0, bound)`: a popcount
    /// word scan followed by an in-word bit select.  `None` when fewer than `k + 1`
    /// colors are unstruck.
    ///
    /// This is what keeps randomized draws bit-identical after the representation swap:
    /// drawing index `k` from a compacted survivor list equals selecting the `k`-th
    /// unstruck position of the original list.
    pub fn select_unstruck(&self, mut k: u64) -> Option<u64> {
        for w in 0..self.nwords {
            let base = w as u64 * WORD_BITS;
            let mut free = !self.word(w);
            if base + WORD_BITS > self.bound {
                if base >= self.bound {
                    break;
                }
                free &= u64::MAX >> (base + WORD_BITS - self.bound);
            }
            let in_word = u64::from(free.count_ones());
            if k < in_word {
                let mut bits = free;
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return Some(base + u64::from(bits.trailing_zeros()));
            }
            k -= in_word;
        }
        None
    }
}

/// A CSR-shaped arena of per-vertex color lists: one flat `colors` array plus an
/// `offsets` array, the same layout as the graph's adjacency.
///
/// The pool itself imposes no ordering invariant — the list palettes of a `SlotSchedule`
/// sweep are in preference order, `ColorLists` adds the sorted/deduplicated guarantee at
/// construction.
/// Lists may be empty; sub-instances are built with slice pushes, never per-list `Vec`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColorPool {
    offsets: Vec<usize>,
    colors: Vec<u64>,
}

impl ColorPool {
    /// An empty pool (zero lists).
    pub fn new() -> Self {
        ColorPool { offsets: vec![0], colors: Vec::new() }
    }

    /// An empty pool with room for `lists` lists and `colors` total colors.
    pub fn with_capacity(lists: usize, colors: usize) -> Self {
        let mut offsets = Vec::with_capacity(lists + 1);
        offsets.push(0);
        ColorPool { offsets, colors: Vec::with_capacity(colors) }
    }

    /// A pool of `n` empty lists.
    pub fn empty_lists(n: usize) -> Self {
        ColorPool { offsets: vec![0; n + 1], colors: Vec::new() }
    }

    /// Appends one list given as a slice.
    pub fn push_slice(&mut self, list: &[u64]) {
        self.colors.extend_from_slice(list);
        self.offsets.push(self.colors.len());
    }

    /// Appends one list drained from an iterator.
    pub fn push_iter(&mut self, list: impl IntoIterator<Item = u64>) {
        self.colors.extend(list);
        self.offsets.push(self.colors.len());
    }

    /// Builds a pool from nested lists (one slice copy per list).
    pub fn from_nested(lists: &[Vec<u64>]) -> Self {
        let total = lists.iter().map(Vec::len).sum();
        let mut pool = ColorPool::with_capacity(lists.len(), total);
        for list in lists {
            pool.push_slice(list);
        }
        pool
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the pool holds no lists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of colors across all lists.
    pub fn total_colors(&self) -> usize {
        self.colors.len()
    }

    /// The `i`-th list as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn list(&self, i: usize) -> &[u64] {
        &self.colors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates over the lists in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(move |i| self.list(i))
    }

    /// Sorts and deduplicates the `i`-th list in place (used by `ColorLists` to make its
    /// invariant a construction guarantee without a nested intermediate).
    pub fn sort_dedup_list(&mut self, i: usize) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        debug_assert_eq!(hi, self.colors.len(), "only the last list can be normalized");
        let list = &mut self.colors[lo..hi];
        list.sort_unstable();
        let mut keep = lo;
        for j in lo..hi {
            if j == lo || self.colors[j] != self.colors[keep - 1] {
                self.colors[keep] = self.colors[j];
                keep += 1;
            }
        }
        self.colors.truncate(keep);
        *self.offsets.last_mut().expect("non-empty offsets") = keep;
    }
}

/// Shared, thread-safe reuse counters of the palette engine: picks served, colors
/// struck, and words retired by epoch clears.
///
/// Node programs running on worker threads have no installed span collector, so they
/// accumulate into these relaxed atomics on the shared schedule object; the driver
/// flushes the totals into the metrics registry on the main thread.  Each counter is a
/// sum of per-vertex deterministic contributions, so the totals are independent of
/// thread count and scheduling order.
#[derive(Debug, Default)]
pub struct PaletteStats {
    picks: std::sync::atomic::AtomicU64,
    strikes: std::sync::atomic::AtomicU64,
    words_cleared: std::sync::atomic::AtomicU64,
}

/// A plain-value copy of [`PaletteStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaletteStatsSnapshot {
    /// Number of pick operations answered from a bitset.
    pub picks_served: u64,
    /// Number of colors newly struck (idempotent re-strikes not counted).
    pub colors_struck: u64,
    /// Number of words retired by epoch clears of reused scratch sets.
    pub words_cleared: u64,
}

impl Clone for PaletteStats {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        let fresh = PaletteStats::default();
        fresh.add(snap);
        fresh
    }
}

impl PaletteStats {
    /// Records one served pick together with the strikes that preceded it.
    pub fn record_pick(&self, strikes: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.picks.fetch_add(1, Relaxed);
        self.strikes.fetch_add(strikes, Relaxed);
    }

    /// Records strikes not tied to a single pick (e.g. incremental strike paths).
    pub fn record_strikes(&self, n: u64) {
        self.strikes.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records one pick served without re-counting strikes.
    pub fn record_pick_only(&self) {
        self.picks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records words retired by an epoch clear of a reused scratch set.
    pub fn record_words_cleared(&self, n: u64) {
        self.words_cleared.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Adds a snapshot's totals (used when folding stats upward).
    pub fn add(&self, snap: PaletteStatsSnapshot) {
        use std::sync::atomic::Ordering::Relaxed;
        self.picks.fetch_add(snap.picks_served, Relaxed);
        self.strikes.fetch_add(snap.colors_struck, Relaxed);
        self.words_cleared.fetch_add(snap.words_cleared, Relaxed);
    }

    /// The current totals.
    pub fn snapshot(&self) -> PaletteStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        PaletteStatsSnapshot {
            picks_served: self.picks.load(Relaxed),
            colors_struck: self.strikes.load(Relaxed),
            words_cleared: self.words_cleared.load(Relaxed),
        }
    }

    /// Reads and resets the totals (so a driver can flush once per executor run without
    /// double counting).
    pub fn take(&self) -> PaletteStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        PaletteStatsSnapshot {
            picks_served: self.picks.swap(0, Relaxed),
            colors_struck: self.strikes.swap(0, Relaxed),
            words_cleared: self.words_cleared.swap(0, Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn strike_first_unstruck_and_counts() {
        let mut set = PaletteSet::new(130);
        assert_eq!(set.first_unstruck(), Some(0));
        assert!(set.strike(0));
        assert!(set.strike(1));
        assert!(!set.strike(1), "re-strike is a no-op");
        assert!(!set.strike(500), "out-of-bound strikes are ignored");
        assert_eq!(set.struck_count(), 2);
        assert_eq!(set.first_unstruck(), Some(2));
        for c in 0..129 {
            set.strike(c);
        }
        assert_eq!(set.first_unstruck(), Some(129));
        assert!(set.strike(129));
        assert_eq!(set.first_unstruck(), None);
        assert_eq!(set.struck_count(), 130);
    }

    #[test]
    fn range_queries_mask_partial_words() {
        let mut set = PaletteSet::new(200);
        for c in [3u64, 64, 65, 127, 128, 199] {
            set.strike(c);
        }
        assert_eq!(set.first_unstruck_in_range(3, 200), Some(4));
        assert_eq!(set.first_unstruck_in_range(64, 66), None);
        assert_eq!(set.first_unstruck_in_range(64, 70), Some(66));
        assert_eq!(set.struck_in_range(0, 200), 6);
        assert_eq!(set.struck_in_range(64, 128), 3);
        assert_eq!(set.struck_in_range(199, 500), 1);
        assert_eq!(set.first_unstruck_in_range(199, 200), None);
        assert_eq!(set.first_unstruck_in_range(10, 10), None);
    }

    #[test]
    fn epoch_clear_is_cheap_and_counts_touched_words() {
        let mut set = PaletteSet::new(256);
        set.strike(0);
        set.strike(70);
        set.strike(71);
        assert_eq!(set.clear(), 2, "two distinct words were written");
        assert_eq!(set.struck_count(), 0);
        assert_eq!(set.first_unstruck(), Some(0));
        assert!(!set.is_struck(70));
        assert_eq!(set.clear(), 0, "nothing touched since the last clear");
        assert!(set.strike(70), "a color can be struck again in the new epoch");
    }

    #[test]
    fn reset_redimensions_and_reuses_the_allocation() {
        let mut set = PaletteSet::new(10);
        set.strike(5);
        set.reset(300);
        assert_eq!(set.bound(), 300);
        assert!(!set.is_struck(5));
        assert!(set.strike(200));
        assert_eq!(set.first_unstruck_in_range(200, 300), Some(201));
    }

    #[test]
    fn preference_order_scan_matches_vec_filter() {
        let mut set = PaletteSet::new(64);
        set.strike(9);
        let palette = [9u64, 5, 7];
        assert_eq!(set.first_unstruck_of(&palette), Some(5));
        assert_eq!(set.intersect_count(&palette), 2);
        set.strike(5);
        set.strike(7);
        assert_eq!(set.first_unstruck_of(&palette), None);
    }

    #[test]
    fn select_unstruck_is_kth_surviving_position() {
        let mut set = PaletteSet::new(8);
        set.strike(0);
        set.strike(2);
        set.strike(3);
        // Unstruck positions: 1, 4, 5, 6, 7.
        assert_eq!(set.select_unstruck(0), Some(1));
        assert_eq!(set.select_unstruck(1), Some(4));
        assert_eq!(set.select_unstruck(4), Some(7));
        assert_eq!(set.select_unstruck(5), None);
    }

    #[test]
    fn pool_is_csr_shaped_and_allows_empty_lists() {
        let mut pool = ColorPool::new();
        pool.push_slice(&[4, 1, 4]);
        pool.push_iter(0..3);
        pool.push_slice(&[]);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.total_colors(), 6);
        assert_eq!(pool.list(0), &[4, 1, 4], "the pool imposes no ordering");
        assert_eq!(pool.list(1), &[0, 1, 2]);
        assert_eq!(pool.list(2), &[] as &[u64]);
        pool.sort_dedup_list(2);
        assert_eq!(pool.iter().count(), 3);
        assert_eq!(ColorPool::empty_lists(4).len(), 4);
        assert_eq!(ColorPool::from_nested(&[vec![2, 1]]).list(0), &[2, 1]);
    }

    #[test]
    fn sort_dedup_normalizes_the_last_list() {
        let mut pool = ColorPool::new();
        pool.push_slice(&[7, 7, 7]);
        pool.sort_dedup_list(0);
        assert_eq!(pool.list(0), &[7]);
        pool.push_slice(&[5, 1, 5, 0, 1]);
        pool.sort_dedup_list(1);
        assert_eq!(pool.list(1), &[0, 1, 5]);
        assert_eq!(pool.total_colors(), 4);
        pool.push_slice(&[9, 3]);
        assert_eq!(pool.list(2), &[9, 3]);
    }

    #[test]
    fn stats_accumulate_and_take_resets() {
        let stats = PaletteStats::default();
        stats.record_pick(3);
        stats.record_strikes(2);
        stats.record_pick_only();
        stats.record_words_cleared(4);
        let snap = stats.snapshot();
        assert_eq!(snap.picks_served, 2);
        assert_eq!(snap.colors_struck, 5);
        assert_eq!(snap.words_cleared, 4);
        let cloned = stats.clone();
        assert_eq!(cloned.snapshot(), snap);
        assert_eq!(stats.take(), snap);
        assert_eq!(stats.snapshot(), PaletteStatsSnapshot::default());
    }

    /// The naive model: a sorted `Vec` of struck colors.
    #[derive(Default)]
    struct Model {
        struck: Vec<u64>,
        bound: u64,
    }

    impl Model {
        fn strike(&mut self, c: u64) -> bool {
            if c >= self.bound || self.struck.contains(&c) {
                return false;
            }
            self.struck.push(c);
            self.struck.sort_unstable();
            true
        }

        fn first_unstruck_in_range(&self, lo: u64, hi: u64) -> Option<u64> {
            (lo..hi.min(self.bound)).find(|c| !self.struck.contains(c))
        }

        fn select_unstruck(&self, k: u64) -> Option<u64> {
            (0..self.bound).filter(|c| !self.struck.contains(c)).nth(k as usize)
        }
    }

    /// One scripted operation of the equivalence property.
    #[derive(Debug, Clone)]
    enum Op {
        Strike(u64),
        Clear,
        FirstInRange(u64, u64),
        StruckInRange(u64, u64),
        Select(u64),
    }

    fn op_strategy(space: u64) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..space * 2).prop_map(Op::Strike),
            Just(Op::Clear),
            (0..space, 0..space + 8).prop_map(|(a, b)| Op::FirstInRange(a, b)),
            (0..space, 0..space + 8).prop_map(|(a, b)| Op::StruckInRange(a, b)),
            (0..space).prop_map(Op::Select),
        ]
    }

    proptest! {
        /// The satellite property: `PaletteSet` behaves exactly like the naive
        /// sorted-`Vec` model under strikes, range scans, counts, selects, and epoch
        /// clears, for bounds that straddle word boundaries.
        #[test]
        fn palette_set_matches_naive_model(
            bound in 1u64..140,
            ops in proptest::collection::vec(op_strategy(140), 1..60),
        ) {
            let mut set = PaletteSet::new(bound);
            let mut model = Model { struck: Vec::new(), bound };
            for op in ops {
                match op {
                    Op::Strike(c) => {
                        prop_assert_eq!(set.strike(c), model.strike(c));
                        prop_assert_eq!(set.is_struck(c), model.struck.contains(&c));
                    }
                    Op::Clear => {
                        set.clear();
                        model.struck.clear();
                    }
                    Op::FirstInRange(a, b) => {
                        let (lo, hi) = (a.min(b), a.max(b));
                        prop_assert_eq!(
                            set.first_unstruck_in_range(lo, hi),
                            model.first_unstruck_in_range(lo, hi)
                        );
                    }
                    Op::StruckInRange(a, b) => {
                        let (lo, hi) = (a.min(b), a.max(b));
                        let expected = model
                            .struck
                            .iter()
                            .filter(|&&c| c >= lo && c < hi.min(bound))
                            .count() as u64;
                        prop_assert_eq!(set.struck_in_range(lo, hi), expected);
                    }
                    Op::Select(k) => {
                        prop_assert_eq!(set.select_unstruck(k), model.select_unstruck(k));
                    }
                }
                prop_assert_eq!(set.struck_count(), model.struck.len() as u64);
                prop_assert_eq!(set.first_unstruck(), model.first_unstruck_in_range(0, bound));
            }
        }
    }
}
