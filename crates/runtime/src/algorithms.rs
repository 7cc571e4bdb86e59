//! Reference algorithms and reusable scheduled node programs.
//!
//! The first half of this module holds tiny reference algorithms used by tests, documentation
//! examples and the runtime's own test-suite; they double as templates for how node programs
//! are written.  The second half holds the generic *scheduled* building blocks shared by the
//! list-coloring drivers in higher crates:
//!
//! * [`ScheduledListColor`] — slot-scheduled greedy list coloring: every vertex is given a
//!   *slot* and a private candidate list; in its slot it adopts the first list color not
//!   announced by a neighbor and not externally forbidden.  When the slots come from a legal
//!   coloring (neighbors never share a slot) and every list is larger than the vertex degree,
//!   every vertex succeeds.  Slot data lives in a shared [`ListColorSchedule`] arena (flat
//!   [`ColorPool`]s) that nodes *borrow*, and announced colors are struck into a per-vertex
//!   [`PaletteSet`] bitset, so a pick is a word scan instead of nested `Vec` scans.
//! * [`VecScanListColor`] — the pre-palette-engine pick path, kept verbatim (per-vertex
//!   cloned `Vec`s, `contains` scans, duplicate-accumulating `taken`) as the raced reference
//!   of experiment E24, exactly like the `ReferenceExecutor` is kept as the executor oracle.
//! * [`HalvingSplit`] — slot-scheduled color-space bipartition: every vertex is given a slot
//!   plus the sizes of its palette's intersection with the lower and upper halves of the
//!   current color space; in its slot it commits to the half with the larger remaining margin
//!   (palette share minus neighbors already committed there), and after all slots have fired
//!   it self-defers if its committed half cannot guarantee a proper greedy completion.
//!
//! All programs take per-vertex inputs at construction time, exactly like the procedures of
//! the paper (the output of one phase is locally known to each vertex when the next starts).
//! The slot schedules read the shared round clock ([`Inbox::round`]) and return
//! [`Status::WakeAt`] for the next round they must act in, so a vertex that is waiting for
//! its slot and receives no mail is never stepped.

use crate::node::{Algorithm, Inbox, NodeCtx, NodeProgram, Outbox, Status};
use arbcolor_graph::{ColorPool, PaletteSet, PaletteStats};

/// One-round algorithm: every vertex learns the maximum identifier in its closed neighborhood.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposeMaxId;

/// Node program of [`ProposeMaxId`].
#[derive(Debug, Clone)]
pub struct ProposeMaxIdNode {
    best: u64,
}

impl NodeProgram for ProposeMaxIdNode {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        outbox.broadcast(ctx.id);
        if ctx.degree == 0 {
            Status::Halted
        } else {
            Status::Active
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, u64>,
        _outbox: &mut Outbox<u64>,
    ) -> Status {
        for (_, &id) in inbox.iter() {
            self.best = self.best.max(id);
        }
        Status::Halted
    }

    fn output(&self, _ctx: &NodeCtx) -> u64 {
        self.best
    }
}

impl Algorithm for ProposeMaxId {
    type Node = ProposeMaxIdNode;

    fn node(&self, ctx: &NodeCtx) -> ProposeMaxIdNode {
        ProposeMaxIdNode { best: ctx.id }
    }

    fn name(&self) -> &'static str {
        "propose-max-id"
    }
}

/// Floods the maximum identifier for a fixed number of rounds; after `rounds ≥ diameter`
/// every vertex knows the global maximum.  Used to sanity-check multi-round execution and the
/// round accounting of the executor.
#[derive(Debug, Clone, Copy)]
pub struct FloodMaxId {
    /// How many rounds to flood for.
    pub rounds: usize,
}

/// Node program of [`FloodMaxId`].
#[derive(Debug, Clone)]
pub struct FloodMaxIdNode {
    best: u64,
    rounds: usize,
}

impl NodeProgram for FloodMaxIdNode {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        if self.rounds == 0 {
            return Status::Halted;
        }
        outbox.broadcast(self.best);
        // Acts every round, mail or not (e.g. isolated vertices), until the last one.
        Status::WakeAt(1)
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<u64>,
    ) -> Status {
        for (_, &id) in inbox.iter() {
            self.best = self.best.max(id);
        }
        if inbox.round() == self.rounds {
            Status::Halted
        } else {
            outbox.broadcast(self.best);
            Status::WakeAt(inbox.round() + 1)
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> u64 {
        self.best
    }
}

impl Algorithm for FloodMaxId {
    type Node = FloodMaxIdNode;

    fn node(&self, ctx: &NodeCtx) -> FloodMaxIdNode {
        FloodMaxIdNode { best: ctx.id, rounds: self.rounds }
    }

    fn name(&self) -> &'static str {
        "flood-max-id"
    }
}

/// Per-vertex input of [`ScheduledListColor`] (the construction-time view; at run time the
/// data lives flattened inside a [`ListColorSchedule`]).
#[derive(Debug, Clone)]
pub struct ListColorSlot {
    /// The round in which this vertex picks its color (slot 0 picks immediately).
    pub slot: usize,
    /// Candidate colors in preference order (the vertex's private list).
    pub palette: Vec<u64>,
    /// Colors this vertex must avoid in addition to its neighbors' announcements (e.g. final
    /// colors of already-colored neighbors outside the current subgraph).
    pub forbidden: Vec<u64>,
}

/// The shared per-execution arena of one [`ScheduledListColor`] run: slots, palettes and
/// forbidden sets for *all* vertices in flat [`ColorPool`]s, plus the per-vertex strike
/// bound and the [`PaletteStats`] reuse counters the nodes feed.
///
/// Node programs borrow slices out of this arena instead of cloning per-vertex `Vec`s, so
/// constructing a node allocates only its [`PaletteSet`] scratch.
#[derive(Debug)]
pub struct ListColorSchedule {
    slots: Vec<usize>,
    /// One past the largest palette color per vertex — the strike-space bound (colors a
    /// palette cannot contain are never struck: they cannot be picked either way).
    bounds: Vec<u64>,
    palettes: ColorPool,
    forbidden: ColorPool,
    stats: PaletteStats,
}

impl ListColorSchedule {
    /// Assembles a schedule from pre-flattened parts; the pools must hold one list per slot.
    pub fn new(slots: Vec<usize>, palettes: ColorPool, forbidden: ColorPool) -> Self {
        assert_eq!(slots.len(), palettes.len(), "one palette per vertex");
        assert_eq!(slots.len(), forbidden.len(), "one forbidden set per vertex");
        let bounds = (0..palettes.len())
            .map(|v| palettes.list(v).iter().copied().max().map_or(0, |c| c + 1))
            .collect();
        ListColorSchedule { slots, bounds, palettes, forbidden, stats: PaletteStats::default() }
    }

    /// Flattens one [`ListColorSlot`] per vertex into a schedule (the nested-input API).
    pub fn from_slots(inputs: &[ListColorSlot]) -> Self {
        let mut palettes =
            ColorPool::with_capacity(inputs.len(), inputs.iter().map(|s| s.palette.len()).sum());
        let mut forbidden =
            ColorPool::with_capacity(inputs.len(), inputs.iter().map(|s| s.forbidden.len()).sum());
        for input in inputs {
            palettes.push_slice(&input.palette);
            forbidden.push_slice(&input.forbidden);
        }
        ListColorSchedule::new(inputs.iter().map(|s| s.slot).collect(), palettes, forbidden)
    }

    /// Number of vertices the schedule covers.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// The reuse counters fed by this schedule's nodes; drivers flush them into the
    /// metrics registry via `obs::record_palette`.
    pub fn stats(&self) -> &PaletteStats {
        &self.stats
    }

    /// The picks of a [`ScheduledListColor`] run on an edgeless graph, without the run.
    ///
    /// No vertex has a neighbor to announce a color, so each takes the first color of its
    /// list outside its forbidden set, whatever its slot, and the stats record one pick per
    /// vertex exactly as the nodes would.  With every slot 0 the run it stands for takes no
    /// rounds and sends no messages.
    pub fn pick_isolated(&self) -> Vec<Option<u64>> {
        (0..self.n())
            .map(|v| {
                let struck = self.struck_set(v);
                self.stats.record_pick(struck.struck_count());
                struck.first_unstruck_of(self.palettes.list(v))
            })
            .collect()
    }

    /// Vertex `v`'s strike set before any announcement: its forbidden colors.
    fn struck_set(&self, v: usize) -> PaletteSet {
        let mut struck = PaletteSet::new(self.bounds[v]);
        for &c in self.forbidden.list(v) {
            struck.strike(c);
        }
        struck
    }
}

/// Slot-scheduled greedy list coloring (node-program factory) on the bitset pick path.
///
/// Cost: `max_slot` rounds and one broadcast per vertex.  A vertex is stepped in its slot and
/// whenever a neighbor's announcement arrives, never while it merely waits.
#[derive(Debug, Clone)]
pub struct ScheduledListColor<'a> {
    schedule: &'a ListColorSchedule,
}

impl<'a> ScheduledListColor<'a> {
    /// Creates the algorithm over a shared [`ListColorSchedule`] arena.
    pub fn new(schedule: &'a ListColorSchedule) -> Self {
        ScheduledListColor { schedule }
    }
}

/// Node program of [`ScheduledListColor`]: borrows its palette from the schedule arena and
/// strikes forbidden plus announced colors into a [`PaletteSet`].
#[derive(Debug, Clone)]
pub struct ScheduledListColorNode<'a> {
    palette: &'a [u64],
    slot: usize,
    stats: &'a PaletteStats,
    struck: PaletteSet,
    chosen: Option<u64>,
}

impl ScheduledListColorNode<'_> {
    fn pick(&mut self) -> Option<u64> {
        // The first unstruck color in preference order — identical to the Vec-scan
        // `find(|c| !forbidden.contains(c) && !taken.contains(c))`, because the strike set
        // is exactly `forbidden ∪ taken`.
        let choice = self.struck.first_unstruck_of(self.palette);
        self.chosen = choice;
        self.stats.record_pick(self.struck.struck_count());
        choice
    }
}

impl NodeProgram for ScheduledListColorNode<'_> {
    type Msg = u64;
    type Output = Option<u64>;

    fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        if self.slot == 0 {
            if let Some(c) = self.pick() {
                outbox.broadcast(c);
            }
            Status::Halted
        } else {
            Status::WakeAt(self.slot)
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<u64>,
    ) -> Status {
        for (_, &c) in inbox.iter() {
            self.struck.strike(c);
        }
        if inbox.round() == self.slot {
            if let Some(c) = self.pick() {
                outbox.broadcast(c);
            }
            Status::Halted
        } else {
            Status::WakeAt(self.slot)
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u64> {
        self.chosen
    }
}

impl<'a> Algorithm for ScheduledListColor<'a> {
    type Node = ScheduledListColorNode<'a>;

    fn node(&self, ctx: &NodeCtx) -> ScheduledListColorNode<'a> {
        let v = ctx.vertex;
        ScheduledListColorNode {
            palette: self.schedule.palettes.list(v),
            slot: self.schedule.slots[v],
            stats: self.schedule.stats(),
            struck: self.schedule.struck_set(v),
            chosen: None,
        }
    }

    fn name(&self) -> &'static str {
        "scheduled-list-color"
    }
}

/// The pre-palette-engine pick path of [`ScheduledListColor`], preserved verbatim: the node
/// clones its [`ListColorSlot`], accumulates announced colors (duplicates included) in a
/// `Vec`, and picks with nested `contains` scans.
///
/// Kept as the raced baseline of experiment E24 and the `palette` Criterion group — the
/// same role the `ReferenceExecutor` plays for the executors.  Outputs are bit-identical
/// to [`ScheduledListColor`] on every input.
#[derive(Debug, Clone)]
pub struct VecScanListColor<'a> {
    slots: &'a [ListColorSlot],
}

impl<'a> VecScanListColor<'a> {
    /// Creates the algorithm from one [`ListColorSlot`] per vertex.
    pub fn new(slots: &'a [ListColorSlot]) -> Self {
        VecScanListColor { slots }
    }
}

/// Node program of [`VecScanListColor`].
#[derive(Debug, Clone)]
pub struct VecScanListColorNode {
    input: ListColorSlot,
    taken: Vec<u64>,
    chosen: Option<u64>,
}

impl VecScanListColorNode {
    fn pick(&mut self) -> Option<u64> {
        let choice = self
            .input
            .palette
            .iter()
            .copied()
            .find(|c| !self.input.forbidden.contains(c) && !self.taken.contains(c));
        self.chosen = choice;
        choice
    }
}

impl NodeProgram for VecScanListColorNode {
    type Msg = u64;
    type Output = Option<u64>;

    fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        if self.input.slot == 0 {
            if let Some(c) = self.pick() {
                outbox.broadcast(c);
            }
            Status::Halted
        } else {
            Status::WakeAt(self.input.slot)
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<u64>,
    ) -> Status {
        for (_, &c) in inbox.iter() {
            self.taken.push(c);
        }
        if inbox.round() == self.input.slot {
            if let Some(c) = self.pick() {
                outbox.broadcast(c);
            }
            Status::Halted
        } else {
            Status::WakeAt(self.input.slot)
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u64> {
        self.chosen
    }
}

impl Algorithm for VecScanListColor<'_> {
    type Node = VecScanListColorNode;

    fn node(&self, ctx: &NodeCtx) -> VecScanListColorNode {
        VecScanListColorNode {
            input: self.slots[ctx.vertex].clone(),
            taken: Vec::new(),
            chosen: None,
        }
    }

    fn name(&self) -> &'static str {
        "vecscan-list-color"
    }
}

/// Per-vertex input of [`HalvingSplit`].
#[derive(Debug, Clone)]
pub struct SplitSlot {
    /// The round in which this vertex announces its half (slot 0 announces immediately).
    pub slot: usize,
    /// `|Ψ(v) ∩ lower half|` — the vertex's palette share in the lower half.
    pub low_count: usize,
    /// `|Ψ(v) ∩ upper half|` — the vertex's palette share in the upper half.
    pub high_count: usize,
    /// Half preferred when the margins and the palette shares are both tied (used to break
    /// the symmetry of identical palettes deterministically).
    pub tie_high: bool,
}

/// The side a vertex ends up on after a [`HalvingSplit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitChoice {
    /// The vertex recurses on the lower half of the color space.
    Low,
    /// The vertex recurses on the upper half of the color space.
    High,
    /// The vertex's committed half cannot guarantee a greedy completion
    /// (`palette share < same-half neighbors + 1`); it drops out of the recursion and is
    /// colored by the final cleanup sweep from its original list.
    Deferred,
}

/// Slot-scheduled color-space bipartition (node-program factory).
///
/// Runs for exactly `num_slots` rounds; every vertex broadcasts its committed half once, in
/// its slot, and counts the neighbors' announcements as they arrive, so after round
/// `num_slots` it knows how many neighbors ended up on its half.  A vertex is stepped only
/// when announcements arrive, in its own slot, and in round `num_slots` to finalize.  Nodes
/// borrow their [`SplitSlot`] from the shared slice — a split slot is all-scalar, so node
/// construction is allocation-free.
#[derive(Debug, Clone)]
pub struct HalvingSplit<'a> {
    slots: &'a [SplitSlot],
    num_slots: usize,
}

impl<'a> HalvingSplit<'a> {
    /// Creates the algorithm from one [`SplitSlot`] per vertex; every slot must be smaller
    /// than `num_slots`.
    pub fn new(slots: &'a [SplitSlot], num_slots: usize) -> Self {
        assert!(num_slots > 0, "at least one slot is required");
        assert!(
            slots.iter().all(|s| s.slot < num_slots),
            "every slot must be smaller than num_slots"
        );
        HalvingSplit { slots, num_slots }
    }
}

/// Node program of [`HalvingSplit`].
#[derive(Debug, Clone)]
pub struct HalvingSplitNode<'a> {
    input: &'a SplitSlot,
    num_slots: usize,
    committed_low: usize,
    committed_high: usize,
    side_high: Option<bool>,
    deferred: bool,
}

impl HalvingSplitNode<'_> {
    /// Commits to the half with the larger remaining margin (palette share minus the
    /// neighbors already committed there).
    fn decide(&mut self) -> bool {
        let margin_low = self.input.low_count as i64 - self.committed_low as i64;
        let margin_high = self.input.high_count as i64 - self.committed_high as i64;
        let high = match margin_high.cmp(&margin_low) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => match self.input.high_count.cmp(&self.input.low_count) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => self.input.tie_high,
            },
        };
        self.side_high = Some(high);
        high
    }

    /// After every slot has fired: self-defer when the committed half cannot guarantee a
    /// greedy completion against the neighbors that committed to the same half.
    fn finalize(&mut self) {
        let high = self.side_high.expect("every slot fired");
        let (share, rivals) = if high {
            (self.input.high_count, self.committed_high)
        } else {
            (self.input.low_count, self.committed_low)
        };
        self.deferred = share < rivals + 1;
    }

    /// The next round this vertex must act in after `round` without mail: its slot, then
    /// round `num_slots` (the slot-(K−1) announcements are delivered in round K, so the
    /// deferral check waits for them).
    fn alarm(&self, round: usize) -> Status {
        Status::WakeAt(if round < self.input.slot { self.input.slot } else { self.num_slots })
    }
}

impl NodeProgram for HalvingSplitNode<'_> {
    type Msg = bool;
    type Output = SplitChoice;

    fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<bool>) -> Status {
        if self.input.slot == 0 {
            let high = self.decide();
            outbox.broadcast(high);
        }
        self.alarm(0)
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, bool>,
        outbox: &mut Outbox<bool>,
    ) -> Status {
        for (_, &high) in inbox.iter() {
            if high {
                self.committed_high += 1;
            } else {
                self.committed_low += 1;
            }
        }
        let round = inbox.round();
        if round == self.input.slot {
            let high = self.decide();
            outbox.broadcast(high);
        }
        if round >= self.num_slots {
            self.finalize();
            Status::Halted
        } else {
            self.alarm(round)
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> SplitChoice {
        if self.deferred {
            SplitChoice::Deferred
        } else if self.side_high == Some(true) {
            SplitChoice::High
        } else {
            SplitChoice::Low
        }
    }
}

impl<'a> Algorithm for HalvingSplit<'a> {
    type Node = HalvingSplitNode<'a>;

    fn node(&self, ctx: &NodeCtx) -> HalvingSplitNode<'a> {
        HalvingSplitNode {
            input: &self.slots[ctx.vertex],
            num_slots: self.num_slots,
            committed_low: 0,
            committed_high: 0,
            side_high: None,
            deferred: false,
        }
    }

    fn name(&self) -> &'static str {
        "halving-split"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, ReferenceExecutor};
    use arbcolor_graph::generators;

    #[test]
    fn flood_zero_rounds_is_free() {
        let g = generators::cycle(6).unwrap();
        let result = Executor::new(&g).run(&FloodMaxId { rounds: 0 }).unwrap();
        assert_eq!(result.report.rounds, 0);
        for v in g.vertices() {
            assert_eq!(result.outputs[v], g.id(v));
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ProposeMaxId.name(), "propose-max-id");
        assert_eq!(FloodMaxId { rounds: 1 }.name(), "flood-max-id");
    }

    #[test]
    fn flood_on_star_converges_in_two_rounds() {
        let g = generators::star(9).unwrap().with_shuffled_ids(2);
        let result = Executor::new(&g).run(&FloodMaxId { rounds: 2 }).unwrap();
        let global_max = g.ids().iter().copied().max().unwrap();
        assert!(result.outputs.iter().all(|&x| x == global_max));
    }

    fn four_cycle_slots() -> Vec<ListColorSlot> {
        vec![
            ListColorSlot { slot: 0, palette: vec![9, 5], forbidden: vec![9] },
            ListColorSlot { slot: 1, palette: vec![5, 7], forbidden: vec![] },
            ListColorSlot { slot: 0, palette: vec![5, 6], forbidden: vec![] },
            ListColorSlot { slot: 1, palette: vec![5, 8], forbidden: vec![] },
        ]
    }

    #[test]
    fn scheduled_list_color_respects_lists_and_schedule() {
        // A 4-cycle scheduled by a proper 2-coloring; lists are disjoint from {9} via the
        // forbidden set of vertex 0.
        let g = generators::cycle(4).unwrap();
        let schedule = ListColorSchedule::from_slots(&four_cycle_slots());
        let result = Executor::new(&g).run(&ScheduledListColor::new(&schedule)).unwrap();
        // Vertex 0 avoids forbidden 9 and takes 5; vertex 2 takes 5 (not adjacent to 0);
        // vertices 1 and 3 see both announcements and fall back to their second choice.
        assert_eq!(result.outputs, vec![Some(5), Some(7), Some(5), Some(8)]);
        // The slot-1 vertices pick (and halt) in round 1, so the whole sweep costs one round.
        assert_eq!(result.report.rounds, 1);
        // Four picks were served from the bitset; vertex 0's forbidden 9 plus the two
        // announcements received by each slot-1 vertex were struck.
        let stats = schedule.stats().snapshot();
        assert_eq!(stats.picks_served, 4);
        assert!(stats.colors_struck >= 3);
    }

    #[test]
    fn bitset_and_vecscan_pick_paths_are_bit_identical() {
        let g = generators::cycle(4).unwrap();
        let slots = four_cycle_slots();
        let schedule = ListColorSchedule::from_slots(&slots);
        let bitset = Executor::new(&g).run(&ScheduledListColor::new(&schedule)).unwrap();
        let vecscan = Executor::new(&g).run(&VecScanListColor::new(&slots)).unwrap();
        assert_eq!(bitset.outputs, vecscan.outputs);
        assert_eq!(bitset.report, vecscan.report);
    }

    #[test]
    fn isolated_picks_match_a_run_on_an_edgeless_graph() {
        // Pseudo-random lists and forbidden sets over a small color space, so some vertices
        // lose their first choices to the forbidden set and some lose every color.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for n in [0usize, 1, 7, 40] {
            let slots: Vec<ListColorSlot> = (0..n)
                .map(|_| {
                    let palette_len = draw(6) as usize;
                    let forbidden_len = 1 + draw(5) as usize;
                    ListColorSlot {
                        slot: 0,
                        palette: (0..palette_len).map(|_| draw(12)).collect(),
                        forbidden: (0..forbidden_len).map(|_| draw(14)).collect(),
                    }
                })
                .collect();
            let g = arbcolor_graph::Graph::empty(n);
            let direct = ListColorSchedule::from_slots(&slots);
            let picks = direct.pick_isolated();
            let schedule = ListColorSchedule::from_slots(&slots);
            let run = ReferenceExecutor::new(&g).run(&ScheduledListColor::new(&schedule)).unwrap();
            assert_eq!(picks, run.outputs, "n = {n}");
            assert_eq!(run.report, crate::RoundReport::zero(), "n = {n}");
            assert_eq!(direct.stats().snapshot(), schedule.stats().snapshot(), "n = {n}");
            assert_eq!(direct.stats().snapshot().picks_served, n as u64);
            if n == 40 {
                // The draws cover both outcomes: exhausted lists and forbidden first choices.
                assert!(picks.contains(&None));
                assert!(slots
                    .iter()
                    .zip(&picks)
                    .any(|(s, p)| p.is_some() && s.palette.first() != p.as_ref()));
            }
        }
    }

    #[test]
    fn scheduled_list_color_reports_exhausted_lists_as_none() {
        let g = generators::path(2).unwrap();
        let slots = vec![
            ListColorSlot { slot: 0, palette: vec![1], forbidden: vec![] },
            ListColorSlot { slot: 1, palette: vec![1], forbidden: vec![] },
        ];
        let schedule = ListColorSchedule::from_slots(&slots);
        let result = Executor::new(&g).run(&ScheduledListColor::new(&schedule)).unwrap();
        assert_eq!(result.outputs[0], Some(1));
        assert_eq!(result.outputs[1], None);
        let vecscan = Executor::new(&g).run(&VecScanListColor::new(&slots)).unwrap();
        assert_eq!(result.outputs, vecscan.outputs);
    }

    #[test]
    fn halving_split_balances_identical_palettes_by_margin() {
        // A triangle with palettes split 2/2: the slot-0 vertex takes its tie-break half, and
        // the later vertices see it and flow to the other half, keeping every margin positive.
        let g = generators::complete(3).unwrap();
        let slots = vec![
            SplitSlot { slot: 0, low_count: 2, high_count: 2, tie_high: false },
            SplitSlot { slot: 1, low_count: 2, high_count: 2, tie_high: false },
            SplitSlot { slot: 2, low_count: 2, high_count: 2, tie_high: false },
        ];
        let result = Executor::new(&g).run(&HalvingSplit::new(&slots, 3)).unwrap();
        assert_eq!(result.outputs[0], SplitChoice::Low);
        assert_eq!(result.outputs[1], SplitChoice::High);
        // Vertex 2 sees one commitment per half; margins tie, counts tie, tie_high says Low.
        assert_eq!(result.outputs[2], SplitChoice::Low);
        assert_eq!(result.report.rounds, 3);
    }

    #[test]
    fn scheduled_list_color_steps_a_waiting_vertex_only_on_mail_and_in_its_slot() {
        // Path 0 – 1 – 2 with slots (0, 4, 1): vertex 1 is stepped by vertex 0's
        // announcement (round 1) and vertex 2's (round 2), then waits silently until its
        // slot in round 4; vertex 2 acts in its slot, round 1.
        let g = generators::path(3).unwrap();
        let slots = vec![
            ListColorSlot { slot: 0, palette: vec![1, 2], forbidden: vec![] },
            ListColorSlot { slot: 4, palette: vec![1, 2, 3], forbidden: vec![] },
            ListColorSlot { slot: 1, palette: vec![2, 1], forbidden: vec![] },
        ];
        let schedule = ListColorSchedule::from_slots(&slots);
        let (result, trace) =
            Executor::new(&g).run_traced(&ScheduledListColor::new(&schedule)).unwrap();
        assert_eq!(result.outputs, vec![Some(1), Some(3), Some(2)]);
        assert_eq!(result.report.rounds, 4);
        assert_eq!(trace.frontier_profile(), vec![2, 1, 0, 1]);
        let oracle = ReferenceExecutor::new(&g).run(&ScheduledListColor::new(&schedule)).unwrap();
        assert_eq!(oracle.outputs, result.outputs);
        assert_eq!(oracle.report, result.report);
    }

    #[test]
    fn halving_split_steps_a_vertex_on_mail_in_its_slot_and_to_finalize() {
        // A 2-path with slots (0, 1) and four slots: round 1 steps vertex 1 (its slot, plus
        // vertex 0's announcement), round 2 vertex 0 (vertex 1's announcement), round 3
        // nobody, and round 4 both, to finalize.
        let g = generators::path(2).unwrap();
        let slots = vec![
            SplitSlot { slot: 0, low_count: 2, high_count: 1, tie_high: false },
            SplitSlot { slot: 1, low_count: 2, high_count: 1, tie_high: false },
        ];
        let (result, trace) = Executor::new(&g).run_traced(&HalvingSplit::new(&slots, 4)).unwrap();
        assert_eq!(result.outputs, vec![SplitChoice::Low, SplitChoice::Low]);
        assert_eq!(result.report.rounds, 4);
        assert_eq!(trace.frontier_profile(), vec![1, 1, 0, 2]);
        let oracle = ReferenceExecutor::new(&g).run(&HalvingSplit::new(&slots, 4)).unwrap();
        assert_eq!(oracle.outputs, result.outputs);
        assert_eq!(oracle.report, result.report);
    }

    #[test]
    fn halving_split_defers_vertices_without_a_greedy_guarantee() {
        // Both endpoints of an edge hold a single lower-half color and announce in the same
        // slot, so neither can guarantee a proper completion: both must defer.
        let g = generators::path(2).unwrap();
        let slots = vec![
            SplitSlot { slot: 0, low_count: 1, high_count: 0, tie_high: false },
            SplitSlot { slot: 0, low_count: 1, high_count: 0, tie_high: false },
        ];
        let result = Executor::new(&g).run(&HalvingSplit::new(&slots, 1)).unwrap();
        assert_eq!(result.outputs, vec![SplitChoice::Deferred, SplitChoice::Deferred]);
    }
}
