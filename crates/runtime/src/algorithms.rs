//! Reference algorithms and the slot-sweep node program.
//!
//! The first half of this module holds tiny reference algorithms used by tests, documentation
//! examples and the runtime's own test-suite; they double as templates for how node programs
//! are written.  The second half holds [`SlotSweep`], the one program behind every class
//! sweep of the higher crates: each vertex absorbs its neighbors' announcements, acts once in
//! its *slot*, and halts there or at a common finalize round.  Its [`SweepRule`] decides the
//! rest:
//!
//! * [`SlotSchedule`] — greedy picking on the bitset path: in its slot a vertex adopts the
//!   first palette color (of a list, or of an `[offset, offset + size)` range) not announced
//!   by a neighbor and not externally forbidden.  When the slots come from a legal coloring
//!   and every palette is larger than the vertex degree, every vertex succeeds.  Announced
//!   colors are struck into a per-vertex [`PaletteSet`] bitset, so a pick is a word scan.
//! * [`VecScanPick`] — the pre-palette-engine pick path, kept verbatim (per-vertex cloned
//!   `Vec`s, `contains` scans, duplicate-accumulating `taken`) as the raced reference of
//!   experiment E24, exactly like the `ReferenceExecutor` is kept as the executor oracle.
//! * [`HalvingSplit`] — color-space bipartition: every vertex is given a slot plus the sizes
//!   of its palette's intersection with the lower and upper halves of the current color
//!   space; in its slot it commits to the half with the larger remaining margin (palette
//!   share minus neighbors already committed there), and after all slots have fired it
//!   self-defers if its committed half cannot guarantee a proper greedy completion.  A
//!   vertex whose shares differ by more than its degree is decided before any mail, so it
//!   sleeps until its slot and halts at the end with no finalize step.
//! * The MIS class sweep, `arbcolor::mis::MisJoin`, kept with its driver.
//!
//! All programs take per-vertex inputs at construction time, exactly like the procedures of
//! the paper (the output of one phase is locally known to each vertex when the next starts).
//! A slot sweep reads the shared round clock ([`Inbox::round`]) and returns
//! [`Status::WakeAt`] for the next round it must act in, so a vertex that is waiting for
//! its slot and receives no mail is never stepped; a vertex whose rule needs no mail
//! returns [`Status::SleepUntil`] and [`Status::HaltAt`] instead, and is not stepped on
//! mail either.

use crate::cost::MessageCost;
use crate::node::{Algorithm, Inbox, NodeCtx, NodeProgram, Outbox, Status};
use arbcolor_graph::{ColorPool, PaletteSet, PaletteStats, PaletteStatsSnapshot, Vertex};
use std::cmp::Ordering;

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

/// What a [`SlotSweep`] does at a vertex: the per-algorithm half of a slot sweep.
///
/// The program owns the schedule: it steps a vertex whenever mail arrives, in its slot, and
/// in the finalize round if the rule has one — except a vertex the rule says needs no mail
/// ([`needs_mail`](SweepRule::needs_mail)), which is stepped in its slot only.  The rule
/// owns everything else.  Its methods are called on a vertex's own state only, in round
/// order, and they are monomorphized into the program, so a rule costs exactly the work its
/// methods do.
pub trait SweepRule {
    /// The announcement a vertex broadcasts in its slot.
    type Msg: Clone + MessageCost;
    /// The per-vertex output.
    type Output;
    /// What a vertex keeps between its steps.
    type State;

    /// The name of the sweep (the name of its exec span).
    fn name(&self) -> &'static str;

    /// Vertex `v`'s slot and its state before any mail.
    fn start(&self, v: Vertex) -> (usize, Self::State);

    /// Absorbs the announcements delivered to a vertex in one round.
    fn absorb(&self, state: &mut Self::State, inbox: &Inbox<'_, Self::Msg>);

    /// Acts in vertex `v`'s slot, after absorbing that round's mail; returns the
    /// announcement to broadcast, if any.
    fn announce(&self, v: Vertex, state: &mut Self::State) -> Option<Self::Msg>;

    /// The round in which every vertex finalizes, or `None` when each vertex halts in its
    /// own slot.  It must be later than every slot; a vertex halts there once it has absorbed
    /// the last slot's announcements, so its output can depend on all of them.
    fn finalize_round(&self) -> Option<usize> {
        None
    }

    /// Whether vertex `v`, of the given degree, can need its mail: `false` promises that its
    /// announcement and its output are the same whatever announcements reach it, before,
    /// in and after its slot.  Such a vertex sleeps until its slot and, when the rule has a
    /// finalize round, halts there without a step after it.
    fn needs_mail(&self, _v: Vertex, _degree: usize) -> bool {
        true
    }

    /// The output of vertex `v`.
    fn output(&self, v: Vertex, state: &Self::State) -> Self::Output;
}

/// A slot sweep (node-program factory): the one program behind every class sweep.
///
/// Cost: `max_slot` rounds when every vertex halts in its slot (the finalize round when the
/// rule has one), and at most one broadcast per vertex.  A vertex is stepped in its slot,
/// in the finalize round, and whenever a neighbor's announcement arrives, never while it
/// merely waits.  A vertex that needs no mail is stepped in its slot alone: it returns
/// [`Status::SleepUntil`] its slot before it, and [`Status::HaltAt`] the finalize round
/// after it, so the run's report and its per-round `active` and `halts` stay what they
/// would be if it were stepped.
#[derive(Debug)]
pub struct SlotSweep<'a, R>(pub &'a R);

/// Node program of [`SlotSweep`]: borrows the rule and keeps its slot and the rule's state.
#[derive(Debug)]
pub struct SlotSweepNode<'a, R: SweepRule> {
    rule: &'a R,
    slot: usize,
    state: R::State,
}

impl<R: SweepRule> SlotSweepNode<'_, R> {
    /// Announces in the slot, then halts there or waits for the finalize round.  A vertex
    /// that needs no mail sleeps until its slot and then waits to halt in the finalize round.
    fn act(&mut self, ctx: &NodeCtx, round: usize, outbox: &mut Outbox<R::Msg>) -> Status {
        if round == self.slot {
            if let Some(msg) = self.rule.announce(ctx.vertex, &mut self.state) {
                outbox.broadcast(msg);
            }
        }
        let mail = self.rule.needs_mail(ctx.vertex, ctx.degree);
        let wait = |at| if mail { Status::WakeAt(at) } else { Status::SleepUntil(at) };
        match self.rule.finalize_round() {
            None if round == self.slot => Status::Halted,
            None => wait(self.slot),
            Some(end) if round >= end => Status::Halted,
            Some(_) if round < self.slot => wait(self.slot),
            // The last slot's announcements are delivered in round `end`, so the finalize
            // step waits for them.
            Some(end) if mail => Status::WakeAt(end),
            Some(end) => Status::HaltAt(end),
        }
    }
}

impl<R: SweepRule> NodeProgram for SlotSweepNode<'_, R> {
    type Msg = R::Msg;
    type Output = R::Output;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<R::Msg>) -> Status {
        self.act(ctx, 0, outbox)
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        inbox: &Inbox<'_, R::Msg>,
        outbox: &mut Outbox<R::Msg>,
    ) -> Status {
        self.rule.absorb(&mut self.state, inbox);
        self.act(ctx, inbox.round(), outbox)
    }

    fn output(&self, ctx: &NodeCtx) -> R::Output {
        self.rule.output(ctx.vertex, &self.state)
    }
}

impl<'a, R: SweepRule> Algorithm for SlotSweep<'a, R> {
    type Node = SlotSweepNode<'a, R>;

    fn node(&self, ctx: &NodeCtx) -> SlotSweepNode<'a, R> {
        let (slot, state) = self.0.start(ctx.vertex);
        SlotSweepNode { rule: self.0, slot, state }
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Where the vertices of a [`SlotSchedule`] pick from.
#[derive(Debug)]
enum Palettes {
    /// Vertex `v` picks the first free color of `pool.list(v)`, in list order.
    Lists(ColorPool),
    /// Vertex `v` picks the smallest free color of `[offsets[v], offsets[v] + size)`.
    Ranges { offsets: Vec<u64>, size: u64 },
}

/// The greedy pick rule on the bitset path, and the shared arena of one run: the slots, the
/// palettes and forbidden sets of *all* vertices, and the [`PaletteStats`] reuse counters
/// the nodes feed.
///
/// Nodes borrow their lists out of this arena instead of cloning per-vertex `Vec`s, so
/// constructing a node allocates only its [`PaletteSet`] scratch.  The strike set covers the
/// colors a palette can hold: `[0, max + 1)` for a list and the vertex's own range for a
/// range, shifted down by its offset.  Colors outside it are never struck: they cannot be
/// picked either way.  A sweep of list palettes is named `scheduled-list-color`, one of
/// ranges `greedy-sweep`.
#[derive(Debug)]
pub struct SlotSchedule {
    slots: Vec<usize>,
    palettes: Palettes,
    forbidden: ColorPool,
    stats: PaletteStats,
}

/// The state of a vertex in a [`SlotSchedule`] sweep.
#[derive(Debug, Clone)]
pub struct PickState {
    /// Forbidden and announced colors, shifted down by `offset`.
    struck: PaletteSet,
    /// The first color of the vertex's range (0 for a list).
    offset: u64,
    chosen: Option<u64>,
}

impl PickState {
    fn strike(&mut self, color: u64) {
        // Colors below the range can never be picked; ignore them.
        if color >= self.offset {
            self.struck.strike(color - self.offset);
        }
    }
}

impl SlotSchedule {
    /// A schedule of list palettes; the pools must hold one list per slot.
    pub fn lists(slots: Vec<usize>, palettes: ColorPool, forbidden: ColorPool) -> Self {
        assert_eq!(slots.len(), palettes.len(), "one palette per vertex");
        SlotSchedule::with(slots, Palettes::Lists(palettes), forbidden)
    }

    /// A schedule of range palettes: vertex `v` picks from `[offsets[v], offsets[v] + size)`.
    pub fn ranges(slots: Vec<usize>, offsets: Vec<u64>, size: u64, forbidden: ColorPool) -> Self {
        assert_eq!(slots.len(), offsets.len(), "one palette offset per vertex");
        SlotSchedule::with(slots, Palettes::Ranges { offsets, size }, forbidden)
    }

    fn with(slots: Vec<usize>, palettes: Palettes, forbidden: ColorPool) -> Self {
        assert_eq!(slots.len(), forbidden.len(), "one forbidden set per vertex");
        SlotSchedule { slots, palettes, forbidden, stats: PaletteStats::default() }
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

    /// The picks of this schedule's sweep on an edgeless graph, without the run.
    ///
    /// No vertex has a neighbor to announce a color, so each takes the first color of its
    /// palette outside its forbidden set, whatever its slot, and the stats record one pick
    /// per vertex exactly as the nodes would.  A vertex with nothing forbidden takes the
    /// first color of its palette with no strike set built.  With every slot 0 the run it
    /// stands for takes no rounds and sends no messages.
    pub fn pick_isolated(&self) -> Vec<Option<u64>> {
        let mut struck = 0;
        let picks = (0..self.n())
            .map(|v| {
                if self.forbidden.list(v).is_empty() {
                    return match &self.palettes {
                        Palettes::Lists(pool) => pool.list(v).first().copied(),
                        Palettes::Ranges { offsets, size } => (*size > 0).then(|| offsets[v]),
                    };
                }
                let state = self.start(v).1;
                struck += state.struck.struck_count();
                self.pick(v, &state)
            })
            .collect();
        self.stats.add(PaletteStatsSnapshot {
            picks_served: self.n() as u64,
            colors_struck: struck,
            words_cleared: 0,
        });
        picks
    }

    /// The first palette color of vertex `v` that `state` has not struck — identical to the
    /// Vec-scan `find(|c| !forbidden.contains(c) && !taken.contains(c))`, because the strike
    /// set is exactly `forbidden ∪ taken` within the palette's colors.
    fn pick(&self, v: Vertex, state: &PickState) -> Option<u64> {
        match &self.palettes {
            Palettes::Lists(pool) => state.struck.first_unstruck_of(pool.list(v)),
            Palettes::Ranges { .. } => state.struck.first_unstruck().map(|c| c + state.offset),
        }
    }
}

impl SweepRule for SlotSchedule {
    type Msg = u64;
    type Output = Option<u64>;
    type State = PickState;

    fn name(&self) -> &'static str {
        match self.palettes {
            Palettes::Lists(_) => "scheduled-list-color",
            Palettes::Ranges { .. } => "greedy-sweep",
        }
    }

    /// The slot, and a strike set holding the vertex's forbidden colors.
    fn start(&self, v: Vertex) -> (usize, PickState) {
        let (bound, offset) = match &self.palettes {
            Palettes::Lists(pool) => (pool.list(v).iter().copied().max().map_or(0, |c| c + 1), 0),
            Palettes::Ranges { offsets, size } => (*size, offsets[v]),
        };
        let mut state = PickState { struck: PaletteSet::new(bound), offset, chosen: None };
        for &c in self.forbidden.list(v) {
            state.strike(c);
        }
        (self.slots[v], state)
    }

    fn absorb(&self, state: &mut PickState, inbox: &Inbox<'_, u64>) {
        for (_, &c) in inbox.iter() {
            state.strike(c);
        }
    }

    fn announce(&self, v: Vertex, state: &mut PickState) -> Option<u64> {
        state.chosen = self.pick(v, state);
        self.stats.record_pick(state.struck.struck_count());
        state.chosen
    }

    fn output(&self, _v: Vertex, state: &PickState) -> Option<u64> {
        state.chosen
    }
}

/// The colors of a pick sweep's outputs, or the first vertex that found no free color in
/// its palette: how a pick sweep fails when its palettes are too small.
pub fn picked_colors(picks: Vec<Option<u64>>) -> Result<Vec<u64>, Vertex> {
    picks.into_iter().enumerate().map(|(v, pick)| pick.ok_or(v)).collect()
}

/// The pre-palette-engine pick rule, preserved verbatim: the node clones its palette (a
/// range listed in full) and its forbidden set out of the schedule into `Vec`s, accumulates
/// announced colors (duplicates included) in a `Vec`, and picks with nested `contains` scans.
///
/// Kept as the raced baseline of experiment E24 and the `palette` Criterion group — the
/// same role the `ReferenceExecutor` plays for the executors.  Outputs are bit-identical
/// to the [`SlotSchedule`] sweep it shadows on every input.
#[derive(Debug, Clone)]
pub struct VecScanPick<'a>(pub &'a SlotSchedule);

/// The state of a vertex in a [`VecScanPick`] sweep.
#[derive(Debug, Clone)]
pub struct VecScanState {
    palette: Vec<u64>,
    forbidden: Vec<u64>,
    taken: Vec<u64>,
    chosen: Option<u64>,
}

impl SweepRule for VecScanPick<'_> {
    type Msg = u64;
    type Output = Option<u64>;
    type State = VecScanState;

    fn name(&self) -> &'static str {
        "vecscan-list-color"
    }

    fn start(&self, v: Vertex) -> (usize, VecScanState) {
        let palette = match &self.0.palettes {
            Palettes::Lists(pool) => pool.list(v).to_vec(),
            Palettes::Ranges { offsets, size } => (offsets[v]..offsets[v] + size).collect(),
        };
        let forbidden = self.0.forbidden.list(v).to_vec();
        (self.0.slots[v], VecScanState { palette, forbidden, taken: Vec::new(), chosen: None })
    }

    fn absorb(&self, state: &mut VecScanState, inbox: &Inbox<'_, u64>) {
        for (_, &c) in inbox.iter() {
            state.taken.push(c);
        }
    }

    fn announce(&self, _v: Vertex, state: &mut VecScanState) -> Option<u64> {
        let choice = state
            .palette
            .iter()
            .copied()
            .find(|c| !state.forbidden.contains(c) && !state.taken.contains(c));
        state.chosen = choice;
        choice
    }

    fn output(&self, _v: Vertex, state: &VecScanState) -> Option<u64> {
        state.chosen
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

/// The color-space bipartition rule.
///
/// Runs for exactly `num_slots` rounds; every vertex broadcasts its committed half once, in
/// its slot, and counts the neighbors' announcements as they arrive, so after round
/// `num_slots` it knows how many neighbors ended up on its half.  A vertex is stepped only
/// when announcements arrive, in its own slot, and in round `num_slots` to finalize — unless
/// its choice is already decided, in which case it is stepped in its slot alone (see
/// [`needs_mail`](HalvingSplit::needs_mail)).  A split slot is all-scalar, so node
/// construction is allocation-free.
#[derive(Debug, Clone)]
pub struct HalvingSplit {
    slots: Vec<SplitSlot>,
    num_slots: usize,
}

impl HalvingSplit {
    /// Creates the rule from one [`SplitSlot`] per vertex; every slot must be smaller than
    /// `num_slots`.
    pub fn new(slots: Vec<SplitSlot>, num_slots: usize) -> Self {
        assert!(num_slots > 0, "at least one slot is required");
        assert!(
            slots.iter().all(|s| s.slot < num_slots),
            "every slot must be smaller than num_slots"
        );
        HalvingSplit { slots, num_slots }
    }
}

impl SweepRule for HalvingSplit {
    type Msg = bool;
    type Output = SplitChoice;
    /// The neighbors committed to the lower and the upper half, and whether the vertex
    /// committed to the upper half.
    type State = ([usize; 2], bool);

    fn name(&self) -> &'static str {
        "halving-split"
    }

    fn start(&self, v: Vertex) -> (usize, ([usize; 2], bool)) {
        (self.slots[v].slot, ([0, 0], false))
    }

    fn absorb(&self, (committed, _): &mut ([usize; 2], bool), inbox: &Inbox<'_, bool>) {
        for (_, &high) in inbox.iter() {
            committed[usize::from(high)] += 1;
        }
    }

    /// Commits to the half with the larger remaining margin (palette share minus the
    /// neighbors already committed there); ties go to the larger share, then to `tie_high`.
    fn announce(&self, v: Vertex, (committed, high): &mut ([usize; 2], bool)) -> Option<bool> {
        let input = &self.slots[v];
        let margin_low = input.low_count as i64 - committed[0] as i64;
        let margin_high = input.high_count as i64 - committed[1] as i64;
        *high = match margin_high.cmp(&margin_low).then(input.high_count.cmp(&input.low_count)) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => input.tie_high,
        };
        Some(*high)
    }

    fn finalize_round(&self) -> Option<usize> {
        Some(self.num_slots)
    }

    /// A vertex is *decided* — needs no mail — exactly when its palette shares differ by
    /// more than its degree: `|low_count − high_count| > degree`.
    ///
    /// Proof.  Say `low_count > high_count + degree` (the other case is symmetric).  At
    /// most `degree` neighbors announce, once each, so whatever reaches the vertex,
    /// `committed[0] + committed[1] ≤ degree`.  Then in its slot
    /// `margin_high − margin_low = (high_count − low_count) + committed[0] − committed[1]
    /// ≤ high_count − low_count + degree < 0`, so it commits to the lower half; and in
    /// [`output`](SweepRule::output) its share `low_count > degree ≥ committed[0]`, so
    /// `share ≥ committed[0] + 1` and it never defers.  Its announcement and output are
    /// `Low` for every possible inbox.  When the shares differ by at most the degree, the
    /// neighbors' commitments can outweigh the difference — whether they do depends on the
    /// slots, which this test does not read — so the vertex keeps its mail.
    fn needs_mail(&self, v: Vertex, degree: usize) -> bool {
        let input = &self.slots[v];
        input.low_count.abs_diff(input.high_count) <= degree
    }

    /// Self-defers when the committed half cannot guarantee a greedy completion against the
    /// neighbors that committed to the same half.
    fn output(&self, v: Vertex, &(committed, high): &([usize; 2], bool)) -> SplitChoice {
        let input = &self.slots[v];
        let share = if high { input.high_count } else { input.low_count };
        if share < committed[usize::from(high)] + 1 {
            SplitChoice::Deferred
        } else if high {
            SplitChoice::High
        } else {
            SplitChoice::Low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{obs, Executor, ReferenceExecutor};
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

    /// A list-palette schedule from nested lists.
    fn lists(slots: &[usize], palettes: &[Vec<u64>], forbidden: &[Vec<u64>]) -> SlotSchedule {
        let (palettes, forbidden) =
            (ColorPool::from_nested(palettes), ColorPool::from_nested(forbidden));
        SlotSchedule::lists(slots.to_vec(), palettes, forbidden)
    }

    fn four_cycle() -> SlotSchedule {
        let palettes = [vec![9, 5], vec![5, 7], vec![5, 6], vec![5, 8]];
        lists(&[0, 1, 0, 1], &palettes, &[vec![9], vec![], vec![], vec![]])
    }

    #[test]
    fn scheduled_list_color_respects_lists_and_schedule() {
        // A 4-cycle scheduled by a proper 2-coloring; lists are disjoint from {9} via the
        // forbidden set of vertex 0.
        let g = generators::cycle(4).unwrap();
        let schedule = four_cycle();
        let result = Executor::new(&g).run(&SlotSweep(&schedule)).unwrap();
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
        let schedule = four_cycle();
        let bitset = Executor::new(&g).run(&SlotSweep(&schedule)).unwrap();
        let vecscan = Executor::new(&g).run(&SlotSweep(&VecScanPick(&schedule))).unwrap();
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
            let (palettes, forbidden): (Vec<Vec<u64>>, Vec<Vec<u64>>) = (0..n)
                .map(|_| {
                    let palette_len = draw(6) as usize;
                    let forbidden_len = 1 + draw(5) as usize;
                    (
                        (0..palette_len).map(|_| draw(12)).collect(),
                        (0..forbidden_len).map(|_| draw(14)).collect(),
                    )
                })
                .unzip();
            let g = arbcolor_graph::Graph::empty(n);
            let direct = lists(&vec![0; n], &palettes, &forbidden);
            let picks = direct.pick_isolated();
            let schedule = lists(&vec![0; n], &palettes, &forbidden);
            let run = ReferenceExecutor::new(&g).run(&SlotSweep(&schedule)).unwrap();
            assert_eq!(picks, run.outputs, "n = {n}");
            assert_eq!(run.report, crate::RoundReport::zero(), "n = {n}");
            assert_eq!(direct.stats().snapshot(), schedule.stats().snapshot(), "n = {n}");
            assert_eq!(direct.stats().snapshot().picks_served, n as u64);
            if n == 40 {
                // The draws cover both outcomes: exhausted lists and forbidden first choices.
                assert!(picks.contains(&None));
                assert!(palettes
                    .iter()
                    .zip(&picks)
                    .any(|(palette, p)| p.is_some() && palette.first() != p.as_ref()));
            }
        }
    }

    #[test]
    fn scheduled_list_color_reports_exhausted_lists_as_none() {
        let g = generators::path(2).unwrap();
        let schedule = lists(&[0, 1], &[vec![1], vec![1]], &[vec![], vec![]]);
        let result = Executor::new(&g).run(&SlotSweep(&schedule)).unwrap();
        assert_eq!(result.outputs[0], Some(1));
        assert_eq!(result.outputs[1], None);
        let vecscan = Executor::new(&g).run(&SlotSweep(&VecScanPick(&schedule))).unwrap();
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
        let split = HalvingSplit::new(slots, 3);
        let result = Executor::new(&g).run(&SlotSweep(&split)).unwrap();
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
        let palettes = [vec![1, 2], vec![1, 2, 3], vec![2, 1]];
        let schedule = lists(&[0, 4, 1], &palettes, &[vec![], vec![], vec![]]);
        let (result, rounds) =
            obs::recorded(|| Executor::new(&g).run(&SlotSweep(&schedule)).unwrap());
        assert_eq!(result.outputs, vec![Some(1), Some(3), Some(2)]);
        assert_eq!(result.report.rounds, 4);
        assert_eq!(rounds.iter().map(|r| r.frontier).collect::<Vec<_>>(), vec![2, 1, 0, 1]);
        let oracle = ReferenceExecutor::new(&g).run(&SlotSweep(&schedule)).unwrap();
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
        let split = HalvingSplit::new(slots, 4);
        let (result, rounds) = obs::recorded(|| Executor::new(&g).run(&SlotSweep(&split)).unwrap());
        assert_eq!(result.outputs, vec![SplitChoice::Low, SplitChoice::Low]);
        assert_eq!(result.report.rounds, 4);
        assert_eq!(rounds.iter().map(|r| r.frontier).collect::<Vec<_>>(), vec![1, 1, 0, 2]);
        let oracle = ReferenceExecutor::new(&g).run(&SlotSweep(&split)).unwrap();
        assert_eq!(oracle.outputs, result.outputs);
        assert_eq!(oracle.report, result.report);
    }

    #[test]
    fn halving_split_steps_a_decided_vertex_in_its_slot_only() {
        // A star: the center (slot 1) holds three colors in each half, so its choice turns
        // on its mail; each leaf holds three lower-half colors and one neighbor, so it goes
        // Low whatever it hears.  Leaf 1 announces in `init` and waits to halt in round 4,
        // leaves 2 and 3 sleep until their slots 1 and 2: round 1 steps the center and leaf
        // 2, round 2 the center (leaf 2's announcement) and leaf 3, round 3 the center (leaf
        // 3's), and round 4 the center alone, to finalize, while the leaves halt unstepped.
        // Stepping every leaf on the center's announcement and in round 4 as well would
        // give [2, 4, 1, 4].
        let g = generators::star(4).unwrap();
        let leaf = |slot| SplitSlot { slot, low_count: 3, high_count: 0, tie_high: false };
        let slots = vec![
            SplitSlot { slot: 1, low_count: 3, high_count: 3, tie_high: false },
            leaf(0),
            leaf(1),
            leaf(2),
        ];
        let split = HalvingSplit::new(slots, 4);
        assert!(split.needs_mail(0, 3), "the center is undecided");
        assert!((1..4).all(|v| !split.needs_mail(v, 1)), "the leaves are decided");
        let (result, rounds) = obs::recorded(|| Executor::new(&g).run(&SlotSweep(&split)).unwrap());
        // The center heard leaf 1 commit Low before its slot, so High has the larger margin.
        let expected = [SplitChoice::High, SplitChoice::Low, SplitChoice::Low, SplitChoice::Low];
        assert_eq!(result.outputs, expected);
        assert_eq!(result.report.rounds, 4);
        assert_eq!(rounds.iter().map(|r| r.frontier).collect::<Vec<_>>(), vec![2, 2, 1, 1]);
        assert_eq!(rounds.iter().map(|r| r.halts).collect::<Vec<_>>(), vec![0, 0, 0, 4]);
        let (oracle, oracle_rounds) =
            obs::recorded(|| ReferenceExecutor::new(&g).run(&SlotSweep(&split)).unwrap());
        assert_eq!(oracle.outputs, result.outputs);
        assert_eq!(oracle.report, result.report);
        let shared = |rounds: &[obs::RoundInstant]| -> Vec<(usize, usize, usize)> {
            rounds.iter().map(|r| (r.active, r.halts, r.messages)).collect()
        };
        assert_eq!(shared(&oracle_rounds), shared(&rounds));
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
        let split = HalvingSplit::new(slots, 1);
        let result = Executor::new(&g).run(&SlotSweep(&split)).unwrap();
        assert_eq!(result.outputs, vec![SplitChoice::Deferred, SplitChoice::Deferred]);
    }
}
