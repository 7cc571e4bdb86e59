//! Color-count reductions: greedy class sweeps and Kuhn–Wattenhofer halving.
//!
//! * [`GreedySweep`] is the workhorse node program: every vertex is given a *slot*; in its
//!   slot it picks the smallest color of its private palette range that is not forbidden and
//!   not announced by a neighbor that already picked, then announces its choice.  When the
//!   slots come from a legal coloring (neighbors never share a slot) and the palette is large
//!   enough, the result is a legal coloring.  Cost: `max_slot + 1` rounds.  Slot data lives
//!   flattened in a shared [`SweepSchedule`] arena, and announced colors are struck into a
//!   per-vertex [`PaletteSet`] bitset shifted by the palette offset, so a pick is a single
//!   word scan over the range instead of nested `Vec` scans.
//! * [`greedy_reduce`] reduces a legal `k`-coloring to a `palette`-coloring in `O(k)` rounds
//!   (one class per round) — the folklore reduction.
//! * [`kw_reduce`] reduces a legal `k`-coloring to a `(Δ+1)`-coloring in
//!   `O(Δ · log(k / Δ))` rounds by halving the palette with parallel block sweeps
//!   (Kuhn–Wattenhofer PODC'06).

use crate::error::DecomposeError;
use arbcolor_graph::{ColorPool, Coloring, Graph, PaletteSet, PaletteStats};
use arbcolor_runtime::{run_algorithm, Algorithm, Inbox, NodeCtx, Outbox, RoundReport, Status};

/// Per-vertex input of the greedy sweep (the construction-time view; at run time the data
/// lives flattened inside a [`SweepSchedule`]).
#[derive(Debug, Clone)]
pub struct SweepSlot {
    /// The round in which this vertex picks its color (vertices with slot 0 pick immediately).
    pub slot: usize,
    /// First color of this vertex's palette range.
    pub palette_offset: u64,
    /// Size of this vertex's palette range.
    pub palette_size: u64,
    /// Colors this vertex must avoid in addition to its neighbors' choices (e.g. colors of
    /// already-colored neighbors outside the current subgraph).
    pub forbidden: Vec<u64>,
}

/// The shared per-execution arena of one [`GreedySweep`] run: the scalar slot data per
/// vertex, the forbidden sets in one flat [`ColorPool`], and the [`PaletteStats`] reuse
/// counters the nodes feed.
#[derive(Debug)]
pub struct SweepSchedule {
    slots: Vec<usize>,
    offsets: Vec<u64>,
    sizes: Vec<u64>,
    forbidden: ColorPool,
    stats: PaletteStats,
}

impl SweepSchedule {
    /// Flattens one [`SweepSlot`] per vertex into a schedule.
    pub fn new(inputs: &[SweepSlot]) -> Self {
        let mut forbidden =
            ColorPool::with_capacity(inputs.len(), inputs.iter().map(|s| s.forbidden.len()).sum());
        for input in inputs {
            forbidden.push_slice(&input.forbidden);
        }
        SweepSchedule {
            slots: inputs.iter().map(|s| s.slot).collect(),
            offsets: inputs.iter().map(|s| s.palette_offset).collect(),
            sizes: inputs.iter().map(|s| s.palette_size).collect(),
            forbidden,
            stats: PaletteStats::default(),
        }
    }

    /// Number of vertices the schedule covers.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// The reuse counters fed by this schedule's nodes; [`run_greedy_sweep`] flushes them
    /// into the installed metrics registry after the run.
    pub fn stats(&self) -> &PaletteStats {
        &self.stats
    }
}

/// The greedy sweep algorithm (node-program factory).
#[derive(Debug, Clone)]
pub struct GreedySweep<'a> {
    schedule: &'a SweepSchedule,
}

impl<'a> GreedySweep<'a> {
    /// Creates the sweep over a shared [`SweepSchedule`] arena.
    pub fn new(schedule: &'a SweepSchedule) -> Self {
        GreedySweep { schedule }
    }
}

/// Node program of [`GreedySweep`]: strikes forbidden and announced colors, shifted by the
/// palette offset, into a [`PaletteSet`] over `[0, palette_size)`.
///
/// The offset shift matters: [`kw_reduce`] hands out ranges like `block · (Δ+1)` for large
/// block indices, so an unshifted bitset over absolute colors would be as long as the whole
/// color space instead of one palette range.
#[derive(Debug, Clone)]
pub struct GreedySweepNode<'a> {
    slot: usize,
    offset: u64,
    stats: &'a PaletteStats,
    struck: PaletteSet,
    chosen: Option<u64>,
}

impl GreedySweepNode<'_> {
    fn strike(&mut self, color: u64) {
        // Colors outside [offset, offset + size) can never be picked; ignore them.
        if color >= self.offset {
            self.struck.strike(color - self.offset);
        }
    }

    fn pick(&mut self) -> Option<u64> {
        // Smallest unstruck color of the range — identical to the Vec-scan
        // `range.find(|c| !forbidden.contains(c) && !taken.contains(c))`.
        let choice = self.struck.first_unstruck().map(|c| c + self.offset);
        self.chosen = choice;
        self.stats.record_pick(self.struck.struck_count());
        choice
    }
}

impl arbcolor_runtime::node::NodeProgram for GreedySweepNode<'_> {
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
            self.strike(c);
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

impl<'a> Algorithm for GreedySweep<'a> {
    type Node = GreedySweepNode<'a>;

    fn node(&self, ctx: &NodeCtx) -> GreedySweepNode<'a> {
        let v = ctx.vertex;
        let offset = self.schedule.offsets[v];
        let mut node = GreedySweepNode {
            slot: self.schedule.slots[v],
            offset,
            stats: self.schedule.stats(),
            struck: PaletteSet::new(self.schedule.sizes[v]),
            chosen: None,
        };
        for &c in self.schedule.forbidden.list(v) {
            node.strike(c);
        }
        node
    }

    fn name(&self) -> &'static str {
        "greedy-sweep"
    }
}

/// Runs a greedy sweep over a [`SweepSchedule`] and returns the chosen colors, flushing the
/// schedule's palette counters into the installed metrics registry.
///
/// # Errors
///
/// Returns [`DecomposeError::InvariantViolated`] if a vertex could not find a free color in
/// its palette (the caller supplied an insufficient palette), and propagates runtime errors.
pub fn run_greedy_sweep(
    graph: &Graph,
    schedule: &SweepSchedule,
) -> Result<(Vec<u64>, RoundReport), DecomposeError> {
    assert_eq!(schedule.n(), graph.n(), "one sweep slot per vertex");
    let algorithm = GreedySweep::new(schedule);
    let result = run_algorithm(graph, &algorithm)?;
    arbcolor_runtime::obs::record_palette(schedule.stats());
    let mut colors = Vec::with_capacity(graph.n());
    for (v, chosen) in result.outputs.into_iter().enumerate() {
        match chosen {
            Some(c) => colors.push(c),
            None => {
                return Err(DecomposeError::InvariantViolated {
                    reason: format!(
                        "vertex {v} found no free color in its palette during a greedy sweep"
                    ),
                })
            }
        }
    }
    Ok((colors, result.report))
}

/// Output of the reduction helpers.
#[derive(Debug, Clone)]
pub struct ReducedColoring {
    /// The reduced coloring.
    pub coloring: Coloring,
    /// LOCAL cost of the reduction.
    pub report: RoundReport,
}

/// Reduces a legal coloring to at most `palette` colors by sweeping one color class per round.
///
/// Requires `palette ≥ Δ + 1`; costs `k` rounds where `k` is the number of distinct input
/// colors.
///
/// # Errors
///
/// Returns [`DecomposeError::InvalidParameter`] if the input coloring is not legal or the
/// palette is smaller than `Δ + 1`.
pub fn greedy_reduce(
    graph: &Graph,
    coloring: &Coloring,
    palette: u64,
) -> Result<ReducedColoring, DecomposeError> {
    if !coloring.is_legal(graph) {
        return Err(DecomposeError::InvalidParameter {
            reason: "greedy_reduce requires a legal input coloring".to_string(),
        });
    }
    if palette < graph.max_degree() as u64 + 1 {
        return Err(DecomposeError::InvalidParameter {
            reason: format!("palette {palette} is smaller than Δ + 1 = {}", graph.max_degree() + 1),
        });
    }
    let (normalized, _) = coloring.normalized();
    let slots: Vec<SweepSlot> = graph
        .vertices()
        .map(|v| SweepSlot {
            slot: normalized.color(v) as usize,
            palette_offset: 0,
            palette_size: palette,
            forbidden: Vec::new(),
        })
        .collect();
    let (colors, report) = run_greedy_sweep(graph, &SweepSchedule::new(&slots))?;
    let coloring = Coloring::new(graph, colors)?;
    debug_assert!(coloring.is_legal(graph));
    Ok(ReducedColoring { coloring, report })
}

/// Kuhn–Wattenhofer reduction of a legal coloring to `Δ + 1` colors in
/// `O(Δ · log(k / Δ))` rounds.
///
/// # Errors
///
/// Returns [`DecomposeError::InvalidParameter`] if the input coloring is not legal, and
/// propagates sweep errors.
pub fn kw_reduce(graph: &Graph, coloring: &Coloring) -> Result<ReducedColoring, DecomposeError> {
    if !coloring.is_legal(graph) {
        return Err(DecomposeError::InvalidParameter {
            reason: "kw_reduce requires a legal input coloring".to_string(),
        });
    }
    let target = graph.max_degree() as u64 + 1;
    let (mut current, mut k) = coloring.normalized();
    let mut total = RoundReport::zero();
    // Each pass halves the number of colors (roughly) until it fits in one block.
    let mut guard = 0;
    while (k as u64) > target {
        let block_size = 2 * target;
        let slots: Vec<SweepSlot> = graph
            .vertices()
            .map(|v| {
                let c = current.color(v);
                let block = c / block_size;
                SweepSlot {
                    slot: (c % block_size) as usize,
                    palette_offset: block * target,
                    palette_size: target,
                    forbidden: Vec::new(),
                }
            })
            .collect();
        let (colors, report) = run_greedy_sweep(graph, &SweepSchedule::new(&slots))?;
        total = total.then(report);
        let reduced = Coloring::new(graph, colors)?;
        debug_assert!(reduced.is_legal(graph));
        let (normalized, new_k) = reduced.normalized();
        current = normalized;
        k = new_k;
        guard += 1;
        if guard > 64 {
            return Err(DecomposeError::InvariantViolated {
                reason: "kw_reduce failed to converge".to_string(),
            });
        }
    }
    Ok(ReducedColoring { coloring: current, report: total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn greedy_reduce_reaches_delta_plus_one() {
        let g = generators::gnp(120, 0.08, 2).unwrap().with_shuffled_ids(1);
        let ids = Coloring::from_ids(&g);
        let delta = g.max_degree() as u64;
        let reduced = greedy_reduce(&g, &ids, delta + 1).unwrap();
        assert!(reduced.coloring.is_legal(&g));
        assert!(reduced.coloring.max_color() <= delta);
        // One class per round: at most n rounds (exactly the number of distinct input colors).
        assert!(reduced.report.rounds <= g.n() + 1);
    }

    #[test]
    fn greedy_reduce_rejects_bad_inputs() {
        let g = generators::cycle(5).unwrap();
        let constant = Coloring::constant(&g);
        assert!(greedy_reduce(&g, &constant, 10).is_err());
        let ids = Coloring::from_ids(&g);
        assert!(greedy_reduce(&g, &ids, 1).is_err());
    }

    #[test]
    fn kw_reduce_reaches_delta_plus_one_faster_than_greedy_on_many_colors() {
        let g = generators::gnp(300, 0.03, 5).unwrap().with_shuffled_ids(3);
        let ids = Coloring::from_ids(&g);
        let delta = g.max_degree() as u64;
        let kw = kw_reduce(&g, &ids).unwrap();
        assert!(kw.coloring.is_legal(&g));
        assert!(kw.coloring.max_color() <= delta);
        let greedy = greedy_reduce(&g, &ids, delta + 1).unwrap();
        assert!(
            kw.report.rounds < greedy.report.rounds,
            "KW ({}) should beat the one-class-per-round sweep ({}) when k ≫ Δ",
            kw.report.rounds,
            greedy.report.rounds
        );
    }

    #[test]
    fn kw_reduce_is_a_no_op_when_already_small() {
        let g = generators::cycle(6).unwrap();
        let two_coloring = Coloring::new(&g, vec![0, 1, 0, 1, 0, 1]).unwrap();
        let reduced = kw_reduce(&g, &two_coloring).unwrap();
        assert_eq!(reduced.report.rounds, 0);
        assert!(reduced.coloring.is_legal(&g));
    }

    #[test]
    fn sweep_with_forbidden_colors_and_offsets() {
        let g = generators::path(3).unwrap();
        let slots = vec![
            SweepSlot { slot: 0, palette_offset: 10, palette_size: 3, forbidden: vec![10] },
            SweepSlot { slot: 1, palette_offset: 10, palette_size: 3, forbidden: vec![] },
            SweepSlot { slot: 2, palette_offset: 10, palette_size: 3, forbidden: vec![10, 11] },
        ];
        let schedule = SweepSchedule::new(&slots);
        let (colors, report) = run_greedy_sweep(&g, &schedule).unwrap();
        assert_eq!(colors[0], 11);
        assert_ne!(colors[1], colors[0]);
        assert_eq!(colors[2], 12);
        assert!(report.rounds >= 2);
        // One pick per vertex was served from the offset-shifted bitset.
        assert_eq!(schedule.stats().snapshot().picks_served, 0, "flushed by run_greedy_sweep");
    }

    #[test]
    fn sweep_reports_palette_exhaustion() {
        let g = generators::complete(3).unwrap();
        let slots: Vec<SweepSlot> = (0..3)
            .map(|v| SweepSlot { slot: v, palette_offset: 0, palette_size: 2, forbidden: vec![] })
            .collect();
        let err = run_greedy_sweep(&g, &SweepSchedule::new(&slots)).unwrap_err();
        assert!(matches!(err, DecomposeError::InvariantViolated { .. }));
    }
}
