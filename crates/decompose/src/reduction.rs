//! Color-count reductions: greedy class sweeps and Kuhn–Wattenhofer halving.
//!
//! * [`run_greedy_sweep`] is the workhorse: the [`SlotSweep`] of a range-palette
//!   [`SlotSchedule`].  Every vertex is given a *slot*; in its slot it picks the smallest
//!   color of its private palette range that is not forbidden and not announced by a
//!   neighbor that already picked, then announces its choice.  When the slots come from a
//!   legal coloring (neighbors never share a slot) and the palette is large enough, the
//!   result is a legal coloring.  Cost: `max_slot` rounds.  Announced colors are struck into
//!   a per-vertex bitset shifted by the palette offset, so a pick is a single word scan over
//!   the range, and the bitset is as long as one range, not the whole color space: the
//!   ranges of [`kw_reduce`] start at `block · (Δ+1)` for large block indices.
//! * [`greedy_reduce`] reduces a legal `k`-coloring to a `palette`-coloring in `O(k)` rounds
//!   (one class per round) — the folklore reduction.
//! * [`kw_reduce`] reduces a legal `k`-coloring to a `(Δ+1)`-coloring in
//!   `O(Δ · log(k / Δ))` rounds by halving the palette with parallel block sweeps
//!   (Kuhn–Wattenhofer PODC'06).

use crate::error::DecomposeError;
use arbcolor_graph::{ColorPool, Coloring, Graph};
use arbcolor_runtime::algorithms::{picked_colors, SlotSchedule, SlotSweep};
use arbcolor_runtime::{run_algorithm, RoundReport};

/// Runs a greedy sweep (the [`SlotSweep`] of a [`SlotSchedule`]) and returns the chosen
/// colors, flushing the schedule's palette counters into the installed metrics registry.
///
/// # Errors
///
/// Returns [`DecomposeError::InvariantViolated`] if a vertex could not find a free color in
/// its palette (the caller supplied an insufficient palette), and propagates runtime errors.
pub fn run_greedy_sweep(
    graph: &Graph,
    schedule: &SlotSchedule,
) -> Result<(Vec<u64>, RoundReport), DecomposeError> {
    assert_eq!(schedule.n(), graph.n(), "one sweep slot per vertex");
    let result = run_algorithm(graph, &SlotSweep(schedule))?;
    arbcolor_runtime::obs::record_palette(schedule.stats());
    let colors = picked_colors(result.outputs).map_err(|v| DecomposeError::InvariantViolated {
        reason: format!("vertex {v} found no free color in its palette during a greedy sweep"),
    })?;
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
    let slots = normalized.colors().iter().map(|&c| c as usize).collect();
    let schedule =
        SlotSchedule::ranges(slots, vec![0; graph.n()], palette, ColorPool::empty_lists(graph.n()));
    let (colors, report) = run_greedy_sweep(graph, &schedule)?;
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
        let classes = current.colors();
        let slots = classes.iter().map(|&c| (c % block_size) as usize).collect();
        let offsets = classes.iter().map(|&c| c / block_size * target).collect();
        let forbidden = ColorPool::empty_lists(graph.n());
        let schedule = SlotSchedule::ranges(slots, offsets, target, forbidden);
        let (colors, report) = run_greedy_sweep(graph, &schedule)?;
        total = total.then(report);
        let reduced = Coloring::new(graph, colors)?;
        debug_assert!(reduced.is_legal(graph));
        (current, k) = reduced.normalized();
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

    /// A schedule of the range `[offset, offset + size)` at every vertex.
    fn ranges(slots: Vec<usize>, offset: u64, size: u64, forbidden: &[Vec<u64>]) -> SlotSchedule {
        let n = slots.len();
        SlotSchedule::ranges(slots, vec![offset; n], size, ColorPool::from_nested(forbidden))
    }

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
        let schedule = ranges(vec![0, 1, 2], 10, 3, &[vec![10], vec![], vec![10, 11]]);
        let (colors, report) = run_greedy_sweep(&g, &schedule).unwrap();
        assert_eq!(colors[0], 11);
        assert_ne!(colors[1], colors[0]);
        assert_eq!(colors[2], 12);
        assert!(report.rounds >= 2);
        // One pick per vertex was served from the offset-shifted bitset.
        assert_eq!(schedule.stats().snapshot().picks_served, 0, "flushed by run_greedy_sweep");
    }

    #[test]
    fn greedy_sweep_steps_a_waiting_vertex_only_on_mail_and_in_its_slot() {
        // Path 0 – 1 – 2 – 3 with slots (3, 0, 2, 1) over the range [10, 13).  Vertex 0
        // forbids 5 (below the offset) and 20 (past the range), which strike nothing.  Round 1
        // steps vertices 0 and 2 (vertex 1's announcement) and vertex 3 (its slot), round 2
        // vertex 2 (its slot and vertex 3's announcement), and round 3 vertex 0, which has
        // waited silently for its slot since its mail in round 1.
        use arbcolor_graph::PaletteStatsSnapshot;
        use arbcolor_runtime::{obs, Executor, ReferenceExecutor};
        let g = generators::path(4).unwrap();
        let schedule = ranges(vec![3, 0, 2, 1], 10, 3, &[vec![5, 20], vec![], vec![], vec![]]);
        let collector = obs::SpanCollector::new();
        let guard = obs::install(&collector);
        let result = Executor::new(&g).run(&SlotSweep(&schedule)).unwrap();
        drop(guard);
        let frontier: Vec<usize> =
            collector.snapshot()[0].rounds.iter().map(|r| r.frontier).collect();
        assert_eq!(result.outputs, vec![Some(11), Some(10), Some(11), Some(10)]);
        assert_eq!(result.report.rounds, 3);
        assert_eq!(result.report.messages, 6);
        assert_eq!(frontier, vec![3, 1, 1]);
        // Vertices 2 and 0 each strike 10 once; the out-of-range forbidden colors strike
        // nothing.
        let stats = PaletteStatsSnapshot { picks_served: 4, colors_struck: 2, words_cleared: 0 };
        assert_eq!(schedule.stats().snapshot(), stats);
        let oracle = ReferenceExecutor::new(&g).run(&SlotSweep(&schedule)).unwrap();
        assert_eq!(oracle.outputs, result.outputs);
        assert_eq!(oracle.report, result.report);
    }

    #[test]
    fn sweep_reports_palette_exhaustion() {
        let g = generators::complete(3).unwrap();
        let schedule = ranges(vec![0, 1, 2], 0, 2, &[vec![], vec![], vec![]]);
        let err = run_greedy_sweep(&g, &schedule).unwrap_err();
        assert!(matches!(err, DecomposeError::InvariantViolated { .. }));
    }
}
