//! The **Ghaffari–Kuhn** deterministic `(deg+1)`-list coloring driver (arXiv:2011.04511),
//! the repository's second headline algorithm next to Procedure Legal-Coloring.
//!
//! Ghaffari and Kuhn showed that a deterministic distributed algorithm can `(Δ+1)`-color (and
//! more generally `(deg+1)`-list color) every graph in `O(log² Δ · log n)` rounds, without
//! network decomposition — where Barenboim–Elkin is parameterized by arboricity, Ghaffari–Kuhn
//! is parameterized by degree, which makes the two algorithms natural contenders on the same
//! inputs.  This module implements the list-coloring pipeline the paper is built from, in the
//! structure of Kuhn's recursive list coloring (arXiv:1907.03797):
//!
//! 1. **Local list generation** — every vertex derives its private list from local knowledge
//!    only ([`ColorLists::degree_plus_one`]; any instance with greedy slack is accepted).
//! 2. **Defective-coloring-based degree reduction** — each recursion level computes a
//!    defective coloring of the current subgraph (`O(log* n)` rounds) and folds its classes
//!    into `O(log Δ)` announcement slots, so that every vertex coordinates with all but a
//!    small fraction of its neighbors when choosing a half of the color space.
//! 3. **Recursive color-space halving** — the color space is split in two; scheduled by the
//!    slots, every vertex commits to the half with the larger remaining margin (its palette
//!    share there minus the neighbors already committed there).  The two halves are disjoint
//!    sub-instances that recurse *in parallel*; after `O(log Δ)` levels the color space is
//!    constant and the instance is finished by a greedy list sweep over a legal schedule.
//!
//! A vertex whose committed half cannot guarantee a proper greedy completion (its palette
//! share is at most the number of same-half neighbors) *defers*: it drops out of the
//! recursion and is colored at the very end by one cleanup sweep from its original list,
//! which always succeeds because the original lists have greedy slack.  The deferral rule
//! makes legality and list-membership **unconditional**; the recursion only has to keep the
//! deferred set small.
//!
//! **What a level costs.**  A level pays for the instances it holds, not for the whole graph.
//! Before an instance is induced, the driver marks its vertices in one graph-sized bitset and
//! walks their arcs up to the first one that stays inside.  An instance with an edge stops
//! there and is induced as usual.  An instance without one needs no schedule and no rounds:
//! it is colored straight from its list pool, every vertex taking the first color of its
//! list, and neither a subgraph nor a strike set is built for it.  On a star-forest union this
//! is the level-1 instance of every leaf that chose the same half.  The root instance borrows
//! the caller's lists, and only the halves the first split writes are copies.  Within a
//! split, a vertex whose list lies so far on one side of the midpoint that its two shares
//! differ by more than its degree cannot be turned or deferred by any neighbor, so it is
//! stepped once, in its slot: it sleeps until then and halts at the end of the split without
//! a finalize step (see `HalvingSplit`).  On a star-forest union those are the leaves, whose
//! lists `{0, …, deg}` sit wholly in the lower half of the level-0 split.
//!
//! **Deviation from the paper.**  Ghaffari–Kuhn derandomize a one-round random color trial
//! via the method of conditional expectations; this reproduction instead derandomizes the
//! half-choice through the defective-coloring schedule above, which preserves the paper's
//! building blocks (defective colorings, list slack, color-space recursion) and its
//! `O(log² Δ · log n)` round envelope on the generator suite (asserted by the property
//! tests and tracked by experiment E16), but not the exact constant-factor analysis.

use crate::error::CoreError;
use crate::list_coloring::ColorLists;
use crate::report::ColoringRun;
use arbcolor_decompose::defective::defective_coloring;
use arbcolor_decompose::linial::linial_coloring;
use arbcolor_decompose::reduction::kw_reduce;
use arbcolor_graph::{ColorPool, Coloring, Graph, InducedSubgraph, Vertex};
use arbcolor_runtime::algorithms::{
    picked_colors, HalvingSplit, SlotSchedule, SlotSweep, SplitChoice, SplitSlot,
};
use arbcolor_runtime::{obs, parallel_max, run_algorithm, RoundReport};
use std::borrow::Cow;

/// Color-space size at or below which an instance is finished by a direct greedy list sweep
/// (its maximum degree is below this bound too, because lists have greedy slack).
const BASE_SPACE: u64 = 8;

/// Upper bound on the number of announcement slots of one halving phase.
const MAX_SLOTS: usize = 64;

/// One sub-instance of the recursion: a strictly ascending set of original-graph vertices,
/// their remaining lists (a flat [`ColorPool`], one list per kept vertex in order; the root
/// borrows the caller's pool), and the color-space interval `[lo, hi)` the lists live in.
struct Instance<'a> {
    vertices: Vec<Vertex>,
    lists: Cow<'a, ColorPool>,
    lo: u64,
    hi: u64,
}

/// The `(deg+1)`-list coloring entry point: every vertex generates the local list
/// `{0, …, deg(v)}`, so the result is a legal coloring with at most `Δ + 1` colors in which
/// low-degree vertices hold low colors.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn ghaffari_kuhn_coloring(graph: &Graph) -> Result<ColoringRun, CoreError> {
    ghaffari_kuhn_list_coloring(graph, &ColorLists::degree_plus_one(graph))
}

/// The classical `(Δ+1)`-coloring entry point: every vertex lists the full `{0, …, Δ}`.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn ghaffari_kuhn_delta_plus_one(graph: &Graph) -> Result<ColoringRun, CoreError> {
    ghaffari_kuhn_list_coloring(graph, &ColorLists::delta_plus_one(graph))
}

/// Solves an arbitrary list-coloring instance with greedy slack (`|Ψ(v)| ≥ deg(v) + 1`).
///
/// The returned [`ColoringRun`] carries the coloring (verified legal and list-respecting),
/// the color-space bound as `palette_bound`, and the per-level cost breakdown.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the instance does not cover the graph or lacks
/// greedy slack; propagates substrate errors.
pub fn ghaffari_kuhn_list_coloring(
    graph: &Graph,
    lists: &ColorLists,
) -> Result<ColoringRun, CoreError> {
    if lists.n() != graph.n() {
        return Err(CoreError::InvalidParameter {
            reason: format!(
                "instance covers {} vertices but the graph has {}",
                lists.n(),
                graph.n()
            ),
        });
    }
    if !lists.has_greedy_slack(graph) {
        return Err(CoreError::InvalidParameter {
            reason: format!(
                "the instance lacks greedy slack (min |Ψ(v)| − deg(v) − 1 = {})",
                lists.min_slack(graph)
            ),
        });
    }
    let space = lists.color_space();
    let mut report = RoundReport::zero();
    let mut colors: Vec<Option<u64>> = vec![None; graph.n()];
    let mut deferred: Vec<Vertex> = Vec::new();
    let mut active = vec![Instance {
        vertices: graph.vertices().collect(),
        lists: Cow::Borrowed(lists.pool()),
        lo: 0,
        hi: space,
    }];
    let mut members = vec![0u64; graph.n().div_ceil(64)];
    let mut level = 0usize;

    while !active.is_empty() {
        // One observability span per halving level; the executor runs of the level
        // (defective colorings, the scheduled bipartition, leaf sweeps) nest inside it.
        let level_span = obs::phase(format!("level-{level}"));
        let mut splitters = Vec::new();
        let mut leaf_reports = Vec::new();
        let mut next = Vec::new();
        for inst in active {
            if inst.vertices.is_empty() {
                continue;
            }
            if !has_internal_edge(graph, &inst.vertices, &mut members) {
                let forbidden = ColorPool::empty_lists(inst.vertices.len());
                for (&v, c) in
                    inst.vertices.iter().zip(pick_isolated(inst.lists.into_owned(), forbidden)?)
                {
                    colors[v] = Some(c);
                }
                continue;
            }
            let sub = InducedSubgraph::new(graph, &inst.vertices);
            if inst.hi - inst.lo <= BASE_SPACE {
                let forbidden = ColorPool::empty_lists(sub.graph.n());
                let (leaf_colors, report) =
                    scheduled_sweep(&sub.graph, inst.lists.into_owned(), forbidden)?;
                for (child, c) in leaf_colors.into_iter().enumerate() {
                    colors[sub.map.to_parent(child)] = Some(c);
                }
                leaf_reports.push(report);
            } else {
                splitters.push((inst, sub));
            }
        }

        // One halving phase per splitter: a defective-coloring schedule followed by the
        // scheduled bipartition.  All instances of a level are vertex-disjoint and proceed
        // concurrently, alongside the leaves finished at this level.
        let mut split_reports = Vec::new();
        for (inst, sub) in splitters {
            let mid = inst.lo + (inst.hi - inst.lo) / 2;
            let delta = sub.graph.max_degree().max(1);
            let num_slots = ((((delta + 2) as f64).log2().ceil() as usize) * 2).clamp(2, MAX_SLOTS);
            let defective = defective_coloring(&sub.graph, num_slots)?;
            let slots: Vec<SplitSlot> = (0..sub.graph.n())
                .map(|child| {
                    let class = defective.output.coloring.color(child) as usize;
                    let list = inst.lists.list(child);
                    let low_count = list.partition_point(|&c| c < mid);
                    SplitSlot {
                        slot: class % num_slots,
                        low_count,
                        high_count: list.len() - low_count,
                        tie_high: (class / num_slots) % 2 == 1,
                    }
                })
                .collect();
            let split = HalvingSplit::new(slots, num_slots);
            let result = run_algorithm(&sub.graph, &SlotSweep(&split))?;
            split_reports.push(defective.output.report.then(result.report));

            let (mut low, mut high) =
                ((Vec::new(), ColorPool::new()), (Vec::new(), ColorPool::new()));
            for (child, choice) in result.outputs.iter().enumerate() {
                let parent = sub.map.to_parent(child);
                let list = inst.lists.list(child);
                let low_count = list.partition_point(|&c| c < mid);
                match choice {
                    SplitChoice::Low => {
                        low.0.push(parent);
                        low.1.push_slice(&list[..low_count]);
                    }
                    SplitChoice::High => {
                        high.0.push(parent);
                        high.1.push_slice(&list[low_count..]);
                    }
                    SplitChoice::Deferred => deferred.push(parent),
                }
            }
            for ((vertices, lists), lo, hi) in [(low, inst.lo, mid), (high, mid, inst.hi)] {
                if !vertices.is_empty() {
                    next.push(Instance { vertices, lists: Cow::Owned(lists), lo, hi });
                }
            }
        }

        let level_report = parallel_max(&leaf_reports).alongside(parallel_max(&split_reports));
        report = report.then(level_report);
        level_span.charge(level_report);
        drop(level_span);
        active = next;
        level += 1;
    }

    // Deferred vertices are colored last, from their *original* lists, avoiding the final
    // colors of their already-colored neighbors; the original greedy slack guarantees success.
    if !deferred.is_empty() {
        let cleanup_span = obs::phase("deferred-cleanup");
        let sub = InducedSubgraph::new(graph, &deferred);
        let mut cleanup_lists = ColorPool::new();
        let mut forbidden = ColorPool::new();
        for child in 0..sub.graph.n() {
            let parent = sub.map.to_parent(child);
            cleanup_lists.push_slice(lists.list(parent));
            forbidden.push_iter(graph.neighbors(parent).iter().filter_map(|&u| colors[u]));
        }
        let (cleanup_colors, cleanup) = scheduled_sweep(&sub.graph, cleanup_lists, forbidden)?;
        for (child, c) in cleanup_colors.into_iter().enumerate() {
            colors[sub.map.to_parent(child)] = Some(c);
        }
        cleanup_span.charge(cleanup);
        report = report.then(cleanup);
    }

    let colors: Vec<u64> =
        colors.into_iter().map(|c| c.expect("the recursion covers every vertex")).collect();
    let coloring = Coloring::new(graph, colors)?;
    lists.verify(graph, &coloring)?;
    Ok(ColoringRun::new(coloring, space, report))
}

/// Whether the subgraph of `graph` induced by `vertices` has an edge.  The members are marked
/// in `members`, one bit per vertex of `graph` (all clear on entry and on return), and their
/// arcs are walked up to the first one that stays inside: an instance with edges stops
/// early, and only an independent one walks every arc.  No subgraph is built either way.
fn has_internal_edge(graph: &Graph, vertices: &[Vertex], members: &mut [u64]) -> bool {
    for &v in vertices {
        members[v / 64] |= 1 << (v % 64);
    }
    let found = vertices
        .iter()
        .any(|&v| graph.neighbors(v).iter().any(|&u| members[u / 64] & (1 << (u % 64)) != 0));
    for &v in vertices {
        members[v / 64] = 0;
    }
    found
}

/// The colors of an instance whose vertices have no neighbor in it, straight from its
/// lists: every vertex takes the first color of its list outside its forbidden set, at zero
/// cost ([`SlotSchedule::pick_isolated`]).  The independent instances of the recursion take
/// this path with nothing forbidden, so no subgraph and no strike set is built for them.
fn pick_isolated(lists: ColorPool, forbidden: ColorPool) -> Result<Vec<u64>, CoreError> {
    let schedule = SlotSchedule::lists(vec![0; lists.len()], lists, forbidden);
    let picks = schedule.pick_isolated();
    obs::record_palette(schedule.stats());
    picked_colors(picks).map_err(exhausted)
}

/// The error of vertex `v` (a child index of the instance) running out of list colors.
fn exhausted(v: Vertex) -> CoreError {
    CoreError::InvariantViolated {
        reason: format!("vertex {v} exhausted its list during a scheduled sweep"),
    }
}

/// Greedily list colors a (sub)graph over a legal schedule: Linial plus Kuhn–Wattenhofer
/// produce a `(Δ+1)`-coloring whose classes become the announcement slots of one
/// [`SlotSchedule`] sweep.  `forbidden` carries externally excluded colors per vertex.
/// An edgeless graph needs no schedule and no executor run: it takes [`pick_isolated`].  The
/// recursion never gets here with one (it finds independent instances first); the deferred
/// cleanup does, when no two deferred vertices are adjacent.
///
/// The list and forbidden pools are moved into the run's [`SlotSchedule`] arena wholesale —
/// no per-vertex list is ever copied.
fn scheduled_sweep(
    graph: &Graph,
    lists: ColorPool,
    forbidden: ColorPool,
) -> Result<(Vec<u64>, RoundReport), CoreError> {
    if graph.m() == 0 {
        return Ok((pick_isolated(lists, forbidden)?, RoundReport::zero()));
    }
    let linial = linial_coloring(graph)?;
    let reduced = kw_reduce(graph, &linial.coloring)?;
    let slots = (0..graph.n()).map(|v| reduced.coloring.color(v) as usize).collect();
    let schedule = SlotSchedule::lists(slots, lists, forbidden);
    let result = run_algorithm(graph, &SlotSweep(&schedule))?;
    obs::record_palette(schedule.stats());
    let colors = picked_colors(result.outputs).map_err(exhausted)?;
    Ok((colors, linial.report.then(reduced.report).then(result.report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    /// The empirical `O(log² Δ · log n)` round envelope asserted across the generator suite.
    fn round_budget(graph: &Graph) -> usize {
        let log_delta = ((graph.max_degree() + 2) as f64).log2();
        let log_n = ((graph.n() + 2) as f64).log2();
        (6.0 * log_delta * log_delta * log_n).ceil() as usize + 24
    }

    fn check(graph: &Graph) -> ColoringRun {
        let run = ghaffari_kuhn_coloring(graph).unwrap();
        assert!(run.coloring.is_legal(graph));
        assert!(
            run.colors_used <= graph.max_degree() + 1,
            "{} colors exceed Δ + 1 = {}",
            run.colors_used,
            graph.max_degree() + 1
        );
        assert!(
            run.report.rounds <= round_budget(graph),
            "{} rounds exceed the O(log² Δ · log n) budget {} (n = {}, Δ = {})",
            run.report.rounds,
            round_budget(graph),
            graph.n(),
            graph.max_degree()
        );
        run
    }

    #[test]
    fn colors_forest_unions_within_delta_plus_one_and_budget() {
        for (n, a, seed) in [(300usize, 3usize, 11u64), (500, 5, 13)] {
            let g = generators::union_of_random_forests(n, a, seed).unwrap().with_shuffled_ids(7);
            check(&g);
        }
    }

    #[test]
    fn colors_dense_and_irregular_families() {
        let graphs = vec![
            generators::gnp(300, 0.05, 17).unwrap().with_shuffled_ids(3),
            generators::star_forest_union(400, 2, 4, 19).unwrap().with_shuffled_ids(4),
            generators::barabasi_albert(400, 3, 23).unwrap().with_shuffled_ids(5),
            generators::complete(40).unwrap().with_shuffled_ids(6),
            generators::grid(12, 15).unwrap().with_shuffled_ids(8),
        ];
        for g in &graphs {
            check(g);
        }
    }

    #[test]
    fn delta_plus_one_entry_point_matches_the_classical_problem() {
        let g = generators::gnp(250, 0.06, 29).unwrap().with_shuffled_ids(9);
        let run = ghaffari_kuhn_delta_plus_one(&g).unwrap();
        assert!(run.coloring.is_legal(&g));
        assert!(run.colors_used <= g.max_degree() + 1);
        assert_eq!(run.palette_bound, g.max_degree() as u64 + 1);
    }

    #[test]
    fn respects_arbitrary_lists_with_slack() {
        // Shifted, interleaved lists: vertex v may only use colors ≡ v (mod 2) plus a shared
        // overflow block, sized to deg(v) + 2.
        let g = generators::union_of_random_forests(200, 3, 31).unwrap().with_shuffled_ids(10);
        let lists: Vec<Vec<u64>> = g
            .vertices()
            .map(|v| {
                let size = g.degree(v) as u64 + 2;
                (0..size).map(|i| 2 * i + (v as u64 % 2)).collect()
            })
            .collect();
        let instance = ColorLists::new(&g, lists).unwrap();
        let run = ghaffari_kuhn_list_coloring(&g, &instance).unwrap();
        instance.verify(&g, &run.coloring).unwrap();
    }

    #[test]
    fn rejects_instances_without_slack() {
        let g = generators::complete(5).unwrap();
        let skinny = ColorLists::new(&g, vec![vec![0, 1]; 5]).unwrap();
        assert!(matches!(
            ghaffari_kuhn_list_coloring(&g, &skinny),
            Err(CoreError::InvalidParameter { .. })
        ));
        let wrong_size = ColorLists::new(&generators::path(2).unwrap(), vec![vec![0]; 2]).unwrap();
        assert!(ghaffari_kuhn_list_coloring(&g, &wrong_size).is_err());
    }

    #[test]
    fn handles_trivial_graphs() {
        let empty = Graph::empty(6);
        let run = ghaffari_kuhn_coloring(&empty).unwrap();
        assert_eq!(run.colors_used, 1);
        assert_eq!(run.report.rounds, 0);
        let single = Graph::empty(1);
        assert_eq!(ghaffari_kuhn_coloring(&single).unwrap().colors_used, 1);
        let none = Graph::empty(0);
        assert_eq!(ghaffari_kuhn_coloring(&none).unwrap().colors_used, 0);
    }

    #[test]
    fn is_deterministic() {
        let g = generators::barabasi_albert(300, 3, 37).unwrap().with_shuffled_ids(11);
        let a = ghaffari_kuhn_coloring(&g).unwrap();
        let b = ghaffari_kuhn_coloring(&g).unwrap();
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.report, b.report);
    }
}
