//! Legal `(⌊(2+ε)a⌋ + 1)`-coloring of bounded-arboricity graphs
//! (Lemma 2.2(1) of the paper; Barenboim–Elkin PODC'08).
//!
//! The algorithm computes an H-partition of degree `A = ⌊(2+ε)a⌋` and then colors the buckets
//! from the last one (`H_ℓ`) down to the first: when bucket `i` is processed, every vertex of
//! `H_i` has at most `A` neighbors in buckets `≥ i`, and all of its already-colored neighbors
//! lie in buckets `> i`, so a palette of `A + 1` colors always contains a free color.  Within
//! a bucket, a Linial coloring of the bucket subgraph provides the schedule for a greedy
//! sweep.
//!
//! **Deviation from the paper.**  BE'08 colors each bucket in `O(a + log* n)` rounds, giving
//! `O(a log n)` total.  Our within-bucket sweep walks the `O(A²)` Linial classes one round
//! each, so a bucket costs `O(a² + log* n)` rounds and the total is `O((a² + log* n) log n)`.
//! The `poly(a)·log n` shape of every statement that consumes this lemma (it is only ever
//! applied with `a ≤ p`, a small parameter) is unchanged; the `experiments` binary
//! (`crates/bench/src/experiments.rs`) reports the measured constants.

use crate::error::DecomposeError;
use crate::hpartition::h_partition;
use crate::linial::linial_coloring;
use crate::reduction::run_greedy_sweep;
use arbcolor_graph::{ColorPool, Coloring, Graph, InducedSubgraph};
use arbcolor_runtime::algorithms::SlotSchedule;
use arbcolor_runtime::{obs, RoundReport};

/// Output of [`arboricity_linear_coloring`].
#[derive(Debug, Clone)]
pub struct ArbLinearColoring {
    /// The legal coloring; colors lie in `0..=degree_bound`.
    pub coloring: Coloring,
    /// The palette bound `⌊(2+ε)a⌋ + 1`.
    pub palette: u64,
    /// Total LOCAL cost.
    pub report: RoundReport,
}

/// Computes a legal coloring with `⌊(2+ε)a⌋ + 1` colors, given an upper bound `arboricity ≥ a`.
///
/// # Errors
///
/// Propagates H-partition errors (in particular [`DecomposeError::ArboricityBoundTooSmall`]
/// when `arboricity` under-estimates the graph) and sweep errors.
///
/// # Examples
///
/// ```
/// use arbcolor_graph::generators;
/// use arbcolor_decompose::arb_linear::arboricity_linear_coloring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::union_of_random_forests(200, 2, 1)?.with_shuffled_ids(4);
/// let out = arboricity_linear_coloring(&g, 2, 1.0)?;
/// assert!(out.coloring.is_legal(&g));
/// assert!(out.coloring.max_color() < out.palette);
/// # Ok(())
/// # }
/// ```
pub fn arboricity_linear_coloring(
    graph: &Graph,
    arboricity: usize,
    epsilon: f64,
) -> Result<ArbLinearColoring, DecomposeError> {
    let partition = h_partition(graph, arboricity, epsilon)?;
    let mut report = partition.report;
    obs::record_leaf("h-partition", partition.report);
    let palette = partition.degree_bound as u64 + 1;

    let mut colors: Vec<Option<u64>> = vec![None; graph.n()];
    let buckets = partition.buckets();

    // Process buckets from the last to the first.
    for bucket_vertices in buckets.iter().rev() {
        if bucket_vertices.is_empty() {
            continue;
        }
        let sub = InducedSubgraph::new(graph, bucket_vertices);

        // Schedule within the bucket: Linial classes of the bucket subgraph.
        let linial = linial_coloring(&sub.graph)?;
        report = report.then(linial.report);
        obs::record_leaf("bucket-linial", linial.report);
        let (schedule, _) = linial.coloring.normalized();

        // One round in which already-colored neighbors announce their colors to the bucket.
        let announce = RoundReport::new(1, 2 * graph.m());
        report = report.then(announce);
        obs::record_leaf("collect-neighbor-colors", announce);

        let slots = schedule.colors().iter().map(|&c| c as usize).collect();
        let mut forbidden = ColorPool::new();
        for child in 0..sub.graph.n() {
            let parent_vertex = sub.map.to_parent(child);
            forbidden.push_iter(graph.neighbors(parent_vertex).iter().filter_map(|&u| colors[u]));
        }
        let sweep = SlotSchedule::ranges(slots, vec![0; sub.graph.n()], palette, forbidden);
        let (bucket_colors, sweep_report) = run_greedy_sweep(&sub.graph, &sweep)?;
        report = report.then(sweep_report);
        obs::record_leaf("bucket-sweep", sweep_report);
        for (child, &c) in bucket_colors.iter().enumerate() {
            colors[sub.map.to_parent(child)] = Some(c);
        }
    }

    let filled: Vec<u64> = colors
        .into_iter()
        .map(|c| c.expect("every vertex belongs to exactly one bucket"))
        .collect();
    let coloring = Coloring::new(graph, filled)?;
    if !coloring.is_legal(graph) {
        return Err(DecomposeError::InvariantViolated {
            reason: "arboricity-linear coloring produced a monochromatic edge".to_string(),
        });
    }
    Ok(ArbLinearColoring { coloring, palette, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::{degeneracy, generators};

    #[test]
    fn colors_stay_within_palette_on_forest_unions() {
        for k in [1usize, 2, 3] {
            let g =
                generators::union_of_random_forests(200, k, k as u64).unwrap().with_shuffled_ids(5);
            let out = arboricity_linear_coloring(&g, k, 1.0).unwrap();
            assert!(out.coloring.is_legal(&g));
            assert!(out.coloring.max_color() < out.palette);
            assert_eq!(out.palette, (3 * k).max(2 * k + 1) as u64 + 1);
        }
    }

    #[test]
    fn works_on_star_forests_with_huge_degree() {
        let g = generators::star_forest_union(400, 2, 3, 6).unwrap().with_shuffled_ids(7);
        let a = degeneracy::degeneracy(&g).max(1);
        let out = arboricity_linear_coloring(&g, a, 1.0).unwrap();
        assert!(out.coloring.is_legal(&g));
        // The palette is O(a), far below Δ + 1.
        assert!(out.palette < g.max_degree() as u64);
    }

    #[test]
    fn phase_spans_cover_the_buckets_and_sum_to_the_report() {
        let g = generators::union_of_random_forests(150, 2, 9).unwrap();
        let collector = obs::SpanCollector::new();
        let _guard = obs::install(&collector);
        let root = obs::phase("arb-linear");
        let out = arboricity_linear_coloring(&g, 2, 1.0).unwrap();
        drop(root);
        let phases = obs::phase_rollup(&collector.snapshot(), 0);
        assert!(phases.iter().any(|(name, _)| name == "h-partition"));
        assert!(phases.iter().any(|(name, _)| name == "bucket-sweep"));
        let sum = phases.iter().fold(RoundReport::zero(), |acc, (_, r)| acc.then(*r));
        assert_eq!(sum, out.report);
    }

    #[test]
    fn underestimated_arboricity_is_an_error() {
        let g = generators::complete(20).unwrap();
        assert!(matches!(
            arboricity_linear_coloring(&g, 1, 1.0),
            Err(DecomposeError::ArboricityBoundTooSmall { .. })
        ));
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = arbcolor_graph::Graph::empty(4);
        let out = arboricity_linear_coloring(&g, 1, 1.0).unwrap();
        assert!(out.coloring.is_legal(&g));
    }
}
