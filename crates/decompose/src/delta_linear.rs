//! Deterministic `(Δ+1)`-coloring in time roughly linear in `Δ`
//! (Barenboim–Elkin STOC'09 / Kuhn SPAA'09 style).
//!
//! This is the strongest *degree*-based deterministic baseline the paper compares against in
//! §1.2.  The structure follows BE'09/Kuhn'09: compute a `⌊Δ/2⌋`-defective coloring with a
//! small palette (one `O(log* n)` recoloring pass), recurse in parallel on every color class
//! (whose maximum degree has halved), give the recursive colorings disjoint palettes, and
//! finally squeeze the palette back to `Δ + 1` with Kuhn–Wattenhofer reduction.  The recursion
//! depth is `log Δ`, each level costs `O(Δ)` reduction rounds plus `O(log* n)`, so the total
//! is `O(Δ log Δ + log* n · log Δ)` rounds — the same "linear in Δ up to a logarithmic factor"
//! regime as the published `O(Δ + log* n)` algorithms, and exponentially worse than the
//! paper's `O(log a · log n)` whenever `Δ` is large, which is exactly the comparison the
//! experiments demonstrate.

use crate::defective::defective_coloring;
use crate::error::DecomposeError;
use crate::linial::linial_coloring;
use crate::reduction::{greedy_reduce, kw_reduce};
use arbcolor_graph::{Coloring, Graph};
use arbcolor_runtime::{parallel_max, RoundReport};
use std::collections::HashMap;

/// Output of [`delta_plus_one_coloring`].
#[derive(Debug, Clone)]
pub struct DeltaPlusOne {
    /// A legal coloring with at most `Δ + 1` colors.
    pub coloring: Coloring,
    /// Total LOCAL cost.
    pub report: RoundReport,
}

/// Computes a `(Δ+1)`-coloring in time roughly linear in `Δ`.
///
/// # Errors
///
/// Propagates substrate errors.
///
/// # Examples
///
/// ```
/// use arbcolor_graph::generators;
/// use arbcolor_decompose::delta_linear::delta_plus_one_coloring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp(80, 0.1, 1)?.with_shuffled_ids(2);
/// let out = delta_plus_one_coloring(&g)?;
/// assert!(out.coloring.is_legal(&g));
/// assert!(out.coloring.distinct_colors() <= g.max_degree() + 1);
/// # Ok(())
/// # }
/// ```
pub fn delta_plus_one_coloring(graph: &Graph) -> Result<DeltaPlusOne, DecomposeError> {
    let (coloring, report) = color_recursive(graph, 0)?;
    Ok(DeltaPlusOne { coloring, report })
}

/// Maximum recursion depth guard (Δ halves every level, so 64 levels is unreachable).
const MAX_DEPTH: usize = 64;

fn color_recursive(graph: &Graph, depth: usize) -> Result<(Coloring, RoundReport), DecomposeError> {
    let delta = graph.max_degree();

    if depth >= MAX_DEPTH {
        return Err(DecomposeError::InvariantViolated {
            reason: "delta-linear coloring exceeded its recursion depth bound".to_string(),
        });
    }

    // Base case: small degree — Linial followed by a one-class-per-round reduction.
    if delta <= 3 || graph.n() <= 16 {
        let linial = linial_coloring(graph)?;
        let reduced = greedy_reduce(graph, &linial.coloring, delta as u64 + 1)?;
        return Ok((reduced.coloring, linial.report.then(reduced.report)));
    }

    // Split into color classes of maximum degree ≤ ⌊Δ/2⌋.
    let defective = defective_coloring(graph, 2)?;
    let partition = defective.output.coloring;
    let class_subgraphs = partition.class_subgraphs(graph);

    // Recurse on every class in parallel (disjoint subgraphs run concurrently).
    let child_palette = (delta / 2) as u64 + 1;
    let mut class_colorings = HashMap::new();
    let mut branch_reports = Vec::new();
    for (class_color, sub) in class_subgraphs {
        let (child_coloring, child_report) = color_recursive(&sub.graph, depth + 1)?;
        debug_assert!(child_coloring.max_color() < child_palette);
        branch_reports.push(child_report);
        class_colorings.insert(class_color, (sub, child_coloring));
    }

    // Merge with disjoint palettes and reduce back to Δ + 1.
    let combined = Coloring::combine_with_palettes(graph, &class_colorings, child_palette);
    debug_assert!(combined.is_legal(graph));
    let reduced = kw_reduce(graph, &combined)?;
    let report = defective.output.report.then(parallel_max(&branch_reports)).then(reduced.report);
    Ok((reduced.coloring, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn produces_delta_plus_one_colorings() {
        let graphs = vec![
            generators::gnp(150, 0.08, 1).unwrap().with_shuffled_ids(2),
            generators::complete(20).unwrap().with_shuffled_ids(3),
            generators::grid(12, 12).unwrap().with_shuffled_ids(4),
            generators::union_of_random_forests(200, 3, 5).unwrap().with_shuffled_ids(6),
        ];
        for g in &graphs {
            let out = delta_plus_one_coloring(g).unwrap();
            assert!(out.coloring.is_legal(g));
            assert!(
                out.coloring.distinct_colors() <= g.max_degree() + 1,
                "used {} colors with Δ = {}",
                out.coloring.distinct_colors(),
                g.max_degree()
            );
        }
    }

    #[test]
    fn rounds_grow_with_delta_not_with_n() {
        // Same maximum degree, different sizes: rounds should be in the same ballpark.
        let small = generators::grid(8, 8).unwrap().with_shuffled_ids(1);
        let large = generators::grid(30, 30).unwrap().with_shuffled_ids(1);
        let r_small = delta_plus_one_coloring(&small).unwrap().report.rounds;
        let r_large = delta_plus_one_coloring(&large).unwrap().report.rounds;
        assert!(r_large <= 4 * r_small.max(8), "small {r_small}, large {r_large}");
    }

    #[test]
    fn handles_edgeless_and_tiny_graphs() {
        let empty = arbcolor_graph::Graph::empty(5);
        let out = delta_plus_one_coloring(&empty).unwrap();
        assert!(out.coloring.distinct_colors() <= 1);

        let single_edge = arbcolor_graph::Graph::from_edges(2, [(0, 1)]).unwrap();
        let out = delta_plus_one_coloring(&single_edge).unwrap();
        assert!(out.coloring.is_legal(&single_edge));
        assert_eq!(out.coloring.distinct_colors(), 2);
    }
}
