//! Procedure **Arbdefective-Coloring** (Section 3, Corollary 3.6).
//!
//! The composition of Procedure Partial-Orientation and Procedure Simple-Arbdefective: invoked
//! on a graph of arboricity ≤ `a` with integer parameters `k` and `t`, it produces a
//! `⌊a/t + (2+ε)·a/k⌋`-arbdefective `k`-coloring in `O(t² log n)` rounds.  Viewing the color
//! classes as subgraphs, this is a decomposition of the graph into `k` subgraphs of arboricity
//! `O(a/t + a/k)` each — the refinement step that Procedure Legal-Coloring iterates.

use crate::error::CoreError;
use crate::orientation_procs::{partial_orientation, OrientedGraph};
use crate::simple_arbdefective::{simple_arbdefective, ArbdefectiveColoring};
use arbcolor_graph::Graph;
use arbcolor_runtime::RoundReport;

/// Output of Procedure Arbdefective-Coloring.
#[derive(Debug, Clone)]
pub struct ArbdefectiveDecomposition {
    /// The arbdefective coloring (with witnesses) produced by the DAG sweep.
    pub coloring: ArbdefectiveColoring,
    /// The partial orientation it was computed from.
    pub oriented: OrientedGraph,
    /// LOCAL cost of the whole procedure: the partial orientation, then the DAG sweep.
    pub report: RoundReport,
}

impl ArbdefectiveDecomposition {
    /// The guaranteed arbdefect bound `⌊a/t⌋ + ⌊(2+ε)a / k⌋`.
    pub fn arbdefect_bound(&self) -> usize {
        self.coloring.arbdefect_bound
    }
}

/// Runs Procedure Arbdefective-Coloring (Corollary 3.6) with parameters `k` and `t`.
///
/// `arboricity` must be an upper bound on the arboricity of `graph`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for `k = 0` or `t = 0`; propagates substrate errors
/// (in particular an under-estimated arboricity bound surfaces as an H-partition error).
///
/// # Examples
///
/// ```
/// use arbcolor_graph::generators;
/// use arbcolor::arbdefective_coloring::arbdefective_coloring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::union_of_random_forests(300, 4, 1)?.with_shuffled_ids(2);
/// let out = arbdefective_coloring(&g, 4, 2, 2, 1.0)?;
/// assert!(out.coloring.coloring.max_color() < 2); // k = 2 colors
/// assert!(out.arbdefect_bound() <= 4 / 2 + (3 * 4) / 2);
/// # Ok(())
/// # }
/// ```
pub fn arbdefective_coloring(
    graph: &Graph,
    arboricity: usize,
    k: u64,
    t: usize,
    epsilon: f64,
) -> Result<ArbdefectiveDecomposition, CoreError> {
    if k == 0 || t == 0 {
        return Err(CoreError::InvalidParameter {
            reason: format!("k and t must be positive (got k = {k}, t = {t})"),
        });
    }
    let oriented = partial_orientation(graph, arboricity, t, epsilon)?;
    let coloring = simple_arbdefective(
        graph,
        &oriented.orientation,
        k,
        oriented.out_degree_bound,
        oriented.deficit_bound,
    )?;
    let report = oriented.report.then(coloring.report);
    Ok(ArbdefectiveDecomposition { coloring, oriented, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn corollary_3_6_bounds_hold() {
        let a = 4usize;
        let g = generators::union_of_random_forests(350, a, 5).unwrap().with_shuffled_ids(3);
        for (k, t) in [(2u64, 2usize), (3, 3), (4, 2), (2, 4)] {
            let out = arbdefective_coloring(&g, a, k, t, 1.0).unwrap();
            let claimed = a / t + out.oriented.out_degree_bound / k as usize;
            assert_eq!(out.arbdefect_bound(), claimed);
            // The witnesses certify the bound.
            let worst = out.coloring.verify(&g).unwrap();
            assert!(worst <= claimed);
            // k colors are used.
            assert!(out.coloring.coloring.max_color() < k);
        }
    }

    #[test]
    fn decomposition_view_every_class_has_smaller_degeneracy() {
        let a = 6usize;
        let g = generators::union_of_random_forests(300, a, 7).unwrap().with_shuffled_ids(4);
        let out = arbdefective_coloring(&g, a, 3, 3, 1.0).unwrap();
        // Each color class has arboricity ≤ bound, hence degeneracy ≤ 2·bound.
        let bound = out.arbdefect_bound();
        assert!(out.coloring.coloring.max_class_degeneracy(&g) <= 2 * bound);
        assert!(bound < 3 * a, "the decomposition must make progress (bound {bound} vs a = {a})");
    }

    #[test]
    fn invalid_parameters() {
        let g = generators::path(6).unwrap();
        assert!(arbdefective_coloring(&g, 1, 0, 1, 1.0).is_err());
        assert!(arbdefective_coloring(&g, 1, 1, 0, 1.0).is_err());
    }

    #[test]
    fn rounds_scale_with_t_squared_log_n_not_with_a_log_n() {
        // With t = k = 2 on a graph of larger arboricity the procedure must still finish in
        // rounds proportional to the (small) bucket palette times log n.
        let g = generators::gnp(500, 0.04, 11).unwrap().with_shuffled_ids(12);
        let a = arbcolor_graph::degeneracy::degeneracy(&g);
        let out = arbdefective_coloring(&g, a, 2, 2, 1.0).unwrap();
        let rounds = out.report.rounds;
        let structural =
            (out.oriented.bucket_palette_bound + 2) * (out.oriented.partition.num_buckets + 2) + 64;
        assert!(rounds <= structural, "rounds {rounds} exceed structural bound {structural}");
    }
}
