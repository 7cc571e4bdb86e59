//! Algorithm **Arb-Kuhn** (Section 5): arbdefective colorings via low-agreement polynomial
//! families, with collisions counted only against *parents*.
//!
//! The algorithm first computes an acyclic complete orientation `σ` with out-degree
//! `A = ⌊(2+ε)a⌋` (Lemma 2.4, `O(log n)` rounds) and then runs `O(log* n)` iterations of
//! Procedure **Arb-Recolor** (Algorithm 3): a vertex of current color `χ` with parents colored
//! `y_1, …, y_δ` (δ ≤ A) picks `α` minimizing `|{i : ϕ_χ(α) = ϕ_{y_i}(α)}|` and adopts the
//! pair color `(α, ϕ_χ(α))`.  The iterations are Linial's recoloring program
//! ([`RecolorAlgorithm::arb_recolor`]) with only the parents' colors passed to the shared
//! α-selection kernel ([`PolynomialFamily::best_alpha`]).  Lemma 5.1 bounds the number of
//! parents that can end up sharing the vertex's new color, so after the whole schedule every
//! color class induces a subgraph in which each vertex has at most `d` parents — an acyclic
//! orientation with out-degree ≤ `d`, i.e. arboricity ≤ `d` (Lemma 2.5): a `d`-arbdefective
//! `O((a/d)²)`-coloring in `O(log n)` rounds.
//!
//! [`PolynomialFamily::best_alpha`]: arbcolor_decompose::algebraic::PolynomialFamily::best_alpha

use crate::error::CoreError;
use arbcolor_decompose::forests::bounded_outdegree_orientation;
use arbcolor_decompose::linial::{RecolorAlgorithm, RecolorSchedule};
use arbcolor_graph::{Coloring, Graph, Orientation};
use arbcolor_runtime::{run_algorithm, RoundReport};
use std::collections::HashMap;

/// Output of [`arb_kuhn_coloring`].
#[derive(Debug, Clone)]
pub struct ArbKuhnColoring {
    /// The arbdefective coloring.
    pub coloring: Coloring,
    /// The guaranteed arbdefect bound (sum of the schedule's per-iteration budgets, ≤ the
    /// requested target).
    pub arbdefect_bound: usize,
    /// Upper bound on the palette (`q²` of the last iteration).
    pub palette_bound: u64,
    /// The orientation used to define parents.
    pub orientation: Orientation,
    /// Per-class witness orientations (restrictions of `orientation` to the classes).
    pub witnesses: HashMap<u64, Orientation>,
    /// LOCAL cost: the bounded out-degree orientation, then the recoloring iterations.
    pub report: RoundReport,
}

impl ArbKuhnColoring {
    /// Re-checks the witnesses, returning the worst per-class out-degree.
    ///
    /// # Errors
    ///
    /// Returns an error if a witness violates the arbdefect bound.
    pub fn verify(&self, graph: &Graph) -> Result<usize, CoreError> {
        self.coloring
            .verify_arbdefect_witness(graph, &self.witnesses, self.arbdefect_bound)
            .map_err(CoreError::from)
    }
}

/// Computes a `d`-arbdefective coloring with an `O((a/d)²·polylog)` palette in `O(log n)`
/// rounds (Algorithm Arb-Kuhn; Theorem 5.2's building block).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `target_arbdefect` is 0 and the graph has edges
/// that would force a defect — a target of 0 is allowed and simply yields a legal coloring.
/// Propagates substrate errors.
pub fn arb_kuhn_coloring(
    graph: &Graph,
    arboricity: usize,
    target_arbdefect: usize,
    epsilon: f64,
) -> Result<ArbKuhnColoring, CoreError> {
    let bounded = bounded_outdegree_orientation(graph, arboricity.max(1), epsilon)?;

    let id_space = graph.ids().iter().copied().max().unwrap_or(1);
    let schedule =
        RecolorSchedule::build(id_space, bounded.out_degree_bound, target_arbdefect as u64);
    let initial: Vec<u64> = graph.ids().iter().map(|&id| id - 1).collect();
    let algorithm = RecolorAlgorithm::arb_recolor(&schedule, &initial, graph, &bounded.orientation);
    let result = run_algorithm(graph, &algorithm)?;
    let report = bounded.report.then(result.report);
    let coloring = Coloring::new(graph, result.outputs)?;
    let arbdefect_bound = schedule.total_budget() as usize;

    let mut witnesses = HashMap::new();
    for (class_color, sub) in coloring.class_subgraphs(graph) {
        if sub.graph.m() == 0 {
            continue;
        }
        let restricted =
            bounded.orientation.restrict_to(graph, &sub.graph, sub.map.parent_vertices());
        // The global orientation is complete, so the restriction to an induced subgraph is
        // complete as well.
        witnesses.insert(class_color, restricted);
    }

    let out = ArbKuhnColoring {
        coloring,
        arbdefect_bound,
        palette_bound: schedule.final_colors(),
        orientation: bounded.orientation,
        witnesses,
        report,
    };
    let worst = out.verify(graph).map_err(|e| CoreError::InvariantViolated {
        reason: format!("Lemma 5.1 witness check failed: {e}"),
    })?;
    debug_assert!(worst <= arbdefect_bound);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn arbdefect_stays_within_target() {
        let a = 6usize;
        let g = generators::union_of_random_forests(600, a, 19).unwrap().with_shuffled_ids(4);
        for d in [0usize, 1, 2, 4] {
            let out = arb_kuhn_coloring(&g, a, d, 1.0).unwrap();
            assert!(out.arbdefect_bound <= d);
            let worst = out.verify(&g).unwrap();
            assert!(worst <= d, "worst class out-degree {worst} exceeds target {d}");
        }
    }

    #[test]
    fn zero_target_yields_a_legal_coloring() {
        let g = generators::union_of_random_forests(400, 3, 5).unwrap().with_shuffled_ids(2);
        let out = arb_kuhn_coloring(&g, 3, 0, 1.0).unwrap();
        assert!(out.coloring.is_legal(&g) || out.coloring.max_class_degeneracy(&g) == 0);
    }

    #[test]
    fn larger_target_gives_smaller_palette() {
        let a = 8usize;
        let g = generators::union_of_random_forests(1500, a, 7).unwrap().with_shuffled_ids(6);
        let fine = arb_kuhn_coloring(&g, a, 1, 1.0).unwrap();
        let coarse = arb_kuhn_coloring(&g, a, a, 1.0).unwrap();
        assert!(
            coarse.palette_bound <= fine.palette_bound,
            "coarse {} vs fine {}",
            coarse.palette_bound,
            fine.palette_bound
        );
    }

    #[test]
    fn rounds_are_logarithmic() {
        let g = generators::union_of_random_forests(1000, 4, 9).unwrap().with_shuffled_ids(8);
        let out = arb_kuhn_coloring(&g, 4, 2, 1.0).unwrap();
        let logn = (g.n() as f64).log2().ceil() as usize;
        assert!(out.report.rounds <= 6 * logn + 20, "rounds {} exceed O(log n)", out.report.rounds);
    }
}
