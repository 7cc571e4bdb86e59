//! Trading colors for time (Section 5, Theorems 5.2 and 5.3).
//!
//! Both trade-offs first split the graph with Algorithm Arb-Kuhn into subgraphs of small
//! arboricity and then color all subgraphs **in parallel** with the Section 4 machinery, using
//! disjoint palettes:
//!
//! * Theorem 5.2 ([`sub_quadratic_coloring`]): splitting with arbdefect `g = g(a)` gives
//!   `O((a/g)²)` subgraphs of arboricity ≤ `g`; coloring each with `O(g^{1+η})` colors yields
//!   an `O(a²/g^{1−η})`-coloring in `O(log g · log n)` rounds.
//! * Theorem 5.3 ([`color_time_tradeoff`]): splitting with arbdefect `⌊a/t⌋` gives `O(t²)`
//!   subgraphs of arboricity `O(a/t)`; coloring each with `O(a/t)` colors (Theorem 4.3) yields
//!   an `O(a·t)`-coloring in `O((a/t)^µ · log n)` rounds.

use crate::arb_kuhn::arb_kuhn_coloring;
use crate::error::CoreError;
use crate::legal_coloring::{a_power_coloring, o_a_coloring, APowerParams, OaParams};
use crate::report::ColoringRun;
use arbcolor_graph::{Coloring, Graph};
use arbcolor_runtime::parallel_max;

/// Shared driver: split with Arb-Kuhn at arbdefect `split`, color every class in parallel with
/// `color_class`, then merge the class colorings with disjoint palettes of uniform size (the
/// largest class palette actually needed).
fn split_then_color<F>(
    graph: &Graph,
    arboricity: usize,
    split: usize,
    epsilon: f64,
    mut color_class: F,
) -> Result<ColoringRun, CoreError>
where
    F: FnMut(&Graph, usize) -> Result<ColoringRun, CoreError>,
{
    let decomposition = arb_kuhn_coloring(graph, arboricity, split, epsilon)?;
    let class_bound = decomposition.arbdefect_bound.max(1);

    let classes = decomposition.coloring.class_subgraphs(graph);
    let mut class_slots: Vec<u64> = classes.keys().copied().collect();
    class_slots.sort_unstable();

    // Color all classes (conceptually in parallel), remembering each class's inner coloring.
    let mut branch_reports = Vec::new();
    let mut inner_colorings = Vec::new();
    let mut class_palette = 1u64;
    for class_color in &class_slots {
        let sub = &classes[class_color];
        if sub.graph.n() == 0 {
            inner_colorings.push(None);
            continue;
        }
        let inner = color_class(&sub.graph, class_bound)?;
        class_palette = class_palette.max(inner.coloring.max_color() + 1);
        branch_reports.push(inner.report);
        inner_colorings.push(Some(inner));
    }
    let report = decomposition.report.then(parallel_max(&branch_reports));

    // Merge with disjoint palettes.
    let mut colors = vec![0u64; graph.n()];
    for (slot, class_color) in class_slots.iter().enumerate() {
        let Some(inner) = &inner_colorings[slot] else { continue };
        let sub = &classes[class_color];
        for child in 0..sub.graph.n() {
            colors[sub.map.to_parent(child)] =
                slot as u64 * class_palette + inner.coloring.color(child);
        }
    }

    let coloring = Coloring::new(graph, colors)?;
    if !coloring.is_legal(graph) {
        return Err(CoreError::InvariantViolated {
            reason: "trade-off coloring produced a monochromatic edge".to_string(),
        });
    }
    let palette_bound = class_slots.len() as u64 * class_palette;
    Ok(ColoringRun::new(coloring, palette_bound, report))
}

/// Theorem 5.2: an `O(a²/g)`-style coloring in `O(log g · log n)` rounds, where `split_g` is
/// the value `g(a)` of the chosen slowly-growing function.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `split_g == 0`; propagates substrate errors.
pub fn sub_quadratic_coloring(
    graph: &Graph,
    arboricity: usize,
    split_g: usize,
    eta: f64,
    epsilon: f64,
) -> Result<ColoringRun, CoreError> {
    if split_g == 0 {
        return Err(CoreError::InvalidParameter { reason: "g(a) must be positive".to_string() });
    }
    split_then_color(graph, arboricity, split_g, epsilon, |class, bound| {
        a_power_coloring(class, bound, APowerParams { eta, epsilon })
    })
}

/// Theorem 5.3: an `O(a·t)`-coloring in `O((a/t)^µ · log n)` rounds.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `t == 0` or `t > arboricity`; propagates
/// substrate errors.
pub fn color_time_tradeoff(
    graph: &Graph,
    arboricity: usize,
    t: usize,
    mu: f64,
    epsilon: f64,
) -> Result<ColoringRun, CoreError> {
    if t == 0 || t > arboricity.max(1) {
        return Err(CoreError::InvalidParameter {
            reason: format!("t must satisfy 1 ≤ t ≤ a (got t = {t}, a = {arboricity})"),
        });
    }
    let split = (arboricity / t).max(1);
    split_then_color(graph, arboricity, split, epsilon, |class, bound| {
        o_a_coloring(class, bound, OaParams { mu, epsilon })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn sub_quadratic_coloring_is_legal_and_beats_a_squared() {
        let a = 8usize;
        let g = generators::union_of_random_forests(700, a, 3).unwrap().with_shuffled_ids(4);
        let run = sub_quadratic_coloring(&g, a, 2, 1.0, 1.0).unwrap();
        assert!(run.coloring.is_legal(&g));
        // The whole point: strictly fewer than the Linial-style a² ⋅ constant colors.  Use the
        // generous threshold 9·(3a)² that Linial's palette would occupy for this graph.
        let linial_like = 9 * (3 * a) * (3 * a);
        assert!(
            run.colors_used < linial_like,
            "{} colors should be below the quadratic regime {linial_like}",
            run.colors_used
        );
    }

    #[test]
    fn color_time_tradeoff_is_legal_across_t() {
        let a = 6usize;
        let g = generators::union_of_random_forests(500, a, 13).unwrap().with_shuffled_ids(5);
        for t in [1usize, 2, 3, 6] {
            let run = color_time_tradeoff(&g, a, t, 0.5, 1.0).unwrap();
            assert!(run.coloring.is_legal(&g), "t = {t}");
            assert!(run.colors_used as u64 <= run.palette_bound);
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let g = generators::path(8).unwrap();
        assert!(sub_quadratic_coloring(&g, 1, 0, 1.0, 1.0).is_err());
        assert!(color_time_tradeoff(&g, 2, 0, 0.5, 1.0).is_err());
        assert!(color_time_tradeoff(&g, 2, 5, 0.5, 1.0).is_err());
    }

    #[test]
    fn larger_t_means_more_colors_but_smaller_class_work() {
        let a = 8usize;
        let g = generators::union_of_random_forests(600, a, 29).unwrap().with_shuffled_ids(7);
        let fine = color_time_tradeoff(&g, a, 1, 0.5, 1.0).unwrap();
        let coarse = color_time_tradeoff(&g, a, a, 0.5, 1.0).unwrap();
        assert!(fine.coloring.is_legal(&g));
        assert!(coarse.coloring.is_legal(&g));
        assert!(fine.colors_used as u64 <= fine.palette_bound);
        assert!(coarse.colors_used as u64 <= coarse.palette_bound);
    }
}
