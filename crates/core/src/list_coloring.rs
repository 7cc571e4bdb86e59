//! List-coloring instances: per-vertex color lists with slack and membership validation.
//!
//! The second headline algorithm of this repository, [`crate::ghaffari_kuhn`], solves the
//! `(deg+1)`-**list coloring** problem (Ghaffari–Kuhn, arXiv:2011.04511; the recursive
//! list-coloring viewpoint follows Kuhn, arXiv:1907.03797): every vertex `v` holds a private
//! list `Ψ(v)` of allowed colors with `|Ψ(v)| ≥ deg(v) + 1`, and the goal is a legal coloring
//! in which every vertex is colored from its own list.  The classical `(Δ+1)`-coloring problem
//! is the special case `Ψ(v) = {0, …, Δ}`; the `(deg+1)`-instance `Ψ(v) = {0, …, deg(v)}` is
//! the harder, fully local variant (a vertex generates its list from its own degree, with no
//! global knowledge beyond the color-space bound).
//!
//! [`ColorLists`] is the shared instance type: it owns the per-vertex lists — stored as one
//! CSR-shaped [`ColorPool`] (an offsets array plus a flat colors array, the same layout as
//! the graph's adjacency), with the sorted/deduplicated invariant guaranteed at
//! construction — checks the greedy-slack condition, and independently verifies that a
//! produced coloring is both legal and list-respecting.

use crate::error::CoreError;
use arbcolor_graph::{Color, ColorPool, Coloring, Graph, Vertex};

/// A list-coloring instance: one sorted, deduplicated color list per vertex of a specific
/// [`Graph`], stored in a flat [`ColorPool`].
///
/// Like [`Coloring`], the instance does not hold a reference to its graph; the same graph
/// value must be passed to the query methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorLists {
    pool: ColorPool,
}

impl ColorLists {
    /// Creates an instance from one list per vertex.  Lists are sorted and deduplicated;
    /// every vertex must receive at least one color.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the number of lists differs from the number
    /// of vertices or some list is empty.
    pub fn new(graph: &Graph, lists: Vec<Vec<Color>>) -> Result<Self, CoreError> {
        if lists.len() != graph.n() {
            return Err(CoreError::InvalidParameter {
                reason: format!("got {} lists for {} vertices", lists.len(), graph.n()),
            });
        }
        let total = lists.iter().map(Vec::len).sum();
        let mut pool = ColorPool::with_capacity(lists.len(), total);
        for (v, list) in lists.into_iter().enumerate() {
            if list.is_empty() {
                return Err(CoreError::InvalidParameter {
                    reason: format!("vertex {v} has an empty color list"),
                });
            }
            pool.push_iter(list);
            pool.sort_dedup_list(v);
        }
        Ok(ColorLists { pool })
    }

    /// The uniform `(Δ+1)`-coloring instance: every vertex lists `{0, …, Δ}`.
    pub fn delta_plus_one(graph: &Graph) -> Self {
        let delta = graph.max_degree() as Color;
        let mut pool = ColorPool::with_capacity(graph.n(), graph.n() * (delta as usize + 1));
        for _ in 0..graph.n() {
            pool.push_iter(0..=delta);
        }
        ColorLists { pool }
    }

    /// The locally generated `(deg+1)`-list instance: vertex `v` lists `{0, …, deg(v)}`.
    ///
    /// Every list is contained in `{0, …, Δ}`, so any solution uses at most `Δ + 1` colors.
    pub fn degree_plus_one(graph: &Graph) -> Self {
        let mut pool = ColorPool::with_capacity(graph.n(), 2 * graph.m() + graph.n());
        for v in graph.vertices() {
            pool.push_iter(0..=graph.degree(v) as Color);
        }
        ColorLists { pool }
    }

    /// The list of vertex `v`, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn list(&self, v: Vertex) -> &[Color] {
        self.pool.list(v)
    }

    /// The underlying flat pool of all lists, indexed by vertex.
    pub fn pool(&self) -> &ColorPool {
        &self.pool
    }

    /// Iterates over the lists in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = &[Color]> + '_ {
        self.pool.iter()
    }

    /// Number of vertices covered by this instance.
    pub fn n(&self) -> usize {
        self.pool.len()
    }

    /// One more than the largest listed color: every solution lives in `[0, color_space)`.
    pub fn color_space(&self) -> u64 {
        self.pool.iter().filter_map(|l| l.last().copied()).max().map_or(0, |c| c + 1)
    }

    /// The minimum greedy slack `|Ψ(v)| − deg(v) − 1` over all vertices.  The `(deg+1)`-list
    /// coloring problem requires this to be non-negative.
    pub fn min_slack(&self, graph: &Graph) -> i64 {
        graph
            .vertices()
            .map(|v| self.pool.list(v).len() as i64 - graph.degree(v) as i64 - 1)
            .min()
            .unwrap_or(0)
    }

    /// Whether every vertex satisfies the greedy-slack condition `|Ψ(v)| ≥ deg(v) + 1`.
    pub fn has_greedy_slack(&self, graph: &Graph) -> bool {
        self.min_slack(graph) >= 0
    }

    /// Independently checks that `coloring` is legal on `graph` and colors every vertex from
    /// its own list.  Both checks short-circuit on the first violation — no conflict vector
    /// is materialized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvariantViolated`] naming the first offending vertex or edge.
    pub fn verify(&self, graph: &Graph, coloring: &Coloring) -> Result<(), CoreError> {
        for v in graph.vertices() {
            if self.pool.list(v).binary_search(&coloring.color(v)).is_err() {
                return Err(CoreError::InvariantViolated {
                    reason: format!(
                        "vertex {v} is colored {} but its list is {:?}",
                        coloring.color(v),
                        self.pool.list(v)
                    ),
                });
            }
            for &u in graph.neighbors(v) {
                if u > v && coloring.color(u) == coloring.color(v) {
                    return Err(CoreError::InvariantViolated {
                        reason: format!("edge ({v}, {u}) is monochromatic"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn construction_sorts_dedups_and_rejects_bad_shapes() {
        let g = generators::path(3).unwrap();
        let lists = ColorLists::new(&g, vec![vec![5, 1, 5], vec![2, 0], vec![3]]).unwrap();
        assert_eq!(lists.list(0), &[1, 5]);
        assert_eq!(lists.color_space(), 6);
        assert!(ColorLists::new(&g, vec![vec![1]]).is_err());
        assert!(ColorLists::new(&g, vec![vec![1], vec![], vec![2]]).is_err());
    }

    #[test]
    fn pool_layout_matches_the_per_vertex_views() {
        let g = generators::path(3).unwrap();
        let lists = ColorLists::new(&g, vec![vec![5, 1, 5], vec![2, 0], vec![3]]).unwrap();
        assert_eq!(lists.pool().len(), 3);
        assert_eq!(lists.pool().total_colors(), 5, "duplicates are gone from the flat pool");
        let collected: Vec<&[u64]> = lists.iter().collect();
        assert_eq!(collected, vec![&[1u64, 5][..], &[0, 2][..], &[3][..]]);
    }

    #[test]
    fn canonical_instances_have_greedy_slack() {
        let g = generators::union_of_random_forests(200, 3, 7).unwrap().with_shuffled_ids(2);
        let uniform = ColorLists::delta_plus_one(&g);
        let local = ColorLists::degree_plus_one(&g);
        assert!(uniform.has_greedy_slack(&g));
        assert!(local.has_greedy_slack(&g));
        assert_eq!(local.min_slack(&g), 0);
        assert_eq!(uniform.color_space(), g.max_degree() as u64 + 1);
        assert!(local.color_space() <= uniform.color_space());
        for v in g.vertices() {
            assert_eq!(local.list(v).len(), g.degree(v) + 1);
        }
    }

    #[test]
    fn verify_checks_membership_and_legality() {
        let g = generators::path(2).unwrap();
        let lists = ColorLists::new(&g, vec![vec![0, 1], vec![0, 1]]).unwrap();
        let good = Coloring::new(&g, vec![0, 1]).unwrap();
        assert!(lists.verify(&g, &good).is_ok());
        let monochromatic = Coloring::new(&g, vec![1, 1]).unwrap();
        assert!(lists.verify(&g, &monochromatic).is_err());
        let off_list = Coloring::new(&g, vec![0, 2]).unwrap();
        assert!(lists.verify(&g, &off_list).is_err());
    }
}
