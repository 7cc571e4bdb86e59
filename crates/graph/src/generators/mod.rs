//! Graph generators for tests, examples and experiments.
//!
//! All randomized generators take an explicit `seed` and are deterministic for a given seed
//! (they use the ChaCha8 PRNG).  The families were chosen to exercise the regimes the paper
//! cares about:
//!
//! * bounded-arboricity graphs with moderate degree — [`union_of_random_forests`],
//!   [`random_planar_like`], [`barabasi_albert`];
//! * bounded-arboricity graphs with *huge* maximum degree (the Corollary 4.7 regime where
//!   `a ≤ Δ^{1−ν}`) — [`star_forest_union`], [`hub_and_spokes`];
//! * bounded-degree graphs — [`gnp`] with small `p`, [`grid`], [`torus`], [`hypercube`],
//!   [`random_regular_like`];
//! * worst-case dense graphs — [`complete`], [`complete_bipartite`], [`gnm`].

mod preferential;
mod random;
mod structured;
mod trees;

pub use preferential::{barabasi_albert, random_planar_like};
pub use random::{gnm, gnp, random_bipartite, random_regular_like};
pub use structured::{complete, complete_bipartite, cycle, grid, hypercube, path, star, torus};
pub use trees::{
    balanced_tree, caterpillar, hub_and_spokes, random_forest, random_tree, star_forest_union,
    union_of_random_forests,
};

use crate::error::GraphError;

/// One seeded representative per generator family, with shuffled identifiers — **the**
/// canonical fixture for the executor-equivalence and port-order suites across the
/// workspace (`tests/message_fabric.rs`, `tests/sharded_executor.rs` and the graph crate's
/// `port_of` property suite all draw from this list, so their coverage cannot silently
/// drift apart).  `n` is clamped up to a size every family accepts; the dense
/// families are capped so property tests stay fast.
///
/// # Panics
///
/// Panics if a generator rejects its parameters (impossible for the clamped sizes).
pub fn seeded_suite(n: usize, seed: u64) -> Vec<(&'static str, crate::graph::Graph)> {
    let n = n.max(12);
    vec![
        ("forests", union_of_random_forests(n, 3, seed).unwrap().with_shuffled_ids(seed + 1)),
        ("gnp", gnp(n, 4.0 / n as f64, seed + 2).unwrap().with_shuffled_ids(seed + 3)),
        ("star-forests", star_forest_union(n, 2, 3, seed + 4).unwrap().with_shuffled_ids(seed + 5)),
        (
            "preferential-attachment",
            barabasi_albert(n, 3, seed + 6).unwrap().with_shuffled_ids(seed + 7),
        ),
        ("random-tree", random_tree(n, seed + 8).unwrap().with_shuffled_ids(seed + 9)),
        ("grid", grid(n / 6 + 2, 6).unwrap().with_shuffled_ids(seed + 10)),
        ("caterpillar", caterpillar(n / 4 + 1, 3).unwrap().with_shuffled_ids(seed + 11)),
        ("cycle", cycle(n).unwrap().with_shuffled_ids(seed + 12)),
        ("complete", complete(n.min(20)).unwrap().with_shuffled_ids(seed + 13)),
        (
            "bipartite",
            random_bipartite(n / 2, n / 2, 0.15, seed + 14).unwrap().with_shuffled_ids(seed + 15),
        ),
    ]
}

/// A named graph family used by the experiment harness to iterate over workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Family {
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Number of vertices.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Union of `k` uniformly random spanning forests: arboricity ≤ `k`.
    ForestUnion {
        /// Number of vertices.
        n: usize,
        /// Number of forests (design arboricity).
        k: usize,
    },
    /// Union of `k` star forests: arboricity ≤ `k`, maximum degree `Θ(n / hubs)`.
    StarForestUnion {
        /// Number of vertices.
        n: usize,
        /// Number of star forests.
        k: usize,
        /// Hubs per star forest.
        hubs: usize,
    },
    /// Two-dimensional grid.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Preferential-attachment graph with `edges_per_vertex` out-edges per arriving vertex.
    PreferentialAttachment {
        /// Number of vertices.
        n: usize,
        /// Edges added per arriving vertex (also an arboricity upper bound).
        edges_per_vertex: usize,
    },
    /// Complete graph.
    Complete {
        /// Number of vertices.
        n: usize,
    },
}

impl Family {
    /// A short machine-friendly name for experiment output.
    pub fn name(&self) -> String {
        match self {
            Family::Gnp { n, p } => format!("gnp_n{n}_p{p}"),
            Family::ForestUnion { n, k } => format!("forests_n{n}_k{k}"),
            Family::StarForestUnion { n, k, hubs } => format!("stars_n{n}_k{k}_h{hubs}"),
            Family::Grid { rows, cols } => format!("grid_{rows}x{cols}"),
            Family::PreferentialAttachment { n, edges_per_vertex } => {
                format!("pa_n{n}_m{edges_per_vertex}")
            }
            Family::Complete { n } => format!("complete_n{n}"),
        }
    }

    /// Instantiates the family with the given seed.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter errors.
    pub fn generate(&self, seed: u64) -> Result<crate::graph::Graph, GraphError> {
        match *self {
            Family::Gnp { n, p } => gnp(n, p, seed),
            Family::ForestUnion { n, k } => union_of_random_forests(n, k, seed),
            Family::StarForestUnion { n, k, hubs } => star_forest_union(n, k, hubs, seed),
            Family::Grid { rows, cols } => grid(rows, cols),
            Family::PreferentialAttachment { n, edges_per_vertex } => {
                barabasi_albert(n, edges_per_vertex, seed)
            }
            Family::Complete { n } => complete(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_are_distinct_and_generation_works() {
        let families = [
            Family::Gnp { n: 50, p: 0.1 },
            Family::ForestUnion { n: 50, k: 3 },
            Family::StarForestUnion { n: 50, k: 2, hubs: 3 },
            Family::Grid { rows: 5, cols: 6 },
            Family::PreferentialAttachment { n: 50, edges_per_vertex: 3 },
            Family::Complete { n: 10 },
        ];
        let mut names: Vec<String> = families.iter().map(Family::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), families.len());
        for f in &families {
            let g = f.generate(7).unwrap();
            assert!(g.n() > 0);
        }
    }
}
