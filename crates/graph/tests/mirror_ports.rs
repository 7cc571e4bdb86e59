//! Property suite for port lookups.
//!
//! Adjacency lists are strictly ascending, so the binary-search `port_of` agrees with a
//! linear scan for *arbitrary* (member and non-member) query pairs; this is pinned here
//! against brute-force recomputation across the full generator suite.

use arbcolor_graph::generators::seeded_suite as generator_suite;
use arbcolor_graph::Graph;
use proptest::prelude::*;

/// The linear-scan definition: position of `u` in `neighbors(v)`.
fn port_by_scan(g: &Graph, v: usize, u: usize) -> Option<usize> {
    g.neighbors(v).iter().position(|&w| w == u)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn binary_search_port_of_agrees_with_linear_scan(
        n in 12usize..60,
        seed in 0u64..1_000,
        probe in (0usize..60, 0usize..60),
    ) {
        for (family, g) in generator_suite(n, seed) {
            // Sortedness is what licenses the binary search.
            for v in g.vertices() {
                prop_assert!(
                    g.neighbors(v).windows(2).all(|w| w[0] < w[1]),
                    "adjacency of {} not strictly ascending on {}", v, family
                );
            }
            // Arbitrary probe pair (possibly a non-edge, possibly out of range).
            let (a, b) = probe;
            if a < g.n() {
                prop_assert_eq!(g.port_of(a, b), port_by_scan(&g, a, b), "probe on {}", family);
            }
            // Every real edge, both directions.
            for &(u, v) in g.edges() {
                prop_assert_eq!(g.port_of(u, v), port_by_scan(&g, u, v), "edge on {}", family);
                prop_assert_eq!(g.port_of(v, u), port_by_scan(&g, v, u), "edge rev on {}", family);
            }
        }
    }
}
