//! Determinism regression suite: every seeded generator must produce an identical graph
//! when invoked twice with the same seed, different graphs for different seeds, and
//! identifier shuffling must never change the underlying topology.
//!
//! The whole experiment pipeline (and the reproducibility of the `experiments` binary's
//! numbers) rests on these invariants, so they get their own tier-1 test target.

use arbcolor_graph::{generators, Graph};

/// Canonical edge multiset of a graph: the sorted list of canonical `(u, v)` pairs.
///
/// `Graph` stores a deduplicated, sorted edge list, so equality of this vector is
/// equality of the edge multiset.
fn edge_multiset(g: &Graph) -> Vec<(usize, usize)> {
    let mut edges = g.edges().to_vec();
    edges.sort_unstable();
    edges
}

/// A named generator family instantiated from a `u64` seed.
type SeededGenerator = (&'static str, Box<dyn Fn(u64) -> Graph>);

/// All seeded generator families the workspace uses.
fn seeded_generators() -> Vec<SeededGenerator> {
    vec![
        (
            "union_of_random_forests",
            Box::new(|seed| generators::union_of_random_forests(300, 3, seed).unwrap()),
        ),
        (
            "star_forest_union",
            Box::new(|seed| generators::star_forest_union(300, 2, 4, seed).unwrap()),
        ),
        ("barabasi_albert", Box::new(|seed| generators::barabasi_albert(300, 3, seed).unwrap())),
        (
            "random_planar_like",
            Box::new(|seed| generators::random_planar_like(300, 0.8, seed).unwrap()),
        ),
        ("gnp", Box::new(|seed| generators::gnp(300, 0.02, seed).unwrap())),
        ("gnm", Box::new(|seed| generators::gnm(300, 600, seed).unwrap())),
        ("random_tree", Box::new(|seed| generators::random_tree(300, seed).unwrap())),
        ("random_forest", Box::new(|seed| generators::random_forest(300, 0.9, seed).unwrap())),
        ("hub_and_spokes", Box::new(|seed| generators::hub_and_spokes(300, 6, 2, seed).unwrap())),
        (
            "random_regular_like",
            Box::new(|seed| generators::random_regular_like(300, 4, seed).unwrap()),
        ),
        (
            "random_bipartite",
            Box::new(|seed| generators::random_bipartite(150, 150, 0.02, seed).unwrap()),
        ),
    ]
}

#[test]
fn seeded_generators_are_deterministic_across_runs() {
    for (name, gen) in seeded_generators() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = gen(seed);
            let b = gen(seed);
            assert_eq!(a, b, "{name}: two runs with seed {seed} disagree");
            assert_eq!(a.ids(), b.ids(), "{name}: identifiers diverge for seed {seed}");
        }
    }
}

#[test]
fn different_seeds_give_different_graphs() {
    // Not a hard mathematical guarantee, but with these sizes a collision would
    // overwhelmingly indicate the seed being ignored.
    for (name, gen) in seeded_generators() {
        let a = gen(1);
        let b = gen(2);
        assert_ne!(
            (edge_multiset(&a), a.ids().to_vec()),
            (edge_multiset(&b), b.ids().to_vec()),
            "{name}: seeds 1 and 2 produced identical graphs"
        );
    }
}

#[test]
fn with_shuffled_ids_preserves_the_edge_multiset() {
    for (name, gen) in seeded_generators() {
        let g = gen(7);
        let shuffled = g.with_shuffled_ids(99);
        assert_eq!(
            edge_multiset(&g),
            edge_multiset(&shuffled),
            "{name}: id shuffle changed the topology"
        );
        assert_eq!(g.n(), shuffled.n(), "{name}: id shuffle changed n");

        // The identifiers remain a permutation of 1..=n.
        let mut ids = shuffled.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (1..=g.n() as u64).collect::<Vec<_>>(), "{name}: ids not a permutation");
    }
}

#[test]
fn with_shuffled_ids_is_itself_deterministic() {
    let g = generators::union_of_random_forests(400, 3, 5).unwrap();
    assert_eq!(g.with_shuffled_ids(11), g.with_shuffled_ids(11));
    assert_ne!(g.with_shuffled_ids(11).ids(), g.with_shuffled_ids(12).ids());
}

#[test]
fn family_generation_is_deterministic() {
    let families = [
        generators::Family::Gnp { n: 100, p: 0.05 },
        generators::Family::ForestUnion { n: 100, k: 3 },
        generators::Family::StarForestUnion { n: 100, k: 2, hubs: 3 },
        generators::Family::PreferentialAttachment { n: 100, edges_per_vertex: 3 },
    ];
    for family in &families {
        assert_eq!(
            family.generate(13).unwrap(),
            family.generate(13).unwrap(),
            "{} not deterministic",
            family.name()
        );
    }
}
