//! Property suite for graphs patched in place.
//!
//! An `Adjacency` that absorbs edge removals and insertions and is then frozen promises to
//! be **bit-identical** to throwing every surviving edge at a fresh `GraphBuilder` and
//! re-attaching the identifiers — same CSR arrays, same canonical edge order, same
//! mirror-arc table.  The dynamic-coloring driver and the serving layer both lean on that
//! equivalence, so it is pinned here across the full generator suite with randomized
//! insert/remove batches (including overlapping, duplicated, and no-op edges).

use arbcolor_graph::generators::seeded_suite as generator_suite;
use arbcolor_graph::{Adjacency, Graph, GraphBuilder, GraphError, Vertex};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The oracle: apply the same removals-then-insertions to a fresh builder.
fn rebuilt(g: &Graph, insert: &[(Vertex, Vertex)], remove: &[(Vertex, Vertex)]) -> Graph {
    let canon = |&(u, v): &(Vertex, Vertex)| if u < v { (u, v) } else { (v, u) };
    let removed: Vec<(Vertex, Vertex)> = remove.iter().map(canon).collect();
    let inserted: Vec<(Vertex, Vertex)> = insert.iter().map(canon).collect();
    let mut builder = GraphBuilder::new(g.n());
    builder
        .add_edges(
            g.edges().iter().filter(|e| !removed.contains(e) || inserted.contains(e)).copied(),
        )
        .unwrap();
    builder.add_edges(insert.iter().copied()).unwrap();
    builder.build().with_vertex_ids(g.ids().to_vec()).unwrap()
}

type EdgeList = Vec<(Vertex, Vertex)>;

fn random_batch(
    rng: &mut ChaCha8Rng,
    g: &Graph,
    inserts: usize,
    removes: usize,
) -> (EdgeList, EdgeList) {
    let n = g.n();
    let mut insert = Vec::new();
    for _ in 0..inserts {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            // Deliberately unordered and possibly already present or duplicated.
            insert.push((u, v));
        }
    }
    let mut remove = Vec::new();
    for _ in 0..removes {
        if !g.edges().is_empty() && rng.gen_bool(0.8) {
            let (u, v) = g.edges()[rng.gen_range(0..g.m())];
            remove.push(if rng.gen_bool(0.5) { (v, u) } else { (u, v) });
        } else {
            // Absent-edge removals must be no-ops.
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                remove.push((u, v));
            }
        }
    }
    (insert, remove)
}

/// Copies `g` into an adjacency, removes `remove`, inserts `insert`, and freezes it.
fn patched(g: &Graph, insert: &[(Vertex, Vertex)], remove: &[(Vertex, Vertex)]) -> Graph {
    let mut adjacency = Adjacency::from_graph(g);
    for &(u, v) in remove {
        adjacency.remove_edge(u, v).unwrap();
    }
    for &(u, v) in insert {
        adjacency.insert_edge(u, v).unwrap();
    }
    assert_eq!(adjacency.m(), adjacency.edges().count(), "edge count drifted");
    adjacency.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn patched_graphs_match_full_rebuilds_on_the_generator_suite(
        n in 8usize..60,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9);
        for (family, g) in generator_suite(n, seed) {
            let g = g.with_shuffled_ids(seed);
            let (insert, remove) = random_batch(&mut rng, &g, n / 2, n / 3);
            let patched = patched(&g, &insert, &remove);
            let oracle = rebuilt(&g, &insert, &remove);
            prop_assert_eq!(&patched, &oracle, "patched != rebuilt on {}", family);
            prop_assert_eq!(patched.ids(), g.ids(), "ids drifted on {}", family);
        }
    }
}

#[test]
fn patched_applies_removals_before_insertions() {
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    // (1, 2) is both removed and (re-)inserted: insert wins.
    let h = patched(&g, &[(2, 1), (0, 3)], &[(1, 2), (2, 3), (0, 3)]);
    assert_eq!(h.edges(), &[(0, 1), (0, 3), (1, 2)]);
}

#[test]
fn patched_is_a_no_op_for_empty_batches() {
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap().with_shuffled_ids(7);
    assert_eq!(patched(&g, &[], &[]), g);
}

#[test]
fn patched_surfaces_typed_errors_from_both_lists() {
    let g = Graph::from_edges(3, [(0, 1)]).unwrap();
    let mut adjacency = Adjacency::from_graph(&g);
    assert_eq!(
        adjacency.insert_edge(0, 9).unwrap_err(),
        GraphError::VertexOutOfRange { vertex: 9, n: 3 }
    );
    assert_eq!(adjacency.remove_edge(2, 2).unwrap_err(), GraphError::SelfLoop { vertex: 2 });
    // Rejected edges leave the adjacency untouched.
    assert_eq!(adjacency.freeze(), g);
}

#[test]
fn patched_can_empty_and_refill_a_graph() {
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
    let empty = patched(&g, &[], g.edges());
    assert_eq!(empty.m(), 0);
    assert_eq!(empty.num_arcs(), 0);
    let refilled = patched(&empty, g.edges(), &[]);
    assert_eq!(refilled, g);
}
