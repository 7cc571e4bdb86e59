//! Cross-crate property suite for the dynamic-recoloring driver.
//!
//! The contract of `arbcolor::dynamic` is that after every `apply` batch the maintained
//! coloring is (a) legal on the mutated graph, (b) within `Δ + 1` colors once `compact()`
//! reclaims deletion slack, and (c) untouched outside the conflict frontier under local
//! repair — and that the whole update sequence is bit-identical across executor kinds.
//! This suite drives those claims over the full generator suite with randomized hold-out
//! batches and interleaved insert/delete streams.

use arbcolor::dynamic::{DynamicColoring, GraphUpdate, RepairStrategy};
use arbcolor_graph::{Graph, Vertex};
use arbcolor_runtime::{ExecutorKind, RunConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod common;
use common::generator_suite;

/// Splits `graph` into a base graph (identifiers preserved) plus `batches` round-robin
/// hold-out batches of every `stride`-th edge.
fn hold_out(graph: &Graph, stride: usize, batches: usize) -> (Graph, Vec<Vec<(Vertex, Vertex)>>) {
    let mut kept = Vec::new();
    let mut held: Vec<Vec<(Vertex, Vertex)>> = vec![Vec::new(); batches];
    for (e, &edge) in graph.edges().iter().enumerate() {
        if e % stride == 0 {
            held[(e / stride) % batches].push(edge);
        } else {
            kept.push(edge);
        }
    }
    let base = Graph::from_edges(graph.n(), kept)
        .expect("subset of valid edges")
        .with_vertex_ids(graph.ids().to_vec())
        .expect("ids are inherited");
    (base, held)
}

/// A deterministic delete batch: a pseudo-random sample of the current edges.
fn delete_batch(g: &Graph, rng: &mut ChaCha8Rng, count: usize) -> Vec<(Vertex, Vertex)> {
    (0..count.min(g.m())).map(|_| g.edges()[rng.gen_range(0..g.m())]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn insertion_batches_keep_the_coloring_legal_on_the_generator_suite(
        n in 16usize..80,
        seed in 0u64..1_000,
        stride in 3usize..9,
    ) {
        for (family, g) in generator_suite(n, seed) {
            if g.m() < 4 {
                continue;
            }
            let (base, batches) = hold_out(&g, stride, 2);
            let mut dynamic = DynamicColoring::new(base).expect("initial coloring");
            for batch in &batches {
                let before = dynamic.coloring().clone();
                let outcome =
                    dynamic.apply(&[GraphUpdate::InsertEdges(batch.clone())]).unwrap();
                prop_assert!(dynamic.coloring().is_legal(dynamic.graph()),
                    "illegal after a batch on {}", family);
                prop_assert!(
                    dynamic.coloring().distinct_colors() <= dynamic.graph().max_degree() + 1,
                    "palette exceeded Δ+1 on {}", family);
                prop_assert!(outcome.frontier <= 2 * batch.len(), "frontier bound on {}", family);
                if outcome.strategy == RepairStrategy::LocalRepair {
                    // Local repair only ever recolors frontier vertices.
                    let changed: Vec<Vertex> = dynamic
                        .coloring()
                        .colors()
                        .iter()
                        .zip(before.colors())
                        .enumerate()
                        .filter(|(_, (a, b))| a != b)
                        .map(|(v, _)| v)
                        .collect();
                    prop_assert!(changed.len() <= outcome.frontier,
                        "local repair touched non-frontier vertices on {}", family);
                    prop_assert_eq!(&changed, &outcome.repaired, "repaired set on {}", family);
                }
            }
            // The final graph is the original one (same edges, same identifiers).
            prop_assert_eq!(dynamic.graph().edges(), g.edges(), "edges restored on {}", family);
        }
    }

    #[test]
    fn interleaved_insert_delete_batches_stay_legal_and_compact_within_the_palette_bound(
        n in 16usize..72,
        seed in 0u64..1_000,
    ) {
        for (family, g) in generator_suite(n, seed) {
            if g.m() < 6 {
                continue;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ n as u64);
            let (base, batches) = hold_out(&g, 3, 3);
            let mut dynamic = DynamicColoring::new(base).expect("initial coloring");
            for batch in &batches {
                // One mixed batch per round: re-insert held-out edges and delete a random
                // sample of the current ones in the same `apply` call.
                let deletions = delete_batch(dynamic.graph(), &mut rng, batch.len());
                let outcome = dynamic
                    .apply(&[
                        GraphUpdate::InsertEdges(batch.clone()),
                        GraphUpdate::RemoveEdges(deletions),
                    ])
                    .unwrap();
                prop_assert!(dynamic.coloring().is_legal(dynamic.graph()),
                    "illegal after a mixed batch on {}", family);
                prop_assert!(outcome.frontier <= 2 * batch.len(), "frontier bound on {}", family);
            }
            // Deletions may leave palette slack; compaction must reclaim it down to the
            // (deg+1) bound of the *current* graph, monotonically.
            let before = dynamic.coloring().distinct_colors();
            let delta = dynamic.compact();
            prop_assert_eq!(delta.colors_before, before, "delta bookkeeping on {}", family);
            prop_assert!(delta.colors_after <= delta.colors_before,
                "compaction increased colors on {}", family);
            prop_assert!(
                dynamic.coloring().distinct_colors() <= dynamic.graph().max_degree() + 1,
                "compacted palette exceeded Δ+1 on {}", family);
            prop_assert!(dynamic.coloring().is_legal(dynamic.graph()),
                "compaction broke legality on {}", family);
        }
    }
}

/// A long mixed stream — conflicting inserts, removals, no-op updates, local repairs,
/// full re-colorings and auto-compactions — keeps the lazily frozen graph bit-identical to
/// a from-scratch rebuild of the model edge set after every batch, identifiers included.
#[test]
fn the_frozen_graph_equals_a_rebuild_after_every_batch_of_a_stream() {
    for (family, g) in generator_suite(40, 7) {
        let g = g.with_shuffled_ids(3);
        let mut rng = ChaCha8Rng::seed_from_u64(g.m() as u64);
        let mut model: std::collections::BTreeSet<(Vertex, Vertex)> =
            g.edges().iter().copied().collect();
        let mut dynamic = DynamicColoring::new(g.clone()).unwrap().with_auto_compact(true);
        for round in 0..12 {
            let n = g.n();
            let mut inserts = Vec::new();
            while inserts.len() < 1 + round % 5 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    inserts.push((u, v));
                }
            }
            let removals = delete_batch(dynamic.graph(), &mut rng, round % 4);
            dynamic
                .apply(&[
                    GraphUpdate::RemoveEdges(removals.clone()),
                    GraphUpdate::InsertEdges(inserts.clone()),
                ])
                .unwrap();
            for &(u, v) in &removals {
                model.remove(&(u.min(v), u.max(v)));
            }
            for &(u, v) in &inserts {
                model.insert((u.min(v), u.max(v)));
            }
            let rebuilt = Graph::from_edges(n, model.iter().copied())
                .unwrap()
                .with_vertex_ids(g.ids().to_vec())
                .unwrap();
            assert_eq!(*dynamic.graph(), rebuilt, "round {round} on {family}");
            assert_eq!(dynamic.adjacency().m(), rebuilt.m(), "round {round} on {family}");
            assert!(dynamic.coloring().is_legal(&rebuilt), "round {round} on {family}");
        }
    }
}

/// The same mixed update sequence (inserts, deletes, and a compaction sweep) replayed
/// under every executor kind produces bit-identical colorings and batch outcomes (the
/// E20/E25 guarantee, pinned here at test sizes).
#[test]
fn repair_sequences_are_bit_identical_across_executor_kinds() {
    let g = arbcolor_graph::generators::union_of_random_forests(300, 3, 17)
        .unwrap()
        .with_shuffled_ids(4);
    let (base, batches) = hold_out(&g, 5, 3);
    /// Final colors, per-batch `(frontier, repaired)` counts, and the compaction delta of
    /// one replay.
    type SequenceFingerprint = (Vec<u64>, Vec<(usize, Vec<Vertex>)>, (usize, usize));
    let mut reference: Option<SequenceFingerprint> = None;
    for kind in [ExecutorKind::sharded(1), ExecutorKind::sharded(3), ExecutorKind::Reference] {
        let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut dynamic = DynamicColoring::new(base.clone()).unwrap();
        let mut counts = Vec::new();
        for batch in &batches {
            let deletions = delete_batch(dynamic.graph(), &mut rng, 4);
            let outcome = dynamic
                .apply(&[
                    GraphUpdate::InsertEdges(batch.clone()),
                    GraphUpdate::RemoveEdges(deletions),
                ])
                .unwrap();
            counts.push((outcome.frontier, outcome.repaired.clone()));
        }
        let delta = dynamic.compact();
        let colors = dynamic.coloring().colors().to_vec();
        match &reference {
            None => reference = Some((colors, counts, (delta.colors_after, delta.recolored))),
            Some((ref_colors, ref_counts, ref_delta)) => {
                assert_eq!(&colors, ref_colors, "colorings diverged under {kind:?}");
                assert_eq!(&counts, ref_counts, "repair counts diverged under {kind:?}");
                assert_eq!(
                    &(delta.colors_after, delta.recolored),
                    ref_delta,
                    "compaction diverged under {kind:?}"
                );
            }
        }
    }
}

/// Ingested fixtures flow through the dynamic driver end to end (the E20 pipeline at its
/// smallest: parse from disk, hold out, re-insert, stay legal).
#[test]
fn ingested_graph_survives_dynamic_growth() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/datasets/karate.edges");
    let g = arbcolor_graph::io::read_graph(path).expect("karate fixture parses");
    let (base, batches) = hold_out(&g, 6, 2);
    let mut dynamic = DynamicColoring::new(base).unwrap();
    for batch in &batches {
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch.clone())]).unwrap();
        assert!(outcome.repaired_vertices() < g.n());
    }
    assert_eq!(dynamic.graph().m(), g.m());
    assert!(dynamic.coloring().is_legal(dynamic.graph()));
}
