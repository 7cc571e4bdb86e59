//! Criterion benchmarks for [`InducedSubgraph::new`] on a color-hubs-shaped graph,
//! `star_forest_union(2·10⁵, 3, 50, 1)`, one row per construction path:
//!
//! * `induce/whole` — every vertex, ascending: the subgraph borrows the parent (the root
//!   instance of Ghaffari–Kuhn and a one-group Legal-Coloring partition).
//! * `induce/ascending_half` — every other vertex, ascending: the child CSR is written
//!   directly, without a sort.
//! * `induce/scattered_half` — the same vertices shuffled: children are numbered by first
//!   appearance and the edges go through the `GraphBuilder` sort.
//! * `induce/hubs_139` — the 139 vertices of highest degree, ascending: a hub part of the
//!   kind Ghaffari–Kuhn's later levels induce, a few vertices with thousands of arcs each in
//!   a window of nearly the whole graph, so membership goes through the part's rank bitset.

use arbcolor_graph::{generators, InducedSubgraph, Vertex};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A fixed permutation of `vertices` (SplitMix64-driven Fisher–Yates).
fn shuffled(mut vertices: Vec<Vertex>, seed: u64) -> Vec<Vertex> {
    let mut state = seed;
    for i in (1..vertices.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        vertices.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    vertices
}

fn bench_induce(c: &mut Criterion) {
    let graph = generators::star_forest_union(200_000, 3, 50, 1).unwrap();
    let whole: Vec<Vertex> = graph.vertices().collect();
    let half: Vec<Vertex> = graph.vertices().step_by(2).collect();
    let mut hubs: Vec<Vertex> = graph.vertices().collect();
    hubs.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    hubs.truncate(139);
    hubs.sort_unstable();
    let rows = [
        ("whole", whole),
        ("ascending_half", half.clone()),
        ("scattered_half", shuffled(half, 7)),
        ("hubs_139", hubs),
    ];
    let mut group = c.benchmark_group("induce");
    group.sample_size(10);
    for (name, vertices) in &rows {
        group.bench_function(*name, |b| {
            b.iter(|| InducedSubgraph::new(black_box(&graph), black_box(vertices)).graph.m())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_induce);
criterion_main!(benches);
