//! Criterion bench group `routing`: the arc-indexed message fabric against the preserved
//! pre-fabric reference executor.
//!
//! Three tiers isolate where the win comes from:
//!
//! * `mirror_port` vs a linear `port_of` scan — the raw routing primitive, summed over
//!   every arc of a dense graph;
//! * a message-dense flood on the full executors — delivery plus mailbox management, no
//!   algorithm logic;
//! * the Ghaffari–Kuhn pipeline under an installed run configuration — what experiment E18
//!   measures at much larger `n`.
//!
//! Outputs are bit-identical across fabrics (enforced by `tests/message_fabric.rs`), so
//! every comparison is pure wall-clock.

use arbcolor_baselines::registry::headline_algorithms;
use arbcolor_graph::generators;
use arbcolor_runtime::{
    algorithms::FloodMaxId, Executor, ExecutorKind, ReferenceExecutor, RunConfig,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_routing_primitive(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(20);
    let n = 2_000usize;
    let g = generators::random_regular_like(n, 48, 7).unwrap();
    group.bench_with_input(BenchmarkId::new("port/mirror_table", n), &g, |b, g| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in g.vertices() {
                for port in 0..g.degree(v) {
                    acc += g.mirror_port(v, port);
                }
            }
            black_box(acc)
        })
    });
    group.bench_with_input(BenchmarkId::new("port/linear_scan", n), &g, |b, g| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    acc += g.neighbors(u).iter().position(|&w| w == v).unwrap();
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_flood_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    for (family, n, degree) in [("dense", 10_000usize, 32usize), ("sparse", 40_000, 6)] {
        let g = generators::random_regular_like(n, degree, 11).unwrap().with_shuffled_ids(4);
        let flood = FloodMaxId { rounds: 8 };
        group.bench_with_input(BenchmarkId::new(format!("flood/{family}/flat"), n), &g, |b, g| {
            b.iter(|| Executor::new(g).run(&flood).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new(format!("flood/{family}/reference"), n),
            &g,
            |b, g| b.iter(|| ReferenceExecutor::new(g).run(&flood).unwrap()),
        );
    }
    group.finish();
}

fn bench_headliner_fabric(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    let n = 4_000usize;
    let g = generators::random_regular_like(n, 24, 13).unwrap().with_shuffled_ids(2);
    let gk = headline_algorithms()
        .into_iter()
        .find(|a| a.name() == "ghaffari_kuhn")
        .expect("registry has the GK headliner");
    for (label, kind) in
        [("gk/flat", ExecutorKind::sharded(1)), ("gk/reference", ExecutorKind::Reference)]
    {
        group.bench_with_input(BenchmarkId::new(label, n), &g, |b, g| {
            let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
            b.iter(|| gk.run(g).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing_primitive, bench_flood_delivery, bench_headliner_fabric);
criterion_main!(benches);
