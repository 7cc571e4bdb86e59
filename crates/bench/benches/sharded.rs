//! Criterion bench group `sharded_scale`: the same LOCAL executions under the work-stealing
//! [`Executor`] at growing `n` and thread counts.
//!
//! Two tiers are timed: the raw simulator on a message-heavy flood (isolating executor
//! overhead and barrier costs from algorithm logic), and the full Barenboim–Elkin pipeline
//! under an installed run configuration (what experiment E17 measures at much larger
//! `n`).  Outputs are bit-identical across all variants, so the comparison is
//! pure wall-clock.

use arbcolor::legal_coloring::{a_power_coloring, APowerParams};
use arbcolor_graph::generators;
use arbcolor_runtime::{algorithms::FloodMaxId, Executor, ExecutorKind, RunConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_executor_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_scale");
    group.sample_size(10);
    for n in [10_000usize, 40_000] {
        let g = generators::union_of_random_forests(n, 3, 11).unwrap().with_shuffled_ids(4);
        let flood = FloodMaxId { rounds: 12 };
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("flood/sharded_t{threads}"), n),
                &g,
                |b, g| b.iter(|| Executor::new(g).with_threads(threads).run(&flood).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_pipeline_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_scale");
    group.sample_size(10);
    let n = 6_000usize;
    let g = generators::union_of_random_forests(n, 4, 37).unwrap().with_shuffled_ids(1);
    for (label, kind) in [
        ("be/sharded_t1", ExecutorKind::sharded(1)),
        ("be/sharded_t2", ExecutorKind::sharded(2)),
        ("be/sharded_t4", ExecutorKind::sharded(4)),
    ] {
        group.bench_with_input(BenchmarkId::new(label, n), &g, |b, g| {
            let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
            b.iter(|| a_power_coloring(g, 4, APowerParams { eta: 0.5, epsilon: 1.0 }).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executor_overhead, bench_pipeline_dispatch);
criterion_main!(benches);
