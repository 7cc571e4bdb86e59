//! Criterion benchmarks for the bitset palette engine (experiment E24's wall-clock side):
//! raw [`PaletteSet`] strike/pick micro-costs, and the bitset pick path of
//! [`SlotSchedule`] sweeps against the preserved `Vec`-scan reference
//! ([`VecScanPick`]) on identical greedy-scheduled sweeps: two rules of one slot-sweep
//! program.

use arbcolor_baselines::greedy::sequential_greedy;
use arbcolor_graph::{generators, ColorPool, PaletteSet};
use arbcolor_runtime::algorithms::{SlotSchedule, SlotSweep, VecScanPick};
use arbcolor_runtime::Executor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_palette_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("palette_set_strike_pick");
    group.sample_size(10);
    for bound in [64u64, 1024, 16384] {
        group.bench_with_input(BenchmarkId::from_parameter(bound), &bound, |b, &bound| {
            let mut set = PaletteSet::new(bound);
            b.iter(|| {
                // Strike every other color, pick, epoch-clear — the hot node-program cycle.
                for color in (0..bound).step_by(2) {
                    set.strike(color);
                }
                let picked = set.first_unstruck().expect("odd colors survive");
                set.clear();
                picked
            })
        });
    }
    group.finish();
}

fn greedy_schedule(n: usize) -> (arbcolor_graph::Graph, SlotSchedule) {
    let g = generators::random_regular_like(n, 32, 103).unwrap().with_shuffled_ids(17);
    let schedule_coloring = sequential_greedy(&g, None);
    let mut palettes = ColorPool::new();
    for v in g.vertices() {
        palettes.push_iter(0..=g.degree(v) as u64);
    }
    let slots = g.vertices().map(|v| schedule_coloring.color(v) as usize).collect();
    let schedule = SlotSchedule::lists(slots, palettes, ColorPool::empty_lists(g.n()));
    (g, schedule)
}

fn bench_bitset_pick_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("palette_pick_bitset");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let (g, schedule) = greedy_schedule(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, ()| {
            b.iter(|| Executor::new(&g).run(&SlotSweep(&schedule)).unwrap())
        });
    }
    group.finish();
}

fn bench_vecscan_pick_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("palette_pick_vecscan");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let (g, schedule) = greedy_schedule(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, ()| {
            b.iter(|| Executor::new(&g).run(&SlotSweep(&VecScanPick(&schedule))).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_palette_set, bench_bitset_pick_path, bench_vecscan_pick_path);
criterion_main!(benches);
