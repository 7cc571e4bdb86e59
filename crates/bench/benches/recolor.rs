//! Criterion benchmarks for the recoloring kernel [`PolynomialFamily::best_alpha`], the
//! α-selection of every Linial, Kuhn-defective and Arb-Recolor step.
//!
//! * `best_alpha/hub` — q = 107, 3 digits and 4147 neighbors drawn from `[0, 107³)`: the
//!   family and degree of the color-hubs hub vertices, where `α = 0` collides and the
//!   remaining `α` are chosen by counting the roots of each neighbor's difference polynomial.
//! * `best_alpha/hub_scan` — the same field and degree with 4 digits (neighbors drawn from
//!   `[0, 107⁴)`), a family without the root path: `α = 0` collides and the other `α` are
//!   scanned over the digit rows.
//! * `best_alpha/sparse` — q = 29, 3 digits and 8 neighbors whose lowest digit differs from
//!   the color's, so `α = 0` has no collision and is decided from the lowest digits alone.
//! * `best_alpha/sparse_collide` — the same with one neighbor sharing the color's lowest
//!   digit, so the roots of the eight differences are counted over `F_29`.
//!
//! Each sample times a batch of instances (8 per hub row, 4096 per sparse row) with one
//! reused scratch.

use arbcolor_decompose::algebraic::PolynomialFamily;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// SplitMix64: a fixed, dependency-free stream of draws.
fn draws(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `count` instances of a color and `degree` neighbor colors in `family`.  With
/// `low_collisions`, that many neighbors share the color's lowest digit and the others avoid
/// it; without, the neighbors are uniform.
fn instances(
    family: &PolynomialFamily,
    count: usize,
    degree: usize,
    low_collisions: Option<usize>,
    seed: u64,
) -> Vec<(u64, Vec<u64>)> {
    let (q, mut next) = (family.q, draws(seed));
    (0..count)
        .map(|_| {
            let color = next() % family.colors;
            let neighbors = (0..degree)
                .map(|i| {
                    let y = next() % family.colors;
                    let high = y - y % q;
                    match low_collisions {
                        None => y,
                        Some(k) if i < k => high + color % q,
                        Some(_) => high + (color % q + 1 + y % (q - 1)) % q,
                    }
                })
                .collect();
            (color, neighbors)
        })
        .collect()
}

fn bench_best_alpha(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_alpha");
    group.sample_size(20);
    let hub = PolynomialFamily::new(107, 107 * 107 * 107);
    let hub_scan = PolynomialFamily::new(107, 107 * 107 * 107 * 107);
    let sparse = PolynomialFamily::new(29, 29 * 29 * 29);
    let rows = [
        ("hub", &hub, instances(&hub, 8, 4147, None, 1)),
        ("hub_scan", &hub_scan, instances(&hub_scan, 8, 4147, None, 4)),
        ("sparse", &sparse, instances(&sparse, 4096, 8, Some(0), 2)),
        ("sparse_collide", &sparse, instances(&sparse, 4096, 8, Some(1), 3)),
    ];
    for (name, family, cases) in &rows {
        let mut scratch = Vec::new();
        group.bench_function(*name, |b| {
            b.iter(|| {
                cases
                    .iter()
                    .map(|(color, neighbors)| {
                        family.best_alpha(black_box(*color), black_box(neighbors), &mut scratch)
                    })
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_best_alpha);
criterion_main!(benches);
