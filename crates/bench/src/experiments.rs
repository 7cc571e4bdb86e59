//! One function per experiment of the reproduction index (see [`catalog`]).
//!
//! Every function takes a [`SizeClass`] — `Scale(1)` runs the reference sizes, larger scales
//! grow the graphs, and `Smoke` shrinks every workload to a
//! tiny fraction so the whole suite finishes in seconds (the CI `bench-smoke` job runs it on
//! every pull request and archives the JSON rows).  All experiments are deterministic: graph
//! generators and randomized baselines take fixed seeds.

use crate::row::Row;
use arbcolor::arb_kuhn::arb_kuhn_coloring;
use arbcolor::arbdefective_coloring::arbdefective_coloring;
use arbcolor::legal_coloring::{
    a_one_plus_o1_coloring, a_power_coloring, o_a_coloring, one_shot_coloring,
    sparse_delta_plus_one, APowerParams, OaParams,
};
use arbcolor::mis::mis_bounded_arboricity;
use arbcolor::orientation_procs::{complete_orientation, partial_orientation};
use arbcolor::simple_arbdefective::simple_arbdefective;
use arbcolor::tradeoffs::{color_time_tradeoff, sub_quadratic_coloring};
use arbcolor_baselines::luby::luby_mis;
use arbcolor_baselines::registry::{congest_headliners, headline_algorithms, standard_baselines};
use arbcolor_decompose::defective::defective_coloring;
use arbcolor_decompose::forests::bounded_outdegree_orientation;
use arbcolor_graph::{degeneracy, generators, Graph};
use arbcolor_runtime::{CostMode, ExecutorKind, RoundReport, RunConfig};
use std::time::Instant;

const EPS: f64 = 1.0;

/// The seed of the randomized contenders (E22/E23's HKMT headliner) when `--seed` is not
/// given — the value every committed table and CI baseline was produced with.
pub const DEFAULT_SEED: u64 = 42;

/// The current [`RunConfig`] (the CLI's `--par`/`--chunk-size`) with its executor replaced
/// by `executor`.  A work-stealing `executor` keeps the current chunk size, so
/// `--chunk-size` still reaches experiments that switch thread count.
fn ambient_with(executor: ExecutorKind) -> RunConfig {
    let ambient = RunConfig::current();
    let executor = match (executor, ambient.executor) {
        (ExecutorKind::Sharded { threads, .. }, ExecutorKind::Sharded { chunk_size, .. }) => {
            ExecutorKind::Sharded { threads, chunk_size }
        }
        _ => executor,
    };
    RunConfig { executor, ..ambient }
}

/// How large the experiment workloads should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// Tiny graphs for the CI smoke tier: every base size is divided by six (with a floor),
    /// keeping the full suite under a few seconds while still exercising every code path.
    Smoke,
    /// The recorded experiment sizes multiplied by the given factor (0 is treated as 1).
    Scale(usize),
}

impl SizeClass {
    /// Maps a base vertex count to the vertex count to run at.
    pub fn n(self, base: usize) -> usize {
        match self {
            SizeClass::Smoke => (base / 6).max(40),
            SizeClass::Scale(factor) => base * factor.max(1),
        }
    }
}

fn forest_graph(n: usize, a: usize, seed: u64) -> (Graph, usize) {
    let g = generators::union_of_random_forests(n, a, seed)
        .expect("valid forest-union parameters")
        .with_shuffled_ids(seed + 1);
    (g, a)
}

/// E1 — Theorem 3.2: Simple-Arbdefective on a complete bounded-out-degree orientation.
pub fn e1_simple_arbdefective(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(300), 4, 11);
    let bounded = bounded_outdegree_orientation(&g, a, EPS).expect("arboricity bound holds");
    let mut rows = Vec::new();
    for k in [1u64, 2, 4, 8] {
        let out = simple_arbdefective(&g, &bounded.orientation, k, bounded.out_degree_bound, 0)
            .expect("Theorem 3.2");
        let worst = out.verify(&g).expect("witnesses check out");
        rows.push(
            Row::new("E1", format!("forests n={}, a={a}, k={k}", g.n()))
                .with("k", k as f64)
                .with("claimed_arbdefect", out.arbdefect_bound as f64)
                .with("measured_arbdefect", worst as f64)
                .with("rounds", out.report.rounds as f64)
                .with("orientation_length", bounded.orientation.length(&g).unwrap() as f64),
        );
    }
    rows
}

/// E2 — Lemma 3.3: Complete-Orientation out-degree and length.
pub fn e2_complete_orientation(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for (n, a) in [(sz.n(200), 2), (sz.n(400), 4), (sz.n(800), 4)] {
        let (g, _) = forest_graph(n, a, 13);
        let oriented = complete_orientation(&g, a, EPS).expect("Lemma 3.3");
        rows.push(
            Row::new("E2", format!("forests n={n}, a={a}"))
                .with("out_degree_bound", oriented.out_degree_bound as f64)
                .with("measured_out_degree", oriented.orientation.max_out_degree(&g) as f64)
                .with("measured_length", oriented.measured_length as f64)
                .with(
                    "a_logn_bound",
                    (oriented.bucket_palette_bound + 1) as f64
                        * (oriented.partition.num_buckets + 1) as f64,
                )
                .with("rounds", oriented.report.rounds as f64),
        );
    }
    rows
}

/// E3 — Theorem 3.5: Partial-Orientation deficit/length/rounds versus `t`.
pub fn e3_partial_orientation(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(500), 6, 17);
    let mut rows = Vec::new();
    for t in [1usize, 2, 3, 6] {
        let oriented = partial_orientation(&g, a, t, EPS).expect("Theorem 3.5");
        rows.push(
            Row::new("E3", format!("forests n={}, a={a}, t={t}", g.n()))
                .with("t", t as f64)
                .with("deficit_bound", oriented.deficit_bound as f64)
                .with("measured_deficit", oriented.orientation.max_deficit(&g) as f64)
                .with("measured_out_degree", oriented.orientation.max_out_degree(&g) as f64)
                .with("measured_length", oriented.measured_length as f64)
                .with("rounds", oriented.report.rounds as f64),
        );
    }
    rows
}

/// E4 — Corollary 3.6: Arbdefective-Coloring quality versus `(k, t)`.
pub fn e4_arbdefective_coloring(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(400), 6, 19);
    let mut rows = Vec::new();
    for (k, t) in [(2u64, 2usize), (3, 3), (6, 6), (3, 6)] {
        let out = arbdefective_coloring(&g, a, k, t, EPS).expect("Corollary 3.6");
        let worst = out.coloring.verify(&g).expect("witnesses check out");
        rows.push(
            Row::new("E4", format!("forests n={}, a={a}, k={k}, t={t}", g.n()))
                .with("claimed_arbdefect", out.arbdefect_bound() as f64)
                .with("measured_arbdefect", worst as f64)
                .with("rounds", out.report.rounds as f64),
        );
    }
    rows
}

/// E5 — Lemma 4.1: the one-shot `O(a)`-coloring.
pub fn e5_one_shot(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in [4usize, 8, 12] {
        let (g, _) = forest_graph(sz.n(300), a, 23);
        let run = one_shot_coloring(&g, a, EPS).expect("Lemma 4.1");
        rows.push(
            Row::new("E5", format!("forests n={}, a={a}", g.n()))
                .with("a", a as f64)
                .with("colors", run.colors_used as f64)
                .with("colors_over_a", run.colors_used as f64 / a as f64)
                .with("rounds", run.report.rounds as f64),
        );
    }
    rows
}

/// E6 — Theorem 4.3 / Corollary 4.4: `O(a)` colors in `O(a^µ log n)` rounds.
pub fn e6_o_a_coloring(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(500), 8, 29);
    let mut rows = Vec::new();
    for mu in [0.3, 0.6, 0.9] {
        let run = o_a_coloring(&g, a, OaParams { mu, epsilon: EPS }).expect("Theorem 4.3");
        rows.push(
            Row::new("E6", format!("forests n={}, a={a}, mu={mu}", g.n()))
                .with("mu", mu)
                .with("colors", run.colors_used as f64)
                .with("colors_over_a", run.colors_used as f64 / a as f64)
                .with("rounds", run.report.rounds as f64),
        );
    }
    rows
}

/// E7 — Theorem 4.5: `a^{1+o(1)}` colors.
pub fn e7_a_one_plus_o1(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in [4usize, 8, 16] {
        let (g, _) = forest_graph(sz.n(400), a, 31);
        let run = a_one_plus_o1_coloring(&g, a, EPS).expect("Theorem 4.5");
        rows.push(
            Row::new("E7", format!("forests n={}, a={a}", g.n()))
                .with("a", a as f64)
                .with("colors", run.colors_used as f64)
                .with("colors_over_a", run.colors_used as f64 / a as f64)
                .with("rounds", run.report.rounds as f64),
        );
    }
    rows
}

/// E8 — Corollary 4.6 (headline): `O(a^{1+η})` colors in `O(log a · log n)` rounds; rounds
/// scale with `log n`.
pub fn e8_headline(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [sz.n(250), sz.n(500), sz.n(1000), sz.n(2000)] {
        let (g, a) = forest_graph(n, 4, 37);
        let run = a_power_coloring(&g, a, APowerParams { eta: 0.5, epsilon: EPS })
            .expect("Corollary 4.6");
        rows.push(
            Row::new("E8", format!("forests n={n}, a={a}, eta=0.5"))
                .with("n", n as f64)
                .with("log2_n", (n as f64).log2())
                .with("colors", run.colors_used as f64)
                .with("rounds", run.report.rounds as f64)
                .with("rounds_over_log2n", run.report.rounds as f64 / (n as f64).log2()),
        );
    }
    rows
}

/// E9 — Corollary 4.7: sparse graphs (`a ≪ Δ`) get far fewer than `Δ` colors.
pub fn e9_sparse_delta(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, g) in [
        (
            "star-forests",
            generators::star_forest_union(sz.n(800), 2, 4, 41).unwrap().with_shuffled_ids(5),
        ),
        (
            "preferential-attachment",
            generators::barabasi_albert(sz.n(800), 3, 43).unwrap().with_shuffled_ids(6),
        ),
    ] {
        let a = degeneracy::degeneracy(&g).max(1);
        let run = sparse_delta_plus_one(&g, a, 0.5, EPS).expect("Corollary 4.7");
        rows.push(
            Row::new("E9", format!("{name} n={}", g.n()))
                .with("degeneracy", a as f64)
                .with("max_degree", g.max_degree() as f64)
                .with("colors", run.colors_used as f64)
                .with("delta_plus_one", (g.max_degree() + 1) as f64)
                .with("rounds", run.report.rounds as f64),
        );
    }
    rows
}

/// E10 — Theorem 5.2: `O(a²/g)` colors in `O(log g · log n)` rounds.
pub fn e10_sub_quadratic(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(500), 8, 47);
    let mut rows = Vec::new();
    for split in [2usize, 4, 8] {
        let run = sub_quadratic_coloring(&g, a, split, 1.0, EPS).expect("Theorem 5.2");
        rows.push(
            Row::new("E10", format!("forests n={}, a={a}, g={split}", g.n()))
                .with("g", split as f64)
                .with("colors", run.colors_used as f64)
                .with("a_squared", (a * a) as f64)
                .with("rounds", run.report.rounds as f64),
        );
    }
    rows
}

/// E11 — Theorem 5.3: the color/time trade-off.
pub fn e11_tradeoff(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(500), 8, 53);
    let mut rows = Vec::new();
    for t in [1usize, 2, 4, 8] {
        let run = color_time_tradeoff(&g, a, t, 0.5, EPS).expect("Theorem 5.3");
        rows.push(
            Row::new("E11", format!("forests n={}, a={a}, t={t}", g.n()))
                .with("t", t as f64)
                .with("colors", run.colors_used as f64)
                .with("a_times_t", (a * t) as f64)
                .with("rounds", run.report.rounds as f64),
        );
    }
    rows
}

/// E12 — §1.2 MIS: deterministic bounded-arboricity MIS versus Luby.
pub fn e12_mis(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in [2usize, 4] {
        let (g, _) = forest_graph(sz.n(500), a, 59);
        let det = mis_bounded_arboricity(&g, a, 0.5, EPS).expect("MIS");
        det.verify(&g).expect("valid MIS");
        let luby = luby_mis(&g, 61);
        rows.push(
            Row::new("E12", format!("forests n={}, a={a}", g.n()))
                .with("det_size", det.size as f64)
                .with("det_rounds", det.report.rounds as f64)
                .with("luby_size", luby.size as f64)
                .with("luby_rounds", luby.report.rounds as f64),
        );
    }
    rows
}

/// E13 — the §1.2 state-of-the-art comparison table: the two headline algorithms (the
/// `barenboim_elkin` registry entry *is* the paper's Corollary 4.6/4.7 coloring) versus
/// every baseline on the same graph.
pub fn e13_baseline_table(sz: SizeClass) -> Vec<Row> {
    let g = generators::star_forest_union(sz.n(600), 2, 4, 67).unwrap().with_shuffled_ids(8);
    let mut rows = Vec::new();
    for baseline in headline_algorithms().into_iter().chain(standard_baselines(71)) {
        match baseline.run(&g) {
            Ok(outcome) => rows.push(
                Row::new("E13", format!("{} on stars n={}", outcome.name, g.n()))
                    .with("colors", outcome.colors as f64)
                    .with("rounds", outcome.report.rounds as f64)
                    .with("deterministic", if outcome.deterministic { 1.0 } else { 0.0 }),
            ),
            Err(err) => rows.push(Row::new("E13", format!("{} failed: {err}", baseline.name()))),
        }
    }
    rows
}

/// E14 — Figure 1: structure of the longest directed path under Partial-Orientation.
pub fn e14_figure1(sz: SizeClass) -> Vec<Row> {
    let (g, a) = forest_graph(sz.n(500), 4, 73);
    let oriented = partial_orientation(&g, a, 3, EPS).expect("Theorem 3.5");
    let path = oriented.orientation.longest_path(&g).expect("acyclic");
    let crossings = path
        .windows(2)
        .filter(|w| oriented.partition.h_index[w[0]] != oriented.partition.h_index[w[1]])
        .count();
    vec![Row::new("E14", format!("forests n={}, a={a}, t=3", g.n()))
        .with("path_length", path.len().saturating_sub(1) as f64)
        .with("bucket_crossings", crossings as f64)
        .with("num_buckets", oriented.partition.num_buckets as f64)
        .with("bucket_palette", oriented.bucket_palette_bound as f64)]
}

/// E15 — Lemma 2.1 and Algorithm Arb-Kuhn: the recoloring primitives.
pub fn e15_primitives(sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    let g = generators::gnp(sz.n(600), 0.02, 79).unwrap().with_shuffled_ids(9);
    let delta = g.max_degree();
    for p in [2usize, 4, 8] {
        let out = defective_coloring(&g, p).expect("Lemma 2.1");
        rows.push(
            Row::new("E15", format!("gnp n={}, Δ={delta}, p={p} (defective)", g.n()))
                .with("p", p as f64)
                .with("target_defect", out.target_defect as f64)
                .with("measured_defect", out.measured_defect as f64)
                .with("colors", out.output.colors_used as f64)
                .with("p_squared", (p * p) as f64)
                .with("rounds", out.output.report.rounds as f64),
        );
    }
    let (gf, a) = forest_graph(sz.n(600), 6, 83);
    for d in [1usize, 2, 3] {
        let out = arb_kuhn_coloring(&gf, a, d, EPS).expect("Arb-Kuhn");
        let worst = out.verify(&gf).expect("witnesses");
        rows.push(
            Row::new("E15", format!("forests n={}, a={a}, d={d} (arb-kuhn)", gf.n()))
                .with("target_arbdefect", d as f64)
                .with("measured_arbdefect", worst as f64)
                .with("colors", out.coloring.distinct_colors() as f64)
                .with("rounds", out.report.rounds as f64),
        );
    }
    rows
}

/// The seeded generator-family suite every headliner head-to-head runs on (E16, E22, E23):
/// one graph per family, identical across the three experiments so their tables align.
fn headline_families(sz: SizeClass) -> Vec<(&'static str, Graph)> {
    vec![
        (
            "forests",
            generators::union_of_random_forests(sz.n(500), 3, 89).unwrap().with_shuffled_ids(10),
        ),
        (
            "star-forests",
            generators::star_forest_union(sz.n(600), 2, 4, 91).unwrap().with_shuffled_ids(11),
        ),
        (
            "preferential-attachment",
            generators::barabasi_albert(sz.n(600), 3, 93).unwrap().with_shuffled_ids(12),
        ),
        ("random-trees", generators::random_tree(sz.n(500), 97).unwrap().with_shuffled_ids(13)),
        ("grid", generators::grid(sz.n(120) / 5, 25).unwrap().with_shuffled_ids(14)),
        ("caterpillar", generators::caterpillar(sz.n(480) / 6, 5).unwrap().with_shuffled_ids(15)),
    ]
}

/// E16 — the headline head-to-head: Barenboim–Elkin versus Ghaffari–Kuhn on the same seeded
/// graph of every generator family.  Every coloring is re-verified legal with at most `Δ + 1`
/// colors before its row is emitted.
pub fn e16_headline_head_to_head(sz: SizeClass) -> Vec<Row> {
    let families = headline_families(sz);
    let mut rows = Vec::new();
    for (family, g) in &families {
        let delta_plus_one = g.max_degree() + 1;
        for algorithm in headline_algorithms() {
            let outcome = algorithm
                .run(g)
                .unwrap_or_else(|e| panic!("{} failed on {family}: {e}", algorithm.name()));
            assert!(
                outcome.coloring.is_legal(g),
                "{} produced an illegal coloring on {family}",
                outcome.name
            );
            assert!(
                outcome.colors <= delta_plus_one,
                "{} used {} colors on {family} but Δ + 1 = {delta_plus_one}",
                outcome.name,
                outcome.colors
            );
            rows.push(
                Row::new("E16", format!("{family} n={} · {}", g.n(), outcome.name))
                    .with("n", g.n() as f64)
                    .with("max_degree", g.max_degree() as f64)
                    .with("degeneracy", degeneracy::degeneracy(g) as f64)
                    .with("colors", outcome.colors as f64)
                    .with("delta_plus_one", delta_plus_one as f64)
                    .with("rounds", outcome.report.rounds as f64)
                    .with("messages", outcome.report.messages as f64)
                    .with("legal", 1.0),
            );
        }
    }
    rows
}

/// E17 — the sharded-simulator scale sweep: both headliners on growing forest unions under
/// the work-stealing executor at `threads = 1` and at `threads = 4`.
///
/// Rounds, messages, and palettes are re-checked to be **bit-identical** across executors
/// before a row is emitted (the determinism guarantee of `arbcolor_runtime::shard`); the
/// wall-clock column is the only quantity allowed to differ.  `speedup_vs_seq` is the
/// one-thread wall-clock divided by the row's wall-clock, so the `threads = 4` rows report
/// the parallel speedup of the whole pipeline on the same graph.
///
/// At `Scale(1)` this is the `n ∈ {10⁵, 10⁶}` sweep of the reproduction index — minutes of
/// work; the smoke tier shrinks it to n = 4 000, enough default chunks to keep four workers
/// busy, so CI exercises the parallel path end to end in seconds.
pub fn e17_sharded_scale(sz: SizeClass) -> Vec<Row> {
    let sizes: Vec<usize> = match sz {
        SizeClass::Smoke => vec![4_000],
        SizeClass::Scale(factor) => {
            let factor = factor.max(1);
            vec![100_000 * factor, 1_000_000 * factor]
        }
    };
    let mut rows = Vec::new();
    for n in sizes {
        let g = generators::union_of_random_forests(n, 3, 101).unwrap().with_shuffled_ids(16);
        for algorithm in headline_algorithms() {
            let mut sequential: Option<(usize, RoundReport, f64)> = None;
            for threads in [1usize, 4] {
                let _config = ambient_with(ExecutorKind::sharded(threads)).install();
                let start = Instant::now();
                let outcome = algorithm.run(&g).unwrap_or_else(|e| {
                    panic!("{} failed on forests n={n}, threads={threads}: {e}", algorithm.name())
                });
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let speedup = match &sequential {
                    None => {
                        sequential = Some((outcome.colors, outcome.report, wall_ms));
                        1.0
                    }
                    Some((colors, report, seq_wall_ms)) => {
                        let (colors, report, seq_wall_ms) = (*colors, *report, *seq_wall_ms);
                        assert_eq!(
                            (outcome.colors, outcome.report),
                            (colors, report),
                            "{} diverged between executors on forests n={n}",
                            outcome.name
                        );
                        seq_wall_ms / wall_ms
                    }
                };
                rows.push(
                    Row::new(
                        "E17",
                        format!("forests n={n} · {} · threads={threads}", outcome.name),
                    )
                    .with("n", n as f64)
                    .with("threads", threads as f64)
                    .with("colors", outcome.colors as f64)
                    .with("rounds", outcome.report.rounds as f64)
                    .with("messages", outcome.report.messages as f64)
                    .with("wall_ms", wall_ms)
                    .with("speedup_vs_seq", speedup),
                );
            }
        }
    }
    rows
}

/// E18 — the message-fabric routing race: old-vs-new delivery on dense, random, and
/// power-law generators.
///
/// "Old" is the preserved [`arbcolor_runtime::ReferenceExecutor`]-style fabric (per-vertex
/// `Vec` mailboxes, each broadcast copied per port with an O(deg) `port_of` scan per
/// message); "new" is the pull fabric (one record per broadcast, read by each receiver
/// through the round's sender bitset, zero per-round allocation).  Two tiers per graph:
///
/// * a raw-executor race on a message-dense flood (`FloodMaxId`), isolating delivery cost —
///   this is where the `O(Σ deg²)`-per-round term of the old fabric shows directly;
/// * both headline coloring pipelines dispatched through an installed run configuration
///   (`ExecutorKind::Reference` vs `ExecutorKind::sharded(1)`), at the *smallest* size of
///   the sweep (`10⁵` at `Scale(1)`) — racing the quadratic fabric through a whole
///   pipeline at the 10× size would measure minutes of known-slow baseline, so the larger
///   sizes keep the flood race only.
///
/// Colors, rounds, and message counts are asserted **bit-identical** across fabrics before
/// a row is emitted; `wall_ms_flat`, `wall_ms_reference`, and `speedup_vs_ref` are the only
/// columns allowed to vary between runs.  At `Scale(1)` the sweep is `n ∈ {10⁵, 10⁶}`; the
/// smoke tier shrinks it so CI exercises every path in seconds.
pub fn e18_routing_fabric(sz: SizeClass) -> Vec<Row> {
    use arbcolor_runtime::algorithms::FloodMaxId;
    use arbcolor_runtime::{Executor, ReferenceExecutor};

    let sizes: Vec<usize> = match sz {
        SizeClass::Smoke => vec![1_500],
        SizeClass::Scale(factor) => {
            let factor = factor.max(1);
            vec![100_000 * factor, 1_000_000 * factor]
        }
    };
    let headliner_n = *sizes.iter().min().expect("the sweep is never empty");
    let mut rows = Vec::new();
    type FamilyGen = fn(usize) -> Graph;
    let families: Vec<(&str, FamilyGen)> = vec![
        ("dense", |n| generators::random_regular_like(n, 32, 103).unwrap().with_shuffled_ids(17)),
        ("random", |n| generators::gnp(n, 8.0 / n as f64, 107).unwrap().with_shuffled_ids(18)),
        ("power-law", |n| generators::barabasi_albert(n, 4, 109).unwrap().with_shuffled_ids(19)),
    ];
    for n in sizes {
        for (family, generate) in &families {
            // One graph lives at a time: at n = 10⁶ the dense family alone is ~1 GB of
            // CSR + edge list, so materializing all three up front would triple peak RSS.
            let g = &generate(n);
            // Raw-executor race: the flood isolates the delivery path.
            let flood = FloodMaxId { rounds: 6 };
            let start = Instant::now();
            let flat = Executor::new(g).run(&flood).expect("flood terminates");
            let wall_flat = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            let reference = ReferenceExecutor::new(g).run(&flood).expect("flood terminates");
            let wall_ref = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(flat.outputs, reference.outputs, "flood diverged on {family} n={n}");
            assert_eq!(flat.report, reference.report, "flood cost diverged on {family} n={n}");
            rows.push(
                Row::new("E18", format!("{family} n={n} · flood"))
                    .with("n", n as f64)
                    .with("avg_degree", g.average_degree())
                    .with("rounds", flat.report.rounds as f64)
                    .with("messages", flat.report.messages as f64)
                    .with("wall_ms_flat", wall_flat)
                    .with("wall_ms_reference", wall_ref)
                    .with("speedup_vs_ref", wall_ref / wall_flat.max(1e-9)),
            );
            if n > headliner_n {
                continue;
            }
            // Full-pipeline race: every run_algorithm call of both headliners lands on one
            // fabric or the other via the installed run configuration.
            for algorithm in headline_algorithms() {
                let config = ambient_with(ExecutorKind::sharded(1)).install();
                let start = Instant::now();
                let flat = algorithm.run(g).unwrap_or_else(|e| {
                    panic!("{} failed on {family} n={n}: {e}", algorithm.name())
                });
                let wall_flat = start.elapsed().as_secs_f64() * 1e3;
                drop(config);
                let config = ambient_with(ExecutorKind::Reference).install();
                let start = Instant::now();
                let reference = algorithm.run(g).unwrap_or_else(|e| {
                    panic!("{} failed on {family} n={n} (reference): {e}", algorithm.name())
                });
                let wall_ref = start.elapsed().as_secs_f64() * 1e3;
                drop(config);
                assert_eq!(
                    (flat.colors, flat.report, flat.coloring.colors()),
                    (reference.colors, reference.report, reference.coloring.colors()),
                    "{} diverged between fabrics on {family} n={n}",
                    flat.name
                );
                rows.push(
                    Row::new("E18", format!("{family} n={n} · {}", flat.name))
                        .with("n", n as f64)
                        .with("avg_degree", g.average_degree())
                        .with("colors", flat.colors as f64)
                        .with("rounds", flat.report.rounds as f64)
                        .with("messages", flat.report.messages as f64)
                        .with("wall_ms_flat", wall_flat)
                        .with("wall_ms_reference", wall_ref)
                        .with("speedup_vs_ref", wall_ref / wall_flat.max(1e-9)),
                );
            }
        }
    }
    rows
}

/// E19 — real-graph ingestion: both headliners on every checked-in fixture dataset (see
/// [`crate::datasets`]), parsed from their on-disk formats through `arbcolor_graph::io`.
///
/// Every coloring is re-verified legal and within `Δ + 1` before its row is emitted, so a
/// parser that silently corrupts a graph (or an algorithm that mishandles real-shaped
/// degree distributions) fails the experiment rather than producing a quiet bad row.
///
/// The fixtures have fixed sizes, so the [`SizeClass`] is ignored — the smoke tier and the
/// full tier run identical workloads (they are already CI-sized).
pub fn e19_real_graph_ingestion(_sz: SizeClass) -> Vec<Row> {
    let mut rows = Vec::new();
    for (i, ds) in crate::datasets::fixture_datasets().iter().enumerate() {
        let g = ds
            .load()
            .unwrap_or_else(|e| panic!("fixture {} failed to parse: {e}", ds.name))
            .with_shuffled_ids(113 + i as u64);
        let delta_plus_one = g.max_degree() + 1;
        for algorithm in headline_algorithms() {
            let start = Instant::now();
            let outcome = algorithm
                .run(&g)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", algorithm.name(), ds.name));
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                outcome.coloring.is_legal(&g),
                "{} produced an illegal coloring on {}",
                outcome.name,
                ds.name
            );
            assert!(
                outcome.colors <= delta_plus_one,
                "{} used {} colors on {} but Δ + 1 = {delta_plus_one}",
                outcome.name,
                outcome.colors,
                ds.name
            );
            rows.push(
                Row::new(
                    "E19",
                    format!("{} ({}) n={} · {}", ds.name, ds.format.name(), g.n(), outcome.name),
                )
                .with("n", g.n() as f64)
                .with("m", g.m() as f64)
                .with("max_degree", g.max_degree() as f64)
                .with("degeneracy", degeneracy::degeneracy(&g) as f64)
                .with("colors", outcome.colors as f64)
                .with("delta_plus_one", delta_plus_one as f64)
                .with("rounds", outcome.report.rounds as f64)
                .with("messages", outcome.report.messages as f64)
                .with("legal", 1.0)
                .with("wall_ms", wall_ms),
            );
        }
    }
    rows
}

/// E20 — dynamic recoloring: edge-insertion batches on every fixture dataset, localized
/// repair versus the full-recolor baseline.
///
/// Per dataset, every 8th edge (by canonical index) is held out of the initial graph and
/// re-inserted in three round-robin batches through
/// [`arbcolor::dynamic::DynamicColoring`].  Each row compares the vertices the localized
/// repair touched (`repaired_vertices`) against the full-recolor baseline
/// (`full_recolor_vertices = n`, with its rounds and wall-clock measured by actually
/// re-coloring the post-batch graph); the experiment asserts that at least one batch per
/// dataset repairs strictly fewer vertices than the baseline would touch.
///
/// The entire batch sequence is replayed under the one-thread, four-thread, and reference
/// executors and the final colorings (plus all per-batch frontier/repair counts) are
/// asserted **bit-identical** — only the `wall_ms_*` columns may differ between runs.  The
/// fixtures have fixed sizes, so the [`SizeClass`] is ignored.
pub fn e20_dynamic_recoloring(_sz: SizeClass) -> Vec<Row> {
    use arbcolor::dynamic::{BatchOutcome, DynamicColoring, GraphUpdate, RepairStrategy};
    use arbcolor::ghaffari_kuhn::ghaffari_kuhn_coloring;
    use arbcolor_graph::Coloring;

    const BATCHES: usize = 3;

    /// Replays the whole insertion sequence under `config`, returning the final coloring,
    /// the per-batch outcomes, and the per-batch repair wall-clock.
    fn run_sequence(
        config: RunConfig,
        base: &Graph,
        batches: &[Vec<(usize, usize)>],
    ) -> (Coloring, Vec<BatchOutcome>, Vec<f64>) {
        let _config = config.install();
        let mut dynamic = DynamicColoring::new(base.clone()).expect("initial coloring");
        let mut outcomes = Vec::new();
        let mut walls = Vec::new();
        for batch in batches {
            let updates = [GraphUpdate::InsertEdges(batch.clone())];
            let start = Instant::now();
            let outcome = dynamic.apply(&updates).expect("batch repair");
            walls.push(start.elapsed().as_secs_f64() * 1e3);
            outcomes.push(outcome);
        }
        (dynamic.coloring().clone(), outcomes, walls)
    }

    let mut rows = Vec::new();
    for (i, ds) in crate::datasets::fixture_datasets().iter().enumerate() {
        let full = ds
            .load()
            .unwrap_or_else(|e| panic!("fixture {} failed to parse: {e}", ds.name))
            .with_shuffled_ids(127 + i as u64);
        // Hold out every 8th edge; re-insert round-robin across the batches.
        let mut kept = Vec::new();
        let mut batches: Vec<Vec<(usize, usize)>> = vec![Vec::new(); BATCHES];
        for (e, &edge) in full.edges().iter().enumerate() {
            if e % 8 == 0 {
                batches[(e / 8) % BATCHES].push(edge);
            } else {
                kept.push(edge);
            }
        }
        let base = Graph::from_edges(full.n(), kept)
            .expect("held-out subgraph")
            .with_vertex_ids(full.ids().to_vec())
            .expect("ids are inherited");

        // Primary run under the ambient (CLI-selected) executor; replays under every
        // other kind must be bit-identical in everything but wall-clock.
        let ambient = RunConfig::current();
        let (final_coloring, outcomes, walls) = run_sequence(ambient, &base, &batches);
        for kind in [ExecutorKind::sharded(1), ExecutorKind::sharded(4), ExecutorKind::Reference] {
            let config = ambient_with(kind);
            if config == ambient {
                continue;
            }
            let (coloring, replay, _) = run_sequence(config, &base, &batches);
            assert_eq!(
                coloring.colors(),
                final_coloring.colors(),
                "dynamic repair diverged between executors on {}",
                ds.name
            );
            for (a, b) in outcomes.iter().zip(&replay) {
                assert_eq!(a, b, "batch outcome diverged between executors on {}", ds.name);
            }
        }
        assert!(final_coloring.is_legal(rebuilt(&base, &batches).as_ref().unwrap_or(&base)));
        assert!(
            outcomes.iter().any(|o| o.repaired_vertices() < full.n()),
            "{}: no batch repaired fewer vertices than a full recolor would touch",
            ds.name
        );

        // Full-recolor baseline: re-color the post-batch graph from scratch.
        let mut post = base.clone();
        for (b, (outcome, batch)) in outcomes.iter().zip(&batches).enumerate() {
            post = grow(&post, batch);
            let start = Instant::now();
            let full_run = ghaffari_kuhn_coloring(&post).expect("full recolor baseline");
            let wall_full = start.elapsed().as_secs_f64() * 1e3;
            assert!(full_run.coloring.is_legal(&post));
            let strategy = match outcome.strategy {
                RepairStrategy::NoConflict => 0.0,
                RepairStrategy::LocalRepair => 1.0,
                RepairStrategy::FullRecolor => 2.0,
            };
            rows.push(
                Row::new("E20", format!("{} n={} · batch {}", ds.name, full.n(), b + 1))
                    .with("n", full.n() as f64)
                    .with("inserted", outcome.submitted_edges as f64)
                    .with("new_edges", outcome.new_edges as f64)
                    .with("frontier", outcome.frontier as f64)
                    .with("repaired_vertices", outcome.repaired_vertices() as f64)
                    .with("full_recolor_vertices", full.n() as f64)
                    .with("strategy", strategy)
                    .with("rounds", outcome.report.rounds as f64)
                    .with("messages", outcome.report.messages as f64)
                    .with("full_rounds", full_run.report.rounds as f64)
                    .with("legal", 1.0)
                    .with("wall_ms_repair", walls[b])
                    .with("wall_ms_full", wall_full),
            );
        }
    }
    rows
}

/// E21 — frontier collapse: per-round cost of the frontier-driven executor on a
/// slot-scheduled sweep whose active set shrinks round over round.
///
/// A Barabási–Albert preferential-attachment graph is colored twice, and each coloring
/// becomes the slots of a list-palette [`SlotSchedule`] sweep: one color class fires (and halts)
/// per round.  The sweep's exec span records one row per round ([`RoundInstant`]): the
/// active count at round start, the frontier actually stepped, the messages delivered, and
/// the wall-clock.  The deterministic columns are gated by the perf pipeline; `wall_ms` is
/// advisory and should track the collapsing frontier rather than `n` (an everyone-runs
/// round loop pays O(n) per round regardless of how many vertices still act).
///
/// * `ba n=… m=3` — slots from the sequential greedy baseline.  Class sizes fall off
///   steeply, so the frontier collapses round over round; but a first-fit color `c` has a
///   neighbor in every class below `c`, so every waiting vertex hears an announcement
///   every round and the frontier equals the active count.
/// * `ba n=… m=3 gk-slots` — slots from Ghaffari–Kuhn's coloring of the same graph (its
///   colors ranked among those it used, so every round fires a class), which is legal but
///   not first-fit: a waiting vertex with no neighbor in the class that just fired gets no
///   mail, and its alarm keeps it off the frontier until its slot.
///
/// Each sweep is replayed on four threads and asserted **bit-identical**, per-round columns
/// included, before any row is emitted.  At `Scale(1)` the graph has 10⁶ vertices; the smoke
/// tier shrinks it to 4 000.
///
/// [`SlotSchedule`]: arbcolor_runtime::algorithms::SlotSchedule
/// [`RoundInstant`]: arbcolor_runtime::obs::RoundInstant
pub fn e21_frontier_collapse(sz: SizeClass) -> Vec<Row> {
    use arbcolor::ghaffari_kuhn::ghaffari_kuhn_coloring;
    use arbcolor_baselines::greedy::sequential_greedy;

    let n = match sz {
        SizeClass::Smoke => 4_000,
        SizeClass::Scale(factor) => 1_000_000 * factor.max(1),
    };
    let g = generators::barabasi_albert(n, 3, 211).unwrap().with_shuffled_ids(9);
    let greedy = sequential_greedy(&g, None);
    let mut rows = e21_sweep(&g, &format!("ba n={n} m=3"), |v| greedy.color(v) as usize);
    // GK's colors, ranked among the colors it used, so that every round fires a class.
    let gk = ghaffari_kuhn_coloring(&g).expect("GK colors the graph").coloring;
    let mut used = gk.colors().to_vec();
    used.sort_unstable();
    used.dedup();
    let rank = |v| used.binary_search(&gk.color(v)).expect("a used color");
    rows.extend(e21_sweep(&g, &format!("ba n={n} m=3 gk-slots"), rank));
    rows
}

/// The greedy list sweep of E21 and E24: vertex `v` picks from `{0, …, deg(v)}` (one more
/// color than its degree, so the sweep always succeeds) in slot `slot(v)`.
fn degree_list_schedule(
    g: &Graph,
    slot: impl Fn(usize) -> usize,
) -> arbcolor_runtime::algorithms::SlotSchedule {
    use arbcolor_graph::ColorPool;
    let mut palettes = ColorPool::with_capacity(g.n(), 2 * g.m() + g.n());
    for v in g.vertices() {
        palettes.push_iter(0..=g.degree(v) as u64);
    }
    let slots = g.vertices().map(slot).collect();
    arbcolor_runtime::algorithms::SlotSchedule::lists(
        slots,
        palettes,
        ColorPool::empty_lists(g.n()),
    )
}

/// One E21 sweep: vertex `v` acts in slot `slot(v)` of a [`SlotSchedule`] sweep on `g`,
/// recorded under the installed collector (a scratch one when none is); the rows are named
/// after `label`.
///
/// [`SlotSchedule`]: arbcolor_runtime::algorithms::SlotSchedule
fn e21_sweep(g: &Graph, label: &str, slot: impl Fn(usize) -> usize) -> Vec<Row> {
    use arbcolor_graph::Coloring;
    use arbcolor_runtime::algorithms::SlotSweep;
    use arbcolor_runtime::{obs, Executor};

    let n = g.n();
    let schedule = degree_list_schedule(g, slot);
    let algorithm = SlotSweep(&schedule);

    // Reuse the collector installed by `--trace-out` when present; the rows are read from
    // the exec spans either way.
    let scratch = if obs::current().is_none() { Some(obs::SpanCollector::new()) } else { None };
    let _guard = scratch.as_ref().map(obs::install);
    let collector = obs::current().expect("an observability collector is installed");

    let at = collector.len();
    let start = Instant::now();
    let result = Executor::new(g).run(&algorithm).expect("sweep terminates");
    let wall_ms_total = start.elapsed().as_secs_f64() * 1e3;

    // Determinism: four threads must reproduce the sweep bit for bit, round by round.
    let stolen_at = collector.len();
    let stolen = Executor::new(g).with_threads(4).run(&algorithm).expect("sweep terminates");
    assert_eq!(stolen.outputs, result.outputs, "outputs diverged between executors");
    assert_eq!(stolen.report, result.report, "cost diverged between executors");
    let spans = collector.snapshot();
    let rounds = &spans[at].rounds;
    // Every column but the advisory wall time.
    let deterministic = |rounds: &[obs::RoundInstant]| -> Vec<obs::RoundInstant> {
        rounds.iter().map(|r| obs::RoundInstant { wall_ns: 0, ..*r }).collect()
    };
    assert_eq!(
        deterministic(&spans[stolen_at].rounds),
        deterministic(rounds),
        "per-round columns diverged between executors"
    );

    let colors: Vec<u64> = result.outputs.iter().map(|c| c.expect("list exceeds degree")).collect();
    let final_coloring = Coloring::new(g, colors).expect("one color per vertex");
    assert!(final_coloring.is_legal(g), "sweep must produce a legal coloring");

    let mut rows = Vec::new();
    for r in rounds {
        rows.push(
            Row::new("E21", format!("{label} · round {}", r.round))
                .with("round", r.round as f64)
                .with("active", r.active as f64)
                .with("frontier", r.frontier as f64)
                .with("messages", r.messages as f64)
                .with("wall_ms", r.wall_ns as f64 / 1e6),
        );
    }
    // Frontier work against stepping every active vertex each round (1.0 when every active
    // vertex was on the frontier every round).
    let frontier_steps: usize = rounds.iter().map(|r| r.frontier).sum();
    let active_steps: usize = rounds.iter().map(|r| r.active).sum();
    let savings_factor =
        if frontier_steps == 0 { 1.0 } else { active_steps as f64 / frontier_steps as f64 };
    rows.push(
        Row::new("E21", format!("{label} · summary"))
            .with("n", n as f64)
            .with("rounds", result.report.rounds as f64)
            .with("messages", result.report.messages as f64)
            .with("colors", final_coloring.distinct_colors() as f64)
            .with("peak_frontier", rounds.iter().map(|r| r.frontier).max().unwrap_or(0) as f64)
            .with("frontier_steps", frontier_steps as f64)
            .with("everyone_runs_steps", (n * result.report.rounds) as f64)
            .with("savings_factor", savings_factor)
            .with("legal", 1.0)
            .with("wall_ms", wall_ms_total),
    );
    rows
}

/// E22 — the CONGEST bandwidth race: all three headliners (Barenboim–Elkin, Ghaffari–Kuhn,
/// and the randomized HKMT trials) on the same seeded graph of every E16 generator family,
/// executed under [`CostMode::Congest`] so the runtime *enforces* — not merely measures —
/// that no edge carries more than `64 · ⌈log₂ n⌉` bits in any round.
///
/// Every row reports the two bandwidth columns the perf gate tracks (`total_bits`, the
/// pipeline's aggregate traffic, and `max_edge_bits`, the worst single-edge round) next to
/// the budget they were enforced under, and every coloring is re-verified legal within
/// `Δ + 1` before its row is emitted.  The HKMT contender draws from `seed` (the `--seed`
/// flag), so for a fixed seed the whole table is bit-identical across executors — the CI
/// `congest-smoke` job diffs exactly that.
pub fn e22_congest_bandwidth_race(sz: SizeClass, seed: u64) -> Vec<Row> {
    let families = headline_families(sz);
    let mut rows = Vec::new();
    for (family, g) in &families {
        // A generous CONGEST allowance: every message of every pipeline is one O(log n)-bit
        // value, so 64·⌈log₂ n⌉ bits per edge per round holds with room while still being
        // O(log n) — the executors reject any send that would exceed it.
        let budget = CostMode::congest_for(g.n(), 64);
        let _congest = RunConfig { cost_mode: budget, ..RunConfig::current() }.install();
        let delta_plus_one = g.max_degree() + 1;
        for algorithm in congest_headliners(seed) {
            let outcome = algorithm
                .run(g)
                .unwrap_or_else(|e| panic!("{} failed on {family}: {e}", algorithm.name()));
            assert!(
                outcome.coloring.is_legal(g),
                "{} produced an illegal coloring on {family}",
                outcome.name
            );
            assert!(
                outcome.colors <= delta_plus_one,
                "{} used {} colors on {family} but Δ + 1 = {delta_plus_one}",
                outcome.name,
                outcome.colors
            );
            let budget_bits = budget.bits_per_edge().expect("congest_for returns Congest");
            assert!(
                outcome.report.max_edge_bits <= budget_bits,
                "{} put {} bits on one edge in a round on {family}, over the budget of \
                 {budget_bits} (the executor should have rejected this)",
                outcome.name,
                outcome.report.max_edge_bits
            );
            rows.push(
                Row::new("E22", format!("{family} n={} · {}", g.n(), outcome.name))
                    .with("n", g.n() as f64)
                    .with("max_degree", g.max_degree() as f64)
                    .with("delta_plus_one", delta_plus_one as f64)
                    .with("colors", outcome.colors as f64)
                    .with("rounds", outcome.report.rounds as f64)
                    .with("messages", outcome.report.messages as f64)
                    .with("total_bits", outcome.report.total_bits as f64)
                    .with("max_edge_bits", outcome.report.max_edge_bits as f64)
                    .with("bits_budget", budget_bits as f64)
                    .with("legal", 1.0),
            );
        }
    }
    rows
}

/// E23 — the per-phase cost breakdown: all three headliners on every generator family, each
/// run wrapped in an observability span (`arbcolor_runtime::obs`) so the instrumented
/// drivers attribute the headline [`RoundReport`] to named phases.
///
/// * Barenboim–Elkin decomposes into `h-partition` / `arbdefective` (the refinement loop,
///   with the H-partition share split out exactly) / `legal-coloring` (the final
///   low-arboricity coloring).
/// * Ghaffari–Kuhn's `level-*` spans — one per halving level — are merged into a single
///   `halving` phase here (their count is the `halving_depth` column), next to
///   `deferred-cleanup`.
/// * HKMT splits into `random-trials` and the deterministic `gk-fallback`.
///
/// Every row asserts, before it is emitted, that the phase reports sum **bit-exactly** to
/// the headline report in `rounds`, `messages`, and `total_bits` — the invariant the
/// `tests/obs_spans.rs` suite also checks across executors — and emits one
/// `ph_<phase>_{rounds,messages,bits}` column triple per phase, plus `ph_<phase>_steps`,
/// the vertex steps of the phase's executor runs (Σ `frontier` over their rounds, see
/// [`obs::phase_steps`](arbcolor_runtime::obs::phase_steps)).  All phase columns are
/// deterministic (HKMT draws from `seed`, the `--seed` flag) and equal at any thread count
/// and chunk size of the work-stealing executor, so the perf gate tracks them like any other
/// cost column; the steps gate lower-is-better.
pub fn e23_phase_breakdown(sz: SizeClass, seed: u64) -> Vec<Row> {
    use arbcolor_runtime::obs;

    // Reuse the collector installed by `--trace-out` when present (so E23's spans land in
    // the exported Chrome trace); otherwise install a scratch collector for the duration.
    let scratch = if obs::current().is_none() { Some(obs::SpanCollector::new()) } else { None };
    let _guard = scratch.as_ref().map(obs::install);
    let collector = obs::current().expect("an observability collector is installed");

    let families = headline_families(sz);
    let mut rows = Vec::new();
    for (family, g) in &families {
        let delta_plus_one = g.max_degree() + 1;
        for algorithm in congest_headliners(seed) {
            let parent = collector.len();
            let span = obs::phase(algorithm.name());
            let outcome = algorithm
                .run(g)
                .unwrap_or_else(|e| panic!("{} failed on {family}: {e}", algorithm.name()));
            span.charge(outcome.report);
            drop(span);
            assert!(
                outcome.coloring.is_legal(g),
                "{} produced an illegal coloring on {family}",
                outcome.name
            );
            assert!(
                outcome.colors <= delta_plus_one,
                "{} used {} colors on {family} but Δ + 1 = {delta_plus_one}",
                outcome.name,
                outcome.colors
            );

            let spans = collector.snapshot();
            assert_eq!(
                spans[parent].name,
                algorithm.name(),
                "the headliner span must sit at the recorded index"
            );
            // Merge GK's per-level spans into one "halving" phase, counting the depth.
            let mut halving_depth = 0usize;
            let mut phases: Vec<(String, RoundReport, usize)> = Vec::new();
            let rollup = obs::phase_rollup(&spans, parent);
            for ((name, report), (_, steps)) in
                rollup.into_iter().zip(obs::phase_steps(&spans, parent))
            {
                let merged = if name.starts_with("level-") {
                    halving_depth += 1;
                    "halving".to_string()
                } else {
                    name
                };
                match phases.iter_mut().find(|(existing, ..)| *existing == merged) {
                    Some((_, acc, acc_steps)) => {
                        *acc = acc.then(report);
                        *acc_steps += steps;
                    }
                    None => phases.push((merged, report, steps)),
                }
            }
            assert!(!phases.is_empty(), "{} recorded no phase spans on {family}", outcome.name);
            let phase_sum =
                phases.iter().fold(RoundReport::zero(), |acc, (_, report, _)| acc.then(*report));
            assert_eq!(
                (phase_sum.rounds, phase_sum.messages, phase_sum.total_bits),
                (outcome.report.rounds, outcome.report.messages, outcome.report.total_bits),
                "{} phase spans do not sum to the headline report on {family}",
                outcome.name
            );

            let mut row = Row::new("E23", format!("{family} n={} · {}", g.n(), outcome.name))
                .with("n", g.n() as f64)
                .with("colors", outcome.colors as f64)
                .with("rounds", outcome.report.rounds as f64)
                .with("messages", outcome.report.messages as f64)
                .with("total_bits", outcome.report.total_bits as f64)
                .with("halving_depth", halving_depth as f64)
                .with("legal", 1.0);
            for (name, report, steps) in &phases {
                let slug = name.replace('-', "_");
                row = row
                    .with(&format!("ph_{slug}_rounds"), report.rounds as f64)
                    .with(&format!("ph_{slug}_messages"), report.messages as f64)
                    .with(&format!("ph_{slug}_bits"), report.total_bits as f64)
                    .with(&format!("ph_{slug}_steps"), *steps as f64);
            }
            rows.push(row);
        }
    }
    rows
}

/// E24 — the palette-engine pick-path race: the word-parallel bitset
/// [`SlotSchedule`] sweep against the preserved `Vec`-scan reference
/// ([`VecScanPick`]) on the same greedy-scheduled sweep, over the three degree
/// profiles of the E18 routing race (≈32-regular dense, sparse G(n,p), power-law).
///
/// Each row races both pick rules on one [`SlotSchedule`] (slots from the
/// sequential greedy baseline, palette `{0, …, deg(v)}`) and asserts **bit-identical**
/// colors, rounds, and messages before it is emitted — the engine swap must be invisible
/// in every deterministic column.  The `picks_served` / `colors_struck` columns come from
/// the schedule's [`PaletteStats`] counters and are deterministic, so the perf gate tracks
/// them; the `wall_ms_*` and `speedup_vs_vecscan` columns are advisory.  At `Scale(1)` the
/// sweep runs at `n = 10⁵`, where the bitset path must beat the `Vec` scan on the dense
/// family; the smoke tier shrinks it to 1 500 vertices.
///
/// [`SlotSchedule`]: arbcolor_runtime::algorithms::SlotSchedule
/// [`VecScanPick`]: arbcolor_runtime::algorithms::VecScanPick
/// [`PaletteStats`]: arbcolor_graph::PaletteStats
pub fn e24_palette_engine(sz: SizeClass) -> Vec<Row> {
    use arbcolor_baselines::greedy::sequential_greedy;
    use arbcolor_graph::Coloring;
    use arbcolor_runtime::algorithms::{SlotSweep, VecScanPick};
    use arbcolor_runtime::Executor;

    let n = match sz {
        SizeClass::Smoke => 1_500,
        SizeClass::Scale(factor) => 100_000 * factor.max(1),
    };
    type FamilyGen = fn(usize) -> Graph;
    let families: Vec<(&str, FamilyGen)> = vec![
        ("dense", |n| generators::random_regular_like(n, 32, 103).unwrap().with_shuffled_ids(17)),
        ("random", |n| generators::gnp(n, 8.0 / n as f64, 107).unwrap().with_shuffled_ids(18)),
        ("power-law", |n| generators::barabasi_albert(n, 4, 109).unwrap().with_shuffled_ids(19)),
    ];
    let mut rows = Vec::new();
    for (family, generate) in &families {
        let g = &generate(n);
        let schedule_coloring = sequential_greedy(g, None);
        let schedule = degree_list_schedule(g, |v| schedule_coloring.color(v) as usize);
        // Untimed warm-up lap of both paths: the first execution on a freshly generated
        // graph pays one-time page-fault and cache-warming costs that would otherwise be
        // charged to whichever path happens to run first.
        Executor::new(g).run(&SlotSweep(&schedule)).expect("sweep terminates");
        Executor::new(g).run(&SlotSweep(&VecScanPick(&schedule))).expect("sweep terminates");
        let _ = schedule.stats().take();

        let start = Instant::now();
        let bitset = Executor::new(g).run(&SlotSweep(&schedule)).expect("sweep terminates");
        let wall_bitset = start.elapsed().as_secs_f64() * 1e3;
        let stats = schedule.stats().snapshot();

        let start = Instant::now();
        let vecscan =
            Executor::new(g).run(&SlotSweep(&VecScanPick(&schedule))).expect("sweep terminates");
        let wall_vecscan = start.elapsed().as_secs_f64() * 1e3;

        assert_eq!(bitset.outputs, vecscan.outputs, "pick paths diverged on {family} n={n}");
        assert_eq!(bitset.report, vecscan.report, "cost diverged between pick paths on {family}");

        let colors: Vec<u64> =
            bitset.outputs.iter().map(|c| c.expect("list exceeds degree")).collect();
        let final_coloring = Coloring::new(g, colors).expect("one color per vertex");
        assert!(final_coloring.is_legal(g), "sweep must produce a legal coloring on {family}");

        rows.push(
            Row::new("E24", format!("{family} n={n} · pick-path race"))
                .with("n", n as f64)
                .with("avg_degree", g.average_degree())
                .with("colors", final_coloring.distinct_colors() as f64)
                .with("rounds", bitset.report.rounds as f64)
                .with("messages", bitset.report.messages as f64)
                .with("picks_served", stats.picks_served as f64)
                .with("colors_struck", stats.colors_struck as f64)
                .with("identical", 1.0)
                .with("legal", 1.0)
                .with("wall_ms_bitset", wall_bitset)
                .with("wall_ms_vecscan", wall_vecscan)
                .with("speedup_vs_vecscan", wall_vecscan / wall_bitset.max(1e-9)),
        );
    }
    rows
}

/// E25 — the sustained-update service benchmark: seeded mixed insert/delete/query
/// workloads replayed through [`ColoringService`](arbcolor_service::server::ColoringService).
///
/// Three families cover the long-lived-service regimes:
///
/// * **churn** — balanced insertions and removals with skewed (hub-heavy) endpoints, the
///   steady-state regime;
/// * **growth** — insert-dominated traffic, the regime E20 measured, now through the
///   service's `Apply` path;
/// * **decay** — a complete graph stripped down to a Hamiltonian path by deletion batches,
///   then compacted: the palette must shrink **strictly** (the slack-reclamation claim,
///   gated via `colors_after_compact`).
///
/// Each replayed family asserts, before emitting its row:
///
/// * the final coloring is legal (the service's own `Verify` verb);
/// * a second same-seed replay under the *reference* executor is **bit-identical** — final
///   colors and every per-batch `(frontier, repaired, strategy)` triple (`replay_identical`);
/// * the in-place patched adjacency, frozen into a CSR, equals a from-scratch rebuild of
///   the model edge set, field for field (`patch_identical`).
///
/// Deterministic columns (operation/edge/repair tallies, strategy counts, colors, the
/// post-compaction palette) are gated by the perf pipeline; `wall_updates_per_sec`,
/// `wall_ms_p99_apply`, and `wall_ms_total` are advisory.
pub fn e25_service_sustained_updates(sz: SizeClass) -> Vec<Row> {
    use arbcolor::dynamic::RepairStrategy;
    use arbcolor_service::protocol::{Request, Response};
    use arbcolor_service::server::{ColoringService, ServiceConfig};
    use arbcolor_service::workload::{generate, WorkloadConfig, WorkloadOp};
    use std::collections::BTreeSet;

    /// Everything one replay of a workload produces.
    struct Replay {
        colors: Vec<u64>,
        /// One `(frontier, repaired, strategy)` triple per apply batch.
        batches: Vec<(u64, u64, u64)>,
        applies: u64,
        queries: u64,
        compactions: u64,
        new_edges: u64,
        removed_edges: u64,
        colors_final: u64,
        colors_after_compact: u64,
        legal: bool,
        patch_identical: bool,
        apply_walls_ms: Vec<f64>,
        wall_ms_total: f64,
    }

    /// Replays `ops` against a fresh service on `n` vertices under `config`; the final
    /// `Compact` request is issued explicitly so every family reports a post-compaction
    /// palette.
    fn replay(config: RunConfig, n: usize, ops: &[WorkloadOp]) -> Replay {
        let _config = config.install();
        let mut service =
            ColoringService::empty(n, ServiceConfig::default()).expect("service starts");
        let mut model: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut batches = Vec::new();
        let (mut applies, mut queries, mut compactions) = (0u64, 0u64, 0u64);
        let mut apply_walls_ms = Vec::new();
        let start_total = Instant::now();
        for op in ops {
            match op {
                WorkloadOp::Apply(updates) => {
                    for update in updates {
                        for &edge in update.edges() {
                            if update.is_insert() {
                                model.insert(edge);
                            } else {
                                model.remove(&edge);
                            }
                        }
                    }
                    let start = Instant::now();
                    let reply = service.handle(Request::Apply(updates.clone()));
                    apply_walls_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    let Response::Applied { frontier, repaired, strategy, .. } = reply else {
                        panic!("apply failed during replay: {reply:?}");
                    };
                    let strategy = match strategy {
                        RepairStrategy::NoConflict => 0u64,
                        RepairStrategy::LocalRepair => 1,
                        RepairStrategy::FullRecolor => 2,
                    };
                    batches.push((frontier, repaired, strategy));
                    applies += 1;
                }
                WorkloadOp::QueryColors(vertices) => {
                    let reply = service.handle(Request::QueryColors(vertices.clone()));
                    assert!(matches!(reply, Response::Colors(_)), "query failed: {reply:?}");
                    queries += 1;
                }
                WorkloadOp::Compact => {
                    let reply = service.handle(Request::Compact);
                    assert!(matches!(reply, Response::Compacted { .. }));
                    compactions += 1;
                }
            }
        }
        let colors_final = service.dynamic().coloring().distinct_colors() as u64;
        let colors_after_compact = match service.handle(Request::Compact) {
            Response::Compacted { colors_after, .. } => colors_after,
            other => panic!("final compaction failed: {other:?}"),
        };
        let wall_ms_total = start_total.elapsed().as_secs_f64() * 1e3;
        let legal = matches!(
            service.handle(Request::Verify),
            Response::Verified { legal: true, conflicts: 0 }
        );
        // The frozen in-place adjacency must equal a from-scratch rebuild of the model
        // edge set — the whole Graph (offsets, adjacency, ports, ids), not just the edges.
        let rebuilt = Graph::from_edges(n, model.iter().copied().collect::<Vec<_>>())
            .expect("model edges are valid");
        let patch_identical = *service.dynamic().graph() == rebuilt;
        let stats = match service.handle(Request::Stats) {
            Response::Stats(stats) => stats,
            other => panic!("stats failed: {other:?}"),
        };
        Replay {
            colors: service.dynamic().coloring().colors().to_vec(),
            batches,
            applies,
            queries,
            compactions,
            new_edges: stats.new_edges,
            removed_edges: stats.removed_edges,
            colors_final,
            colors_after_compact,
            legal,
            patch_identical,
            apply_walls_ms,
            wall_ms_total,
        }
    }

    /// p99 of the per-apply wall times (advisory).
    fn p99_ms(walls: &[f64]) -> f64 {
        if walls.is_empty() {
            return 0.0;
        }
        let mut sorted = walls.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
        sorted[((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len()) - 1]
    }

    let n = sz.n(240);
    let families = [
        (
            "churn",
            WorkloadConfig {
                n,
                ops: 3 * n,
                batch_size: 8,
                insert_weight: 1,
                remove_weight: 1,
                query_weight: 1,
                compact_every: n,
                skew: 1.5,
                seed: 1025,
            },
        ),
        (
            "growth",
            WorkloadConfig {
                n,
                ops: 3 * n,
                batch_size: 8,
                insert_weight: 5,
                remove_weight: 1,
                query_weight: 1,
                compact_every: 0,
                skew: 1.2,
                seed: 2025,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (family, config) in families {
        let ops = generate(&config);
        assert_eq!(ops, generate(&config), "the workload stream must be replayable");
        let run = replay(RunConfig::current(), config.n, &ops);
        let reference = replay(ambient_with(ExecutorKind::Reference), config.n, &ops);
        let replay_identical = run.colors == reference.colors && run.batches == reference.batches;
        assert!(replay_identical, "{family}: same-seed replay diverged between executors");
        assert!(run.legal, "{family}: final coloring is illegal");
        assert!(run.patch_identical, "{family}: patched CSR diverged from a full rebuild");
        let full_recolors = run.batches.iter().filter(|(_, _, s)| *s == 2).count();
        let frontier_total: u64 = run.batches.iter().map(|(f, _, _)| f).sum();
        let repaired_total: u64 = run.batches.iter().map(|(_, r, _)| r).sum();
        let updates = run.new_edges + run.removed_edges;
        rows.push(
            Row::new("E25", format!("{family} n={n} · sustained updates"))
                .with("n", n as f64)
                .with("ops", ops.len() as f64)
                .with("applies", run.applies as f64)
                .with("queries", run.queries as f64)
                .with("compactions", run.compactions as f64)
                .with("new_edges", run.new_edges as f64)
                .with("removed_edges", run.removed_edges as f64)
                .with("frontier_total", frontier_total as f64)
                .with("repaired_total", repaired_total as f64)
                .with("full_recolors", full_recolors as f64)
                .with("colors", run.colors_final as f64)
                .with("colors_after_compact", run.colors_after_compact as f64)
                .with("replay_identical", 1.0)
                .with("patch_identical", 1.0)
                .with("legal", 1.0)
                .with("wall_updates_per_sec", updates as f64 / (run.wall_ms_total / 1e3).max(1e-9))
                .with("wall_ms_p99_apply", p99_ms(&run.apply_walls_ms))
                .with("wall_ms_total", run.wall_ms_total),
        );
    }

    // Decay family: strip a complete graph down to a Hamiltonian path with deletion
    // batches, then compact.  The palette starts at `c` colors (a clique needs them all)
    // and must land at 2 after compaction — a *strict* reduction, gated.
    let c = sz.n(60).min(64);
    let complete = generators::complete(c).expect("complete graph");
    let mut service = ColoringService::new(complete.clone(), ServiceConfig::default())
        .expect("service starts on the clique");
    let colors_initial = service.dynamic().coloring().distinct_colors() as u64;
    let doomed: Vec<(usize, usize)> =
        complete.edges().iter().copied().filter(|&(u, v)| v != u + 1).collect();
    let mut applies = 0u64;
    let mut apply_walls_ms = Vec::new();
    let start_total = Instant::now();
    for batch in doomed.chunks(64) {
        let start = Instant::now();
        let reply =
            service.handle(Request::Apply(vec![arbcolor::dynamic::GraphUpdate::RemoveEdges(
                batch.to_vec(),
            )]));
        apply_walls_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let Response::Applied { frontier: 0, repaired: 0, .. } = reply else {
            panic!("a deletion batch cannot conflict, got {reply:?}");
        };
        applies += 1;
    }
    let colors_before = service.dynamic().coloring().distinct_colors() as u64;
    let colors_after_compact = match service.handle(Request::Compact) {
        Response::Compacted { colors_after, .. } => colors_after,
        other => panic!("decay compaction failed: {other:?}"),
    };
    let wall_ms_total = start_total.elapsed().as_secs_f64() * 1e3;
    assert!(
        colors_after_compact < colors_before,
        "decay: deletion batches must strictly reduce colors after compact() \
         ({colors_before} -> {colors_after_compact})"
    );
    // Greedy compaction promises the (Δ+1)-bound of the *current* graph — 3 on a path —
    // not the chromatic number.
    assert!(colors_after_compact <= 3, "a path compacts to at most Δ+1 = 3 colors");
    assert!(matches!(
        service.handle(Request::Verify),
        Response::Verified { legal: true, conflicts: 0 }
    ));
    rows.push(
        Row::new("E25", format!("decay n={c} · clique to path"))
            .with("n", c as f64)
            .with("applies", applies as f64)
            .with("removed_edges", doomed.len() as f64)
            .with("colors_initial", colors_initial as f64)
            .with("colors", colors_before as f64)
            .with("colors_after_compact", colors_after_compact as f64)
            .with("legal", 1.0)
            .with("wall_ms_p99_apply", p99_ms(&apply_walls_ms))
            .with("wall_ms_total", wall_ms_total),
    );
    rows
}

/// The base graph with every batch applied (identifiers preserved); `None` when there is
/// nothing to add.
fn rebuilt(base: &Graph, batches: &[Vec<(usize, usize)>]) -> Option<Graph> {
    if batches.iter().all(Vec::is_empty) {
        return None;
    }
    let mut g = base.clone();
    for batch in batches {
        g = grow(&g, batch);
    }
    Some(g)
}

/// `graph` plus one batch of edges, identifiers preserved.
fn grow(graph: &Graph, batch: &[(usize, usize)]) -> Graph {
    let mut builder = arbcolor_graph::GraphBuilder::new(graph.n());
    builder.add_edges(graph.edges().iter().copied()).expect("existing edges are valid");
    builder.add_edges(batch.iter().copied()).expect("batch edges are valid");
    builder.build().with_vertex_ids(graph.ids().to_vec()).expect("ids are a permutation")
}

/// One experiment of the catalog, ready to run at a size class.
pub type Experiment = Box<dyn Fn(SizeClass) -> Vec<Row>>;

/// The experiment catalog: `(id, experiment)` pairs in index order, with the experiments
/// that race randomized contenders (E22, E23) drawing from `seed`.  Callers that only want
/// a single experiment should filter this *before* running anything — every entry is lazy.
pub fn catalog(seed: u64) -> Vec<(&'static str, Experiment)> {
    let sized = |run: fn(SizeClass) -> Vec<Row>| -> Experiment { Box::new(run) };
    vec![
        ("E1", sized(e1_simple_arbdefective)),
        ("E2", sized(e2_complete_orientation)),
        ("E3", sized(e3_partial_orientation)),
        ("E4", sized(e4_arbdefective_coloring)),
        ("E5", sized(e5_one_shot)),
        ("E6", sized(e6_o_a_coloring)),
        ("E7", sized(e7_a_one_plus_o1)),
        ("E8", sized(e8_headline)),
        ("E9", sized(e9_sparse_delta)),
        ("E10", sized(e10_sub_quadratic)),
        ("E11", sized(e11_tradeoff)),
        ("E12", sized(e12_mis)),
        ("E13", sized(e13_baseline_table)),
        ("E14", sized(e14_figure1)),
        ("E15", sized(e15_primitives)),
        ("E16", sized(e16_headline_head_to_head)),
        ("E17", sized(e17_sharded_scale)),
        ("E18", sized(e18_routing_fabric)),
        ("E19", sized(e19_real_graph_ingestion)),
        ("E20", sized(e20_dynamic_recoloring)),
        ("E21", sized(e21_frontier_collapse)),
        ("E22", Box::new(move |sz| e22_congest_bandwidth_race(sz, seed))),
        ("E23", Box::new(move |sz| e23_phase_breakdown(sz, seed))),
        ("E24", sized(e24_palette_engine)),
        ("E25", sized(e25_service_sustained_updates)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_experiments_produce_rows() {
        // Spot-check a few cheap experiments end to end at scale 1.
        assert!(!e1_simple_arbdefective(SizeClass::Scale(1)).is_empty());
        assert!(!e3_partial_orientation(SizeClass::Scale(1)).is_empty());
        assert!(!e14_figure1(SizeClass::Scale(1)).is_empty());
    }

    #[test]
    fn smoke_tier_shrinks_workloads() {
        assert_eq!(SizeClass::Smoke.n(600), 100);
        assert_eq!(SizeClass::Smoke.n(120), 40);
        assert_eq!(SizeClass::Scale(2).n(300), 600);
        assert_eq!(SizeClass::Scale(0).n(300), 300);
    }

    #[test]
    fn catalog_includes_the_scale_and_routing_sweeps() {
        // E17/E18 are exercised (and their executors cross-checked) by the CI smoke tier;
        // here we only pin their catalog identities so `experiments -- E17`/`E18` resolve.
        let ids: Vec<&str> = catalog(DEFAULT_SEED).iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.first(), Some(&"E1"));
        assert_eq!(ids.last(), Some(&"E25"));
        assert_eq!(ids.len(), 25);
    }

    #[test]
    fn e25_families_cover_churn_growth_and_decay() {
        let rows = e25_service_sustained_updates(SizeClass::Smoke);
        assert_eq!(rows.len(), 3, "one row per workload family");
        for (row, family) in rows.iter().zip(["churn", "growth", "decay"]) {
            assert!(row.workload.contains(family), "{}", row.workload);
            assert_eq!(row.values["legal"], 1.0);
            assert!(
                row.values["colors_after_compact"] <= row.values["colors"],
                "compaction must never add colors: {}",
                row.workload
            );
        }
        let churn = &rows[0];
        assert_eq!(churn.values["replay_identical"], 1.0);
        assert_eq!(churn.values["patch_identical"], 1.0);
        assert!(churn.values["removed_edges"] > 0.0, "churn must actually delete edges");
        let decay = &rows[2];
        assert!(
            decay.values["colors_after_compact"] < decay.values["colors"],
            "the decay family must strictly reduce colors after compaction"
        );
    }

    #[test]
    fn e24_races_the_pick_paths_bit_identically() {
        // The experiment asserts bit-identity before emitting; re-check the emitted columns.
        let rows = e24_palette_engine(SizeClass::Smoke);
        assert_eq!(rows.len(), 3, "one row per degree profile");
        for row in &rows {
            assert_eq!(row.values["identical"], 1.0);
            assert_eq!(row.values["legal"], 1.0);
            assert_eq!(row.values["picks_served"], row.values["n"], "one pick per vertex");
            assert!(row.values["colors_struck"] > 0.0);
        }
    }

    #[test]
    fn e22_enforces_the_congest_budget_and_restores_the_cost_mode() {
        let before = RunConfig::current();
        let rows = e22_congest_bandwidth_race(SizeClass::Smoke, DEFAULT_SEED);
        assert_eq!(RunConfig::current(), before, "E22 must restore the run configuration");
        // Three headliners per family, every row within its enforced budget.
        assert_eq!(rows.len() % 3, 0);
        assert!(rows.iter().any(|r| r.workload.contains("hkmt_random")));
        for row in &rows {
            assert!(row.values["max_edge_bits"] <= row.values["bits_budget"]);
            assert!(row.values["total_bits"] >= row.values["max_edge_bits"]);
            assert_eq!(row.values["legal"], 1.0);
        }
    }

    #[test]
    fn e23_phase_columns_sum_to_the_headline_report() {
        // The experiment itself asserts the bit-exact sum before emitting a row; here we
        // re-check the emitted columns and pin the phase vocabulary per headliner.
        let rows = e23_phase_breakdown(SizeClass::Smoke, DEFAULT_SEED);
        assert_eq!(rows.len() % 3, 0);
        for row in &rows {
            assert_eq!(row.values["legal"], 1.0);
            for metric in ["rounds", "messages", "bits"] {
                let headline = if metric == "bits" { "total_bits" } else { metric };
                let sum: f64 = row
                    .values
                    .iter()
                    .filter(|(k, _)| k.starts_with("ph_") && k.ends_with(&format!("_{metric}")))
                    .map(|(_, v)| v)
                    .sum();
                assert_eq!(sum, row.values[headline], "{}: {metric}", row.workload);
            }
            if row.workload.contains("barenboim_elkin") {
                assert!(row.values.contains_key("ph_legal_coloring_rounds"), "{}", row.workload);
            }
            for key in row.values.keys().filter(|k| k.starts_with("ph_") && k.ends_with("_rounds"))
            {
                let steps = key.replace("_rounds", "_steps");
                assert!(row.values.contains_key(&steps), "{}: {steps}", row.workload);
            }
            if row.workload.contains("ghaffari_kuhn") {
                assert!(row.values.contains_key("ph_halving_rounds"), "{}", row.workload);
                assert!(row.values["halving_depth"] >= 1.0, "{}", row.workload);
                assert!(row.values["ph_halving_steps"] > 0.0, "{}", row.workload);
            }
            if row.workload.contains("hkmt_random") {
                assert!(row.values.contains_key("ph_random_trials_rounds"), "{}", row.workload);
            }
        }
    }

    #[test]
    fn e21_frontier_collapses_and_rounds_get_cheaper_in_steps() {
        let rows = e21_frontier_collapse(SizeClass::Smoke);
        let (greedy, gk): (Vec<&Row>, Vec<&Row>) =
            rows.iter().partition(|row| !row.workload.contains("gk-slots"));
        assert!(!gk.is_empty(), "the GK-slot sweep must emit rows");
        for sweep in [&greedy, &gk] {
            let (per_round, summary) = sweep.split_at(sweep.len() - 1);
            assert!(!per_round.is_empty(), "the sweep must take at least one round");
            // Every stepped vertex is an active one.
            for row in per_round {
                assert!(row.values["frontier"] <= row.values["active"]);
            }
            let summary = &summary[0];
            assert!(summary.workload.ends_with("summary"), "{}", summary.workload);
            assert_eq!(summary.values["legal"], 1.0);
            assert!(
                summary.values["frontier_steps"] < summary.values["everyone_runs_steps"],
                "frontier-driven rounds must beat the everyone-runs loop in total steps"
            );
        }
        // The greedy sweep halts one color class per round, so the frontier must shrink
        // strictly round over round.
        let per_round = &greedy[..greedy.len() - 1];
        for pair in per_round.windows(2) {
            assert!(
                pair[1].values["frontier"] < pair[0].values["frontier"],
                "frontier did not collapse: {:?} -> {:?}",
                pair[0].workload,
                pair[1].workload
            );
        }
        // GK's classes are not first-fit, so some waiting vertex goes a round without mail
        // and stays off the frontier until its alarm rings.
        assert!(
            gk[..gk.len() - 1].iter().any(|row| row.values["frontier"] < row.values["active"]),
            "no GK-slot round skipped a waiting vertex"
        );
    }

    #[test]
    fn e19_reports_both_headliners_on_every_fixture() {
        let rows = e19_real_graph_ingestion(SizeClass::Smoke);
        let datasets = crate::datasets::fixture_datasets();
        assert_eq!(rows.len(), 2 * datasets.len());
        for (pair, ds) in rows.chunks(2).zip(&datasets) {
            assert!(pair[0].workload.contains(ds.name), "{}", pair[0].workload);
            assert!(pair[0].workload.contains("barenboim_elkin"), "{}", pair[0].workload);
            assert!(pair[1].workload.contains("ghaffari_kuhn"), "{}", pair[1].workload);
            for row in pair {
                assert_eq!(row.values["legal"], 1.0);
                assert!(row.values["colors"] <= row.values["delta_plus_one"]);
            }
        }
    }

    #[test]
    fn e20_repairs_fewer_vertices_than_a_full_recolor() {
        let rows = e20_dynamic_recoloring(SizeClass::Smoke);
        let datasets = crate::datasets::fixture_datasets();
        assert_eq!(rows.len(), 3 * datasets.len());
        for per_dataset in rows.chunks(3) {
            assert!(
                per_dataset
                    .iter()
                    .any(|r| r.values["repaired_vertices"] < r.values["full_recolor_vertices"]),
                "no batch beat the full-recolor baseline"
            );
            for row in per_dataset {
                assert_eq!(row.values["legal"], 1.0);
            }
        }
    }

    #[test]
    fn e16_reports_both_headliners_on_every_family() {
        let rows = e16_headline_head_to_head(SizeClass::Smoke);
        // Two rows (one per headliner) per generator family, already verified legal and
        // within Δ + 1 by the experiment itself.
        assert_eq!(rows.len() % 2, 0);
        assert!(rows.len() >= 12);
        for pair in rows.chunks(2) {
            assert!(pair[0].workload.contains("barenboim_elkin"), "{}", pair[0].workload);
            assert!(pair[1].workload.contains("ghaffari_kuhn"), "{}", pair[1].workload);
        }
    }
}
