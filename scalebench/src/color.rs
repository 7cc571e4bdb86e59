//! The coloring workloads: Barenboim–Elkin, then Ghaffari–Kuhn, each to a verified legal
//! coloring of one generated graph, repeated in laps on the sequential executor.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use arbcolor::ghaffari_kuhn::ghaffari_kuhn_coloring;
use arbcolor::legal_coloring::sparse_delta_plus_one;
use arbcolor::ColoringRun;
use arbcolor_graph::{degeneracy, generators, Graph};
use arbcolor_runtime::obs::{self, SpanCollector, SpanKind};
use arbcolor_runtime::{default_executor, set_default_executor, ExecutorKind};

use crate::calibrate::{self, Reference};
use crate::report::{fingerprint, Outcome, Samples};
use crate::spans::{children_wall_ns, self_ms, wall_ms};
use crate::Options;

const N: usize = 200_000;
const FORESTS: usize = 3;
const HUBS: usize = 50;
const MIN_LAPS: usize = 3;
const SETUP_REPEATS: usize = 9;

/// Which graph family a coloring workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `union_of_random_forests(n, 3)` with shuffled identifiers: Δ ≈ 25, message-heavy.
    Sparse,
    /// `star_forest_union(n, 3, 50)`: Δ in the thousands, degeneracy 3 (a ≪ Δ).
    Hubs,
}

fn generate(family: Family, seed: u64) -> Result<Graph, String> {
    let graph = match family {
        Family::Sparse => generators::union_of_random_forests(N, FORESTS, seed)
            .map(|g| g.with_shuffled_ids(seed ^ 0x5eed)),
        Family::Hubs => generators::star_forest_union(N, FORESTS, HUBS, seed),
    };
    graph.map_err(|e| format!("graph generation failed: {e}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Headliner {
    BarenboimElkin,
    GhaffariKuhn,
}

impl Headliner {
    const BOTH: [Headliner; 2] = [Headliner::BarenboimElkin, Headliner::GhaffariKuhn];

    fn key(self) -> &'static str {
        match self {
            Headliner::BarenboimElkin => "be",
            Headliner::GhaffariKuhn => "gk",
        }
    }

    /// The self-time groups reported for this headliner; anything else lands in `other`.
    fn groups(self) -> &'static [&'static str] {
        match self {
            Headliner::BarenboimElkin => {
                &["root", "legal-coloring", "h-partition", "iterative-recoloring", "greedy-sweep"]
            }
            Headliner::GhaffariKuhn => &[
                "root",
                "levels",
                "halving-split",
                "iterative-recoloring",
                "scheduled-list-color",
                "greedy-sweep",
                "deferred-cleanup",
            ],
        }
    }

    fn call(self, graph: &Graph) -> Result<ColoringRun, String> {
        let run = match self {
            Headliner::BarenboimElkin => {
                let arboricity = degeneracy::degeneracy(graph).max(1);
                sparse_delta_plus_one(graph, arboricity, 0.5, 1.0)
            }
            Headliner::GhaffariKuhn => ghaffari_kuhn_coloring(graph),
        };
        run.map_err(|e| format!("{} failed: {e}", self.key()))
    }
}

/// What must be identical across laps and executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature {
    colors: usize,
    rounds: u64,
    messages: u64,
    fingerprint: u64,
}

/// One headliner run: wall time to a verified coloring, and the time of the call alone.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall_s: f64,
    call_s: f64,
    legal: bool,
    signature: Signature,
}

fn run_headliner(headliner: Headliner, graph: &Graph) -> Result<Timed, String> {
    let start = Instant::now();
    let run = headliner.call(graph)?;
    let call_s = start.elapsed().as_secs_f64();
    let legal = run.coloring.is_legal(graph);
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Timed {
        wall_s,
        call_s,
        legal,
        signature: Signature {
            colors: run.colors_used,
            rounds: run.report.rounds as u64,
            messages: run.report.messages as u64,
            fingerprint: fingerprint(run.coloring.colors()),
        },
    })
}

type Lap = [Timed; 2];

fn run_lap(graph: &Graph) -> Result<Lap, String> {
    Ok([
        run_headliner(Headliner::BarenboimElkin, graph)?,
        run_headliner(Headliner::GhaffariKuhn, graph)?,
    ])
}

fn lap_s(lap: &Lap) -> f64 {
    lap.iter().map(|t| t.wall_s).sum()
}

/// Runs one coloring workload and fills `outcome`.
pub fn run(family: Family, options: &Options, outcome: &mut Outcome) -> Result<(), String> {
    // Set-up: generate the graph several times, each between two runs of the reference
    // kernel, and keep the median time at the reference host speed.
    let repeats = if options.trace { 1 } else { SETUP_REPEATS };
    let mut calibration = Reference::new();
    let mut setup_kernel_ms = vec![calibration.run()];
    let mut setup = Samples::default();
    let mut graph: Option<Graph> = None;
    let mut deterministic = true;
    for _ in 0..repeats {
        let start = Instant::now();
        let generated = generate(family, options.seed)?;
        setup.push(start.elapsed().as_secs_f64());
        setup_kernel_ms.push(calibration.run());
        if let Some(first) = &graph {
            deterministic &= first.edges() == generated.edges() && first.ids() == generated.ids();
        }
        graph = Some(generated);
    }
    outcome.check(
        "setup.generation_is_deterministic",
        deterministic,
        format!("{repeats} generations of the same seed"),
    );
    let graph = graph.expect("at least one set-up");
    let max_degree = graph.max_degree();
    outcome.describe(
        "loop",
        "laps: BE then GK, each to a verified legal coloring, the reference kernel between laps",
    );
    outcome.describe("executor", "sequential (a traced run adds one sharded(2) lap)");
    outcome.describe("n", graph.n());
    outcome.describe("m", graph.m());
    outcome.describe("max_degree", max_degree);

    // Measure: laps until the window closes, at least three so that the median lap
    // outvotes one lap slowed by the host, with the reference kernel before the first lap
    // and after each.
    let mut kernel_ms = vec![calibration.run()];
    let mut laps: Vec<Lap> = Vec::new();
    let window = Instant::now();
    while laps.len() < MIN_LAPS || window.elapsed().as_secs_f64() < options.seconds {
        laps.push(run_lap(&graph)?);
        kernel_ms.push(calibration.run());
    }
    let mut lap_ms = Samples::default();
    for lap in &laps {
        lap_ms.push(lap_s(lap) * 1e3);
    }
    let mut norm_ms = Samples::default();
    calibrate::normalize(lap_ms.values(), &kernel_ms).into_iter().for_each(|ms| norm_ms.push(ms));
    let mut kernel = Samples::default();
    kernel_ms.iter().for_each(|&ms| kernel.push(ms));

    let reference = laps[0];
    let mut checks_ok = true;
    for lap in &laps {
        for timed in lap {
            checks_ok &= timed.legal;
        }
    }
    outcome.check("color.legal", checks_ok, "every lap's BE and GK coloring is legal");
    let gk_colors = reference[1].signature.colors;
    outcome.check(
        "color.gk_within_delta_plus_one",
        gk_colors <= max_degree + 1,
        format!("gk colors {gk_colors}, Δ+1 = {}", max_degree + 1),
    );
    outcome.check(
        "color.identical_across_laps",
        laps.iter().all(|lap| lap.iter().zip(&reference).all(|(a, b)| a.signature == b.signature)),
        format!("{} laps", laps.len()),
    );
    outcome.attempted += 2 * laps.len() as u64;

    // End-to-end metrics.
    let mut per_headliner: Vec<Samples> = vec![Samples::default(), Samples::default()];
    for lap in &laps {
        for (samples, timed) in per_headliner.iter_mut().zip(lap) {
            samples.push(timed.wall_s);
        }
    }
    let mut setup_norm = Samples::default();
    calibrate::normalize(setup.values(), &setup_kernel_ms)
        .into_iter()
        .for_each(|s| setup_norm.push(s));
    let setup_s = setup_norm.median();
    outcome.set("setup_s", setup_s);
    outcome.set("setup_raw_s", setup.median());
    outcome.figure("setup_raw_s", setup.median(), "s", &setup);
    outcome.set("latency_norm_ms", norm_ms.median());
    outcome.set("latency_p50_ms", lap_ms.median());
    outcome.set("host.reference_ms", kernel.median());
    outcome.figure("setup_s", setup_s, "s", &setup_norm);
    outcome.figure("latency_norm_ms", norm_ms.median(), "ms", &norm_ms);
    outcome.figure("lap_ms", lap_ms.median(), "ms", &lap_ms);
    outcome.figure("host.reference_ms", kernel.median(), "ms", &kernel);
    for (headliner, samples) in Headliner::BOTH.iter().zip(&per_headliner) {
        let key = headliner.key();
        let signature = reference[*headliner as usize].signature;
        let wall = samples.median();
        let (colors, rounds) = (signature.colors as f64, signature.rounds as f64);
        outcome.figure(&format!("{key}_s"), wall, "s", samples);
        outcome.figure(&format!("{key}_colors"), colors, "count", &Samples::default());
        outcome.figure(&format!("{key}_rounds"), rounds, "count", &Samples::default());
        outcome.set(&format!("{key}_s"), wall);
        outcome.set(&format!("{key}_colors"), colors);
        outcome.set(&format!("{key}_rounds"), rounds);
    }

    if options.trace {
        // Cross-check: one lap on the work-stealing executor with two threads.
        let previous = default_executor();
        set_default_executor(ExecutorKind::sharded(2));
        let sharded = run_lap(&graph);
        set_default_executor(previous);
        let sharded = sharded?;
        outcome.attempted += 2;
        outcome.check(
            "color.identical_threads_1_vs_2",
            sharded.iter().zip(&reference).all(|(a, b)| a.signature == b.signature && a.legal),
            "colors, rounds, messages and coloring fingerprint",
        );
        for ((headliner, samples), timed) in
            Headliner::BOTH.iter().zip(&per_headliner).zip(&sharded)
        {
            outcome.set(
                &format!("executor.{}.sharded2_speedup", headliner.key()),
                samples.median() / timed.wall_s,
            );
        }
        let mut traced_s = 0.0;
        for headliner in Headliner::BOTH {
            let timed = traced_headliner(headliner, &graph, options, outcome)?;
            outcome.check(
                &format!("trace.{}_identical_to_untraced", headliner.key()),
                timed.legal && timed.signature == reference[headliner as usize].signature,
                "tracing must not change the output",
            );
            traced_s += timed.wall_s;
        }
        outcome.set("trace.overhead_share", traced_s / (lap_ms.median() / 1e3) - 1.0);
    }
    Ok(())
}

/// Runs `headliner` under a fresh span collector: per-phase self times, executor and
/// palette counters, the layer-sum check, and a Chrome trace file.
fn traced_headliner(
    headliner: Headliner,
    graph: &Graph,
    options: &Options,
    outcome: &mut Outcome,
) -> Result<Timed, String> {
    let key = headliner.key();
    let collector = SpanCollector::new();
    let timed = {
        let _recording = obs::install(&collector);
        let _root = obs::phase(key);
        run_headliner(headliner, graph)?
    };
    let spans = collector.snapshot();
    let children = children_wall_ns(&spans);
    let root = 0;

    let mut groups: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut exec_ns, mut runs, mut rounds, mut messages) = (0u64, 0u64, 0u64, 0u64);
    let mut min_self = f64::INFINITY;
    for (index, span) in spans.iter().enumerate() {
        let name = span.name.as_str();
        let group = if index == root {
            "root"
        } else if span.kind == SpanKind::Phase && name.starts_with("level-") {
            "levels"
        } else {
            name
        };
        let group = if headliner.groups().contains(&group) { group } else { "other" };
        let own = self_ms(&spans, &children, index);
        min_self = min_self.min(own);
        *groups.entry(group).or_default() += own;
        if span.kind == SpanKind::Exec {
            exec_ns += span.wall_ns;
            runs += 1;
            rounds += span.report.rounds as u64;
            messages += span.report.messages as u64;
        }
    }
    for group in headliner.groups().iter().chain(&["other"]) {
        outcome.set(&format!("{key}.{group}_ms"), groups.get(group).copied().unwrap_or(0.0));
    }

    // Layer sums: the self times partition the root span, and the root span agrees with
    // the benchmark's own timer around the call (2 % + 1 ms).
    let root_ms = wall_ms(&spans[root]);
    let sum_ms: f64 = groups.values().sum();
    let call_ms = timed.call_s * 1e3;
    outcome.check(
        &format!("layers.{key}_self_times_sum_to_wall"),
        (sum_ms - root_ms).abs() <= 1e-3 && min_self >= -0.05,
        format!("Σ self {sum_ms:.3} ms vs span {root_ms:.3} ms, min self {min_self:.3} ms"),
    );
    outcome.check(
        &format!("layers.{key}_span_matches_timer"),
        (root_ms - call_ms).abs() <= 0.02 * call_ms + 1.0,
        format!("span {root_ms:.3} ms vs timer {call_ms:.3} ms"),
    );

    outcome.set(&format!("executor.{key}.runs"), runs as f64);
    outcome.set(&format!("executor.{key}.rounds"), rounds as f64);
    outcome.set(&format!("executor.{key}.messages"), messages as f64);
    outcome.set(&format!("executor.{key}.wall_share"), exec_ns as f64 / 1e6 / root_ms);
    outcome.set(&format!("executor.{key}.ns_per_message"), exec_ns as f64 / messages.max(1) as f64);
    set_palette(outcome, key, &collector);

    let path =
        options.out.join(format!("{}-seed{}-{key}.trace.json", options.workload, options.seed));
    write_trace(&path, &collector)?;
    Ok(timed)
}

/// Copies the palette-engine counters of `collector` into `palette.<key>.*`.
fn set_palette(outcome: &mut Outcome, key: &str, collector: &SpanCollector) {
    let metrics = collector.metrics();
    let counter =
        |name: &str| metrics.counters().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| v as f64);
    let struck = counter("palette.colors_struck");
    let picks = counter("palette.picks_served");
    outcome.set(&format!("palette.{key}.colors_struck"), struck);
    outcome.set(&format!("palette.{key}.picks_served"), picks);
    outcome.set(&format!("palette.{key}.words_cleared"), counter("palette.words_cleared"));
    outcome.set(&format!("palette.{key}.strikes_per_pick"), struck / picks.max(1.0));
}

fn write_trace(path: &Path, collector: &SpanCollector) -> Result<(), String> {
    std::fs::write(path, obs::chrome_trace_json(collector))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
