//! Observability suite: phase spans, per-round instants, and their determinism contract.
//!
//! Two invariants are pinned here, both across the executors (the work-stealing executor at
//! its one-thread default and at several thread counts with a non-default chunk size, and
//! the pre-fabric reference):
//!
//! * **Per-round records** — every executor run under a collector hands its exec span one
//!   [`RoundInstant`] per round, and every deterministic column is bit-identical across
//!   executors (`frontier` excluded for the reference executor, which steps every active
//!   vertex and reports `frontier == active`).  The delivery-side `messages` column sums to
//!   the headline [`RoundReport`] minus the sends of the last round, which no round
//!   delivers: exactly the report when the last round sends nothing (`FloodMaxId`), and short
//!   by the last slot's broadcasts on a slot-scheduled sweep.
//! * **Phase attribution** — the spans the instrumented drivers record for a headliner run
//!   roll up (`obs::phase_rollup`) to the exact headline report, and the per-phase reports
//!   are themselves bit-identical across executors.

use arbcolor::legal_coloring::{legal_coloring, LegalColoringParams};
use arbcolor_baselines::greedy::sequential_greedy;
use arbcolor_baselines::registry::congest_headliners;
use arbcolor_graph::{generators, ColorPool};
use arbcolor_runtime::algorithms::{FloodMaxId, SlotSchedule, SlotSweep};
use arbcolor_runtime::obs::RoundInstant;
use arbcolor_runtime::{
    obs, ExecutionResult, Executor, ExecutorKind, ReferenceExecutor, RoundReport, RunConfig,
};

mod common;
use common::generator_suite;

/// Runs `run` under a scratch collector; returns its result and the rounds of its one
/// executor run.
fn recorded<O>(
    run: impl FnOnce() -> ExecutionResult<O>,
) -> (ExecutionResult<O>, Vec<RoundInstant>) {
    let collector = obs::SpanCollector::new();
    let guard = obs::install(&collector);
    let result = run();
    drop(guard);
    let spans = collector.snapshot();
    assert_eq!(spans.len(), 1, "one executor run");
    assert_eq!(spans[0].kind, obs::SpanKind::Exec);
    (result, spans[0].rounds.clone())
}

/// The deterministic columns of each round, in executor-comparable form: no `wall_ns`
/// (advisory), and `frontier` only when `with_frontier` (the reference executor has none).
fn deterministic(rounds: &[RoundInstant], with_frontier: bool) -> Vec<RoundInstant> {
    rounds
        .iter()
        .map(|r| RoundInstant {
            frontier: if with_frontier { r.frontier } else { 0 },
            wall_ns: 0,
            ..*r
        })
        .collect()
}

#[test]
fn per_round_columns_sum_to_the_report_on_every_executor() {
    for (family, g) in generator_suite(48, 91) {
        let flood = FloodMaxId { rounds: 4 };
        let mut runs = vec![
            ("one-thread", recorded(|| Executor::new(&g).run(&flood).unwrap())),
            ("reference", recorded(|| ReferenceExecutor::new(&g).run(&flood).unwrap())),
        ];
        for threads in [1usize, 2, 4] {
            let executor = Executor::new(&g).with_threads(threads).with_chunk_size(7);
            runs.push(("sharded", recorded(|| executor.run(&flood).unwrap())));
        }

        for (label, (result, rounds)) in &runs {
            assert_eq!(rounds.len(), result.report.rounds, "{label} on {family}: one per round");
            // FloodMaxId's last round sends nothing, so the delivery-side columns sum to
            // the report exactly.
            let messages: usize = rounds.iter().map(|r| r.messages).sum();
            assert_eq!(messages, result.report.messages, "{label} messages on {family}");
            let bits: u64 = rounds.iter().map(|r| r.total_bits).sum();
            assert_eq!(bits, result.report.total_bits, "{label} total_bits on {family}");
            let max_edge: u64 = rounds.iter().map(|r| r.max_edge_bits).max().unwrap_or(0);
            assert_eq!(max_edge, result.report.max_edge_bits, "{label} max_edge on {family}");
            let halts: usize = rounds.iter().map(|r| r.halts).sum();
            assert_eq!(halts, g.n(), "{label} on {family}: every vertex halts in a round");
        }

        // Bit-identity of the deterministic columns across all five runs; the flat
        // executors also agree on the frontier column.
        let (_, (baseline, rounds)) = &runs[0];
        for (label, (result, other)) in &runs[1..] {
            let with_frontier = *label != "reference";
            assert_eq!(
                deterministic(other, with_frontier),
                deterministic(rounds, with_frontier),
                "{label} per-round columns diverge on {family}"
            );
            assert_eq!(result.report, baseline.report, "{label} report on {family}");
        }
    }
}

#[test]
fn per_round_messages_miss_exactly_the_last_rounds_sends() {
    let g = generators::barabasi_albert(300, 3, 5).unwrap().with_shuffled_ids(2);
    let greedy = sequential_greedy(&g, None);
    let slots: Vec<usize> = g.vertices().map(|v| greedy.color(v) as usize).collect();
    let mut palettes = ColorPool::new();
    for v in g.vertices() {
        palettes.push_iter(0..=g.degree(v) as u64);
    }
    let schedule = SlotSchedule::lists(slots.clone(), palettes, ColorPool::empty_lists(g.n()));
    let last_slot = slots.iter().copied().max().unwrap();
    // Every vertex of the last slot broadcasts in the last round, and no round delivers it.
    let last_sends: usize =
        g.vertices().filter(|&v| slots[v] == last_slot).map(|v| g.degree(v)).sum();
    assert!(last_sends > 0);
    let sweep = SlotSweep(&schedule);
    for (label, (result, rounds)) in [
        ("one-thread", recorded(|| Executor::new(&g).run(&sweep).unwrap())),
        (
            "two-threads",
            recorded(|| Executor::new(&g).with_threads(2).with_chunk_size(7).run(&sweep).unwrap()),
        ),
        ("reference", recorded(|| ReferenceExecutor::new(&g).run(&sweep).unwrap())),
    ] {
        assert_eq!(result.report.rounds, last_slot, "{label}");
        let delivered: usize = rounds.iter().map(|r| r.messages).sum();
        assert_eq!(result.report.messages - delivered, last_sends, "{label}");
    }
}

#[test]
fn executors_record_exec_spans_with_round_instants() {
    let g = generators::random_tree(60, 5).unwrap();
    let collector = obs::SpanCollector::new();
    let _guard = obs::install(&collector);
    let result = Executor::new(&g).run(&FloodMaxId { rounds: 3 }).unwrap();
    let spans = collector.snapshot();
    assert_eq!(spans.len(), 1);
    let span = &spans[0];
    assert_eq!(span.kind, obs::SpanKind::Exec);
    assert_eq!(span.report, result.report);
    assert_eq!(span.rounds.len(), result.report.rounds, "one instant per round");
    assert_eq!(span.rounds.iter().map(|r| r.round).collect::<Vec<_>>(), [1, 2, 3]);
    assert_eq!(span.rounds[0].active, g.n());
    let metrics = collector.metrics();
    let counters: Vec<(String, u64)> =
        metrics.counters().map(|(k, v)| (k.to_string(), v)).collect();
    assert!(counters.iter().any(|(k, v)| k == "executor.runs" && *v == 1));
    assert!(counters
        .iter()
        .any(|(k, v)| k == "executor.rounds" && *v == result.report.rounds as u64));
}

/// One headliner's rollup: its name plus the `(phase name, phase report)` attribution.
type HeadlinerRollup = (String, Vec<(String, RoundReport)>);

#[test]
fn headliner_phase_rollups_sum_to_the_report_and_match_across_executors() {
    let g = generators::union_of_random_forests(300, 3, 57).unwrap().with_shuffled_ids(4);

    // name → (phase name, deterministic phase report fields) per executor kind.
    let mut per_kind: Vec<Vec<HeadlinerRollup>> = Vec::new();
    // Every exec span's name and rounds, in recording order, per executor kind.
    let mut exec_rounds: Vec<Vec<(String, Vec<RoundInstant>)>> = Vec::new();
    // Non-default chunk sizes, to prove chunking cannot leak into costs.
    for kind in [
        ExecutorKind::Sharded { threads: 1, chunk_size: 7 },
        ExecutorKind::Sharded { threads: 2, chunk_size: 1 },
        ExecutorKind::Sharded { threads: 2, chunk_size: 7 },
        ExecutorKind::Sharded { threads: 4, chunk_size: 7 },
        ExecutorKind::Reference,
    ] {
        let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();

        let collector = obs::SpanCollector::new();
        let _guard = obs::install(&collector);
        let mut rollups = Vec::new();
        for algorithm in congest_headliners(42) {
            let parent = collector.len();
            let span = obs::phase(algorithm.name());
            let outcome = algorithm.run(&g).unwrap();
            span.charge(outcome.report);
            drop(span);

            let spans = collector.snapshot();
            let phases = obs::phase_rollup(&spans, parent);
            assert!(!phases.is_empty(), "{} recorded no phases under {kind:?}", outcome.name);
            let sum = phases.iter().fold(RoundReport::zero(), |acc, (_, r)| acc.then(*r));
            assert_eq!(
                (sum.rounds, sum.messages, sum.total_bits),
                (outcome.report.rounds, outcome.report.messages, outcome.report.total_bits),
                "{} phases do not sum to the headline report under {kind:?}",
                outcome.name
            );
            rollups.push((outcome.name.clone(), phases));
        }
        per_kind.push(rollups);
        let spans = collector.snapshot();
        let execs = spans.into_iter().filter(|s| s.kind == obs::SpanKind::Exec);
        exec_rounds.push(execs.map(|s| (s.name, s.rounds)).collect());
    }

    // The full phase attribution — names, order, and every deterministic field — is
    // bit-identical across all five executor configurations.
    for other in &per_kind[1..] {
        assert_eq!(other, &per_kind[0], "phase rollups diverge across executors");
    }
    // So is every executor run, round by round: the frontier column among the four
    // work-stealing configurations, every other deterministic column across all five.
    let columns = |runs: &[(String, Vec<RoundInstant>)], with_frontier: bool| {
        runs.iter()
            .map(|(name, rounds)| (name.clone(), deterministic(rounds, with_frontier)))
            .collect::<Vec<_>>()
    };
    assert!(exec_rounds[0].iter().any(|(_, rounds)| !rounds.is_empty()));
    for (i, runs) in exec_rounds.iter().enumerate().skip(1) {
        let with_frontier = i < 4;
        assert_eq!(
            columns(runs, with_frontier),
            columns(&exec_rounds[0], with_frontier),
            "per-round columns diverge between configurations 0 and {i}"
        );
    }
    // And the vocabulary matches the instrumented drivers.
    let be = &per_kind[0][0];
    assert!(be.1.iter().any(|(name, _)| name == "legal-coloring"), "{be:?}");
    let gk = &per_kind[0][1];
    assert!(gk.1.iter().any(|(name, _)| name.starts_with("level-")), "{gk:?}");
    let hkmt = &per_kind[0][2];
    assert!(hkmt.1.iter().any(|(name, _)| name == "random-trials"), "{hkmt:?}");
}

/// Legal-Coloring's refine loop attributes each iteration computationally (the H-partition
/// share plus its `arbdefective` residual); the headliner graphs above never enter that loop
/// (`p = 6` and degeneracy ≤ 6), so this pins it on a graph of arboricity 12.
#[test]
fn refine_loop_rollup_sums_to_the_report_and_matches_across_executors() {
    let g = generators::union_of_random_forests(400, 12, 7).unwrap().with_shuffled_ids(3);
    let params = LegalColoringParams { p: 6, epsilon: 1.0 };

    let mut rollups = Vec::new();
    for kind in [
        ExecutorKind::sharded(1),
        ExecutorKind::Sharded { threads: 2, chunk_size: 7 },
        ExecutorKind::Reference,
    ] {
        let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
        let collector = obs::SpanCollector::new();
        let _guard = obs::install(&collector);
        let span = obs::phase("legal-coloring-run");
        let run = legal_coloring(&g, 12, params).unwrap();
        span.charge(run.report);
        drop(span);

        let phases = obs::phase_rollup(&collector.snapshot(), 0);
        let names: Vec<&str> = phases.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["h-partition", "arbdefective", "legal-coloring"], "under {kind:?}");
        let sum = phases.iter().fold(RoundReport::zero(), |acc, (_, r)| acc.then(*r));
        assert_eq!(sum, run.report, "refine-loop phases do not sum under {kind:?}");
        rollups.push(phases);
    }
    for other in &rollups[1..] {
        assert_eq!(other, &rollups[0], "refine-loop rollups diverge across executors");
    }
}
