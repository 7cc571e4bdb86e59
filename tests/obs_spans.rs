//! Observability suite: phase spans, traced rounds, and their determinism contract.
//!
//! Two invariants are pinned here, both across the executors (the work-stealing executor at
//! its one-thread default and at several thread counts with a non-default chunk size, and
//! the pre-fabric reference):
//!
//! * **Trace/report consistency** — the per-round `messages` and `total_bits` columns of a
//!   [`TraceRecorder`] sum to the headline [`RoundReport`](arbcolor_runtime::RoundReport)
//!   of the same run, and every deterministic per-round column is bit-identical across
//!   executors (`frontier` excluded for the reference executor, which steps every active
//!   vertex and documents `frontier == stepped`).
//! * **Phase attribution** — the spans the instrumented drivers record for a headliner run
//!   roll up (`obs::phase_rollup`) to the exact headline report, and the per-phase reports
//!   are themselves bit-identical across executors.

use arbcolor::legal_coloring::{legal_coloring, LegalColoringParams};
use arbcolor_baselines::registry::congest_headliners;
use arbcolor_graph::generators;
use arbcolor_runtime::algorithms::FloodMaxId;
use arbcolor_runtime::{
    obs, Executor, ExecutorKind, ReferenceExecutor, RoundReport, RunConfig, TraceConfig,
    TraceRecorder,
};

mod common;
use common::generator_suite;

/// The deterministic columns of one round, in executor-comparable form (no `frontier`: the
/// reference executor's documented divergence; no `wall_ns`: advisory).
fn deterministic_rounds(recorder: &TraceRecorder) -> Vec<(usize, usize, usize, u64, u64, usize)> {
    recorder
        .rounds()
        .iter()
        .map(|r| (r.round, r.active_nodes, r.messages, r.total_bits, r.max_edge_bits, r.halts))
        .collect()
}

#[test]
fn per_round_columns_sum_to_the_report_on_every_executor() {
    for (family, g) in generator_suite(48, 91) {
        let flood = FloodMaxId { rounds: 4 };
        let (seq, seq_trace) = Executor::new(&g).run_traced(&flood).unwrap();
        let (reference, ref_trace) = ReferenceExecutor::new(&g).run_traced(&flood).unwrap();
        let mut traces =
            vec![("one-thread", &seq, seq_trace), ("reference", &reference, ref_trace)];

        let sharded_runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                Executor::new(&g)
                    .with_threads(threads)
                    .with_chunk_size(7)
                    .run_traced(&flood)
                    .unwrap()
            })
            .collect();
        for (result, recorder) in &sharded_runs {
            traces.push(("sharded", result, recorder.clone()));
        }

        for (label, result, recorder) in &traces {
            assert_eq!(
                recorder.len(),
                result.report.rounds,
                "{label} on {family}: one RoundTrace per round"
            );
            let messages: usize = recorder.rounds().iter().map(|r| r.messages).sum();
            assert_eq!(messages, result.report.messages, "{label} messages on {family}");
            let bits: u64 = recorder.rounds().iter().map(|r| r.total_bits).sum();
            assert_eq!(bits, result.report.total_bits, "{label} total_bits on {family}");
            let max_edge: u64 =
                recorder.rounds().iter().map(|r| r.max_edge_bits).max().unwrap_or(0);
            assert_eq!(max_edge, result.report.max_edge_bits, "{label} max_edge on {family}");
            // Default config: halts are counted, identities are not captured.
            assert!(recorder.rounds().iter().all(|r| r.halted.is_empty()), "{label} {family}");
        }

        // Bit-identity of the deterministic columns across all five runs.
        let baseline = deterministic_rounds(&traces[0].2);
        for (label, _, recorder) in &traces[1..] {
            assert_eq!(
                deterministic_rounds(recorder),
                baseline,
                "{label} per-round columns diverge on {family}"
            );
        }
        // The flat executors also agree on the frontier column (the reference does not
        // track one and reports stepped == active instead).
        let frontiers: Vec<usize> = traces[0].2.frontier_profile();
        for (result, recorder) in &sharded_runs {
            assert_eq!(recorder.frontier_profile(), frontiers, "frontier on {family}");
            assert_eq!(result.report, traces[0].1.report, "sharded report on {family}");
        }
    }
}

#[test]
fn halted_capture_is_opt_in_and_consistent() {
    let g = generators::cycle(24).unwrap();
    let flood = FloodMaxId { rounds: 3 };
    let (_, default_trace) = Executor::new(&g).run_traced(&flood).unwrap();
    assert!(default_trace.rounds().iter().all(|r| r.halted.is_empty()));
    assert!(default_trace.completion_round().is_some(), "halt counters back the fallback");

    let (_, full_trace) =
        Executor::new(&g).run_traced_with(&flood, TraceConfig::with_halted()).unwrap();
    for (lean, full) in default_trace.rounds().iter().zip(full_trace.rounds()) {
        assert_eq!(lean.halts, full.halts);
        assert_eq!(full.halted.len(), full.halts, "identities match the counter");
    }
    assert_eq!(default_trace.completion_round(), full_trace.completion_round());

    // Two workers capture the same identities, in the same (chunk-ascending, i.e.
    // vertex-ascending) order as one thread.
    let (_, sharded_full) = Executor::new(&g)
        .with_threads(2)
        .with_chunk_size(5)
        .run_traced_with(&flood, TraceConfig::with_halted())
        .unwrap();
    let halted = |t: &TraceRecorder| -> Vec<Vec<usize>> {
        t.rounds().iter().map(|r| r.halted.clone()).collect()
    };
    assert_eq!(halted(&sharded_full), halted(&full_trace));
    let (_, reference_full) =
        ReferenceExecutor::new(&g).run_traced_with(&flood, TraceConfig::with_halted()).unwrap();
    assert_eq!(halted(&reference_full), halted(&full_trace));
}

#[test]
fn executors_record_exec_spans_with_round_instants() {
    let g = generators::random_tree(60, 5).unwrap();
    let collector = obs::SpanCollector::new();
    let _guard = obs::install(&collector);
    let (result, _) = Executor::new(&g).run_traced(&FloodMaxId { rounds: 3 }).unwrap();
    let spans = collector.snapshot();
    assert_eq!(spans.len(), 1);
    let span = &spans[0];
    assert_eq!(span.kind, obs::SpanKind::Exec);
    assert_eq!(span.report, result.report);
    assert_eq!(span.rounds.len(), result.report.rounds, "one instant per traced round");
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
    }

    // The full phase attribution — names, order, and every deterministic field — is
    // bit-identical across all five executor configurations.
    for other in &per_kind[1..] {
        assert_eq!(other, &per_kind[0], "phase rollups diverge across executors");
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
