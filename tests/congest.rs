//! CONGEST accounting suite: seeded determinism of the bandwidth columns and enforcement of
//! the per-edge budget.
//!
//! Three guarantees are pinned here:
//!
//! * **Seeded bit-identity.**  For a fixed seed, the HKMT randomized pipeline — colors,
//!   rounds, messages, *and* the new `total_bits` / `max_edge_bits` columns — is a pure
//!   function of the instance: identical across the work-stealing executor (at 1, 2, and
//!   4 threads) and the reference executor.
//! * **Seed sensitivity without correctness loss.**  Different seeds may color differently,
//!   but every seed yields a legal coloring within `Δ + 1`.
//! * **Budget enforcement.**  In [`CostMode::Congest`] every executor rejects a message
//!   wider than the per-edge budget with the typed
//!   [`RuntimeError::CongestBudgetExceeded`] — naming the round, edge, width, and budget —
//!   rather than panicking or silently truncating.
//!
//! The executor kind and cost mode are a thread-scoped [`RunConfig`], so each test installs
//! its own and cannot disturb the tests running beside it on other threads.

use arbcolor::hkmt::hkmt_coloring;
use arbcolor_graph::generators;
use arbcolor_runtime::algorithms::ProposeMaxId;
use arbcolor_runtime::{
    CostMode, Executor, ExecutorKind, ReferenceExecutor, RunConfig, RuntimeError,
};

/// Runs the full HKMT pipeline under `kind` and returns its outcome signature.
fn hkmt_signature(kind: ExecutorKind, seed: u64) -> (Vec<u64>, usize, usize, u64, u64) {
    let g = generators::barabasi_albert(600, 3, 71).unwrap().with_shuffled_ids(4);
    let config = RunConfig { executor: kind, ..RunConfig::default() }.install();
    let run = hkmt_coloring(&g, seed).expect("HKMT colors the fixture");
    drop(config);
    assert!(run.coloring.is_legal(&g));
    (
        run.coloring.colors().to_vec(),
        run.report.rounds,
        run.report.messages,
        run.report.total_bits,
        run.report.max_edge_bits,
    )
}

#[test]
fn hkmt_is_bit_identical_across_executors_and_thread_counts_for_a_fixed_seed() {
    let expected = hkmt_signature(ExecutorKind::sharded(1), 42);
    assert!(expected.3 > 0, "the trials must have been charged for their messages");
    for threads in [1usize, 2, 4] {
        assert_eq!(
            hkmt_signature(ExecutorKind::sharded(threads), 42),
            expected,
            "sharded executor with {threads} threads diverged"
        );
    }
    assert_eq!(
        hkmt_signature(ExecutorKind::Reference, 42),
        expected,
        "reference executor diverged"
    );
    // Same instance, same seed, run again: no hidden global state.
    assert_eq!(hkmt_signature(ExecutorKind::sharded(1), 42), expected);
}

#[test]
fn different_seeds_stay_legal_and_within_delta_plus_one() {
    let g = generators::gnp(150, 0.06, 19).unwrap().with_shuffled_ids(3);
    let mut colorings = Vec::new();
    for seed in [1u64, 7, 1234, u64::MAX] {
        let run = hkmt_coloring(&g, seed).expect("every seed must color");
        assert!(run.coloring.is_legal(&g), "seed {seed} produced an illegal coloring");
        assert!(run.colors_used <= g.max_degree() + 1, "seed {seed} overshot Δ + 1");
        colorings.push(run.coloring.colors().to_vec());
    }
    // Sanity: the seed actually reaches the dice — at least two runs should differ.
    colorings.dedup();
    assert!(colorings.len() > 1, "all seeds produced the same coloring");
}

#[test]
fn congest_mode_rejects_an_over_wide_message_with_the_typed_error() {
    // ProposeMaxId broadcasts identifiers; with shuffled ids on a star some identifier needs
    // more than 3 bits, so a 3-bit budget must trip on every executor.  The error names the
    // offending round/edge/width so a violation is debuggable, not just fatal.
    let g = generators::star(20).unwrap().with_shuffled_ids(6);
    let tight = CostMode::Congest { bits_per_edge: 3 };

    let check = |err: RuntimeError| match err {
        RuntimeError::CongestBudgetExceeded { round, sender, receiver, bits, budget } => {
            assert_eq!(budget, 3);
            assert!(bits > 3);
            assert!(round >= 1);
            assert!(sender < g.n() && receiver < g.n() && sender != receiver);
        }
        other => panic!("expected CongestBudgetExceeded, got {other:?}"),
    };
    check(Executor::new(&g).with_cost_mode(tight).run(&ProposeMaxId).unwrap_err());
    check(
        Executor::new(&g)
            .with_threads(4)
            .with_chunk_size(1)
            .with_cost_mode(tight)
            .run(&ProposeMaxId)
            .unwrap_err(),
    );
    check(ReferenceExecutor::new(&g).with_cost_mode(tight).run(&ProposeMaxId).unwrap_err());

    // A budget wide enough for every identifier passes on the same graph, and the run
    // reports the same bits Local mode would have measured.
    let loose = CostMode::Congest { bits_per_edge: 64 };
    let capped = Executor::new(&g).with_cost_mode(loose).run(&ProposeMaxId).unwrap();
    let local = Executor::new(&g).run(&ProposeMaxId).unwrap();
    assert_eq!(capped.outputs, local.outputs);
    assert_eq!(capped.report, local.report);
}
