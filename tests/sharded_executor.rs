//! Cross-crate equivalence suite for the work-stealing parallel simulator.
//!
//! The contract of `arbcolor_runtime::shard` is that the work-stealing [`Executor`] is
//! **bit-identical** to the [`ReferenceExecutor`] oracle — same per-vertex outputs, same
//! round count, same message count — for every graph, every chunk size, and every thread
//! count, including the one-thread default that steps every chunk on the caller.  This
//! suite drives that claim over the full generator suite with randomized sizes and seeds,
//! and checks it end to end through the headline coloring pipelines dispatched via an
//! installed run configuration.

use arbcolor_baselines::registry::headline_algorithms;
use arbcolor_graph::generators;
use arbcolor_runtime::algorithms::{FloodMaxId, ProposeMaxId};
use arbcolor_runtime::{Executor, ExecutorKind, ReferenceExecutor, RunConfig};
use proptest::prelude::*;

/// Thread counts the equivalence matrix is driven over.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Chunk sizes the equivalence matrix is driven over (1 = one vertex per steal, 7 and 64 =
/// several chunks per round on the suite's graphs, 4096 = larger than every graph so a
/// single worker steps everything on the caller).
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 4096];

mod common;
use common::generator_suite;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn work_stealing_is_bit_identical_across_kinds_on_the_generator_suite(
        n in 16usize..90,
        seed in 0u64..1_000,
        rounds in 1usize..8,
    ) {
        for (family, g) in generator_suite(n, seed) {
            let flood = FloodMaxId { rounds };
            let flood_seq = Executor::new(&g).run(&flood).unwrap();
            let propose_seq = Executor::new(&g).run(&ProposeMaxId).unwrap();
            // The oracle executor (pre-fabric, everyone-runs, no frontier code) must agree
            // with the frontier-driven executor at its one-thread default...
            let flood_ref = ReferenceExecutor::new(&g).run(&flood).unwrap();
            prop_assert_eq!(&flood_ref.outputs, &flood_seq.outputs, "flood oracle on {}", family);
            prop_assert_eq!(flood_ref.report, flood_seq.report, "flood oracle cost on {}", family);
            let propose_ref = ReferenceExecutor::new(&g).run(&ProposeMaxId).unwrap();
            prop_assert_eq!(&propose_ref.outputs, &propose_seq.outputs, "propose oracle on {}", family);
            prop_assert_eq!(propose_ref.report, propose_seq.report, "propose oracle cost on {}", family);
            // ...and so must the work-stealing executor at every (threads, chunk) config.
            for threads in THREAD_COUNTS {
                for chunk_size in CHUNK_SIZES {
                    let stolen =
                        Executor::new(&g).with_threads(threads).with_chunk_size(chunk_size);
                    let flood_ws = stolen.run(&flood).unwrap();
                    prop_assert_eq!(
                        &flood_ws.outputs, &flood_seq.outputs,
                        "flood on {} (threads={}, chunk={})", family, threads, chunk_size
                    );
                    prop_assert_eq!(flood_ws.report, flood_seq.report, "flood cost on {}", family);
                    let propose_ws = stolen.run(&ProposeMaxId).unwrap();
                    prop_assert_eq!(
                        &propose_ws.outputs, &propose_seq.outputs,
                        "propose on {} (threads={}, chunk={})", family, threads, chunk_size
                    );
                    prop_assert_eq!(propose_ws.report, propose_seq.report, "propose cost on {}", family);
                }
            }
        }
    }
}

#[test]
fn repeated_work_stealing_runs_with_different_thread_counts_agree() {
    let g = generators::union_of_random_forests(300, 4, 9).unwrap().with_shuffled_ids(2);
    let flood = FloodMaxId { rounds: 12 };
    let reference = Executor::new(&g).with_threads(1).with_chunk_size(16).run(&flood).unwrap();
    for repetition in 0..3 {
        for threads in [1usize, 2, 3, 8] {
            let again =
                Executor::new(&g).with_threads(threads).with_chunk_size(16).run(&flood).unwrap();
            assert_eq!(
                again.outputs, reference.outputs,
                "outputs drifted at threads={threads}, repetition={repetition}"
            );
            assert_eq!(again.report, reference.report);
        }
    }
}

#[test]
fn chunk_size_never_changes_results() {
    let g = generators::gnp(250, 0.02, 41).unwrap().with_shuffled_ids(6);
    let flood = FloodMaxId { rounds: 9 };
    let reference = ReferenceExecutor::new(&g).run(&flood).unwrap();
    for chunk_size in [1usize, 2, 3, 7, 11, 250, 4096] {
        let stolen =
            Executor::new(&g).with_threads(3).with_chunk_size(chunk_size).run(&flood).unwrap();
        assert_eq!(stolen.outputs, reference.outputs, "chunk_size={chunk_size}");
        assert_eq!(stolen.report, reference.report, "chunk_size={chunk_size}");
    }
}

#[test]
fn headline_pipelines_are_identical_under_every_executor_kind() {
    // End-to-end: the full Barenboim–Elkin and Ghaffari–Kuhn pipelines, dispatched through
    // the installed run configuration the whole stack consults, must produce the same
    // coloring and the same LOCAL cost under every executor configuration.
    let g = generators::union_of_random_forests(400, 3, 33).unwrap().with_shuffled_ids(7);
    for algorithm in headline_algorithms() {
        let sequential = algorithm.run(&g).unwrap();
        let kinds = [
            ExecutorKind::Reference,
            ExecutorKind::Sharded { threads: 2, chunk_size: 64 },
            ExecutorKind::Sharded { threads: 4, chunk_size: 1 },
        ];
        for kind in kinds {
            let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
            let parallel = algorithm.run(&g).unwrap();
            assert_eq!(parallel.colors, sequential.colors, "{} palette", sequential.name);
            assert_eq!(parallel.report, sequential.report, "{} cost", sequential.name);
            assert_eq!(
                parallel.coloring.colors(),
                sequential.coloring.colors(),
                "{} per-vertex colors",
                sequential.name
            );
        }
    }
}
