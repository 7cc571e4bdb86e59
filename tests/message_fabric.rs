//! Equivalence suite for the arc-indexed message fabric.
//!
//! The flat-mailbox [`Executor`], at one thread and work-stolen across several, must stay
//! **bit-identical** — same per-vertex outputs, same round count, same message count — to
//! the [`ReferenceExecutor`], the preserved pre-fabric implementation with per-vertex
//! `Vec<Vec<(port, message)>>` mailboxes and linear-scan routing.  The reference shares no
//! routing or mailbox code with the fabric, so agreement here pins the whole delivery
//! rewrite: mirror-table routing, slot/spill mailboxes, and inbox iteration order.

use arbcolor::mis::mis_from_coloring;
use arbcolor_baselines::registry::{headline_algorithms, KwBaseline};
use arbcolor_baselines::ColoringBaseline;
use arbcolor_graph::generators;
use arbcolor_runtime::algorithms::{FloodMaxId, ProposeMaxId};
use arbcolor_runtime::{Executor, ExecutorKind, ReferenceExecutor, RunConfig};
use proptest::prelude::*;

mod common;
use common::generator_suite;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn flat_executors_match_the_reference_on_the_generator_suite(
        n in 16usize..90,
        seed in 0u64..1_000,
        rounds in 1usize..8,
    ) {
        for (family, g) in generator_suite(n, seed) {
            let flood = FloodMaxId { rounds };
            let flood_ref = ReferenceExecutor::new(&g).run(&flood).unwrap();
            let propose_ref = ReferenceExecutor::new(&g).run(&ProposeMaxId).unwrap();

            let flood_flat = Executor::new(&g).run(&flood).unwrap();
            prop_assert_eq!(&flood_flat.outputs, &flood_ref.outputs, "flood on {}", family);
            prop_assert_eq!(flood_flat.report, flood_ref.report, "flood cost on {}", family);
            let propose_flat = Executor::new(&g).run(&ProposeMaxId).unwrap();
            prop_assert_eq!(&propose_flat.outputs, &propose_ref.outputs, "propose on {}", family);
            prop_assert_eq!(propose_flat.report, propose_ref.report, "propose cost on {}", family);

            for chunk_size in [1usize, 2, 3, 7] {
                let stolen = Executor::new(&g).with_threads(2).with_chunk_size(chunk_size);
                let flood_ws = stolen.run(&flood).unwrap();
                prop_assert_eq!(
                    &flood_ws.outputs, &flood_ref.outputs,
                    "work-stolen flood on {} (chunk {})", family, chunk_size
                );
                prop_assert_eq!(flood_ws.report, flood_ref.report, "flood cost on {}", family);
                let propose_ws = stolen.run(&ProposeMaxId).unwrap();
                prop_assert_eq!(
                    &propose_ws.outputs, &propose_ref.outputs,
                    "work-stolen propose on {} (chunk {})", family, chunk_size
                );
            }
        }
    }
}

#[test]
fn headline_pipelines_are_identical_under_the_reference_kind() {
    // End-to-end: both headline coloring pipelines and the Kuhn–Wattenhofer baseline (whose
    // greedy class sweep waits on slot alarms), dispatched through the installed run
    // configuration, must produce the same palette, per-vertex colors, and LOCAL cost
    // whether every `run_algorithm` call lands on the old Vec-of-Vecs simulator or the flat
    // message fabric (one thread and three) — and so must the MIS class sweep over each
    // pipeline's coloring.
    let g = generators::union_of_random_forests(400, 3, 33).unwrap().with_shuffled_ids(7);
    let kw: Box<dyn ColoringBaseline> = Box::new(KwBaseline);
    for algorithm in headline_algorithms().into_iter().chain([kw]) {
        let config =
            RunConfig { executor: ExecutorKind::Reference, ..RunConfig::default() }.install();
        let reference = algorithm.run(&g).unwrap();
        let reference_mis = mis_from_coloring(&g, &reference.coloring).unwrap();
        drop(config);
        for kind in [ExecutorKind::sharded(1), ExecutorKind::sharded(3)] {
            let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
            let flat = algorithm.run(&g).unwrap();
            let mis = mis_from_coloring(&g, &flat.coloring).unwrap();
            assert_eq!(mis.in_mis, reference_mis.in_mis, "MIS over {} under {kind:?}", flat.name);
            assert_eq!(
                mis.report, reference_mis.report,
                "MIS cost over {} under {kind:?}",
                flat.name
            );
            assert_eq!(flat.colors, reference.colors, "{} palette under {kind:?}", flat.name);
            assert_eq!(flat.report, reference.report, "{} cost under {kind:?}", flat.name);
            assert_eq!(
                flat.coloring.colors(),
                reference.coloring.colors(),
                "{} per-vertex colors under {kind:?}",
                flat.name
            );
        }
    }
}

#[test]
fn reference_kind_dispatches_and_reports_one_thread() {
    let g = generators::grid(5, 6).unwrap().with_shuffled_ids(3);
    assert_eq!(ExecutorKind::Reference.threads(), 1);
    let run = |executor| {
        RunConfig { executor, ..RunConfig::default() }.run(&g, &FloodMaxId { rounds: 4 })
    };
    let reference = run(ExecutorKind::Reference).unwrap();
    let flat = run(ExecutorKind::sharded(1)).unwrap();
    assert_eq!(reference.outputs, flat.outputs);
    assert_eq!(reference.report, flat.report);
}
