//! Scope suite for [`RunConfig`]: the executor and cost mode a run executes under belong to
//! one thread (and the pool workers it spawns), never to the process.
//!
//! * **Isolation.**  A Congest config installed on one thread does not reach a LOCAL run on
//!   another thread, however the two interleave.
//! * **Inheritance.**  [`WorkPool`] workers run their jobs under the spawning thread's
//!   config, so a driver that colors buckets on a pool keeps its executor and cost mode.
//! * **Restoration.**  The install guard restores the previous config on drop — nested
//!   installs unwind in order, and a panic through the guard restores too.

use arbcolor_graph::generators;
use arbcolor_runtime::algorithms::FloodMaxId;
use arbcolor_runtime::{
    run_algorithm, CostMode, Executor, ExecutorKind, RunConfig, RuntimeError, WorkPool,
};
use std::sync::Barrier;

#[test]
fn a_congest_install_on_one_thread_leaves_local_runs_on_another_thread_alone() {
    let g = generators::path(8).unwrap();
    let flood = FloodMaxId { rounds: 4 };
    let solo = Executor::new(&g).run(&flood).unwrap();
    let installed = Barrier::new(2);
    let ran = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _congest = RunConfig {
                cost_mode: CostMode::Congest { bits_per_edge: 1 },
                ..RunConfig::default()
            }
            .install();
            installed.wait();
            // The other thread runs while this install is live.
            ran.wait();
            let own = run_algorithm(&g, &flood).unwrap_err();
            assert!(
                matches!(own, RuntimeError::CongestBudgetExceeded { budget: 1, .. }),
                "{own:?}"
            );
        });
        s.spawn(|| {
            installed.wait();
            let direct = Executor::new(&g).run(&flood);
            let dispatched = run_algorithm(&g, &flood);
            ran.wait();
            for run in [direct, dispatched] {
                let run = run.expect("a LOCAL run must not see another thread's budget");
                assert_eq!(run.outputs, solo.outputs);
                assert_eq!(run.report, solo.report);
            }
        });
    });
}

#[test]
fn pool_workers_inherit_the_installed_config() {
    let installed = RunConfig {
        executor: ExecutorKind::Sharded { threads: 3, chunk_size: 5 },
        cost_mode: CostMode::Congest { bits_per_edge: 9 },
    };
    assert_ne!(installed, RunConfig::current());
    let _config = installed.install();
    let caller = std::thread::current().id();
    let seen = WorkPool::new(2)
        .map((0..8).collect(), |_, _: usize| (std::thread::current().id(), RunConfig::current()));
    assert!(seen.iter().all(|&(id, _)| id != caller), "every job runs on a pool worker");
    assert!(seen.iter().all(|&(_, config)| config == installed), "{seen:?}");
}

#[test]
fn a_panic_inside_an_install_restores_the_outer_config() {
    let outer = RunConfig { executor: ExecutorKind::sharded(2), ..RunConfig::default() };
    let _outer = outer.install();
    let caught = std::panic::catch_unwind(|| {
        let _inner =
            RunConfig { cost_mode: CostMode::Congest { bits_per_edge: 3 }, ..outer }.install();
        assert_eq!(RunConfig::current().cost_mode, CostMode::Congest { bits_per_edge: 3 });
        panic!("unwinding through the install guard");
    });
    assert!(caught.is_err());
    assert_eq!(RunConfig::current(), outer);
}

#[test]
fn nested_installs_restore_in_order() {
    let base = RunConfig::current();
    assert_eq!(
        base,
        RunConfig { executor: ExecutorKind::sharded(1), cost_mode: CostMode::Local },
        "a fresh thread starts at one thread under LOCAL"
    );
    let a = RunConfig { executor: ExecutorKind::Reference, ..base };
    let b = RunConfig { cost_mode: CostMode::Congest { bits_per_edge: 64 }, ..a };
    let guard_a = a.install();
    assert_eq!(RunConfig::current(), a);
    let guard_b = b.install();
    assert_eq!(RunConfig::current(), b);
    drop(guard_b);
    assert_eq!(RunConfig::current(), a);
    drop(guard_a);
    assert_eq!(RunConfig::current(), base);
}
