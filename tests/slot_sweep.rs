//! Cross-executor table for the one slot-sweep program.
//!
//! Every rule of [`SlotSweep`] runs on the generator suite: list picks and range picks on
//! the bitset path, the `Vec`-scan oracle of both, the halving split and the MIS class
//! sweep.  Each runs under the work-stealing executor at threads {1, 2, 4} × chunk
//! {1, 7, 1024} and must match the [`ReferenceExecutor`] in outputs, report and every
//! deterministic per-round column.  The reference steps every active vertex, so `frontier` is compared only across
//! the work-stealing runs, which must agree on it too.
//!
//! The slots are a legal coloring that is not first-fit (the greedy classes in reverse), so
//! a waiting vertex often hears nothing in a round and its alarm keeps it off the frontier.

use arbcolor::mis::MisJoin;
use arbcolor_baselines::greedy::sequential_greedy;
use arbcolor_graph::{ColorPool, Graph};
use arbcolor_runtime::algorithms::{
    HalvingSplit, SlotSchedule, SlotSweep, SplitSlot, SweepRule, VecScanPick,
};
use arbcolor_runtime::obs::{self, RoundInstant};
use arbcolor_runtime::{ExecutionResult, Executor, ReferenceExecutor};
use std::fmt::Debug;

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
    (result, spans[0].rounds.clone())
}

/// The per-round columns every executor must agree on: all but `frontier` and the advisory
/// `wall_ns`.
fn shared_columns(rounds: &[RoundInstant]) -> Vec<RoundInstant> {
    rounds.iter().map(|r| RoundInstant { frontier: 0, wall_ns: 0, ..*r }).collect()
}

/// Runs the sweep of `rule` on `g` under the reference and every work-stealing
/// configuration of the table, checks them against each other, and returns the outputs.
fn check<R>(label: &str, g: &Graph, rule: &R) -> Vec<R::Output>
where
    R: SweepRule + Sync,
    R::Msg: Send + Sync,
    R::Output: Send + PartialEq + Debug,
    R::State: Send,
{
    let sweep = SlotSweep(rule);
    let (oracle, oracle_rounds) = recorded(|| ReferenceExecutor::new(g).run(&sweep).unwrap());
    let mut frontier: Option<Vec<usize>> = None;
    for threads in [1, 2, 4] {
        for chunk in [1, 7, 1024] {
            let executor = Executor::new(g).with_threads(threads).with_chunk_size(chunk);
            let (result, rounds) = recorded(|| executor.run(&sweep).unwrap());
            let at = format!("{label} at threads {threads}, chunk {chunk}");
            assert_eq!(result.outputs, oracle.outputs, "{at}: outputs");
            assert_eq!(result.report, oracle.report, "{at}: report");
            assert_eq!(shared_columns(&rounds), shared_columns(&oracle_rounds), "{at}: rounds");
            let steps: Vec<usize> = rounds.iter().map(|r| r.frontier).collect();
            assert_eq!(frontier.get_or_insert_with(|| steps.clone()), &steps, "{at}: frontier");
        }
    }
    oracle.outputs
}

#[test]
fn every_sweep_rule_matches_the_reference_at_every_thread_count_and_chunk_size() {
    for (family, g) in generator_suite(120, 7) {
        let greedy = sequential_greedy(&g, None);
        let top = greedy.colors().iter().copied().max().unwrap_or(0);
        let slots: Vec<usize> = g.vertices().map(|v| (top - greedy.color(v)) as usize).collect();
        let delta = g.max_degree() as u64;

        // Lists one color longer than the degree plus one forbidden color, in descending
        // preference order.
        let mut palettes = ColorPool::new();
        let mut forbidden = ColorPool::new();
        for v in g.vertices() {
            palettes.push_iter((0..=g.degree(v) as u64 + 1).rev());
            forbidden.push_slice(&[v as u64 % 3]);
        }
        let lists = SlotSchedule::lists(slots.clone(), palettes, forbidden);
        let picks = check(&format!("list pick on {family}"), &g, &lists);
        let scanned = check(&format!("vec-scan list pick on {family}"), &g, &VecScanPick(&lists));
        assert_eq!(picks, scanned, "the pick rules diverge on lists on {family}");

        // Ranges of Δ + 2 colors in four blocks, each vertex forbidding one color below its
        // range, one inside and one above.
        let offsets: Vec<u64> = g.vertices().map(|v| (v as u64 % 4) * (delta + 1)).collect();
        let forbidden = ColorPool::from_nested(
            &offsets
                .iter()
                .enumerate()
                .map(|(v, &o)| vec![o.saturating_sub(1), o + v as u64 % 3, o + delta + 5])
                .collect::<Vec<_>>(),
        );
        let ranges = SlotSchedule::ranges(slots.clone(), offsets, delta + 2, forbidden);
        let picks = check(&format!("range pick on {family}"), &g, &ranges);
        let scanned = check(&format!("vec-scan range pick on {family}"), &g, &VecScanPick(&ranges));
        assert_eq!(picks, scanned, "the pick rules diverge on ranges on {family}");

        let split = HalvingSplit::new(
            g.vertices()
                .map(|v| SplitSlot {
                    slot: slots[v],
                    low_count: g.degree(v) / 2 + 1,
                    high_count: g.degree(v).div_ceil(2),
                    tie_high: v % 2 == 1,
                })
                .collect(),
            top as usize + 1,
        );
        check(&format!("halving split on {family}"), &g, &split);

        let classes: Vec<u64> = slots.iter().map(|&s| s as u64).collect();
        check(&format!("MIS sweep on {family}"), &g, &MisJoin(&classes));
    }
}
