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
//!
//! The halving split also runs with palette shares that decide some vertices before any
//! mail (they sleep until their slot and halt with no finalize step), and on random
//! [`SplitSlot`]s against a sequential oracle.

use arbcolor::mis::MisJoin;
use arbcolor_baselines::greedy::sequential_greedy;
use arbcolor_graph::{ColorPool, Graph};
use arbcolor_runtime::algorithms::{
    HalvingSplit, SlotSchedule, SlotSweep, SplitChoice, SplitSlot, SweepRule, VecScanPick,
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

        // Shares a quarter of the vertices hold wholly in the lower half and a quarter
        // mostly in the upper one, by more than their degree (decided); the rest as above,
        // or with all their colors low but no more than their degree (undecided, and
        // deferred when every neighbor goes low too).
        let mixed: Vec<SplitSlot> = g
            .vertices()
            .map(|v| {
                let d = g.degree(v);
                let (low_count, high_count) = match v % 4 {
                    0 => (d + 1, 0),
                    1 => (1, d + 2),
                    2 => (d / 2 + 1, d.div_ceil(2)),
                    _ => (d, 0),
                };
                SplitSlot { slot: slots[v], low_count, high_count, tie_high: v % 3 == 0 }
            })
            .collect();
        let mixed_split = HalvingSplit::new(mixed.clone(), top as usize + 1);
        let decided = g.vertices().filter(|&v| !mixed_split.needs_mail(v, g.degree(v))).count();
        assert!(decided > 0 && decided < g.n(), "{family}: {decided} of {} decided", g.n());
        let choices = check(&format!("mixed halving split on {family}"), &g, &mixed_split);
        assert_eq!(choices, split_oracle(&g, &mixed), "mixed halving split on {family}");

        let classes: Vec<u64> = slots.iter().map(|&s| s as u64).collect();
        check(&format!("MIS sweep on {family}"), &g, &MisJoin(&classes));
    }
}

/// The halving split computed sequentially: slot by slot, every vertex of the slot commits
/// on the commitments of its earlier-slot neighbors, then every neighbor counts it; at the
/// end a vertex defers when its share cannot cover its same-half neighbors.
fn split_oracle(g: &Graph, slots: &[SplitSlot]) -> Vec<SplitChoice> {
    let mut committed = vec![[0usize; 2]; g.n()];
    let mut high = vec![false; g.n()];
    for slot in 0..=slots.iter().map(|s| s.slot).max().unwrap_or(0) {
        let movers: Vec<usize> = g.vertices().filter(|&v| slots[v].slot == slot).collect();
        for &v in &movers {
            let (s, [low, up]) = (&slots[v], committed[v]);
            let order = (s.high_count as i64 - up as i64)
                .cmp(&(s.low_count as i64 - low as i64))
                .then(s.high_count.cmp(&s.low_count));
            high[v] = order.is_gt() || (order.is_eq() && s.tie_high);
        }
        for &v in &movers {
            for &u in g.neighbors(v) {
                committed[u][usize::from(high[v])] += 1;
            }
        }
    }
    let choice = |v: usize| {
        let share = if high[v] { slots[v].high_count } else { slots[v].low_count };
        match (share > committed[v][usize::from(high[v])], high[v]) {
            (false, _) => SplitChoice::Deferred,
            (true, true) => SplitChoice::High,
            (true, false) => SplitChoice::Low,
        }
    };
    g.vertices().map(choice).collect()
}

#[test]
fn the_halving_split_matches_a_sequential_oracle_on_random_slots() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let (mut decided, mut deferred) = (0, 0);
    for (family, g) in generator_suite(120, 11) {
        for num_slots in [1, 3, 8] {
            // Shares up to twice the degree plus two, so the shares differ by more than the
            // degree about as often as not.
            let slots: Vec<SplitSlot> = g
                .vertices()
                .map(|v| SplitSlot {
                    slot: draw(num_slots),
                    low_count: draw(2 * g.degree(v) + 3),
                    high_count: draw(2 * g.degree(v) + 3),
                    tie_high: draw(2) == 1,
                })
                .collect();
            let split = HalvingSplit::new(slots.clone(), num_slots);
            decided += g.vertices().filter(|&v| !split.needs_mail(v, g.degree(v))).count();
            let run = Executor::new(&g).run(&SlotSweep(&split)).unwrap();
            let oracle = split_oracle(&g, &slots);
            deferred += oracle.iter().filter(|&&c| c == SplitChoice::Deferred).count();
            assert_eq!(run.outputs, oracle, "{family} with {num_slots} slots");
            assert_eq!(run.report.rounds, num_slots, "{family} with {num_slots} slots");
        }
    }
    assert!(decided > 0 && deferred > 0, "the draws cover decided and deferred vertices");
}
