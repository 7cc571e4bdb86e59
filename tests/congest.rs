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
use arbcolor_graph::{generators, Graph};
use arbcolor_runtime::algorithms::ProposeMaxId;
use arbcolor_runtime::{
    Algorithm, CostMode, Executor, ExecutorKind, Inbox, NodeCtx, NodeProgram, Outbox,
    ReferenceExecutor, RunConfig, RuntimeError, Status,
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

/// Broadcasts its degree in `init`, then halts on mail: a hub's edges carry the widest
/// message of round 1.
struct DegreeBroadcast;

struct DegreeBroadcastNode;

impl NodeProgram for DegreeBroadcastNode {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        outbox.broadcast(ctx.degree as u64);
        Status::Active
    }

    fn round(&mut self, _ctx: &NodeCtx, _inbox: &Inbox<'_, u64>, _out: &mut Outbox<u64>) -> Status {
        Status::Halted
    }

    fn output(&self, _ctx: &NodeCtx) {}
}

impl Algorithm for DegreeBroadcast {
    type Node = DegreeBroadcastNode;

    fn node(&self, _ctx: &NodeCtx) -> DegreeBroadcastNode {
        DegreeBroadcastNode
    }
}

/// Runs `algorithm` on `g` under a `budget`-bit CONGEST mode on the reference executor and
/// on the work-stealing executor at threads {1, 4} × chunk sizes {1, 7, default}, asserts
/// that every run fails with the very same error value, and returns it.
fn same_congest_error<A>(g: &Graph, algorithm: &A, budget: u64) -> RuntimeError
where
    A: Algorithm + Sync,
    A::Node: Send,
    <A::Node as NodeProgram>::Msg: Send + Sync,
    <A::Node as NodeProgram>::Output: Send + std::fmt::Debug,
{
    let mode = CostMode::Congest { bits_per_edge: budget };
    let oracle = ReferenceExecutor::new(g).with_cost_mode(mode).run(algorithm).unwrap_err();
    for threads in [1usize, 4] {
        for chunk_size in [1usize, 7, Executor::DEFAULT_CHUNK_SIZE] {
            let err = Executor::new(g)
                .with_threads(threads)
                .with_chunk_size(chunk_size)
                .with_cost_mode(mode)
                .run(algorithm)
                .unwrap_err();
            assert_eq!(err, oracle, "threads {threads}, chunk size {chunk_size}");
        }
    }
    oracle
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

    // The whole error value — round, edge, width and budget — is the same everywhere.  The
    // flat executor meters each sender's ports in its step and merges the chunks in order,
    // which must keep the reference meter's tie-break: the first edge in send order that
    // reached the round's maximum.
    check(same_congest_error(&g, &ProposeMaxId, 3));
    // A star with identifiers 1..=20: the hub's 1-bit identifier is cheap, and the edges
    // from leaves 15..19 (identifiers 16..20) tie at the maximum of 5 bits.
    let tie_star = generators::star(20).unwrap();
    assert_eq!(
        same_congest_error(&tie_star, &ProposeMaxId, 3),
        RuntimeError::CongestBudgetExceeded {
            round: 1,
            sender: 15,
            receiver: 0,
            bits: 5,
            budget: 3
        }
    );
    // A broadcast is charged to every edge of its sender, and the first edge in send order
    // — the hub's port 0 — is the one named.  The hub of a 100-leaf star sends its degree,
    // 7 bits; a leaf sends 1 bit.
    let hub = generators::star(101).unwrap().with_shuffled_ids(5);
    assert_eq!(
        same_congest_error(&hub, &DegreeBroadcast, 6),
        RuntimeError::CongestBudgetExceeded {
            round: 1,
            sender: 0,
            receiver: hub.neighbors(0)[0],
            bits: 7,
            budget: 6
        }
    );

    // A budget wide enough for every identifier passes on the same graph, and the run
    // reports the same bits Local mode would have measured.
    let loose = CostMode::Congest { bits_per_edge: 64 };
    let capped = Executor::new(&g).with_cost_mode(loose).run(&ProposeMaxId).unwrap();
    let local = Executor::new(&g).run(&ProposeMaxId).unwrap();
    assert_eq!(capped.outputs, local.outputs);
    assert_eq!(capped.report, local.report);
}
