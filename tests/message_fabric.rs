//! Equivalence suite for the pull message fabric.
//!
//! The [`Executor`], at one thread and work-stolen across several, must stay
//! **bit-identical** — same per-vertex outputs, same round count, same message and bit
//! counts — to the [`ReferenceExecutor`], the preserved pre-fabric implementation with
//! per-vertex `Vec<Vec<(port, message)>>` mailboxes and linear-scan routing.  The reference
//! shares no routing or mailbox code with the fabric, so agreement here pins the whole
//! delivery path: each step's one broadcast kept once per sender and pulled by its
//! receivers through the round's sender bitset.  The mixed-sender and sparse-hub tests
//! below read `Inbox::iter`, `from_port` and `len` on both paths, including a hub whose
//! ports span many frontier chunks and every word of the sender bitset.

use arbcolor::mis::mis_from_coloring;
use arbcolor_baselines::registry::{headline_algorithms, KwBaseline};
use arbcolor_baselines::ColoringBaseline;
use arbcolor_graph::{generators, Graph};
use arbcolor_runtime::algorithms::{FloodMaxId, ProposeMaxId};
use arbcolor_runtime::obs::{self, RoundInstant, SpanCollector, SpanKind};
use arbcolor_runtime::{
    Algorithm, ExecutionResult, Executor, ExecutorKind, Inbox, NodeCtx, NodeProgram, Outbox,
    ReferenceExecutor, RunConfig, Status,
};
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

/// What a vertex saw in one round: `Inbox::iter`, `Inbox::len`, and `Inbox::from_port` on
/// every port.
type Seen = (Vec<(usize, u64)>, usize, Vec<Option<u64>>);

fn seen(inbox: &Inbox<'_, u64>, degree: usize) -> Seen {
    (
        inbox.iter().map(|(port, &m)| (port, m)).collect(),
        inbox.len(),
        (0..degree).map(|port| inbox.from_port(port).copied()).collect(),
    )
}

/// The vertices on both sides of the sender bitset's 64-bit word boundaries.
const WORD_EDGES: [usize; 4] = [63, 64, 127, 128];

/// For three steps (`init` and rounds 1 and 2), each vertex broadcasts once or stays silent,
/// by vertex and step: silent when `(vertex + step) % 3 == 0`, except that the vertices in
/// [`WORD_EDGES`] always broadcast.  Every round it records what it saw, and it halts in
/// round 3, so broadcasting and silent neighbors meet in every inbox.
struct MixedSenders;

struct MixedNode {
    seen: Vec<Seen>,
}

impl MixedNode {
    fn send(ctx: &NodeCtx, step: usize, outbox: &mut Outbox<u64>) {
        if (ctx.vertex + step) % 3 != 0 || WORD_EDGES.contains(&ctx.vertex) {
            outbox.broadcast(ctx.id * 100 + step as u64 * 10 + 5);
        }
    }
}

impl NodeProgram for MixedNode {
    type Msg = u64;
    type Output = Vec<Seen>;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        Self::send(ctx, 0, outbox);
        Status::WakeAt(1)
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &Inbox<'_, u64>, outbox: &mut Outbox<u64>) -> Status {
        self.seen.push(seen(inbox, ctx.degree));
        let round = inbox.round();
        if round == 3 {
            return Status::Halted;
        }
        Self::send(ctx, round, outbox);
        Status::WakeAt(round + 1)
    }

    fn output(&self, _ctx: &NodeCtx) -> Vec<Seen> {
        self.seen.clone()
    }
}

impl Algorithm for MixedSenders {
    type Node = MixedNode;

    fn node(&self, _ctx: &NodeCtx) -> MixedNode {
        MixedNode { seen: Vec::new() }
    }
}

/// A hub of degree 150 (vertex 0, adjacent to every other vertex) over a path of leaves, so
/// the hub's ports span many frontier chunks at chunk sizes 1 and 7.
fn hub_over_a_path(leaves: usize) -> Graph {
    let spokes = (1..=leaves).map(|v| (0, v));
    let path = (1..leaves).map(|v| (v, v + 1));
    Graph::from_edges(leaves + 1, spokes.chain(path)).unwrap().with_shuffled_ids(9)
}

/// Runs `algorithm` under a scratch collector; returns the result and the run's rounds with
/// the advisory wall time zeroed.
fn recorded<A>(
    executor: &Executor<'_>,
    algorithm: &A,
) -> (ExecutionResult<<A::Node as NodeProgram>::Output>, Vec<RoundInstant>)
where
    A: Algorithm + Sync,
    A::Node: Send,
    <A::Node as NodeProgram>::Msg: Send + Sync,
    <A::Node as NodeProgram>::Output: Send,
{
    let collector = SpanCollector::new();
    let guard = obs::install(&collector);
    let result = executor.run(algorithm).unwrap();
    drop(guard);
    let spans = collector.snapshot();
    let exec = spans.iter().find(|s| s.kind == SpanKind::Exec).expect("an executor run");
    let rounds = exec.rounds.iter().map(|&r| RoundInstant { wall_ns: 0, ..r }).collect();
    (result, rounds)
}

#[test]
fn mixed_sends_and_broadcasts_arrive_in_send_order_on_every_port() {
    let g = hub_over_a_path(150);
    assert!(g.degree(0) > 64);
    let oracle = ReferenceExecutor::new(&g).run(&MixedSenders).unwrap();
    // Both kinds of leaves reached the hub, whose port `v - 1` leads to leaf `v`: the
    // broadcasts of the leaves on both sides of every word boundary arrived, and the
    // silent leaves left their ports empty.
    let (_, len, by_port) = &oracle.outputs[0][0];
    assert!(*len > 0 && *len < g.degree(0));
    assert!(WORD_EDGES.iter().all(|&v| by_port[v - 1].is_some()), "{by_port:?}");
    let mut instants = None;
    for threads in [1usize, 2, 4] {
        for chunk_size in [1usize, 7, Executor::DEFAULT_CHUNK_SIZE] {
            let executor = Executor::new(&g).with_threads(threads).with_chunk_size(chunk_size);
            let (flat, rounds) = recorded(&executor, &MixedSenders);
            assert_eq!(flat.outputs, oracle.outputs, "threads {threads}, chunk {chunk_size}");
            assert_eq!(flat.report, oracle.report, "threads {threads}, chunk {chunk_size}");
            assert_eq!(*instants.get_or_insert(rounds.clone()), rounds);
        }
    }
}

/// Leaf `i` of a star broadcasts once, in round `i`; the hub wakes every round and records
/// what it saw, so it is stepped with mail on exactly one of its ports.
struct OneSpokeARound;

struct SpokeNode {
    seen: Vec<Seen>,
}

impl NodeProgram for SpokeNode {
    type Msg = u64;
    type Output = Vec<Seen>;

    fn init(&mut self, ctx: &NodeCtx, _outbox: &mut Outbox<u64>) -> Status {
        Status::WakeAt(if ctx.vertex == 0 { 2 } else { ctx.vertex })
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &Inbox<'_, u64>, outbox: &mut Outbox<u64>) -> Status {
        // The reference executor steps every active vertex every round, so a step before
        // the alarm is a no-op that repeats it.
        let round = inbox.round();
        if ctx.vertex != 0 {
            if round < ctx.vertex {
                return Status::WakeAt(ctx.vertex);
            }
            outbox.broadcast(ctx.id);
            return Status::Halted;
        }
        if round < 2 {
            return Status::WakeAt(2);
        }
        self.seen.push(seen(inbox, ctx.degree));
        if round > ctx.degree {
            Status::Halted
        } else {
            Status::WakeAt(round + 1)
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> Vec<Seen> {
        self.seen.clone()
    }
}

impl Algorithm for OneSpokeARound {
    type Node = SpokeNode;

    fn node(&self, _ctx: &NodeCtx) -> SpokeNode {
        SpokeNode { seen: Vec::new() }
    }
}

#[test]
fn a_hub_with_sparse_mail_reads_exactly_the_port_that_carried_it() {
    let g = generators::star(101).unwrap().with_shuffled_ids(4);
    let degree = g.degree(0);
    let oracle = ReferenceExecutor::new(&g).run(&OneSpokeARound).unwrap();
    // Round r ≥ 2 delivers leaf r − 1's broadcast on hub port r − 2, and nothing else.
    let hub = &oracle.outputs[0];
    assert_eq!(hub.len(), degree);
    for (i, (pairs, len, by_port)) in hub.iter().enumerate() {
        let (port, id) = (i, g.id(i + 1));
        assert_eq!(pairs, &vec![(port, id)], "round {}", i + 2);
        assert_eq!(*len, 1);
        assert_eq!(by_port.iter().flatten().count(), 1);
        assert_eq!(by_port[port], Some(id));
    }
    let mut instants = None;
    for threads in [1usize, 2, 4] {
        for chunk_size in [1usize, 7, Executor::DEFAULT_CHUNK_SIZE] {
            let executor = Executor::new(&g).with_threads(threads).with_chunk_size(chunk_size);
            let (flat, rounds) = recorded(&executor, &OneSpokeARound);
            assert_eq!(flat.outputs, oracle.outputs, "threads {threads}, chunk {chunk_size}");
            assert_eq!(flat.report, oracle.report, "threads {threads}, chunk {chunk_size}");
            // The hub alone is stepped with mail: the frontier is the hub plus the leaf
            // whose slot it is, never the whole star.
            assert!(rounds.iter().all(|r| r.frontier <= 2 && r.messages <= 1), "{rounds:?}");
            assert_eq!(*instants.get_or_insert(rounds.clone()), rounds);
        }
    }
}
