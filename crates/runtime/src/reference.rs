//! The reference executor: the pre-fabric `Vec<Vec<(port, message)>>` implementation.
//!
//! This is the simulator exactly as it worked before the message fabric: a step's one
//! broadcast is copied per port into per-vertex mailboxes in sender order, and every
//! delivery derives the receiver's port with a linear scan of the receiver's adjacency list
//! (the old `port_of` behaviour), so it shares no routing code with the pull fabric.  It is
//! kept for two jobs:
//!
//! * **Oracle.**  `tests/message_fabric.rs` pins the [`Executor`](crate::Executor) to this
//!   one: outputs, rounds, and message counts must stay bit-identical on the generator suite
//!   and the headline pipelines.  Under a collector it records the same per-round
//!   [`RoundInstant`]s into its exec span, and `tests/obs_spans.rs` compares them round by
//!   round (all but `frontier`, which this executor does not have).
//! * **Baseline.**  Experiment E18 and the `routing` Criterion group race old-vs-new
//!   delivery; [`ExecutorKind::Reference`](crate::ExecutorKind) dispatches whole pipelines
//!   onto it.
//!
//! Its bandwidth accounting is its own too: a per-arc `BandwidthMeter` charged message by
//! message on the receiver side, where the flat executor charges each sender's broadcast
//! once, in the step that sent it.
//!
//! It is not optimized, and should not be used outside tests and benches.

use crate::cost::{CostMode, EdgeLoad, MessageCost};
use crate::metrics::RoundReport;
use crate::network::{node_ctx, ExecutionResult, RuntimeError};
use crate::node::{Algorithm, Inbox, NodeProgram, Outbox, Status};
use crate::obs::{self, RoundInstant, WallBuckets};
use arbcolor_graph::{Graph, Vertex};

/// Runs [`Algorithm`]s with per-vertex `Vec` mailboxes and linear-scan routing (see the
/// module docs).  API mirrors [`Executor`](crate::Executor).
#[derive(Debug, Clone)]
pub struct ReferenceExecutor<'g> {
    graph: &'g Graph,
    max_rounds: usize,
    cost_mode: CostMode,
}

impl<'g> ReferenceExecutor<'g> {
    /// Creates a reference executor for `graph` with the default round limit and
    /// [`CostMode::Local`].
    pub fn new(graph: &'g Graph) -> Self {
        ReferenceExecutor {
            graph,
            max_rounds: crate::Executor::DEFAULT_MAX_ROUNDS,
            cost_mode: CostMode::Local,
        }
    }

    /// Overrides the round limit.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Overrides the cost mode (see [`Executor::with_cost_mode`](crate::Executor::with_cost_mode));
    /// the oracle's bandwidth accounting must stay bit-identical to the flat executors'.
    #[must_use]
    pub fn with_cost_mode(mut self, cost_mode: CostMode) -> Self {
        self.cost_mode = cost_mode;
        self
    }

    /// The graph this executor runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Runs `algorithm` until every node halts.
    ///
    /// While a collector is installed, the run's exec span records one [`RoundInstant`] per
    /// round, like [`Executor::run`](crate::Executor::run)'s.  Every deterministic column is
    /// bit-identical to the flat executor's **except** `frontier`: this executor has no
    /// frontier — it steps every awake vertex each round, all but those that sleep or wait
    /// to halt — and its `frontier` column reports `active`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate
    /// within the configured round limit.
    pub fn run<A: Algorithm>(
        &self,
        algorithm: &A,
    ) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError> {
        let span = obs::exec_span(algorithm.name());
        let mut rounds: Vec<RoundInstant> = Vec::new();
        let graph = self.graph;
        let n = graph.n();
        let contexts: Vec<_> = graph.vertices().map(|v| node_ctx(graph, v)).collect();
        let mut nodes: Vec<A::Node> = contexts.iter().map(|ctx| algorithm.node(ctx)).collect();
        let mut active = vec![true; n];
        // Per vertex, the round it sleeps until and whether it halts then (a
        // `SleepUntil`/`HaltAt` it returned); it is not stepped before that round.
        let mut asleep: Vec<Option<(usize, bool)>> = vec![None; n];
        let mut report = RoundReport::zero();

        // Pending messages for the *next* delivery, stored per receiving vertex as
        // (receiver_port, message), double-buffered against the inboxes read by the current
        // round.
        let mut pending: Vec<Vec<(usize, <A::Node as NodeProgram>::Msg)>> =
            (0..n).map(|_| Vec::new()).collect();
        let mut inboxes: Vec<Vec<(usize, <A::Node as NodeProgram>::Msg)>> =
            (0..n).map(|_| Vec::new()).collect();

        // Initialization: local computation plus the sends of the first round.
        let mut meter = BandwidthMeter::new(graph.num_arcs());
        let mut any_outgoing = false;
        for v in 0..n {
            let mut outbox = Outbox::new(contexts[v].degree);
            let status = nodes[v].init(&contexts[v], &mut outbox);
            apply(status, v, 0, &mut active[v], &mut asleep[v]);
            any_outgoing |= !outbox.is_empty();
            deliver_by_scan(graph, v, outbox, &mut pending, &mut report, &mut meter);
        }
        // Delivery-side attribution, as in the flat executors: round `r` records what it
        // delivers (the sends of round `r − 1`; round 1 carries `init`).
        let mut carry_messages = report.messages;
        let mut carry_bits = meter.finish_round(report.rounds + 1, self.cost_mode, &mut report)?;

        // Main loop: one iteration = one synchronous round.
        while active.iter().any(|&a| a) || any_outgoing {
            if report.rounds >= self.max_rounds {
                return Err(RuntimeError::RoundLimitExceeded {
                    limit: self.max_rounds,
                    still_active: active.iter().filter(|&&a| a).count(),
                });
            }
            report.rounds += 1;
            swap_mailboxes(&mut pending, &mut inboxes);

            let round_started = span.is_recording().then(std::time::Instant::now);
            let active_at_start = active.iter().filter(|&&a| a).count();
            let messages_before = report.messages;
            let mut halts_this_round = 0usize;
            // The sleepers of this round wake, and the vertices waiting to halt in it halt.
            for v in 0..n {
                if let Some((at, halts)) = asleep[v] {
                    if at == report.rounds {
                        asleep[v] = None;
                        if halts {
                            active[v] = false;
                            halts_this_round += 1;
                        }
                    }
                }
            }

            any_outgoing = false;
            for v in 0..n {
                // Mail to a vertex that sleeps or waits to halt is dropped unread.
                if !active[v] || asleep[v].is_some() {
                    continue;
                }
                let inbox = Inbox::new(report.rounds, &inboxes[v]);
                let mut outbox = Outbox::new(contexts[v].degree);
                let status = nodes[v].round(&contexts[v], &inbox, &mut outbox);
                apply(status, v, report.rounds, &mut active[v], &mut asleep[v]);
                halts_this_round += usize::from(!active[v]);
                any_outgoing |= !outbox.is_empty();
                deliver_by_scan(graph, v, outbox, &mut pending, &mut report, &mut meter);
            }
            let round_bits = meter.finish_round(report.rounds + 1, self.cost_mode, &mut report)?;
            if let Some(started) = round_started {
                rounds.push(RoundInstant {
                    round: report.rounds,
                    active: active_at_start,
                    // No frontier here: every active vertex is stepped.
                    frontier: active_at_start,
                    messages: carry_messages,
                    total_bits: carry_bits.total,
                    max_edge_bits: carry_bits.max,
                    halts: halts_this_round,
                    wall_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                });
            }
            carry_messages = report.messages - messages_before;
            carry_bits = round_bits;
            if !active.iter().any(|&a| a) {
                break;
            }
        }

        let outputs =
            nodes.iter().zip(contexts.iter()).map(|(node, ctx)| node.output(ctx)).collect();
        span.charge(report);
        span.record_rounds(WallBuckets::default(), rounds);
        obs::record_run(&report);
        Ok(ExecutionResult { outputs, report })
    }
}

/// Applies the `status` vertex `v` returned in `round` to its flags: [`Status::Halted`]
/// clears `active`, and [`Status::SleepUntil`]/[`Status::HaltAt`] put it to sleep.  Other
/// alarms are only checked: this executor steps every awake vertex every round.
fn apply(
    status: Status,
    v: Vertex,
    round: usize,
    active: &mut bool,
    asleep: &mut Option<(usize, bool)>,
) {
    status.check_alarm(v, round);
    match status {
        Status::Halted => *active = false,
        Status::SleepUntil(at) => *asleep = Some((at, false)),
        Status::HaltAt(at) => *asleep = Some((at, true)),
        Status::Active | Status::WakeAt(_) => {}
    }
}

/// The oracle's per-arc bandwidth meter: every delivered message adds its width to its
/// receiver-side arc, and the arc's running load feeds the round's [`EdgeLoad`].  Clearing
/// is O(messages of the round), not O(arcs).
struct BandwidthMeter {
    /// Bits accumulated on each arc in the current round.
    arc_bits: Vec<u64>,
    /// Arcs touched this round (so clearing is proportional to traffic).
    touched: Vec<usize>,
    /// The current round's total and most loaded edge.
    round: EdgeLoad,
}

impl BandwidthMeter {
    /// A meter over `num_arcs` arcs with nothing recorded.
    fn new(num_arcs: usize) -> Self {
        BandwidthMeter {
            arc_bits: vec![0; num_arcs],
            touched: Vec::new(),
            round: EdgeLoad::default(),
        }
    }

    /// Records `bits` arriving on `arc` (a receiver-side arc index) over `edge`
    /// (`(sender, receiver)`) in the current round.
    fn add(&mut self, arc: usize, bits: u64, edge: (Vertex, Vertex)) {
        let cell = &mut self.arc_bits[arc];
        if *cell == 0 {
            self.touched.push(arc);
        }
        *cell += bits;
        self.round.charge(bits, *cell, edge);
    }

    /// Closes the round labelled `round` (see [`EdgeLoad::finish`]) and resets the per-round
    /// state.
    fn finish_round(
        &mut self,
        round: usize,
        mode: CostMode,
        report: &mut RoundReport,
    ) -> Result<EdgeLoad, RuntimeError> {
        for &arc in &self.touched {
            self.arc_bits[arc] = 0;
        }
        self.touched.clear();
        std::mem::take(&mut self.round).finish(round, mode, report)
    }
}

/// Flips a pending/inbox mailbox double buffer: after the call, `inbox` holds what `pending`
/// accumulated, and `pending` holds the previously read (now cleared) mailboxes with their
/// capacity retained.
fn swap_mailboxes<T>(pending: &mut Vec<Vec<T>>, inbox: &mut Vec<Vec<T>>) {
    std::mem::swap(pending, inbox);
    for mailbox in pending.iter_mut() {
        mailbox.clear();
    }
}

/// Routes the broadcast in the outbox of `sender`, if any, into the pending per-vertex
/// inboxes one copy per port, deriving each receiver's port with a linear scan of its
/// adjacency list — O(deg) per message.  Bandwidth is charged to the receiver-side arc
/// `arc_range(receiver).start + receiver_port`, derived from the scan.
fn deliver_by_scan<M: Clone + MessageCost>(
    graph: &Graph,
    sender: usize,
    mut outbox: Outbox<M>,
    pending: &mut [Vec<(usize, M)>],
    report: &mut RoundReport,
    meter: &mut BandwidthMeter,
) {
    let Some(message) = outbox.take() else {
        return;
    };
    for &receiver in graph.neighbors(sender) {
        let receiver_port = graph
            .neighbors(receiver)
            .iter()
            .position(|&w| w == sender)
            .expect("graph adjacency is symmetric");
        meter.add(
            graph.arc_range(receiver).start + receiver_port,
            message.encoded_bits(),
            (sender, receiver),
        );
        pending[receiver].push((receiver_port, message.clone()));
        report.messages += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FloodMaxId, ProposeMaxId};
    use crate::Executor;
    use arbcolor_graph::generators;

    #[test]
    fn reference_and_flat_executor_agree_on_a_small_graph() {
        let g = generators::gnp(60, 0.1, 5).unwrap().with_shuffled_ids(6);
        for rounds in [1usize, 3, 7] {
            let flood = FloodMaxId { rounds };
            let reference = ReferenceExecutor::new(&g).run(&flood).unwrap();
            let flat = Executor::new(&g).run(&flood).unwrap();
            assert_eq!(reference.outputs, flat.outputs);
            assert_eq!(reference.report, flat.report);
        }
        let reference = ReferenceExecutor::new(&g).run(&ProposeMaxId).unwrap();
        let flat = Executor::new(&g).run(&ProposeMaxId).unwrap();
        assert_eq!(reference.outputs, flat.outputs);
        assert_eq!(reference.report, flat.report);
    }

    #[test]
    fn reference_round_limit_matches_flat() {
        let g = generators::path(6).unwrap();
        let reference = ReferenceExecutor::new(&g)
            .with_max_rounds(2)
            .run(&FloodMaxId { rounds: 50 })
            .unwrap_err();
        let flat =
            Executor::new(&g).with_max_rounds(2).run(&FloodMaxId { rounds: 50 }).unwrap_err();
        assert_eq!(reference, flat);
    }
}
