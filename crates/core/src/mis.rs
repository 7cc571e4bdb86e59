//! Maximal independent set via coloring (Section 1.2).
//!
//! Linial's classical reduction: given a legal `k`-coloring, sweep the color classes in order;
//! a vertex joins the MIS when its class comes up and none of its neighbors has joined yet.
//! Each class costs one round, so the total is `k` rounds on top of the coloring.  Combining
//! the sweep with the `O(a)`-coloring of Theorem 4.3 reproduces the paper's MIS bound:
//! `O(a + a^µ log n)` rounds on graphs of arboricity `a`.
//!
//! The sweep is the runtime's [`SlotSweep`] with the [`MisJoin`] rule: the color classes are
//! the slots, and a vertex announces only that it joined, with an empty message.

use crate::error::CoreError;
use crate::legal_coloring::{o_a_coloring, OaParams};
use arbcolor_graph::{Coloring, Graph, Vertex};
use arbcolor_runtime::algorithms::{SlotSweep, SweepRule};
use arbcolor_runtime::{run_algorithm, Inbox, RoundReport};

/// The class-sweep MIS rule of a [`SlotSweep`], over the slot (normalized color) of every
/// vertex: a vertex is blocked by any announcement, and in its slot it joins the MIS, and
/// announces that with an empty message, unless it is blocked.
#[derive(Debug, Clone)]
pub struct MisJoin<'a>(pub &'a [u64]);

impl SweepRule for MisJoin<'_> {
    type Msg = ();
    type Output = bool;
    /// `(blocked, joined)`.
    type State = (bool, bool);

    fn name(&self) -> &'static str {
        "mis-class-sweep"
    }

    fn start(&self, v: Vertex) -> (usize, (bool, bool)) {
        (self.0[v] as usize, (false, false))
    }

    fn absorb(&self, (blocked, _): &mut (bool, bool), inbox: &Inbox<'_, ()>) {
        *blocked |= !inbox.is_empty();
    }

    fn announce(&self, _v: Vertex, (blocked, joined): &mut (bool, bool)) -> Option<()> {
        *joined = !*blocked;
        joined.then_some(())
    }

    fn output(&self, _v: Vertex, &(_, joined): &(bool, bool)) -> bool {
        joined
    }
}

/// The result of an MIS computation.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// Membership flags, indexed by vertex.
    pub in_mis: Vec<bool>,
    /// Size of the independent set.
    pub size: usize,
    /// LOCAL cost (the coloring, if this call computed it, plus the class sweep).
    pub report: RoundReport,
}

impl MisResult {
    /// Checks independence and maximality against `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvariantViolated`] describing the first violation found.
    pub fn verify(&self, graph: &Graph) -> Result<(), CoreError> {
        for &(u, v) in graph.edges() {
            if self.in_mis[u] && self.in_mis[v] {
                return Err(CoreError::InvariantViolated {
                    reason: format!("vertices {u} and {v} are adjacent and both in the MIS"),
                });
            }
        }
        for v in graph.vertices() {
            if !self.in_mis[v] && !graph.neighbors(v).iter().any(|&u| self.in_mis[u]) {
                return Err(CoreError::InvariantViolated {
                    reason: format!("vertex {v} is not in the MIS and has no MIS neighbor"),
                });
            }
        }
        Ok(())
    }
}

/// Computes an MIS from an existing legal coloring by sweeping the color classes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the coloring is not legal; propagates runtime
/// errors.
pub fn mis_from_coloring(graph: &Graph, coloring: &Coloring) -> Result<MisResult, CoreError> {
    if !coloring.is_legal(graph) {
        return Err(CoreError::InvalidParameter {
            reason: "the MIS class sweep requires a legal coloring".to_string(),
        });
    }
    let (normalized, _) = coloring.normalized();
    let result = run_algorithm(graph, &SlotSweep(&MisJoin(normalized.colors())))?;
    let in_mis = result.outputs;
    let size = in_mis.iter().filter(|&&b| b).count();
    let mis = MisResult { in_mis, size, report: result.report };
    mis.verify(graph)?;
    Ok(mis)
}

/// The paper's MIS result (§1.2): an MIS in `O(a + a^µ log n)` rounds on graphs of arboricity
/// at most `a`, obtained by combining the `O(a)`-coloring of Theorem 4.3 with the class sweep.
///
/// # Errors
///
/// Propagates coloring and runtime errors.
pub fn mis_bounded_arboricity(
    graph: &Graph,
    arboricity: usize,
    mu: f64,
    epsilon: f64,
) -> Result<MisResult, CoreError> {
    let coloring_run = o_a_coloring(graph, arboricity, OaParams { mu, epsilon })?;
    let mut mis = mis_from_coloring(graph, &coloring_run.coloring)?;
    mis.report = coloring_run.report.then(mis.report);
    Ok(mis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn mis_from_two_coloring_of_a_path() {
        let g = generators::path(10).unwrap();
        let coloring = Coloring::new(&g, (0..10).map(|v| (v % 2) as u64).collect()).unwrap();
        let mis = mis_from_coloring(&g, &coloring).unwrap();
        mis.verify(&g).unwrap();
        assert_eq!(mis.size, 5, "even vertices form the MIS when swept first");
    }

    #[test]
    fn mis_requires_a_legal_coloring() {
        let g = generators::cycle(4).unwrap();
        let bad = Coloring::constant(&g);
        assert!(matches!(mis_from_coloring(&g, &bad), Err(CoreError::InvalidParameter { .. })));
    }

    #[test]
    fn mis_on_bounded_arboricity_graphs() {
        for (a, n) in [(2usize, 300usize), (4, 500)] {
            let g = generators::union_of_random_forests(n, a, 7).unwrap().with_shuffled_ids(3);
            let mis = mis_bounded_arboricity(&g, a, 0.5, 1.0).unwrap();
            mis.verify(&g).unwrap();
            assert!(mis.size > 0);
            // Rounds are O(colors + a^µ log n); sanity-check against a generous bound.
            let logn = (g.n() as f64).log2().ceil() as usize;
            assert!(mis.report.rounds <= 500 * logn, "rounds {} look unbounded", mis.report.rounds);
        }
    }

    #[test]
    fn mis_on_star_has_hub_or_all_leaves() {
        let g = generators::star(50).unwrap().with_shuffled_ids(5);
        let coloring =
            Coloring::new(&g, (0..50).map(|v| if v == 0 { 0u64 } else { 1 }).collect()).unwrap();
        let mis = mis_from_coloring(&g, &coloring).unwrap();
        mis.verify(&g).unwrap();
        assert!(mis.in_mis[0]);
        assert_eq!(mis.size, 1);
    }

    #[test]
    fn mis_sweep_steps_a_blocked_vertex_on_mail_then_waits_for_its_slot() {
        // Path 0 – 1 – 2 – 3 with slots (0, 3, 1, 0): vertices 0 and 3 join in round 0.
        // Round 1 steps vertex 1 (blocked by vertex 0's announcement) and vertex 2 (blocked,
        // in its slot); round 2 nobody, while vertex 1 waits silently; round 3 vertex 1, in
        // its slot.
        use arbcolor_runtime::{obs, Executor, ReferenceExecutor};
        let g = generators::path(4).unwrap();
        let slots = [0u64, 3, 1, 0];
        let collector = obs::SpanCollector::new();
        let guard = obs::install(&collector);
        let result = Executor::new(&g).run(&SlotSweep(&MisJoin(&slots))).unwrap();
        drop(guard);
        let frontier: Vec<usize> =
            collector.snapshot()[0].rounds.iter().map(|r| r.frontier).collect();
        assert_eq!(result.outputs, vec![true, false, false, true]);
        assert_eq!(result.report.rounds, 3);
        assert_eq!(result.report.messages, 2);
        assert_eq!(frontier, vec![2, 0, 1]);
        let oracle = ReferenceExecutor::new(&g).run(&SlotSweep(&MisJoin(&slots))).unwrap();
        assert_eq!(oracle.outputs, result.outputs);
        assert_eq!(oracle.report, result.report);
    }

    #[test]
    fn empty_graph_mis_is_everything() {
        let g = arbcolor_graph::Graph::empty(6);
        let coloring = Coloring::constant(&g);
        let mis = mis_from_coloring(&g, &coloring).unwrap();
        assert_eq!(mis.size, 6);
    }
}
