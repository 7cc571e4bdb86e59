//! Procedure **Simple-Arbdefective** (Section 3, Theorem 3.2).
//!
//! Input: an acyclic *partial* orientation `σ` with out-degree at most `m` and deficit at most
//! `τ`, and an integer `k > 0`.  Every vertex waits until all of its parents (heads of its
//! outgoing edges) have selected a color, then selects the color of `{0, …, k−1}` used by the
//! fewest parents and announces it.  By the pigeonhole principle at most `⌊m/k⌋` parents share
//! the selected color, so together with the ≤ `τ` unoriented incident edges each color class
//! admits an acyclic orientation of out-degree ≤ `τ + ⌊m/k⌋` — i.e. the result is a
//! `(τ + ⌊m/k⌋)`-arbdefective `k`-coloring (Lemma 2.5 + Lemma 3.1).  The number of rounds is
//! the *length* of the orientation.

use crate::error::CoreError;
use arbcolor_graph::{Coloring, Graph, Orientation};
use arbcolor_runtime::{run_algorithm, Algorithm, Inbox, NodeCtx, Outbox, RoundReport, Status};
use std::collections::HashMap;

/// The Simple-Arbdefective DAG-sweep algorithm (node-program factory).
#[derive(Debug, Clone)]
pub struct SimpleArbdefective<'a> {
    graph: &'a Graph,
    orientation: &'a Orientation,
    k: u64,
}

impl<'a> SimpleArbdefective<'a> {
    /// Creates the algorithm for a graph, an acyclic partial orientation of that graph, and a
    /// number of colors `k`.
    pub fn new(graph: &'a Graph, orientation: &'a Orientation, k: u64) -> Self {
        SimpleArbdefective { graph, orientation, k }
    }
}

/// Node program of [`SimpleArbdefective`].
#[derive(Debug, Clone)]
pub struct SimpleArbdefectiveNode {
    /// Ports of this vertex's parents (edges oriented away from the vertex).
    parent_ports: Vec<usize>,
    /// Colors received so far from parents.
    parent_colors: Vec<u64>,
    k: u64,
    chosen: Option<u64>,
}

impl SimpleArbdefectiveNode {
    fn choose(&mut self) -> u64 {
        // Pick the color of {0, …, k−1} used by the fewest parents.
        let mut counts = vec![0usize; self.k as usize];
        for &c in &self.parent_colors {
            counts[c as usize] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, &count)| count)
            .map(|(color, _)| color as u64)
            .unwrap_or(0);
        self.chosen = Some(best);
        best
    }
}

impl arbcolor_runtime::node::NodeProgram for SimpleArbdefectiveNode {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        if self.parent_ports.is_empty() {
            let c = self.choose();
            outbox.broadcast(c);
            Status::Halted
        } else {
            // Purely mail-driven: progress happens only when parent mail arrives, so no
            // alarm is needed — delivery marks this vertex in the frontier.
            Status::Active
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<u64>,
    ) -> Status {
        for (port, &color) in inbox.iter() {
            if self.parent_ports.contains(&port) {
                self.parent_colors.push(color);
            }
        }
        if self.parent_colors.len() == self.parent_ports.len() {
            let c = self.choose();
            outbox.broadcast(c);
            Status::Halted
        } else {
            Status::Active
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> u64 {
        self.chosen.unwrap_or(0)
    }
}

impl Algorithm for SimpleArbdefective<'_> {
    type Node = SimpleArbdefectiveNode;

    fn node(&self, ctx: &NodeCtx) -> SimpleArbdefectiveNode {
        let parent_ports: Vec<usize> =
            self.orientation.parent_ports(self.graph, ctx.vertex).collect();
        SimpleArbdefectiveNode { parent_ports, parent_colors: Vec::new(), k: self.k, chosen: None }
    }

    fn name(&self) -> &'static str {
        "simple-arbdefective"
    }
}

/// An arbdefective coloring together with its per-class witness orientations.
#[derive(Debug, Clone)]
pub struct ArbdefectiveColoring {
    /// The coloring with `k` colors.
    pub coloring: Coloring,
    /// Number of colors `k`.
    pub k: u64,
    /// The guaranteed arbdefect bound `τ + ⌊m/k⌋`.
    pub arbdefect_bound: usize,
    /// For every color class, a complete acyclic orientation of the class subgraph whose
    /// out-degree certifies the arbdefect bound (Lemmas 2.5 and 3.1).
    pub witnesses: HashMap<u64, Orientation>,
    /// LOCAL cost of the sweep.
    pub report: RoundReport,
}

impl ArbdefectiveColoring {
    /// Re-checks the witnesses against the graph, returning the worst per-class out-degree.
    ///
    /// # Errors
    ///
    /// Returns an error if a witness is missing, cyclic, incomplete or exceeds the bound.
    pub fn verify(&self, graph: &Graph) -> Result<usize, CoreError> {
        self.coloring
            .verify_arbdefect_witness(graph, &self.witnesses, self.arbdefect_bound)
            .map_err(CoreError::from)
    }
}

/// Runs Procedure Simple-Arbdefective (Theorem 3.2).
///
/// `out_degree_bound` and `deficit_bound` are the parameters `m` and `τ` of the orientation
/// (the caller obtained them from Procedure Complete-/Partial-Orientation); they are used to
/// compute the guaranteed arbdefect bound `τ + ⌊m/k⌋`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `k = 0` or the orientation is cyclic, and
/// [`CoreError::InvariantViolated`] if (contrary to Theorem 3.2) a witness exceeds the bound.
pub fn simple_arbdefective(
    graph: &Graph,
    orientation: &Orientation,
    k: u64,
    out_degree_bound: usize,
    deficit_bound: usize,
) -> Result<ArbdefectiveColoring, CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidParameter { reason: "k must be positive".to_string() });
    }
    if !orientation.is_acyclic(graph) {
        return Err(CoreError::InvalidParameter {
            reason: "Simple-Arbdefective requires an acyclic orientation".to_string(),
        });
    }
    let algorithm = SimpleArbdefective::new(graph, orientation, k);
    let result = run_algorithm(graph, &algorithm)?;
    let coloring = Coloring::new(graph, result.outputs)?;
    let arbdefect_bound = deficit_bound + out_degree_bound / k as usize;

    // Build the per-class witnesses: restrict the orientation to each class subgraph and
    // complete it acyclically (Lemma 3.1).  Each vertex has at most ⌊m/k⌋ parents and at most
    // τ unoriented edges inside its class, so the completed out-degree is ≤ τ + ⌊m/k⌋.
    let mut witnesses = HashMap::new();
    for (class_color, sub) in coloring.class_subgraphs(graph) {
        if sub.graph.m() == 0 {
            continue;
        }
        let restricted = orientation.restrict_to(graph, &sub.graph, sub.map.parent_vertices());
        let completed = restricted.complete_acyclically(&sub.graph)?;
        witnesses.insert(class_color, completed);
    }

    let colored =
        ArbdefectiveColoring { coloring, k, arbdefect_bound, witnesses, report: result.report };
    let worst = colored.verify(graph).map_err(|e| CoreError::InvariantViolated {
        reason: format!("Theorem 3.2 witness check failed: {e}"),
    })?;
    debug_assert!(worst <= arbdefect_bound);
    Ok(colored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_decompose::forests::bounded_outdegree_orientation;
    use arbcolor_graph::generators;

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::cycle(4).unwrap();
        let o = Orientation::unoriented(&g);
        assert!(matches!(
            simple_arbdefective(&g, &o, 0, 1, 1),
            Err(CoreError::InvalidParameter { .. })
        ));
        let mut cyclic = Orientation::unoriented(&g);
        cyclic.orient_towards(&g, 0, 1).unwrap();
        cyclic.orient_towards(&g, 1, 2).unwrap();
        cyclic.orient_towards(&g, 2, 3).unwrap();
        cyclic.orient_towards(&g, 3, 0).unwrap();
        assert!(matches!(
            simple_arbdefective(&g, &cyclic, 2, 1, 0),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn complete_orientation_gives_floor_m_over_k_arbdefect() {
        for k in [1u64, 2, 3, 5] {
            let g = generators::union_of_random_forests(250, 3, 11).unwrap().with_shuffled_ids(4);
            let bounded = bounded_outdegree_orientation(&g, 3, 1.0).unwrap();
            let out = simple_arbdefective(&g, &bounded.orientation, k, bounded.out_degree_bound, 0)
                .unwrap();
            assert_eq!(out.arbdefect_bound, bounded.out_degree_bound / k as usize);
            assert!(out.coloring.max_color() < k);
            let worst = out.verify(&g).unwrap();
            assert!(worst <= out.arbdefect_bound);
        }
    }

    #[test]
    fn rounds_are_bounded_by_orientation_length() {
        let g = generators::union_of_random_forests(300, 2, 5).unwrap().with_shuffled_ids(9);
        let bounded = bounded_outdegree_orientation(&g, 2, 1.0).unwrap();
        let length = bounded.orientation.length(&g).unwrap();
        let out =
            simple_arbdefective(&g, &bounded.orientation, 2, bounded.out_degree_bound, 0).unwrap();
        assert!(
            out.report.rounds <= length + 1,
            "sweep took {} rounds on an orientation of length {length}",
            out.report.rounds
        );
    }

    #[test]
    fn partial_orientation_adds_deficit_to_the_bound() {
        let g = generators::gnp(100, 0.08, 3).unwrap().with_shuffled_ids(2);
        // Leave every edge unoriented: deficit = Δ, out-degree 0; with k = 1 all vertices get
        // the same color and the bound must absorb the whole degree.
        let o = Orientation::unoriented(&g);
        let out = simple_arbdefective(&g, &o, 1, 0, g.max_degree()).unwrap();
        assert_eq!(out.arbdefect_bound, g.max_degree());
        // Nobody waits for parents: the only cost is the single round in which the (already
        // final) choices are flushed to the neighbors.
        assert!(out.report.rounds <= 1, "got {} rounds", out.report.rounds);
        out.verify(&g).unwrap();
    }

    #[test]
    fn k_larger_than_out_degree_gives_deficit_only_bound() {
        let g = generators::union_of_random_forests(150, 2, 7).unwrap().with_shuffled_ids(3);
        let bounded = bounded_outdegree_orientation(&g, 2, 1.0).unwrap();
        let k = (bounded.out_degree_bound + 1) as u64;
        let out =
            simple_arbdefective(&g, &bounded.orientation, k, bounded.out_degree_bound, 0).unwrap();
        // ⌊m/k⌋ = 0, so every color class must be a forest-like (arboricity 0 means edgeless).
        assert_eq!(out.arbdefect_bound, 0);
        for (_, sub) in out.coloring.class_subgraphs(&g) {
            assert_eq!(sub.graph.m(), 0, "classes must be independent sets when the bound is 0");
        }
    }
}
