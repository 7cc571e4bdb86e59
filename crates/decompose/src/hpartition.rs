//! H-partitions (Barenboim–Elkin PODC'08; Lemma 2.3 of the paper).
//!
//! An *H-partition* of degree `A` splits the vertex set into buckets `H_1, …, H_ℓ`,
//! `ℓ = O(log n)`, such that every vertex of `H_i` has at most `A` neighbors in
//! `H_i ∪ H_{i+1} ∪ … ∪ H_ℓ`.  For a graph of arboricity `a` and any `ε > 0`, choosing
//! `A = ⌊(2+ε)·a⌋` works: the average degree is below `2a`, so in every iteration at least an
//! `ε/(2+ε)` fraction of the remaining vertices have remaining degree ≤ `A` and can be peeled
//! off together, giving `ℓ = O(log n)` iterations of one round each.

use crate::error::DecomposeError;
use arbcolor_graph::{Graph, Vertex};
use arbcolor_runtime::{run_algorithm, Algorithm, Inbox, NodeCtx, Outbox, RoundReport, Status};
use serde::{Deserialize, Serialize};

/// The distributed peeling algorithm computing an H-partition.
#[derive(Debug, Clone, Copy)]
pub struct HPartitionAlgorithm {
    /// Degree threshold `A`: a vertex joins the current bucket as soon as its number of
    /// not-yet-assigned neighbors is at most `A`.
    pub threshold: usize,
    /// Upper bound on the number of peeling iterations before giving up.
    pub max_iterations: usize,
}

/// Node program of [`HPartitionAlgorithm`].  The only message is "I am leaving now".
#[derive(Debug, Clone)]
pub struct HPartitionNode {
    threshold: usize,
    /// The round in which a vertex still unpeeled gives up: round `r` peels bucket `r + 1`,
    /// and the last bucket allowed is `max_iterations`.
    give_up_round: usize,
    remaining_neighbors: usize,
    bucket: Option<usize>,
}

impl arbcolor_runtime::node::NodeProgram for HPartitionNode {
    type Msg = ();
    type Output = Option<usize>;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<()>) -> Status {
        self.remaining_neighbors = ctx.degree;
        if self.remaining_neighbors <= self.threshold {
            self.bucket = Some(1);
            outbox.broadcast(());
            Status::Halted
        } else {
            // The remaining degree only drops when neighbors leave, so mail drives the
            // peeling; the one alarm is the give-up deadline.
            Status::WakeAt(self.give_up_round)
        }
    }

    fn round(&mut self, _ctx: &NodeCtx, inbox: &Inbox<'_, ()>, outbox: &mut Outbox<()>) -> Status {
        self.remaining_neighbors = self.remaining_neighbors.saturating_sub(inbox.len());
        if self.remaining_neighbors <= self.threshold {
            self.bucket = Some(inbox.round() + 1);
            outbox.broadcast(());
            return Status::Halted;
        }
        if inbox.round() >= self.give_up_round {
            // Give up: the threshold is too small for this graph.  Report failure through the
            // output rather than looping forever.
            return Status::Halted;
        }
        Status::WakeAt(self.give_up_round)
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<usize> {
        self.bucket
    }
}

impl Algorithm for HPartitionAlgorithm {
    type Node = HPartitionNode;

    fn node(&self, _ctx: &NodeCtx) -> HPartitionNode {
        HPartitionNode {
            threshold: self.threshold,
            give_up_round: self.max_iterations.saturating_sub(1).max(1),
            remaining_neighbors: 0,
            bucket: None,
        }
    }

    fn name(&self) -> &'static str {
        "h-partition"
    }
}

/// An H-partition of a specific graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HPartition {
    /// Bucket index of every vertex (1-based, as in the paper).
    pub h_index: Vec<usize>,
    /// The degree threshold `A` the partition was computed with.
    pub degree_bound: usize,
    /// Number of buckets `ℓ`.
    pub num_buckets: usize,
    /// LOCAL cost of computing the partition.
    pub report: RoundReport,
}

impl HPartition {
    /// The bucket (1-based) of vertex `v`.
    pub fn bucket_of(&self, v: Vertex) -> usize {
        self.h_index[v]
    }

    /// Groups the vertices by bucket; entry `i` holds bucket `i + 1`.
    pub fn buckets(&self) -> Vec<Vec<Vertex>> {
        let mut buckets = vec![Vec::new(); self.num_buckets];
        for (v, &h) in self.h_index.iter().enumerate() {
            buckets[h - 1].push(v);
        }
        buckets
    }

    /// Checks the defining property: every vertex has at most `degree_bound` neighbors in its
    /// own or a later bucket.  Returns the worst violation if any.
    pub fn verify(&self, graph: &Graph) -> Result<(), DecomposeError> {
        for v in graph.vertices() {
            let later =
                graph.neighbors(v).iter().filter(|&&u| self.h_index[u] >= self.h_index[v]).count();
            if later > self.degree_bound {
                return Err(DecomposeError::InvariantViolated {
                    reason: format!(
                        "vertex {v} has {later} neighbors in buckets ≥ {} (bound {})",
                        self.h_index[v], self.degree_bound
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Default `ε` used when deriving the degree threshold from an arboricity bound.
pub const DEFAULT_EPSILON: f64 = 1.0;

/// The degree threshold `⌊(2+ε)·a⌋` used by the paper, never below `2a + 1` so progress is
/// guaranteed even for `a = 1` and tiny `ε`.
pub fn degree_threshold(arboricity: usize, epsilon: f64) -> usize {
    let a = arboricity.max(1);
    (((2.0 + epsilon) * a as f64).floor() as usize).max(2 * a + 1)
}

/// Computes an H-partition with degree threshold `⌊(2+ε)·a⌋` in `O(log n)` rounds.
///
/// `arboricity` must be an upper bound on the arboricity of `graph` (the degeneracy works);
/// `epsilon` trades the bucket degree bound against the number of buckets.
///
/// # Errors
///
/// Returns [`DecomposeError::ArboricityBoundTooSmall`] if some vertices could not be assigned
/// (which means `arboricity` under-estimated the true arboricity), and
/// [`DecomposeError::InvalidParameter`] for non-positive `epsilon`.
///
/// # Examples
///
/// ```
/// use arbcolor_graph::generators;
/// use arbcolor_decompose::hpartition::h_partition;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::union_of_random_forests(300, 3, 1)?;
/// let hp = h_partition(&g, 3, 1.0)?;
/// hp.verify(&g)?;
/// # Ok(())
/// # }
/// ```
pub fn h_partition(
    graph: &Graph,
    arboricity: usize,
    epsilon: f64,
) -> Result<HPartition, DecomposeError> {
    if epsilon <= 0.0 || epsilon.is_nan() {
        return Err(DecomposeError::InvalidParameter {
            reason: format!("epsilon must be positive, got {epsilon}"),
        });
    }
    let threshold = degree_threshold(arboricity, epsilon);
    // Each iteration removes at least an ε/(2+ε) fraction of the surviving vertices, so
    // log_{1/(1-ε/(2+ε))} n iterations suffice; add slack for rounding.
    let shrink = 1.0 - epsilon / (2.0 + epsilon);
    let max_iterations = if graph.n() <= 1 {
        1
    } else {
        ((graph.n() as f64).ln() / (1.0 / shrink).ln()).ceil() as usize + 2
    };

    let algorithm = HPartitionAlgorithm { threshold, max_iterations };
    let result = run_algorithm(graph, &algorithm)?;

    let mut h_index = vec![0usize; graph.n()];
    let mut unassigned = 0usize;
    let mut num_buckets = 0usize;
    for (v, bucket) in result.outputs.iter().enumerate() {
        match bucket {
            Some(b) => {
                h_index[v] = *b;
                num_buckets = num_buckets.max(*b);
            }
            None => unassigned += 1,
        }
    }
    if unassigned > 0 {
        return Err(DecomposeError::ArboricityBoundTooSmall { threshold, remaining: unassigned });
    }
    Ok(HPartition { h_index, degree_bound: threshold, num_buckets, report: result.report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::{degeneracy, generators};

    #[test]
    fn partition_of_forest_union_verifies() {
        for k in [1usize, 2, 4] {
            let g = generators::union_of_random_forests(250, k, 3).unwrap();
            let hp = h_partition(&g, k, 1.0).unwrap();
            hp.verify(&g).unwrap();
            assert_eq!(hp.h_index.iter().filter(|&&h| h == 0).count(), 0);
            assert!(hp.num_buckets >= 1);
            let buckets = hp.buckets();
            let total: usize = buckets.iter().map(Vec::len).sum();
            assert_eq!(total, g.n());
        }
    }

    #[test]
    fn bucket_count_grows_logarithmically() {
        let small = generators::union_of_random_forests(100, 2, 5).unwrap();
        let large = generators::union_of_random_forests(3200, 2, 5).unwrap();
        let hp_small = h_partition(&small, 2, 1.0).unwrap();
        let hp_large = h_partition(&large, 2, 1.0).unwrap();
        // 32x more vertices should cost only ~log(32) ≈ 5 extra buckets (allow slack).
        assert!(
            hp_large.num_buckets <= hp_small.num_buckets + 10,
            "small = {}, large = {}",
            hp_small.num_buckets,
            hp_large.num_buckets
        );
        assert!(hp_large.report.rounds <= hp_large.num_buckets + 2);
    }

    #[test]
    fn too_small_arboricity_bound_is_reported() {
        let g = generators::complete(30).unwrap();
        let err = h_partition(&g, 1, 0.5).unwrap_err();
        assert!(matches!(err, DecomposeError::ArboricityBoundTooSmall { .. }));
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let g = generators::path(5).unwrap();
        assert!(h_partition(&g, 1, 0.0).is_err());
        assert!(h_partition(&g, 1, f64::NAN).is_err());
    }

    #[test]
    fn degenerate_graphs() {
        let empty = arbcolor_graph::Graph::empty(7);
        let hp = h_partition(&empty, 1, 1.0).unwrap();
        assert_eq!(hp.num_buckets, 1);
        hp.verify(&empty).unwrap();

        let single = arbcolor_graph::Graph::empty(1);
        let hp = h_partition(&single, 1, 1.0).unwrap();
        assert_eq!(hp.num_buckets, 1);
    }

    #[test]
    fn works_with_degeneracy_as_arboricity_bound() {
        let g = generators::gnp(200, 0.05, 9).unwrap();
        let d = degeneracy::degeneracy(&g);
        let hp = h_partition(&g, d, 1.0).unwrap();
        hp.verify(&g).unwrap();
        // The degree bound is (2+ε)·d = 3d with ε = 1.
        assert_eq!(hp.degree_bound, degree_threshold(d, 1.0));
    }

    #[test]
    fn threshold_is_at_least_2a_plus_1() {
        assert_eq!(degree_threshold(1, 0.01), 3);
        assert_eq!(degree_threshold(4, 1.0), 12);
        assert_eq!(degree_threshold(10, 0.5), 25);
    }
}
