//! Cole–Vishkin coloring of rooted forests in `O(log* n)` rounds.
//!
//! Given a rooted forest (every vertex knows its parent, if any), the classical bit-trick of
//! Cole and Vishkin reduces an `n`-coloring (the identifiers) to a 6-coloring in `O(log* n)`
//! rounds: in every iteration each vertex compares the binary representation of its current
//! color with its parent's, finds the lowest differing bit position `i` with value `b`, and
//! adopts `2i + b` as its new color.  Three more shift-down/recolor iterations bring the
//! palette down to 3.
//!
//! This substrate is used by the baseline suite (forests can be colored with 3 colors, far
//! below `Δ + 1`) and by tests of the forests decomposition.

use crate::error::DecomposeError;
use arbcolor_graph::{Coloring, Graph, Vertex};
use arbcolor_runtime::{run_algorithm, Algorithm, Inbox, NodeCtx, Outbox, RoundReport, Status};

/// Number of iterations after which the Cole–Vishkin contraction is guaranteed to have
/// reached at most 6 colors for any 64-bit identifier space (`log* 2^64` plus slack).
const CONTRACTION_ROUNDS: usize = 10;

/// Message exchanged by the Cole–Vishkin node program: the sender's current color.
type CvMsg = u64;

/// Node program of the Cole–Vishkin recoloring (driven by [`cole_vishkin_forest_coloring`]).
///
/// Every vertex runs the same phase in the same round: ten contraction rounds, then a
/// shift-down round and a recolor round for each of the classes 5, 4 and 3.
#[derive(Debug, Clone)]
pub struct ColeVishkinNode {
    parent_port: Option<usize>,
    color: u64,
}

impl ColeVishkinNode {
    /// One contraction step: combine own color with parent color (roots use a synthetic
    /// parent color differing at bit 0).
    fn contract(&mut self, parent_color: Option<u64>) {
        let parent_color = parent_color.unwrap_or(self.color ^ 1);
        let diff = self.color ^ parent_color;
        let bit = diff.trailing_zeros() as u64;
        let value = (self.color >> bit) & 1;
        self.color = 2 * bit + value;
    }
}

impl arbcolor_runtime::node::NodeProgram for ColeVishkinNode {
    type Msg = CvMsg;
    type Output = u64;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<CvMsg>) -> Status {
        self.color = ctx.id;
        outbox.broadcast(self.color);
        // The phase machine advances every round even when a vertex receives no mail (e.g.
        // an isolated root).
        Status::WakeAt(1)
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, CvMsg>,
        outbox: &mut Outbox<CvMsg>,
    ) -> Status {
        let round = inbox.round();
        let parent_color = self.parent_port.and_then(|p| inbox.from_port(p).copied());
        if round <= CONTRACTION_ROUNDS {
            self.contract(parent_color);
        } else if (round - CONTRACTION_ROUNDS) % 2 == 1 {
            // Shift down: adopt the parent's color; roots pick a small color different from
            // their own current color so no color above 2 is ever re-introduced at the root.
            self.color = match parent_color {
                Some(pc) => pc,
                None => (0..3u64).find(|&c| c != self.color).expect("two of {0,1,2} differ"),
            };
        } else {
            let class = 6 - ((round - CONTRACTION_ROUNDS) / 2) as u64;
            if self.color == class {
                // After a shift-down all children of a vertex share one color, so the
                // neighborhood uses at most two colors and a free color exists in {0,1,2}.
                let child =
                    inbox.iter().find(|&(port, _)| Some(port) != self.parent_port).map(|(_, &c)| c);
                self.color = (0..3u64)
                    .find(|c| Some(*c) != parent_color && Some(*c) != child)
                    .expect("three colors always contain a free one");
            }
            if class == 3 {
                return Status::Halted;
            }
        }
        outbox.broadcast(self.color);
        Status::WakeAt(round + 1)
    }

    fn output(&self, _ctx: &NodeCtx) -> u64 {
        self.color
    }
}

/// The port-resolved Cole–Vishkin algorithm (constructed by
/// [`cole_vishkin_forest_coloring`], which translates parent pointers into ports).
#[derive(Debug, Clone)]
struct ColeVishkinPorts {
    parent_port: Vec<Option<usize>>,
}

impl Algorithm for ColeVishkinPorts {
    type Node = ColeVishkinNode;

    fn node(&self, ctx: &NodeCtx) -> ColeVishkinNode {
        ColeVishkinNode { parent_port: self.parent_port[ctx.vertex], color: ctx.id }
    }

    fn name(&self) -> &'static str {
        "cole-vishkin"
    }
}

/// Output of [`cole_vishkin_forest_coloring`].
#[derive(Debug, Clone)]
pub struct ForestColoring {
    /// A legal coloring of the forest with at most 3 colors.
    pub coloring: Coloring,
    /// LOCAL cost.
    pub report: RoundReport,
}

/// Colors a rooted forest with 3 colors in `O(log* n)` rounds.
///
/// `parent[v]` must be `None` for roots and `Some(u)` where `{u, v}` is an edge of `graph`
/// otherwise, and the parent pointers must be acyclic.  Edges of `graph` that are not
/// parent/child edges of the forest are ignored (the output is a legal coloring of the forest,
/// not necessarily of `graph`).
///
/// # Errors
///
/// Returns [`DecomposeError::InvalidParameter`] if a parent pointer refers to a non-neighbor,
/// and propagates runtime errors.
pub fn cole_vishkin_forest_coloring(
    graph: &Graph,
    parent: &[Option<Vertex>],
) -> Result<ForestColoring, DecomposeError> {
    if parent.len() != graph.n() {
        return Err(DecomposeError::InvalidParameter {
            reason: "one parent pointer per vertex is required".to_string(),
        });
    }
    // `port_of` is an O(log deg) binary search over the sorted adjacency list (not the old
    // linear scan), so embedding every parent port costs O(n log Δ) up front and the node
    // programs never search for their parent again.
    let mut parent_port = vec![None; graph.n()];
    for (v, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            let port = graph.port_of(v, p).ok_or_else(|| DecomposeError::InvalidParameter {
                reason: format!("parent {p} of vertex {v} is not a neighbor"),
            })?;
            parent_port[v] = Some(port);
        }
    }
    let algorithm = ColeVishkinPorts { parent_port };
    let result = run_algorithm(graph, &algorithm)?;
    let coloring = Coloring::new(graph, result.outputs)?;

    // Validate against the forest edges only.
    for (v, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            if coloring.color(v) == coloring.color(p) {
                return Err(DecomposeError::InvariantViolated {
                    reason: format!("Cole–Vishkin colored vertex {v} and its parent {p} alike"),
                });
            }
        }
    }
    Ok(ForestColoring { coloring, report: result.report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    /// Root the tree/forest at vertex 0 of every component by BFS.
    fn root_forest(graph: &Graph) -> Vec<Option<Vertex>> {
        let mut parent = vec![None; graph.n()];
        let mut visited = vec![false; graph.n()];
        for start in graph.vertices() {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &u in graph.neighbors(v) {
                    if !visited[u] {
                        visited[u] = true;
                        parent[u] = Some(v);
                        queue.push_back(u);
                    }
                }
            }
        }
        parent
    }

    #[test]
    fn colors_random_trees_with_three_colors() {
        for seed in 0..4u64 {
            let g = generators::random_tree(300, seed).unwrap().with_shuffled_ids(seed + 1);
            let parent = root_forest(&g);
            let out = cole_vishkin_forest_coloring(&g, &parent).unwrap();
            assert!(out.coloring.is_legal(&g), "tree edges are exactly the forest edges");
            assert!(out.coloring.max_color() <= 2, "palette must be {{0, 1, 2}}");
            assert!(out.report.rounds <= CONTRACTION_ROUNDS + 7);
        }
    }

    #[test]
    fn colors_forests_and_paths() {
        let g = generators::random_forest(200, 0.8, 3).unwrap().with_shuffled_ids(9);
        let parent = root_forest(&g);
        let out = cole_vishkin_forest_coloring(&g, &parent).unwrap();
        assert!(out.coloring.is_legal(&g));
        assert!(out.coloring.max_color() <= 2);

        let p = generators::path(50).unwrap().with_shuffled_ids(11);
        let parent = root_forest(&p);
        let out = cole_vishkin_forest_coloring(&p, &parent).unwrap();
        assert!(out.coloring.is_legal(&p));
        assert!(out.coloring.max_color() <= 2);
    }

    #[test]
    fn star_and_balanced_tree() {
        let s = generators::star(100).unwrap().with_shuffled_ids(2);
        let parent = root_forest(&s);
        let out = cole_vishkin_forest_coloring(&s, &parent).unwrap();
        assert!(out.coloring.is_legal(&s));
        assert!(out.coloring.max_color() <= 2);

        let t = generators::balanced_tree(127, 2).unwrap().with_shuffled_ids(3);
        let parent = root_forest(&t);
        let out = cole_vishkin_forest_coloring(&t, &parent).unwrap();
        assert!(out.coloring.is_legal(&t));
        assert!(out.coloring.max_color() <= 2);
    }

    #[test]
    fn bad_parent_pointer_is_rejected() {
        let g = generators::path(4).unwrap();
        let bad_parent = vec![None, Some(3), None, None]; // 3 is not a neighbor of 1
        assert!(matches!(
            cole_vishkin_forest_coloring(&g, &bad_parent),
            Err(DecomposeError::InvalidParameter { .. })
        ));
        assert!(cole_vishkin_forest_coloring(&g, &[None, None]).is_err());
    }
}
