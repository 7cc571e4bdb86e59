//! A mutable adjacency for graphs that change a few edges at a time.
//!
//! [`Graph`] is immutable: its CSR arrays are laid out once, so changing even one edge means
//! building them again in O(n + m).  [`Adjacency`] keeps one strictly ascending neighbor
//! list per vertex instead, so an edge insertion or removal costs O(degree) and every read
//! a local algorithm needs — degrees, neighbor walks, edge tests, the subgraph induced by a
//! few vertices — stays as cheap as on the CSR.  [`Adjacency::freeze`] materializes the
//! current state as a [`Graph`] when an executor needs one; the result is bit-identical to
//! a [`GraphBuilder`](crate::GraphBuilder) rebuild over the same edges, identifiers
//! included.

use crate::error::GraphError;
use crate::graph::{Graph, Vertex};
use crate::subgraph::{induce_part, InducedSubgraph};

/// An undirected simple graph as per-vertex sorted neighbor lists, mutable in place.
///
/// ```
/// use arbcolor_graph::{Adjacency, Graph};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let mut adjacency = Adjacency::from_graph(&g);
/// assert!(adjacency.insert_edge(3, 0)?);
/// assert!(adjacency.remove_edge(1, 2)?);
/// assert!(!adjacency.remove_edge(1, 2)?); // already absent
/// assert_eq!(adjacency.neighbors(0), &[1, 3]);
/// assert_eq!(adjacency.freeze(), Graph::from_edges(4, [(0, 1), (0, 3), (2, 3)])?);
/// # Ok::<(), arbcolor_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// `lists[v]` holds the neighbors of `v`, strictly ascending (the CSR's port order).
    lists: Vec<Vec<Vertex>>,
    m: usize,
    ids: Vec<u64>,
    /// `degree_counts[d]` vertices have degree `d`; keeps [`Adjacency::max_degree`] O(1).
    degree_counts: Vec<usize>,
    max_degree: usize,
}

impl Adjacency {
    /// Copies `graph`'s neighbor lists and identifiers.  O(n + m).
    pub fn from_graph(graph: &Graph) -> Self {
        let lists: Vec<Vec<Vertex>> =
            graph.vertices().map(|v| graph.neighbors(v).to_vec()).collect();
        let max_degree = graph.max_degree();
        let mut degree_counts = vec![0; max_degree + 1];
        for list in &lists {
            degree_counts[list.len()] += 1;
        }
        Adjacency { lists, m: graph.m(), ids: graph.ids().to_vec(), degree_counts, max_degree }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.lists.len()
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.lists[v].len()
    }

    /// Maximum degree `Δ` (0 for the empty graph).  O(1).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The neighbors of `v`, strictly ascending (the same order as [`Graph::neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.lists[v]
    }

    /// Whether `{u, v}` is an edge.  O(log min(deg u, deg v)).
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u >= self.n() || v >= self.n() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.lists[a].binary_search(&b).is_ok()
    }

    /// All vertex identifiers, indexed by vertex.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The canonical edge list, in the order of [`Graph::edges`]: every edge once as
    /// `(u, v)` with `u < v`, ascending.  Walking each list past its own vertex yields
    /// exactly that order, so no sort is needed.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.lists.iter().enumerate().flat_map(|(u, list)| {
            list[list.partition_point(|&v| v < u)..].iter().map(move |&v| (u, v))
        })
    }

    /// Validates the undirected edge `{u, v}` and returns it in canonical `u < v` order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn canonical_edge(&self, u: Vertex, v: Vertex) -> Result<(Vertex, Vertex), GraphError> {
        let n = self.n();
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok(if u < v { (u, v) } else { (v, u) })
    }

    /// Inserts the undirected edge `{u, v}`; returns whether it was absent.  O(deg u + deg v).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`] for an invalid
    /// edge, leaving the adjacency untouched.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        self.canonical_edge(u, v)?;
        let Err(at) = self.lists[u].binary_search(&v) else {
            return Ok(false);
        };
        self.lists[u].insert(at, v);
        let at = self.lists[v].binary_search(&u).expect_err("neighbor lists are symmetric");
        self.lists[v].insert(at, u);
        self.m += 1;
        self.degree_moved(self.degree(u) - 1, self.degree(u));
        self.degree_moved(self.degree(v) - 1, self.degree(v));
        Ok(true)
    }

    /// Removes the undirected edge `{u, v}`; returns whether it was present.
    /// O(deg u + deg v).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`] for an invalid
    /// edge, leaving the adjacency untouched.
    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        self.canonical_edge(u, v)?;
        let Ok(at) = self.lists[u].binary_search(&v) else {
            return Ok(false);
        };
        self.lists[u].remove(at);
        let at = self.lists[v].binary_search(&u).expect("neighbor lists are symmetric");
        self.lists[v].remove(at);
        self.m -= 1;
        self.degree_moved(self.degree(u) + 1, self.degree(u));
        self.degree_moved(self.degree(v) + 1, self.degree(v));
        Ok(true)
    }

    /// Materializes the current state as an immutable [`Graph`], identifiers included.
    /// O(n + m), and bit-identical to a [`GraphBuilder`](crate::GraphBuilder) rebuild over
    /// the same edge set: [`Adjacency::edges`] already yields the canonical sorted list the
    /// CSR is assembled from.
    pub fn freeze(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        edges.extend(self.edges());
        Graph::from_sorted_edges(self.n(), edges).with_ids_internal(self.ids.clone())
    }

    /// The subgraph induced by `vertices`, which must be strictly ascending.
    ///
    /// Equal to [`InducedSubgraph::new`] on the frozen graph (same child order, edges and
    /// identifiers) and written by the same sort-free construction, without freezing: it
    /// reads the neighbor lists of the given vertices only and finds each neighbor's child
    /// index in a bitset over the window `[first, last]` of `vertices` (O(Σ deg + span / 64))
    /// or, when fewer than one window vertex in 64 is a member, by binary search over
    /// `vertices` (O(Σ deg · log |vertices|)).  Nothing parent-sized is allocated, and the
    /// result always owns its graph.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is not strictly ascending or names a vertex `>= n`.
    pub fn induced(&self, vertices: &[Vertex]) -> InducedSubgraph<'static> {
        assert!(vertices.windows(2).all(|w| w[0] < w[1]), "vertices must be strictly ascending");
        assert!(vertices.last().map_or(true, |&v| v < self.n()), "vertex out of range");
        induce_part(vertices, |v| self.neighbors(v), &self.ids)
    }

    /// Moves one vertex from degree `old` to degree `new` (adjacent values) in the degree
    /// histogram.  The maximum only ever moves by one per step, so this is O(1).
    fn degree_moved(&mut self, old: usize, new: usize) {
        self.degree_counts[old] -= 1;
        if new == self.degree_counts.len() {
            self.degree_counts.push(0);
        }
        self.degree_counts[new] += 1;
        if new > self.max_degree {
            self.max_degree = new;
        } else if self.degree_counts[self.max_degree] == 0 {
            self.max_degree -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn reads_match_the_csr() {
        let g = generators::gnm(60, 200, 3).unwrap().with_shuffled_ids(9);
        let adjacency = Adjacency::from_graph(&g);
        assert_eq!((adjacency.n(), adjacency.m()), (g.n(), g.m()));
        assert_eq!(adjacency.max_degree(), g.max_degree());
        assert_eq!(adjacency.ids(), g.ids());
        assert!(adjacency.edges().eq(g.edges().iter().copied()));
        for v in g.vertices() {
            assert_eq!(adjacency.neighbors(v), g.neighbors(v));
            for u in g.vertices() {
                assert_eq!(adjacency.has_edge(u, v), g.has_edge(u, v));
            }
        }
        assert!(!adjacency.has_edge(0, 60));
    }

    #[test]
    fn max_degree_follows_insertions_and_removals() {
        let mut adjacency = Adjacency::from_graph(&Graph::empty(5));
        assert_eq!(adjacency.max_degree(), 0);
        for v in 1..5 {
            adjacency.insert_edge(0, v).unwrap();
        }
        assert_eq!(adjacency.max_degree(), 4);
        adjacency.insert_edge(1, 2).unwrap();
        for v in 1..5 {
            adjacency.remove_edge(v, 0).unwrap();
        }
        assert_eq!(adjacency.max_degree(), 1);
        adjacency.remove_edge(1, 2).unwrap();
        assert_eq!(adjacency.max_degree(), 0);
        assert_eq!(adjacency.max_degree(), adjacency.freeze().max_degree());
    }

    #[test]
    fn induced_subgraphs_match_the_csr_construction() {
        let g = generators::gnm(80, 400, 5).unwrap().with_shuffled_ids(2);
        let adjacency = Adjacency::from_graph(&g);
        for vertices in [vec![], vec![7], (0..80).step_by(3).collect(), (10..50).collect()] {
            let ours = adjacency.induced(&vertices);
            let theirs = InducedSubgraph::new(&g, &vertices);
            assert_eq!(ours.graph, theirs.graph);
            assert_eq!(ours.map, theirs.map);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn induced_rejects_unsorted_vertices() {
        Adjacency::from_graph(&Graph::empty(4)).induced(&[2, 1]);
    }
}
