//! Compact undirected simple graphs in CSR form.
//!
//! [`Graph`] is immutable once built; construction goes through [`GraphBuilder`], which
//! de-duplicates parallel edges and rejects self-loops.  Every undirected edge has a canonical
//! index ([`EdgeIdx`]) into an edge list with endpoints ordered `u < v`; orientations and other
//! per-edge annotations are stored against that index.

use crate::error::GraphError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A vertex index in `0..n`.
///
/// Vertex *indices* are simulator-internal; the LOCAL-model *identifier* of a vertex (a unique
/// number in `{1, …, n}`) is available through [`Graph::id`].
pub type Vertex = usize;

/// Canonical index of an undirected edge (position in [`Graph::edges`]).
pub type EdgeIdx = usize;

/// Index of a directed *arc*: a position in the concatenated adjacency lists.  Every
/// undirected edge `{u, v}` contributes two arcs, `u → v` and `v → u`; the arc `v → u` at
/// port `p` of `v` has index `arc_range(v).start + p`.
pub type ArcIdx = usize;

/// An immutable undirected simple graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    /// CSR offsets: neighbors of `v` live in `adjacency[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists (each undirected edge appears twice).  Each per-vertex
    /// list is strictly ascending — `build` places arcs from the sorted edge list, so for a
    /// vertex `w` the neighbors `u < w` arrive (in `u` order) before the neighbors `x > w`
    /// (in `x` order).  [`Graph::port_of`] and the message fabric rely on this invariant.
    adjacency: Vec<Vertex>,
    /// For each CSR arc position, the canonical edge index it belongs to.
    arc_edge: Vec<EdgeIdx>,
    /// Canonical edge list with endpoints ordered `u < v`.
    edges: Vec<(Vertex, Vertex)>,
    /// Unique LOCAL-model identifiers, a permutation of `1..=n`.
    ids: Vec<u64>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an iterator of undirected edges.
    ///
    /// Parallel edges are merged; self-loops are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`] if an edge is
    /// invalid.
    ///
    /// # Examples
    ///
    /// ```
    /// use arbcolor_graph::Graph;
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// assert_eq!(g.n(), 4);
    /// assert_eq!(g.m(), 3);
    /// # Ok::<(), arbcolor_graph::GraphError>(())
    /// ```
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (Vertex, Vertex)>,
    {
        let mut builder = GraphBuilder::new(n);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `Δ` of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The neighbors of `v`, in port order (strictly ascending vertex index).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Total number of arcs (`2m`): the length of the concatenated adjacency lists.
    pub fn num_arcs(&self) -> usize {
        self.adjacency.len()
    }

    /// The arc indices owned by `v`: port `p` of `v` is arc `arc_range(v).start + p`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn arc_range(&self, v: Vertex) -> std::ops::Range<ArcIdx> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The canonical edge indices of the edges incident to `v`, aligned with
    /// [`Graph::neighbors`] (port order).
    pub fn incident_edges(&self, v: Vertex) -> &[EdgeIdx] {
        &self.arc_edge[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The canonical edge list; every entry satisfies `u < v`.
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        &self.edges
    }

    /// The endpoints of edge `e` (ordered `u < v`).
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    pub fn endpoints(&self, e: EdgeIdx) -> (Vertex, Vertex) {
        self.edges[e]
    }

    /// Looks up the canonical index of the edge `{u, v}`, if present.
    pub fn edge_between(&self, u: Vertex, v: Vertex) -> Option<EdgeIdx> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.port_of(a, b).map(|port| self.incident_edges(a)[port])
    }

    /// Whether `{u, v}` is an edge of the graph.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The unique LOCAL-model identifier of `v` (a value in `1..=n`).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn id(&self, v: Vertex) -> u64 {
        self.ids[v]
    }

    /// All vertex identifiers, indexed by vertex.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Returns a copy of the graph whose identifiers are a pseudo-random permutation of
    /// `1..=n` derived from `seed`.
    ///
    /// Identifier-sensitive algorithms (Linial-style colorings) should be exercised on graphs
    /// with shuffled identifiers so tests do not silently rely on `id(v) = v + 1`.
    #[must_use]
    pub fn with_shuffled_ids(&self, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (1..=self.n as u64).collect();
        ids.shuffle(&mut rng);
        let mut g = self.clone();
        g.ids = ids;
        g
    }

    /// Returns a copy of the graph carrying the given identifier vector, which must be a
    /// permutation of `1..=n`.
    ///
    /// The dynamic-graph driver uses this to preserve LOCAL-model identifiers across CSR
    /// rebuilds: a vertex keeps its identity when edges are inserted around it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `ids` is not a permutation of `1..=n`.
    pub fn with_vertex_ids(&self, ids: Vec<u64>) -> Result<Self, GraphError> {
        if ids.len() != self.n {
            return Err(GraphError::InvalidParameter {
                reason: format!("got {} identifiers for {} vertices", ids.len(), self.n),
            });
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.iter().enumerate().any(|(i, &id)| id != i as u64 + 1) {
            return Err(GraphError::InvalidParameter {
                reason: format!("identifiers are not a permutation of 1..={}", self.n),
            });
        }
        let mut g = self.clone();
        g.ids = ids;
        Ok(g)
    }

    /// Iterates over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.n
    }

    /// Sum of degrees divided by `n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n as f64
        }
    }

    /// The port (position in `neighbors(v)`) at which `u` appears, if `{u, v}` is an edge.
    ///
    /// O(log deg(v)): adjacency lists are strictly ascending (see [`Graph::neighbors`]), so
    /// this is a binary search.
    pub fn port_of(&self, v: Vertex, u: Vertex) -> Option<usize> {
        if v >= self.n {
            return None;
        }
        self.neighbors(v).binary_search(&u).ok()
    }

    /// Replaces the identifier vector (crate-internal; induced subgraphs and frozen
    /// adjacencies carry the identifiers of the graph they came from).
    pub(crate) fn with_ids_internal(mut self, ids: Vec<u64>) -> Graph {
        assert_eq!(ids.len(), self.n, "one identifier per vertex");
        self.ids = ids;
        self
    }

    /// Assembles the CSR arrays from a canonical edge list that is already sorted,
    /// de-duplicated, validated, and ordered `u < v` per edge.  Both [`GraphBuilder::build`]
    /// and [`Adjacency::freeze`](crate::Adjacency::freeze) funnel through here, which is
    /// what makes a frozen adjacency bit-identical to a from-scratch rebuild over the same
    /// edge set.
    pub(crate) fn from_sorted_edges(n: usize, edges: Vec<(Vertex, Vertex)>) -> Graph {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|&(u, v)| u < v && v < n),
            "from_sorted_edges requires a sorted, de-duplicated, canonical edge list"
        );
        // Degrees are counted straight into `offsets[v + 1]` and prefix-summed in place; then
        // `offsets[v]` serves as `v`'s placement cursor, and one shift restores it.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut adjacency = vec![0 as Vertex; offsets[n]];
        let mut arc_edge = vec![0 as EdgeIdx; offsets[n]];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let (au, av) = (offsets[u], offsets[v]);
            adjacency[au] = v;
            arc_edge[au] = e;
            offsets[u] += 1;
            adjacency[av] = u;
            arc_edge[av] = e;
            offsets[v] += 1;
        }
        // Every cursor stopped where the next vertex starts.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        debug_assert!(
            (0..n).all(|v| adjacency[offsets[v]..offsets[v + 1]].windows(2).all(|w| w[0] < w[1])),
            "adjacency lists must be strictly ascending"
        );

        Graph { n, offsets, adjacency, arc_edge, edges, ids: (1..=n as u64).collect() }
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use arbcolor_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(1, 0)?; // duplicate, merged
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// # Ok::<(), arbcolor_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices with no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Number of vertices the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range or if `u == v`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> Result<&mut Self, GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        Ok(self)
    }

    /// Adds every edge in the iterator.
    ///
    /// # Errors
    ///
    /// Returns the first invalid edge's error; edges added before the failure are kept.
    pub fn add_edges<I>(&mut self, edges: I) -> Result<&mut Self, GraphError>
    where
        I: IntoIterator<Item = (Vertex, Vertex)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v)?;
        }
        Ok(self)
    }

    /// Finalizes the builder into an immutable [`Graph`], de-duplicating parallel edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_sorted_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builds_csr_correctly() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
        let mut nbrs: Vec<_> = g.neighbors(1).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 2]);
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 7)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 7, n: 3 });
    }

    #[test]
    fn edge_lookup_and_ports() {
        let g = triangle();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!Graph::from_edges(3, [(0, 1)]).unwrap().has_edge(1, 2));
        let e = g.edge_between(2, 1).unwrap();
        assert_eq!(g.endpoints(e), (1, 2));
        let port = g.port_of(2, 0).unwrap();
        assert_eq!(g.neighbors(2)[port], 0);
    }

    #[test]
    fn incident_edges_align_with_neighbors() {
        let g = triangle();
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            let inc = g.incident_edges(v);
            assert_eq!(nbrs.len(), inc.len());
            for (i, &u) in nbrs.iter().enumerate() {
                let (a, b) = g.endpoints(inc[i]);
                assert!((a == v && b == u) || (a == u && b == v));
            }
        }
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = Graph::from_edges(7, [(3, 1), (3, 5), (0, 3), (3, 6), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5, 6]);
        assert_eq!(g.port_of(3, 4), Some(3));
        assert_eq!(g.port_of(3, 3), None);
        assert_eq!(g.port_of(9, 0), None);
    }

    #[test]
    fn default_ids_are_one_based() {
        let g = triangle();
        assert_eq!(g.ids(), &[1, 2, 3]);
        assert_eq!(g.id(2), 3);
    }

    #[test]
    fn shuffled_ids_are_a_permutation() {
        let g = triangle().with_shuffled_ids(42);
        let mut ids = g.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.max_degree(), 0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn average_degree_of_triangle() {
        let g = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }
}
