//! Induced subgraphs with mappings back to the parent graph.
//!
//! The recursive procedures of the paper (Procedure Legal-Coloring, Algorithm 2) repeatedly
//! recurse on the subgraphs induced by color classes.  [`InducedSubgraph`] materializes such a
//! subgraph as a standalone [`Graph`] (so all algorithms can run on it unchanged) together with
//! a [`VertexMap`] translating between parent and child vertex indices.  Identifiers are
//! inherited from the parent so the ID space stays `{1, …, n}` of the *original* graph, exactly
//! as in the paper (recursion does not re-assign identifiers).

use crate::graph::{Graph, GraphBuilder, Vertex};

/// Bidirectional mapping between parent-graph vertices and subgraph vertices.
///
/// Memory is O(part size) when the parent vertices are in ascending order (the
/// [`InducedSubgraph::partition`] output always is — child order follows parent order, so
/// `to_parent` itself is the lookup structure and parent→child queries binary-search it);
/// otherwise an offset-based dense window spanning only `[min parent, max parent]` is kept.
#[derive(Debug, Clone)]
pub struct VertexMap {
    /// `to_parent[child_vertex] = parent_vertex`.
    to_parent: Vec<Vertex>,
    /// How parent→child queries are answered (derived from `to_parent`).
    lookup: ChildLookup,
}

/// Parent→child lookup strategy of a [`VertexMap`].
#[derive(Debug, Clone)]
enum ChildLookup {
    /// `to_parent` is strictly ascending: `to_child(v)` is a binary search over it, and the
    /// map owns no memory beyond `to_parent` itself.
    Sorted,
    /// Arbitrary child order: dense table over the parent-vertex window starting at
    /// `offset`, so memory is O(max − min + 1) rather than O(parent n).
    Dense {
        /// Smallest parent vertex of the part (the window start).
        offset: Vertex,
        /// `table[v - offset] = Some(child)` for included parent vertices `v`.
        table: Vec<Option<Vertex>>,
    },
}

/// The mapping is fully determined by `to_parent`; the lookup strategy is an implementation
/// detail, so equality ignores it.
impl PartialEq for VertexMap {
    fn eq(&self, other: &Self) -> bool {
        self.to_parent == other.to_parent
    }
}

impl Eq for VertexMap {}

impl VertexMap {
    /// Builds the map from parent vertices listed in child-index order (duplicates must have
    /// been removed by the caller).  Picks the zero-overhead sorted representation whenever
    /// the input is ascending.
    pub(crate) fn from_ordered(to_parent: Vec<Vertex>) -> Self {
        let sorted = to_parent.windows(2).all(|w| w[0] < w[1]);
        let lookup = if sorted {
            ChildLookup::Sorted
        } else {
            let offset = to_parent.iter().copied().min().unwrap_or(0);
            let span = to_parent.iter().copied().max().map_or(0, |max| max - offset + 1);
            let mut table = vec![None; span];
            for (child, &v) in to_parent.iter().enumerate() {
                table[v - offset] = Some(child);
            }
            ChildLookup::Dense { offset, table }
        };
        VertexMap { to_parent, lookup }
    }
    /// The parent vertex corresponding to subgraph vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the subgraph.
    pub fn to_parent(&self, v: Vertex) -> Vertex {
        self.to_parent[v]
    }

    /// The subgraph vertex corresponding to parent vertex `v`, if it is included.
    ///
    /// O(log part size) in the sorted representation, O(1) in the dense one.
    pub fn to_child(&self, v: Vertex) -> Option<Vertex> {
        match &self.lookup {
            ChildLookup::Sorted => self.to_parent.binary_search(&v).ok(),
            ChildLookup::Dense { offset, table } => {
                v.checked_sub(*offset).and_then(|i| table.get(i)).copied().flatten()
            }
        }
    }

    /// Number of vertices in the subgraph.
    pub fn len(&self) -> usize {
        self.to_parent.len()
    }

    /// Whether the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.to_parent.is_empty()
    }

    /// The parent vertices of the subgraph, in child-index order.
    pub fn parent_vertices(&self) -> &[Vertex] {
        &self.to_parent
    }

    /// Lifts a per-child-vertex vector into a per-parent-vertex assignment, writing
    /// `target[parent_of(v)] = values[v]` for every subgraph vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the subgraph size or `target.len()` from the
    /// parent size implied by the map.
    pub fn scatter<T: Clone>(&self, values: &[T], target: &mut [T]) {
        assert_eq!(values.len(), self.to_parent.len(), "values must be per-child-vertex");
        for (child, value) in values.iter().enumerate() {
            target[self.to_parent[child]] = value.clone();
        }
    }
}

/// An induced subgraph: a standalone [`Graph`] plus the [`VertexMap`] back to its parent.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The materialized subgraph.
    pub graph: Graph,
    /// Mapping between subgraph vertices and parent vertices.
    pub map: VertexMap,
}

impl InducedSubgraph {
    /// Builds the subgraph of `parent` induced by `vertices`.
    ///
    /// Duplicate vertices in the input are ignored; the child vertices are numbered in the
    /// order of first appearance.  Identifiers are copied from the parent.
    ///
    /// # Panics
    ///
    /// Panics if any vertex is out of range for `parent`.
    pub fn new(parent: &Graph, vertices: &[Vertex]) -> Self {
        let mut to_child: Vec<Option<Vertex>> = vec![None; parent.n()];
        let mut to_parent: Vec<Vertex> = Vec::with_capacity(vertices.len());
        for &v in vertices {
            assert!(v < parent.n(), "vertex {v} out of range for parent graph");
            if to_child[v].is_none() {
                to_child[v] = Some(to_parent.len());
                to_parent.push(v);
            }
        }

        let mut builder = GraphBuilder::new(to_parent.len());
        for (child_u, &parent_u) in to_parent.iter().enumerate() {
            for &parent_v in parent.neighbors(parent_u) {
                if let Some(child_v) = to_child[parent_v] {
                    if child_u < child_v {
                        builder
                            .add_edge(child_u, child_v)
                            .expect("endpoints are valid by construction");
                    }
                }
            }
        }
        let mut graph = builder.build();
        // Inherit identifiers from the parent graph.
        let ids: Vec<u64> = to_parent.iter().map(|&p| parent.id(p)).collect();
        graph = graph_with_ids(graph, ids);

        // `to_child` was construction scratch; the returned map re-derives a compact lookup.
        InducedSubgraph { graph, map: VertexMap::from_ordered(to_parent) }
    }

    /// Partitions `parent` into the subgraphs induced by each part of `partition`.
    ///
    /// `partition[v]` is the part index of parent vertex `v`; part indices must be `< parts`.
    /// Returns one [`InducedSubgraph`] per part (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if `partition.len() != parent.n()` or a part index is out of range.
    pub fn partition(parent: &Graph, partition: &[usize], parts: usize) -> Vec<InducedSubgraph> {
        Self::partition_with(parent, partition, parts, &mut PartitionScratch::default())
    }

    /// [`InducedSubgraph::partition`] with caller-owned scratch buffers.
    ///
    /// Unlike calling [`InducedSubgraph::new`] once per part — which allocates and walks a
    /// fresh parent-sized lookup table for every part — the *construction* here runs over
    /// **one** shared parent-to-child table in `O(n + m)`, and recursive drivers (Procedure
    /// Legal-Coloring refines its decomposition every phase) can reuse `scratch` across
    /// calls so the table and the per-part vertex lists are allocated once.  The returned
    /// [`VertexMap`]s are compact too: each part's vertices are ascending, so the map stores
    /// nothing beyond its `to_parent` list and the *output* is `O(n + m)` overall rather
    /// than `O(parts · n)` for scattered parts.
    ///
    /// # Panics
    ///
    /// Panics if `partition.len() != parent.n()` or a part index is out of range.
    pub fn partition_with(
        parent: &Graph,
        partition: &[usize],
        parts: usize,
        scratch: &mut PartitionScratch,
    ) -> Vec<InducedSubgraph> {
        assert_eq!(partition.len(), parent.n(), "partition must have one entry per vertex");
        let PartitionScratch { groups, to_child } = scratch;
        if groups.len() < parts {
            groups.resize_with(parts, Vec::new);
        }
        for group in groups.iter_mut() {
            group.clear();
        }
        for (v, &part) in partition.iter().enumerate() {
            assert!(part < parts, "part index {part} out of range (parts = {parts})");
            groups[part].push(v);
        }
        // The parts are disjoint, so one shared table maps every parent vertex to its child
        // index within its own part.
        to_child.clear();
        to_child.resize(parent.n(), None);
        for group in groups.iter() {
            for (child, &v) in group.iter().enumerate() {
                to_child[v] = Some(child);
            }
        }

        groups[..parts]
            .iter()
            .map(|group| {
                let mut builder = GraphBuilder::new(group.len());
                for (child_u, &parent_u) in group.iter().enumerate() {
                    let part = partition[parent_u];
                    for &parent_v in parent.neighbors(parent_u) {
                        if partition[parent_v] == part {
                            let child_v = to_child[parent_v].expect("vertex of the same part");
                            if child_u < child_v {
                                builder
                                    .add_edge(child_u, child_v)
                                    .expect("endpoints are valid by construction");
                            }
                        }
                    }
                }
                let ids: Vec<u64> = group.iter().map(|&p| parent.id(p)).collect();
                let graph = builder.build().with_ids_internal(ids);
                // Groups are collected in ascending vertex order, so the map always lands in
                // the sorted representation: O(part size) output, no per-part table at all.
                InducedSubgraph { graph, map: VertexMap::from_ordered(group.clone()) }
            })
            .collect()
    }
}

/// Reusable buffers for [`InducedSubgraph::partition_with`]: the per-part vertex lists and
/// the shared parent-to-child index table survive across calls, so repeated decompositions
/// of the same parent graph stop churning the allocator.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    /// Recycled per-part vertex lists.
    groups: Vec<Vec<Vertex>>,
    /// Shared parent-to-child index table (valid for the duration of one call).
    to_child: Vec<Option<Vertex>>,
}

/// Replaces the identifiers of `graph` (used to inherit parent IDs).
fn graph_with_ids(graph: Graph, ids: Vec<u64>) -> Graph {
    // Serialize-free identifier override: rebuild through serde-compatible clone.
    // `Graph` keeps its fields private, so we go through a small helper on the parent type.
    graph.with_ids_internal(ids)
}

impl Graph {
    /// Crate-internal helper replacing the identifier vector (used by induced subgraphs to
    /// inherit parent identifiers).
    pub(crate) fn with_ids_internal(mut self, ids: Vec<u64>) -> Graph {
        assert_eq!(ids.len(), self.n(), "one identifier per vertex");
        self.set_ids(ids);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[0, 1, 3]);
        assert_eq!(sub.graph.n(), 3);
        // Only edge (0,1) survives; (1,2),(2,3),(3,4) all touch excluded vertices.
        assert_eq!(sub.graph.m(), 1);
        let u = sub.map.to_child(0).unwrap();
        let v = sub.map.to_child(1).unwrap();
        assert!(sub.graph.has_edge(u, v));
        assert_eq!(sub.map.to_child(2), None);
    }

    #[test]
    fn identifiers_are_inherited() {
        let g = path5().with_shuffled_ids(3);
        let sub = InducedSubgraph::new(&g, &[4, 2]);
        assert_eq!(sub.graph.id(0), g.id(4));
        assert_eq!(sub.graph.id(1), g.id(2));
    }

    #[test]
    fn duplicates_are_ignored() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[1, 1, 2, 2]);
        assert_eq!(sub.graph.n(), 2);
        assert_eq!(sub.graph.m(), 1);
    }

    #[test]
    fn partition_covers_all_vertices() {
        let g = path5();
        let parts = InducedSubgraph::partition(&g, &[0, 1, 0, 1, 0], 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].graph.n(), 3);
        assert_eq!(parts[1].graph.n(), 2);
        let total_edges: usize = parts.iter().map(|p| p.graph.m()).sum();
        // Path 0-1-2-3-4 split alternately has 0 internal edges in each part.
        assert_eq!(total_edges, 0);
    }

    #[test]
    fn scatter_round_trips() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[3, 0]);
        let values = vec![10u64, 20u64];
        let mut target = vec![0u64; g.n()];
        sub.map.scatter(&values, &mut target);
        assert_eq!(target, vec![20, 0, 0, 10, 0]);
    }

    #[test]
    fn partition_with_scratch_matches_per_part_construction() {
        let g = crate::generators::gnp(60, 0.1, 5).unwrap().with_shuffled_ids(6);
        let partition: Vec<usize> = (0..g.n()).map(|v| (v * 7 + 3) % 4).collect();
        let mut scratch = PartitionScratch::default();
        // Reuse the same scratch across repeated partitions (the Legal-Coloring pattern).
        for parts_round in 0..3 {
            let parts = 4 + parts_round; // extra empty parts must come out empty
            let fast = InducedSubgraph::partition_with(&g, &partition, parts, &mut scratch);
            assert_eq!(fast.len(), parts);
            for (part, sub) in fast.iter().enumerate() {
                let group: Vec<Vertex> = (0..g.n()).filter(|&v| partition[v] == part).collect();
                let slow = InducedSubgraph::new(&g, &group);
                assert_eq!(sub.graph, slow.graph);
                assert_eq!(sub.map.parent_vertices(), slow.map.parent_vertices());
                for v in 0..g.n() {
                    assert_eq!(sub.map.to_child(v), slow.map.to_child(v));
                }
            }
        }
    }

    #[test]
    fn compact_lookup_agrees_between_sorted_and_dense_representations() {
        let g = crate::generators::gnp(40, 0.15, 3).unwrap();
        // Unsorted input → dense window; sorted input → binary search.  Both must answer
        // every to_child query identically.
        let scattered: Vec<Vertex> = vec![31, 7, 19, 2, 25];
        let mut ascending = scattered.clone();
        ascending.sort_unstable();
        let dense = InducedSubgraph::new(&g, &scattered);
        let sorted = InducedSubgraph::new(&g, &ascending);
        for v in 0..g.n() + 5 {
            assert_eq!(dense.map.to_child(v).is_some(), sorted.map.to_child(v).is_some(), "{v}");
            if let Some(child) = dense.map.to_child(v) {
                assert_eq!(dense.map.to_parent(child), v);
                assert_eq!(sorted.map.to_parent(sorted.map.to_child(v).unwrap()), v);
            }
        }
        // The dense window starts at the smallest parent vertex, not at 0.
        assert_eq!(dense.map.to_child(0), None);
        assert_eq!(dense.map.to_child(2), Some(3));
    }

    #[test]
    fn vertex_map_accessors() {
        let g = path5();
        let sub = InducedSubgraph::new(&g, &[2, 4]);
        assert_eq!(sub.map.len(), 2);
        assert!(!sub.map.is_empty());
        assert_eq!(sub.map.parent_vertices(), &[2, 4]);
        assert_eq!(sub.map.to_parent(1), 4);
    }
}
