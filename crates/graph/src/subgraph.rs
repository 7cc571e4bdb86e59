//! Induced subgraphs with mappings back to the parent graph.
//!
//! The recursive procedures of the paper (Procedure Legal-Coloring, Algorithm 2) and the
//! halving levels of Ghaffari–Kuhn recurse on vertex-disjoint induced sub-instances.
//! [`InducedSubgraph`] presents such a sub-instance as a [`Graph`] (so all algorithms run on
//! it unchanged) together with a [`VertexMap`] translating between parent and child vertex
//! indices.  Identifiers are inherited from the parent so the ID space stays `{1, …, n}` of
//! the *original* graph, exactly as in the paper (recursion does not re-assign identifiers).
//!
//! What the subgraph costs depends only on its vertex list:
//!
//! * **every parent vertex, ascending** — the subgraph is the parent itself: it *borrows*
//!   the parent [`Graph`] under an identity map, and nothing is copied;
//! * **any other strictly ascending list** — child order follows parent order, so each
//!   parent neighbor list, filtered to the part, is already ascending in child indices: the
//!   canonical child edge list is written in one pass and the CSR is laid out from it
//!   directly, without a sort (a single part allocates nothing parent-sized either; the
//!   parts of a partition share one parent-sized table);
//! * **anything else** (unsorted, or with duplicates) — children are numbered by first
//!   appearance, and the edges go through a [`GraphBuilder`] and its sort.
//!
//! [`InducedSubgraph::new`], [`InducedSubgraph::partition_with`],
//! [`Coloring::class_subgraphs`](crate::Coloring::class_subgraphs) and
//! [`Adjacency::induced`](crate::Adjacency::induced) share this one construction.

use crate::graph::{Graph, GraphBuilder, Vertex};
use std::borrow::Cow;

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
    fn from_ordered(to_parent: Vec<Vertex>) -> Self {
        if is_ascending(&to_parent) {
            return VertexMap::ascending(to_parent);
        }
        let offset = to_parent.iter().copied().min().unwrap_or(0);
        let span = to_parent.iter().copied().max().map_or(0, |max| max - offset + 1);
        let mut table = vec![None; span];
        for (child, &v) in to_parent.iter().enumerate() {
            table[v - offset] = Some(child);
        }
        VertexMap { to_parent, lookup: ChildLookup::Dense { offset, table } }
    }

    /// The map of a strictly ascending part: `to_parent` is its own lookup structure.
    fn ascending(to_parent: Vec<Vertex>) -> Self {
        debug_assert!(is_ascending(&to_parent), "the part must be strictly ascending");
        VertexMap { to_parent, lookup: ChildLookup::Sorted }
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

/// An induced subgraph: a [`Graph`] plus the [`VertexMap`] back to its parent.
///
/// The graph is a borrow of the parent when the subgraph spans every parent vertex in
/// ascending order (the map is then the identity), and an owned graph otherwise; either way
/// `&sub.graph` coerces to `&Graph`.
#[derive(Debug, Clone)]
pub struct InducedSubgraph<'g> {
    /// The subgraph: the parent itself when it spans every parent vertex, else its own CSR.
    pub graph: Cow<'g, Graph>,
    /// Mapping between subgraph vertices and parent vertices.
    pub map: VertexMap,
}

impl<'g> InducedSubgraph<'g> {
    /// Builds the subgraph of `parent` induced by `vertices`.
    ///
    /// Duplicate vertices in the input are ignored; the child vertices are numbered in the
    /// order of first appearance.  Identifiers are copied from the parent.  A strictly
    /// ascending list is written without a sort, and the list of every parent vertex
    /// borrows `parent` (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if any vertex is out of range for `parent`.
    pub fn new(parent: &'g Graph, vertices: &[Vertex]) -> Self {
        if !is_ascending(vertices) {
            return induce_unsorted(parent, vertices);
        }
        if let Some(&last) = vertices.last() {
            assert!(last < parent.n(), "vertex {last} out of range for parent graph");
        }
        if vertices.len() == parent.n() {
            InducedSubgraph::whole(parent)
        } else {
            induce_part(vertices, |v| parent.neighbors(v), parent.ids())
        }
    }

    /// The subgraph spanning every vertex of `parent`: a borrow under the identity map.
    fn whole(parent: &'g Graph) -> Self {
        InducedSubgraph {
            graph: Cow::Borrowed(parent),
            map: VertexMap::ascending(parent.vertices().collect()),
        }
    }

    /// Partitions `parent` into the subgraphs induced by each part of `partition`.
    ///
    /// `partition[v]` is the part index of parent vertex `v`; part indices must be `< parts`.
    /// Returns one [`InducedSubgraph`] per part (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if `partition.len() != parent.n()` or a part index is out of range.
    pub fn partition(parent: &'g Graph, partition: &[usize], parts: usize) -> Vec<Self> {
        Self::partition_with(parent, partition, parts, &mut PartitionScratch::default())
    }

    /// [`InducedSubgraph::partition`] with caller-owned scratch buffers.
    ///
    /// Every part lists its vertices in ascending order, so each is written without a sort,
    /// and a part holding every vertex borrows `parent`.  The construction runs over **one**
    /// shared parent-to-child table in `O(n + m)` for all parts together, and recursive
    /// drivers (Procedure Legal-Coloring refines its decomposition every phase) reuse
    /// `scratch` across calls, so the table and the per-part vertex lists are allocated once.
    /// The returned [`VertexMap`]s store nothing beyond their `to_parent` lists.
    ///
    /// # Panics
    ///
    /// Panics if `partition.len() != parent.n()` or a part index is out of range.
    pub fn partition_with(
        parent: &'g Graph,
        partition: &[usize],
        parts: usize,
        scratch: &mut PartitionScratch,
    ) -> Vec<Self> {
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
        // index within its own part; every entry is overwritten.
        to_child.resize(parent.n(), 0);
        for group in &groups[..parts] {
            for (child, &v) in group.iter().enumerate() {
                to_child[v] = child;
            }
        }
        let to_child = &*to_child;
        groups[..parts]
            .iter()
            .enumerate()
            .map(|(part, group)| {
                if group.len() == parent.n() {
                    InducedSubgraph::whole(parent)
                } else {
                    let child_of = |v: Vertex| (partition[v] == part).then(|| to_child[v]);
                    induce_ascending(group, |v| parent.neighbors(v), parent.ids(), child_of)
                }
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
    to_child: Vec<Vertex>,
}

/// The subgraph induced by the strictly ascending `part` on its own, given the parent's
/// ascending neighbor lists and identifiers: [`induce_ascending`] over a [`PartRank`], or,
/// when the part is sparser in its window than one vertex per 64 (a dynamic repair's
/// frontier in a large graph), over a binary search of the part itself, which spares
/// building a bitset with more words than the part has vertices.
pub(crate) fn induce_part<'p>(
    part: &[Vertex],
    neighbors: impl Fn(Vertex) -> &'p [Vertex],
    ids: &[u64],
) -> InducedSubgraph<'static> {
    let span = part.last().map_or(0, |&last| last - part[0] + 1);
    if part.len() * 64 < span {
        induce_ascending(part, neighbors, ids, |v| part.binary_search(&v).ok())
    } else {
        let rank = PartRank::new(part);
        induce_ascending(part, neighbors, ids, |v| rank.child(v))
    }
}

/// The sort-free writer: the subgraph induced by the strictly ascending `part`, given the
/// parent's ascending neighbor lists, its identifiers, and `child_of(v)`, the child index of
/// parent vertex `v` if `v` is in the part.
///
/// Child order follows parent order, so walking each child's higher neighbors emits the
/// canonical child edge list already sorted, and the CSR is laid out from it directly.
fn induce_ascending<'p>(
    part: &[Vertex],
    neighbors: impl Fn(Vertex) -> &'p [Vertex],
    ids: &[u64],
    child_of: impl Fn(Vertex) -> Option<Vertex>,
) -> InducedSubgraph<'static> {
    let mut edges = Vec::new();
    for (child_u, &u) in part.iter().enumerate() {
        let list = neighbors(u);
        let higher = &list[list.partition_point(|&w| w < u)..];
        edges.extend(higher.iter().filter_map(|&v| child_of(v)).map(|child_v| (child_u, child_v)));
    }
    let ids = part.iter().map(|&v| ids[v]).collect();
    InducedSubgraph {
        graph: Cow::Owned(Graph::from_sorted_edges(part.len(), edges).with_ids_internal(ids)),
        map: VertexMap::ascending(part.to_vec()),
    }
}

/// Membership and child index for one strictly ascending part, in O(1) per query: one bit
/// per parent vertex of the window `[first, last]` of the part, plus the number of part
/// vertices before each word, so the child index of a member is a popcount.  It takes
/// `span / 32` words, where a parent-sized table would take `2n`.
struct PartRank {
    /// The first vertex of the part (bit 0).
    offset: Vertex,
    /// Bit `i` is set iff parent vertex `offset + i` is in the part.
    words: Vec<u64>,
    /// `before[w]` part vertices lie below word `w`.
    before: Vec<usize>,
}

impl PartRank {
    fn new(part: &[Vertex]) -> Self {
        let offset = part.first().copied().unwrap_or(0);
        let span = part.last().map_or(0, |&last| last - offset + 1);
        let mut words = vec![0u64; span.div_ceil(64)];
        for &v in part {
            let i = v - offset;
            words[i / 64] |= 1 << (i % 64);
        }
        let mut before = Vec::with_capacity(words.len());
        let mut count = 0;
        for word in &words {
            before.push(count);
            count += word.count_ones() as usize;
        }
        PartRank { offset, words, before }
    }

    /// The child index of parent vertex `v`, if `v` is in the part.
    fn child(&self, v: Vertex) -> Option<Vertex> {
        let i = v.checked_sub(self.offset)?;
        let word = *self.words.get(i / 64)?;
        let bit = 1u64 << (i % 64);
        (word & bit != 0).then(|| self.before[i / 64] + (word & (bit - 1)).count_ones() as usize)
    }
}

/// The builder path for unsorted lists (and lists with duplicates): children are numbered
/// by first appearance, so the filtered neighbor lists are not ascending in child indices
/// and the edge list needs the [`GraphBuilder`] sort.
fn induce_unsorted(parent: &Graph, vertices: &[Vertex]) -> InducedSubgraph<'static> {
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
    let ids = to_parent.iter().map(|&p| parent.id(p)).collect();
    let graph = builder.build().with_ids_internal(ids);
    InducedSubgraph { graph: Cow::Owned(graph), map: VertexMap::from_ordered(to_parent) }
}

/// Whether `vertices` is strictly ascending.
fn is_ascending(vertices: &[Vertex]) -> bool {
    vertices.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Adjacency, Coloring};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A test-only copy of the construction every induced subgraph went through before the
    /// sort-free writer and the borrow: first-appearance numbering over a parent-sized
    /// table, an edge list, and the [`GraphBuilder`] sort.  Returns the child graph and its
    /// `to_parent` list.
    fn builder_reference(parent: &Graph, vertices: &[Vertex]) -> (Graph, Vec<Vertex>) {
        let mut to_child: Vec<Option<Vertex>> = vec![None; parent.n()];
        let mut to_parent: Vec<Vertex> = Vec::new();
        for &v in vertices {
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
                        builder.add_edge(child_u, child_v).unwrap();
                    }
                }
            }
        }
        let ids = to_parent.iter().map(|&p| parent.id(p)).collect();
        (builder.build().with_ids_internal(ids), to_parent)
    }

    /// Checks `sub` against [`builder_reference`] over `vertices`.  `Graph` equality covers
    /// every array: offsets, ports (the adjacency order), `incident_edges`, `mirror_arcs`,
    /// the canonical `edges` and the identifiers.
    fn check_against_reference(
        parent: &Graph,
        vertices: &[Vertex],
        sub: &InducedSubgraph<'_>,
    ) -> Result<(), String> {
        let (graph, to_parent) = builder_reference(parent, vertices);
        prop_assert_eq!(&*sub.graph, &graph);
        prop_assert_eq!(sub.graph.mirror_arcs(), graph.mirror_arcs());
        prop_assert_eq!(sub.map.parent_vertices(), &to_parent[..]);
        for (child, &p) in to_parent.iter().enumerate() {
            prop_assert_eq!(sub.map.to_parent(child), p);
        }
        for v in 0..parent.n() + 2 {
            prop_assert_eq!(sub.map.to_child(v), to_parent.iter().position(|&p| p == v));
        }
        Ok(())
    }

    /// The six kinds of vertex lists the equivalence is pinned on: ascending, scattered,
    /// with duplicates, empty, every vertex, and every vertex but one.
    fn vertex_list(kind: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<Vertex> {
        let mut subset: Vec<Vertex> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
        match kind {
            0 => subset,
            1 => {
                subset.shuffle(rng);
                subset
            }
            2 => {
                // Repeats, unsorted half the time and ascending-with-repeats otherwise.
                let mut list: Vec<Vertex> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                list.push(list[0]);
                if rng.gen_bool(0.5) {
                    list.sort_unstable();
                }
                list
            }
            3 => Vec::new(),
            4 => (0..n).collect(),
            _ => {
                let skipped = rng.gen_range(0..n);
                (0..n).filter(|&v| v != skipped).collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `new`, `partition_with`, `Adjacency::induced` and `class_subgraphs` all equal the
        /// builder reference, on random graphs with shuffled identifiers.
        #[test]
        fn every_induce_path_equals_the_builder(
            n in 1usize..70,
            density in 1u64..12,
            kind in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            let g = generators::gnp(n, (density as f64 / n as f64).min(1.0), seed)
                .unwrap()
                .with_shuffled_ids(seed + 1);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 2);
            let list = vertex_list(kind, n, &mut rng);

            check_against_reference(&g, &list, &InducedSubgraph::new(&g, &list))?;
            if list.windows(2).all(|w| w[0] < w[1]) {
                let induced = Adjacency::from_graph(&g).induced(&list);
                check_against_reference(&g, &list, &induced)?;
            }

            // The list's vertices form part 0; the others spread over up to three more parts.
            let parts = 1 + rng.gen_range(0..4usize);
            let mut in_list = vec![false; n];
            for &v in &list {
                in_list[v] = true;
            }
            let partition: Vec<usize> = (0..n)
                .map(|v| if in_list[v] || parts == 1 { 0 } else { rng.gen_range(1..parts) })
                .collect();
            let groups: Vec<Vec<Vertex>> =
                (0..parts).map(|p| (0..n).filter(|&v| partition[v] == p).collect()).collect();
            let mut scratch = PartitionScratch::default();
            // Twice over one scratch, as Procedure Legal-Coloring reuses it.
            for _ in 0..2 {
                let subs = InducedSubgraph::partition_with(&g, &partition, parts, &mut scratch);
                prop_assert_eq!(subs.len(), parts);
                for (sub, group) in subs.iter().zip(&groups) {
                    check_against_reference(&g, group, sub)?;
                }
            }

            // The same parts as color classes, under scattered color values.
            let colors = partition.iter().map(|&p| 1000 - 7 * p as u64).collect();
            let classes = Coloring::new(&g, colors).unwrap().class_subgraphs(&g);
            prop_assert_eq!(classes.len(), groups.iter().filter(|group| !group.is_empty()).count());
            for (p, group) in groups.iter().enumerate().filter(|(_, group)| !group.is_empty()) {
                check_against_reference(&g, group, &classes[&(1000 - 7 * p as u64)])?;
            }
        }
    }

    #[test]
    fn the_whole_graph_is_borrowed() {
        let g = generators::gnp(50, 0.1, 1).unwrap().with_shuffled_ids(2);
        let all: Vec<Vertex> = g.vertices().collect();
        let sub = InducedSubgraph::new(&g, &all);
        assert!(std::ptr::eq(&*sub.graph, &g));
        assert_eq!(sub.map.parent_vertices(), &all[..]);
        assert_eq!(sub.map.to_child(49), Some(49));
        assert_eq!(sub.map.to_child(50), None);
        // Anything short of the whole list, or out of order, is a graph of its own.
        assert!(matches!(InducedSubgraph::new(&g, &all[1..]).graph, Cow::Owned(_)));
        let mut reversed = all.clone();
        reversed.reverse();
        assert!(matches!(InducedSubgraph::new(&g, &reversed).graph, Cow::Owned(_)));
    }

    #[test]
    fn a_one_part_partition_borrows_the_parent() {
        let g = generators::gnp(50, 0.1, 3).unwrap().with_shuffled_ids(4);
        let parts = InducedSubgraph::partition(&g, &vec![1; g.n()], 3);
        assert!(std::ptr::eq(&*parts[1].graph, &g));
        assert_eq!((parts[0].graph.n(), parts[2].graph.n()), (0, 0));
        let single = Coloring::constant(&g).class_subgraphs(&g);
        assert!(std::ptr::eq(&*single[&0].graph, &g));
    }

    #[test]
    fn sparse_and_dense_parts_equal_the_builder() {
        // One vertex in 100 falls below the bitset's one-per-64 density and is found by
        // binary search; one in 3 is found through the bitset.
        let g = generators::gnp(3000, 0.05, 9).unwrap().with_shuffled_ids(10);
        let adjacency = Adjacency::from_graph(&g);
        for step in [100, 3] {
            let part: Vec<Vertex> = (7..g.n()).step_by(step).collect();
            let sub = InducedSubgraph::new(&g, &part);
            assert!(sub.graph.m() > 0);
            check_against_reference(&g, &part, &sub).unwrap();
            check_against_reference(&g, &part, &adjacency.induced(&part)).unwrap();
        }
    }

    #[test]
    fn part_rank_answers_membership_and_child_index() {
        for part in
            [vec![], vec![5], (3..200).filter(|v| v % 3 != 0).collect(), vec![0, 63, 64, 130]]
        {
            let rank = PartRank::new(&part);
            for v in 0..260 {
                assert_eq!(rank.child(v), part.iter().position(|&p| p == v), "{part:?} at {v}");
            }
        }
    }

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
