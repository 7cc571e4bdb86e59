//! Coloring containers and independent validators.
//!
//! The algorithms in this project produce three kinds of colorings:
//!
//! * **legal colorings** — no edge is monochromatic;
//! * **`m`-defective colorings** — every vertex has at most `m` neighbors of its own color
//!   (each color class induces a subgraph of maximum degree ≤ `m`);
//! * **`r`-arbdefective colorings** (Definition 2.1 of the paper) — every color class induces
//!   a subgraph of *arboricity* ≤ `r`.
//!
//! Arboricity is expensive to compute exactly, so arbdefect is verified two ways: via a
//! *witness* acyclic orientation of each color class with out-degree ≤ `r` (sufficient by
//! Lemma 2.5), and via the class degeneracy (a necessary condition, since degeneracy ≤ 2a − 1).

use crate::degeneracy;
use crate::error::GraphError;
use crate::graph::{Graph, Vertex};
use crate::orientation::Orientation;
use crate::subgraph::InducedSubgraph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The color assigned to a vertex.  Colors are arbitrary `u64` values; algorithms that care
/// about palette size report the number of *distinct* colors.
pub type Color = u64;

/// A total assignment of colors to the vertices of a specific [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coloring {
    colors: Vec<Color>,
}

impl Coloring {
    /// Creates a coloring from one color per vertex.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ColoringSizeMismatch`] if the vector length differs from the
    /// number of vertices of `graph`.
    pub fn new(graph: &Graph, colors: Vec<Color>) -> Result<Self, GraphError> {
        if colors.len() != graph.n() {
            return Err(GraphError::ColoringSizeMismatch {
                got: colors.len(),
                expected: graph.n(),
            });
        }
        Ok(Coloring { colors })
    }

    /// A coloring assigning every vertex the same color `0`.
    pub fn constant(graph: &Graph) -> Self {
        Coloring { colors: vec![0; graph.n()] }
    }

    /// The trivial legal coloring that colors every vertex by its unique identifier.
    pub fn from_ids(graph: &Graph) -> Self {
        Coloring { colors: graph.ids().to_vec() }
    }

    /// The color of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn color(&self, v: Vertex) -> Color {
        self.colors[v]
    }

    /// All colors, indexed by vertex.
    pub fn colors(&self) -> &[Color] {
        &self.colors
    }

    /// Sets the color of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set(&mut self, v: Vertex, c: Color) {
        self.colors[v] = c;
    }

    /// Number of distinct colors used.
    pub fn distinct_colors(&self) -> usize {
        let mut seen: Vec<Color> = self.colors.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The largest color value used (0 for the empty graph).
    pub fn max_color(&self) -> Color {
        self.colors.iter().copied().max().unwrap_or(0)
    }

    /// Whether no edge of `graph` is monochromatic.
    pub fn is_legal(&self, graph: &Graph) -> bool {
        graph.edges().iter().all(|&(u, v)| self.colors[u] != self.colors[v])
    }

    /// The monochromatic edges of `graph` under this coloring (empty iff legal).
    pub fn conflicts(&self, graph: &Graph) -> Vec<(Vertex, Vertex)> {
        graph.edges().iter().copied().filter(|&(u, v)| self.colors[u] == self.colors[v]).collect()
    }

    /// The defect of vertex `v`: the number of neighbors sharing `v`'s color.
    pub fn vertex_defect(&self, graph: &Graph, v: Vertex) -> usize {
        graph.neighbors(v).iter().filter(|&&u| self.colors[u] == self.colors[v]).count()
    }

    /// The defect of the coloring: the maximum vertex defect.  A coloring is legal iff its
    /// defect is 0.
    pub fn defect(&self, graph: &Graph) -> usize {
        graph.vertices().map(|v| self.vertex_defect(graph, v)).max().unwrap_or(0)
    }

    /// Groups vertices by color.  The returned map is keyed by color value.
    pub fn classes(&self) -> HashMap<Color, Vec<Vertex>> {
        let mut classes: HashMap<Color, Vec<Vertex>> = HashMap::new();
        for (v, &c) in self.colors.iter().enumerate() {
            classes.entry(c).or_default().push(v);
        }
        classes
    }

    /// Materializes the subgraph induced by each color class, keyed by color value.
    ///
    /// One [`InducedSubgraph::partition`] over the classes: every class is written through
    /// one shared parent-to-child table in O(n + m) overall, and a single class spanning the
    /// whole graph borrows it.
    pub fn class_subgraphs<'g>(&self, graph: &'g Graph) -> HashMap<Color, InducedSubgraph<'g>> {
        let mut palette: Vec<Color> = Vec::new();
        let mut part_of_color: HashMap<Color, usize> = HashMap::new();
        let part: Vec<usize> = self
            .colors
            .iter()
            .map(|&c| {
                *part_of_color.entry(c).or_insert_with(|| {
                    palette.push(c);
                    palette.len() - 1
                })
            })
            .collect();
        let subgraphs = InducedSubgraph::partition(graph, &part, palette.len());
        palette.into_iter().zip(subgraphs).collect()
    }

    /// The maximum degeneracy over all color-class subgraphs.
    ///
    /// If the coloring is `r`-arbdefective then every class has arboricity ≤ `r`, hence
    /// degeneracy ≤ `2r − 1`; this is the *necessary-condition* check used by tests that do
    /// not have access to a witness orientation.
    pub fn max_class_degeneracy(&self, graph: &Graph) -> usize {
        self.class_subgraphs(graph)
            .values()
            .map(|sub| degeneracy::degeneracy(&sub.graph))
            .max()
            .unwrap_or(0)
    }

    /// Verifies an arbdefect bound using witness orientations: for each color class the
    /// witness must be a complete acyclic orientation of the class subgraph with out-degree at
    /// most `r` (Lemma 2.5 then gives arboricity ≤ `r`).
    ///
    /// Returns the per-class maximum out-degree actually observed.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NotAcyclic`] if a witness contains a directed cycle.
    /// * [`GraphError::InvalidParameter`] if a witness leaves an edge unoriented, a class is
    ///   missing a witness, or the observed out-degree exceeds `r`.
    pub fn verify_arbdefect_witness(
        &self,
        graph: &Graph,
        witnesses: &HashMap<Color, Orientation>,
        r: usize,
    ) -> Result<usize, GraphError> {
        let mut worst = 0usize;
        for (color, sub) in self.class_subgraphs(graph) {
            if sub.graph.m() == 0 {
                continue;
            }
            let witness = witnesses.get(&color).ok_or_else(|| GraphError::InvalidParameter {
                reason: format!("no witness orientation for color class {color}"),
            })?;
            if witness.unoriented_count() > 0 {
                return Err(GraphError::InvalidParameter {
                    reason: format!("witness for color {color} leaves edges unoriented"),
                });
            }
            if !witness.is_acyclic(&sub.graph) {
                return Err(GraphError::NotAcyclic);
            }
            let out = witness.max_out_degree(&sub.graph);
            if out > r {
                return Err(GraphError::InvalidParameter {
                    reason: format!("witness for color {color} has out-degree {out} > {r}"),
                });
            }
            worst = worst.max(out);
        }
        Ok(worst)
    }

    /// Renumbers the colors to `0..k` (preserving equality classes) and returns the new
    /// coloring together with `k`, the number of distinct colors.
    #[must_use]
    pub fn normalized(&self) -> (Coloring, usize) {
        let mut distinct: Vec<Color> = self.colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let index: HashMap<Color, Color> =
            distinct.iter().enumerate().map(|(i, &c)| (c, i as Color)).collect();
        let colors = self.colors.iter().map(|c| index[c]).collect();
        (Coloring { colors }, distinct.len())
    }

    /// Combines a partition coloring and per-class colorings into a single coloring with
    /// disjoint palettes: vertex `v` in class `i` with inner color `ψ_i(v)` receives
    /// `i · palette_size + ψ_i(v)`, mirroring the `ϕ(v) = (i − 1)·γ + ψ_i(v)` construction in
    /// Section 4 of the paper.
    ///
    /// `class_colorings` maps each class color to the coloring of that class subgraph (indexed
    /// by *child* vertices of the corresponding [`InducedSubgraph`]).
    ///
    /// # Panics
    ///
    /// Panics if a class has no entry in `class_colorings` or if an inner color is
    /// ≥ `palette_size`.
    pub fn combine_with_palettes(
        graph: &Graph,
        partition: &Coloring,
        class_colorings: &HashMap<Color, (InducedSubgraph<'_>, Coloring)>,
        palette_size: u64,
    ) -> Coloring {
        let mut colors = vec![0 as Color; graph.n()];
        // Assign a dense index to each class color so palettes pack tightly.
        let mut class_ids: Vec<Color> = class_colorings.keys().copied().collect();
        class_ids.sort_unstable();
        for (slot, class_color) in class_ids.iter().enumerate() {
            let (sub, inner) = &class_colorings[class_color];
            for child in 0..sub.graph.n() {
                let inner_color = inner.color(child);
                assert!(
                    inner_color < palette_size,
                    "inner color {inner_color} exceeds palette size {palette_size}"
                );
                colors[sub.map.to_parent(child)] = slot as u64 * palette_size + inner_color;
            }
        }
        let _ = partition;
        Coloring { colors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn square() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn legality_and_conflicts() {
        let g = square();
        let legal = Coloring::new(&g, vec![0, 1, 0, 1]).unwrap();
        assert!(legal.is_legal(&g));
        assert!(legal.conflicts(&g).is_empty());
        assert_eq!(legal.defect(&g), 0);

        let bad = Coloring::new(&g, vec![0, 0, 1, 1]).unwrap();
        assert!(!bad.is_legal(&g));
        assert_eq!(bad.conflicts(&g), vec![(0, 1), (2, 3)]);
        assert_eq!(bad.defect(&g), 1);
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let g = square();
        assert!(matches!(
            Coloring::new(&g, vec![0, 1]),
            Err(GraphError::ColoringSizeMismatch { got: 2, expected: 4 })
        ));
    }

    #[test]
    fn id_coloring_is_legal() {
        let g = square().with_shuffled_ids(9);
        let c = Coloring::from_ids(&g);
        assert!(c.is_legal(&g));
        assert_eq!(c.distinct_colors(), 4);
    }

    #[test]
    fn defect_counts_same_colored_neighbors() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let c = Coloring::new(&g, vec![7, 7, 7, 1]).unwrap();
        assert_eq!(c.vertex_defect(&g, 0), 2);
        assert_eq!(c.vertex_defect(&g, 3), 0);
        assert_eq!(c.defect(&g), 2);
    }

    #[test]
    fn classes_partition_vertices() {
        let g = square();
        let c = Coloring::new(&g, vec![5, 5, 9, 9]).unwrap();
        let classes = c.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[&5], vec![0, 1]);
        assert_eq!(classes[&9], vec![2, 3]);
        let subs = c.class_subgraphs(&g);
        assert_eq!(subs[&5].graph.m(), 1);
    }

    #[test]
    fn normalization_preserves_classes() {
        let g = square();
        let c = Coloring::new(&g, vec![100, 7, 100, 7]).unwrap();
        let (norm, k) = c.normalized();
        assert_eq!(k, 2);
        assert!(norm.max_color() <= 1);
        assert_eq!(norm.color(0), norm.color(2));
        assert_ne!(norm.color(0), norm.color(1));
        assert!(norm.is_legal(&g));
    }

    #[test]
    fn witness_verification_accepts_valid_witness() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        // One single class: the whole square, arboricity 1? No: a 4-cycle has arboricity 1?
        // A cycle has m = n, so Nash-Williams gives ceil(4/3) = 2... actually 4/(4-1) < 2 so
        // the bound is 2; a cycle decomposes into 2 forests (it is not a forest itself).
        let c = Coloring::constant(&g);
        let classes = c.class_subgraphs(&g);
        let (_, sub) = classes.iter().next().unwrap();
        // Orient the cycle acyclically with out-degree <= 2 using the identity ranking.
        let witness = Orientation::from_ranking(&sub.graph, &[0, 1, 2, 3]);
        let mut witnesses = HashMap::new();
        witnesses.insert(0u64, witness);
        let out = c.verify_arbdefect_witness(&g, &witnesses, 2).unwrap();
        assert!(out <= 2);
        // With r = 0 the same witness must be rejected.
        assert!(c.verify_arbdefect_witness(&g, &witnesses, 0).is_err());
    }

    #[test]
    fn witness_verification_requires_all_classes() {
        let g = square();
        let c = Coloring::new(&g, vec![0, 0, 1, 1]).unwrap();
        let witnesses = HashMap::new();
        // Classes {0,1} and {2,3} each contain one edge, so a witness is required.
        assert!(c.verify_arbdefect_witness(&g, &witnesses, 1).is_err());
    }

    #[test]
    fn combine_with_palettes_uses_disjoint_ranges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let partition = Coloring::new(&g, vec![0, 0, 1, 1]).unwrap();
        let mut class_colorings = HashMap::new();
        for (color, sub) in partition.class_subgraphs(&g) {
            let inner = Coloring::new(&sub.graph, (0..sub.graph.n() as u64).collect()).unwrap();
            class_colorings.insert(color, (sub, inner));
        }
        let combined = Coloring::combine_with_palettes(&g, &partition, &class_colorings, 10);
        assert!(combined.is_legal(&g));
        // Vertices of class 0 land in palette [0, 10), class 1 in [10, 20).
        assert!(combined.color(0) < 10);
        assert!(combined.color(2) >= 10);
    }

    #[test]
    fn max_class_degeneracy_of_legal_coloring_is_zero() {
        let g = square();
        let c = Coloring::new(&g, vec![0, 1, 0, 1]).unwrap();
        assert_eq!(c.max_class_degeneracy(&g), 0);
    }
}
