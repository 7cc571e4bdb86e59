//! Dynamic graphs: batched edge mutations with localized recoloring.
//!
//! A production coloring service rarely gets to re-color the world on every topology
//! change.  [`DynamicColoring`] maintains a legal `(deg+1)`-bounded coloring across batches
//! of [`GraphUpdate`]s — mixed edge insertions and removals — by repairing only the
//! **conflict frontier**, the vertices incident to a newly monochromatic edge:
//!
//! 1. the batch is folded into a last-write-wins overlay, validated in full, and applied in
//!    place to an [`Adjacency`] — per-vertex sorted neighbor lists — in O(batch · degree);
//!    the frozen [`Graph`] that [`DynamicColoring::graph`] returns is materialized only
//!    when a caller asks for it (a full re-coloring is the only step on the write path
//!    that does), and it is bit-identical to a from-scratch rebuild;
//! 2. the frontier is collected by checking exactly the genuinely new edges — removals
//!    never create conflicts, so deletion-only batches are repair-free by construction;
//! 3. if the [`RepairPolicy`] selects a local repair, the induced subgraph on the frontier
//!    is re-colored with the Ghaffari–Kuhn `(deg+1)`-list driver under
//!    [`run_algorithm`](arbcolor_runtime::run_algorithm), where each frontier
//!    vertex lists `{0, …, deg(v)}` minus the colors held by its non-frontier neighbors —
//!    the list sizes stay ≥ subgraph-degree + 1, so the instance always has greedy slack,
//!    and any solution is legal against both repaired and untouched neighbors;
//! 4. if the policy escalates (by default: frontier above a threshold), the driver falls
//!    back to a full re-coloring of the new graph;
//! 5. legality is re-verified on every edge incident to a repaired vertex or a new edge —
//!    enough, because the coloring was legal before the batch and nothing else changed —
//!    and on the whole graph after a full re-coloring or a compaction.  A failed batch
//!    (invalid edge, failed repair) leaves the graph and the coloring untouched.
//!
//! Deletions free palette slack without spending it: after edges vanish, the maintained
//! coloring may use far more colors than the shrunken maximum degree warrants.
//! [`DynamicColoring::compact`] re-tightens the palette with a deterministic greedy
//! descending-color sweep (every vertex ends at a color ≤ its degree, so the palette lands
//! within `Δ+1`) followed by a rank relabeling that removes holes; no vertex's color ever
//! increases.  [`DynamicColoring::with_auto_compact`] folds that sweep into `apply`
//! whenever a batch with removals leaves the palette looser than `Δ+1`.
//!
//! Every step is deterministic and runs on whatever executor the process-wide
//! [`ExecutorKind`](arbcolor_runtime::ExecutorKind) switch selects, so repair sequences are
//! bit-identical across the sequential, sharded, and reference simulators — experiment E20
//! asserts exactly that, and E25 replays mixed sustained-update workloads against the same
//! invariant.  When an [`obs`] collector is installed, every batch
//! decomposes into `dynamic-apply` / `csr-patch` / repair phase spans and feeds the
//! `dynamic.*` metrics counters.
//!
//! ```
//! use arbcolor::dynamic::{DynamicColoring, GraphUpdate};
//! use arbcolor_graph::Graph;
//!
//! # fn main() -> Result<(), arbcolor::CoreError> {
//! let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)])?;
//! let mut dynamic = DynamicColoring::new(g)?;
//! let batch = dynamic.apply(&[
//!     GraphUpdate::InsertEdges(vec![(3, 4), (0, 4)]),
//!     GraphUpdate::RemoveEdges(vec![(1, 2)]),
//! ])?;
//! assert_eq!(batch.new_edges, 2);
//! assert_eq!(batch.removed_edges, 1);
//! assert!(dynamic.coloring().is_legal(dynamic.graph()));
//! let delta = dynamic.compact();
//! assert!(delta.colors_after <= delta.colors_before);
//! # Ok(())
//! # }
//! ```

use std::cell::OnceCell;
use std::collections::BTreeMap;

use crate::error::CoreError;
use crate::ghaffari_kuhn::{ghaffari_kuhn_coloring, ghaffari_kuhn_list_coloring};
use crate::list_coloring::ColorLists;
use arbcolor_graph::{Adjacency, Color, Coloring, Graph, PaletteSet, Vertex};
use arbcolor_runtime::{obs, RoundReport};

/// One batched mutation of the maintained graph.
///
/// Batches are applied **in order** with last-write-wins semantics per edge: an edge
/// removed and later re-inserted in the same [`DynamicColoring::apply`] call ends up
/// present.  Inserting a present edge and removing an absent one are no-ops (they count
/// toward [`BatchOutcome::submitted_edges`] but not toward the new/removed tallies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the given undirected edges.  Endpoint order and duplicates are irrelevant.
    InsertEdges(Vec<(Vertex, Vertex)>),
    /// Remove the given undirected edges.  Endpoint order and duplicates are irrelevant.
    RemoveEdges(Vec<(Vertex, Vertex)>),
}

impl GraphUpdate {
    /// The edge list carried by this update.
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        match self {
            GraphUpdate::InsertEdges(edges) | GraphUpdate::RemoveEdges(edges) => edges,
        }
    }

    /// Whether this update inserts (rather than removes) its edges.
    pub fn is_insert(&self) -> bool {
        matches!(self, GraphUpdate::InsertEdges(_))
    }
}

/// How the driver decides between a frontier-local repair and a full re-coloring.
///
/// Selected explicitly via [`DynamicColoring::with_repair_policy`]; the default is
/// [`RepairPolicy::Auto`] with [`DynamicColoring::default_threshold`].  A batch whose
/// frontier is empty is always absorbed as [`RepairStrategy::NoConflict`], whatever the
/// policy says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Repair locally while the frontier has at most `frontier_threshold` vertices, fall
    /// back to a full re-coloring above it.
    Auto {
        /// Frontiers larger than this trigger a full re-coloring.
        frontier_threshold: usize,
    },
    /// Always repair the frontier locally, however large it grows.  The localized list
    /// instance always has greedy slack, so this is safe — just potentially slower than a
    /// full re-coloring once the frontier covers most of the graph.
    AlwaysLocal,
    /// Re-color the whole graph on every conflicting batch.
    AlwaysFull,
}

/// How a batch of mutations was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// No new edge was monochromatic; the old coloring is still legal.
    NoConflict,
    /// Only the conflict frontier was re-colored (list coloring on the induced subgraph).
    LocalRepair,
    /// The policy escalated; the whole graph was re-colored.
    FullRecolor,
}

/// The palette change produced by one [`DynamicColoring::compact`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionDelta {
    /// Distinct colors in use before the sweep.
    pub colors_before: usize,
    /// Distinct colors in use after the sweep (never more than `colors_before`).
    pub colors_after: usize,
    /// Vertices whose color changed during the sweep.
    pub recolored: usize,
}

/// Per-batch summary returned by [`DynamicColoring::apply`].
///
/// This is the stable observable surface of the dynamic driver: every field is
/// deterministic (bit-identical across executors and across replays of the same update
/// stream), so perf baselines and replay harnesses may diff outcomes directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Total edges submitted across the batch's updates, before de-duplication and
    /// overlay resolution.
    pub submitted_edges: usize,
    /// Distinct edges that were genuinely added to the graph.
    pub new_edges: usize,
    /// Distinct edges that were genuinely removed from the graph.
    pub removed_edges: usize,
    /// Vertices on the conflict frontier (incident to a newly monochromatic edge).
    pub frontier: usize,
    /// The vertices whose color changed during conflict repair, in ascending order.
    /// Compaction recolorings are reported separately in [`BatchOutcome::compaction`].
    pub repaired: Vec<Vertex>,
    /// The strategy the policy chose for this batch.
    pub strategy: RepairStrategy,
    /// The palette change of the auto-compaction sweep, when one ran (see
    /// [`DynamicColoring::with_auto_compact`]); `None` otherwise.
    pub compaction: Option<CompactionDelta>,
    /// Simulated LOCAL cost of the repair (zero for [`RepairStrategy::NoConflict`]).
    pub report: RoundReport,
}

impl BatchOutcome {
    /// Number of vertices whose color changed during conflict repair.
    pub fn repaired_vertices(&self) -> usize {
        self.repaired.len()
    }
}

/// A legal coloring maintained across batched edge insertions and removals.
#[derive(Debug, Clone)]
pub struct DynamicColoring {
    adjacency: Adjacency,
    /// `adjacency` frozen into a CSR: filled on demand by [`DynamicColoring::graph`] (or
    /// seeded with the constructor's graph) and cleared by every mutation.
    frozen: OnceCell<Graph>,
    coloring: Coloring,
    /// How many vertices hold each color, so the maximum color is known without a pass
    /// over all vertices.
    color_counts: BTreeMap<Color, usize>,
    policy: RepairPolicy,
    auto_compact: bool,
}

impl DynamicColoring {
    /// The default frontier threshold, as a fraction of `n`: above `n/4` frontier vertices
    /// the localized instance saves little over a full re-coloring.
    pub fn default_threshold(n: usize) -> usize {
        (n / 4).max(8)
    }

    /// Colors `graph` from scratch (Ghaffari–Kuhn `(deg+1)`-list coloring) and starts
    /// maintaining it.
    ///
    /// # Errors
    ///
    /// Propagates the initial coloring's errors.
    pub fn new(graph: Graph) -> Result<Self, CoreError> {
        let run = ghaffari_kuhn_coloring(&graph)?;
        Self::from_parts(graph, run.coloring)
    }

    /// Starts maintaining an existing coloring (e.g. one loaded alongside an ingested
    /// dataset).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvariantViolated`] if `coloring` is not legal on `graph`.
    pub fn from_parts(graph: Graph, coloring: Coloring) -> Result<Self, CoreError> {
        if !coloring.is_legal(&graph) {
            return Err(CoreError::InvariantViolated {
                reason: "dynamic driver seeded with an illegal coloring".to_string(),
            });
        }
        let policy = RepairPolicy::Auto { frontier_threshold: Self::default_threshold(graph.n()) };
        Ok(DynamicColoring {
            adjacency: Adjacency::from_graph(&graph),
            frozen: OnceCell::from(graph),
            color_counts: color_counts(coloring.colors()),
            coloring,
            policy,
            auto_compact: false,
        })
    }

    /// Selects how conflicting batches are repaired (see [`RepairPolicy`]).
    #[must_use]
    pub fn with_repair_policy(mut self, policy: RepairPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active repair policy.
    pub fn repair_policy(&self) -> RepairPolicy {
        self.policy
    }

    /// Enables (or disables) automatic palette compaction: after any batch that removed
    /// edges and left the maximum color above the new maximum degree, `apply` runs a
    /// [`compact`](DynamicColoring::compact) sweep and reports its
    /// [`CompactionDelta`] in [`BatchOutcome::compaction`].
    #[must_use]
    pub fn with_auto_compact(mut self, enabled: bool) -> Self {
        self.auto_compact = enabled;
        self
    }

    /// The current graph as an immutable CSR.
    ///
    /// Materialized from [`DynamicColoring::adjacency`] on the first call after a mutation,
    /// in O(n + m), and cached until the next one.  Readers that need only degrees and
    /// neighbor lists should use the adjacency instead.
    pub fn graph(&self) -> &Graph {
        self.frozen.get_or_init(|| self.adjacency.freeze())
    }

    /// The current graph as mutable sorted neighbor lists (never materializes a CSR).
    pub fn adjacency(&self) -> &Adjacency {
        &self.adjacency
    }

    /// The maintained coloring (always legal on [`DynamicColoring::graph`]).
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// Applies one batch of [`GraphUpdate`]s — mixed insertions and removals — and repairs
    /// the coloring.
    ///
    /// Updates resolve in order with last-write-wins semantics per edge; the net effect is
    /// applied in place to the [`Adjacency`], so a batch of `b` edges costs
    /// O(b · degree) plus the repair.  Removals never create conflicts, so only the
    /// genuinely new edges feed the conflict frontier.
    ///
    /// # Errors
    ///
    /// Returns the graph layer's typed errors for invalid edges (out-of-range endpoints,
    /// self-loops) before any state changes, propagates the repair coloring's errors after
    /// reverting the batch, and returns [`CoreError::InvariantViolated`] if the
    /// post-repair legality check fails (a driver bug by construction).
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<BatchOutcome, CoreError> {
        let span = obs::phase("dynamic-apply");

        // Fold the batch into a last-write-wins overlay over canonical edges, validating
        // every submitted edge up front so failed batches leave the state untouched.
        let mut submitted_edges = 0usize;
        let mut overlay: BTreeMap<(Vertex, Vertex), bool> = BTreeMap::new();
        for update in updates {
            for &(u, v) in update.edges() {
                submitted_edges += 1;
                let key = self.adjacency.canonical_edge(u, v)?;
                overlay.insert(key, update.is_insert());
            }
        }

        // Resolve the overlay against the current graph into the net insert/remove sets.
        let mut to_insert: Vec<(Vertex, Vertex)> = Vec::new();
        let mut to_remove: Vec<(Vertex, Vertex)> = Vec::new();
        for (&(u, v), &present) in &overlay {
            match (present, self.adjacency.has_edge(u, v)) {
                (true, false) => to_insert.push((u, v)),
                (false, true) => to_remove.push((u, v)),
                _ => {}
            }
        }
        // The frozen CSR goes stale; it is kept aside so a failed repair can restore it.
        let stale = {
            let _patch = obs::phase("csr-patch");
            self.patch(&to_insert, &to_remove);
            if to_insert.is_empty() && to_remove.is_empty() {
                None
            } else {
                self.frozen.take()
            }
        };

        // The conflict frontier: endpoints of newly monochromatic edges.  Checking the new
        // edges (not the whole graph) is what makes small batches cheap; removals cannot
        // make a legal coloring illegal.
        let mut frontier: Vec<Vertex> = to_insert
            .iter()
            .filter(|&&(u, v)| self.coloring.color(u) == self.coloring.color(v))
            .flat_map(|&(u, v)| [u, v])
            .collect();
        frontier.sort_unstable();
        frontier.dedup();

        let escalate = match self.policy {
            RepairPolicy::Auto { frontier_threshold } => frontier.len() > frontier_threshold,
            RepairPolicy::AlwaysLocal => false,
            RepairPolicy::AlwaysFull => true,
        };
        let repair = if frontier.is_empty() {
            Ok((Vec::new(), RepairStrategy::NoConflict, RoundReport::zero()))
        } else if escalate {
            self.recolor_fully()
        } else {
            let _local = obs::phase("frontier-repair");
            self.repair_frontier(&frontier)
                .map(|(repaired, report)| (repaired, RepairStrategy::LocalRepair, report))
        };
        let (repaired, strategy, report) = match repair {
            Ok(repair) => repair,
            Err(err) => {
                // Neither repair path touches the coloring before it succeeds, so undoing
                // the edge changes restores the state exactly.
                self.patch(&to_remove, &to_insert);
                self.frozen = stale.map_or_else(OnceCell::new, OnceCell::from);
                return Err(err);
            }
        };
        span.charge(report);

        let mut outcome = BatchOutcome {
            submitted_edges,
            new_edges: to_insert.len(),
            removed_edges: to_remove.len(),
            frontier: frontier.len(),
            repaired,
            strategy,
            compaction: None,
            report,
        };

        if self.auto_compact
            && outcome.removed_edges > 0
            && self.max_color() as usize > self.adjacency.max_degree()
        {
            outcome.compaction = Some(self.compact());
        }

        // Independent post-condition: the maintained coloring is legal on the new graph.
        // The coloring was legal before the batch, so after a local repair only edges at a
        // recolored vertex or a new edge can conflict; whole-graph recolorings get a
        // whole-graph check.
        let legal = if strategy == RepairStrategy::FullRecolor || outcome.compaction.is_some() {
            self.monochromatic_edges() == 0
        } else {
            let colors = self.coloring.colors();
            outcome
                .repaired
                .iter()
                .chain(to_insert.iter().flat_map(|(u, v)| [u, v]))
                .all(|&v| self.adjacency.neighbors(v).iter().all(|&u| colors[u] != colors[v]))
        };
        debug_assert!(
            !legal || self.monochromatic_edges() == 0,
            "the local legality check missed a conflict"
        );
        if !legal {
            return Err(CoreError::InvariantViolated {
                reason: format!("repair left {} monochromatic edges", self.monochromatic_edges()),
            });
        }

        obs::incr_counter("dynamic.batches", 1);
        obs::incr_counter("dynamic.new_edges", outcome.new_edges as u64);
        obs::incr_counter("dynamic.removed_edges", outcome.removed_edges as u64);
        obs::incr_counter("dynamic.repaired", outcome.repaired.len() as u64);
        obs::observe_value("dynamic.frontier_per_batch", outcome.frontier as u64);
        Ok(outcome)
    }

    /// Re-tightens the palette after deletions freed slack: deterministic greedy sweeps
    /// in descending color order move every vertex to the smallest color its neighborhood
    /// permits (never a larger one) until a pass changes nothing, then a rank relabeling
    /// closes the remaining holes.  Idempotent: a second call is a no-op.
    ///
    /// Guarantees, unconditionally:
    ///
    /// * legality is preserved (each move avoids all current neighbor colors, and the
    ///   relabeling is injective);
    /// * no vertex's color increases, so the maximum color never grows;
    /// * after the sweep every vertex sits at a color ≤ its degree, so the palette ends
    ///   within `max_degree + 1` colors and is hole-free (`max_color == distinct - 1`).
    ///
    /// The sweep is centralized and executor-independent, so compaction is bit-identical
    /// across executors and replays by construction.
    pub fn compact(&mut self) -> CompactionDelta {
        let _span = obs::phase("compaction");
        let colors_before = self.coloring.distinct_colors();
        let initial = self.coloring.colors().to_vec();
        let n = self.adjacency.n();

        // Sweep to a fixpoint: descending current color, ties by ascending vertex index,
        // so the loosest vertices move first, into the slack the tight ones never
        // occupied.  Each improving pass strictly decreases the (integer) sum of colors,
        // so the loop terminates; in practice two or three passes suffice.
        let mut palette = PaletteSet::new(self.adjacency.max_degree() as u64 + 1);
        loop {
            let mut order: Vec<Vertex> = (0..n).collect();
            order.sort_unstable_by_key(|&v| (std::cmp::Reverse(self.coloring.color(v)), v));
            let mut moved = false;
            for &v in &order {
                palette.clear();
                for &u in self.adjacency.neighbors(v) {
                    palette.strike(self.coloring.color(u));
                }
                let free = palette
                    .first_unstruck()
                    .expect("deg(v) neighbors cannot strike all deg(v)+1 candidates");
                if free < self.coloring.color(v) {
                    self.coloring.set(v, free);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        // Close the holes: relabel each used color by its rank.  rank(c) ≤ c, so this is
        // still a per-vertex weak decrease, and injectivity preserves legality.
        let max = self.coloring.max_color() as usize;
        let mut used = vec![false; max + 1];
        for &c in self.coloring.colors() {
            used[c as usize] = true;
        }
        let mut rank = vec![0 as Color; max + 1];
        let mut next = 0 as Color;
        for (c, &in_use) in used.iter().enumerate() {
            rank[c] = next;
            if in_use {
                next += 1;
            }
        }
        let mut recolored = 0usize;
        for v in 0..n {
            let relabeled = rank[self.coloring.color(v) as usize];
            if relabeled != self.coloring.color(v) {
                self.coloring.set(v, relabeled);
            }
            if self.coloring.color(v) != initial[v] {
                recolored += 1;
            }
        }
        self.color_counts = color_counts(self.coloring.colors());

        let delta = CompactionDelta {
            colors_before,
            colors_after: self.coloring.distinct_colors(),
            recolored,
        };
        obs::incr_counter("dynamic.compactions", 1);
        obs::incr_counter("dynamic.compaction_recolored", recolored as u64);
        delta
    }

    /// Removes `remove` and inserts `insert` in place; both hold validated edges, each
    /// absent (for `insert`) or present (for `remove`), so swapping the two arguments
    /// undoes a call.
    fn patch(&mut self, insert: &[(Vertex, Vertex)], remove: &[(Vertex, Vertex)]) {
        for &(u, v) in remove {
            self.adjacency.remove_edge(u, v).expect("edges are validated before the patch");
        }
        for &(u, v) in insert {
            self.adjacency.insert_edge(u, v).expect("edges are validated before the patch");
        }
    }

    /// The largest color in use (0 on the empty graph).
    fn max_color(&self) -> Color {
        self.color_counts.keys().next_back().copied().unwrap_or(0)
    }

    /// Counts monochromatic edges over the whole adjacency, without freezing it.
    fn monochromatic_edges(&self) -> usize {
        let colors = self.coloring.colors();
        self.adjacency.edges().filter(|&(u, v)| colors[u] == colors[v]).count()
    }

    /// Re-colors the whole graph from scratch and returns the vertices whose color changed.
    /// The only write-path step that freezes the adjacency: the run is O(n + m) anyway.
    fn recolor_fully(&mut self) -> Result<(Vec<Vertex>, RepairStrategy, RoundReport), CoreError> {
        let _full = obs::phase("full-recolor");
        let run = ghaffari_kuhn_coloring(self.graph())?;
        let repaired: Vec<Vertex> = self
            .coloring
            .colors()
            .iter()
            .zip(run.coloring.colors())
            .enumerate()
            .filter(|(_, (old, new))| old != new)
            .map(|(v, _)| v)
            .collect();
        self.coloring = run.coloring;
        self.color_counts = color_counts(self.coloring.colors());
        Ok((repaired, RepairStrategy::FullRecolor, run.report))
    }

    /// Re-colors the induced subgraph on `frontier` (ascending) with a list-coloring
    /// instance that is compatible with every non-frontier neighbor.  Returns the
    /// ascending list of vertices that changed color and the simulated cost.
    fn repair_frontier(
        &mut self,
        frontier: &[Vertex],
    ) -> Result<(Vec<Vertex>, RoundReport), CoreError> {
        let sub = self.adjacency.induced(frontier);
        let lists: Vec<Vec<Color>> = frontier
            .iter()
            .map(|&v| {
                // {0, …, deg(v)} minus the colors of v's neighbors outside the frontier.
                // At most deg(v) − deg_sub(v) removals hit the base list, so at least
                // deg_sub(v) + 1 colors survive: the instance always has greedy slack.
                let mut list: Vec<Color> = (0..=self.adjacency.degree(v) as Color).collect();
                let blocked: Vec<Color> = self
                    .adjacency
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| sub.map.to_child(u).is_none())
                    .map(|&u| self.coloring.color(u))
                    .collect();
                list.retain(|c| !blocked.contains(c));
                list
            })
            .collect();
        let instance = ColorLists::new(&sub.graph, lists)?;
        let run = ghaffari_kuhn_list_coloring(&sub.graph, &instance)?;
        let mut repaired = Vec::new();
        for (child, &parent) in frontier.iter().enumerate() {
            let old_color = self.coloring.color(parent);
            let new_color = run.coloring.color(child);
            if old_color != new_color {
                self.coloring.set(parent, new_color);
                uncount(&mut self.color_counts, old_color);
                *self.color_counts.entry(new_color).or_insert(0) += 1;
                repaired.push(parent);
            }
        }
        Ok((repaired, run.report))
    }
}

/// How many vertices hold each color.
fn color_counts(colors: &[Color]) -> BTreeMap<Color, usize> {
    let mut counts = BTreeMap::new();
    for &c in colors {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts
}

/// Takes one vertex off `color`'s count, dropping colors nobody holds any more.
fn uncount(counts: &mut BTreeMap<Color, usize>, color: Color) {
    if let Some(count) = counts.get_mut(&color) {
        *count -= 1;
        if *count == 0 {
            counts.remove(&color);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::{generators, GraphError};

    #[test]
    fn no_conflict_batches_change_nothing() {
        let g = generators::cycle(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let before = dynamic.coloring().clone();
        // Chords between vertices the cycle coloring already separates.
        let batch: Vec<(Vertex, Vertex)> = (0..4)
            .flat_map(|i| [(i, i + 3)])
            .filter(|&(u, v)| dynamic.coloring().color(u) != dynamic.coloring().color(v))
            .collect();
        assert!(!batch.is_empty());
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::NoConflict);
        assert_eq!(outcome.repaired_vertices(), 0);
        assert_eq!(dynamic.coloring(), &before);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn local_repair_touches_only_the_frontier() {
        let g = generators::union_of_random_forests(400, 3, 11).unwrap().with_shuffled_ids(5);
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let before = dynamic.coloring().clone();
        // Force conflicts: connect same-colored vertices.
        let colors = dynamic.coloring().colors().to_vec();
        let mut batch = Vec::new();
        for v in 1..dynamic.graph().n() {
            if batch.len() >= 6 {
                break;
            }
            if colors[v] == colors[0] && !dynamic.graph().has_edge(0, v) {
                batch.push((0usize, v));
            }
        }
        assert!(!batch.is_empty(), "no same-colored pair found");
        let batch_len = batch.len();
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::LocalRepair);
        assert!(outcome.frontier <= 2 * batch_len);
        assert!(outcome.repaired_vertices() >= 1);
        assert!(outcome.repaired_vertices() <= outcome.frontier);
        // The repaired set is exactly the vertices whose color changed.
        let changed: Vec<Vertex> = dynamic
            .coloring()
            .colors()
            .iter()
            .zip(before.colors())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(v, _)| v)
            .collect();
        assert_eq!(outcome.repaired, changed);
        assert!(changed.len() <= outcome.frontier);
        assert!(dynamic.frozen.get().is_none(), "a local repair must not materialize the CSR");
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn the_auto_policy_escalates_oversized_frontiers() {
        let g = generators::path(40).unwrap();
        let mut dynamic = DynamicColoring::new(g)
            .unwrap()
            .with_repair_policy(RepairPolicy::Auto { frontier_threshold: 1 });
        let colors = dynamic.coloring().colors().to_vec();
        let mut batch = Vec::new();
        for u in 0..dynamic.graph().n() {
            for v in (u + 1)..dynamic.graph().n() {
                if colors[u] == colors[v] && !dynamic.graph().has_edge(u, v) && batch.len() < 4 {
                    batch.push((u, v));
                }
            }
        }
        assert!(batch.len() >= 2);
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::FullRecolor);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn explicit_policies_override_the_threshold() {
        let build_batch = |dynamic: &DynamicColoring| {
            let colors = dynamic.coloring().colors().to_vec();
            let mut batch = Vec::new();
            for u in 0..dynamic.graph().n() {
                for v in (u + 1)..dynamic.graph().n() {
                    if colors[u] == colors[v] && !dynamic.graph().has_edge(u, v) && batch.len() < 4
                    {
                        batch.push((u, v));
                    }
                }
            }
            batch
        };

        let g = generators::path(40).unwrap();
        let mut local =
            DynamicColoring::new(g.clone()).unwrap().with_repair_policy(RepairPolicy::AlwaysLocal);
        let batch = build_batch(&local);
        assert!(batch.len() >= 2);
        let outcome = local.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::LocalRepair);
        assert!(local.coloring().is_legal(local.graph()));

        let mut full =
            DynamicColoring::new(g).unwrap().with_repair_policy(RepairPolicy::AlwaysFull);
        let batch = build_batch(&full);
        let outcome = full.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::FullRecolor);
        assert!(full.coloring().is_legal(full.graph()));
    }

    #[test]
    fn removals_never_conflict_and_are_counted() {
        let g = generators::complete(6).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let outcome =
            dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(0, 1), (2, 3), (0, 1)])]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::NoConflict);
        assert_eq!(outcome.submitted_edges, 3);
        assert_eq!(outcome.removed_edges, 2);
        assert_eq!(outcome.new_edges, 0);
        assert_eq!(dynamic.graph().m(), 13);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
        // Removing an absent edge is a no-op, not an error.
        let outcome = dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(0, 1)])]).unwrap();
        assert_eq!(outcome.removed_edges, 0);
    }

    #[test]
    fn updates_resolve_in_order_with_last_write_wins() {
        let g = generators::cycle(6).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let outcome = dynamic
            .apply(&[
                GraphUpdate::InsertEdges(vec![(0, 2)]),
                GraphUpdate::RemoveEdges(vec![(0, 2), (3, 4)]),
                GraphUpdate::InsertEdges(vec![(3, 4)]),
            ])
            .unwrap();
        // (0, 2) inserted then removed: net nothing.  (3, 4) removed then re-inserted:
        // net nothing.  The graph is unchanged.
        assert_eq!(outcome.new_edges, 0);
        assert_eq!(outcome.removed_edges, 0);
        assert_eq!(dynamic.graph().m(), 6);
        assert!(dynamic.graph().has_edge(3, 4));
        assert!(!dynamic.graph().has_edge(0, 2));
    }

    #[test]
    fn compaction_reclaims_slack_after_deletions() {
        // A clique forces 8 colors; deleting most of it leaves a sparse graph that needs
        // far fewer.
        let g = generators::complete(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        assert_eq!(dynamic.coloring().distinct_colors(), 8);
        let doomed: Vec<(Vertex, Vertex)> = dynamic
            .graph()
            .edges()
            .iter()
            .copied()
            .filter(|&(u, v)| v != u + 1) // keep the path 0-1-2-…-7
            .collect();
        dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
        assert_eq!(dynamic.coloring().distinct_colors(), 8, "deletions alone free no colors");
        let delta = dynamic.compact();
        assert_eq!(delta.colors_before, 8);
        assert!(delta.colors_after <= dynamic.graph().max_degree() + 1);
        assert_eq!(delta.colors_after, dynamic.coloring().distinct_colors());
        // Hole-free palette: max color == distinct - 1.
        assert_eq!(dynamic.coloring().max_color() as usize + 1, delta.colors_after);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn compaction_never_increases_colors_or_any_vertex() {
        for seed in 0..4u64 {
            for (family, g) in arbcolor_graph::generators::seeded_suite(48, seed) {
                let mut dynamic = DynamicColoring::new(g).unwrap();
                // Delete every third edge to open slack, then compact repeatedly.
                let doomed: Vec<(Vertex, Vertex)> =
                    dynamic.graph().edges().iter().copied().step_by(3).collect();
                dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
                let before_colors = dynamic.coloring().colors().to_vec();
                let before_distinct = dynamic.coloring().distinct_colors();
                let delta = dynamic.compact();
                assert!(
                    delta.colors_after <= before_distinct,
                    "distinct colors grew on {family} (seed {seed})"
                );
                assert!(
                    dynamic
                        .coloring()
                        .colors()
                        .iter()
                        .zip(&before_colors)
                        .all(|(after, before)| after <= before),
                    "a vertex color grew on {family} (seed {seed})"
                );
                assert!(delta.colors_after <= dynamic.graph().max_degree() + 1);
                assert!(dynamic.coloring().is_legal(dynamic.graph()));
                // Idempotence: a second sweep has nothing left to reclaim.
                let again = dynamic.compact();
                assert_eq!(again.colors_after, delta.colors_after);
            }
        }
    }

    #[test]
    fn auto_compact_rides_along_with_deletion_batches() {
        let g = generators::complete(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap().with_auto_compact(true);
        let doomed: Vec<(Vertex, Vertex)> =
            dynamic.graph().edges().iter().copied().filter(|&(u, v)| v != u + 1).collect();
        let outcome = dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
        let delta = outcome.compaction.expect("deletions freed slack, so a sweep must run");
        assert!(delta.colors_after < delta.colors_before);
        assert!(dynamic.coloring().distinct_colors() <= dynamic.graph().max_degree() + 1);
        // Insert-only batches never auto-compact.
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(vec![(0, 2)])]).unwrap();
        assert!(outcome.compaction.is_none());
    }

    #[test]
    fn invalid_batches_surface_typed_errors() {
        let g = generators::cycle(6).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        assert!(dynamic.apply(&[GraphUpdate::InsertEdges(vec![(0, 99)])]).is_err());
        assert!(dynamic.apply(&[GraphUpdate::InsertEdges(vec![(2, 2)])]).is_err());
        // Invalid removals are rejected up front too, even for absent edges.
        assert!(dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(0, 99)])]).is_err());
        assert!(dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(3, 3)])]).is_err());
        // The failed batches left the state untouched and legal.
        assert_eq!(dynamic.graph().n(), 6);
        assert_eq!(dynamic.graph().m(), 6);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn a_batch_failing_on_its_last_edge_changes_nothing() {
        let g = generators::cycle(8).unwrap().with_shuffled_ids(1);
        let invalid = [
            ((0, 99), GraphError::VertexOutOfRange { vertex: 99, n: 8 }),
            ((5, 5), GraphError::SelfLoop { vertex: 5 }),
        ];
        for (edge, expected) in invalid {
            let mut dynamic = DynamicColoring::new(g.clone()).unwrap();
            dynamic.apply(&[GraphUpdate::InsertEdges(vec![(0, 4)])]).unwrap();
            let graph = dynamic.graph().clone();
            let coloring = dynamic.coloring().clone();
            let err = dynamic
                .apply(&[
                    GraphUpdate::InsertEdges(vec![(1, 5), (2, 6)]),
                    GraphUpdate::RemoveEdges(vec![(0, 1), (0, 4)]),
                    GraphUpdate::InsertEdges(vec![(3, 7), edge]),
                ])
                .unwrap_err();
            assert_eq!(err, CoreError::Graph(expected));
            assert_eq!(dynamic.graph(), &graph);
            assert_eq!(dynamic.adjacency().m(), graph.m());
            assert_eq!(dynamic.adjacency().freeze(), graph);
            assert_eq!(dynamic.coloring(), &coloring);
        }
    }

    #[test]
    fn identifiers_survive_rebuilds() {
        let g = generators::cycle(10).unwrap().with_shuffled_ids(3);
        let ids = g.ids().to_vec();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        dynamic
            .apply(&[
                GraphUpdate::InsertEdges(vec![(0, 5)]),
                GraphUpdate::RemoveEdges(vec![(1, 2)]),
            ])
            .unwrap();
        assert_eq!(dynamic.graph().ids(), &ids[..]);
    }

    #[test]
    fn seeding_with_an_illegal_coloring_is_rejected() {
        let g = generators::cycle(4).unwrap();
        let illegal = Coloring::constant(&g);
        assert!(DynamicColoring::from_parts(g, illegal).is_err());
    }
}
