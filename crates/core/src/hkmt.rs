//! Randomized `(deg+1)`-list coloring in CONGEST, after Halldórsson–Kuhn–Maus–Tonoyan
//! (arXiv:2012.14169).
//!
//! HKMT show that `(deg+1)`-list coloring — the workhorse subproblem of the deterministic
//! pipelines in this crate — admits a randomized CONGEST algorithm whose messages stay at
//! `O(log n)` bits.  This module implements the algorithm's backbone as a genuine
//! [`NodeProgram`] so it runs on the simulator under CONGEST accounting
//! ([`CostMode::Congest`](arbcolor_runtime::CostMode)) and serves as the repo's first
//! *randomized* registry headliner, racing the two deterministic ones bit-for-bit on the
//! bandwidth columns:
//!
//! 1. **Multi-trial color sampling** ([`RandomTrials`]).  Trials alternate two rounds.  In a
//!    *propose* round every uncolored vertex draws a uniform candidate from its remaining
//!    list and announces it; in the *resolve* round it keeps the candidate iff no neighbor
//!    proposed the same color, announces the adoption, and halts.  Adopted colors are
//!    struck from the neighbors' lists at the start of their next propose round, so every
//!    message is a single color value — `O(log n)` bits.  Randomness is **per-vertex
//!    seeded**: vertex `v` draws from `ChaCha8(seed ⊕ mix(id(v)))`, so the execution is a
//!    deterministic function of `(graph, lists, seed)` and bit-identical across the
//!    sequential, work-stealing, and reference executors at any thread count.
//! 2. **Deterministic fallback.**  The greedy slack `|Ψ(v)| ≥ deg(v) + 1` is preserved under
//!    trial coloring (each colored neighbor removes at most one list entry *and* one unit
//!    of induced degree), so the leftover instance after `O(log n)` trials — empty with
//!    high probability, small otherwise — is finished by the existing
//!    [`ghaffari_kuhn_list_coloring`] machinery on the induced subgraph.
//! 3. **Unconditional re-verification.**  Whatever the random trials did, the final
//!    coloring is checked against the lists and the graph before it is returned; a bad
//!    coloring is a [`CoreError::InvariantViolated`], never a silent result.

use crate::error::CoreError;
use crate::ghaffari_kuhn::ghaffari_kuhn_list_coloring;
use crate::list_coloring::ColorLists;
use crate::report::ColoringRun;
use arbcolor_graph::{Coloring, Graph, InducedSubgraph, PaletteSet, PaletteStats, Vertex};
use arbcolor_runtime::{
    obs, run_algorithm, Algorithm, Inbox, MessageCost, NodeCtx, NodeProgram, Outbox, Status,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A message of the trial protocol: a color candidate or a permanent adoption.
///
/// Both variants carry one color value, so the measured width is `O(log n)` whenever the
/// color space is polynomial in `n` — exactly the CONGEST regime HKMT target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialMsg {
    /// The sender proposes this color in the current trial.
    Propose(u64),
    /// The sender has permanently adopted this color (and halts).
    Keep(u64),
}

impl MessageCost for TrialMsg {
    /// One tag bit to separate the variants, plus the measured width of the color.
    fn encoded_bits(&self) -> u64 {
        match self {
            TrialMsg::Propose(c) | TrialMsg::Keep(c) => 1 + c.encoded_bits(),
        }
    }
}

/// The multi-trial sampling phase of HKMT as a distributed algorithm: after the trial
/// budget is exhausted a vertex gives up and leaves itself to the deterministic fallback
/// (output `None`).
///
/// Nodes borrow their list straight from the instance's flat pool and mark adopted
/// neighbor colors in a position-indexed [`PaletteSet`] instead of compacting a cloned
/// `Vec`; candidate draws select the `k`-th surviving position by popcount, which is
/// bit-identical to drawing from the compacted list.
#[derive(Debug)]
pub struct RandomTrials<'a> {
    /// Global seed; per-vertex generators are derived from it and the vertex identifier.
    seed: u64,
    /// Maximum number of trials before a vertex defers to the fallback.
    trials: usize,
    /// The list-coloring instance (one palette per vertex).
    lists: &'a ColorLists,
    /// Reuse counters fed by the nodes; flushed by the driver after the run.  Shared by
    /// refcount because the nodes outlive the `&self` borrow of [`Algorithm::node`].
    stats: Arc<PaletteStats>,
}

impl<'a> RandomTrials<'a> {
    /// Creates the sampling phase over `lists` with the given seed and trial budget.
    pub fn new(seed: u64, trials: usize, lists: &'a ColorLists) -> Self {
        RandomTrials { seed, trials, lists, stats: Arc::new(PaletteStats::default()) }
    }

    /// The reuse counters fed by this algorithm's nodes.
    pub fn stats(&self) -> &PaletteStats {
        &self.stats
    }
}

/// Per-vertex state of [`RandomTrials`].
#[derive(Debug, Clone)]
pub struct TrialNode<'a> {
    rng: ChaCha8Rng,
    /// The vertex's full sorted list, borrowed from the instance pool.
    list: &'a [u64],
    /// List *positions* whose colors were adopted by a neighbor.
    struck: PaletteSet,
    /// Number of surviving positions (`list.len() − struck_count`).
    live: usize,
    stats: Arc<PaletteStats>,
    candidate: u64,
    color: Option<u64>,
    trials: usize,
}

impl TrialNode<'_> {
    /// Draws a fresh candidate from the surviving positions and broadcasts it in `round`,
    /// to be resolved in the next one.
    ///
    /// `select_unstruck(k)` returns the `k`-th surviving position in ascending order —
    /// exactly the element `compacted[k]` of the old remove-as-you-go `Vec`, so the draw
    /// (and the whole rng stream) is bit-identical to the pre-bitset path.
    fn propose(&mut self, round: usize, outbox: &mut Outbox<TrialMsg>) -> Status {
        let k = self.rng.gen_range(0..self.live) as u64;
        let pos = self.struck.select_unstruck(k).expect("live > 0 surviving positions");
        self.candidate = self.list[pos as usize];
        self.stats.record_pick_only();
        outbox.broadcast(TrialMsg::Propose(self.candidate));
        Status::WakeAt(round + 1)
    }
}

impl NodeProgram for TrialNode<'_> {
    type Msg = TrialMsg;
    type Output = Option<u64>;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<TrialMsg>) -> Status {
        if self.live == 0 {
            // Defensive: an uncolorable vertex defers to the fallback's validation.
            return Status::Halted;
        }
        if ctx.degree == 0 {
            self.color = Some(self.list[0]);
            return Status::Halted;
        }
        self.propose(0, outbox)
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        inbox: &Inbox<'_, TrialMsg>,
        outbox: &mut Outbox<TrialMsg>,
    ) -> Status {
        // Uncolored vertices act in lockstep: `init` and the even rounds propose, the odd
        // rounds resolve, so the trial resolved in round `r` is trial number ⌈r / 2⌉.
        let round = inbox.round();
        if round % 2 == 1 {
            // A resolve round sees proposals only; adoptions announced this round arrive
            // in the next propose round.
            let conflict = inbox
                .iter()
                .any(|(_, m)| matches!(m, TrialMsg::Propose(c) if *c == self.candidate));
            if !conflict {
                self.color = Some(self.candidate);
                outbox.broadcast(TrialMsg::Keep(self.candidate));
                return Status::Halted;
            }
            if round.div_ceil(2) >= self.trials {
                // Out of trials: leave this vertex to the deterministic fallback.
                return Status::Halted;
            }
            Status::WakeAt(round + 1)
        } else {
            for (_, m) in inbox.iter() {
                if let TrialMsg::Keep(c) = m {
                    // Striking a position is idempotent, so a color adopted by two
                    // neighbors (legal across resolve generations) is removed once —
                    // same behavior as the old remove + failing re-search.
                    if let Ok(at) = self.list.binary_search(c) {
                        if self.struck.strike(at as u64) {
                            self.live -= 1;
                            self.stats.record_strikes(1);
                        }
                    }
                }
            }
            if self.live == 0 {
                return Status::Halted;
            }
            self.propose(round, outbox)
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u64> {
        self.color
    }
}

impl<'a> Algorithm for RandomTrials<'a> {
    type Node = TrialNode<'a>;

    fn node(&self, ctx: &NodeCtx) -> TrialNode<'a> {
        // Seed per vertex from (global seed, vertex identifier): the draw sequence belongs
        // to the vertex, not to any scheduling order, which is what makes the randomized
        // execution bit-identical across executors and thread counts.
        let rng = ChaCha8Rng::seed_from_u64(self.seed ^ ctx.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let list = self.lists.list(ctx.vertex);
        TrialNode {
            rng,
            list,
            struck: PaletteSet::new(list.len() as u64),
            live: list.len(),
            stats: Arc::clone(&self.stats),
            candidate: 0,
            color: None,
            trials: self.trials.max(1),
        }
    }

    fn name(&self) -> &'static str {
        "hkmt-random-trials"
    }
}

/// The default trial budget for an `n`-vertex graph: `⌈log2 n⌉ + 2`, so the sampling phase
/// runs `O(log n)` rounds and leaves (with high probability) nothing to the fallback.
pub fn default_trials(n: usize) -> usize {
    n.max(2).next_power_of_two().trailing_zeros() as usize + 2
}

/// HKMT randomized `(deg+1)`-list coloring: seeded multi-trial sampling, deterministic GK
/// fallback for the leftover instance, legality re-verified unconditionally.
///
/// For a fixed `seed` the result is a deterministic function of the instance — bit-identical
/// colors, rounds, messages, and bandwidth across all executors.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the instance does not cover the graph or lacks
/// greedy slack, [`CoreError::InvariantViolated`] if the final coloring fails verification,
/// and propagates runtime errors (including CONGEST budget violations).
pub fn hkmt_list_coloring(
    graph: &Graph,
    lists: &ColorLists,
    seed: u64,
) -> Result<ColoringRun, CoreError> {
    if lists.n() != graph.n() {
        return Err(CoreError::InvalidParameter {
            reason: format!(
                "instance covers {} vertices but the graph has {}",
                lists.n(),
                graph.n()
            ),
        });
    }
    if !lists.has_greedy_slack(graph) {
        return Err(CoreError::InvalidParameter {
            reason: format!(
                "the instance lacks greedy slack (min |Ψ(v)| − deg(v) − 1 = {})",
                lists.min_slack(graph)
            ),
        });
    }

    let trials_span = obs::phase("random-trials");
    let trials = RandomTrials::new(seed, default_trials(graph.n()), lists);
    let sampling = run_algorithm(graph, &trials)?;
    obs::record_palette(trials.stats());
    let mut report = sampling.report;
    trials_span.charge(sampling.report);
    drop(trials_span);
    let mut colors: Vec<Option<u64>> = sampling.outputs;

    // Deterministic fallback on the leftover: trial coloring preserves greedy slack (a
    // colored neighbor removes at most one list entry and exactly one unit of induced
    // degree), so the reduced instance is a valid GK input.
    let leftover: Vec<Vertex> = graph.vertices().filter(|&v| colors[v].is_none()).collect();
    if !leftover.is_empty() {
        // GK's own level spans nest inside this one; the depth-1 rollup only sees
        // "gk-fallback", so there is no double counting.
        let fallback_span = obs::phase("gk-fallback");
        let sub = InducedSubgraph::new(graph, &leftover);
        // One strike-set scratch reused across all leftover vertices: strike the colors
        // adopted around `parent`, filter its list with word lookups, epoch-clear, repeat.
        let stats = PaletteStats::default();
        let mut taken = PaletteSet::new(lists.color_space());
        let reduced: Vec<Vec<u64>> = (0..sub.graph.n())
            .map(|child| {
                let parent = sub.map.to_parent(child);
                let mut struck = 0;
                for &u in graph.neighbors(parent) {
                    if let Some(c) = colors[u] {
                        if taken.strike(c) {
                            struck += 1;
                        }
                    }
                }
                stats.record_strikes(struck);
                let list: Vec<u64> =
                    lists.list(parent).iter().copied().filter(|&c| !taken.is_struck(c)).collect();
                stats.record_words_cleared(taken.clear());
                list
            })
            .collect();
        obs::record_palette(&stats);
        let sub_lists = ColorLists::new(&sub.graph, reduced)?;
        let fallback = ghaffari_kuhn_list_coloring(&sub.graph, &sub_lists)?;
        for child in 0..sub.graph.n() {
            colors[sub.map.to_parent(child)] = Some(fallback.coloring.color(child));
        }
        report = report.then(fallback.report);
        fallback_span.charge(fallback.report);
        drop(fallback_span);
    }

    let colors: Vec<u64> = colors
        .into_iter()
        .map(|c| {
            c.ok_or_else(|| CoreError::InvariantViolated {
                reason: "a vertex left the trials uncolored and outside the fallback".into(),
            })
        })
        .collect::<Result<_, _>>()?;
    let coloring = Coloring::new(graph, colors)?;
    lists.verify(graph, &coloring)?;
    Ok(ColoringRun::new(coloring, lists.color_space(), report))
}

/// The `(deg+1)` entry point: every vertex lists `{0, …, deg(v)}`, so the result uses at
/// most `Δ + 1` colors.
///
/// # Errors
///
/// See [`hkmt_list_coloring`].
pub fn hkmt_coloring(graph: &Graph, seed: u64) -> Result<ColoringRun, CoreError> {
    hkmt_list_coloring(graph, &ColorLists::degree_plus_one(graph), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn trial_message_width_is_one_tag_bit_plus_the_color() {
        assert_eq!(TrialMsg::Propose(0).encoded_bits(), 2);
        assert_eq!(TrialMsg::Keep(5).encoded_bits(), 4);
        assert_eq!(TrialMsg::Propose(255).encoded_bits(), 9);
    }

    #[test]
    fn colors_legally_within_delta_plus_one_on_mixed_graphs() {
        for (i, g) in [
            generators::cycle(24).unwrap().with_shuffled_ids(3),
            generators::gnp(60, 0.15, 7).unwrap().with_shuffled_ids(9),
            generators::complete(9).unwrap(),
            generators::star(17).unwrap(),
        ]
        .into_iter()
        .enumerate()
        {
            let run = hkmt_coloring(&g, 1000 + i as u64).unwrap();
            assert!(run.coloring.is_legal(&g));
            assert!(run.colors_used <= g.max_degree() + 1);
            assert!(run.report.rounds >= 1);
            assert!(run.report.total_bits > 0, "trial messages must be accounted");
        }
    }

    #[test]
    fn fixed_seed_is_reproducible_and_seeds_differ() {
        let g = generators::gnp(50, 0.2, 11).unwrap().with_shuffled_ids(4);
        let a = hkmt_coloring(&g, 42).unwrap();
        let b = hkmt_coloring(&g, 42).unwrap();
        assert_eq!(a.coloring.colors(), b.coloring.colors());
        assert_eq!(a.report, b.report);
        // Different seeds still produce legal colorings (and usually different ones).
        let c = hkmt_coloring(&g, 43).unwrap();
        assert!(c.coloring.is_legal(&g));
    }

    #[test]
    fn respects_custom_lists() {
        let g = generators::path(6).unwrap();
        let lists: Vec<Vec<u64>> =
            (0..6).map(|v| (10..13).map(|c| c + (v as u64 % 2)).collect()).collect();
        let lists = ColorLists::new(&g, lists).unwrap();
        let run = hkmt_list_coloring(&g, &lists, 7).unwrap();
        assert!(lists.verify(&g, &run.coloring).is_ok());
    }

    #[test]
    fn isolated_vertices_color_in_zero_rounds() {
        let g = Graph::empty(4);
        let run = hkmt_coloring(&g, 5).unwrap();
        assert!(run.coloring.is_legal(&g));
        assert_eq!(run.report.total_bits, 0);
    }
}
