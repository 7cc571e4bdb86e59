//! Linial-style iterative recoloring and Linial's `O(Δ²)`-coloring.
//!
//! The generic engine ([`RecolorSchedule`] + [`RecolorAlgorithm`]) performs a sequence of
//! recoloring iterations.  In iteration `j`, every vertex `v` with current color `χ(v)` looks
//! at the current colors `y_1, …, y_δ` of its neighbors and picks `α ∈ F_q` minimizing the
//! number of *differently-colored* neighbors whose polynomial agrees with `ϕ_{χ(v)}` at `α`;
//! its new color is the pair `(α, ϕ_{χ(v)}(α)) ∈ [q²]`.  That choice is
//! [`PolynomialFamily::best_alpha`], the one α-selection kernel.
//!
//! * With a **zero** collision budget per iteration (and `q > k·Δ`), the minimum is guaranteed
//!   to be 0, the coloring stays legal, and after `O(log* n)` iterations the number of colors
//!   stabilizes at `O(Δ²)` — Linial's FOCS'87 algorithm ([`linial_coloring`]).
//! * With a **positive** budget `r_j` per iteration (and `q > k·⌈Δ/(r_j+1)⌉`), each iteration
//!   adds at most `r_j` to the defect — Kuhn's defective coloring; see
//!   [`crate::defective`].
//!
//! * Counting only the **parents** under an orientation ([`RecolorAlgorithm::arb_recolor`])
//!   gives the paper's Procedure Arb-Recolor (Algorithm 3), which Algorithm Arb-Kuhn runs.
//!
//! Every iteration costs exactly one communication round (colors of the previous iteration
//! are broadcast, new colors are computed locally).

use crate::algebraic::{choose_prime_field, PolynomialFamily};
use crate::error::DecomposeError;
use arbcolor_graph::{Coloring, Graph, Orientation};
use arbcolor_runtime::{run_algorithm, Algorithm, Inbox, NodeCtx, Outbox, RoundReport, Status};

/// One recoloring iteration: the function family to use and the number of *new* same-color
/// collisions a vertex is allowed to accept (0 keeps the coloring legal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecolorStep {
    /// The polynomial family used in this iteration.
    pub family: PolynomialFamily,
    /// Collision budget of this iteration (informational; vertices always pick the
    /// minimizing `α`, and the family parameters guarantee the minimum is within budget).
    pub budget: u64,
}

/// A full schedule of recoloring iterations, shared by all vertices (it depends only on the
/// global parameters `n`, `Δ` and the defect target, which every vertex knows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecolorSchedule {
    /// The iterations, applied in order.
    pub steps: Vec<RecolorStep>,
    /// Number of colors of the *input* coloring the schedule expects (usually the ID space).
    pub initial_colors: u64,
}

impl RecolorSchedule {
    /// Builds a schedule that starts from `initial_colors` colors, never exceeds a total
    /// defect of `defect_budget`, and iterates until the color count stops shrinking.
    ///
    /// `max_degree` is the maximum degree `Δ` of the graph the schedule will run on.
    pub fn build(initial_colors: u64, max_degree: usize, defect_budget: u64) -> Self {
        let delta = max_degree as u64;
        let mut steps = Vec::new();
        let mut colors = initial_colors.max(1);
        let mut remaining = defect_budget;
        // Safety bound: every step at least squares-roots the color count, so far fewer than
        // 64 iterations can ever make progress starting from a u64 color space.
        for _ in 0..64 {
            let budget = if remaining > 0 { remaining.div_ceil(2) } else { 0 };
            let slack = if budget + 1 >= delta.max(1) { 1 } else { delta.div_ceil(budget + 1) };
            let family = choose_prime_field(colors, slack);
            if family.new_color_count() >= colors {
                break;
            }
            colors = family.new_color_count();
            remaining -= budget.min(remaining);
            steps.push(RecolorStep { family, budget });
        }
        RecolorSchedule { steps, initial_colors: initial_colors.max(1) }
    }

    /// Number of communication rounds the schedule costs (one per iteration).
    pub fn rounds(&self) -> usize {
        self.steps.len()
    }

    /// Number of colors after the final iteration (or the initial count if empty).
    pub fn final_colors(&self) -> u64 {
        self.steps.last().map_or(self.initial_colors, |s| s.family.new_color_count())
    }

    /// Sum of the per-iteration collision budgets (an upper bound on the defect added by the
    /// whole schedule when the input coloring is legal).
    pub fn total_budget(&self) -> u64 {
        self.steps.iter().map(|s| s.budget).sum()
    }
}

/// The iterative recoloring algorithm (node-program factory): Linial's step and Kuhn's
/// defective coloring count every neighbor, Procedure Arb-Recolor only the parents.
#[derive(Debug, Clone)]
pub struct RecolorAlgorithm<'a> {
    schedule: &'a RecolorSchedule,
    /// Initial color of each vertex, indexed by vertex.
    initial: &'a [u64],
    /// For Arb-Recolor: the graph and the orientation whose parents are counted.
    parents: Option<(&'a Graph, &'a Orientation)>,
}

impl<'a> RecolorAlgorithm<'a> {
    /// Creates the algorithm from a schedule and per-vertex initial colors (must be a legal
    /// coloring with values `< schedule.initial_colors`).
    pub fn new(schedule: &'a RecolorSchedule, initial: &'a [u64]) -> Self {
        RecolorAlgorithm { schedule, initial, parents: None }
    }

    /// Procedure Arb-Recolor (Algorithm 3 of the paper): the same iterations, with collisions
    /// counted only against each vertex's parents under `orientation`.
    pub fn arb_recolor(
        schedule: &'a RecolorSchedule,
        initial: &'a [u64],
        graph: &'a Graph,
        orientation: &'a Orientation,
    ) -> Self {
        RecolorAlgorithm { schedule, initial, parents: Some((graph, orientation)) }
    }
}

/// Node program of [`RecolorAlgorithm`].
#[derive(Debug, Clone)]
pub struct RecolorNode<'a> {
    schedule: &'a RecolorSchedule,
    /// Ports whose colors are counted; `None` counts every neighbor.
    parent_ports: Option<Vec<usize>>,
    /// The counted neighbors' colors of the current round (reused across rounds).
    counted: Vec<u64>,
    /// Digit-row scratch of [`PolynomialFamily::best_alpha`], kept for the whole run.  It stays
    /// unallocated until a round's `α = 0` has a collision, and is then sized for every
    /// counted neighbor; since the digit count never grows along a schedule, that is the
    /// run's only allocation of it.
    rows: Vec<u64>,
    color: u64,
    iteration: usize,
}

impl arbcolor_runtime::node::NodeProgram for RecolorNode<'_> {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
        if self.schedule.steps.is_empty() {
            return Status::Halted;
        }
        outbox.broadcast(self.color);
        // `iteration` indexes the schedule and advances every round (isolated vertices
        // included), so self-schedule while active rather than relying on incoming mail.
        ctx.wake_next_round();
        Status::Active
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &Inbox<'_, u64>, outbox: &mut Outbox<u64>) -> Status {
        self.counted.clear();
        match &self.parent_ports {
            None => self.counted.extend(inbox.iter().map(|(_, &c)| c)),
            Some(ports) => {
                self.counted.extend(ports.iter().filter_map(|&p| inbox.from_port(p).copied()))
            }
        }
        let family = &self.schedule.steps[self.iteration].family;
        self.color = family
            .pair_color(self.color, family.best_alpha(self.color, &self.counted, &mut self.rows));
        self.iteration += 1;
        if self.iteration == self.schedule.steps.len() {
            Status::Halted
        } else {
            outbox.broadcast(self.color);
            ctx.wake_next_round();
            Status::Active
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> u64 {
        self.color
    }
}

impl<'a> Algorithm for RecolorAlgorithm<'a> {
    type Node = RecolorNode<'a>;

    fn node(&self, ctx: &NodeCtx) -> RecolorNode<'a> {
        let v = ctx.vertex;
        RecolorNode {
            schedule: self.schedule,
            parent_ports: self.parents.map(|(graph, o)| o.parent_ports(graph, v).collect()),
            counted: Vec::new(),
            rows: Vec::new(),
            color: self.initial[v],
            iteration: 0,
        }
    }

    fn name(&self) -> &'static str {
        if self.parents.is_some() {
            "arb-recolor"
        } else {
            "iterative-recoloring"
        }
    }
}

/// The output of [`linial_coloring`] and of the defective variant.
#[derive(Debug, Clone)]
pub struct RecolorOutput {
    /// The computed coloring.
    pub coloring: Coloring,
    /// Number of distinct colors actually used.
    pub colors_used: usize,
    /// Upper bound on the palette (`q²` of the last iteration).
    pub palette_bound: u64,
    /// Simulated LOCAL cost.
    pub report: RoundReport,
}

/// Runs a prepared schedule starting from the identifier coloring.
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_schedule(
    graph: &Graph,
    schedule: &RecolorSchedule,
) -> Result<RecolorOutput, DecomposeError> {
    // Initial colors are id − 1 so they fall in [0, id_space).
    let initial: Vec<u64> = graph.ids().iter().map(|&id| id - 1).collect();
    run_schedule_from(graph, schedule, &initial)
}

/// Runs a prepared schedule starting from an arbitrary legal coloring with values below
/// `schedule.initial_colors`.
///
/// # Errors
///
/// Returns [`DecomposeError::InvalidParameter`] if an initial color is out of range, and
/// propagates executor errors.
pub fn run_schedule_from(
    graph: &Graph,
    schedule: &RecolorSchedule,
    initial: &[u64],
) -> Result<RecolorOutput, DecomposeError> {
    if let Some(&bad) = initial.iter().find(|&&c| c >= schedule.initial_colors) {
        return Err(DecomposeError::InvalidParameter {
            reason: format!(
                "initial color {bad} is outside the schedule's color space {}",
                schedule.initial_colors
            ),
        });
    }
    let algorithm = RecolorAlgorithm::new(schedule, initial);
    let result = run_algorithm(graph, &algorithm)?;
    let coloring = Coloring::new(graph, result.outputs)?;
    let colors_used = coloring.distinct_colors();
    Ok(RecolorOutput {
        coloring,
        colors_used,
        palette_bound: schedule.final_colors(),
        report: result.report,
    })
}

/// Linial's deterministic `O(Δ²)`-coloring in `O(log* n)` rounds.
///
/// # Errors
///
/// Propagates executor errors.
///
/// # Examples
///
/// ```
/// use arbcolor_graph::generators;
/// use arbcolor_decompose::linial::linial_coloring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp(100, 0.05, 1)?.with_shuffled_ids(2);
/// let out = linial_coloring(&g)?;
/// assert!(out.coloring.is_legal(&g));
/// # Ok(())
/// # }
/// ```
pub fn linial_coloring(graph: &Graph) -> Result<RecolorOutput, DecomposeError> {
    let id_space = graph.ids().iter().copied().max().unwrap_or(1);
    let schedule = RecolorSchedule::build(id_space, graph.max_degree(), 0);
    run_schedule(graph, &schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log_star::log_star;
    use arbcolor_graph::generators;

    #[test]
    fn schedule_with_zero_budget_has_zero_total_budget() {
        let s = RecolorSchedule::build(1 << 20, 10, 0);
        assert_eq!(s.total_budget(), 0);
        assert!(!s.steps.is_empty());
        // Colors shrink monotonically along the schedule.
        let mut prev = s.initial_colors;
        for step in &s.steps {
            assert!(step.family.new_color_count() < prev);
            prev = step.family.new_color_count();
        }
    }

    #[test]
    fn schedule_length_is_comparable_to_log_star() {
        let s = RecolorSchedule::build(1 << 40, 8, 0);
        // Each step reduces colors from M to roughly (Δ log M)², i.e. a log* -type progression;
        // allow a generous constant factor.
        assert!(s.rounds() as u32 <= 4 * log_star(1 << 40) + 4, "rounds = {}", s.rounds());
    }

    /// `RecolorNode` sizes its digit rows once, for the digit count of the step that first
    /// needs them, so no later step may need more digits.
    #[test]
    fn schedule_digits_never_grow() {
        for initial in [10u64, 1000, 200_000, 1 << 32] {
            for delta in [1usize, 3, 16, 300, 4147] {
                for defect in [0u64, 1, 4, 64, 1000] {
                    let s = RecolorSchedule::build(initial, delta, defect);
                    let digits: Vec<u32> = s.steps.iter().map(|step| step.family.digits).collect();
                    assert!(digits.windows(2).all(|w| w[1] <= w[0]), "{initial} {delta} {defect}");
                }
            }
        }
    }

    #[test]
    fn linial_produces_legal_coloring_with_quadratic_palette() {
        for seed in 0..3u64 {
            let g = generators::gnp(150, 0.06, seed).unwrap().with_shuffled_ids(seed + 10);
            let delta = g.max_degree() as u64;
            let out = linial_coloring(&g).unwrap();
            assert!(out.coloring.is_legal(&g), "coloring must be legal");
            // Palette bound is q² with q = O(Δ) once the schedule converges (k = 1 at the end,
            // q is the smallest prime > Δ) — allow a constant factor of 9 on Δ² plus slack for
            // tiny Δ.
            assert!(
                out.palette_bound <= 9 * delta * delta + 100,
                "palette bound {} too large for Δ = {delta}",
                out.palette_bound
            );
            assert!(out.report.rounds <= 10, "rounds = {}", out.report.rounds);
        }
    }

    #[test]
    fn linial_on_bounded_degree_graph_uses_few_rounds_as_n_grows() {
        let small = generators::grid(8, 8).unwrap().with_shuffled_ids(1);
        let large = generators::grid(40, 40).unwrap().with_shuffled_ids(1);
        let r_small = linial_coloring(&small).unwrap().report.rounds;
        let r_large = linial_coloring(&large).unwrap().report.rounds;
        // log*-type growth: going from 64 to 1600 vertices adds at most a few rounds.
        assert!(r_large <= r_small + 3, "small {r_small}, large {r_large}");
    }

    #[test]
    fn run_schedule_from_rejects_out_of_range_colors() {
        let g = generators::path(4).unwrap();
        let schedule = RecolorSchedule::build(4, 2, 0);
        let err = run_schedule_from(&g, &schedule, &[0, 1, 2, 99]).unwrap_err();
        assert!(matches!(err, DecomposeError::InvalidParameter { .. }));
    }

    #[test]
    fn empty_schedule_is_a_no_op() {
        let g = generators::path(4).unwrap();
        let schedule = RecolorSchedule { steps: vec![], initial_colors: 10 };
        let out = run_schedule(&g, &schedule).unwrap();
        assert_eq!(out.report.rounds, 0);
        assert!(out.coloring.is_legal(&g));
    }
}
