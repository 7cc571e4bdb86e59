//! Uniform execution summaries returned by the top-level coloring entry points.

use arbcolor_graph::{Coloring, Graph};
use arbcolor_runtime::RoundReport;
use serde::{Deserialize, Serialize};

/// The result of running one of the paper's coloring algorithms.
#[derive(Debug, Clone)]
pub struct ColoringRun {
    /// The computed (legal) coloring of the input graph.
    pub coloring: Coloring,
    /// Number of distinct colors actually used.
    pub colors_used: usize,
    /// Theoretical bound on the palette for the chosen parameters.
    pub palette_bound: u64,
    /// Total simulated LOCAL cost.  Drivers that record phase spans charge them with the
    /// reports this total is composed from, so an installed
    /// [`SpanCollector`](arbcolor_runtime::SpanCollector) holds the per-phase breakdown.
    pub report: RoundReport,
}

impl ColoringRun {
    /// Builds a run summary from its parts, computing `colors_used`.
    pub fn new(coloring: Coloring, palette_bound: u64, report: RoundReport) -> Self {
        let colors_used = coloring.distinct_colors();
        ColoringRun { coloring, colors_used, palette_bound, report }
    }

    /// Produces the flat statistics row used by the experiment harness.
    pub fn stats(&self, graph: &Graph) -> RunStats {
        RunStats {
            n: graph.n(),
            m: graph.m(),
            max_degree: graph.max_degree(),
            colors_used: self.colors_used,
            palette_bound: self.palette_bound,
            rounds: self.report.rounds,
            messages: self.report.messages,
            legal: self.coloring.is_legal(graph),
        }
    }
}

/// Flat, serializable summary of a coloring run on a specific graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Maximum degree of the input graph.
    pub max_degree: usize,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// Theoretical palette bound for the chosen parameters.
    pub palette_bound: u64,
    /// Simulated LOCAL rounds.
    pub rounds: usize,
    /// Messages sent.
    pub messages: usize,
    /// Whether the output coloring is legal.
    pub legal: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn stats_reflect_the_coloring() {
        let g = generators::cycle(6).unwrap();
        let coloring = Coloring::new(&g, vec![0, 1, 0, 1, 0, 1]).unwrap();
        let run = ColoringRun::new(coloring, 2, RoundReport::new(3, 12));
        assert_eq!(run.colors_used, 2);
        assert_eq!(run.report, RoundReport::new(3, 12));
        let stats = run.stats(&g);
        assert!(stats.legal);
        assert_eq!(stats.n, 6);
        assert_eq!(stats.rounds, 3);
    }
}
