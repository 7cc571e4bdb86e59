//! Quickstart: color a bounded-arboricity graph with the paper's headline algorithm
//! (Corollary 4.6) and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use arbcolor::legal_coloring::{a_power_coloring, APowerParams};
use arbcolor_graph::{degeneracy, generators, properties};
use arbcolor_runtime::obs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A graph whose arboricity is at most 3 by construction (a union of 3 random forests),
    // with identifiers shuffled so nothing depends on vertex numbering.
    let graph = generators::union_of_random_forests(2_000, 3, 42)?.with_shuffled_ids(7);
    let summary = properties::summarize(&graph);
    println!(
        "graph: n = {}, m = {}, Δ = {}, degeneracy = {} (arboricity is between {} and {})",
        summary.n,
        summary.m,
        summary.max_degree,
        summary.degeneracy,
        summary.arboricity_lower,
        summary.degeneracy
    );

    // Corollary 4.6: O(a^{1+η}) colors in O(log a · log n) rounds.  The driver records its
    // phases as spans under the root span while a collector is installed.
    let a = degeneracy::degeneracy(&graph);
    let collector = obs::SpanCollector::new();
    let _recording = obs::install(&collector);
    let root = obs::phase("a-power-coloring");
    let run = a_power_coloring(&graph, a, APowerParams { eta: 0.5, epsilon: 1.0 })?;
    drop(root);

    assert!(run.coloring.is_legal(&graph));
    println!(
        "colored legally with {} colors (palette bound {}) in {} simulated LOCAL rounds and {} messages",
        run.colors_used, run.palette_bound, run.report.rounds, run.report.messages
    );
    println!("phase breakdown:");
    for (name, report) in obs::phase_rollup(&collector.snapshot(), 0) {
        println!("  {:<24} {:>6} rounds {:>10} messages", name, report.rounds, report.messages);
    }
    Ok(())
}
