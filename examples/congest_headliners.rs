//! Bandwidth head-to-head: all three headliners under CONGEST accounting on one fixture.
//!
//! The LOCAL model charges rounds only; the CONGEST model additionally caps every edge at
//! `O(log n)` bits per round.  This example runs Barenboim–Elkin, Ghaffari–Kuhn, and the
//! randomized HKMT trials on the same preferential-attachment graph with the runtime in
//! [`CostMode::Congest`], so the per-edge budget is *enforced* while the report records the
//! two bandwidth columns: `total_bits` (aggregate traffic of the whole pipeline) and
//! `max_edge_bits` (the worst single edge in any single round).
//!
//! The interesting trade surfaces immediately: the randomized trials finish in far fewer
//! rounds, but pay for it with denser per-round traffic — exactly the rounds-versus-bits
//! tension the CONGEST model exists to make visible.
//!
//! Run with: `cargo run --release --example congest_headliners`

use arbcolor_baselines::registry::congest_headliners;
use arbcolor_graph::generators;
use arbcolor_runtime::{CostMode, RunConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::barabasi_albert(2_000, 3, 101)?.with_shuffled_ids(8);
    let budget = CostMode::congest_for(g.n(), 64);
    let budget_bits = budget.bits_per_edge().expect("congest_for returns Congest");
    let congest = RunConfig { cost_mode: budget, ..RunConfig::default() }.install();

    println!(
        "CONGEST accounting on preferential attachment: n = {}, Δ = {}, budget = {} bits/edge/round\n",
        g.n(),
        g.max_degree(),
        budget_bits
    );
    println!(
        "{:<18} {:>6} {:>7} {:>9} {:>12} {:>14}",
        "headliner", "colors", "rounds", "messages", "total_bits", "max_edge_bits"
    );
    for algorithm in congest_headliners(42) {
        let outcome = algorithm.run(&g).map_err(|e| format!("{} failed: {e}", algorithm.name()))?;
        assert!(outcome.coloring.is_legal(&g));
        assert!(outcome.colors <= g.max_degree() + 1);
        assert!(outcome.report.max_edge_bits <= budget_bits);
        println!(
            "{:<18} {:>6} {:>7} {:>9} {:>12} {:>14}",
            outcome.name,
            outcome.colors,
            outcome.report.rounds,
            outcome.report.messages,
            outcome.report.total_bits,
            outcome.report.max_edge_bits
        );
    }

    drop(congest);
    println!("\nEvery run stayed within the enforced budget — the executors would have");
    println!("rejected any single-edge round above {budget_bits} bits with a typed error.");
    Ok(())
}
