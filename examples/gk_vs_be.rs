//! Head-to-head: Barenboim–Elkin (arboricity-parameterized, Corollary 4.7) versus
//! Ghaffari–Kuhn (degree-parameterized `(deg+1)`-list coloring) on the same seeded graphs.
//!
//! The two headline algorithms answer the same question — a deterministic `(Δ+1)`-ish
//! coloring in polylogarithmic time — from opposite directions: Barenboim–Elkin exploits
//! *sparsity* (few edges everywhere: `O(log a · log n)` rounds, shines when `a ≪ Δ`), while
//! Ghaffari–Kuhn exploits *list slack* (every vertex has more colors than neighbors:
//! `O(log² Δ · log n)` rounds, `≤ Δ + 1` colors on every graph).
//!
//! Run with: `cargo run --release --example gk_vs_be`

use arbcolor::ghaffari_kuhn::ghaffari_kuhn_coloring;
use arbcolor::legal_coloring::sparse_delta_plus_one;
use arbcolor_graph::{degeneracy, generators, Graph};
use arbcolor_runtime::obs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workloads: Vec<(&str, Graph)> = vec![
        // The Corollary 4.7 regime: tiny arboricity, huge hubs — Barenboim–Elkin territory.
        ("star forests", generators::star_forest_union(2_000, 2, 4, 41)?.with_shuffled_ids(5)),
        // Heavy-tailed degrees with moderate arboricity.
        (
            "preferential attachment",
            generators::barabasi_albert(2_000, 3, 43)?.with_shuffled_ids(6),
        ),
        // Locally dense random graph: degree and arboricity of the same order — Ghaffari–Kuhn
        // territory, since its guarantee does not degrade with density.
        ("G(n, p)", generators::gnp(1_500, 0.01, 47)?.with_shuffled_ids(7)),
    ];

    println!(
        "{:<24} {:>6} {:>4} {:>4} | {:>10} {:>7} {:>9} | {:>10} {:>7} {:>9}",
        "workload",
        "n",
        "Δ",
        "a",
        "BE colors",
        "rounds",
        "messages",
        "GK colors",
        "rounds",
        "messages"
    );
    for (name, g) in &workloads {
        let a = degeneracy::degeneracy(g).max(1);
        let be = sparse_delta_plus_one(g, a, 0.5, 1.0)?;
        let gk = ghaffari_kuhn_coloring(g)?;
        assert!(be.coloring.is_legal(g) && gk.coloring.is_legal(g));
        assert!(gk.colors_used <= g.max_degree() + 1);
        println!(
            "{:<24} {:>6} {:>4} {:>4} | {:>10} {:>7} {:>9} | {:>10} {:>7} {:>9}",
            name,
            g.n(),
            g.max_degree(),
            a,
            be.colors_used,
            be.report.rounds,
            be.report.messages,
            gk.colors_used,
            gk.report.rounds,
            gk.report.messages
        );
    }

    println!("\nGhaffari–Kuhn phase breakdown on the last workload:");
    let collector = obs::SpanCollector::new();
    let _recording = obs::install(&collector);
    let root = obs::phase("ghaffari-kuhn");
    ghaffari_kuhn_coloring(&workloads.last().unwrap().1)?;
    drop(root);
    for (name, report) in obs::phase_rollup(&collector.snapshot(), 0) {
        println!("  {:<20} {:>6} rounds {:>10} messages", name, report.rounds, report.messages);
    }
    Ok(())
}
