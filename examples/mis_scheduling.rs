//! Cluster-head election (maximal independent set) on a bounded-arboricity topology.
//!
//! The MIS problem is the other classical symmetry-breaking task the paper improves: on graphs
//! of arboricity `a` it computes an MIS deterministically in `O(a + a^µ log n)` rounds
//! (Section 1.2), whereas the previous deterministic bounds were `O(a√(log n) + log n)` or
//! `2^{O(√(log n))}`.  This example elects cluster heads on a hub-and-spokes deployment and
//! compares against Luby's randomized algorithm.
//!
//! Run with: `cargo run --release --example mis_scheduling`

use arbcolor::mis::mis_bounded_arboricity;
use arbcolor_baselines::luby::luby_mis;
use arbcolor_graph::{degeneracy, generators};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = generators::hub_and_spokes(4_000, 12, 3, 21)?.with_shuffled_ids(4);
    let a = degeneracy::degeneracy(&topology).max(1);
    println!(
        "topology: n = {}, m = {}, Δ = {}, degeneracy = {a}",
        topology.n(),
        topology.m(),
        topology.max_degree()
    );

    let deterministic = mis_bounded_arboricity(&topology, a, 0.5, 1.0)?;
    deterministic.verify(&topology)?;
    println!(
        "paper (deterministic): {} cluster heads in {} simulated rounds",
        deterministic.size, deterministic.report.rounds
    );

    let randomized = luby_mis(&topology, 99);
    assert!(randomized.is_valid(&topology));
    println!(
        "Luby (randomized):     {} cluster heads in {} simulated rounds",
        randomized.size, randomized.report.rounds
    );
    Ok(())
}
