//! Cross-crate suite for the second headline algorithm: Ghaffari–Kuhn `(deg+1)`-list
//! coloring against Barenboim–Elkin through the shared registry, on the generator families
//! the E-series experiments race them on.

use arbcolor::ghaffari_kuhn::{ghaffari_kuhn_coloring, ghaffari_kuhn_list_coloring};
use arbcolor::list_coloring::ColorLists;
use arbcolor_baselines::registry::headline_algorithms;
use arbcolor_graph::{generators, Graph};
use arbcolor_runtime::{obs, RoundReport};
use proptest::prelude::*;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("forests", generators::union_of_random_forests(400, 3, 89).unwrap().with_shuffled_ids(10)),
        (
            "star-forests",
            generators::star_forest_union(400, 2, 4, 91).unwrap().with_shuffled_ids(11),
        ),
        (
            "preferential-attachment",
            generators::barabasi_albert(400, 3, 93).unwrap().with_shuffled_ids(12),
        ),
        ("gnp", generators::gnp(300, 0.03, 95).unwrap().with_shuffled_ids(13)),
        ("grid", generators::grid(15, 20).unwrap().with_shuffled_ids(14)),
    ]
}

#[test]
fn both_headliners_are_legal_within_delta_plus_one_on_every_family() {
    for (family, g) in families() {
        for algorithm in headline_algorithms() {
            let outcome = algorithm
                .run(&g)
                .unwrap_or_else(|e| panic!("{} failed on {family}: {e}", algorithm.name()));
            assert!(outcome.coloring.is_legal(&g), "{} illegal on {family}", outcome.name);
            assert!(
                outcome.colors <= g.max_degree() + 1,
                "{} used {} colors on {family}, Δ + 1 = {}",
                outcome.name,
                outcome.colors,
                g.max_degree() + 1
            );
            assert!(outcome.deterministic);
            assert!(outcome.report.rounds > 0);
        }
    }
}

#[test]
fn ghaffari_kuhn_round_envelope_holds_across_families() {
    for (family, g) in families() {
        let run = ghaffari_kuhn_coloring(&g).unwrap();
        let log_delta = ((g.max_degree() + 2) as f64).log2();
        let log_n = ((g.n() + 2) as f64).log2();
        let budget = (6.0 * log_delta * log_delta * log_n).ceil() as usize + 24;
        assert!(
            run.report.rounds <= budget,
            "{family}: {} rounds exceed the O(log² Δ · log n) budget {budget}",
            run.report.rounds
        );
    }
}

#[test]
fn ghaffari_kuhn_is_deterministic_across_runs() {
    // One run under a root span: the coloring plus the rollup of its phase spans.
    let traced = |g: &Graph| {
        let collector = obs::SpanCollector::new();
        let _recording = obs::install(&collector);
        let root = obs::phase("ghaffari-kuhn");
        let run = ghaffari_kuhn_coloring(g).unwrap();
        drop(root);
        (run, obs::phase_rollup(&collector.snapshot(), 0))
    };
    for (family, g) in families() {
        let (a, a_phases) = traced(&g);
        let (b, b_phases) = traced(&g);
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.report, b.report);
        assert_eq!(a_phases, b_phases, "{family}: phase rollups differ");
        let sum = a_phases.iter().fold(RoundReport::zero(), |acc, (_, r)| acc.then(*r));
        assert_eq!(sum, a.report, "{family}: phases do not sum to the report");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_list_instances_with_slack_are_always_solved(
        n in 40usize..200,
        a in 1usize..5,
        seed in 0u64..1_000,
        stride in 1u64..4,
        extra in 0u64..3,
    ) {
        let g = generators::union_of_random_forests(n, a, seed)
            .expect("valid parameters")
            .with_shuffled_ids(seed + 1);
        // Strided lists of size deg + 1 + extra: exercises non-contiguous color spaces and
        // instances whose slack is barely above the greedy threshold.
        let lists: Vec<Vec<u64>> = g
            .vertices()
            .map(|v| {
                let size = g.degree(v) as u64 + 1 + extra;
                (0..size).map(|i| i * stride + (v as u64 % stride.max(1))).collect()
            })
            .collect();
        let instance = ColorLists::new(&g, lists).unwrap();
        let run = ghaffari_kuhn_list_coloring(&g, &instance).unwrap();
        instance.verify(&g, &run.coloring).unwrap();
        prop_assert!(run.colors_used <= instance.color_space() as usize);
    }
}
