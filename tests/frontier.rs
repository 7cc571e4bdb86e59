//! Property suite for the frontier bitset.
//!
//! The executors trust [`Frontier`] for two things: deduplicated marking (delivery marks a
//! receiver once per message, due alarms mark again) and deterministic vertex-ordered
//! enumeration with no leakage between rounds — `take` expands the nonzero 64-bit words in
//! ascending order and zeroes them.  This suite drives multi-round marking patterns derived
//! from the shared generator suite — delivery-style marks along arcs plus alarm-style
//! self-marks — on graphs of up to a few hundred vertices, so marks spread over several
//! words and are made out of word order, and checks every round's schedule against a
//! naively recomputed active set.

use arbcolor_runtime::Frontier;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::generator_suite;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frontier_schedule_equals_naively_recomputed_set_on_the_generator_suite(
        n in 16usize..400,
        seed in 0u64..1_000,
        rounds in 1usize..6,
    ) {
        for (family, g) in generator_suite(n, seed) {
            let mut frontier = Frontier::new(g.n());
            let mut schedule = Vec::new();
            for round in 0..rounds as u64 {
                // Mimic one executor round: a seed-dependent subset of vertices "acts" —
                // each marks itself (alarm) and all of its neighbors (delivery), with
                // duplicate marks whenever two senders share a receiver.  The naive model
                // is a freshly built ordered set.
                let mut naive = BTreeSet::new();
                for v in g.vertices() {
                    if g.id(v).wrapping_mul(2654435761).wrapping_add(round * seed) % 3 == 0 {
                        frontier.mark(v);
                        naive.insert(v);
                        for &u in g.neighbors(v) {
                            frontier.mark(u);
                            naive.insert(u);
                        }
                    }
                }
                prop_assert_eq!(frontier.len(), naive.len(), "len on {} round {}", family, round);
                for v in g.vertices() {
                    prop_assert_eq!(
                        frontier.contains(v),
                        naive.contains(&v),
                        "contains({}) on {} round {}", v, family, round
                    );
                }
                frontier.take(&mut schedule);
                let expected: Vec<usize> = naive.into_iter().collect();
                prop_assert_eq!(&schedule, &expected, "schedule on {} round {}", family, round);
                // Nothing leaks into the next round.
                prop_assert!(frontier.is_empty(), "leak on {} round {}", family, round);
            }
        }
    }
}
