//! Procedure **Complete-Orientation** (Lemma 3.3) and Procedure **Partial-Orientation**
//! (Algorithm 1, Theorem 3.5).
//!
//! Both procedures start from an H-partition of degree `A = ⌊(2+ε)a⌋` and orient every edge
//! towards the endpoint with the lexicographically larger `(bucket, color)` pair, where the
//! per-bucket coloring is
//!
//! * a **legal** `O(a)`-coloring for Complete-Orientation — every edge gets a direction, the
//!   out-degree is at most `A` and the length is `O(a · log n)`;
//! * a **`⌊a/t⌋`-defective `O(t²)`-coloring** for Partial-Orientation — edges joining
//!   same-bucket, same-color vertices stay *unoriented* (that is what the deficit pays for),
//!   the out-degree is at most `A`, the length drops to `O(t² · log n)` and the whole
//!   procedure runs in `O(log n)` rounds.

use crate::error::CoreError;
use arbcolor_decompose::defective::defective_coloring;
use arbcolor_decompose::hpartition::{h_partition, HPartition};
use arbcolor_decompose::linial::linial_coloring;
use arbcolor_decompose::reduction::greedy_reduce;
use arbcolor_graph::{Graph, InducedSubgraph, Orientation, Vertex};
use arbcolor_runtime::{parallel_max, ExecutorKind, RoundReport, RunConfig, WorkPool};

/// An acyclic (partial) orientation produced by one of the orientation procedures, together
/// with the parameters the paper's analysis guarantees for it.
#[derive(Debug, Clone)]
pub struct OrientedGraph {
    /// The orientation.
    pub orientation: Orientation,
    /// Guaranteed upper bound on the out-degree (`⌊(2+ε)a⌋`).
    pub out_degree_bound: usize,
    /// Guaranteed upper bound on the deficit (0 for Complete-Orientation, `⌊a/t⌋` for
    /// Partial-Orientation).
    pub deficit_bound: usize,
    /// Upper bound on the number of colors used inside any single bucket; directed paths can
    /// stay inside a bucket for at most this many edges, so the orientation length is at most
    /// `(bucket_palette_bound + 1) · ℓ` — the `O(a log n)` / `O(t² log n)` bounds of
    /// Lemma 3.3 and Theorem 3.5.
    pub bucket_palette_bound: usize,
    /// The measured length (longest consistently oriented path) of the orientation.
    pub measured_length: usize,
    /// The H-partition both procedures are built on (its `report` is the procedure's
    /// H-partition share of [`OrientedGraph::report`]).
    pub partition: HPartition,
    /// Total LOCAL cost: the H-partition, the parallel bucket colorings, and one round to
    /// learn the neighbors' keys.
    pub report: RoundReport,
}

impl OrientedGraph {
    /// Independently re-checks out-degree, deficit and acyclicity against the graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvariantViolated`] if a guarantee does not hold.
    pub fn verify(&self, graph: &Graph) -> Result<(), CoreError> {
        if !self.orientation.is_acyclic(graph) {
            return Err(CoreError::InvariantViolated {
                reason: "orientation contains a directed cycle".to_string(),
            });
        }
        let out = self.orientation.max_out_degree(graph);
        if out > self.out_degree_bound {
            return Err(CoreError::InvariantViolated {
                reason: format!("out-degree {out} exceeds bound {}", self.out_degree_bound),
            });
        }
        let deficit = self.orientation.max_deficit(graph);
        if deficit > self.deficit_bound {
            return Err(CoreError::InvariantViolated {
                reason: format!("deficit {deficit} exceeds bound {}", self.deficit_bound),
            });
        }
        Ok(())
    }
}

/// Per-vertex keys `(bucket, color)` used to orient edges.
fn orient_by_keys(graph: &Graph, key: &[(usize, u64)]) -> Orientation {
    let mut orientation = Orientation::unoriented(graph);
    for &(u, v) in graph.edges() {
        if key[u] == key[v] {
            continue; // stays unoriented (only possible in Partial-Orientation)
        }
        let (from, to) = if key[u] < key[v] { (u, v) } else { (v, u) };
        orientation.orient_towards(graph, from, to).expect("endpoints come from the edge list");
    }
    orientation
}

/// Per-vertex `(bucket, color)` keys, the parallel cost of the bucket phase, and the palette
/// size used inside each bucket.
type BucketColorings = (Vec<(usize, u64)>, RoundReport, Vec<usize>);

/// Colors every bucket subgraph with the provided closure and returns the per-vertex
/// `(bucket, color)` keys plus the parallel cost of the bucket phase.
///
/// The H-partition buckets are vertex-disjoint and the LOCAL model already charges them as
/// one parallel phase, so when the current thread's [`RunConfig`] has a thread budget the
/// buckets are materialized and colored on a [`WorkPool`], whose workers run under that
/// same config; the result is identical either way.  A graph that fits in one of the
/// config's chunks stays on the caller — the recursive drivers invoke this on many tiny
/// subgraphs, and those should not pay pool setup costs (the size rule of the
/// [`Executor`](arbcolor_runtime::Executor)).
fn color_buckets<F>(
    graph: &Graph,
    partition: &HPartition,
    color_bucket: F,
) -> Result<BucketColorings, CoreError>
where
    F: Fn(&Graph) -> Result<(Vec<u64>, RoundReport, usize), CoreError> + Send + Sync,
{
    let threads = match RunConfig::current().executor {
        ExecutorKind::Sharded { threads, chunk_size } if graph.n() > chunk_size => threads,
        _ => 1,
    };
    let order: Vec<usize> = (0..partition.buckets().len()).collect();
    color_buckets_in_order(graph, partition, &order, threads, color_bucket)
}

/// One bucket's coloring, before it is merged into the per-vertex keys.
type BucketResult<'g> = Result<(InducedSubgraph<'g>, Vec<u64>, RoundReport, usize), CoreError>;

/// [`color_buckets`] with an explicit bucket processing order and thread budget.
///
/// The buckets are vertex-disjoint and the model charges them as one parallel phase, so
/// neither the order in which the simulator happens to materialize them nor the number of
/// pool threads may ever influence the result; the property tests below drive this with
/// shuffled orders and varying thread counts.
fn color_buckets_in_order<F>(
    graph: &Graph,
    partition: &HPartition,
    order: &[usize],
    threads: usize,
    color_bucket: F,
) -> Result<BucketColorings, CoreError>
where
    F: Fn(&Graph) -> Result<(Vec<u64>, RoundReport, usize), CoreError> + Send + Sync,
{
    let buckets = partition.buckets();
    let selected: Vec<usize> = order.iter().copied().filter(|&b| !buckets[b].is_empty()).collect();
    let color_one = |bucket: usize| -> BucketResult<'_> {
        let sub = InducedSubgraph::new(graph, &buckets[bucket]);
        let (colors, report, palette) = color_bucket(&sub.graph)?;
        Ok((sub, colors, report, palette))
    };
    let colored: Vec<BucketResult<'_>> = if threads > 1 && selected.len() > 1 {
        WorkPool::new(threads).map(selected, |_, bucket| color_one(bucket))
    } else {
        selected.into_iter().map(color_one).collect()
    };

    // Merge in `order` sequence — deterministic regardless of which worker colored what.
    let mut key: Vec<(usize, u64)> = (0..graph.n()).map(|v| (partition.h_index[v], 0)).collect();
    let mut branch_reports = Vec::new();
    let mut palette_sizes = Vec::new();
    for result in colored {
        let (sub, colors, report, palette) = result?;
        branch_reports.push(report);
        palette_sizes.push(palette);
        for (child, &c) in colors.iter().enumerate() {
            let parent: Vertex = sub.map.to_parent(child);
            key[parent].1 = c;
        }
    }
    Ok((key, parallel_max(&branch_reports), palette_sizes))
}

/// Procedure **Complete-Orientation** (Lemma 3.3): a complete acyclic orientation with
/// out-degree `⌊(2+ε)a⌋` and length `O(a · log n)`.
///
/// # Errors
///
/// Propagates substrate errors; in particular the H-partition rejects under-estimated
/// arboricity bounds.
pub fn complete_orientation(
    graph: &Graph,
    arboricity: usize,
    epsilon: f64,
) -> Result<OrientedGraph, CoreError> {
    let partition = h_partition(graph, arboricity, epsilon)?;
    let bound = partition.degree_bound;

    // Legally color every bucket with at most `A + 1` colors (buckets have maximum degree ≤ A).
    let (key, bucket_cost, palettes) = color_buckets(graph, &partition, |bucket| {
        let linial = linial_coloring(bucket)?;
        let palette = bucket.max_degree() as u64 + 1;
        let reduced = greedy_reduce(bucket, &linial.coloring, palette)?;
        let report = linial.report.then(reduced.report);
        Ok((reduced.coloring.colors().to_vec(), report, palette as usize))
    })?;
    // Learning the neighbors' (bucket, color) keys takes one round.
    let report = partition.report.then(bucket_cost).then(RoundReport::new(1, 2 * graph.m()));

    let orientation = orient_by_keys(graph, &key);
    let measured_length = orientation.length(graph)?;
    let oriented = OrientedGraph {
        orientation,
        out_degree_bound: bound,
        deficit_bound: 0,
        bucket_palette_bound: palettes.into_iter().max().unwrap_or(1),
        measured_length,
        partition,
        report,
    };
    oriented.verify(graph)?;
    Ok(oriented)
}

/// Procedure **Partial-Orientation** (Algorithm 1, Theorem 3.5): an acyclic partial
/// orientation with out-degree `⌊(2+ε)a⌋`, deficit at most `⌊a/t⌋` and length `O(t² · log n)`,
/// computed in `O(log n)` rounds.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `t = 0`; propagates substrate errors.
pub fn partial_orientation(
    graph: &Graph,
    arboricity: usize,
    t: usize,
    epsilon: f64,
) -> Result<OrientedGraph, CoreError> {
    if t == 0 {
        return Err(CoreError::InvalidParameter { reason: "t must be positive".to_string() });
    }
    let arboricity = arboricity.max(1);
    let partition = h_partition(graph, arboricity, epsilon)?;
    let bound = partition.degree_bound;
    let deficit_bound = arboricity / t;

    // Defectively color every bucket: the defect parameter p is chosen per bucket so the
    // defect stays below ⌊a/t⌋ (buckets have maximum degree ≤ A = (2+ε)a, so p = O(t)).
    let (key, bucket_cost, palettes) = color_buckets(graph, &partition, |bucket| {
        let delta = bucket.max_degree();
        if delta == 0 {
            return Ok((vec![0; bucket.n()], RoundReport::zero(), 1));
        }
        let p = if deficit_bound == 0 {
            // A legal coloring is required (defect 0): fall back to Linial on the bucket.
            let linial = linial_coloring(bucket)?;
            return Ok((
                linial.coloring.colors().to_vec(),
                linial.report,
                linial.palette_bound as usize,
            ));
        } else {
            (delta * t).div_ceil(arboricity).max(1)
        };
        let defective = defective_coloring(bucket, p)?;
        if defective.measured_defect > deficit_bound {
            return Err(CoreError::InvariantViolated {
                reason: format!(
                    "bucket defect {} exceeds ⌊a/t⌋ = {deficit_bound}",
                    defective.measured_defect
                ),
            });
        }
        Ok((
            defective.output.coloring.colors().to_vec(),
            defective.output.report,
            defective.output.palette_bound as usize,
        ))
    })?;
    let report = partition.report.then(bucket_cost).then(RoundReport::new(1, 2 * graph.m()));

    let orientation = orient_by_keys(graph, &key);
    let measured_length = orientation.length(graph)?;
    let oriented = OrientedGraph {
        orientation,
        out_degree_bound: bound,
        deficit_bound,
        bucket_palette_bound: palettes.into_iter().max().unwrap_or(1),
        measured_length,
        partition,
        report,
    };
    oriented.verify(graph)?;
    Ok(oriented)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn complete_orientation_matches_lemma_3_3() {
        for (k, n) in [(2usize, 200usize), (3, 300)] {
            let g = generators::union_of_random_forests(n, k, 3).unwrap().with_shuffled_ids(5);
            let oriented = complete_orientation(&g, k, 1.0).unwrap();
            oriented.verify(&g).unwrap();
            assert_eq!(oriented.orientation.unoriented_count(), 0);
            assert_eq!(oriented.deficit_bound, 0);
            // Length bound O(a log n): buckets contribute at most (A + 1) each, crossings ℓ − 1.
            let a_bound = oriented.out_degree_bound;
            let length_bound = (a_bound + 2) * (oriented.partition.num_buckets + 1);
            assert!(
                oriented.measured_length <= length_bound,
                "length {} exceeds O(a log n) bound {length_bound}",
                oriented.measured_length
            );
        }
    }

    #[test]
    fn partial_orientation_matches_theorem_3_5() {
        let k = 4usize;
        let g = generators::union_of_random_forests(400, k, 9).unwrap().with_shuffled_ids(6);
        for t in [1usize, 2, 4] {
            let oriented = partial_orientation(&g, k, t, 1.0).unwrap();
            oriented.verify(&g).unwrap();
            assert_eq!(oriented.deficit_bound, k / t);
            assert!(oriented.orientation.max_deficit(&g) <= k / t);
            assert!(oriented.orientation.max_out_degree(&g) <= oriented.out_degree_bound);
        }
    }

    #[test]
    fn partial_orientation_runs_in_few_rounds() {
        let g = generators::union_of_random_forests(600, 3, 2).unwrap().with_shuffled_ids(8);
        let oriented = partial_orientation(&g, 3, 2, 1.0).unwrap();
        // O(log n) rounds: the H-partition dominates; allow a generous constant.
        let bound = 12 * ((g.n() as f64).log2().ceil() as usize + 2);
        assert!(
            oriented.report.rounds <= bound,
            "rounds {} exceed O(log n) bound {bound}",
            oriented.report.rounds
        );
    }

    #[test]
    fn orientation_length_respects_the_bucket_palette_times_log_n_bound() {
        // The Theorem 3.5 / Lemma 3.3 length argument: a directed path alternates between at
        // most `palette` consecutive same-bucket edges and at most ℓ − 1 bucket crossings.
        let g = generators::gnp(400, 0.05, 7).unwrap().with_shuffled_ids(9);
        let a = arbcolor_graph::degeneracy::degeneracy(&g);
        for oriented in
            [complete_orientation(&g, a, 1.0).unwrap(), partial_orientation(&g, a, 2, 1.0).unwrap()]
        {
            let bound = (oriented.bucket_palette_bound + 1) * (oriented.partition.num_buckets + 1);
            assert!(
                oriented.measured_length <= bound,
                "length {} exceeds structural bound {bound}",
                oriented.measured_length
            );
            assert!(oriented.orientation.max_deficit(&g) <= oriented.deficit_bound);
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let g = generators::path(5).unwrap();
        assert!(matches!(
            partial_orientation(&g, 1, 0, 1.0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(complete_orientation(&generators::complete(20).unwrap(), 1, 1.0).is_err());
    }

    mod bucket_order_independence {
        use super::super::*;
        use arbcolor_decompose::linial::linial_coloring;
        use arbcolor_decompose::reduction::greedy_reduce;
        use arbcolor_graph::generators;
        use proptest::prelude::*;

        /// The legal per-bucket coloring closure of Procedure Complete-Orientation.
        fn legal_bucket(bucket: &Graph) -> Result<(Vec<u64>, RoundReport, usize), CoreError> {
            let linial = linial_coloring(bucket)?;
            let palette = bucket.max_degree() as u64 + 1;
            let reduced = greedy_reduce(bucket, &linial.coloring, palette)?;
            let report = linial.report.then(reduced.report);
            Ok((reduced.coloring.colors().to_vec(), report, palette as usize))
        }

        /// Derives a deterministic permutation of `0..len` from a seed (Fisher–Yates with a
        /// SplitMix-style generator).
        fn permutation(len: usize, mut seed: u64) -> Vec<usize> {
            let mut order: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (seed >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            order
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn processing_order_never_affects_legality_or_palette(
                n in 60usize..160,
                a in 2usize..5,
                seed in 0u64..1_000,
            ) {
                let g = generators::union_of_random_forests(n, a, seed)
                    .expect("valid parameters")
                    .with_shuffled_ids(seed + 1);
                let partition = h_partition(&g, a, 1.0).unwrap();
                let num_buckets = partition.buckets().len();
                let identity: Vec<usize> = (0..num_buckets).collect();
                let reversed: Vec<usize> = identity.iter().rev().copied().collect();
                let shuffled = permutation(num_buckets, seed ^ 0x5DEECE66D);

                let (base_key, base_cost, base_palettes) =
                    color_buckets_in_order(&g, &partition, &identity, 1, legal_bucket).unwrap();
                let base_orientation = orient_by_keys(&g, &base_key);
                prop_assert!(base_orientation.is_acyclic(&g));

                for order in [&reversed, &shuffled] {
                    let (key, cost, palettes) =
                        color_buckets_in_order(&g, &partition, order, 1, legal_bucket).unwrap();
                    // Same per-vertex (bucket, color) keys → same orientation, same legality.
                    prop_assert_eq!(&key, &base_key);
                    prop_assert_eq!(cost, base_cost);
                    prop_assert_eq!(
                        palettes.iter().max(),
                        base_palettes.iter().max(),
                        "palette bound depends on bucket order"
                    );
                    prop_assert_eq!(orient_by_keys(&g, &key), base_orientation.clone());
                }

                // The parallel variant: coloring the buckets on the work pool must return
                // exactly what the sequential path returns for the same processing order,
                // for any thread count.
                for threads in [2usize, 4] {
                    for order in [&identity, &shuffled] {
                        let (seq_key, seq_cost, seq_palettes) =
                            color_buckets_in_order(&g, &partition, order, 1, legal_bucket)
                                .unwrap();
                        let (par_key, par_cost, par_palettes) =
                            color_buckets_in_order(&g, &partition, order, threads, legal_bucket)
                                .unwrap();
                        prop_assert_eq!(&par_key, &seq_key);
                        prop_assert_eq!(par_cost, seq_cost);
                        prop_assert_eq!(&par_palettes, &seq_palettes);
                        prop_assert_eq!(&par_key, &base_key);
                    }
                }

                // The keys double as a legal coloring of the graph (distinct on every edge),
                // which is exactly what the downstream orientation relies on.
                for &(u, v) in g.edges() {
                    prop_assert_ne!(base_key[u], base_key[v]);
                }
            }
        }
    }

    #[test]
    fn figure_1_structure_few_bucket_crossings_on_directed_paths() {
        // Reproduces the structural claim of Figure 1: along any directed path the number of
        // edges crossing between different H-buckets is at most ℓ − 1.
        let g = generators::union_of_random_forests(500, 3, 13).unwrap().with_shuffled_ids(10);
        let oriented = partial_orientation(&g, 3, 3, 1.0).unwrap();
        let path = oriented.orientation.longest_path(&g).unwrap();
        let crossings = path
            .windows(2)
            .filter(|w| oriented.partition.h_index[w[0]] != oriented.partition.h_index[w[1]])
            .count();
        assert!(
            crossings < oriented.partition.num_buckets,
            "{crossings} crossings but only {} buckets",
            oriented.partition.num_buckets
        );
    }
}
