//! Regression pins for the bitset palette engine.
//!
//! The engine swap (PR 9) replaced every `Vec`-scan pick/strike path of the headliners with
//! word-parallel [`PaletteSet`](arbcolor_graph::PaletteSet) operations over the flat
//! [`ColorPool`](arbcolor_graph::ColorPool) arena.  The swap is supposed to be **invisible**
//! in every output: these tests pin FNV-1a fingerprints of the full color vectors plus the
//! cost counters of Ghaffari–Kuhn and HKMT runs, captured on the pre-engine code, so any
//! future change to the pick paths that shifts even one color on one vertex fails loudly.
//! The same table pins Linial, Kuhn-defective and Arb-Kuhn runs, the three users of the
//! polynomial recoloring step.
//! A second suite races the bitset [`SlotSchedule`] sweep against the preserved
//! [`VecScanPick`] reference on fresh inputs.
//!
//! [`SlotSchedule`]: arbcolor_runtime::algorithms::SlotSchedule
//! [`VecScanPick`]: arbcolor_runtime::algorithms::VecScanPick

use arbcolor::arb_kuhn::arb_kuhn_coloring;
use arbcolor::ghaffari_kuhn::ghaffari_kuhn_coloring;
use arbcolor::hkmt::hkmt_coloring;
use arbcolor::report::ColoringRun;
use arbcolor_baselines::greedy::sequential_greedy;
use arbcolor_decompose::defective::defective_coloring;
use arbcolor_decompose::linial::{linial_coloring, RecolorSchedule};
use arbcolor_graph::degeneracy::degeneracy;
use arbcolor_graph::{generators, ColorPool, Graph};
use arbcolor_runtime::algorithms::{SlotSchedule, SlotSweep, VecScanPick};
use arbcolor_runtime::{obs, Executor};

/// FNV-1a over the color vector: one shifted color anywhere changes the fingerprint.
fn fnv(colors: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in colors {
        h ^= c;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The four fingerprint families, exactly as captured pre-engine.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(400, 0.05, 17).unwrap().with_shuffled_ids(3)),
        ("ba", generators::barabasi_albert(500, 3, 23).unwrap().with_shuffled_ids(5)),
        ("regular", generators::random_regular_like(600, 8, 103).unwrap().with_shuffled_ids(17)),
        ("star-forest", generators::star_forest_union(400, 2, 4, 19).unwrap().with_shuffled_ids(4)),
    ]
}

/// `(family, algo, colors-fnv, colors_used, rounds, messages, total_bits)`.  The GK/HKMT rows
/// were captured on the pre-palette-engine code (commit `4aacd29`): the engine must
/// reproduce every field.
const PINNED: &[(&str, &str, u64, usize, usize, usize, u64)] = &[
    ("gnp", "gk", 0xb1fcc4cfbf84bc61, 19, 81, 16252, 43070),
    ("gnp", "hkmt-42", 0x49ebad75f7ecbfac, 30, 7, 22792, 103737),
    ("gnp", "hkmt-7", 0x0491f4a4d49fb6e1, 30, 9, 21711, 100861),
    ("ba", "gk", 0xbd7b27300f0362b0, 16, 80, 14714, 43723),
    ("ba", "hkmt-42", 0x24bca800fe7db6a4, 24, 9, 7452, 27144),
    ("ba", "hkmt-7", 0xddb57f0fbdfdaee6, 25, 9, 7587, 28205),
    ("regular", "gk", 0xcb0bb38c4b7354db, 8, 41, 14460, 60703),
    ("regular", "hkmt-42", 0xc20f1dea2f0fc753, 9, 9, 13887, 47097),
    ("regular", "hkmt-7", 0xcea404c0620cac81, 9, 9, 14734, 50729),
    ("star-forest", "gk", 0x2b503d103dce6efe, 6, 35, 1640, 1798),
    ("star-forest", "hkmt-42", 0xd3629a08f6d9b17f, 11, 3, 3340, 16262),
    ("star-forest", "hkmt-7", 0x5b799825941a9be4, 11, 3, 3286, 15308),
    // Recoloring rows, captured before Linial, Kuhn-defective and Arb-Recolor shared one
    // α-selection kernel.
    ("forests", "linial", 0x141197aedb73f7e5, 121, 1, 17980, 191386),
    ("forests", "defective-2", 0x83e28bea7d8bab1d, 94, 1, 17980, 191386),
    ("forests", "defective-4", 0x71a40157995bdfdc, 100, 1, 17980, 191386),
    ("forests", "arb-kuhn-0", 0xa723611e78a83d15, 87, 2, 35960, 209366),
    ("forests", "arb-kuhn-1", 0xb0b6b03073fab469, 70, 2, 35960, 209366),
    ("forests", "arb-kuhn-3", 0x864bcdce89e38c80, 68, 2, 35960, 209366),
    ("grid", "linial", 0xa97e78bb873c4704, 38, 2, 28320, 203061),
    ("grid", "defective-2", 0x123fb9b1ecbdbb3d, 25, 2, 28320, 201606),
    ("grid", "defective-4", 0x4d2cadb8d78e8fa6, 59, 1, 14160, 153791),
    ("grid", "arb-kuhn-0", 0x176dc73d3a41f431, 39, 3, 42480, 216722),
    ("grid", "arb-kuhn-1", 0x775b1f4dde7f0a75, 51, 2, 28320, 167951),
    ("grid", "arb-kuhn-3", 0x9c9e7255ba4c2d90, 29, 3, 42480, 211329),
    // Captured before `best_alpha` counted roots: see `hub_defective_coloring_is_pinned`.
    ("hubs", "defective-4", 0xaa18ae09188d5d35, 76, 1, 23972, 263459),
];

fn check_pin(family: &str, algo: &str, run: &ColoringRun) {
    let pin = PINNED
        .iter()
        .find(|(f, a, ..)| *f == family && *a == algo)
        .unwrap_or_else(|| panic!("no pin for {family}/{algo}"));
    let (_, _, fp, colors_used, rounds, messages, total_bits) = *pin;
    assert_eq!(fnv(run.coloring.colors()), fp, "{family}/{algo}: colors diverged from pre-engine");
    assert_eq!(run.colors_used, colors_used, "{family}/{algo}: colors_used diverged");
    assert_eq!(run.report.rounds, rounds, "{family}/{algo}: rounds diverged");
    assert_eq!(run.report.messages, messages, "{family}/{algo}: messages diverged");
    assert_eq!(run.report.total_bits, total_bits, "{family}/{algo}: total_bits diverged");
}

#[test]
fn ghaffari_kuhn_outputs_are_bit_identical_to_the_pre_engine_code() {
    for (family, g) in &families() {
        check_pin(family, "gk", &ghaffari_kuhn_coloring(g).unwrap());
    }
}

#[test]
fn hkmt_outputs_are_bit_identical_to_the_pre_engine_code_for_both_seeds() {
    for (family, g) in &families() {
        for seed in [42u64, 7] {
            check_pin(family, &format!("hkmt-{seed}"), &hkmt_coloring(g, seed).unwrap());
        }
    }
}

/// The two recoloring families: sparse enough that every schedule below runs at least one
/// recoloring iteration, and the grid runs two or three.
fn recoloring_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("forests", generators::union_of_random_forests(3000, 3, 29).unwrap().with_shuffled_ids(7)),
        ("grid", generators::grid(60, 60).unwrap().with_shuffled_ids(11)),
    ]
}

/// Linial, Kuhn-defective (`p` ∈ {2, 4}) and Arb-Kuhn (`d` ∈ {0, 1, 3}) runs on `g`, keyed
/// like the pin table.  Arb-Kuhn gets the degeneracy as its arboricity bound.
fn recoloring_runs(g: &Graph) -> Vec<(String, ColoringRun)> {
    let mut runs = Vec::new();
    let out = linial_coloring(g).unwrap();
    runs.push((
        "linial".to_string(),
        ColoringRun::new(out.coloring, out.palette_bound, out.report),
    ));
    for p in [2usize, 4] {
        let out = defective_coloring(g, p).unwrap().output;
        runs.push((
            format!("defective-{p}"),
            ColoringRun::new(out.coloring, out.palette_bound, out.report),
        ));
    }
    for d in [0usize, 1, 3] {
        let out = arb_kuhn_coloring(g, degeneracy(g), d, 1.0).unwrap();
        runs.push((
            format!("arb-kuhn-{d}"),
            ColoringRun::new(out.coloring, out.palette_bound, out.report),
        ));
    }
    runs
}

#[test]
fn recoloring_outputs_are_pinned() {
    for (family, g) in &recoloring_families() {
        for (algo, run) in recoloring_runs(g) {
            check_pin(family, &algo, &run);
        }
    }
}

/// Kuhn-defective with `p = 4` on a 4-hub star-forest union: the one step uses the 3-digit
/// family over `F_17`, and every hub (degree ≈ 3000, 4000 colors) collides at `α = 0`, so
/// the hubs choose their `α` on the root-counting path of `best_alpha`.
#[test]
fn hub_defective_coloring_is_pinned() {
    let g = generators::star_forest_union(4000, 3, 4, 31).unwrap().with_shuffled_ids(13);
    let (delta, id_space) = (g.max_degree(), g.ids().iter().copied().max().unwrap());
    let schedule = RecolorSchedule::build(id_space, delta, (delta / 4) as u64);
    let family = &schedule.steps[0].family;
    assert_eq!((family.q, family.digits, schedule.steps.len()), (17, 3, 1));
    assert!(family.counts_roots());
    let out = defective_coloring(&g, 4).unwrap().output;
    let run = ColoringRun::new(out.coloring, out.palette_bound, out.report);
    check_pin("hubs", "defective-4", &run);
}

#[test]
fn bitset_and_vecscan_pick_paths_agree_on_greedy_schedules() {
    for (_, g) in &families() {
        let schedule_coloring = sequential_greedy(g, None);
        let mut palettes = ColorPool::new();
        for v in g.vertices() {
            palettes.push_iter(0..=g.degree(v) as u64);
        }
        let slots = g.vertices().map(|v| schedule_coloring.color(v) as usize).collect();
        let schedule = SlotSchedule::lists(slots, palettes, ColorPool::empty_lists(g.n()));
        let bitset = Executor::new(g).run(&SlotSweep(&schedule)).unwrap();
        let vecscan = Executor::new(g).run(&SlotSweep(&VecScanPick(&schedule))).unwrap();
        assert_eq!(bitset.outputs, vecscan.outputs, "pick paths diverged");
        assert_eq!(bitset.report, vecscan.report, "cost diverged between pick paths");
        assert!(schedule.stats().snapshot().picks_served >= g.n() as u64);
    }
}

/// Ghaffari–Kuhn on the same 12-hub union, under a collector.  Level 1 finishes a
/// 3,988-vertex instance with no internal edge (every leaf that chose the low half), the
/// split levels induce parts of a few hubs of degree ≈ 1000 each, and the one deferred
/// vertex is picked from its original list past four forbidden colors.  The pin covers the
/// coloring, the cost and every palette counter, per level included.
#[test]
fn hub_ghaffari_kuhn_run_and_palette_counters_are_pinned() {
    let g = generators::star_forest_union(4000, 3, 4, 31).unwrap().with_shuffled_ids(13);
    let collector = obs::SpanCollector::new();
    let run = {
        let _recording = obs::install(&collector);
        ghaffari_kuhn_coloring(&g).unwrap()
    };
    assert_eq!(fnv(run.coloring.colors()), 0xea94_cb44_d07f_2f48, "hubs/gk: colors diverged");
    assert_eq!(
        (run.colors_used, run.report.rounds, run.report.messages, run.report.total_bits),
        (7, 71, 24194, 25248)
    );
    let palette: Vec<(String, u64)> = collector
        .metrics()
        .counters()
        .filter(|(name, _)| name.starts_with("palette."))
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    let expected = [
        ("palette.colors_struck", 5),
        ("palette.deferred-cleanup.colors_struck", 4),
        ("palette.deferred-cleanup.picks_served", 1),
        ("palette.deferred-cleanup.words_cleared", 0),
        ("palette.level-1.colors_struck", 0),
        ("palette.level-1.picks_served", 3988),
        ("palette.level-1.words_cleared", 0),
        ("palette.level-3.colors_struck", 0),
        ("palette.level-3.picks_served", 4),
        ("palette.level-3.words_cleared", 0),
        ("palette.level-4.colors_struck", 0),
        ("palette.level-4.picks_served", 1),
        ("palette.level-4.words_cleared", 0),
        ("palette.level-5.colors_struck", 0),
        ("palette.level-5.picks_served", 1),
        ("palette.level-5.words_cleared", 0),
        ("palette.level-8.colors_struck", 1),
        ("palette.level-8.picks_served", 5),
        ("palette.level-8.words_cleared", 0),
        ("palette.picks_served", 4000),
        ("palette.words_cleared", 0),
    ];
    let expected: Vec<(String, u64)> =
        expected.iter().map(|&(name, value)| (name.to_string(), value)).collect();
    assert_eq!(palette, expected);
}
