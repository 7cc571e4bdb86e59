//! The CI perf-regression gate: diffs two `--perf-out` documents.
//!
//! Usage:
//!   cargo run --release -p arbcolor_bench --bin perf_gate -- BENCH_PR10.json perf-current.json
//!
//! The first argument is the committed baseline, the second the fresh document the current
//! build produced.  Deterministic columns (colors, rounds, messages,
//! frontier/repair counts, legality) **gate**: any worsening exits non-zero with a report.
//! Wall-clock and speedup columns are advisory — logged with their drift ratio, never
//! gated, because CI hardware varies run to run.  Rows that exist on only one side are
//! reported but do not fail the gate (workloads come and go; the baseline is updated in
//! the same PR that changes them) — unless *no* row matches at all, which would disable
//! the gate silently and therefore fails it loudly instead.

use arbcolor_bench::perf::{compare_docs, PerfDoc};

fn load(path: &str) -> PerfDoc {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    PerfDoc::parse(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: {path} is not a valid perf document: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: perf_gate BASELINE.json CURRENT.json");
        std::process::exit(2);
    };
    let baseline = load(baseline_path);
    let current = load(current_path);
    if baseline.size != current.size {
        eprintln!(
            "perf_gate: size tiers differ (baseline {:?}, current {:?}) — not comparable",
            baseline.size, current.size
        );
        std::process::exit(2);
    }
    let comparison = compare_docs(&baseline, &current);
    print!("{}", comparison.report());
    if comparison.matched_rows == 0 && !baseline.rows.is_empty() {
        // A blanket workload rename (or an empty current selection) would otherwise pass
        // vacuously with the whole gate disabled.
        eprintln!(
            "perf_gate: no current row matched any of the {} baseline rows — if the \
             workload labels were renamed on purpose, update the committed baseline in the \
             same PR",
            baseline.rows.len()
        );
        std::process::exit(1);
    }
    if comparison.is_pass() {
        println!(
            "perf gate PASS: {} of {} baseline rows matched and gated, no deterministic \
             regressions ({} current rows total)",
            comparison.matched_rows,
            baseline.rows.len(),
            current.rows.len()
        );
    } else {
        println!(
            "perf gate FAIL: {} deterministic regression(s) against {baseline_path}",
            comparison.regressions.len()
        );
        std::process::exit(1);
    }
}
