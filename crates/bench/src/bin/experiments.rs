//! Regenerates every experiment table (the experiments are defined in
//! `crates/bench/src/experiments.rs`).
//!
//! Usage:
//!   cargo run --release -p arbcolor_bench --bin experiments             # all experiments, scale 1
//!   cargo run --release -p arbcolor_bench --bin experiments -- E8       # one experiment
//!   cargo run --release -p arbcolor_bench --bin experiments -- E19,E20  # a comma-separated list
//!   cargo run --release -p arbcolor_bench --bin experiments -- all 2    # all, scale 2
//!   cargo run --release -p arbcolor_bench --bin experiments -- E8 1 --json
//!   cargo run --release -p arbcolor_bench --bin experiments -- --smoke  # CI tier: tiny graphs
//!   cargo run --release -p arbcolor_bench --bin experiments -- --smoke --par 4
//!
//! `--smoke` shrinks every workload to the smoke tier (the CI `bench-smoke` job runs it with
//! `--json` and archives the rows as a workflow artifact on every pull request).  With
//! `--json` the output is pure JSON lines — one row object per line, no markdown headers —
//! so it can be piped straight into a file or a line-oriented tool.
//!
//! `--par N` (or `--par=N`) and `--chunk-size N` (or `--chunk-size=N`) build the one
//! `arbcolor_runtime::RunConfig` installed for the whole invocation: every experiment runs
//! on the work-stealing executor (`arbcolor_runtime::shard`) with a budget of `N` threads
//! (default 1, which steps every round on the calling thread) and the given chunk size
//! (default 1024 frontier vertices per steal).  Results are bit-identical at every `N` —
//! the CI `bench-smoke` job runs the tier under `--par 1` and `--par 4` and fails on any
//! diff — only wall-clock changes.  E17 additionally performs its own 1-vs-4-thread sweep
//! to report speedups; experiments that switch thread count keep the chunk size.  A run
//! uses at most one worker per chunk of its graph, so a small chunk size also spreads
//! small graphs across the threads — the CI diff leg runs `--chunk-size 7` so even the
//! tiny smoke graphs execute on several workers.  Results are bit-identical at every chunk
//! size; only the steal granularity (and thus load balance) changes.
//!
//! `--seed N` (or `--seed=N`) sets the seed (default 42) that randomized contenders derive
//! their PRNGs from — currently the HKMT headliner of E22 and E23, which take it as an
//! argument through the catalog.  For a fixed seed every table is bit-identical across
//! executors and thread counts; the CI `congest-smoke` job runs E22 under both executors
//! with the same seed and diffs the rows.
//!
//! `--perf-out FILE` (or `--perf-out=FILE`) additionally writes the performance-tracking
//! rows (the experiments in `arbcolor_bench::perf::PERF_EXPERIMENTS` — currently the
//! E17/E18 scale and routing races, the E19/E20 ingestion and dynamic-recoloring
//! workloads, the E21 frontier-collapse trace, the E22 CONGEST bandwidth race, the E23
//! per-phase cost breakdown, the E24 palette-engine race, and the E25 sustained-update
//! service benchmark) as one machine-readable JSON document (schema
//! `arbcolor-perf-v1`).  The CI `bench-smoke` job writes it to `perf-current.json` and the
//! `perf_gate` binary diffs its deterministic columns against the committed
//! `BENCH_PR29.json` baseline, failing the build on regressions (wall-clock columns stay
//! advisory).
//!
//! `--trace-out FILE` (or `--trace-out=FILE`) installs an observability collector
//! (`arbcolor_runtime::obs`) for the whole run and writes a Chrome trace-event JSON file on
//! exit: every executor run and every instrumented driver phase becomes a nested slice
//! (load the file at `ui.perfetto.dev` or `chrome://tracing`), and every executor round
//! becomes an instant event.  A per-phase summary table and the metrics registry (run counters plus
//! power-of-two round/message histograms) are printed to stderr.  The CI `trace-smoke` job
//! validates the file's schema and slice nesting with `jq` on every pull request.

use arbcolor_bench::experiments::{self, SizeClass};
use arbcolor_bench::perf::{PerfDoc, PERF_EXPERIMENTS};
use arbcolor_bench::Row;
use arbcolor_runtime::{obs, Executor, ExecutorKind, RunConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");

    // Collect positionals while pulling out `--flag VALUE` options (with `=` forms).
    let mut par: Option<&str> = None;
    let mut chunk_size: Option<&str> = None;
    let mut perf_out: Option<&str> = None;
    let mut seed: Option<&str> = None;
    let mut trace_out: Option<&str> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        for (flag, slot) in [
            ("--par", &mut par),
            ("--chunk-size", &mut chunk_size),
            ("--perf-out", &mut perf_out),
            ("--seed", &mut seed),
            ("--trace-out", &mut trace_out),
        ] {
            if arg == flag {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{flag} expects a value (e.g. --par 4, --perf-out perf.json)");
                    std::process::exit(1);
                };
                *slot = Some(value.as_str());
                i += 1; // skip the value
            } else if let Some(value) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                *slot = Some(value);
            }
        }
        if !arg.starts_with("--") {
            positional.push(arg);
        }
        i += 1;
    }
    let parse_flag = |flag: &str, value: Option<&str>| -> Option<usize> {
        value.map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got {v:?}");
                std::process::exit(1);
            })
        })
    };
    // `--par`/`--chunk-size`: the run configuration of every experiment in this invocation.
    let executor = ExecutorKind::Sharded {
        threads: parse_flag("--par", par).unwrap_or(1).max(1),
        chunk_size: parse_flag("--chunk-size", chunk_size)
            .unwrap_or(Executor::DEFAULT_CHUNK_SIZE)
            .max(1),
    };
    let _config = RunConfig { executor, ..RunConfig::default() }.install();
    let seed = seed.map_or(experiments::DEFAULT_SEED, |value| {
        value.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("--seed expects a number, got {value:?}");
            std::process::exit(1);
        })
    });

    // `--trace-out`: record every executor run and driver phase for the whole invocation.
    let collector = trace_out.map(|_| obs::SpanCollector::new());
    let _recording = collector.as_ref().map(obs::install);

    // The experiment selection: `all`, one id, or a comma-separated list (`E17,E18`;
    // empty segments from trailing commas are ignored).
    let which: Vec<String> = positional
        .first()
        .map(|s| {
            s.split(',').map(|id| id.trim().to_uppercase()).filter(|id| !id.is_empty()).collect()
        })
        .unwrap_or_else(|| vec!["ALL".to_string()]);
    if which.is_empty() {
        eprintln!("empty experiment selection; known ids are E1..E25 or 'all'");
        std::process::exit(1);
    }
    let all = which.iter().any(|id| id == "ALL");
    let sz = if smoke {
        SizeClass::Smoke
    } else {
        SizeClass::Scale(positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(1))
    };

    // Filter the lazy catalog first so selecting one experiment runs only that experiment.
    let catalog = experiments::catalog(seed);
    let unknown: Vec<&String> =
        which.iter().filter(|w| *w != "ALL" && !catalog.iter().any(|(id, _)| id == w)).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s) {unknown:?}; known ids are E1..E25 or 'all'");
        std::process::exit(1);
    }
    let selected: Vec<_> =
        catalog.into_iter().filter(|(id, _)| all || which.iter().any(|w| w == id)).collect();
    let mut perf_rows: Vec<Row> = Vec::new();
    let mut perf_ids: Vec<String> = Vec::new();
    for (id, run) in selected {
        let rows = run(sz);
        if json {
            println!("{}", Row::to_json_lines(&rows));
        } else {
            println!("\n## {id}\n");
            println!("{}", Row::to_markdown(&rows));
        }
        if perf_out.is_some() && PERF_EXPERIMENTS.contains(&id) {
            perf_ids.push(id.to_string());
            perf_rows.extend(rows);
        }
    }
    if let Some(path) = perf_out {
        if perf_rows.is_empty() {
            eprintln!(
                "--perf-out: no perf rows collected (the selection {which:?} excludes \
                 {PERF_EXPERIMENTS:?}); writing an empty document to {path}"
            );
        }
        let doc = PerfDoc::new(if smoke { "smoke" } else { "scale" }, perf_ids, perf_rows);
        let body = serde_json::to_string_pretty(&doc).expect("perf rows are serializable");
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write --perf-out file {path}: {e}");
            std::process::exit(1);
        });
    }
    if let (Some(path), Some(collector)) = (trace_out, collector.as_ref()) {
        std::fs::write(path, obs::chrome_trace_json(collector)).unwrap_or_else(|e| {
            eprintln!("cannot write --trace-out file {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("{}", obs::summary_table(collector));
        let metrics = collector.metrics();
        if !metrics.is_empty() {
            eprintln!("{}", metrics.render());
        }
        eprintln!("wrote {} spans to {path} (load at ui.perfetto.dev)", collector.len());
    }
}
