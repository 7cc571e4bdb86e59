//! Scale-tier benchmark of the coloring service and the headline colorings.
//!
//! ```text
//! scalebench --workload <serve-write|serve-read|color-sparse|color-hubs> --seed N
//!            --seconds S --trace <0|1> --serviced PATH --out DIR
//! ```
//!
//! Prints human-readable figure and check lines, one `{"report": …}` line (provenance,
//! workload shape, figures with their within-run spread, checks), and last the result line
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  Exits 1 when a check fails or
//! the run cannot complete.  `run.py` builds this binary and the daemon and supplies the
//! provenance through `SCALEBENCH_*` environment variables; see README.md.

mod calibrate;
mod color;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

/// Command-line options shared by every workload.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serviced: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serviced: PathBuf::new(),
        out: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("cannot parse {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => options.workload = value,
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => options.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => options.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--serviced" => options.serviced = PathBuf::from(value),
            "--out" => options.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(options)
}

fn run(options: &Options, outcome: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("cannot create {}: {e}", options.out.display()))?;
    match options.workload.as_str() {
        "serve-write" => serve::run(serve::Mix::Write, options, outcome),
        "serve-read" => serve::run(serve::Mix::Read, options, outcome),
        "color-sparse" => color::run(color::Family::Sparse, options, outcome),
        "color-hubs" => color::run(color::Family::Hubs, options, outcome),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn provenance(options: &Options) -> Vec<(String, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    [
        ("nproc", nproc.to_string()),
        ("commit", env("SCALEBENCH_COMMIT")),
        ("source_digest", env("SCALEBENCH_SOURCE_DIGEST")),
        ("rustc", env("SCALEBENCH_RUSTC")),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("workload", options.workload.clone()),
        ("seed", options.seed.to_string()),
        ("seconds", options.seconds.to_string()),
        ("trace", options.trace.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("scalebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    if let Err(e) = run(&options, &mut outcome) {
        eprintln!("scalebench: {} failed: {e}", options.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", outcome.report_lines(&provenance(&options)));
    println!("{}", outcome.result_line(options.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("scalebench: a correctness check failed");
        ExitCode::FAILURE
    }
}
