//! Experiment harness reproducing every claim of the paper (the experiment index is the
//! catalog in [`experiments`]; the `experiments` binary regenerates the results).
//!
//! Each experiment function returns a vector of [`Row`]s; the `experiments` binary prints them
//! as markdown tables and JSON lines.  The same functions back the Criterion benchmarks, which
//! time representative configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod perf;
pub mod row;

pub use datasets::{fixture_datasets, Dataset};
pub use experiments::SizeClass;
pub use perf::PerfDoc;
pub use row::Row;
