//! A synchronous LOCAL-model simulator.
//!
//! The paper's cost model is the classical **LOCAL** model: every vertex of the input graph
//! hosts a processor with a unique identifier; computation proceeds in synchronous rounds; in
//! each round every vertex may send one message to each neighbor, receive the messages its
//! neighbors sent in the same round, and perform arbitrary local computation.  The *running
//! time* of an algorithm is the number of rounds.
//!
//! This crate provides:
//!
//! * [`NodeProgram`] / [`Algorithm`] — the interface a distributed algorithm implements.  A
//!   node program only ever sees its own [`NodeCtx`] (vertex index, identifier, degree) and
//!   the messages delivered to it, which keeps implementations honest about locality.
//! * [`Executor`] — the round loop: runs an algorithm on a graph until every node halts,
//!   returning the per-vertex outputs and a [`RoundReport`] with round and message counts.
//!   Each round steps only the frontier, in fixed-size chunks that workers steal off a
//!   shared cursor and commit in chunk order, so results are bit-identical at any thread
//!   count and chunk size (see [`shard`]); at the default of one thread the chunks run on
//!   the caller with no pool.  Delivery runs on the pull message fabric (see
//!   [`network`]): a step sends at most one message, a broadcast to every neighbor, which
//!   stays with its sender as one record that each receiver reads in its own step, and
//!   bandwidth is metered on the sender side.
//! * [`mod@reference`] — the pre-fabric `Vec<Vec<…>>` executor with linear-scan routing, kept
//!   as the bit-identity oracle (outputs, reports, and per-round records) and the baseline
//!   the `routing` benches race against.
//! * [`frontier`] — the frontier bitset and the per-vertex halt and alarm book behind
//!   O(|active|) rounds: delivery marks the receiver, programs that must act without mail
//!   return [`Status::WakeAt`], quiescent vertices cost nothing, and a vertex that returned
//!   [`Status::SleepUntil`] or [`Status::HaltAt`] is not stepped on mail at all.
//! * [`shard`] — the round loop's home: the [`Executor`], a hand-rolled [`WorkPool`], and
//!   the thread-scoped [`RunConfig`] (executor kind and cost mode) of [`run_algorithm`].
//! * [`metrics`] — the [`RoundReport`] cost record and its two composition rules
//!   (sequential phases add with [`RoundReport::then`]; parallel executions on disjoint
//!   subgraphs take the maximum with [`parallel_max`]), mirroring how the paper accounts for
//!   the recursion of Procedure Legal-Coloring, where disjoint subgraphs proceed
//!   concurrently.
//! * [`cost`] — CONGEST-model bandwidth accounting: every message reports a measured bit
//!   width ([`MessageCost`]), the executors accumulate per-edge and total bits into the
//!   [`RoundReport`], and [`CostMode::Congest`] turns the `c·log n` bits-per-edge bound of
//!   the CONGEST model into an enforced, typed assertion.
//! * [`obs`] — phase-attributed observability: an RAII span API
//!   ([`obs::phase`]/[`obs::PhaseGuard`]) over a thread-safe hierarchical
//!   [`SpanCollector`], where every span carries a deterministic [`RoundReport`] delta plus
//!   advisory wall time, and every executor run's span one [`obs::RoundInstant`] per round
//!   (the only per-round record); a metrics registry fed by the executors; and exporters to
//!   Chrome trace-event JSON (Perfetto-viewable) and a text summary table.
//!
//! # Example
//!
//! ```
//! use arbcolor_graph::generators;
//! use arbcolor_runtime::{Executor, algorithms::ProposeMaxId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(8)?;
//! let result = Executor::new(&g).run(&ProposeMaxId)?;
//! // After one round every vertex knows the largest identifier in its closed neighborhood.
//! assert_eq!(result.report.rounds, 1);
//! assert!(result.outputs.iter().all(|&max_id| max_id >= 1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod cost;
pub mod frontier;
pub mod metrics;
pub mod network;
pub mod node;
pub mod obs;
pub mod reference;
pub mod shard;

pub use cost::{CostMode, MessageCost};
pub use frontier::Frontier;
pub use metrics::{parallel_max, RoundReport};
pub use network::{ExecutionResult, RuntimeError};
pub use node::{Algorithm, Inbox, NodeCtx, NodeProgram, Outbox, Status};
pub use obs::{PhaseGuard, RecordingGuard, SpanCollector, SpanKind, SpanRecord};
pub use reference::ReferenceExecutor;
pub use shard::{
    default_executor, run_algorithm, set_default_executor, ConfigGuard, Executor, ExecutorKind,
    PoolScope, RunConfig, WorkPool,
};
