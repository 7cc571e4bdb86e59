//! Substrate algorithms for the `arbcolor` project.
//!
//! Every procedure in the paper stands on machinery developed in earlier papers.  This crate
//! implements that machinery from scratch, on top of the LOCAL-model simulator of
//! [`arbcolor_runtime`]:
//!
//! | Module | Prior work | Used for |
//! |---|---|---|
//! | [`log_star`] | — | iterated-logarithm utilities (`log* n`) |
//! | [`algebraic`] | Linial FOCS'87, Kuhn SPAA'09 | low-agreement polynomial function families over prime fields |
//! | [`linial`] | Linial FOCS'87 | `O(Δ²)`-coloring in `O(log* n)` rounds |
//! | [`defective`] | Kuhn SPAA'09 (Lemma 2.1 of the paper) | `⌊Δ/p⌋`-defective `O(p²)`-coloring in `O(log* n)` rounds |
//! | [`hpartition`] | Barenboim–Elkin PODC'08 (Lemma 2.3) | H-partitions of degree `⌊(2+ε)a⌋` in `O(log n)` rounds |
//! | [`forests`] | Barenboim–Elkin PODC'08 (Lemmas 2.2(2), 2.4, 2.5) | acyclic orientations with out-degree `O(a)` and forests decompositions |
//! | [`reduction`] | folklore + Kuhn–Wattenhofer PODC'06 | color-count reductions and greedy class sweeps |
//! | [`arb_linear`] | Barenboim–Elkin PODC'08 (Lemma 2.2(1)) | `(⌊(2+ε)a⌋+1)`-coloring of bounded-arboricity graphs |
//! | [`cole_vishkin`] | Cole–Vishkin 1986 | 3-coloring of rooted forests in `O(log* n)` rounds |
//! | [`delta_linear`] | Barenboim–Elkin STOC'09 / Kuhn SPAA'09 | `(Δ+1)`-coloring in time linear in `Δ` |
//!
//! All functions return both their combinatorial output and its total simulated LOCAL cost
//! ([`arbcolor_runtime::RoundReport`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebraic;
pub mod arb_linear;
pub mod cole_vishkin;
pub mod defective;
pub mod delta_linear;
pub mod error;
pub mod forests;
pub mod hpartition;
pub mod linial;
pub mod log_star;
pub mod reduction;

pub use error::DecomposeError;
pub use hpartition::HPartition;
