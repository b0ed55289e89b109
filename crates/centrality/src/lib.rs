//! # nsky-centrality
//!
//! Shortest-path centralities and **group centrality maximization** with
//! neighborhood-skyline pruning (paper Sec. IV-A/B).
//!
//! * [`measure`] — the [`measure::GroupMeasure`] abstraction covering
//!   group closeness (Definition 7), group harmonic (Definition 9) and —
//!   as an extension demonstrating the Sec. IV-D generality claim — group
//!   decay centrality;
//! * [`vertex`] — per-vertex closeness/harmonic centrality (Definitions
//!   6 and 8);
//! * [`group`] — evaluating `GC(S)` / `GH(S)` for explicit groups;
//! * [`greedy`] — the greedy maximization engine: plain re-evaluation
//!   (`BaseGC`/`BaseGH`) or CELF lazy evaluation with pruned marginal-gain
//!   BFS (the `Greedy++`/`Greedy-H` stand-in), optionally restricted to a
//!   candidate set;
//! * [`neisky`] — `NeiSkyGC` / `NeiSkyGH`: the same engine restricted to
//!   the neighborhood skyline, justified by Lemma 3/4 (if `v ≤ u`, the
//!   marginal gain of `u` is at least that of `v`);
//! * [`betweenness`] — Brandes betweenness, exact group betweenness, and
//!   the skyline-pruned greedy the paper names as future work (Sec. IV-D).
//!
//! ## Disconnected graphs
//!
//! `d(v, S) = ∞` contributes `0` to harmonic scores (the standard
//! convention) and a penalty distance of `n` to closeness sums, keeping
//! `GC` finite and monotone on disconnected graphs.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![warn(missing_docs)]

pub mod betweenness;
pub mod greedy;
pub mod group;
pub mod measure;
pub mod neisky;
pub mod vertex;
