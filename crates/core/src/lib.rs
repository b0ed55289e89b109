//! # nsky-skyline
//!
//! Neighborhood-skyline computation on graphs — a Rust implementation of
//! *"Neighborhood Skyline on Graphs: Concepts, Algorithms and
//! Applications"* (ICDE 2023).
//!
//! A vertex `u` **dominates** `v` (`v ≤ u`) when `N(v) ⊆ N[u]` and the
//! reverse inclusion fails; mutual inclusion (*twins*) is broken by vertex
//! ID — the smaller ID dominates. The **neighborhood skyline** `R` is the
//! set of vertices dominated by no other vertex.
//!
//! ## Algorithms
//!
//! | function | paper | complexity |
//! |---|---|---|
//! | [`base_sky`] | Algorithm 1 (`BaseSky`) | `O(m·dmax)` time, `O(n + m)` space |
//! | [`filter_phase`] | Algorithm 2 (`FilterPhase`) | near-`O(m)` time (see module docs) |
//! | [`filter_refine_sky`] | Algorithm 3 (`FilterRefineSky`) | `O(m + dmax·Σ_{u∈C} deg(u)²)` |
//! | [`two_hop_sky`] | `Base2Hop` baseline | materializes all 2-hop lists |
//! | [`cset_sky`] | `BaseCSet` baseline | `O(dmax·Σ_{u∈C} deg(u))` |
//! | [`oracle::naive_skyline`] | testing oracle | `O(n²·dmax)` |
//! | [`approx::approx_sky`] | ε-approximate skyline (paper future work) | `O(m·dmax)` |
//!
//! ## Operational semantics
//!
//! Following the paper, domination is evaluated against 2-hop
//! neighborhoods. For every vertex with at least one neighbor this equals
//! the mathematical definition (a dominator of a non-isolated vertex is
//! necessarily within two hops); **isolated vertices are skyline members
//! by convention**, although the literal Definition 2 would let any
//! non-isolated vertex dominate them. See [`domination`] for proofs of the
//! facts the algorithms rely on (transitivity of the vicinal preorder,
//! equal-degree inclusion ⇒ mutual inclusion).
//!
//! ## Quick start
//!
//! ```
//! use nsky_graph::Graph;
//! use nsky_skyline::{base_sky, filter_refine_sky, RefineConfig};
//!
//! let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]);
//! let fast = filter_refine_sky(&g, &RefineConfig::default());
//! let slow = base_sky(&g);
//! assert_eq!(fast.skyline, slow.skyline);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![warn(missing_docs)]

pub mod approx;
mod base;
pub mod budget;
mod cset;
pub mod domination;
pub mod dynamic;
pub mod exec;
mod filter_phase;
pub mod incremental;
pub mod memory;
pub mod obs;
pub mod oracle;
mod parallel;
mod refine;
mod result;
pub mod snapshot;
mod two_hop;

pub use base::{base_sky, base_sky_early_exit, base_sky_with};
pub use budget::{Completion, ExecutionBudget};
pub use cset::cset_sky;
pub use dynamic::{BatchStats, MutableSkyline, UpdateOutcome};
pub use exec::ExecutionContext;
pub use filter_phase::{filter_phase, FilterOutcome};
pub use obs::{Counter, CountingRecorder, NoopRecorder, Recorder, RunReport};
pub use parallel::{filter_refine_sky_par, filter_refine_sky_par_with};
pub use refine::{filter_refine_sky, filter_refine_sky_with, RefineConfig};
pub use result::{SkylineResult, SkylineStats};
pub use two_hop::two_hop_sky;
