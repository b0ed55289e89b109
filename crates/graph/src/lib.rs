//! # nsky-graph
//!
//! Compressed-sparse-row (CSR) graph engine underpinning the
//! neighborhood-skyline library. Provides:
//!
//! * [`Graph`] — an immutable undirected CSR graph with sorted adjacency
//!   lists (the representation every algorithm in the workspace consumes);
//! * [`GraphBuilder`] — incremental edge accumulation with de-duplication;
//! * [`generators`] — Erdős–Rényi, Chung–Lu power-law, Barabási–Albert,
//!   planted-partition community graphs and the special families of the
//!   paper's Fig. 2 (clique, complete binary tree, cycle, path, star, grid);
//! * [`traversal`] — BFS single/multi-source distances and connected
//!   components with reusable scratch buffers;
//! * [`ops`] — induced subgraphs, vertex/edge sampling for the scalability
//!   sweeps (Fig. 10–12, Table II of the paper), relabeling;
//! * [`degeneracy`] — core decomposition and degeneracy ordering (used by
//!   the maximum-clique substrate);
//! * [`stats`] — degree statistics (Table I columns);
//! * [`threshold`] — threshold graphs (construction, random generation,
//!   recognition), the class whose vicinal preorder is total;
//! * [`delta`] — edge-delta streams and [`DeltaGraph`], the CSR-plus-
//!   overlay mutable view behind incremental skyline maintenance;
//! * [`io`] — whitespace-separated edge-list text I/O (graphs and
//!   edge-delta files);
//! * [`prng`] — a small deterministic SplitMix64/Lehmer PRNG so that every
//!   generated workload is reproducible across platforms and releases.
//!
//! All vertex identifiers are `u32` ([`VertexId`]); graphs are simple
//! (no self-loops, no parallel edges) and undirected.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![warn(missing_docs)]

mod builder;
mod csr;
pub mod degeneracy;
pub mod delta;
pub mod generators;
pub mod io;
pub mod ops;
pub mod prng;
pub mod stats;
pub mod threshold;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{sorted_intersection_count, sorted_is_subset, vid, Graph, VertexId};
pub use delta::{validate_batch, DeltaError, DeltaGraph, EdgeDelta};
