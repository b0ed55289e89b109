//! # nsky-setjoin
//!
//! Set-containment-join substrate — the **LC-Join**-style baseline the
//! paper compares against (Deng et al., "LCJoin: Set Containment Join via
//! List Crosscutting", ICDE 2019).
//!
//! The neighborhood-skyline problem embeds into set containment join: with
//! the data set `S = { N[w] : w ∈ V }` and the query set `Q = { N(u) :
//! u ∈ V }`, vertex `u` is dominated exactly when some `w ≠ u` has
//! `N(u) ⊆ N[w]` (modulo the twin tie-break). The paper's point — which
//! this crate reproduces — is that general-purpose containment join is a
//! poor fit: it indexes *all* of `S` although domination partners can
//! only be 2-hop neighbors, and `|Q| ≈ |S|` makes the approach memory
//! heavy (Fig. 3/4; out-of-memory on WikiTalk).
//!
//! * [`InvertedIndex`] — postings lists over set elements;
//! * [`containment_join`] / [`InvertedIndex::supersets_of`] — rarest-first
//!   list crosscutting;
//! * [`lc_join_skyline`] — the skyline driver on top of the join.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![warn(missing_docs)]

mod index;
mod prefix_tree;
mod skyline;

pub use index::{containment_join, InvertedIndex};
pub use prefix_tree::PrefixTree;
pub use skyline::{lc_join_cost_estimate, lc_join_memory, lc_join_skyline, LcJoinResult};
