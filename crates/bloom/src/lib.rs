//! # nsky-bloom
//!
//! Bit-set and bloom-filter substrate for the neighborhood-skyline library.
//!
//! The refine phase of `FilterRefineSky` (paper Sec. III-B.2) tests
//! `N(u) ⊆ N(w)` for many 2-hop pairs. It first compares whole
//! neighborhood *bloom filters* (`BF(u) & BF(w) == BF(u)` — if any bit of
//! `u` is missing from `w`, inclusion is impossible: bloom filters have no
//! false negatives), then membership-tests individual neighbors
//! (`BFcheck`), falling back to the exact adjacency list (`NBRcheck`) only
//! when the bit test passes.
//!
//! Matching the paper (and its reference \[2\]), [`NeighborhoodFilters`]
//! uses a **single** hash function and word-addressed bit setting —
//! the paper's `BF[h(v)>>5 % BK] |= 1 << (h(v) & 31)` generalized to
//! 64-bit words. A classic k-hash [`ClassicBloom`] is provided for
//! comparison and for the Lemma 2 false-positive-rate analysis in
//! [`analysis`].

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![warn(missing_docs)]

pub mod analysis;
mod bitset;
mod classic;
mod filter;
mod hash;

pub use bitset::BitSet;
pub use classic::ClassicBloom;
pub use filter::{BloomConfig, NeighborhoodFilters};
pub use hash::mix32;
