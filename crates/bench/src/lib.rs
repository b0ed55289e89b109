//! # nsky-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation section (see DESIGN.md §5 for the experiment
//! index, and EXPERIMENTS.md for recorded paper-vs-measured results).
//!
//! All experiment logic lives in [`figures`] as pure functions returning
//! row structs, so that integration tests can assert the structural
//! claims (who wins, subset relations) on reduced configurations; the
//! `src/bin/*` binaries print the rows. Micro-benchmarks live in
//! `benches/` on the dependency-free [`micro`] harness.
//!
//! Run `cargo run -p nsky-bench --release --bin repro_all` to regenerate
//! everything at once.

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod micro;
