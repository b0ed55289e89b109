//! # nsky-datasets
//!
//! The workloads of the paper's evaluation, reproducible on a laptop.
//!
//! * [`karate`] — the real Zachary karate-club network (34 vertices,
//!   78 edges; public domain), embedded verbatim — one of the two
//!   Fig. 13 case studies;
//! * [`bombing`] — a synthetic stand-in for the Madrid train-bombing
//!   suspect contact network (64 vertices, ≈243 edges, clustered):
//!   the KONECT original cannot be redistributed here, so a
//!   planted-partition contact topology with matched size/density is
//!   used (see DESIGN.md, substitution table);
//! * [`registry`] — scaled-down Chung–Lu stand-ins for the Table I
//!   graphs (Notredame, Youtube, WikiTalk, Flixster, DBLP) and for the
//!   scalability graphs (LiveJournal, Pokec, Orkut), matching each
//!   dataset's degree-distribution *shape* at ~1/100 scale.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![warn(missing_docs)]

mod bombing_net;
mod karate_club;
pub mod registry;

pub use bombing_net::bombing;
pub use karate_club::karate;
pub use registry::{paper_datasets, scalability_dataset, DatasetSpec};
