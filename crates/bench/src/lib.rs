//! # iat-bench
//!
//! The experiment harness of the IAT reproduction: couples a simulated
//! [`iat_platform::Platform`] with an [`iat::LlcPolicy`] (IAT or a
//! baseline) through the performance-counter monitor, and provides the
//! scenario builders and reporting helpers the figure jobs share.
//!
//! Every paper table/figure is registered as a job graph with the
//! [`iat_runner`] sweep engine (see [`jobs::registry`]); the `repro`
//! binary regenerates all of `results/` in one deterministic parallel
//! sweep, or one figure group with `--only` (`fig03` … `fig15`,
//! `table1`, `table2`, `ablation`). Criterion benches live in
//! `benches/`. Run e.g.:
//!
//! ```text
//! cargo run --release -p iat-bench --bin repro -- --jobs 8
//! cargo run --release -p iat-bench --bin repro -- --only fig08
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod corpus;
mod figures;
pub mod harness;
pub mod jobs;
pub mod report;
pub mod sampling;
pub mod scenarios;

pub use harness::Managed;
