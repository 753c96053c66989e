//! Experiment harness: regenerates every table of the paper's evaluation.
//!
//! Each `table_*` function reproduces one table of the paper on the
//! synthetic corpus, returning a [`TableOutput`] with the formatted rows
//! and the raw numbers (so integration tests can assert on *shape* — who
//! wins, by what factor — without string scraping).
//!
//! Run everything via the `tables` binary:
//!
//! ```text
//! cargo run --release -p encore-bench --bin tables            # all tables
//! cargo run --release -p encore-bench --bin tables -- 8       # Table 8 only
//! cargo run --release -p encore-bench --bin tables -- 8 --scale 0.3
//! ```
//!
//! `--scale` shrinks training-set sizes proportionally (useful in CI; the
//! defaults match the paper's corpus sizes: 127 Apache / 187 MySQL /
//! 123 PHP training images, 120 fresh EC2 images, 300 private-cloud
//! images).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{ExperimentConfig, TableOutput};
