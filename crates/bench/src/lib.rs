//! # sparsetir-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation: one `experiments` binary over the
//! [`experiments::ALL`] table, experiment names as arguments (README
//! §Crate map and §Quickstart). Absolute times come from the GPU simulator —
//! the documented substitution for the paper's V100/RTX 3070 testbeds —
//! so the *relative* numbers (speedups, hit rates, crossovers) are the
//! reproduction targets.

#![warn(missing_docs)]

pub mod experiments;
pub mod util;
