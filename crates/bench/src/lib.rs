//! # disthd-bench
//!
//! Shared harness for the experiment binaries that regenerate every table and figure of the DistHD paper.  See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured comparison.

#![deny(missing_docs)]

pub mod harness;

pub use harness::{
    build_model, default_scale, paper_models, run_model, trial_seeds, ModelKind, RunResult,
};
