//! The reproduction harness: one entry point per table and figure of the
//! paper, plus the `traumafuzz` internals ([`fuzz`]). Repro files and
//! traces are read with the workspace's one JSON codec,
//! `longlook_sim::json`.
//!
//! An experiment returns a [`report::Report`]: its id and typed sections
//! (heatmaps whose cells keep both sides' `Summary`, tables of labels and
//! typed numbers, inferred state machines, timelines, notes). Its
//! `Display` is the one layout of every table; `repro` saves that text as
//! `results/<id>.txt` and each machine's DOT graph as
//! `results/<id>_<n>.dot`.
//!
//! The checked-in `results/` are goldens: CI reruns `repro -j 2 all` at
//! default rounds and fails on any byte that differs, or on a render that
//! is not committed. A change that moves a render on purpose reruns that
//! command and commits the new files with it.
//!
//! Every experiment is a pure function of its seed and of the
//! [`RunConfig`] `repro` builds once from its flags: the worker threads
//! its runner batches use (which never change a number) and its rounds
//! per measurement.

pub mod experiments;
pub mod fuzz;
pub mod report;

pub use experiments::EXPERIMENTS;

use longlook_core::runner::Parallelism;

/// The settings of one run, handed to every experiment as an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// How runner batches spread over worker threads. Results are
    /// bit-identical at any value.
    pub par: Parallelism,
    /// Rounds per measurement (paper: "at least 10"); lower for quicker
    /// smoke runs.
    pub rounds: u64,
}

impl RunConfig {
    /// The paper's rounds per measurement.
    pub const DEFAULT_ROUNDS: u64 = 10;
}
