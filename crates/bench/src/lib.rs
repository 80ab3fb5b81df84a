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
//! Every experiment is a pure function of its seed; `LONGLOOK_ROUNDS`
//! overrides the default 10 rounds for quicker smoke runs.

pub mod experiments;
pub mod fuzz;
pub mod report;

pub use experiments::EXPERIMENTS;

use std::sync::Once;

/// Rounds per measurement (paper: "at least 10"): `LONGLOOK_ROUNDS` when
/// it is a positive integer, otherwise 10 (junk and `0` warn once).
pub fn rounds() -> u64 {
    static WARNED: Once = Once::new();
    longlook_sim::env_knob(
        "LONGLOOK_ROUNDS",
        "a positive integer",
        "10 rounds",
        &WARNED,
        parse_rounds,
    )
    .unwrap_or(10)
}

fn parse_rounds(v: &str) -> Option<u64> {
    v.trim().parse::<u64>().ok().filter(|n| *n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_knob_takes_positive_integers_only() {
        assert_eq!(parse_rounds("3"), Some(3));
        assert_eq!(parse_rounds(" 12\n"), Some(12));
        for junk in ["0", "", "-2", "2.5", "ten", "3x"] {
            assert_eq!(parse_rounds(junk), None, "{junk:?}");
        }
    }
}
