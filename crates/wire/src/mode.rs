//! The warn-once parser the remaining `LONGLOOK_*` workload-size knobs
//! share, and the one-value mode names the frozen benchmark prints. How a
//! run executes is a value, not process state: the one choice left is
//! the [`TraceMode`](crate::TraceMode) each protocol config carries.

use std::sync::Once;

/// Read the environment knob `var` and parse it with `parse`.
///
/// Returns `None` when the variable is unset, `Some(value)` when `parse`
/// accepts it, and `None` with a one-time stderr warning (keyed on
/// `warned`, so each knob warns independently) when it does not. The
/// workload-size knobs — `LONGLOOK_ROUNDS`, `LONGLOOK_JOBS`,
/// `LONGLOOK_FLEET_N` — resolve through this helper, so a misconfigured
/// CI run surfaces the same way for every knob instead of silently
/// falling back.
///
/// The variable is re-read on every call (never cached).
pub fn env_knob<T>(
    var: &str,
    expected: &str,
    fallback: &str,
    warned: &'static Once,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let v = std::env::var(var).ok()?;
    match parse(&v) {
        Some(t) => Some(t),
        None => {
            warned.call_once(|| {
                eprintln!(
                    "warning: unrecognized {var}={v:?} (expected {expected}); using {fallback}"
                );
            });
            None
        }
    }
}

// Sole caller: `observatory/` (frozen), which prints it in its header
// and passes it to `EventQueue::new`. There is one scheduler.
#[doc(hidden)]
#[derive(Debug)]
pub enum SchedKind {
    Wheel,
}

impl SchedKind {
    #[doc(hidden)]
    pub fn from_env() -> SchedKind {
        SchedKind::Wheel
    }
}

// Sole caller: `observatory/` (frozen), which prints it in its header.
// Links carry typed packets; there is no other representation.
#[doc(hidden)]
#[derive(Debug)]
pub enum WireMode {
    Structured,
}

impl WireMode {
    #[doc(hidden)]
    pub fn from_env() -> WireMode {
        WireMode::Structured
    }
}

// Sole caller: `observatory/` (frozen), which prints it in its header.
// There is one event loop, one sent-packet store and one timer.
#[doc(hidden)]
#[derive(Debug)]
pub enum BatchMode {
    On,
}

impl BatchMode {
    #[doc(hidden)]
    pub fn from_env() -> BatchMode {
        BatchMode::On
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared knob parser: unset → `None`, parsable → `Some`,
    /// junk → `None` (after a one-time warning keyed on the caller's
    /// `Once`). Single test because the env var is process-global.
    #[test]
    fn env_knob_resolves_unset_parsed_and_junk() {
        static WARN: Once = Once::new();
        const VAR: &str = "LONGLOOK_TEST_KNOB";
        let saved = std::env::var(VAR).ok();
        std::env::remove_var(VAR);
        let parse = |v: &str| v.trim().parse::<usize>().ok();
        assert_eq!(env_knob(VAR, "an integer", "default", &WARN, parse), None);
        std::env::set_var(VAR, "17");
        assert_eq!(
            env_knob(VAR, "an integer", "default", &WARN, parse),
            Some(17)
        );
        std::env::set_var(VAR, "junk-value");
        assert_eq!(env_knob(VAR, "an integer", "default", &WARN, parse), None);
        match saved {
            Some(v) => std::env::set_var(VAR, v),
            None => std::env::remove_var(VAR),
        }
    }
}
