//! Execution-path selection as a value: [`ExecConfig`] names which
//! scheduler, wire path, hot path and trace mode a run uses, and is
//! passed down from the scenario to the world and its connections. Every
//! non-default choice is a reference implementation the differential
//! referees compare the default against. Also home to the warn-once
//! parser the remaining `LONGLOOK_*` workload-size knobs share.

use crate::trace::TraceMode;
use std::sync::Once;

/// Read the environment knob `var` and parse it with `parse`.
///
/// Returns `None` when the variable is unset, `Some(value)` when `parse`
/// accepts it, and `None` with a one-time stderr warning (keyed on
/// `warned`, so each knob warns independently) when it does not. The
/// workload-size knobs — `LONGLOOK_JOBS`, `LONGLOOK_FLEET_N` — resolve
/// through this helper, so a misconfigured CI run surfaces the same way
/// for every knob instead of silently falling back.
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

/// Which scheduler implementation backs an event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Hierarchical timing wheel (default).
    #[default]
    Wheel,
    /// Reference binary heap.
    Heap,
}

impl SchedKind {
    // Sole caller: `observatory/` (frozen; it refuses to start under any
    // `LONGLOOK_*` variable, so the default is what it already observes).
    #[doc(hidden)]
    pub fn from_env() -> SchedKind {
        SchedKind::default()
    }
}

/// Which payload representation the transports put on simulated links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Hand the typed `QuicPacket`/`TcpSegment` to the peer by value,
    /// charging analytic `encoded_len()` sizes (default).
    #[default]
    Structured,
    /// Serialize to `Bytes` and reparse on receipt, the reference path.
    Encoded,
}

impl WireMode {
    // Sole caller: `observatory/` (see `SchedKind::from_env`).
    #[doc(hidden)]
    pub fn from_env() -> WireMode {
        WireMode::default()
    }
}

/// Whether the transport hot paths run batched (flight-granular ack
/// bookkeeping, burst delivery, amortized timer re-arming) or strictly
/// per-event.
///
/// The two paths are pinned bit-identical by the `path_differential`
/// referee suite; `Off` is the reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Batched hot path (default): same observable behavior, less
    /// per-event work.
    #[default]
    On,
    /// Per-event reference path.
    Off,
}

impl BatchMode {
    // Sole caller: `observatory/` (see `SchedKind::from_env`).
    #[doc(hidden)]
    pub fn from_env() -> BatchMode {
        BatchMode::default()
    }

    /// True when the batched path is selected.
    pub fn is_on(self) -> bool {
        self == BatchMode::On
    }
}

/// How one run executes: the four path selections, as a `Copy` value.
///
/// Carried by the scenario, stamped onto the protocol configs, and read
/// by `World`, the connections, the sent-packet store and the tracer at
/// construction. Nothing in the library reads it from the process
/// environment, so cells with different configs can run concurrently.
/// The default is the fast path with tracing off; any other value
/// selects a reference implementation (or tracing), and the
/// `path_differential` suite pins every one of them — and their
/// combination — observationally identical to the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Event scheduler backend.
    pub sched: SchedKind,
    /// Payload representation on links.
    pub wire: WireMode,
    /// Batched or per-event transport hot path.
    pub batch: BatchMode,
    /// Per-connection structured event trace.
    pub trace: TraceMode,
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

    #[test]
    fn default_exec_is_the_fast_path_with_tracing_off() {
        assert_eq!(
            ExecConfig::default(),
            ExecConfig {
                sched: SchedKind::Wheel,
                wire: WireMode::Structured,
                batch: BatchMode::On,
                trace: TraceMode::Off,
            }
        );
    }
}
