//! RNG isolation guard: the mechanical version of the ROADMAP's
//! "per-worker RNG audit".
//!
//! The paper's paired design only holds if every `(scenario, protocol,
//! round)` cell draws from its *own* seeded stream — a `SimRng` or
//! `World` leaked across cells silently correlates rounds and invalidates
//! the Welch gate. In debug/test builds the runner installs a
//! [`CellGuard`] around each cell and every tagged object panics the
//! moment it is touched from a second cell, naming both cells. Release
//! builds compile the whole check away.

use longlook_core::runner::{run_ordered, Parallelism};
use longlook_sim::{current_cell, SimRng};
#[cfg(debug_assertions)]
use longlook_sim::{CellGuard, CellId};

/// Legal use — each cell builds its own `SimRng` from its derived seed —
/// passes untouched under every parallelism level, and stays bit-identical
/// across them.
#[test]
fn per_cell_rngs_pass_the_guard() {
    let work = |i: usize| {
        let mut rng = SimRng::new(0x5EED_0000 + i as u64);
        (0..100)
            .map(|_| rng.next_u64())
            .fold(0u64, u64::wrapping_add)
    };
    let serial = run_ordered(Parallelism::Serial, 32, work);
    let par = run_ordered(Parallelism::Threads(4), 32, work);
    assert_eq!(serial, par);
}

/// Untagged use outside any cell scope (plain unit tests, ad-hoc tools)
/// is never policed: the guard only has an opinion when the runner has
/// declared cell boundaries.
#[test]
fn rng_outside_cells_is_unpoliced() {
    assert_eq!(current_cell(), None);
    let mut rng = SimRng::new(99);
    let a = rng.next_u64();
    let b = rng.next_u64();
    assert_ne!(a, b);
}

/// The deliberate violation: one `SimRng` shared (behind a mutex, so the
/// sharing itself is data-race-free — the *statistical* sharing is the
/// bug) across all cells of a batch. Debug builds must panic naming the
/// cell pair.
#[cfg(debug_assertions)]
#[test]
fn shared_rng_across_cells_panics_in_debug() {
    use std::sync::Mutex;
    let shared = Mutex::new(SimRng::new(42));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_ordered(Parallelism::Threads(4), 8, |_| {
            // The violation panic poisons the mutex for sibling cells;
            // shrug that off so the only panic in flight is the guard's.
            shared
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .next_u64()
        })
    }));
    let payload = result.expect_err("sharing one SimRng across cells must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        .unwrap_or_default();
    assert!(
        msg.contains("RNG isolation violation"),
        "unexpected panic message: {msg}"
    );
    assert!(msg.contains("cell"), "message must name the cells: {msg}");
}

/// Same violation through the serial path: the guard is exactly as strict
/// at `-j 1`, so a bug cannot hide behind a serial CI configuration.
#[cfg(debug_assertions)]
#[test]
fn shared_rng_panics_even_in_serial_mode() {
    use std::sync::Mutex;
    let shared = Mutex::new(SimRng::new(43));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_ordered(Parallelism::Serial, 4, |_| {
            shared.lock().unwrap().next_u64()
        })
    }));
    assert!(result.is_err(), "serial sharing must panic too");
}

/// A `World` leaked across cells is caught by the same tag — even one
/// `step()` from a second cell trips it. Exercised directly through the
/// guard API so the failure names this exact object, not an RNG stream.
#[cfg(debug_assertions)]
#[test]
fn world_shared_across_cells_panics_in_debug() {
    use longlook_sim::World;
    let mut w = World::new(7);
    {
        let _g = CellGuard::enter(CellId {
            batch: 900,
            index: 0,
        });
        w.step(); // first cell claims the World
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _g = CellGuard::enter(CellId {
            batch: 900,
            index: 1,
        });
        w.step();
    }));
    assert!(result.is_err(), "World reuse across cells must panic");
}

/// Forking a per-cell root RNG is legal: `fork` derives an independent
/// child stream with a fresh tag, which is exactly how `World` hands
/// streams to links and devices inside one cell.
#[test]
fn forked_streams_stay_legal_within_a_cell() {
    let sums = run_ordered(Parallelism::Threads(2), 8, |i| {
        let mut root = SimRng::new(1000 + i as u64);
        let mut child = root.fork(7);
        root.next_u64().wrapping_add(child.next_u64())
    });
    assert_eq!(sums.len(), 8);
}
