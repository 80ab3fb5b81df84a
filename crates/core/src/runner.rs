//! Chunked work-stealing parallel execution of independent experiment
//! cells.
//!
//! The experiment matrix of Sec 3.3 — `(scenario, protocol, round)` cells,
//! ≥ 10 rounds per scenario, swept over bandwidth × loss × RTT grids — is
//! embarrassingly parallel: each cell is a self-contained
//! [`World`](longlook_sim::world::World) keyed only by its derived seed,
//! sharing no state with any other cell. This module shards those cells across OS
//! threads and reassembles results **in deterministic cell order**, so
//! parallel execution is bit-identical to serial execution. That claim is
//! not an assumption: the `determinism_equivalence` suite in
//! `longlook-integration` regression-tests it field-for-field, and the
//! debug-build RNG isolation guard ([`longlook_sim::CellGuard`]) panics
//! the moment an experiment closure shares a `SimRng` or `World` across
//! cells.
//!
//! There is one worker loop: claim a contiguous run of cell indices from
//! a shared atomic cursor (auto-tuned size, see [`chunk_size`]) until
//! none is left, so long cells do not straggle behind a static partition
//! and the cursor does not ping-pong between cores on large sweeps. With
//! one job it runs on the calling thread over one chunk; otherwise on
//! scoped threads, and joining each yields its cells or re-raises its
//! panic with the original payload. Cells are put back in index order
//! before any `longlook-stats` aggregation runs. [`run_ordered_reporting`]
//! also returns a [`RunnerReport`] (per-cell wall-clock, per-worker claim
//! counters) so chunking wins are measured (`repro --timing`).

use longlook_sim::{CellGuard, CellId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

thread_local! {
    /// Simulation-event counter for the cell currently executing on this
    /// thread. The runner zeroes it before each cell and snapshots it
    /// after; experiment drivers deposit via [`note_cell_events`].
    static CELL_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Credit `n` simulation events to the experiment cell currently running
/// on this thread (no-op outside a runner batch). Drivers call this with
/// `World::events_processed()` after each run so `repro --timing` can
/// report events/sec.
pub fn note_cell_events(n: u64) {
    CELL_EVENTS.with(|c| c.set(c.get().saturating_add(n)));
}

fn reset_cell_events() {
    CELL_EVENTS.with(|c| c.set(0));
}

fn take_cell_events() -> u64 {
    CELL_EVENTS.with(|c| c.replace(0))
}

/// How to execute a batch of independent experiment cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run every cell on the calling thread, in index order.
    Serial,
    /// Shard cells across this many worker threads (values ≤ 1 degrade
    /// to [`Parallelism::Serial`]).
    Threads(usize),
}

impl Parallelism {
    /// One worker per available hardware thread: the default of the
    /// binaries, tests and examples. Library code takes its `Parallelism`
    /// from the caller instead.
    pub fn auto() -> Self {
        Parallelism::Threads(thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// Worker count this policy resolves to (≥ 1).
    pub fn jobs(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Cap on the auto-tuned chunk size: past this, cursor traffic is already
/// negligible and bigger chunks only hurt load balance.
const CHUNK_CAP: usize = 64;

/// Chunks each worker should get to claim, on average, under the
/// auto-tune: enough that one slow chunk cannot straggle the batch.
const CHUNKS_PER_WORKER: usize = 8;

/// The auto-tuned claim-chunk size for a batch of `n` cells on `jobs`
/// workers: `ceil(n / (jobs * 8))` capped at 64 — large sweeps claim tens
/// of cells per atomic op, while small batches keep chunk 1 and lose
/// nothing.
pub fn chunk_size(n: usize, jobs: usize) -> usize {
    n.div_ceil(jobs.max(1) * CHUNKS_PER_WORKER)
        .clamp(1, CHUNK_CAP)
}

/// What one worker thread did during a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cells this worker computed.
    pub cells: usize,
    /// Chunks this worker claimed from the cursor.
    pub chunks: usize,
}

/// Timing and scheduling telemetry for one [`run_ordered_reporting`]
/// batch. Results stay bit-identical whatever these numbers say; the
/// report exists so chunking/parallelism wins are measured, not asserted.
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// Worker threads used (1 = serial on the calling thread).
    pub jobs: usize,
    /// Claim-chunk size used (serial batches claim everything at once).
    pub chunk: usize,
    /// Wall-clock for the whole batch, including reassembly.
    pub elapsed: Duration,
    /// Per-cell wall-clock, indexed by cell.
    pub cell_wall: Vec<Duration>,
    /// Per-cell simulation events (zero unless the cell's driver deposits
    /// via [`note_cell_events`]), indexed by cell.
    pub cell_events: Vec<u64>,
    /// Per-worker claim counters (one entry per worker thread).
    pub workers: Vec<WorkerStats>,
}

impl RunnerReport {
    /// Sum of all per-cell wall-clock times (the serial-equivalent work).
    pub fn total_cell_time(&self) -> Duration {
        self.cell_wall.iter().sum()
    }

    /// Parallel speedup actually achieved: total cell time / elapsed.
    pub fn speedup(&self) -> f64 {
        let e = self.elapsed.as_secs_f64();
        if e == 0.0 {
            return 1.0;
        }
        self.total_cell_time().as_secs_f64() / e
    }

    /// Total simulation events across all cells (zero when no driver
    /// deposited counts).
    pub fn total_events(&self) -> u64 {
        self.cell_events.iter().sum()
    }

    /// Aggregate events/sec against summed per-cell wall-clock (the
    /// single-core scheduler throughput); `None` when no events were
    /// deposited or no time elapsed.
    pub fn events_per_sec(&self) -> Option<f64> {
        let total = self.total_events();
        let secs = self.total_cell_time().as_secs_f64();
        (total > 0 && secs > 0.0).then(|| total as f64 / secs)
    }

    /// One-paragraph human-readable rendering (the `repro --timing`
    /// output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{} cells in {:.3}s (cell time {:.3}s, {:.2}x), jobs {}, chunk {}",
            self.cell_wall.len(),
            self.elapsed.as_secs_f64(),
            self.total_cell_time().as_secs_f64(),
            self.speedup(),
            self.jobs,
            self.chunk,
        );
        if let Some(eps) = self.events_per_sec() {
            let _ = write!(
                out,
                ", {} events ({:.2} Mev/s)",
                self.total_events(),
                eps / 1e6
            );
        }
        if self.jobs > 1 {
            let claims: Vec<String> = self
                .workers
                .iter()
                .map(|w| format!("{}c/{}k", w.cells, w.chunks))
                .collect();
            let _ = write!(out, ", workers [{}]", claims.join(" "));
        }
        // Name the slowest cells: these are the stragglers chunking must
        // not glue together.
        let mut ranked: Vec<(usize, Duration)> =
            self.cell_wall.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let slow: Vec<String> = ranked
            .iter()
            .take(3)
            .filter(|(_, d)| *d > Duration::ZERO)
            .map(|(i, d)| {
                // Per-cell events/sec, when the cell's driver deposited a
                // count (sweep cells do; synthetic test cells don't).
                let ev = self.cell_events.get(*i).copied().unwrap_or(0);
                if ev > 0 && d.as_secs_f64() > 0.0 {
                    format!(
                        "#{i} {:.0}ms ({:.2} Mev/s)",
                        d.as_secs_f64() * 1e3,
                        ev as f64 / d.as_secs_f64() / 1e6
                    )
                } else {
                    format!("#{i} {:.0}ms", d.as_secs_f64() * 1e3)
                }
            })
            .collect();
        if !slow.is_empty() {
            let _ = write!(out, ", slowest cells: {}", slow.join(", "));
        }
        out
    }
}

/// Global timing sink: when enabled (`repro --timing`), every
/// [`run_ordered`] batch deposits its [`RunnerReport`] here for the CLI
/// to drain and print after the experiment.
static TIMING_ENABLED: AtomicUsize = AtomicUsize::new(0);
static TIMING_REPORTS: Mutex<Vec<RunnerReport>> = Mutex::new(Vec::new());

/// Enable/disable the process-wide timing sink.
pub fn set_timing(enabled: bool) {
    TIMING_ENABLED.store(usize::from(enabled), Ordering::Relaxed);
}

/// Drain every report deposited since the last call.
pub fn take_timing_reports() -> Vec<RunnerReport> {
    std::mem::take(&mut *TIMING_REPORTS.lock().expect("timing sink poisoned"))
}

/// Monotonic batch counter feeding [`CellId::batch`], so cell identities
/// never collide across successive `run_ordered` calls and the isolation
/// guard can name the offending pair exactly.
static BATCH: AtomicU64 = AtomicU64::new(0);

/// Execute `f(0..n)` under `par` and return results **in index order**.
///
/// `f` must be a pure function of its index for the determinism guarantee
/// to hold (every experiment cell in this workspace is: the cell derives
/// its own seed and builds its own `World` — and the debug-build RNG
/// isolation guard enforces exactly that). A cell's panic reaches the
/// caller with its original payload once every worker has stopped.
pub fn run_ordered<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (values, report) = run_ordered_reporting(par, n, f);
    if TIMING_ENABLED.load(Ordering::Relaxed) != 0 {
        TIMING_REPORTS
            .lock()
            .expect("timing sink poisoned")
            .push(report);
    }
    values
}

/// [`run_ordered`] plus a [`RunnerReport`] describing how the batch was
/// scheduled and where the time went.
pub fn run_ordered_reporting<T, F>(par: Parallelism, n: usize, f: F) -> (Vec<T>, RunnerReport)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let started = Instant::now();
    let batch = BATCH.fetch_add(1, Ordering::Relaxed);
    let jobs = par.jobs().min(n.max(1));
    // One job claims the whole batch as one chunk.
    let chunk = match jobs {
        1 => n.max(1),
        _ => chunk_size(n, jobs),
    };
    let cursor = AtomicUsize::new(0);
    // The one worker loop: claim the next unclaimed run of `chunk` cells
    // in one atomic op (dynamic self-scheduling) until none is left, and
    // run each under its RNG-isolation guard. Each computed cell is its
    // index, value, wall-clock and deposited simulation events.
    let work = || {
        let (mut stats, mut cells) = (WorkerStats::default(), Vec::new());
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return (stats, cells);
            }
            stats.chunks += 1;
            for index in start..(start + chunk).min(n) {
                reset_cell_events();
                let t0 = Instant::now();
                let guard = CellGuard::enter(CellId {
                    batch,
                    index: index as u64,
                });
                let value = f(index);
                drop(guard);
                cells.push((index, value, t0.elapsed(), take_cell_events()));
                stats.cells += 1;
            }
        }
    };
    let parts = if jobs == 1 {
        // A driver may fan a nested batch out from *inside* an outer cell
        // (a runner called from a cell with `Parallelism::Serial`). It runs
        // on this thread, so keep the outer cell's in-progress event count
        // from the inner batch's per-cell resets.
        let outer_events = CELL_EVENTS.with(Cell::get);
        let part = work();
        CELL_EVENTS.with(|c| c.set(outer_events));
        vec![part]
    } else {
        let joined: Vec<thread::Result<_>> = thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs).map(|_| scope.spawn(work)).collect();
            workers.into_iter().map(|w| w.join()).collect()
        });
        let resume = |payload| std::panic::resume_unwind(payload);
        joined
            .into_iter()
            .map(|p| p.unwrap_or_else(resume))
            .collect()
    };

    let mut report = RunnerReport {
        jobs,
        chunk,
        elapsed: Duration::ZERO,
        cell_wall: vec![Duration::ZERO; n],
        cell_events: vec![0; n],
        workers: Vec::with_capacity(jobs),
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (stats, cells) in parts {
        report.workers.push(stats);
        for (i, value, wall, events) in cells {
            slots[i] = Some(value);
            report.cell_wall[i] = wall;
            report.cell_events[i] = events;
        }
    }
    let values = slots
        .into_iter()
        .map(|s| s.expect("every cell index was claimed and computed"))
        .collect();
    report.elapsed = started.elapsed();
    (values, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_threads_agree_on_order_and_values() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial = run_ordered(Parallelism::Serial, 100, f);
        for jobs in [2, 4, 16] {
            assert_eq!(serial, run_ordered(Parallelism::Threads(jobs), 100, f));
        }
    }

    /// Chunk sizes from 1 to the cap, each picked by its `(n, jobs)`:
    /// every one reassembles the serial results and accounts for every
    /// cell.
    #[test]
    fn explicit_chunk_sizes_are_result_invariant() {
        let f = |i: usize| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95);
        let (serial, _) = run_ordered_reporting(Parallelism::Serial, 1100, f);
        for (n, jobs, chunk) in [(97, 4, 4), (31, 4, 1), (200, 2, 13), (1100, 2, CHUNK_CAP)] {
            let (par, rep) = run_ordered_reporting(Parallelism::Threads(jobs), n, f);
            assert_eq!(serial[..n], par, "chunk {chunk} changed results");
            assert_eq!(rep.chunk, chunk, "n {n}, jobs {jobs}");
            assert_eq!(rep.workers.iter().map(|w| w.cells).sum::<usize>(), n);
            assert_eq!(rep.cell_wall.len(), n);
        }
    }

    #[test]
    fn handles_more_workers_than_cells() {
        let out = run_ordered(Parallelism::Threads(32), 3, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn handles_empty_batch() {
        let out: Vec<usize> = run_ordered(Parallelism::Threads(4), 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_cells_still_reassemble_in_order() {
        // Make early indices slow so late indices finish first.
        let out = run_ordered(Parallelism::Threads(4), 16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cell 7 exploded")]
    fn worker_panic_propagates() {
        let _ = run_ordered(Parallelism::Threads(4), 16, |i| {
            assert!(i != 7, "cell {i} exploded");
            i
        });
    }

    #[test]
    #[should_panic(expected = "cell 2 exploded")]
    fn panic_mid_chunk_propagates() {
        // 64 cells on 2 workers claim chunks of 4: cell 2 is mid-chunk.
        assert_eq!(chunk_size(64, 2), 4);
        let _ = run_ordered(Parallelism::Threads(2), 64, |i| {
            assert!(i != 2, "cell {i} exploded");
            i
        });
    }

    /// A panic in a one-job batch, which runs on the calling thread,
    /// reaches the caller with its own payload, as a worker's does.
    #[test]
    fn one_job_panic_reaches_the_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Exploded(usize);
        let payload = std::panic::catch_unwind(|| {
            run_ordered(Parallelism::Serial, 8, |i| match i {
                3 => std::panic::panic_any(Exploded(i)),
                _ => i,
            })
        })
        .expect_err("cell 3 panics");
        assert_eq!(payload.downcast_ref::<Exploded>(), Some(&Exploded(3)));
    }

    #[test]
    fn jobs_resolution() {
        assert_eq!(Parallelism::Serial.jobs(), 1);
        assert_eq!(Parallelism::Threads(0).jobs(), 1);
        assert_eq!(Parallelism::Threads(6).jobs(), 6);
    }

    #[test]
    fn chunk_auto_tune_shape() {
        // Small batches stay at 1 — nothing to amortize.
        assert_eq!(chunk_size(4, 4), 1);
        assert_eq!(chunk_size(0, 4), 1);
        // Large sweeps amortize the cursor but keep ~8 chunks per worker.
        assert_eq!(chunk_size(320, 4), 10);
        assert_eq!(chunk_size(1000, 2), 63);
        // Capped so balance survives very large n.
        assert_eq!(chunk_size(1_000_000, 4), CHUNK_CAP);
    }

    #[test]
    fn report_accounts_for_every_cell() {
        let (_, rep) = run_ordered_reporting(Parallelism::Threads(3), 50, |i| i);
        assert_eq!(rep.jobs, 3);
        assert_eq!(rep.cell_wall.len(), 50);
        assert_eq!(rep.workers.len(), 3);
        assert_eq!(rep.workers.iter().map(|w| w.cells).sum::<usize>(), 50);
        assert!(rep.workers.iter().map(|w| w.chunks).sum::<usize>() >= 1);
        let text = rep.render();
        assert!(text.contains("50 cells"), "{text}");
        assert!(text.contains("jobs 3"), "{text}");
    }

    #[test]
    fn serial_report_shape() {
        let (vals, rep) = run_ordered_reporting(Parallelism::Serial, 5, |i| i);
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
        assert_eq!(rep.jobs, 1);
        assert_eq!(
            rep.workers,
            vec![WorkerStats {
                cells: 5,
                chunks: 1
            }]
        );
        assert_eq!(rep.cell_wall.len(), 5);
    }

    #[test]
    fn cell_events_flow_into_report_threaded_and_serial() {
        let (_, rep) = run_ordered_reporting(Parallelism::Threads(2), 10, |i| {
            note_cell_events(i as u64 + 1);
            i
        });
        assert_eq!(rep.cell_events, (1..=10).collect::<Vec<u64>>());
        assert_eq!(rep.total_events(), 55);
        let (_, rep) = run_ordered_reporting(Parallelism::Serial, 3, |i| {
            note_cell_events(7);
            note_cell_events(2); // accumulates within a cell
            i
        });
        assert_eq!(rep.cell_events, vec![9, 9, 9]);
        let text = rep.render();
        assert!(text.contains("events"), "{text}");
    }

    #[test]
    fn nested_serial_batches_preserve_outer_cell_events() {
        // An outer cell that fans out a nested serial batch (a runner
        // called with `Parallelism::Serial`) must keep its own event tally:
        // the inner batch's per-cell resets are invisible to it.
        let (_, rep) = run_ordered_reporting(Parallelism::Serial, 2, |_| {
            note_cell_events(5);
            let inner = run_ordered(Parallelism::Serial, 3, |i| {
                note_cell_events(1);
                i
            });
            assert_eq!(inner, vec![0, 1, 2]);
            note_cell_events(7);
        });
        assert_eq!(rep.cell_events, vec![12, 12]);
    }

    #[test]
    fn cells_without_events_report_zero() {
        let (_, rep) = run_ordered_reporting(Parallelism::Threads(3), 8, |i| i);
        assert_eq!(rep.cell_events, vec![0; 8]);
        assert_eq!(rep.events_per_sec(), None);
        assert!(!rep.render().contains("Mev/s"));
    }

    #[test]
    fn timing_sink_collects_when_enabled() {
        set_timing(true);
        let _ = take_timing_reports(); // drop anything a sibling test left
        let _ = run_ordered(Parallelism::Threads(2), 10, |i| i);
        let reports = take_timing_reports();
        set_timing(false);
        // Sibling tests may deposit concurrently; just require ours landed.
        assert!(reports.iter().any(|r| r.cell_wall.len() == 10));
    }
}
