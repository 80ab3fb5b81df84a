//! One benchmark run of one workload: the end-to-end run (`--trace 0`)
//! and the per-layer run (`--trace 1`).

use crate::estimate::{median, min, quartiles};
use crate::meter::{pass_seconds, segment_seconds, Meter, PassCost};
use crate::report::{Metric, Report};
use crate::spans::{self_times, Recorder, Span};
use crate::workloads::{run_pass, Inputs, Mode, PassResult, Shrink, Workload};
use crate::{contract, rungs, yardstick};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Timed passes a run makes at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Cold starts per run; `setup_s` is the median of their times.
const COLD_STARTS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
}

/// The cold-start child: generate the inputs, run the first pass, print
/// its digest. The parent times this process from spawn to exit.
pub fn cold_child(w: Workload, seed: u64) {
    let inputs = Inputs::generate(w, seed, Shrink::FULL);
    let r = run_pass(
        &inputs,
        Mode::Timed,
        &mut Recorder::new(false),
        &mut Meter::new(false),
    );
    println!(
        "cold digest={:016x} ops={} failed={}",
        r.digest, r.ops, r.ops_failed
    );
}

/// One cold start: spawn, wait, check the child's digest. Returns the
/// spawn-to-exit time in reference-host seconds.
fn cold_start(w: Workload, seed: u64, want_digest: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let before = yardstick::sample();
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--cold", w.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cold start did not spawn: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let after = yardstick::sample();
    if !out.status.success() {
        return Err(format!("cold start exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    if !cold_output_agrees(&text, want_digest) {
        return Err(format!(
            "cold start disagrees with the warm-up pass (digest {want_digest:016x}): {:?}",
            text.trim()
        ));
    }
    Ok(yardstick::normalise(secs, before, after))
}

/// Whether a cold child's output reports the expected digest and no
/// failed op.
fn cold_output_agrees(text: &str, want_digest: u64) -> bool {
    text.contains(&format!("digest={want_digest:016x} ")) && text.contains(" failed=0")
}

/// The cold starts of one run, or the first error among them.
#[derive(Default)]
struct ColdStarts {
    times: Vec<f64>,
    err: Option<String>,
}

impl ColdStarts {
    fn take_one(&mut self, w: Workload, seed: u64, want_digest: u64) {
        match cold_start(w, seed, want_digest) {
            Ok(s) => self.times.push(s),
            Err(e) => self.err = Some(e),
        }
    }
}

/// Ops of `pass` that fail the comparison with the warm-up pass: a pass
/// that differs from it in any count or in its digest has computed
/// something else, so all its ops fail.
fn failed_against(reference: &PassResult, pass: &PassResult) -> u64 {
    if pass == reference {
        0
    } else {
        pass.ops
    }
}

/// Timed passes of one run with everything checked against `reference`.
struct Timed {
    costs: Vec<PassCost>,
    attempted: u64,
    failed: u64,
}

/// Run timed passes for `seconds` (at least [`MIN_PASSES`]), calling
/// `between(fraction_done)` after each so the caller can interleave its
/// cold starts.
fn timed_passes(
    inputs: &Inputs,
    reference: &PassResult,
    seconds: f64,
    mut between: impl FnMut(f64, &mut Meter),
) -> Timed {
    let mut meter = Meter::new(true);
    let mut rec = Recorder::new(false);
    let mut out = Timed {
        costs: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut spent = 0.0;
    while spent < seconds || out.costs.len() < MIN_PASSES {
        let t = Instant::now();
        let r = run_pass(inputs, Mode::Timed, &mut rec, &mut meter);
        out.costs.push(meter.finish_pass());
        spent += t.elapsed().as_secs_f64();
        out.attempted += r.ops;
        out.failed += failed_against(reference, &r);
        between(spent / seconds, &mut meter);
    }
    out
}

/// The pass the timed ones are compared against. For all but the sweep
/// the harness pass already is one; the sweep's timed passes go through
/// another entry point, which gets its own untimed warm-up pass here.
fn warm_up(w: Workload, inputs: &Inputs, harness: &PassResult, attempted: &mut u64) -> PassResult {
    if w != Workload::SweepGrid {
        return harness.clone();
    }
    let r = run_pass(
        inputs,
        Mode::Timed,
        &mut Recorder::new(false),
        &mut Meter::new(false),
    );
    *attempted += r.ops;
    r
}

/// Median over the passes of their mean yardstick sample, milliseconds.
fn yardstick_ms(costs: &[PassCost]) -> f64 {
    median(&costs.iter().map(|c| c.yardstick_s).collect::<Vec<_>>()) * 1e3
}

fn norm_times(costs: &[PassCost]) -> Vec<f64> {
    costs.iter().map(|c| c.norm_s).collect()
}

/// The end-to-end run: check, warm up, time, cold-start.
pub fn end_to_end(w: Workload, cfg: RunConfig) -> Result<Report, String> {
    let inputs = Inputs::generate(w, cfg.seed, Shrink::FULL);
    // Every op checked, cell by cell.
    let check = run_pass(
        &inputs,
        Mode::Harness,
        &mut Recorder::new(false),
        &mut Meter::new(false),
    );
    let mut attempted = check.ops;
    let mut failed = check.ops_failed;
    let reference = warm_up(w, &inputs, &check, &mut attempted);

    // Cold starts are spread over the run (start, middle, end) so that
    // setup and pass times sample the same stretch of host time.
    let mut cold = ColdStarts::default();
    cold.take_one(w, cfg.seed, reference.digest);
    let timed = timed_passes(&inputs, &reference, cfg.seconds, |done, meter| {
        let due = 1 + ((done * (COLD_STARTS - 1) as f64) as usize).min(COLD_STARTS - 1);
        while cold.times.len() < due && cold.err.is_none() {
            cold.take_one(w, cfg.seed, reference.digest);
            meter.interrupt();
        }
    });
    if let Some(e) = cold.err {
        return Err(e);
    }
    let cold = cold.times;
    attempted += timed.attempted + reference.ops * cold.len() as u64;
    failed += timed.failed;

    let walls = norm_times(&timed.costs);
    let raws: Vec<f64> = timed.costs.iter().map(|c| c.raw_s).collect();
    let (q1, q3) = quartiles(&walls);
    let allocs: Vec<f64> = timed.costs.iter().map(|c| c.allocs as f64).collect();
    let peak = timed.costs.iter().map(|c| c.peak).max().unwrap_or(0);

    let mut rep = Report::new(w, cfg.seed, attempted, failed);
    rep.digest = reference.digest;
    rep.metrics = vec![
        Metric::new("wall_s", pass_seconds(&timed.costs), "s"),
        Metric::new("setup_s", median(&cold), "s"),
        Metric::new("peak_heap_mb", peak as f64 / MIB, "MiB"),
        Metric::new("allocs_k", median(&allocs) / 1e3, "kcount"),
    ];
    contract::check(
        &rep.metrics,
        contract::END_TO_END.iter().map(|m| (m.0, m.1)),
    )?;
    rep.notes = vec![
        format!("ops {} ops_failed {}", reference.ops, failed),
        format!(
            "passes {} of wall_s median {:.4} q1 {q1:.4} q3 {q3:.4}, raw min {:.4} raw median {:.4}",
            walls.len(),
            median(&walls),
            min(&raws),
            median(&raws)
        ),
        format!(
            "yardstick median {:.2} ms (reference {:.2} ms); cold starts {:?}",
            yardstick_ms(&timed.costs),
            yardstick::REFERENCE_S * 1e3,
            cold
        ),
        format!("events {} sched_peak {}", reference.events, reference.sched_peak),
        format!(
            "segments, reference-host ms: {}",
            segment_seconds(&timed.costs)
                .iter()
                .map(|s| format!("{:.1}", s * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    Ok(rep)
}

fn share(st: &std::collections::BTreeMap<&'static str, u64>, name: &str, root: u64) -> f64 {
    st.get(name).copied().unwrap_or(0) as f64 / root.max(1) as f64
}

/// The per-layer run: a spans pass, the spans-off pass it is compared
/// with, a few timed passes for the allocation and spread figures, and
/// the micro-rungs. Returns the report and the recorded spans.
pub fn per_layer(w: Workload, cfg: RunConfig) -> Result<(Report, Vec<Span>), String> {
    let inputs = Inputs::generate(w, cfg.seed, Shrink::FULL);
    let mut meter = Meter::new(true);

    // Harness loop three times: warm-up, spans on, spans off. The two
    // measured ones must agree with the warm-up bit for bit.
    let mut off = Recorder::new(false);
    let warm = run_pass(&inputs, Mode::Harness, &mut off, &mut Meter::new(false));
    let mut attempted = warm.ops;
    let mut failed = warm.ops_failed;
    let mut on = Recorder::new(true);
    let traced = run_pass(&inputs, Mode::Harness, &mut on, &mut meter);
    let cost_on = meter.finish_pass();
    let plain = run_pass(&inputs, Mode::Harness, &mut off, &mut meter);
    let cost_off = meter.finish_pass();
    for r in [&traced, &plain] {
        attempted += r.ops;
        failed += failed_against(&warm, r);
    }
    let spans = on.take();
    let st = self_times(&spans);
    // Shares are of the time spent under the pass's segments: the pass
    // span's own self time is the yardstick samples between them.
    let root: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.end_ns - s.start_ns)
        .sum();

    // Timed passes, as in the end-to-end run but for half the time.
    let reference = warm_up(w, &inputs, &warm, &mut attempted);
    let timed = timed_passes(&inputs, &reference, cfg.seconds / 2.0, |_, _| {});
    attempted += timed.attempted;
    failed += timed.failed;
    let walls = norm_times(&timed.costs);
    let raws: Vec<f64> = timed.costs.iter().map(|c| c.raw_s).collect();
    let (q1, q3) = quartiles(&walls);
    let wall = pass_seconds(&timed.costs);
    let cost = &timed.costs[0];
    let ev = reference.events.max(1) as f64;

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Connection and fleet counters come from the harness pass: the
    // sweep's public call keeps them to itself.
    let f = &warm.fleet;
    let is_fleet = w == Workload::FleetFlash;
    let mut m = vec![
        Metric::new("wall_med_s", median(&walls), "s"),
        Metric::new("wall_q1_s", q1, "s"),
        Metric::new("wall_q3_s", q3, "s"),
        Metric::new("wall_raw_min_s", min(&raws), "s"),
        Metric::new("wall_raw_med_s", median(&raws), "s"),
        Metric::new("yardstick_ms", yardstick_ms(&timed.costs), "ms"),
        Metric::new("passes", walls.len() as f64, "count"),
        Metric::new("sim.world.events_k", ev / 1e3, "kcount"),
        Metric::new("sim.world.ns_per_event", wall * 1e9 / ev, "ns"),
        Metric::new("sim.world.sched_peak", warm.sched_peak as f64, "count"),
        Metric::new("alloc.bytes_mb", cost.alloc_bytes as f64 / MIB, "MiB"),
        Metric::new(
            "alloc.per_kevent",
            cost.allocs as f64 / (ev / 1e3),
            "1/kevent",
        ),
        Metric::new("span.build_share", share(&st, "build", root), "ratio"),
        Metric::new("span.run_share", share(&st, "run", root), "ratio"),
        Metric::new("span.collect_share", share(&st, "collect", root), "ratio"),
        Metric::new("span.stats_share", share(&st, "stats", root), "ratio"),
        Metric::new(
            "span.overhead_share",
            cost_on.norm_s / cost_off.norm_s,
            "ratio",
        ),
        Metric::new(
            "quic.retx_share",
            ratio(warm.quic.retransmissions, warm.quic.packets_sent),
            "ratio",
        ),
        Metric::new(
            "quic.spurious_share",
            ratio(warm.quic.spurious, warm.quic.retransmissions),
            "ratio",
        ),
        Metric::new(
            "tcp.retx_share",
            ratio(warm.tcp.retransmissions, warm.tcp.packets_sent),
            "ratio",
        ),
        Metric::new("tcp.rto_count", warm.tcp.rto_count as f64, "count"),
        // Fleet figures; zero on the packet-level workloads.
        Metric::new(
            "core.fleet.mev_s",
            if is_fleet { ev / wall / 1e6 } else { 0.0 },
            "Mev/s",
        ),
        Metric::new(
            "core.fleet.events_k",
            if is_fleet { ev / 1e3 } else { 0.0 },
            "kcount",
        ),
        Metric::new(
            "core.fleet.stale_share",
            if is_fleet {
                ratio(f.stale_deadline_pops, reference.events)
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "core.fleet.sched_peak_per_live",
            ratio(f.scheduled_peak, f.peak_live),
            "ratio",
        ),
        Metric::new(
            "core.fleet.bytes_per_conn",
            ratio(f.arena_bytes_peak, f.peak_live),
            "B",
        ),
    ];
    let t_rungs = Instant::now();
    m.extend(rungs::all(cfg.seed));
    let rungs_s = t_rungs.elapsed().as_secs_f64();

    let mut rep = Report::new(w, cfg.seed, attempted, failed);
    rep.digest = reference.digest;
    rep.metrics = m;
    contract::check(&rep.metrics, contract::PER_LAYER.iter().copied())?;
    rep.notes = vec![
        format!(
            "spans {} (pass {:.4} s on, {:.4} s off, reference-host seconds)",
            spans.len(),
            cost_on.norm_s,
            cost_off.norm_s
        ),
        format!("micro-rungs took {rungs_s:.1} s"),
    ];
    Ok((rep, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass() -> PassResult {
        PassResult {
            ops: 8,
            events: 1000,
            digest: 0xfeed,
            ..PassResult::default()
        }
    }

    #[test]
    fn a_corrupted_digest_fails_every_op_of_the_pass() {
        let reference = pass();
        assert_eq!(failed_against(&reference, &pass()), 0);
        let corrupted = PassResult {
            digest: reference.digest ^ 1,
            ..pass()
        };
        assert_eq!(failed_against(&reference, &corrupted), 8);
        let one_event_more = PassResult {
            events: 1001,
            ..pass()
        };
        assert_eq!(failed_against(&reference, &one_event_more), 8);
    }

    #[test]
    fn a_cold_start_is_checked_by_digest_and_failed_count() {
        let line = "cold digest=000000000000feed ops=8 failed=0\n";
        assert!(cold_output_agrees(line, 0xfeed));
        assert!(!cold_output_agrees(line, 0xfeee));
        assert!(!cold_output_agrees(
            "cold digest=000000000000feed ops=8 failed=1\n",
            0xfeed
        ));
        assert!(!cold_output_agrees("", 0xfeed));
    }
}
