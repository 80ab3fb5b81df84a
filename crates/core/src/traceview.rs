//! Trace analysis: turning a captured structured event trace
//! (qlog-inspired JSON-SEQ) into human-readable evidence — an event
//! timeline, a per-state dwell table, and extracted loss episodes
//! attributed to the fault windows that caused them.
//!
//! This is the read side of the trace layer: `repro trace FILE` parses a
//! `.jsonseq` file (e.g. the trace a shrunk trauma repro carries) and
//! renders [`render_report`], which is designed to *explain* a failure —
//! the dwell table names the state the connection stalled in, and the
//! loss-episode extraction locates the injected fault window.

use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::{TraceEvent, TraceRecord};
use longlook_transport::ccstate::StateTrace;
use std::fmt::Write as _;

/// A burst of declared losses, grouped by proximity in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossEpisode {
    /// First loss declaration in the episode.
    pub start: Time,
    /// Last loss declaration in the episode.
    pub end: Time,
    /// How many losses were declared.
    pub losses: usize,
    /// The fault window (`kind/dir`) this episode overlaps or follows,
    /// if the trace carries window edges. Loss is *declared* after the
    /// window opens (often after it closes, once a timer fires), so an
    /// episode is attributed to the most recent window that opened at or
    /// before its start.
    pub fault: Option<String>,
}

/// A fault window reconstructed from `FaultOn`/`FaultOff` edge records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// Window opened.
    pub on: Time,
    /// Window closed (`Time::MAX` when the trace ends inside it).
    pub off: Time,
    /// `kind/dir` label, repro spelling (e.g. `blackout/both`).
    pub label: String,
}

/// Gap between loss declarations above which a new episode starts.
pub const EPISODE_GAP: Dur = Dur::from_millis(500);

/// Reconstruct fault windows from the trace's synthesized edge records.
/// Edges are matched by label in order; an unmatched `FaultOn` yields a
/// window open to `Time::MAX`.
pub fn fault_windows(records: &[TraceRecord]) -> Vec<FaultWindow> {
    let mut open: Vec<(String, Time)> = Vec::new();
    let mut out = Vec::new();
    for r in records {
        match &r.ev {
            TraceEvent::FaultOn { kind, dir } => {
                open.push((format!("{kind}/{dir}"), Time::from_nanos(r.t)));
            }
            TraceEvent::FaultOff { kind, dir } => {
                let label = format!("{kind}/{dir}");
                if let Some(i) = open.iter().position(|(l, _)| *l == label) {
                    let (label, on) = open.remove(i);
                    out.push(FaultWindow {
                        on,
                        off: Time::from_nanos(r.t),
                        label,
                    });
                }
            }
            _ => {}
        }
    }
    for (label, on) in open {
        out.push(FaultWindow {
            on,
            off: Time::MAX,
            label,
        });
    }
    out.sort_by_key(|w| w.on);
    out
}

/// Group `Loss` events into episodes separated by more than
/// [`EPISODE_GAP`], attributing each to the most recent fault window
/// opened at or before the episode's first loss.
pub fn loss_episodes(records: &[TraceRecord]) -> Vec<LossEpisode> {
    let windows = fault_windows(records);
    let mut out: Vec<LossEpisode> = Vec::new();
    for r in records {
        if !matches!(r.ev, TraceEvent::Loss { .. }) {
            continue;
        }
        let t = Time::from_nanos(r.t);
        match out.last_mut() {
            Some(ep) if t.saturating_since(ep.end) <= EPISODE_GAP => {
                ep.end = t;
                ep.losses += 1;
            }
            _ => {
                let fault = windows.iter().rfind(|w| w.on <= t).map(|w| w.label.clone());
                out.push(LossEpisode {
                    start: t,
                    end: t,
                    losses: 1,
                    fault,
                });
            }
        }
    }
    out
}

/// Per-state dwell fractions from the trace's `CcState` events:
/// `(state, dwell, fraction_of_span)`, in order of first entry, summed
/// over repeat visits. Observation ends at the trace's last record.
pub fn dwell_table(records: &[TraceRecord]) -> Vec<(&str, Dur, f64)> {
    StateTrace::from_records(records).dwell_table()
}

/// One human-readable line per event (the qlog "sequence diagram" view).
fn event_line(r: &TraceRecord) -> String {
    let t = Time::from_nanos(r.t);
    let body = match &r.ev {
        TraceEvent::PktTx { pn, size, elicit } => {
            format!(
                "tx    pn={pn} size={size}{}",
                if *elicit { "" } else { " (ctrl)" }
            )
        }
        TraceEvent::PktRx { pn, size } => format!("rx    pn={pn} size={size}"),
        TraceEvent::AckProcessed { newly_acked } => format!("ack   newly_acked={newly_acked}"),
        TraceEvent::Loss { pn } => format!("loss  pn={pn}"),
        TraceEvent::CcState { state } => format!("state -> {state}"),
        TraceEvent::Cwnd { bytes } => format!("cwnd  {bytes}"),
        TraceEvent::Recovery { kind } => format!("recov {}", kind.label()),
        TraceEvent::TimerArm { deadline_ns } => {
            format!("timer arm -> {}", Time::from_nanos(*deadline_ns))
        }
        TraceEvent::TimerFire { kind } => format!("timer fire {}", kind.label()),
        TraceEvent::FaultOn { kind, dir } => format!("FAULT on  {kind}/{dir}"),
        TraceEvent::FaultOff { kind, dir } => format!("FAULT off {kind}/{dir}"),
    };
    format!("{t:>14}  {body}")
}

/// Render the event timeline, eliding the middle when the trace exceeds
/// `max_lines` (the head and tail carry the handshake and the failure).
pub fn render_timeline(records: &[TraceRecord], max_lines: usize) -> String {
    let mut out = String::new();
    if records.len() <= max_lines {
        for r in records {
            let _ = writeln!(out, "{}", event_line(r));
        }
        return out;
    }
    let head = max_lines / 2;
    let tail = max_lines - head;
    for r in &records[..head] {
        let _ = writeln!(out, "{}", event_line(r));
    }
    let _ = writeln!(out, "  ... {} events elided ...", records.len() - max_lines);
    for r in &records[records.len() - tail..] {
        let _ = writeln!(out, "{}", event_line(r));
    }
    out
}

/// Render the per-state dwell table.
pub fn render_dwell_table(records: &[TraceRecord]) -> String {
    let rows = dwell_table(records);
    let mut out = String::new();
    let _ = writeln!(out, "{:<26} {:>12} {:>8}", "state", "dwell", "share");
    for (state, dwell, frac) in rows {
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>7.1}%",
            state,
            format!("{dwell}"),
            frac * 100.0
        );
    }
    out
}

/// Render the loss-episode report with fault attribution.
pub fn render_loss_episodes(records: &[TraceRecord]) -> String {
    let episodes = loss_episodes(records);
    let mut out = String::new();
    if episodes.is_empty() {
        let _ = writeln!(out, "no losses declared");
        return out;
    }
    for (i, ep) in episodes.iter().enumerate() {
        let _ = writeln!(
            out,
            "episode {}: {} losses in [{} .. {}]{}",
            i + 1,
            ep.losses,
            ep.start,
            ep.end,
            match &ep.fault {
                Some(f) => format!("  <- fault window {f}"),
                None => String::new(),
            },
        );
    }
    out
}

/// The full analyzer report: summary counters, fault windows, the dwell
/// table, loss episodes, and an elided timeline.
pub fn render_report(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    let n_tx = records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::PktTx { .. }))
        .count();
    let n_rx = records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::PktRx { .. }))
        .count();
    let n_loss = records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::Loss { .. }))
        .count();
    let span = match (records.first(), records.last()) {
        (Some(a), Some(b)) => Time::from_nanos(b.t).saturating_since(Time::from_nanos(a.t)),
        _ => Dur::ZERO,
    };
    let _ = writeln!(
        out,
        "trace: {} events over {span}  (tx {n_tx}, rx {n_rx}, losses {n_loss})",
        records.len(),
    );
    let windows = fault_windows(records);
    if !windows.is_empty() {
        let _ = writeln!(out, "\nfault windows:");
        for w in &windows {
            let off = if w.off == Time::MAX {
                "end-of-trace".to_string()
            } else {
                format!("{}", w.off)
            };
            let _ = writeln!(out, "  {:<20} [{} .. {}]", w.label, w.on, off);
        }
    }
    let _ = writeln!(out, "\nper-state dwell:");
    out.push_str(&render_dwell_table(records));
    let _ = writeln!(out, "\nloss episodes:");
    out.push_str(&render_loss_episodes(records));
    let _ = writeln!(out, "\ntimeline:");
    out.push_str(&render_timeline(records, 40));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ms: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            t: t_ms * 1_000_000,
            ev,
        }
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn windows_pair_on_off_edges() {
        let recs = vec![
            rec(
                100,
                TraceEvent::FaultOn {
                    kind: "blackout".into(),
                    dir: "both".into(),
                },
            ),
            rec(
                600,
                TraceEvent::FaultOff {
                    kind: "blackout".into(),
                    dir: "both".into(),
                },
            ),
        ];
        let ws = fault_windows(&recs);
        assert_eq!(
            ws,
            vec![FaultWindow {
                on: t(100),
                off: t(600),
                label: "blackout/both".into()
            }]
        );
    }

    #[test]
    fn unclosed_window_extends_to_max() {
        let recs = vec![rec(
            50,
            TraceEvent::FaultOn {
                kind: "stall".into(),
                dir: "down".into(),
            },
        )];
        let ws = fault_windows(&recs);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].off, Time::MAX);
    }

    #[test]
    fn episodes_split_on_gap_and_attribute_fault() {
        let recs = vec![
            rec(
                100,
                TraceEvent::FaultOn {
                    kind: "blackout".into(),
                    dir: "both".into(),
                },
            ),
            rec(150, TraceEvent::Loss { pn: 1 }),
            rec(200, TraceEvent::Loss { pn: 2 }),
            rec(
                400,
                TraceEvent::FaultOff {
                    kind: "blackout".into(),
                    dir: "both".into(),
                },
            ),
            // > EPISODE_GAP after the last loss: a second episode, still
            // attributed to the only window that ever opened.
            rec(2000, TraceEvent::Loss { pn: 3 }),
        ];
        let eps = loss_episodes(&recs);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].losses, 2);
        assert_eq!(eps[0].start, t(150));
        assert_eq!(eps[0].end, t(200));
        assert_eq!(eps[0].fault.as_deref(), Some("blackout/both"));
        assert_eq!(eps[1].losses, 1);
        assert_eq!(eps[1].fault.as_deref(), Some("blackout/both"));
    }

    #[test]
    fn losses_before_any_window_are_unattributed() {
        let recs = vec![rec(10, TraceEvent::Loss { pn: 1 })];
        let eps = loss_episodes(&recs);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].fault, None);
    }

    #[test]
    fn dwell_table_sums_repeat_visits() {
        let recs = vec![
            rec(0, TraceEvent::CcState { state: "A".into() }),
            rec(10, TraceEvent::CcState { state: "B".into() }),
            rec(30, TraceEvent::CcState { state: "A".into() }),
            rec(100, TraceEvent::Cwnd { bytes: 1 }),
        ];
        let rows = dwell_table(&recs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "A");
        assert_eq!(rows[0].1, Dur::from_millis(80)); // 10 + 70
        assert_eq!(rows[1].0, "B");
        assert_eq!(rows[1].1, Dur::from_millis(20));
        assert!((rows[0].2 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_renders_without_panic() {
        assert!(dwell_table(&[]).is_empty());
        assert!(loss_episodes(&[]).is_empty());
        let report = render_report(&[]);
        assert!(report.contains("0 events"));
    }

    #[test]
    fn timeline_elides_middle() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| rec(i, TraceEvent::Cwnd { bytes: i }))
            .collect();
        let text = render_timeline(&recs, 10);
        assert!(text.contains("90 events elided"));
        assert_eq!(text.lines().count(), 11);
    }
}
