//! Trace analysis: turning a captured structured event trace
//! (qlog-inspired JSON-SEQ) into human-readable evidence — an event
//! timeline, a per-state dwell table, and extracted loss episodes
//! attributed to the fault windows that caused them.
//!
//! This is the read side of the trace layer: `repro trace FILE` parses a
//! `.jsonseq` file (e.g. the trace a shrunk trauma repro carries) and
//! prints [`render_report`], which is designed to *explain* a failure —
//! the dwell table names the state the connection stalled in, and the
//! loss-episode extraction locates the injected fault window. Its parts
//! are laid out by the one table layout, [`crate::table`].

use crate::table::{Column, Table};
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

/// A connection's congestion window over time, one entry per change,
/// rebuilt from its trace: `(creation, 0)` at its first `CcState` record
/// (written as it is built), then every `Cwnd` record. Empty untraced.
pub fn cwnd_timeline(records: &[TraceRecord]) -> Vec<(Time, u64)> {
    let mut timeline = Vec::new();
    for r in records {
        let at = Time::from_nanos(r.t);
        match r.ev {
            TraceEvent::CcState { .. } if timeline.is_empty() => timeline.push((at, 0)),
            TraceEvent::Cwnd { bytes } => timeline.push((at, bytes)),
            _ => {}
        }
    }
    timeline
}

/// What one event says, in the qlog "sequence diagram" view.
fn event_text(ev: &TraceEvent) -> String {
    match ev {
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
    }
}

/// The event timeline, one row per event, its middle elided when the
/// trace exceeds `max_lines` (the head and tail carry the handshake and
/// the failure).
fn timeline(records: &[TraceRecord], max_lines: usize) -> Table {
    let mut t = Table::new(vec![Column::label("", 0), Column::label("", 0).after("  ")]);
    let line = |r: &TraceRecord| {
        let at = Time::from_nanos(r.t).to_string();
        vec![at.into(), event_text(&r.ev).into()]
    };
    let elided = records.len().saturating_sub(max_lines);
    let head = if elided > 0 {
        max_lines / 2
    } else {
        records.len()
    };
    records[..head].iter().for_each(|r| t.row(line(r)));
    if elided > 0 {
        t.row(vec![format!("  ... {elided} events elided ...").into()]);
    }
    records[head + elided..].iter().for_each(|r| t.row(line(r)));
    t
}

/// The analyzer's report: summary counters, fault windows, the per-state
/// dwell table, loss episodes with their fault attribution, and the event
/// timeline (40 lines at most). Every part is laid out as a [`Table`].
pub fn render_report(records: &[TraceRecord]) -> String {
    let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.ev)).count();
    let n_tx = count(|e| matches!(e, TraceEvent::PktTx { .. }));
    let n_rx = count(|e| matches!(e, TraceEvent::PktRx { .. }));
    let n_loss = count(|e| matches!(e, TraceEvent::Loss { .. }));
    let span = match (records.first(), records.last()) {
        (Some(a), Some(b)) => Time::from_nanos(b.t).saturating_since(Time::from_nanos(a.t)),
        _ => Dur::ZERO,
    };
    let mut out = format!(
        "trace: {} events over {span}  (tx {n_tx}, rx {n_rx}, losses {n_loss})\n",
        records.len(),
    );
    let windows = fault_windows(records);
    if !windows.is_empty() {
        let mut t = Table::new(vec![
            Column::label("", 20).after("  "),
            Column::label("", 0).after(" "),
        ]);
        for w in windows {
            let off = match w.off {
                Time::MAX => "end-of-trace".to_string(),
                off => off.to_string(),
            };
            t.row(vec![w.label.into(), format!("[{} .. {off}]", w.on).into()]);
        }
        let _ = write!(out, "\nfault windows:\n{t}");
    }
    let mut dwell = Table::new(vec![
        Column::label("state", 26),
        Column::num("dwell", 12, 0).after(" "),
        Column::num("share", 8, 0).after(" "),
    ]);
    for (state, time, frac) in dwell_table(records) {
        let share = format!("{:.1}%", frac * 100.0);
        dwell.row(vec![state.into(), time.to_string().into(), share.into()]);
    }
    let _ = write!(out, "\nper-state dwell:\n{dwell}\nloss episodes:\n");
    let episodes = loss_episodes(records);
    if episodes.is_empty() {
        out.push_str("no losses declared\n");
    }
    let leads = ["episode ", ": ", " losses in [", " .. ", "]"];
    let mut t = Table::new(leads.map(|l| Column::label("", 0).after(l)).to_vec());
    for (i, ep) in episodes.into_iter().enumerate() {
        let fault = ep.fault.map(|f| format!("  <- fault window {f}"));
        t.row(vec![
            (i + 1).to_string().into(),
            ep.losses.to_string().into(),
            ep.start.to_string().into(),
            ep.end.to_string().into(),
            fault.unwrap_or_default().into(),
        ]);
    }
    let _ = write!(out, "{t}\ntimeline:\n{}", timeline(records, 40));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::trace::RecoveryKind;

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

    /// A trace with every kind of event: a closed and an unclosed fault
    /// window, two loss episodes, repeat state visits and 48 events, so
    /// the timeline elides its middle.
    fn eventful_trace() -> Vec<TraceRecord> {
        let fault = |on: bool, kind: &str, dir: &str| {
            let (kind, dir) = (kind.into(), dir.into());
            match on {
                true => TraceEvent::FaultOn { kind, dir },
                false => TraceEvent::FaultOff { kind, dir },
            }
        };
        let state = |s: &str| TraceEvent::CcState { state: s.into() };
        let mut recs = vec![rec(0, state("Init")), rec(1, state("SlowStart"))];
        for pn in 0..12 {
            recs.push(rec(
                2 + pn * 10,
                TraceEvent::PktTx {
                    pn,
                    size: 1200,
                    elicit: pn % 5 != 4,
                },
            ));
            recs.push(rec(7 + pn * 10, TraceEvent::PktRx { pn, size: 60 }));
        }
        recs.extend([
            rec(150, fault(true, "blackout", "both")),
            rec(160, TraceEvent::AckProcessed { newly_acked: 4800 }),
            rec(170, TraceEvent::Cwnd { bytes: 48_000 }),
            rec(
                180,
                TraceEvent::TimerArm {
                    deadline_ns: 400_000_000,
                },
            ),
            rec(
                400,
                TraceEvent::TimerFire {
                    kind: RecoveryKind::Tlp,
                },
            ),
            rec(410, TraceEvent::Loss { pn: 9 }),
            rec(420, TraceEvent::Loss { pn: 10 }),
            rec(
                430,
                TraceEvent::Recovery {
                    kind: RecoveryKind::FastRetx,
                },
            ),
            rec(440, state("Recovery")),
            rec(450, fault(false, "blackout", "both")),
            rec(900, state("CongestionAvoidance")),
            rec(1_000, fault(true, "stall", "down")),
            rec(1_700, TraceEvent::Loss { pn: 30 }),
            rec(
                1_710,
                TraceEvent::Recovery {
                    kind: RecoveryKind::Rto,
                },
            ),
            rec(1_720, state("Recovery")),
            rec(1_800, TraceEvent::Cwnd { bytes: 2_400 }),
            rec(1_900, TraceEvent::AckProcessed { newly_acked: 1200 }),
            rec(
                2_000,
                TraceEvent::Recovery {
                    kind: RecoveryKind::GiveUp,
                },
            ),
            rec(2_100, state("CongestionAvoidance")),
            rec(2_200, TraceEvent::Cwnd { bytes: 3_600 }),
        ]);
        recs
    }

    /// The analyzer's whole text for [`eventful_trace`].
    const EVENTFUL_REPORT: &str = "trace: 46 events over 2.200s  (tx 12, rx 12, losses 3)

fault windows:
  blackout/both        [0.150000s .. 0.450000s]
  stall/down           [1.000000s .. end-of-trace]

per-state dwell:
state                             dwell    share
Init                            1.000ms     0.0%
SlowStart                     439.000ms    20.0%
Recovery                      840.000ms    38.2%
CongestionAvoidance           920.000ms    41.8%

loss episodes:
episode 1: 2 losses in [0.410000s .. 0.420000s]  <- fault window blackout/both
episode 2: 1 losses in [1.700000s .. 1.700000s]  <- fault window stall/down

timeline:
0.000000s  state -> Init
0.001000s  state -> SlowStart
0.002000s  tx    pn=0 size=1200
0.007000s  rx    pn=0 size=60
0.012000s  tx    pn=1 size=1200
0.017000s  rx    pn=1 size=60
0.022000s  tx    pn=2 size=1200
0.027000s  rx    pn=2 size=60
0.032000s  tx    pn=3 size=1200
0.037000s  rx    pn=3 size=60
0.042000s  tx    pn=4 size=1200 (ctrl)
0.047000s  rx    pn=4 size=60
0.052000s  tx    pn=5 size=1200
0.057000s  rx    pn=5 size=60
0.062000s  tx    pn=6 size=1200
0.067000s  rx    pn=6 size=60
0.072000s  tx    pn=7 size=1200
0.077000s  rx    pn=7 size=60
0.082000s  tx    pn=8 size=1200
0.087000s  rx    pn=8 size=60
  ... 6 events elided ...
0.150000s  FAULT on  blackout/both
0.160000s  ack   newly_acked=4800
0.170000s  cwnd  48000
0.180000s  timer arm -> 0.400000s
0.400000s  timer fire tlp
0.410000s  loss  pn=9
0.420000s  loss  pn=10
0.430000s  recov fr
0.440000s  state -> Recovery
0.450000s  FAULT off blackout/both
0.900000s  state -> CongestionAvoidance
1.000000s  FAULT on  stall/down
1.700000s  loss  pn=30
1.710000s  recov rto
1.720000s  state -> Recovery
1.800000s  cwnd  2400
1.900000s  ack   newly_acked=1200
2.000000s  recov gu
2.100000s  state -> CongestionAvoidance
2.200000s  cwnd  3600
";

    #[test]
    fn report_lays_out_every_part_of_an_eventful_trace() {
        let recs = eventful_trace();
        assert!(recs.len() > 40);
        assert_eq!(render_report(&recs), EVENTFUL_REPORT);
    }

    #[test]
    fn timeline_elides_middle() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| rec(i, TraceEvent::Cwnd { bytes: i }))
            .collect();
        let text = timeline(&recs, 10).to_string();
        assert!(text.contains("90 events elided"));
        assert_eq!(text.lines().count(), 11);
    }
}
