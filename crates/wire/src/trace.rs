//! qlog-inspired per-connection structured event traces.
//!
//! A [`Tracer`] lives inside each transport connection and appends
//! [`TraceRecord`]s — packet tx/rx, ack processing, loss declarations,
//! congestion-control state and cwnd changes, recovery decisions, timer
//! arms/fires — while the fault layer contributes window-edge records
//! synthesized from the plan. Tracing is selected per connection by the
//! [`TraceMode`] its protocol config carries (off by default); when off every
//! emit method is an inlined early-return on one bool, draws zero RNG,
//! and perturbs nothing — a promise the `path_differential` referee
//! suite holds bit-exactly.
//!
//! On disk a trace is qlog-style JSON-SEQ (RFC 7464): each record is an
//! RS byte (`0x1E`), one minimized-key JSON object, and a newline.
//! [`encode_seq`] writes it and [`parse_seq`] reads it back to the typed
//! event sequence, both through the workspace's one JSON codec
//! ([`crate::json`]).

use crate::json::{self, Json};

/// RFC 7464 record separator that prefixes every JSON-SEQ record.
pub const RECORD_SEP: char = '\u{1e}';

/// Whether a run records per-connection structured traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing (default): emit methods are inlined no-ops.
    #[default]
    Off,
    /// Record every event in memory.
    On,
}

impl TraceMode {
    // Sole caller: `observatory/` (frozen; it refuses to start under any
    // `LONGLOOK_*` variable, so the default is what it already observes).
    #[doc(hidden)]
    pub fn from_env() -> TraceMode {
        TraceMode::default()
    }

    /// True when tracing is selected.
    pub fn is_on(self) -> bool {
        self == TraceMode::On
    }
}

/// Which recovery mechanism acted (or which loss timer fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Tail loss probe.
    Tlp,
    /// Retransmission timeout.
    Rto,
    /// Dup-ack / nack-threshold fast retransmit.
    FastRetx,
    /// Watchdog gave the connection up.
    GiveUp,
}

impl RecoveryKind {
    /// Minimized wire label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryKind::Tlp => "tlp",
            RecoveryKind::Rto => "rto",
            RecoveryKind::FastRetx => "fr",
            RecoveryKind::GiveUp => "gu",
        }
    }

    fn parse(s: &str) -> Option<RecoveryKind> {
        Some(match s {
            "tlp" => RecoveryKind::Tlp,
            "rto" => RecoveryKind::Rto,
            "fr" => RecoveryKind::FastRetx,
            "gu" => RecoveryKind::GiveUp,
            _ => return None,
        })
    }
}

/// One structured trace event. Packet numbers double as TCP sequence
/// numbers; sizes are wire bytes as charged to the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Packet sent (`elicit` = ack-eliciting, as in qlog's
    /// `packet_sent.ack_eliciting`; pure control/ACK frames are not).
    PktTx {
        /// Packet number (QUIC) or starting sequence number (TCP).
        pn: u64,
        /// Wire size in bytes.
        size: u64,
        /// Ack-eliciting (retransmittable) packet.
        elicit: bool,
    },
    /// Packet received.
    PktRx {
        /// Packet number (QUIC) or starting sequence number (TCP).
        pn: u64,
        /// Wire size in bytes.
        size: u64,
    },
    /// An ack frame/segment was processed; `newly_acked` bytes left the
    /// flight.
    AckProcessed {
        /// Newly acknowledged bytes.
        newly_acked: u64,
    },
    /// A packet was declared lost.
    Loss {
        /// Packet number (QUIC) or starting sequence number (TCP).
        pn: u64,
    },
    /// The congestion-control state label changed.
    CcState {
        /// The new state label (Table 3 vocabulary).
        state: String,
    },
    /// The congestion window changed.
    Cwnd {
        /// New window in bytes.
        bytes: u64,
    },
    /// A recovery decision was taken.
    Recovery {
        /// Which mechanism acted.
        kind: RecoveryKind,
    },
    /// The loss/RTO timer was (re-)armed.
    TimerArm {
        /// Deadline the timer was armed for, nanoseconds.
        deadline_ns: u64,
    },
    /// An armed loss timer fired.
    TimerFire {
        /// Which timer fired.
        kind: RecoveryKind,
    },
    /// A fault window opened (synthesized from the `FaultPlan`, never
    /// emitted by a connection — pure function of the plan).
    FaultOn {
        /// Fault kind label (`blackout`, `flap`, ... — repro spelling).
        kind: String,
        /// Direction label (`up` / `down` / `both`).
        dir: String,
    },
    /// A fault window closed.
    FaultOff {
        /// Fault kind label.
        kind: String,
        /// Direction label.
        dir: String,
    },
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time, nanoseconds since experiment start.
    pub t: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// Per-connection event recorder. Constructed enabled or disabled once
/// (from the run's [`TraceMode`] at connection construction); when
/// disabled every emit method inlines to a single branch and the record
/// vector never allocates.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    /// Last emitted cc-state label, for change-only emission.
    last_state: Option<String>,
    log: Vec<TraceRecord>,
}

impl Tracer {
    /// Explicitly enabled or disabled tracer.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            last_state: None,
            log: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Everything recorded so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.log
    }

    #[inline]
    fn push(&mut self, t: u64, ev: TraceEvent) {
        self.log.push(TraceRecord { t, ev });
    }

    /// Packet sent (`elicit` = ack-eliciting).
    #[inline]
    pub fn pkt_tx(&mut self, t: u64, pn: u64, size: u64, elicit: bool) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::PktTx { pn, size, elicit });
    }

    /// Packet received.
    #[inline]
    pub fn pkt_rx(&mut self, t: u64, pn: u64, size: u64) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::PktRx { pn, size });
    }

    /// Ack processed.
    #[inline]
    pub fn ack(&mut self, t: u64, newly_acked: u64) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::AckProcessed { newly_acked });
    }

    /// Packet declared lost.
    #[inline]
    pub fn loss(&mut self, t: u64, pn: u64) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::Loss { pn });
    }

    /// Congestion-control state observation; deduplicated so only
    /// changes are recorded.
    #[inline]
    pub fn cc_state(&mut self, t: u64, label: &str) {
        if !self.enabled {
            return;
        }
        if self.last_state.as_deref() == Some(label) {
            return;
        }
        self.last_state = Some(label.to_string());
        self.push(
            t,
            TraceEvent::CcState {
                state: label.to_string(),
            },
        );
    }

    /// Congestion window change (callers already emit change-only).
    #[inline]
    pub fn cwnd(&mut self, t: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::Cwnd { bytes });
    }

    /// Recovery decision.
    #[inline]
    pub fn recovery(&mut self, t: u64, kind: RecoveryKind) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::Recovery { kind });
    }

    /// Loss timer armed for `deadline_ns`.
    #[inline]
    pub fn timer_arm(&mut self, t: u64, deadline_ns: u64) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::TimerArm { deadline_ns });
    }

    /// Loss timer fired.
    #[inline]
    pub fn timer_fire(&mut self, t: u64, kind: RecoveryKind) {
        if !self.enabled {
            return;
        }
        self.push(t, TraceEvent::TimerFire { kind });
    }
}

/// Merge two time-sorted record slices into one time-sorted vector;
/// stable, with `a`-side records first on ties.
pub fn merge_by_time(a: &[TraceRecord], b: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].t <= b[j].t {
            out.push(a[i].clone());
            i += 1;
        } else {
            out.push(b[j].clone());
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ---------------------------------------------------------------------------
// JSON-SEQ codec (minimized field names)
// ---------------------------------------------------------------------------

/// Encode one record as RS + minimized-key JSON + newline.
pub fn encode_record(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(48);
    s.push(RECORD_SEP);
    s.push_str(&format!("{{\"t\":{}", rec.t));
    match &rec.ev {
        TraceEvent::PktTx { pn, size, elicit } => {
            s.push_str(&format!(",\"k\":\"tx\",\"pn\":{pn},\"sz\":{size}"));
            if *elicit {
                s.push_str(",\"el\":1");
            }
        }
        TraceEvent::PktRx { pn, size } => {
            s.push_str(&format!(",\"k\":\"rx\",\"pn\":{pn},\"sz\":{size}"));
        }
        TraceEvent::AckProcessed { newly_acked } => {
            s.push_str(&format!(",\"k\":\"ack\",\"nb\":{newly_acked}"));
        }
        TraceEvent::Loss { pn } => {
            s.push_str(&format!(",\"k\":\"loss\",\"pn\":{pn}"));
        }
        TraceEvent::CcState { state } => {
            s.push_str(&format!(",\"k\":\"st\",\"s\":\"{}\"", json::escape(state)));
        }
        TraceEvent::Cwnd { bytes } => {
            s.push_str(&format!(",\"k\":\"cw\",\"b\":{bytes}"));
        }
        TraceEvent::Recovery { kind } => {
            s.push_str(&format!(",\"k\":\"rec\",\"r\":\"{}\"", kind.label()));
        }
        TraceEvent::TimerArm { deadline_ns } => {
            s.push_str(&format!(",\"k\":\"ta\",\"at\":{deadline_ns}"));
        }
        TraceEvent::TimerFire { kind } => {
            s.push_str(&format!(",\"k\":\"tf\",\"r\":\"{}\"", kind.label()));
        }
        TraceEvent::FaultOn { kind, dir } => {
            s.push_str(&format!(
                ",\"k\":\"f+\",\"f\":\"{}\",\"d\":\"{}\"",
                json::escape(kind),
                json::escape(dir)
            ));
        }
        TraceEvent::FaultOff { kind, dir } => {
            s.push_str(&format!(
                ",\"k\":\"f-\",\"f\":\"{}\",\"d\":\"{}\"",
                json::escape(kind),
                json::escape(dir)
            ));
        }
    }
    s.push('}');
    s.push('\n');
    s
}

/// Encode a whole record sequence as one JSON-SEQ string.
pub fn encode_seq(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&encode_record(r));
    }
    out
}

/// Parse one JSON-SEQ record line (with or without the RS prefix and
/// trailing newline) back to the typed record. Numeric fields must be
/// unsigned integer literals and string fields strings.
pub fn parse_record(line: &str) -> Result<TraceRecord, String> {
    let rec = json::parse(line.trim_start_matches(RECORD_SEP)).map_err(|e| e.to_string())?;
    let num = |key: &str| {
        rec.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing numeric field '{key}'"))
    };
    let text = |key: &str| {
        rec.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field '{key}'"))
    };
    let t = num("t")?;
    let kind = text("k")?;
    let ev = match kind {
        "tx" => TraceEvent::PktTx {
            pn: num("pn")?,
            size: num("sz")?,
            elicit: num("el").unwrap_or(0) != 0,
        },
        "rx" => TraceEvent::PktRx {
            pn: num("pn")?,
            size: num("sz")?,
        },
        "ack" => TraceEvent::AckProcessed {
            newly_acked: num("nb")?,
        },
        "loss" => TraceEvent::Loss { pn: num("pn")? },
        "st" => TraceEvent::CcState {
            state: text("s")?.to_string(),
        },
        "cw" => TraceEvent::Cwnd { bytes: num("b")? },
        "rec" => TraceEvent::Recovery {
            kind: RecoveryKind::parse(text("r")?)
                .ok_or_else(|| "unknown recovery kind".to_string())?,
        },
        "ta" => TraceEvent::TimerArm {
            deadline_ns: num("at")?,
        },
        "tf" => TraceEvent::TimerFire {
            kind: RecoveryKind::parse(text("r")?)
                .ok_or_else(|| "unknown timer kind".to_string())?,
        },
        "f+" => TraceEvent::FaultOn {
            kind: text("f")?.to_string(),
            dir: text("d")?.to_string(),
        },
        "f-" => TraceEvent::FaultOff {
            kind: text("f")?.to_string(),
            dir: text("d")?.to_string(),
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(TraceRecord { t, ev })
}

/// Parse a whole JSON-SEQ stream.
pub fn parse_seq(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for chunk in text.split(RECORD_SEP) {
        let chunk = chunk.trim_end_matches('\n');
        if chunk.is_empty() {
            continue;
        }
        out.push(parse_record(chunk)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.pkt_tx(1, 0, 1200, true);
        t.pkt_rx(2, 0, 40);
        t.ack(3, 1200);
        t.loss(4, 0);
        t.cc_state(5, "SlowStart");
        t.cwnd(6, 14520);
        t.recovery(7, RecoveryKind::Rto);
        t.timer_arm(8, 99);
        t.timer_fire(9, RecoveryKind::Tlp);
        assert!(t.records().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn cc_state_emits_changes_only() {
        let mut t = Tracer::new(true);
        t.cc_state(1, "Init");
        t.cc_state(2, "Init");
        t.cc_state(3, "SlowStart");
        t.cc_state(4, "SlowStart");
        t.cc_state(5, "Init");
        let states: Vec<&str> = t
            .records()
            .iter()
            .filter_map(|r| match &r.ev {
                TraceEvent::CcState { state } => Some(state.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(states, ["Init", "SlowStart", "Init"]);
    }

    #[test]
    fn merge_by_time_is_stable() {
        let a = vec![
            TraceRecord {
                t: 1,
                ev: TraceEvent::Loss { pn: 1 },
            },
            TraceRecord {
                t: 5,
                ev: TraceEvent::Loss { pn: 2 },
            },
        ];
        let b = vec![
            TraceRecord {
                t: 1,
                ev: TraceEvent::FaultOn {
                    kind: "blackout".into(),
                    dir: "both".into(),
                },
            },
            TraceRecord {
                t: 3,
                ev: TraceEvent::FaultOff {
                    kind: "blackout".into(),
                    dir: "both".into(),
                },
            },
        ];
        let m = merge_by_time(&a, &b);
        let ts: Vec<u64> = m.iter().map(|r| r.t).collect();
        assert_eq!(ts, [1, 1, 3, 5]);
        // Tie at t=1: a-side (the connection's Loss) first.
        assert!(matches!(m[0].ev, TraceEvent::Loss { .. }));
    }

    #[test]
    fn record_lines_are_rfc7464_shaped() {
        let line = encode_record(&TraceRecord {
            t: 42,
            ev: TraceEvent::PktTx {
                pn: 7,
                size: 1392,
                elicit: true,
            },
        });
        assert!(line.starts_with(RECORD_SEP));
        assert!(line.ends_with('\n'));
        assert_eq!(
            &line[1..line.len() - 1],
            r#"{"t":42,"k":"tx","pn":7,"sz":1392,"el":1}"#
        );
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(parse_record("{}").is_err());
        assert!(parse_record(r#"{"t":1}"#).is_err());
        assert!(parse_record(r#"{"t":1,"k":"melt"}"#).is_err());
        assert!(parse_record(r#"{"t":1,"k":"tx","pn":2}"#).is_err());
        assert!(parse_record(r#"{"t":1,"k":"rec","r":"warp"}"#).is_err());
        assert!(parse_record(r#"{"t":1,"k":"loss","pn":2} extra"#).is_err());
    }

    /// A `\u` escape in the high-surrogate range is only half a
    /// character: whatever follows it but a low surrogate is an error,
    /// never an arithmetic underflow.
    #[test]
    fn unpaired_surrogates_are_errors() {
        let state = |escapes: &str| parse_seq(&format!(r#"{{"t":1,"k":"st","s":"{escapes}"}}"#));
        let err = state(r"\ud800\u0041").expect_err("high surrogate, then a plain escape");
        assert!(err.contains("not a low surrogate"), "{err}");
        assert!(state(r"\ud800\ud800").is_err(), "two high surrogates");
        assert!(state(r"\ud800").is_err(), "high surrogate at the end");
        assert!(state(r"\ud800A").is_err(), "high surrogate, then a letter");
        assert!(state(r"\udc00").is_err(), "low surrogate on its own");
        assert!(parse_seq(r#"{"k":"\ud800\u0041"}"#).is_err());
        assert_eq!(
            state(r"\ud83e\udd80").expect("a valid pair"),
            [TraceRecord {
                t: 1,
                ev: TraceEvent::CcState {
                    state: "🦀".to_string()
                }
            }]
        );
    }

    // ---- proptest strategies -------------------------------------------

    fn arb_label() -> impl Strategy<Value = String> {
        // Realistic state labels plus adversarial strings built from a
        // palette that exercises escaping: quotes, backslashes, control
        // characters (including the RS record separator), and multi-byte
        // UTF-8 up to astral plane.
        const PALETTE: &[char] = &[
            'a', 'B', '3', '_', '-', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1e}', 'é', 'λ',
            '汉', '🦀',
        ];
        prop_oneof![
            Just("SlowStart".to_string()),
            Just("CongestionAvoidance".to_string()),
            Just("RetransmissionTimeout".to_string()),
            proptest::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
                bytes
                    .iter()
                    .map(|&b| PALETTE[b as usize % PALETTE.len()])
                    .collect()
            }),
        ]
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            (any::<u64>(), any::<u64>(), any::<bool>())
                .prop_map(|(pn, size, elicit)| TraceEvent::PktTx { pn, size, elicit }),
            (any::<u64>(), any::<u64>()).prop_map(|(pn, size)| TraceEvent::PktRx { pn, size }),
            any::<u64>().prop_map(|newly_acked| TraceEvent::AckProcessed { newly_acked }),
            any::<u64>().prop_map(|pn| TraceEvent::Loss { pn }),
            arb_label().prop_map(|state| TraceEvent::CcState { state }),
            any::<u64>().prop_map(|bytes| TraceEvent::Cwnd { bytes }),
            prop_oneof![
                Just(RecoveryKind::Tlp),
                Just(RecoveryKind::Rto),
                Just(RecoveryKind::FastRetx),
                Just(RecoveryKind::GiveUp),
            ]
            .prop_map(|kind| TraceEvent::Recovery { kind }),
            any::<u64>().prop_map(|deadline_ns| TraceEvent::TimerArm { deadline_ns }),
            prop_oneof![Just(RecoveryKind::Tlp), Just(RecoveryKind::Rto)]
                .prop_map(|kind| TraceEvent::TimerFire { kind }),
            (arb_label(), arb_label()).prop_map(|(kind, dir)| TraceEvent::FaultOn { kind, dir }),
            (arb_label(), arb_label()).prop_map(|(kind, dir)| TraceEvent::FaultOff { kind, dir }),
        ]
    }

    fn arb_records() -> impl Strategy<Value = Vec<TraceRecord>> {
        proptest::collection::vec(
            (any::<u64>(), arb_event()).prop_map(|(t, ev)| TraceRecord { t, ev }),
            0..64,
        )
    }

    proptest! {
        /// Minimized-key encoding parses back to the exact typed enum.
        #[test]
        fn encoding_round_trips_to_typed_events(records in arb_records()) {
            let encoded = encode_seq(&records);
            let parsed = parse_seq(&encoded).expect("parse");
            prop_assert_eq!(parsed, records);
        }

    }
}
