//! `traumafuzz` internals: seed-derived fault plans, invariant oracles,
//! a greedy shrinker, and self-contained JSON repro files.
//!
//! The fuzzer's unit of work is one **seed**: it deterministically derives
//! a [`FaultPlan`] from the seed, runs a paired QUIC/TCP page load under
//! that plan, and checks four oracles against each [`RunRecord`]:
//!
//! 1. **termination** — the world must quiesce (stop or go idle), never
//!    run to the deadline;
//! 2. **typed completion** — the load either finishes or surfaces a typed
//!    [`ConnError`](longlook_core::prelude::ConnError) on an endpoint
//!    (the negation is a silent livelock);
//! 3. **conservation** — app bytes delivered in order to the client never
//!    exceed wire bytes the server sent (duplication must not forge data);
//! 4. **cc legality** — the server's congestion-control trace stays inside
//!    the paper's Fig. 3 legal graph;
//!
//! plus a structural fifth: running the same seed twice must produce an
//! identical record (bit-level determinism under trauma).
//!
//! A violating plan is shrunk with a greedy delta-debugging pass — drop
//! events one at a time, then halve durations — re-running the cell after
//! every candidate edit, and the minimal plan is written as a JSON repro
//! file that `repro trauma <file>` (or `traumafuzz --replay`) can replay
//! exactly. Per-mille integer parameters mean the JSON round trip is
//! lossless.

use longlook_core::prelude::*;
use longlook_sim::json::{self, Json, JsonError};
use longlook_sim::SimRng;
use longlook_transport::{check_trace_legal, cubic_legal_edges};

/// Link rate of every fuzz cell, Mbps (a clean load takes ~8 s, so fault
/// windows starting inside [`FUZZ_START_MS`) ms actually intersect it).
pub const FUZZ_RATE_MBPS: f64 = 2.0;
/// Response body each fuzz cell transfers.
pub const FUZZ_PAGE_BYTES: u64 = 2 * 1024 * 1024;
/// Fault windows start uniformly inside the first this-many milliseconds.
const FUZZ_START_MS: u64 = 8_000;
/// Schema tag of the repro file format.
pub const REPRO_SCHEMA: &str = "longlook-trauma-repro-v1";

/// One oracle violation: which protocol's cell broke which oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Protocol display name (`"QUIC"` / `"TCP"`).
    pub proto: &'static str,
    /// Human-readable oracle verdict, prefixed with the oracle name.
    pub oracle: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.proto, self.oracle)
    }
}

/// Why [`parse_repro`] refused a document.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproError {
    /// Not a JSON document.
    Json(JsonError),
    /// The named field is absent or not the JSON type the second word
    /// names.
    Missing(String, &'static str),
    /// The named numeric field is not an unsigned integer literal: it is
    /// negative, fractional, in exponent form, or beyond `u64`.
    NotUnsigned(String, f64),
    /// The named unsigned field does not fit the `u32` it feeds.
    OutOfRange(String, u64),
    /// A word the named vocabulary (schema, dir, fault kind, stall side)
    /// does not have in this version.
    Unknown(&'static str, String),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Json(e) => write!(f, "{e}"),
            ReproError::Missing(key, want) => write!(f, "missing {want} field '{key}'"),
            ReproError::NotUnsigned(key, got) => {
                write!(f, "field '{key}' must be an unsigned integer, got {got}")
            }
            ReproError::OutOfRange(key, got) => {
                write!(f, "field '{key}' is {got}, above its maximum {}", u32::MAX)
            }
            ReproError::Unknown(what, got) => write!(f, "unknown {what} '{got}'"),
        }
    }
}

impl std::error::Error for ReproError {}

/// A self-contained reproduction case: everything `run_plan` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproCase {
    /// Base seed of the scenario (drives RTT jitter and link RNG).
    pub seed: u64,
    /// Whether the canary bug (QUIC's give-up error dropped from the
    /// record, as a muted watchdog would) was armed.
    pub canary: bool,
    /// The (possibly shrunk) fault schedule.
    pub plan: FaultPlan,
    /// Structured event trace of the shrunk case's QUIC cell (JSON-SEQ,
    /// `longlook_sim::trace` encoding), captured by [`capture_trace`] so
    /// the repro file explains itself: the analyzer (`repro trace`) can
    /// name the fault window and the state the connection stalled in
    /// without re-running anything.
    pub trace: Option<String>,
}

/// Derive the fault plan for a seed: 1–3 events with kind, direction,
/// window, and magnitudes all drawn from a [`SimRng`] keyed on the seed
/// alone. Pure: the same seed always yields the same plan.
pub fn plan_from_seed(seed: u64) -> FaultPlan {
    let mut rng = SimRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7EA0);
    let n = 1 + rng.uniform_u64(0, 2);
    let mut plan = FaultPlan::new();
    for _ in 0..n {
        plan = plan.with_event(random_event(&mut rng));
    }
    plan
}

fn random_event(rng: &mut SimRng) -> FaultEvent {
    let at = Time::ZERO + Dur::from_millis(rng.uniform_u64(0, FUZZ_START_MS - 1));
    let dir = match rng.uniform_u64(0, 2) {
        0 => FaultDir::Up,
        1 => FaultDir::Down,
        _ => FaultDir::Both,
    };
    fn short(rng: &mut SimRng) -> Dur {
        Dur::from_millis(rng.uniform_u64(200, 8_000))
    }
    let (kind, dur) = match rng.uniform_u64(0, 8) {
        0 => {
            // One blackout in four outlasts the 60 s idle watchdog, so any
            // few-dozen-seed sweep exercises the typed-error give-up path
            // (and, with the canary armed, trips the silent-livelock
            // oracle).
            let dur = if rng.chance(0.25) {
                Dur::from_secs(rng.uniform_u64(65, 90))
            } else {
                short(rng)
            };
            (FaultKind::Blackout, dur)
        }
        1 => (
            FaultKind::Flap {
                period: Dur::from_millis(rng.uniform_u64(100, 1_000)),
                down_pm: rng.uniform_u64(100, 700) as u32,
            },
            short(rng),
        ),
        2 => (
            FaultKind::BandwidthCliff {
                factor_pm: rng.uniform_u64(50, 800) as u32,
            },
            short(rng),
        ),
        3 => (
            FaultKind::BandwidthRamp {
                floor_pm: rng.uniform_u64(50, 800) as u32,
            },
            short(rng),
        ),
        4 => (
            FaultKind::BurstLoss(GeParams {
                p_enter_pm: rng.uniform_u64(20, 200) as u32,
                p_exit_pm: rng.uniform_u64(100, 500) as u32,
                loss_good_pm: rng.uniform_u64(0, 20) as u32,
                loss_bad_pm: rng.uniform_u64(300, 900) as u32,
            }),
            short(rng),
        ),
        5 => (
            FaultKind::Duplicate {
                prob_pm: rng.uniform_u64(50, 400) as u32,
            },
            short(rng),
        ),
        6 => (
            FaultKind::Corrupt {
                prob_pm: rng.uniform_u64(20, 250) as u32,
            },
            short(rng),
        ),
        7 => (
            FaultKind::PeerStall {
                side: if rng.chance(0.5) {
                    PeerSide::Client
                } else {
                    PeerSide::Server
                },
            },
            // Stalls stay well under the idle timeout: the oracle for
            // them is recovery, not give-up.
            Dur::from_millis(rng.uniform_u64(200, 4_000)),
        ),
        _ => (
            FaultKind::BufferShrink {
                factor_pm: rng.uniform_u64(100, 600) as u32,
            },
            short(rng),
        ),
    };
    FaultEvent { at, dur, dir, kind }
}

/// The pair of cells a fuzz seed runs, QUIC then TCP, on the fixed fuzz
/// path with `plan` composed on.
pub fn fuzz_cells(seed: u64, plan: FaultPlan) -> [Scenario; 2] {
    let quic = Scenario::new(
        NetProfile::baseline(FUZZ_RATE_MBPS).with_fault(plan),
        PageSpec::single(FUZZ_PAGE_BYTES),
    )
    .with_proto(ProtoConfig::Quic(QuicConfig::default()))
    .with_rounds(1)
    .with_seed(seed);
    let tcp = quic
        .clone()
        .with_proto(ProtoConfig::Tcp(TcpConfig::default()));
    [quic, tcp]
}

/// The four per-record oracles. Returns every violated oracle's verdict.
pub fn check_oracles(rec: &RunRecord) -> Vec<String> {
    let mut v = Vec::new();
    if rec.outcome == RunOutcome::DeadlineReached {
        v.push("termination: world ran to the deadline instead of quiescing".to_string());
    }
    if !rec.accounted_for() {
        v.push(
            "typed-completion: load neither finished nor surfaced a typed error \
             (silent livelock)"
                .to_string(),
        );
    }
    let sent = rec.server_stats.map_or(0, |s| s.bytes_sent);
    if rec.app_bytes > sent {
        v.push(format!(
            "conservation: client delivered {} app bytes but the server sent only \
             {} wire bytes",
            rec.app_bytes, sent
        ));
    }
    if let Some(trace) = rec.server_trace.as_ref() {
        if let Err(msg) = check_trace_legal(trace, &cubic_legal_edges(), "Init") {
            v.push(format!("cc-legal: {msg}"));
        }
    }
    v
}

/// Run one plan through both protocols, twice each (the second run is the
/// determinism oracle), and collect every violation. With `canary` the
/// QUIC records lose both endpoints' typed errors: the watchdog still
/// gives up, but the error never surfaces — the seeded bug the
/// silent-livelock oracle exists to catch. Nothing reads a connection's
/// error during a run, so this is the record a muted watchdog makes.
pub fn run_plan(seed: u64, plan: &FaultPlan, canary: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for sc in fuzz_cells(seed, plan.clone()) {
        let mute = canary && matches!(sc.proto, ProtoConfig::Quic(_));
        let run = || {
            let mut rec = sc.run(0);
            if mute {
                rec.client_error = None;
                rec.server_error = None;
            }
            rec
        };
        let first = run();
        for oracle in check_oracles(&first) {
            out.push(Violation {
                proto: sc.proto.name(),
                oracle,
            });
        }
        if first != run() {
            out.push(Violation {
                proto: sc.proto.name(),
                oracle: "determinism: same seed produced a different record on replay".to_string(),
            });
        }
    }
    out
}

/// Fuzz one seed: derive its plan and run the oracles.
pub fn fuzz_seed(seed: u64, canary: bool) -> (FaultPlan, Vec<Violation>) {
    let plan = plan_from_seed(seed);
    let violations = run_plan(seed, &plan, canary);
    (plan, violations)
}

/// Shrink a violating plan: greedily drop events while the violation
/// persists, then halve each surviving event's duration as far as the
/// violation allows. Every candidate edit re-runs the full cell, so the
/// result is guaranteed to still violate.
pub fn shrink(seed: u64, plan: &FaultPlan, canary: bool) -> FaultPlan {
    let fails = |p: &FaultPlan| !run_plan(seed, p, canary).is_empty();
    let mut cur = plan.clone();
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cur.events.len() {
            let mut cand = cur.clone();
            cand.events.remove(i);
            if fails(&cand) {
                cur = cand;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    for i in 0..cur.events.len() {
        while cur.events[i].dur > Dur::from_millis(100) {
            let mut cand = cur.clone();
            cand.events[i].dur = Dur::from_nanos(cand.events[i].dur.as_nanos() / 2);
            if fails(&cand) {
                cur = cand;
            } else {
                break;
            }
        }
    }
    cur
}

/// Replay a repro case; non-empty means the violation reproduced.
pub fn replay(case: &ReproCase) -> Vec<Violation> {
    run_plan(case.seed, &case.plan, case.canary)
}

/// Replay the repro file at `path`, reporting on stdout, and return the
/// exit code `repro trauma FILE` and `traumafuzz --replay FILE` share: 0
/// iff the recorded violation reproduces, 1 if it does not, 2 if the
/// file cannot be read or parsed.
pub fn replay_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let case = match parse_repro(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 2;
        }
    };
    println!(
        "replaying seed {} ({} event(s), canary: {})",
        case.seed,
        case.plan.events.len(),
        case.canary
    );
    let violations = replay(&case);
    if violations.is_empty() {
        println!("no violation: the repro did NOT reproduce");
        return 1;
    }
    for v in &violations {
        println!("  {v}");
    }
    println!("violation reproduced ({} oracle hit(s))", violations.len());
    0
}

/// Capture the structured event trace of a case's QUIC cell (the
/// protocol under scrutiny) with the fault window edges merged in,
/// JSON-SEQ encoded for embedding in the repro file.
pub fn capture_trace(case: &ReproCase) -> String {
    let [quic, _] = fuzz_cells(case.seed, case.plan.clone());
    longlook_sim::trace::encode_seq(&quic.run_traced(0).1)
}

fn render_event(e: &FaultEvent) -> String {
    let dir = match e.dir {
        FaultDir::Up => "up",
        FaultDir::Down => "down",
        FaultDir::Both => "both",
    };
    let kind = match e.kind {
        FaultKind::Blackout => "\"kind\": \"blackout\"".to_string(),
        FaultKind::Flap { period, down_pm } => format!(
            "\"kind\": \"flap\", \"period_ns\": {}, \"down_pm\": {down_pm}",
            period.as_nanos()
        ),
        FaultKind::BandwidthCliff { factor_pm } => {
            format!("\"kind\": \"bw_cliff\", \"factor_pm\": {factor_pm}")
        }
        FaultKind::BandwidthRamp { floor_pm } => {
            format!("\"kind\": \"bw_ramp\", \"floor_pm\": {floor_pm}")
        }
        FaultKind::BurstLoss(p) => format!(
            "\"kind\": \"burst_loss\", \"p_enter_pm\": {}, \"p_exit_pm\": {}, \
             \"loss_good_pm\": {}, \"loss_bad_pm\": {}",
            p.p_enter_pm, p.p_exit_pm, p.loss_good_pm, p.loss_bad_pm
        ),
        FaultKind::Duplicate { prob_pm } => {
            format!("\"kind\": \"duplicate\", \"prob_pm\": {prob_pm}")
        }
        FaultKind::Corrupt { prob_pm } => {
            format!("\"kind\": \"corrupt\", \"prob_pm\": {prob_pm}")
        }
        FaultKind::PeerStall { side } => format!(
            "\"kind\": \"stall\", \"side\": \"{}\"",
            match side {
                PeerSide::Client => "client",
                PeerSide::Server => "server",
            }
        ),
        FaultKind::BufferShrink { factor_pm } => {
            format!("\"kind\": \"buffer_shrink\", \"factor_pm\": {factor_pm}")
        }
    };
    format!(
        "{{\"at_ns\": {}, \"dur_ns\": {}, \"dir\": \"{dir}\", {kind}}}",
        e.at.as_nanos(),
        e.dur.as_nanos()
    )
}

/// Serialize a repro case as a standalone JSON document.
pub fn render_repro(case: &ReproCase) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{REPRO_SCHEMA}\",\n"));
    out.push_str(&format!("  \"seed\": {},\n", case.seed));
    out.push_str(&format!("  \"canary\": {},\n", case.canary));
    out.push_str("  \"events\": [\n");
    let last = case.plan.events.len().saturating_sub(1);
    for (i, e) in case.plan.events.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    {}{comma}\n", render_event(e)));
    }
    match &case.trace {
        Some(t) => {
            out.push_str("  ],\n");
            out.push_str(&format!("  \"trace\": \"{}\"\n", json::escape(t)));
        }
        None => out.push_str("  ]\n"),
    }
    out.push_str("}\n");
    out
}

/// An unsigned integer literal, read exactly. Every other number is an
/// error rather than a cast: `-3` is not seed 0 and `1.9` is not seed 1.
fn num_u64(obj: &Json, key: &str) -> Result<u64, ReproError> {
    match obj.get(key) {
        Some(Json::UInt(n)) => Ok(*n),
        Some(Json::Num(got)) => Err(ReproError::NotUnsigned(key.into(), *got)),
        _ => Err(ReproError::Missing(key.into(), "numeric")),
    }
}

fn num_u32(obj: &Json, key: &str) -> Result<u32, ReproError> {
    let got = num_u64(obj, key)?;
    u32::try_from(got).map_err(|_| ReproError::OutOfRange(key.into(), got))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ReproError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ReproError::Missing(key.into(), "string"))
}

fn parse_event(obj: &Json) -> Result<FaultEvent, ReproError> {
    let dir = match str_field(obj, "dir")? {
        "up" => FaultDir::Up,
        "down" => FaultDir::Down,
        "both" => FaultDir::Both,
        other => return Err(ReproError::Unknown("dir", other.into())),
    };
    let kind = match str_field(obj, "kind")? {
        "blackout" => FaultKind::Blackout,
        "flap" => FaultKind::Flap {
            period: Dur::from_nanos(num_u64(obj, "period_ns")?),
            down_pm: num_u32(obj, "down_pm")?,
        },
        "bw_cliff" => FaultKind::BandwidthCliff {
            factor_pm: num_u32(obj, "factor_pm")?,
        },
        "bw_ramp" => FaultKind::BandwidthRamp {
            floor_pm: num_u32(obj, "floor_pm")?,
        },
        "burst_loss" => FaultKind::BurstLoss(GeParams {
            p_enter_pm: num_u32(obj, "p_enter_pm")?,
            p_exit_pm: num_u32(obj, "p_exit_pm")?,
            loss_good_pm: num_u32(obj, "loss_good_pm")?,
            loss_bad_pm: num_u32(obj, "loss_bad_pm")?,
        }),
        "duplicate" => FaultKind::Duplicate {
            prob_pm: num_u32(obj, "prob_pm")?,
        },
        "corrupt" => FaultKind::Corrupt {
            prob_pm: num_u32(obj, "prob_pm")?,
        },
        "stall" => FaultKind::PeerStall {
            side: match str_field(obj, "side")? {
                "client" => PeerSide::Client,
                "server" => PeerSide::Server,
                other => return Err(ReproError::Unknown("stall side", other.into())),
            },
        },
        "buffer_shrink" => FaultKind::BufferShrink {
            factor_pm: num_u32(obj, "factor_pm")?,
        },
        other => return Err(ReproError::Unknown("fault kind", other.into())),
    };
    Ok(FaultEvent {
        at: Time::from_nanos(num_u64(obj, "at_ns")?),
        dur: Dur::from_nanos(num_u64(obj, "dur_ns")?),
        dir,
        kind,
    })
}

/// Parse a repro file produced by [`render_repro`].
pub fn parse_repro(text: &str) -> Result<ReproCase, ReproError> {
    let doc = json::parse(text).map_err(ReproError::Json)?;
    let schema = str_field(&doc, "schema")?;
    if schema != REPRO_SCHEMA {
        return Err(ReproError::Unknown("schema", schema.into()));
    }
    let seed = num_u64(&doc, "seed")?;
    let canary = match doc.get("canary") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(ReproError::Missing("canary".into(), "boolean")),
    };
    let events = match doc.get("events") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(parse_event)
            .collect::<Result<Vec<FaultEvent>, ReproError>>()?,
        _ => return Err(ReproError::Missing("events".into(), "array")),
    };
    let trace = match doc.get("trace") {
        None => None,
        Some(j) => Some(
            j.as_str()
                .ok_or_else(|| ReproError::Missing("trace".into(), "string"))?
                .to_string(),
        ),
    };
    Ok(ReproCase {
        seed,
        canary,
        plan: FaultPlan { events },
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in 0..64 {
            let a = plan_from_seed(seed);
            let b = plan_from_seed(seed);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a.events.len() <= 3);
        }
    }

    #[test]
    fn repro_files_round_trip_losslessly() {
        for seed in 0..64 {
            let case = ReproCase {
                seed,
                canary: seed % 2 == 0,
                plan: plan_from_seed(seed),
                // Exercise both spellings: absent, and present with the
                // separator/newline characters JSON-SEQ actually uses.
                trace: (seed % 3 == 0)
                    .then(|| "\u{1e}{\"t\":0,\"k\":\"tx\",\"pn\":1,\"sz\":2,\"el\":1}\n".into()),
            };
            let parsed = parse_repro(&render_repro(&case)).expect("parse");
            assert_eq!(parsed, case, "seed {seed}");
        }
    }

    /// A surrogate-pair escape in a string field is the astral character
    /// it spells (it read back as two U+FFFD when repro files had a
    /// reader of their own), and half a pair is an error.
    #[test]
    fn astral_escapes_in_a_repro_read_back_exactly() {
        let doc = |trace: &str| {
            format!(
                "{{\"schema\": \"{REPRO_SCHEMA}\", \"seed\": 1, \"canary\": false, \
                 \"events\": [], \"trace\": \"{trace}\"}}"
            )
        };
        let unit = |cu: u32| format!("\\u{cu:04x}");
        let crab = parse_repro(&doc(&(unit(0xd83e) + &unit(0xdd80)))).expect("a valid pair");
        assert_eq!(crab.trace.as_deref(), Some("🦀"));
        assert!(parse_repro(&doc(&unit(0xd83e))).is_err(), "half a pair");
    }

    #[test]
    fn parse_rejects_malformed_repros() {
        assert!(parse_repro("{}").is_err());
        assert!(parse_repro("{\"schema\": \"other\", \"seed\": 1}").is_err());
        let bad_kind = r#"{"schema": "longlook-trauma-repro-v1", "seed": 1,
            "canary": false,
            "events": [{"at_ns": 0, "dur_ns": 1, "dir": "both", "kind": "melt"}]}"#;
        assert!(parse_repro(bad_kind).is_err());
    }

    /// Numbers a cast would have bent into a different case: each is
    /// refused with the error that names it, none panics, none replays
    /// another seed or another plan.
    #[test]
    fn hostile_numbers_are_errors_not_other_plans() {
        let doc = |seed: &str, event: &str| {
            format!(
                "{{\"schema\": \"{REPRO_SCHEMA}\", \"seed\": {seed}, \"canary\": false, \
                 \"events\": [{event}]}}"
            )
        };
        let dup = |at: &str, prob: &str| {
            format!(
                "{{\"at_ns\": {at}, \"dur_ns\": 1, \"dir\": \"both\", \
                 \"kind\": \"duplicate\", \"prob_pm\": {prob}}}"
            )
        };
        let ok = parse_repro(&doc("7", &dup("5", "100"))).expect("the table's baseline parses");
        assert_eq!((ok.seed, ok.plan.events.len()), (7, 1));

        let not_unsigned = |key: &str, got| ReproError::NotUnsigned(key.into(), got);
        let missing = |key: &str| ReproError::Missing(key.into(), "numeric");
        let table = [
            // Was seed 0, seed 1, seed …992.
            (doc("-3", ""), not_unsigned("seed", -3.0)),
            (doc("1.9", ""), not_unsigned("seed", 1.9)),
            (doc("7e0", ""), not_unsigned("seed", 7.0)),
            (
                doc("18446744073709551616", ""),
                not_unsigned("seed", 18446744073709551616.0),
            ),
            (doc("\"7\"", ""), missing("seed")),
            (doc("null", ""), missing("seed")),
            // Was probability 100 (4294967396 mod 2^32).
            (
                doc("7", &dup("5", "4294967396")),
                ReproError::OutOfRange("prob_pm".into(), 4_294_967_396),
            ),
            (doc("7", &dup("5", "-1")), not_unsigned("prob_pm", -1.0)),
            (doc("7", &dup("5", "0.5")), not_unsigned("prob_pm", 0.5)),
            (doc("7", &dup("-5", "100")), not_unsigned("at_ns", -5.0)),
            (doc("7", &dup("5.5", "100")), not_unsigned("at_ns", 5.5)),
        ];
        for (text, want) in table {
            assert_eq!(parse_repro(&text), Err(want), "{text}");
        }
        // 2^53 + 1 reads as itself, not as its even neighbour.
        let odd = parse_repro(&doc("9007199254740993", "")).expect("an exact u64");
        assert_eq!(odd.seed, 9_007_199_254_740_993);
    }

    #[test]
    fn extreme_seeds_and_times_round_trip() {
        let case = ReproCase {
            seed: u64::MAX,
            canary: true,
            plan: FaultPlan::new().with_event(FaultEvent {
                at: Time::from_nanos(u64::MAX - 1),
                dur: Dur::from_nanos(u64::MAX),
                dir: FaultDir::Up,
                kind: FaultKind::Corrupt { prob_pm: u32::MAX },
            }),
            trace: None,
        };
        assert_eq!(parse_repro(&render_repro(&case)), Ok(case));
    }

    #[test]
    fn benign_plan_passes_all_oracles() {
        let plan = FaultPlan::new().with_event(FaultEvent {
            at: Time::ZERO + Dur::from_millis(500),
            dur: Dur::from_millis(800),
            dir: FaultDir::Both,
            kind: FaultKind::BandwidthCliff { factor_pm: 400 },
        });
        assert_eq!(run_plan(11, &plan, false), Vec::new());
    }

    #[test]
    fn canary_is_caught_shrunk_and_replayable() {
        // The seeded bug: a muted QUIC watchdog turns a >idle-timeout
        // blackout into a silent livelock. Pad the plan with two benign
        // events so the shrinker has something to discard.
        let blackout = FaultEvent {
            at: Time::ZERO + Dur::from_secs(1),
            dur: Dur::from_secs(70),
            dir: FaultDir::Both,
            kind: FaultKind::Blackout,
        };
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                at: Time::ZERO,
                dur: Dur::from_millis(400),
                dir: FaultDir::Up,
                kind: FaultKind::Duplicate { prob_pm: 100 },
            })
            .with_event(blackout)
            .with_event(FaultEvent {
                at: Time::ZERO + Dur::from_millis(200),
                dur: Dur::from_millis(300),
                dir: FaultDir::Down,
                kind: FaultKind::BandwidthCliff { factor_pm: 500 },
            });
        let seed = 7;
        let violations = run_plan(seed, &plan, true);
        assert!(
            violations
                .iter()
                .any(|v| v.proto == "QUIC" && v.oracle.starts_with("typed-completion")),
            "canary must trip the silent-livelock oracle: {violations:?}"
        );
        // Without the canary the same plan surfaces a typed error instead.
        assert_eq!(run_plan(seed, &plan, false), Vec::new());

        let small = shrink(seed, &plan, true);
        assert!(
            small.events.len() <= 3,
            "shrink must not grow the plan: {small:?}"
        );
        assert_eq!(
            small.events.len(),
            1,
            "only the blackout sustains the violation: {small:?}"
        );
        assert!(matches!(small.events[0].kind, FaultKind::Blackout));

        let mut case = ReproCase {
            seed,
            canary: true,
            plan: small,
            trace: None,
        };
        case.trace = Some(capture_trace(&case));
        let reparsed = parse_repro(&render_repro(&case)).expect("round trip");
        assert_eq!(reparsed, case, "trace must survive the JSON round trip");
        let replayed = replay(&reparsed);
        assert!(
            !replayed.is_empty(),
            "shrunk repro must reproduce the violation"
        );

        // The attached trace must explain the failure on its own: the
        // loss-episode extraction locates the injected blackout window,
        // and the dwell table names the state the connection stalled in.
        let records = longlook_sim::trace::parse_seq(reparsed.trace.as_deref().unwrap())
            .expect("embedded trace parses");
        let windows = longlook_core::traceview::fault_windows(&records);
        assert!(
            windows.iter().any(|w| w.label == "blackout/both"),
            "trace must carry the blackout window edges: {windows:?}"
        );
        let episodes = longlook_core::traceview::loss_episodes(&records);
        assert!(
            episodes
                .iter()
                .any(|ep| ep.fault.as_deref() == Some("blackout/both")),
            "a loss episode must be attributed to the blackout: {episodes:?}"
        );
        let dwell = longlook_core::traceview::dwell_table(&records);
        let (stalled, _, share) = dwell
            .iter()
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .cloned()
            .expect("dwell table non-empty");
        assert_eq!(
            stalled, "RetransmissionTimeout",
            "the dominant dwell must name the stalled state: {dwell:?}"
        );
        assert!(share > 0.5, "the stall dominates the trace: {dwell:?}");
    }
}
