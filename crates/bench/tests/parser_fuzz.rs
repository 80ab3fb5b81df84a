//! Hostile input against the workspace's one JSON reader and the two
//! formats built on it: `json::parse`, `trace::parse_seq` and
//! `fuzz::parse_repro` return `Ok` or `Err` for anything a user can hand
//! `repro trauma` / `repro trace`, and never panic. Inputs are arbitrary
//! strings, and valid repro and trace documents truncated at every byte,
//! with single bytes flipped, with a stray RS spliced in, or nested
//! 127–130 deep.

use longlook_bench::fuzz::{parse_repro, plan_from_seed, render_repro, ReproCase};
use longlook_sim::json::{self, Json};
use longlook_sim::trace::{encode_seq, parse_seq, RecoveryKind, TraceEvent, TraceRecord};
use proptest::prelude::*;

/// Every reader; the assertion is that none of them panics.
fn read_all(text: &str) {
    let _ = json::parse(text);
    let _ = parse_seq(text);
    let _ = parse_repro(text);
}

/// `\u` escape text for one UTF-16 code unit.
fn unit(cu: u32) -> String {
    format!("\\u{cu:04x}")
}

/// Strings from JSON's own alphabet and from all of Unicode: structural
/// characters, escapes (surrogate halves included), literals, numbers at
/// the `u64` edge, control characters, RS, and astral characters.
fn arb_text() -> impl Strategy<Value = String> {
    let tokens: Vec<String> = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\\n",
        "\\\"",
        "\\u",
        "t",
        "k",
        "true",
        "null",
        "-",
        "0",
        "7",
        "1.5e3",
        "18446744073709551616",
        " ",
        "\n",
        "\u{0}",
        "\u{1f}",
        "\u{1e}",
        "é",
        "汉",
        "🦀",
        "\u{ffff}",
        "\u{10ffff}",
    ]
    .iter()
    .map(|t| t.to_string())
    .chain([0xd83e, 0xdd80, 0xd800, 0xdc00, 0x41, 0x1e].map(unit))
    .collect();
    proptest::collection::vec((any::<bool>(), any::<u32>()), 0..48).prop_map(move |picks| {
        picks
            .iter()
            .map(|&(token, x)| {
                if token {
                    tokens[x as usize % tokens.len()].clone()
                } else {
                    char::from_u32(x % 0x11_0000)
                        .unwrap_or('\u{fffd}')
                        .to_string()
                }
            })
            .collect()
    })
}

/// A small trace whose labels need escaping.
fn arb_trace() -> impl Strategy<Value = String> {
    const LABELS: [&str; 5] = ["SlowStart", "blackout", "a\"b\\c", "\n\t\u{1}\u{1e}", "λ🦀"];
    proptest::collection::vec((any::<u64>(), 0u8..6, any::<u32>()), 0..8).prop_map(|raw| {
        let records: Vec<TraceRecord> = raw
            .into_iter()
            .map(|(t, kind, x)| {
                let label = LABELS[x as usize % LABELS.len()].to_string();
                let ev = match kind {
                    0 => TraceEvent::PktTx {
                        pn: x.into(),
                        size: 1392,
                        elicit: x % 2 == 0,
                    },
                    1 => TraceEvent::Loss { pn: x.into() },
                    2 => TraceEvent::CcState { state: label },
                    3 => TraceEvent::Recovery {
                        kind: RecoveryKind::Rto,
                    },
                    4 => TraceEvent::TimerArm {
                        deadline_ns: u64::MAX - u64::from(x),
                    },
                    _ => TraceEvent::FaultOn {
                        kind: label.clone(),
                        dir: label,
                    },
                };
                TraceRecord { t, ev }
            })
            .collect();
        encode_seq(&records)
    })
}

/// One valid repro document and one valid trace document.
fn arb_documents() -> impl Strategy<Value = (String, String)> {
    (any::<u64>(), any::<bool>(), arb_trace()).prop_map(|(seed, canary, trace)| {
        let repro = render_repro(&ReproCase {
            seed,
            canary,
            plan: plan_from_seed(seed % 4096),
            trace: Some(trace.clone()),
        });
        (repro, trace)
    })
}

/// `text` with the byte at `at` replaced by `b`, read lossily (a flip
/// inside a multi-byte character is what a corrupted file looks like).
fn flipped(text: &str, at: usize, b: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] = b;
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_strings_never_panic_a_reader(text in arb_text()) {
        read_all(&text);
    }

    #[test]
    fn escape_round_trips_through_parse(text in arb_text()) {
        let quoted = format!("\"{}\"", json::escape(&text));
        prop_assert_eq!(json::parse(&quoted), Ok(Json::Str(text)));
    }

    #[test]
    fn damaged_documents_never_panic_a_reader(
        (repro, trace) in arb_documents(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..16),
        splice in any::<prop::sample::Index>(),
    ) {
        prop_assert!(parse_repro(&repro).is_ok(), "{}", repro);
        prop_assert!(parse_seq(&trace).is_ok(), "{}", trace);
        for doc in [&repro, &trace] {
            for cut in 0..doc.len() {
                read_all(&String::from_utf8_lossy(&doc.as_bytes()[..cut]));
            }
            if doc.is_empty() {
                continue;
            }
            for (at, b) in &flips {
                read_all(&flipped(doc, at.index(doc.len()), *b));
            }
            let mut at = splice.index(doc.len());
            while !doc.is_char_boundary(at) {
                at -= 1;
            }
            read_all(&format!("{}\u{1e}{}", &doc[..at], &doc[at..]));
        }
    }

    /// At the depth limit and just past it: a document wrapped in 127–130
    /// arrays parses exactly when its total depth is at most 128.
    #[test]
    fn nesting_at_the_limit_is_an_error_not_a_crash((repro, _) in arb_documents()) {
        for depth in 127..=130 {
            let arrays = "[".repeat(depth) + &"]".repeat(depth);
            prop_assert_eq!(json::parse(&arrays).is_ok(), depth <= 128);
            let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
            prop_assert_eq!(json::parse(&objects).is_ok(), depth <= 128);
            read_all(&arrays);
            read_all(&objects);
            // The repro file nests two levels below its own object.
            let wrapped = "[".repeat(depth) + &repro + &"]".repeat(depth);
            prop_assert_eq!(json::parse(&wrapped).is_ok(), depth + 3 <= 128);
            read_all(&wrapped);
        }
    }
}
