//! The benchmark's contract with its driver, as the program sees it: the
//! metric names, units and bounds that `BENCHMARK.json` at the root of the
//! repository declares. Every run checks what it is about to print against
//! these lists, and a test checks these lists against the file, so neither
//! can drift from the other unnoticed.

use crate::report::Metric;

/// End-to-end metrics (`--trace 0`): name, unit, and the share of the
/// parent's median by which a change may worsen the metric.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_heap_mb", "MiB", 0.25),
    ("allocs_k", "kcount", 0.05),
];

/// Per-layer metrics (`--trace 1`): name and unit, in reporting order.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("wall_med_s", "s"),
    ("wall_q1_s", "s"),
    ("wall_q3_s", "s"),
    ("wall_raw_min_s", "s"),
    ("wall_raw_med_s", "s"),
    ("yardstick_ms", "ms"),
    ("passes", "count"),
    ("sim.world.events_k", "kcount"),
    ("sim.world.ns_per_event", "ns"),
    ("sim.world.sched_peak", "count"),
    ("alloc.bytes_mb", "MiB"),
    ("alloc.per_kevent", "1/kevent"),
    ("span.build_share", "ratio"),
    ("span.run_share", "ratio"),
    ("span.collect_share", "ratio"),
    ("span.stats_share", "ratio"),
    ("span.overhead_share", "ratio"),
    ("quic.retx_share", "ratio"),
    ("quic.spurious_share", "ratio"),
    ("tcp.retx_share", "ratio"),
    ("tcp.rto_count", "count"),
    ("core.fleet.mev_s", "Mev/s"),
    ("core.fleet.events_k", "kcount"),
    ("core.fleet.stale_share", "ratio"),
    ("core.fleet.sched_peak_per_live", "ratio"),
    ("core.fleet.bytes_per_conn", "B"),
    ("sim.sched.shallow_ns_per_op", "ns"),
    ("sim.sched.deep_ns_per_op", "ns"),
    ("sim.link.clean_ns_per_pkt", "ns"),
    ("sim.link.impaired_ns_per_pkt", "ns"),
    ("sim.arena.ns_per_op", "ns"),
    ("wire.quic.len_ns_per_pkt", "ns"),
    ("wire.trace.encode_ns_per_rec", "ns"),
    ("wire.trace.parse_ns_per_rec", "ns"),
    ("wire.trace.on_overhead", "ratio"),
    ("transport.cubic.ns_per_ack", "ns"),
    ("transport.pump.quic_ns_per_pkt", "ns"),
    ("transport.pump.tcp_ns_per_pkt", "ns"),
    ("transport.pump.quic_lossy_ns_per_pkt", "ns"),
    ("transport.pump.tcp_lossy_ns_per_pkt", "ns"),
    ("quic.sent.clean_ns_per_pkt", "ns"),
    ("quic.sent.holes_ns_per_pkt", "ns"),
    ("tcp.scoreboard.clean_ns_per_seg", "ns"),
    ("tcp.scoreboard.sack_ns_per_seg", "ns"),
    ("http.ns_per_object", "ns"),
    ("core.testbed.build_ns", "ns"),
    ("core.testbed.build_allocs", "count"),
    ("core.cell.small_ns", "ns"),
    ("core.runner.speedup_j2", "ratio"),
    ("stats.welch.ns_per_cell", "ns"),
    ("stats.sketch.insert_ns", "ns"),
    ("statemachine.infer_ns_per_visit", "ns"),
    ("core.traceview.report_ns_per_rec", "ns"),
];

/// `run_seconds` in `BENCHMARK.json`: seconds of timed passes per run.
pub const RUN_SECONDS: f64 = 12.0;

/// Check that `metrics` are exactly `want`, names and units, in order.
pub fn check<'a>(
    metrics: &[Metric],
    want: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
) -> Result<(), String> {
    if metrics.len() != want.len() {
        return Err(format!(
            "{} metrics measured, {} declared in BENCHMARK.json",
            metrics.len(),
            want.len()
        ));
    }
    for (m, (name, unit)) in metrics.iter().zip(want) {
        if m.name != name || m.unit != unit {
            return Err(format!(
                "measured {} [{}] where BENCHMARK.json declares {name} [{unit}]",
                m.name, m.unit
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` with all whitespace removed.
    fn file() -> String {
        include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect()
    }

    fn section<'a>(doc: &'a str, key: &str) -> &'a str {
        let start = doc.find(&format!("\"{key}\":[")).expect("section present");
        let rest = &doc[start..];
        &rest[..rest.find(']').expect("section closes")]
    }

    #[test]
    fn end_to_end_list_matches_the_file() {
        let doc = file();
        let sec = section(&doc, "end_to_end");
        assert_eq!(sec.matches("{\"name\":").count(), END_TO_END.len());
        let mut at = 0;
        for (name, unit, bound) in END_TO_END {
            let want = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"lower\",\"bound\":{bound}}}"
            );
            at += sec[at..]
                .find(&want)
                .unwrap_or_else(|| panic!("{want} missing or out of order"));
        }
        assert!(END_TO_END.iter().all(|m| m.2 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    }

    #[test]
    fn per_layer_list_matches_the_file() {
        let doc = file();
        let sec = section(&doc, "per_layer");
        assert_eq!(sec.matches("{\"name\":").count(), PER_LAYER.len());
        let mut at = 0;
        for (name, unit) in PER_LAYER {
            let want = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            at += sec[at..]
                .find(&want)
                .unwrap_or_else(|| panic!("{want} missing or out of order"));
        }
    }

    #[test]
    fn workloads_and_run_seconds_match_the_file() {
        let doc = file();
        let sec = section(&doc, "workloads");
        assert_eq!(sec.matches("{\"name\":").count(), Workload::ALL.len());
        for w in Workload::ALL {
            let want = format!("{{\"name\":\"{}\",\"why\":", w.name());
            assert!(sec.contains(&want), "{want}");
        }
        assert!(doc.contains(&format!("\"run_seconds\":{RUN_SECONDS},")));
        assert!(doc.contains("\"paths\":[\"observatory\"]"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn check_names_the_first_mismatch() {
        let got = [
            Metric::new("wall_s", 1.0, "s"),
            Metric::new("oops", 2.0, "s"),
        ];
        let want = [("wall_s", "s"), ("setup_s", "s")];
        let err = check(&got, want.into_iter()).expect_err("mismatch");
        assert!(err.contains("oops") && err.contains("setup_s"), "{err}");
        assert!(check(&got[..1], want[..1].iter().copied()).is_ok());
        assert!(check(&got[..1], want.into_iter()).is_err());
    }
}
