//! Experiment registry: every table and figure, addressable by id.

pub mod ablations;
pub mod calib;
pub mod fairness_exp;
pub mod fleet_exp;
pub mod heatmaps;
pub mod historical;
pub mod statemachines;
pub mod tables;
pub mod timelines;
pub mod trauma_sweep;
pub mod video_exp;

use crate::report::{Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;

/// Calibrated QUIC, the paper's candidate.
fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

/// TCP+TLS+HTTP/2, the paper's baseline.
fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// A congestion-window timeline in KB, one sample per interval of
/// `every`: the first change at or after the interval's start when the
/// interval holds one, otherwise the window in effect across it (the log
/// records only changes). The samples stop at the last change.
fn cwnd_kb(timeline: &[(Time, u64)], every: Dur) -> Vec<f64> {
    let mut next = Dur::ZERO;
    let mut in_effect = None;
    let mut samples = Vec::new();
    for &(t, w) in timeline {
        let at = t.saturating_since(Time::ZERO);
        while at >= next {
            let held = in_effect.filter(|_| at >= next + every).unwrap_or(w);
            samples.push((held / 1024) as f64);
            next += every;
        }
        in_effect = Some(w);
    }
    samples
}

/// Each cell's records, every cell's rounds in one [`sample`] batch.
fn records(cfg: &RunConfig, cells: &[Scenario]) -> Vec<Vec<RunRecord>> {
    let rounds = cells.iter().map(|c| c.rounds);
    sample(cfg.par, rounds, |i, k| cells[i].run(k))
}

/// Page load time (ms), losses detected and spurious retransmissions over
/// `n` rounds of each of `cells`, round `k` reseeded to `seed + k`. Every
/// cell's rounds are one [`sample`] batch, folded in round order.
fn recovery(cfg: &RunConfig, cells: &[Scenario], n: u64, seed: u64) -> Vec<[Summary; 3]> {
    let runs = sample(cfg.par, vec![n; cells.len()], |i, k| {
        let sc = cells[i].clone().with_seed(seed + k);
        let rec = sc.run(k);
        let st = rec.server_stats.unwrap_or_default();
        let (losses, spurious) = (st.losses_detected, st.spurious_retransmissions);
        [sc.plt_ms(&rec), losses as f64, spurious as f64]
    });
    runs.iter().map(|runs| summaries(runs)).collect()
}

/// Each of a cell's `M` measures over its runs, in round order.
fn summaries<const M: usize>(runs: &[[f64; M]]) -> [Summary; M] {
    std::array::from_fn(|m| runs.iter().map(|r| r[m]).collect())
}

/// One row per sender downloading 10 MB at 50 Mbps while ±10 ms of jitter
/// reorders packets (112 ms RTT): mean (std) PLT, then the mean losses
/// detected and spurious retransmissions (fig10, ablation_nack).
fn reordering(
    cfg: &RunConfig,
    columns: Vec<Column>,
    senders: Vec<(String, ProtoConfig)>,
    seed: u64,
) -> Table {
    let net = NetProfile::baseline(50.0)
        .with_extra_rtt(Dur::from_millis(76))
        .with_jitter(Dur::from_millis(10));
    let page = PageSpec::single(10 * 1024 * 1024);
    let cells: Vec<Scenario> = senders
        .iter()
        .map(|(_, proto)| Scenario::new(net.clone(), page.clone()).with_proto(proto.clone()))
        .collect();
    let results = recovery(cfg, &cells, cfg.rounds, seed);
    let mut t = Table::new(columns);
    for ((label, _), [plt, losses, spurious]) in senders.into_iter().zip(results) {
        t.row(vec![
            label.into(),
            plt.into(),
            losses.mean().into(),
            spurious.mean().into(),
        ]);
    }
    t
}

/// One registry row: id, one-line description, and the function that
/// measures the artifact.
pub type Experiment = (&'static str, &'static str, fn(&RunConfig) -> Report);

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", "related-work contribution matrix", tables::table1),
    ("table2", "test parameter space", tables::table2),
    (
        "table3",
        "QUIC congestion-control states (Cubic)",
        tables::table3,
    ),
    (
        "fig2",
        "calibration: default vs GAE vs calibrated servers",
        calib::fig2,
    ),
    (
        "greybox",
        "grey-box parameter search (Sec 4.1)",
        calib::greybox,
    ),
    (
        "fig3a",
        "inferred QUIC Cubic state machine",
        statemachines::fig3a,
    ),
    (
        "fig3b",
        "inferred QUIC BBR state machine",
        statemachines::fig3b,
    ),
    (
        "fig4",
        "fairness throughput timelines (QUIC vs TCP / TCPx2)",
        fairness_exp::fig4,
    ),
    (
        "fig5",
        "congestion windows while competing",
        fairness_exp::fig5,
    ),
    (
        "table4",
        "average throughput when competing (10 runs)",
        fairness_exp::table4,
    ),
    ("fig6a", "PLT heatmap: object size x rate", heatmaps::fig6a),
    ("fig6b", "PLT heatmap: object count x rate", heatmaps::fig6b),
    ("fig7", "QUIC 0-RTT benefit heatmap", heatmaps::fig7),
    (
        "fig8",
        "PLT heatmaps with loss / delay / variable delay",
        heatmaps::fig8,
    ),
    (
        "fig9",
        "cwnd over time at 100 Mbps, 1% loss",
        timelines::fig9,
    ),
    (
        "fig10",
        "reordering vs NACK threshold (10MB, 112ms RTT, 10ms jitter)",
        timelines::fig10,
    ),
    (
        "fig11",
        "variable bandwidth throughput (210MB, 50-150 Mbps)",
        timelines::fig11,
    ),
    ("fig12", "mobile heatmaps (Nexus6, MotoG)", heatmaps::fig12),
    (
        "fig13",
        "state machines: Desktop vs MotoG, 50 Mbps",
        statemachines::fig13,
    ),
    (
        "table5",
        "cellular network characteristics (emulated vs target)",
        tables::table5,
    ),
    (
        "fig14",
        "cellular heatmaps (Verizon/Sprint 3G/LTE)",
        heatmaps::fig14,
    ),
    (
        "table6",
        "video QoE at 100 Mbps + 1% loss",
        video_exp::table6,
    ),
    ("fig15", "QUIC 37 with MACW 430 vs 2000", heatmaps::fig15),
    (
        "historical",
        "PLT across QUIC versions 25-37",
        historical::historical,
    ),
    ("fig17", "QUIC vs proxied TCP", heatmaps::fig17),
    ("fig18", "QUIC direct vs proxied QUIC", heatmaps::fig18),
    (
        "ablation_nack",
        "NACK threshold: fixed vs adaptive vs time-based",
        ablations::nack,
    ),
    (
        "ablation_hystart",
        "HyStart on/off for many small objects",
        ablations::hystart,
    ),
    (
        "ablation_pacing",
        "pacing on/off under loss",
        ablations::pacing,
    ),
    (
        "ablation_nconn",
        "N-connection emulation vs fairness",
        ablations::nconn,
    ),
    ("ablation_bbr", "experimental BBR vs Cubic", ablations::bbr),
    (
        "trauma",
        "fault-injection sweep: completion and typed errors under trauma",
        trauma_sweep::trauma,
    ),
    (
        "fleet",
        "fleet-scale tail latency: arrival profiles x load, QUIC vs TCP p99",
        fleet_exp::fleet,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The log records only changes: an interval without one repeats the
    /// window in effect, so later points keep their place in time.
    #[test]
    fn cwnd_kb_holds_the_window_across_an_interval_without_a_change() {
        let at = |ms| Time::ZERO + Dur::from_millis(ms);
        let timeline = [
            (at(0), 10 * 1024),
            (at(100), 20 * 1024),
            (at(1_000), 30 * 1024),
            (at(1_100), 40 * 1024),
        ];
        assert_eq!(
            cwnd_kb(&timeline, Dur::from_millis(250)),
            [10.0, 20.0, 20.0, 20.0, 30.0]
        );
    }
}
