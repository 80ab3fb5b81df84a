//! The experiment runner: back-to-back protocol pairs, >= 10 rounds,
//! Welch-gated comparisons, heatmap sweeps.
//!
//! Methodology per Sec 3.3: "we run experiments in 10 rounds or more, each
//! consisting of a download using TCP and one using QUIC, back-to-back. We
//! present the percent differences in performance between TCP and QUIC and
//! indicate whether they are statistically significant (p < 0.01)."
//! Back-to-back here means the two protocols see the *same* round seed —
//! the identical network realization — which is a paired design stronger
//! than the paper's wall-clock adjacency.
//!
//! Every `_par` entry point shards its `(scenario, protocol, round)` cells
//! through [`run_ordered`], the chunked deterministic scheduler: results
//! are reassembled in cell order regardless of worker count or chunk size
//! (`LONGLOOK_JOBS`), and in debug builds the runner
//! wraps each cell in a `CellGuard` so a closure that leaked a `SimRng`
//! or `World` across cells panics naming both cells instead of silently
//! correlating rounds.

use crate::runner::{run_ordered, Parallelism};
use crate::testbed::{FlowSpec, NetProfile, ProxyTestbed, Testbed};
use longlook_http::app::WebClient;
use longlook_http::host::ProtoConfig;
use longlook_http::workload::PageSpec;
use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::{merge_by_time, TraceRecord};
use longlook_sim::{DeviceProfile, ExecConfig, FaultPlan, RunOutcome, TraceMode};
use longlook_stats::{Comparison, Heatmap, HeatmapCell};
use longlook_transport::ccstate::StateTrace;
use longlook_transport::conn::{ConnError, ConnStats};

/// One measurement scenario.
#[derive(Clone)]
pub struct Scenario {
    /// Emulated network.
    pub net: NetProfile,
    /// Client device model.
    pub device: DeviceProfile,
    /// Page to load.
    pub page: PageSpec,
    /// Rounds per protocol (paper: at least 10).
    pub rounds: u64,
    /// Base seed; round `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Whether the QUIC client holds 0-RTT state.
    pub zero_rtt: bool,
    /// Simulated-time budget per run.
    pub deadline: Dur,
}

impl Scenario {
    /// Defaults: desktop client, 10 rounds, 0-RTT warm, 10-minute budget.
    pub fn new(net: NetProfile, page: PageSpec) -> Self {
        Scenario {
            net,
            device: DeviceProfile::DESKTOP,
            page,
            rounds: 10,
            base_seed: 1,
            zero_rtt: true,
            deadline: Dur::from_secs(600),
        }
    }

    /// Builder: device model.
    pub fn on_device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// Builder: rounds.
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Builder: base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Builder: disable 0-RTT (cold cache).
    pub fn cold(mut self) -> Self {
        self.zero_rtt = false;
        self
    }
}

/// Everything one run produces. `PartialEq` compares every field, which
/// is what the determinism-equivalence suite relies on: two runs are
/// "identical" only if every counter, trace visit, and cwnd sample agrees.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Page load time; `None` if the deadline expired first.
    pub plt: Option<Dur>,
    /// Client connection counters.
    pub client_stats: ConnStats,
    /// Server connection counters (the instrumented side in the paper).
    pub server_stats: Option<ConnStats>,
    /// Server-side congestion-control state trace.
    pub server_trace: Option<StateTrace>,
    /// Server congestion window timeline.
    pub server_cwnd: Vec<(Time, u64)>,
    /// When the run's world clock stopped.
    pub ended_at: Time,
    /// How the world loop ended.
    pub outcome: RunOutcome,
    /// Client connection's terminal error, if it gave up.
    pub client_error: Option<ConnError>,
    /// Server connection's terminal error, if it gave up.
    pub server_error: Option<ConnError>,
    /// App-level response bytes delivered in order to the client. Unlike
    /// wire counters this cannot be inflated by duplication faults.
    pub app_bytes: u64,
}

impl RunRecord {
    /// Whether the page load finished. The client starts its clock before
    /// it can finish, so this is exactly "has a PLT".
    pub fn completed(&self) -> bool {
        self.plt.is_some()
    }

    /// The run terminated cleanly: completed, or surfaced a typed error
    /// on at least one endpoint before the deadline. The negation is the
    /// "silent livelock" the fuzzer's oracle hunts.
    pub fn accounted_for(&self) -> bool {
        self.completed() || self.client_error.is_some() || self.server_error.is_some()
    }
}

/// Load `sc.page` once over `proto` with per-round seed `round`.
pub fn run_page_load(proto: &ProtoConfig, sc: &Scenario, round: u64) -> RunRecord {
    run_cell(proto, sc, round).0
}

/// [`run_page_load`] with the structured trace layer on for this cell
/// only, whatever `proto` carries. Returns the record plus the server
/// connection's event trace merged with the fault plan's window edges, so
/// the trace explains *when* the network was faulted as well as how the
/// transport reacted.
pub fn run_page_load_traced(
    proto: &ProtoConfig,
    sc: &Scenario,
    round: u64,
) -> (RunRecord, Vec<TraceRecord>) {
    let traced = proto.clone().with_exec(ExecConfig {
        trace: TraceMode::On,
    });
    let (rec, tb) = run_cell(&traced, sc, round);
    let edges = sc
        .net
        .fault
        .as_ref()
        .map(FaultPlan::trace_window_edges)
        .unwrap_or_default();
    let conn_trace = tb.server_host().conn_trace(tb.flows[0]).unwrap_or_default();
    (rec, merge_by_time(conn_trace, &edges))
}

/// Build and run one page-load cell: the per-round seed and network
/// realization, one `WebClient` flow, run to `sc.deadline`. Returns the
/// record and the finished testbed.
fn run_cell(proto: &ProtoConfig, sc: &Scenario, round: u64) -> (RunRecord, Testbed) {
    let seed = sc.base_seed.wrapping_mul(1_000_003).wrapping_add(round);
    let mut tb = Testbed::direct(
        seed,
        &per_round_net(sc, round),
        sc.device,
        sc.page.clone(),
        vec![FlowSpec {
            proto: proto.clone(),
            zero_rtt: sc.zero_rtt,
            app: Box::new(WebClient::new(sc.page.clone())),
        }],
        None,
        true,
    );
    let outcome = tb.world.run_until(Time::ZERO + sc.deadline);
    crate::runner::note_cell_events(tb.world.events_processed());
    let now = tb.world.now();
    let host = tb.client_host();
    let app = host.app::<WebClient>(0);
    let flow = tb.flows[0];
    let server = tb.server_host();
    let rec = RunRecord {
        plt: app.plt(),
        client_stats: host.conn_stats(0),
        server_stats: server.conn_stats(flow),
        server_trace: server.state_trace(flow, now),
        server_cwnd: server
            .cwnd_timeline(flow)
            .map(<[(Time, u64)]>::to_vec)
            .unwrap_or_default(),
        ended_at: now,
        outcome,
        client_error: host.conn_error(0),
        server_error: server.conn_error(flow),
        app_bytes: app.har().iter().map(|r| r.bytes).sum(),
    };
    (rec, tb)
}

/// Per-round network realization: the base RTT varies by ±3% from round
/// to round, modelling the path-latency noise any physical testbed has.
/// Without this, the deterministic simulator would report sub-percent
/// differences as maximally significant, which no real measurement could.
fn per_round_net(sc: &Scenario, round: u64) -> NetProfile {
    let mut net = sc.net.clone();
    let u = longlook_sim::rng::hash_unit(sc.base_seed ^ 0xA11CE, round);
    net.rtt = net.rtt.mul_f64(0.97 + 0.06 * u);
    net
}

/// Load the page through a midpoint proxy.
pub fn run_page_load_proxied(
    down: &ProtoConfig,
    up: &ProtoConfig,
    sc: &Scenario,
    round: u64,
) -> Option<Dur> {
    let seed = sc.base_seed.wrapping_mul(1_000_003).wrapping_add(round);
    let mut tb = ProxyTestbed::midpoint(
        seed,
        &sc.net,
        sc.device,
        sc.page.clone(),
        down.clone(),
        up.clone(),
        sc.zero_rtt,
        Box::new(WebClient::new(sc.page.clone())),
    );
    tb.run(sc.deadline);
    crate::runner::note_cell_events(tb.world.events_processed());
    tb.client_host().app::<WebClient>(0).plt()
}

/// PLT samples in milliseconds over all rounds (deadline misses are
/// recorded at the deadline — a conservative penalty). Rounds are sharded
/// across [`Parallelism::auto`] workers; results keep round order.
pub fn plt_samples(proto: &ProtoConfig, sc: &Scenario) -> Vec<f64> {
    plt_samples_par(proto, sc, Parallelism::auto())
}

/// [`plt_samples`] under an explicit parallelism policy.
pub fn plt_samples_par(proto: &ProtoConfig, sc: &Scenario, par: Parallelism) -> Vec<f64> {
    run_ordered(par, sc.rounds as usize, |k| {
        run_page_load(proto, sc, k as u64)
            .plt
            .unwrap_or(sc.deadline)
            .as_millis_f64()
    })
}

/// Full records over all rounds, sharded across [`Parallelism::auto`]
/// workers; the returned vector is in round order regardless of which
/// worker ran which round.
pub fn run_records(proto: &ProtoConfig, sc: &Scenario) -> Vec<RunRecord> {
    run_records_par(proto, sc, Parallelism::auto())
}

/// [`run_records`] under an explicit parallelism policy.
pub fn run_records_par(proto: &ProtoConfig, sc: &Scenario, par: Parallelism) -> Vec<RunRecord> {
    run_ordered(par, sc.rounds as usize, |k| {
        run_page_load(proto, sc, k as u64)
    })
}

/// A finished QUIC-vs-TCP comparison for one scenario.
pub struct PairResult {
    /// The statistical comparison (positive percent = QUIC faster).
    pub comparison: Comparison,
    /// QUIC PLT samples (ms).
    pub quic_ms: Vec<f64>,
    /// TCP PLT samples (ms).
    pub tcp_ms: Vec<f64>,
}

/// Run both protocols back-to-back and compare PLTs.
pub fn compare_pair(quic: &ProtoConfig, tcp: &ProtoConfig, sc: &Scenario) -> PairResult {
    compare_pair_par(quic, tcp, sc, Parallelism::auto())
}

/// [`compare_pair`] under an explicit parallelism policy. Both protocols'
/// rounds go into one shard pool (2×rounds independent cells), so the
/// worker set stays busy even when one protocol's runs are much slower.
pub fn compare_pair_par(
    quic: &ProtoConfig,
    tcp: &ProtoConfig,
    sc: &Scenario,
    par: Parallelism,
) -> PairResult {
    let n = sc.rounds as usize;
    let mut all = run_ordered(par, 2 * n, |i| {
        let (proto, k) = if i < n { (quic, i) } else { (tcp, i - n) };
        run_page_load(proto, sc, k as u64)
            .plt
            .unwrap_or(sc.deadline)
            .as_millis_f64()
    });
    let tcp_ms = all.split_off(n);
    let quic_ms = all;
    PairResult {
        comparison: Comparison::lower_is_better(&quic_ms, &tcp_ms),
        quic_ms,
        tcp_ms,
    }
}

/// Sweep a full heatmap: rows x columns of scenarios, one Welch-gated
/// cell each. `make_scenario(row, col)` builds the scenario (serially, so
/// it may be stateful); the `(cell, protocol, round)` runs themselves are
/// sharded across [`Parallelism::auto`] workers.
pub fn sweep_heatmap(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    quic: &ProtoConfig,
    tcp: &ProtoConfig,
    make_scenario: impl FnMut(usize, usize) -> Scenario,
) -> Heatmap {
    sweep_heatmap_par(
        title,
        row_labels,
        col_labels,
        quic,
        tcp,
        make_scenario,
        Parallelism::auto(),
    )
}

/// [`sweep_heatmap`] under an explicit parallelism policy. The whole
/// matrix is flattened into one `(cell, protocol, round)` work list so a
/// single slow cell cannot straggle behind a per-cell partition; samples
/// are reassembled into per-cell round order before the Welch gate runs,
/// which makes the verdicts bit-identical to a serial sweep.
#[allow(clippy::too_many_arguments)]
pub fn sweep_heatmap_par(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    quic: &ProtoConfig,
    tcp: &ProtoConfig,
    mut make_scenario: impl FnMut(usize, usize) -> Scenario,
    par: Parallelism,
) -> Heatmap {
    let ncols = col_labels.len();
    let mut scenarios = Vec::with_capacity(row_labels.len() * ncols);
    for r in 0..row_labels.len() {
        for c in 0..ncols {
            scenarios.push(make_scenario(r, c));
        }
    }
    let rounds = |s: usize| scenarios[s].rounds;
    sweep_cells(title, row_labels, col_labels, rounds, par, |s, cand, k| {
        let sc = &scenarios[s];
        let proto = if cand { quic } else { tcp };
        run_page_load(proto, sc, k)
            .plt
            .unwrap_or(sc.deadline)
            .as_millis_f64()
    })
}

/// The core both sweeps share. Heatmap cell `s` (row-major) takes
/// `rounds(s)` samples per side; the whole matrix is flattened into one
/// `(cell, candidate?, round)` work list — candidate rounds first within
/// each cell, the sample order the serial `compare_pair` produced — run
/// through [`run_ordered`], and cut back into per-cell slices for the
/// Welch gate.
fn sweep_cells(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    rounds: impl Fn(usize) -> u64,
    par: Parallelism,
    run: impl Fn(usize, bool, u64) -> f64 + Sync,
) -> Heatmap {
    let ncols = col_labels.len();
    let ncells = row_labels.len() * ncols;
    let mut cells = Vec::new();
    for s in 0..ncells {
        for cand in [true, false] {
            for k in 0..rounds(s) {
                cells.push((s, cand, k));
            }
        }
    }
    let samples = run_ordered(par, cells.len(), |i| {
        let (s, cand, k) = cells[i];
        run(s, cand, k)
    });

    let mut map = Heatmap::new(title, row_labels.to_vec(), col_labels.to_vec());
    let mut pos = 0;
    for s in 0..ncells {
        let n = rounds(s) as usize;
        let cand = &samples[pos..pos + n];
        let base = &samples[pos + n..pos + 2 * n];
        pos += 2 * n;
        let cmp = Comparison::lower_is_better(cand, base);
        map.set(s / ncols, s % ncols, HeatmapCell::from_comparison(&cmp));
    }
    map
}

/// Generic sweep comparing any two PLT-producing closures (used for
/// QUIC-vs-QUIC ablations like Fig 7's 0-RTT on/off and the proxy
/// figures). `run(candidate?, row, col, round)` returns a PLT in ms; it
/// must be thread-safe because rounds are sharded across
/// [`Parallelism::auto`] workers.
pub fn sweep_heatmap_with(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    rounds: u64,
    run: impl Fn(bool, usize, usize, u64) -> f64 + Sync,
) -> Heatmap {
    sweep_heatmap_with_par(
        title,
        row_labels,
        col_labels,
        rounds,
        run,
        Parallelism::auto(),
    )
}

/// [`sweep_heatmap_with`] under an explicit parallelism policy.
pub fn sweep_heatmap_with_par(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    rounds: u64,
    run: impl Fn(bool, usize, usize, u64) -> f64 + Sync,
    par: Parallelism,
) -> Heatmap {
    let ncols = col_labels.len();
    sweep_cells(
        title,
        row_labels,
        col_labels,
        |_| rounds,
        par,
        |s, cand, k| run(cand, s / ncols, s % ncols, k),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_http::app::ClientApp;
    use longlook_quic::QuicConfig;
    use longlook_sim::{FaultDir, FaultEvent, FaultKind};
    use longlook_stats::Verdict;
    use longlook_tcp::TcpConfig;

    fn quic() -> ProtoConfig {
        ProtoConfig::Quic(QuicConfig::default())
    }

    fn tcp() -> ProtoConfig {
        ProtoConfig::Tcp(TcpConfig::default())
    }

    #[test]
    fn single_run_produces_full_record() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024)).with_rounds(1);
        let rec = run_page_load(&quic(), &sc, 0);
        assert!(rec.plt.is_some());
        assert!(rec.client_stats.packets_sent > 0);
        let srv = rec.server_stats.expect("server connection existed");
        assert!(srv.packets_sent > 0);
        let trace = rec.server_trace.expect("trace");
        assert!(!trace.visits.is_empty());
        assert!(!rec.server_cwnd.is_empty());
    }

    #[test]
    fn paired_comparison_small_object_quic_wins() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(10 * 1024)).with_rounds(5);
        let pair = compare_pair(&quic(), &tcp(), &sc);
        assert_eq!(pair.comparison.verdict, Verdict::CandidateWins);
        assert!(
            pair.comparison.percent > 20.0,
            "{}",
            pair.comparison.percent
        );
    }

    #[test]
    fn sweep_builds_shaped_heatmap() {
        let rows = vec!["10Mbps".to_string()];
        let cols = vec!["10KB".to_string(), "100KB".to_string()];
        let sizes = [10 * 1024, 100 * 1024];
        let map = sweep_heatmap("mini", &rows, &cols, &quic(), &tcp(), |_r, c| {
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(sizes[c])).with_rounds(4)
        });
        assert_eq!(map.cells.len(), 1);
        assert_eq!(map.cells[0].len(), 2);
        let (red, _, _) = map.verdict_counts();
        assert!(red >= 1, "QUIC should win at least one cell");
    }

    #[test]
    fn deterministic_given_seed() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024)).with_rounds(2);
        assert_eq!(plt_samples(&quic(), &sc), plt_samples(&quic(), &sc));
    }

    fn faulted_scenario(plan: FaultPlan) -> Scenario {
        Scenario::new(
            NetProfile::baseline(5.0).with_fault(plan),
            PageSpec::single(60 * 1024),
        )
        .with_rounds(1)
        .with_seed(4242)
    }

    fn blackout(at: Time, dur: Dur) -> FaultPlan {
        FaultPlan::new().with_event(FaultEvent {
            at,
            dur,
            dir: FaultDir::Both,
            kind: FaultKind::Blackout,
        })
    }

    #[test]
    fn clean_fault_plan_still_completes() {
        // A plan whose windows sit far past the page load is a no-op.
        let plan = blackout(Time::ZERO + Dur::from_secs(500), Dur::from_secs(1));
        for proto in [quic(), tcp()] {
            let rec = run_page_load(&proto, &faulted_scenario(plan.clone()), 0);
            assert!(rec.completed(), "{}: load must complete", proto.name());
            assert!(rec.accounted_for());
            assert!(rec.app_bytes > 0);
            assert_eq!(rec.client_error, None);
        }
    }

    #[test]
    fn same_seed_same_trauma_record() {
        let plan = blackout(Time::ZERO + Dur::from_millis(100), Dur::from_millis(400));
        let sc = faulted_scenario(plan);
        assert_eq!(
            run_page_load(&quic(), &sc, 0),
            run_page_load(&quic(), &sc, 0)
        );
    }

    #[test]
    fn blackout_past_deadline_surfaces_typed_error() {
        // A blackout covering the whole run: the handshake can never
        // complete, so the armed watchdog must surface a typed error and
        // the world must go idle rather than run to the deadline.
        let mut sc = faulted_scenario(blackout(Time::ZERO, Dur::from_secs(600)));
        sc.deadline = Dur::from_secs(120);
        for proto in [quic(), tcp()] {
            let rec = run_page_load(&proto, &sc, 0);
            assert!(!rec.completed(), "{}: nothing can complete", proto.name());
            // A warm 0-RTT QUIC client is locally "established" from t=0,
            // so its watchdog reads the dead path as idleness; the TCP
            // client is still in the SYN handshake.
            let expect = match &proto {
                ProtoConfig::Quic(_) => ConnError::IdleTimeout,
                ProtoConfig::Tcp(_) => ConnError::HandshakeTimeout,
            };
            assert_eq!(
                rec.client_error,
                Some(expect),
                "{}: client must give up with a typed error",
                proto.name()
            );
            assert!(rec.accounted_for());
            assert_ne!(
                rec.outcome,
                RunOutcome::DeadlineReached,
                "{}: the world must quiesce, not spin to the deadline",
                proto.name()
            );
        }
    }

    /// `completed()` reads the PLT; the client app's own `done()` is what
    /// it stands for. They agree on loads that finish, on loads a watchdog
    /// gives up on, and on loads the deadline cuts off mid-transfer.
    #[test]
    fn completed_is_the_client_apps_done() {
        let give_up = faulted_scenario(blackout(Time::ZERO, Dur::from_secs(600)));
        let mut cut_off = faulted_scenario(FaultPlan::new());
        cut_off.deadline = Dur::from_millis(60);
        let cases = [
            (faulted_scenario(FaultPlan::new()), true),
            (give_up, false),
            (cut_off, false),
        ];
        for (sc, finishes) in cases {
            for proto in [quic(), tcp()] {
                let (rec, tb) = run_cell(&proto, &sc, 0);
                let done = tb.client_host().app::<WebClient>(0).done();
                assert_eq!(rec.completed(), done, "{}", proto.name());
                assert_eq!(done, finishes, "{}", proto.name());
            }
        }
    }
}
