//! The experiment runner: a measurement cell is one [`Scenario`] value —
//! network, device, page, protocol (and proxy), rounds, seed — and the
//! paper's comparisons are pairs of cells run back to back, >= 10 rounds
//! each, Welch-gated, swept into heatmaps.
//!
//! Methodology per Sec 3.3: "we run experiments in 10 rounds or more, each
//! consisting of a download using TCP and one using QUIC, back-to-back. We
//! present the percent differences in performance between TCP and QUIC and
//! indicate whether they are statistically significant (p < 0.01)."
//! Back-to-back here means the two cells of a pair see the *same* round
//! seed — the identical network realization — which is a paired design
//! stronger than the paper's wall-clock adjacency.
//!
//! Every round goes through [`sample`], a table's `(cell, round)` runs as
//! one [`run_ordered`] batch under the caller's [`Parallelism`];
//! [`Scenario::records`], [`compare`], [`sweep`] and [`sweep_with`] are
//! thin uses of it. Results come back in cell order at any worker count,
//! and in debug builds a closure that leaks a `SimRng` or `World` across
//! runs panics naming both instead of silently correlating rounds.

use crate::runner::{run_ordered, Parallelism};
use crate::testbed::{FlowSpec, NetProfile, ProxyTestbed, Testbed};
use longlook_http::app::WebClient;
use longlook_http::host::{ClientHost, ProtoConfig, ServerHost};
use longlook_http::workload::PageSpec;
use longlook_quic::QuicConfig;
use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::{merge_by_time, TraceRecord};
use longlook_sim::{DeviceProfile, FaultPlan, RunOutcome, TraceMode};
use longlook_stats::{Comparison, Heatmap, HeatmapCell, Summary};
use longlook_transport::ccstate::StateTrace;
use longlook_transport::conn::{ConnError, ConnStats};

/// One measurement cell.
#[derive(Clone)]
pub struct Scenario {
    /// Emulated network.
    pub net: NetProfile,
    /// Client device model.
    pub device: DeviceProfile,
    /// Page to load.
    pub page: PageSpec,
    /// Protocol the client loads the page over (the client-side leg when
    /// proxied).
    pub proto: ProtoConfig,
    /// Protocol of a midpoint proxy's origin-side leg (Fig 16); `None`
    /// is the direct topology.
    pub proxy: Option<ProtoConfig>,
    /// Rounds (paper: at least 10).
    pub rounds: u64,
    /// Base seed; round `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Whether the QUIC client holds 0-RTT state.
    pub zero_rtt: bool,
    /// Simulated-time budget per run.
    pub deadline: Dur,
}

impl Scenario {
    /// Defaults: calibrated QUIC, direct, desktop client, 10 rounds,
    /// 0-RTT warm, 10-minute budget.
    pub fn new(net: NetProfile, page: PageSpec) -> Self {
        Scenario {
            net,
            device: DeviceProfile::DESKTOP,
            page,
            proto: ProtoConfig::Quic(QuicConfig::default()),
            proxy: None,
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

    /// Builder: the protocol the client runs.
    pub fn with_proto(mut self, proto: ProtoConfig) -> Self {
        self.proto = proto;
        self
    }

    /// Builder: load the page through a proxy midway along the path whose
    /// origin-side leg runs `up`. Refuses a fault plan when run: the
    /// proxy testbed does not model one on its two legs.
    pub fn via_proxy(mut self, up: ProtoConfig) -> Self {
        self.proxy = Some(up);
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

    /// Load the page once with per-round seed `round`.
    pub fn run(&self, round: u64) -> RunRecord {
        self.run_cell(round, false).0
    }

    /// [`Scenario::run`] with the structured trace layer on for this run
    /// only, whatever the protocol configs carry. Returns the record plus
    /// the server connection's event trace merged with the fault plan's
    /// window edges, so the trace explains *when* the network was faulted
    /// as well as how the transport reacted.
    pub fn run_traced(&self, round: u64) -> (RunRecord, Vec<TraceRecord>) {
        self.run_cell(round, true)
    }

    /// Every round's record, in round order, sharded under `par`.
    pub fn records(&self, par: Parallelism) -> Vec<RunRecord> {
        sample(par, [self.rounds], |_, k| self.run(k)).remove(0)
    }

    /// A record's PLT in milliseconds; a deadline miss counts as the
    /// deadline (a conservative penalty).
    pub fn plt_ms(&self, rec: &RunRecord) -> f64 {
        rec.plt.unwrap_or(self.deadline).as_millis_f64()
    }

    /// Every round's [`Scenario::plt_ms`], folded in round order.
    pub fn plt_summary(&self, par: Parallelism) -> Summary {
        plt_summaries(std::slice::from_ref(self), par).remove(0)
    }

    /// Build and run one round: the per-round seed and network
    /// realization, one `WebClient` flow, direct or through the proxy, run
    /// to `self.deadline`. The trace is empty unless `trace`.
    fn run_cell(&self, round: u64, trace: bool) -> (RunRecord, Vec<TraceRecord>) {
        let stamp = |proto: &ProtoConfig| match trace {
            true => proto.clone().with_trace(TraceMode::On),
            false => proto.clone(),
        };
        let seed = self.base_seed.wrapping_mul(1_000_003).wrapping_add(round);
        let net = self
            .net
            .clone()
            .with_rtt_draw(self.base_seed ^ 0xA11CE, round);
        let app = Box::new(WebClient::new(self.page.clone()));
        let (mut world, client, server, flow) = match &self.proxy {
            None => {
                let flow = FlowSpec {
                    proto: stamp(&self.proto),
                    zero_rtt: self.zero_rtt,
                    app,
                };
                let tb = Testbed::direct(
                    seed,
                    &net,
                    self.device,
                    self.page.clone(),
                    vec![flow],
                    None,
                    true,
                );
                (tb.world, tb.client, tb.server, tb.flows[0])
            }
            Some(up) => {
                let tb = ProxyTestbed::midpoint(
                    seed,
                    &net,
                    self.device,
                    self.page.clone(),
                    stamp(&self.proto),
                    stamp(up),
                    self.zero_rtt,
                    app,
                );
                (tb.world, tb.client, tb.origin, ProxyTestbed::ORIGIN_FLOW)
            }
        };
        let outcome = world.run_until(Time::ZERO + self.deadline);
        crate::runner::note_cell_events(world.events_processed());
        let now = world.now();
        let host = world.agent::<ClientHost>(client);
        let app = host.app::<WebClient>(0);
        let server = world.agent::<ServerHost>(server);
        let rec = RunRecord {
            plt: app.plt(),
            client_stats: host.conn_stats(0),
            server_stats: server.conn_stats(flow),
            server_trace: server.state_trace(flow, now),
            ended_at: now,
            outcome,
            client_error: host.conn_error(0),
            server_error: server.conn_error(flow),
            app_bytes: app.har().iter().map(|r| r.bytes).sum(),
        };
        if !trace {
            return (rec, Vec::new());
        }
        let edges = self
            .net
            .fault
            .as_ref()
            .map(FaultPlan::trace_window_edges)
            .unwrap_or_default();
        let conn_trace = server.conn_trace(flow).unwrap_or_default();
        (rec, merge_by_time(conn_trace, &edges))
    }
}

/// Everything one run produces. `PartialEq` compares every field, which
/// is what the determinism-equivalence suite relies on: two runs are
/// "identical" only if every counter and state-trace visit agrees. The
/// server's cwnd timeline is not kept here: it is read from a traced run
/// ([`Scenario::run_traced`], [`crate::traceview::cwnd_timeline`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Page load time; `None` if the deadline expired first.
    pub plt: Option<Dur>,
    /// Client connection counters.
    pub client_stats: ConnStats,
    /// Server connection counters (the instrumented side in the paper;
    /// the origin's when proxied).
    pub server_stats: Option<ConnStats>,
    /// Server-side congestion-control state trace.
    pub server_trace: Option<StateTrace<'static>>,
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

/// A finished comparison of two cells.
pub struct PairResult {
    /// The statistical comparison (positive percent = candidate faster).
    pub comparison: Comparison,
    /// Candidate PLT samples (ms), in round order.
    pub cand_ms: Vec<f64>,
    /// Baseline PLT samples (ms), in round order.
    pub base_ms: Vec<f64>,
}

/// Run two cells back to back and compare their PLTs. Both cells' rounds
/// go into one shard pool, so the workers stay busy even when one side's
/// runs are much slower.
pub fn compare(cand: &Scenario, base: &Scenario, par: Parallelism) -> PairResult {
    let cells = [cand, base];
    let [cand_ms, base_ms]: [Vec<f64>; 2] = sample(par, [cand.rounds, base.rounds], |i, k| {
        cells[i].plt_ms(&cells[i].run(k))
    })
    .try_into()
    .expect("two cells");
    PairResult {
        comparison: Comparison::lower_is_better(&cand_ms, &base_ms),
        cand_ms,
        base_ms,
    }
}

/// Sweep a heatmap: rows x columns of `(candidate, baseline)` cell pairs,
/// one Welch-gated PLT comparison each. `cell(row, col)` builds the pair
/// (serially, so it may be stateful); the runs themselves are sharded
/// under `par`.
pub fn sweep(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    par: Parallelism,
    mut cell: impl FnMut(usize, usize) -> (Scenario, Scenario),
) -> Heatmap {
    let ncols = col_labels.len();
    let pairs: Vec<(Scenario, Scenario)> = (0..row_labels.len() * ncols)
        .map(|s| cell(s / ncols, s % ncols))
        .collect();
    let side = |i: usize| match i % 2 {
        0 => &pairs[i / 2].0,
        _ => &pairs[i / 2].1,
    };
    heatmap(
        title,
        row_labels,
        col_labels,
        par,
        |i| side(i).rounds,
        |i, k| side(i).plt_ms(&side(i).run(k)),
    )
}

/// [`sweep`] for samplers that are not one page-load cell: the fleet's
/// p99, or a network redrawn per round. `run(candidate?, row, col,
/// round)` returns one sample (lower is better), `rounds` per side; it
/// must be thread-safe because runs are sharded under `par`.
pub fn sweep_with(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    rounds: u64,
    par: Parallelism,
    run: impl Fn(bool, usize, usize, u64) -> f64 + Sync,
) -> Heatmap {
    let ncols = col_labels.len();
    heatmap(
        title,
        row_labels,
        col_labels,
        par,
        |_| rounds,
        |i, k| run(i % 2 == 0, i / 2 / ncols, i / 2 % ncols, k),
    )
}

/// The core both sweeps share. Side `2s` is the candidate and `2s + 1`
/// the baseline of row-major heatmap cell `s`; every side's samples come
/// from one [`sample`] batch before the Welch gate runs — bit-identical
/// to a serial sweep.
fn heatmap(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    par: Parallelism,
    rounds: impl Fn(usize) -> u64,
    run: impl Fn(usize, u64) -> f64 + Sync,
) -> Heatmap {
    let ncols = col_labels.len();
    let ncells = row_labels.len() * ncols;
    let samples = sample(par, (0..2 * ncells).map(rounds), run);
    let mut map = Heatmap::new(title, row_labels.to_vec(), col_labels.to_vec());
    for (s, pair) in samples.chunks(2).enumerate() {
        let cmp = Comparison::lower_is_better(&pair[0], &pair[1]);
        map.set(s / ncols, s % ncols, HeatmapCell::from_comparison(&cmp));
    }
    map
}

/// The one round path: cell `i`'s `rounds[i]` runs, every cell's, as one
/// [`run_ordered`] batch of `(cell, round)` runs, so a single slow cell
/// cannot straggle behind a per-cell partition. Returns each cell's
/// `run(i, k)` results in round order.
pub fn sample<T: Send>(
    par: Parallelism,
    rounds: impl IntoIterator<Item = u64>,
    run: impl Fn(usize, u64) -> T + Sync,
) -> Vec<Vec<T>> {
    let rounds: Vec<u64> = rounds.into_iter().collect();
    let work: Vec<(usize, u64)> = (rounds.iter().enumerate())
        .flat_map(|(i, &n)| (0..n).map(move |k| (i, k)))
        .collect();
    let mut runs = run_ordered(par, work.len(), |j| run(work[j].0, work[j].1)).into_iter();
    (rounds.iter())
        .map(|&n| runs.by_ref().take(n as usize).collect())
        .collect()
}

/// Each cell's [`Scenario::plt_ms`] summary, every cell's rounds in one
/// [`sample`] batch.
pub fn plt_summaries(cells: &[Scenario], par: Parallelism) -> Vec<Summary> {
    let rounds = cells.iter().map(|c| c.rounds);
    let plts = sample(par, rounds, |i, k| cells[i].plt_ms(&cells[i].run(k)));
    plts.iter().map(|p| p.iter().copied().collect()).collect()
}

// Sole caller: `observatory/` (frozen), which names the runners that the
// cell value replaced.
#[doc(hidden)]
pub fn run_page_load(proto: &ProtoConfig, sc: &Scenario, round: u64) -> RunRecord {
    sc.clone().with_proto(proto.clone()).run(round)
}

#[doc(hidden)]
pub fn run_trauma_cell_traced(
    proto: &ProtoConfig,
    sc: &Scenario,
    round: u64,
) -> (RunRecord, Vec<TraceRecord>) {
    sc.clone().with_proto(proto.clone()).run_traced(round)
}

#[doc(hidden)]
pub fn sweep_heatmap_par(
    title: &str,
    rows: &[String],
    cols: &[String],
    quic: &ProtoConfig,
    tcp: &ProtoConfig,
    mut make: impl FnMut(usize, usize) -> Scenario,
    par: Parallelism,
) -> Heatmap {
    sweep(title, rows, cols, par, |r, c| {
        let tcp = make(r, c).with_proto(tcp.clone());
        (tcp.clone().with_proto(quic.clone()), tcp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_http::app::ClientApp;
    use longlook_sim::{FaultDir, FaultEvent, FaultKind};
    use longlook_stats::Verdict;
    use longlook_tcp::TcpConfig;

    fn tcp() -> ProtoConfig {
        ProtoConfig::Tcp(TcpConfig::default())
    }

    #[test]
    fn single_run_produces_full_record() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024)).with_rounds(1);
        let rec = sc.run(0);
        assert!(rec.plt.is_some());
        assert!(rec.client_stats.packets_sent > 0);
        let srv = rec.server_stats.expect("server connection existed");
        assert!(srv.packets_sent > 0);
        let trace = rec.server_trace.expect("trace");
        assert!(!trace.visits.is_empty());
    }

    #[test]
    fn proxied_run_records_the_origin() {
        let sc = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024))
            .with_proto(tcp())
            .via_proxy(tcp());
        let rec = sc.run(0);
        assert!(rec.completed());
        let origin = rec.server_stats.expect("the origin served the proxy");
        assert!(origin.bytes_sent >= rec.app_bytes);
        let (traced, trace) = sc.run_traced(0);
        assert_eq!(traced, rec);
        assert!(!trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "NetProfile::fault is set")]
    fn a_proxied_cell_refuses_a_fault_plan() {
        let net = NetProfile::baseline(10.0).with_fault(FaultPlan::new());
        Scenario::new(net, PageSpec::single(10 * 1024))
            .via_proxy(tcp())
            .run(0);
    }

    #[test]
    fn paired_comparison_small_object_quic_wins() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(10 * 1024)).with_rounds(5);
        let pair = compare(&sc, &sc.clone().with_proto(tcp()), Parallelism::Serial);
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
        let map = sweep("mini", &rows, &cols, Parallelism::Serial, |_r, c| {
            let sc = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(sizes[c]))
                .with_rounds(4);
            (sc.clone(), sc.with_proto(tcp()))
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
        assert_eq!(
            sc.records(Parallelism::Serial),
            sc.records(Parallelism::Serial)
        );
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
        for sc in [
            faulted_scenario(plan.clone()),
            faulted_scenario(plan).with_proto(tcp()),
        ] {
            let rec = sc.run(0);
            assert!(rec.completed(), "{}: load must complete", sc.proto.name());
            assert!(rec.accounted_for());
            assert!(rec.app_bytes > 0);
            assert_eq!(rec.client_error, None);
        }
    }

    #[test]
    fn same_seed_same_trauma_record() {
        let plan = blackout(Time::ZERO + Dur::from_millis(100), Dur::from_millis(400));
        let sc = faulted_scenario(plan);
        assert_eq!(sc.run(0), sc.run(0));
    }

    #[test]
    fn blackout_past_deadline_surfaces_typed_error() {
        // A blackout covering the whole run: the handshake can never
        // complete, so the armed watchdog must surface a typed error and
        // the world must go idle rather than run to the deadline.
        let mut quic = faulted_scenario(blackout(Time::ZERO, Dur::from_secs(600)));
        quic.deadline = Dur::from_secs(120);
        for sc in [quic.clone(), quic.with_proto(tcp())] {
            let rec = sc.run(0);
            assert!(
                !rec.completed(),
                "{}: nothing can complete",
                sc.proto.name()
            );
            // A warm 0-RTT QUIC client is locally "established" from t=0,
            // so its watchdog reads the dead path as idleness; the TCP
            // client is still in the SYN handshake.
            let expect = match &sc.proto {
                ProtoConfig::Quic(_) => ConnError::IdleTimeout,
                ProtoConfig::Tcp(_) => ConnError::HandshakeTimeout,
            };
            assert_eq!(
                rec.client_error,
                Some(expect),
                "{}: client must give up with a typed error",
                sc.proto.name()
            );
            assert!(rec.accounted_for());
            assert_ne!(
                rec.outcome,
                RunOutcome::DeadlineReached,
                "{}: the world must quiesce, not spin to the deadline",
                sc.proto.name()
            );
        }
    }

    /// `completed()` reads the PLT the record copies from the client app;
    /// the app's own `done()` is what it stands for. They agree on loads
    /// that finish, on loads a watchdog gives up on, and on loads the
    /// deadline cuts off mid-transfer.
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
            for proto in [sc.proto.clone(), tcp()] {
                let flow = FlowSpec {
                    proto: proto.clone(),
                    zero_rtt: sc.zero_rtt,
                    app: Box::new(WebClient::new(sc.page.clone())),
                };
                let mut tb = Testbed::direct(
                    7,
                    &sc.net,
                    sc.device,
                    sc.page.clone(),
                    vec![flow],
                    None,
                    true,
                );
                tb.run(sc.deadline);
                let app = tb.client_host().app::<WebClient>(0);
                assert_eq!(app.plt().is_some(), app.done(), "{}", proto.name());
                assert_eq!(app.done(), finishes, "{}", proto.name());
                let rec = sc.clone().with_proto(proto.clone()).run(0);
                assert_eq!(rec.completed(), finishes, "{}", proto.name());
            }
        }
    }
}
