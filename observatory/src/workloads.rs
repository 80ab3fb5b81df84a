//! The five workloads: inputs made from a seed, one pass of fixed work
//! through public functions only, and the checks on what came out.
//!
//! One *op* is one simulation cell: a page load, a bulk transfer, or a
//! fleet run. A pass is closed-loop and serial: the next cell starts when
//! the previous one returned.

use crate::estimate::Fnv;
use crate::meter::Meter;
use crate::spans::Recorder;
use longlook_core::prelude::*;
use longlook_core::runner::{set_timing, take_timing_reports};
use longlook_http::workload::{table2, RESPONSE_HEADER};
use longlook_transport::conn::ConnStats;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Heatmap sweep over sizes, counts, rates and impairments.
    SweepGrid,
    /// Long clean QUIC transfers.
    BulkQuic,
    /// The same transfers over TCP.
    BulkTcp,
    /// Long transfers over lossy, jittered and faulted paths.
    ImpairedMix,
    /// Flash-crowd fleet, QUIC then TCP.
    FleetFlash,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::SweepGrid,
        Workload::BulkQuic,
        Workload::BulkTcp,
        Workload::ImpairedMix,
        Workload::FleetFlash,
    ];

    /// Name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepGrid => "sweep_grid",
            Workload::BulkQuic => "bulk_quic",
            Workload::BulkTcp => "bulk_tcp",
            Workload::ImpairedMix => "impaired_mix",
            Workload::FleetFlash => "fleet_flash",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn index(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("ALL lists every workload") as u64
    }
}

/// How much smaller than full size the inputs are. `FULL` is what the
/// benchmark measures; the tests run at `TINY` so tier-1 stays fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shrink(pub u64);

impl Shrink {
    /// Benchmark size.
    pub const FULL: Shrink = Shrink(1);
    /// 1/50 of benchmark size.
    #[cfg(test)]
    pub const TINY: Shrink = Shrink(50);
}

/// One packet-level cell: everything `Testbed::direct` needs.
pub struct CellSpec {
    /// Protocol under test.
    pub proto: ProtoConfig,
    /// Emulated path.
    pub net: NetProfile,
    /// Page to fetch.
    pub page: PageSpec,
    /// World seed.
    pub seed: u64,
    /// Whether the QUIC client holds 0-RTT state.
    pub zero_rtt: bool,
    /// Simulated-time budget; a load still running then has failed.
    pub deadline: Dur,
}

/// One heatmap of the sweep, as `sweep_heatmap_par` takes it: rates down,
/// object sizes or object counts across, one path condition.
pub struct FigureSpec {
    /// Figure title.
    pub title: String,
    /// Row labels: link rates.
    pub rows: Vec<String>,
    /// Column labels: object sizes, or object counts.
    pub cols: Vec<String>,
    /// Row-major scenarios, `rows.len() * cols.len()` of them.
    pub scenarios: Vec<Scenario>,
}

/// A workload's generated inputs.
pub enum Inputs {
    /// `sweep_grid`: one figure per path condition and column axis.
    Sweep(Vec<FigureSpec>),
    /// `bulk_quic`, `bulk_tcp`, `impaired_mix`: groups of cells, each
    /// group one measured segment.
    Cells(Vec<Vec<CellSpec>>),
    /// `fleet_flash`.
    Fleet(Vec<(ProtoConfig, FleetConfig)>),
}

/// QUIC as the paper calibrated it.
pub fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

/// TCP+TLS+HTTP/2 with the default configuration.
pub fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// SplitMix64 finaliser over (seed, workload, cell): every scenario and
/// fleet seed is a pure function of `--seed`, and no two cells share one.
fn cell_seed(seed: u64, w: Workload, cell: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w.index() + 1))
        .wrapping_add(cell.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Clients per fleet run. Deep enough that the scheduler and the arena
/// work out of DRAM (a client costs a fifth more host time than in a
/// 250 000-client fleet), small enough that a run gets eight passes in
/// its twelve seconds.
const FLEET_CLIENTS: u64 = 400_000;
const MIB: u64 = 1024 * 1024;
const KIB: u64 = 1024;

impl Inputs {
    /// Generate `w`'s inputs from `seed`. The same seed gives the same
    /// inputs; nothing else (environment, clock, thread count) enters.
    pub fn generate(w: Workload, seed: u64, shrink: Shrink) -> Inputs {
        match w {
            Workload::SweepGrid => Inputs::Sweep(sweep_spec(seed, shrink)),
            Workload::BulkQuic => Inputs::Cells(bulk_cells(w, quic(), seed, shrink)),
            Workload::BulkTcp => Inputs::Cells(bulk_cells(w, tcp(), seed, shrink)),
            Workload::ImpairedMix => Inputs::Cells(impaired_cells(seed, shrink)),
            Workload::FleetFlash => {
                let n = (FLEET_CLIENTS / shrink.0) as usize;
                Inputs::Fleet(
                    [quic(), tcp()]
                        .into_iter()
                        .enumerate()
                        .map(|(i, p)| {
                            let cfg = FleetConfig::new(n).with_seed(cell_seed(seed, w, i as u64));
                            (p, cfg)
                        })
                        .collect(),
                )
            }
        }
    }

    /// Ops in one pass.
    #[cfg(test)]
    pub fn ops(&self) -> u64 {
        match self {
            Inputs::Sweep(figs) => figs.iter().map(FigureSpec::loads).sum(),
            Inputs::Cells(groups) => groups.iter().map(|g| g.len() as u64).sum(),
            Inputs::Fleet(f) => f.len() as u64,
        }
    }
}

impl FigureSpec {
    /// Page loads the figure takes: both protocols, every round.
    fn loads(&self) -> u64 {
        self.scenarios.iter().map(|sc| 2 * sc.rounds).sum()
    }
}

/// Fig 6a (sizes) and Fig 6b (counts) on a clean path, and the same two
/// under Fig 8's loss and delay-plus-jitter: six heatmaps. The 10 MB size
/// column is left out: long transfers are what the bulk workloads measure.
fn sweep_spec(seed: u64, shrink: Shrink) -> Vec<FigureSpec> {
    let full = shrink == Shrink::FULL;
    let rates: &[f64] = if full { &table2::RATES_MBPS } else { &[10.0] };
    let sizes: &[u64] = if full {
        &table2::OBJECT_SIZES[..6]
    } else {
        &table2::OBJECT_SIZES[..2]
    };
    let counts: &[usize] = if full {
        &table2::OBJECT_COUNTS
    } else {
        &table2::OBJECT_COUNTS[3..4]
    };
    let rounds = if full { 10 } else { 3 };
    type Cond = (&'static str, fn(NetProfile) -> NetProfile);
    let conds: &[Cond] = &[
        ("clean", |n| n),
        ("1% loss", |n| n.with_loss(0.01)),
        ("112ms RTT +-10ms jitter", |n| {
            n.with_extra_rtt(Dur::from_millis(76))
                .with_jitter(Dur::from_millis(10))
        }),
    ];
    let conds = if full { conds } else { &conds[..2] };

    let by_size: Vec<(String, PageSpec)> = sizes
        .iter()
        .map(|&s| (format!("{}KB", s / KIB), PageSpec::single(s)))
        .collect();
    let by_count: Vec<(String, PageSpec)> = counts
        .iter()
        .map(|&n| (format!("{n}x10KB"), PageSpec::uniform(n, 10 * KIB)))
        .collect();

    let mut figures = Vec::new();
    let mut cell = 0u64;
    for (label, cond) in conds {
        for (axis, pages) in [("object size", &by_size), ("object count", &by_count)] {
            let mut scenarios = Vec::new();
            for &rate in rates {
                for (_, page) in pages {
                    scenarios.push(
                        Scenario::new(cond(NetProfile::baseline(rate)), page.clone())
                            .with_rounds(rounds)
                            .with_seed(cell_seed(seed, Workload::SweepGrid, cell)),
                    );
                    cell += 1;
                }
            }
            figures.push(FigureSpec {
                title: format!("QUIC vs TCP by {axis}, {label}"),
                rows: rates.iter().map(|r| format!("{r}Mbps")).collect(),
                cols: pages.iter().map(|(l, _)| l.clone()).collect(),
                scenarios,
            });
        }
    }
    figures
}

/// Simulated-time budget of a long transfer: the slowest cell (256 MiB at
/// a few Mbps of goodput under 2 % loss) needs about a quarter of this.
const BULK_DEADLINE: Dur = Dur::from_secs(3600);

/// Eight cold-handshake transfers of 512 MiB on a clean 36 ms path, each
/// its own segment.
fn bulk_cells(w: Workload, proto: ProtoConfig, seed: u64, shrink: Shrink) -> Vec<Vec<CellSpec>> {
    let bytes = 512 * MIB / shrink.0;
    let mut cells = Vec::new();
    for rate in [10.0, 20.0, 50.0, 100.0] {
        for _ in 0..2 {
            cells.push(vec![CellSpec {
                proto: proto.clone(),
                net: NetProfile::baseline(rate),
                page: PageSpec::single(bytes),
                seed: cell_seed(seed, w, cells.len() as u64),
                zero_rtt: false,
                deadline: BULK_DEADLINE,
            }]);
        }
    }
    cells
}

/// Five impaired paths x QUIC/TCP, four 40 MiB transfers on each under
/// four different world seeds, the four forming one segment.
///
/// Why four short transfers and not one long one: on these paths the host
/// cost of a QUIC transfer at a fixed event count depends on its seed
/// (one 160 MiB transfer over the jittered 100 Mbps path or the faulted
/// path costs 0.06 s under one seed and 0.3 s under the next), so a single
/// transfer per path made `wall_s` spread 23 % from seed to seed. Four
/// seeds per path bring that to 6 % and keep the slow mode in the mix.
fn impaired_cells(seed: u64, shrink: Shrink) -> Vec<Vec<CellSpec>> {
    const SEEDS_PER_PATH: usize = 4;
    let bytes = 40 * MIB / shrink.0;
    let ms = Dur::from_millis;
    // Burst loss while the transfer ramps, then a flapping link; both over
    // before a clean 40 MiB transfer would be, and long before the 60 s
    // idle watchdog could fire.
    let plan = FaultPlan::new()
        .with_event(FaultEvent {
            at: Time::ZERO + ms(500),
            dur: ms(5000),
            dir: FaultDir::Both,
            kind: FaultKind::BurstLoss(GeParams {
                p_enter_pm: 10,
                p_exit_pm: 300,
                loss_good_pm: 0,
                loss_bad_pm: 500,
            }),
        })
        .with_event(FaultEvent {
            at: Time::ZERO + ms(6250),
            dur: ms(1250),
            dir: FaultDir::Both,
            kind: FaultKind::Flap {
                period: ms(250),
                down_pm: 300,
            },
        });
    let paths = [
        NetProfile::baseline(50.0).with_loss(0.01),
        NetProfile::baseline(50.0)
            .with_extra_rtt(ms(76))
            .with_jitter(ms(10)),
        NetProfile::baseline(50.0)
            .with_loss(0.02)
            .with_extra_rtt(ms(50)),
        NetProfile::baseline(100.0)
            .with_loss(0.001)
            .with_jitter(ms(5)),
        NetProfile::baseline(50.0).with_fault(plan),
    ];
    let mut groups = Vec::new();
    let mut cell = 0u64;
    for net in paths {
        for proto in [quic(), tcp()] {
            let group = (0..SEEDS_PER_PATH)
                .map(|_| {
                    cell += 1;
                    CellSpec {
                        proto: proto.clone(),
                        net: net.clone(),
                        page: PageSpec::single(bytes),
                        seed: cell_seed(seed, Workload::ImpairedMix, cell),
                        zero_rtt: false,
                        deadline: BULK_DEADLINE,
                    }
                })
                .collect();
            groups.push(group);
        }
    }
    groups
}

/// Sums of connection counters over one protocol's server connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoTotals {
    /// Packets or segments sent.
    pub packets_sent: u64,
    /// Data retransmissions.
    pub retransmissions: u64,
    /// Retransmissions later proven unnecessary.
    pub spurious: u64,
    /// Retransmission timeouts fired.
    pub rto_count: u64,
}

impl ProtoTotals {
    fn add(&mut self, s: &ConnStats) {
        self.packets_sent += s.packets_sent;
        self.retransmissions += s.retransmissions;
        self.spurious += s.spurious_retransmissions;
        self.rto_count += s.rto_count;
    }
}

/// What one pass produced and whether it checks out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassResult {
    /// Cells attempted.
    pub ops: u64,
    /// Cells that missed their deadline or broke byte conservation.
    pub ops_failed: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Highest scheduler high-water mark over the cells.
    pub sched_peak: u64,
    /// FNV-1a over every observable the pass produced.
    pub digest: u64,
    /// Server-side counters of the QUIC cells.
    pub quic: ProtoTotals,
    /// Server-side counters of the TCP cells.
    pub tcp: ProtoTotals,
    /// Fleet-only observables (zero elsewhere).
    pub fleet: FleetTotals,
}

/// Sums over the fleet runs of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetTotals {
    /// Connections spawned.
    pub conns: u64,
    /// Generation-rejected deadline tombstones popped.
    pub stale_deadline_pops: u64,
    /// Sum of scheduler high-water marks.
    pub scheduled_peak: u64,
    /// Sum of peak live connections.
    pub peak_live: u64,
    /// Sum of peak arena bytes.
    pub arena_bytes_peak: u64,
}

fn digest_stats(h: &mut Fnv, s: &ConnStats) {
    for v in [
        s.packets_sent,
        s.packets_received,
        s.bytes_sent,
        s.bytes_received,
        s.bytes_acked,
        s.retransmissions,
        s.spurious_retransmissions,
        s.losses_detected,
        s.rto_count,
        s.tlp_count,
        s.acks_sent,
        s.max_cwnd,
    ] {
        h.u64(v);
    }
}

/// Run one packet-level cell: build the testbed, run the world, collect.
/// A span brackets each of the three calls.
fn run_cell(spec: &CellSpec, rec: &mut Recorder, out: &mut PassResult, h: &mut Fnv) -> Option<Dur> {
    let cell = rec.enter("cell");

    let s = rec.enter("build");
    let mut tb = Testbed::direct(
        spec.seed,
        &spec.net,
        DeviceProfile::DESKTOP,
        spec.page.clone(),
        vec![FlowSpec {
            proto: spec.proto.clone(),
            zero_rtt: spec.zero_rtt,
            app: Box::new(WebClient::new(spec.page.clone())),
        }],
        None,
        true,
    );
    rec.exit(s);

    let s = rec.enter("run");
    tb.run(spec.deadline);
    rec.exit(s);

    let s = rec.enter("collect");
    let host = tb.client_host();
    let app = host.app::<WebClient>(0);
    let flow = tb.flows[0];
    let server = tb.server_host();
    let client_stats = host.conn_stats(0);
    let server_stats = server.conn_stats(flow).unwrap_or_default();
    let app_bytes: u64 = app.har().iter().map(|r| r.bytes).sum();
    let want_bytes = spec.page.total_bytes() + RESPONSE_HEADER * spec.page.len() as u64;
    let ok = app.done()
        && app.plt().is_some()
        && app_bytes == want_bytes
        && host.conn_error(0).is_none()
        && server.conn_error(flow).is_none();

    out.ops += 1;
    out.ops_failed += u64::from(!ok);
    out.events += tb.world.events_processed();
    out.sched_peak = out.sched_peak.max(tb.world.scheduled_peak());
    match spec.proto {
        ProtoConfig::Quic(_) => out.quic.add(&server_stats),
        ProtoConfig::Tcp(_) => out.tcp.add(&server_stats),
    }
    let plt = app.plt();
    h.u64(plt.map_or(u64::MAX, |d| d.as_nanos()));
    h.u64(app_bytes);
    digest_stats(h, &client_stats);
    digest_stats(h, &server_stats);
    h.u64(tb.world.events_processed());
    h.u64(tb.world.scheduled_peak());
    h.u64(tb.world.now().as_nanos());
    drop(tb);
    rec.exit(s);

    rec.exit(cell);
    plt
}

fn digest_heatmap(h: &mut Fnv, map: &Heatmap) {
    for cell in map.cells.iter().flatten() {
        h.f64(cell.percent);
        h.f64(cell.p_value.unwrap_or(f64::NAN));
        h.bytes(cell.verdict.glyph().to_string().as_bytes());
    }
    h.bytes(map.render_ascii().as_bytes());
}

/// One figure as a user runs it: a `sweep_heatmap_par` call and the
/// rendered heatmap. Per-load results stay inside the call, so this path
/// reports no failed op of its own; [`figure_harness`] does.
fn figure_public(fig: &FigureSpec, out: &mut PassResult, h: &mut Fnv) {
    let ncols = fig.cols.len();
    let map = sweep_heatmap_par(
        &fig.title,
        &fig.rows,
        &fig.cols,
        &quic(),
        &tcp(),
        |r, c| fig.scenarios[r * ncols + c].clone(),
        Parallelism::Serial,
    );
    out.ops += fig.loads();
    // The runner hands out event counts only through its timing sink.
    out.events += take_timing_reports()
        .iter()
        .map(longlook_core::runner::RunnerReport::total_events)
        .sum::<u64>();
    digest_heatmap(h, &map);
}

/// The same figure cell by cell through [`run_cell`], so every load can be
/// checked and bracketed by spans, then the same Welch cells and rendering.
/// `run_page_load` perturbs each round's RTT by a private +-3 % draw that
/// this loop cannot reproduce from outside, so its PLTs, and with them its
/// digest, differ from [`figure_public`]'s in the third digit; its event
/// count is within a few percent. It checks the inputs, not the public
/// call.
fn figure_harness(fig: &FigureSpec, rec: &mut Recorder, out: &mut PassResult, h: &mut Fnv) {
    let mut map = Heatmap::new(fig.title.clone(), fig.rows.clone(), fig.cols.clone());
    let ncols = fig.cols.len();
    for (i, sc) in fig.scenarios.iter().enumerate() {
        let mut samples = [Vec::new(), Vec::new()];
        for (p, proto) in [quic(), tcp()].into_iter().enumerate() {
            for k in 0..sc.rounds {
                let cell = CellSpec {
                    proto: proto.clone(),
                    net: sc.net.clone(),
                    page: sc.page.clone(),
                    // Both protocols see round k's seed: a paired design.
                    seed: sc.base_seed.wrapping_add(k),
                    zero_rtt: sc.zero_rtt,
                    deadline: sc.deadline,
                };
                let plt = run_cell(&cell, rec, out, h);
                samples[p].push(plt.unwrap_or(sc.deadline).as_millis_f64());
            }
        }
        let s = rec.enter("stats");
        let cmp = Comparison::lower_is_better(&samples[0], &samples[1]);
        map.set(i / ncols, i % ncols, HeatmapCell::from_comparison(&cmp));
        rec.exit(s);
    }
    let s = rec.enter("stats");
    digest_heatmap(h, &map);
    rec.exit(s);
}

fn fleet_run(
    proto: &ProtoConfig,
    cfg: &FleetConfig,
    rec: &mut Recorder,
    out: &mut PassResult,
    h: &mut Fnv,
) {
    let s = rec.enter("cell");
    let r = rec.enter("run");
    let m = run_fleet(proto, cfg);
    rec.exit(r);
    let c = rec.enter("collect");
    let n = cfg.n_conns as u64;
    let ok = m.completed + m.timed_out == n
        && m.completed * 10 >= n * 9
        && m.stale_deadline_pops == m.completed;
    out.ops += 1;
    out.ops_failed += u64::from(!ok);
    out.events += m.events;
    out.sched_peak = out.sched_peak.max(m.scheduled_peak as u64);
    out.fleet.conns += n;
    out.fleet.stale_deadline_pops += m.stale_deadline_pops;
    out.fleet.scheduled_peak += m.scheduled_peak as u64;
    out.fleet.peak_live += m.peak_live as u64;
    out.fleet.arena_bytes_peak += m.arena_bytes_peak as u64;
    let o = m.observables();
    for v in [o.events, o.completed, o.timed_out, o.stale_deadline_pops] {
        h.u64(v);
    }
    h.u64(o.latency_ms.count());
    for v in [
        o.latency_ms.mean(),
        o.latency_ms.sample_variance(),
        o.latency_ms.min(),
        o.latency_ms.max(),
        o.latency_sketch.p50(),
        o.latency_sketch.p99(),
        o.latency_sketch.p999(),
    ] {
        h.f64(v);
    }
    h.u64(o.latency_sketch.count());
    h.u64(o.finished_at.as_nanos());
    h.u64(m.scheduled_peak as u64);
    h.u64(m.peak_live as u64);
    h.u64(m.arena_bytes_peak as u64);
    drop(m);
    rec.exit(c);
    rec.exit(s);
    // Fleet runs go through the runner too; keep its sink drained.
    take_timing_reports();
}

/// Which of a workload's two passes to run. They differ for the sweep
/// only: the other workloads have no public entry point above the cell,
/// so the harness loop is what is timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// What is timed: for the sweep the public `sweep_heatmap_par` calls.
    Timed,
    /// The harness-owned loop, cell by cell: every op checked, every call
    /// into a layer bracketed by a span.
    Harness,
}

/// Run one pass over `inputs`, one meter segment per cell, figure or
/// fleet run. Same inputs and mode, same `PassResult`, bit for bit: that
/// is what the digest comparison relies on.
pub fn run_pass(inputs: &Inputs, mode: Mode, rec: &mut Recorder, meter: &mut Meter) -> PassResult {
    set_timing(true);
    let mut out = PassResult::default();
    let mut h = Fnv::default();
    let pass = rec.enter("pass");
    match inputs {
        Inputs::Sweep(figures) => {
            for fig in figures {
                meter.segment(|| match mode {
                    Mode::Timed => figure_public(fig, &mut out, &mut h),
                    Mode::Harness => figure_harness(fig, rec, &mut out, &mut h),
                });
            }
        }
        Inputs::Cells(groups) => {
            for group in groups {
                meter.segment(|| {
                    for c in group {
                        run_cell(c, rec, &mut out, &mut h);
                    }
                });
            }
        }
        Inputs::Fleet(runs) => {
            for (proto, cfg) in runs {
                meter.segment(|| fleet_run(proto, cfg, rec, &mut out, &mut h));
            }
        }
    }
    rec.exit(pass);
    out.digest = h.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(inputs: &Inputs, mode: Mode) -> PassResult {
        run_pass(
            inputs,
            mode,
            &mut Recorder::new(false),
            &mut Meter::new(false),
        )
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("paper_grid"), None);
    }

    #[test]
    fn full_size_inputs_have_the_documented_shape() {
        let Inputs::Sweep(figs) = Inputs::generate(Workload::SweepGrid, 2017, Shrink::FULL) else {
            panic!("sweep_grid generates a sweep");
        };
        assert_eq!(figs.len(), 6);
        for f in &figs {
            assert_eq!((f.rows.len(), f.cols.len(), f.scenarios.len()), (4, 6, 24));
        }
        assert_eq!(
            Inputs::generate(Workload::SweepGrid, 2017, Shrink::FULL).ops(),
            2880
        );
        assert_eq!(
            Inputs::generate(Workload::BulkQuic, 2017, Shrink::FULL).ops(),
            8
        );
        assert_eq!(
            Inputs::generate(Workload::ImpairedMix, 2017, Shrink::FULL).ops(),
            40
        );
        assert_eq!(
            Inputs::generate(Workload::FleetFlash, 2017, Shrink::FULL).ops(),
            2
        );
    }

    #[test]
    fn seed_rekeys_every_cell_and_nothing_else() {
        let seeds = |seed| match Inputs::generate(Workload::ImpairedMix, seed, Shrink::TINY) {
            Inputs::Cells(g) => g.iter().flatten().map(|c| c.seed).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        let a = seeds(2017);
        assert_eq!(a, seeds(2017), "same seed, same inputs");
        let b = seeds(2018);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "every cell re-keyed");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "no two cells share a seed");
    }

    /// Two serial passes of every workload agree on every count (events,
    /// scheduler peak, allocations, allocated bytes, peak heap) and on the
    /// digest, and no op fails.
    #[test]
    fn every_workload_repeats_exactly_and_fails_no_op() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 2017, Shrink::TINY);
            // Counts per pass: allocations, bytes, and peak over what was
            // live when the pass began.
            let counted = |mode| {
                crate::alloc::reset();
                let before = crate::alloc::snapshot();
                let r = pass(&inputs, mode);
                let s = crate::alloc::snapshot();
                (r, s.allocs, s.bytes, s.peak - before.live)
            };
            let (a, b) = (counted(Mode::Timed), counted(Mode::Timed));
            assert_eq!(a, b, "{}: two passes differ", w.name());
            assert!(a.1 > 0 && a.3 > 0, "{}: the pass allocates", w.name());
            let a = a.0;
            assert_eq!(a.ops, inputs.ops(), "{}", w.name());
            assert!(a.events > 0, "{}", w.name());
            let harness = pass(&inputs, Mode::Harness);
            assert_eq!(harness.ops_failed, 0, "{}", w.name());
            assert_eq!(harness.ops, inputs.ops(), "{}", w.name());
            if w == Workload::SweepGrid {
                // Same loads up to the private per-round RTT draw.
                let ratio = harness.events as f64 / a.events as f64;
                assert!((0.97..1.03).contains(&ratio), "event ratio {ratio}");
            } else {
                assert_eq!(harness, a, "{}: the two modes disagree", w.name());
            }
        }
    }

    #[test]
    fn a_different_seed_gives_a_different_digest() {
        let d = |seed| {
            let inputs = Inputs::generate(Workload::ImpairedMix, seed, Shrink::TINY);
            pass(&inputs, Mode::Timed).digest
        };
        assert_ne!(d(2017), d(2018));
    }

    /// The failure path is real: a deadline no transfer can meet raises
    /// `ops_failed` for every cell, in both kinds of harness loop.
    #[test]
    fn a_short_simulated_deadline_fails_the_op() {
        let Inputs::Cells(mut cells) = Inputs::generate(Workload::BulkTcp, 2017, Shrink::TINY)
        else {
            unreachable!()
        };
        for c in cells.iter_mut().flatten() {
            c.deadline = Dur::from_millis(50);
        }
        let n = cells.len() as u64;
        let r = pass(&Inputs::Cells(cells), Mode::Harness);
        assert_eq!((r.ops, r.ops_failed), (n, n));

        let Inputs::Sweep(mut figs) = Inputs::generate(Workload::SweepGrid, 2017, Shrink::TINY)
        else {
            unreachable!()
        };
        for sc in figs.iter_mut().flat_map(|f| &mut f.scenarios) {
            sc.deadline = Dur::from_millis(1);
        }
        let r = pass(&Inputs::Sweep(figs), Mode::Harness);
        assert_eq!(r.ops_failed, r.ops);
    }

    #[test]
    fn an_undersized_fleet_deadline_fails_the_op() {
        let Inputs::Fleet(mut runs) = Inputs::generate(Workload::FleetFlash, 2017, Shrink::TINY)
        else {
            unreachable!()
        };
        for (_, cfg) in &mut runs {
            cfg.deadline = Dur::from_millis(1);
        }
        let r = pass(&Inputs::Fleet(runs), Mode::Timed);
        assert_eq!((r.ops, r.ops_failed), (2, 2));
    }

    #[test]
    fn spans_cover_build_run_collect_under_each_cell() {
        let inputs = Inputs::generate(Workload::BulkQuic, 2017, Shrink::TINY);
        let mut rec = Recorder::new(true);
        let r = run_pass(&inputs, Mode::Harness, &mut rec, &mut Meter::new(false));
        let spans = rec.take();
        let count = |n| spans.iter().filter(|s| s.name == n).count() as u64;
        assert_eq!(count("pass"), 1);
        assert_eq!(count("cell"), r.ops);
        assert_eq!(count("build"), r.ops);
        assert_eq!(count("run"), r.ops);
        assert_eq!(count("collect"), r.ops);
        let st = crate::spans::self_times(&spans);
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(
            st.values().sum::<u64>(),
            root,
            "self times partition the pass"
        );
    }
}
