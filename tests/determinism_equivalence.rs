//! Determinism-equivalence suite for the parallel experiment runner.
//!
//! The claim under test: sharding `(scenario, protocol, round)` cells
//! across worker threads changes **nothing** about the results — every
//! `RunRecord` field, every congestion-control `StateTrace` visit, and
//! every Welch-gated heatmap cell is bit-identical to a serial run. This
//! holds because each cell is a pure function of its derived seed (it
//! builds its own `World`), and the runner reassembles results in
//! deterministic cell order before any aggregation.
//!
//! The wall-clock sanity check (threads actually help) only runs in
//! release builds: debug-mode timing is noise-dominated and the tier-1
//! `cargo test -q` pass should stay deterministic.

use longlook_core::prelude::*;
use longlook_core::testbed::{FlowSpec, Testbed};

/// Four deliberately different scenarios: a clean low-rate link, a lossy
/// mid-rate link with a larger page, a jittery high-RTT link (jitter
/// exercises the per-packet RNG draws most heavily), and a faulted link
/// (flap + bandwidth cliff) that drives the deterministic fault layer and
/// the armed watchdog through the same shard-invariance contract.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let fault = FaultPlan::new()
        .with_event(FaultEvent {
            at: Time::ZERO + Dur::from_millis(300),
            dur: Dur::from_millis(900),
            dir: FaultDir::Both,
            kind: FaultKind::Flap {
                period: Dur::from_millis(150),
                down_pm: 400,
            },
        })
        .with_event(FaultEvent {
            at: Time::ZERO + Dur::from_millis(1500),
            dur: Dur::from_millis(800),
            dir: FaultDir::Down,
            kind: FaultKind::BandwidthCliff { factor_pm: 200 },
        });
    vec![
        (
            "clean 10Mbps / 50KB",
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024))
                .with_rounds(4)
                .with_seed(7001),
        ),
        (
            "1% loss 20Mbps / 200KB",
            Scenario::new(
                NetProfile::baseline(20.0).with_loss(0.01),
                PageSpec::single(200 * 1024),
            )
            .with_rounds(4)
            .with_seed(7002),
        ),
        (
            "jitter 5Mbps +100ms / 10x10KB",
            Scenario::new(
                NetProfile::baseline(5.0)
                    .with_extra_rtt(Dur::from_millis(100))
                    .with_jitter(Dur::from_millis(5)),
                PageSpec::uniform(10, 10 * 1024),
            )
            .with_rounds(4)
            .with_seed(7003),
        ),
        (
            "flap+cliff fault 10Mbps / 80KB",
            Scenario::new(
                NetProfile::baseline(10.0).with_fault(fault),
                PageSpec::single(80 * 1024),
            )
            .with_rounds(4)
            .with_seed(7004),
        ),
    ]
}

fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// Serial and 4-thread runs produce field-for-field identical
/// `RunRecord` vectors for both protocols in every scenario.
#[test]
fn run_records_serial_equals_threads4() {
    for (name, sc) in scenarios() {
        for sc in [sc.clone(), sc.with_proto(tcp())] {
            let serial = sc.records(Parallelism::Serial);
            let par = sc.records(Parallelism::Threads(4));
            assert_eq!(
                serial, par,
                "RunRecords diverged for {name} / {:?}",
                sc.proto
            );
        }
    }
}

/// The congestion-control state traces — the most fine-grained artifact a
/// run produces (every state visit with its timestamp) — are identical
/// between serial and threaded execution.
#[test]
fn state_traces_serial_equals_threads4() {
    for (name, sc) in scenarios() {
        let serial = sc.records(Parallelism::Serial);
        let par = sc.records(Parallelism::Threads(4));
        for (k, (s, p)) in serial.iter().zip(&par).enumerate() {
            let st = s.server_trace.as_ref().expect("serial trace");
            let pt = p.server_trace.as_ref().expect("parallel trace");
            assert_eq!(st, pt, "{name} round {k}: state trace (visits and span)");
        }
    }
}

/// A paired QUIC-vs-TCP comparison (the paper's back-to-back design)
/// yields the same samples, percent difference, and significance verdict
/// regardless of the worker count — including pooling both protocols'
/// rounds into one shard pool.
#[test]
fn compare_pair_serial_equals_threads4() {
    for (name, sc) in scenarios() {
        let base = sc.clone().with_proto(tcp());
        let serial = compare(&sc, &base, Parallelism::Serial);
        let par = compare(&sc, &base, Parallelism::Threads(4));
        assert_eq!(serial.cand_ms, par.cand_ms, "{name}: QUIC samples");
        assert_eq!(serial.base_ms, par.base_ms, "{name}: TCP samples");
        assert_eq!(
            serial.comparison.percent, par.comparison.percent,
            "{name}: percent difference"
        );
        assert_eq!(
            serial.comparison.verdict, par.comparison.verdict,
            "{name}: Welch verdict"
        );
    }
}

/// A full heatmap sweep produces identical cells (percent, p-value, and
/// verdict) under serial and 4-thread execution.
#[test]
fn heatmap_cells_serial_equals_threads4() {
    let rows = vec!["5Mbps".to_string(), "20Mbps".to_string()];
    let cols = vec!["10KB".to_string(), "100KB".to_string()];
    let rates = [5.0, 20.0];
    let sizes = [10 * 1024, 100 * 1024];
    let make = |r: usize, c: usize| {
        let sc = Scenario::new(NetProfile::baseline(rates[r]), PageSpec::single(sizes[c]))
            .with_rounds(3)
            .with_seed(7100 + (r * 2 + c) as u64);
        (sc.clone(), sc.with_proto(tcp()))
    };
    let serial = sweep("det", &rows, &cols, Parallelism::Serial, make);
    let par = sweep("det", &rows, &cols, Parallelism::Threads(4), make);
    assert_eq!(serial.cells, par.cells, "heatmap cells diverged");
    assert_eq!(serial.verdict_counts(), par.verdict_counts());
}

/// The benchmark measures the product: the frozen observatory times
/// `sweep_heatmap_par`, and its heatmap must be the one [`sweep`] renders
/// for the same cells as QUIC-vs-TCP pairs, serial and threaded.
#[test]
fn observatory_sweep_shim_equals_sweep() {
    let rows = vec!["10Mbps".to_string(), "50Mbps".to_string()];
    let cols = vec!["100KB".to_string(), "5x10KB".to_string()];
    let pages = [
        PageSpec::single(100 * 1024),
        PageSpec::uniform(5, 10 * 1024),
    ];
    let rates = [10.0, 50.0];
    let make = |r: usize, c: usize| {
        Scenario::new(
            NetProfile::baseline(rates[r]).with_loss(0.01),
            pages[c].clone(),
        )
        .with_rounds(3)
        .with_seed(7150 + (r * 2 + c) as u64)
    };
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        let shim = sweep_heatmap_par("obs", &rows, &cols, &quic(), &tcp(), make, par);
        let product = sweep("obs", &rows, &cols, par, |r, c| {
            let sc = make(r, c);
            (sc.clone().with_proto(quic()), sc.with_proto(tcp()))
        });
        assert_eq!(shim, product, "{par:?}: the shim's heatmap is not sweep's");
    }
}

/// The one round path: one `sample` batch of three cells with unequal
/// rounds hands each cell back exactly its own `records`, field for
/// field, whether the batch runs serially or on three workers.
#[test]
fn one_batch_of_unequal_cells_equals_each_cells_records() {
    let cells: Vec<Scenario> = scenarios()
        .into_iter()
        .zip([(2, quic()), (5, tcp()), (3, quic())])
        .map(|((_, sc), (rounds, proto))| sc.with_rounds(rounds).with_proto(proto))
        .collect();
    let own: Vec<Vec<RunRecord>> = cells
        .iter()
        .map(|sc| sc.records(Parallelism::Serial))
        .collect();
    for par in [Parallelism::Serial, Parallelism::Threads(3)] {
        let rounds = cells.iter().map(|sc| sc.rounds);
        let batch = sample(par, rounds, |i, k| cells[i].run(k));
        assert_eq!(batch, own, "{par:?}: a cell's runs differ inside one batch");
    }
}

/// Seed stability: constructing and running the very same scenario twice
/// gives identical `RunRecord`s **and** an identical number of simulator
/// events processed — i.e. not just matching summaries but the same
/// event-by-event execution.
#[test]
fn same_seed_same_world() {
    let sc = Scenario::new(
        NetProfile::baseline(10.0).with_loss(0.005),
        PageSpec::single(80 * 1024),
    )
    .with_rounds(3)
    .with_seed(7200);

    for sc in [sc.clone(), sc.clone().with_proto(tcp())] {
        let a = sc.records(Parallelism::auto());
        let b = sc.records(Parallelism::auto());
        assert_eq!(a, b, "repeat run diverged for {:?}", sc.proto);
    }

    // Event-count check needs direct World access, so drive a Testbed by
    // hand twice with the same seed.
    let run_once = || {
        let mut tb = Testbed::direct(
            7201,
            &sc.net,
            DeviceProfile::DESKTOP,
            sc.page.clone(),
            vec![FlowSpec {
                proto: quic(),
                zero_rtt: true,
                app: Box::new(WebClient::new(sc.page.clone())),
            }],
            None,
            true,
        );
        tb.run(sc.deadline);
        let plt = tb.client_host().app::<WebClient>(0).plt();
        (plt, tb.world.events_processed())
    };
    let (plt_a, events_a) = run_once();
    let (plt_b, events_b) = run_once();
    assert_eq!(plt_a, plt_b, "PLT changed between identical runs");
    assert_eq!(
        events_a, events_b,
        "event count changed between identical runs"
    );
    assert!(events_a > 0, "world processed no events");
}

/// `repro -j N` resolves to a `Parallelism` in `repro`'s own flag tests;
/// here we only confirm that the PLT samples (the most common reading of
/// a cell) agree with the serial path.
#[test]
fn plt_samples_serial_equals_threads4() {
    let plts =
        |sc: &Scenario, par| -> Vec<f64> { sc.records(par).iter().map(|r| sc.plt_ms(r)).collect() };
    for (name, sc) in scenarios() {
        let serial = plts(&sc, Parallelism::Serial);
        let par = plts(&sc, Parallelism::Threads(4));
        assert_eq!(serial, par, "{name}: PLT samples diverged");
    }
}

/// Chunked claiming changes nothing: `Serial` and `Threads` runs whose
/// `(cells, jobs)` auto-tune to a chunk of 1 and to chunks of 2 produce
/// field-for-field identical `RunRecord`s for both protocols in every
/// scenario — chunk size only regroups which worker claims which cells,
/// reassembly is by cell index — and the scheduler report accounts for
/// every cell exactly once.
#[test]
fn explicit_chunk_sizes_are_record_invariant() {
    const PAIRS: [(usize, usize, usize); 2] = [(4, 4, 1), (17, 2, 2)];
    for (name, sc) in scenarios() {
        for sc in [sc.clone(), sc.with_proto(tcp())] {
            let proto = &sc.proto;
            let cell = |k: usize| sc.run(k as u64);
            let serial = run_ordered(Parallelism::Serial, 17, cell);
            for (n, jobs, chunk) in PAIRS {
                let (par, report) = run_ordered_reporting(Parallelism::Threads(jobs), n, cell);
                assert_eq!(
                    serial[..n],
                    par,
                    "{name} / {proto:?}: chunk {chunk} diverged"
                );
                assert_eq!(report.chunk, chunk, "{n} cells on {jobs} workers");
                assert_eq!(
                    report.workers.iter().map(|w| w.cells).sum::<usize>(),
                    n,
                    "{name} / {proto:?}: chunk {chunk} report lost cells"
                );
            }
        }
    }
}

/// Wall-clock sanity (release builds only): 4 workers complete a 5x5
/// `sweep` faster than a serial run. Skipped on machines with
/// fewer than 2 hardware threads.
#[cfg(not(debug_assertions))]
#[test]
fn threads4_beats_serial_on_5x5_sweep() {
    use std::time::Instant;

    if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) < 2 {
        eprintln!("skipping wall-clock check: single hardware thread");
        return;
    }

    let rows: Vec<String> = ["5Mbps", "10Mbps", "20Mbps", "50Mbps", "100Mbps"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let cols: Vec<String> = ["10KB", "50KB", "100KB", "200KB", "500KB"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let rates = [5.0, 10.0, 20.0, 50.0, 100.0];
    let sizes = [10 * 1024, 50 * 1024, 100 * 1024, 200 * 1024, 500 * 1024];
    let make = |r: usize, c: usize| {
        let sc = Scenario::new(NetProfile::baseline(rates[r]), PageSpec::single(sizes[c]))
            .with_rounds(2)
            .with_seed(7300 + (r * 5 + c) as u64);
        (sc.clone(), sc.with_proto(tcp()))
    };

    let t0 = Instant::now();
    let serial = sweep("wc", &rows, &cols, Parallelism::Serial, make);
    let serial_elapsed = t0.elapsed();

    let t1 = Instant::now();
    let par = sweep("wc", &rows, &cols, Parallelism::Threads(4), make);
    let par_elapsed = t1.elapsed();

    assert_eq!(
        serial.cells, par.cells,
        "wall-clock sweep must stay identical"
    );
    assert!(
        par_elapsed < serial_elapsed,
        "Threads(4) ({par_elapsed:?}) not faster than serial ({serial_elapsed:?})"
    );
    eprintln!(
        "5x5 sweep: serial {serial_elapsed:?}, Threads(4) {par_elapsed:?} ({:.2}x)",
        serial_elapsed.as_secs_f64() / par_elapsed.as_secs_f64()
    );
}
