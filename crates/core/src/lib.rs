//! `longlook` — a rigorous evaluation framework for rapidly evolving
//! application-layer transport protocols.
//!
//! This crate is the reproduction of the methodology of *"Taking a Long
//! Look at QUIC"* (Kakhki et al., IMC 2017): a deterministic testbed for
//! head-to-head transport comparisons with
//!
//! * **calibration** against a deployed reference configuration
//!   ([`calibration`], Sec 4.1 / Fig 2),
//! * **back-to-back paired experiments** with Welch-gated significance
//!   ([`experiment`], Sec 3.3 / 5.2),
//! * **state-machine inference from execution traces** for root-cause
//!   analysis ([`rootcause`], Sec 4.2 / Figs 3, 13),
//! * **fairness instrumentation** on shared bottlenecks ([`fairness`],
//!   Sec 5.1 / Fig 4-5 / Table 4),
//! * **a protocol version model** for longitudinal comparison
//!   ([`versions`], Sec 5.4), and
//! * **operational-network profiles** ([`cellular`], Table 5 / Fig 14).
//!
//! # Quickstart
//!
//! ```
//! use longlook_core::prelude::*;
//!
//! // Compare QUIC and TCP loading a 100 KB page at 10 Mbps, 36 ms RTT:
//! // two cells that differ only in the protocol they run.
//! let quic = Scenario::new(
//!     NetProfile::baseline(10.0),
//!     PageSpec::single(100 * 1024),
//! ).with_rounds(5);
//! let tcp = quic.clone().with_proto(ProtoConfig::Tcp(TcpConfig::default()));
//! let result = compare(&quic, &tcp, Parallelism::Serial);
//! println!("QUIC is {:+.0}% vs TCP (p gate: {:?})",
//!          result.comparison.percent, result.comparison.verdict);
//! assert!(result.comparison.percent > 0.0);
//! ```

pub mod calibration;
pub mod cellular;
pub mod experiment;
pub mod fairness;
pub mod fleet;
pub mod params;
pub mod rootcause;
pub mod runner;
pub mod table;
pub mod testbed;
pub mod traceview;
pub mod versions;

/// Everything a downstream experiment typically needs.
pub mod prelude {
    pub use crate::calibration::{fig2_measure, grey_box_search, Candidate, ServerProfile};
    pub use crate::cellular::{CellProfile, CELL_PROFILES};
    pub use crate::experiment::{
        compare, plt_summaries, sample, sweep, sweep_with, PairResult, RunRecord, Scenario,
    };
    // Sole caller: `observatory/` (frozen), which names the runners that
    // the cell value replaced.
    #[doc(hidden)]
    pub use crate::experiment::{
        run_page_load, run_page_load as run_trauma_cell, run_trauma_cell_traced, sweep_heatmap_par,
    };
    pub use crate::fairness::{
        fairness_net, quic_vs_n_tcp, run_fairness, FairnessRun, FlowThroughput,
    };
    pub use crate::fleet::{
        fleet_heatmap, run_fleet, run_fleet_par, ArrivalProfile, ConnArena, ConnInit, FleetConfig,
        FleetMetrics, FleetObservables,
    };
    pub use crate::params::ParameterSpace;
    pub use crate::rootcause::infer_from_records;
    pub use crate::runner::{run_ordered, run_ordered_reporting, Parallelism, RunnerReport};
    pub use crate::testbed::{FlowSpec, NetProfile, ProxyTestbed, Testbed};
    pub use crate::traceview::{
        cwnd_timeline, dwell_table, fault_windows, loss_episodes, FaultWindow, LossEpisode,
    };
    // Sole caller: `observatory/` (frozen); `repro trace` uses the path.
    #[doc(hidden)]
    pub use crate::traceview::render_report;
    pub use crate::versions::QuicVersion;
    pub use longlook_http::app::{BulkClient, ClientApp, WebClient};
    pub use longlook_http::host::{ClientHost, ProtoConfig, ServerHost, WaitModel};
    pub use longlook_http::workload::{table2, PageSpec};
    pub use longlook_quic::{CcKind, QuicConfig};
    pub use longlook_sim::time::{Dur, Time};
    pub use longlook_sim::{
        DeviceProfile, FaultDir, FaultEvent, FaultKind, FaultPlan, GeParams, Jitter, PeerSide,
        RateSchedule, ReorderSpec, RunOutcome, TraceMode,
    };
    pub use longlook_stats::{Comparison, Heatmap, HeatmapCell, Summary, Verdict};
    pub use longlook_tcp::TcpConfig;
    pub use longlook_transport::conn::ConnError;
    pub use longlook_video::{QoeMetrics, VideoClient, VideoConfig, QUALITIES};
}
