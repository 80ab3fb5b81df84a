//! Table 6: video QoE at 100 Mbps + 1% loss across the quality ladder.

use super::{quic, summaries, tcp};
use crate::report::{Cell, Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;

fn run_video(proto: &ProtoConfig, cfg: &VideoConfig, seed: u64) -> QoeMetrics {
    let mut tb = Testbed::direct(
        seed,
        &NetProfile::baseline(100.0).with_loss(0.01),
        DeviceProfile::DESKTOP,
        cfg.catalog(),
        vec![FlowSpec {
            proto: proto.clone(),
            zero_rtt: true,
            app: Box::new(VideoClient::new(cfg.clone())),
        }],
        None,
        false,
    );
    tb.run(cfg.watch_time + Dur::from_secs(5));
    tb.client_host()
        .app::<VideoClient>(0)
        .qoe()
        .expect("watch window elapsed")
}

/// Table 6: QoE metrics per quality for QUIC and TCP.
pub fn table6(cfg: &RunConfig) -> Report {
    let mut r = Report::new("table6");
    r.note(
        "Table 6 — video QoE (1-hour video, 100 Mbps + 1% loss, 60 s plays,\n\
         mean (std) over rounds)\n\n",
    );
    let mut t = Table::new(vec![
        Column::label("Quality", 8),
        Column::label("Proto", 5).after(" "),
        Column::num("start (s)", 16, 2),
        Column::num("loaded (%)", 14, 2),
        Column::num("buffer/play (%)", 16, 2),
        Column::num("#rebuffers", 12, 2),
        Column::num("rebuf/play-sec", 16, 3),
    ]);
    let protos = [("QUIC", quic()), ("TCP", tcp())];
    // Cell `2q + p` plays quality `q` over protocol `p`.
    const CELLS: usize = 2 * QUALITIES.len();
    let runs = sample(cfg.par, [cfg.rounds; CELLS], |i, k| {
        let video = VideoConfig::table6(QUALITIES[i / 2]);
        let m = run_video(&protos[i % 2].1, &video, 1600 + k);
        let start = m.time_to_start.unwrap_or(video.watch_time).as_secs_f64();
        let loaded = m.loaded_pct(video.video_secs);
        let rebuffers = m.rebuffer_count as f64;
        let rps = m.rebuffers_per_playing_sec();
        [start, loaded, m.buffer_play_ratio_pct(), rebuffers, rps]
    });
    for (i, runs) in runs.iter().enumerate() {
        let mut row = vec![QUALITIES[i / 2].name.into(), protos[i % 2].0.into()];
        row.extend(summaries(runs).map(Cell::from));
        t.row(row);
        if i % 2 == 1 {
            t.row(Vec::new());
        }
    }
    r.push(t);
    r.note(
        "paper shape: no meaningful differences at tiny/medium/hd720; at\n\
         hd2160 QUIC loads a larger fraction of the video, spends a smaller\n\
         share of time buffering, and has fewer rebuffers per played second.\n",
    );
    r
}
