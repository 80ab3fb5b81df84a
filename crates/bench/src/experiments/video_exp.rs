//! Table 6: video QoE at 100 Mbps + 1% loss across the quality ladder.

use crate::report::{Column, Report, Table};
use crate::rounds;
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
pub fn table6() -> Report {
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
    for q in QUALITIES {
        let cfg = VideoConfig::table6(q);
        for (name, proto) in [
            ("QUIC", ProtoConfig::Quic(QuicConfig::default())),
            ("TCP", ProtoConfig::Tcp(TcpConfig::default())),
        ] {
            let mut start = Summary::new();
            let mut loaded = Summary::new();
            let mut ratio = Summary::new();
            let mut rebuf = Summary::new();
            let mut rps = Summary::new();
            for k in 0..rounds() {
                let m = run_video(&proto, &cfg, 1600 + k);
                start.add(
                    m.time_to_start
                        .map_or(cfg.watch_time.as_secs_f64(), |d| d.as_secs_f64()),
                );
                loaded.add(m.loaded_pct(cfg.video_secs));
                ratio.add(m.buffer_play_ratio_pct());
                rebuf.add(m.rebuffer_count as f64);
                rps.add(m.rebuffers_per_playing_sec());
            }
            t.row(vec![
                q.name.into(),
                name.into(),
                start.into(),
                loaded.into(),
                ratio.into(),
                rebuf.into(),
                rps.into(),
            ]);
        }
        t.row(Vec::new());
    }
    r.push(t);
    r.note(
        "paper shape: no meaningful differences at tiny/medium/hd720; at\n\
         hd2160 QUIC loads a larger fraction of the video, spends a smaller\n\
         share of time buffering, and has fewer rebuffers per played second.\n",
    );
    r
}
