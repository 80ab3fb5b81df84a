//! Fig 2 and the grey-box calibration search (Sec 4.1).

use crate::report::{Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;

/// Fig 2: wait vs download split for the three server profiles.
pub fn fig2(cfg: &RunConfig) -> Report {
    let mut r = Report::new("fig2");
    r.note(
        "Fig 2 — GAE vs our QUIC servers on EC2 before and after configuring them\n\
         (10 MB image over a 100 Mbps link, 12 ms RTT; mean over rounds)\n\n",
    );
    let mut t = Table::new(vec![
        Column::label("Server", 16),
        Column::num("wait ms (std)", 16, 2),
        Column::num("download ms (std)", 18, 2),
        Column::num("total ms", 10, 0),
    ]);
    let profiles = [
        ServerProfile::PublicDefault,
        ServerProfile::GaeLike,
        ServerProfile::Calibrated,
    ];
    let mut totals = Vec::new();
    for split in fig2_measure(&profiles, cfg.rounds, 11, cfg.par) {
        let total = split.wait_ms.mean() + split.download_ms.mean();
        t.row(vec![
            split.profile.into(),
            split.wait_ms.into(),
            split.download_ms.into(),
            total.into(),
        ]);
        totals.push(total);
    }
    r.push(t);
    r.note(format!(
        "\npaper shape: the public default takes ~2x the calibrated config \
         (here: {:.2}x); GAE shows a large, highly variable wait.\n",
        totals[0] / totals[2]
    ));
    r
}

/// The grey-box search demo.
pub fn greybox(cfg: &RunConfig) -> Report {
    let mut r = Report::new("greybox");
    let candidates = [
        Candidate {
            macw: 107,
            ssthresh_fixed: false,
        },
        Candidate {
            macw: 107,
            ssthresh_fixed: true,
        },
        Candidate {
            macw: 215,
            ssthresh_fixed: false,
        },
        Candidate {
            macw: 215,
            ssthresh_fixed: true,
        },
        Candidate {
            macw: 430,
            ssthresh_fixed: false,
        },
        Candidate {
            macw: 430,
            ssthresh_fixed: true,
        },
    ];
    let (reference, best, err) = grey_box_search(&candidates, cfg.rounds.min(5), 21, cfg.par);
    r.note(format!(
        "Grey-box calibration (Sec 4.1): vary server parameters until the\n\
         performance matches the reference (deployed) servers.\n\n\
         reference 10MB PLT (\"Google's servers\"): {reference:.0} ms\n\n"
    ));
    let mut t = Table::new(vec![
        Column::label("", 4).after("  candidate MACW="),
        Column::label("", 5).after(" ssthresh_fixed="),
        Column::label("", 0).after(""),
    ]);
    for c in candidates {
        let selected = c.macw == best.macw && c.ssthresh_fixed == best.ssthresh_fixed;
        t.row(vec![
            c.macw.to_string().into(),
            c.ssthresh_fixed.to_string().into(),
            (if selected { "   <- selected" } else { "" }).into(),
        ]);
    }
    r.push(t);
    r.note(format!(
        "\nselected MACW={} ssthresh_fixed={} (|PLT - reference| = {err:.1} ms)\n\
         paper: the deployed configuration is MACW=430 with the ssthresh fix.\n",
        best.macw, best.ssthresh_fixed
    ));
    r
}
