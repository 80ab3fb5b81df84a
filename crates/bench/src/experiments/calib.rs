//! Fig 2 and the grey-box calibration search (Sec 4.1).

use crate::rounds;
use longlook_core::prelude::*;
use std::fmt::Write as _;

/// Fig 2: wait vs download split for the three server profiles.
pub fn fig2() -> String {
    let mut out = String::from(
        "Fig 2 — GAE vs our QUIC servers on EC2 before and after configuring them\n\
         (10 MB image over a 100 Mbps link, 12 ms RTT; mean over rounds)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<16} | {:>16} | {:>18} | {:>10}",
        "Server", "wait ms (std)", "download ms (std)", "total ms"
    );
    let profiles = [
        ServerProfile::PublicDefault,
        ServerProfile::GaeLike,
        ServerProfile::Calibrated,
    ];
    let mut totals = Vec::new();
    for p in profiles {
        let split = fig2_measure(p, rounds(), 11);
        let total = split.wait_ms.mean() + split.download_ms.mean();
        let _ = writeln!(
            out,
            "{:<16} | {:>16} | {:>18} | {:>10.0}",
            split.profile,
            split.wait_ms.mean_std(),
            split.download_ms.mean_std(),
            total,
        );
        totals.push((split.profile, total));
    }
    let default_total = totals[0].1;
    let calibrated_total = totals[2].1;
    let _ = writeln!(
        out,
        "\npaper shape: the public default takes ~2x the calibrated config \
         (here: {:.2}x); GAE shows a large, highly variable wait.",
        default_total / calibrated_total
    );
    out
}

/// The grey-box search demo.
pub fn greybox() -> String {
    let mut out = String::from(
        "Grey-box calibration (Sec 4.1): vary server parameters until the\n\
         performance matches the reference (deployed) servers.\n\n",
    );
    let par = Parallelism::auto();
    let reference = reference_plt_ms(rounds().min(5), 21, par);
    let _ = writeln!(
        out,
        "reference 10MB PLT (\"Google's servers\"): {reference:.0} ms\n"
    );
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
    let (best, err) = grey_box_search(reference, &candidates, rounds().min(5), 21, par);
    for c in candidates {
        let _ = writeln!(
            out,
            "  candidate MACW={:<4} ssthresh_fixed={:<5}{}",
            c.macw,
            c.ssthresh_fixed,
            if c.macw == best.macw && c.ssthresh_fixed == best.ssthresh_fixed {
                "   <- selected"
            } else {
                ""
            }
        );
    }
    let _ = writeln!(
        out,
        "\nselected MACW={} ssthresh_fixed={} (|PLT - reference| = {err:.1} ms)\n\
         paper: the deployed configuration is MACW=430 with the ssthresh fix.",
        best.macw, best.ssthresh_fixed
    );
    out
}
