//! Mobile demo (paper Sec 5.2, Figs 12-13): the same transfer on a
//! desktop and on phone-class hardware, with the inferred state machine
//! explaining where QUIC's advantage goes.
//!
//! ```text
//! cargo run --release --example mobile
//! ```

use longlook_core::prelude::*;
use longlook_core::rootcause::infer_from_records;

fn main() {
    let page = PageSpec::single(10 * 1024 * 1024);

    println!("10 MB download at 50 Mbps (36 ms RTT) per device:\n");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "device", "QUIC (ms)", "TCP (ms)", "QUIC gain"
    );
    for device in [
        DeviceProfile::DESKTOP,
        DeviceProfile::NEXUS6,
        DeviceProfile::MOTOG,
    ] {
        let quic = Scenario::new(NetProfile::baseline(50.0), page.clone())
            .with_rounds(5)
            .on_device(device);
        let tcp = quic
            .clone()
            .with_proto(ProtoConfig::Tcp(TcpConfig::default()));
        let pair = compare(&quic, &tcp, Parallelism::auto());
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>9.0}%",
            device.name,
            pair.comparison.candidate.mean(),
            pair.comparison.baseline.mean(),
            pair.comparison.percent,
        );
    }

    // Root cause: time spent Application-Limited (Fig 13).
    println!("\ninferred state machines (server side):");
    for device in [DeviceProfile::DESKTOP, DeviceProfile::MOTOG] {
        let records = Scenario::new(NetProfile::baseline(50.0), page.clone())
            .with_rounds(3)
            .on_device(device)
            .records(Parallelism::auto());
        let machine = infer_from_records(&records);
        println!(
            "  {:<8}: ApplicationLimited {:>4.0}% | SlowStart {:>4.0}% | CA+Maxed {:>4.0}%",
            device.name,
            machine.time_fraction("ApplicationLimited") * 100.0,
            machine.time_fraction("SlowStart") * 100.0,
            (machine.time_fraction("CongestionAvoidance")
                + machine.time_fraction("CongestionAvoidanceMaxed"))
                * 100.0,
        );
    }
    println!(
        "\npaper finding: on the MotoG the userspace receive path cannot keep\n\
         up, so the sender spends most of its time Application-Limited (58%\n\
         in the paper) and QUIC's desktop advantage largely evaporates."
    );
}
