//! Client device models: the kernel/userspace packet-processing asymmetry.
//!
//! The paper (Sec 5.2, Figs 12-13) finds that QUIC's gains "diminish or
//! disappear entirely" on phones because QUIC runs in a userspace process
//! that cannot consume packets as fast as the kernel consumes TCP segments,
//! pushing the sender into the Application-Limited state 58% of the time on
//! a MotoG. We model this as a per-packet processing cost charged by the
//! receiving host's single-threaded "CPU", serialized across arrivals:
//! userspace ([`crate::packet::PktClass::Userspace`]) packets pay the
//! device's userspace cost, kernel packets the (much smaller) kernel cost.

use crate::packet::PktClass;
use crate::time::{Dur, Time};

/// Per-device packet-processing costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: &'static str,
    /// CPU time to process one userspace (QUIC/UDP) packet: demux, decrypt,
    /// reassemble, deliver — all in the application process.
    pub userspace_per_packet: Dur,
    /// CPU time to process one kernel (TCP) packet.
    pub kernel_per_packet: Dur,
    /// Cap on the QUIC receive windows this device advertises, bytes
    /// (mobile Chrome scales flow-control windows down on low-memory
    /// devices). `None` = use the protocol defaults.
    pub quic_recv_window_cap: Option<u64>,
}

impl DeviceProfile {
    /// Desktop client of the paper: Ubuntu 14.04, Core i5 3.3 GHz.
    /// Userspace processing is measurable but nowhere near a bottleneck.
    pub const DESKTOP: DeviceProfile = DeviceProfile {
        name: "Desktop",
        userspace_per_packet: Dur::from_micros(4),
        kernel_per_packet: Dur::from_micros(1),
        quic_recv_window_cap: None,
    };

    /// Nexus 6 (late 2014, 2.7 GHz quad): userspace cost high enough to
    /// shave QUIC's edge at 50 Mbps without fully erasing it.
    pub const NEXUS6: DeviceProfile = DeviceProfile {
        name: "Nexus6",
        userspace_per_packet: Dur::from_micros(250),
        kernel_per_packet: Dur::from_micros(15),
        quic_recv_window_cap: Some(1024 * 1024),
    };

    /// MotoG (2013, 1.2 GHz quad): userspace processing caps QUIC below
    /// ~40 Mbps of goodput, the paper's Application-Limited pathology.
    pub const MOTOG: DeviceProfile = DeviceProfile {
        name: "MotoG",
        userspace_per_packet: Dur::from_micros(400),
        kernel_per_packet: Dur::from_micros(25),
        quic_recv_window_cap: Some(384 * 1024),
    };

    /// A server/router: effectively free packet processing.
    pub const SERVER: DeviceProfile = DeviceProfile {
        name: "Server",
        userspace_per_packet: Dur::from_nanos(500),
        kernel_per_packet: Dur::from_nanos(500),
        quic_recv_window_cap: None,
    };

    /// Cost of one packet of the given class on this device.
    pub fn cost(&self, class: PktClass) -> Dur {
        match class {
            PktClass::Userspace => self.userspace_per_packet,
            PktClass::Kernel => self.kernel_per_packet,
        }
    }

    /// Max sustainable packet consumption rate in packets/sec for a class.
    pub fn max_pps(&self, class: PktClass) -> f64 {
        1e9 / self.cost(class).as_nanos().max(1) as f64
    }
}

/// Serialized packet-processing pipeline of one host.
#[derive(Debug, Clone)]
pub struct DeviceCpu {
    profile: DeviceProfile,
    free_at: Time,
}

impl DeviceCpu {
    /// New idle CPU with the given profile.
    pub fn new(profile: DeviceProfile) -> Self {
        DeviceCpu {
            profile,
            free_at: Time::ZERO,
        }
    }

    /// Account for a packet arriving at `arrival`; returns the instant
    /// processing completes (when the protocol actually sees the packet).
    pub fn process(&mut self, arrival: Time, class: PktClass) -> Time {
        let start = if self.free_at > arrival {
            self.free_at
        } else {
            arrival
        };
        let done = start + self.profile.cost(class);
        self.free_at = done;
        done
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_processes_at_arrival_plus_cost() {
        let mut cpu = DeviceCpu::new(DeviceProfile::MOTOG);
        let t = Time::ZERO + Dur::from_secs(1);
        let done = cpu.process(t, PktClass::Userspace);
        assert_eq!(done, t + Dur::from_micros(400));
    }

    #[test]
    fn busy_cpu_serializes() {
        let mut cpu = DeviceCpu::new(DeviceProfile::MOTOG);
        let t = Time::ZERO;
        let d1 = cpu.process(t, PktClass::Userspace);
        let d2 = cpu.process(t, PktClass::Userspace); // same arrival: queues
        assert_eq!(d2, d1 + Dur::from_micros(400));
    }

    #[test]
    fn kernel_packets_are_cheaper() {
        let p = DeviceProfile::MOTOG;
        assert!(p.cost(PktClass::Kernel) < p.cost(PktClass::Userspace));
        assert!(p.max_pps(PktClass::Kernel) > p.max_pps(PktClass::Userspace));
    }

    #[test]
    fn motog_userspace_caps_below_50mbps() {
        // 50 Mbps of 1452-byte packets is ~4300 pps; the MotoG userspace
        // path must not sustain that (this is the Fig 13 mechanism).
        let pps_needed = 50e6 / (1452.0 * 8.0);
        let p = DeviceProfile::MOTOG;
        assert!(p.max_pps(PktClass::Userspace) < pps_needed);
        // ...but its kernel path must.
        assert!(p.max_pps(PktClass::Kernel) > pps_needed);
    }

    #[test]
    fn desktop_userspace_easily_sustains_100mbps() {
        let pps_needed = 100e6 / (1452.0 * 8.0);
        assert!(DeviceProfile::DESKTOP.max_pps(PktClass::Userspace) > 10.0 * pps_needed);
    }

    #[test]
    fn idle_gap_resets_pipeline() {
        let mut cpu = DeviceCpu::new(DeviceProfile::NEXUS6);
        cpu.process(Time::ZERO, PktClass::Userspace);
        let late = Time::ZERO + Dur::from_secs(1);
        let done = cpu.process(late, PktClass::Userspace);
        assert_eq!(done, late + Dur::from_micros(250));
    }
}
