//! The paper's experiment parameter space (Table 2) and the related-work
//! comparison matrix (Table 1).

/// Table 2 — parameters used in the paper's tests.
#[derive(Debug, Clone)]
pub struct ParameterSpace {
    /// Rate limits in Mbps.
    pub rate_limits_mbps: Vec<f64>,
    /// Extra RTT added (ms).
    pub extra_delay_ms: Vec<u64>,
    /// Extra random loss rates.
    pub extra_loss: Vec<f64>,
    /// Number of objects per page.
    pub num_objects: Vec<usize>,
    /// Object sizes in KB.
    pub object_sizes_kb: Vec<u64>,
    /// Proxy configurations.
    pub proxies: Vec<&'static str>,
    /// Client devices.
    pub clients: Vec<&'static str>,
    /// Video qualities.
    pub video_qualities: Vec<&'static str>,
}

impl ParameterSpace {
    /// The exact values of Table 2.
    pub fn table2() -> Self {
        ParameterSpace {
            rate_limits_mbps: vec![5.0, 10.0, 50.0, 100.0],
            extra_delay_ms: vec![0, 50, 100],
            extra_loss: vec![0.001, 0.01],
            num_objects: vec![1, 2, 5, 10, 100, 200],
            object_sizes_kb: vec![5, 10, 100, 200, 500, 1000, 10_000, 210_000],
            proxies: vec!["QUIC proxy", "TCP proxy"],
            clients: vec!["Desktop", "Nexus6", "MotoG"],
            video_qualities: vec!["tiny", "medium", "hd720", "hd2160"],
        }
    }
}

/// Table 1 — one row of the related-work comparison.
#[derive(Debug, Clone)]
pub struct RelatedWorkRow {
    /// Study name.
    pub study: &'static str,
    /// QUIC versions evaluated.
    pub quic_version: &'static str,
    /// Performed calibration against deployed servers.
    pub calibration: bool,
    /// Performed root-cause analysis.
    pub root_cause: bool,
    /// Pages tested.
    pub tested_pages: &'static str,
    /// Emulated network scenarios.
    pub emulated_scenarios: &'static str,
    /// Network types (F fixed, C cellular).
    pub networks: &'static str,
    /// Devices (D desktop, M mobile).
    pub devices: &'static str,
    /// Fairness studied.
    pub fairness: bool,
    /// Video QoE studied.
    pub video_qoe: bool,
    /// Packet reordering studied.
    pub reordering: bool,
    /// Proxying studied.
    pub proxying: bool,
}

/// Table 1 — the full related-work matrix.
pub fn table1() -> Vec<RelatedWorkRow> {
    vec![
        RelatedWorkRow {
            study: "Megyesi [30]",
            quic_version: "20",
            calibration: false,
            root_cause: false,
            tested_pages: "6",
            emulated_scenarios: "12",
            networks: "F",
            devices: "D",
            fairness: true,
            video_qoe: false,
            reordering: false,
            proxying: false,
        },
        RelatedWorkRow {
            study: "Carlucci [17]",
            quic_version: "21",
            calibration: false,
            root_cause: false,
            tested_pages: "3",
            emulated_scenarios: "9",
            networks: "F",
            devices: "D",
            fairness: false,
            video_qoe: false,
            reordering: false,
            proxying: false,
        },
        RelatedWorkRow {
            study: "Biswal [16]",
            quic_version: "23",
            calibration: false,
            root_cause: false,
            tested_pages: "20",
            emulated_scenarios: "10",
            networks: "F",
            devices: "D",
            fairness: false,
            video_qoe: false,
            reordering: false,
            proxying: false,
        },
        RelatedWorkRow {
            study: "Das [20]",
            quic_version: "23",
            calibration: false,
            root_cause: false,
            tested_pages: "500",
            emulated_scenarios: "100 (9)",
            networks: "F/C",
            devices: "D",
            fairness: false,
            video_qoe: false,
            reordering: false,
            proxying: false,
        },
        RelatedWorkRow {
            study: "This work",
            quic_version: "25 to 37",
            calibration: true,
            root_cause: true,
            tested_pages: "13",
            emulated_scenarios: "18",
            networks: "F/C",
            devices: "D/M",
            fairness: true,
            video_qoe: true,
            reordering: true,
            proxying: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let p = ParameterSpace::table2();
        assert_eq!(p.rate_limits_mbps, vec![5.0, 10.0, 50.0, 100.0]);
        assert_eq!(p.object_sizes_kb.last(), Some(&210_000));
        assert_eq!(p.num_objects, vec![1, 2, 5, 10, 100, 200]);
    }

    #[test]
    fn table1_has_five_rows_and_only_this_work_does_everything() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        let this = rows.last().expect("present");
        assert!(this.calibration && this.root_cause && this.video_qoe && this.proxying);
        assert!(rows[..4].iter().all(|r| !r.calibration && !r.root_cause));
    }
}
