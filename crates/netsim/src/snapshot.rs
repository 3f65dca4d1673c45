//! Snapshot data types: what one measurement period produces.
//!
//! A *snapshot* (Section 3.3) is the collection of measurements obtained
//! by sending `S` probes from each beacon to each destination in one
//! time slot. For simulations we also carry per-link ground truth so the
//! evaluation can compute detection rates and error factors.

use serde::{Deserialize, Serialize};

/// Ground truth for one (virtual) link in one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkTruth {
    /// The loss rate assigned by the LLRD model for this snapshot.
    pub assigned_loss_rate: f64,
    /// Whether the scenario marked the link congested.
    pub congested: bool,
    /// Probe packets that arrived at this link.
    pub arrivals: u64,
    /// Probe packets dropped by this link.
    pub drops: u64,
}

impl LinkTruth {
    /// The empirically realised loss rate, if any packet arrived.
    pub fn empirical_loss_rate(&self) -> Option<f64> {
        if self.arrivals == 0 {
            None
        } else {
            Some(self.drops as f64 / self.arrivals as f64)
        }
    }

    /// The best available notion of the link's true loss rate in this
    /// snapshot: the realised rate when observable, otherwise the
    /// assigned rate.
    pub fn true_loss_rate(&self) -> f64 {
        self.empirical_loss_rate()
            .unwrap_or(self.assigned_loss_rate)
    }
}

/// All measurements and ground truth of one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Probes sent per path in this snapshot (the paper's `S`).
    pub probes: u32,
    /// Per path: how many of the `S` probes reached the destination.
    pub path_received: Vec<u32>,
    /// Per virtual link: ground truth (simulation only; empty when the
    /// snapshot comes from real measurements).
    pub link_truth: Vec<LinkTruth>,
}

impl Snapshot {
    /// Estimated end-to-end transmission rates `φ̂_i = received / S`,
    /// floored at `0.5 / S` (continuity correction) so the logarithm is
    /// finite even when every probe of a path is lost.
    pub fn path_transmission_rates(&self) -> Vec<f64> {
        let s = self.probes as f64;
        let floor = 0.5 / s;
        self.path_received
            .iter()
            .map(|&r| (r as f64 / s).max(floor))
            .collect()
    }

    /// Log measurements `Y_i = log φ̂_i` (natural log), the left-hand
    /// side of the paper's equation (3).
    pub fn log_rates(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.log_rates_into(&mut out);
        out
    }

    /// Allocation-free [`Snapshot::log_rates`]: clears `out` and fills
    /// it in place, so ingest loops and wire encoders can reuse one
    /// scratch row across snapshots. Produces bit-identical values to
    /// `log_rates()`.
    pub fn log_rates_into(&self, out: &mut Vec<f64>) {
        let s = self.probes as f64;
        let floor = 0.5 / s;
        out.clear();
        out.extend(
            self.path_received
                .iter()
                .map(|&r| (r as f64 / s).max(floor).ln()),
        );
    }

    /// End-to-end loss rate per path (`1 − φ̂_i`, without flooring).
    pub fn path_loss_rates(&self) -> Vec<f64> {
        let s = self.probes as f64;
        self.path_received
            .iter()
            .map(|&r| 1.0 - r as f64 / s)
            .collect()
    }
}

/// A sequence of snapshots over the same reduced topology — the input to
/// variance learning (Phase 1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasurementSet {
    /// Snapshots in chronological order.
    pub snapshots: Vec<Snapshot>,
}

impl MeasurementSet {
    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` when no snapshot was collected.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The matrix of log measurements: one row per snapshot, one column
    /// per path (`Y^(l)` for `l = 1..m`).
    pub fn log_rate_rows(&self) -> Vec<Vec<f64>> {
        self.snapshots.iter().map(|s| s.log_rates()).collect()
    }
}

impl FromIterator<Snapshot> for MeasurementSet {
    /// Collects a snapshot stream (e.g. [`crate::simulate_stream`])
    /// into a measurement set, preserving order.
    fn from_iter<I: IntoIterator<Item = Snapshot>>(iter: I) -> Self {
        MeasurementSet {
            snapshots: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        Snapshot {
            probes: 1000,
            path_received: vec![1000, 900, 0],
            link_truth: vec![],
        }
    }

    #[test]
    fn transmission_rates_with_floor() {
        let s = snap();
        let rates = s.path_transmission_rates();
        assert_eq!(rates[0], 1.0);
        assert!((rates[1] - 0.9).abs() < 1e-12);
        assert_eq!(rates[2], 0.0005); // floored, not zero
    }

    #[test]
    fn log_rates_finite() {
        let s = snap();
        assert!(s.log_rates().iter().all(|y| y.is_finite()));
        assert_eq!(s.log_rates()[0], 0.0);
    }

    #[test]
    fn log_rates_into_matches_allocating_path() {
        let s = snap();
        let mut scratch = vec![42.0; 17]; // stale contents must be cleared
        s.log_rates_into(&mut scratch);
        let alloc = s.log_rates();
        assert_eq!(scratch.len(), alloc.len());
        for (a, b) in scratch.iter().zip(&alloc) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn loss_rates_complement() {
        let s = snap();
        let loss = s.path_loss_rates();
        assert_eq!(loss[0], 0.0);
        assert!((loss[1] - 0.1).abs() < 1e-12);
        assert_eq!(loss[2], 1.0);
    }

    #[test]
    fn link_truth_empirical() {
        let t = LinkTruth {
            assigned_loss_rate: 0.1,
            congested: true,
            arrivals: 100,
            drops: 12,
        };
        assert_eq!(t.empirical_loss_rate(), Some(0.12));
        assert!((t.true_loss_rate() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn link_truth_falls_back_to_assigned() {
        let t = LinkTruth {
            assigned_loss_rate: 0.07,
            congested: true,
            arrivals: 0,
            drops: 0,
        };
        assert_eq!(t.empirical_loss_rate(), None);
        assert_eq!(t.true_loss_rate(), 0.07);
    }

    #[test]
    fn measurement_set_rows() {
        let ms = MeasurementSet {
            snapshots: vec![snap(), snap()],
        };
        let rows = ms.log_rate_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 3);
        assert!(!ms.is_empty());
    }
}
