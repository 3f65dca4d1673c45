//! Post-inference analyses from the paper's measurement study.
//!
//! * [`mean_variance_per_path`] — the Figure-3 scatter: mean vs variance
//!   of each path's loss rate across snapshots, supporting Assumption
//!   S.3 (monotonicity of variance in the mean).
//! * [`as_location`] — Table 3: are congested links inter- or intra-AS?
//! * [`congestion_durations`] — Section 7.2.2: how many consecutive
//!   snapshots does a link stay (diagnosed) congested?

use losstomo_netsim::MeasurementSet;
use losstomo_topology::{Graph, ReducedTopology};
use serde::{Deserialize, Serialize};

/// One Figure-3 point: a path's loss-rate mean and variance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanVariancePoint {
    /// Mean end-to-end loss rate across snapshots.
    pub mean: f64,
    /// Variance of the end-to-end loss rate across snapshots.
    pub variance: f64,
}

/// Computes the per-path mean and variance of end-to-end loss rates
/// across all snapshots (Figure 3).
pub fn mean_variance_per_path(measurements: &MeasurementSet) -> Vec<MeanVariancePoint> {
    assert!(
        measurements.len() >= 2,
        "need at least 2 snapshots for a variance"
    );
    let rows: Vec<Vec<f64>> = measurements
        .snapshots
        .iter()
        .map(|s| s.path_loss_rates())
        .collect();
    let n_paths = rows[0].len();
    (0..n_paths)
        .map(|i| {
            let series: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            MeanVariancePoint {
                mean: losstomo_linalg::vector::mean(&series),
                variance: losstomo_linalg::vector::sample_variance(&series),
            }
        })
        .collect()
}

/// Quantifies Assumption S.3 on Figure-3 data: the rank correlation
/// (Spearman) between means and variances. Near +1 ⇒ variance is a
/// monotone function of the mean.
pub fn mean_variance_spearman(points: &[MeanVariancePoint]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let rank_of = |key: &dyn Fn(&MeanVariancePoint) -> f64| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| key(&points[a]).total_cmp(&key(&points[b])));
        let mut ranks = vec![0.0; n];
        // Average ranks over ties.
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && key(&points[idx[j + 1]]) == key(&points[idx[i]]) {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let rm = rank_of(&|p: &MeanVariancePoint| p.mean);
    let rv = rank_of(&|p: &MeanVariancePoint| p.variance);
    let mean_rm = losstomo_linalg::vector::mean(&rm);
    let mean_rv = losstomo_linalg::vector::mean(&rv);
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for k in 0..n {
        let a = rm[k] - mean_rm;
        let b = rv[k] - mean_rv;
        num += a * b;
        da += a * a;
        db += b * b;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

/// Table-3 row: how congested links split across AS boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsLocationStats {
    /// Congested links crossing an AS boundary.
    pub inter_as: usize,
    /// Congested links inside a single AS.
    pub intra_as: usize,
    /// Congested links with unknown AS membership.
    pub unknown: usize,
}

impl AsLocationStats {
    /// Percentage of classified congested links that are inter-AS.
    pub fn percent_inter(&self) -> f64 {
        let total = self.inter_as + self.intra_as;
        if total == 0 {
            0.0
        } else {
            100.0 * self.inter_as as f64 / total as f64
        }
    }

    /// Percentage of classified congested links that are intra-AS.
    pub fn percent_intra(&self) -> f64 {
        let total = self.inter_as + self.intra_as;
        if total == 0 {
            0.0
        } else {
            100.0 * self.intra_as as f64 / total as f64
        }
    }
}

/// Classifies the links whose estimated loss rate exceeds `threshold`
/// as inter- or intra-AS. A virtual link (alias chain) is inter-AS when
/// *any* of its physical constituents crosses an AS boundary.
pub fn as_location(
    graph: &Graph,
    red: &ReducedTopology,
    est_loss_rates: &[f64],
    threshold: f64,
) -> AsLocationStats {
    assert_eq!(est_loss_rates.len(), red.num_links(), "length mismatch");
    let mut stats = AsLocationStats {
        inter_as: 0,
        intra_as: 0,
        unknown: 0,
    };
    for (k, &loss) in est_loss_rates.iter().enumerate() {
        if loss <= threshold {
            continue;
        }
        let vl = &red.virtual_links[k];
        let mut any_inter = false;
        let mut any_known = false;
        for &pl in &vl.physical {
            match graph.link_is_inter_as(pl) {
                Some(true) => {
                    any_inter = true;
                    any_known = true;
                }
                Some(false) => any_known = true,
                None => {}
            }
        }
        if !any_known {
            stats.unknown += 1;
        } else if any_inter {
            stats.inter_as += 1;
        } else {
            stats.intra_as += 1;
        }
    }
    stats
}

/// Histogram of congestion durations: `durations[d]` is the number of
/// maximal runs in which a link stayed diagnosed congested for exactly
/// `d + 1` consecutive snapshots (Section 7.2.2).
pub fn congestion_durations(diagnosed_per_snapshot: &[Vec<bool>]) -> Vec<usize> {
    if diagnosed_per_snapshot.is_empty() {
        return Vec::new();
    }
    let n_links = diagnosed_per_snapshot[0].len();
    assert!(
        diagnosed_per_snapshot.iter().all(|d| d.len() == n_links),
        "snapshots disagree on the number of links"
    );
    let mut histogram: Vec<usize> = Vec::new();
    for k in 0..n_links {
        let mut run = 0usize;
        for snap in diagnosed_per_snapshot {
            if snap[k] {
                run += 1;
            } else if run > 0 {
                bump(&mut histogram, run);
                run = 0;
            }
        }
        if run > 0 {
            bump(&mut histogram, run);
        }
    }
    histogram
}

fn bump(histogram: &mut Vec<usize>, run: usize) {
    if histogram.len() < run {
        histogram.resize(run, 0);
    }
    histogram[run - 1] += 1;
}

/// Fraction of congestion episodes lasting exactly one snapshot
/// (the paper reports 99 % on PlanetLab).
pub fn fraction_single_snapshot(histogram: &[usize]) -> f64 {
    let total: usize = histogram.iter().sum();
    if total == 0 {
        0.0
    } else {
        histogram[0] as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_netsim::Snapshot;

    fn ms(rows: Vec<Vec<u32>>) -> MeasurementSet {
        MeasurementSet {
            snapshots: rows
                .into_iter()
                .map(|r| Snapshot {
                    probes: 100,
                    path_received: r,
                    link_truth: vec![],
                })
                .collect(),
        }
    }

    #[test]
    fn mean_variance_computation() {
        let m = ms(vec![vec![100, 50], vec![100, 70]]);
        let pts = mean_variance_per_path(&m);
        assert_eq!(pts[0].mean, 0.0);
        assert_eq!(pts[0].variance, 0.0);
        assert!((pts[1].mean - 0.4).abs() < 1e-12);
        assert!(pts[1].variance > 0.0);
    }

    #[test]
    fn spearman_of_monotone_data_is_one() {
        let pts: Vec<MeanVariancePoint> = (0..10)
            .map(|i| MeanVariancePoint {
                mean: i as f64,
                variance: (i * i) as f64,
            })
            .collect();
        assert!((mean_variance_spearman(&pts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_of_reversed_data_is_minus_one() {
        let pts: Vec<MeanVariancePoint> = (0..10)
            .map(|i| MeanVariancePoint {
                mean: i as f64,
                variance: -(i as f64),
            })
            .collect();
        assert!((mean_variance_spearman(&pts) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn duration_histogram() {
        // Link 0: runs of 2 and 1. Link 1: one run of 3.
        let snaps = vec![
            vec![true, true],
            vec![true, true],
            vec![false, true],
            vec![true, false],
        ];
        let h = congestion_durations(&snaps);
        assert_eq!(h, vec![1, 1, 1]); // one 1-run, one 2-run, one 3-run
        assert!((fraction_single_snapshot(&h) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duration_empty_cases() {
        assert!(congestion_durations(&[]).is_empty());
        assert_eq!(fraction_single_snapshot(&[]), 0.0);
        let h = congestion_durations(&[vec![false, false]]);
        assert!(h.is_empty());
    }

    #[test]
    fn as_location_classifies() {
        use losstomo_topology::{compute_paths, reduce, NodeKind};
        let mut g = losstomo_topology::Graph::new();
        let b = g.add_node_in_as(NodeKind::Host, 1);
        let r1 = g.add_node_in_as(NodeKind::Router, 1);
        let r2 = g.add_node_in_as(NodeKind::Router, 2);
        let d1 = g.add_node_in_as(NodeKind::Host, 2);
        let d2 = g.add_node_in_as(NodeKind::Host, 1);
        g.add_link(b, r1); // intra (AS 1)
        g.add_link(r1, r2); // inter (1→2)
        g.add_link(r2, d1); // intra (AS 2)
        g.add_link(r1, d2); // intra (AS 1)
        let paths = compute_paths(&g, &[b], &[d1, d2]);
        let red = reduce(&g, &paths);
        // Congest everything: the b→r1→r2→d1 chain reduces to virtual
        // links; classify with threshold 0.
        let loss = vec![0.1; red.num_links()];
        let stats = as_location(&g, &red, &loss, 0.002);
        assert_eq!(stats.inter_as + stats.intra_as, red.num_links());
        assert!(stats.inter_as >= 1);
        assert!(stats.intra_as >= 1);
        assert!((stats.percent_inter() + stats.percent_intra() - 100.0).abs() < 1e-9);
    }
}
