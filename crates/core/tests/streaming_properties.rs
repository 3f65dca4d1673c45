//! Property-based tests for the streaming covariance accumulator.
//!
//! The central contracts:
//!
//! * after `n` ingests with an unbounded window, the exact replay is
//!   **bit-identical** to the batch
//!   `CenteredMeasurements::pair_covariances` over the same rows;
//! * with a sliding window, the exact replay is bit-identical to a
//!   batch recompute over exactly the retained window;
//! * the Welford running estimates track the exact values within
//!   floating-point tolerance, including after many evictions.

use losstomo_core::streaming::{StreamingCovariance, WindowMode};
use losstomo_core::CenteredMeasurements;
use proptest::prelude::*;

/// Random snapshot rows: `m × n` log-rate-like values in [-8, 0].
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..12, 1usize..8).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(-8.0f64..0.0, n..=n), m..=m)
    })
}

/// Every ordered pair (i ≤ j) over `n` paths — a superset of what any
/// augmented system requests.
fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect()
}

proptest! {
    /// Unbounded streaming replay ≡ batch, bit for bit.
    #[test]
    fn streaming_matches_batch_bitwise(rows in rows_strategy()) {
        let n = rows[0].len();
        let pairs = all_pairs(n);
        let mut sc = StreamingCovariance::new(n, pairs.clone(), WindowMode::Unbounded);
        for row in &rows {
            sc.ingest(row);
        }
        let batch = CenteredMeasurements::from_rows(rows).pair_covariances(&pairs);
        prop_assert_eq!(sc.exact_covariances(), batch);
    }

    /// Sliding-window streaming replay ≡ batch over the window, bit for
    /// bit, at every prefix length.
    #[test]
    fn windowed_streaming_matches_batch_over_window(
        rows in rows_strategy(),
        w in 2usize..6,
    ) {
        let n = rows[0].len();
        let pairs = all_pairs(n);
        let mut sc = StreamingCovariance::new(n, pairs.clone(), WindowMode::Sliding(w));
        for (t, row) in rows.iter().enumerate() {
            sc.ingest(row);
            let start = (t + 1).saturating_sub(w);
            let window = rows[start..=t].to_vec();
            prop_assert_eq!(sc.len(), window.len());
            if window.len() >= 2 {
                let batch = CenteredMeasurements::from_rows(window).pair_covariances(&pairs);
                prop_assert_eq!(sc.exact_covariances(), batch);
            }
        }
    }

    /// Welford running co-moments track the exact covariances within
    /// tolerance — unbounded and after sliding-window downdates.
    #[test]
    fn welford_tracks_exact_within_tolerance(
        rows in rows_strategy(),
        w in 3usize..8,
    ) {
        let n = rows[0].len();
        let pairs = all_pairs(n);
        for mode in [WindowMode::Unbounded, WindowMode::Sliding(w)] {
            let mut sc = StreamingCovariance::new(n, pairs.clone(), mode);
            for row in &rows {
                sc.ingest(row);
            }
            if sc.len() >= 2 {
                let exact = sc.exact_covariances();
                for (wv, e) in sc.covariances().iter().zip(exact.iter()) {
                    prop_assert!(
                        (wv - e).abs() < 1e-8,
                        "welford {} vs exact {} under {:?}", wv, e, mode
                    );
                }
            }
        }
    }
}
