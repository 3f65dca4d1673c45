//! Property-based tests for the streaming covariance accumulator.
//!
//! The central contracts:
//!
//! * after `n` ingests with an unbounded window, the exact replay is
//!   **bit-identical** to the batch
//!   `CenteredMeasurements::pair_covariances` over the same rows;
//! * with a sliding window, the exact replay is bit-identical to a
//!   batch recompute over exactly the retained window;
//! * across several routing changes inside one window, every pair's
//!   exact replay is bit-identical to a batch recompute over the rows
//!   since its own horizon.

use losstomo_core::streaming::{StreamingCovariance, WindowMode};
use losstomo_core::CenteredMeasurements;
use losstomo_topology::{DeltaEffect, PathId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The stream the churn property replays, tracked independently of the
/// accumulator: every row ever ingested, in the current path numbering,
/// and each path's horizon (the ingest index its current route starts
/// at).
struct ChurnModel {
    history: Vec<Vec<f64>>,
    from: Vec<usize>,
    pairs: Vec<(usize, usize)>,
    mode: WindowMode,
}

impl ChurnModel {
    /// Ingests one random row into both the model and `sc`.
    fn ingest(&mut self, sc: &mut StreamingCovariance, rng: &mut StdRng) {
        let row: Vec<f64> = (0..self.from.len())
            .map(|_| -8.0 * rng.gen::<f64>())
            .collect();
        sc.ingest(&row);
        self.history.push(row);
    }

    /// Applies `effect` to both the model and `sc`: rows move to the
    /// new numbering (an added path reads a `0.0` filler), and added or
    /// changed paths restart now.
    fn churn(&mut self, sc: &mut StreamingCovariance, effect: &DeltaEffect, n: usize) {
        let now = self.history.len();
        for row in &mut self.history {
            let mut new_row = vec![0.0; n];
            for (old, new) in effect.id_map.iter().enumerate() {
                if let Some(new) = new {
                    new_row[new.index()] = row[old];
                }
            }
            *row = new_row;
        }
        let mut from = vec![now; n];
        for (old, new) in effect.id_map.iter().enumerate() {
            if let Some(new) = new {
                from[new.index()] = self.from[old];
            }
        }
        for p in &effect.changed {
            from[p.index()] = now;
        }
        self.from = from;
        self.pairs = all_pairs(n);
        sc.apply_churn(n, self.pairs.clone(), effect);
    }

    /// Checks `sc` against the model: each pair's exact covariance over
    /// the retained rows since its horizon (`0.0` under two rows), and
    /// the warming count and churn-free flag of the same bookkeeping.
    fn check(&self, sc: &StreamingCovariance) -> Result<(), TestCaseError> {
        let total = self.history.len();
        let len = match self.mode {
            WindowMode::Sliding(w) => total.min(w),
            WindowMode::Unbounded => total,
        };
        prop_assert_eq!(sc.len(), len);
        let ws = total - len;
        let horizon = |&(a, b): &(usize, usize)| self.from[a].max(self.from[b]);
        let restarted = || self.pairs.iter().map(horizon).filter(|&h| h > ws);
        let warming = restarted().filter(|&h| total - h < 2).count();
        prop_assert_eq!(sc.staleness().warming_pairs, warming);
        prop_assert_eq!(sc.is_churn_free(), restarted().count() == 0);
        if len < 2 {
            return Ok(());
        }
        let got = sc.exact_covariances();
        for (slot, pair) in self.pairs.iter().enumerate() {
            let suffix: Vec<&[f64]> = self.history[horizon(pair).max(ws)..]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let want = if suffix.len() < 2 {
                0.0
            } else {
                CenteredMeasurements::from_row_refs(&suffix).pair_covariances(&[*pair])[0]
            };
            prop_assert!(
                got[slot].to_bits() == want.to_bits(),
                "pair {:?} at row {}: {} vs {}",
                pair,
                total,
                got[slot],
                want
            );
        }
        Ok(())
    }
}

/// A reroute of the paths in the non-empty bit set `mask`, under an
/// identity `id_map`.
fn reroute(n: usize, mask: usize) -> DeltaEffect {
    let mask = mask % ((1 << n) - 1) + 1;
    DeltaEffect {
        id_map: (0..n).map(|i| Some(PathId(i as u32))).collect(),
        changed: (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| PathId(i as u32))
            .collect(),
        removed: Vec::new(),
        added: Vec::new(),
    }
}

/// The removal of path `r` and the addition of a new last path: the
/// paths after `r` move down one.
fn remove_and_add(n: usize, r: usize) -> DeltaEffect {
    let added = PathId(n as u32 - 1);
    DeltaEffect {
        id_map: (0..n)
            .map(|i| match i.cmp(&r) {
                std::cmp::Ordering::Less => Some(PathId(i as u32)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(PathId(i as u32 - 1)),
            })
            .collect(),
        changed: vec![added],
        removed: vec![PathId(r as u32)],
        added: vec![added],
    }
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

    /// Two or three routing changes land inside one window, a few rows
    /// apart (sometimes none), so several restart horizons are pending
    /// at once, some of them still warming. At least one change removes
    /// a path and adds another. After every ingest and every change the
    /// exact replay matches a per-pair batch recompute bit for bit, and
    /// the sliding window flushes back to a churn-free state.
    #[test]
    fn replay_matches_per_pair_suffixes_across_churn_in_one_window(
        n in 2usize..6,
        w in 5usize..9,
        unbounded in any::<bool>(),
        pre in 1usize..10,
        events in proptest::collection::vec((0usize..3, 0usize..64, any::<bool>()), 2..=3),
        seed in any::<u64>(),
    ) {
        let mode = if unbounded { WindowMode::Unbounded } else { WindowMode::Sliding(w) };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sc = StreamingCovariance::new(n, all_pairs(n), mode);
        let mut model = ChurnModel {
            history: Vec::new(),
            from: vec![0; n],
            pairs: all_pairs(n),
            mode,
        };
        for _ in 0..pre {
            model.ingest(&mut sc, &mut rng);
            model.check(&sc)?;
        }
        for (k, &(gap, code, swap)) in events.iter().enumerate() {
            for _ in 0..gap {
                model.ingest(&mut sc, &mut rng);
                model.check(&sc)?;
            }
            let effect = if swap || k == 1 {
                remove_and_add(n, code % n)
            } else {
                reroute(n, code)
            };
            model.churn(&mut sc, &effect, n);
            model.check(&sc)?;
        }
        prop_assert!(!sc.is_churn_free());
        for _ in 0..w + 2 {
            model.ingest(&mut sc, &mut rng);
            model.check(&sc)?;
        }
        prop_assert_eq!(sc.is_churn_free(), !unbounded);
    }
}
