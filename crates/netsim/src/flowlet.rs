//! Flowlet bursty-arrival loss traces.
//!
//! The Gilbert chain produces geometric burst lengths — short-tailed,
//! memoryless beyond one packet. Measured Internet loss episodes are
//! heavier-tailed: congestion events triggered by flowlet arrivals drop
//! *runs* of packets whose lengths follow a power law. This module
//! models that workload directly: loss bursts arrive as a renewal
//! process and each burst drops `L` consecutive packets with
//! `P(L = ℓ) ∝ ℓ^{-α}` (a discrete Pareto/Zipf law truncated at
//! [`FlowletParams::max_burst`]).
//!
//! The per-packet burst-start probability `q` is calibrated so the
//! *stationary* loss rate equals the configured `p`: a renewal cycle
//! consists of a geometric run of delivered packets (mean `(1 − q)/q`)
//! followed by one burst (mean `μ`), so
//!
//! `p = μ / (μ + (1 − q)/q)  ⇒  q = p / (p + μ(1 − p))`.
//!
//! Like every [`LossProcess`], the chain consumes RNG draws only
//! through `packet_survives`, so runs are bit-reproducible from the
//! seed and the `simulate_stream` contract (stream ≡ batch) holds
//! unchanged.

use crate::loss::LossProcess;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shape parameters of the flowlet burst-length law.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowletParams {
    /// Pareto/Zipf shape `α` of the burst-length pmf `ℓ^{-α}`
    /// (smaller ⇒ heavier tail). Default 1.7, in the range fitted to
    /// measured flowlet inter-arrivals.
    pub shape: f64,
    /// Truncation `B` of the burst length (bursts are `1..=B` packets).
    pub max_burst: u32,
}

impl Default for FlowletParams {
    fn default() -> Self {
        FlowletParams {
            shape: 1.7,
            max_burst: 64,
        }
    }
}

/// A bursty flowlet-arrival loss process with stationary loss rate `p`.
#[derive(Debug, Clone)]
pub struct FlowletProcess {
    /// Cumulative burst-length distribution, `cdf[ℓ-1] = P(L ≤ ℓ)`.
    cdf: Vec<f64>,
    /// Analytic mean burst length `μ = E[L]`.
    mean_burst: f64,
    /// Per-packet burst-start probability while idle.
    q: f64,
    /// Packets left to drop in the current burst.
    remaining: u32,
    target: f64,
}

impl FlowletProcess {
    /// Creates a process with stationary loss rate `loss_rate ∈ [0, 1]`
    /// and the default burst-length law.
    pub fn from_loss_rate(loss_rate: f64) -> Self {
        Self::with_params(loss_rate, FlowletParams::default())
    }

    /// Creates a process with an explicit burst-length law.
    ///
    /// # Panics
    /// Panics if `max_burst == 0` or `shape` is not finite.
    pub fn with_params(loss_rate: f64, params: FlowletParams) -> Self {
        assert!(params.max_burst > 0, "max_burst must be positive");
        assert!(params.shape.is_finite(), "shape must be finite");
        let p = loss_rate.clamp(0.0, 1.0);
        let b = params.max_burst as usize;
        let weights: Vec<f64> = (1..=b).map(|l| (l as f64).powf(-params.shape)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(b);
        let mut acc = 0.0;
        let mut mean = 0.0;
        for (i, w) in weights.iter().enumerate() {
            let prob = w / total;
            acc += prob;
            mean += (i + 1) as f64 * prob;
            cdf.push(acc);
        }
        // Guard against rounding: the last CDF entry must catch every
        // uniform draw.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // Renewal-reward calibration (see the module docs). p = 1 pins
        // q = 1: every idle packet immediately starts a new burst.
        let q = if p >= 1.0 {
            1.0
        } else {
            p / (p + mean * (1.0 - p))
        };
        FlowletProcess {
            cdf,
            mean_burst: mean,
            q,
            remaining: 0,
            target: p,
        }
    }

    /// Analytic mean burst length `μ` of the configured law.
    pub fn mean_burst(&self) -> f64 {
        self.mean_burst
    }

    /// The calibrated per-packet burst-start probability.
    pub fn burst_start_probability(&self) -> f64 {
        self.q
    }

    /// Draws one burst length from the truncated power-law pmf.
    fn draw_burst_len<R: Rng>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        // First ℓ with CDF(ℓ) ≥ u; partition_point counts entries < u.
        (self.cdf.partition_point(|&c| c < u) + 1) as u32
    }
}

impl LossProcess for FlowletProcess {
    fn packet_survives<R: Rng>(&mut self, rng: &mut R) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            return false;
        }
        if self.q > 0.0 && rng.gen::<f64>() < self.q {
            // This packet is the first drop of a fresh burst.
            self.remaining = self.draw_burst_len(rng) - 1;
            return false;
        }
        true
    }

    fn target_loss_rate(&self) -> f64 {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_is_normalised_and_monotone() {
        let p = FlowletProcess::with_params(
            0.1,
            FlowletParams {
                shape: 1.7,
                max_burst: 32,
            },
        );
        assert_eq!(p.cdf.len(), 32);
        assert!(p.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*p.cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn mean_burst_matches_direct_sum() {
        let params = FlowletParams {
            shape: 2.0,
            max_burst: 16,
        };
        let p = FlowletProcess::with_params(0.05, params);
        let total: f64 = (1..=16).map(|l| (l as f64).powf(-2.0)).sum();
        let mean: f64 = (1..=16)
            .map(|l| l as f64 * (l as f64).powf(-2.0) / total)
            .sum();
        assert!((p.mean_burst() - mean).abs() < 1e-12);
    }

    #[test]
    fn calibration_solves_renewal_equation() {
        for &rate in &[0.01, 0.05, 0.1, 0.5, 0.9] {
            let p = FlowletProcess::from_loss_rate(rate);
            let q = p.burst_start_probability();
            let mu = p.mean_burst();
            let stationary = mu / (mu + (1.0 - q) / q);
            assert!(
                (stationary - rate).abs() < 1e-12,
                "rate {rate}: stationary {stationary}"
            );
        }
    }

    #[test]
    fn extremes_never_and_always_drop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut never = FlowletProcess::from_loss_rate(0.0);
        assert!((0..200).all(|_| never.packet_survives(&mut rng)));
        let mut always = FlowletProcess::from_loss_rate(1.0);
        assert!((0..200).all(|_| !always.packet_survives(&mut rng)));
    }

    #[test]
    fn burst_draws_stay_within_cap_and_cover_range() {
        let params = FlowletParams {
            shape: 1.2,
            max_burst: 8,
        };
        let p = FlowletProcess::with_params(0.3, params);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..100_000 {
            let l = p.draw_burst_len(&mut rng);
            assert!((1..=8).contains(&l), "burst length {l} out of range");
            seen[(l - 1) as usize] = true;
        }
        // With shape 1.2 every length has probability > 1e-2: all hit.
        assert!(
            seen.iter().all(|&s| s),
            "some lengths never drawn: {seen:?}"
        );
    }

    #[test]
    fn rates_clamped() {
        assert_eq!(FlowletProcess::from_loss_rate(-1.0).target_loss_rate(), 0.0);
        assert_eq!(FlowletProcess::from_loss_rate(2.0).target_loss_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "max_burst")]
    fn zero_cap_rejected() {
        let _ = FlowletProcess::with_params(
            0.1,
            FlowletParams {
                shape: 1.7,
                max_burst: 0,
            },
        );
    }
}
