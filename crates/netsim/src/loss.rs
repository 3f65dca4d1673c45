//! Per-link packet-loss processes.
//!
//! Section 6 of the paper drives each link with a **Gilbert** two-state
//! process ("the link fluctuates between good and congested states. When
//! in a good state, the link does not drop any packet, when in a
//! congested state the link drops all packets"), with the probability of
//! *remaining* in the bad state fixed to 0.35 after [Paxson 1997]. A
//! Bernoulli process is also evaluated ("the differences are
//! insignificant") and provided here for the ablation bench.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A per-link loss process: consumes one RNG draw per arriving packet
/// and reports whether the packet survives the link.
pub trait LossProcess {
    /// Advances the process by one packet arrival; returns `true` if the
    /// packet survives.
    fn packet_survives<R: Rng>(&mut self, rng: &mut R) -> bool;

    /// The long-run loss rate this process was configured for.
    fn target_loss_rate(&self) -> f64;
}

/// `2^53`: the sampler's uniform `f64` has 53 random bits.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// One uniform draw as the vendored sampler makes it: `gen::<f64>()` is
/// defined as `(next_u64() >> 11) · 2^-53`, and this is its integer
/// numerator `u ∈ [0, 2^53)`.
fn draw53<R: Rng>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// The integer threshold `t = ⌈p · 2^53⌉` with `u < t` ⇔
/// `u · 2^-53 < p`, so comparing a [`draw53`] against it is exactly
/// `gen::<f64>() < p`. For `p ∈ [0, 1]`, `p · 2^53` is exact (scaling by
/// a power of two) and at most `2^53`.
fn threshold(p: f64) -> u64 {
    (p * TWO_POW_53).ceil() as u64
}

/// Which loss process family to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LossProcessKind {
    /// Bursty two-state Gilbert process (the paper's default).
    #[default]
    Gilbert,
    /// Independent per-packet drops.
    Bernoulli,
    /// Heavy-tailed flowlet-arrival bursts (see [`crate::flowlet`]).
    Flowlet,
}

/// The paper's probability of remaining in the bad state
/// (`P(bad → bad)`), taken from the Gilbert-model fit in [Paxson 1997]
/// and reused by [Padmanabhan et al. 2003] and [Zhao et al. 2006].
pub const GILBERT_STAY_BAD: f64 = 0.35;

/// Two-state Gilbert loss process.
///
/// In the *good* state no packet is dropped; in the *bad* state every
/// packet is dropped. The chain transitions on each packet arrival. The
/// good→bad probability is chosen so that the stationary probability of
/// the bad state equals the configured loss rate:
///
/// `π_bad = p_gb / (p_gb + p_bg)  ⇒  p_gb = π_bad · p_bg / (1 − π_bad)`.
#[derive(Debug, Clone)]
pub struct GilbertProcess {
    /// [`threshold`]s of the draw that leaves the current state, indexed
    /// by it: `[P(good → bad), P(bad → good)]` per packet (the latter
    /// `1 − `[`GILBERT_STAY_BAD`] by default).
    leave: [u64; 2],
    /// Current state: `true` = bad (dropping).
    bad: bool,
    target: f64,
}

impl GilbertProcess {
    /// Creates a process with stationary loss rate `loss_rate ∈ [0, 1]`
    /// and the paper's `P(bad→bad) = 0.35`.
    ///
    /// Rates ≥ 1 saturate to "always bad"; rate 0 is "never bad".
    pub fn from_loss_rate(loss_rate: f64) -> Self {
        Self::with_stay_bad(loss_rate, GILBERT_STAY_BAD)
    }

    /// Creates a process with an explicit `P(bad→bad)`.
    ///
    /// High loss rates cannot be reached with the default escape
    /// probability (`p_gb ≤ 1` caps the stationary rate at
    /// `1/(2 − stay_bad)`); beyond that point the process pins
    /// `p_gb = 1` and lowers the escape probability instead, which keeps
    /// the stationary rate exact and makes bursts even longer.
    pub fn with_stay_bad(loss_rate: f64, stay_bad: f64) -> Self {
        assert!((0.0..1.0).contains(&stay_bad), "stay_bad must be in [0,1)");
        let rate = loss_rate.clamp(0.0, 1.0);
        let p_bg_default = 1.0 - stay_bad;
        let (p_gb, p_bg) = if rate >= 1.0 {
            (1.0, 0.0)
        } else if rate <= 0.0 {
            (0.0, p_bg_default)
        } else {
            let wanted = rate * p_bg_default / (1.0 - rate);
            if wanted <= 1.0 {
                (wanted, p_bg_default)
            } else {
                (1.0, (1.0 - rate) / rate)
            }
        };
        GilbertProcess {
            leave: [threshold(p_gb), threshold(p_bg)],
            bad: false,
            target: rate,
        }
    }
}

impl LossProcess for GilbertProcess {
    fn packet_survives<R: Rng>(&mut self, rng: &mut R) -> bool {
        // Transition on arrival (one draw, branch-free), then drop iff
        // bad.
        self.bad ^= draw53(rng) < self.leave[usize::from(self.bad)];
        !self.bad
    }

    fn target_loss_rate(&self) -> f64 {
        self.target
    }
}

/// Independent (memoryless) per-packet loss.
#[derive(Debug, Clone)]
pub struct BernoulliProcess {
    rate: f64,
    /// [`threshold`] of `rate`: a draw below it drops the packet.
    drop_below: u64,
}

impl BernoulliProcess {
    /// Creates a process dropping each packet independently with
    /// probability `loss_rate`.
    pub fn from_loss_rate(loss_rate: f64) -> Self {
        let rate = loss_rate.clamp(0.0, 1.0);
        BernoulliProcess {
            rate,
            drop_below: threshold(rate),
        }
    }
}

impl LossProcess for BernoulliProcess {
    fn packet_survives<R: Rng>(&mut self, rng: &mut R) -> bool {
        draw53(rng) >= self.drop_below
    }

    fn target_loss_rate(&self) -> f64 {
        self.rate
    }
}

/// A dynamically-dispatched loss process, so the engine can mix
/// families per link.
#[derive(Debug, Clone)]
pub enum AnyLossProcess {
    /// Gilbert process.
    Gilbert(GilbertProcess),
    /// Bernoulli process.
    Bernoulli(BernoulliProcess),
    /// Flowlet-arrival bursty process.
    Flowlet(crate::flowlet::FlowletProcess),
}

impl AnyLossProcess {
    /// Creates a process of the given kind and loss rate.
    pub fn new(kind: LossProcessKind, loss_rate: f64) -> Self {
        match kind {
            LossProcessKind::Gilbert => {
                AnyLossProcess::Gilbert(GilbertProcess::from_loss_rate(loss_rate))
            }
            LossProcessKind::Bernoulli => {
                AnyLossProcess::Bernoulli(BernoulliProcess::from_loss_rate(loss_rate))
            }
            LossProcessKind::Flowlet => {
                AnyLossProcess::Flowlet(crate::flowlet::FlowletProcess::from_loss_rate(loss_rate))
            }
        }
    }
}

impl LossProcess for AnyLossProcess {
    #[inline]
    fn packet_survives<R: Rng>(&mut self, rng: &mut R) -> bool {
        match self {
            AnyLossProcess::Gilbert(p) => p.packet_survives(rng),
            AnyLossProcess::Bernoulli(p) => p.packet_survives(rng),
            AnyLossProcess::Flowlet(p) => p.packet_survives(rng),
        }
    }

    fn target_loss_rate(&self) -> f64 {
        match self {
            AnyLossProcess::Gilbert(p) => p.target_loss_rate(),
            AnyLossProcess::Bernoulli(p) => p.target_loss_rate(),
            AnyLossProcess::Flowlet(p) => p.target_loss_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn empirical_rate<P: LossProcess>(p: &mut P, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drops = 0;
        for _ in 0..n {
            if !p.packet_survives(&mut rng) {
                drops += 1;
            }
        }
        drops as f64 / n as f64
    }

    #[test]
    fn gilbert_matches_target_rate() {
        for &target in &[0.01, 0.05, 0.1, 0.2, 0.7, 0.95] {
            let mut p = GilbertProcess::from_loss_rate(target);
            let emp = empirical_rate(&mut p, 200_000, 1);
            assert!(
                (emp - target).abs() < 0.01,
                "target {target}, empirical {emp}"
            );
        }
    }

    #[test]
    fn gilbert_losses_are_bursty() {
        // Measure run lengths of consecutive drops: mean run length for
        // Gilbert with stay=0.35 is 1/(1-0.35) ≈ 1.54, but observed runs
        // must exceed Bernoulli's at equal rate (≈ 1/(1-rate) ≈ 1.11).
        let rate = 0.1;
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = GilbertProcess::from_loss_rate(rate);
        let mut runs = Vec::new();
        let mut current = 0usize;
        for _ in 0..200_000 {
            if !g.packet_survives(&mut rng) {
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(
            (mean_run - 1.0 / (1.0 - GILBERT_STAY_BAD)).abs() < 0.1,
            "mean drop-burst length {mean_run}"
        );
    }

    #[test]
    fn gilbert_extremes() {
        let mut always = GilbertProcess::from_loss_rate(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..100).all(|_| !always.packet_survives(&mut rng)));
        let mut never = GilbertProcess::from_loss_rate(0.0);
        assert!((0..100).all(|_| never.packet_survives(&mut rng)));
    }

    #[test]
    fn bernoulli_matches_target_rate() {
        let mut p = BernoulliProcess::from_loss_rate(0.07);
        let emp = empirical_rate(&mut p, 200_000, 4);
        assert!((emp - 0.07).abs() < 0.005, "empirical {emp}");
    }

    #[test]
    fn bernoulli_is_memoryless() {
        // Burst lengths should match the geometric expectation 1/(1-r).
        let rate = 0.2;
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = BernoulliProcess::from_loss_rate(rate);
        let mut runs = Vec::new();
        let mut current = 0usize;
        for _ in 0..300_000 {
            if !p.packet_survives(&mut rng) {
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!((mean_run - 1.0 / (1.0 - rate)).abs() < 0.05);
    }

    #[test]
    fn any_process_dispatches() {
        let mut g = AnyLossProcess::new(LossProcessKind::Gilbert, 0.5);
        let mut b = AnyLossProcess::new(LossProcessKind::Bernoulli, 0.5);
        assert_eq!(g.target_loss_rate(), 0.5);
        assert_eq!(b.target_loss_rate(), 0.5);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = g.packet_survives(&mut rng);
        let _ = b.packet_survives(&mut rng);
    }

    /// The thresholds stand in for `gen::<f64>() < p`; a change to the
    /// vendored sampler must fail here rather than in the goldens.
    #[test]
    fn thresholds_match_the_sampler_contract() {
        let two_pow_minus_53 = 1.0 / TWO_POW_53;
        for p in [
            0.0,
            two_pow_minus_53,
            1e-300,
            0.002,
            0.35,
            0.65,
            1.0 - two_pow_minus_53,
            1.0,
        ] {
            let t = threshold(p);
            let top = (1u64 << 53) - 1;
            for u in [0, t.saturating_sub(1), t, t + 1, top] {
                if u > top {
                    continue;
                }
                assert_eq!(
                    u < t,
                    (u as f64) * two_pow_minus_53 < p,
                    "p = {p:e}, u = {u}, t = {t}"
                );
            }
        }
        let mut a = StdRng::seed_from_u64(7);
        let mut b = a.clone();
        for _ in 0..1000 {
            let expected = (b.next_u64() >> 11) as f64 * two_pow_minus_53;
            assert_eq!(a.gen::<f64>().to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn rates_clamped() {
        assert_eq!(GilbertProcess::from_loss_rate(-0.5).target_loss_rate(), 0.0);
        assert_eq!(
            BernoulliProcess::from_loss_rate(7.0).target_loss_rate(),
            1.0
        );
    }
}
