//! Congestion scenarios: which links are congested, and how the
//! congested set evolves across snapshots.
//!
//! The paper fixes the *proportion* `p` of congested links for a
//! simulation run and learns variances over `m` snapshots; Phase 2 can
//! only discriminate links if the congested set is stable over the
//! learning window (Assumption S.3 ties a link's variance to its mean
//! congestion level). We therefore default to [`CongestionDynamics::Fixed`].
//! The Internet experiment of Section 7.2.2, however, observes congested
//! sets changing every few snapshots; [`CongestionDynamics::Markov`]
//! models that regime (and `Redraw` is the fully-iid extreme) for the
//! duration analysis and the persistence ablation.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the set of congested links evolves across snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum CongestionDynamics {
    /// The congested set is drawn once and stays fixed for the whole
    /// measurement period (the regime of the paper's simulations).
    #[default]
    Fixed,
    /// Each snapshot draws a fresh congested set (iid across snapshots).
    Redraw,
    /// Per-link two-state Markov chain across snapshots: a congested
    /// link stays congested with probability `stay_congested`, a good
    /// link becomes congested so that the stationary congested fraction
    /// equals `p`.
    Markov {
        /// P(congested → congested) between consecutive snapshots.
        stay_congested: f64,
    },
}

/// The evolving congestion state of every (virtual) link.
#[derive(Debug, Clone)]
pub struct CongestionScenario {
    /// Fraction of links congested (the paper's `p`).
    pub p: f64,
    /// Evolution model.
    pub dynamics: CongestionDynamics,
    /// Current congestion status per link.
    congested: Vec<bool>,
}

impl CongestionScenario {
    /// Draws the initial congested set: each of the `n_links` links is
    /// congested independently with probability `p`.
    pub fn draw<R: Rng>(n_links: usize, p: f64, dynamics: CongestionDynamics, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let congested = (0..n_links).map(|_| rng.gen::<f64>() < p).collect();
        CongestionScenario {
            p,
            dynamics,
            congested,
        }
    }

    /// Builds a scenario with explicit initial statuses (used by
    /// experiments that need non-uniform congestion probabilities, e.g.
    /// the Table-3 study where inter-AS links congest more often).
    /// `p` is still used as the stationary fraction by the Markov and
    /// redraw dynamics.
    pub fn with_statuses(p: f64, dynamics: CongestionDynamics, statuses: Vec<bool>) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        CongestionScenario {
            p,
            dynamics,
            congested: statuses,
        }
    }

    /// Number of links tracked.
    pub fn len(&self) -> usize {
        self.congested.len()
    }

    /// `true` if no links are tracked.
    pub fn is_empty(&self) -> bool {
        self.congested.is_empty()
    }

    /// Congestion status of link `k` in the current snapshot.
    pub fn is_congested(&self, k: usize) -> bool {
        self.congested[k]
    }

    /// Status slice for the current snapshot.
    pub fn statuses(&self) -> &[bool] {
        &self.congested
    }

    /// Number of currently congested links.
    pub fn congested_count(&self) -> usize {
        self.congested.iter().filter(|&&c| c).count()
    }

    /// Advances the scenario to the next snapshot according to the
    /// dynamics.
    pub fn advance<R: Rng>(&mut self, rng: &mut R) {
        match self.dynamics {
            CongestionDynamics::Fixed => {}
            CongestionDynamics::Redraw => {
                for c in self.congested.iter_mut() {
                    *c = rng.gen::<f64>() < self.p;
                }
            }
            CongestionDynamics::Markov { stay_congested } => {
                // Stationarity: p = p·stay + (1−p)·become
                // ⇒ become = p(1 − stay)/(1 − p).
                let become_congested = if self.p >= 1.0 {
                    1.0
                } else {
                    (self.p * (1.0 - stay_congested) / (1.0 - self.p)).min(1.0)
                };
                for c in self.congested.iter_mut() {
                    let u = rng.gen::<f64>();
                    *c = if *c {
                        u < stay_congested
                    } else {
                        u < become_congested
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_draw_matches_p() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = CongestionScenario::draw(10_000, 0.1, CongestionDynamics::Fixed, &mut rng);
        let frac = s.congested_count() as f64 / s.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn fixed_dynamics_never_change() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = CongestionScenario::draw(100, 0.2, CongestionDynamics::Fixed, &mut rng);
        let before = s.statuses().to_vec();
        for _ in 0..10 {
            s.advance(&mut rng);
        }
        assert_eq!(before, s.statuses());
    }

    #[test]
    fn redraw_changes_the_set() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = CongestionScenario::draw(1000, 0.3, CongestionDynamics::Redraw, &mut rng);
        let before = s.statuses().to_vec();
        s.advance(&mut rng);
        assert_ne!(before, s.statuses());
    }

    #[test]
    fn markov_preserves_stationary_fraction() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = CongestionScenario::draw(
            20_000,
            0.1,
            CongestionDynamics::Markov {
                stay_congested: 0.5,
            },
            &mut rng,
        );
        let mut fracs = Vec::new();
        for _ in 0..20 {
            s.advance(&mut rng);
            fracs.push(s.congested_count() as f64 / s.len() as f64);
        }
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        assert!((mean - 0.1).abs() < 0.01, "stationary fraction {mean}");
    }

    #[test]
    fn markov_with_full_persistence_is_fixed() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = CongestionScenario::draw(
            500,
            0.15,
            CongestionDynamics::Markov {
                stay_congested: 1.0,
            },
            &mut rng,
        );
        let before = s.statuses().to_vec();
        for _ in 0..5 {
            s.advance(&mut rng);
        }
        // stay = 1 keeps congested links congested; become = 0 keeps
        // good links good.
        assert_eq!(before, s.statuses());
    }

    #[test]
    fn with_statuses_sets_exact_state() {
        let s = CongestionScenario::with_statuses(
            0.5,
            CongestionDynamics::Fixed,
            vec![true, false, true],
        );
        assert_eq!(s.statuses(), &[true, false, true]);
        assert_eq!(s.congested_count(), 2);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_p() {
        let mut rng = StdRng::seed_from_u64(6);
        CongestionScenario::draw(10, 1.5, CongestionDynamics::Fixed, &mut rng);
    }
}
