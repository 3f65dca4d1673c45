//! Property-based tests for [`CongestionDynamics::Markov`].
//!
//! The Markov dynamics promise two things (scenario.rs):
//!
//! * **stationarity** — the chain's `become_congested` probability is
//!   derived so the long-run congested fraction equals the configured
//!   `p`, for *any* `stay_congested`;
//! * **sojourn control** — a congested link stays congested with
//!   probability `stay_congested` per step, so completed congestion
//!   episodes are geometric with mean `1 / (1 − stay_congested)`.
//!
//! Both are checked over randomly drawn `(p, stay_congested, seed)`
//! configurations with enough links × steps that the sample statistics
//! concentrate.

use losstomo_netsim::{CongestionDynamics, CongestionScenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulates `steps` transitions of `n_links` independent per-link
/// chains and returns (per-step congested fractions, completed
/// congested-episode lengths).
fn run_chain(n_links: usize, p: f64, stay: f64, steps: usize, seed: u64) -> (Vec<f64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = CongestionScenario::draw(
        n_links,
        p,
        CongestionDynamics::Markov {
            stay_congested: stay,
        },
        &mut rng,
    );
    let mut fractions = Vec::with_capacity(steps);
    // Per-link length of the episode in progress; only episodes that
    // *start* during the run count (an unbiased geometric sample —
    // initially-congested links are length-biased), and episodes still
    // open at the end are discarded.
    let mut in_progress: Vec<Option<u64>> = vec![None; n_links];
    let mut episodes: Vec<u64> = Vec::new();
    let mut prev: Vec<bool> = scenario.statuses().to_vec();
    for _ in 0..steps {
        scenario.advance(&mut rng);
        fractions.push(scenario.congested_count() as f64 / n_links as f64);
        for (k, (&was, &now)) in prev.iter().zip(scenario.statuses().iter()).enumerate() {
            match (was, now) {
                (false, true) => in_progress[k] = Some(1),
                (true, true) => {
                    if let Some(len) = in_progress[k].as_mut() {
                        *len += 1;
                    }
                }
                (true, false) => {
                    if let Some(len) = in_progress[k].take() {
                        episodes.push(len);
                    }
                }
                (false, false) => {}
            }
        }
        prev.copy_from_slice(scenario.statuses());
    }
    (fractions, episodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The long-run congested fraction converges to the configured `p`
    /// for any persistence level.
    #[test]
    fn markov_long_run_fraction_converges_to_p(
        p in 0.05f64..0.35,
        stay in 0.2f64..0.95,
        seed in 0u64..1000,
    ) {
        let (fractions, _) = run_chain(4000, p, stay, 250, seed);
        // Skip a burn-in so the initial draw does not dominate.
        let tail = &fractions[50..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let tol = (0.15 * p).max(0.015);
        prop_assert!(
            (mean - p).abs() < tol,
            "stationary fraction {mean:.4} vs configured p {p:.4} (stay {stay:.2})"
        );
    }

    /// `stay_congested` controls the measured sojourn lengths:
    /// completed congestion episodes are geometric with mean
    /// `1 / (1 − stay_congested)`.
    #[test]
    fn markov_sojourn_lengths_follow_stay_probability(
        p in 0.05f64..0.3,
        stay in 0.2f64..0.9,
        seed in 0u64..1000,
    ) {
        let (_, episodes) = run_chain(4000, p, stay, 300, seed);
        prop_assert!(
            episodes.len() > 200,
            "too few completed episodes ({}) to estimate sojourns",
            episodes.len()
        );
        let mean = episodes.iter().sum::<u64>() as f64 / episodes.len() as f64;
        let expected = 1.0 / (1.0 - stay);
        prop_assert!(
            (mean - expected).abs() < 0.15 * expected + 0.1,
            "mean sojourn {mean:.3} vs geometric mean {expected:.3} (stay {stay:.2})"
        );
    }
}

/// Deterministic spot-check that longer persistence yields longer
/// measured sojourns (the knob is monotone end to end).
#[test]
fn higher_stay_means_longer_sojourns() {
    let (_, short) = run_chain(3000, 0.1, 0.3, 300, 42);
    let (_, long) = run_chain(3000, 0.1, 0.9, 300, 42);
    let mean = |e: &[u64]| e.iter().sum::<u64>() as f64 / e.len() as f64;
    assert!(
        mean(&long) > 2.0 * mean(&short),
        "stay=0.9 mean {:.2} should dwarf stay=0.3 mean {:.2}",
        mean(&long),
        mean(&short)
    );
}
