//! Continuous congestion monitoring — the operational use case the
//! paper's introduction motivates.
//!
//! A monitoring service keeps a sliding window of the last `m`
//! snapshots. Every new snapshot it (re-)learns the link variances from
//! the window and infers the snapshot's link loss rates, raising an
//! alert whenever a link crosses the congestion threshold and clearing
//! it when the link recovers. Congestion episodes here follow a Markov
//! process, like the short-lived episodes of Section 7.2.2.
//!
//! Run with: `cargo run --release --example congestion_watch`

use losstomo::prelude::*;
use losstomo::topology::gen::planetlab::{self, PlanetLabParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let topo = planetlab::generate(
        PlanetLabParams {
            sites: 16,
            core_routers: 6,
            ..PlanetLabParams::default()
        },
        &mut rng,
    );
    let setup = losstomo::experiment_setup(&topo.graph, &topo.beacons, &topo.destinations);
    let (red, aug) = (setup.red, setup.aug);
    println!(
        "watching {} links through {} paths\n",
        red.num_links(),
        red.num_paths()
    );

    let window = 30usize;
    let ticks = 12usize;
    let threshold = 0.01;
    // Alerts require two consecutive crossings (hysteresis), the usual
    // operational guard against single-snapshot estimation noise.
    let confirm = 2usize;
    let mut scenario = CongestionScenario::draw(
        red.num_links(),
        0.05,
        CongestionDynamics::Markov {
            stay_congested: 0.8,
        },
        &mut rng,
    );
    // Warm-up: fill the sliding window.
    let mut history = simulate_run(
        &red,
        &mut scenario,
        &ProbeConfig::default(),
        window,
        &mut rng,
    )
    .snapshots;

    let mut alerted = vec![false; red.num_links()];
    let mut streak = vec![0usize; red.num_links()];
    for tick in 0..ticks {
        scenario.advance(&mut rng);
        let snap = simulate_snapshot(&red, &scenario, &ProbeConfig::default(), &mut rng);

        // Learn variances on the trailing window, infer on the new
        // snapshot.
        let train = MeasurementSet {
            snapshots: history[history.len() - window..].to_vec(),
        };
        let centered = CenteredMeasurements::new(&train);
        let estimate = estimate_variances(&red, &aug, &centered, &VarianceConfig::default())
            .and_then(|v| infer_link_rates(&red, &v.v, &snap.log_rates(), &LiaConfig::default()));
        match estimate {
            Ok(est) => {
                for (k, &phi) in est.transmission.iter().enumerate() {
                    let loss = 1.0 - phi;
                    if loss > threshold {
                        streak[k] += 1;
                        if streak[k] == confirm && !alerted[k] {
                            alerted[k] = true;
                            println!(
                                "tick {tick:>2}: ALERT   link {k:>3} inferred loss {:.3} (truth {:.3})",
                                loss,
                                snap.link_truth[k].true_loss_rate()
                            );
                        }
                    } else {
                        streak[k] = 0;
                        if alerted[k] {
                            alerted[k] = false;
                            println!("tick {tick:>2}: cleared link {k:>3}");
                        }
                    }
                }
            }
            Err(e) => eprintln!("tick {tick}: inference failed: {e}"),
        }
        history.push(snap);
    }
    println!(
        "\ndone — {} links still alerted",
        alerted.iter().filter(|&&a| a).count()
    );
}
