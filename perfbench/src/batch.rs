//! The `tree-batch` workload: the paper's Section-6 experiment run the
//! way the figure binaries run it — `run_many(run_experiment)` on the
//! paper tree over consecutive seeds, with LIA at the paper defaults
//! (`p = 10 %`, `m = 50`, `S = 1000`, LLRD1, Gilbert, a fixed congested
//! set).
//!
//! The untraced run times a lap of experiments per `run_many` call and
//! reports the faster quartile over laps. The traced run composes
//! the same experiments from the pieces `run_experiment` and
//! `LiaEstimator::estimate` call, in their order, on as many workers as
//! `run_many` uses, timing each piece; both runs must score every seed
//! the same.

use crate::alloc;
use crate::cli::Args;
use crate::inputs::{self, WINDOW};
use crate::pool;
use crate::procfs::{process_cpu_s, HostTicks};
use crate::report::{self, Outcome};
use crate::stats::{self, Better, Span};
use losstomo_core::experiment::score_against_truth;
use losstomo_core::variance::estimate_variances_from_sigmas;
use losstomo_core::{
    apply_budget, infer_link_rates, run_experiment, run_many, AugmentedSystem,
    CenteredMeasurements, ExperimentConfig, LocationAccuracy,
};
use losstomo_netsim::{simulate_run, CongestionScenario, MeasurementSet};
use losstomo_topology::ReducedTopology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Topology reductions per run; `setup_s` is their median. One takes
/// about 20 ms, so several keep the median steady.
const SETUP_REPS: usize = 9;

/// Nominal experiments per second on the reference host, which sizes
/// the pass from `--seconds`.
const EXPERIMENTS_PER_S: f64 = 2.8;

/// Experiments per lap: one `run_many` call, four per worker on two
/// workers.
const LAP_EXPERIMENTS: usize = 8;

/// Fewest laps in a pass.
const MIN_LAPS: usize = 3;

/// Snapshots one experiment simulates: `m` to learn from plus the one
/// it diagnoses.
const SNAPSHOTS_PER_EXPERIMENT: usize = WINDOW + 1;

/// Seeds of a run: `seed·1000 + i`, so runs with different seeds never
/// share an experiment. `run_many` adds `i` to the seed it is given.
fn experiment_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

fn laps(seconds: u32) -> usize {
    let laps = (f64::from(seconds) * EXPERIMENTS_PER_S / LAP_EXPERIMENTS as f64).round();
    (laps as usize).max(MIN_LAPS)
}

fn experiments(seconds: u32) -> usize {
    laps(seconds) * LAP_EXPERIMENTS
}

/// Workers of a batch of `n`: as many as `run_many` starts.
fn workers(n: usize) -> usize {
    losstomo_core::parallel::num_threads().min(n.max(1))
}

/// The paper-default experiment with the given seed.
fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    }
}

/// Wall and CPU time of one lap.
#[derive(Debug, Clone, Copy)]
struct Lap {
    wall_s: f64,
    cpu_s: f64,
}

/// Each experiment's accuracy, or why it failed.
type Accuracies = Vec<Result<LocationAccuracy, String>>;

/// The run's seeds, one `run_many` call per lap: each experiment's
/// accuracy (or error), and each lap's wall and CPU time.
fn untraced(
    red: &ReducedTopology,
    seed: u64,
    laps: usize,
) -> Result<(Accuracies, Vec<Lap>), String> {
    let mut results = Vec::with_capacity(laps * LAP_EXPERIMENTS);
    let mut times = Vec::with_capacity(laps);
    for k in 0..laps {
        let cpu0 = process_cpu_s()?;
        let t0 = Instant::now();
        let lap = run_many(
            red,
            &config(experiment_seed(seed, k * LAP_EXPERIMENTS)),
            LAP_EXPERIMENTS,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        times.push(Lap {
            wall_s,
            cpu_s: process_cpu_s()? - cpu0,
        });
        results.extend(
            lap.into_iter()
                .map(|r| r.map(|r| r.location).map_err(|e| e.to_string())),
        );
    }
    Ok((results, times))
}

fn setup(args: &Args) -> (ReducedTopology, Vec<f64>) {
    let prep = inputs::paper_tree();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut red = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        red = Some(inputs::reduce_topology(&prep.topo));
        times.push(t.elapsed().as_secs_f64());
    }
    let red = red.expect("at least one set-up");
    println!(
        "workload tree-batch: {} paths, {} links, {} experiments from seed {}, {} worker threads",
        red.num_paths(),
        red.num_links(),
        experiments(args.seconds),
        experiment_seed(args.seed, 0),
        workers(experiments(args.seconds))
    );
    (red, times)
}

/// `--trace 0`: end-to-end metrics of the untraced batch.
pub fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (red, setups) = setup(args);
    let n = experiments(args.seconds);
    let host0 = HostTicks::now();
    let (results, laps) = match untraced(&red, args.seed, laps(args.seconds)) {
        Ok(pass) => pass,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let steal = match (host0, HostTicks::now()) {
        (Ok(h0), Ok(h1)) => h1.steal_share_since(h0),
        _ => {
            out.problems
                .push("cannot read /proc/stat for host steal".into());
            0.0
        }
    };
    // Peak heap of one experiment run alone: with two workers the
    // pass's peak depends on how their allocations happen to overlap.
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let alone = run_experiment(&red, &config(experiment_seed(args.seed, 0)));
    let peak = alloc::peak_bytes().saturating_sub(base);
    let alone = alone.map(|r| r.location).map_err(|e| e.to_string());
    out.check(alone == results[0], || {
        format!(
            "seed {} run alone gave {alone:?}, in run_many {:?}",
            experiment_seed(args.seed, 0),
            results[0]
        )
    });

    let ok: Vec<&LocationAccuracy> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    for r in &results {
        if let Err(e) = r {
            println!("experiment failed: {e}");
        }
    }
    out.attempted = n as u64;
    out.failed = (n - ok.len()) as u64;
    let ok_frac = ok.len() as f64 / n as f64;
    let mean = |f: fn(&LocationAccuracy) -> f64| {
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().map(|a| f(a)).sum::<f64>() / ok.len() as f64
        }
    };
    let lap_figure = |better: Better, f: &dyn Fn(&Lap) -> f64| {
        stats::faster_quartile(&laps.iter().map(f).collect::<Vec<_>>(), better)
    };
    let per_s = lap_figure(Better::Higher, &|l| {
        ok_frac * LAP_EXPERIMENTS as f64 / l.wall_s
    });
    let cpu_ms_per_experiment =
        lap_figure(Better::Lower, &|l| l.cpu_s * 1e3 / LAP_EXPERIMENTS as f64);
    // `run_many` reports no time per experiment: the latency metrics
    // read the mean time an experiment held a worker.
    let workers = workers(LAP_EXPERIMENTS);
    let latency_ms = lap_figure(Better::Lower, &|l| {
        l.wall_s * 1e3 * workers as f64 / LAP_EXPERIMENTS as f64
    });
    let wall: f64 = laps.iter().map(|l| l.wall_s).sum();
    let cpu: f64 = laps.iter().map(|l| l.cpu_s).sum();
    println!("setup_s samples: {setups:?}");
    println!(
        "accuracy over {} experiments: detection rate {:.4}, false positive rate {:.4}",
        ok.len(),
        mean(|a| a.detection_rate),
        mean(|a| a.false_positive_rate)
    );
    println!(
        "pass: {n} experiments in {wall:.3} s wall, {cpu:.3} s CPU, host steal {:.2}%; {} laps \
         of {LAP_EXPERIMENTS}",
        steal * 100.0,
        laps.len()
    );
    let rates: Vec<f64> = laps
        .iter()
        .map(|l| LAP_EXPERIMENTS as f64 / l.wall_s)
        .collect();
    println!(
        "  throughput   faster quartile {per_s:>10.3} 1/s    median {:.3}; laps {:?}",
        stats::median(&rates),
        laps.iter()
            .map(|l| (LAP_EXPERIMENTS as f64 / l.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "latency per experiment: {latency_ms:.1} ms, the faster quartile over laps of the mean \
         over {LAP_EXPERIMENTS} experiments on {workers} workers (run_many gives no \
         per-experiment times, so p50 and p90 both read this mean)"
    );
    out.set("throughput_experiments_per_s", per_s);
    out.set("cpu_ms_per_experiment", cpu_ms_per_experiment);
    out.set(
        "throughput_snapshots_per_s",
        per_s * SNAPSHOTS_PER_EXPERIMENT as f64,
    );
    out.set(
        "cpu_ms_per_snapshot",
        cpu_ms_per_experiment / SNAPSHOTS_PER_EXPERIMENT as f64,
    );
    out.set("latency_p50_ms", latency_ms);
    out.set("latency_p90_ms", latency_ms);
    out.set("setup_s", stats::median(&setups));
    out.set("heap_mb", peak as f64 / 1e6);
    out.set("ok_frac", ok_frac);
    out.set("detection_rate", mean(|a| a.detection_rate));
    out.set("precision", 1.0 - mean(|a| a.false_positive_rate));
    out
}

/// One traced experiment: its spans (start times relative to the pass
/// start) and its accuracy.
struct TracedExperiment {
    spans: Vec<Span>,
    location: Result<LocationAccuracy, String>,
}

/// `run_experiment`, composed from its pieces with each one timed, on
/// worker `track`.
fn traced_experiment(
    red: &ReducedTopology,
    seed: u64,
    start: Instant,
    track: usize,
) -> TracedExperiment {
    let cfg = config(seed);
    let ns = |t: Instant| (t - start).as_nanos() as u64;
    let t_exp = Instant::now();
    let mut spans = vec![Span {
        layer: "experiment",
        parent: None,
        track,
        start_ns: ns(t_exp),
        dur_ns: 0,
    }];
    let timed = |layer: &'static str, t0: Instant, spans: &mut Vec<Span>| {
        spans.push(Span {
            layer,
            parent: Some(0),
            track,
            start_ns: ns(t0),
            dur_ns: t0.elapsed().as_nanos() as u64,
        });
    };
    let location = (|| {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut scenario =
            CongestionScenario::draw(red.num_links(), cfg.p_congested, cfg.dynamics, &mut rng);
        let ms = simulate_run(red, &mut scenario, &cfg.probe, cfg.snapshots + 1, &mut rng);
        timed("netsim", t, &mut spans);

        let train = MeasurementSet {
            snapshots: ms.snapshots[..cfg.snapshots].to_vec(),
        };
        let t = Instant::now();
        let centered = CenteredMeasurements::new(&train);
        timed("covariance", t, &mut spans);
        let eval = &ms.snapshots[cfg.snapshots];
        let y = eval.log_rates();

        let t = Instant::now();
        let (aug, _selection) = apply_budget(AugmentedSystem::build(red), cfg.pair_budget);
        timed("augmented", t, &mut spans);
        let t = Instant::now();
        let sigmas = centered.pair_covariances(&aug.pair_indices());
        timed("covariance", t, &mut spans);
        let t = Instant::now();
        let var_est = estimate_variances_from_sigmas(red, &aug, &sigmas, &cfg.variance)
            .map_err(|e| e.to_string())?;
        timed("variance", t, &mut spans);
        let t = Instant::now();
        let estimate =
            infer_link_rates(red, &var_est.v, &y, &cfg.lia).map_err(|e| e.to_string())?;
        timed("lia", t, &mut spans);
        let result =
            score_against_truth(red, &cfg, eval, &estimate, var_est.v, var_est.dropped_rows);
        Ok(result.location)
    })();
    spans[0].dur_ns = t_exp.elapsed().as_nanos() as u64;
    TracedExperiment { spans, location }
}

/// `--trace 1`: per-layer split of the same batch, plus an untraced
/// reference that every seed must score identically against.
pub fn per_layer(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (red, _) = setup(args);
    let n = experiments(args.seconds);
    let (reference, untraced_laps) = match untraced(&red, args.seed, laps(args.seconds)) {
        Ok(pass) => pass,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let untraced_wall: f64 = untraced_laps.iter().map(|l| l.wall_s).sum();

    let start = Instant::now();
    let (traced, ends) = pool::run(workers(n), n, |worker, i| {
        traced_experiment(&red, experiment_seed(args.seed, i), start, worker)
    });
    let wall = start.elapsed();

    out.attempted = n as u64;
    out.failed = traced.iter().filter(|t| t.location.is_err()).count() as u64;
    for (i, (t, u)) in traced.iter().zip(&reference).enumerate() {
        out.check(&t.location == u, || {
            format!(
                "seed {}: traced {:?} but untraced {:?}",
                experiment_seed(args.seed, i),
                t.location,
                u
            )
        });
    }

    // Merge the per-experiment spans into one trace.
    let mut spans: Vec<Span> = Vec::new();
    for t in &traced {
        let base = spans.len();
        spans.extend(t.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    // One track per worker, from the pass start until it ran out of
    // experiments. What no span covers is the pool's own overhead.
    let track_ends: Vec<u64> = ends
        .iter()
        .map(|e| (*e - start).as_nanos() as u64)
        .collect();
    println!(
        "traced batch {:.3} s vs untraced {:.3} s ({n} experiments, {} workers); self time by \
         layer:",
        wall.as_secs_f64(),
        untraced_wall,
        ends.len()
    );
    let (_, unaccounted_frac) = report::layer_split(
        &spans,
        &track_ends,
        (n as f64, "ms/experiment", 1e6),
        &mut out,
    );

    let per_experiment = |layer: &str| -> Vec<f64> {
        traced
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .map(|s| s.dur_ns as f64 / 1e6)
                    .sum()
            })
            .collect()
    };
    let netsim: Vec<f64> = per_experiment("netsim")
        .iter()
        .map(|ms| ms / SNAPSHOTS_PER_EXPERIMENT as f64)
        .collect();
    let mut lia = per_experiment("lia");
    println!(
        "samples: {n} experiments per layer (p90 has {} beyond)",
        stats::samples_beyond(n, 90)
    );
    out.set("netsim.simulate_ms", stats::median(&netsim));
    out.set(
        "augmented.build_ms",
        stats::median(&per_experiment("augmented")),
    );
    out.set(
        "covariance.ms",
        stats::median(&per_experiment("covariance")),
    );
    out.set("variance.ms", stats::median(&per_experiment("variance")));
    out.set("lia.ms", stats::median(&lia));
    out.set("lia.p90_ms", stats::percentile(&mut lia, 90));
    out.set("trace.unaccounted_frac", unaccounted_frac);
    out.set(
        "trace.overhead_frac",
        wall.as_secs_f64() / untraced_wall - 1.0,
    );
    // The wire, fleet, streaming and churn layers are not on the batch
    // path: they did no work here.
    for (name, _) in crate::report::PER_LAYER {
        if !out.metrics.iter().any(|(n, _)| *n == name) {
            out.set(name, 0.0);
        }
    }
    out
}
