//! Shared harness for the experiment binaries and Criterion benches.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/` (see the README's experiment binary reference); this
//! library holds the pieces they share: named topology builders at
//! paper or reduced scale, a tiny CLI-flag parser, and
//! table-formatting helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use losstomo_core::experiment::average_location;
use losstomo_core::{run_many, ExperimentConfig, ExperimentResult, LocationAccuracy};
use losstomo_topology::gen::{
    barabasi::{self, BarabasiParams},
    dimes::{self, DimesParams},
    hierarchical::{self, HierMode, HierParams},
    planetlab::{self, PlanetLabParams},
    tree::{self, TreeParams},
    waxman::{self, WaxmanParams},
    GeneratedTopology,
};
use losstomo_topology::{compute_paths, flutter, reduce, ReducedTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How large to build the simulated topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (1000-node meshes, 1000-node trees).
    Paper,
    /// Reduced sizes for quick runs and CI.
    Quick,
}

impl Scale {
    /// Parses `--scale paper|quick` from the CLI (default paper); any
    /// other value exits with code 2 and a usage line.
    pub fn from_args() -> Scale {
        or_usage_exit(Scale::parse_args(&cli_args()), SCALE_RUNS_USAGE)
    }

    /// Parses `--scale paper|quick` from `args` (default paper when the
    /// flag is absent).
    pub fn parse_args(args: &[String]) -> Result<Scale, String> {
        match flag_in(args, "--scale")? {
            None | Some("paper") => Ok(Scale::Paper),
            Some("quick") => Ok(Scale::Quick),
            Some(other) => Err(format!("`--scale {other}` must be `paper` or `quick`")),
        }
    }

    /// The name recorded in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }
}

/// The common envelope every `BENCH_*.json` report embeds as its
/// `meta` field — one schema for all perf binaries instead of the
/// per-binary ad-hoc headers they used to emit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Version of the report: the envelope's default from
    /// [`bench_meta`], raised by a binary whose payload (its own fields
    /// next to `meta`) changed shape.
    pub schema_version: u64,
    /// The binary that produced the report.
    pub generated_by: String,
    /// `paper` or `quick`.
    pub scale: String,
}

/// Builds the standard report envelope for a perf binary.
pub fn bench_meta(generated_by: &str, scale: Scale) -> BenchMeta {
    BenchMeta {
        schema_version: 2,
        generated_by: generated_by.to_string(),
        scale: scale.name().to_string(),
    }
}

/// Serialises `report` as pretty JSON and writes it to `--out PATH`
/// (if given), else `$LOSSTOMO_BENCH_OUT/<default_name>` (if the
/// env var names an output directory — how CI and local sweeps keep
/// their artifacts away from the checked-in reports), else
/// `<repo root>/<default_name>` — the one place that knows where
/// benchmark artifacts land. Prints the written path.
pub fn write_bench_report<T: Serialize>(default_name: &str, report: &T) {
    let out_path = flag_value("--out")
        .or_else(|| {
            std::env::var("LOSSTOMO_BENCH_OUT")
                .ok()
                .filter(|dir| !dir.is_empty())
                .map(|dir| format!("{}/{default_name}", dir.trim_end_matches('/')))
        })
        .unwrap_or_else(|| {
            // Two levels above this crate's manifest = the repo root, so
            // the file lands in the same place from any working directory.
            format!("{}/../../{default_name}", env!("CARGO_MANIFEST_DIR"))
        });
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create benchmark output directory");
        }
    }
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    println!("wrote {out_path}");
}

/// One cell of an experiment grid: a row label plus the experiment
/// configuration to average over the seed sweep.
#[derive(Debug, Clone)]
pub struct GridCase {
    /// Row label shown in the printed table.
    pub label: String,
    /// The configuration of this cell (its `seed` is the sweep base:
    /// [`run_many`] runs seeds `seed..seed + runs`).
    pub cfg: ExperimentConfig,
}

impl GridCase {
    /// Builds a cell from any displayable label.
    pub fn new(label: impl Into<String>, cfg: ExperimentConfig) -> Self {
        GridCase {
            label: label.into(),
            cfg,
        }
    }
}

/// Aggregated outcome of one grid cell across its seed sweep.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// The cell's label.
    pub label: String,
    /// Mean detection rate over the successful runs.
    pub mean_dr: f64,
    /// Mean false-positive rate over the successful runs.
    pub mean_fpr: f64,
    /// Every successful run, for bins that derive extra columns.
    pub results: Vec<ExperimentResult>,
    /// Runs that failed (singular systems etc.) and were skipped.
    pub failed: usize,
}

impl GridOutcome {
    /// Mean of `f` over the runs that carry the metric (`None`s — e.g.
    /// a baseline only some configurations request — do not dilute the
    /// mean). 0 when no run carries it (check [`GridOutcome::failed`]).
    pub fn mean_of(&self, f: impl Fn(&ExperimentResult) -> Option<f64>) -> f64 {
        let (mut sum, mut count) = (0.0, 0u32);
        for v in self.results.iter().filter_map(&f) {
            sum += v;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / f64::from(count)
        }
    }
}

/// Runs the `runs`-seed sweep and returns the averaged location
/// accuracy — the one-cell shortcut for binaries that only need DR/FPR
/// (failed runs are dropped from the average, as in [`run_grid`]).
pub fn run_many_location(
    red: &losstomo_topology::ReducedTopology,
    cfg: &ExperimentConfig,
    runs: usize,
) -> LocationAccuracy {
    average_location(&run_many(red, cfg, runs))
}

/// Runs a config grid over one topology: each case is averaged over
/// `runs` seeds via [`run_many`] (parallel, seed-ordered), failures are
/// counted, and DR/FPR means are precomputed — the seed-sweep ×
/// config-grid loop every table-style experiment binary used to
/// hand-roll.
pub fn run_grid(
    red: &losstomo_topology::ReducedTopology,
    cases: Vec<GridCase>,
    runs: usize,
) -> Vec<GridOutcome> {
    cases
        .into_iter()
        .map(|case| {
            let results = run_many(red, &case.cfg, runs);
            let mut ok = Vec::new();
            let mut failed = 0usize;
            for r in results {
                match r {
                    Ok(r) => ok.push(r),
                    Err(_) => failed += 1,
                }
            }
            // All-failed cells report 0 (not NaN); the failure count
            // is surfaced by `print_grid_dr_fpr` and `failed`.
            let (mean_dr, mean_fpr) = if ok.is_empty() {
                (0.0, 0.0)
            } else {
                let n = ok.len() as f64;
                (
                    ok.iter().map(|r| r.location.detection_rate).sum::<f64>() / n,
                    ok.iter()
                        .map(|r| r.location.false_positive_rate)
                        .sum::<f64>()
                        / n,
                )
            };
            GridOutcome {
                label: case.label,
                mean_dr,
                mean_fpr,
                results: ok,
                failed,
            }
        })
        .collect()
}

/// Aggregated outcome of one cell of a *metric* grid (see
/// [`run_grid_metric`]): a scalar per successful seed instead of a full
/// [`ExperimentResult`].
#[derive(Debug, Clone)]
pub struct MetricOutcome {
    /// The cell's label.
    pub label: String,
    /// Mean metric over the successful runs (0 when all runs failed —
    /// check [`MetricOutcome::failed`]).
    pub mean: f64,
    /// Every successful run's metric, in seed order.
    pub values: Vec<f64>,
    /// Runs that failed and were skipped.
    pub failed: usize,
}

/// [`run_grid`] for binaries whose per-seed measurement is *not*
/// [`losstomo_core::run_experiment`] — cross-validation rounds, churn
/// replays, anything that reduces one seeded run to a scalar. Each
/// cell's `runner` is called with seeds `cfg.seed .. cfg.seed + runs`
/// (in parallel across [`losstomo_core::parallel::num_threads`]
/// workers, results in seed order), failures are counted per cell, and
/// the per-cell mean is precomputed.
pub fn run_grid_metric<F>(cases: Vec<GridCase>, runs: usize, runner: F) -> Vec<MetricOutcome>
where
    F: Fn(&ExperimentConfig) -> Result<f64, losstomo_linalg::LinalgError> + Sync,
{
    cases
        .into_iter()
        .map(|case| {
            let n_threads = losstomo_core::parallel::num_threads().min(runs.max(1));
            let slots: std::sync::Mutex<Vec<Option<Result<f64, losstomo_linalg::LinalgError>>>> =
                std::sync::Mutex::new((0..runs).map(|_| None).collect());
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..n_threads {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= runs {
                            break;
                        }
                        let mut run_cfg = case.cfg;
                        run_cfg.seed = case.cfg.seed + i as u64;
                        let r = runner(&run_cfg);
                        slots.lock().expect("slot lock")[i] = Some(r);
                    });
                }
            });
            let mut values = Vec::with_capacity(runs);
            let mut failed = 0usize;
            for r in slots
                .into_inner()
                .expect("slot lock")
                .into_iter()
                .map(|s| s.expect("worker filled slot"))
            {
                match r {
                    Ok(v) => values.push(v),
                    Err(_) => failed += 1,
                }
            }
            let mean = if values.is_empty() {
                0.0
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            MetricOutcome {
                label: case.label,
                mean,
                values,
                failed,
            }
        })
        .collect()
}

/// Prints the standard `label | DR | FPR` table for a grid's outcomes
/// (label column sized to the widest label).
pub fn print_grid_dr_fpr(label_header: &str, outcomes: &[GridOutcome]) {
    let width = outcomes
        .iter()
        .map(|o| o.label.len())
        .chain([label_header.len()])
        .max()
        .unwrap_or(8);
    let header = format!("{label_header:<width$} {:>8} {:>8}", "DR", "FPR");
    println!("{header}");
    rule(&header);
    for o in outcomes {
        if o.results.is_empty() {
            println!("{:<width$} (all {} runs failed)", o.label, o.failed);
            continue;
        }
        println!(
            "{:<width$} {:>8} {:>8}",
            o.label,
            pct(o.mean_dr),
            pct(o.mean_fpr)
        );
    }
}

/// A prepared topology: generator output plus the reduced routing
/// matrix, with fluttering paths already removed (Assumption T.2).
pub struct PreparedTopology {
    /// Short name used in table rows (e.g. "Waxman").
    pub name: &'static str,
    /// The generated graph and endpoint sets.
    pub topo: GeneratedTopology,
    /// The reduced measurement system.
    pub red: ReducedTopology,
    /// Paths removed by flutter filtering.
    pub removed_fluttering: usize,
}

/// Builds a named topology, routes all beacon→destination paths,
/// removes fluttering pairs and reduces to the routing matrix.
pub fn prepare(name: &'static str, topo: GeneratedTopology) -> PreparedTopology {
    let mut paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let removed = flutter::remove_fluttering_paths(&mut paths);
    let red = reduce(&topo.graph, &paths);
    PreparedTopology {
        name,
        topo,
        red,
        removed_fluttering: removed.len(),
    }
}

/// The Section-6.1 tree (1000 nodes, branching ≤ 10 at paper scale).
pub fn tree_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => TreeParams::default(),
        Scale::Quick => TreeParams {
            nodes: 200,
            max_branching: 8,
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare("Tree", tree::generate(params, &mut rng))
}

/// BRITE-like Waxman mesh (Table 2 row 2).
pub fn waxman_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => WaxmanParams::default(),
        Scale::Quick => WaxmanParams {
            nodes: 150,
            hosts: 16,
            ..WaxmanParams::default()
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare("Waxman", waxman::generate(params, &mut rng))
}

/// BRITE-like Waxman mesh at an explicit node count — the
/// `scale_phase2` scenario pushing past the paper's 1000-node meshes
/// (5k–10k nodes; the reduced system grows to several thousand virtual
/// links, where the sparse Phase-2 path is the only practical one).
pub fn waxman_scale_topology(nodes: usize, hosts: usize, seed: u64) -> PreparedTopology {
    let params = WaxmanParams {
        nodes,
        hosts,
        ..WaxmanParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare("Waxman-scale", waxman::generate(params, &mut rng))
}

/// BRITE-like Barabási–Albert mesh (Table 2 row 1).
pub fn barabasi_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => BarabasiParams::default(),
        Scale::Quick => BarabasiParams {
            nodes: 150,
            hosts: 16,
            ..BarabasiParams::default()
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare("Barabasi-Albert", barabasi::generate(params, &mut rng))
}

/// BRITE-like hierarchical top-down mesh (Table 2 row 3).
pub fn hierarchical_td_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => HierParams::default(),
        Scale::Quick => HierParams {
            as_count: 6,
            routers_per_as: 20,
            hosts: 16,
            mode: HierMode::TopDown,
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare(
        "Hierarchical (Top-Down)",
        hierarchical::generate(params, &mut rng),
    )
}

/// BRITE-like hierarchical bottom-up mesh (Table 2 row 4).
pub fn hierarchical_bu_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => HierParams {
            mode: HierMode::BottomUp,
            ..HierParams::default()
        },
        Scale::Quick => HierParams {
            as_count: 6,
            routers_per_as: 20,
            hosts: 16,
            mode: HierMode::BottomUp,
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare(
        "Hierarchical (Bottom-Up)",
        hierarchical::generate(params, &mut rng),
    )
}

/// Synthetic PlanetLab-like mesh (Table 2 row 5, Sections 6.3 and 7).
pub fn planetlab_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => PlanetLabParams {
            sites: 60,
            core_routers: 15,
            ..PlanetLabParams::default()
        },
        Scale::Quick => PlanetLabParams {
            sites: 16,
            core_routers: 6,
            ..PlanetLabParams::default()
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare("PlanetLab", planetlab::generate(params, &mut rng))
}

/// Synthetic DIMES-like mesh (Table 2 row 6).
pub fn dimes_topology(scale: Scale, seed: u64) -> PreparedTopology {
    let params = match scale {
        Scale::Paper => DimesParams {
            as_count: 120,
            hosts: 60,
            ..DimesParams::default()
        },
        Scale::Quick => DimesParams {
            as_count: 30,
            hosts: 16,
            ..DimesParams::default()
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    prepare("DIMES", dimes::generate(params, &mut rng))
}

/// All six Table-2 topologies.
pub fn table2_topologies(scale: Scale, seed: u64) -> Vec<PreparedTopology> {
    vec![
        barabasi_topology(scale, seed),
        waxman_topology(scale, seed + 1),
        hierarchical_td_topology(scale, seed + 2),
        hierarchical_bu_topology(scale, seed + 3),
        planetlab_topology(scale, seed + 4),
        dimes_topology(scale, seed + 5),
    ]
}

/// Returns the value following a `--flag` CLI argument.
pub fn flag_value(name: &str) -> Option<String> {
    let args = cli_args();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cli_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The value of `name` in `args`: `None` when the flag is absent, an
/// error when it is the last argument and has no value.
fn flag_in<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("`{name}` needs a value")),
    }
}

/// The flags every figure binary takes, as its usage line shows them.
const SCALE_RUNS_USAGE: &str = "[--scale paper|quick] [--runs <n ≥ 1>]";

/// Unwraps a CLI parse, or prints the error and the usage line
/// `usage: <binary> <flags>` and exits with code 2.
fn or_usage_exit<T>(parsed: Result<T, String>, flags: &str) -> T {
    parsed.unwrap_or_else(|err| {
        let bin = std::env::args().next().unwrap_or_default();
        let bin = std::path::Path::new(&bin)
            .file_name()
            .map_or_else(|| bin.clone(), |name| name.to_string_lossy().into_owned());
        eprintln!("error: {err}");
        eprintln!("usage: {bin} {flags}");
        std::process::exit(2)
    })
}

/// Parses `--runs N` (defaulting to `default`, the paper's 10 for most
/// binaries); a value that is not a positive integer exits with code 2
/// and a usage line.
pub fn runs_from_args(default: usize) -> usize {
    or_usage_exit(parse_runs(&cli_args(), default), SCALE_RUNS_USAGE)
}

/// Parses `--runs N` from `args`: `default` when the flag is absent, an
/// error unless `N` is a positive integer.
pub fn parse_runs(args: &[String], default: usize) -> Result<usize, String> {
    parse_count(args, "--runs", default)
}

/// Parses a positive-integer flag such as `--nodes N` or
/// `--snapshots N` (defaulting to `default`); a value that is not a
/// positive integer exits with code 2 and a usage line.
pub fn count_from_args(name: &str, default: usize) -> usize {
    or_usage_exit(
        parse_count(&cli_args(), name, default),
        &format!("[{name} <n ≥ 1>] [other flags]"),
    )
}

/// Parses the flag `name` from `args` as a positive integer: `default`
/// when the flag is absent, an error when its value is missing or not
/// a positive integer.
pub fn parse_count(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_in(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("`{name} {v}` is not a positive integer")),
    }
}

/// The `q`-quantile of a set of timing samples, in milliseconds
/// (nearest-rank on the sorted slice; sorts in place). Shared by the
/// perf binaries so their reported p50/p99 use one definition.
pub fn percentile_ms(samples: &mut [std::time::Duration], q: f64) -> f64 {
    assert!(!samples.is_empty(), "need at least one sample");
    samples.sort_unstable();
    let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
    samples[idx].as_secs_f64() * 1e3
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_topologies_build_and_reduce() {
        for prep in table2_topologies(Scale::Quick, 1) {
            assert!(prep.red.num_paths() > 0, "{} has no paths", prep.name);
            assert!(prep.red.num_links() > 0, "{} has no links", prep.name);
            assert!(
                prep.red.num_links() <= prep.topo.graph.link_count(),
                "{}: more virtual links than physical",
                prep.name
            );
        }
    }

    #[test]
    fn tree_is_single_beacon() {
        let prep = tree_topology(Scale::Quick, 2);
        assert_eq!(prep.topo.beacons.len(), 1);
        assert_eq!(prep.removed_fluttering, 0, "trees never flutter");
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn scale_flag_is_parsed_strictly() {
        assert_eq!(Scale::parse_args(&args(&[])), Ok(Scale::Paper));
        assert_eq!(
            Scale::parse_args(&args(&["--scale", "paper"])),
            Ok(Scale::Paper)
        );
        assert_eq!(
            Scale::parse_args(&args(&["--runs", "1", "--scale", "quick"])),
            Ok(Scale::Quick)
        );
        for bad in [
            &["--scale", "quik"][..],
            &["--scale", "Quick"],
            &["--scale"],
        ] {
            assert!(Scale::parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn runs_flag_is_parsed_strictly() {
        assert_eq!(parse_runs(&args(&["--scale", "quick"]), 10), Ok(10));
        assert_eq!(parse_runs(&args(&["--runs", "3"]), 10), Ok(3));
        for bad in [
            &["--runs", "x"][..],
            &["--runs", "0"],
            &["--runs", "-1"],
            &["--runs"],
        ] {
            assert!(parse_runs(&args(bad), 10).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn count_flags_are_parsed_strictly() {
        let argv = args(&["--scale", "quick", "--nodes", "80", "--snapshots", "12"]);
        assert_eq!(parse_count(&argv, "--nodes", 200), Ok(80));
        assert_eq!(parse_count(&argv, "--snapshots", 50), Ok(12));
        assert_eq!(parse_count(&argv, "--tenants", 6), Ok(6));
        for bad in [
            &["--nodes", "eighty"][..],
            &["--nodes", "0"],
            &["--nodes", "-3"],
            &["--nodes", "1.5"],
            &["--nodes", ""],
            &["--nodes"],
        ] {
            let err = parse_count(&args(bad), "--nodes", 200).unwrap_err();
            assert!(err.contains("--nodes"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn run_grid_metric_sweeps_seeds_in_order() {
        let cases = vec![
            GridCase::new(
                "a",
                ExperimentConfig {
                    seed: 100,
                    ..ExperimentConfig::default()
                },
            ),
            GridCase::new(
                "b",
                ExperimentConfig {
                    seed: 200,
                    ..ExperimentConfig::default()
                },
            ),
        ];
        let outcomes = run_grid_metric(cases, 4, |cfg| Ok(cfg.seed as f64));
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, "a");
        assert_eq!(outcomes[0].values, vec![100.0, 101.0, 102.0, 103.0]);
        assert_eq!(outcomes[0].mean, 101.5);
        assert_eq!(outcomes[1].values, vec![200.0, 201.0, 202.0, 203.0]);
        assert_eq!(outcomes[0].failed, 0);
    }

    #[test]
    fn run_grid_metric_counts_failures_without_poisoning_mean() {
        let cases = vec![GridCase::new("c", ExperimentConfig::default())];
        let outcomes = run_grid_metric(cases, 5, |cfg| {
            if cfg.seed % 2 == 0 {
                Ok(1.0)
            } else {
                Err(losstomo_linalg::LinalgError::Empty)
            }
        });
        assert_eq!(outcomes[0].values, vec![1.0, 1.0, 1.0]);
        assert_eq!(outcomes[0].failed, 2);
        assert_eq!(outcomes[0].mean, 1.0);
        // All-failed cells report 0, not NaN.
        let all_fail = run_grid_metric(
            vec![GridCase::new("d", ExperimentConfig::default())],
            2,
            |_| Err::<f64, _>(losstomo_linalg::LinalgError::Empty),
        );
        assert_eq!(all_fail[0].mean, 0.0);
        assert_eq!(all_fail[0].failed, 2);
    }
}
