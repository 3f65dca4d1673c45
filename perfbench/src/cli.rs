//! Strict command-line parsing: an unknown workload, an unknown flag,
//! a repeated flag, a missing value or an unparseable number is an
//! error, never a silent default.

use std::fmt;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper tree, one tenant, refresh on every row, routes swap every
    /// 25 snapshots.
    Churn,
    /// The paper's Section-6 batch experiment on the tree.
    Batch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Churn, Workload::Batch];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "tree-churn",
            Workload::Batch => "tree-batch",
        }
    }

    /// The seed a run uses when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Batch => 100,
            _ => 1,
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Nominal length of the measured pass, in seconds.
    pub seconds: u32,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Nominal pass length when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u32 = 30;

/// Longest pass a run may ask for; the whole run must stay well under
/// three minutes.
pub const MAX_SECONDS: u32 = 60;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage text printed with every refusal.
pub const USAGE: &str =
    "usage: perfbench --workload <tree-churn|tree-batch> [--seed <u64>] [--seconds <1..=60>] \
[--trace <0|1>]";

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, CliError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(CliError(format!("unknown argument `{other}`"))),
        };
        if slot.is_some() {
            return Err(CliError(format!("`{flag}` given twice")));
        }
        let value = it
            .next()
            .ok_or_else(|| CliError(format!("`{flag}` needs a value")))?;
        *slot = Some(value);
    }
    let workload = workload.ok_or_else(|| CliError("`--workload` is required".into()))?;
    let workload = Workload::parse(&workload)
        .ok_or_else(|| CliError(format!("unknown workload `{workload}`")))?;
    let seed = match seed {
        None => workload.default_seed(),
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| CliError(format!("`--seed {s}` is not an unsigned integer")))?,
    };
    let seconds = match seconds {
        None => DEFAULT_SECONDS,
        Some(s) => match s.parse::<u32>() {
            Ok(v) if (1..=MAX_SECONDS).contains(&v) => v,
            _ => {
                return Err(CliError(format!(
                    "`--seconds {s}` is not a whole number in 1..={MAX_SECONDS}"
                )))
            }
        },
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(CliError(format!("`--trace {other}` must be 0 or 1"))),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Args, CliError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_command_line_parses() {
        let a = run(&[
            "--workload",
            "tree-churn",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Churn,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn defaults_fill_optional_flags() {
        let a = run(&["--workload", "tree-batch"]).expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (100, DEFAULT_SECONDS, false));
        for w in Workload::ALL {
            assert_eq!(run(&["--workload", w.name()]).expect("valid").workload, w);
        }
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            &["--workload", "tree"][..],
            &["--workload", "planetlab-churn"],
            &["--workload", "tree-drift"],
            &["--workload", "tree-ingest"],
            &["--workload", "tree-churn", "--sed", "1"],
            &["--workload", "tree-churn", "--seed", "-1"],
            &["--workload", "tree-churn", "--seed", "1x"],
            &["--workload", "tree-churn", "--seed"],
            &["--workload", "tree-churn", "--seconds", "0"],
            &["--workload", "tree-churn", "--seconds", "61"],
            &["--workload", "tree-churn", "--seconds", "2.5"],
            &["--workload", "tree-churn", "--trace", "yes"],
            &["--workload", "tree-churn", "--workload", "tree-batch"],
            &["--seed", "1"],
            &["tree-churn"],
        ] {
            assert!(run(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
