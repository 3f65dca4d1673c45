//! `perfbench` — the repository benchmark: wire bytes in, congestion
//! events out, measured end to end and split by layer.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `perfbench/README.md`):
//! `tree-churn` and `tree-batch`. Inputs are generated from the seed
//! before any timing starts. `--trace 0`
//! prints the end-to-end metrics of an untraced run; `--trace 1` prints
//! the per-layer metrics of a traced replay of the same inputs.
//! Diagnostics come first; the last line is the JSON result.

mod alloc;
mod batch;
mod cli;
mod inputs;
mod pool;
mod procfs;
mod report;
mod stats;
mod stream;

use cli::Workload;
use report::{END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let mut outcome = match (args.workload, args.trace) {
        (Workload::Batch, false) => batch::end_to_end(&args),
        (Workload::Batch, true) => batch::per_layer(&args),
        (_, false) => stream::end_to_end(&args),
        (_, true) => stream::per_layer(&args),
    };
    println!(
        "host: {} hardware threads, {} worker threads by the LOSSTOMO_THREADS policy, {} kernels",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        losstomo_linalg::parallel::num_threads(),
        losstomo_linalg::simd::active().name()
    );
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.result_line(catalogue);
    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    println!("{line}");
}
