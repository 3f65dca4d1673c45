//! scale_simd — scalar vs AVX2 microkernel wall-clock at paper scale.
//!
//! Times both SIMD-dispatched kernel families that inference runs,
//! under an explicitly forced engine (`Engine::Scalar` vs
//! `Engine::Avx2`, plus `avx2+fma` where the CPU has it) on
//! paper-scale inputs:
//!
//! * **cholesky** — `Cholesky::factor_into_with` on the SPD matrix
//!   `RᵀR + I` of the paper tree's routing matrix `R` (the
//!   trailing-update kernel dominates);
//! * **covariance** — `CenteredMeasurements::pair_covariances_with_engine`
//!   over the tree's augmented pair list (the four-chain pair kernel);
//! * **covariance-tiles** — the same pairs through their `PairPlan`
//!   (`PairPlan::covariances_with_engine`), which on this dense tree
//!   pair set runs the 4×8 tile kernel.
//!
//! The non-FMA AVX2 engine is asserted **bit-identical** to scalar on
//! every kernel; the opt-in `avx2+fma` engine's maximum relative
//! deviation is recorded (contracted rounding, ~1e-16 per op). At paper
//! scale on AVX2 hardware the report gates in-binary: every kernel of
//! both families must show a ≥1.5× SIMD speedup.
//!
//! Flags: `--scale quick|paper`, `--runs N`, `--out PATH`. Writes
//! `BENCH_simd.json`.

use losstomo_bench::{
    bench_meta, runs_from_args, tree_topology, write_bench_report, BenchMeta, Scale,
};
use losstomo_core::covariance::{PairPlan, PlanKind};
use losstomo_core::{AugmentedSystem, CenteredMeasurements};
use losstomo_linalg::{Cholesky, Engine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// One kernel × engine-set measurement.
#[derive(Debug, Serialize, Deserialize)]
struct KernelTiming {
    /// Kernel name (`cholesky`, `covariance`).
    kernel: String,
    /// Dispatch family the kernel belongs to (the gate counts families).
    family: String,
    /// Problem dimensions, human-readable.
    dims: String,
    /// Best wall of the forced-scalar engine, milliseconds.
    scalar_ms: f64,
    /// Best wall of the forced-AVX2 (non-FMA) engine; absent off x86.
    avx2_ms: Option<f64>,
    /// Best wall of the opt-in `avx2+fma` engine, when the CPU has FMA.
    avx2_fma_ms: Option<f64>,
    /// `scalar_ms / avx2_ms`.
    speedup_avx2: Option<f64>,
    /// Non-FMA AVX2 output is bit-for-bit the scalar output.
    bitwise_identical_avx2: Option<bool>,
    /// Max relative deviation of the FMA engine from scalar.
    max_rel_dev_fma: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct SimdBenchReport {
    meta: BenchMeta,
    /// AVX2 detected at runtime on this host.
    avx2_available: bool,
    /// FMA detected at runtime on this host.
    fma_available: bool,
    /// Engine the default `LOSSTOMO_SIMD`-driven dispatch resolves to.
    default_engine: String,
    /// Interleaved timing rounds per kernel (best-of reported).
    runs: usize,
    kernels: Vec<KernelTiming>,
    /// Families whose every kernel has a ≥1.5× AVX2 speedup (gated at
    /// 2 of 2 at paper scale).
    families_at_gate: usize,
}

/// Max relative deviation between two equally-shaped value slices.
fn max_rel_dev(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let scale = x.abs().max(y.abs());
            if scale == 0.0 {
                0.0
            } else {
                (x - y).abs() / scale
            }
        })
        .fold(0.0, f64::max)
}

/// Times one kernel under every available engine.
///
/// `time_fn` runs just the kernel under a forced engine (the timed
/// region — no allocation or conversion of engine-independent cost);
/// `out_fn` runs it once more and returns the output as a flat value
/// slice (bit-compared for the non-FMA engine, tolerance-compared for
/// FMA).
fn bench_kernel<T, F>(
    kernel: &str,
    family: &str,
    dims: String,
    runs: usize,
    mut time_fn: T,
    mut out_fn: F,
) -> KernelTiming
where
    T: FnMut(Engine),
    F: FnMut(Engine) -> Vec<f64>,
{
    // Engines are timed interleaved (scalar, avx2, fma, scalar, …) and
    // the best of `runs` rounds is kept per engine: interference on a
    // shared host then hits every engine symmetrically instead of
    // biasing whichever one owned the noisy window.
    let mut engines = vec![Engine::Scalar];
    if Engine::avx2_available() {
        engines.push(Engine::Avx2 { fma: false });
    }
    if Engine::fma_available() {
        engines.push(Engine::Avx2 { fma: true });
    }
    let reference = out_fn(Engine::Scalar); // warm-up + scalar reference output
    let mut best = vec![f64::INFINITY; engines.len()];
    for _ in 0..runs {
        for (e, wall) in engines.iter().zip(best.iter_mut()) {
            let t0 = Instant::now();
            time_fn(*e);
            *wall = wall.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let scalar_ms = best[0];
    let (mut avx2_ms, mut speedup, mut bitwise) = (None, None, None);
    let (mut fma_ms, mut fma_dev) = (None, None);
    if Engine::avx2_available() {
        bitwise = Some(out_fn(Engine::Avx2 { fma: false }) == reference);
        speedup = Some(scalar_ms / best[1].max(1e-9));
        avx2_ms = Some(best[1]);
        if Engine::fma_available() {
            fma_dev = Some(max_rel_dev(&out_fn(Engine::Avx2 { fma: true }), &reference));
            fma_ms = Some(best[2]);
        }
    }
    let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |w| format!("{w:.2}ms"));
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8}   {}",
        kernel,
        format!("{scalar_ms:.2}ms"),
        fmt(avx2_ms),
        fmt(fma_ms),
        speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        dims
    );
    KernelTiming {
        kernel: kernel.to_string(),
        family: family.to_string(),
        dims,
        scalar_ms,
        avx2_ms,
        avx2_fma_ms: fma_ms,
        speedup_avx2: speedup,
        bitwise_identical_avx2: bitwise,
        max_rel_dev_fma: fma_dev,
    }
}

/// Deterministic centered-measurement window over `paths` paths.
fn synthetic_measurements(paths: usize, snapshots: usize) -> CenteredMeasurements {
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<Vec<f64>> = (0..snapshots)
        .map(|_| (0..paths).map(|_| rng.gen_range(-0.08..0.0)).collect())
        .collect();
    CenteredMeasurements::from_rows(rows)
}

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(match scale {
        Scale::Paper => 5,
        Scale::Quick => 3,
    });
    println!(
        "scale_simd — scalar vs AVX2 microkernels ({} scale, {} runs, avx2={}, fma={})",
        scale.name(),
        runs,
        Engine::avx2_available(),
        Engine::fma_available()
    );
    println!();

    let tree = tree_topology(scale, 11);
    let r = tree.red.matrix.to_dense();
    let (np, nl) = (r.rows(), r.cols());
    println!("inputs: {} ({np} paths × {nl} links)", tree.name);

    // SPD input for the Cholesky kernel: RᵀR plus a diagonal bump that
    // keeps the tree's rank-deficient Gram positive definite.
    let mut spd = r.gram();
    for i in 0..nl {
        spd[(i, i)] += 1.0;
    }
    let snapshots = match scale {
        Scale::Paper => 240,
        Scale::Quick => 60,
    };
    let pairs = AugmentedSystem::build(&tree.red).pair_indices();
    let meas = synthetic_measurements(np, snapshots);
    let plan = PairPlan::new(np, &pairs);
    assert_eq!(
        plan.kind(),
        PlanKind::Tiles,
        "the tree's pair set plans as tiles"
    );

    let header = format!(
        "{:<16} {:>12} {:>12} {:>12} {:>8}   {}",
        "kernel", "scalar", "avx2", "avx2+fma", "speedup", "dims"
    );
    println!();
    println!("{header}");
    losstomo_bench::rule(&header);

    // A reused factorisation workspace so the timed region is the
    // kernel itself, not constructor overhead (RefCell: the timing and
    // output closures share the workspace).
    let chol = RefCell::new(Cholesky::new(&spd).expect("SPD by construction"));
    let kernels = vec![
        bench_kernel(
            "cholesky",
            "cholesky",
            format!("chol({nl}x{nl})"),
            runs,
            |e| {
                let mut chol = chol.borrow_mut();
                chol.factor_into_with(&spd, e).expect("SPD by construction");
                black_box(&*chol);
            },
            |e| {
                let mut chol = chol.borrow_mut();
                chol.factor_into_with(&spd, e).expect("SPD by construction");
                chol.l().as_slice().to_vec()
            },
        ),
        bench_kernel(
            "covariance",
            "covariance",
            format!("{} pairs × {snapshots} snapshots", pairs.len()),
            runs,
            |e| {
                black_box(meas.pair_covariances_with_engine(&pairs, e));
            },
            |e| meas.pair_covariances_with_engine(&pairs, e),
        ),
        bench_kernel(
            "covariance-tiles",
            "covariance",
            format!("{} pairs × {snapshots} snapshots, 4×8 tiles", pairs.len()),
            runs,
            |e| {
                black_box(plan.covariances_with_engine(&meas, e));
            },
            |e| plan.covariances_with_engine(&meas, e),
        ),
    ];
    // Either kernel computes the same covariances, bit for bit.
    assert!(
        plan.covariances_with_engine(&meas, Engine::Scalar)
            == meas.pair_covariances_with_engine(&pairs, Engine::Scalar),
        "the tile kernel drifted from the pair kernel"
    );

    // Exactness: the default (non-FMA) AVX2 engine must reproduce the
    // scalar kernels bit-for-bit, at every scale.
    for k in &kernels {
        if let Some(identical) = k.bitwise_identical_avx2 {
            assert!(
                identical,
                "{} AVX2 kernel diverged bitwise from scalar — the exactness contract is broken",
                k.kernel
            );
        }
    }

    // Speed gate: at paper scale on AVX2 hardware, every kernel of
    // both families must clear 1.5x.
    let mut families: Vec<&str> = Vec::new();
    for k in &kernels {
        let family_clears = kernels
            .iter()
            .filter(|other| other.family == k.family)
            .all(|other| other.speedup_avx2.is_some_and(|s| s >= 1.5));
        if family_clears && !families.contains(&k.family.as_str()) {
            families.push(&k.family);
        }
    }
    let families_at_gate = families.len();
    println!();
    println!(
        "families ≥1.5x under AVX2: {families_at_gate}/2 ({})",
        if families.is_empty() {
            "none".to_string()
        } else {
            families.join(", ")
        }
    );
    if scale == Scale::Paper && Engine::avx2_available() {
        assert!(
            families_at_gate == 2,
            "SIMD dispatch must speed up both kernel families by ≥1.5x at paper scale, \
             got {families_at_gate}"
        );
    }

    let report = SimdBenchReport {
        meta: bench_meta("scale_simd", scale),
        avx2_available: Engine::avx2_available(),
        fma_available: Engine::fma_available(),
        default_engine: losstomo_linalg::simd::active().name().to_string(),
        runs,
        kernels,
        families_at_gate,
    };
    write_bench_report("BENCH_simd.json", &report);
}
