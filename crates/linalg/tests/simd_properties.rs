//! Property tests pinning the AVX2 microkernels to the scalar
//! reference loops **bit-for-bit**.
//!
//! The SIMD module's whole contract is that the AVX2 engine is
//! indistinguishable from the scalar kernels — not "close",
//! identical, down to NaN/∞ placement and which entries round to exact
//! zero. Every comparison here is therefore on `f64::to_bits`, and the
//! strategies deliberately hit the awkward shapes: the covariance
//! kernel's `m % 4` tails, Cholesky orders that cross the blocked panel
//! boundary, zero blocks the trailing sweep skips, and non-finite
//! values.
//!
//! One deliberate carve-out: NaN **payloads** are canonicalised before
//! comparison. When two distinct NaNs meet in an add (say a propagated
//! input NaN and the `∞·0` indefinite), IEEE-754 leaves the surviving
//! payload to the implementation, and LLVM freely commutes scalar
//! `a*b` operands — so exact payload bits are not stable even between
//! two scalar builds. What *is* pinned: NaNs appear in exactly the
//! same entries, and every non-NaN value (±∞ included) is bit-exact.
//!
//! On hosts without AVX2 the vector entry points decline (`None` /
//! `false`) and each test degrades to checking exactly that.

use losstomo_linalg::{simd, Cholesky, Engine, Matrix};
use proptest::prelude::*;

/// `to_bits` with NaN payloads collapsed to the canonical quiet NaN
/// (see the module doc for why payloads are not comparable).
fn canon_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| canon_bits(*v)).collect()
}

/// Strategy: covariance-kernel inputs including non-finite values, so
/// NaN/∞ propagation is part of the pinned comparison.
fn entry() -> impl Strategy<Value = f64> {
    prop_oneof![
        20 => -10.0f64..10.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        2 => Just(0.0f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pair_cov4: the 4 interleaved accumulator chains, bitwise,
    /// including `m % 4` tails continued in scalar code.
    #[test]
    fn pair_cov4_bitwise_equals_scalar_chains(
        m in 0usize..19,
        vals in proptest::collection::vec(entry(), 8 * 19),
    ) {
        let rows: Vec<&[f64]> = (0..8).map(|r| &vals[r * 19..r * 19 + m]).collect();
        let (a0, b0, a1, b1) = (rows[0], rows[1], rows[2], rows[3]);
        let (a2, b2, a3, b3) = (rows[4], rows[5], rows[6], rows[7]);
        let mut oracle = [0.0f64; 4];
        for l in 0..m {
            oracle[0] += a0[l] * b0[l];
            oracle[1] += a1[l] * b1[l];
            oracle[2] += a2[l] * b2[l];
            oracle[3] += a3[l] * b3[l];
        }
        match simd::pair_cov4(a0, b0, a1, b1, a2, b2, a3, b3) {
            Some(got) => {
                let ob: Vec<u64> = oracle.iter().map(|v| canon_bits(*v)).collect();
                let gb: Vec<u64> = got.iter().map(|v| canon_bits(*v)).collect();
                prop_assert_eq!(ob, gb);
            }
            None => prop_assert!(!Engine::avx2_available()),
        }
    }

    /// cov_tile: the 4×8 tile's 32 cells, each its own ascending chain,
    /// bitwise against the scalar tile loop and against one dot product
    /// per cell, at snapshot counts below, at and past the AVX2 body's
    /// natural widths.
    #[test]
    fn cov_tile_bitwise_equals_scalar_tile_loop(
        m in prop_oneof![Just(1usize), Just(2), Just(3), Just(23), Just(50)],
        vals in proptest::collection::vec(entry(), 12 * 50),
    ) {
        let rows: [&[f64]; 4] = std::array::from_fn(|r| &vals[r * 50..r * 50 + m]);
        let panel = &vals[4 * 50..4 * 50 + 8 * m];
        let scalar = simd::cov_tile_scalar(rows, panel);
        let mut oracle = [0.0f64; 32];
        for (cell, o) in oracle.iter_mut().enumerate() {
            for l in 0..m {
                *o += rows[cell / 8][l] * panel[l * 8 + cell % 8];
            }
        }
        let sb: Vec<u64> = scalar.iter().map(|v| canon_bits(*v)).collect();
        let ob: Vec<u64> = oracle.iter().map(|v| canon_bits(*v)).collect();
        prop_assert_eq!(&sb, &ob);
        match simd::cov_tile(rows, panel) {
            Some(got) => {
                let gb: Vec<u64> = got.iter().map(|v| canon_bits(*v)).collect();
                prop_assert_eq!(sb, gb);
            }
            None => prop_assert!(!Engine::avx2_available()),
        }
    }

    /// Cholesky: forced-scalar and forced-AVX2 factorisations of a
    /// random SPD matrix agree bitwise (small sizes — the panel is
    /// unblocked, pinning the dispatch plumbing).
    #[test]
    fn cholesky_small_bitwise_across_engines(
        n in 1usize..10,
        vals in proptest::collection::vec(-2.0f64..2.0, 10 * 10),
    ) {
        let a = Matrix::from_vec(n, n, vals[..n * n].to_vec()).unwrap();
        let mut spd = a.gram();
        for i in 0..n {
            spd[(i, i)] += 1.0 + n as f64;
        }
        let mut scalar = Cholesky::new(&spd).unwrap();
        scalar.factor_into_with(&spd, Engine::Scalar).unwrap();
        let mut vector = Cholesky::new(&spd).unwrap();
        vector.factor_into_with(&spd, Engine::Avx2).unwrap();
        prop_assert_eq!(bits(scalar.l()), bits(vector.l()));
    }
}

/// Cholesky at a size that crosses the blocked panel boundary, so the
/// packed trailing sweep (the AVX2 4×8 kernel) actually runs — with a
/// structurally sparse SPD matrix whose zero blocks exercise the
/// occupancy-flag skipping on both engines.
#[test]
fn cholesky_blocked_trailing_bitwise_across_engines() {
    let n = 150;
    // Arrow + band structure: dense band near the diagonal, a dense
    // final block row/column, zeros elsewhere — plenty of all-zero
    // 4-wide panel blocks for the occupancy flags to skip.
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i.saturating_sub(3)..=(i + 3).min(n - 1) {
            a[(i, j)] = 0.1 * ((i * 31 + j * 17) % 13) as f64 - 0.5;
        }
        for j in n - 5..n {
            a[(i, j)] = 0.05 * ((i * 7 + j) % 11) as f64;
        }
    }
    let mut spd = a.gram();
    for i in 0..n {
        spd[(i, i)] += 2.0 + n as f64;
    }
    let mut scalar = Cholesky::new(&spd).unwrap();
    scalar.factor_into_with(&spd, Engine::Scalar).unwrap();
    let mut vector = Cholesky::new(&spd).unwrap();
    vector.factor_into_with(&spd, Engine::Avx2).unwrap();
    assert_eq!(bits(scalar.l()), bits(vector.l()));
}
