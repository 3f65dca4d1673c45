//! Explicit SIMD microkernels with portable runtime dispatch.
//!
//! Three scalar kernels carry the numeric hot path of LIA: the packed
//! 4×4 Cholesky trailing kernel ([`crate::cholesky`]) that factors
//! Phase 1's normal equations, and the two kernels of the covariance
//! sweep in `losstomo-core` — the pair kernel's four interleaved
//! accumulator chains, and the 4×8 tile kernel ([`cov_tile`]) that a
//! dense pair set's plan runs. This module provides AVX2
//! implementations of those kernels behind **runtime
//! CPU-feature detection** (`is_x86_feature_detected!`), so one release
//! artifact runs on any x86-64 — the `.cargo/config.toml`
//! `target-cpu=native` reliance this replaces produced binaries that
//! crashed on older hardware.
//!
//! # Lane mapping preserves bit-exactness
//!
//! Every kernel vectorises **across independent outputs, never within
//! an accumulator chain**:
//!
//! * Cholesky trailing — lanes are the 4 columns of the 4×4 packed
//!   kernel; each of the 16 cells keeps its ascending-`k` chain,
//! * covariance pairs — lanes are the 4 interleaved pair chains;
//!   products are formed snapshot-contiguous and one 4×4 transpose feeds
//!   them to the chains in ascending snapshot order,
//! * covariance tiles — lanes are 4 columns of one row of the 4×8 tile;
//!   each of the 32 cells keeps its ascending-snapshot chain, fed by the
//!   row's value broadcast against a packed 4-column half of the panel.
//!
//! The sparse QR's Givens rotations stay scalar: they are bound by the
//! merge of the two rows' supports, and a vectorized rotation span lost
//! 20–50 % to the single-pass scalar rotation at every span length the
//! 2450-path Waxman factorisation produced.
//!
//! Since `vmulpd`/`vaddpd` are IEEE-754 exact per lane (identical to
//! the scalar `mulsd`/`addsd`), each scalar result's operation sequence
//! is unchanged and results are **bit-identical** to the reference
//! loops — NaNs and infinities included, with one caveat: when two
//! *distinct* NaNs meet in an add, IEEE-754 leaves the surviving
//! payload unspecified (and LLVM may commute scalar operands), so the
//! pinned property compares NaN *placement*, not payload bits. That is
//! a *tested* contract
//! (`crates/linalg/tests/simd_properties.rs`), and it is why the golden
//! fixtures cannot tell the engines apart. The only exception is the
//! opt-in [`SimdPolicy::Avx2Fma`] engine, which contracts `a*b + acc`
//! in the Cholesky trailing kernel into fused multiply-adds: faster and
//! *more* accurate per element, but no longer bit-equal — its users
//! accept 1e-12-tolerance comparisons instead.
//!
//! # Policy and dispatch flow
//!
//! ```text
//! LOSSTOMO_SIMD → SimdPolicy → resolve() → Engine (OnceLock, resolved once)
//!                                             │
//!        cholesky trailing update ────────────┤ per-call `active()`
//!        covariance pair sweep (core) ────────┤ (one branch per kernel
//!        covariance tile sweep (core) ────────┘  invocation, hoisted out
//!                                                of all inner loops)
//! ```
//!
//! Tests and benches force an engine per call instead
//! ([`crate::Cholesky::factor_into_with`], and the covariance sweeps'
//! `pair_covariances_with_engine` and `PairPlan::covariances_with_engine`
//! in `losstomo-core`).
//!
//! The scalar loops remain compiled unconditionally — they are the
//! fallback on non-AVX2 hardware, the `LOSSTOMO_SIMD=scalar` forced
//! path, and the property-test oracle the SIMD kernels are pinned
//! against.
//!
//! This module is the crate's single `unsafe` island (the crate is
//! otherwise `#![deny(unsafe_code)]`): `std::arch` intrinsics are
//! unsafe to call, and every call sits behind a wrapper that has
//! verified the CPU feature at runtime.

use std::sync::OnceLock;

/// SIMD policy named by the `LOSSTOMO_SIMD` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Use the best *bit-exact* engine the CPU supports (AVX2 when
    /// detected, scalar otherwise). Never selects FMA.
    Auto,
    /// Opt into AVX2 **with FMA contraction**: fastest, per-element
    /// more accurate, but not bit-identical to the scalar reference —
    /// results match to ~1e-12 relative instead. Falls back to plain
    /// AVX2, then scalar, as features are missing.
    Avx2Fma,
    /// Force the scalar reference loops (also the only engine on
    /// non-x86-64 targets).
    Scalar,
}

impl SimdPolicy {
    /// Parses a policy name as accepted by `LOSSTOMO_SIMD`. Unknown
    /// names — `avx2` among them, which names what `auto` already
    /// selects — map to [`SimdPolicy::Auto`] (the knob degrades
    /// safely).
    pub fn parse(s: &str) -> SimdPolicy {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => SimdPolicy::Scalar,
            "avx2fma" | "avx2+fma" | "fma" => SimdPolicy::Avx2Fma,
            _ => SimdPolicy::Auto,
        }
    }

    /// The policy named by `LOSSTOMO_SIMD` (unset → [`SimdPolicy::Auto`]).
    pub fn from_env() -> SimdPolicy {
        match std::env::var("LOSSTOMO_SIMD") {
            Ok(v) => SimdPolicy::parse(&v),
            Err(_) => SimdPolicy::Auto,
        }
    }
}

/// The resolved compute engine every kernel dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The reference scalar loops.
    Scalar,
    /// AVX2 256-bit lanes; `fma` additionally contracts `a*b + acc`
    /// (opt-in, tolerance-equal rather than bit-equal).
    Avx2 {
        /// Whether fused multiply-add contraction is enabled.
        fma: bool,
    },
}

impl Engine {
    /// Short engine name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Avx2 { fma: false } => "avx2",
            Engine::Avx2 { fma: true } => "avx2+fma",
        }
    }

    /// Whether this host can run the AVX2 kernels.
    pub fn avx2_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether this host can additionally contract with FMA.
    pub fn fma_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

/// Resolves a policy against the host CPU. Pure given the host: the
/// same policy always resolves to the same engine.
pub fn resolve(policy: SimdPolicy) -> Engine {
    match policy {
        SimdPolicy::Scalar => Engine::Scalar,
        SimdPolicy::Auto => {
            if Engine::avx2_available() {
                Engine::Avx2 { fma: false }
            } else {
                Engine::Scalar
            }
        }
        SimdPolicy::Avx2Fma => {
            if Engine::fma_available() {
                Engine::Avx2 { fma: true }
            } else if Engine::avx2_available() {
                Engine::Avx2 { fma: false }
            } else {
                Engine::Scalar
            }
        }
    }
}

/// The process-wide engine: `LOSSTOMO_SIMD` resolved against the host
/// on first use, then fixed for the life of the process, so kernels
/// never switch engines mid-computation. Every kernel dispatch site
/// reads it.
pub fn active() -> Engine {
    static ACTIVE: OnceLock<Engine> = OnceLock::new();
    *ACTIVE.get_or_init(|| resolve(SimdPolicy::from_env()))
}

// ---------------------------------------------------------------------
// AVX2 kernel entry points (safe wrappers).
//
// Each returns `true`/`Some` only after performing the work with the
// AVX2 (optionally FMA) instructions; a `false`/`None` return means the
// host lacks the feature and the caller must run its scalar fallback.
// Dispatch sites that already matched on `Engine::Avx2` will never see
// the fallback in practice — the runtime check is defence in depth
// (`Engine` is a plain enum anyone can construct).
// ---------------------------------------------------------------------

/// The Cholesky trailing update's packed block sweep: subtracts
/// `P·Pᵀ` contributions from the trailing lower triangle of `l`, with
/// the operands already packed k-major in 4-row blocks by the Cholesky
/// module's `pack_trailing_panel`. Arguments mirror that module's
/// scalar sweep, `trailing_sweep_scalar`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trailing_avx2(
    l: &mut [f64],
    n: usize,
    start: usize,
    nr: usize,
    pb: usize,
    pack: &[f64],
    nonzero: &[bool],
    fma: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if fma && Engine::fma_available() {
            // SAFETY: AVX2 + FMA presence checked on this line's path.
            unsafe { x86::trailing_fma(l, n, start, nr, pb, pack, nonzero) };
            return true;
        }
        if !fma && Engine::avx2_available() {
            // SAFETY: AVX2 presence checked on this line's path.
            unsafe { x86::trailing_plain(l, n, start, nr, pb, pack, nonzero) };
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (l, n, start, nr, pb, pack, nonzero, fma);
        false
    }
}

/// Four interleaved covariance dot-product chains: returns
/// `[Σ_l a0[l]·b0[l], …, Σ_l a3[l]·b3[l]]` with each chain accumulating
/// ascending `l` into a single accumulator (lanes are the four chains;
/// products are formed snapshot-contiguous and one 4×4 transpose feeds
/// each snapshot to all four chains in order). All eight slices must
/// share one length. This kernel has no `a·b + acc` contraction
/// opportunity, so it is bit-identical to the scalar interleaved loop
/// under **every** engine — the `fma` flag only widens the accepted
/// feature set.
#[allow(clippy::too_many_arguments)]
pub fn pair_cov4(
    a0: &[f64],
    b0: &[f64],
    a1: &[f64],
    b1: &[f64],
    a2: &[f64],
    b2: &[f64],
    a3: &[f64],
    b3: &[f64],
    fma: bool,
) -> Option<[f64; 4]> {
    let m = a0.len();
    debug_assert!(
        [b0, a1, b1, a2, b2, a3, b3].iter().all(|s| s.len() == m),
        "pair_cov4 slices disagree on length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let _ = fma;
        if Engine::avx2_available() {
            // SAFETY: AVX2 presence checked on this line's path; slice
            // lengths agree per the debug_assert'd contract (release
            // callers pass rows of one dev buffer).
            return Some(unsafe { x86::pair_cov4_plain(a0, b0, a1, b1, a2, b2, a3, b3) });
        }
        None
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a0, b0, a1, b1, a2, b2, a3, b3, fma);
        None
    }
}

/// Row paths of one covariance tile ([`cov_tile`]).
pub const TILE_ROWS: usize = 4;
/// Column paths of one covariance tile ([`cov_tile`]).
pub const TILE_COLS: usize = 8;

/// The 4×8 covariance tile, scalar reference (the fallback and oracle
/// of [`cov_tile`]): cell `r·8 + c` is `Σ_l rows[r][l] · panel[l·8 + c]`,
/// each cell accumulating ascending `l` in its own chain, a multiply and
/// then an add. `panel` holds 8 columns snapshot-major: snapshot `l` of
/// column `c` is `panel[l·8 + c]`, for every `l` below the rows' common
/// length `m`.
///
/// # Panics
/// Panics if the four rows disagree on their length or `panel` is
/// shorter than `8·m`.
pub fn cov_tile_scalar(rows: [&[f64]; TILE_ROWS], panel: &[f64]) -> [f64; TILE_ROWS * TILE_COLS] {
    let m = tile_len(rows, panel);
    let mut acc = [0.0f64; TILE_ROWS * TILE_COLS];
    for (l, col) in panel[..m * TILE_COLS].chunks_exact(TILE_COLS).enumerate() {
        for (r, row) in rows.iter().enumerate() {
            let a = row[l];
            for (cell, &b) in acc[r * TILE_COLS..(r + 1) * TILE_COLS].iter_mut().zip(col) {
                *cell += a * b;
            }
        }
    }
    acc
}

/// [`cov_tile_scalar`] under AVX2: lanes are 4 columns of the tile, so
/// its 32 cells are 8 accumulators, and each snapshot costs 2 panel
/// loads, 4 row broadcasts and 8 multiplies and 8 adds. Every lane
/// replays its cell's scalar chain (same multiply, same ascending add
/// order, no contraction), so the result is bit-identical to the scalar
/// reference under every engine. `None` when the host lacks AVX2.
///
/// # Panics
/// Panics on the shapes [`cov_tile_scalar`] rejects.
pub fn cov_tile(rows: [&[f64]; TILE_ROWS], panel: &[f64]) -> Option<[f64; TILE_ROWS * TILE_COLS]> {
    let m = tile_len(rows, panel);
    #[cfg(target_arch = "x86_64")]
    {
        if Engine::avx2_available() {
            // SAFETY: AVX2 presence checked on this line's path; every
            // row holds `m` entries and the panel at least `8·m`, checked
            // by `tile_len`.
            return Some(unsafe { x86::cov_tile_plain(rows, panel, m) });
        }
        None
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = m;
        None
    }
}

/// The snapshot count `m` of a tile's operands, after checking the
/// shapes both tile kernels read.
fn tile_len(rows: [&[f64]; TILE_ROWS], panel: &[f64]) -> usize {
    let m = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == m) && panel.len() >= m * TILE_COLS,
        "cov_tile operands disagree on the snapshot count"
    );
    m
}

/// Reinterprets a little-endian byte slice as `&[f64]` without
/// copying. Returns `None` — and the caller must fall back to a
/// copying decode — when the platform is big-endian, the length is not
/// a multiple of 8, or the slice start is not 8-byte aligned. The
/// wire decoder keeps payloads 8-aligned relative to the buffer start,
/// but the buffer's own allocation alignment is the allocator's
/// business, hence the runtime check instead of an assert.
pub fn cast_bytes_to_f64(bytes: &[u8]) -> Option<&[f64]> {
    #[cfg(target_endian = "little")]
    {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        // SAFETY: `align_to` itself is safe; the unsafe contract is
        // that any byte pattern must be a valid target value, which
        // holds for f64 (every bit pattern is a float, possibly NaN —
        // finiteness is validated downstream). Little-endian byte
        // order matches the wire format, checked by the cfg above.
        let (head, mid, tail) = unsafe { bytes.align_to::<f64>() };
        if head.is_empty() && tail.is_empty() {
            Some(mid)
        } else {
            None
        }
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = bytes;
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernel bodies. Every pair of `*_plain`/`*_fma`
    //! entry points instantiates one `#[inline(always)]` body with a
    //! `const FMA: bool` switch under the matching `#[target_feature]`
    //! set, so the non-FMA instantiation never contracts.

    use core::arch::x86_64::*;

    /// One accumulation step `acc + x·y` — separate round-to-nearest
    /// multiply and add (bit-exact vs scalar) unless `FMA`.
    #[inline(always)]
    unsafe fn step<const FMA: bool>(acc: __m256d, x: __m256d, y: __m256d) -> __m256d {
        if FMA {
            _mm256_fmadd_pd(x, y, acc)
        } else {
            _mm256_add_pd(acc, _mm256_mul_pd(x, y))
        }
    }

    /// Scalar accumulation step matching [`step`]'s contraction choice,
    /// for the `m % 4` tail of the covariance kernel.
    #[inline(always)]
    fn scalar_step<const FMA: bool>(acc: f64, x: f64, y: f64) -> f64 {
        if FMA {
            x.mul_add(y, acc)
        } else {
            acc + x * y
        }
    }

    // ---------------------------------------- Cholesky trailing update

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn trailing_plain(
        l: &mut [f64],
        n: usize,
        start: usize,
        nr: usize,
        pb: usize,
        pack: &[f64],
        nonzero: &[bool],
    ) {
        trailing_body::<false>(l, n, start, nr, pb, pack, nonzero)
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn trailing_fma(
        l: &mut [f64],
        n: usize,
        start: usize,
        nr: usize,
        pb: usize,
        pack: &[f64],
        nonzero: &[bool],
    ) {
        trailing_body::<true>(l, n, start, nr, pb, pack, nonzero)
    }

    /// Subtracts one accumulated 4-lane vector (row `r` of block pair
    /// `(bi, bj)`) from the trailing triangle, guarding `j <= i` exactly
    /// like the scalar sweep's write-back.
    #[inline(always)]
    unsafe fn trailing_subtract_lane(
        l: &mut [f64],
        n: usize,
        start: usize,
        bi: usize,
        bj: usize,
        r: usize,
        acc: __m256d,
    ) {
        const MR: usize = crate::cholesky::MR;
        let mut lane = [0.0f64; MR];
        _mm256_storeu_pd(lane.as_mut_ptr(), acc);
        let i = start + bi * MR + r;
        let irow = &mut l[i * n..i * n + n];
        for (c, &av) in lane.iter().enumerate() {
            let j = start + bj * MR + c;
            if j <= i {
                irow[j] -= av;
            }
        }
    }

    /// One 4×4 block pair of the trailing sweep (the narrow kernel used
    /// for the diagonal block and for lone nonzero blocks the 4×8 pairing
    /// cannot cover).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn trailing_block4<const FMA: bool>(
        l: &mut [f64],
        n: usize,
        start: usize,
        pb: usize,
        a_blk: &[f64],
        b_blk: &[f64],
        bi: usize,
        bj: usize,
        rows: usize,
    ) {
        const MR: usize = crate::cholesky::MR;
        let mut acc = [_mm256_setzero_pd(); MR];
        for k in 0..pb {
            let bv = _mm256_loadu_pd(b_blk.as_ptr().add(k * MR));
            let ap = a_blk.as_ptr().add(k * MR);
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*ap.add(r));
                *accr = step::<FMA>(*accr, av, bv);
            }
        }
        for (r, accr) in acc.iter().enumerate().take(rows) {
            trailing_subtract_lane(l, n, start, bi, bj, r, *accr);
        }
    }

    /// The packed trailing micro-kernel, 4 rows × 8 columns: the eight
    /// accumulator vectors cover a pair of adjacent 4-wide `bj` blocks,
    /// so each broadcast of `a[k·4+r]` feeds two column vectors (eight
    /// independent chains keep the add pipeline full). Each output cell
    /// still sums ascending `k` in
    /// its own chain — the reference order. Zero blocks are skipped via
    /// the shared occupancy flags (identical skipping to the scalar
    /// sweep since the pack is shared); a pair with a single nonzero
    /// member degrades to the 4-wide kernel on that member.
    #[inline(always)]
    unsafe fn trailing_body<const FMA: bool>(
        l: &mut [f64],
        n: usize,
        start: usize,
        nr: usize,
        pb: usize,
        pack: &[f64],
        nonzero: &[bool],
    ) {
        const MR: usize = crate::cholesky::MR;
        let nblk = nr.div_ceil(MR);
        let blk_len = pb * MR;
        for bi in 0..nblk {
            if !nonzero[bi] {
                continue;
            }
            let a_blk = &pack[bi * blk_len..(bi + 1) * blk_len];
            let rows = MR.min(nr - bi * MR);
            let mut bj = 0;
            while bj < bi {
                match (nonzero[bj], nonzero[bj + 1]) {
                    (true, true) => {
                        let b0 = &pack[bj * blk_len..(bj + 1) * blk_len];
                        let b1 = &pack[(bj + 1) * blk_len..(bj + 2) * blk_len];
                        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
                        for k in 0..pb {
                            let bv0 = _mm256_loadu_pd(b0.as_ptr().add(k * MR));
                            let bv1 = _mm256_loadu_pd(b1.as_ptr().add(k * MR));
                            let ap = a_blk.as_ptr().add(k * MR);
                            for (r, accr) in acc.iter_mut().enumerate() {
                                let av = _mm256_set1_pd(*ap.add(r));
                                accr[0] = step::<FMA>(accr[0], av, bv0);
                                accr[1] = step::<FMA>(accr[1], av, bv1);
                            }
                        }
                        for (r, accr) in acc.iter().enumerate().take(rows) {
                            trailing_subtract_lane(l, n, start, bi, bj, r, accr[0]);
                            trailing_subtract_lane(l, n, start, bi, bj + 1, r, accr[1]);
                        }
                    }
                    (true, false) => {
                        let b_blk = &pack[bj * blk_len..(bj + 1) * blk_len];
                        trailing_block4::<FMA>(l, n, start, pb, a_blk, b_blk, bi, bj, rows);
                    }
                    (false, true) => {
                        let b_blk = &pack[(bj + 1) * blk_len..(bj + 2) * blk_len];
                        trailing_block4::<FMA>(l, n, start, pb, a_blk, b_blk, bi, bj + 1, rows);
                    }
                    (false, false) => {}
                }
                bj += 2;
            }
            if bj <= bi && nonzero[bj] {
                let b_blk = &pack[bj * blk_len..(bj + 1) * blk_len];
                trailing_block4::<FMA>(l, n, start, pb, a_blk, b_blk, bi, bj, rows);
            }
        }
    }

    // ------------------------------------------- covariance pair sweep

    /// 4×4 transpose of row registers into snapshot-lane registers.
    #[inline(always)]
    unsafe fn transpose4(
        r0: __m256d,
        r1: __m256d,
        r2: __m256d,
        r3: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let t0 = _mm256_unpacklo_pd(r0, r1);
        let t1 = _mm256_unpackhi_pd(r0, r1);
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        (
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        )
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn pair_cov4_plain(
        a0: &[f64],
        b0: &[f64],
        a1: &[f64],
        b1: &[f64],
        a2: &[f64],
        b2: &[f64],
        a3: &[f64],
        b3: &[f64],
    ) -> [f64; 4] {
        pair_cov4_body(a0, b0, a1, b1, a2, b2, a3, b3)
    }

    /// Products are formed snapshot-contiguous (`p_i = a_i·b_i`, four
    /// multiplies covering sixteen scalar products), then **one** 4×4
    /// transpose turns the four product vectors into snapshot vectors
    /// `q_k = [p_0[l+k], …, p_3[l+k]]` which are accumulated in
    /// ascending snapshot order — each lane replays chain `i`'s exact
    /// scalar operation sequence (same multiply, same add order), so the
    /// result is bit-identical to the interleaved reference loop.
    /// Transposing products instead of both operand groups halves the
    /// shuffle-port traffic that bounds this kernel. There is no
    /// `a·b + acc` contraction opportunity (the transpose sits between
    /// multiply and add), so the FMA engine runs this same body and the
    /// kernel is bit-exact under *every* engine. The `m % 4` tail
    /// continues each lane's accumulator in scalar code.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pair_cov4_body(
        a0: &[f64],
        b0: &[f64],
        a1: &[f64],
        b1: &[f64],
        a2: &[f64],
        b2: &[f64],
        a3: &[f64],
        b3: &[f64],
    ) -> [f64; 4] {
        let m = a0.len();
        let mut acc = _mm256_setzero_pd();
        let mut l = 0;
        while l + 4 <= m {
            let p0 = _mm256_mul_pd(
                _mm256_loadu_pd(a0.as_ptr().add(l)),
                _mm256_loadu_pd(b0.as_ptr().add(l)),
            );
            let p1 = _mm256_mul_pd(
                _mm256_loadu_pd(a1.as_ptr().add(l)),
                _mm256_loadu_pd(b1.as_ptr().add(l)),
            );
            let p2 = _mm256_mul_pd(
                _mm256_loadu_pd(a2.as_ptr().add(l)),
                _mm256_loadu_pd(b2.as_ptr().add(l)),
            );
            let p3 = _mm256_mul_pd(
                _mm256_loadu_pd(a3.as_ptr().add(l)),
                _mm256_loadu_pd(b3.as_ptr().add(l)),
            );
            let (q0, q1, q2, q3) = transpose4(p0, p1, p2, p3);
            acc = _mm256_add_pd(acc, q0);
            acc = _mm256_add_pd(acc, q1);
            acc = _mm256_add_pd(acc, q2);
            acc = _mm256_add_pd(acc, q3);
            l += 4;
        }
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), acc);
        for ll in l..m {
            s[0] = scalar_step::<false>(s[0], a0[ll], b0[ll]);
            s[1] = scalar_step::<false>(s[1], a1[ll], b1[ll]);
            s[2] = scalar_step::<false>(s[2], a2[ll], b2[ll]);
            s[3] = scalar_step::<false>(s[3], a3[ll], b3[ll]);
        }
        s
    }

    // ------------------------------------------ covariance tile sweep

    use super::{TILE_COLS, TILE_ROWS};

    /// The 4×8 tile: row `r`'s cells are two 4-lane accumulators, fed
    /// by one broadcast of `rows[r][l]` times the panel's two 4-column
    /// halves of snapshot `l`. The caller guarantees `m` entries per
    /// row and `8·m` in the panel.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cov_tile_plain(
        rows: [&[f64]; TILE_ROWS],
        panel: &[f64],
        m: usize,
    ) -> [f64; TILE_ROWS * TILE_COLS] {
        let mut acc = [[_mm256_setzero_pd(); 2]; TILE_ROWS];
        let p = panel.as_ptr();
        for l in 0..m {
            let c0 = _mm256_loadu_pd(p.add(l * TILE_COLS));
            let c1 = _mm256_loadu_pd(p.add(l * TILE_COLS + 4));
            for (accr, row) in acc.iter_mut().zip(rows) {
                let a = _mm256_broadcast_sd(&*row.as_ptr().add(l));
                accr[0] = step::<false>(accr[0], a, c0);
                accr[1] = step::<false>(accr[1], a, c1);
            }
        }
        let mut out = [0.0f64; TILE_ROWS * TILE_COLS];
        for (r, accr) in acc.iter().enumerate() {
            _mm256_storeu_pd(out.as_mut_ptr().add(r * TILE_COLS), accr[0]);
            _mm256_storeu_pd(out.as_mut_ptr().add(r * TILE_COLS + 4), accr[1]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_bytes_roundtrips_f64_bits() {
        let values = [0.0f64, -1.5, f64::MIN_POSITIVE, 1e300, -0.0];
        let mut bytes: Vec<u8> = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        // A Vec<u8> allocation is not guaranteed 8-aligned, so probe
        // both the aligned and the misaligned outcome honestly.
        match cast_bytes_to_f64(&bytes) {
            Some(cast) => {
                assert_eq!(cast.len(), values.len());
                for (c, v) in cast.iter().zip(values) {
                    assert_eq!(c.to_bits(), v.to_bits());
                }
            }
            None => assert!(!bytes.as_ptr().cast::<f64>().is_aligned()),
        }
        // An f64-backed buffer is always 8-aligned: cast must succeed.
        let backing: Vec<f64> = values.to_vec();
        let raw: &[u8] =
            unsafe { std::slice::from_raw_parts(backing.as_ptr().cast::<u8>(), backing.len() * 8) };
        let cast = cast_bytes_to_f64(raw).expect("f64-backed buffer is aligned");
        assert_eq!(cast.len(), values.len());
    }

    #[test]
    fn cast_bytes_rejects_ragged_and_misaligned() {
        assert!(cast_bytes_to_f64(&[0u8; 7]).is_none());
        assert!(cast_bytes_to_f64(&[0u8; 9]).is_none());
        let backing = [0.0f64; 3];
        let raw: &[u8] = unsafe { std::slice::from_raw_parts(backing.as_ptr().cast::<u8>(), 24) };
        // Offset by one byte: start misaligned even though len % 8 == 0
        // after trimming the tail too.
        assert!(cast_bytes_to_f64(&raw[1..17]).is_none());
        assert!(cast_bytes_to_f64(&[]).map(<[f64]>::len) == Some(0));
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(SimdPolicy::parse("scalar"), SimdPolicy::Scalar);
        assert_eq!(SimdPolicy::parse("avx2fma"), SimdPolicy::Avx2Fma);
        assert_eq!(SimdPolicy::parse("fma"), SimdPolicy::Avx2Fma);
        assert_eq!(SimdPolicy::parse("auto"), SimdPolicy::Auto);
        assert_eq!(SimdPolicy::parse("garbage"), SimdPolicy::Auto);
        // `avx2` names the engine `auto` selects, so it parses to it.
        assert_eq!(SimdPolicy::parse("AVX2"), SimdPolicy::Auto);
    }

    #[test]
    fn resolution_honours_forced_scalar_and_hardware() {
        assert_eq!(resolve(SimdPolicy::Scalar), Engine::Scalar);
        let auto = resolve(SimdPolicy::Auto);
        if Engine::avx2_available() {
            assert_eq!(auto, Engine::Avx2 { fma: false });
        } else {
            assert_eq!(auto, Engine::Scalar);
        }
        // Auto never selects FMA contraction — bit-exactness is the
        // default contract.
        assert_ne!(auto, Engine::Avx2 { fma: true });
        match resolve(SimdPolicy::Avx2Fma) {
            Engine::Avx2 { fma: true } => assert!(Engine::fma_available()),
            Engine::Avx2 { fma: false } => assert!(Engine::avx2_available()),
            Engine::Scalar => assert!(!Engine::avx2_available()),
        }
    }

    #[test]
    fn active_is_stable() {
        let first = active();
        assert_eq!(active(), first);
        assert_eq!(first, resolve(SimdPolicy::from_env()));
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::Scalar.name(), "scalar");
        assert_eq!(Engine::Avx2 { fma: false }.name(), "avx2");
        assert_eq!(Engine::Avx2 { fma: true }.name(), "avx2+fma");
    }

    #[test]
    fn kernels_report_unavailable_cleanly() {
        // Whatever the host, the wrappers never panic on the
        // availability check itself; on non-AVX2 hosts they must
        // decline rather than fault.
        let (mut l, pack) = ([1.0; 4], [0.0; 4]);
        let ran = trailing_avx2(&mut l, 2, 1, 1, 1, &pack, &[false], false);
        assert_eq!(ran, Engine::avx2_available());
        let cov = pair_cov4(
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            false,
        );
        assert_eq!(cov.is_some(), Engine::avx2_available());
        if let Some(c) = cov {
            assert_eq!(c, [1.0; 4]);
        }
        let tile = cov_tile([&[2.0]; TILE_ROWS], &[3.0; TILE_COLS]);
        assert_eq!(tile.is_some(), Engine::avx2_available());
        if let Some(t) = tile {
            assert_eq!(t, [6.0; TILE_ROWS * TILE_COLS]);
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the snapshot count")]
    fn cov_tile_rejects_a_short_panel() {
        cov_tile_scalar([&[1.0, 2.0]; TILE_ROWS], &[0.0; TILE_COLS]);
    }
}
