//! Dense and sparse linear algebra substrate for `losstomo`.
//!
//! The loss-tomography pipeline of Nguyen & Thiran (IMC 2007) reduces to two
//! linear-algebra workloads:
//!
//! 1. **Phase 1** solves the (usually overdetermined) moment system
//!    `Σ* = A v` for the link variances `v`, where `A` is the augmented
//!    routing matrix. The paper uses a Householder orthogonal–triangular
//!    factorisation (Golub & Van Loan); the pipeline instead forms the
//!    normal equations `AᵀA v = Aᵀ Σ*` from integer co-occurrence counts
//!    and factors them with the blocked [`Cholesky`]
//!    ([`lstsq::solve_spd_with`]), which is much cheaper because `A` has
//!    far more rows than columns (`n_p(n_p+1)/2` rows vs `n_c` columns).
//!    The paper's Householder solve ([`lstsq::solve_least_squares`])
//!    stays as the oracle the tests compare against.
//! 2. **Phase 2** appends the routing matrix's columns in descending
//!    variance order to a left-looking Householder QR
//!    ([`append_qr::AppendQr`]) until one lies in the span of the kept
//!    ones; the factor built on the way solves the reduced first-moment
//!    system `Y = R* X*`. The rank-revealing [`pivoted_qr::PivotedQr`]
//!    ([`rank::rank`]) serves the identifiability checks.
//!
//! Everything is implemented from scratch on top of a row-major dense
//! [`Matrix`] and a CSR [`sparse::CsrMatrix`]; no external linear-algebra
//! crates are used. The implementations favour clarity and robustness over
//! micro-optimisation: no macro tricks, extensive documentation and tests.
//! The single exception to the crate-wide `unsafe` ban is the [`simd`]
//! module, which wraps `std::arch` AVX2 intrinsics behind runtime feature
//! detection — see its docs for the dispatch policy and the
//! bit-exactness contract that keeps the SIMD kernels interchangeable
//! with the scalar reference loops.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod append_qr;
pub mod cholesky;
pub mod error;
mod householder;
pub mod lstsq;
pub mod matrix;
pub mod parallel;
pub mod pivoted_qr;
pub mod qr;
pub mod rank;
#[allow(unsafe_code)]
pub mod simd;
pub mod sparse;
pub mod sparse_qr;
pub mod triangular;
pub mod vector;

pub use append_qr::AppendQr;
pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lstsq::{solve_least_squares, SpdScratch};
pub use matrix::Matrix;
pub use pivoted_qr::PivotedQr;
pub use qr::Qr;
pub use rank::{rank, rank_with_tol, DEFAULT_RANK_TOL};
pub use simd::{Engine, SimdPolicy};
pub use sparse::CsrMatrix;
pub use sparse_qr::{row_basis, SparseQr};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
