//! Error type shared by all factorisations and solvers in this crate.

use std::fmt;

/// Errors produced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible (e.g. `A: m×n` multiplied by a
    /// vector of length `≠ n`). Carries a human-readable description.
    DimensionMismatch(String),
    /// The matrix is singular (or numerically rank deficient) where a
    /// full-rank matrix was required, e.g. Cholesky of a semidefinite
    /// matrix or triangular solve with a zero pivot.
    Singular {
        /// Index of the offending pivot/column.
        index: usize,
    },
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite {
        /// Index of the first non-positive diagonal pivot.
        index: usize,
    },
    /// An empty matrix or vector was supplied where data is required.
    Empty,
    /// A non-finite (NaN/±∞) input entry where finite data is required
    /// — e.g. a snapshot row that would otherwise poison running
    /// moments. Rejected before any state is touched.
    NonFinite {
        /// Index of the first non-finite entry.
        index: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::Singular { index } => {
                write!(f, "matrix is singular at pivot {index}")
            }
            LinalgError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (pivot {index})")
            }
            LinalgError::Empty => write!(f, "empty matrix or vector"),
            LinalgError::NonFinite { index } => {
                write!(f, "non-finite value at index {index}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::DimensionMismatch("A is 3x4, x has len 5".into());
        assert!(e.to_string().contains("3x4"));
        assert!(LinalgError::Singular { index: 2 }.to_string().contains('2'));
        assert!(LinalgError::NotPositiveDefinite { index: 0 }
            .to_string()
            .contains("positive definite"));
        assert_eq!(LinalgError::Empty.to_string(), "empty matrix or vector");
        assert!(LinalgError::NonFinite { index: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn error_is_cloneable_and_comparable() {
        let e = LinalgError::Singular { index: 7 };
        assert_eq!(e.clone(), e);
    }
}
