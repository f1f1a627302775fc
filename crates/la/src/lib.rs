//! Dense linear algebra substrate for GPTune-rs.
//!
//! GPTune's modeling phase factorizes the LCM covariance matrix (size
//! `δε × δε`) on every L-BFGS iteration, and its performance-model update
//! phase solves small least-squares problems. The reference implementation
//! delegates to LAPACK/ScaLAPACK; this crate provides the equivalent kernels
//! from scratch:
//!
//! * [`Matrix`] — a row-major dense matrix with the usual constructors and
//!   element accessors.
//! * [`blas`] — sequential level-1/2/3 kernels (`dot`, `axpy`, `gemv`,
//!   `gemm`).
//! * [`cholesky`] — one column-panel Cholesky kernel with solves,
//!   log-determinant, inverse, row-append extension, and jittered retry for
//!   nearly-singular covariances.
//! * [`lu`] — partial-pivoting LU with solves.
//! * [`par`] — the std-only fork-join regions the tuner's modeling and
//!   search phases run on (item-ordered results, a thread-local width that
//!   is 1 unless a caller sets one). No kernel of this crate starts one:
//!   the paper's ScaLAPACK-parallel factorization (Sec. 4.3) has no
//!   stand-in here, and the modeling phase's parallelism is its L-BFGS
//!   restarts.
//! * [`qr`] — Householder QR and least-squares solves (used to fit the
//!   coarse performance-model hyperparameters of the paper's Eq. 7).
//! * [`triangular`] — forward/backward substitution on vectors and matrices.
//! * [`eigen`] — symmetric Jacobi eigendecomposition (conditioning
//!   diagnostics for the LCM covariance).
//!
//! All kernels are deterministic and panic on dimension mismatches (these are
//! programming errors); numerical failure (non-SPD, singular) is reported via
//! [`LaError`].

// Index-based loops are the natural idiom for the BLAS-like kernels below,
// and `!(x > 0.0)` deliberately treats NaN as failure in factorizations.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod blas;
pub mod cholesky;
pub mod eigen;
pub mod lu;
pub mod matrix;
pub mod ord;
pub mod par;
pub mod qr;
pub mod triangular;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use lu::Lu;
pub use matrix::Matrix;
pub use ord::{argmax, argmin, cmp_f64, feq, max_f64, min_f64, sort_floats};
pub use qr::Qr;

/// Errors reported by factorization routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LaError {
    /// The matrix is not (numerically) symmetric positive definite.
    /// Carries the pivot index at which the factorization broke down.
    NotPositiveDefinite { pivot: usize },
    /// The matrix is singular to working precision.
    Singular { pivot: usize },
    /// The system is rank deficient (least squares).
    RankDeficient { rank: usize },
}

impl std::fmt::Display for LaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
            LaError::Singular { pivot } => write!(f, "matrix singular (pivot {pivot})"),
            LaError::RankDeficient { rank } => write!(f, "rank deficient (rank {rank})"),
        }
    }
}

impl std::error::Error for LaError {}

/// Convenience alias for results of factorization routines.
pub type Result<T> = std::result::Result<T, LaError>;
