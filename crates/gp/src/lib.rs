//! Gaussian-process surrogate models for GPTune-rs.
//!
//! The modeling phase of the paper (Sec. 3.1) builds a *Linear
//! Coregionalization Model* (LCM): a multitask Gaussian process whose
//! cross-task covariance is a sum of `Q` independent latent GPs,
//!
//! ```text
//! Σ(x_{i,j}, x_{i',j'}) = Σ_q (a_{i,q} a_{i',q} + b_{i,q} δ_{i,i'}) k_q(x, x')
//!                         + d_i δ_{i,i'} δ_{j,j'}                    (Eq. 4)
//! ```
//!
//! with Gaussian (ARD squared-exponential) latent kernels `k_q` (Eq. 3,
//! `σ_q` fixed to 1 as the paper notes). Hyperparameters are found by
//! maximizing the log marginal likelihood with multi-start L-BFGS; the
//! gradient is computed analytically.
//!
//! * [`kernel`] — ARD squared-exponential kernel and its gradients;
//! * [`lcm`] — LCM covariance assembly, likelihood + gradient, prediction
//!   (paper Eqs. 5–6), and multi-start fitting;
//! * [`incremental`] — the LCM kept across tuning iterations, extended
//!   by Cholesky row appends between full refits;
//! * [`gp`] — the acquisition functions the search phase maximizes (EI,
//!   LCB, PI) over a posterior [`Prediction`].
//!
//! Single-task tuning (`δ = 1`, the single-task-learning comparisons of
//! Fig. 5 and Table 3) is the same LCM with one task.

// Index-based loops over covariance entries mirror the paper's equations.
#![allow(clippy::needless_range_loop)]

pub mod gp;
pub mod incremental;
pub mod kernel;
pub mod lcm;

pub use incremental::{IncrementalLcm, ModelState, RefitMode, RefitSchedule};
pub use kernel::{ArdKernel, KernelKind, SeArdKernel};
pub use lcm::{LcmFitOptions, LcmHyperparams, LcmModel, Prediction};
