//! Optimization substrate for GPTune-rs.
//!
//! GPTune and its baselines lean on four optimizer families (paper
//! Secs. 3–5):
//!
//! 1. **Gradient-based** — [`lbfgs`] maximizes the LCM log-likelihood in the
//!    modeling phase (the paper uses L-BFGS with random multi-starts).
//! 2. **Evolutionary / swarm** — [`pso`] maximizes the Expected-Improvement
//!    acquisition in the search phase; [`nsga2`] performs the multi-objective
//!    search of Algorithm 2.
//! 3. **Alternative search methods** — [`de`] (differential evolution)
//!    and [`cmaes`] run the MLA search phase when its `SearchMethod` is
//!    `DifferentialEvolution` or `Cmaes`.
//! 4. **Baseline components** — the [`bandit`] meta-technique allocates
//!    the OpenTuner-style ensemble's evaluations (its six proposal
//!    techniques live in `gptune_baselines::opentuner`); [`tpe`]
//!    reproduces HpBandSter's Tree Parzen Estimator; [`forest`] provides
//!    the random-forest surrogate behind the SuRf baseline.
//!
//! Every derivative-free optimizer works on a box domain (by convention the
//! unit hypercube that `gptune-space` normalizes into) and **minimizes** its
//! objective; maximize by negating.

// Index-based loops are the natural idiom for the population/array math
// below, and `!(x < 0.0)` deliberately treats NaN as a failed descent check.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod bandit;
pub mod cmaes;
pub mod de;
pub mod forest;
pub mod lbfgs;
pub mod nsga2;
pub mod pso;
pub mod tpe;

/// Outcome of a scalar box-constrained minimization.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evals: usize,
}

/// Clamps a point into `[0,1]^d` in place.
pub(crate) fn clamp_unit(x: &mut [f64]) {
    for v in x {
        *v = v.clamp(0.0, 1.0);
    }
}
