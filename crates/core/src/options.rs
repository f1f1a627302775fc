//! MLA configuration.

use gptune_gp::{LcmFitOptions, RefitSchedule};

use gptune_opt::nsga2::Nsga2Options;
use gptune_opt::pso::PsoOptions;
use gptune_runtime::FaultPolicy;
use std::time::Duration;

/// Global optimizer used to maximize the acquisition function in the
/// search phase. The paper uses PSO ("global, evolutionary algorithms
/// such as the Particle Swarm Optimization algorithm"); DE and CMA-ES are
/// drop-in alternatives for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMethod {
    /// Particle swarm optimization (the paper's choice).
    Pso,
    /// Differential evolution.
    DifferentialEvolution,
    /// CMA-ES.
    Cmaes,
}

/// Acquisition function for the single-objective search phase. The paper
/// uses Expected Improvement (Sec. 3.1); the alternatives support
/// ablation studies of this design choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected Improvement (the paper's choice).
    ExpectedImprovement,
    /// Lower Confidence Bound with exploration weight `κ`.
    LowerConfidenceBound {
        /// Exploration weight (typical values 1–3).
        kappa: f64,
    },
    /// Probability of Improvement.
    ProbabilityOfImprovement,
}

/// Options controlling the MLA tuners (Algorithms 1 & 2).
#[derive(Debug, Clone)]
pub struct MlaOptions {
    /// Total function evaluations per task `ε_tot`.
    pub eps_total: usize,
    /// Initial random sample count per task; defaults to `ε_tot / 2`
    /// (paper Sec. 3.1) when `None`.
    pub n_initial: Option<usize>,
    /// LCM fitting configuration (latent count `Q`, multi-start count
    /// `n_start`, inner L-BFGS budget, base seed).
    pub lcm: LcmFitOptions,
    /// When the surrogate re-optimizes hyperparameters vs. extends the
    /// existing factor incrementally in O(n²). The default refits fully
    /// every iteration — bit-identical to the pre-incremental behavior
    /// (and required for bit-identical checkpoint resume); long runs and
    /// long-lived serve sessions should raise `full_every`.
    pub refit: RefitSchedule,
    /// Acquisition function maximized in the search phase.
    pub acquisition: Acquisition,
    /// Global optimizer for the acquisition search.
    pub search_method: SearchMethod,
    /// PSO configuration for the single-objective acquisition search.
    pub pso: PsoOptions,
    /// NSGA-II configuration for the multi-objective search.
    pub nsga: Nsga2Options,
    /// Points evaluated per multi-objective iteration (`k` in Algorithm 2).
    pub k_per_iter: usize,
    /// Repeated runs per evaluation with the elementwise minimum kept
    /// (the paper uses 3 for PDGEQRF/PDSYEVX).
    pub runs_per_eval: usize,
    /// Model `log(y)` instead of `y` — appropriate for runtimes, which are
    /// positive and often span decades.
    pub log_objective: bool,
    /// Use the problem's coarse performance model as extra LCM features
    /// (paper Sec. 3.3), when the problem provides one.
    pub use_model_features: bool,
    /// Fit linear coefficients of the performance-model features against
    /// observed outputs before each modeling phase and enrich with the
    /// fitted scalar prediction (the Eq. 7 hyperparameter update) instead
    /// of the raw features.
    pub fit_model_coefficients: bool,
    /// Worker threads for parallel objective evaluation (the spawned
    /// "function evaluation" group of Sec. 4.2).
    pub eval_workers: usize,
    /// Worker threads for the modeling phase: the L-BFGS restarts of each
    /// LCM fit run in parallel (Sec. 4.3); every covariance factorization
    /// runs on the thread of the restart that needs it.
    pub model_workers: usize,
    /// Worker threads for the per-task search phase (Sec. 4.3).
    pub search_workers: usize,
    /// Base RNG seed for sampling/search/noise.
    pub seed: u64,
    /// Archive directory of the shared history database (`gptune-db`).
    /// When set, every completed run appends its evaluations and a
    /// run-summary (`stats:`) line to the problem's journal, and
    /// checkpoint/resume becomes available.
    pub db_path: Option<std::path::PathBuf>,
    /// Write a checkpoint every `n` MLA iterations (0 disables periodic
    /// checkpoints). Requires `db_path`. The sampling phase always
    /// checkpoints once when enabled, so even a run killed in its first
    /// iteration resumes without re-evaluating the initial design.
    pub checkpoint_every: usize,
    /// Cooperative preemption for walltime-limited jobs: stop after this
    /// many MLA iterations *in this process*, writing a final checkpoint
    /// (when checkpointing is enabled) and returning the partial result
    /// with `completed = false`. `None` runs to budget exhaustion.
    pub stop_after_iterations: Option<usize>,
    /// Preload matching archived evaluations from the database as free
    /// extra observations before the sampling phase (the MLA warm start;
    /// archived data does not count against `eps_total`).
    pub warm_start_from_db: bool,
    /// Machine identifier recorded in archive provenance (GPTune archives
    /// are keyed by machine so cross-machine records stay comparable).
    pub machine_id: Option<String>,
    /// Per-evaluation wall-clock deadline enforced by the evaluation
    /// worker group's watchdog. An evaluation still running past the
    /// deadline is abandoned (its worker is replaced) and recorded as
    /// timed out with a censored objective. `None` disables the watchdog
    /// — appropriate when the objective is trusted never to hang.
    pub eval_deadline: Option<Duration>,
    /// Retry budget for *transient* evaluation failures (spurious node
    /// faults, recoverable launcher errors). Crashes and invalid
    /// measurements are never retried — they are assumed deterministic.
    pub eval_max_retries: u32,
    /// Base delay of the exponential backoff between transient retries
    /// (doubles per attempt, capped at 100× the base).
    pub eval_backoff: Duration,
}

impl Default for MlaOptions {
    fn default() -> Self {
        MlaOptions {
            eps_total: 20,
            n_initial: None,
            lcm: LcmFitOptions::default(),
            refit: RefitSchedule::default(),
            acquisition: Acquisition::ExpectedImprovement,
            search_method: SearchMethod::Pso,
            pso: PsoOptions {
                particles: 30,
                iters: 30,
                ..Default::default()
            },
            nsga: Nsga2Options {
                population: 40,
                generations: 40,
                ..Default::default()
            },
            k_per_iter: 4,
            runs_per_eval: 1,
            log_objective: true,
            use_model_features: false,
            fit_model_coefficients: false,
            eval_workers: 4,
            model_workers: 1,
            search_workers: 1,
            seed: 0,
            db_path: None,
            checkpoint_every: 0,
            stop_after_iterations: None,
            warm_start_from_db: false,
            machine_id: None,
            eval_deadline: None,
            eval_max_retries: 2,
            eval_backoff: Duration::from_millis(5),
        }
    }
}

impl MlaOptions {
    /// Resolved initial sample count (`ε_tot / 2`, at least 2).
    pub fn initial_samples(&self) -> usize {
        self.n_initial
            .unwrap_or(self.eps_total / 2)
            .clamp(2, self.eps_total.max(2))
    }

    /// Convenience: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.lcm.seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
        self
    }

    /// Convenience: sets the evaluation budget.
    pub fn with_budget(mut self, eps_total: usize) -> Self {
        self.eps_total = eps_total;
        self
    }

    /// Convenience: attaches a shared history database (archive root
    /// directory). Completed runs archive their evaluations there;
    /// checkpoint/resume and warm starts read from it.
    pub fn with_db(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.db_path = Some(path.into());
        self
    }

    /// Convenience: checkpoints the in-flight run state every `n` MLA
    /// iterations (0 disables). Requires [`MlaOptions::with_db`].
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// `true` when this options set can read/write checkpoints.
    pub fn checkpointing(&self) -> bool {
        self.db_path.is_some() && self.checkpoint_every > 0
    }

    /// Convenience: arms the evaluation watchdog with a per-evaluation
    /// wall-clock deadline.
    pub fn with_eval_deadline(mut self, deadline: Duration) -> Self {
        self.eval_deadline = Some(deadline);
        self
    }

    /// The [`FaultPolicy`] the evaluation worker group runs under.
    pub fn fault_policy(&self) -> FaultPolicy {
        FaultPolicy {
            deadline: self.eval_deadline,
            max_retries: self.eval_max_retries,
            backoff_base: self.eval_backoff,
            backoff_cap: self.eval_backoff.saturating_mul(100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_defaults_to_half_budget() {
        let o = MlaOptions::default().with_budget(40);
        assert_eq!(o.initial_samples(), 20);
    }

    #[test]
    fn initial_floor_of_two() {
        let o = MlaOptions::default().with_budget(3);
        assert_eq!(o.initial_samples(), 2);
    }

    #[test]
    fn explicit_initial_respected() {
        let mut o = MlaOptions::default().with_budget(20);
        o.n_initial = Some(15);
        assert_eq!(o.initial_samples(), 15);
    }

    #[test]
    fn with_seed_propagates_to_lcm() {
        let a = MlaOptions::default().with_seed(1);
        let b = MlaOptions::default().with_seed(2);
        assert_ne!(a.lcm.seed, b.lcm.seed);
    }

    #[test]
    fn db_and_checkpoint_builders() {
        let o = MlaOptions::default();
        assert!(!o.checkpointing());
        let o = o.with_db("/tmp/archive").checkpoint_every(2);
        assert_eq!(
            o.db_path.as_deref(),
            Some(std::path::Path::new("/tmp/archive"))
        );
        assert_eq!(o.checkpoint_every, 2);
        assert!(o.checkpointing());
        // checkpoint_every without a db is not checkpointing.
        let mut o2 = MlaOptions::default().checkpoint_every(3);
        assert!(!o2.checkpointing());
        o2.checkpoint_every = 0;
        assert!(!o2.checkpointing());
    }

    #[test]
    fn fault_policy_reflects_eval_knobs() {
        let o = MlaOptions::default();
        let p = o.fault_policy();
        assert_eq!(p.deadline, None);
        assert_eq!(p.max_retries, 2);

        let o = MlaOptions::default().with_eval_deadline(Duration::from_millis(250));
        let mut o = o;
        o.eval_max_retries = 5;
        o.eval_backoff = Duration::from_millis(2);
        let p = o.fault_policy();
        assert_eq!(p.deadline, Some(Duration::from_millis(250)));
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.backoff_base, Duration::from_millis(2));
        assert_eq!(p.backoff_cap, Duration::from_millis(200));
    }
}
