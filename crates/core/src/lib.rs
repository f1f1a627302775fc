//! GPTune-rs core: the multitask-learning autotuner.
//!
//! This crate implements the paper's contribution:
//!
//! * [`problem`] — the tuning-problem abstraction: task space `IS`, tuning
//!   space `PS`, output space `OS` (dimension `γ`), the black-box objective,
//!   and optional coarse performance-model features `MS` (Sec. 2);
//! * [`mla`] — Algorithm 1: single-objective multitask Bayesian
//!   optimization (sampling → LCM modeling → EI/PSO search loop);
//! * [`mla_mo`] — Algorithm 2: the multi-objective extension (one LCM per
//!   objective, NSGA-II over the per-objective EIs, `k` evaluations per
//!   iteration, Pareto-front extraction);
//! * [`perfmodel`] — incorporation of coarse performance models (Sec. 3.3):
//!   feature enrichment `[x, ỹ(t,x)]` plus on-the-fly least-squares updates
//!   of the model hyperparameters (`t_flop, t_msg, t_vol` of Eq. 7);
//! * [`history`] — the in-memory evaluation records transfer learning
//!   reads (goal 3 of the paper: "support archiving and reusing tuning
//!   data from multiple executions");
//! * [`db_bridge`] — the boundary to `gptune-db`, the crash-safe on-disk
//!   history database: problem signatures, warm-start preloading,
//!   checkpoint/resume, and end-of-run archiving;
//! * [`metrics`] — the evaluation metrics of Sec. 6: `WinTask` (final
//!   performance) and `stability` (anytime performance), plus Pareto
//!   utilities;
//! * [`session`] — the ask/tell (`suggest`/`report`) inversion of the MLA
//!   loop used by the `gptune-serve` layer: the caller owns evaluation,
//!   the session owns the archive and refits the surrogate lazily.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod db_bridge;
pub mod history;
pub mod metrics;
pub mod mla;
pub mod mla_mo;
pub mod options;
pub mod perfmodel;
pub mod problem;
pub mod runlog;
pub mod session;
pub mod tla;

pub use db_bridge::{history_from_db, problem_signature};
pub use gptune_gp::{LcmHyperparams, ModelState, RefitMode, RefitSchedule};
pub use history::History;
pub use metrics::{hypervolume_2d, mean_stability, stability, win_task};
pub use mla::{IterationStat, MlaResult, TaskResult};
pub use mla_mo::{MoMlaResult, MoTaskResult, ParetoPoint};
pub use options::{Acquisition, MlaOptions, SearchMethod};
pub use problem::TuningProblem;
pub use session::{ReportError, SessionSnapshot, TunerSession};
pub use tla::{predict_transfer_config, transfer_tune, transfer_tune_from_db};
