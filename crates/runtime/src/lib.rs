//! Parallel runtime for GPTune-rs — the stand-in for GPTune's MPI-spawning
//! master/worker model (paper Sec. 4).
//!
//! In the reference implementation a single master process runs the GPTune
//! driver and dynamically spawns groups of MPI worker processes for three
//! jobs: objective-function evaluation, the modeling phase (parallel over
//! L-BFGS restarts, with a ScaLAPACK-parallel covariance factorization), and
//! the search phase (parallel over tasks). Here:
//!
//! * [`WorkerGroup`] reproduces the spawn/inter-communicator structure with
//!   OS threads, a shared job queue and per-batch result channels (the
//!   master feeds one end, the worker group drains it — the queue and
//!   channel pair play the role of the `SpawnedComm`/`ParentComm`
//!   inter-communicators of Fig. 1);
//! * [`stats`] collects the per-phase time breakdown that GPTune prints
//!   after "stats:" in its runlogs (used by Table 3 and Fig. 3);
//! * [`fault`] is the fault model: every job is panic-isolated, deadlines
//!   are enforced by a master-side watchdog, transient faults retry with
//!   exponential backoff, and [`WorkerGroup::try_map`] surfaces it all as
//!   typed [`EvalOutcome`]s — real tuned applications crash, hang, and
//!   OOM, and a dead measurement must never kill the tuner.
//!
//! The modeling (over restarts) and search (over tasks) phases run on
//! `gptune_la::par` fork-join regions instead; the tuners size them from
//! `model_workers` / `search_workers` with `par::with_width`.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod executor;
pub mod fault;
pub mod stats;

pub use executor::{SharedCounter, WorkerGroup};
pub use fault::{EvalOutcome, FailureKind, FaultPolicy, GroupClosed, JobStatus, TransientSignal};
pub use stats::{Phase, PhaseStats, PhaseTimer};
