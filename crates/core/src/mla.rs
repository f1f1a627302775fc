//! Algorithm 1: single-objective multitask Bayesian optimization.
//!
//! The MLA loop of paper Sec. 3.1:
//!
//! 1. **Sampling phase** — `ε = ε_tot/2` initial configurations per task
//!    from a Latin-hypercube design, evaluated (in parallel) through the
//!    black box;
//! 2. **Modeling phase** — fit one LCM surrogate jointly over all `δ`
//!    tasks by multi-start L-BFGS on the log marginal likelihood;
//! 3. **Search phase** — per task, maximize Expected Improvement with PSO
//!    and evaluate the winner; repeat 2–3 until `ε = ε_tot`.
//!
//! Parallelism mirrors Sec. 4: objective evaluations fan out over a worker
//! group, the modeling phase runs L-BFGS restarts in parallel on
//! `model_workers` threads, and the search phase parallelizes over tasks on
//! `search_workers` threads — both as `gptune_la::par` regions, at every
//! training-set size.
//!
//! The run lifecycle around the loop — archive, known failures, warm
//! start, checkpoint/resume, preemption, end-of-run archiving — is the
//! crate-private `Campaign`, which Algorithm 2
//! ([`crate::mla_mo::tune_multiobjective`]) and transfer tuning
//! ([`crate::tla::transfer_tune`]) run as well.

use crate::db_bridge;
use crate::options::{Acquisition, MlaOptions, SearchMethod};
use crate::perfmodel::{FeatureScaler, LinearPerfModel};
use crate::problem::TuningProblem;
use gptune_db::{CheckpointKind, Db};
use gptune_gp::gp::{expected_improvement, lower_confidence_bound, probability_of_improvement};
use gptune_gp::{IncrementalLcm, LcmFitOptions, LcmModel, Prediction};
use gptune_la::par;
use gptune_opt::{cmaes, de, pso};
use gptune_rng::{Rng, SeedableRng, StdRng};
use gptune_runtime::{EvalOutcome, FailureKind, JobStatus, Phase, PhaseTimer, WorkerGroup};
use gptune_space::sampling;
use gptune_space::{Config, Value};
use gptune_trace::Span;
use std::time::Duration;

/// Result for one task.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The task parameters.
    pub task: Config,
    /// Best configuration found.
    pub best_config: Config,
    /// Best (finite) objective value found; `INFINITY` if every run failed.
    pub best_value: f64,
    /// All evaluated `(config, value)` pairs in evaluation order — the
    /// anytime trajectory used by the stability metric.
    pub samples: Vec<(Config, f64)>,
}

impl TaskResult {
    /// Best-so-far value after each evaluation (the anytime curve).
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.samples
            .iter()
            .map(|(_, y)| {
                if *y < best {
                    best = *y;
                }
                best
            })
            .collect()
    }
}

/// Result of a full MLA run.
#[derive(Debug, Clone)]
pub struct MlaResult {
    /// Per-task outcomes, index-aligned with `problem.tasks`.
    pub per_task: Vec<TaskResult>,
    /// Phase-time breakdown (objective / modeling / search).
    pub stats: gptune_runtime::PhaseStats,
    /// Per-iteration phase breakdown for the iterations run by *this*
    /// process (a resumed run reports only its post-resume iterations;
    /// the aggregate `stats` still covers the whole run).
    pub iterations: Vec<IterationStat>,
    /// `false` when the run was preempted by
    /// [`MlaOptions::stop_after_iterations`] before exhausting `ε_tot`
    /// (a checkpoint holds the in-flight state; rerunning with the same
    /// options resumes it).
    pub completed: bool,
}

/// Phase breakdown of a single MLA iteration — one row of the runlog's
/// per-iteration table, mirroring the `gptune.core.modeling` /
/// `gptune.core.search` spans the iteration emitted on the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStat {
    /// Iteration index (continues across a checkpoint resume).
    pub iteration: usize,
    /// Cumulative evaluations owned by this run after the iteration.
    pub n_evals: usize,
    /// Wall-clock of this iteration's modeling phase.
    pub modeling_wall: std::time::Duration,
    /// Wall-clock of this iteration's search phase.
    pub search_wall: std::time::Duration,
    /// Best finite objective value observed so far across all tasks
    /// (first objective), `INFINITY` while everything has failed.
    pub incumbent: f64,
}

/// A failed evaluation, classified by the fault-tolerant runtime and kept
/// alongside the (censored) output it produced.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EvalFailure {
    /// Index into [`Evaluations::points`] of the evaluation that failed.
    pub index: usize,
    /// Failure classification.
    pub kind: FailureKind,
    /// Execution attempts behind the failure (0 = skipped because the
    /// archive already recorded this configuration as failing).
    pub attempts: u32,
    /// Seconds lost to the failure (wall-clock for crashes/timeouts,
    /// virtual objective seconds for invalid measurements).
    pub elapsed_secs: f64,
}

/// A run's evaluation archive, shared by the tuning loops and the session.
#[derive(Default)]
pub(crate) struct Evaluations {
    /// `(task_idx, config)` of every evaluation, in order.
    pub points: Vec<(usize, Config)>,
    /// Objective vectors, aligned with `points` (failed evaluations hold
    /// `INFINITY` in every component).
    pub outputs: Vec<Vec<f64>>,
    /// Classified failures, each pointing into `points`.
    pub failures: Vec<EvalFailure>,
}

impl Evaluations {
    /// Deduplication key for a configuration within a task.
    pub(crate) fn contains(&self, task_idx: usize, config: &[Value]) -> bool {
        self.points
            .iter()
            .any(|(t, c)| *t == task_idx && c.as_slice() == config)
    }

    /// Best finite value of objective `s` on task `task_idx`, on the
    /// model scale ([`transform_objective`]) — the incumbent the
    /// acquisition improves on. `INFINITY` while the task has none.
    pub(crate) fn model_incumbent(&self, task_idx: usize, s: usize, log: bool) -> f64 {
        self.points
            .iter()
            .zip(&self.outputs)
            .filter(|((t, _), o)| *t == task_idx && o[s].is_finite())
            .map(|(_, o)| transform_objective(o[s], log))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Evaluates a batch of `(task, config)` points in parallel over the
/// fault-tolerant evaluation worker group, honouring min-of-k runs and
/// recording virtual objective time (output 0 is the runtime; repeated
/// runs all cost time).
///
/// Runs under the [`gptune_runtime::FaultPolicy`] derived from `opts`: a
/// panicking objective is isolated, a hung one is expired by the watchdog
/// deadline, and transient faults are retried with backoff. Failed
/// evaluations come back censored (`INFINITY` in every output component)
/// plus a classified [`EvalFailure`] record. Points matching
/// `known_failed` — the failure set persisted by earlier runs — are not
/// re-executed at all: they return the censored output immediately with
/// an `attempts == 0` record.
///
/// Retry attempts perturb the objective seed (attempt 0 reproduces the
/// fault-free seed exactly), so a *transient* fault injected by seed is
/// actually survivable while deterministic behavior is unchanged.
pub(crate) fn evaluate_batch(
    problem: &TuningProblem,
    batch: &[(usize, Config)],
    opts: &MlaOptions,
    timer: &PhaseTimer,
    eval_offset: usize,
    known_failed: &[(usize, Config, FailureKind)],
) -> (Vec<Vec<f64>>, Vec<EvalFailure>) {
    let gamma = problem.n_objectives;
    let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); batch.len()];
    let mut failures: Vec<EvalFailure> = Vec::new();

    // Skip configurations the archive already recorded as failing.
    let mut live: Vec<(usize, (usize, Config))> = Vec::new();
    for (k, (task_idx, config)) in batch.iter().enumerate() {
        match known_failed
            .iter()
            .find(|(t, c, _)| t == task_idx && c == config)
        {
            Some((_, _, kind)) => {
                outputs[k] = vec![f64::INFINITY; gamma];
                failures.push(EvalFailure {
                    index: eval_offset + k,
                    kind: *kind,
                    attempts: 0,
                    elapsed_secs: 0.0,
                });
                timer.add_objective_run(0.0);
                timer.add_failure(*kind);
            }
            None => live.push((k, (*task_idx, config.clone()))),
        }
    }

    if !live.is_empty() {
        let group = WorkerGroup::spawn(opts.eval_workers);
        let objective = problem.objective.clone();
        let tasks = problem.tasks.clone();
        let runs = opts.runs_per_eval.max(1);
        let seed = opts.seed;
        let policy = opts.fault_policy();
        let slots: Vec<usize> = live.iter().map(|(k, _)| *k).collect();
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: `group` was spawned on the previous line and no shutdown() has \
                      run, so try_map on it cannot observe a closed group"
        )]
        let outcomes = group
            .try_map(live, &policy, move |(k, (task_idx, config)), attempt| {
                let base = seed
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add((eval_offset + k) as u64 * 1000)
                    .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut best = vec![f64::INFINITY; gamma];
                let mut spent = 0.0;
                for r in 0..runs {
                    let out = objective(&tasks[*task_idx], config, base.wrapping_add(r as u64));
                    assert_eq!(out.len(), gamma, "objective arity mismatch");
                    if out[0].is_finite() {
                        spent += out[0].max(0.0);
                    }
                    for (b, v) in best.iter_mut().zip(&out) {
                        if *v < *b {
                            *b = *v;
                        }
                    }
                }
                if best[0].is_finite() {
                    JobStatus::Ok((best, spent))
                } else {
                    JobStatus::Invalid((best, spent))
                }
            })
            .expect("freshly spawned evaluation group is open");
        group.shutdown();

        for (k, outcome) in slots.into_iter().zip(outcomes) {
            let attempts = outcome.attempts();
            if attempts > 1 {
                timer.add_retries((attempts - 1) as usize);
            }
            match outcome {
                EvalOutcome::Ok {
                    value: (best, spent),
                    ..
                } => {
                    timer.add_objective_run(spent);
                    outputs[k] = best;
                }
                EvalOutcome::Invalid {
                    value: (best, spent),
                    attempts,
                } => {
                    timer.add_objective_run(spent);
                    timer.add_failure(FailureKind::Invalid);
                    failures.push(EvalFailure {
                        index: eval_offset + k,
                        kind: FailureKind::Invalid,
                        attempts,
                        elapsed_secs: spent,
                    });
                    outputs[k] = best;
                }
                failed => {
                    #[expect(
                        clippy::expect_used,
                        reason = "PANIC-SAFETY: this match arm only sees non-Ok outcomes, and \
                                  every non-Ok EvalOutcome variant carries a failure kind by \
                                  construction"
                    )]
                    let kind = failed
                        .failure_kind()
                        .expect("non-Ok outcome has a failure kind");
                    let elapsed_secs = match &failed {
                        EvalOutcome::Crashed { elapsed, .. }
                        | EvalOutcome::TimedOut { elapsed, .. }
                        | EvalOutcome::Transient { elapsed, .. } => elapsed.as_secs_f64(),
                        _ => 0.0,
                    };
                    timer.add_objective_run(0.0);
                    timer.add_failure(kind);
                    failures.push(EvalFailure {
                        index: eval_offset + k,
                        kind,
                        attempts,
                        elapsed_secs,
                    });
                    outputs[k] = vec![f64::INFINITY; gamma];
                }
            }
        }
    }

    failures.sort_by_key(|f| f.index);
    (outputs, failures)
}

/// Whether the archive recorded `config` as failing on task `task_idx`.
pub(crate) fn known_to_fail(
    known_failed: &[(usize, Config, FailureKind)],
    task_idx: usize,
    config: &Config,
) -> bool {
    known_failed
        .iter()
        .any(|(t, c, _)| *t == task_idx && c == config)
}

/// One tuning run's lifecycle — the part [`tune`],
/// [`crate::mla_mo::tune_multiobjective`] and [`crate::tla::transfer_tune`]
/// share. It owns the phase timer, the archive handle, the known-failure
/// set, the evaluation archive and the iteration counters: it opens or
/// resumes the run, evaluates batches, checkpoints after sampling, every
/// [`MlaOptions::checkpoint_every`] iterations and on preemption, and
/// finally archives the run and clears its checkpoint. Each loop adds its
/// own initial design, modeling, search and result assembly.
///
/// The checkpoint is keyed by the run fingerprint
/// ([`db_bridge::run_fingerprint`]), so a run adopts, overwrites and clears
/// only the checkpoint it wrote itself.
pub(crate) struct Campaign<'a> {
    pub problem: &'a TuningProblem,
    pub opts: &'a MlaOptions,
    /// Which loop runs the campaign.
    pub kind: CheckpointKind,
    pub timer: PhaseTimer,
    db: Option<Db>,
    /// Problem signature (journal key).
    pub sig: u64,
    /// Run fingerprint (checkpoint key).
    pub run: u64,
    /// Configurations the archive records as failing; never re-executed.
    pub known_failed: Vec<(usize, Config, FailureKind)>,
    pub evals: Evaluations,
    /// Completed iterations (continues across a resume).
    pub iteration: usize,
    /// Per-task evaluations consumed so far (`ε`).
    pub eps: usize,
    /// Preloaded archive records at the head of `evals`: observations for
    /// the surrogate, but not this run's budget, results or archive.
    pub n_preloaded: usize,
    /// Rows of the iterations this process ran.
    pub stats: Vec<IterationStat>,
    /// `true` when [`Campaign::start`] adopted a checkpoint, so the
    /// sampling phase has already run.
    pub resumed: bool,
    /// `false` once [`MlaOptions::stop_after_iterations`] preempted the run.
    pub completed: bool,
    iters_this_process: usize,
}

impl<'a> Campaign<'a> {
    /// Starts the run: opens the archive configured in `opts`, loads the
    /// failure set earlier runs recorded (for runs that read the archive:
    /// warm starts and checkpointed runs), and adopts this run's checkpoint
    /// when one exists. `target` is the TLA target task, `None` for the MLA
    /// loops.
    pub(crate) fn start(
        problem: &'a TuningProblem,
        opts: &'a MlaOptions,
        kind: CheckpointKind,
        target: Option<usize>,
    ) -> Campaign<'a> {
        let mut c = Campaign {
            problem,
            opts,
            kind,
            timer: PhaseTimer::new(),
            db: db_bridge::open_db(opts),
            sig: db_bridge::problem_signature(problem),
            run: db_bridge::run_fingerprint(kind, opts, problem, target),
            known_failed: Vec::new(),
            evals: Evaluations::default(),
            iteration: 0,
            eps: 0,
            n_preloaded: 0,
            stats: Vec::new(),
            resumed: false,
            completed: true,
            iters_this_process: 0,
        };
        if let Some(db) =
            c.db.as_ref()
                .filter(|_| opts.warm_start_from_db || opts.checkpointing())
        {
            #[expect(
                clippy::panic,
                reason = "PANIC-SAFETY: an unreadable archive on a run that was explicitly asked \
                          to use one is fatal by design (same policy as db_bridge::open_db)"
            )]
            let known = db_bridge::known_failures(db, problem, c.sig)
                .unwrap_or_else(|e| panic!("gptune-db: cannot read failure records: {e}"));
            c.known_failed = known;
        }
        let loaded = c
            .checkpoint_db()
            .map(|db| db_bridge::load_checkpoint_traced(db, c.sig, c.run));
        match loaded {
            Some(Ok(Some(ckpt))) if db_bridge::checkpoint_matches(&ckpt, problem.n_tasks()) => {
                c.evals = db_bridge::evals_from_checkpoint(&ckpt);
                c.iteration = ckpt.iteration;
                c.eps = ckpt.eps;
                c.n_preloaded = ckpt.n_preloaded;
                c.timer.restore(db_bridge::stats_from_db(&ckpt.stats));
                c.resumed = true;
            }
            Some(Err(e)) => eprintln!("gptune-db: ignoring unreadable checkpoint: {e}"),
            _ => {} // no checkpoint, or an unsound one
        }
        c
    }

    /// The archive, when this run reads and writes checkpoints.
    fn checkpoint_db(&self) -> Option<&Db> {
        self.db.as_ref().filter(|_| self.opts.checkpointing())
    }

    /// Persists the in-flight state when this run checkpoints.
    fn checkpoint(&self) {
        if let Some(db) = self.checkpoint_db() {
            db_bridge::write_checkpoint(db, self);
        }
    }

    /// The MLA warm start: preloads the archive's matching records when
    /// [`MlaOptions::warm_start_from_db`] asks for them.
    pub(crate) fn warm_start(&mut self) {
        let Some(db) = self.db.as_ref().filter(|_| self.opts.warm_start_from_db) else {
            return;
        };
        #[expect(
            clippy::panic,
            reason = "PANIC-SAFETY: unreadable archive on an explicit warm-start request is fatal \
                      by design"
        )]
        let records = db_bridge::preload_from_db(db, self.problem, self.sig)
            .unwrap_or_else(|e| panic!("gptune-db: cannot read archive: {e}"));
        self.preload(records);
    }

    /// Stores `(task, config, outputs)` records ahead of this run's own
    /// evaluations, skipping duplicates: free observations for the
    /// surrogate, excluded from the budget, the results and the archive.
    pub(crate) fn preload(&mut self, records: impl IntoIterator<Item = (usize, Config, Vec<f64>)>) {
        for (t, cfg, out) in records {
            if !self.evals.contains(t, &cfg) {
                self.evals.points.push((t, cfg));
                self.evals.outputs.push(out);
            }
        }
        self.n_preloaded = self.evals.points.len();
    }

    /// Evaluations this run made itself: the archive past its preloads.
    pub(crate) fn n_fresh(&self) -> usize {
        self.evals.points.len() - self.n_preloaded
    }

    /// This run's own `((task, config), outputs)` pairs, in order.
    pub(crate) fn fresh(&self) -> impl Iterator<Item = (&(usize, Config), &Vec<f64>)> {
        self.evals
            .points
            .iter()
            .zip(&self.evals.outputs)
            .skip(self.n_preloaded)
    }

    /// Evaluates `batch` under [`Phase::Objective`] and appends it, with
    /// its failures, to the archive.
    pub(crate) fn evaluate(&mut self, batch: Vec<(usize, Config)>) {
        let offset = self.evals.points.len();
        let (outputs, fails) = self.timer.time(Phase::Objective, || {
            evaluate_batch(
                self.problem,
                &batch,
                self.opts,
                &self.timer,
                offset,
                &self.known_failed,
            )
        });
        self.evals.points.extend(batch);
        self.evals.outputs.extend(outputs);
        self.evals.failures.extend(fails);
    }

    /// Ends the sampling phase at `eps`, checkpointing the (expensive)
    /// initial design at once: a run killed in its first iteration then
    /// resumes without re-evaluating it.
    pub(crate) fn end_sampling(&mut self, eps: usize) {
        self.eps = eps;
        self.checkpoint();
    }

    /// Whether to run another iteration: budget remains, and
    /// [`MlaOptions::stop_after_iterations`] has not preempted this
    /// process (which marks the run incomplete).
    pub(crate) fn next_iteration(&mut self) -> bool {
        if self.eps >= self.opts.eps_total {
            return false;
        }
        if self
            .opts
            .stop_after_iterations
            .is_some_and(|n| self.iters_this_process >= n)
        {
            self.completed = false;
            return false;
        }
        true
    }

    /// Ends an iteration: records its row, closes its span, advances `ε`
    /// by `eps_step`, and writes the periodic checkpoint outside the span.
    pub(crate) fn end_iteration(
        &mut self,
        span: Span,
        eps_step: usize,
        modeling_wall: Duration,
        search_wall: Duration,
    ) {
        self.stats.push(IterationStat {
            iteration: self.iteration,
            n_evals: self.n_fresh(),
            modeling_wall,
            search_wall,
            incumbent: self
                .fresh()
                .map(|(_, o)| o[0])
                .filter(|y| y.is_finite())
                .fold(f64::INFINITY, f64::min),
        });
        drop(span);
        self.eps += eps_step;
        self.iteration += 1;
        self.iters_this_process += 1;
        if self.opts.checkpointing() && self.iteration.is_multiple_of(self.opts.checkpoint_every) {
            self.checkpoint();
        }
    }

    /// Ends the run. A completed run archives its own evaluations and
    /// clears its checkpoint; a preempted one persists its final
    /// in-flight state for the resumer.
    pub(crate) fn finish(&self) {
        let Some(db) = &self.db else {
            return;
        };
        if !self.completed {
            self.checkpoint();
            return;
        }
        #[expect(
            clippy::panic,
            reason = "PANIC-SAFETY: losing the final archive write would silently discard the \
                      run's results; fail loudly instead"
        )]
        db_bridge::archive_run(db, self)
            .unwrap_or_else(|e| panic!("gptune-db: cannot archive run: {e}"));
        if self.opts.checkpointing() {
            let _ = db.clear_checkpoint(self.sig, self.run);
        }
    }
}

/// Runs `search_one` for every task on up to `opts.search_workers`
/// threads, results in task order.
pub(crate) fn search_tasks<T: Send>(
    delta: usize,
    opts: &MlaOptions,
    search_one: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    par::with_width(opts.search_workers, || par::map_indexed(delta, search_one))
}

/// The sampling phase of a fresh Algorithm 1 or 2 run: the warm start,
/// then an initial design of `ε_tot/2` configurations per task.
/// Configurations the archive knows to fail are redrawn like infeasible
/// ones, so a warm start spends its budget on configurations that can
/// still succeed.
pub(crate) fn sampling_phase(c: &mut Campaign<'_>) {
    c.warm_start();
    let (problem, n_init) = (c.problem, c.opts.initial_samples());
    let mut rng = StdRng::seed_from_u64(c.opts.seed);
    let mut batch = Vec::with_capacity(n_init * problem.n_tasks());
    for task_idx in 0..problem.n_tasks() {
        let samples =
            sampling::sample_space_where(&problem.tuning_space, n_init, &mut rng, 200, |cfg| {
                !known_to_fail(&c.known_failed, task_idx, cfg)
            });
        assert!(
            !samples.is_empty(),
            "no feasible configuration found for task {task_idx} — check constraints"
        );
        for s in samples {
            batch.push((task_idx, s));
        }
    }
    c.evaluate(batch);
    c.end_sampling(c.n_fresh() / problem.n_tasks().max(1));
}

/// The surrogate input representation: normalized tuning coordinates plus
/// (optionally) performance-model features.
pub(crate) struct SurrogateInputs {
    /// Normalized LCM inputs, one per evaluation.
    pub xs: Vec<Vec<f64>>,
    /// Task index per evaluation.
    pub task_of: Vec<usize>,
    /// Feature machinery to enrich *new* candidate points, when enabled.
    pub enrich: Option<Enricher>,
}

/// Enriches candidate configurations with scaled performance-model features.
pub(crate) struct Enricher {
    scaler: FeatureScaler,
    fitted: Option<LinearPerfModel>,
}

impl Enricher {
    /// Features for a candidate config of a given task.
    pub(crate) fn features(
        &self,
        problem: &TuningProblem,
        task_idx: usize,
        config: &[Value],
    ) -> Vec<f64> {
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: an Enricher is only constructed (below) when \
                      `problem.model.is_some()`, so model_features cannot return None"
        )]
        let raw = problem
            .model_features(task_idx, config)
            .expect("enricher requires a model");
        let cooked = match &self.fitted {
            Some(m) => vec![m.predict(&raw)],
            None => raw,
        };
        self.scaler.transform(&cooked)
    }
}

/// Builds the LCM inputs from the evaluation archive (paper Sec. 3.3 when
/// model features are enabled).
pub(crate) fn build_inputs(
    problem: &TuningProblem,
    evals: &Evaluations,
    objective_idx: usize,
    opts: &MlaOptions,
) -> (SurrogateInputs, Vec<f64>) {
    let y: Vec<f64> = censor_failures(
        evals
            .outputs
            .iter()
            .map(|o| transform_objective(o[objective_idx], opts.log_objective))
            .collect(),
    );

    let base: Vec<Vec<f64>> = evals
        .points
        .iter()
        .map(|(_, c)| problem.tuning_space.normalize(c))
        .collect();
    let task_of: Vec<usize> = evals.points.iter().map(|(t, _)| *t).collect();

    let enrich = if opts.use_model_features && problem.model.is_some() {
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: guarded by `problem.model.is_some()` on the line above; \
                      model_features only returns None when the model is absent"
        )]
        let raw: Vec<Vec<f64>> = evals
            .points
            .iter()
            .map(|(t, c)| problem.model_features(*t, c).expect("model present"))
            .collect();
        let fitted = if opts.fit_model_coefficients {
            // Fit against the raw (not log) runtime: Eq. 7 is additive in
            // machine time.
            let raw_y: Vec<f64> = evals.outputs.iter().map(|o| o[objective_idx]).collect();
            LinearPerfModel::fit(&raw, &raw_y)
        } else {
            None
        };
        let cooked: Vec<Vec<f64>> = match &fitted {
            Some(m) => raw.iter().map(|r| vec![m.predict(r)]).collect(),
            None => raw,
        };
        let scaler = FeatureScaler::fit(&cooked);
        Some(Enricher { scaler, fitted })
    } else {
        None
    };

    let xs: Vec<Vec<f64>> = match &enrich {
        Some(e) => evals
            .points
            .iter()
            .zip(&base)
            .map(|((t, c), b)| {
                let mut v = b.clone();
                v.extend(e.features(problem, *t, c));
                v
            })
            .collect(),
        None => base,
    };

    (
        SurrogateInputs {
            xs,
            task_of,
            enrich,
        },
        y,
    )
}

/// Objective transform for modeling (log for positive runtimes).
pub(crate) fn transform_objective(y: f64, log: bool) -> f64 {
    if !y.is_finite() {
        return f64::INFINITY; // censored by `censor_failures` before the fit
    }
    if log {
        y.max(1e-12).ln()
    } else {
        y
    }
}

/// Censors failed evaluations for the surrogate fit: every non-finite
/// target becomes a penalty one spread above the worst observed success —
/// GPTune's "large value" treatment of failed runs. The surrogate learns
/// that the region is bad without an infinity degenerating the fit (the
/// raw `INFINITY` would collapse onto the worst success, erasing the
/// failure signal), and a batch where *everything* failed still yields a
/// finite (constant) target vector instead of panicking the LCM.
pub(crate) fn censor_failures(mut y: Vec<f64>) -> Vec<f64> {
    if y.iter().all(|v| v.is_finite()) {
        return y;
    }
    let finite: Vec<f64> = y.iter().copied().filter(|v| v.is_finite()).collect();
    let penalty = if finite.is_empty() {
        0.0
    } else {
        let worst = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let best = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        worst + (worst - best).max(1.0)
    };
    for v in &mut y {
        if !v.is_finite() {
            *v = penalty;
        }
    }
    y
}

/// One EI/PSO search for a single task. Returns a feasible, non-duplicate
/// configuration. Configurations in `known_failed` get the acquisition
/// barrier of infeasible ones.
#[expect(
    clippy::too_many_arguments,
    reason = "MLA, TLA and serve sessions each hold these pieces separately; a bundle struct \
              would exist only for this call"
)]
pub(crate) fn search_task(
    problem: &TuningProblem,
    model: &LcmModel,
    inputs: &SurrogateInputs,
    evals: &Evaluations,
    task_idx: usize,
    y_best_model: f64,
    opts: &MlaOptions,
    known_failed: &[(usize, Config, FailureKind)],
    rng: &mut StdRng,
) -> Config {
    let beta = problem.beta();

    // Shared pieces of the acquisition: the model-input embedding of a
    // candidate (normalized coordinates plus optional enrichment features)
    // and the negated acquisition score of a posterior prediction (all
    // acquisition scores are maximized; the optimizers minimize).
    let to_x_model = |u: &[f64], config: &Config| -> Vec<f64> {
        match &inputs.enrich {
            Some(e) => {
                let mut v = u.to_vec();
                v.extend(e.features(problem, task_idx, config));
                v
            }
            None => u.to_vec(),
        }
    };
    let score = |pred: &Prediction| -> f64 {
        -match opts.acquisition {
            Acquisition::ExpectedImprovement => expected_improvement(pred, y_best_model),
            Acquisition::LowerConfidenceBound { kappa } => lower_confidence_bound(pred, kappa),
            Acquisition::ProbabilityOfImprovement => probability_of_improvement(pred, y_best_model),
        }
    };

    // Candidates the search must not propose: infeasible ones and those
    // the archive knows to fail.
    let barred = |config: &Config| {
        !problem.tuning_space.is_valid(config) || known_to_fail(known_failed, task_idx, config)
    };

    // Scalar acquisition for the per-point search methods (DE, CMA-ES).
    let mut acq = |u: &[f64]| -> f64 {
        let config = problem.tuning_space.denormalize(u);
        if barred(&config) {
            // Worst possible score outside the feasible region (EI would be
            // 0 but LCB can be negative, so +∞ is the safe barrier).
            return f64::INFINITY;
        }
        let pred = model.predict(task_idx, &to_x_model(u, &config));
        score(&pred)
    };

    // Batched acquisition for PSO: the whole swarm is scored through one
    // blocked multi-RHS posterior solve ([`LcmModel::predict_batch`])
    // instead of a triangular solve per particle. Barred candidates keep
    // the +∞ barrier and are excluded from the batch.
    let mut acq_batch = |us: &[Vec<f64>]| -> Vec<f64> {
        let mut scores = vec![f64::INFINITY; us.len()];
        let mut live: Vec<usize> = Vec::with_capacity(us.len());
        let mut xs_model: Vec<Vec<f64>> = Vec::with_capacity(us.len());
        for (i, u) in us.iter().enumerate() {
            let config = problem.tuning_space.denormalize(u);
            if !barred(&config) {
                live.push(i);
                xs_model.push(to_x_model(u, &config));
            }
        }
        let preds = model.predict_batch(task_idx, &xs_model);
        for (i, pred) in live.into_iter().zip(&preds) {
            scores[i] = score(pred);
        }
        scores
    };

    // Seed the swarm with the incumbent best of this task.
    let mut seeds: Vec<Vec<f64>> = Vec::new();
    let mut best_seen = f64::INFINITY;
    let mut best_cfg: Option<&Config> = None;
    for ((t, c), o) in evals.points.iter().zip(&evals.outputs) {
        if *t == task_idx && o[0] < best_seen {
            best_seen = o[0];
            best_cfg = Some(c);
        }
    }
    if let Some(c) = best_cfg {
        seeds.push(problem.tuning_space.normalize(c));
    }

    // The swarm/population budget is shared across methods so ablations
    // compare at equal acquisition-evaluation cost.
    let acq_budget = opts.pso.particles * (opts.pso.iters + 1);
    let result = match opts.search_method {
        SearchMethod::Pso => pso::minimize_batch(&mut acq_batch, beta, &seeds, &opts.pso, rng),
        SearchMethod::DifferentialEvolution => {
            let de_opts = de::DeOptions {
                population: opts.pso.particles.max(4),
                generations: opts.pso.iters,
                ..Default::default()
            };
            de::minimize(&mut acq, beta, &seeds, &de_opts, rng)
        }
        SearchMethod::Cmaes => {
            let cm_opts = cmaes::CmaesOptions {
                max_evals: acq_budget,
                ..Default::default()
            };
            cmaes::minimize(
                &mut acq,
                beta,
                seeds.first().map(|s| s.as_slice()),
                &cm_opts,
                rng,
            )
        }
    };
    let mut candidate = problem.tuning_space.denormalize(&result.x);

    // Repair: feasible and not a duplicate of an existing sample.
    let mut tries = 0;
    while (!problem.tuning_space.is_valid(&candidate) || evals.contains(task_idx, &candidate))
        && tries < 100
    {
        let jitter: Vec<f64> = result
            .x
            .iter()
            .map(|v| (v + rng.gen_range(-0.08..0.08)).clamp(0.0, 1.0))
            .collect();
        candidate = problem.tuning_space.denormalize(&jitter);
        tries += 1;
    }
    if !problem.tuning_space.is_valid(&candidate) || evals.contains(task_idx, &candidate) {
        // Full fallback: random feasible sample.
        let fresh = sampling::sample_space(&problem.tuning_space, 1, rng, 500);
        if let Some(f) = fresh.into_iter().next() {
            candidate = f;
        }
    }
    candidate
}

/// Runs single-objective multitask MLA (Algorithm 1).
///
/// With [`MlaOptions::with_db`] the run participates in the shared history
/// database: completed runs archive their evaluations, warm starts preload
/// matching archived records, and (with
/// [`MlaOptions::checkpoint_every`] > 0) the in-flight state is
/// periodically checkpointed. A rerun with identical options resumes a
/// matching checkpoint and — because all post-sampling randomness is
/// derived from `(seed, iteration, task)` — converges to the *identical*
/// result an uninterrupted run would have produced.
///
/// # Panics
/// Panics if the problem is multi-objective (`γ > 1`) — use
/// [`crate::mla_mo::tune_multiobjective`], or select one output with a
/// wrapper objective. Also panics when a configured archive cannot be
/// opened or written (durability was requested; losing it is loud).
pub fn tune(problem: &TuningProblem, opts: &MlaOptions) -> MlaResult {
    assert_eq!(
        problem.n_objectives, 1,
        "mla::tune is single-objective; γ = {} given",
        problem.n_objectives
    );
    let delta = problem.n_tasks();
    let mut c = Campaign::start(problem, opts, CheckpointKind::Mla, None);
    if !c.resumed {
        sampling_phase(&mut c);
    }

    // --- MLA iterations ---
    // Persistent surrogate: under an incremental `opts.refit` schedule,
    // iterations between full refits extend the existing Cholesky factor
    // in O(n²) instead of re-optimizing hyperparameters from scratch.
    let mut surrogate = IncrementalLcm::new(opts.refit);
    while c.next_iteration() {
        let iteration = c.iteration;
        let iter_span = c
            .timer
            .tracer()
            .span("gptune.core.mla.iteration")
            .with("iteration", iteration as u64)
            .with("eps", c.eps as u64);
        // Modeling phase.
        let (inputs, y) = build_inputs(problem, &c.evals, 0, opts);
        let lcm_opts = LcmFitOptions {
            seed: opts.lcm.seed.wrapping_add(iteration as u64 * 7919),
            ..opts.lcm.clone()
        };
        let (_refit_mode, modeling_wall) =
            c.timer.time_iter(Phase::Modeling, iteration as u64, || {
                par::with_width(opts.model_workers, || {
                    surrogate.update(&inputs.xs, &inputs.task_of, &y, delta, &lcm_opts)
                })
            });
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: update always leaves a fitted model in place"
        )]
        let model = surrogate.model().expect("surrogate updated this iteration");

        // Search phase: one new point per task.
        let (new_points, search_wall) = c.timer.time_iter(Phase::Search, iteration as u64, || {
            let seeds: Vec<u64> = (0..delta)
                .map(|i| {
                    opts.seed
                        .wrapping_add(0x5bd1e995)
                        .wrapping_mul(iteration as u64 + 1)
                        .wrapping_add(i as u64 * 104729)
                })
                .collect();
            search_tasks(delta, opts, |task_idx| {
                let mut trng = StdRng::seed_from_u64(seeds[task_idx]);
                let y_best_model = c.evals.model_incumbent(task_idx, 0, opts.log_objective);
                let cfg = search_task(
                    problem,
                    model,
                    &inputs,
                    &c.evals,
                    task_idx,
                    y_best_model,
                    opts,
                    &c.known_failed,
                    &mut trng,
                );
                (task_idx, cfg)
            })
        });

        // Evaluate the δ new points.
        c.evaluate(new_points);
        c.end_iteration(iter_span, 1, modeling_wall, search_wall);
    }
    c.finish();
    finalize(c)
}

/// Assembles per-task results from the evaluation archive. Preloaded
/// (warm-start) records informed the surrogate but are not this run's
/// work: they are excluded from the reported samples/best so budgeted runs
/// stay comparable.
fn finalize(c: Campaign<'_>) -> MlaResult {
    let per_task = (0..c.problem.n_tasks())
        .map(|task_idx| {
            let mut samples = Vec::new();
            let mut best_value = f64::INFINITY;
            let mut best_config: Option<Config> = None;
            for ((t, cfg), o) in c.fresh() {
                if *t != task_idx {
                    continue;
                }
                samples.push((cfg.clone(), o[0]));
                if o[0] < best_value {
                    best_value = o[0];
                    best_config = Some(cfg.clone());
                }
            }
            TaskResult {
                task: c.problem.tasks[task_idx].clone(),
                best_config: best_config
                    .unwrap_or_else(|| samples.first().map(|(c, _)| c.clone()).unwrap_or_default()),
                best_value,
                samples,
            }
        })
        .collect();
    MlaResult {
        per_task,
        stats: c.timer.snapshot(),
        iterations: c.stats,
        completed: c.completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::{Param, Space};

    /// Smooth 1-D family: minimum at x = 0.2 + 0.06·t.
    fn toy_problem(delta: usize) -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
        TuningProblem::new("toy", ts, ps, tasks, |t, x, _| {
            let opt = 0.2 + 0.06 * t[0].as_real();
            vec![1.0 + (x[0].as_real() - opt).powi(2)]
        })
    }

    fn fast_opts(budget: usize) -> MlaOptions {
        let mut o = MlaOptions::default().with_budget(budget).with_seed(3);
        o.lcm.n_starts = 2;
        o.lcm.lbfgs.max_iters = 30;
        o.pso.particles = 20;
        o.pso.iters = 15;
        o.log_objective = false;
        o
    }

    #[test]
    fn parallel_regions_are_bit_identical_to_sequential() {
        // The restarts and the per-task searches run on the workers
        // whenever workers > 1, from the first iteration on: 2 tasks × 3
        // initial samples is a 6-point training set, 8 × 6 a 48-point one.
        let bits = |r: &MlaResult| -> Vec<Vec<(Config, u64)>> {
            r.per_task
                .iter()
                .map(|t| {
                    t.samples
                        .iter()
                        .map(|(c, y)| (c.clone(), y.to_bits()))
                        .collect()
                })
                .collect()
        };
        for (delta, budget) in [(2, 6), (8, 12)] {
            let p = toy_problem(delta);
            let run = |workers: usize| {
                let mut o = fast_opts(budget);
                o.model_workers = workers;
                o.search_workers = workers;
                tune(&p, &o)
            };
            let seq = run(1);
            assert!(seq.per_task.iter().all(|t| t.samples.len() == budget));
            for workers in [2, 4] {
                assert_eq!(
                    bits(&seq),
                    bits(&run(workers)),
                    "δ = {delta}: history diverged between 1 and {workers} workers"
                );
            }
        }
    }

    #[test]
    fn single_task_finds_minimum() {
        let p = toy_problem(1);
        let r = tune(&p, &fast_opts(14));
        assert_eq!(r.per_task.len(), 1);
        let best_x = r.per_task[0].best_config[0].as_real();
        assert!((best_x - 0.2).abs() < 0.08, "best_x {best_x}");
        assert!(r.per_task[0].best_value < 1.01);
        assert_eq!(r.per_task[0].samples.len(), 14);
    }

    #[test]
    fn multitask_finds_all_minima() {
        let p = toy_problem(3);
        let r = tune(&p, &fast_opts(12));
        for (i, tr) in r.per_task.iter().enumerate() {
            let opt = 0.2 + 0.06 * i as f64;
            assert!(
                (tr.best_config[0].as_real() - opt).abs() < 0.12,
                "task {i}: {} vs {opt}",
                tr.best_config[0].as_real()
            );
        }
    }

    #[test]
    fn beats_random_sampling_at_equal_budget() {
        // The acquisition loop must add value over its own initial LHS.
        let p = toy_problem(2);
        let mut o = fast_opts(16);
        o.n_initial = Some(8);
        let r = tune(&p, &o);
        let mla_best: f64 = r.per_task.iter().map(|t| t.best_value).sum();
        // Pure random: same budget entirely random (n_initial = ε_tot).
        let mut o2 = fast_opts(16);
        o2.n_initial = Some(16);
        let r2 = tune(&p, &o2);
        let rand_best: f64 = r2.per_task.iter().map(|t| t.best_value).sum();
        assert!(
            mla_best <= rand_best + 1e-6,
            "MLA {mla_best} vs random {rand_best}"
        );
    }

    #[test]
    fn stats_track_phases_and_evals() {
        let p = toy_problem(2);
        let r = tune(&p, &fast_opts(10));
        assert_eq!(r.stats.n_evals, 2 * 10);
        assert!(r.stats.modeling_wall.as_nanos() > 0);
        assert!(r.stats.search_wall.as_nanos() > 0);
        assert!(r.stats.objective_virtual_secs > 0.0);
    }

    #[test]
    fn iteration_breakdown_rows_are_consistent() {
        let p = toy_problem(2);
        let r = tune(&p, &fast_opts(10));
        // Budget 10 → 5 initial samples, then one iteration per remaining ε.
        assert_eq!(r.iterations.len(), 5);
        for (k, it) in r.iterations.iter().enumerate() {
            assert_eq!(it.iteration, k);
            assert!(it.incumbent.is_finite());
        }
        // n_evals is cumulative and strictly increasing (δ per iteration).
        for w in r.iterations.windows(2) {
            assert_eq!(w[1].n_evals, w[0].n_evals + 2);
            assert!(w[1].incumbent <= w[0].incumbent, "incumbent must improve");
        }
        let last = r.iterations.last().unwrap();
        assert_eq!(last.n_evals, r.stats.n_evals);
        // Per-iteration walls sum to at most the aggregate phase walls
        // (the aggregate also counts nothing else for modeling/search).
        let modeling: std::time::Duration = r.iterations.iter().map(|i| i.modeling_wall).sum();
        let search: std::time::Duration = r.iterations.iter().map(|i| i.search_wall).sum();
        assert_eq!(modeling, r.stats.modeling_wall);
        assert_eq!(search, r.stats.search_wall);
    }

    #[test]
    fn best_so_far_is_monotone() {
        let p = toy_problem(1);
        let r = tune(&p, &fast_opts(12));
        let curve = r.per_task[0].best_so_far();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(curve.len(), 12);
    }

    #[test]
    fn respects_constraints_and_failures() {
        // Infeasible region below x = 0.5; objective fails (∞) for x > 0.9.
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder()
            .param(Param::real("x", 0.0, 1.0))
            .constraint("x>=0.5", |c| c[0].as_real() >= 0.5)
            .build();
        let p = TuningProblem::new(
            "constrained",
            ts,
            ps,
            vec![vec![Value::Real(0.0)]],
            |_, x, _| {
                let xv = x[0].as_real();
                if xv > 0.9 {
                    vec![f64::INFINITY]
                } else {
                    vec![(xv - 0.6).powi(2) + 0.5]
                }
            },
        );
        let r = tune(&p, &fast_opts(12));
        let tr = &r.per_task[0];
        for (c, _) in &tr.samples {
            assert!(c[0].as_real() >= 0.5, "sampled infeasible {c:?}");
        }
        assert!(tr.best_value.is_finite());
        assert!((tr.best_config[0].as_real() - 0.6).abs() < 0.1);
    }

    #[test]
    fn no_duplicate_samples_within_task() {
        let p = toy_problem(1);
        let r = tune(&p, &fast_opts(16));
        let s = &r.per_task[0].samples;
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                assert_ne!(s[i].0, s[j].0, "duplicate at {i},{j}");
            }
        }
    }

    #[test]
    fn model_features_accepted() {
        let p = toy_problem(2).with_model(|t, x| {
            let opt = 0.2 + 0.06 * t[0].as_real();
            vec![(x[0].as_real() - opt).abs()]
        });
        let mut o = fast_opts(10);
        o.use_model_features = true;
        let r = tune(&p, &o);
        assert!(r.per_task.iter().all(|t| t.best_value.is_finite()));
    }

    #[test]
    fn alternative_acquisitions_also_converge() {
        let p = toy_problem(1);
        for acq in [
            Acquisition::LowerConfidenceBound { kappa: 2.0 },
            Acquisition::ProbabilityOfImprovement,
        ] {
            let mut o = fast_opts(14);
            o.acquisition = acq;
            let r = tune(&p, &o);
            let best_x = r.per_task[0].best_config[0].as_real();
            assert!((best_x - 0.2).abs() < 0.15, "{acq:?}: best_x {best_x}");
        }
    }

    #[test]
    fn alternative_search_methods_also_converge() {
        let p = toy_problem(1);
        for method in [SearchMethod::DifferentialEvolution, SearchMethod::Cmaes] {
            let mut o = fast_opts(14);
            o.search_method = method;
            let r = tune(&p, &o);
            let best_x = r.per_task[0].best_config[0].as_real();
            assert!((best_x - 0.2).abs() < 0.15, "{method:?}: best_x {best_x}");
        }
    }

    #[test]
    #[should_panic]
    fn multiobjective_rejected() {
        let p = toy_problem(1).with_objectives(2);
        let _ = tune(&p, &fast_opts(8));
    }

    #[test]
    fn censoring_penalizes_failures_above_worst_success() {
        let y = censor_failures(vec![1.0, f64::INFINITY, 3.0, f64::NAN]);
        assert_eq!(y[0], 1.0);
        assert_eq!(y[2], 3.0);
        // Penalty = worst + max(spread, 1) = 3 + 2 = 5.
        assert_eq!(y[1], 5.0);
        assert_eq!(y[3], 5.0);
        // All-failed batches become a finite constant (no LCM panic).
        let all = censor_failures(vec![f64::INFINITY, f64::NAN]);
        assert_eq!(all, vec![0.0, 0.0]);
        // Fully-finite input is untouched.
        assert_eq!(censor_failures(vec![2.0, 4.0]), vec![2.0, 4.0]);
    }

    #[test]
    fn crashing_objective_is_isolated_and_censored() {
        // The objective panics on the left half of the domain; LHS
        // stratification guarantees the sampling phase hits it, and the
        // tuner must survive, classify, and still find the right optimum.
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let p = TuningProblem::new("crashy", ts, ps, vec![vec![Value::Real(0.0)]], |_, x, _| {
            let xv = x[0].as_real();
            assert!(xv >= 0.5, "simulated application crash at x = {xv}");
            vec![1.0 + (xv - 0.7).powi(2)]
        });
        let r = tune(&p, &fast_opts(10));
        let tr = &r.per_task[0];
        assert_eq!(tr.samples.len(), 10);
        assert!(tr.best_value.is_finite());
        assert!((tr.best_config[0].as_real() - 0.7).abs() < 0.1);
        assert!(r.stats.n_crashed >= 1, "stats: {:?}", r.stats);
        // Crashed evaluations appear in the samples as censored INFINITY.
        assert!(tr.samples.iter().any(|(_, y)| y.is_infinite()));
        assert_eq!(r.stats.n_evals, 10);
    }

    #[test]
    fn evaluate_batch_skips_known_failed_configs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let p = TuningProblem::new(
            "skippy",
            ts,
            ps,
            vec![vec![Value::Real(0.0)]],
            move |_, x, _| {
                calls2.fetch_add(1, Ordering::SeqCst);
                vec![x[0].as_real()]
            },
        );
        let bad: Config = vec![Value::Real(0.25)];
        let good: Config = vec![Value::Real(0.75)];
        let known = vec![(0usize, bad.clone(), FailureKind::Crashed)];
        let timer = PhaseTimer::new();
        let (outputs, fails) = evaluate_batch(
            &p,
            &[(0, bad), (0, good)],
            &MlaOptions::default(),
            &timer,
            5,
            &known,
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "known-failed re-executed");
        assert!(outputs[0][0].is_infinite());
        assert_eq!(outputs[1], vec![0.75]);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].index, 5);
        assert_eq!(fails[0].kind, FailureKind::Crashed);
        assert_eq!(fails[0].attempts, 0);
        assert_eq!(timer.snapshot().n_crashed, 1);
        assert_eq!(timer.snapshot().n_evals, 2);
    }
}
