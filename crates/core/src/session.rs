//! Session-driven MLA stepping: an ask/tell ("suggest/report") interface
//! over the same surrogate machinery as [`crate::mla::tune`].
//!
//! The batch MLA loop owns the objective function and drives evaluation
//! itself. A [`TunerSession`] inverts that control flow for serving: the
//! caller (a remote client, a workflow engine, a human) asks for a
//! configuration to try ([`TunerSession::suggest`]), measures it however it
//! likes, and reports the outcome back ([`TunerSession::report`]). The
//! session keeps the joint evaluation archive and refits the LCM surrogate
//! *lazily* — only when a suggestion is requested after new reports have
//! landed — so bursts of reports cost one refit, not one per report.
//!
//! Suggestions are deterministic in `(seed, suggestion counter)` given the
//! same report history, which is what lets a serve backend replay a
//! journal and reconstruct identical session state.

use crate::mla::{build_inputs, search_task, Evaluations, SurrogateInputs};
use crate::options::MlaOptions;
use crate::problem::TuningProblem;
use gptune_gp::{IncrementalLcm, LcmFitOptions, ModelState};
use gptune_la::ord::feq;
use gptune_rng::{SeedableRng, StdRng};
use gptune_space::{sampling, Config};

/// Seed-space tag separating session randomness from the MLA/TLA streams.
const SESSION_SEED_TAG: u64 = 0x5e55_1011;

/// Why [`TunerSession::report`] rejected a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// Task index out of range for the session's problem.
    BadTask,
    /// Configuration arity does not match the tuning space.
    BadConfig,
    /// Output arity does not match the problem's objective count.
    BadOutputs,
    /// The `(task, config)` pair was already reported (idempotent replay).
    Duplicate,
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::BadTask => write!(f, "task index out of range"),
            ReportError::BadConfig => write!(f, "configuration arity mismatch"),
            ReportError::BadOutputs => write!(f, "output arity mismatch"),
            ReportError::Duplicate => write!(f, "duplicate report"),
        }
    }
}

/// A portable image of a session's durable state: everything a server
/// needs to rebuild an equivalent [`TunerSession`] after an eviction or a
/// restart, given the same problem and options. Under the default
/// always-full [`gptune_gp::RefitSchedule`] the surrogate is *not*
/// captured: it is a deterministic function of the history and is refit
/// lazily on the first post-restore suggest. Under an incremental
/// schedule, a [`ModelState`] image of the surrogate rides along (the
/// last full fit's hyperparameters and the outputs it has absorbed), so
/// restore rebuilds it bit-identically with one covariance factorization
/// and the tail's extensions, instead of collapsing to a fresh full refit.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Suggestion counter at capture time (keeps the post-restore
    /// suggestion stream aligned with the pre-eviction one).
    pub n_suggested: u64,
    /// Refit counter at capture time (the refit seed is salted by this,
    /// so restoring it keeps the next surrogate fit bit-identical).
    pub n_refits: u64,
    /// Accepted reports in arrival order: `(task, config, outputs)`.
    pub history: Vec<(usize, Config, Vec<f64>)>,
    /// Image of the incremental surrogate; `None` under the default
    /// always-full schedule (or before the first fit), in which case
    /// restore refits from history exactly as before.
    pub model_state: Option<ModelState>,
}

/// An ask/tell tuning session over one [`TuningProblem`].
pub struct TunerSession {
    problem: TuningProblem,
    opts: MlaOptions,
    evals: Evaluations,
    /// Remaining initial-design configurations per task (served in order).
    initial: Vec<Vec<Config>>,
    /// Persistent surrogate: refit fully or extended incrementally per
    /// [`MlaOptions::refit`]; marked stale by every accepted report.
    surrogate: IncrementalLcm,
    /// Inputs matching the surrogate's last update (for acquisition search).
    inputs: Option<SurrogateInputs>,
    dirty: bool,
    n_suggested: u64,
    n_refits: u64,
    /// Wire request id of the in-flight serve request, if any; session
    /// spans carry it while set so server traces correlate with the
    /// client call that caused the work.
    request_id: Option<String>,
}

impl TunerSession {
    /// Opens a session. The per-task initial design (an LHS of
    /// [`MlaOptions::initial_samples`] configurations) is drawn up front;
    /// suggestions serve it first and switch to model-guided search once
    /// it is exhausted and at least two finite outcomes are known.
    pub fn new(problem: TuningProblem, opts: MlaOptions) -> TunerSession {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ SESSION_SEED_TAG);
        let n_init = opts.initial_samples();
        let initial: Vec<Vec<Config>> = (0..problem.n_tasks())
            .map(|_| {
                let mut q = sampling::sample_space(&problem.tuning_space, n_init, &mut rng, 200);
                q.reverse(); // serve in design order by popping from the back
                q
            })
            .collect();
        let surrogate = IncrementalLcm::new(opts.refit);
        TunerSession {
            problem,
            opts,
            evals: Evaluations::default(),
            initial,
            surrogate,
            inputs: None,
            dirty: false,
            n_suggested: 0,
            n_refits: 0,
            request_id: None,
        }
    }

    /// Rebuilds a session from a [`SessionSnapshot`]. The snapshot's
    /// history is accepted with the same validation and dedup as
    /// [`TunerSession::report`] (duplicates are absorbed, so replaying an
    /// at-least-once archive is safe), but without its span or its
    /// censored-evaluation count: archived rows are not new evaluations.
    /// Any other rejection means the snapshot does not match `problem` and
    /// is returned as the error. The suggestion counter resumes from the
    /// snapshot, so the restored session continues the same deterministic
    /// suggestion stream it would have produced without the eviction. A
    /// [`ModelState`] image rebuilds the surrogate without re-optimizing
    /// ([`gptune_gp::IncrementalLcm::restore`]); without one, or when it
    /// does not fit the history, the first suggest refits from scratch.
    pub fn restore(
        problem: TuningProblem,
        opts: MlaOptions,
        snapshot: &SessionSnapshot,
    ) -> Result<TunerSession, ReportError> {
        let mut s = TunerSession::new(problem, opts);
        for (task, config, outputs) in &snapshot.history {
            match s.accept(*task, config.clone(), outputs.clone()) {
                Ok(_) | Err(ReportError::Duplicate) => {}
                Err(e) => return Err(e),
            }
        }
        s.n_suggested = s.n_suggested.max(snapshot.n_suggested);
        s.n_refits = snapshot.n_refits;
        if let Some(state) = &snapshot.model_state {
            // The surrogate covers the first `state.y.len()` points of the
            // history (reports accepted after the last refit were not yet
            // absorbed at capture time).
            let (inputs, y) = build_inputs(&s.problem, &s.evals, 0, &s.opts);
            let m = state.y.len();
            if m <= inputs.xs.len()
                && s.surrogate
                    .restore(
                        &inputs.xs[..m],
                        &inputs.task_of[..m],
                        s.problem.n_tasks(),
                        &s.opts.lcm,
                        state,
                    )
                    .is_ok()
            {
                // The restored session is clean iff the surrogate absorbed
                // every replayed output — exactly the live session's state
                // at capture time. A stale (or failed) restore refits
                // lazily on the next suggest, as before.
                s.dirty = y.len() != m || y.iter().zip(&state.y).any(|(a, b)| !feq(*a, *b));
                s.inputs = Some(SurrogateInputs {
                    xs: inputs.xs[..m].to_vec(),
                    task_of: inputs.task_of[..m].to_vec(),
                    ..inputs
                });
            }
        }
        Ok(s)
    }

    /// Captures the durable state of this session (see
    /// [`SessionSnapshot`]). Cheap relative to a refit: one clone of the
    /// evaluation archive.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            n_suggested: self.n_suggested,
            n_refits: self.n_refits,
            history: self
                .history()
                .map(|(t, c, o)| (t, c.clone(), o.to_vec()))
                .collect(),
            model_state: self.surrogate.state(),
        }
    }

    /// The session's problem.
    pub fn problem(&self) -> &TuningProblem {
        &self.problem
    }

    /// Attaches (or clears) the wire request id for subsequent session
    /// operations: `suggest`/`report`/refit spans emitted while it is set
    /// carry a `rid` field, so `trace_tool correlate` can link server-side
    /// modeling work back to the client request that triggered it. The
    /// serve layer sets this once per dispatched request; embedded users
    /// can ignore it. Purely observational — never consulted by the
    /// tuning logic, so determinism is unaffected.
    pub fn set_request_id(&mut self, rid: Option<String>) {
        self.request_id = rid;
    }

    /// Tags a session-level span with the request id when one is set.
    /// (Takes the span rather than the name so every span name stays a
    /// literal at its call site, per the GX602 taxonomy lint.)
    fn tag_rid(&self, mut span: gptune_trace::Span) -> gptune_trace::Span {
        if let Some(rid) = &self.request_id {
            span.add("rid", rid.as_str());
        }
        span
    }

    /// Suggests a configuration to evaluate for `task_idx`. Returns `None`
    /// only for an out-of-range task. Serves the initial design first,
    /// then refits the surrogate (if reports landed since the last fit)
    /// and searches the acquisition; falls back to random sampling while
    /// the archive is too small to model.
    pub fn suggest(&mut self, task_idx: usize) -> Option<Config> {
        if task_idx >= self.problem.n_tasks() {
            return None;
        }
        let _span = self
            .tag_rid(gptune_trace::global().span("gptune.core.session.suggest"))
            .with("task", task_idx);
        self.n_suggested += 1;
        let mut rng = StdRng::seed_from_u64(
            (self.opts.seed ^ SESSION_SEED_TAG)
                .wrapping_add(0x5bd1e995)
                .wrapping_mul(self.n_suggested)
                .wrapping_add(task_idx as u64 * 104_729),
        );

        // Initial design first, skipping anything already reported.
        while let Some(cfg) = self.initial[task_idx].pop() {
            if !self.evals.contains(task_idx, &cfg) {
                return Some(cfg);
            }
        }

        // Model-guided search once there is anything worth fitting.
        let n_finite = self
            .evals
            .outputs
            .iter()
            .filter(|o| o.first().is_some_and(|v| v.is_finite()))
            .count();
        if n_finite >= 2 {
            self.refit_if_dirty();
            if let (Some(model), Some(inputs)) = (self.surrogate.model(), self.inputs.as_ref()) {
                let y_best_model = self
                    .evals
                    .model_incumbent(task_idx, 0, self.opts.log_objective);
                let cfg = search_task(
                    &self.problem,
                    model,
                    inputs,
                    &self.evals,
                    task_idx,
                    y_best_model,
                    &self.opts,
                    &[],
                    &mut rng,
                );
                if !self.evals.contains(task_idx, &cfg) {
                    return Some(cfg);
                }
            }
        }

        // Fallback: a fresh random feasible sample (duplicates allowed as
        // a last resort so suggest never fails on a valid task).
        let mut fresh = sampling::sample_space(&self.problem.tuning_space, 1, &mut rng, 500);
        fresh.pop().or_else(|| {
            let mid = vec![0.5; self.problem.beta()];
            Some(self.problem.tuning_space.denormalize(&mid))
        })
    }

    /// Reports a measured outcome. Duplicate `(task, config)` pairs are
    /// rejected as [`ReportError::Duplicate`] — replaying a journal is
    /// idempotent. An accepted report marks the surrogate stale; the next
    /// [`TunerSession::suggest`] refits once.
    pub fn report(
        &mut self,
        task_idx: usize,
        config: Config,
        outputs: Vec<f64>,
    ) -> Result<(), ReportError> {
        let _span = self
            .tag_rid(gptune_trace::global().span("gptune.core.session.report"))
            .with("task", task_idx);
        // Censored evaluations (failed runs reported as non-finite) are a
        // model-health signal: a rising rate means the surrogate is being
        // fit around a shrinking feasible region.
        if self.accept(task_idx, config, outputs)? {
            gptune_trace::global()
                .counter("gptune.core.evals_censored")
                .add(1);
        }
        Ok(())
    }

    /// Validates, dedups and appends one evaluation, marking the surrogate
    /// stale; returns whether its outputs are censored (non-finite). The
    /// step [`report`](Self::report) and [`restore`](Self::restore) share.
    fn accept(
        &mut self,
        task_idx: usize,
        config: Config,
        outputs: Vec<f64>,
    ) -> Result<bool, ReportError> {
        if task_idx >= self.problem.n_tasks() {
            return Err(ReportError::BadTask);
        }
        if config.len() != self.problem.beta() {
            return Err(ReportError::BadConfig);
        }
        if outputs.len() != self.problem.n_objectives {
            return Err(ReportError::BadOutputs);
        }
        if self.evals.contains(task_idx, &config) {
            return Err(ReportError::Duplicate);
        }
        let censored = outputs.iter().any(|v| !v.is_finite());
        self.evals.points.push((task_idx, config));
        self.evals.outputs.push(outputs);
        self.dirty = true;
        Ok(censored)
    }

    /// All reported evaluations, in arrival order.
    pub fn history(&self) -> impl Iterator<Item = (usize, &Config, &[f64])> {
        self.evals
            .points
            .iter()
            .zip(&self.evals.outputs)
            .map(|((t, c), o)| (*t, c, o.as_slice()))
    }

    /// Number of accepted reports.
    pub fn n_reports(&self) -> usize {
        self.evals.points.len()
    }

    /// Number of suggestions served.
    pub fn n_suggested(&self) -> u64 {
        self.n_suggested
    }

    /// Number of surrogate refits performed (lazy: at most one per
    /// suggest, regardless of how many reports landed in between).
    pub fn n_refits(&self) -> u64 {
        self.n_refits
    }

    /// Best finite outcome for a task, if any.
    pub fn best_for_task(&self, task_idx: usize) -> Option<(&Config, f64)> {
        self.evals
            .points
            .iter()
            .zip(&self.evals.outputs)
            .filter(|((t, _), o)| *t == task_idx && o.first().is_some_and(|v| v.is_finite()))
            .map(|((_, c), o)| (c, o[0]))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn refit_if_dirty(&mut self) {
        if !self.dirty && self.surrogate.model().is_some() {
            return;
        }
        let _span = self.tag_rid(gptune_trace::global().span("gptune.core.session.refit"));
        let (inputs, y) = build_inputs(&self.problem, &self.evals, 0, &self.opts);
        let lcm_opts = LcmFitOptions {
            seed: self.opts.lcm.seed.wrapping_add(self.n_refits * 7919),
            ..self.opts.lcm.clone()
        };
        self.surrogate.update(
            &inputs.xs,
            &inputs.task_of,
            &y,
            self.problem.n_tasks(),
            &lcm_opts,
        );
        self.inputs = Some(inputs);
        self.dirty = false;
        self.n_refits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::{Param, Space, Value};

    fn toy(delta: usize) -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 4.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
        TuningProblem::new("session-toy", ts, ps, tasks, |t, x, _| {
            vec![(x[0].as_real() - 0.1 * t[0].as_real() - 0.2).powi(2)]
        })
    }

    fn fast_opts() -> MlaOptions {
        let mut o = MlaOptions::default().with_budget(8).with_seed(11);
        o.n_initial = Some(3);
        o.lcm.n_starts = 1;
        o.lcm.lbfgs.max_iters = 10;
        o.pso.particles = 10;
        o.pso.iters = 8;
        o.log_objective = false;
        o
    }

    fn measure(p: &TuningProblem, t: usize, cfg: &Config) -> Vec<f64> {
        p.evaluate(t, cfg, 0)
    }

    #[test]
    fn serves_initial_design_then_model_guided() {
        let p = toy(2);
        let mut s = TunerSession::new(p.clone(), fast_opts());
        for round in 0..5 {
            let cfg = s.suggest(0).unwrap();
            assert!(p.tuning_space.is_valid(&cfg), "round {round}");
            let y = measure(&p, 0, &cfg);
            s.report(0, cfg, y).unwrap();
        }
        assert_eq!(s.n_reports(), 5);
        // 3 initial + 2 model-guided suggestions → at least one refit.
        assert!(s.n_refits() >= 1);
        assert!(s.best_for_task(0).is_some());
    }

    #[test]
    fn report_validates_and_dedups() {
        let p = toy(1);
        let mut s = TunerSession::new(p, fast_opts());
        let cfg = vec![Value::Real(0.5)];
        assert_eq!(
            s.report(3, cfg.clone(), vec![1.0]),
            Err(ReportError::BadTask)
        );
        assert_eq!(s.report(0, vec![], vec![1.0]), Err(ReportError::BadConfig));
        assert_eq!(
            s.report(0, cfg.clone(), vec![]),
            Err(ReportError::BadOutputs)
        );
        assert_eq!(s.report(0, cfg.clone(), vec![1.0]), Ok(()));
        assert_eq!(
            s.report(0, cfg.clone(), vec![1.0]),
            Err(ReportError::Duplicate)
        );
        assert_eq!(s.n_reports(), 1);
    }

    #[test]
    fn suggestions_replay_deterministically() {
        let p = toy(2);
        let run = || {
            let mut s = TunerSession::new(p.clone(), fast_opts());
            let mut seen = Vec::new();
            for i in 0..6 {
                let t = i % 2;
                let cfg = s.suggest(t).unwrap();
                let y = measure(&p, t, &cfg);
                s.report(t, cfg.clone(), y).unwrap();
                seen.push((t, cfg));
            }
            seen
        };
        assert_eq!(run(), run(), "identical replay → identical suggestions");
    }

    #[test]
    fn refits_are_lazy_across_report_bursts() {
        let p = toy(1);
        let mut s = TunerSession::new(p.clone(), fast_opts());
        // Exhaust the initial design (no refits needed for these).
        for _ in 0..3 {
            let cfg = s.suggest(0).unwrap();
            let y = measure(&p, 0, &cfg);
            s.report(0, cfg, y).unwrap();
        }
        assert_eq!(s.n_refits(), 0);
        // One model-guided suggest → exactly one refit.
        let cfg = s.suggest(0).unwrap();
        assert_eq!(s.n_refits(), 1);
        let y = measure(&p, 0, &cfg);
        s.report(0, cfg, y).unwrap();
        // A burst of external reports costs nothing until the next suggest.
        for x in [0.31, 0.57, 0.83] {
            let cfg = vec![Value::Real(x)];
            let y = measure(&p, 0, &cfg);
            s.report(0, cfg, y).unwrap();
        }
        assert_eq!(s.n_refits(), 1);
        let _ = s.suggest(0).unwrap();
        assert_eq!(s.n_refits(), 2);
    }

    #[test]
    fn out_of_range_task_yields_none() {
        let p = toy(1);
        let mut s = TunerSession::new(p, fast_opts());
        assert!(s.suggest(5).is_none());
    }

    #[test]
    fn snapshot_restore_roundtrips_history_and_counter() {
        let p = toy(2);
        let mut s = TunerSession::new(p.clone(), fast_opts());
        for i in 0..5 {
            let t = i % 2;
            let cfg = s.suggest(t).unwrap();
            let y = measure(&p, t, &cfg);
            s.report(t, cfg, y).unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.n_suggested, 5);
        assert_eq!(snap.history.len(), 5);

        let r = TunerSession::restore(p.clone(), fast_opts(), &snap).unwrap();
        assert_eq!(r.n_reports(), 5);
        assert_eq!(r.n_suggested(), 5);
        assert_eq!(r.snapshot(), snap, "restore is lossless for durable state");
    }

    #[test]
    fn restored_session_continues_the_same_suggestion_stream() {
        let p = toy(1);
        let mut live = TunerSession::new(p.clone(), fast_opts());
        for _ in 0..4 {
            let cfg = live.suggest(0).unwrap();
            let y = measure(&p, 0, &cfg);
            live.report(0, cfg, y).unwrap();
        }
        let mut restored = TunerSession::restore(p.clone(), fast_opts(), &live.snapshot()).unwrap();
        // Both sessions now face the same (seed, counter, history) state:
        // the next suggestion must match bit-for-bit.
        assert_eq!(live.suggest(0), restored.suggest(0));
    }

    #[test]
    fn incremental_schedule_snapshot_restores_the_model_bitwise() {
        let p = toy(1);
        let mut o = fast_opts();
        o.refit = gptune_gp::RefitSchedule {
            full_every: 4,
            nll_drift: 0.0,
        };
        let mut live = TunerSession::new(p.clone(), o.clone());
        for _ in 0..6 {
            let cfg = live.suggest(0).unwrap();
            let y = measure(&p, 0, &cfg);
            live.report(0, cfg, y).unwrap();
        }
        let snap = live.snapshot();
        assert!(
            snap.model_state.is_some(),
            "incremental schedule snapshots carry a model image"
        );
        let mut restored = TunerSession::restore(p.clone(), o, &snap).unwrap();
        // The restored surrogate is rebuilt from the last full fit's
        // hyperparameters plus the extensions, so the mid-incremental-cycle
        // suggestion stream continues bit-for-bit.
        for _ in 0..3 {
            let a = live.suggest(0).unwrap();
            let b = restored.suggest(0).unwrap();
            assert_eq!(a, b);
            let y = measure(&p, 0, &a);
            live.report(0, a, y.clone()).unwrap();
            restored.report(0, b, y).unwrap();
        }
        assert_eq!(live.n_refits(), restored.n_refits());
    }

    #[test]
    fn default_schedule_snapshot_has_no_model_state() {
        let p = toy(1);
        let mut s = TunerSession::new(p.clone(), fast_opts());
        for _ in 0..5 {
            let cfg = s.suggest(0).unwrap();
            let y = measure(&p, 0, &cfg);
            s.report(0, cfg, y).unwrap();
        }
        assert!(s.n_refits() >= 1);
        assert!(
            s.snapshot().model_state.is_none(),
            "always-full schedule keeps snapshots exactly as before"
        );
    }

    #[test]
    fn restore_rejects_a_snapshot_from_another_problem() {
        let p1 = toy(1);
        let mut s = TunerSession::new(p1.clone(), fast_opts());
        s.report(0, vec![Value::Real(0.5)], vec![1.0]).unwrap();
        let mut snap = s.snapshot();
        snap.history.push((7, vec![Value::Real(0.5)], vec![1.0]));
        let err = match TunerSession::restore(p1, fast_opts(), &snap) {
            Ok(_) => panic!("mismatched snapshot must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err, ReportError::BadTask);
    }

    /// Serializes the tests that install the process-global tracer.
    static GLOBAL_TRACER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn session_spans_carry_the_request_id_and_censored_reports_count() {
        use gptune_trace::Field;
        let _serial = GLOBAL_TRACER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = gptune_trace::install(gptune_trace::Tracer::ring(1024));
        let p = toy(1);
        let mut s = TunerSession::new(p, fast_opts());
        s.set_request_id(Some("rid-7".into()));
        let cfg = s.suggest(0).unwrap();
        s.report(0, cfg, vec![f64::INFINITY]).unwrap();
        s.set_request_id(None);
        let _ = s.suggest(0);
        let g = gptune_trace::global();
        let snap = g.metrics();
        let data = g.drain();
        gptune_trace::install(prev);
        assert_eq!(snap.counter("gptune.core.evals_censored"), Some(1));
        let rid = Field::Str("rid-7".into());
        let names_with_rid: Vec<&str> = data
            .events
            .iter()
            .filter(|e| e.field("rid") == Some(&rid))
            .map(|e| e.name.as_ref())
            .collect();
        assert!(names_with_rid.contains(&"gptune.core.session.suggest"));
        assert!(names_with_rid.contains(&"gptune.core.session.report"));
        // After clearing the rid, new session spans are untagged.
        assert!(data
            .events
            .iter()
            .filter(|e| e.name.as_ref().starts_with("gptune.core.session."))
            .any(|e| e.field("rid").is_none()));
    }

    #[test]
    fn restore_does_not_count_archived_rows_as_new_evaluations() {
        let _serial = GLOBAL_TRACER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = gptune_trace::install(gptune_trace::Tracer::ring(1024));
        let p = toy(1);
        // Two of the four archived rows are censored.
        let history: Vec<(usize, Config, Vec<f64>)> = [0.1, 0.3, 0.5, 0.7]
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                let y = if i % 2 == 0 { f64::INFINITY } else { 1.0 + x };
                (0, vec![Value::Real(x)], vec![y])
            })
            .collect();
        let snap = SessionSnapshot {
            n_suggested: 4,
            n_refits: 0,
            history,
            model_state: None,
        };
        let g = gptune_trace::global();
        let censored = || {
            g.metrics()
                .counter("gptune.core.evals_censored")
                .unwrap_or(0)
        };
        let mut s = TunerSession::restore(p, fast_opts(), &snap).unwrap();
        let after_restore = censored();
        s.report(0, vec![Value::Real(0.9)], vec![f64::NAN]).unwrap();
        let after_report = censored();
        let data = g.drain();
        gptune_trace::install(prev);
        assert_eq!(s.n_reports(), 5);
        assert_eq!(after_restore, 0, "archived censored rows were counted");
        assert_eq!(after_report, 1, "a live censored report counts once");
        // Other tests report concurrently: count only this thread's spans.
        let me = std::thread::current().name().map(str::to_string);
        let report_spans = data
            .events
            .iter()
            .filter(|e| e.name.as_ref() == "gptune.core.session.report")
            .filter(|e| data.track_name(e.track).map(str::to_string) == me)
            .count();
        assert_eq!(report_spans, 1, "restore opened report spans");
    }

    #[test]
    fn restore_absorbs_duplicate_archive_rows() {
        let p = toy(1);
        let row = (0usize, vec![Value::Real(0.4)], vec![2.0]);
        let snap = SessionSnapshot {
            n_suggested: 1,
            n_refits: 0,
            history: vec![row.clone(), row],
            model_state: None,
        };
        let s = TunerSession::restore(p, fast_opts(), &snap).unwrap();
        assert_eq!(s.n_reports(), 1, "at-least-once archive replays dedup");
    }
}
