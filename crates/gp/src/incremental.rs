//! Incremental LCM refits: rank-1 factor extension + refit scheduling.
//!
//! The MLA loop refits the LCM surrogate every iteration; from scratch
//! that is O(n³) per restart and grows cubically with history size. This
//! module makes refits incremental:
//!
//! * **Extension** — while hyperparameters are held fixed, each new
//!   observation extends the stored Cholesky factor with one
//!   cross-covariance column in O(n²) ([`LcmModel::extend`]), and the
//!   pairwise distance cache grows in place instead of being rebuilt.
//! * **Schedule** — hyperparameters are re-optimized (a *full* refit,
//!   warm-started from the previous optimum) every `full_every`-th update
//!   or when the per-point NLL drifts past `nll_drift`, whichever first.
//! * **Snapshot** — [`IncrementalLcm::state`] images a fitted surrogate
//!   as its last full fit's hyperparameters plus the outputs it has seen;
//!   [`IncrementalLcm::restore`] rebuilds it bit for bit from that image
//!   with one covariance factorization and the tail's extensions, running
//!   no optimizer.
//!
//! Every update is traced as a `gptune.gp.refit` span with a
//! `mode=full|incremental` field and a per-mode counter, so
//! utilization reports show the refit mix.
//!
//! The default schedule (`full_every = 1`) reproduces today's
//! refit-from-scratch behavior bit for bit — no warm starts, no factor
//! extension — so existing determinism and resume guarantees hold unless
//! a caller opts in.

use crate::lcm::{DistanceCache, LcmFitOptions, LcmHyperparams, LcmModel};
use gptune_la::ord::feq;

/// When hyperparameters are re-optimized, vs. extended incrementally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitSchedule {
    /// Run a full (hyperparameter re-optimizing) refit every `k`-th
    /// update; the `k−1` updates in between extend the factor at fixed
    /// hyperparameters. `1` (the default) refits fully every time —
    /// bit-identical to the pre-incremental behavior.
    pub full_every: u64,
    /// NLL-drift trigger: force a full refit when the model's per-point
    /// NLL (standardized outputs) has moved more than this from its value
    /// right after the last full fit. `0.0` disables the trigger.
    pub nll_drift: f64,
}

impl Default for RefitSchedule {
    fn default() -> Self {
        RefitSchedule {
            full_every: 1,
            nll_drift: 0.25,
        }
    }
}

impl RefitSchedule {
    /// A schedule that re-optimizes hyperparameters every `full_every`-th
    /// update and extends incrementally in between.
    pub fn every(full_every: u64) -> Self {
        RefitSchedule {
            full_every: full_every.max(1),
            ..Default::default()
        }
    }

    /// Whether this schedule ever takes the incremental path.
    pub fn is_incremental(&self) -> bool {
        self.full_every > 1
    }
}

/// How one [`IncrementalLcm::update`] call refreshed the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitMode {
    /// Hyperparameters re-optimized; covariance factored from scratch.
    Full,
    /// New points appended to the existing factor at fixed hyperparameters.
    Incremental,
}

impl RefitMode {
    /// The `mode` field value recorded on `gptune.gp.refit` spans.
    pub fn as_str(self) -> &'static str {
        match self {
            RefitMode::Full => "full",
            RefitMode::Incremental => "incremental",
        }
    }
}

/// Image of a fitted incremental surrogate, sufficient to rebuild it
/// *bit-identically* on restore without re-optimizing: the last full
/// fit's hyperparameters, which are assembled and factored once over the
/// prefix that fit saw, and the outputs the tail extensions were given.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Data length at the last full fit.
    pub n_full: usize,
    /// Incremental updates applied since the last full fit.
    pub updates_since_full: u64,
    /// The last full fit's hyperparameters exactly as it returned them
    /// (the extensions since then hold them fixed).
    pub hyperparams: LcmHyperparams,
    /// Outputs exactly as passed to each update (prefix: at the last full
    /// fit; tail: as appended) — stored because failure censoring can
    /// rewrite history values between updates.
    pub y: Vec<f64>,
}

/// A surrogate that persists across tuner iterations and decides, per
/// update, between a full hyperparameter refit and an O(n²) incremental
/// factor extension. See the module docs for the policy.
#[derive(Clone)]
pub struct IncrementalLcm {
    schedule: RefitSchedule,
    model: Option<LcmModel>,
    /// Pairwise distance cache grown in place across full refits. `None`
    /// until the first fit.
    cache: Option<DistanceCache>,
    /// Outputs exactly as seen by each update, for prefix-consistency
    /// checks (failure censoring may rewrite old values, which demands a
    /// full refit) and for snapshotting.
    y_seen: Vec<f64>,
    n_full: usize,
    updates_since_full: u64,
    /// Per-point NLL right after the last full fit (drift reference).
    nll_ref: f64,
}

impl IncrementalLcm {
    /// An empty surrogate; the first [`update`](Self::update) fits fully.
    pub fn new(schedule: RefitSchedule) -> Self {
        IncrementalLcm {
            schedule,
            model: None,
            cache: None,
            y_seen: Vec::new(),
            n_full: 0,
            updates_since_full: 0,
            nll_ref: 0.0,
        }
    }

    /// The current model, once at least one update has run.
    pub fn model(&self) -> Option<&LcmModel> {
        self.model.as_ref()
    }

    /// The schedule this surrogate runs under.
    pub fn schedule(&self) -> RefitSchedule {
        self.schedule
    }

    /// Incremental updates applied since the last full fit.
    pub fn updates_since_full(&self) -> u64 {
        self.updates_since_full
    }

    /// Refreshes the model against the complete current training set
    /// (`xs`/`task_of`/`y` are the *full* history, of which the already
    /// seen prefix must be unchanged for the incremental path to engage).
    /// Returns how the model was refreshed.
    pub fn update(
        &mut self,
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        opts: &LcmFitOptions,
    ) -> RefitMode {
        let tracer = gptune_trace::global();
        let planned = self.decide(xs, task_of, y, n_tasks, opts);
        let mut span = tracer
            .span("gptune.gp.refit")
            .with("n", xs.len())
            .with("mode", planned.as_str());
        let prev = self.y_seen.len();
        let mode = match planned {
            RefitMode::Full => {
                self.full_fit(xs, task_of, y, n_tasks, opts);
                RefitMode::Full
            }
            RefitMode::Incremental => {
                let ok = {
                    let model = self.model.as_mut().expect("incremental without model");
                    model
                        .extend(&xs[prev..], &task_of[prev..], &y[prev..])
                        .is_ok()
                };
                if ok {
                    if let Some(c) = self.cache.as_mut() {
                        c.append(xs);
                    }
                    self.y_seen = y.to_vec();
                    self.updates_since_full += 1;
                    RefitMode::Incremental
                } else {
                    // Numerically non-PSD extension (e.g. duplicate point
                    // under a tiny noise term): fall back to a full refit.
                    self.full_fit(xs, task_of, y, n_tasks, opts);
                    RefitMode::Full
                }
            }
        };
        if mode != planned {
            span.add("fallback", mode.as_str());
        }
        drop(span);
        match mode {
            RefitMode::Full => tracer.counter("gptune.gp.refit.full"),
            RefitMode::Incremental => tracer.counter("gptune.gp.refit.incremental"),
        }
        .add(1);
        mode
    }

    /// Snapshot of the incremental state: `Some` for every fitted
    /// surrogate on an incremental schedule.
    pub fn state(&self) -> Option<ModelState> {
        if !self.schedule.is_incremental() {
            return None;
        }
        let model = self.model.as_ref()?;
        Some(ModelState {
            n_full: self.n_full,
            updates_since_full: self.updates_since_full,
            hyperparams: model.hyperparams().clone(),
            y: self.y_seen.clone(),
        })
    }

    /// Rebuilds the surrogate from a [`ModelState`] image: the prefix model
    /// at the saved hyperparameters ([`LcmModel::from_hyperparams`]: one
    /// covariance assembly and one factorization), then the tail
    /// extensions one point at a time. No optimizer runs. The last full
    /// fit assembled and factored its model the same way, from the same
    /// hyperparameters over the same distances, so the factor, α, NLL and
    /// every downstream suggestion come out bit-identical to the session
    /// that wrote the image.
    ///
    /// An image that does not fit the data (lengths, task count, input
    /// dimension, or hyperparameters no fit returns) is an `Err`, and the
    /// surrogate is left as it was.
    pub fn restore(
        &mut self,
        xs: &[Vec<f64>],
        task_of: &[usize],
        n_tasks: usize,
        opts: &LcmFitOptions,
        state: &ModelState,
    ) -> Result<(), String> {
        let (n, nf) = (xs.len(), state.n_full);
        if nf == 0 || nf > n || state.y.len() != n || task_of.len() != n {
            return Err("incremental restore: inconsistent model state".into());
        }
        if state.y[nf..].iter().any(|v| !v.is_finite())
            || !state.y[..nf].iter().any(|v| v.is_finite())
        {
            return Err("incremental restore: outputs no fit could have seen".into());
        }
        if !plausible_fit(&state.hyperparams, n_tasks, xs[0].len()) {
            return Err("incremental restore: hyperparameters do not fit the data".into());
        }
        let mut cache = DistanceCache::build(&xs[..nf]);
        let mut model = LcmModel::from_hyperparams_cached(
            &xs[..nf],
            &task_of[..nf],
            &state.y[..nf],
            n_tasks,
            opts.kernel,
            state.hyperparams.clone(),
            None,
            Some(&cache),
        );
        let nll_ref = model.nll() / model.n_samples() as f64;
        // Re-extend the tail one point at a time — the same operation
        // order the original session applied, whatever its batching was.
        for p in nf..n {
            model
                .extend(&xs[p..p + 1], &task_of[p..p + 1], &state.y[p..p + 1])
                .map_err(|e| format!("incremental restore: extension failed: {e}"))?;
        }
        cache.append(xs);
        self.model = Some(model);
        self.cache = Some(cache);
        self.y_seen = state.y.clone();
        self.n_full = nf;
        self.updates_since_full = state.updates_since_full;
        self.nll_ref = nll_ref;
        Ok(())
    }

    /// Picks the refit mode for this update. Anything that invalidates
    /// the fixed-hyperparameter extension — shape changes, rewritten
    /// prefix outputs (censor drift), non-finite new outputs, the
    /// schedule or drift trigger — routes to a full refit.
    fn decide(
        &self,
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        opts: &LcmFitOptions,
    ) -> RefitMode {
        if !self.schedule.is_incremental() {
            return RefitMode::Full;
        }
        let Some(model) = self.model.as_ref() else {
            return RefitMode::Full;
        };
        let n = xs.len();
        let prev = self.y_seen.len();
        if n < prev || task_of.len() != n || y.len() != n || n == 0 {
            return RefitMode::Full;
        }
        let hp = model.hyperparams();
        if hp.n_tasks != n_tasks
            || xs[0].len() != hp.dim
            || opts.kernel != model.kernel_kind()
            || opts.q.clamp(1, n_tasks) != hp.q
        {
            return RefitMode::Full;
        }
        if self.updates_since_full.saturating_add(1) >= self.schedule.full_every {
            return RefitMode::Full;
        }
        if y[prev..].iter().any(|v| !v.is_finite()) {
            return RefitMode::Full;
        }
        if y[..prev]
            .iter()
            .zip(&self.y_seen)
            .any(|(a, b)| !feq(*a, *b))
        {
            return RefitMode::Full;
        }
        // Per-point NLL drift since the last full fit. Each trip is a
        // model-health signal (the surrogate disagrees with its own
        // reference fit), so it gets its own counter for dashboards.
        let per_point = model.nll() / model.n_samples() as f64;
        if self.schedule.nll_drift > 0.0
            && (per_point - self.nll_ref).abs() > self.schedule.nll_drift
        {
            gptune_trace::global()
                .counter("gptune.gp.nll_drift_events")
                .add(1);
            return RefitMode::Full;
        }
        // The model must hold exactly the seen prefix for a plain
        // extension to be valid.
        if model.n_samples() != prev || model.training_tasks() != &task_of[..prev] {
            return RefitMode::Full;
        }
        let xs_match = model
            .training_xs()
            .iter()
            .zip(xs)
            .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(u, v)| feq(*u, *v)));
        if !xs_match {
            return RefitMode::Full;
        }
        RefitMode::Incremental
    }

    /// Full refit: warm-started when the schedule is incremental, reusing
    /// the grown distance cache when it verifiably covers the data prefix.
    fn full_fit(
        &mut self,
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        opts: &LcmFitOptions,
    ) {
        let warm: Option<Vec<f64>> = if self.schedule.is_incremental() {
            self.model.as_ref().map(|m| m.hyperparams().pack())
        } else {
            None
        };
        let reusable = match (&self.model, &self.cache) {
            (Some(m), Some(c)) => {
                c.n() == m.n_samples()
                    && c.n() <= xs.len()
                    && m.training_xs().iter().zip(xs).all(|(a, b)| {
                        a.len() == b.len() && a.iter().zip(b).all(|(u, v)| feq(*u, *v))
                    })
            }
            _ => false,
        };
        let cache = if reusable {
            let mut c = self.cache.take().expect("verified above");
            c.append(xs);
            c
        } else {
            DistanceCache::build(xs)
        };
        let model =
            LcmModel::fit_impl(xs, task_of, y, n_tasks, opts, warm.as_deref(), Some(&cache));
        debug_assert_eq!(cache.n(), xs.len());
        self.cache = Some(cache);
        self.nll_ref = model.nll() / model.n_samples() as f64;
        self.model = Some(model);
        self.y_seen = y.to_vec();
        self.n_full = xs.len();
        self.updates_since_full = 0;
    }
}

/// Whether `hp` is shaped for `n_tasks` tasks in `dim` inputs and its
/// covariance assembles without overflow: everything finite, lengthscales
/// in `[1e-6, 1e6]` and `b`, `d` in `[0, 1e12]` (the likelihood scores
/// anything else `+∞`, so no fit returns it), and `|a| ≤ 1e6`. A restored
/// image is checked against it, so a damaged one falls back to a refit.
fn plausible_fit(hp: &LcmHyperparams, n_tasks: usize, dim: usize) -> bool {
    let per_latent =
        |v: &[Vec<f64>], len: usize| v.len() == hp.q && v.iter().all(|r| r.len() == len);
    let within = |v: f64, lo: f64, hi: f64| (lo..=hi).contains(&v);
    hp.n_tasks == n_tasks
        && hp.dim == dim
        && (1..=n_tasks).contains(&hp.q)
        && per_latent(&hp.lengthscales, dim)
        && per_latent(&hp.a, n_tasks)
        && per_latent(&hp.b, n_tasks)
        && hp.d.len() == n_tasks
        && hp
            .lengthscales
            .iter()
            .flatten()
            .all(|&l| within(l, 1e-6, 1e6))
        && hp.a.iter().flatten().all(|&a| within(a, -1e6, 1e6))
        && hp
            .b
            .iter()
            .flatten()
            .chain(&hp.d)
            .all(|&v| within(v, 0.0, 1e12))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(per_task: usize) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut tasks = Vec::new();
        let mut ys = Vec::new();
        for t in 0..2usize {
            for j in 0..per_task {
                let x = (j as f64 + 0.5) / per_task as f64;
                xs.push(vec![x]);
                tasks.push(t);
                ys.push((2.0 * std::f64::consts::PI * x).sin() + t as f64 * 0.5);
            }
        }
        (xs, tasks, ys)
    }

    fn fast_opts() -> LcmFitOptions {
        LcmFitOptions {
            n_starts: 1,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn default_schedule_always_refits_fully() {
        let (xs, tasks, ys) = toy(6);
        let mut inc = IncrementalLcm::new(RefitSchedule::default());
        let opts = fast_opts();
        assert_eq!(inc.update(&xs, &tasks, &ys, 2, &opts), RefitMode::Full);
        assert_eq!(inc.update(&xs, &tasks, &ys, 2, &opts), RefitMode::Full);
        // Bit-identical to a direct fit.
        let direct = LcmModel::fit(&xs, &tasks, &ys, 2, &opts);
        let a = inc.model().unwrap().predict(0, &[0.37]);
        let b = direct.predict(0, &[0.37]);
        assert!(feq(a.mean, b.mean) && feq(a.variance, b.variance));
        assert!(inc.state().is_none());
    }

    #[test]
    fn incremental_schedule_extends_between_full_fits() {
        let (xs, tasks, ys) = toy(8);
        let mut inc = IncrementalLcm::new(RefitSchedule {
            full_every: 4,
            nll_drift: 0.0,
        });
        let opts = fast_opts();
        let n0 = xs.len() - 4;
        assert_eq!(
            inc.update(&xs[..n0], &tasks[..n0], &ys[..n0], 2, &opts),
            RefitMode::Full
        );
        for k in 0..3 {
            let n = n0 + k + 1;
            assert_eq!(
                inc.update(&xs[..n], &tasks[..n], &ys[..n], 2, &opts),
                RefitMode::Incremental
            );
        }
        assert_eq!(inc.updates_since_full(), 3);
        // Fourth update hits the schedule: full again.
        assert_eq!(inc.update(&xs, &tasks, &ys, 2, &opts), RefitMode::Full);
        assert_eq!(inc.updates_since_full(), 0);
    }

    #[test]
    fn rewritten_prefix_forces_full_refit() {
        let (xs, tasks, mut ys) = toy(8);
        let mut inc = IncrementalLcm::new(RefitSchedule {
            full_every: 100,
            nll_drift: 0.0,
        });
        let opts = fast_opts();
        let n0 = xs.len() - 1;
        inc.update(&xs[..n0], &tasks[..n0], &ys[..n0], 2, &opts);
        // Censor drift: an old output changes value.
        ys[0] += 1.0;
        assert_eq!(inc.update(&xs, &tasks, &ys, 2, &opts), RefitMode::Full);
    }

    #[test]
    fn non_finite_new_output_forces_full_refit() {
        let (xs, tasks, mut ys) = toy(8);
        let mut inc = IncrementalLcm::new(RefitSchedule::every(100));
        let opts = fast_opts();
        let n0 = xs.len() - 1;
        inc.update(&xs[..n0], &tasks[..n0], &ys[..n0], 2, &opts);
        ys[xs.len() - 1] = f64::NAN;
        assert_eq!(inc.update(&xs, &tasks, &ys, 2, &opts), RefitMode::Full);
    }

    #[test]
    fn state_roundtrips_bit_identically() {
        let (xs, tasks, ys) = toy(10);
        let mut inc = IncrementalLcm::new(RefitSchedule {
            full_every: 50,
            nll_drift: 0.0,
        });
        let opts = fast_opts();
        let n0 = xs.len() - 4;
        inc.update(&xs[..n0], &tasks[..n0], &ys[..n0], 2, &opts);
        for n in (n0 + 1)..=xs.len() {
            inc.update(&xs[..n], &tasks[..n], &ys[..n], 2, &opts);
        }
        let state = inc.state().expect("incremental state");
        assert_eq!(state.n_full, n0);
        assert_eq!(state.updates_since_full, 4);

        let mut back = IncrementalLcm::new(RefitSchedule::every(50));
        back.restore(&xs, &tasks, 2, &opts, &state).unwrap();
        let (a, b) = (inc.model().unwrap(), back.model().unwrap());
        assert!(feq(a.nll(), b.nll()));
        for x in [0.05, 0.31, 0.77] {
            for t in 0..2 {
                let pa = a.predict(t, &[x]);
                let pb = b.predict(t, &[x]);
                assert!(feq(pa.mean, pb.mean), "mean {} vs {}", pa.mean, pb.mean);
                assert!(feq(pa.variance, pb.variance));
            }
        }
        assert_eq!(back.state().unwrap(), state);
    }

    #[test]
    fn damaged_images_are_rejected_without_touching_the_surrogate() {
        let (xs, tasks, ys) = toy(6);
        let mut inc = IncrementalLcm::new(RefitSchedule::every(50));
        let opts = fast_opts();
        inc.update(&xs, &tasks, &ys, 2, &opts);
        let good = inc.state().expect("incremental state");
        let damaged: [fn(&mut ModelState); 5] = [
            |s| s.hyperparams.lengthscales[0][0] = f64::NAN,
            |s| {
                s.hyperparams.d.pop();
            },
            |s| s.hyperparams.a[0][1] = 1e200,
            |s| s.hyperparams.b[0][0] = -1.0,
            |s| s.y.iter_mut().for_each(|v| *v = f64::INFINITY),
        ];
        for (k, damage) in damaged.iter().enumerate() {
            let mut bad = good.clone();
            damage(&mut bad);
            let mut back = IncrementalLcm::new(RefitSchedule::every(50));
            assert!(
                back.restore(&xs, &tasks, 2, &opts, &bad).is_err(),
                "damage {k}"
            );
            assert!(back.model().is_none() && back.state().is_none());
        }
        let mut back = IncrementalLcm::new(RefitSchedule::every(50));
        back.restore(&xs, &tasks, 2, &opts, &good).unwrap();
        assert_eq!(back.state().unwrap(), good);
    }
}
