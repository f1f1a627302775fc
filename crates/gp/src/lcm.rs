//! Linear Coregionalization Model — the multitask GP at the core of MLA.
//!
//! Implements the paper's Eqs. 1–6: covariance assembly (Eq. 4), marginal
//! log-likelihood with full analytic gradients, prediction (Eqs. 5–6), and
//! multi-start L-BFGS hyperparameter fitting (Sec. 3.1 "Modeling phase" /
//! Sec. 4.3). Hyperparameters with positivity constraints (lengthscales,
//! `b`, `d`) are optimized in log space, so the inner optimization is
//! unconstrained.

use crate::kernel::{ArdKernel, KernelKind};
use gptune_la::blas;
use gptune_la::ord::feq;
use gptune_la::{par, Cholesky, Matrix};
use gptune_opt::lbfgs::{self, LbfgsOptions};
use gptune_rng::{Rng, SeedableRng, StdRng};

/// LCM hyperparameters (paper Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LcmHyperparams {
    /// Number of latent GPs `Q ≤ δ`.
    pub q: usize,
    /// Number of tasks `δ`.
    pub n_tasks: usize,
    /// Input dimension `β` (tuning space, possibly enriched with
    /// performance-model features per Sec. 3.3).
    pub dim: usize,
    /// Per-latent-function ARD lengthscales `l_d^q`, indexed `[q][d]`.
    pub lengthscales: Vec<Vec<f64>>,
    /// Task mixing coefficients `a_{i,q}`, indexed `[q][i]`.
    pub a: Vec<Vec<f64>>,
    /// Per-task diagonal regularization `b_{i,q} ≥ 0`, indexed `[q][i]`.
    pub b: Vec<Vec<f64>>,
    /// Per-task noise `d_i ≥ 0`.
    pub d: Vec<f64>,
}

impl LcmHyperparams {
    /// Number of scalar degrees of freedom.
    pub fn n_params(&self) -> usize {
        self.q * (self.dim + 2 * self.n_tasks) + self.n_tasks
    }

    /// Packs into the unconstrained optimization vector:
    /// `[log l | a | log b]` per latent function, then `log d`.
    pub fn pack(&self) -> Vec<f64> {
        let mut theta = Vec::with_capacity(self.n_params());
        for q in 0..self.q {
            theta.extend(self.lengthscales[q].iter().map(|l| l.ln()));
            theta.extend(self.a[q].iter().copied());
            theta.extend(self.b[q].iter().map(|b| b.max(1e-300).ln()));
        }
        theta.extend(self.d.iter().map(|d| d.max(1e-300).ln()));
        theta
    }

    /// Inverse of [`pack`](Self::pack).
    pub fn unpack(q: usize, n_tasks: usize, dim: usize, theta: &[f64]) -> LcmHyperparams {
        assert_eq!(
            theta.len(),
            q * (dim + 2 * n_tasks) + n_tasks,
            "unpack: arity"
        );
        let mut it = theta.iter().copied();
        let mut take = |n: usize| -> Vec<f64> { (0..n).map(|_| it.next().unwrap()).collect() };
        let mut lengthscales = Vec::with_capacity(q);
        let mut a = Vec::with_capacity(q);
        let mut b = Vec::with_capacity(q);
        for _ in 0..q {
            lengthscales.push(take(dim).into_iter().map(f64::exp).collect());
            a.push(take(n_tasks));
            b.push(take(n_tasks).into_iter().map(f64::exp).collect());
        }
        let d = take(n_tasks).into_iter().map(f64::exp).collect();
        LcmHyperparams {
            q,
            n_tasks,
            dim,
            lengthscales,
            a,
            b,
            d,
        }
    }

    /// Random initial guess for one multi-start restart.
    pub fn random_init(q: usize, n_tasks: usize, dim: usize, rng: &mut impl Rng) -> LcmHyperparams {
        let mut lengthscales = Vec::with_capacity(q);
        let mut a = Vec::with_capacity(q);
        let mut b = Vec::with_capacity(q);
        for _ in 0..q {
            lengthscales.push(
                (0..dim)
                    .map(|_| 10f64.powf(rng.gen_range(-1.0..0.3)))
                    .collect(),
            );
            a.push((0..n_tasks).map(|_| rng.gen_range(-1.0..1.0)).collect());
            b.push(
                (0..n_tasks)
                    .map(|_| 10f64.powf(rng.gen_range(-4.0..-1.0)))
                    .collect(),
            );
        }
        let d = (0..n_tasks)
            .map(|_| 10f64.powf(rng.gen_range(-4.0..-1.0)))
            .collect();
        LcmHyperparams {
            q,
            n_tasks,
            dim,
            lengthscales,
            a,
            b,
            d,
        }
    }
}

/// Options for [`LcmModel::fit`].
#[derive(Debug, Clone)]
pub struct LcmFitOptions {
    /// Number of latent functions `Q` (clamped to `δ`).
    pub q: usize,
    /// Latent kernel family (the paper uses the Gaussian/SE kernel of
    /// Eq. 3; Matérn 5/2 is available for ablations).
    pub kernel: KernelKind,
    /// Number of random L-BFGS restarts (`n_start` in Sec. 4.3), run in
    /// parallel on the caller's `gptune_la::par` width.
    pub n_starts: usize,
    /// Inner L-BFGS configuration.
    pub lbfgs: LbfgsOptions,
    /// Base RNG seed for the restarts (restart `k` uses `seed + k`).
    pub seed: u64,
    /// Run the fit through the pre-refactor naive likelihood instead of the
    /// distance-cached one. For equivalence tests and before/after
    /// benchmarks only — never faster, never more accurate.
    pub reference_impl: bool,
}

impl Default for LcmFitOptions {
    fn default() -> Self {
        LcmFitOptions {
            q: 2,
            kernel: KernelKind::SquaredExponential,
            n_starts: 4,
            lbfgs: LbfgsOptions {
                max_iters: 80,
                grad_tol: 1e-5,
                f_tol: 1e-9,
                ..Default::default()
            },
            seed: 0,
            reference_impl: false,
        }
    }
}

/// Posterior prediction at one point (paper Eqs. 5–6).
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Posterior mean `μ*`.
    pub mean: f64,
    /// Posterior variance `σ*²` (non-negative).
    pub variance: f64,
}

/// A fitted multitask LCM surrogate.
#[derive(Debug, Clone)]
pub struct LcmModel {
    hp: LcmHyperparams,
    kernel: KernelKind,
    /// Sample inputs in normalized coordinates.
    xs: Vec<Vec<f64>>,
    /// Task index of each sample.
    task_of: Vec<usize>,
    /// Standardized outputs.
    y_std_vals: Vec<f64>,
    /// Output standardization: `y_raw = y_std · scale + shift`.
    shift: f64,
    scale: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    nll: f64,
    /// The Q latent kernels at the fitted lengthscales, cached so predict
    /// paths stop cloning lengthscale vectors per call.
    kernels: Vec<ArdKernel>,
    /// Per-latent task-pair coefficients `a_{t,q} a_{t',q} + δ_{t,t'} b_{t,q}`,
    /// flattened `t·T + t'` (one `T×T` block per latent function).
    coeffs: Vec<Vec<f64>>,
    /// Per-task prior variance `Σ_q (a² + b)` — latent variance excluding
    /// observation noise `d`, so EI reasons about `f`, not `y`.
    prior_var: Vec<f64>,
}

/// Internal: training data shared between likelihood evaluations.
struct LcmData<'a> {
    xs: &'a [Vec<f64>],
    task_of: &'a [usize],
    y: &'a [f64],
    n_tasks: usize,
    dim: usize,
    kernel: KernelKind,
}

impl LcmModel {
    /// Fits an LCM to multitask data.
    ///
    /// * `xs` — sample inputs, already normalized to the unit cube;
    /// * `task_of` — task index (`< n_tasks`) per sample;
    /// * `y` — raw objective values (standardized internally).
    ///
    /// # Panics
    /// Panics on arity mismatches or empty data.
    pub fn fit(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        opts: &LcmFitOptions,
    ) -> LcmModel {
        Self::fit_impl(xs, task_of, y, n_tasks, opts, None, None)
    }

    /// The full fit path behind [`fit`](Self::fit), with two extra inputs
    /// used by the incremental-refit machinery:
    ///
    /// * `warm` — a packed hyperparameter vector that replaces restart 0's
    ///   random initialization (warm-started re-optimization). Ignored when
    ///   its arity does not match the current `q`/`n_tasks`/`dim`.
    /// * `cache` — a pre-built [`DistanceCache`] over exactly `xs`, grown
    ///   incrementally by the caller so repeated full refits skip the
    ///   O(n²·dim) rebuild.
    ///
    /// With both `None` this is bit-identical to [`fit`](Self::fit).
    pub(crate) fn fit_impl(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        opts: &LcmFitOptions,
        warm: Option<&[f64]>,
        cache: Option<&DistanceCache>,
    ) -> LcmModel {
        let n = xs.len();
        assert!(n > 0, "LcmModel::fit: empty data");
        assert_eq!(task_of.len(), n);
        assert_eq!(y.len(), n);
        assert!(task_of.iter().all(|&t| t < n_tasks));
        let dim = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == dim));
        let q = opts.q.clamp(1, n_tasks);

        let (cleaned, shift, scale) = clean_and_standardize(y);
        let y_std_vals: Vec<f64> = cleaned.iter().map(|v| (v - shift) / scale).collect();

        let data = LcmData {
            xs,
            task_of,
            y: &y_std_vals,
            n_tasks,
            dim,
            kernel: opts.kernel,
        };

        // Theta-independent pairwise squared differences, computed once and
        // shared read-only by every restart and every L-BFGS iteration —
        // or reused from the caller's incrementally grown cache.
        let built;
        let dists = match cache {
            Some(c) => {
                debug_assert_eq!(c.n(), n, "fit_impl: distance cache size mismatch");
                c
            }
            None => {
                built = DistanceCache::build(xs);
                &built
            }
        };
        // A warm start must match the current packing arity to be usable.
        let warm = warm.filter(|w| w.len() == q * (dim + 2 * n_tasks) + n_tasks);
        let n_starts = opts.n_starts.max(1);
        let tracer = gptune_trace::global();
        let mut fit_span = tracer
            .span("gptune.gp.fit")
            .with("n", n)
            .with("dim", dim)
            .with("n_tasks", n_tasks)
            .with("q", q)
            .with("restarts", n_starts)
            .with("warm", warm.is_some());
        let ctx = FitCtx { data: &data, dists };
        let objective = |theta: &[f64], grad: &mut [f64]| -> f64 {
            if opts.reference_impl {
                nll_and_grad_reference(&data, q, theta, grad)
            } else {
                nll_and_grad(&ctx, q, theta, grad)
            }
        };

        // Multi-start L-BFGS over the packed hyperparameters, spread over
        // the caller's region width.
        let restart = |k: usize| {
            let restart_span = tracer.span("gptune.gp.fit_restart").with("restart", k);
            let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(k as u64));
            // Restart 0 takes the warm-start vector when one is given
            // (the previous fit's optimum); the rest stay random.
            let init = match (k, warm) {
                (0, Some(w)) => w.to_vec(),
                _ => LcmHyperparams::random_init(q, n_tasks, dim, &mut rng).pack(),
            };
            let r = lbfgs::minimize(|theta, grad| objective(theta, grad), &init, &opts.lbfgs);
            drop(restart_span.with("nll", r.value));
            (r.value, r.x)
        };
        let results = par::map_indexed(n_starts, restart);

        let (best_nll, best_theta) = results
            .into_iter()
            .filter(|(v, _)| v.is_finite())
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or_else(|| {
                // All restarts diverged: fall back to a fixed default.
                let hp = LcmHyperparams {
                    q,
                    n_tasks,
                    dim,
                    lengthscales: vec![vec![0.3; dim]; q],
                    a: vec![vec![1.0; n_tasks]; q],
                    b: vec![vec![1e-3; n_tasks]; q],
                    d: vec![1e-3; n_tasks],
                };
                let theta = hp.pack();
                let mut g = vec![0.0; theta.len()];
                let v = objective(&theta, &mut g);
                (v, theta)
            });

        fit_span.add("best_nll", best_nll);
        // `best_nll` came from assembling and factoring Σ at this θ over
        // these distances, so the model's NLL (taken from its factor) is
        // the same value bit for bit — which is what lets a snapshot of
        // the hyperparameters rebuild this model exactly.
        let hp = LcmHyperparams::unpack(q, n_tasks, dim, &best_theta);
        Self::assemble(
            xs,
            task_of,
            y_std_vals,
            (shift, scale),
            opts.kernel,
            hp,
            dists,
        )
    }

    /// The fitted hyperparameters.
    pub fn hyperparams(&self) -> &LcmHyperparams {
        &self.hp
    }

    /// Negative log marginal likelihood of the stored factor (standardized
    /// outputs): right after a fit, the optimizer's best value; after
    /// [`extend`](Self::extend), the grown model's.
    pub fn nll(&self) -> f64 {
        self.nll
    }

    /// Number of training samples.
    pub fn n_samples(&self) -> usize {
        self.xs.len()
    }

    /// The latent kernel family this model was fitted with.
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernel
    }

    /// Output standardization `(shift, scale)`: `y_raw = y_std·scale + shift`.
    pub fn standardization(&self) -> (f64, f64) {
        (self.shift, self.scale)
    }

    /// Training inputs (normalized coordinates), in insertion order.
    pub fn training_xs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Task index of each training sample.
    pub fn training_tasks(&self) -> &[usize] {
        &self.task_of
    }

    /// The stored Cholesky factor of the training covariance `Σ`.
    pub fn factor(&self) -> &Cholesky {
        &self.chol
    }

    /// `α = Σ⁻¹ y` over the standardized outputs.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// Builds a model at *fixed* hyperparameters — no optimization, just
    /// covariance assembly, factorization, and the solve. This is the
    /// from-scratch baseline the incremental extension is pinned against,
    /// and the reconstruction path for snapshot restore.
    ///
    /// `standardization` fixes the output `(shift, scale)` (so predictions
    /// are comparable with a model fitted on a prefix of the data); `None`
    /// recomputes both from `y` exactly like [`fit`](Self::fit).
    pub fn from_hyperparams(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        kernel: KernelKind,
        hp: LcmHyperparams,
        standardization: Option<(f64, f64)>,
    ) -> LcmModel {
        Self::from_hyperparams_cached(xs, task_of, y, n_tasks, kernel, hp, standardization, None)
    }

    /// [`from_hyperparams`](Self::from_hyperparams) over a caller's
    /// [`DistanceCache`] covering exactly `xs` (`None` builds one). Given
    /// the hyperparameters a fit of the same data returned, the result is
    /// that fit's model bit for bit: factor, α and NLL.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_hyperparams_cached(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        kernel: KernelKind,
        hp: LcmHyperparams,
        standardization: Option<(f64, f64)>,
        cache: Option<&DistanceCache>,
    ) -> LcmModel {
        let n = xs.len();
        assert!(n > 0, "LcmModel::from_hyperparams: empty data");
        assert_eq!(task_of.len(), n);
        assert_eq!(y.len(), n);
        assert!(task_of.iter().all(|&t| t < n_tasks));
        assert_eq!(hp.n_tasks, n_tasks, "from_hyperparams: task arity");
        assert!(
            xs.iter().all(|x| x.len() == hp.dim),
            "from_hyperparams: dim mismatch"
        );

        let (cleaned, own_shift, own_scale) = clean_and_standardize(y);
        let (shift, scale) = standardization.unwrap_or((own_shift, own_scale));
        let y_std_vals: Vec<f64> = cleaned.iter().map(|v| (v - shift) / scale).collect();
        let built;
        let dists = match cache {
            Some(c) => {
                debug_assert_eq!(c.n(), n, "from_hyperparams: distance cache size mismatch");
                c
            }
            None => {
                built = DistanceCache::build(xs);
                &built
            }
        };
        Self::assemble(xs, task_of, y_std_vals, (shift, scale), kernel, hp, dists)
    }

    /// The model at fixed `hp`: `Σ` assembled over `dists` and factored in
    /// place, `α = Σ⁻¹y`, and the NLL from that factor. The last step of
    /// every fit and the whole of [`from_hyperparams`](Self::from_hyperparams).
    fn assemble(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y_std_vals: Vec<f64>,
        (shift, scale): (f64, f64),
        kernel: KernelKind,
        hp: LcmHyperparams,
        dists: &DistanceCache,
    ) -> LcmModel {
        let n_tasks = hp.n_tasks;
        let kernels: Vec<ArdKernel> = (0..hp.q)
            .map(|qq| ArdKernel::with_kind(kernel, hp.lengthscales[qq].clone()))
            .collect();
        let coeffs = task_coeffs(&hp);
        let packed: Vec<PackedKernel> = kernels.iter().map(|k| dists.packed(k)).collect();
        let chol =
            factor_covariance(|| assemble_covariance(task_of, n_tasks, &coeffs, &packed, &hp.d));
        let alpha = chol.solve(&y_std_vals);
        let prior_var: Vec<f64> = (0..n_tasks)
            .map(|task| {
                (0..hp.q)
                    .map(|qq| hp.a[qq][task] * hp.a[qq][task] + hp.b[qq][task])
                    .sum()
            })
            .collect();
        let nll = nll_from_chol(&chol, &y_std_vals, &alpha);

        LcmModel {
            hp,
            kernel,
            xs: xs.to_vec(),
            task_of: task_of.to_vec(),
            y_std_vals,
            shift,
            scale,
            chol,
            alpha,
            nll,
            kernels,
            coeffs,
            prior_var,
        }
    }

    /// Appends new observations *without* re-optimizing hyperparameters:
    /// each point extends the stored Cholesky factor with one
    /// cross-covariance column in O(n²) ([`Cholesky::extend_row`]) instead
    /// of refactoring in O(n³). The output standardization is kept fixed,
    /// so predictions remain on the same scale as the last full fit.
    ///
    /// All-or-nothing: on error (a new point makes the covariance
    /// numerically non-PSD, e.g. an exact duplicate under a tiny noise
    /// term) the model is left untouched and the caller should fall back
    /// to a full refit.
    ///
    /// # Panics
    /// Panics on arity mismatches or non-finite outputs — censoring of
    /// failed evaluations is the caller's job (a non-finite `y` changes
    /// the censoring penalty, which requires a full refit anyway).
    pub fn extend(
        &mut self,
        xs_new: &[Vec<f64>],
        tasks_new: &[usize],
        y_new: &[f64],
    ) -> Result<(), gptune_la::LaError> {
        let m = xs_new.len();
        assert_eq!(tasks_new.len(), m);
        assert_eq!(y_new.len(), m);
        assert!(tasks_new.iter().all(|&t| t < self.hp.n_tasks));
        assert!(xs_new.iter().all(|x| x.len() == self.hp.dim));
        assert!(
            y_new.iter().all(|v| v.is_finite()),
            "LcmModel::extend: non-finite output (needs a full refit)"
        );
        if m == 0 {
            return Ok(());
        }
        let t = self.hp.n_tasks;
        // Staged: all factor extensions run on temporaries and commit only
        // after every point succeeded, so an Err leaves `self` untouched.
        let mut chol = self.chol.clone();
        let mut staged_xs: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut staged_tasks: Vec<usize> = Vec::with_capacity(m);
        for (x, &task) in xs_new.iter().zip(tasks_new) {
            // Cross covariance against every point already in the factor
            // (committed and staged), mirroring `assemble_covariance`.
            let mut k = Vec::with_capacity(self.xs.len() + staged_xs.len());
            for (xp, &tp) in self
                .xs
                .iter()
                .zip(&self.task_of)
                .chain(staged_xs.iter().zip(&staged_tasks))
            {
                let mut s = 0.0;
                for (kern, cq) in self.kernels.iter().zip(&self.coeffs) {
                    let coeff = cq[task * t + tp];
                    if !feq(coeff, 0.0) {
                        s += coeff * kern.eval(x, xp);
                    }
                }
                k.push(s);
            }
            // Diagonal entry: latent variance + noise + the fixed nugget,
            // plus whatever jitter the factorization applied to Σ's
            // diagonal, so the extended factor stays consistent.
            let mut kappa = 0.0;
            for (kern, cq) in self.kernels.iter().zip(&self.coeffs) {
                let coeff = cq[task * t + task];
                if !feq(coeff, 0.0) {
                    kappa += coeff * kern.eval(x, x);
                }
            }
            kappa += self.hp.d[task] + 1e-10;
            kappa += chol.jitter();
            chol = chol.extend_row(&k, kappa)?;
            staged_xs.push(x.clone());
            staged_tasks.push(task);
        }
        self.chol = chol;
        self.xs.extend(staged_xs);
        self.task_of.extend(staged_tasks);
        self.y_std_vals
            .extend(y_new.iter().map(|v| (v - self.shift) / self.scale));
        self.alpha = self.chol.solve(&self.y_std_vals);
        self.nll = nll_from_chol(&self.chol, &self.y_std_vals, &self.alpha);
        Ok(())
    }

    /// Posterior prediction for `task` at normalized point `x`
    /// (paper Eqs. 5–6), in the raw output scale.
    ///
    /// Uses the per-fit cached kernels, task coefficients, and prior
    /// variances — no per-call allocation beyond the `k*` vector.
    pub fn predict(&self, task: usize, x: &[f64]) -> Prediction {
        assert!(task < self.hp.n_tasks, "predict: task out of range");
        assert_eq!(x.len(), self.hp.dim, "predict: dim mismatch");
        let n = self.xs.len();
        let t = self.hp.n_tasks;

        // Cross covariance k* between (task, x) and every training point.
        let mut kstar = vec![0.0; n];
        for (p, xp) in self.xs.iter().enumerate() {
            let tp = self.task_of[p];
            let mut s = 0.0;
            for (kern, cq) in self.kernels.iter().zip(&self.coeffs) {
                let coeff = cq[task * t + tp];
                if !feq(coeff, 0.0) {
                    s += coeff * kern.eval(x, xp);
                }
            }
            kstar[p] = s;
        }

        let mean_std: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        let v = self.chol.solve(&kstar);
        let reduction: f64 = kstar.iter().zip(&v).map(|(k, s)| k * s).sum();
        let var_std = (self.prior_var[task] - reduction).max(1e-12);

        Prediction {
            mean: mean_std * self.scale + self.shift,
            variance: var_std * self.scale * self.scale,
        }
    }

    /// Pre-refactor per-point prediction — re-derives the Q kernels and
    /// task coefficients on every call. Retained verbatim as the
    /// equivalence and benchmark baseline for the cached
    /// [`predict`](Self::predict) / [`predict_batch`](Self::predict_batch)
    /// paths.
    pub fn predict_reference(&self, task: usize, x: &[f64]) -> Prediction {
        assert!(task < self.hp.n_tasks, "predict: task out of range");
        assert_eq!(x.len(), self.hp.dim, "predict: dim mismatch");
        let n = self.xs.len();
        let kernels: Vec<ArdKernel> = (0..self.hp.q)
            .map(|q| ArdKernel::with_kind(self.kernel, self.hp.lengthscales[q].clone()))
            .collect();

        // Cross covariance k* between (task, x) and every training point.
        let mut kstar = vec![0.0; n];
        for (p, xp) in self.xs.iter().enumerate() {
            let tp = self.task_of[p];
            let mut s = 0.0;
            for q in 0..self.hp.q {
                let coeff = self.hp.a[q][task] * self.hp.a[q][tp]
                    + if tp == task { self.hp.b[q][task] } else { 0.0 };
                if !feq(coeff, 0.0) {
                    s += coeff * kernels[q].eval(x, xp);
                }
            }
            kstar[p] = s;
        }

        // Prior variance at (task, x): Σ_q (a² + b)  (latent variance; the
        // observation noise d is excluded so EI reasons about f, not y).
        let prior: f64 = (0..self.hp.q)
            .map(|q| self.hp.a[q][task] * self.hp.a[q][task] + self.hp.b[q][task])
            .sum();

        let mean_std: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        let v = self.chol.solve(&kstar);
        let reduction: f64 = kstar.iter().zip(&v).map(|(k, s)| k * s).sum();
        let var_std = (prior - reduction).max(1e-12);

        Prediction {
            mean: mean_std * self.scale + self.shift,
            variance: var_std * self.scale * self.scale,
        }
    }

    /// Batched posterior prediction for `task` at many candidate points —
    /// the candidate-scoring hot path of the search phase.
    ///
    /// Builds the `n × m` cross-covariance once, computes all means with a
    /// single `Kᵀα` product, and replaces `m` independent BLAS-2 triangular
    /// solves with one blocked multi-RHS *forward* solve (BLAS-3 shape):
    /// the variance reduction `k*ᵀ Σ⁻¹ k*` is accumulated as `‖L⁻¹ k*‖²`
    /// column sums, so the backward substitution never runs. Candidate
    /// chunks are spread over a `gptune_la::par` region of the caller's
    /// width (inline at width 1 and inside a parallel search).
    ///
    /// Matches per-point [`predict`](Self::predict) to ≤ 1e-12 relative;
    /// the only difference is the summation order of that quadratic form.
    pub fn predict_batch(&self, task: usize, xs: &[Vec<f64>]) -> Vec<Prediction> {
        assert!(task < self.hp.n_tasks, "predict_batch: task out of range");
        assert!(
            xs.iter().all(|x| x.len() == self.hp.dim),
            "predict_batch: dim mismatch"
        );
        if xs.is_empty() {
            return Vec::new();
        }
        let _batch_span = gptune_trace::global()
            .span("gptune.gp.predict_batch")
            .with("m", xs.len())
            .with("n", self.xs.len());
        // Chunked so one RHS panel stays cache-resident
        // (n × 64 × 8 B = 128 KiB at n = 256).
        const CHUNK: usize = 64;
        let chunks: Vec<&[Vec<f64>]> = xs.chunks(CHUNK).collect();
        let per: Vec<Vec<Prediction>> =
            par::map_indexed(chunks.len(), |c| self.predict_chunk(task, chunks[c]));
        per.into_iter().flatten().collect()
    }

    fn predict_chunk(&self, task: usize, chunk: &[Vec<f64>]) -> Vec<Prediction> {
        let n = self.xs.len();
        let t = self.hp.n_tasks;
        let m = chunk.len();

        // K* (n × m): row p holds the cross covariance of training point p
        // against every candidate in the chunk.
        let mut kstar = Matrix::zeros(n, m);
        for (p, xp) in self.xs.iter().enumerate() {
            let tp = self.task_of[p];
            let row = kstar.row_mut(p);
            for (kern, cq) in self.kernels.iter().zip(&self.coeffs) {
                let coeff = cq[task * t + tp];
                if feq(coeff, 0.0) {
                    continue;
                }
                for (s, x) in row.iter_mut().zip(chunk) {
                    *s += coeff * kern.eval(x, xp);
                }
            }
        }

        // Means for the whole chunk: one K*ᵀ α product.
        let mut means = vec![0.0; m];
        blas::gemv_t(1.0, &kstar, &self.alpha, 0.0, &mut means);

        // Variances: forward half-solve V = L⁻¹ K* only — the reduction
        // k*ᵀ Σ⁻¹ k* equals ‖L⁻¹ k*‖², so the backward substitution never
        // runs. Column sums of squares are accumulated row-wise (stride-1
        // over the chunk).
        let mut v = kstar;
        self.chol.forward_solve_matrix_in_place(&mut v);
        let mut reduction = vec![0.0; m];
        for p in 0..n {
            for (r, &vv) in reduction.iter_mut().zip(v.row(p)) {
                *r += vv * vv;
            }
        }

        let prior = self.prior_var[task];
        means
            .iter()
            .zip(&reduction)
            .map(|(mean_std, red)| {
                let var_std = (prior - red).max(1e-12);
                Prediction {
                    mean: mean_std * self.scale + self.shift,
                    variance: var_std * self.scale * self.scale,
                }
            })
            .collect()
    }

    /// Best observed (raw) output for a task, if it has samples.
    pub fn best_observed(&self, task: usize) -> Option<f64> {
        self.task_of
            .iter()
            .zip(&self.y_std_vals)
            .filter(|(t, _)| **t == task)
            .map(|(_, y)| y * self.scale + self.shift)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Leave-one-out cross-validation diagnostics (Sundararajan–Keerthi):
    /// with `K = Σ` and `α = K⁻¹y`, the LOO residual of point `i` is
    /// `α_i / [K⁻¹]_{ii}` and its predictive variance `1/[K⁻¹]_{ii}` —
    /// computed from the stored factorization without refitting.
    ///
    /// Returns `(rmse, mean_standardized_sq)` in the *standardized* output
    /// scale: `rmse` is the LOO prediction error, and
    /// `mean_standardized_sq` is the mean of squared standardized residuals,
    /// which should be ≈ 1 for a well-calibrated model (≫ 1 =
    /// overconfident, ≪ 1 = underconfident).
    pub fn loo_diagnostics(&self) -> (f64, f64) {
        let n = self.xs.len();
        let kinv = self.chol.inverse_lower();
        let mut sq_err = 0.0;
        let mut std_sq = 0.0;
        for i in 0..n {
            let kii = kinv.get(i, i).max(1e-300);
            let residual = self.alpha[i] / kii;
            let variance = 1.0 / kii;
            sq_err += residual * residual;
            std_sq += residual * residual / variance.max(1e-300);
        }
        ((sq_err / n as f64).sqrt(), std_sq / n as f64)
    }

    /// Spectral condition number of the fitted covariance matrix — large
    /// values explain jitter retries and unstable hyperparameter fits.
    pub fn covariance_condition_number(&self) -> f64 {
        // Reconstruct Σ = L Lᵀ from the stored factor and diagonalize.
        let l = self.chol.l();
        let n = l.rows();
        let mut sigma = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut v = 0.0;
                for k in 0..=j {
                    v += l.get(i, k) * l.get(j, k);
                }
                sigma.set(i, j, v);
                sigma.set(j, i, v);
            }
        }
        gptune_la::SymmetricEigen::new(&sigma).condition_number()
    }

    /// Log marginal likelihood and gradient at arbitrary packed
    /// hyperparameters — exposed for tests and diagnostics.
    pub fn nll_at(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        q: usize,
        theta: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        Self::nll_at_with_kernel(
            xs,
            task_of,
            y,
            n_tasks,
            q,
            KernelKind::SquaredExponential,
            theta,
            grad,
        )
    }

    /// [`LcmModel::nll_at`] with an explicit kernel family.
    #[allow(clippy::too_many_arguments)]
    pub fn nll_at_with_kernel(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        q: usize,
        kernel: KernelKind,
        theta: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        let dim = xs[0].len();
        let data = LcmData {
            xs,
            task_of,
            y,
            n_tasks,
            dim,
            kernel,
        };
        let dists = DistanceCache::build(xs);
        let ctx = FitCtx {
            data: &data,
            dists: &dists,
        };
        nll_and_grad(&ctx, q, theta, grad)
    }

    /// Pre-refactor naive likelihood+gradient (squared-exponential kernel),
    /// retained as the ≤1e-12 equivalence baseline and benchmark "before"
    /// for the distance-cached path.
    pub fn nll_at_reference(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        q: usize,
        theta: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        Self::nll_at_reference_with_kernel(
            xs,
            task_of,
            y,
            n_tasks,
            q,
            KernelKind::SquaredExponential,
            theta,
            grad,
        )
    }

    /// [`LcmModel::nll_at_reference`] with an explicit kernel family.
    #[allow(clippy::too_many_arguments)]
    pub fn nll_at_reference_with_kernel(
        xs: &[Vec<f64>],
        task_of: &[usize],
        y: &[f64],
        n_tasks: usize,
        q: usize,
        kernel: KernelKind,
        theta: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        let dim = xs[0].len();
        let data = LcmData {
            xs,
            task_of,
            y,
            n_tasks,
            dim,
            kernel,
        };
        nll_and_grad_reference(&data, q, theta, grad)
    }
}

/// Replaces non-finite outputs by the worst finite value (so the model
/// treats failed runs as very bad, mirroring GPTune's handling) and
/// returns the cleaned values with their mean/std standardization.
fn clean_and_standardize(y: &[f64]) -> (Vec<f64>, f64, f64) {
    let n = y.len();
    let finite: Vec<f64> = y.iter().copied().filter(|v| v.is_finite()).collect();
    assert!(!finite.is_empty(), "LcmModel: all outputs non-finite");
    let worst = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let cleaned: Vec<f64> = y
        .iter()
        .map(|&v| if v.is_finite() { v } else { worst })
        .collect();
    let shift = cleaned.iter().sum::<f64>() / n as f64;
    let var = cleaned
        .iter()
        .map(|v| (v - shift) * (v - shift))
        .sum::<f64>()
        / n as f64;
    let scale = var.sqrt().max(1e-12);
    (cleaned, shift, scale)
}

/// NLL from a factor and its solve: `½ yᵀα + ½ log|Σ| + ½ n·ln 2π`.
fn nll_from_chol(chol: &Cholesky, y: &[f64], alpha: &[f64]) -> f64 {
    0.5 * y.iter().zip(alpha).map(|(a, b)| a * b).sum::<f64>()
        + 0.5 * chol.log_det()
        + 0.5 * y.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// Packed per-pair, per-dimension squared coordinate differences
/// `(x_{i,d} − x_{j,d})²` for all pairs `j ≤ i` — computed once per fit and
/// shared read-only across all parallel restarts and every L-BFGS iteration
/// (the distances are theta-independent; only the `1/l²` weights change).
///
/// Layout: pair-major, pairs ordered row-by-row `(i, j ≤ i)`, so pair
/// `p(i, j) = i(i+1)/2 + j` owns the `dim` contiguous entries
/// `d2[p·dim .. (p+1)·dim]`, and the pairs of row `i` are contiguous —
/// aligning packed traversal with `Matrix` row slices of `W`.
#[derive(Clone)]
pub(crate) struct DistanceCache {
    n: usize,
    dim: usize,
    d2: Vec<f64>,
}

/// Packed lower-triangle kernel values for one latent ARD kernel:
/// `k[p] = k(r²_p)` with `r²_p = Σ_d d2[p][d]/l_d²` ([`weighted_r2`]), pair
/// order as in [`DistanceCache`]. `r²` itself is not kept: the SE gradient
/// never reads it, and the Matérn gradient recomputes it with the same
/// fold, so its bits match.
struct PackedKernel {
    k: Vec<f64>,
}

/// `r² = Σ_d d2_d · (1/l_d²)` for one pair, as one sequential fold (the
/// packed kernel values and the Matérn gradient prefactor both use it).
#[inline]
fn weighted_r2(d2p: &[f64], inv_l2: &[f64]) -> f64 {
    let mut s = 0.0;
    for (a, b) in d2p.iter().zip(inv_l2) {
        s += a * b;
    }
    s
}

impl DistanceCache {
    pub(crate) fn build(xs: &[Vec<f64>]) -> DistanceCache {
        let n = xs.len();
        let dim = if n > 0 { xs[0].len() } else { 0 };
        let mut d2 = Vec::with_capacity(n * (n + 1) / 2 * dim);
        for (i, xi) in xs.iter().enumerate() {
            for xj in xs.iter().take(i + 1) {
                for dd in 0..dim {
                    let t = xi[dd] - xj[dd];
                    d2.push(t * t);
                }
            }
        }
        DistanceCache { n, dim, d2 }
    }

    /// Number of points the cache currently covers.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Grows the cache in place to cover `xs` (whose first `self.n` rows
    /// must be the points it was built over): appends the pair rows
    /// `(i, j ≤ i)` for `i ∈ [self.n, xs.len())` — (n+1)·dim entries per
    /// new point, identical values and order to a fresh `build`.
    pub(crate) fn append(&mut self, xs: &[Vec<f64>]) {
        assert!(xs.len() >= self.n, "DistanceCache::append: shrinking");
        if self.n == 0 {
            *self = DistanceCache::build(xs);
            return;
        }
        assert!(xs.iter().all(|x| x.len() == self.dim));
        self.d2
            .reserve((xs.len() * (xs.len() + 1) / 2 - self.n * (self.n + 1) / 2) * self.dim);
        for i in self.n..xs.len() {
            let xi = &xs[i];
            for xj in xs.iter().take(i + 1) {
                for dd in 0..self.dim {
                    let t = xi[dd] - xj[dd];
                    self.d2.push(t * t);
                }
            }
        }
        self.n = xs.len();
    }

    #[inline]
    fn n_pairs(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Evaluates one latent kernel over all cached pairs: a weighted dot of
    /// the cached squared differences with `1/l²` replaces the per-pair
    /// distance rebuild of the naive path.
    fn packed(&self, kern: &ArdKernel) -> PackedKernel {
        let inv_l2 = kern.inv_lengthscales_sq();
        let k = (0..self.n_pairs())
            .map(|p| {
                kern.eval_r2(weighted_r2(
                    &self.d2[p * self.dim..(p + 1) * self.dim],
                    &inv_l2,
                ))
            })
            .collect();
        PackedKernel { k }
    }
}

/// Task-pair coefficients `c_q(t, t') = a_{t,q} a_{t',q} + δ_{t,t'} b_{t,q}`
/// (paper Eq. 4), one flattened `T×T` block per latent function.
fn task_coeffs(hp: &LcmHyperparams) -> Vec<Vec<f64>> {
    let t = hp.n_tasks;
    (0..hp.q)
        .map(|qq| {
            let mut c = vec![0.0; t * t];
            for ti in 0..t {
                for tj in 0..t {
                    c[ti * t + tj] =
                        hp.a[qq][ti] * hp.a[qq][tj] + if ti == tj { hp.b[qq][ti] } else { 0.0 };
                }
            }
            c
        })
        .collect()
}

/// Assembles the lower triangle of the `N × N` LCM covariance (paper
/// Eq. 4) from packed per-pair kernel values — the single
/// covariance-assembly routine shared by the final fit factorization and
/// every likelihood evaluation. The strict upper triangle stays zero: the
/// Cholesky factorizations read only the lower one, and the likelihood
/// evaluation turns this buffer into `L` and then `W` in place.
fn assemble_covariance(
    task_of: &[usize],
    n_tasks: usize,
    coeffs: &[Vec<f64>],
    packed: &[PackedKernel],
    d: &[f64],
) -> Matrix {
    let n = task_of.len();
    let mut sigma = Matrix::zeros(n, n);
    for i in 0..n {
        let ti = task_of[i];
        let base = i * (i + 1) / 2;
        let row = &mut sigma.row_mut(i)[..=i];
        for (cq, pk) in coeffs.iter().zip(packed) {
            let crow = &cq[ti * n_tasks..(ti + 1) * n_tasks];
            let krow = &pk.k[base..=base + i];
            for ((s, &kv), &tj) in row.iter_mut().zip(krow).zip(&task_of[..=i]) {
                *s += crow[tj] * kv;
            }
        }
        row[i] += d[ti] + 1e-10;
    }
    sigma
}

/// Factors the covariance that `assemble` builds, in place, so a
/// factorizable `Σ` is never copied. Only when that fails is `Σ`
/// assembled again for the jittered retries; assembly is deterministic,
/// so they see the same matrix and the factor is the one
/// [`Cholesky::factor_with_jitter`] returns on the first assembly.
fn factor_covariance(assemble: impl Fn() -> Matrix) -> Cholesky {
    Cholesky::factor_in_place(assemble())
        .or_else(|_| Cholesky::factor_with_jitter(&assemble(), 0.0, 12))
        .expect("LCM covariance not factorizable even with jitter")
}

/// Shared per-fit context for likelihood evaluations: the training data
/// and the distance cache.
struct FitCtx<'a> {
    data: &'a LcmData<'a>,
    dists: &'a DistanceCache,
}

/// Distance-cached negative log marginal likelihood and gradient w.r.t. the
/// packed hyperparameters. Returns `+∞` (with NaN gradient) when the
/// covariance is not factorizable, which the L-BFGS line search treats as a
/// barrier.
///
/// Matches [`nll_and_grad_reference`] to ≤1e-12 (relative); the only
/// numerical differences are benign reassociations — `r²` as a weighted dot
/// of cached `(Δx)²` with `1/l²`, and per-latent gradient blocks reduced
/// from `M_q = W ∘ K_q` instead of element-at-a-time double loops.
///
/// One `n × n` buffer per evaluation: `Σ` is assembled into it, factored
/// in place into `L`, and `L` becomes `W = Σ⁻¹ − ααᵀ` over the same
/// storage, so two restarts in flight hold two such buffers.
fn nll_and_grad(ctx: &FitCtx<'_>, q: usize, theta: &[f64], grad: &mut [f64]) -> f64 {
    let data = ctx.data;
    let n = data.xs.len();
    let t = data.n_tasks;
    let hp = LcmHyperparams::unpack(q, t, data.dim, theta);

    // Guard against absurd hyperparameters that would overflow the kernel.
    if hp
        .lengthscales
        .iter()
        .flatten()
        .any(|&l| !(1e-6..=1e6).contains(&l))
        || hp.d.iter().chain(hp.b.iter().flatten()).any(|&v| v > 1e12)
    {
        grad.iter_mut().for_each(|g| *g = f64::NAN);
        return f64::INFINITY;
    }

    let kernels: Vec<ArdKernel> = (0..q)
        .map(|qq| ArdKernel::with_kind(data.kernel, hp.lengthscales[qq].clone()))
        .collect();
    let packed: Vec<PackedKernel> = kernels.iter().map(|k| ctx.dists.packed(k)).collect();
    let coeffs = task_coeffs(&hp);
    let sigma = assemble_covariance(data.task_of, t, &coeffs, &packed, &hp.d);

    let chol = match Cholesky::factor_in_place(sigma) {
        Ok(c) => c,
        Err(_) => {
            grad.iter_mut().for_each(|g| *g = f64::NAN);
            return f64::INFINITY;
        }
    };

    let alpha = chol.solve(data.y);
    let nll = 0.5 * data.y.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>()
        + 0.5 * chol.log_det()
        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // W = Σ⁻¹ − α αᵀ, lower triangle only, over the factor's storage:
    // `grad_block` and the noise gradient below read just
    // `w.row(i)[..=i]` and the diagonal, so the upper mirror (and half the
    // rank-1 update) is never materialized.
    let w = chol.into_inverse_lower_minus_outer(&alpha);

    grad.iter_mut().for_each(|g| *g = 0.0);
    let block = data.dim + 2 * t;
    // Per-latent gradient blocks: each is an independent single pass over
    // the packed pairs. They run in a plain loop — with q = 2 blocks per
    // evaluation a parallel region would cost a thread start per L-BFGS
    // step; the restarts above are the parallel grain.
    for qq in 0..q {
        let blk = grad_block(
            data,
            ctx.dists,
            &hp,
            qq,
            &kernels[qq],
            &packed[qq],
            &coeffs[qq],
            &w,
        );
        grad[qq * block..(qq + 1) * block].copy_from_slice(&blk);
    }
    // ∂Σ/∂ log d_r = d_r on the diagonal of task r.
    let wdiag = w.diagonal();
    let off = q * block;
    for r in 0..t {
        let mut g = 0.0;
        for (i, &ti) in data.task_of.iter().enumerate() {
            if ti == r {
                g += wdiag[i];
            }
        }
        grad[off + r] = 0.5 * g * hp.d[r];
    }

    nll
}

/// One latent function's gradient block `[∂/∂log l | ∂/∂a | ∂/∂log b]`,
/// reduced in a single pass over the packed lower-triangle pairs with
/// `M_q = W ∘ K_q` formed on the fly from row slices:
///
/// * lengthscales — `∂/∂log l_d = (Σ_p W c g(r²,k) · d2_p[d]) / l_d²`, the
///   diagonal included for free (its `d2` is zero and `g` is finite at 0);
/// * `a` — row sums `S[i][t'] = Σ_{j: t_j = t'} M_ij` give
///   `∂/∂a_r = Σ_{i: t_i = r} (S[i]·a_q)`;
/// * `b` — `∂/∂log b_r = 0.5 b_r Σ_{i: t_i = r} S[i][r]`.
#[allow(clippy::too_many_arguments)]
fn grad_block(
    data: &LcmData<'_>,
    dists: &DistanceCache,
    hp: &LcmHyperparams,
    qq: usize,
    kern: &ArdKernel,
    pk: &PackedKernel,
    cq: &[f64],
    w: &Matrix,
) -> Vec<f64> {
    let n = data.xs.len();
    let t = data.n_tasks;
    let dim = data.dim;
    let inv_l2 = kern.inv_lengthscales_sq();
    // Only the Matérn prefactor depends on r²; SE's is the kernel value.
    let needs_r2 = kern.kind == KernelKind::Matern52;
    let mut gl = vec![0.0; dim];
    let mut srow = vec![0.0; n * t];
    for i in 0..n {
        let ti = data.task_of[i];
        let base = i * (i + 1) / 2;
        let wrow = &w.row(i)[..=i];
        let krow = &pk.k[base..=base + i];
        let crow = &cq[ti * t..(ti + 1) * t];
        let d2row = &dists.d2[base * dim..(base + i + 1) * dim];
        for j in 0..=i {
            let tj = data.task_of[j];
            let wij = wrow[j];
            let kv = krow[j];
            let m = wij * kv;
            srow[i * t + tj] += m;
            if i != j {
                srow[j * t + ti] += m;
            }
            let d2p = &d2row[j * dim..(j + 1) * dim];
            let r2 = if needs_r2 {
                weighted_r2(d2p, &inv_l2)
            } else {
                0.0
            };
            let s = wij * crow[tj] * kern.grad_factor_r2(r2, kv);
            for (g, &d2v) in gl.iter_mut().zip(d2p) {
                *g += s * d2v;
            }
        }
    }
    let mut blk = vec![0.0; dim + 2 * t];
    // Off-diagonal pairs appear twice in the full sum; the ×2 cancels the
    // 0.5 of the gradient formula, and z_d² = d2_d / l_d².
    for dd in 0..dim {
        blk[dd] = gl[dd] * inv_l2[dd];
    }
    let aq = &hp.a[qq];
    let mut gb = vec![0.0; t];
    for i in 0..n {
        let ti = data.task_of[i];
        let si = &srow[i * t..(i + 1) * t];
        let v: f64 = si.iter().zip(aq).map(|(s, a)| s * a).sum();
        blk[dim + ti] += v;
        gb[ti] += si[ti];
    }
    for r in 0..t {
        blk[dim + t + r] = 0.5 * gb[r] * hp.b[qq][r];
    }
    blk
}

/// Pre-refactor naive likelihood+gradient — retained verbatim as the
/// equivalence baseline and benchmark "before" for [`nll_and_grad`]. Every
/// distance, kernel value, and gradient term is re-derived pair-by-pair
/// with per-element matrix access, and the factorization/inverse go through
/// the retained scalar baselines ([`Cholesky::factor_reference`],
/// [`Cholesky::inverse_reference`]) rather than the vectorized kernels.
fn nll_and_grad_reference(data: &LcmData<'_>, q: usize, theta: &[f64], grad: &mut [f64]) -> f64 {
    let n = data.xs.len();
    let hp = LcmHyperparams::unpack(q, data.n_tasks, data.dim, theta);

    // Guard against absurd hyperparameters that would overflow the kernel.
    if hp
        .lengthscales
        .iter()
        .flatten()
        .any(|&l| !(1e-6..=1e6).contains(&l))
        || hp.d.iter().chain(hp.b.iter().flatten()).any(|&v| v > 1e12)
    {
        grad.iter_mut().for_each(|g| *g = f64::NAN);
        return f64::INFINITY;
    }

    // Per-latent kernel matrices (symmetric, stored dense).
    let kernels: Vec<ArdKernel> = (0..q)
        .map(|qq| ArdKernel::with_kind(data.kernel, hp.lengthscales[qq].clone()))
        .collect();
    let kmats: Vec<Matrix> = kernels
        .iter()
        .map(|kern| {
            let mut k = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = kern.eval(&data.xs[i], &data.xs[j]);
                    k.set(i, j, v);
                    k.set(j, i, v);
                }
            }
            k
        })
        .collect();

    // Σ assembly from the cached K_q.
    let mut sigma = Matrix::zeros(n, n);
    for qq in 0..q {
        for i in 0..n {
            let ti = data.task_of[i];
            for j in 0..=i {
                let tj = data.task_of[j];
                let coeff = hp.a[qq][ti] * hp.a[qq][tj] + if ti == tj { hp.b[qq][ti] } else { 0.0 };
                if !feq(coeff, 0.0) {
                    sigma.add_at(i, j, coeff * kmats[qq].get(i, j));
                }
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            let v = sigma.get(i, j);
            sigma.set(j, i, v);
        }
        sigma.add_at(i, i, hp.d[data.task_of[i]] + 1e-10);
    }

    // Pre-vectorization scalar factorization and inverse, so the baseline
    // stays the code the workspace actually ran before this refactor.
    let chol = match Cholesky::factor_reference(&sigma) {
        Ok(c) => c,
        Err(_) => {
            grad.iter_mut().for_each(|g| *g = f64::NAN);
            return f64::INFINITY;
        }
    };

    let alpha = chol.solve(data.y);
    let nll = 0.5 * data.y.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>()
        + 0.5 * chol.log_det()
        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // W = Σ⁻¹ − α αᵀ; gradient of NLL w.r.t. θ_k is 0.5 Σ_ij W_ij ∂Σ_ij.
    let sinv = chol.inverse_reference();
    let mut w = sinv;
    for i in 0..n {
        for j in 0..n {
            w.add_at(i, j, -alpha[i] * alpha[j]);
        }
    }

    grad.iter_mut().for_each(|g| *g = 0.0);
    let mut off = 0;
    for qq in 0..q {
        let kq = &kmats[qq];
        // ∂Σ/∂ log l_d^q = coeff(i,j) · ∂K_q(i,j)/∂ log l_d (kernel-specific).
        let kern = &kernels[qq];
        for dd in 0..data.dim {
            let mut g = 0.0;
            for i in 0..n {
                let ti = data.task_of[i];
                for j in 0..i {
                    let tj = data.task_of[j];
                    let coeff =
                        hp.a[qq][ti] * hp.a[qq][tj] + if ti == tj { hp.b[qq][ti] } else { 0.0 };
                    if feq(coeff, 0.0) {
                        continue;
                    }
                    let dk = kern.grad_log_lengthscale(&data.xs[i], &data.xs[j], dd, kq.get(i, j));
                    // Off-diagonal pairs appear twice in the full sum.
                    g += w.get(i, j) * coeff * dk;
                }
                // Diagonal contribution has zero distance → zero gradient.
            }
            grad[off + dd] = 0.5 * 2.0 * g;
        }
        // ∂Σ/∂ a_{r,q} = (δ_{i,r} a_{j,q} + δ_{j,r} a_{i,q}) K_q(i,j).
        for r in 0..data.n_tasks {
            let mut g = 0.0;
            for i in 0..n {
                let ti = data.task_of[i];
                for j in 0..n {
                    let tj = data.task_of[j];
                    let da = if ti == r { hp.a[qq][tj] } else { 0.0 }
                        + if tj == r { hp.a[qq][ti] } else { 0.0 };
                    if !feq(da, 0.0) {
                        g += w.get(i, j) * da * kq.get(i, j);
                    }
                }
            }
            grad[off + data.dim + r] = 0.5 * g;
        }
        // ∂Σ/∂ log b_{r,q} = δ_{i,j-tasks} b_{r,q} K_q(i,j) on same-task pairs.
        for r in 0..data.n_tasks {
            let br = hp.b[qq][r];
            let mut g = 0.0;
            for i in 0..n {
                if data.task_of[i] != r {
                    continue;
                }
                for j in 0..n {
                    if data.task_of[j] != r {
                        continue;
                    }
                    g += w.get(i, j) * kq.get(i, j);
                }
            }
            grad[off + data.dim + data.n_tasks + r] = 0.5 * g * br;
        }
        off += data.dim + 2 * data.n_tasks;
    }
    // ∂Σ/∂ log d_r = d_r on the diagonal of task r.
    for r in 0..data.n_tasks {
        let dr = hp.d[r];
        let mut g = 0.0;
        for i in 0..n {
            if data.task_of[i] == r {
                g += w.get(i, i);
            }
        }
        grad[off + r] = 0.5 * g * dr;
    }

    nll
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_multitask_data(per_task: usize) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
        // Two related tasks: y = sin(2πx) + task·0.5, sampled on a grid.
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

    #[test]
    fn gradient_matches_finite_differences() {
        let (xs, tasks, ys) = toy_multitask_data(5);
        // Standardize y like fit does, so scales are sane.
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let std = (ys.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / ys.len() as f64).sqrt();
        let y: Vec<f64> = ys.iter().map(|v| (v - mean) / std).collect();

        let q = 2;
        let hp = LcmHyperparams {
            q,
            n_tasks: 2,
            dim: 1,
            lengthscales: vec![vec![0.3], vec![0.7]],
            a: vec![vec![0.8, -0.5], vec![0.2, 0.9]],
            b: vec![vec![0.01, 0.02], vec![0.03, 0.015]],
            d: vec![0.05, 0.04],
        };
        let theta = hp.pack();
        let mut grad = vec![0.0; theta.len()];
        let f0 = LcmModel::nll_at(&xs, &tasks, &y, 2, q, &theta, &mut grad);
        assert!(f0.is_finite());

        let h = 1e-6;
        for k in 0..theta.len() {
            let mut tp = theta.clone();
            tp[k] += h;
            let mut tm = theta.clone();
            tm[k] -= h;
            let mut dummy = vec![0.0; theta.len()];
            let fp = LcmModel::nll_at(&xs, &tasks, &y, 2, q, &tp, &mut dummy);
            let fm = LcmModel::nll_at(&xs, &tasks, &y, 2, q, &tm, &mut dummy);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {k}: analytic {} vs fd {fd}",
                grad[k]
            );
        }
    }

    #[test]
    fn matern_gradient_matches_finite_differences() {
        let (xs, tasks, ys) = toy_multitask_data(5);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let std = (ys.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / ys.len() as f64).sqrt();
        let y: Vec<f64> = ys.iter().map(|v| (v - mean) / std).collect();
        let hp = LcmHyperparams {
            q: 1,
            n_tasks: 2,
            dim: 1,
            lengthscales: vec![vec![0.35]],
            a: vec![vec![0.8, -0.5]],
            b: vec![vec![0.01, 0.02]],
            d: vec![0.05, 0.04],
        };
        let theta = hp.pack();
        let mut grad = vec![0.0; theta.len()];
        let f0 = LcmModel::nll_at_with_kernel(
            &xs,
            &tasks,
            &y,
            2,
            1,
            KernelKind::Matern52,
            &theta,
            &mut grad,
        );
        assert!(f0.is_finite());
        let h = 1e-6;
        for k in 0..theta.len() {
            let mut tp = theta.clone();
            tp[k] += h;
            let mut tm = theta.clone();
            tm[k] -= h;
            let mut dummy = vec![0.0; theta.len()];
            let fp = LcmModel::nll_at_with_kernel(
                &xs,
                &tasks,
                &y,
                2,
                1,
                KernelKind::Matern52,
                &tp,
                &mut dummy,
            );
            let fm = LcmModel::nll_at_with_kernel(
                &xs,
                &tasks,
                &y,
                2,
                1,
                KernelKind::Matern52,
                &tm,
                &mut dummy,
            );
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {k}: analytic {} vs fd {fd}",
                grad[k]
            );
        }
    }

    #[test]
    fn fit_with_matern_kernel_interpolates() {
        let (xs, tasks, ys) = toy_multitask_data(10);
        let opts = LcmFitOptions {
            kernel: KernelKind::Matern52,
            ..Default::default()
        };
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &opts);
        for (i, x) in xs.iter().enumerate() {
            let p = model.predict(tasks[i], x);
            assert!(
                (p.mean - ys[i]).abs() < 0.2,
                "at {x:?}: {} vs {}",
                p.mean,
                ys[i]
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let hp = LcmHyperparams {
            q: 2,
            n_tasks: 3,
            dim: 2,
            lengthscales: vec![vec![0.3, 1.2], vec![0.7, 0.1]],
            a: vec![vec![0.8, -0.5, 0.1], vec![0.2, 0.9, -1.3]],
            b: vec![vec![0.01, 0.02, 0.5], vec![0.03, 0.015, 0.2]],
            d: vec![0.05, 0.04, 0.001],
        };
        let theta = hp.pack();
        assert_eq!(theta.len(), hp.n_params());
        let back = LcmHyperparams::unpack(2, 3, 2, &theta);
        for q in 0..2 {
            for d in 0..2 {
                assert!((back.lengthscales[q][d] - hp.lengthscales[q][d]).abs() < 1e-12);
            }
            for t in 0..3 {
                assert!((back.a[q][t] - hp.a[q][t]).abs() < 1e-12);
                assert!((back.b[q][t] - hp.b[q][t]).abs() < 1e-12);
            }
        }
        for t in 0..3 {
            assert!((back.d[t] - hp.d[t]).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_interpolates_smooth_function() {
        let (xs, tasks, ys) = toy_multitask_data(10);
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &LcmFitOptions::default());
        // Predict near training points: error and variance should be small.
        for (i, x) in xs.iter().enumerate() {
            let p = model.predict(tasks[i], x);
            assert!(
                (p.mean - ys[i]).abs() < 0.15,
                "at x={:?}: pred {} vs true {}",
                x,
                p.mean,
                ys[i]
            );
        }
        // Far from data (extrapolating in-between is fine; check variance
        // at a training point is below variance at a fresh midpoint).
        let p_train = model.predict(0, &xs[3]);
        let p_new = model.predict(0, &[xs[3][0] + 0.049]);
        assert!(p_train.variance <= p_new.variance + 1e-9);
    }

    #[test]
    fn multitask_transfers_information() {
        // Task 0 densely sampled; task 1 has only 3 samples of the SAME
        // function. LCM prediction on task 1 should beat a constant-mean
        // baseline thanks to transfer through the shared latent GP.
        let f = |x: f64| (2.0 * std::f64::consts::PI * x).sin();
        let mut xs = Vec::new();
        let mut tasks = Vec::new();
        let mut ys = Vec::new();
        for j in 0..12 {
            let x = (j as f64 + 0.5) / 12.0;
            xs.push(vec![x]);
            tasks.push(0usize);
            ys.push(f(x));
        }
        for &x in &[0.1, 0.5, 0.9] {
            xs.push(vec![x]);
            tasks.push(1usize);
            ys.push(f(x));
        }
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &LcmFitOptions::default());
        let mut err = 0.0;
        let mut base = 0.0;
        let y1mean = (f(0.1) + f(0.5) + f(0.9)) / 3.0;
        for j in 0..20 {
            let x = (j as f64 + 0.5) / 20.0;
            let p = model.predict(1, &[x]);
            err += (p.mean - f(x)).powi(2);
            base += (y1mean - f(x)).powi(2);
        }
        assert!(err < base * 0.5, "transfer err {err} vs baseline {base}");
    }

    #[test]
    fn handles_non_finite_outputs() {
        let (xs, tasks, mut ys) = toy_multitask_data(6);
        ys[3] = f64::INFINITY;
        ys[7] = f64::NAN;
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &LcmFitOptions::default());
        let p = model.predict(0, &[0.5]);
        assert!(p.mean.is_finite());
        assert!(p.variance.is_finite() && p.variance >= 0.0);
    }

    #[test]
    fn best_observed_tracks_minimum() {
        let (xs, tasks, ys) = toy_multitask_data(8);
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &LcmFitOptions::default());
        let m0 = model.best_observed(0).unwrap();
        let true_min = ys
            .iter()
            .zip(&tasks)
            .filter(|(_, t)| **t == 0)
            .map(|(y, _)| *y)
            .fold(f64::INFINITY, f64::min);
        assert!((m0 - true_min).abs() < 1e-9 * (1.0 + true_min.abs()));
    }

    #[test]
    fn single_point_single_task() {
        let model = LcmModel::fit(
            &[vec![0.5]],
            &[0],
            &[3.0],
            1,
            &LcmFitOptions {
                n_starts: 1,
                ..Default::default()
            },
        );
        let p = model.predict(0, &[0.5]);
        assert!((p.mean - 3.0).abs() < 0.5);
    }

    #[test]
    fn loo_diagnostics_sane_on_smooth_data() {
        let (xs, tasks, ys) = toy_multitask_data(12);
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &LcmFitOptions::default());
        let (rmse, calib) = model.loo_diagnostics();
        // Smooth noiseless data: LOO error well under the unit output std.
        assert!(rmse < 0.6, "rmse {rmse}");
        assert!(calib.is_finite() && calib > 0.0, "calibration {calib}");
        // LOO must be worse on pure-noise data than on smooth data.
        let noise_y: Vec<f64> = (0..ys.len())
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let noisy = LcmModel::fit(&xs, &tasks, &noise_y, 2, &LcmFitOptions::default());
        let (rmse_noise, _) = noisy.loo_diagnostics();
        assert!(rmse_noise > rmse, "{rmse_noise} vs {rmse}");
    }

    #[test]
    fn condition_number_reported() {
        let (xs, tasks, ys) = toy_multitask_data(6);
        let model = LcmModel::fit(&xs, &tasks, &ys, 2, &LcmFitOptions::default());
        let cond = model.covariance_condition_number();
        assert!(cond >= 1.0 && cond.is_finite(), "cond {cond}");
    }

    #[test]
    fn fit_is_bit_identical_across_region_widths() {
        // The restarts run on the region's threads at every training-set
        // size; results come back in restart order, so the fit cannot
        // depend on how many threads ran them.
        let bits = |m: &LcmModel| -> Vec<u64> {
            let mut v: Vec<u64> = m.hyperparams().pack().iter().map(|x| x.to_bits()).collect();
            v.push(m.nll().to_bits());
            let p = m.predict(1, &[0.37]);
            v.extend([p.mean.to_bits(), p.variance.to_bits()]);
            v
        };
        for n in [2usize, 5, 17, 47, 64] {
            let (mut xs, mut tasks, mut ys) = toy_multitask_data(n.div_ceil(2));
            xs.truncate(n);
            tasks.truncate(n);
            ys.truncate(n);
            let fit = |width: usize| {
                par::with_width(width, || {
                    bits(&LcmModel::fit(
                        &xs,
                        &tasks,
                        &ys,
                        2,
                        &LcmFitOptions::default(),
                    ))
                })
            };
            let one = fit(1);
            for width in [2, 4] {
                assert_eq!(
                    one,
                    fit(width),
                    "n = {n}: width {width} diverged from width 1"
                );
            }
        }
    }

    #[test]
    fn q_clamped_to_task_count() {
        let (xs, tasks, ys) = toy_multitask_data(4);
        let model = LcmModel::fit(
            &xs,
            &tasks,
            &ys,
            2,
            &LcmFitOptions {
                q: 10,
                ..Default::default()
            },
        );
        assert_eq!(model.hyperparams().q, 2);
    }
}
