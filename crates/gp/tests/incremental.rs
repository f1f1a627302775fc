//! Equivalence harness for the incremental LCM refit path.
//!
//! Between full refits the surrogate extends its stored Cholesky factor
//! one cross-covariance column at a time ([`LcmModel::extend`]) instead of
//! refactoring. These tests pin that machinery:
//!
//! * ≥64 sequential single-point appends stay within 1e-10 (relative) of
//!   a from-scratch rebuild at the same hyperparameters — predictions
//!   (mean and variance) and factor-based NLL, checked after *every*
//!   append, not just the last;
//! * `loo_diagnostics` and `covariance_condition_number` stay finite on
//!   degenerate (duplicate-x) histories — the jitter path must absorb
//!   the singularity rather than leak NaNs into diagnostics;
//! * a surrogate restored from its `ModelState` image mid incremental
//!   cycle is bit-identical to the live one (factor, α, NLL, batched
//!   predictions), takes the same refit modes afterwards, and runs no fit
//!   while restoring;
//! * every update on an incremental schedule — full, incremental, an
//!   exact duplicate point, the schedule's next full refit — leaves an
//!   image that restores that way.

use gptune_gp::{IncrementalLcm, KernelKind, LcmFitOptions, LcmModel, RefitMode, RefitSchedule};
use gptune_rng::{Rng, SeedableRng, StdRng};
use gptune_trace::{TraceData, Tracer};
use std::sync::{Mutex, PoisonError};

/// Relative difference scaled by magnitude (and safe at zero).
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / (1.0 + a.abs().max(b.abs()))
}

/// Synthetic multitask data: inputs in the unit cube, tasks round-robin,
/// smooth per-task response plus a little noise.
fn synth(n: usize, dim: usize, n_tasks: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let task_of: Vec<usize> = (0..n).map(|i| i % n_tasks).collect();
    let y: Vec<f64> = xs
        .iter()
        .zip(&task_of)
        .map(|(x, &t)| {
            let s: f64 = x
                .iter()
                .enumerate()
                .map(|(d, v)| ((1.0 + 0.3 * t as f64) * v * 3.0 + 0.2 * d as f64).sin())
                .sum();
            s + 0.05 * (rng.gen::<f64>() - 0.5)
        })
        .collect();
    (xs, task_of, y)
}

fn probe_points(dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..8)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect()
}

/// Well-conditioned hyperparameters: random lengthscales and task
/// coefficients, but noise floors high enough that the covariance is far
/// from singular — so the O(n²) extension and the O(n³) refactorization
/// agree to roundoff instead of to roundoff × condition number.
fn well_conditioned_hp(
    q: usize,
    n_tasks: usize,
    dim: usize,
    seed: u64,
) -> gptune_gp::LcmHyperparams {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hp = gptune_gp::LcmHyperparams::random_init(q, n_tasks, dim, &mut rng);
    for b in hp.b.iter_mut().flatten() {
        *b = 0.02 + 0.03 * rng.gen::<f64>();
    }
    for d in hp.d.iter_mut() {
        *d = 0.05 + 0.05 * rng.gen::<f64>();
    }
    hp
}

#[test]
fn sixty_four_sequential_appends_match_from_scratch() {
    let n0 = 40;
    let appends = 64;
    let dim = 3;
    let n_tasks = 2;
    let (xs, task_of, y) = synth(n0 + appends, dim, n_tasks, 42);
    let hp = well_conditioned_hp(2, n_tasks, dim, 9);
    let mut model = LcmModel::from_hyperparams(
        &xs[..n0],
        &task_of[..n0],
        &y[..n0],
        n_tasks,
        KernelKind::SquaredExponential,
        hp,
        None,
    );
    let standardization = model.standardization();
    let probes = probe_points(dim, 7);

    for n in (n0 + 1)..=(n0 + appends) {
        model
            .extend(&xs[n - 1..n], &task_of[n - 1..n], &y[n - 1..n])
            .expect("extend");
        assert_eq!(model.n_samples(), n);

        // From-scratch rebuild at identical hyperparameters and output
        // standardization — the only difference is O(n²) extension vs
        // O(n³) refactorization.
        let scratch = LcmModel::from_hyperparams(
            &xs[..n],
            &task_of[..n],
            &y[..n],
            n_tasks,
            KernelKind::SquaredExponential,
            model.hyperparams().clone(),
            Some(standardization),
        );
        let d_nll = rel(model.nll(), scratch.nll());
        assert!(d_nll < 1e-10, "n={n}: NLL drift {d_nll}");
        for t in 0..n_tasks {
            for p in &probes {
                let a = model.predict(t, p);
                let b = scratch.predict(t, p);
                assert!(
                    rel(a.mean, b.mean) < 1e-10,
                    "n={n} task={t}: mean {} vs {}",
                    a.mean,
                    b.mean
                );
                assert!(
                    rel(a.variance, b.variance) < 1e-10,
                    "n={n} task={t}: var {} vs {}",
                    a.variance,
                    b.variance
                );
            }
        }
    }
}

#[test]
fn batched_extension_matches_one_at_a_time() {
    let (xs, task_of, y) = synth(72, 2, 3, 5);
    let n0 = 48;
    let opts = LcmFitOptions {
        n_starts: 1,
        seed: 3,
        ..Default::default()
    };
    let mut one = LcmModel::fit(&xs[..n0], &task_of[..n0], &y[..n0], 3, &opts);
    let mut batched = one.clone();
    for n in n0..xs.len() {
        one.extend(&xs[n..n + 1], &task_of[n..n + 1], &y[n..n + 1])
            .unwrap();
    }
    batched.extend(&xs[n0..], &task_of[n0..], &y[n0..]).unwrap();
    assert!(rel(one.nll(), batched.nll()) < 1e-12);
    for p in probe_points(2, 11) {
        let a = one.predict(1, &p);
        let b = batched.predict(1, &p);
        assert!(rel(a.mean, b.mean) < 1e-12 && rel(a.variance, b.variance) < 1e-12);
    }
}

#[test]
fn duplicate_point_extension_fails_typed_and_full_refit_recovers() {
    let (xs, task_of, y) = synth(50, 2, 2, 23);
    let opts = LcmFitOptions {
        n_starts: 1,
        seed: 2,
        ..Default::default()
    };
    let mut model = LcmModel::fit(&xs, &task_of, &y, 2, &opts);
    let before = model.predict(0, &xs[10]);
    // An exact duplicate of an existing point for the same task makes the
    // extended covariance numerically singular; the factor extension must
    // report a typed failure and leave the model untouched.
    let dup = xs[10].clone();
    let r = model.extend(std::slice::from_ref(&dup), &[task_of[10]], &[y[10]]);
    if r.is_err() {
        let after = model.predict(0, &xs[10]);
        assert_eq!(before.mean.to_bits(), after.mean.to_bits());
        assert_eq!(before.variance.to_bits(), after.variance.to_bits());
    }
    // Either way, the scheduler-level fallback (a full refit over the
    // grown history, where the jitter loop absorbs the singularity) must
    // produce a usable model.
    let mut grown_xs = xs.clone();
    let mut grown_tasks = task_of.clone();
    let mut grown_y = y.clone();
    grown_xs.push(dup);
    grown_tasks.push(task_of[10]);
    grown_y.push(y[10]);
    let mut inc = IncrementalLcm::new(RefitSchedule {
        full_every: 100,
        nll_drift: 0.0,
    });
    inc.update(&xs, &task_of, &y, 2, &opts);
    let mode = inc.update(&grown_xs, &grown_tasks, &grown_y, 2, &opts);
    let m = inc.model().unwrap();
    assert_eq!(m.n_samples(), grown_xs.len());
    let p = m.predict(0, &xs[10]);
    assert!(p.mean.is_finite() && p.variance.is_finite() && p.variance >= 0.0);
    assert!(mode == RefitMode::Full || mode == RefitMode::Incremental);
}

#[test]
fn loo_diagnostics_finite_on_duplicate_x_history() {
    // Degenerate history: every point duplicated exactly, with slightly
    // different outputs (repeated measurements of a noisy objective).
    let (xs0, task0, y0) = synth(24, 2, 2, 31);
    let mut xs = Vec::new();
    let mut task_of = Vec::new();
    let mut y = Vec::new();
    for i in 0..xs0.len() {
        xs.push(xs0[i].clone());
        task_of.push(task0[i]);
        y.push(y0[i]);
        xs.push(xs0[i].clone());
        task_of.push(task0[i]);
        y.push(y0[i] + 0.01);
    }
    let opts = LcmFitOptions {
        n_starts: 2,
        seed: 6,
        ..Default::default()
    };
    let model = LcmModel::fit(&xs, &task_of, &y, 2, &opts);
    let (rmse, calib) = model.loo_diagnostics();
    assert!(rmse.is_finite() && rmse >= 0.0, "rmse {rmse}");
    assert!(calib.is_finite() && calib >= 0.0, "calibration {calib}");
    let cond = model.covariance_condition_number();
    assert!(cond.is_finite() && cond >= 1.0, "cond {cond}");
}

#[test]
fn diagnostics_track_an_incrementally_extended_model() {
    let (xs, task_of, y) = synth(70, 2, 2, 37);
    let n0 = 50;
    let opts = LcmFitOptions {
        n_starts: 1,
        seed: 8,
        ..Default::default()
    };
    let mut model = LcmModel::fit(&xs[..n0], &task_of[..n0], &y[..n0], 2, &opts);
    model
        .extend(&xs[n0..], &task_of[n0..], &y[n0..])
        .expect("extend");
    let (rmse, calib) = model.loo_diagnostics();
    assert!(rmse.is_finite() && calib.is_finite());
    let cond = model.covariance_condition_number();
    assert!(cond.is_finite() && cond >= 1.0);
    // Diagnostics agree with the from-scratch rebuild at the same
    // hyperparameters — LOO reads only the factor and alpha.
    let scratch = LcmModel::from_hyperparams(
        &xs,
        &task_of,
        &y,
        2,
        KernelKind::SquaredExponential,
        model.hyperparams().clone(),
        Some(model.standardization()),
    );
    let (s_rmse, s_calib) = scratch.loo_diagnostics();
    assert!(rel(rmse, s_rmse) < 1e-8, "{rmse} vs {s_rmse}");
    assert!(rel(calib, s_calib) < 1e-8, "{calib} vs {s_calib}");
}

/// Every bit a surrogate's suggestions depend on: factor, α, NLL and the
/// batched posterior of each task at fixed probe points.
fn model_bits(m: &LcmModel, n_tasks: usize, probes: &[Vec<f64>]) -> Vec<u64> {
    let mut bits: Vec<u64> = m
        .factor()
        .l()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    bits.extend(m.alpha().iter().map(|v| v.to_bits()));
    bits.push(m.nll().to_bits());
    for t in 0..n_tasks {
        for p in m.predict_batch(t, probes) {
            bits.extend([p.mean.to_bits(), p.variance.to_bits()]);
        }
    }
    bits
}

/// Names of the spans this thread recorded (tests run concurrently and
/// share the global tracer, so other threads' events are skipped).
fn my_span_names(data: &TraceData) -> Vec<String> {
    let me = std::thread::current().name().map(str::to_string);
    data.events
        .iter()
        .filter(|e| data.track_name(e.track).map(str::to_string) == me)
        .map(|e| e.name.to_string())
        .collect()
}

/// Held by each test that installs its own global tracer, so one test's
/// drain never takes the other's spans.
static TRACER: Mutex<()> = Mutex::new(());

#[test]
fn restore_from_image_is_bit_identical_and_runs_no_fit() {
    let _serial = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    let (n_tasks, dim) = (3, 2);
    let (xs, task_of, y) = synth(30, dim, n_tasks, 1);
    let probes = probe_points(dim, 11);
    // Each update gets its own seed, as a session's refits do.
    let opts = |k: u64| LcmFitOptions {
        n_starts: 2,
        seed: 100 + k,
        ..Default::default()
    };
    let schedule = RefitSchedule::every(4);
    let mut live = IncrementalLcm::new(schedule);
    let n0 = 24;
    // A full fit, then two incremental updates (the second a batch of two).
    let steps = [
        (n0, RefitMode::Full),
        (n0 + 1, RefitMode::Incremental),
        (n0 + 3, RefitMode::Incremental),
    ];
    for (k, (n, mode)) in steps.into_iter().enumerate() {
        let got = live.update(&xs[..n], &task_of[..n], &y[..n], n_tasks, &opts(k as u64));
        assert_eq!(got, mode, "live update {k}");
    }
    let image = live.state().expect("incremental state");
    assert_eq!((image.n_full, image.updates_since_full), (n0, 2));

    let prev = gptune_trace::install(Tracer::ring(1 << 14));
    let mut back = IncrementalLcm::new(schedule);
    let n = n0 + 3;
    back.restore(&xs[..n], &task_of[..n], n_tasks, &opts(9), &image)
        .expect("restore");
    let during_restore = gptune_trace::global().drain();
    let restored_bits = model_bits(back.model().unwrap(), n_tasks, &probes);
    assert_eq!(
        restored_bits,
        model_bits(live.model().unwrap(), n_tasks, &probes),
        "restored surrogate differs from the live one"
    );
    assert_eq!(back.state().as_ref(), Some(&image));

    // The cycle continues identically: one more extension, then the
    // schedule's full refit (warm-started from the restored optimum).
    for (k, (n, mode)) in [(n0 + 4, RefitMode::Incremental), (n0 + 5, RefitMode::Full)]
        .into_iter()
        .enumerate()
    {
        let k = 3 + k as u64;
        let a = live.update(&xs[..n], &task_of[..n], &y[..n], n_tasks, &opts(k));
        let b = back.update(&xs[..n], &task_of[..n], &y[..n], n_tasks, &opts(k));
        assert_eq!((a, b), (mode, mode), "update at n = {n}");
        assert_eq!(
            model_bits(live.model().unwrap(), n_tasks, &probes),
            model_bits(back.model().unwrap(), n_tasks, &probes),
            "diverged after the update at n = {n}"
        );
    }
    let after_restore = gptune_trace::global().drain();
    gptune_trace::install(prev);

    assert_eq!(during_restore.dropped, 0);
    let spans = my_span_names(&during_restore);
    assert!(
        !spans.iter().any(|s| s == "gptune.gp.fit"),
        "restore ran a fit: {spans:?}"
    );
    // The filter sees this thread's fits: both full refits above opened one.
    let fits = my_span_names(&after_restore)
        .into_iter()
        .filter(|s| s == "gptune.gp.fit")
        .count();
    assert_eq!(fits, 2);
}

#[test]
fn every_update_leaves_an_image_that_restores_bit_identically() {
    let _serial = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    let (n_tasks, dim) = (3, 2);
    let (mut xs, mut task_of, mut y) = synth(36, dim, n_tasks, 1);
    let n0 = 24;
    // The third update appends an exact duplicate of point 10 (input,
    // task and output), whose extension is numerically singular.
    xs.insert(n0 + 2, xs[10].clone());
    task_of.insert(n0 + 2, task_of[10]);
    y.insert(n0 + 2, y[10]);
    let probes = probe_points(dim, 11);
    let opts = |k: u64| LcmFitOptions {
        n_starts: 2,
        seed: 100 + k,
        ..Default::default()
    };
    let schedule = RefitSchedule::every(4);
    let mut live = IncrementalLcm::new(schedule);
    let prev = gptune_trace::install(Tracer::ring(1 << 14));
    let mut modes = Vec::new();
    let mut scheduled_full = false;
    // One point per update until the schedule's full refit, which follows
    // `full_every − 1` extensions in a row.
    for (k, n) in (n0..=xs.len()).enumerate() {
        let due = live.updates_since_full() + 1 >= schedule.full_every;
        let mode = live.update(&xs[..n], &task_of[..n], &y[..n], n_tasks, &opts(k as u64));
        modes.push(mode);
        let image = live
            .state()
            .unwrap_or_else(|| panic!("update {k} ({mode:?}) left no image"));
        gptune_trace::global().drain();
        let mut back = IncrementalLcm::new(schedule);
        back.restore(&xs[..n], &task_of[..n], n_tasks, &opts(99), &image)
            .unwrap_or_else(|e| panic!("update {k} ({mode:?}): {e}"));
        let spans = my_span_names(&gptune_trace::global().drain());
        assert!(
            !spans.iter().any(|s| s == "gptune.gp.fit"),
            "restore after update {k} ({mode:?}) ran a fit: {spans:?}"
        );
        assert_eq!(
            model_bits(back.model().unwrap(), n_tasks, &probes),
            model_bits(live.model().unwrap(), n_tasks, &probes),
            "restore after update {k} ({mode:?}) differs from the live surrogate"
        );
        if due {
            assert_eq!(mode, RefitMode::Full, "update {k} was due a full refit");
            scheduled_full = true;
            break;
        }
    }
    gptune_trace::install(prev);
    assert_eq!(modes[..2], [RefitMode::Full, RefitMode::Incremental]);
    assert!(scheduled_full, "no scheduled full refit in {modes:?}");
}
