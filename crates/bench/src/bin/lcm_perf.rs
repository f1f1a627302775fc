//! Perf recorder for the modeling and search building blocks, written to
//! `BENCH_lcm.json` (path overridable as the first CLI argument):
//!
//! * likelihood+gradient: distance-cached [`LcmModel::nll_at`] vs the
//!   retained pre-refactor [`LcmModel::nll_at_reference`] at n ∈ {64, 256}
//!   (dim 4, 2 tasks, Q = 2), plus a full multi-start fit at n = 256 —
//!   the fit must show ≥ 2× cached over `reference_impl`;
//! * candidate scoring: [`LcmModel::predict_batch`] vs per-point
//!   [`LcmModel::predict`] (and the retained `predict_reference`) over
//!   m = 512 candidates — the batch must score ≥ 4× faster per candidate;
//! * substrate kernels behind Fig. 3's phase times: [`Cholesky::factor`]
//!   at n ∈ {128, 512, 1024}; a 5-task, 1-D LCM likelihood and
//!   single-start fit at n ∈ {100, 200}; one EI evaluation; and a 2-D PSO
//!   search (30 particles × 30 iterations);
//! * the modeling phase's fan-out at small n: a 4-restart fit (2 tasks,
//!   dim 3, Q = 2) at width 1 against the machine's width, n ∈ {4, 8, 16,
//!   32, 48}, 5 ms idle before each fit so every region pays a thread start
//!   on a cold core, as an MLA modeling phase does after its blocking
//!   evaluation batch.
//!
//! Each repetition of a two-path row times both paths back-to-back and the
//! recorded speedup is the median of the per-pair ratios, so a system-wide
//! slowdown mid-run cannot skew the comparison (the fan-out row also
//! records the 10th percentile and alternates which width goes first);
//! one-path rows record the median repetition. Every timed result is
//! folded into a printed sink so the optimizer cannot elide the work. Run
//! via `scripts/bench_perf.sh`.

use gptune::gp::gp::expected_improvement;
use gptune::gp::{LcmFitOptions, LcmHyperparams, LcmModel, Prediction};
use gptune::la::{blas, par, Cholesky, Matrix};
use gptune::opt::lbfgs::LbfgsOptions;
use gptune::opt::pso::{self, PsoOptions};
use gptune::rng::{Rng, SeedableRng, StdRng};
use std::time::{Duration, Instant};

const DIM: usize = 4;
const TASKS: usize = 2;
const Q: usize = 2;
const M_CANDS: usize = 512;

fn data(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let task_of: Vec<usize> = (0..n).map(|i| i % TASKS).collect();
    let y: Vec<f64> = xs
        .iter()
        .zip(&task_of)
        .map(|(x, &t)| (x[0] * 5.0).sin() + x[1] + 0.2 * t as f64)
        .collect();
    (xs, task_of, y)
}

fn theta() -> Vec<f64> {
    LcmHyperparams {
        q: Q,
        n_tasks: TASKS,
        dim: DIM,
        lengthscales: vec![vec![0.4; DIM], vec![0.8; DIM]],
        a: vec![vec![0.6; TASKS], vec![0.3; TASKS]],
        b: vec![vec![0.02; TASKS]; Q],
        d: vec![0.05; TASKS],
    }
    .pack()
}

/// Seeded SPD matrix `B Bᵀ + n·I` with a fixed pattern for `B`.
fn spd(n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| {
        (((i * 31 + j * 17 + 7) % 23) as f64 - 11.0) / 11.0
    });
    let mut a = blas::matmul(&b, &b.transpose());
    a.add_diagonal(n as f64);
    a
}

/// One input dimension, `tasks` tasks of `n_per_task` points each.
fn five_task_data(n_per_task: usize, tasks: usize) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut xs = Vec::new();
    let mut task_of = Vec::new();
    let mut y = Vec::new();
    for t in 0..tasks {
        for _ in 0..n_per_task {
            let x: f64 = rng.gen();
            xs.push(vec![x]);
            task_of.push(t);
            y.push((6.0 * x).sin() + 0.3 * t as f64 + 0.01 * rng.gen::<f64>());
        }
    }
    (xs, task_of, y)
}

/// The `q`-quantile of `samples` (nearest rank).
fn quantile(mut samples: Vec<f64>, q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

fn median(samples: Vec<f64>) -> f64 {
    quantile(samples, 0.5)
}

fn time_ns<F: FnMut() -> f64>(sink: &mut f64, f: &mut F) -> f64 {
    let t = Instant::now();
    *sink += f();
    t.elapsed().as_nanos() as f64
}

/// Paired before/after timing: each repetition times the cached path and
/// the reference path back-to-back, and the reported speedup is the
/// *median of per-pair ratios* — a system-wide slowdown mid-run hits both
/// sides of a pair equally instead of skewing whichever side happened to
/// be measured during it. Returns `(cached_ns, reference_ns, speedup)`
/// medians; results are accumulated into `sink` so the work cannot be
/// elided.
fn paired_ns<F, G>(reps: usize, sink: &mut f64, mut cached: F, mut reference: G) -> (f64, f64, f64)
where
    F: FnMut() -> f64,
    G: FnMut() -> f64,
{
    let mut tc = Vec::with_capacity(reps);
    let mut tr = Vec::with_capacity(reps);
    let mut ratio = Vec::with_capacity(reps);
    for _ in 0..reps {
        let c = time_ns(sink, &mut cached);
        let r = time_ns(sink, &mut reference);
        tc.push(c);
        tr.push(r);
        ratio.push(r / c);
    }
    (median(tc), median(tr), median(ratio))
}

/// Median over `reps` timings of one path.
fn single_ns<F: FnMut() -> f64>(reps: usize, sink: &mut f64, mut f: F) -> f64 {
    median((0..reps).map(|_| time_ns(sink, &mut f)).collect())
}

fn main() {
    // Every fit and batched prediction below runs at the machine's width,
    // so restarts and prediction chunks are timed in parallel on all cores.
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    par::with_width(width, || run(width));
}

fn run(width: usize) {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_lcm.json".to_string());
    let mut sink = 0.0;

    // --- nll_and_grad, cached vs retained reference -----------------------
    let th = theta();
    let mut grad = vec![0.0; th.len()];
    let mut grad_ref = vec![0.0; th.len()];
    let mut nll_rows = Vec::new();
    for &n in &[64usize, 256] {
        let (xs, task_of, y) = data(n, DIM, 9);
        // Warm both paths once before timing.
        sink += LcmModel::nll_at(&xs, &task_of, &y, TASKS, Q, &th, &mut grad);
        sink += LcmModel::nll_at_reference(&xs, &task_of, &y, TASKS, Q, &th, &mut grad);
        let (cached, reference, speedup) = paired_ns(
            9,
            &mut sink,
            || LcmModel::nll_at(&xs, &task_of, &y, TASKS, Q, &th, &mut grad),
            || LcmModel::nll_at_reference(&xs, &task_of, &y, TASKS, Q, &th, &mut grad_ref),
        );
        nll_rows.push((n, cached, reference, speedup));
    }

    // --- full fit at n = 256, cached vs `reference_impl` ------------------
    let (xs, task_of, y) = data(256, DIM, 9);
    let opts = LcmFitOptions {
        n_starts: 2,
        lbfgs: LbfgsOptions {
            max_iters: 20,
            ..Default::default()
        },
        ..Default::default()
    };
    let ref_opts = LcmFitOptions {
        reference_impl: true,
        ..opts.clone()
    };
    let (fit_cached, fit_reference, fit_speedup) = paired_ns(
        5,
        &mut sink,
        || LcmModel::fit(&xs, &task_of, &y, TASKS, &opts).nll(),
        || LcmModel::fit(&xs, &task_of, &y, TASKS, &ref_opts).nll(),
    );

    // --- candidate scoring: batch vs per-point ----------------------------
    let model = LcmModel::fit(&xs, &task_of, &y, TASKS, &opts);
    let mut rng = StdRng::seed_from_u64(17);
    let cands: Vec<Vec<f64>> = (0..M_CANDS)
        .map(|_| (0..DIM).map(|_| rng.gen::<f64>()).collect())
        .collect();
    sink += model.predict_batch(0, &cands)[0].mean;
    let m = M_CANDS as f64;
    let (batch, pt, pt_speedup) = paired_ns(
        7,
        &mut sink,
        || {
            model
                .predict_batch(0, &cands)
                .iter()
                .map(|p| p.mean + p.variance)
                .sum()
        },
        || cands.iter().map(|c| model.predict(0, c).mean).sum(),
    );
    let (_, pt_ref, ref_speedup) = paired_ns(
        7,
        &mut sink,
        || {
            model
                .predict_batch(0, &cands)
                .iter()
                .map(|p| p.mean + p.variance)
                .sum()
        },
        || {
            cands
                .iter()
                .map(|c| model.predict_reference(0, c).mean)
                .sum()
        },
    );
    let (batch, pt, pt_ref) = (batch / m, pt / m, pt_ref / m);

    // --- Cholesky factor ---------------------------------------------------
    let chol_rows: Vec<(usize, f64)> = [128usize, 512, 1024]
        .iter()
        .map(|&n| {
            let a = spd(n);
            let ns = single_ns(7, &mut sink, || {
                Cholesky::factor(&a).map_or(f64::NAN, |c| c.log_det())
            });
            (n, ns)
        })
        .collect();

    // --- 5-task LCM: one likelihood+gradient, one single-start fit --------
    let hp5 = LcmHyperparams {
        q: 2,
        n_tasks: 5,
        dim: 1,
        lengthscales: vec![vec![0.3], vec![0.6]],
        a: vec![vec![0.5; 5], vec![0.2; 5]],
        b: vec![vec![0.01; 5]; 2],
        d: vec![0.01; 5],
    }
    .pack();
    let mut grad5 = vec![0.0; hp5.len()];
    let fit5_opts = LcmFitOptions {
        n_starts: 1,
        ..Default::default()
    };
    let mut lcm5_rows = Vec::new();
    for &n_per in &[20usize, 40] {
        let (xs, task_of, y) = five_task_data(n_per, 5);
        let nll = single_ns(9, &mut sink, || {
            LcmModel::nll_at(&xs, &task_of, &y, 5, 2, &hp5, &mut grad5)
        });
        let fit = single_ns(5, &mut sink, || {
            LcmModel::fit(&xs, &task_of, &y, 5, &fit5_opts).nll()
        });
        lcm5_rows.push((n_per * 5, nll, fit));
    }

    // --- acquisition: one EI evaluation, one 2-D PSO search ---------------
    const EI_CALLS: usize = 10_000;
    let pred = Prediction {
        mean: 0.5,
        variance: 0.2,
    };
    let ei = single_ns(9, &mut sink, || {
        (0..EI_CALLS)
            .map(|i| expected_improvement(&pred, 0.4 + i as f64 * 1e-6))
            .sum()
    }) / EI_CALLS as f64;
    let pso_opts = PsoOptions {
        particles: 30,
        iters: 30,
        ..Default::default()
    };
    let pso_ns = single_ns(9, &mut sink, || {
        let mut rng = StdRng::seed_from_u64(2);
        let mut f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] - 0.6).powi(2);
        pso::minimize(&mut f, 2, &[], &pso_opts, &mut rng).value
    });

    // --- modeling fan-out at small n: width 1 vs `width` -----------------
    // Pairs alternate which width runs first; 5 ms of idle before each fit
    // lets the other cores go cold, so every region pays a thread start.
    const FIT_PAIRS: usize = 31;
    const FAN_DIM: usize = 3;
    let fan_opts = LcmFitOptions {
        q: Q,
        n_starts: 4,
        ..Default::default()
    };
    let mut fan_rows = Vec::new();
    for &n in &[4usize, 8, 16, 32, 48] {
        let (xs, task_of, y) = data(n, FAN_DIM, 5);
        let mut timed = |w: usize| {
            std::thread::sleep(Duration::from_millis(5));
            par::with_width(w, || {
                time_ns(&mut sink, &mut || {
                    LcmModel::fit(&xs, &task_of, &y, TASKS, &fan_opts).nll()
                })
            })
        };
        let (mut seq, mut fan, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..FIT_PAIRS {
            let (s, f) = if pair % 2 == 0 {
                let s = timed(1);
                (s, timed(width))
            } else {
                let f = timed(width);
                (timed(1), f)
            };
            seq.push(s);
            fan.push(f);
            ratio.push(s / f);
        }
        fan_rows.push((
            n,
            median(seq),
            median(fan),
            median(ratio.clone()),
            quantile(ratio, 0.1),
        ));
    }

    // --- report -----------------------------------------------------------
    let mut json = String::from("{\n  \"config\": {");
    json.push_str(&format!(
        "\"dim\": {DIM}, \"n_tasks\": {TASKS}, \"q\": {Q}, \"m_candidates\": {M_CANDS}}},\n"
    ));
    json.push_str("  \"nll_and_grad\": {\n");
    for (idx, (n, cached, reference, speedup)) in nll_rows.iter().enumerate() {
        let comma = if idx + 1 < nll_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"n{n}\": {{\"cached_ns\": {cached:.0}, \"reference_ns\": {reference:.0}, \
             \"speedup\": {speedup:.2}}}{comma}\n",
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"fit_n256_2tasks\": {{\"cached_ms\": {:.1}, \"reference_ms\": {:.1}, \
         \"speedup\": {:.2}}},\n",
        fit_cached / 1e6,
        fit_reference / 1e6,
        fit_speedup
    ));
    json.push_str(&format!(
        "  \"candidate_scoring_m512\": {{\"per_point_ns\": {pt:.0}, \
         \"per_point_reference_ns\": {pt_ref:.0}, \"batch_ns\": {batch:.0}, \
         \"speedup_batch_vs_point\": {pt_speedup:.2}, \
         \"speedup_batch_vs_reference\": {ref_speedup:.2}}},\n",
    ));
    let chol: Vec<String> = chol_rows
        .iter()
        .map(|(n, ns)| format!("    \"n{n}\": {{\"factor_ns\": {ns:.0}}}"))
        .collect();
    json.push_str(&format!(
        "  \"cholesky\": {{\n{}\n  }},\n",
        chol.join(",\n")
    ));
    let lcm5: Vec<String> = lcm5_rows
        .iter()
        .map(|(n, nll, fit)| {
            format!(
                "    \"n{n}\": {{\"nll_grad_ns\": {nll:.0}, \"fit_ms\": {:.1}}}",
                fit / 1e6
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"lcm_5tasks_dim1\": {{\n{}\n  }},\n",
        lcm5.join(",\n")
    ));
    json.push_str(&format!(
        "  \"acquisition\": {{\"expected_improvement_ns\": {ei:.1}, \
         \"pso_search_2d_us\": {:.1}}},\n",
        pso_ns / 1e3
    ));
    let fan: Vec<String> = fan_rows
        .iter()
        .map(|(n, seq, par, p50, p10)| {
            format!(
                "    \"n{n}\": {{\"width1_ms\": {:.2}, \"parallel_ms\": {:.2}, \
                 \"speedup_p50\": {p50:.2}, \"speedup_p10\": {p10:.2}}}",
                seq / 1e6,
                par / 1e6
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"parallel_fit\": {{\"width\": {width}, \"dim\": {FAN_DIM}, \
         \"restarts\": {}, \"pairs\": {FIT_PAIRS}, \"idle_ms\": 5,\n{}\n  }}\n",
        fan_opts.n_starts,
        fan.join(",\n")
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_lcm.json");
    print!("{json}");
    eprintln!("sink {sink}");
    eprintln!("wrote {out_path}");
    // The bars the module doc states, on the paired-median ratios.
    assert!(
        fit_speedup >= 2.0,
        "n = 256 fit only {fit_speedup:.2}x cached over reference_impl (bar: 2x) — hot path regressed"
    );
    assert!(
        pt_speedup >= 4.0,
        "batch scoring only {pt_speedup:.2}x over per-point (bar: 4x) — batched posterior regressed"
    );
}
