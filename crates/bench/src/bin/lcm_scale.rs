//! Scaling recorder for the incremental LCM. Writes
//! `BENCH_lcm_scale.json` (path overridable as the first CLI argument)
//! with the per-iteration model cost: extending a fitted model by one
//! point via [`LcmModel::extend`] (rank-1 Cholesky row append, O(n²)) vs
//! rebuilding from scratch at fixed hyperparameters via
//! [`LcmModel::from_hyperparams`] (O(n³)), at n ∈ {512, 1024, 4096}. The
//! incremental path must be ≥ 5× faster at n = 4096, and its cost curve
//! must look quadratic, not cubic.
//!
//! Timing follows the `lcm_perf` discipline: optimized and baseline paths
//! are timed back-to-back in pairs and the reported speedup is the median
//! of per-pair ratios; every timed result feeds a printed sink so the
//! work cannot be elided. Run via `scripts/bench_perf.sh`.

use gptune::gp::{KernelKind, LcmHyperparams, LcmModel};
use gptune::rng::{Rng, SeedableRng, StdRng};
use std::time::Instant;

const DIM: usize = 4;
const TASKS: usize = 2;
const Q: usize = 2;
const SIZES: [usize; 3] = [512, 1024, 4096];

fn data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let task_of: Vec<usize> = (0..n).map(|i| i % TASKS).collect();
    let y: Vec<f64> = xs
        .iter()
        .zip(&task_of)
        .map(|(x, &t)| (x[0] * 5.0).sin() + x[1] + 0.2 * t as f64)
        .collect();
    (xs, task_of, y)
}

fn hp() -> LcmHyperparams {
    LcmHyperparams {
        q: Q,
        n_tasks: TASKS,
        dim: DIM,
        lengthscales: vec![vec![0.4; DIM], vec![0.8; DIM]],
        a: vec![vec![0.6; TASKS], vec![0.3; TASKS]],
        b: vec![vec![0.02; TASKS]; Q],
        d: vec![0.05; TASKS],
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_lcm_scale.json".to_string());
    let mut sink = 0.0;

    // --- extend vs from-scratch rebuild, one appended point per pair ------
    let mut extend_rows = Vec::new();
    for &n in &SIZES {
        // One extra point per repetition so every pair appends a point the
        // model has not seen (an exact duplicate would trip the non-PSD
        // guard and fall back — a different code path than the one timed).
        let reps = if n >= 4096 { 3 } else { 5 };
        let (xs, task_of, y) = data(n + reps, 9);
        let base = LcmModel::from_hyperparams(
            &xs[..n],
            &task_of[..n],
            &y[..n],
            TASKS,
            KernelKind::SquaredExponential,
            hp(),
            None,
        );
        let mut t_inc = Vec::with_capacity(reps);
        let mut t_scr = Vec::with_capacity(reps);
        let mut ratio = Vec::with_capacity(reps);
        for r in 0..reps {
            let m = n + r + 1;
            // Clone outside the timer: the incremental path in the tuner
            // mutates a long-lived model in place and never pays a copy.
            let mut inc = base.clone();
            if r > 0 {
                inc.extend(&xs[n..n + r], &task_of[n..n + r], &y[n..n + r])
                    .expect("warm-up extension");
            }
            let t = Instant::now();
            inc.extend(&xs[m - 1..m], &task_of[m - 1..m], &y[m - 1..m])
                .expect("timed extension");
            let inc_ns = t.elapsed().as_nanos() as f64;
            sink += inc.nll();

            let t = Instant::now();
            let scratch = LcmModel::from_hyperparams(
                &xs[..m],
                &task_of[..m],
                &y[..m],
                TASKS,
                KernelKind::SquaredExponential,
                hp(),
                None,
            );
            let scr_ns = t.elapsed().as_nanos() as f64;
            sink += scratch.nll();

            t_inc.push(inc_ns);
            t_scr.push(scr_ns);
            ratio.push(scr_ns / inc_ns);
        }
        extend_rows.push((n, median(t_inc), median(t_scr), median(ratio)));
    }

    // --- report -----------------------------------------------------------
    let mut json = String::from("{\n  \"config\": {");
    json.push_str(&format!(
        "\"dim\": {DIM}, \"n_tasks\": {TASKS}, \"q\": {Q}}},\n"
    ));
    json.push_str("  \"per_iteration_model_cost\": {\n");
    for (idx, (n, inc, scr, speedup)) in extend_rows.iter().enumerate() {
        let comma = if idx + 1 < extend_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"n{n}\": {{\"incremental_ns\": {inc:.0}, \"from_scratch_ns\": {scr:.0}, \
             \"speedup\": {speedup:.1}}}{comma}\n",
        ));
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_lcm_scale.json");
    print!("{json}");
    eprintln!("sink {sink}");
    eprintln!("wrote {out_path}");

    // Acceptance tripwire, enforced at the largest size.
    let (_, _, _, speedup_4096) = extend_rows[extend_rows.len() - 1];
    assert!(
        speedup_4096 >= 5.0,
        "incremental extension only {speedup_4096:.1}x faster than from-scratch at n=4096"
    );
}
