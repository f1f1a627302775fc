//! Equivalence harness for the distance-cached LCM hot path.
//!
//! The PR that introduced the packed distance cache, the `W ∘ K_q`
//! gradient restructuring, and the batched multi-RHS prediction kept the
//! pre-refactor implementations as explicit baselines
//! (`nll_at_reference*`, `predict_reference`, `reference_impl`). These
//! tests pin the optimized paths to those baselines:
//!
//! * cached NLL + analytic gradient ≤ 1e-12 (relative) of the naive
//!   reference, for both kernel families, on multitask data — the only
//!   permitted difference is the reassociation of `r²` from a per-pair
//!   running sum into a weighted dot against cached `(x_d − y_d)²`;
//! * `predict_batch` reproduces per-point `predict` to ≤ 1e-12 (the
//!   variance reduction is accumulated as `‖L⁻¹k*‖²` instead of
//!   `k*ᵀΣ⁻¹k*` — same quadratic form, different summation order);
//! * the analytic gradient *through the cached path* matches central
//!   finite differences, so the cache cannot silently ship a wrong but
//!   self-consistent gradient;
//! * the in-place factor → inverse → `W` chain, its allocating wrappers
//!   and the SE/Matérn likelihood are pinned bit for bit to golden hashes
//!   (`likelihood_kernels_are_bit_pinned`).

use gptune_gp::{KernelKind, LcmFitOptions, LcmHyperparams, LcmModel};
use gptune_rng::{Rng, SeedableRng, StdRng};

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

/// Well-conditioned packed hyperparameters: random lengthscales and task
/// coefficients, but noise floors high enough that the covariance is far
/// from singular (so reference and cached Cholesky agree to roundoff).
fn well_conditioned_theta(q: usize, n_tasks: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hp = LcmHyperparams::random_init(q, n_tasks, dim, &mut rng);
    for b in hp.b.iter_mut().flatten() {
        *b = 0.02 + 0.03 * rng.gen::<f64>();
    }
    for d in &mut hp.d {
        *d = 0.05 + 0.05 * rng.gen::<f64>();
    }
    hp.pack()
}

fn assert_nll_grad_equivalent(kernel: KernelKind, n: usize, n_tasks: usize, q: usize, seed: u64) {
    let dim = 3;
    let (xs, task_of, y) = synth(n, dim, n_tasks, seed);
    let theta = well_conditioned_theta(q, n_tasks, dim, seed ^ 0xbeef);

    let mut g_cached = vec![0.0; theta.len()];
    let mut g_ref = vec![0.0; theta.len()];
    let nll_cached =
        LcmModel::nll_at_with_kernel(&xs, &task_of, &y, n_tasks, q, kernel, &theta, &mut g_cached);
    let nll_ref = LcmModel::nll_at_reference_with_kernel(
        &xs, &task_of, &y, n_tasks, q, kernel, &theta, &mut g_ref,
    );

    assert!(
        rel(nll_cached, nll_ref) <= 1e-12,
        "{kernel:?} n={n}: nll cached {nll_cached} vs reference {nll_ref}"
    );
    for (i, (c, r)) in g_cached.iter().zip(&g_ref).enumerate() {
        assert!(
            rel(*c, *r) <= 1e-12,
            "{kernel:?} n={n} grad[{i}]: cached {c} vs reference {r}"
        );
    }
}

#[test]
fn cached_nll_and_grad_match_reference_se() {
    for (n, n_tasks, q, seed) in [(24, 2, 2, 11), (40, 3, 2, 12), (31, 2, 1, 13)] {
        assert_nll_grad_equivalent(KernelKind::SquaredExponential, n, n_tasks, q, seed);
    }
}

#[test]
fn cached_nll_and_grad_match_reference_matern() {
    for (n, n_tasks, q, seed) in [(24, 2, 2, 21), (40, 3, 2, 22), (31, 2, 1, 23)] {
        assert_nll_grad_equivalent(KernelKind::Matern52, n, n_tasks, q, seed);
    }
}

#[test]
fn cached_gradient_matches_finite_differences() {
    // FD directly through the *cached* path, so a wrong-but-self-consistent
    // cached gradient cannot hide behind the reference comparison.
    let (n, dim, n_tasks, q) = (18, 3, 2, 2);
    let (xs, task_of, y) = synth(n, dim, n_tasks, 31);
    for kernel in [KernelKind::SquaredExponential, KernelKind::Matern52] {
        let theta = well_conditioned_theta(q, n_tasks, dim, 32);
        let mut grad = vec![0.0; theta.len()];
        let _ =
            LcmModel::nll_at_with_kernel(&xs, &task_of, &y, n_tasks, q, kernel, &theta, &mut grad);
        let h = 1e-5;
        let mut scratch = vec![0.0; theta.len()];
        for (i, g) in grad.iter().enumerate() {
            let mut tp = theta.clone();
            tp[i] += h;
            let fp = LcmModel::nll_at_with_kernel(
                &xs,
                &task_of,
                &y,
                n_tasks,
                q,
                kernel,
                &tp,
                &mut scratch,
            );
            let mut tm = theta.clone();
            tm[i] -= h;
            let fm = LcmModel::nll_at_with_kernel(
                &xs,
                &task_of,
                &y,
                n_tasks,
                q,
                kernel,
                &tm,
                &mut scratch,
            );
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (g - fd).abs() <= 1e-4 * (1.0 + g.abs()),
                "{kernel:?} theta[{i}]: analytic {g} vs fd {fd}"
            );
        }
    }
}

#[test]
fn predict_batch_matches_per_point_predict() {
    let (xs, task_of, y) = synth(36, 3, 2, 41);
    let opts = LcmFitOptions {
        n_starts: 2,
        ..Default::default()
    };
    let model = LcmModel::fit(&xs, &task_of, &y, 2, &opts);

    let mut rng = StdRng::seed_from_u64(42);
    // Chunk boundaries: 1 point, a partial chunk, exactly one chunk (64),
    // and two chunks plus a remainder.
    for m in [1usize, 5, 64, 130] {
        let cands: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..3).map(|_| rng.gen::<f64>()).collect())
            .collect();
        for task in 0..2 {
            let batch = model.predict_batch(task, &cands);
            assert_eq!(batch.len(), m);
            for (c, bp) in cands.iter().zip(&batch) {
                let pp = model.predict(task, c);
                assert!(
                    rel(bp.mean, pp.mean) <= 1e-12,
                    "task {task} m={m}: batch mean {} vs point {}",
                    bp.mean,
                    pp.mean
                );
                assert!(
                    rel(bp.variance, pp.variance) <= 1e-12,
                    "task {task} m={m}: batch var {} vs point {}",
                    bp.variance,
                    pp.variance
                );
            }
        }
    }
    assert!(model.predict_batch(0, &[]).is_empty());
}

#[test]
fn optimized_predict_matches_reference_predict() {
    let (xs, task_of, y) = synth(30, 2, 2, 51);
    let opts = LcmFitOptions {
        n_starts: 2,
        ..Default::default()
    };
    let model = LcmModel::fit(&xs, &task_of, &y, 2, &opts);
    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..50 {
        let x: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
        for task in 0..2 {
            let p = model.predict(task, &x);
            let r = model.predict_reference(task, &x);
            assert!(rel(p.mean, r.mean) <= 1e-12, "{} vs {}", p.mean, r.mean);
            assert!(
                rel(p.variance, r.variance) <= 1e-12,
                "{} vs {}",
                p.variance,
                r.variance
            );
        }
    }
}

#[test]
fn reference_impl_fit_optimizes_the_same_objective() {
    // `reference_impl: true` and the cached path optimize the same surface.
    // Multi-start L-BFGS may still select different local optima (a 1e-16
    // reassociation difference can flip a line-search branch), so instead
    // of comparing trajectories, evaluate each fit's optimum under the
    // *other* implementation: the NLLs must agree to roundoff there.
    let (xs, task_of, y) = synth(24, 2, 2, 61);
    let opts = LcmFitOptions {
        n_starts: 2,
        seed: 7,
        ..Default::default()
    };
    let cached = LcmModel::fit(&xs, &task_of, &y, 2, &opts);
    let ref_opts = LcmFitOptions {
        reference_impl: true,
        ..opts.clone()
    };
    let reference = LcmModel::fit(&xs, &task_of, &y, 2, &ref_opts);

    // Fitted optima push b/d toward their boundaries — a harsher setting
    // than the random well-conditioned thetas above. Both implementations
    // must still agree to roundoff there (the fit standardizes y
    // internally, so the comparison reruns both evaluators on raw y at
    // the fitted packed hyperparameters rather than trusting the stored
    // nll values).
    for model in [&cached, &reference] {
        let hp = model.hyperparams();
        let theta = hp.pack();
        let mut gc = vec![0.0; theta.len()];
        let mut gr = vec![0.0; theta.len()];
        let at_cached =
            LcmModel::nll_at_with_kernel(&xs, &task_of, &y, 2, hp.q, opts.kernel, &theta, &mut gc);
        let at_ref = LcmModel::nll_at_reference_with_kernel(
            &xs,
            &task_of,
            &y,
            2,
            hp.q,
            opts.kernel,
            &theta,
            &mut gr,
        );
        // Near-singular covariances at the optimum amplify the benign
        // 1e-16 reassociation difference through the inverse, so the
        // boundary tolerance is looser than the 1e-12 of the
        // well-conditioned harness above.
        assert!(
            rel(at_cached, at_ref) <= 1e-9,
            "at fitted optimum: cached {at_cached} vs reference {at_ref}"
        );
        for (i, (c, r)) in gc.iter().zip(&gr).enumerate() {
            assert!(
                rel(*c, *r) <= 1e-9,
                "at fitted optimum grad[{i}]: cached {c} vs reference {r}"
            );
        }
    }
}

/// Sizes for the bit-pinning test: small and odd sizes cover the 4-wide
/// (triangular inverse) and 8-wide (Gram accumulation, lane dot) unroll
/// tails; 160 is a covariance of the size the modeling phase factors.
/// 197 spans four of the factor's 64-column panels.
const PIN_SIZES: [usize; 11] = [1, 3, 4, 5, 7, 8, 9, 16, 33, 160, 197];

/// FNV-1a 64 over the `f64::to_bits` of every value, in order.
fn hash_bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Uniform draws in `[0, 1)` from the bare splitmix64 stream, independent
/// of `StdRng`'s xoshiro state so the pinned inputs never move with it.
fn splitmix_unit(state: &mut u64) -> f64 {
    let z = gptune_rng::splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded SPD matrix `B Bᵀ + n·I`, formed with a plain sequential loop so
/// the input never depends on the kernels under test.
fn pinned_spd(n: usize, seed: u64) -> gptune_la::Matrix {
    let mut s = seed;
    let b: Vec<f64> = (0..n * n)
        .map(|_| 2.0 * splitmix_unit(&mut s) - 1.0)
        .collect();
    gptune_la::Matrix::from_fn(n, n, |i, j| {
        let mut v = if i == j { n as f64 } else { 0.0 };
        for k in 0..n {
            v += b[i * n + k] * b[j * n + k];
        }
        v
    })
}

/// `[factor, invert_lower, inverse_lower, LCM NLL+grad (SE), (Matérn)]`
/// hashes at one size.
fn pinned_hashes(n: usize) -> [u64; 5] {
    let a = pinned_spd(n, 0x5eed ^ n as u64);
    let chol = gptune_la::Cholesky::factor(&a).unwrap();
    let linv = gptune_la::triangular::invert_lower(chol.l());
    let inv = chol.inverse_lower();

    let mut s = 0xda7a ^ n as u64;
    let (dim, n_tasks, q) = (2, 2, 2);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| splitmix_unit(&mut s)).collect())
        .collect();
    let task_of: Vec<usize> = (0..n).map(|i| i % n_tasks).collect();
    let y: Vec<f64> = xs
        .iter()
        .map(|x| (3.0 * x[0]).sin() + x[1] - 0.5 + 0.1 * splitmix_unit(&mut s))
        .collect();
    let mut draw = |lo: f64, hi: f64| lo + (hi - lo) * splitmix_unit(&mut s);
    let hp = LcmHyperparams {
        q,
        n_tasks,
        dim,
        lengthscales: (0..q)
            .map(|_| vec![draw(0.2, 1.0), draw(0.2, 1.0)])
            .collect(),
        a: (0..q)
            .map(|_| vec![draw(-1.0, 1.0), draw(-1.0, 1.0)])
            .collect(),
        b: (0..q)
            .map(|_| vec![draw(0.02, 0.05), draw(0.02, 0.05)])
            .collect(),
        d: vec![draw(0.01, 0.05), draw(0.01, 0.05)],
    };
    let theta = hp.pack();
    let lcm = |kernel: KernelKind| {
        let mut grad = vec![0.0; theta.len()];
        let nll =
            LcmModel::nll_at_with_kernel(&xs, &task_of, &y, n_tasks, q, kernel, &theta, &mut grad);
        hash_bits(std::iter::once(&nll).chain(&grad))
    };
    [
        hash_bits(chol.l().as_slice()),
        hash_bits(linv.as_slice()),
        hash_bits(inv.as_slice()),
        lcm(KernelKind::SquaredExponential),
        lcm(KernelKind::Matern52),
    ]
}

/// Golden hashes of [`pinned_hashes`] per size in [`PIN_SIZES`], generated
/// with the allocating kernels that predate the in-place chain (x86_64
/// Linux; the hashes cover `exp`/`sqrt`/`ln` results, so another libm may
/// need its own run — the failure message prints the row to paste). The
/// n = 197 row's three kernel hashes come from the column-by-column factor
/// that predates the panel order; its likelihood hashes come from the panel
/// factor, since the earlier likelihood factored n ≥ 192 by another kernel.
const PINNED: [[u64; 5]; 11] = [
    [
        0x05a536b1face491c,
        0x39f87033c086140a,
        0xa56375ca70d5fb58,
        0x972c50a207228dd4,
        0x972c50a207228dd4,
    ],
    [
        0x6597e88dc37a2b22,
        0x810536fb3a1d8eb5,
        0xa2af4d1a0d0584d3,
        0x7388dcf4d96bb678,
        0x8132f98e5d5b69ce,
    ],
    [
        0x1a0627aa2ae039f8,
        0xa580d73294ef5202,
        0x34a5c085fd2be26c,
        0x5fb4d69216467f44,
        0x831426574dac0684,
    ],
    [
        0x307204cbbebfb762,
        0xeb56343c9077c0af,
        0x6dca0f2333c3a65a,
        0xd8e1edd696e4a806,
        0x829eedc950da6958,
    ],
    [
        0x764620a657041ca7,
        0xfeefc7ea39d9ac5e,
        0x597f8746bffc8c3e,
        0x34762e392a9206ba,
        0xad5d02026c4bf4c8,
    ],
    [
        0x22df6b464cdb2409,
        0x275b57f9c39840fe,
        0xa431ec8fa5460ebf,
        0x57ecdcf8752477fc,
        0x473f1868812111eb,
    ],
    [
        0xa16d752c263fbcad,
        0x944dc90671194d9c,
        0x490436f8faf74d8e,
        0xfb03997f510c42a7,
        0x74d22738671f3297,
    ],
    [
        0x31869ed1c8f24cc3,
        0x06c80287e5ffe797,
        0x97bdaaa53a8c6c14,
        0x05a937a81f677c9d,
        0x0bcdb07bf15d89d5,
    ],
    [
        0x85b3f2c212c6c673,
        0xfc1e3bfaccab15b6,
        0xd956b721020a52e6,
        0xf15296d8dbcf5979,
        0xe4674173fc669346,
    ],
    [
        0xfc0683262cead093,
        0xd04e06d3943ce06b,
        0x79234d0c9b612cc3,
        0x921d8c41b278bf7c,
        0x5623d4810b2bbd10,
    ],
    [
        0x9a48b32d78d76a78,
        0x78a90710ba1a0846,
        0x4043a6b5435b4cc8,
        0xa2cbb08cb770dbd4,
        0x68df47e1b743aa03,
    ],
];

/// The in-place factor → inverse → `W` chain and the allocating wrappers
/// around it must reproduce these outputs bit for bit — the ≤ 1e-12 tests
/// above would let an unintended reassociation through.
#[test]
fn likelihood_kernels_are_bit_pinned() {
    for (&n, want) in PIN_SIZES.iter().zip(&PINNED) {
        let got = pinned_hashes(n);
        assert_eq!(
            &got, want,
            "n = {n}: [factor, invert_lower, inverse_lower, SE, Matérn] hashes are now {got:#018x?}"
        );
    }
}
