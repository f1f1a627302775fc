//! Property tests for the dense linear algebra kernels: each property runs
//! over 40 seeded random cases.

use gptune_la::{blas, qr, triangular, Cholesky, Lu, Matrix};
use gptune_rng::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 40;

/// Runs `check` on [`CASES`] cases, case `k` drawing from seed `k`, and
/// names the case that fails.
fn cases(check: impl Fn(&mut StdRng)) {
    for k in 0..CASES {
        let ok = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(k)))).is_ok();
        assert!(ok, "property failed on case {k}");
    }
}

fn vec_in(rng: &mut StdRng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// An n×n matrix with entries in [-1, 1).
fn square(rng: &mut StdRng, n: usize) -> Matrix {
    Matrix::from_vec(n, n, vec_in(rng, -1.0, 1.0, n * n))
}

/// An SPD matrix A = B Bᵀ + n·I.
fn spd(rng: &mut StdRng, n: usize) -> Matrix {
    let b = square(rng, n);
    let mut a = blas::matmul(&b, &b.transpose());
    a.add_diagonal(n as f64);
    a
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn cholesky_reconstructs_spd() {
    cases(|rng| {
        let a = spd(rng, 8);
        let c = Cholesky::factor(&a).unwrap();
        let rec = blas::matmul(c.l(), &c.l().transpose());
        assert!(max_abs_diff(&rec, &a) < 1e-8);
    });
}

#[test]
fn cholesky_solve_is_inverse() {
    cases(|rng| {
        let a = spd(rng, 7);
        let x = vec_in(rng, -2.0, 2.0, 7);
        let c = Cholesky::factor(&a).unwrap();
        let mut b = vec![0.0; 7];
        blas::gemv(1.0, &a, &x, 0.0, &mut b);
        let xs = c.solve(&b);
        for (u, v) in xs.iter().zip(&x) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    });
}

#[test]
fn logdet_consistent_with_scaling() {
    cases(|rng| {
        let a = spd(rng, 6);
        let s = rng.gen_range(0.5..2.0);
        // |sA| = s^n |A|  →  log|sA| = n ln s + log|A|.
        let c1 = Cholesky::factor(&a).unwrap();
        let mut sa = a.clone();
        sa.scale(s);
        let c2 = Cholesky::factor(&sa).unwrap();
        assert!((c2.log_det() - (6.0 * s.ln() + c1.log_det())).abs() < 1e-8);
    });
}

#[test]
fn lu_solves_well_conditioned_systems() {
    cases(|rng| {
        // Make it diagonally dominant so it is nonsingular.
        let mut a = square(rng, 6);
        let x = vec_in(rng, -2.0, 2.0, 6);
        a.add_diagonal(8.0);
        let lu = Lu::factor(&a).unwrap();
        let mut rhs = vec![0.0; 6];
        blas::gemv(1.0, &a, &x, 0.0, &mut rhs);
        let xs = lu.solve(&rhs);
        for (u, v) in xs.iter().zip(&x) {
            assert!((u - v).abs() < 1e-8);
        }
    });
}

#[test]
fn qr_q_orthonormal_and_reconstructs() {
    cases(|rng| {
        let mut a = Matrix::from_vec(9, 4, vec_in(rng, -1.0, 1.0, 9 * 4));
        for i in 0..4 {
            a.add_at(i, i, 3.0); // ensure full rank
        }
        let f = qr::Qr::factor(&a);
        let q = f.q();
        let qtq = blas::matmul(&q.transpose(), &q);
        assert!(max_abs_diff(&qtq, &Matrix::identity(4)) < 1e-9);
        let rec = blas::matmul(&q, &f.r());
        assert!(max_abs_diff(&rec, &a) < 1e-9);
    });
}

#[test]
fn lstsq_residual_orthogonal_to_columns() {
    cases(|rng| {
        let mut a = Matrix::from_vec(10, 3, vec_in(rng, -1.0, 1.0, 10 * 3));
        let b = vec_in(rng, -3.0, 3.0, 10);
        for i in 0..3 {
            a.add_at(i, i, 3.0);
        }
        let x = qr::lstsq(&a, &b).unwrap();
        let mut r = b.clone();
        for (i, ri) in r.iter_mut().enumerate() {
            let ax: f64 = (0..3).map(|j| a.get(i, j) * x[j]).sum();
            *ri -= ax;
        }
        for j in 0..3 {
            let d: f64 = (0..10).map(|i| a.get(i, j) * r[i]).sum();
            assert!(d.abs() < 1e-7, "column {j}: {d}");
        }
    });
}

#[test]
fn lstsq_nonneg_never_negative() {
    cases(|rng| {
        let mut a = Matrix::from_vec(8, 3, vec_in(rng, -1.0, 1.0, 8 * 3));
        let b = vec_in(rng, -3.0, 3.0, 8);
        for i in 0..3 {
            a.add_at(i, i, 2.0);
        }
        if let Ok(x) = qr::lstsq_nonneg(&a, &b) {
            assert!(x.iter().all(|&c| c >= 0.0));
        }
    });
}

#[test]
fn triangular_inverse_roundtrip() {
    cases(|rng| {
        let mut l = Matrix::from_vec(6, 6, vec_in(rng, 0.5, 2.0, 6 * 6));
        // Lower triangular with safe diagonal.
        for i in 0..6 {
            for j in (i + 1)..6 {
                l.set(i, j, 0.0);
            }
            l.add_at(i, i, 1.0);
        }
        let inv = triangular::invert_lower(&l);
        let prod = blas::matmul(&l, &inv);
        assert!(max_abs_diff(&prod, &Matrix::identity(6)) < 1e-9);
    });
}

#[test]
fn gemm_associates_with_vectors() {
    cases(|rng| {
        let v = vec_in(rng, -1.0, 1.0, 5 * 5);
        let x = vec_in(rng, -1.0, 1.0, 5);
        // (A B) x == A (B x)
        let a = Matrix::from_vec(5, 5, v.clone());
        let b = Matrix::from_vec(5, 5, v.iter().rev().cloned().collect());
        let ab = blas::matmul(&a, &b);
        let mut lhs = vec![0.0; 5];
        blas::gemv(1.0, &ab, &x, 0.0, &mut lhs);
        let mut bx = vec![0.0; 5];
        blas::gemv(1.0, &b, &x, 0.0, &mut bx);
        let mut rhs = vec![0.0; 5];
        blas::gemv(1.0, &a, &bx, 0.0, &mut rhs);
        for (u, w) in lhs.iter().zip(&rhs) {
            assert!((u - w).abs() < 1e-10);
        }
    });
}
