//! BLAS-like level-1/2/3 kernels, all sequential: the modeling phase runs
//! its parallelism across L-BFGS restarts, one level above these kernels.

use crate::ord::feq;
use crate::Matrix;

/// Cache-friendly block edge for the blocked kernels.
const BLOCK: usize = 64;

/// Number of independent accumulator lanes in [`dot`]. Eight keeps enough
/// parallel chains in flight to cover the floating-add latency and lets the
/// compiler vectorize the reduction.
const DOT_LANES: usize = 8;

/// Dot product `xᵀ y`.
///
/// Reduced over eight (`DOT_LANES`) independent accumulators instead of one
/// sequential fold: a strict left-to-right sum is a single dependency chain
/// (one multiply-add per add-latency), while independent lanes vectorize
/// and pipeline. The reassociation perturbs the result by a few ulps
/// relative to the sequential sum; every caller in the workspace is
/// tolerance-based. Inputs shorter than one lane block take the sequential
/// tail loop and are bitwise identical to the naive fold.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let xc = x.chunks_exact(DOT_LANES);
    let yc = y.chunks_exact(DOT_LANES);
    let (xt, yt) = (xc.remainder(), yc.remainder());
    let mut acc = [0.0_f64; DOT_LANES];
    for (a, b) in xc.zip(yc) {
        for ((s, &av), &bv) in acc.iter_mut().zip(a).zip(b) {
            *s += av * bv;
        }
    }
    let mut s = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (&av, &bv) in xt.iter().zip(yt) {
        s += av * bv;
    }
    s
}

/// Pre-vectorization [`dot`]: the strict sequential fold the workspace used
/// before the multi-lane reduction. Retained as the baseline for the
/// reference (pre-refactor) modeling paths and the perf benchmarks.
#[inline]
pub fn dot_reference(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm `‖x‖₂`, with scaling to avoid overflow.
pub fn nrm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if feq(amax, 0.0) || !amax.is_finite() {
        return amax;
    }
    let s: f64 = x.iter().map(|v| (v / amax) * (v / amax)).sum();
    amax * s.sqrt()
}

/// General matrix-vector product `y ← alpha * A x + beta * y`.
pub fn gemv(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "gemv: A.cols != x.len");
    assert_eq!(a.rows(), y.len(), "gemv: A.rows != y.len");
    for i in 0..a.rows() {
        let row = a.row(i);
        y[i] = beta * y[i] + alpha * dot(row, x);
    }
}

/// Transposed matrix-vector product `y ← alpha * Aᵀ x + beta * y`.
pub fn gemv_t(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.rows(), x.len(), "gemv_t: A.rows != x.len");
    assert_eq!(a.cols(), y.len(), "gemv_t: A.cols != y.len");
    for v in y.iter_mut() {
        *v *= beta;
    }
    for i in 0..a.rows() {
        let row = a.row(i);
        let xi = alpha * x[i];
        axpy(xi, row, y);
    }
}

/// Sequential blocked general matrix multiply `C ← alpha * A B + beta * C`.
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dims");
    assert_eq!(c.rows(), a.rows(), "gemm: C rows");
    assert_eq!(c.cols(), b.cols(), "gemm: C cols");
    if !feq(beta, 1.0) {
        c.scale(beta);
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // i-k-j loop order keeps B and C accesses stride-1.
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let arow = &a.row(i)[k0..k1];
                let crow = c.row_mut(i);
                for (kk, &aik) in arow.iter().enumerate() {
                    let aik = alpha * aik;
                    if feq(aik, 0.0) {
                        continue;
                    }
                    let brow = b.row(k0 + kk);
                    for j in 0..n {
                        crow[j] += aik * brow[j];
                    }
                }
            }
        }
    }
}

/// Convenience product returning a fresh matrix `A B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn arange(r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * c + j) % 13) as f64 - 6.0)
    }

    #[test]
    fn dot_matches_reference_fold() {
        let x: Vec<f64> = (0..137)
            .map(|i| ((i * 29 + 3) % 19) as f64 / 7.0 - 1.2)
            .collect();
        let y: Vec<f64> = (0..137)
            .map(|i| ((i * 13 + 5) % 23) as f64 / 9.0 - 1.1)
            .collect();
        let a = dot(&x, &y);
        let b = dot_reference(&x, &y);
        assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
        // Inputs shorter than one lane block reduce sequentially and match
        // the reference fold bitwise.
        assert_eq!(dot(&x[..5], &y[..5]), dot_reference(&x[..5], &y[..5]));
    }

    #[test]
    fn dot_axpy_nrm2() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nrm2_avoids_overflow() {
        let big = 1e200;
        let n = nrm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * 2.0_f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut y = vec![1.0; 3];
        gemv(2.0, &a, &[1.0, 1.0], 1.0, &mut y);
        assert_eq!(y, vec![7.0, 15.0, 23.0]);
        let mut z = vec![0.0; 2];
        gemv_t(1.0, &a, &[1.0, 1.0, 1.0], 0.0, &mut z);
        assert_eq!(z, vec![9.0, 12.0]);
    }

    #[test]
    fn gemm_matches_naive_nonsquare() {
        let a = arange(7, 130);
        let b = arange(130, 5);
        let c = matmul(&a, &b);
        let r = naive_matmul(&a, &b);
        let maxdiff = c
            .as_slice()
            .iter()
            .zip(r.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(maxdiff < 1e-10);
    }

    #[test]
    fn gemm_beta_accumulates() {
        let a = Matrix::identity(3);
        let b = Matrix::filled(3, 3, 2.0);
        let mut c = Matrix::filled(3, 3, 1.0);
        gemm(1.0, &a, &b, 3.0, &mut c);
        assert_eq!(c.get(0, 0), 5.0);
    }

    #[test]
    #[should_panic]
    fn gemm_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        gemm(1.0, &a, &b, 0.0, &mut c);
    }
}
