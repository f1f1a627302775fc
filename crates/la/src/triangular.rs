//! Triangular solves (forward/backward substitution).
//!
//! These are the building blocks of the Cholesky-based covariance solves in
//! the GP/LCM code: `Σ⁻¹ y` is computed as two triangular solves against the
//! Cholesky factor `L`.

use crate::ord::feq;
use crate::Matrix;

/// Solves `L x = b` in place where `L` is lower triangular (only the lower
/// triangle of `l` is referenced).
///
/// # Panics
/// Panics on dimension mismatch or zero diagonal (callers guarantee a
/// successfully factorized `L`).
pub fn solve_lower(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    assert!(l.is_square() && b.len() == n, "solve_lower: dims");
    for i in 0..n {
        let row = l.row(i);
        let mut s = b[i];
        for (j, bj) in b[..i].iter().enumerate() {
            s -= row[j] * bj;
        }
        let d = row[i];
        assert!(!feq(d, 0.0), "solve_lower: zero diagonal at {i}");
        b[i] = s / d;
    }
}

/// Solves `Lᵀ x = b` in place where `L` is lower triangular.
pub fn solve_lower_transpose(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    assert!(l.is_square() && b.len() == n, "solve_lower_transpose: dims");
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= l.get(j, i) * b[j];
        }
        let d = l.get(i, i);
        assert!(!feq(d, 0.0), "solve_lower_transpose: zero diagonal at {i}");
        b[i] = s / d;
    }
}

/// Solves `L X = B` row-sweep-wise, overwriting `B` with the solution.
/// This is the `trsm` of the batched GP prediction.
///
/// Row `i` of `B` is staged in an accumulator buffer so the already-solved
/// rows can be read through plain shared borrows and combined four at a
/// time; every element still sees the same ascending-`j` subtraction
/// sequence as [`solve_lower`], so each column matches the corresponding
/// vector solve.
pub fn solve_lower_matrix(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    assert!(l.is_square() && b.rows() == n, "solve_lower_matrix: dims");
    let mut acc = vec![0.0; b.cols()];
    for i in 0..n {
        let li = l.row(i);
        let diag = li[i];
        assert!(!feq(diag, 0.0), "solve_lower_matrix: zero diagonal at {i}");
        acc.copy_from_slice(b.row(i));
        let mut j = 0;
        while j + 4 <= i {
            let (l0, l1, l2, l3) = (li[j], li[j + 1], li[j + 2], li[j + 3]);
            let (r0, r1, r2, r3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            for ((((x, &y0), &y1), &y2), &y3) in acc.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *x = (((*x - l0 * y0) - l1 * y1) - l2 * y2) - l3 * y3;
            }
            j += 4;
        }
        while j < i {
            let lij = li[j];
            if !feq(lij, 0.0) {
                for (x, &y) in acc.iter_mut().zip(b.row(j)) {
                    *x -= lij * y;
                }
            }
            j += 1;
        }
        for (dst, &x) in b.row_mut(i).iter_mut().zip(&acc) {
            *dst = x / diag;
        }
    }
}

/// Inverts a lower-triangular matrix, returning a fresh matrix (a
/// clone-then-[`invert_lower_in_place`] wrapper; only the lower triangle
/// of `l` is referenced).
pub fn invert_lower(l: &Matrix) -> Matrix {
    let mut x = l.clone();
    invert_lower_in_place(&mut x);
    x
}

/// Overwrites the lower-triangular `m` with its inverse; only the lower
/// triangle is read, and the strict upper triangle is zeroed.
///
/// Row-sweep forward elimination on `L X = I`: row `i` of `X` is
/// `(e_i − Σ_{j<i} L_ij · row_j) / L_ii`, with the already-finalized rows
/// combined four at a time into an accumulator. Rows are finished in
/// ascending order, so the rows `j < i` a row reads already hold `X`
/// while row `i` still holds `L` until it is written back. Row `j` of `X`
/// is structurally zero past its diagonal, so each inner update stops at
/// column `j` (plus a short scalar fringe for the block's trailing
/// diagonals) — `n³/6` multiply-adds in stride-1 pipelined loops instead
/// of a dot product per entry, whose call overhead dominates for the short
/// slices near the diagonal.
pub fn invert_lower_in_place(m: &mut Matrix) {
    let n = m.rows();
    assert!(m.is_square());
    let mut acc = vec![0.0; n];
    for i in 0..n {
        let li = m.row(i);
        let d = li[i];
        assert!(!feq(d, 0.0), "invert_lower: zero diagonal at {i}");
        acc[..i].fill(0.0);
        let mut j = 0;
        while j + 4 <= i {
            let (l0, l1, l2, l3) = (li[j], li[j + 1], li[j + 2], li[j + 3]);
            let (r0, r1, r2, r3) = (m.row(j), m.row(j + 1), m.row(j + 2), m.row(j + 3));
            for ((((a, &y0), &y1), &y2), &y3) in
                acc[..=j].iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
            {
                *a -= (l0 * y0 + l1 * y1) + (l2 * y2 + l3 * y3);
            }
            // Columns j+1..j+3 only involve the rows whose diagonal they
            // have reached.
            acc[j + 1] -= l1 * r1[j + 1] + l2 * r2[j + 1] + l3 * r3[j + 1];
            acc[j + 2] -= l2 * r2[j + 2] + l3 * r3[j + 2];
            acc[j + 3] -= l3 * r3[j + 3];
            j += 4;
        }
        while j < i {
            let lij = li[j];
            if !feq(lij, 0.0) {
                for (a, &y) in acc[..=j].iter_mut().zip(m.row(j)) {
                    *a -= lij * y;
                }
            }
            j += 1;
        }
        let xi = m.row_mut(i);
        for (dst, &a) in xi[..i].iter_mut().zip(&acc) {
            *dst = a / d;
        }
        xi[i] = 1.0 / d;
        xi[i + 1..].fill(0.0);
    }
}

/// Pre-vectorization [`invert_lower`]: identical structure, but reduced
/// with the strict sequential [`crate::blas::dot_reference`] fold. Retained
/// as the baseline for the reference (pre-refactor) modeling paths and the
/// perf benchmarks.
pub fn invert_lower_reference(l: &Matrix) -> Matrix {
    let n = l.rows();
    assert!(l.is_square());
    let mut inv = Matrix::zeros(n, n);
    let mut col = vec![0.0; n];
    for j in 0..n {
        let djj = l.get(j, j);
        assert!(!feq(djj, 0.0), "invert_lower: zero diagonal at {j}");
        col[j] = 1.0 / djj;
        for i in (j + 1)..n {
            let row = l.row(i);
            let s = -crate::blas::dot_reference(&row[j..i], &col[j..i]);
            let d = row[i];
            assert!(!feq(d, 0.0), "invert_lower: zero diagonal at {i}");
            col[i] = s / d;
        }
        for i in j..n {
            inv.set(i, j, col[i]);
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;

    fn lower3() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[-1.0, 2.0, 4.0]])
    }

    #[test]
    fn solve_lower_known() {
        let l = lower3();
        // b = L * [1, 2, 3]^T
        let mut b = vec![2.0, 7.0, 15.0];
        solve_lower(&l, &mut b);
        assert!((b[0] - 1.0).abs() < 1e-14);
        assert!((b[1] - 2.0).abs() < 1e-14);
        assert!((b[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn solve_lower_transpose_known() {
        let l = lower3();
        let lt = l.transpose();
        // b = L^T * x for x = [1, -1, 2]
        let x = [1.0, -1.0, 2.0];
        let mut b = vec![0.0; 3];
        for i in 0..3 {
            b[i] = (0..3).map(|j| lt.get(i, j) * x[j]).sum();
        }
        solve_lower_transpose(&l, &mut b);
        for i in 0..3 {
            assert!((b[i] - x[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn solve_lower_matrix_matches_vector_solves() {
        let l = lower3();
        let x_true = Matrix::from_rows(&[&[1.0, 4.0], &[2.0, 5.0], &[3.0, 6.0]]);
        let mut b = matmul(&l, &x_true);
        solve_lower_matrix(&l, &mut b);
        for i in 0..3 {
            for j in 0..2 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invert_lower_gives_identity() {
        let l = lower3();
        let inv = invert_lower(&l);
        let prod = matmul(&l, &inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expect).abs() < 1e-13);
            }
        }
        // Inverse of lower triangular is lower triangular.
        assert_eq!(inv.get(0, 1), 0.0);
        assert_eq!(inv.get(0, 2), 0.0);
        assert_eq!(inv.get(1, 2), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_diagonal_panics() {
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]);
        let mut b = vec![1.0, 1.0];
        solve_lower(&l, &mut b);
    }
}
