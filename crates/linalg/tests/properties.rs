//! Property-based tests for the linear-algebra substrate.

use losstomo_linalg::{
    lstsq, rank, sparse::CsrBuilder, Cholesky, CsrMatrix, Matrix, PivotedQr, Qr, SparseQr,
};
use proptest::prelude::*;

/// Strategy: a tall random matrix with entries in [-10, 10].
fn tall_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=5, 0usize..=4).prop_flat_map(|(cols, extra)| {
        let rows = cols + extra;
        proptest::collection::vec(-10.0f64..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
    })
}

fn any_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(-10.0f64..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
    })
}

/// Strategy: a random sparse matrix at roughly the routing-matrix
/// density (~2 %: 1–3 nonzeros per row over 50–100 columns), the
/// regime the sparse kernels are dispatched in.
fn sparse_low_density() -> impl Strategy<Value = CsrMatrix> {
    (15usize..=40, 50usize..=100).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec((0usize..cols, -4.0f64..4.0), 1..=3),
            rows,
        )
        .prop_map(move |rws| {
            let mut b = CsrBuilder::new(cols);
            for r in &rws {
                b.push_row(r).unwrap();
            }
            b.build()
        })
    })
}

/// Strategy: a sparse *tall full-column-rank* matrix — one guaranteed
/// diagonal row per column plus random sparse rows on top.
fn sparse_full_rank_tall() -> impl Strategy<Value = CsrMatrix> {
    (3usize..=8, 2usize..=10).prop_flat_map(|(cols, extra)| {
        (
            proptest::collection::vec(0.5f64..3.0, cols),
            proptest::collection::vec(
                proptest::collection::vec((0usize..cols, -4.0f64..4.0), 1..=3),
                extra,
            ),
        )
            .prop_map(move |(diag, rws)| {
                let mut b = CsrBuilder::new(cols);
                for (j, &d) in diag.iter().enumerate() {
                    b.push_row(&[(j, d)]).unwrap();
                }
                for r in &rws {
                    b.push_row(r).unwrap();
                }
                b.build()
            })
    })
}

/// Independent rank oracle: Gaussian elimination with partial pivoting.
/// `losstomo_linalg::rank` delegates to the pivoted QR, so rank checks
/// against the library would be tautological without this.
fn gaussian_rank(a: &Matrix) -> usize {
    let (m, n) = (a.rows(), a.cols());
    let scale = a.max_abs();
    if scale == 0.0 {
        return 0;
    }
    let tol = 1e-10 * scale;
    let mut w: Vec<Vec<f64>> = (0..m).map(|i| a.row(i).to_vec()).collect();
    let mut rank = 0;
    for col in 0..n {
        if rank == m {
            break;
        }
        let pivot = (rank..m)
            .max_by(|&i, &j| w[i][col].abs().partial_cmp(&w[j][col].abs()).unwrap())
            .unwrap();
        if w[pivot][col].abs() <= tol {
            continue;
        }
        w.swap(rank, pivot);
        let pivot_row = w[rank].clone();
        for row in w.iter_mut().skip(rank + 1) {
            let factor = row[col] / pivot_row[col];
            for (rj, pj) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *rj -= factor * pj;
            }
        }
        rank += 1;
    }
    rank
}

proptest! {
    /// QR reproduces A: ‖QR − A‖∞ is tiny relative to ‖A‖.
    #[test]
    fn qr_reconstructs(a in tall_matrix()) {
        let qr = Qr::new(&a).unwrap();
        let prod = qr.q_thin().matmul(&qr.r()).unwrap();
        let err = prod.sub(&a).unwrap().max_abs();
        prop_assert!(err <= 1e-9 * (1.0 + a.max_abs()));
    }

    /// Q has orthonormal columns.
    #[test]
    fn qr_orthonormal(a in tall_matrix()) {
        let qr = Qr::new(&a).unwrap();
        let q = qr.q_thin();
        let qtq = q.transpose().matmul(&q).unwrap();
        let err = qtq.sub(&Matrix::identity(a.cols())).unwrap().max_abs();
        prop_assert!(err < 1e-9);
    }

    /// rank(A) = rank(Aᵀ), and rank ≤ min(m, n).
    #[test]
    fn rank_transpose_invariant(a in any_matrix()) {
        let r1 = rank(&a);
        let r2 = rank(&a.transpose());
        prop_assert_eq!(r1, r2);
        prop_assert!(r1 <= a.rows().min(a.cols()));
    }

    /// Appending a duplicated column never increases the rank.
    #[test]
    fn duplicate_column_keeps_rank(a in any_matrix(), col in 0usize..6) {
        let j = col % a.cols();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(a.rows());
        for i in 0..a.rows() {
            let mut r = a.row(i).to_vec();
            r.push(a[(i, j)]);
            rows.push(r);
        }
        let extended = Matrix::from_rows(&rows).unwrap();
        prop_assert_eq!(rank(&extended), rank(&a));
    }

    /// The least-squares solution zeroes the gradient Aᵀ(Ax−b) when A has
    /// full column rank.
    #[test]
    fn lstsq_normal_equations_hold(a in tall_matrix(),
                                   seed in proptest::collection::vec(-5.0f64..5.0, 0..16)) {
        prop_assume!(rank(&a) == a.cols());
        let mut b = vec![0.0; a.rows()];
        for (i, bi) in b.iter_mut().enumerate() {
            *bi = seed.get(i).copied().unwrap_or(1.0);
        }
        // Skip pathologically ill-conditioned draws.
        let qr = PivotedQr::new(&a).unwrap();
        prop_assume!(qr.pivot_magnitude(a.cols() - 1) > 1e-6 * qr.pivot_magnitude(0));
        let x = lstsq::solve_least_squares(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
        let grad = a.matvec_transposed(&resid).unwrap();
        let scale = 1.0 + a.max_abs() * a.max_abs();
        prop_assert!(grad.iter().all(|g| g.abs() < 1e-6 * scale), "grad={grad:?}");
    }

    /// Cholesky of G = AᵀA + I reproduces G and solves correctly.
    #[test]
    fn cholesky_solve_round_trip(a in tall_matrix()) {
        let mut g = a.gram();
        for i in 0..g.rows() {
            g[(i, i)] += 1.0;
        }
        let chol = Cholesky::new(&g).unwrap();
        let x_true: Vec<f64> = (0..g.rows()).map(|i| (i as f64) - 1.5).collect();
        let b = g.matvec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        for (p, q) in x.iter().zip(x_true.iter()) {
            prop_assert!((p - q).abs() < 1e-6 * (1.0 + q.abs()));
        }
    }

    /// Pivoted QR agrees with an independent Gaussian-elimination rank
    /// oracle, including on deliberately rank-deficient products B·C
    /// with inner dimension r.
    #[test]
    fn pivoted_qr_rank_agreement(
        shape in (1usize..=5, 1usize..=5, 1usize..=6).prop_flat_map(|(r, extra_m, n)| {
            let m = r + extra_m;
            (
                Just((m, r, n)),
                proptest::collection::vec(-3.0f64..3.0, m * r),
                proptest::collection::vec(-3.0f64..3.0, r * n),
            )
        })
    ) {
        let ((m, r, n), b_data, c_data) = shape;
        let b = Matrix::from_vec(m, r, b_data).unwrap();
        let c = Matrix::from_vec(r, n, c_data).unwrap();
        let a = b.matmul(&c).unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        // Skip draws whose smallest accepted pivot sits near the rank
        // tolerance, where the two algorithms may legitimately disagree.
        prop_assume!(
            qr.rank() == 0 || qr.pivot_magnitude(qr.rank() - 1) > 1e-6 * qr.pivot_magnitude(0)
        );
        prop_assert_eq!(qr.rank(), gaussian_rank(&a));
        prop_assert!(qr.rank() <= r.min(n).min(m));
        prop_assert_eq!(qr.rank(), rank(&a.transpose()));
    }

    /// The columns pivoted QR reports as independent really are: the
    /// submatrix they select has the full column rank of A according to
    /// the independent elimination oracle.
    #[test]
    fn pivoted_qr_independent_columns(a in any_matrix()) {
        let qr = PivotedQr::new(&a).unwrap();
        prop_assume!(
            qr.rank() == 0 || qr.pivot_magnitude(qr.rank() - 1) > 1e-6 * qr.pivot_magnitude(0)
        );
        let kept = qr.independent_columns();
        prop_assert_eq!(kept.len(), gaussian_rank(&a));
        let sub = a.select_columns(&kept);
        prop_assert_eq!(gaussian_rank(&sub), kept.len());
    }

    /// Householder QR and normal equations + Cholesky must agree on
    /// well-conditioned full-rank systems, and both residuals must be
    /// orthogonal to the column space of A.
    #[test]
    fn lstsq_backends_agree_and_residuals_are_orthogonal(
        a in tall_matrix(),
        seed in proptest::collection::vec(-5.0f64..5.0, 0..16),
    ) {
        let qr = PivotedQr::new(&a).unwrap();
        prop_assume!(qr.rank() == a.cols());
        prop_assume!(qr.pivot_magnitude(a.cols() - 1) > 1e-4 * qr.pivot_magnitude(0));
        let b: Vec<f64> = (0..a.rows())
            .map(|i| seed.get(i).copied().unwrap_or(1.0))
            .collect();
        let x_qr = lstsq::solve_least_squares(&a, &b).unwrap();
        let x_ne = lstsq::solve_spd(&a.gram(), &a.matvec_transposed(&b).unwrap()).unwrap();
        let scale = 1.0 + a.max_abs() * a.max_abs();
        for (p, q) in x_qr.iter().zip(x_ne.iter()) {
            prop_assert!((p - q).abs() < 1e-5 * (1.0 + q.abs()), "QR {p} vs NE {q}");
        }
        for x in [&x_qr, &x_ne] {
            let ax = a.matvec(x).unwrap();
            let resid: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
            let grad = a.matvec_transposed(&resid).unwrap();
            prop_assert!(
                grad.iter().all(|g| g.abs() < 1e-5 * scale),
                "residual not orthogonal: {grad:?}"
            );
        }
    }

    /// The full Q of the Householder factorisation is orthogonal:
    /// applying Qᵀ then Q returns any vector unchanged (so `QR`
    /// reconstruction holds in the full, not just thin, form).
    #[test]
    fn qr_full_q_roundtrip(a in tall_matrix(),
                           seed in proptest::collection::vec(-4.0f64..4.0, 0..16)) {
        let qr = Qr::new(&a).unwrap();
        let y: Vec<f64> = (0..a.rows())
            .map(|i| seed.get(i).copied().unwrap_or(0.5))
            .collect();
        let mut z = y.clone();
        qr.apply_qt(&mut z).unwrap();
        qr.apply_q(&mut z).unwrap();
        for (p, q) in z.iter().zip(y.iter()) {
            prop_assert!((p - q).abs() < 1e-10 * (1.0 + q.abs()));
        }
    }

    /// Sparse matvec and transposed matvec agree with the dense
    /// reference within 1e-12 at routing-matrix density.
    #[test]
    fn sparse_matvec_matches_dense(
        a in sparse_low_density(),
        seed in proptest::collection::vec(-5.0f64..5.0, 8)
    ) {
        let d = a.to_dense();
        let x: Vec<f64> = (0..a.cols()).map(|j| seed[j % seed.len()]).collect();
        let y: Vec<f64> = (0..a.rows()).map(|i| seed[(i * 3 + 1) % seed.len()]).collect();
        for (s, r) in a.matvec(&x).unwrap().iter().zip(d.matvec(&x).unwrap().iter()) {
            prop_assert!((s - r).abs() < 1e-12);
        }
        for (s, r) in a
            .matvec_transposed(&y)
            .unwrap()
            .iter()
            .zip(d.matvec_transposed(&y).unwrap().iter())
        {
            prop_assert!((s - r).abs() < 1e-12);
        }
    }

    /// Column selection commutes with densification.
    #[test]
    fn sparse_select_columns_matches_dense(a in sparse_low_density(), stride in 1usize..4) {
        let kept: Vec<usize> = (0..a.cols()).step_by(stride).collect();
        let sub = a.select_columns(&kept);
        prop_assert_eq!(sub.to_dense(), a.to_dense().select_columns(&kept));
    }

    /// The sparse Givens QR agrees with the dense pivoted-QR oracle on
    /// numerical rank, including on matrices with deliberately
    /// duplicated and summed columns (exact dependencies).
    #[test]
    fn sparse_qr_rank_matches_pivoted_qr(a in sparse_low_density(), dup in 0usize..3) {
        // Append `dup` exact dependencies: copies of column j and sums
        // of columns j, j+1.
        let mut dense = a.to_dense();
        for t in 0..dup {
            let j = t % a.cols();
            let k = (j + 1) % a.cols();
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(dense.rows());
            for i in 0..dense.rows() {
                let mut r = dense.row(i).to_vec();
                r.push(dense[(i, j)] + dense[(i, k)]);
                rows.push(r);
            }
            dense = Matrix::from_rows(&rows).unwrap();
        }
        let sp = CsrMatrix::from_dense(&dense);
        let pivoted = PivotedQr::new(&dense).unwrap();
        prop_assume!(
            pivoted.rank() == 0
                || pivoted.pivot_magnitude(pivoted.rank() - 1) > 1e-6 * pivoted.pivot_magnitude(0)
        );
        let sparse = SparseQr::new(sp).unwrap();
        // Unpivoted QR diagonals are not rank-ordered, so a random draw
        // can park a legitimate diagonal inside the tolerance's grey
        // zone; skip draws whose sparse decision flips across a wide
        // band (the pivot-magnitude guard above plays the same role for
        // the dense side). A genuinely lost column stays lost at every
        // tolerance and still fails the assertion.
        prop_assume!(sparse.rank_with_tol(1e-13) == sparse.rank_with_tol(1e-6));
        prop_assert_eq!(sparse.rank(), pivoted.rank());
        prop_assert_eq!(
            sparse.has_full_column_rank(),
            pivoted.rank() == dense.cols()
        );
    }

    /// The sparse QR least-squares solution matches the dense pivoted
    /// QR within 1e-12 on full-column-rank sparse systems, and its
    /// residual is orthogonal to the column space.
    #[test]
    fn sparse_qr_lstsq_matches_dense_oracle(
        a in sparse_full_rank_tall(),
        seed in proptest::collection::vec(-5.0f64..5.0, 8)
    ) {
        let b: Vec<f64> = (0..a.rows()).map(|i| seed[i % seed.len()]).collect();
        let dense = a.to_dense();
        let x_dense = PivotedQr::new(&dense).unwrap().solve_least_squares(&b).unwrap();
        let x_sparse = SparseQr::new(a).unwrap().solve_least_squares(&b).unwrap();
        let scale = 1.0 + x_dense.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (s, d) in x_sparse.iter().zip(x_dense.iter()) {
            prop_assert!((s - d).abs() < 1e-12 * scale, "{x_sparse:?} vs {x_dense:?}");
        }
        let ax = dense.matvec(&x_sparse).unwrap();
        let resid: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
        let grad = dense.matvec_transposed(&resid).unwrap();
        let gscale = 1.0 + dense.max_abs() * dense.max_abs();
        prop_assert!(grad.iter().all(|g| g.abs() < 1e-10 * gscale), "grad={grad:?}");
    }
}
