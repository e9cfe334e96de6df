//! Property-based tests of the linear-algebra substrate.

use proptest::prelude::*;

use mtm_linalg::{blas, triangular, Cholesky, Mat};

/// Random well-conditioned SPD matrix: `B Bᵀ + n·I`.
fn arb_spd(max_n: usize) -> impl Strategy<Value = Mat> {
    (
        2usize..max_n,
        prop::collection::vec(-1.0f64..1.0, max_n * max_n),
    )
        .prop_map(|(n, data)| {
            let b = Mat::from_fn(n, n, |i, j| data[i * n + j]);
            let mut g = blas::syrk(&b);
            g.add_diag(n as f64);
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs_input(a in arb_spd(12)) {
        let ch = Cholesky::factor(&a).unwrap();
        let recon = blas::matmul_nt(ch.l(), ch.l()).unwrap();
        let err = (&recon - &a).max_abs();
        prop_assert!(err < 1e-8 * a.max_abs().max(1.0), "reconstruction error {err}");
    }

    #[test]
    fn cholesky_solve_is_correct(a in arb_spd(10)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve_vec(&b);
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-7, "residual {}", got - want);
        }
    }

    #[test]
    fn log_det_is_finite_and_consistent_with_trace_bound(a in arb_spd(10)) {
        let ch = Cholesky::factor(&a).unwrap();
        let ld = ch.log_det();
        prop_assert!(ld.is_finite());
        // AM-GM: log det <= n * log(trace/n).
        let n = a.rows() as f64;
        prop_assert!(ld <= n * (a.trace() / n).ln() + 1e-9);
    }

    #[test]
    fn quad_form_is_nonnegative(a in arb_spd(9)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - n as f64 / 2.0).collect();
        let ch = Cholesky::factor(&a).unwrap();
        prop_assert!(ch.quad_form(&b) >= -1e-10);
    }

    #[test]
    fn triangular_solves_invert_multiplication(a in arb_spd(8)) {
        let l = Cholesky::factor(&a).unwrap().l().clone();
        let n = l.rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 3) % 5) as f64 - 2.0).collect();
        // Forward: solve L y = L x must give x back.
        let lx = l.matvec(&x).unwrap();
        let y = triangular::solve_lower(&l, &lx);
        for (got, want) in y.iter().zip(&x) {
            prop_assert!((got - want).abs() < 1e-8);
        }
        // Transpose: solve Lᵀ y = Lᵀ x.
        let ltx = l.transpose().matvec(&x).unwrap();
        let y = triangular::solve_lower_transpose(&l, &ltx);
        for (got, want) in y.iter().zip(&x) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn matmul_is_associative_enough(
        data in prop::collection::vec(-2.0f64..2.0, 27),
    ) {
        let a = Mat::from_vec(3, 3, data[0..9].to_vec());
        let b = Mat::from_vec(3, 3, data[9..18].to_vec());
        let c = Mat::from_vec(3, 3, data[18..27].to_vec());
        let ab_c = blas::matmul(&blas::matmul(&a, &b).unwrap(), &c).unwrap();
        let a_bc = blas::matmul(&a, &blas::matmul(&b, &c).unwrap()).unwrap();
        prop_assert!((&ab_c - &a_bc).max_abs() < 1e-10);
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()) {
        let m = Mat::from_fn(rows, cols, |i, j| {
            ((seed.wrapping_add((i * 31 + j) as u64) % 1000) as f64) / 500.0 - 1.0
        });
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn rank_one_update_matches_fresh_factor(a in arb_spd(10), scale in 0.05f64..1.5) {
        let n = a.rows();
        let v: Vec<f64> = (0..n).map(|i| scale * ((i as f64 * 1.3).sin())).collect();
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.rank_one_update(&v);
        let mut a_up = a.clone();
        for i in 0..n {
            for j in 0..n {
                a_up[(i, j)] += v[i] * v[j];
            }
        }
        let fresh = Cholesky::factor(&a_up).unwrap();
        let err = (ch.l() - fresh.l()).max_abs();
        prop_assert!(err < 1e-9 * a_up.max_abs().max(1.0), "factor drift {err}");
    }

    #[test]
    fn rank_one_downdate_matches_fresh_factor(a in arb_spd(10), scale in 0.01f64..0.3) {
        let n = a.rows();
        // Small perturbation keeps A - vvᵀ positive definite (diag >= n).
        let v: Vec<f64> = (0..n).map(|i| scale * ((i as f64 * 0.9).cos())).collect();
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.rank_one_downdate(&v).unwrap();
        let mut a_dn = a.clone();
        for i in 0..n {
            for j in 0..n {
                a_dn[(i, j)] -= v[i] * v[j];
            }
        }
        let fresh = Cholesky::factor(&a_dn).unwrap();
        let err = (ch.l() - fresh.l()).max_abs();
        prop_assert!(err < 1e-9 * a.max_abs().max(1.0), "factor drift {err}");
    }

    #[test]
    fn append_then_remove_matches_fresh_factor(a in arb_spd(9)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| 0.3 * ((i as f64 * 2.1).sin())).collect();
        let c = n as f64 + 1.0;
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.append(&b, c).unwrap();
        // Appended factor must agree with factoring the bordered matrix.
        let bordered = Mat::from_fn(n + 1, n + 1, |i, j| match (i == n, j == n) {
            (false, false) => a[(i, j)],
            (true, false) => b[j],
            (false, true) => b[i],
            (true, true) => c,
        });
        let fresh = Cholesky::factor(&bordered).unwrap();
        let err = (ch.l() - fresh.l()).max_abs();
        prop_assert!(err < 1e-9 * bordered.max_abs().max(1.0), "append drift {err}");
        // Removing interior index 1 must agree with factoring the reduced matrix.
        ch.remove(1);
        let reduced = Mat::from_fn(n, n, |i, j| {
            let si = if i < 1 { i } else { i + 1 };
            let sj = if j < 1 { j } else { j + 1 };
            bordered[(si, sj)]
        });
        let fresh = Cholesky::factor(&reduced).unwrap();
        let err = (ch.l() - fresh.l()).max_abs();
        prop_assert!(err < 1e-9 * reduced.max_abs().max(1.0), "remove drift {err}");
    }

    #[test]
    fn rank_one_update_preserves_solutions(a in arb_spd(7)) {
        let n = a.rows();
        let v: Vec<f64> = (0..n).map(|i| 0.2 * i as f64 - 0.5).collect();
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.rank_one_update(&v);
        // Compare against factoring A + vvᵀ directly.
        let mut a_up = a.clone();
        for i in 0..n {
            for j in 0..n {
                a_up[(i, j)] += v[i] * v[j];
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let x1 = ch.solve_vec(&b);
        let x2 = Cholesky::factor(&a_up).unwrap().solve_vec(&b);
        for (p, q) in x1.iter().zip(&x2) {
            prop_assert!((p - q).abs() < 1e-7);
        }
    }

    #[test]
    fn inverse_lower_triangle_is_bit_equal_to_the_full_solve(
        a in arb_spd(14),
        sparse in arb_sparse_spd(14),
    ) {
        for m in [a, sparse] {
            let ch = Cholesky::factor(&m).unwrap();
            let n = m.rows();
            let inv = ch.inverse();
            let full = ch.solve_mat(&Mat::identity(n));
            for i in 0..n {
                for j in 0..=i {
                    prop_assert_eq!(inv[(i, j)].to_bits(), full[(i, j)].to_bits(), "({}, {})", i, j);
                    prop_assert_eq!(inv[(j, i)].to_bits(), inv[(i, j)].to_bits(), "mirror ({}, {})", j, i);
                }
            }
        }
    }
}

/// SPD matrix whose factor has exact zeros: `B Bᵀ + n·I` with most of
/// `B` zeroed, so the inverse's zero-skip branches run.
fn arb_sparse_spd(max_n: usize) -> impl Strategy<Value = Mat> {
    (
        2usize..max_n,
        prop::collection::vec(-1.0f64..1.0, max_n * max_n),
    )
        .prop_map(|(n, data)| {
            let b = Mat::from_fn(n, n, |i, j| {
                let v = data[i * n + j];
                if v.abs() < 0.7 {
                    0.0
                } else {
                    v
                }
            });
            let mut g = blas::syrk(&b);
            g.add_diag(n as f64);
            g
        })
}
