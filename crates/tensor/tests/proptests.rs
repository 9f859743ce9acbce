//! Property-based tests for the tensor substrate.

use bpar_tensor::activation::{sigmoid_slice, tanh_slice};
use bpar_tensor::gemm::{gemm, gemm_naive, gemm_nt, gemm_tn};
use bpar_tensor::{init, ops, reference, Float, Matrix};
use proptest::prelude::*;

/// Strategy: matrix of the given shape with small bounded values.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Strategy: (m, k, n) dims plus matching A, B, C matrices.
fn gemm_triple() -> impl Strategy<Value = (Matrix<f64>, Matrix<f64>, Matrix<f64>)> {
    (1usize..20, 1usize..20, 1usize..20)
        .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n), matrix(m, n)))
}

/// `f(c)` on a copy of `c0`, for comparing two routes to the same product.
fn on_copy(c0: &Matrix<f32>, f: impl FnOnce(&mut Matrix<f32>)) -> Vec<u32> {
    let mut c = c0.clone();
    f(&mut c);
    c.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Up to 70×600×200 per case, three products, twice: keep it to what a
    // debug build does in about a second.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dispatched GEMMs against the portable loops, bit for bit, over
    /// the whole blocking lattice: partial tiles in `m` (`MR = 4`, one
    /// `MC = 64` crossing) and `n` (`NR = 8`, including `n < NR` where NT
    /// has nothing to pack), and `k` across two `KC = 256` boundaries.
    #[test]
    fn dispatched_gemms_equal_reference_bitwise(
        m in 1usize..70, k in 1usize..600, n in 1usize..200,
        alpha in -2.0f32..2.0, beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, seed);
        let b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, seed + 1);
        let c0: Matrix<f32> = init::uniform(m, n, -1.0, 1.0, seed + 2);
        let (at, bt) = (a.transposed(), b.transposed());
        prop_assert_eq!(
            on_copy(&c0, |c| gemm(alpha, &a, &b, beta, c)),
            on_copy(&c0, |c| reference::gemm(alpha, &a, &b, beta, c)),
            "nn {}x{}x{}", m, k, n
        );
        prop_assert_eq!(
            on_copy(&c0, |c| gemm_nt(alpha, &a, &bt, beta, c)),
            on_copy(&c0, |c| reference::gemm_nt(alpha, &a, &bt, beta, c)),
            "nt {}x{}x{}", m, k, n
        );
        prop_assert_eq!(
            on_copy(&c0, |c| gemm_tn(alpha, &at, &b, beta, c)),
            on_copy(&c0, |c| reference::gemm_tn(alpha, &at, &b, beta, c)),
            "tn {}x{}x{}", m, k, n
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slice entry points (vectorised where the host allows, with a
    /// scalar tail) equal one `Float` call per element, bit for bit, for
    /// every bit pattern — non-finite included, a NaN matching any NaN —
    /// at every length around the vector width and every alignment.
    #[test]
    fn activation_slices_equal_per_element_calls_bitwise(
        vals in proptest::collection::vec(
            prop_oneof![any::<u32>().prop_map(f32::from_bits), -20.0f32..20.0],
            0..40,
        ),
        offset in 0usize..8,
    ) {
        let check = |slice: fn(&mut [f32]), scalar: fn(f32) -> f32| {
            let mut buf = vec![0.0f32; offset];
            buf.extend_from_slice(&vals);
            slice(&mut buf[offset..]);
            for (&x, &got) in vals.iter().zip(&buf[offset..]) {
                let want = scalar(x);
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "f({x:e}) = {got:e} in the slice, {want:e} alone"
                );
            }
        };
        check(sigmoid_slice::<f32>, Float::sigmoid);
        check(tanh_slice::<f32>, Float::tanh);
    }

    #[test]
    fn blocked_gemm_equals_naive((a, b, c0) in gemm_triple(), alpha in -2.0f64..2.0, beta in -2.0f64..2.0) {
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm(alpha, &a, &b, beta, &mut c1);
        gemm_naive(alpha, &a, &b, beta, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-9);
    }

    #[test]
    fn gemm_nt_equals_explicit_transpose((a, b, c0) in gemm_triple()) {
        // b: k×n, we use bᵀ: n×k as the stored operand.
        let bt = b.transposed();
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm_nt(1.0, &a, &bt, 1.0, &mut c1);
        gemm_naive(1.0, &a, &b, 1.0, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-9);
    }

    #[test]
    fn gemm_tn_equals_explicit_transpose((a, b, c0) in gemm_triple()) {
        // a: m×k, we use aᵀ: k×m as the stored operand.
        let at = a.transposed();
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm_tn(1.0, &at, &b, 1.0, &mut c1);
        gemm_naive(1.0, &a, &b, 1.0, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-9);
    }

    #[test]
    fn gemm_distributes_over_addition((a, b, c0) in gemm_triple()) {
        // A(B + B) == AB + AB
        let mut b2 = Matrix::zeros(b.rows(), b.cols());
        ops::add(&b, &b, &mut b2);
        let mut lhs = c0.clone();
        gemm(1.0, &a, &b2, 0.0, &mut lhs);
        let mut rhs = c0.clone();
        gemm(1.0, &a, &b, 0.0, &mut rhs);
        gemm(1.0, &a, &b, 1.0, &mut rhs);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn transpose_preserves_frobenius(m in (1usize..12, 1usize..12).prop_flat_map(|(r, c)| matrix(r, c))) {
        let t = m.transposed();
        prop_assert!((m.frobenius_norm() - t.frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn hstack_then_split_round_trips(
        m in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| matrix(r, c)),
    ) {
        let joined = Matrix::hstack(&[&m, &m]);
        let parts = ops::split_cols(&joined, 2);
        prop_assert_eq!(&parts[0], &m);
        prop_assert_eq!(&parts[1], &m);
    }

    #[test]
    fn softmax_rows_are_distributions(
        mut m in (1usize..6, 1usize..8).prop_flat_map(|(r, c)| matrix(r, c)),
    ) {
        bpar_tensor::activation::softmax_rows(&mut m);
        for r in 0..m.rows() {
            let s: f64 = m.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(m.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn clip_bounds_everything(
        mut m in (1usize..6, 1usize..8).prop_flat_map(|(r, c)| matrix(r, c)),
        limit in 0.01f64..1.5,
    ) {
        ops::clip(&mut m, limit);
        prop_assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn column_sums_match_manual(
        m in (1usize..6, 1usize..8).prop_flat_map(|(r, c)| matrix(r, c)),
    ) {
        let s = ops::column_sums(&m);
        for c in 0..m.cols() {
            let manual: f64 = (0..m.rows()).map(|r| m.get(r, c)).sum();
            prop_assert!((s.get(0, c) - manual).abs() < 1e-12);
        }
    }
}
