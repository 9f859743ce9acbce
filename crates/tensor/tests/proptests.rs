//! Property-based tests for the tensor substrate.

use bpar_tensor::activation::{sigmoid_slice, tanh_slice};
use bpar_tensor::gemm::{gemm, gemm_naive, gemm_nt, gemm_tn};
use bpar_tensor::{init, ops, reference, Activation, Backend, Float, Matrix, Workspace};
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

/// Bitwise equality, a NaN matching any NaN (`fmaf` and the FMA unit agree
/// on where a NaN appears, not on its payload).
fn same_bits<T: Float>(got: &Matrix<T>, want: &Matrix<T>) -> bool {
    got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| {
        let (x, y) = (x.to_f64(), y.to_f64());
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    })
}

/// `act(z·W + b)` the long way: the blocked portable GEMM into a zeroed
/// matrix, a plain bias loop, then one `Float` call per element.
fn affine_oracle<T: Float>(
    act: Activation,
    z: &Matrix<T>,
    w: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let n = w.cols();
    let mut out = Matrix::zeros(z.rows(), n);
    reference::gemm(T::ONE, z, w, T::ZERO, &mut out);
    let h = n / 4;
    Matrix::from_fn(z.rows(), n, |r, j| {
        let v = out.get(r, j) + b.get(0, j);
        match act {
            Activation::Identity => v,
            Activation::Sigmoid => v.sigmoid(),
            Activation::Tanh => v.tanh(),
            Activation::LstmGates if (2 * h..3 * h).contains(&j) => v.tanh(),
            Activation::LstmGates => v.sigmoid(),
        }
    })
}

/// Non-finite and signed-zero operands, and subnormals of both precisions.
fn special() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1e-40),
        Just(-1e-310),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

/// `Backend::affine` under `scalar` and `simd` against [`affine_oracle`]
/// for one shape, every activation, with `specials` written over the
/// operands (`(which operand, index, value)`).
fn affine_case<T: Float>(
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
    specials: &[(usize, usize, f64)],
) {
    let mut z: Matrix<T> = init::uniform(m, k, -2.0, 2.0, seed);
    let mut w: Matrix<T> = init::uniform(k, n, -2.0, 2.0, seed + 1);
    let mut b: Matrix<T> = init::uniform(1, n, -2.0, 2.0, seed + 2);
    for &(which, i, v) in specials {
        let m = [&mut z, &mut w, &mut b][which % 3].as_mut_slice();
        let len = m.len();
        m[i % len] = T::from_f64(v);
    }
    for act in [
        Activation::Identity,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::LstmGates,
    ] {
        // The LSTM layout needs four equal blocks.
        let n = if act == Activation::LstmGates {
            n - n % 4
        } else {
            n
        };
        if n == 0 {
            continue;
        }
        let w = Matrix::from_fn(k, n, |r, c| w.get(r, c));
        let b = Matrix::from_fn(1, n, |_, c| b.get(0, c));
        let want = affine_oracle(act, &z, &w, &b);
        for be in [Backend::scalar(), Backend::simd()] {
            // Garbage in `out`: the call must overwrite all of it.
            let mut got = Matrix::full(m, n, T::from_f64(f64::NAN));
            be.affine(act, &z, &w, &b, &mut got);
            assert!(
                same_bits(&got, &want),
                "{act:?} {:?} {m}x{k}x{n}",
                be.kind()
            );
        }
    }
}

proptest! {
    // Up to 70×600×200, four activations, two precisions, two backends.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Backend::affine` equals the blocked GEMM, a bias loop and one
    /// activation call per element, bit for bit, on both sides of the
    /// narrow route (`n < 16`, `k ≤ 256`), with ±0, subnormal, ±inf and NaN
    /// operands mixed in.
    #[test]
    fn affine_equals_gemm_bias_and_activation_bitwise(
        m in 1usize..70,
        k in 1usize..600,
        n in prop_oneof![1usize..16, 1usize..200],
        seed in 0u64..1000,
        specials in proptest::collection::vec((0usize..3, 0usize..1 << 20, special()), 0..4),
    ) {
        affine_case::<f32>(m, k, n, seed, &specials);
        affine_case::<f64>(m, k, n, seed, &specials);
    }
}

/// `Backend::affine_grad` the long way, on the accumulators `dw0` and
/// `db0`: the portable TN product, a plain column-sum loop added through
/// `reference::axpy`, and the portable NT product into a zeroed matrix —
/// the three separate calls a gate backward made before it had one.
fn affine_grad_oracle<T: Float>(
    z: &Matrix<T>,
    dg: &Matrix<T>,
    w: &Matrix<T>,
    dw0: &Matrix<T>,
    db0: &Matrix<T>,
) -> [Matrix<T>; 3] {
    let ((rows, k), n) = (z.shape(), dg.cols());
    let mut dw = dw0.clone();
    reference::gemm_tn(T::ONE, z, dg, T::ONE, &mut dw);
    let mut sums = Matrix::zeros(1, n);
    for r in 0..rows {
        for j in 0..n {
            sums.set(0, j, sums.get(0, j) + dg.get(r, j));
        }
    }
    let mut db = db0.clone();
    reference::axpy(T::ONE, &sums, &mut db);
    let mut dz = Matrix::zeros(rows, k);
    reference::gemm_nt(T::ONE, dg, w, T::ZERO, &mut dz);
    [dw, db, dz]
}

/// `Backend::affine_grad` under `scalar` and `simd` against
/// [`affine_grad_oracle`] for one `rows × k` input and `n` gate columns,
/// with `specials` written over the operands (`(which operand, index,
/// value)`) and garbage in `dz`.
fn affine_grad_case<T: Float>(
    rows: usize,
    k: usize,
    n: usize,
    seed: u64,
    specials: &[(usize, usize, f64)],
) {
    let mut z: Matrix<T> = init::uniform(rows, k, -2.0, 2.0, seed);
    let mut dg: Matrix<T> = init::uniform(rows, n, -2.0, 2.0, seed + 1);
    let mut w: Matrix<T> = init::uniform(k, n, -2.0, 2.0, seed + 2);
    let mut dw0: Matrix<T> = init::uniform(k, n, -2.0, 2.0, seed + 3);
    let mut db0: Matrix<T> = init::uniform(1, n, -2.0, 2.0, seed + 4);
    for &(which, i, v) in specials {
        let m = [&mut z, &mut dg, &mut w, &mut dw0, &mut db0][which % 5].as_mut_slice();
        if !m.is_empty() {
            let len = m.len();
            m[i % len] = T::from_f64(v);
        }
    }
    let want = affine_grad_oracle(&z, &dg, &w, &dw0, &db0);
    for be in [Backend::scalar(), Backend::simd()] {
        let (mut dw, mut db) = (dw0.clone(), db0.clone());
        let mut dz = Matrix::full(rows, k, T::from_f64(f64::NAN));
        be.affine_grad(&z, &dg, &w, &mut dw, &mut db, &mut dz);
        for (got, want, what) in [
            (&dw, &want[0], "dW"),
            (&db, &want[1], "db"),
            (&dz, &want[2], "dz"),
        ] {
            assert!(
                same_bits(got, want),
                "{what} {:?} rows {rows} k {k} n {n}",
                be.kind()
            );
        }
    }
}

proptest! {
    // Up to 600 rows × 200 × 200, two precisions, two backends.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Backend::affine_grad` equals the TN product, the column sums with
    /// an `axpy` and the NT product into a zeroed matrix, bit for bit, on
    /// both sides of each route boundary — the narrow TN product (`n < 16`,
    /// `rows ≤ 256`) and NT's packed tile (`k ≥ NR = 8` output columns) —
    /// and at zero dimensions, with ±0, subnormal, ±inf and NaN operands.
    #[test]
    fn affine_grad_equals_tn_column_sums_and_nt_bitwise(
        rows in prop_oneof![0usize..4, 1usize..300, 250usize..600],
        k in prop_oneof![0usize..16, 1usize..200],
        n in prop_oneof![0usize..17, 1usize..200],
        seed in 0u64..1000,
        specials in proptest::collection::vec((0usize..5, 0usize..1 << 20, special()), 0..4),
    ) {
        affine_grad_case::<f32>(rows, k, n, seed, &specials);
        affine_grad_case::<f64>(rows, k, n, seed, &specials);
    }
}

/// The lattice of [`affine_grad_equals_tn_column_sums_and_nt_bitwise`]
/// walked exhaustively at its edges: every gate width through 16, batch
/// rows on both sides of `KC`, input widths on both sides of `NR`.
#[test]
fn affine_grad_route_edges_equal_reference_bitwise() {
    for rows in [1usize, 2, 5, 256, 257] {
        for n in 1usize..=16 {
            for k in [1usize, 7, 8, 9, 17] {
                let seed = (rows * 31 + n * 7 + k) as u64;
                affine_grad_case::<f32>(rows, k, n, seed, &[]);
                affine_grad_case::<f64>(rows, k, n, seed, &[]);
            }
        }
    }
}

/// Every narrow width at one row — the shape a single request gives every
/// gate product and gradient of a tiny cell — and a few rows, at depths on
/// both sides of `KC`: the dispatched GEMMs and both backend handles equal
/// the blocked portable loops bit for bit.
#[test]
fn narrow_gemms_equal_reference_bitwise() {
    for m in [1usize, 2, 5] {
        for n in 1usize..=16 {
            for k in [1usize, 2, 7, 256, 257] {
                let a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, (m * n + k) as u64);
                let b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, 7);
                let c0: Matrix<f32> = init::uniform(m, n, -1.0, 1.0, 8);
                let (at, bt) = (a.transposed(), b.transposed());
                let what = format!("{m}x{k}x{n}");
                let nn = on_copy(&c0, |c| reference::gemm(0.5, &a, &b, 1.0, c));
                let nt = on_copy(&c0, |c| reference::gemm_nt(0.5, &a, &bt, 1.0, c));
                let tn = on_copy(&c0, |c| reference::gemm_tn(0.5, &at, &b, 1.0, c));
                assert_eq!(on_copy(&c0, |c| gemm(0.5, &a, &b, 1.0, c)), nn, "nn {what}");
                assert_eq!(
                    on_copy(&c0, |c| gemm_nt(0.5, &a, &bt, 1.0, c)),
                    nt,
                    "nt {what}"
                );
                assert_eq!(
                    on_copy(&c0, |c| gemm_tn(0.5, &at, &b, 1.0, c)),
                    tn,
                    "tn {what}"
                );
                for be in [Backend::scalar(), Backend::simd()] {
                    let mut ws = Workspace::new();
                    let got = on_copy(&c0, |c| be.gemm(0.5, &a, &b, 1.0, c, &mut ws));
                    assert_eq!(got, nn, "{:?} nn {what}", be.kind());
                    let got = on_copy(&c0, |c| be.gemm_nt(0.5, &a, &bt, 1.0, c));
                    assert_eq!(got, nt, "{:?} nt {what}", be.kind());
                    let got = on_copy(&c0, |c| be.gemm_tn(0.5, &at, &b, 1.0, c));
                    assert_eq!(got, tn, "{:?} tn {what}", be.kind());
                }
            }
        }
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
