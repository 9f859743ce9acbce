//! Every kernel tier this host can run, called directly, against the
//! portable loops of [`crate::reference`], bit for bit.
//!
//! The dispatched entry points only ever reach the widest tier, and under
//! the `zmm` tile the `ymm` strips see only the columns it leaves over, so
//! the dispatched-vs-reference tests cannot see a narrower tier whole.
//! These call each tier's wrappers themselves — `avx512` and `avx2` where
//! detection finds the units, and always the portable fallback
//! (`gemm::gemm_portable`, `reference::gemm_nt_cols`, the element-wise
//! loops as written) — and print which ran.

use crate::activation::Activation;
use crate::gemm::{checked, gemm_portable, Op};
use crate::matrix::Matrix;
use crate::scalar::Float;
use crate::{init, reference};

type Gemm<T> = unsafe fn(T, &[T], &[T], &mut [T], usize, usize, usize);
type Affine<T> = unsafe fn(Activation, &[T], &[T], &[T], &mut [T], usize, usize, usize);
type RowMulAdd<T> = unsafe fn(&[T], &[T], &[T], &mut [T], usize, usize);

/// One tier's entry points for scalar type `T`.
struct Tier<T> {
    name: &'static str,
    nn: Gemm<T>,
    tn: Gemm<T>,
    nt: Gemm<T>,
    affine: Affine<T>,
    axpy: unsafe fn(T, &[T], &mut [T]),
    hadamard_add: unsafe fn(&[T], &[T], &mut [T]),
    row_mul_add: RowMulAdd<T>,
    column_sums_add: unsafe fn(&[T], &mut [T], usize, usize),
    dot: unsafe fn(&[T], &[T]) -> T,
    sigmoid: unsafe fn(&mut [T]),
    tanh: unsafe fn(&mut [T]),
}

#[cfg(target_arch = "x86_64")]
macro_rules! x86_tier {
    ($name:literal, $tier:ident) => {{
        use crate::backend::simd::x86::$tier as t;
        Tier {
            name: $name,
            nn: t::gemm::<T, false>,
            tn: t::gemm::<T, true>,
            nt: t::gemm_nt::<T>,
            affine: t::affine::<T>,
            axpy: t::axpy::<T>,
            hadamard_add: t::hadamard_add::<T>,
            row_mul_add: t::row_mul_add::<T>,
            column_sums_add: t::column_sums_add::<T>,
            dot: t::dot::<T>,
            sigmoid: t::sigmoid::<T>,
            tanh: t::tanh::<T>,
        }
    }};
}

/// The portable loops' NT product from column 0.
fn portable_nt<T: Float>(alpha: T, a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    reference::gemm_nt_cols(alpha, a, b, c, m, k, n, 0);
}

/// The tiers this host runs, widest first, then the portable fallback.
/// Only the tiers detection finds are returned, so every entry is safe to
/// call on this host (given in-bounds slices).
fn tiers<T: Float>() -> Vec<Tier<T>> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        use crate::backend::simd::x86::{tier, Tier as X86};
        if tier() == Some(X86::Avx512) {
            out.push(x86_tier!("avx512", avx512));
        }
        if tier().is_some() {
            out.push(x86_tier!("avx2", avx2));
        }
    }
    out.push(Tier {
        name: "portable",
        nn: gemm_portable::<T, false>,
        tn: gemm_portable::<T, true>,
        nt: portable_nt::<T>,
        affine: reference::affine_rows::<T>,
        axpy: reference::axpy_slice::<T>,
        hadamard_add: reference::hadamard_add_slice::<T>,
        row_mul_add: reference::row_mul_add_slice::<T>,
        column_sums_add: reference::column_sums_add::<T>,
        dot: reference::dot_slice::<T>,
        sigmoid: reference::sigmoid_slice::<T>,
        tanh: reference::tanh_slice::<T>,
    });
    let names: Vec<_> = out.iter().map(|t| t.name).collect();
    println!("tiers run: {}", names.join(", "));
    out
}

/// Bitwise equality, a NaN matching any NaN (`fmaf` and the FMA unit agree
/// on where a NaN appears, not on its payload).
fn assert_bits<T: Float>(got: &[T], want: &[T], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        let (x, y) = (x.to_f64(), y.to_f64());
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i}: {x} vs {y}"
        );
    }
}

/// `C = alpha · op(A) · op(B) + beta · C` on a copy of `c0`, with `accum`
/// as the accumulate step (shape checks and `beta` as every entry point
/// has them).
fn product<T: Float>(
    op: Op,
    accum: Gemm<T>,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c0: &Matrix<T>,
) -> Matrix<T> {
    let mut c = c0.clone();
    checked(op, alpha, a, b, beta, &mut c, |alpha, a, b, c, m, k, n| {
        // SAFETY: `tiers` returns only what this host runs, and `checked`
        // passed slices of exactly the checked shapes.
        unsafe { accum(alpha, a, b, c, m, k, n) }
    });
    c
}

/// NN, TN and NT of every tier against `reference::{gemm, gemm_tn,
/// gemm_nt}` at one shape, with `specials` (`(operand, index, value)`,
/// operand 0 = `A`, 1 = `B`) written over the operands.
#[allow(clippy::too_many_arguments)]
fn gemm_case(
    tiers: &[Tier<f32>],
    (m, k, n): (usize, usize, usize),
    alpha: f32,
    beta: f32,
    seed: u64,
    specials: &[(usize, usize, f32)],
) {
    let mut a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, seed);
    let mut b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, seed + 1);
    for &(which, i, v) in specials {
        let s = if which == 0 {
            a.as_mut_slice()
        } else {
            b.as_mut_slice()
        };
        s[i] = v;
    }
    let c0: Matrix<f32> = init::uniform(m, n, -1.0, 1.0, seed + 2);
    let (at, bt) = (a.transposed(), b.transposed());
    let what = |op: &str, t: &str| format!("{t} {op} {m}x{k}x{n} alpha={alpha} beta={beta}");

    let mut want = c0.clone();
    reference::gemm(alpha, &a, &b, beta, &mut want);
    for t in tiers {
        let got = product(Op::NN, t.nn, alpha, &a, &b, beta, &c0);
        assert_bits(got.as_slice(), want.as_slice(), &what("nn", t.name));
    }
    let mut want = c0.clone();
    reference::gemm_tn(alpha, &at, &b, beta, &mut want);
    for t in tiers {
        let got = product(Op::TN, t.tn, alpha, &at, &b, beta, &c0);
        assert_bits(got.as_slice(), want.as_slice(), &what("tn", t.name));
    }
    let mut want = c0.clone();
    reference::gemm_nt(alpha, &a, &bt, beta, &mut want);
    for t in tiers {
        let got = product(Op::NT, t.nt, alpha, &a, &bt, beta, &c0);
        assert_bits(got.as_slice(), want.as_slice(), &what("nt", t.name));
    }
}

/// The lattice edges of both register tiles: `m` around the 4- and 8-row
/// tiles, `n` around the 8-, 16- and 32-column strips (and the `n < 16`
/// narrow route), `k` around one `KC = 256` block and the 8-wide pack
/// transpose. Every `(alpha, beta)` pair in `{1, 0.7} × {0, 1}` meets every
/// value of every axis: the pair is chosen by the sum of the axis indices.
#[test]
fn every_tier_gemm_equals_reference_bitwise() {
    let tiers = tiers::<f32>();
    let combos = [(1.0, 0.0), (0.7, 1.0), (1.0, 1.0), (0.7, 0.0)];
    let ms = [1, 4, 7, 8, 9, 16, 17];
    let ns = [8, 15, 16, 17, 31, 32, 33, 47, 48, 64, 192, 200];
    for (im, &m) in ms.iter().enumerate() {
        for (in_, &n) in ns.iter().enumerate() {
            for (ik, &k) in [1, 96, 256, 257].iter().enumerate() {
                let (alpha, beta) = combos[(im + in_ + ik) % combos.len()];
                gemm_case(&tiers, (m, k, n), alpha, beta, (m * 1000 + n) as u64, &[]);
            }
        }
    }
}

/// A zero against an infinity or a NaN gives NaN in every tier: no path
/// skips a term. The specials sit in the `zmm` strips, the `ymm` strips
/// and the portable edge, in both `KC` blocks.
#[test]
fn every_tier_keeps_zero_times_nonfinite_as_nan() {
    let tiers = tiers::<f32>();
    for &(m, k, n) in &[(9, 257, 200), (17, 96, 48), (4, 300, 63)] {
        let specials = [
            (0, 1, 0.0),               // A[0, 1] = 0 …
            (1, n + 3, f32::INFINITY), // … against B[1, 3] = inf
            (0, k + 256, 0.0),         // A[1, 256] = 0 …
            (1, 256 * n + n - 1, f32::NAN),
            (1, 2 * n + 40, f32::NEG_INFINITY),
        ];
        let specials: Vec<_> = specials
            .into_iter()
            .filter(|&(w, i, _)| i < if w == 0 { m * k } else { k * n })
            .collect();
        for (alpha, beta) in [(1.0, 0.0), (0.7, 1.0)] {
            gemm_case(&tiers, (m, k, n), alpha, beta, 7, &specials);
        }
    }
}

/// Every element-wise wrapper of every tier against its portable loop run
/// as written, in `T`, at lengths below, at and past one `ymm` and one
/// `zmm` register.
fn elementwise_case<T: Float>(tiers: &[Tier<T>], rows: usize, cols: usize) {
    let len = rows * cols;
    let x: Matrix<T> = init::uniform(rows, cols, -4.0, 4.0, 11);
    let y0: Matrix<T> = init::uniform(rows, cols, -4.0, 4.0, 12);
    let lam: Matrix<T> = init::uniform(1, cols, -1.0, 1.0, 13);
    let db0: Matrix<T> = init::uniform(1, cols, -1.0, 1.0, 14);
    let (x, y0, lam, db0) = (x.as_slice(), y0.as_slice(), lam.as_slice(), db0.as_slice());
    let alpha = T::from_f64(-0.3);
    let what = |op: &str, t: &str| format!("{t} {op} {rows}x{cols}");
    for t in tiers {
        // SAFETY: here and below, `tiers` returns only what this host
        // runs, and the slices are the lengths each loop reads.
        let (mut got, mut want) = (y0.to_vec(), y0.to_vec());
        unsafe { (t.axpy)(alpha, x, &mut got) };
        reference::axpy_slice(alpha, x, &mut want);
        assert_bits(&got, &want, &what("axpy", t.name));

        let (mut got, mut want) = (y0.to_vec(), y0.to_vec());
        // SAFETY: as above.
        unsafe { (t.hadamard_add)(x, y0, &mut got) };
        reference::hadamard_add_slice(x, y0, &mut want);
        assert_bits(&got, &want, &what("hadamard_add", t.name));

        let (mut got, mut want) = (vec![T::ZERO; len], vec![T::ZERO; len]);
        // SAFETY: as above.
        unsafe { (t.row_mul_add)(lam, x, y0, &mut got, rows, cols) };
        reference::row_mul_add_slice(lam, x, y0, &mut want, rows, cols);
        assert_bits(&got, &want, &what("row_mul_add", t.name));

        let (mut got, mut want) = (db0.to_vec(), db0.to_vec());
        // SAFETY: as above.
        unsafe { (t.column_sums_add)(x, &mut got, rows, cols) };
        reference::column_sums_add(x, &mut want, rows, cols);
        assert_bits(&got, &want, &what("column_sums_add", t.name));

        // SAFETY: as above.
        let got = unsafe { (t.dot)(x, y0) };
        let want = reference::dot_slice(x, y0);
        assert_bits(&[got], &[want], &what("dot", t.name));

        let (mut got, mut want) = (x.to_vec(), x.to_vec());
        // SAFETY: as above.
        unsafe { (t.sigmoid)(&mut got) };
        want.iter_mut().for_each(|v| *v = v.sigmoid());
        assert_bits(&got, &want, &what("sigmoid", t.name));

        let (mut got, mut want) = (x.to_vec(), x.to_vec());
        // SAFETY: as above.
        unsafe { (t.tanh)(&mut got) };
        want.iter_mut().for_each(|v| *v = v.tanh());
        assert_bits(&got, &want, &what("tanh", t.name));
    }
}

#[test]
fn every_tier_elementwise_equals_reference_bitwise() {
    let (t32, t64) = (tiers::<f32>(), tiers::<f64>());
    for &(rows, cols) in &[(1, 1), (1, 7), (1, 8), (2, 15), (1, 16), (3, 17), (1, 31)] {
        elementwise_case(&t32, rows, cols);
        elementwise_case(&t64, rows, cols);
    }
    for &(rows, cols) in &[(2, 32), (1, 33), (16, 48), (5, 200)] {
        elementwise_case(&t32, rows, cols);
        elementwise_case(&t64, rows, cols);
    }
}

/// The narrow gate product of every tier (`n < 16`, `k ≤ KC`) against the
/// portable row loop, every activation, both precisions.
fn affine_case<T: Float>(tiers: &[Tier<T>], m: usize, k: usize, n: usize) {
    let z: Matrix<T> = init::uniform(m, k, -2.0, 2.0, 21);
    let w: Matrix<T> = init::uniform(k, n, -1.0, 1.0, 22);
    let b: Matrix<T> = init::uniform(1, n, -1.0, 1.0, 23);
    let (z, w, b) = (z.as_slice(), w.as_slice(), b.as_slice());
    let mut acts = vec![Activation::Identity, Activation::Sigmoid, Activation::Tanh];
    if n.is_multiple_of(4) {
        acts.push(Activation::LstmGates);
    }
    for act in acts {
        let mut want = vec![T::ZERO; m * n];
        reference::affine_rows(act, z, w, b, &mut want, m, k, n);
        for t in tiers {
            let mut got = vec![T::ZERO; m * n];
            // SAFETY: `tiers` returns only what this host runs; the slices
            // are m×k, k×n, 1×n and m×n.
            unsafe { (t.affine)(act, z, w, b, &mut got, m, k, n) };
            assert_bits(
                &got,
                &want,
                &format!("{} affine {act:?} {m}x{k}x{n}", t.name),
            );
        }
    }
}

#[test]
fn every_tier_affine_equals_reference_bitwise() {
    let (t32, t64) = (tiers::<f32>(), tiers::<f64>());
    for &m in &[1, 3] {
        for &k in &[1, 7, 48, 256] {
            for n in 1..16 {
                affine_case(&t32, m, k, n);
                affine_case(&t64, m, k, n);
            }
        }
    }
}
