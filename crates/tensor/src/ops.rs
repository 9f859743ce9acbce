//! Element-wise and broadcast kernels.
//!
//! These cover the non-GEMM algebra of Equations (1)–(11): Hadamard
//! products for the gate interactions, bias broadcasts, and the merge
//! combinations of forward/reverse outputs.
//!
//! The four fused multiply-add ops (`axpy`, `hadamard_add`, `row_mul_add`,
//! `dot`) and the bias-gradient column sums dispatch like the GEMMs (see
//! [`crate::gemm`]): their portable loops in [`crate::reference`] run
//! inside the wrapper of the widest x86-64 tier the host has (`avx512f` or
//! `avx2,fma`) — in a build without `+fma`, `mul_add` is otherwise a call
//! to `fmaf` per element — and as written elsewhere, with the same bits
//! either way. The remaining ops contain nothing the baseline instruction
//! set cannot do and are one loop each.

#[cfg(target_arch = "aarch64")]
use crate::backend::simd;
use crate::backend::simd::x86_tiers;
use crate::matrix::Matrix;
use crate::reference;
use crate::scalar::Float;

/// `y += alpha * x` over whole matrices.
///
/// # Panics
/// Panics on shape mismatch.
pub fn axpy<T: Float>(alpha: T, x: &Matrix<T>, y: &mut Matrix<T>) {
    assert_eq!(x.shape(), y.shape(), "axpy shape mismatch");
    axpy_slice(alpha, x.as_slice(), y.as_mut_slice());
}

/// Slice-level core of [`axpy`], shared with the kernel backends.
pub(crate) fn axpy_slice<T: Float>(alpha: T, x: &[T], y: &mut [T]) {
    x86_tiers!(axpy(alpha, x, y));
    #[cfg(target_arch = "aarch64")]
    if let (Some(xf), Some(yf)) = (T::as_f32_slice(x), T::as_f32_slice_mut(y)) {
        // SAFETY: NEON is baseline on aarch64; the kernel stays below the
        // shorter of the two lengths.
        return unsafe { simd::neon::axpy(alpha.to_f32(), xf, yf) };
    }
    reference::axpy_slice(alpha, x, y);
}

/// `out = a ⊙ b` (element-wise product).
pub fn hadamard<T: Float>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    assert_eq!(a.shape(), out.shape(), "hadamard out shape mismatch");
    hadamard_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// Slice-level core of [`hadamard`], shared with the kernel backends.
pub(crate) fn hadamard_slice<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `out += a ⊙ b` (fused multiply-accumulate form used by Eq. (5)).
pub fn hadamard_add<T: Float>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.shape(), b.shape(), "hadamard_add shape mismatch");
    assert_eq!(a.shape(), out.shape(), "hadamard_add out shape mismatch");
    hadamard_add_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// Slice-level core of [`hadamard_add`], shared with the kernel backends.
pub(crate) fn hadamard_add_slice<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
    x86_tiers!(hadamard_add(a, b, out));
    #[cfg(target_arch = "aarch64")]
    if let Some((af, bf, of)) = crate::backend::f32_views(a, b, out) {
        // SAFETY: NEON is baseline on aarch64; the kernel stays below the
        // shortest of the three lengths.
        return unsafe { simd::neon::hadamard_add(af, bf, of) };
    }
    reference::hadamard_add_slice(a, b, out);
}

/// Adds a bias row vector to every row of `m` (broadcast over the batch).
///
/// `bias` must be `1 × cols`.
pub fn add_bias<T: Float>(m: &mut Matrix<T>, bias: &Matrix<T>) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), m.cols(), "bias width mismatch");
    let (rows, cols) = m.shape();
    add_bias_slice(m.as_mut_slice(), rows, cols, bias.row(0));
}

/// Slice-level core of [`add_bias`], shared with the kernel backends.
pub(crate) fn add_bias_slice<T: Float>(m: &mut [T], rows: usize, cols: usize, bias: &[T]) {
    for r in 0..rows {
        for (v, &bv) in m[r * cols..(r + 1) * cols].iter_mut().zip(bias) {
            *v += bv;
        }
    }
}

/// `out[r] = a ⊙ x[r] + y[r]` — a row vector `a` (`1 × cols`) broadcast
/// over every row of `x`, fused with an element-wise add.
///
/// This is the update step of a diagonal linear recurrence
/// `h_t = λ ⊙ h_{t-1} + u_t` and the `B` half of the parallel-scan
/// transfer composition (see [`scan_combine`]).
pub fn row_mul_add<T: Float>(a: &Matrix<T>, x: &Matrix<T>, y: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.rows(), 1, "row_mul_add: a must be a row vector");
    assert_eq!(a.cols(), x.cols(), "row_mul_add: a width mismatch");
    assert_eq!(x.shape(), y.shape(), "row_mul_add shape mismatch");
    assert_eq!(x.shape(), out.shape(), "row_mul_add out shape mismatch");
    let (rows, cols) = x.shape();
    row_mul_add_slice(
        a.row(0),
        x.as_slice(),
        y.as_slice(),
        out.as_mut_slice(),
        rows,
        cols,
    );
}

/// Slice-level core of [`row_mul_add`], shared with the kernel backends.
pub(crate) fn row_mul_add_slice<T: Float>(
    a: &[T],
    x: &[T],
    y: &[T],
    out: &mut [T],
    rows: usize,
    cols: usize,
) {
    x86_tiers!(row_mul_add(a, x, y, out, rows, cols));
    reference::row_mul_add_slice(a, x, y, out, rows, cols);
}

/// `m[r] = a ⊙ m[r]` in place — a row vector `a` (`1 × cols`) broadcast
/// over every row of `m`. Used as the per-step carry update `p ← λ ⊙ p`
/// inside scan fix-up tasks.
pub fn row_scale<T: Float>(a: &Matrix<T>, m: &mut Matrix<T>) {
    assert_eq!(a.rows(), 1, "row_scale: a must be a row vector");
    assert_eq!(a.cols(), m.cols(), "row_scale: a width mismatch");
    let (rows, cols) = m.shape();
    row_scale_slice(a.row(0), m.as_mut_slice(), rows, cols);
}

/// Slice-level core of [`row_scale`], shared with the kernel backends.
pub(crate) fn row_scale_slice<T: Float>(a: &[T], m: &mut [T], rows: usize, cols: usize) {
    for r in 0..rows {
        for (v, &av) in m[r * cols..(r + 1) * cols].iter_mut().zip(a) {
            *v *= av;
        }
    }
}

/// Composes two linear-recurrence transfer functions.
///
/// A transfer `(a, b)` maps an incoming hidden state to
/// `h ↦ a ⊙ h + b`, with `a` a `1 × hidden` decay row (broadcast over the
/// batch) and `b` a `rows × hidden` offset. Applying chunk `(a1, b1)`
/// first and then chunk `(a2, b2)` yields
///
/// `out_a = a1 ⊙ a2`, `out_b = a2 ⊙ b1 + b2`
///
/// which is associative — the Blelloch-scan combine operator over sequence
/// chunks (Martin & Cundy, "Parallelizing Linear Recurrent Neural Nets
/// Over Sequence Length").
pub fn scan_combine<T: Float>(
    a1: &Matrix<T>,
    b1: &Matrix<T>,
    a2: &Matrix<T>,
    b2: &Matrix<T>,
    out_a: &mut Matrix<T>,
    out_b: &mut Matrix<T>,
) {
    assert_eq!(a1.shape(), a2.shape(), "scan_combine decay shape mismatch");
    assert_eq!(a1.shape(), out_a.shape(), "scan_combine out_a shape");
    hadamard(a1, a2, out_a);
    row_mul_add(a2, b1, b2, out_b);
}

/// `db[j] += Σ_r dG[r, j]` over a `rows × n` block
/// ([`reference::column_sums_add`]: per column a sum from zero, `r`
/// ascending, then one add into `db`), dispatched like [`axpy_slice`].
pub(crate) fn column_sums_add_slice<T: Float>(dg: &[T], db: &mut [T], rows: usize, n: usize) {
    x86_tiers!(column_sums_add(dg, db, rows, n));
    reference::column_sums_add(dg, db, rows, n);
}

/// Column-wise sum of `m`, producing a `1 × cols` row vector.
///
/// This is the reduction used to form bias gradients from a batch of
/// per-sample gate gradients.
pub fn column_sums<T: Float>(m: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(1, m.cols());
    column_sums_into(m, &mut out);
    out
}

/// Column-wise sum of `m` written into an existing `1 × cols` row vector
/// (allocation-free counterpart of [`column_sums`]).
pub fn column_sums_into<T: Float>(m: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(out.shape(), (1, m.cols()), "column_sums out shape");
    out.fill_zero();
    for r in 0..m.rows() {
        let row = m.row(r);
        for (o, &v) in out.row_mut(0).iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// `out = a + b`.
pub fn add<T: Float>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    assert_eq!(a.shape(), out.shape(), "add out shape mismatch");
    add_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// Slice-level core of [`add`], shared with the kernel backends.
pub(crate) fn add_slice<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out = a - b`.
pub fn sub<T: Float>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    assert_eq!(a.shape(), out.shape(), "sub out shape mismatch");
    sub_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// Slice-level core of [`sub`], shared with the kernel backends.
pub(crate) fn sub_slice<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Scales every element of `m` by `alpha` in place.
pub fn scale<T: Float>(alpha: T, m: &mut Matrix<T>) {
    scale_slice(alpha, m.as_mut_slice());
}

/// Slice-level core of [`scale`], shared with the kernel backends.
pub(crate) fn scale_slice<T: Float>(alpha: T, m: &mut [T]) {
    for v in m {
        *v *= alpha;
    }
}

/// Sum of all elements.
pub fn sum<T: Float>(m: &Matrix<T>) -> T {
    m.as_slice().iter().copied().sum()
}

/// Dot product of the flattened matrices.
pub fn dot<T: Float>(a: &Matrix<T>, b: &Matrix<T>) -> T {
    assert_eq!(a.shape(), b.shape(), "dot shape mismatch");
    x86_tiers!(dot(a.as_slice(), b.as_slice()));
    reference::dot_slice(a.as_slice(), b.as_slice())
}

/// Clips every element into `[-limit, limit]` and returns how many were
/// clipped. Gradient clipping guards BPTT against exploding gradients.
pub fn clip<T: Float>(m: &mut Matrix<T>, limit: T) -> usize {
    assert!(limit > T::ZERO, "clip limit must be positive");
    let mut clipped = 0;
    for v in m.as_mut_slice() {
        if *v > limit {
            *v = limit;
            clipped += 1;
        } else if *v < -limit {
            *v = -limit;
            clipped += 1;
        }
    }
    clipped
}

/// Splits `m` column-wise into `parts` equal matrices.
///
/// Used to slice the fused 4·H gate pre-activation block into i/f/c̄/o
/// gates (and the concat-merge output back into directions).
pub fn split_cols<T: Float>(m: &Matrix<T>, parts: usize) -> Vec<Matrix<T>> {
    assert!(
        parts > 0 && m.cols().is_multiple_of(parts),
        "cols not divisible"
    );
    let w = m.cols() / parts;
    (0..parts)
        .map(|p| Matrix::from_fn(m.rows(), w, |r, c| m.get(r, p * w + c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f64]) -> Matrix<f64> {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn axpy_accumulates() {
        let x = m(1, 3, &[1.0, 2.0, 3.0]);
        let mut y = m(1, 3, &[10.0, 10.0, 10.0]);
        axpy(2.0, &x, &mut y);
        assert_eq!(y.as_slice(), &[12.0, 14.0, 16.0]);
    }

    #[test]
    fn hadamard_and_fused_add() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        let mut out = Matrix::zeros(1, 3);
        hadamard(&a, &b, &mut out);
        assert_eq!(out.as_slice(), &[4.0, 10.0, 18.0]);
        hadamard_add(&a, &b, &mut out);
        assert_eq!(out.as_slice(), &[8.0, 20.0, 36.0]);
    }

    #[test]
    fn bias_broadcasts_over_rows() {
        let mut x = Matrix::zeros(3, 2);
        let b = m(1, 2, &[1.0, -1.0]);
        add_bias(&mut x, &b);
        for r in 0..3 {
            assert_eq!(x.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn column_sums_reduce_batch() {
        let x = m(2, 3, &[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        let s = column_sums(&x);
        assert_eq!(s.as_slice(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m(1, 2, &[3.0, 4.0]);
        let b = m(1, 2, &[1.0, 2.0]);
        let mut s = Matrix::zeros(1, 2);
        add(&a, &b, &mut s);
        let mut d = Matrix::zeros(1, 2);
        sub(&s, &b, &mut d);
        assert_eq!(d, a);
    }

    #[test]
    fn clip_counts_and_bounds() {
        let mut x = m(1, 4, &[-5.0, -0.5, 0.5, 5.0]);
        let n = clip(&mut x, 1.0);
        assert_eq!(n, 2);
        assert_eq!(x.as_slice(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn split_cols_partitions_gates() {
        let x = m(2, 4, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let parts = split_cols(&x, 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].as_slice(), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(parts[1].as_slice(), &[3.0, 4.0, 7.0, 8.0]);
    }

    #[test]
    fn dot_and_sum() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(sum(&a), 6.0);
    }

    #[test]
    fn row_mul_add_broadcasts_decay_row() {
        let a = m(1, 2, &[2.0, 3.0]);
        let x = m(2, 2, &[1.0, 1.0, 2.0, 2.0]);
        let y = m(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let mut out = Matrix::zeros(2, 2);
        row_mul_add(&a, &x, &y, &mut out);
        assert_eq!(out.as_slice(), &[12.0, 23.0, 34.0, 46.0]);
    }

    #[test]
    fn row_scale_broadcasts_in_place() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let mut x = m(2, 3, &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        row_scale(&a, &mut x);
        assert_eq!(x.as_slice(), &[1.0, 2.0, 3.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn scan_combine_matches_sequential_application() {
        // Applying (a1,b1) then (a2,b2) to an arbitrary h must equal
        // applying their composition once.
        let a1 = m(1, 2, &[0.5, 0.25]);
        let b1 = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let a2 = m(1, 2, &[0.125, 2.0]);
        let b2 = m(2, 2, &[-1.0, 0.5, 7.0, -2.0]);
        let h = m(2, 2, &[5.0, -3.0, 0.5, 8.0]);

        let mut step1 = Matrix::zeros(2, 2);
        row_mul_add(&a1, &h, &b1, &mut step1);
        let mut step2 = Matrix::zeros(2, 2);
        row_mul_add(&a2, &step1, &b2, &mut step2);

        let mut ca = Matrix::zeros(1, 2);
        let mut cb = Matrix::zeros(2, 2);
        scan_combine(&a1, &b1, &a2, &b2, &mut ca, &mut cb);
        let mut once = Matrix::zeros(2, 2);
        row_mul_add(&ca, &h, &cb, &mut once);
        assert_eq!(once, step2);
    }

    #[test]
    fn scan_combine_is_associative() {
        let t = |s: u64| {
            (
                crate::init::uniform::<f64>(1, 3, 0.1, 0.9, s),
                crate::init::uniform::<f64>(2, 3, -1.0, 1.0, s + 50),
            )
        };
        let (a1, b1) = t(1);
        let (a2, b2) = t(2);
        let (a3, b3) = t(3);
        let combine = |x: &(Matrix<f64>, Matrix<f64>), y: &(Matrix<f64>, Matrix<f64>)| {
            let mut oa = Matrix::zeros(1, 3);
            let mut ob = Matrix::zeros(2, 3);
            scan_combine(&x.0, &x.1, &y.0, &y.1, &mut oa, &mut ob);
            (oa, ob)
        };
        let left = combine(
            &combine(&(a1.clone(), b1.clone()), &(a2.clone(), b2.clone())),
            &(a3.clone(), b3.clone()),
        );
        let right = combine(&(a1, b1), &combine(&(a2, b2), &(a3, b3)));
        for (l, r) in left.0.as_slice().iter().zip(right.0.as_slice()) {
            assert!((l - r).abs() < 1e-12);
        }
        for (l, r) in left.1.as_slice().iter().zip(right.1.as_slice()) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::<f64>::zeros(2, 3);
        let mut o = Matrix::<f64>::zeros(2, 2);
        add(&a, &b, &mut o);
    }
}
