//! The portable loops: fallback and test oracle.
//!
//! These generic loops *define* the arithmetic of every fused
//! multiply-add kernel in the crate: ascending `p`, one `mul_add` per
//! term, one accumulator flush into `C` per `KC` block (NT: one FMA chain
//! per element per block, then `c += alpha · s`). The dispatching entry
//! points in [`crate::gemm`] and [`crate::ops`] run them in three ways:
//!
//! * verbatim, on hosts without a detected vector unit (and under Miri);
//! * inlined into a wrapper per x86-64 tier (`avx512f` or `avx2,fma`),
//!   where `mul_add` lowers to `vfmadd` instead of a call to `fmaf` —
//!   `f64`, partial tiles and the ops with no hand-written kernel;
//! * as the oracle: hardware FMA and `fmaf` are both correctly rounded
//!   and the hand-written `f32` kernels keep this operation order, so
//!   every path must agree with these loops **bit for bit**. The public
//!   functions below exist so tests and benches can check exactly that.
//!
//! The `f32` gate non-linearities are defined here too, [`sigmoid_f32`] and
//! [`tanh_f32`]: straight-line polynomials with no fused multiply-add and
//! no libm call in them, so that their slice loops vectorise inside the
//! same wrapper and every lane width gives the bits of a scalar call.
//!
//! Every loop is `#[inline(always)]` so that it takes on the target
//! features of the wrapper it is inlined into.

use crate::activation::{dsigmoid_from_y, dtanh_from_y, Activation};
use crate::gemm::{checked, narrow, Op, KC, MC, MR, NR};
use crate::matrix::Matrix;
use crate::scalar::Float;
use crate::step::{
    GruBackward, GruForward, LstmBackward, LstmForward, Step, VanillaBackward, VanillaForward,
};
use std::hint::black_box;

/// `C = alpha * A * B + beta * C` through the portable loops only.
pub fn gemm<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    checked(Op::NN, alpha, a, b, beta, c, gemm_accum);
}

/// `C = alpha * A * Bᵀ + beta * C` through the portable loops only.
pub fn gemm_nt<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    checked(Op::NT, alpha, a, b, beta, c, |alpha, a, b, c, m, k, n| {
        gemm_nt_cols(alpha, a, b, c, m, k, n, 0)
    });
}

/// `C = alpha * Aᵀ * B + beta * C` through the portable loops only.
pub fn gemm_tn<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    checked(Op::TN, alpha, a, b, beta, c, gemm_tn_accum);
}

/// `y += alpha * x` through the portable loop only.
pub fn axpy<T: Float>(alpha: T, x: &Matrix<T>, y: &mut Matrix<T>) {
    assert_eq!(x.shape(), y.shape(), "axpy shape mismatch");
    axpy_slice(alpha, x.as_slice(), y.as_mut_slice());
}

/// `out += a ⊙ b` through the portable loop only.
pub fn hadamard_add<T: Float>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.shape(), b.shape(), "hadamard_add shape mismatch");
    assert_eq!(a.shape(), out.shape(), "hadamard_add out shape mismatch");
    hadamard_add_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// `out[r] = a ⊙ x[r] + y[r]` (`a` a `1 × cols` row) through the portable
/// loop only.
pub fn row_mul_add<T: Float>(a: &Matrix<T>, x: &Matrix<T>, y: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(a.shape(), (1, x.cols()), "row_mul_add: a must be 1 × cols");
    assert_eq!(x.shape(), y.shape(), "row_mul_add shape mismatch");
    assert_eq!(x.shape(), out.shape(), "row_mul_add out shape mismatch");
    let (rows, cols) = x.shape();
    row_mul_add_slice(
        a.as_slice(),
        x.as_slice(),
        y.as_slice(),
        out.as_mut_slice(),
        rows,
        cols,
    );
}

/// Dot product of the flattened matrices through the portable loop only.
pub fn dot<T: Float>(a: &Matrix<T>, b: &Matrix<T>) -> T {
    assert_eq!(a.shape(), b.shape(), "dot shape mismatch");
    dot_slice(a.as_slice(), b.as_slice())
}

/// `C += alpha * A * B` over raw slices, cache-blocked.
#[inline(always)]
pub(crate) fn gemm_accum<T: Float>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    // Loop order: block over k (stream panels of B through cache), then
    // block over m (keep a panel of A hot), then the register micro-kernel.
    for kk in (0..k).step_by(KC) {
        let kend = (kk + KC).min(k);
        for mm in (0..m).step_by(MC) {
            let mend = (mm + MC).min(m);
            for i0 in (mm..mend).step_by(MR) {
                let ilim = (i0 + MR).min(mend);
                for j0 in (0..n).step_by(NR) {
                    let jlim = (j0 + NR).min(n);
                    micro_kernel(alpha, a, k, b, c, i0, ilim, j0, jlim, kk, kend, n);
                }
            }
        }
    }
}

/// Register-tile inner kernel: updates `C[i0..ilim, j0..jlim]` with the
/// partial product over `k in [kk, kend)`. `lda` is the row stride of `a`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn micro_kernel<T: Float>(
    alpha: T,
    a: &[T],
    lda: usize,
    bs: &[T],
    c: &mut [T],
    i0: usize,
    ilim: usize,
    j0: usize,
    jlim: usize,
    kk: usize,
    kend: usize,
    n: usize,
) {
    // Accumulate in registers; MR*NR accumulators.
    let mut acc = [[T::ZERO; NR]; MR];
    for p in kk..kend {
        let brow = &bs[p * n + j0..p * n + jlim];
        for (di, i) in (i0..ilim).enumerate() {
            let aval = alpha * a[i * lda + p];
            let accr = &mut acc[di];
            for (dj, &bv) in brow.iter().enumerate() {
                accr[dj] = aval.mul_add(bv, accr[dj]);
            }
        }
    }
    for (di, i) in (i0..ilim).enumerate() {
        let crow = &mut c[i * n + j0..i * n + jlim];
        for (dj, cv) in crow.iter_mut().enumerate() {
            *cv += acc[di][dj];
        }
    }
}

/// Transposed-A variant of [`micro_kernel`]: `A` is stored `k×m`
/// (so element `(i, p)` of `Aᵀ` lives at `a[p * m + i]`). Identical
/// accumulation order otherwise.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn micro_kernel_t<T: Float>(
    alpha: T,
    a: &[T],
    m: usize,
    bs: &[T],
    c: &mut [T],
    i0: usize,
    ilim: usize,
    j0: usize,
    jlim: usize,
    kk: usize,
    kend: usize,
    n: usize,
) {
    let mut acc = [[T::ZERO; NR]; MR];
    for p in kk..kend {
        let brow = &bs[p * n + j0..p * n + jlim];
        for (di, i) in (i0..ilim).enumerate() {
            let aval = alpha * a[p * m + i];
            let accr = &mut acc[di];
            for (dj, &bv) in brow.iter().enumerate() {
                accr[dj] = aval.mul_add(bv, accr[dj]);
            }
        }
    }
    for (di, i) in (i0..ilim).enumerate() {
        let crow = &mut c[i * n + j0..i * n + jlim];
        for (dj, cv) in crow.iter_mut().enumerate() {
            *cv += acc[di][dj];
        }
    }
}

/// Columns `jlo..n` of `C += alpha * A * Bᵀ`, cache-blocked (`jlo = 0` is
/// the whole product; the vector kernel hands its ragged right edge here).
///
/// Each `C[i, j]` is a dot product of two contiguous rows; the tile loop
/// keeps an `MR`-row panel of `A` hot while streaming `NR` rows of `B`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gemm_nt_cols<T: Float>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    jlo: usize,
) {
    for kk in (0..k).step_by(KC) {
        let kend = (kk + KC).min(k);
        for mm in (0..m).step_by(MC) {
            let mend = (mm + MC).min(m);
            for i0 in (mm..mend).step_by(MR) {
                let ilim = (i0 + MR).min(mend);
                for j0 in (jlo..n).step_by(NR) {
                    let jlim = (j0 + NR).min(n);
                    for i in i0..ilim {
                        let arow = &a[i * k + kk..i * k + kend];
                        for j in j0..jlim {
                            let brow = &b[j * k + kk..j * k + kend];
                            let mut s = T::ZERO;
                            for (&av, &bv) in arow.iter().zip(brow) {
                                s = av.mul_add(bv, s);
                            }
                            c[i * n + j] += alpha * s;
                        }
                    }
                }
            }
        }
    }
}

/// `C += alpha * Aᵀ * B` over raw slices (`a` stored `k×m`): the blocked
/// tile loop of [`gemm_accum`] over [`micro_kernel_t`].
#[inline(always)]
pub(crate) fn gemm_tn_accum<T: Float>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    for kk in (0..k).step_by(KC) {
        let kend = (kk + KC).min(k);
        for mm in (0..m).step_by(MC) {
            let mend = (mm + MC).min(m);
            for i0 in (mm..mend).step_by(MR) {
                let ilim = (i0 + MR).min(mend);
                for j0 in (0..n).step_by(NR) {
                    let jlim = (j0 + NR).min(n);
                    micro_kernel_t(alpha, a, m, b, c, i0, ilim, j0, jlim, kk, kend, n);
                }
            }
        }
    }
}

/// One row of a narrow product (`n < 2·NR` columns, one `KC` block): the
/// chain `s[j] = fma(alpha · A[p], B[p, j], s[j])` per column, `p`
/// ascending from zero, with `A[p]` at `a[p * cs]` and `B` `k×n`, as in
/// [`micro_kernel`]. The columns go in groups of 8, 4, 2 and 1, each group
/// a constant width so that its accumulators stay in registers; every
/// column is its own chain, so the grouping changes no bit.
#[inline(always)]
fn row_chains<T: Float>(alpha: T, a: &[T], cs: usize, b: &[T], k: usize, n: usize) -> [T; 2 * NR] {
    let mut acc = [T::ZERO; 2 * NR];
    let mut j0 = 0;
    if n - j0 >= 8 {
        lane_chains::<T, 8>(alpha, a, cs, b, k, n, j0, &mut acc);
        j0 += 8;
    }
    if n - j0 >= 4 {
        lane_chains::<T, 4>(alpha, a, cs, b, k, n, j0, &mut acc);
        j0 += 4;
    }
    if n - j0 >= 2 {
        lane_chains::<T, 2>(alpha, a, cs, b, k, n, j0, &mut acc);
        j0 += 2;
    }
    if n - j0 >= 1 {
        lane_chains::<T, 1>(alpha, a, cs, b, k, n, j0, &mut acc);
    }
    acc
}

/// Columns `j0..j0 + W` of [`row_chains`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn lane_chains<T: Float, const W: usize>(
    alpha: T,
    a: &[T],
    cs: usize,
    b: &[T],
    k: usize,
    n: usize,
    j0: usize,
    acc: &mut [T; 2 * NR],
) {
    let mut lanes = [T::ZERO; W];
    for p in 0..k {
        let av = alpha * a[p * cs];
        for (s, &bv) in lanes.iter_mut().zip(&b[p * n + j0..p * n + j0 + W]) {
            *s = av.mul_add(bv, *s);
        }
    }
    acc[j0..j0 + W].copy_from_slice(&lanes);
}

/// `C += alpha · A · B` (or `Aᵀ · B` with `A` stored `k×m` when `TRANS_A`)
/// for a narrow product ([`crate::gemm::narrow`]): [`row_chains`] per row
/// of `C`, flushed once — [`gemm_accum`]'s / [`gemm_tn_accum`]'s
/// operation sequence per element without the blocked nest.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gemm_rows<T: Float, const TRANS_A: bool>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    // `A[i, p]` lives at `a[i * rs + p * cs]`.
    let (rs, cs) = if TRANS_A { (1, m) } else { (k, 1) };
    for i in 0..m {
        let acc = row_chains(alpha, &a[i * rs..], cs, b, k, n);
        for (cv, accv) in c[i * n..(i + 1) * n].iter_mut().zip(acc) {
            *cv += accv;
        }
    }
}

/// `C = act(A · W + b)` for a narrow product, one pass per row: the row's
/// FMA chains, `0 + acc` (the zero-filled `C` the blocked route
/// accumulates into, which turns a `−0` into `+0`), `+ b[j]`, then the
/// activation per element — the blocked route's `gemm → add_bias →
/// activation` sequence, so its bits.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn affine_rows<T: Float>(
    act: Activation,
    a: &[T],
    w: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    // One copy of the row loop per activation, `act` a constant in each.
    match act {
        Activation::Identity => affine_rows_as(Activation::Identity, a, w, b, c, m, k, n),
        Activation::Sigmoid => affine_rows_as(Activation::Sigmoid, a, w, b, c, m, k, n),
        Activation::Tanh => affine_rows_as(Activation::Tanh, a, w, b, c, m, k, n),
        Activation::LstmGates => affine_rows_as(Activation::LstmGates, a, w, b, c, m, k, n),
    }
}

/// The body of [`affine_rows`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn affine_rows_as<T: Float>(
    act: Activation,
    a: &[T],
    w: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let acc = affine_row(act, &a[i * k..], w, b, k, n);
        c[i * n..(i + 1) * n].copy_from_slice(&acc[..n]);
    }
}

/// One row of [`affine_rows`] in registers: the row's FMA chains, `0 +
/// acc + b[j]`, then `act` over the lanes (lanes past `n` are scratch).
#[inline(always)]
fn affine_row<T: Float>(
    act: Activation,
    a: &[T],
    w: &[T],
    b: &[T],
    k: usize,
    n: usize,
) -> [T; 2 * NR] {
    let mut acc = row_chains(T::ONE, a, 1, w, k, n);
    for (v, &bv) in acc.iter_mut().zip(&b[..n]) {
        *v = (T::ZERO + *v) + bv;
    }
    act.apply_lanes(&mut acc, n);
    acc
}

/// `db[j] += Σ_r dG[r, j]` over a `rows × n` block: per column a sum from
/// zero, `r` ascending, then one add into `db` — the bits of
/// `column_sums_into` followed by `axpy(1, ·, db)` (`fma(1, s, d)` and
/// `d + s` are the same correctly rounded sum). Columns go in blocks of
/// `2·NR` so the block's sums stay in registers while the rows stream by.
#[inline(always)]
pub(crate) fn column_sums_add<T: Float>(dg: &[T], db: &mut [T], rows: usize, n: usize) {
    for j0 in (0..n).step_by(2 * NR) {
        let w = (n - j0).min(2 * NR);
        let mut acc = [T::ZERO; 2 * NR];
        for r in 0..rows {
            for (s, &v) in acc.iter_mut().zip(&dg[r * n + j0..r * n + j0 + w]) {
                *s += v;
            }
        }
        for (d, &s) in db[j0..j0 + w].iter_mut().zip(&acc) {
            *d += s;
        }
    }
}

/// One narrow cell step ([`crate::step`]), one pass per row; the body of
/// [`crate::Backend::step`] under every backend and tier. The hidden width
/// becomes a constant of the kernel (the narrow route bounds it: LSTM
/// `h ≤ 3`, GRU `h ≤ 7`, vanilla `h ≤ 15`), so every row loop has a fixed
/// trip count and unrolls; the input width stays a run-time loop bound.
#[inline(always)]
pub(crate) fn step<T: Float>(step: Step<'_, T>) {
    /// `$kernel::<T, H>($s)` with `H = $h`, one arm per width in the list.
    macro_rules! by_width {
        ($kernel:ident($s:expr), $h:expr, [$($w:literal),*]) => {
            match $h {
                $($w => $kernel::<T, $w>($s),)*
                h => panic!("step: no narrow step at hidden width {h}"),
            }
        };
    }
    match step {
        Step::LstmForward(s) => by_width!(lstm_forward(s), s.h_prev.cols(), [0, 1, 2, 3]),
        Step::LstmBackward(s) => by_width!(lstm_backward(s), s.dh.cols(), [0, 1, 2, 3]),
        Step::GruForward(s) => {
            by_width!(gru_forward(s), s.h_prev.cols(), [0, 1, 2, 3, 4, 5, 6, 7])
        }
        Step::GruBackward(s) => by_width!(gru_backward(s), s.dh.cols(), [0, 1, 2, 3, 4, 5, 6, 7]),
        Step::VanillaForward(s) => by_width!(
            vanilla_forward(s),
            s.h_prev.cols(),
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        ),
        Step::VanillaBackward(s) => by_width!(
            vanilla_backward(s),
            s.dh.cols(),
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        ),
    }
}

/// A step's widest gate product (`k` deep, `n` wide) must take the narrow
/// route: its row values live in `2·NR` lanes.
#[inline(always)]
fn assert_narrow(k: usize, n: usize) {
    assert!(narrow(k, n), "step: a {k}x{n} gate product is not narrow");
}

/// `dst = [x, h]`, one row of `Matrix::hstack_into`.
#[inline(always)]
fn concat_row<T: Float>(dst: &mut [T], x: &[T], h: &[T]) {
    let (dx, dh) = dst.split_at_mut(x.len());
    copy_row(dx, x);
    dh.copy_from_slice(h);
}

/// `dst = src` for a row whose length is only known at run time, in
/// blocks of four and a tail of up to three: a step's input row is a few
/// elements, where a call to `memcpy` costs more than the copy.
#[inline(always)]
fn copy_row<T: Float>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "step: row widths differ");
    let ((db, dt), (sb, st)) = (dst.as_chunks_mut::<4>(), src.as_chunks::<4>());
    for (d, s) in db.iter_mut().zip(sb) {
        *d = *s;
    }
    for (j, d) in dt.iter_mut().enumerate() {
        *d = st[j];
    }
}

/// `dz = dG · Wᵀ` for one row of `dG` (`n` wide, `W` `k × n`), split into
/// its first `dx.len()` columns and the rest: per column the NT chain from
/// zero, `j` ascending, added to the zero `gemm_nt(1, dG, W, 0, dz)`
/// starts from, then (with `ADD`) added into what `dx`/`dh` hold.
#[inline(always)]
fn input_grad_row<T: Float, const ADD: bool>(
    dg: &[T],
    w: &[T],
    n: usize,
    dx: &mut [T],
    dh: &mut [T],
) {
    for (p, d) in dx.iter_mut().chain(dh.iter_mut()).enumerate() {
        let v = T::ZERO + dot_slice(&dg[..n], &w[p * n..(p + 1) * n]);
        *d = if ADD { *d + v } else { v };
    }
}

/// `dW += zᵀ · dG` and `db += Σ_rows dG` over `rows` rows (`z` `rows × k`,
/// `dG` `rows × n`): the TN row chains from zero, flushed into `dW` once
/// per `KC` rows as the blocked route does (rows ≤ `KC` is one flush, the
/// narrow route's), then [`column_sums_add`].
#[inline(always)]
fn weight_grads<T: Float>(
    z: &[T],
    dg: &[T],
    dw: &mut [T],
    db: &mut [T],
    rows: usize,
    k: usize,
    n: usize,
) {
    for r0 in (0..rows).step_by(KC) {
        let r1 = (r0 + KC).min(rows);
        let (zb, dgb) = (&z[r0 * k..r1 * k], &dg[r0 * n..r1 * n]);
        gemm_rows::<T, true>(T::ONE, zb, dgb, dw, k, r1 - r0, n);
    }
    column_sums_add(dg, db, rows, n);
}

/// A narrow LSTM step forward, one pass per row: `[X_t, H_{t-1}]`, the
/// gate row ([`affine_row`]), then Eqs. (5)–(6) in the cells' order.
#[inline(always)]
fn lstm_forward<T: Float, const H: usize>(s: LstmForward<'_, T>) {
    let (rows, input, h) = (s.x.rows(), s.x.cols(), H);
    assert_narrow(input + h, 4 * h);
    let (w, b) = (s.w.as_slice(), s.b.as_slice());
    for r in 0..rows {
        let (hp, cp) = (s.h_prev.row(r), s.c_prev.row(r));
        let z = s.z.row_mut(r);
        concat_row(z, s.x.row(r), hp);
        let g = affine_row(Activation::LstmGates, z, w, b, input + h, 4 * h);
        s.gates.row_mut(r).copy_from_slice(&g[..4 * h]);
        let (c, mut tc) = (s.c.row_mut(r), [T::ZERO; NR]);
        for j in 0..h {
            c[j] = g[h + j] * cp[j] + g[j] * g[2 * h + j];
            tc[j] = c[j];
        }
        tanh_slice(&mut tc);
        s.tanh_c.row_mut(r).copy_from_slice(&tc[..h]);
        for (j, out) in s.h.row_mut(r).iter_mut().enumerate() {
            *out = g[3 * h + j] * tc[j];
        }
        s.c_prev_copy.row_mut(r).copy_from_slice(cp);
    }
}

/// A narrow LSTM step backward: per row [`lstm_gate_grads`] into
/// `scratch` and `dC_{t-1}`, and `dG · Wᵀ` into `dX`, `dH_{t-1}`; then the
/// weight and bias gradients over all rows.
#[inline(always)]
fn lstm_backward<T: Float, const H: usize>(s: LstmBackward<'_, T>) {
    let (rows, h) = (s.dh.rows(), H);
    let (k, n, w) = (s.z.cols(), 4 * h, s.w.as_slice());
    assert_narrow(k, n);
    let dg = &mut s.scratch[..rows * n];
    for r in 0..rows {
        let rows_r = [
            s.gates.row(r),
            s.tanh_c.row(r),
            s.c_prev.row(r),
            s.dh.row(r),
        ];
        let (dgr, dcp) = (&mut dg[r * n..(r + 1) * n], s.dc_prev.row_mut(r));
        match s.rec {
            Some((rh, rc)) => lstm_gate_grads::<T, true>(h, rows_r, rh.row(r), rc.row(r), dgr, dcp),
            None => lstm_gate_grads::<T, false>(h, rows_r, &[], &[], dgr, dcp),
        }
        input_grad_row::<T, false>(dgr, w, n, s.dx.row_mut(r), s.dh_prev.row_mut(r));
    }
    let (dw, db) = (s.dw.as_mut_slice(), s.db.as_mut_slice());
    weight_grads(s.z.as_slice(), dg, dw, db, rows, k, n);
}

/// A narrow GRU step forward, one pass per row: `[X_t, H_{t-1}]`, the z/r
/// row, `[X_t, R ⊙ H_{t-1}]`, the candidate row, then Eq. (10).
#[inline(always)]
fn gru_forward<T: Float, const H: usize>(s: GruForward<'_, T>) {
    let (rows, input, h) = (s.x.rows(), s.x.cols(), H);
    assert_narrow(input + h, 2 * h);
    let (wzr, bzr) = (s.wzr.as_slice(), s.bzr.as_slice());
    let (wh, bh) = (s.wh.as_slice(), s.bh.as_slice());
    for r in 0..rows {
        let (x, hp) = (s.x.row(r), s.h_prev.row(r));
        let zi = s.zr_in.row_mut(r);
        concat_row(zi, x, hp);
        let (hx, hr) = s.h_in.row_mut(r).split_at_mut(input);
        copy_row(hx, x);
        let g = affine_row(Activation::Sigmoid, zi, wzr, bzr, input + h, 2 * h);
        s.zr.row_mut(r).copy_from_slice(&g[..2 * h]);
        for j in 0..h {
            hr[j] = g[h + j] * hp[j];
        }
        let c = affine_row(Activation::Tanh, s.h_in.row(r), wh, bh, input + h, h);
        s.hbar.row_mut(r).copy_from_slice(&c[..h]);
        for (j, out) in s.h.row_mut(r).iter_mut().enumerate() {
            *out = g[j] * c[j] + (T::ONE - g[j]) * hp[j];
        }
        s.h_prev_copy.row_mut(r).copy_from_slice(hp);
    }
}

/// A narrow GRU step backward: per row [`gru_update_grads`], the
/// candidate's `dH̄ · W_hᵀ` into `dX` and `d(R ⊙ H_{t-1})`, the reset
/// gate's gradient, and the z/r product's `[dZ, dR] · W_zrᵀ` added into
/// `dX` and `dH_{t-1}`; then both products' weight and bias gradients over
/// all rows.
#[inline(always)]
fn gru_backward<T: Float, const H: usize>(s: GruBackward<'_, T>) {
    let (rows, h) = (s.dh.rows(), H);
    let k = s.zr_in.cols();
    assert_narrow(k, 2 * h);
    let (wzr, wh) = (s.wzr.as_slice(), s.wh.as_slice());
    let (dzr, rest) = s.scratch.split_at_mut(rows * 2 * h);
    let dhbar = &mut rest[..rows * h];
    for r in 0..rows {
        let (zr, hp) = (s.zr.row(r), s.h_prev.row(r));
        let rows_r = [zr, s.hbar.row(r), hp, s.dh.row(r)];
        let (dzr_r, dhb) = (
            &mut dzr[r * 2 * h..(r + 1) * 2 * h],
            &mut dhbar[r * h..(r + 1) * h],
        );
        let (dp, dx) = (s.dh_prev.row_mut(r), s.dx.row_mut(r));
        match s.rec {
            Some(rec) => gru_update_grads::<T, true>(h, rows_r, rec.row(r), dp, dhb, dzr_r),
            None => gru_update_grads::<T, false>(h, rows_r, &[], dp, dhb, dzr_r),
        }
        let mut drh = [T::ZERO; 2 * NR];
        input_grad_row::<T, false>(dhb, wh, h, dx, &mut drh[..h]);
        let rs = &zr[h..2 * h];
        for j in 0..h {
            dzr_r[h + j] = drh[j] * hp[j] * dsigmoid_from_y(rs[j]);
            dp[j] += drh[j] * rs[j];
        }
        input_grad_row::<T, true>(dzr_r, wzr, 2 * h, dx, dp);
    }
    let (dw, db) = (s.dwh.as_mut_slice(), s.dbh.as_mut_slice());
    weight_grads(s.h_in.as_slice(), dhbar, dw, db, rows, k, h);
    let (dw, db) = (s.dwzr.as_mut_slice(), s.dbzr.as_mut_slice());
    weight_grads(s.zr_in.as_slice(), dzr, dw, db, rows, k, 2 * h);
}

/// A narrow vanilla step forward, one pass per row: `[X_t, H_{t-1}]` and
/// the tanh row, written to the cache and the state.
#[inline(always)]
fn vanilla_forward<T: Float, const H: usize>(s: VanillaForward<'_, T>) {
    let (rows, input, h) = (s.x.rows(), s.x.cols(), H);
    assert_narrow(input + h, h);
    let (w, b) = (s.w.as_slice(), s.b.as_slice());
    for r in 0..rows {
        let z = s.z.row_mut(r);
        concat_row(z, s.x.row(r), s.h_prev.row(r));
        let a = affine_row(Activation::Tanh, z, w, b, input + h, h);
        s.h_copy.row_mut(r).copy_from_slice(&a[..h]);
        s.h.row_mut(r).copy_from_slice(&a[..h]);
    }
}

/// A narrow vanilla step backward: per row [`tanh_pre_grads`] into
/// `scratch` and `dpre · Wᵀ` into `dX`, `dH_{t-1}`; then the weight and
/// bias gradients over all rows.
#[inline(always)]
fn vanilla_backward<T: Float, const H: usize>(s: VanillaBackward<'_, T>) {
    let (rows, h) = (s.dh.rows(), H);
    let (k, w) = (s.z.cols(), s.w.as_slice());
    assert_narrow(k, h);
    let dpre = &mut s.scratch[..rows * h];
    for r in 0..rows {
        let (dh, ys, d) = (s.dh.row(r), s.h.row(r), &mut dpre[r * h..(r + 1) * h]);
        match s.rec {
            Some(rec) => tanh_pre_grads::<T, true>(dh, rec.row(r), ys, d),
            None => tanh_pre_grads::<T, false>(dh, &[], ys, d),
        }
        input_grad_row::<T, false>(d, w, h, s.dx.row_mut(r), s.dh_prev.row_mut(r));
    }
    let (dw, db) = (s.dw.as_mut_slice(), s.db.as_mut_slice());
    weight_grads(s.z.as_slice(), dpre, dw, db, rows, k, h);
}

/// One batch row of the LSTM gate gradients through Eqs. (5)–(6), into
/// `dgates` (`[di, df, dg, do]`) and `dcp` (`dC_{t-1}`), from `rows` = the
/// gate activations `[i, f, g, o]`, `tanh(C_t)`, `C_{t-1}` and the upstream
/// `dH_t`. `REC` says whether a recurrent `dH`/`dC` from cell t+1 is added
/// in (`rec_h`, `rec_c`; empty otherwise): a constant, so the element loop
/// has no branch in it and vectorises. Every slice is cut to its `h`-wide
/// block first, so the compiler needs no bounds check in the loop. Per
/// element, the operations and their order are those of the per-element
/// formula.
#[inline(always)]
pub fn lstm_gate_grads<T: Float, const REC: bool>(
    h: usize,
    rows: [&[T]; 4],
    rec_h: &[T],
    rec_c: &[T],
    dgates: &mut [T],
    dcp: &mut [T],
) {
    let [gates, tc, cp, dh] = rows;
    let (gi, rest) = gates[..4 * h].split_at(h);
    let (gf, rest) = rest.split_at(h);
    let (gg, go) = rest.split_at(h);
    let (tc, cp, dh) = (&tc[..h], &cp[..h], &dh[..h]);
    let (rec_h, rec_c) = if REC {
        (&rec_h[..h], &rec_c[..h])
    } else {
        (rec_h, rec_c)
    };
    let (di, rest) = dgates[..4 * h].split_at_mut(h);
    let (df, rest) = rest.split_at_mut(h);
    let (dg, do_) = rest.split_at_mut(h);
    let dcp = &mut dcp[..h];
    for j in 0..h {
        let dht = if REC { dh[j] + rec_h[j] } else { dh[j] };
        // dC_t = dH ⊙ o ⊙ tanh'(C) + recurrent dC.
        let mut dc = dht * go[j] * dtanh_from_y(tc[j]);
        if REC {
            dc += rec_c[j];
        }
        // Gate gradients through Eqs. (5)-(6).
        di[j] = dc * gg[j] * dsigmoid_from_y(gi[j]);
        df[j] = dc * cp[j] * dsigmoid_from_y(gf[j]);
        dg[j] = dc * gi[j] * dtanh_from_y(gg[j]);
        do_[j] = dht * tc[j] * dsigmoid_from_y(go[j]);
        dcp[j] = dc * gf[j];
    }
}

/// One batch row of the first GRU backward pass through Eq. (10): the
/// `(1-Z)` path into `dH_{t-1}` (`dp`), the candidate's pre-tanh gradient
/// (`dhb`) and the update gate's pre-σ gradient (`dz`, the first `h` of
/// the `[dZ, dR]` row), from `rows` = `[Z, R]`, `H̄`, `H_{t-1}` and the
/// upstream `dH_t`. `REC` says whether a recurrent `dH` from cell t+1
/// (`rec`, empty otherwise) is added in: a constant, so the element loop
/// has no branch in it and vectorises. Per element, the operations and
/// their order are those of the per-element formula.
#[inline(always)]
pub fn gru_update_grads<T: Float, const REC: bool>(
    h: usize,
    rows: [&[T]; 4],
    rec: &[T],
    dp: &mut [T],
    dhb: &mut [T],
    dz: &mut [T],
) {
    let [zs, hb, hp, dh] = rows.map(|r| &r[..h]);
    let rec = if REC { &rec[..h] } else { rec };
    let (dp, dhb, dz) = (&mut dp[..h], &mut dhb[..h], &mut dz[..h]);
    for j in 0..h {
        let dht = if REC { dh[j] + rec[j] } else { dh[j] };
        dp[j] = dht * (T::ONE - zs[j]);
        dhb[j] = dht * zs[j] * dtanh_from_y(hb[j]);
        dz[j] = dht * (hb[j] - hp[j]) * dsigmoid_from_y(zs[j]);
    }
}

/// `out = (dH_t + recurrent dH) ⊙ tanh'(H_t)` element by element, from the
/// upstream `dh`, the recurrent `rec` (added only when `REC`; empty
/// otherwise) and the cell outputs `ys` — the vanilla cell's pre-tanh
/// gradient. `REC` is a constant, so the loop has no branch in it and
/// vectorises.
#[inline(always)]
pub fn tanh_pre_grads<T: Float, const REC: bool>(dh: &[T], rec: &[T], ys: &[T], out: &mut [T]) {
    let n = out.len();
    let (dh, ys) = (&dh[..n], &ys[..n]);
    let rec = if REC { &rec[..n] } else { rec };
    for i in 0..n {
        let dht = if REC { dh[i] + rec[i] } else { dh[i] };
        out[i] = dht * dtanh_from_y(ys[i]);
    }
}

/// `y += alpha * x`, one `mul_add` per element.
#[inline(always)]
pub(crate) fn axpy_slice<T: Float>(alpha: T, x: &[T], y: &mut [T]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = alpha.mul_add(xv, *yv);
    }
}

/// `out += a ⊙ b`, one `mul_add` per element.
#[inline(always)]
pub(crate) fn hadamard_add_slice<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x.mul_add(y, *o);
    }
}

/// `out[r] = a ⊙ x[r] + y[r]`, one `mul_add` per element.
#[inline(always)]
pub(crate) fn row_mul_add_slice<T: Float>(
    a: &[T],
    x: &[T],
    y: &[T],
    out: &mut [T],
    rows: usize,
    cols: usize,
) {
    for r in 0..rows {
        let xs = &x[r * cols..(r + 1) * cols];
        let ys = &y[r * cols..(r + 1) * cols];
        let os = &mut out[r * cols..(r + 1) * cols];
        for (((o, &av), &xv), &yv) in os.iter_mut().zip(a).zip(xs).zip(ys) {
            *o = av.mul_add(xv, yv);
        }
    }
}

/// `Σ a[i]·b[i]` as one ascending `mul_add` chain.
#[inline(always)]
pub(crate) fn dot_slice<T: Float>(a: &[T], b: &[T]) -> T {
    let mut s = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        s = x.mul_add(y, s);
    }
    s
}

/// Horner evaluation, highest coefficient first, as separate multiplies and
/// adds (see [`exp_f32`] for why not `mul_add`).
#[inline(always)]
fn horner<const N: usize>(x: f32, coeffs: [f32; N]) -> f32 {
    let mut p = coeffs[0];
    for c in &coeffs[1..] {
        p = p * x + c;
    }
    p
}

/// `e^x` for `x` clamped to `[-87, 87]` (results stay normal, `2ⁿ` stays
/// representable): Cephes `expf` without its branches. `n = round(x·log₂e)`
/// falls out of adding 1.5·2²³, `r = x − n·ln 2` is taken in two pieces
/// (`LN2_HI` has nine significant bits, so `n · LN2_HI` is exact), a degree-5 polynomial gives `e^r`, and `2ⁿ` is
/// the low bits of the magic sum moved into the exponent field.
///
/// Like [`sigmoid_f32`] and [`tanh_f32`] this is IEEE `+ − × ÷`, selects
/// and integer bit operations only — no `mul_add` (a call to `fmaf` per
/// term in a build without `+fma`), no rounding intrinsic, no libm — so a
/// scalar call and the SSE2, AVX2 and AVX-512 loops of the same source give
/// the same bits.
#[inline(always)]
fn exp_f32(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // NaN fails both comparisons and flows through to the product below.
    let x = if x > 87.0 { 87.0 } else { x };
    let x = if x < -87.0 { -87.0 } else { x };
    let t = x * std::f32::consts::LOG2_E + MAGIC;
    let n = t - MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let taylor = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_6e-1,
        5.0e-1,
    ];
    let p = horner(r, taylor);
    let two_n = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3f80_0000));
    (p * (r * r) + r + 1.0) * two_n
}

/// The one `f32` logistic sigmoid, `1 / (1 + e^-x)`: straight-line and
/// branch-free (see [`exp_f32`]), ≤ 3 ULP from the exact value on
/// `[-20, 20]`, monotone, inside `[0, 1]`, `0.5` at zero, NaN for NaN.
/// `<f32 as Float>::sigmoid` is this function.
#[inline(always)]
pub fn sigmoid_f32(x: f32) -> f32 {
    1.0 / (1.0 + exp_f32(-x))
}

/// The one `f32` tanh (Cephes `tanhf`, both branches computed and one
/// selected): an odd polynomial below 0.625, `1 − 2 / (e^{2|x|} + 1)` above,
/// evaluated on `|x|` with the sign bit or-ed back, so it is exactly odd
/// and keeps `±0`. ≤ 2 ULP from the exact value, monotone, inside
/// `[-1, 1]`, NaN for NaN. `<f32 as Float>::tanh` is this function.
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    let sign = x.to_bits() & 0x8000_0000;
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let z = ax * ax;
    let odd = [
        -5.704_988_7e-3,
        2.063_908_8e-2,
        -5.373_971_5e-2,
        1.333_144_2e-1,
        -3.333_328e-1,
    ];
    let small = horner(z, odd) * z * ax + ax;
    let large = 1.0 - 2.0 / (exp_f32(2.0 * ax) + 1.0);
    let y = if ax < 0.625 { small } else { large };
    f32::from_bits(y.to_bits() | sign)
}

/// `m[i] = σ(m[i])`, one [`Float::sigmoid`] per element; for `f32` the
/// straight-line body above, which the compiler vectorises.
#[inline(always)]
pub(crate) fn sigmoid_slice<T: Float>(m: &mut [T]) {
    map_blocks(m, T::sigmoid);
}

/// `m[i] = tanh(m[i])`; see [`sigmoid_slice`].
#[inline(always)]
pub(crate) fn tanh_slice<T: Float>(m: &mut [T]) {
    map_blocks(m, T::tanh);
}

/// `m[i] = f(m[i])` in blocks of `2·NR` elements, then one of `NR`, then
/// one element at a time. A block is a loop of constant length, which the
/// compiler turns into whole registers at any width (one `zmm` or two
/// `ymm` for `2·NR`), so a short slice or the tail past the last full
/// `zmm` still runs as vector code. Each element is one `f` call either
/// way.
#[inline(always)]
fn map_blocks<T: Float>(m: &mut [T], f: impl Fn(T) -> T) {
    let (blocks, rest) = m.as_chunks_mut::<{ 2 * NR }>();
    for v in blocks.as_flattened_mut() {
        *v = f(*v);
    }
    let (blocks, rest) = rest.as_chunks_mut::<NR>();
    for block in blocks {
        for v in block {
            *v = f(*v);
        }
    }
    for v in rest {
        *v = f(*v);
    }
}

/// Lanes × independent chains of [`fma_chains`] at eight lanes: ten
/// accumulators cover the FMA units' latency × width on every current
/// x86-64 and aarch64 core while still fitting the register file. A tier
/// with wider registers runs ten of those (`x86::avx512::CHAIN_LANES`).
pub(crate) const CHAIN_LANES: usize = 8 * 10;

/// `iters` rounds of `LANES` independent `v = x·v + y` updates that never
/// leave the registers; see [`crate::gemm::fma_chains`]. The operands are
/// opaque to the optimiser and keep every `v` near 1.
#[inline(always)]
pub(crate) fn fma_chains<const LANES: usize>(iters: usize) -> f32 {
    let (x, y) = (black_box(0.999_999f32), black_box(1e-6f32));
    let mut acc = [y; LANES];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = x.mul_add(*v, y);
        }
    }
    acc.iter().sum()
}

#[cfg(test)]
mod tests {
    //! Dispatched kernels against the portable loops, bit for bit. Under
    //! Miri feature detection is off, so this also runs the portable loops
    //! themselves (and their slice indexing) through the interpreter.

    use super::*;
    use crate::init;

    fn assert_bits<T: Float>(got: &Matrix<T>, want: &Matrix<T>, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                x.to_f64().to_bits(),
                y.to_f64().to_bits(),
                "{what}: element {i}: {x} vs {y}"
            );
        }
    }

    /// One `(m, k, n, alpha, beta)` case of all three GEMMs in precision `T`.
    fn gemm_case<T: Float>(m: usize, k: usize, n: usize, alpha: f64, beta: f64) {
        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
        let what = format!("{m}x{k}x{n} alpha={alpha} beta={beta}");
        let a: Matrix<T> = init::uniform(m, k, -1.0, 1.0, 1);
        let b: Matrix<T> = init::uniform(k, n, -1.0, 1.0, 2);
        let c0: Matrix<T> = init::uniform(m, n, -1.0, 1.0, 3);

        let (mut got, mut want) = (c0.clone(), c0.clone());
        crate::gemm(alpha, &a, &b, beta, &mut got);
        gemm(alpha, &a, &b, beta, &mut want);
        assert_bits(&got, &want, &format!("nn {what}"));

        let (mut got, mut want) = (c0.clone(), c0.clone());
        crate::gemm_nt(alpha, &a, &b.transposed(), beta, &mut got);
        gemm_nt(alpha, &a, &b.transposed(), beta, &mut want);
        assert_bits(&got, &want, &format!("nt {what}"));

        let (mut got, mut want) = (c0.clone(), c0);
        crate::gemm_tn(alpha, &a.transposed(), &b, beta, &mut got);
        gemm_tn(alpha, &a.transposed(), &b, beta, &mut want);
        assert_bits(&got, &want, &format!("tn {what}"));
    }

    /// Partial tiles in `m` and `n`, `n < NR`, `k` on both sides of `KC`
    /// and of the 8-wide pack transpose, `alpha != 1`, `beta ∉ {0, 1}`.
    #[test]
    fn gemms_match_the_portable_loops_bitwise() {
        // Miri runs the portable loops on both sides; keep it to the
        // shapes that reach every branch once.
        let ks: &[usize] = if cfg!(miri) {
            &[3, 257]
        } else {
            &[1, 7, 8, 9, 255, 256, 257, 600]
        };
        for &k in ks {
            for &(m, n) in &[(1, 1), (1, 6), (3, 8), (4, 17), (5, 24), (9, 40)] {
                gemm_case::<f32>(m, k, n, 1.0, 0.0);
                gemm_case::<f32>(m, k, n, -0.75, 0.5);
                gemm_case::<f64>(m, k, n, 1.25, 1.0);
            }
        }
        if !cfg!(miri) {
            // Crosses the MC row block.
            gemm_case::<f32>(70, 33, 19, 0.5, 1.0);
        }
    }

    #[test]
    fn fused_elementwise_ops_match_the_portable_loops_bitwise() {
        fn case<T: Float>(rows: usize, cols: usize) {
            let a: Matrix<T> = init::uniform(rows, cols, -1.0, 1.0, 4);
            let b: Matrix<T> = init::uniform(rows, cols, -1.0, 1.0, 5);
            let y0: Matrix<T> = init::uniform(rows, cols, -1.0, 1.0, 6);
            let lam: Matrix<T> = init::uniform(1, cols, -1.0, 1.0, 7);
            let alpha = T::from_f64(-0.3);

            let (mut got, mut want) = (y0.clone(), y0.clone());
            crate::ops::axpy(alpha, &a, &mut got);
            axpy(alpha, &a, &mut want);
            assert_bits(&got, &want, "axpy");

            let (mut got, mut want) = (y0.clone(), y0.clone());
            crate::ops::hadamard_add(&a, &b, &mut got);
            hadamard_add(&a, &b, &mut want);
            assert_bits(&got, &want, "hadamard_add");

            let (mut got, mut want) = (y0.clone(), y0);
            crate::ops::row_mul_add(&lam, &a, &b, &mut got);
            row_mul_add(&lam, &a, &b, &mut want);
            assert_bits(&got, &want, "row_mul_add");

            assert_eq!(
                crate::ops::dot(&a, &b).to_f64().to_bits(),
                dot(&a, &b).to_f64().to_bits(),
                "dot"
            );
        }
        // Below, at and past one vector register, with a ragged tail.
        for &(rows, cols) in &[(1, 1), (1, 7), (2, 8), (3, 13), (5, 48)] {
            case::<f32>(rows, cols);
            case::<f64>(rows, cols);
        }
    }

    /// Distance from the exact value in units of the `f32` spacing there.
    fn ulps(got: f32, exact: f64) -> f64 {
        let near = (exact as f32).abs().max(f32::MIN_POSITIVE);
        let spacing = f64::from(f32::from_bits(near.to_bits() + 1)) - f64::from(near);
        (f64::from(got) - exact).abs() / spacing
    }

    /// The inputs of the two activation tests, ascending: a dense grid on
    /// [-20, 20] (coarse under Miri) and the magnitudes where a branch of
    /// the original Cephes code, a clamp or a rounding boundary sits.
    fn activation_inputs() -> Vec<f32> {
        let steps: i32 = if cfg!(miri) { 160 } else { 20 * 4096 };
        let edges = [
            0.0,
            1e-30,
            1e-6,
            0.6249,
            0.625,
            9.0,
            20.0,
            88.0,
            89.0,
            1e30,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
        ];
        let mut xs: Vec<f32> = (-steps..=steps)
            .map(|i| i as f32 * (20.0 / steps as f32))
            .chain(edges.into_iter().flat_map(|x| [x, -x]))
            .collect();
        xs.sort_by(f32::total_cmp);
        xs
    }

    /// Runs under Miri too (detection is off there: this is the scalar code).
    #[test]
    fn sigmoid_f32_is_accurate_monotone_bounded_and_total() {
        let mut below = 0.0f32;
        for x in activation_inputs() {
            let y = sigmoid_f32(x);
            assert!((0.0..=1.0).contains(&y), "sigmoid({x}) = {y}");
            assert!(y >= below, "sigmoid decreases at {x}");
            below = y;
            if x.abs() <= 20.0 {
                let exact = 1.0 / (1.0 + (-f64::from(x)).exp());
                assert!(ulps(y, exact) <= 3.0, "sigmoid({x}) = {y}, exact {exact}");
            }
        }
        assert_eq!(sigmoid_f32(0.0), 0.5);
        assert_eq!(sigmoid_f32(-0.0), 0.5);
        assert_eq!(sigmoid_f32(f32::INFINITY), 1.0);
        assert!(sigmoid_f32(f32::NEG_INFINITY) < 1e-37);
        assert!(sigmoid_f32(f32::NAN).is_nan());
        assert!(sigmoid_f32(-f32::NAN).is_nan());
    }

    /// Runs under Miri too.
    #[test]
    fn tanh_f32_is_accurate_odd_monotone_bounded_and_total() {
        let mut below = -1.0f32;
        for x in activation_inputs() {
            let y = tanh_f32(x);
            assert!((-1.0..=1.0).contains(&y), "tanh({x}) = {y}");
            assert!(y >= below, "tanh decreases at {x}");
            below = y;
            assert_eq!(
                tanh_f32(-x).to_bits(),
                (-y).to_bits(),
                "tanh is not exactly odd at {x}"
            );
            // Past |x| ≈ 9 the exact value rounds to ±1, and so must ours.
            let exact = f64::from(x).tanh();
            assert!(ulps(y, exact) <= 2.0, "tanh({x}) = {y}, exact {exact}");
        }
        assert_eq!(tanh_f32(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_f32(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_f32(1e-30), 1e-30);
        assert_eq!(tanh_f32(f32::INFINITY), 1.0);
        assert_eq!(tanh_f32(f32::NEG_INFINITY), -1.0);
        assert!(tanh_f32(f32::NAN).is_nan());
        assert!(tanh_f32(-f32::NAN).is_nan());
    }

    /// A zero against a non-finite operand must still give NaN in every
    /// variant: no path may skip a term (`0 · inf`, `0 · NaN`).
    #[test]
    fn nonfinite_terms_are_never_skipped() {
        let (m, k, n) = (5usize, 12usize, 19usize);
        let mut a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, 8);
        let mut b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, 9);
        a.set(0, 1, 0.0);
        a.set(4, 11, 0.0);
        b.set(1, 3, f32::INFINITY);
        b.set(11, 17, f32::NAN);
        b.set(2, 9, f32::NEG_INFINITY);
        let run = |f: &dyn Fn(&mut Matrix<f32>), g: &dyn Fn(&mut Matrix<f32>), what: &str| {
            let (mut got, mut want) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
            f(&mut got);
            g(&mut want);
            assert!(want.get(0, 3).is_nan(), "{what}: 0·inf must be NaN");
            assert!(want.get(4, 17).is_nan(), "{what}: 0·NaN must be NaN");
            // NaN payloads may differ between fmaf and the FMA unit; the
            // placement and every non-NaN bit may not.
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits(),
                    "{what}: {x} vs {y}"
                );
            }
        };
        run(
            &|c| crate::gemm(1.0, &a, &b, 0.0, c),
            &|c| gemm(1.0, &a, &b, 0.0, c),
            "nn",
        );
        let (at, bt) = (a.transposed(), b.transposed());
        run(
            &|c| crate::gemm_nt(1.0, &a, &bt, 0.0, c),
            &|c| gemm_nt(1.0, &a, &bt, 0.0, c),
            "nt",
        );
        run(
            &|c| crate::gemm_tn(1.0, &at, &b, 0.0, c),
            &|c| gemm_tn(1.0, &at, &b, 0.0, c),
            "tn",
        );
    }
}
