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

use crate::activation::{dsigmoid_from_y, dtanh_from_y, lstm_gate_lanes, Activation};
use crate::gemm::{checked, Op, KC, MC, MR, NR};
use crate::matrix::Matrix;
use crate::scalar::Float;
use crate::step::{
    fits, GruBackward, GruForward, Kernels, LstmBackward, LstmForward, VanillaBackward,
    VanillaForward,
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

/// Rows of a cell step's register tile: a block of this many rows runs its
/// gate products abreast, each row of a weight matrix loaded once for all
/// of them; the rows past the last full block run one at a time.
const STEP_ROWS: usize = 4;

/// A step's widest gate product, `k` deep and `n` wide, must be on the
/// route: its row values live in one `4·NR`-lane strip.
#[inline(always)]
fn assert_fits(k: usize, n: usize) {
    assert!(
        fits(k, n),
        "step: a {k}x{n} gate product is off the one-call route"
    );
}

/// `s` as rows of `N` elements.
#[inline(always)]
fn lanes<T, const N: usize>(s: &[T]) -> &[[T; N]] {
    s.as_chunks::<N>().0
}

/// `s` as mutable rows of `N` elements.
#[inline(always)]
fn lanes_mut<T, const N: usize>(s: &mut [T]) -> &mut [[T; N]] {
    s.as_chunks_mut::<N>().0
}

/// Rows `r0..r0 + R` of a `W`-wide matrix, each a fixed-width row.
#[inline(always)]
fn block<T: Float, const W: usize, const R: usize>(m: &Matrix<T>, r0: usize) -> &[[T; W]; R] {
    assert_eq!(m.cols(), W, "step: operand width");
    lanes(&m.as_slice()[r0 * W..(r0 + R) * W])
        .try_into()
        .expect("step: operand rows")
}

/// [`block`], mutable.
#[inline(always)]
fn block_mut<T: Float, const W: usize, const R: usize>(
    m: &mut Matrix<T>,
    r0: usize,
) -> &mut [[T; W]; R] {
    assert_eq!(m.cols(), W, "step: operand width");
    lanes_mut(&mut m.as_mut_slice()[r0 * W..(r0 + R) * W])
        .try_into()
        .expect("step: operand rows")
}

/// A `1 × N` bias as one row.
#[inline(always)]
fn bias_row<T: Float, const N: usize>(b: &Matrix<T>) -> &[T; N] {
    b.as_slice().first_chunk::<N>().expect("step: bias width")
}

/// A `k × N` gate kernel as its `k` rows.
#[inline(always)]
fn weights<T: Float, const N: usize>(w: &Matrix<T>, k: usize) -> &[[T; N]] {
    assert_eq!(w.shape(), (k, N), "step: kernel shape");
    lanes(w.as_slice())
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

/// The gate products of `R` rows at once, `acc[r] = Σ_p z[r][p] · W[p]`
/// over the `k` rows of `W`: per element the FMA chain from zero, `p`
/// ascending ([`micro_kernel`]'s sequence in one `KC` block), with each
/// row of `W` loaded once for all `R` rows. A lane is one element's chain,
/// so neither the row count nor the register width changes a bit.
#[inline(always)]
fn gate_tile<T: Float, const R: usize, const N: usize>(
    z: [&[T]; R],
    w: &[[T; N]],
    k: usize,
) -> [[T; N]; R] {
    let (w, z) = (&w[..k], z.map(|zr| &zr[..k]));
    let mut acc = [[T::ZERO; N]; R];
    for (p, wp) in w.iter().enumerate() {
        for (accr, zr) in acc.iter_mut().zip(&z) {
            let a = zr[p];
            for (s, &wv) in accr.iter_mut().zip(wp) {
                *s = a.mul_add(wv, *s);
            }
        }
    }
    acc
}

/// `acc = 0 + acc + b` per lane of a block of rows: the zero-filled
/// output the blocked route accumulates into (which turns a `−0` into
/// `+0`), then the bias. A kernel keeps a block's values in local arrays
/// and stores each into its matrix once, when it is final. The lane
/// helpers here take each operand as its own reference, so the compiler
/// knows no output aliases an input and runs the lanes as vector code.
#[inline(always)]
fn add_bias<T: Float, const N: usize, const R: usize>(acc: &mut [[T; N]; R], b: &[T; N]) {
    for acc in acc.iter_mut() {
        for j in 0..N {
            acc[j] = (T::ZERO + acc[j]) + b[j];
        }
    }
}

/// `v = f(v)` over a whole block of rows at once: its `R·N` lanes are one
/// loop of constant length, whole registers even where a row is not.
#[inline(always)]
fn map_block<T: Float>(m: &mut [T], f: impl Fn(T) -> T) {
    for v in m {
        *v = f(*v);
    }
}

/// `out = a ⊙ b` per lane.
#[inline(always)]
fn mul_lanes<T: Float, const H: usize>(out: &mut [T; H], a: &[T; H], b: &[T; H]) {
    for j in 0..H {
        out[j] = a[j] * b[j];
    }
}

/// Eq. (10), `H_t = Z ⊙ H̄ + (1 − Z) ⊙ H_{t-1}`, per lane.
#[inline(always)]
fn gru_state_lanes<T: Float, const H: usize>(
    out: &mut [T; H],
    z: &[T; H],
    hbar: &[T; H],
    hp: &[T; H],
) {
    for j in 0..H {
        out[j] = z[j] * hbar[j] + (T::ONE - z[j]) * hp[j];
    }
}

/// Eq. (5), `C_t = f ⊙ C_{t-1} + i ⊙ g`, per lane, from the gate row.
#[inline(always)]
fn lstm_cell_lanes<T: Float, const H: usize>(out: &mut [T; H], g: &[T], cp: &[T; H]) {
    let (i, rest) = g.split_at(H);
    let (f, rest) = rest.split_at(H);
    let gg = &rest[..H];
    for j in 0..H {
        out[j] = f[j] * cp[j] + i[j] * gg[j];
    }
}

/// Lanes `from..from + H` of a row.
#[inline(always)]
fn sub<T, const H: usize>(row: &[T], from: usize) -> &[T; H] {
    row[from..from + H].try_into().expect("step: row width")
}

/// `dz = dG · Wᵀ` for every row (`dG` `rows × N`, `W` `k × N`): per
/// element the NT chain from zero, `j` ascending, added to the zero
/// `gemm_nt(1, dG, W, 0, dz)` starts from. Each row's first `dx.cols()`
/// elements go into `dX` (with `ADD` added to what it holds), the rest to
/// `rest(r, tail)`. A product narrower than `2·NR` lanes runs the chains
/// here, one dot product per element, straight into `dX`; a wider one goes
/// through `dz` (`rows × k` scratch) to `K`'s NT product, whose packed tile
/// keeps each element's chain.
#[inline(always)]
fn input_grads<K: Kernels, T: Float, const N: usize, const ADD: bool>(
    dg: &[[T; N]],
    w: &Matrix<T>,
    k: usize,
    dz: &mut [T],
    dx: &mut Matrix<T>,
    mut rest: impl FnMut(usize, &[T]),
) {
    let (rows, input) = (dg.len(), dx.cols());
    let w = weights::<T, N>(w, k);
    assert!(dx.rows() == rows && input <= k, "step: dX shape");
    let put = |d: &mut T, v: T| *d = if ADD { *d + v } else { v };
    if N < 2 * NR {
        let (wx, wt) = w.split_at(input);
        let mut tail = [T::ZERO; 4 * NR];
        let tail = &mut tail[..k - input];
        for (r, g) in dg.iter().enumerate() {
            for (d, wp) in dx.row_mut(r).iter_mut().zip(wx) {
                put(d, T::ZERO + dot_slice(g, wp));
            }
            for (d, wp) in tail.iter_mut().zip(wt) {
                *d = T::ZERO + dot_slice(g, wp);
            }
            rest(r, tail);
        }
        return;
    }
    let dz = &mut dz[..rows * k];
    dz.fill(T::ZERO);
    // SAFETY: a kernel of `K` runs only where `K`'s units are available;
    // `dG` is `rows × N`, `W` `k × N` (`weights` checked) and `dz`
    // `rows × k`, the sizes `nt` reads and writes.
    unsafe { K::nt(dg.as_flattened(), w.as_flattened(), dz, rows, N, k) }
    for r in 0..rows {
        let (src, tail) = dz[r * k..(r + 1) * k].split_at(input);
        for (d, &v) in dx.row_mut(r).iter_mut().zip(src) {
            put(d, v);
        }
        rest(r, tail);
    }
}

/// `dW += zᵀ · dG` and `db += Σ_rows dG` over all rows (`z` `rows × k`,
/// `dG` `rows × N`): per element the TN chain over the rows from zero,
/// flushed into `dW` once per `KC` rows, then [`column_sums_add`] —
/// `affine_grad`'s first two steps. A product narrower than `2·NR` lanes
/// runs [`gemm_rows`] here per `KC` block of rows; a wider one goes to
/// `K`'s TN product.
#[inline(always)]
fn weight_grads<K: Kernels, T: Float, const N: usize>(
    z: &Matrix<T>,
    dg: &[[T; N]],
    dw: &mut Matrix<T>,
    db: &mut Matrix<T>,
) {
    let (rows, k) = (dg.len(), z.cols());
    assert_eq!(z.rows(), rows, "step: cache rows");
    assert_eq!(dw.shape(), (k, N), "step: dW shape");
    assert_eq!(db.len(), N, "step: db width");
    let (z, dg, dws) = (z.as_slice(), dg.as_flattened(), dw.as_mut_slice());
    if N < 2 * NR {
        for r0 in (0..rows).step_by(KC) {
            let r1 = (r0 + KC).min(rows);
            let (zb, dgb) = (&z[r0 * k..r1 * k], &dg[r0 * N..r1 * N]);
            gemm_rows::<T, true>(T::ONE, zb, dgb, dws, k, r1 - r0, N);
        }
    } else {
        // SAFETY: a kernel of `K` runs only where `K`'s units are
        // available; `z` is `rows × k`, `dG` `rows × N` and `dW` `k × N`
        // (all checked above), the sizes `tn` reads and writes.
        unsafe { K::tn(z, dg, dws, k, rows, N) };
    }
    column_sums_add(dg, db.as_mut_slice(), rows, N);
}

/// Runs `$full` (with `$r0` the block's first row) over each full block of
/// [`STEP_ROWS`] rows and then `$one` over each row left: the two constant
/// row counts of a kernel.
macro_rules! row_blocks {
    ($rows:expr, |$r0:ident| $full:expr, $one:expr) => {{
        let rows = $rows;
        let mut $r0 = 0;
        while $r0 + STEP_ROWS <= rows {
            $full;
            $r0 += STEP_ROWS;
        }
        while $r0 < rows {
            $one;
            $r0 += 1;
        }
    }};
}

/// An LSTM step forward, [`STEP_ROWS`] rows at a time: `[X_t, H_{t-1}]`,
/// the gate tile, `0 + acc + b`, σ on the `i`, `f`, `o` lanes and tanh on
/// the `g` lanes, then Eqs. (5)–(6) in the cells' order.
#[inline(always)]
pub(crate) fn lstm_forward<K: Kernels, T: Float, const H: usize, const N: usize>(
    mut s: LstmForward<'_, T>,
) {
    assert_fits(s.z.cols(), N);
    row_blocks!(
        s.x.rows(),
        |r0| lstm_forward_rows::<T, H, N, STEP_ROWS>(&mut s, r0),
        lstm_forward_rows::<T, H, N, 1>(&mut s, r0)
    );
}

/// Rows `r0..r0 + R` of [`lstm_forward`].
#[inline(always)]
fn lstm_forward_rows<T: Float, const H: usize, const N: usize, const R: usize>(
    s: &mut LstmForward<'_, T>,
    r0: usize,
) {
    let k = s.z.cols();
    let (hp, cp) = (
        block::<T, H, R>(s.h_prev, r0),
        *block::<T, H, R>(s.c_prev, r0),
    );
    for (r, hp) in (r0..).zip(hp) {
        concat_row(s.z.row_mut(r), s.x.row(r), hp);
    }
    let z = std::array::from_fn(|i| s.z.row(r0 + i));
    let mut gates = gate_tile::<T, R, N>(z, weights(s.w, k), k);
    add_bias(&mut gates, bias_row(s.b));
    for g in gates.iter_mut() {
        lstm_gate_lanes::<T, H>(g);
    }
    *block_mut::<T, N, R>(s.gates, r0) = gates;
    let mut c = [[T::ZERO; H]; R];
    for ((c, g), cp) in c.iter_mut().zip(&gates).zip(&cp) {
        lstm_cell_lanes(c, g, cp);
    }
    *block_mut::<T, H, R>(s.c, r0) = c;
    let mut tanh_c = c;
    map_block(tanh_c.as_flattened_mut(), T::tanh);
    *block_mut::<T, H, R>(s.tanh_c, r0) = tanh_c;
    let mut h = [[T::ZERO; H]; R];
    for ((h, g), tc) in h.iter_mut().zip(&gates).zip(&tanh_c) {
        mul_lanes(h, sub(g, 3 * H), tc);
    }
    *block_mut::<T, H, R>(s.h, r0) = h;
    *block_mut::<T, H, R>(s.c_prev_copy, r0) = cp;
}

/// An LSTM step backward: per row [`lstm_gate_grads`] into `scratch` and
/// `dC_{t-1}`; `dG · Wᵀ` into `dX` and `dH_{t-1}`; then the weight and
/// bias gradients over all rows.
#[inline(always)]
pub(crate) fn lstm_backward<K: Kernels, T: Float, const H: usize, const N: usize>(
    s: LstmBackward<'_, T>,
) {
    let (rows, k) = (s.dh.rows(), s.z.cols());
    assert_fits(k, N);
    let (dg, dz) = s.scratch.split_at_mut(rows * N);
    let dg = lanes_mut::<T, N>(dg);
    let (gates, tanh_c) = (
        lanes::<T, N>(s.gates.as_slice()),
        lanes::<T, H>(s.tanh_c.as_slice()),
    );
    let (cp, dh) = (
        lanes::<T, H>(s.c_prev.as_slice()),
        lanes::<T, H>(s.dh.as_slice()),
    );
    let dcp = lanes_mut::<T, H>(s.dc_prev.as_mut_slice());
    let rec = s
        .rec
        .map(|(rh, rc)| (lanes::<T, H>(rh.as_slice()), lanes::<T, H>(rc.as_slice())));
    for r in 0..rows {
        // Local copies: no output can alias an input, so the lanes vectorise.
        let (g, tc, cp, dh) = (gates[r], tanh_c[r], cp[r], dh[r]);
        let ins = [&g[..], &tc, &cp, &dh];
        let (mut dgr, mut dcr) = ([T::ZERO; N], [T::ZERO; H]);
        match rec {
            Some((rh, rc)) => {
                let (rh, rc) = (rh[r], rc[r]);
                lstm_gate_grads::<T, true>(H, ins, &rh, &rc, &mut dgr, &mut dcr)
            }
            None => lstm_gate_grads::<T, false>(H, ins, &[], &[], &mut dgr, &mut dcr),
        }
        (dg[r], dcp[r]) = (dgr, dcr);
    }
    let dp = lanes_mut::<T, H>(s.dh_prev.as_mut_slice());
    input_grads::<K, T, N, false>(dg, s.w, k, dz, s.dx, |r, tail| dp[r].copy_from_slice(tail));
    weight_grads::<K, T, N>(s.z, dg, s.dw, s.db);
}

/// A GRU step forward, [`STEP_ROWS`] rows at a time: `[X_t, H_{t-1}]`, the
/// z/r tile, `[X_t, R ⊙ H_{t-1}]`, the candidate tile, then Eq. (10).
#[inline(always)]
pub(crate) fn gru_forward<K: Kernels, T: Float, const H: usize, const N: usize>(
    mut s: GruForward<'_, T>,
) {
    assert_fits(s.zr_in.cols(), N);
    row_blocks!(
        s.x.rows(),
        |r0| gru_forward_rows::<T, H, N, STEP_ROWS>(&mut s, r0),
        gru_forward_rows::<T, H, N, 1>(&mut s, r0)
    );
}

/// Rows `r0..r0 + R` of [`gru_forward`].
#[inline(always)]
fn gru_forward_rows<T: Float, const H: usize, const N: usize, const R: usize>(
    s: &mut GruForward<'_, T>,
    r0: usize,
) {
    let (input, k) = (s.x.cols(), s.zr_in.cols());
    let hp = *block::<T, H, R>(s.h_prev, r0);
    for (r, hp) in (r0..).zip(&hp) {
        let x = s.x.row(r);
        concat_row(s.zr_in.row_mut(r), x, hp);
        copy_row(&mut s.h_in.row_mut(r)[..input], x);
    }
    let zi = std::array::from_fn(|i| s.zr_in.row(r0 + i));
    let mut zr = gate_tile::<T, R, N>(zi, weights(s.wzr, k), k);
    add_bias(&mut zr, bias_row(s.bzr));
    map_block(zr.as_flattened_mut(), T::sigmoid);
    *block_mut::<T, N, R>(s.zr, r0) = zr;
    for (r, (zr, hp)) in (r0..).zip(zr.iter().zip(&hp)) {
        let hr = (&mut s.h_in.row_mut(r)[input..])
            .try_into()
            .expect("step: h_in width");
        mul_lanes(hr, sub(zr, H), hp);
    }
    let hi = std::array::from_fn(|i| s.h_in.row(r0 + i));
    let mut hbar = gate_tile::<T, R, H>(hi, weights(s.wh, k), k);
    add_bias(&mut hbar, bias_row(s.bh));
    map_block(hbar.as_flattened_mut(), T::tanh);
    *block_mut::<T, H, R>(s.hbar, r0) = hbar;
    let mut h = [[T::ZERO; H]; R];
    for (((h, zr), hb), hp) in h.iter_mut().zip(&zr).zip(&hbar).zip(&hp) {
        gru_state_lanes(h, sub(zr, 0), hb, hp);
    }
    *block_mut::<T, H, R>(s.h, r0) = h;
    *block_mut::<T, H, R>(s.h_prev_copy, r0) = hp;
}

/// A GRU step backward: per row [`gru_update_grads`]; the candidate's
/// `dH̄ · W_hᵀ` into `dX` and `d(R ⊙ H_{t-1})`, and per row the reset
/// gate's gradient; the z/r product's `[dZ, dR] · W_zrᵀ` added into `dX`
/// and `dH_{t-1}`; then both products' weight and bias gradients over all
/// rows.
#[inline(always)]
pub(crate) fn gru_backward<K: Kernels, T: Float, const H: usize, const N: usize>(
    s: GruBackward<'_, T>,
) {
    let (rows, k) = (s.dh.rows(), s.zr_in.cols());
    assert_fits(k, N);
    let (dzr, rest) = s.scratch.split_at_mut(rows * N);
    let (dhbar, dz) = rest.split_at_mut(rows * H);
    let (dzr, dhbar) = (lanes_mut::<T, N>(dzr), lanes_mut::<T, H>(dhbar));
    let (zr, hbar) = (
        lanes::<T, N>(s.zr.as_slice()),
        lanes::<T, H>(s.hbar.as_slice()),
    );
    let (hp, dh) = (
        lanes::<T, H>(s.h_prev.as_slice()),
        lanes::<T, H>(s.dh.as_slice()),
    );
    let dp = lanes_mut::<T, H>(s.dh_prev.as_mut_slice());
    let rec = s.rec.map(|m| lanes::<T, H>(m.as_slice()));
    for r in 0..rows {
        // Local copies: no output can alias an input, so the lanes vectorise.
        let (zs, hb, hpr, dhr) = (zr[r], hbar[r], hp[r], dh[r]);
        let ins = [&zs[..], &hb, &hpr, &dhr];
        let (mut dpr, mut dhb, mut dz) = ([T::ZERO; H], [T::ZERO; H], [T::ZERO; H]);
        match rec {
            Some(rec) => gru_update_grads::<T, true>(H, ins, &rec[r], &mut dpr, &mut dhb, &mut dz),
            None => gru_update_grads::<T, false>(H, ins, &[], &mut dpr, &mut dhb, &mut dz),
        }
        (dp[r], dhbar[r]) = (dpr, dhb);
        dzr[r][..H].copy_from_slice(&dz);
    }
    input_grads::<K, T, H, false>(dhbar, s.wh, k, dz, s.dx, |r, drh| {
        let drh: [T; H] = drh.try_into().expect("step: dH width");
        let (zs, hpr, mut dpr) = (zr[r], hp[r], dp[r]);
        let mut dr = [T::ZERO; H];
        for j in 0..H {
            dr[j] = drh[j] * hpr[j] * dsigmoid_from_y(zs[H + j]);
            dpr[j] += drh[j] * zs[H + j];
        }
        dzr[r][H..].copy_from_slice(&dr);
        dp[r] = dpr;
    });
    input_grads::<K, T, N, true>(dzr, s.wzr, k, dz, s.dx, |r, src| {
        let (src, mut dpr): ([T; H], _) = (src.try_into().expect("step: dH width"), dp[r]);
        for j in 0..H {
            dpr[j] += src[j];
        }
        dp[r] = dpr;
    });
    weight_grads::<K, T, H>(s.h_in, dhbar, s.dwh, s.dbh);
    weight_grads::<K, T, N>(s.zr_in, dzr, s.dwzr, s.dbzr);
}

/// A vanilla step forward, [`STEP_ROWS`] rows at a time: `[X_t, H_{t-1}]`
/// and the tanh tile, written to the cache and the state.
#[inline(always)]
pub(crate) fn vanilla_forward<K: Kernels, T: Float, const H: usize, const N: usize>(
    mut s: VanillaForward<'_, T>,
) {
    assert_fits(s.z.cols(), N);
    row_blocks!(
        s.x.rows(),
        |r0| vanilla_forward_rows::<T, N, STEP_ROWS>(&mut s, r0),
        vanilla_forward_rows::<T, N, 1>(&mut s, r0)
    );
}

/// Rows `r0..r0 + R` of [`vanilla_forward`] (`N` is the hidden width).
#[inline(always)]
fn vanilla_forward_rows<T: Float, const N: usize, const R: usize>(
    s: &mut VanillaForward<'_, T>,
    r0: usize,
) {
    let k = s.z.cols();
    for (r, hp) in (r0..).zip(block::<T, N, R>(s.h_prev, r0)) {
        concat_row(s.z.row_mut(r), s.x.row(r), hp);
    }
    let z = std::array::from_fn(|i| s.z.row(r0 + i));
    let mut h = gate_tile::<T, R, N>(z, weights(s.w, k), k);
    add_bias(&mut h, bias_row(s.b));
    map_block(h.as_flattened_mut(), T::tanh);
    *block_mut::<T, N, R>(s.h, r0) = h;
    *block_mut::<T, N, R>(s.h_copy, r0) = h;
}

/// A vanilla step backward: [`tanh_pre_grads`] into `scratch`, `dpre · Wᵀ`
/// into `dX` and `dH_{t-1}`, then the weight and bias gradients.
#[inline(always)]
pub(crate) fn vanilla_backward<K: Kernels, T: Float, const H: usize, const N: usize>(
    s: VanillaBackward<'_, T>,
) {
    let (rows, k) = (s.dh.rows(), s.z.cols());
    assert_fits(k, N);
    let (dpre, dz) = s.scratch.split_at_mut(rows * N);
    let dpre = lanes_mut::<T, N>(dpre);
    let (dh, ys) = (s.dh.as_slice(), s.h.as_slice());
    match s.rec {
        Some(rec) => tanh_pre_grads::<T, true>(dh, rec.as_slice(), ys, dpre.as_flattened_mut()),
        None => tanh_pre_grads::<T, false>(dh, &[], ys, dpre.as_flattened_mut()),
    }
    let dp = lanes_mut::<T, N>(s.dh_prev.as_mut_slice());
    input_grads::<K, T, N, false>(dpre, s.w, k, dz, s.dx, |r, tail| {
        dp[r].copy_from_slice(tail)
    });
    weight_grads::<K, T, N>(s.z, dpre, s.dw, s.db);
}

/// `C += A · Bᵀ` through the portable loop: a portable step's NT product
/// ([`crate::step::Kernels::nt`]).
#[inline(always)]
pub(crate) fn step_nt<T: Float>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    gemm_nt_cols(T::ONE, a, b, c, m, k, n, 0);
}

/// `C += Aᵀ · B` (`A` stored `k×m`) through the portable loops: a portable
/// step's TN product ([`crate::step::Kernels::tn`]).
#[inline(always)]
pub(crate) fn step_tn<T: Float>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    gemm_tn_accum(T::ONE, a, b, c, m, k, n);
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
