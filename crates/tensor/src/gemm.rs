//! General matrix multiply kernels.
//!
//! Three entry points cover everything the RNN forward and backward passes
//! need (all row-major, all computing `C = alpha * op(A) * op(B) + beta * C`):
//!
//! * [`gemm`]    — `C += A  * B`   (gate pre-activations: `X_t * W`)
//! * [`gemm_nt`] — `C += A  * Bᵀ`  (input gradients: `dG * Wᵀ`)
//! * [`gemm_tn`] — `C += Aᵀ * B`   (weight gradients: `Xᵀ * dG`)
//!
//! All three share the same classic three-level cache-blocked loop nest with
//! a small register tile, which is enough to stay within a small constant
//! factor of vendor BLAS for the matrix shapes RNN cells produce
//! (`batch × (input+hidden)` times `(input+hidden) × 4·hidden`). A naive
//! triple loop ([`gemm_naive`]) is kept as the oracle for tests.
//!
//! **One arithmetic, one dispatch point.** The arithmetic is defined by the
//! portable loops in [`crate::reference`]. The slice-level `_accum`
//! functions here — which the free functions, the default
//! [`crate::backend`] and every training task body funnel through — run
//! that arithmetic on the widest unit the host has. On x86-64, run-time
//! detection picks a tier: with AVX-512F, `f32` takes the 8×32 `zmm`
//! register tile and then the `ymm` strips for the columns it leaves; with
//! AVX2+FMA only, the 4×16 / 4×8 `ymm` tiles; either way everything else
//! takes the portable loops inlined into that tier's wrapper. On aarch64
//! the `f32` NN product takes the NEON kernel; otherwise the portable
//! loops run as written. All of these agree bit for bit (`reference`'s
//! module docs say why, and the register width only changes how many
//! elements run abreast), so there is no tolerance to document, and
//! selecting the `scalar` backend (the portable loops, always) changes
//! speed only.
//!
//! **The narrow route.** An NN or TN product with fewer than `2·NR` output
//! columns and at most `KC` reduction steps (`narrow`) skips the blocked
//! nest and its register tile: one pass per row of `C`, the same chain per
//! element. NT keeps its dot-product loop below `NR` columns, which already
//! is one chain per element.
//! [`crate::Backend::affine`] fuses the bias and activation into that pass,
//! and when all of a cell's gate products are narrow its whole step is one
//! such pass per row ([`crate::step`]).

use crate::activation::Activation;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::backend::simd;
use crate::backend::simd::x86_tiers;
use crate::matrix::Matrix;
use crate::reference;
use crate::scalar::Float;

/// Cache-block size along the `k` (reduction) dimension.
pub(crate) const KC: usize = 256;
/// Cache-block size along the `m` (rows of C) dimension.
pub(crate) const MC: usize = 64;
/// Register tile: rows of C updated per micro-kernel invocation.
pub(crate) const MR: usize = 4;
/// Register tile: columns of C per `ymm` register (the AVX2 tile updates
/// `2·NR` columns per invocation where that many exist; the AVX-512 tile
/// `4·NR`).
pub(crate) const NR: usize = 8;

/// True when a product with reduction depth `k` and `n` output columns is
/// narrower than one register tile (`n < 2·NR`) and one `KC` block deep.
/// Such products — every gate product of a tiny cell — take the narrow
/// route: one pass per row of `C` (`reference::gemm_rows`,
/// `reference::affine_rows`) instead of the
/// blocked nest and its register tile. Within one `KC` block both routes
/// run the same chain per element, so they give the same bits.
#[inline(always)]
pub fn narrow(k: usize, n: usize) -> bool {
    n < 2 * NR && k <= KC
}

/// Which operand of `C = alpha * op(A) * op(B) + beta * C` is transposed.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    NN,
    NT,
    TN,
}

/// The part of a GEMM call every variant, backend and oracle shares: shape
/// checks, `beta` scaling and the degenerate-shape early return. `accum`
/// then sees `m, n, k > 0`, `alpha != 0` and slices of exactly the checked
/// shapes, and computes `C += alpha * op(A) * op(B)`.
pub(crate) fn checked<T: Float>(
    op: Op,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
    accum: impl FnOnce(T, &[T], &[T], &mut [T], usize, usize, usize),
) {
    let (name, (m, k), (kb, n)) = match op {
        Op::NN => ("gemm", a.shape(), b.shape()),
        Op::NT => ("gemm_nt", a.shape(), (b.cols(), b.rows())),
        Op::TN => ("gemm_tn", (a.cols(), a.rows()), b.shape()),
    };
    assert_eq!(k, kb, "{name}: inner dimensions differ ({k} vs {kb})");
    assert_eq!(c.shape(), (m, n), "{name}: C has wrong shape");
    scale_c(beta, c);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    accum(alpha, a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
}

/// `C = alpha * A * B + beta * C`, all matrices row-major.
///
/// Shapes: `A: m×k`, `B: k×n`, `C: m×n`.
///
/// ```
/// use bpar_tensor::{gemm, Matrix};
/// let a = Matrix::from_vec(1, 2, vec![1.0f64, 2.0]);
/// let b = Matrix::from_vec(2, 1, vec![3.0f64, 4.0]);
/// let mut c = Matrix::zeros(1, 1);
/// gemm(1.0, &a, &b, 0.0, &mut c);
/// assert_eq!(c.get(0, 0), 11.0);
/// ```
///
/// # Panics
/// Panics if the shapes are inconsistent.
pub fn gemm<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    checked(Op::NN, alpha, a, b, beta, c, gemm_accum);
}

/// `C = alpha * A * Bᵀ + beta * C`.
///
/// Shapes: `A: m×k`, `B: n×k`, `C: m×n`.
pub fn gemm_nt<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    checked(Op::NT, alpha, a, b, beta, c, gemm_nt_accum);
}

/// `C = alpha * Aᵀ * B + beta * C`.
///
/// Shapes: `A: k×m`, `B: k×n`, `C: m×n`.
///
/// Note: every `B` element participates in the accumulation even when the
/// matching `Aᵀ` element is zero — `0 · inf` and `0 · NaN` must produce
/// `NaN` exactly as [`gemm_naive`] does (a zero-skip fast path here once
/// silently dropped non-finite operands).
pub fn gemm_tn<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    checked(Op::TN, alpha, a, b, beta, c, gemm_tn_accum);
}

/// The bound every kernel behind the `_accum` dispatchers indexes within.
#[inline(always)]
fn assert_lens<T>(a: &[T], b: &[T], c: &[T], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= k * n && c.len() >= m * n,
        "gemm: a slice is shorter than its {m}x{k}x{n} shape"
    );
}

/// Accumulate-only core of [`gemm`]: `C += alpha * A * B` over raw slices
/// (`A: m×k`, `B: k×n`, `C: m×n`), on the widest unit the host has.
///
/// Beta-scaling, shape checks and degenerate-shape early returns are the
/// caller's job ([`checked`]).
pub(crate) fn gemm_accum<T: Float>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_lens(a, b, c, m, k, n);
    x86_tiers!(gemm::<T, false>(alpha, a, b, c, m, k, n));
    gemm_portable::<T, false>(alpha, a, b, c, m, k, n);
}

/// `C += alpha * A * B` (`C += alpha * Aᵀ * B` with `TRANS_A`) where no
/// x86-64 vector tier runs: the narrow row loop, the NEON kernel for the
/// `f32` NN product on aarch64, the blocked portable loops otherwise.
pub(crate) fn gemm_portable<T: Float, const TRANS_A: bool>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    if narrow(k, n) {
        return reference::gemm_rows::<T, TRANS_A>(alpha, a, b, c, m, k, n);
    }
    #[cfg(target_arch = "aarch64")]
    if !TRANS_A {
        assert_lens(a, b, c, m, k, n);
        if let Some((af, bf, cf)) = crate::backend::f32_views(a, b, c) {
            // SAFETY: NEON is baseline on aarch64; assert_lens bounds every
            // index.
            return unsafe { simd::neon::gemm(alpha.to_f32(), af, bf, cf, m, k, n) };
        }
    }
    if TRANS_A {
        reference::gemm_tn_accum(alpha, a, b, c, m, k, n);
    } else {
        reference::gemm_accum(alpha, a, b, c, m, k, n);
    }
}

/// Accumulate-only core of [`gemm_nt`]: `C += alpha * A * Bᵀ` (`B: n×k`).
pub(crate) fn gemm_nt_accum<T: Float>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_lens(a, b, c, m, k, n);
    x86_tiers!(gemm_nt(alpha, a, b, c, m, k, n));
    reference::gemm_nt_cols(alpha, a, b, c, m, k, n, 0);
}

/// Accumulate-only core of [`gemm_tn`]: `C += alpha * Aᵀ * B` (`A: k×m`).
pub(crate) fn gemm_tn_accum<T: Float>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_lens(a, b, c, m, k, n);
    x86_tiers!(gemm::<T, true>(alpha, a, b, c, m, k, n));
    gemm_portable::<T, true>(alpha, a, b, c, m, k, n);
}

/// `C = act(A · W + b)` over raw slices (`A: m×k`, `W: k×n`, `b: 1×n`) for
/// a narrow product: [`reference::affine_rows`], inlined into the widest
/// x86-64 tier's wrapper where the host has one, as written elsewhere.
#[allow(clippy::too_many_arguments)]
pub(crate) fn affine_narrow<T: Float>(
    act: Activation,
    a: &[T],
    w: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    x86_tiers!(affine(act, a, w, b, c, m, k, n));
    reference::affine_rows(act, a, w, b, c, m, k, n);
}

/// FLOPs one round of [`fma_chains`] performs on this host: ten registers
/// of chains at the width of the tier the kernels above run.
pub fn fma_chain_flops() -> usize {
    #[cfg(target_arch = "x86_64")]
    if simd::x86::tier() == Some(simd::x86::Tier::Avx512) {
        return 2 * simd::x86::avx512::CHAIN_LANES;
    }
    2 * reference::CHAIN_LANES
}

/// Register-only FMA work on the unit the kernels above dispatch to:
/// `iters` rounds of independent `v = x·v + y` chains, enough of them to
/// keep every FMA pipe full, with no loads or stores in the loop. Timing it
/// gives the host's attainable FMA rate at the kernels' register width —
/// the denominator of a kernel's `peak_frac` ([`fma_chain_flops`]` · iters`
/// FLOPs per call). Returns the chains' sum so the work cannot be
/// optimised away.
pub fn fma_chains(iters: usize) -> f32 {
    x86_tiers!(fma_chains(iters));
    reference::fma_chains::<{ reference::CHAIN_LANES }>(iters)
}

/// Reference triple-loop product used as the test oracle.
pub fn gemm_naive<T: Float>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);
    assert_eq!(c.shape(), (m, n));
    for i in 0..m {
        for j in 0..n {
            let mut s = T::ZERO;
            for p in 0..k {
                s += a.get(i, p) * b.get(p, j);
            }
            let v = alpha * s + beta * c.get(i, j);
            c.set(i, j, v);
        }
    }
}

/// Number of floating-point operations a `m×k · k×n` product performs.
///
/// Used by the simulator's task cost model.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// `C *= beta`, with `beta = 0` overwriting any garbage (NaN-safe).
#[inline]
pub(crate) fn scale_c<T: Float>(beta: T, c: &mut Matrix<T>) {
    if beta == T::ZERO {
        c.fill_zero();
    } else if beta != T::ONE {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic LCG values in [-1, 1].
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn assert_close(a: &Matrix<f64>, b: &Matrix<f64>, tol: f64) {
        assert!(
            a.max_abs_diff(b) < tol,
            "matrices differ by {}",
            a.max_abs_diff(b)
        );
    }

    #[test]
    fn blocked_matches_naive_various_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 3),
            (17, 33, 9),
            (64, 65, 66),
            (70, 300, 12),
            (3, 512, 3),
        ] {
            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let mut c1 = mat(m, n, 3);
            let mut c2 = c1.clone();
            gemm(1.5, &a, &b, 0.5, &mut c1);
            gemm_naive(1.5, &a, &b, 0.5, &mut c2);
            assert_close(&c1, &c2, 1e-10);
        }
    }

    #[test]
    fn nt_matches_naive_on_transposed_operand() {
        for &(m, k, n) in &[(13, 21, 8), (3, 300, 17), (65, 7, 9)] {
            let a = mat(m, k, 4);
            let bt = mat(n, k, 5); // B stored transposed: n×k
            let mut c1 = Matrix::zeros(m, n);
            gemm_nt(2.0, &a, &bt, 0.0, &mut c1);
            let mut c2 = Matrix::zeros(m, n);
            gemm_naive(2.0, &a, &bt.transposed(), 0.0, &mut c2);
            assert_close(&c1, &c2, 1e-10);
        }
    }

    #[test]
    fn tn_matches_naive_on_transposed_operand() {
        for &(m, k, n) in &[(9, 31, 14), (5, 300, 17), (66, 70, 3)] {
            let at = mat(k, m, 6); // A stored transposed: k×m
            let b = mat(k, n, 7);
            let mut c1 = mat(m, n, 8);
            let mut c2 = c1.clone();
            gemm_tn(0.7, &at, &b, 1.0, &mut c1);
            gemm_naive(0.7, &at.transposed(), &b, 1.0, &mut c2);
            assert_close(&c1, &c2, 1e-10);
        }
    }

    /// Regression for the old `if f == 0 { continue; }` fast path: a zero in
    /// `Aᵀ` against a non-finite element of `B` must produce NaN exactly
    /// like the naive oracle (`0 · inf = NaN`), not silently skip it.
    #[test]
    fn tn_propagates_nonfinite_through_zero_rows() {
        let (m, k, n) = (3usize, 4usize, 5usize);
        let mut at = mat(k, m, 9);
        at.set(1, 0, 0.0); // Aᵀ[0, 1] = 0 pairs with B row 1
        at.set(2, 2, 0.0);
        let mut b = mat(k, n, 10);
        b.set(1, 3, f64::INFINITY);
        b.set(2, 0, f64::NAN);
        let mut c1 = Matrix::zeros(m, n);
        gemm_tn(1.0, &at, &b, 0.0, &mut c1);
        let mut c2 = Matrix::zeros(m, n);
        gemm_naive(1.0, &at.transposed(), &b, 0.0, &mut c2);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    c1.get(i, j).is_nan(),
                    c2.get(i, j).is_nan(),
                    "NaN placement diverges from oracle at ({i},{j})"
                );
                if c2.get(i, j).is_infinite() {
                    assert_eq!(c1.get(i, j), c2.get(i, j), "inf sign at ({i},{j})");
                } else if !c2.get(i, j).is_nan() {
                    assert!((c1.get(i, j) - c2.get(i, j)).abs() < 1e-10);
                }
            }
        }
        // The oracle really does see NaN where the zero met the infinity.
        assert!(c2.get(0, 3).is_nan(), "test must exercise the 0·inf path");
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        // beta = 0 must not propagate NaNs from C's previous contents.
        let a = mat(2, 2, 9);
        let b = mat(2, 2, 10);
        let mut c = Matrix::full(2, 2, f64::NAN);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert!(c.all_finite());
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let a = mat(3, 3, 11);
        let b = mat(3, 3, 12);
        let mut c = Matrix::full(3, 3, 2.0);
        gemm(0.0, &a, &b, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(6, 6, 13);
        let i = Matrix::identity(6);
        let mut c = Matrix::zeros(6, 6);
        gemm(1.0, &a, &i, 0.0, &mut c);
        assert_close(&c, &a, 1e-12);
        gemm(1.0, &i, &a, 0.0, &mut c);
        assert_close(&c, &a, 1e-12);
    }

    #[test]
    fn empty_dims_are_noops() {
        let a: Matrix<f64> = Matrix::zeros(0, 4);
        let b: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c: Matrix<f64> = Matrix::zeros(0, 2);
        gemm(1.0, &a, &b, 0.0, &mut c); // must not panic
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::full(3, 2, 5.0);
        gemm(1.0, &a, &b, 1.0, &mut c); // k = 0: C unchanged
        assert!(c.as_slice().iter().all(|&v| v == 5.0));
    }

    /// The transpose variants get the same degenerate-shape guarantees as
    /// [`gemm`]: zero-row / zero-col / zero-k products are no-ops (beyond
    /// the beta scaling) and must not panic.
    #[test]
    fn empty_dims_are_noops_for_transpose_variants() {
        // m = 0.
        let a: Matrix<f64> = Matrix::zeros(0, 4);
        let bt: Matrix<f64> = Matrix::zeros(2, 4);
        let mut c: Matrix<f64> = Matrix::zeros(0, 2);
        gemm_nt(1.0, &a, &bt, 0.0, &mut c);
        let at: Matrix<f64> = Matrix::zeros(4, 0);
        let b: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c: Matrix<f64> = Matrix::zeros(0, 2);
        gemm_tn(1.0, &at, &b, 0.0, &mut c);

        // n = 0.
        let a: Matrix<f64> = Matrix::zeros(3, 4);
        let bt: Matrix<f64> = Matrix::zeros(0, 4);
        let mut c: Matrix<f64> = Matrix::zeros(3, 0);
        gemm_nt(1.0, &a, &bt, 0.0, &mut c);
        let at: Matrix<f64> = Matrix::zeros(4, 3);
        let b: Matrix<f64> = Matrix::zeros(4, 0);
        let mut c: Matrix<f64> = Matrix::zeros(3, 0);
        gemm_tn(1.0, &at, &b, 0.0, &mut c);

        // k = 0: C only sees the beta scaling.
        let a: Matrix<f64> = Matrix::zeros(3, 0);
        let bt: Matrix<f64> = Matrix::zeros(2, 0);
        let mut c = Matrix::full(3, 2, 5.0);
        gemm_nt(1.0, &a, &bt, 1.0, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 5.0));
        let at: Matrix<f64> = Matrix::zeros(0, 3);
        let b: Matrix<f64> = Matrix::zeros(0, 2);
        let mut c = Matrix::full(3, 2, 5.0);
        gemm_tn(1.0, &at, &b, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a: Matrix<f64> = Matrix::zeros(2, 3);
        let b: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c: Matrix<f64> = Matrix::zeros(2, 2);
        gemm(1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
