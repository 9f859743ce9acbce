//! Vector kernels (`std::arch`) behind the dispatch points in
//! [`crate::gemm`] and [`crate::ops`].
//!
//! * **x86-64**: AVX2+FMA, selected per call via `is_x86_feature_detected!`
//!   (a cached atomic load). `f32` GEMMs run the register-tile kernels
//!   below (4×16 where sixteen columns exist, 4×8 on one narrower strip);
//!   `f64`, ragged edges, the fused element-wise ops and the sigmoid/tanh
//!   loops run the portable loops of [`crate::reference`] inlined into an
//!   `avx2,fma` wrapper, where `mul_add` is one `vfmadd` instead of a call
//!   to `fmaf` and the straight-line `f32` non-linearities vectorise.
//! * **aarch64**: NEON kernels for the `f32` NN GEMM, `axpy` and
//!   `hadamard_add` (NEON is baseline on aarch64, no detection needed).
//! * **anything else**: nothing here is compiled; the portable loops run.
//!
//! Bit-identity contract: every kernel performs, per output element, the
//! portable loops' exact operation sequence — `alpha · a[i,p]` broadcast
//! into the lanes (NN/TN) or `alpha` applied at the flush (NT), FMA in
//! ascending `p`, one accumulator flush into `C` per `KC` block. A vector
//! lane is an IEEE-754 FMA like any other, so results equal the portable
//! loops' bit for bit. NT gets there by packing `Bᵀ` into a `KC × 2·NR`
//! panel first, so that its reduction runs down the lanes instead of across
//! them.

use super::{BackendKind, KernelBackend};

/// The default backend: the dispatched kernels, nothing overridden.
/// [`SimdBackend::detected`] reports whether a vector unit was found.
#[derive(Debug)]
pub struct SimdBackend;

impl SimdBackend {
    /// True when this build/host combination actually runs vector kernels.
    pub fn detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        return x86::detect();
        #[cfg(target_arch = "aarch64")]
        return true;
        #[allow(unreachable_code)]
        false
    }
}

impl KernelBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::activation::Activation;
    use crate::backend::f32_views;
    use crate::gemm::{narrow, KC, MR, NR};
    use crate::reference;
    use crate::scalar::Float;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    #[inline]
    pub(crate) fn detect() -> bool {
        // is_x86_feature_detected! caches its own CPUID result.
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// `C += alpha * A * B`, or `C += alpha * Aᵀ * B` with `A` stored `k×m`
    /// when `TRANS_A`. Narrow products take the portable row loop.
    ///
    /// # Safety
    /// AVX2+FMA must be available and the slices at least `m×k`, `k×n`, `m×n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gemm<T: Float, const TRANS_A: bool>(
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
        match f32_views(a, b, c) {
            // SAFETY: this fn's contract, passed on unchanged.
            Some((a, b, c)) => unsafe { gemm_f32::<TRANS_A>(alpha.to_f32(), a, b, c, m, k, n) },
            None if TRANS_A => reference::gemm_tn_accum(alpha, a, b, c, m, k, n),
            None => reference::gemm_accum(alpha, a, b, c, m, k, n),
        }
    }

    /// `C += alpha * A * Bᵀ` (`B: n×k`). Products narrower than one
    /// register (`n < NR`) have nothing to pack and take the portable loop.
    ///
    /// # Safety
    /// AVX2+FMA must be available and the slices at least `m×k`, `n×k`, `m×n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gemm_nt<T: Float>(
        alpha: T,
        a: &[T],
        b: &[T],
        c: &mut [T],
        m: usize,
        k: usize,
        n: usize,
    ) {
        match f32_views(a, b, c) {
            // SAFETY: this fn's contract, passed on unchanged.
            Some((a, b, c)) if n >= NR => unsafe { gemm_nt_f32(alpha.to_f32(), a, b, c, m, k, n) },
            _ => reference::gemm_nt_cols(alpha, a, b, c, m, k, n, 0),
        }
    }

    /// The `f32` NN/TN kernel: 16-column strips on the wide register tile,
    /// one 8-column strip if eight or more columns remain, the ragged right
    /// edge on the portable micro-kernels. At `alpha == 1` the tile skips
    /// the prescale (`1 · a == a` and `c + 1 · acc == c + acc`, so the bits
    /// cannot change).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_f32<const TRANS_A: bool>(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // `A[i, p]` lives at `a[i * rs + p * cs]`.
        let (rs, cs) = if TRANS_A { (1, m) } else { (k, 1) };
        for kk in (0..k).step_by(KC) {
            let kend = (kk + KC).min(k);
            for i0 in (0..m).step_by(MR) {
                let ilim = (i0 + MR).min(m);
                let mut j0 = 0;
                while j0 + NR <= n {
                    let wide = j0 + 2 * NR <= n;
                    // SAFETY: rows [i0, ilim), the k-panel [kk, kend) and
                    // columns [j0, j0 + 16) if `wide`, [j0, j0 + 8)
                    // otherwise, are inside the m×k / k×n / m×n slices the
                    // caller vouched for.
                    unsafe {
                        let ap = a.as_ptr().add(i0 * rs + kk * cs);
                        let bp = b.as_ptr().add(kk * n + j0);
                        let cp = c.as_mut_ptr().add(i0 * n + j0);
                        let (rows, kc) = (ilim - i0, kend - kk);
                        match (wide, alpha == 1.0) {
                            (true, false) => {
                                tile::<true, 2>(alpha, ap, rs, cs, bp, n, cp, n, rows, kc)
                            }
                            (true, true) => {
                                tile::<false, 2>(alpha, ap, rs, cs, bp, n, cp, n, rows, kc)
                            }
                            (false, false) => {
                                tile::<true, 1>(alpha, ap, rs, cs, bp, n, cp, n, rows, kc)
                            }
                            (false, true) => {
                                tile::<false, 1>(alpha, ap, rs, cs, bp, n, cp, n, rows, kc)
                            }
                        }
                    }
                    j0 += if wide { 2 * NR } else { NR };
                }
                if j0 < n && TRANS_A {
                    reference::micro_kernel_t(alpha, a, m, b, c, i0, ilim, j0, n, kk, kend, n);
                } else if j0 < n {
                    reference::micro_kernel(alpha, a, k, b, c, i0, ilim, j0, n, kk, kend, n);
                }
            }
        }
    }

    /// The `f32` NT kernel, order-preserving: each 16-column strip of `Bᵀ`
    /// (8 columns for a last narrow one) is transposed into a `KC × 16`
    /// panel, after which the product is the NN register tile with `alpha`
    /// applied at the flush — the portable loop's one FMA chain per
    /// element, sixteen elements abreast. Columns past the last full
    /// 8-column strip take the portable loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_nt_f32(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let full = n - n % NR;
        // Written by `pack_bt` before `tile` reads it; never zero-filled.
        let mut panel = [MaybeUninit::<f32>::uninit(); KC * 2 * NR];
        let panel = panel.as_mut_ptr().cast::<f32>();
        for kk in (0..k).step_by(KC) {
            let kc = (kk + KC).min(k) - kk;
            let mut j0 = 0;
            while j0 < full {
                // Registers per row in this strip, and the panel's stride.
                let w = if j0 + 2 * NR <= full { 2 } else { 1 };
                let ldp = w * NR;
                for v in 0..w {
                    let j = j0 + v * NR;
                    // SAFETY: rows [j, j+NR) × columns [kk, kk+kc) of the
                    // n×k `b` are in bounds (j + NR ≤ full); columns
                    // [v·NR, v·NR + NR) of the kc × ldp panel are inside
                    // its KC × 2·NR floats.
                    unsafe { pack_bt(b.as_ptr().add(j * k + kk), k, kc, panel.add(v * NR), ldp) };
                }
                for i0 in (0..m).step_by(MR) {
                    let rows = (m - i0).min(MR);
                    // SAFETY: rows [i0, i0+rows) × [kk, kk+kc) of `a` and
                    // × [j0, j0 + ldp) of `c` are in bounds (j0 + ldp ≤
                    // full); `pack_bt` just initialised the kc × ldp panel.
                    unsafe {
                        let ap = a.as_ptr().add(i0 * k + kk);
                        let cp = c.as_mut_ptr().add(i0 * n + j0);
                        if w == 2 {
                            tile::<false, 2>(alpha, ap, k, 1, panel, ldp, cp, n, rows, kc)
                        } else {
                            tile::<false, 1>(alpha, ap, k, 1, panel, ldp, cp, n, rows, kc)
                        }
                    }
                }
                j0 += ldp;
            }
        }
        if full < n {
            reference::gemm_nt_cols(alpha, a, b, c, m, k, n, full);
        }
    }

    /// `panel[p * ldp + j] = b[j * ldb + p]` for `j < NR`, `p < kc`: an
    /// `NR × kc` block of row-major `b`, transposed into `NR` columns of a
    /// panel whose rows are `ldp` floats apart.
    #[inline(always)]
    unsafe fn pack_bt(b: *const f32, ldb: usize, kc: usize, panel: *mut f32, ldp: usize) {
        // SAFETY: the caller guarantees `b` addresses NR rows of ≥ kc
        // floats at stride `ldb` and `panel` kc rows of ≥ NR floats at
        // stride `ldp`, and only calls this with AVX2 available.
        unsafe {
            let mut p = 0;
            while p + 8 <= kc {
                // 8×8 in-register transpose: unpack pairs, shuffle quads,
                // then swap the 128-bit halves.
                let r0 = _mm256_loadu_ps(b.add(p));
                let r1 = _mm256_loadu_ps(b.add(ldb + p));
                let r2 = _mm256_loadu_ps(b.add(2 * ldb + p));
                let r3 = _mm256_loadu_ps(b.add(3 * ldb + p));
                let r4 = _mm256_loadu_ps(b.add(4 * ldb + p));
                let r5 = _mm256_loadu_ps(b.add(5 * ldb + p));
                let r6 = _mm256_loadu_ps(b.add(6 * ldb + p));
                let r7 = _mm256_loadu_ps(b.add(7 * ldb + p));
                let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
                let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
                let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
                let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
                let s = [
                    _mm256_shuffle_ps::<0x44>(t0, t2),
                    _mm256_shuffle_ps::<0xEE>(t0, t2),
                    _mm256_shuffle_ps::<0x44>(t1, t3),
                    _mm256_shuffle_ps::<0xEE>(t1, t3),
                    _mm256_shuffle_ps::<0x44>(t4, t6),
                    _mm256_shuffle_ps::<0xEE>(t4, t6),
                    _mm256_shuffle_ps::<0x44>(t5, t7),
                    _mm256_shuffle_ps::<0xEE>(t5, t7),
                ];
                for q in 0..4 {
                    let out = panel.add((p + q) * ldp);
                    _mm256_storeu_ps(out, _mm256_permute2f128_ps::<0x20>(s[q], s[q + 4]));
                    _mm256_storeu_ps(
                        out.add(4 * ldp),
                        _mm256_permute2f128_ps::<0x31>(s[q], s[q + 4]),
                    );
                }
                p += 8;
            }
            while p < kc {
                for j in 0..NR {
                    *panel.add(p * ldp + j) = *b.add(j * ldb + p);
                }
                p += 1;
            }
        }
    }

    /// One `rows × W·NR` register tile (`rows ≤ MR`, `W` 8-lane registers
    /// per row: the 4×16 tile is `W = 2`, eight independent FMA chains fed
    /// by two loads of `B` and four broadcasts of `A` per step) over `kc`
    /// reduction steps: `acc[r] = fma(A[r, p], B[p, ·], acc[r])` for
    /// ascending `p`, then one flush into `C`. `A[r, p]` is `a[r*rs + p*cs]`,
    /// `B[p, ·]` the `W·NR` floats at `b[p * ldb]`. `PRE` folds `alpha` into
    /// `A` before the FMA and flushes `c += acc` (the NN/TN order);
    /// otherwise the flush is `c += alpha · acc` (the NT order).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile<const PRE: bool, const W: usize>(
        alpha: f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        kc: usize,
    ) {
        // SAFETY: the caller's guarantees, passed on unchanged. A full tile
        // gets its row count as a constant, so that the row loops unroll
        // and the accumulators stay in registers.
        unsafe {
            if rows == MR {
                tile_rows::<PRE, W>(alpha, a, rs, cs, b, ldb, c, ldc, MR, kc)
            } else {
                tile_rows::<PRE, W>(alpha, a, rs, cs, b, ldb, c, ldc, rows, kc)
            }
        }
    }

    /// The body of [`tile`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile_rows<const PRE: bool, const W: usize>(
        alpha: f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        kc: usize,
    ) {
        // SAFETY: the caller guarantees AVX2+FMA, `rows ≤ MR`, and that
        // `a`, `b`, `c` address a rows×kc, kc×(W·NR) and rows×(W·NR) block
        // at the given strides.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); W]; MR];
            for p in 0..kc {
                let mut bv = [_mm256_setzero_ps(); W];
                for (v, bv) in bv.iter_mut().enumerate() {
                    *bv = _mm256_loadu_ps(b.add(p * ldb + v * NR));
                }
                for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                    let av = *a.add(r * rs + p * cs);
                    let av = _mm256_set1_ps(if PRE { alpha * av } else { av });
                    for (accv, bv) in accr.iter_mut().zip(bv) {
                        *accv = _mm256_fmadd_ps(av, bv, *accv);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(rows) {
                for (v, accv) in accr.iter().enumerate() {
                    let cp = c.add(r * ldc + v * NR);
                    let add = if PRE {
                        *accv
                    } else {
                        _mm256_mul_ps(_mm256_set1_ps(alpha), *accv)
                    };
                    _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), add));
                }
            }
        }
    }

    /// The fused element-wise loops of [`crate::reference`], compiled for
    /// AVX2+FMA: the loop inlines here, `mul_add` becomes `vfmadd`, and
    /// the independent ones vectorize (a lane-wise FMA is the same
    /// correctly-rounded operation, so the bits cannot change).
    ///
    /// # Safety
    /// AVX2+FMA must be available (the bodies are safe code).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy<T: Float>(alpha: T, x: &[T], y: &mut [T]) {
        reference::axpy_slice(alpha, x, y);
    }

    /// See [`axpy`]: a narrow gate product, bias and activation in one pass
    /// per row ([`reference::affine_rows`]).
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn affine<T: Float>(
        act: Activation,
        a: &[T],
        w: &[T],
        b: &[T],
        c: &mut [T],
        m: usize,
        k: usize,
        n: usize,
    ) {
        reference::affine_rows(act, a, w, b, c, m, k, n);
    }

    /// See [`axpy`].
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn hadamard_add<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
        reference::hadamard_add_slice(a, b, out);
    }

    /// See [`axpy`].
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_mul_add<T: Float>(
        a: &[T],
        x: &[T],
        y: &[T],
        out: &mut [T],
        rows: usize,
        cols: usize,
    ) {
        reference::row_mul_add_slice(a, x, y, out, rows, cols);
    }

    /// See [`axpy`]; the chain is sequential, so this one stays scalar.
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dot<T: Float>(a: &[T], b: &[T]) -> T {
        reference::dot_slice(a, b)
    }

    /// See [`axpy`]: for `f32` the body is straight-line arithmetic with no
    /// call in it, so the loop vectorises eight lanes wide (a lane is the
    /// same IEEE operation; nothing contracts to an FMA).
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn sigmoid<T: Float>(m: &mut [T]) {
        reference::sigmoid_slice(m);
    }

    /// See [`sigmoid`].
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn tanh<T: Float>(m: &mut [T]) {
        reference::tanh_slice(m);
    }

    /// See [`axpy`]: ten `ymm` accumulators, nothing but `vfmadd` in the loop.
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn fma_chains(iters: usize) -> f32 {
        reference::fma_chains(iters)
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use crate::gemm::{KC, MC, MR, NR};
    use crate::reference::micro_kernel;
    use std::arch::aarch64::*;

    /// `C += alpha * A * B`, bit-identical to `gemm_accum` (two 4-lane
    /// registers cover the scalar NR=8 tile).
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn gemm(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
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
                    let mut j0 = 0;
                    while j0 + NR <= n {
                        // SAFETY: the tile [i0, ilim) × [j0, j0+NR) and the
                        // k-panel [kk, kend) are in bounds of a/b/c by the
                        // loop limits; NEON availability is this fn's
                        // contract.
                        unsafe { mk_n(alpha, a, b, c, i0, ilim, j0, kk, kend, k, n) };
                        j0 += NR;
                    }
                    if j0 < n {
                        micro_kernel(alpha, a, k, b, c, i0, ilim, j0, n, kk, kend, n);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn mk_n(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        ilim: usize,
        j0: usize,
        kk: usize,
        kend: usize,
        lda: usize,
        n: usize,
    ) {
        // SAFETY: the caller (gemm) guarantees the MR×NR tile at
        // (i0, j0) and the k-panel [kk, kend) are in bounds of a/b/c,
        // and only calls this with NEON available.
        unsafe {
            let mut lo = [vdupq_n_f32(0.0); MR];
            let mut hi = [vdupq_n_f32(0.0); MR];
            let rows = ilim - i0;
            for p in kk..kend {
                let bl = vld1q_f32(b.as_ptr().add(p * n + j0));
                let bh = vld1q_f32(b.as_ptr().add(p * n + j0 + 4));
                for di in 0..rows {
                    let aval = alpha * *a.get_unchecked((i0 + di) * lda + p);
                    let av = vdupq_n_f32(aval);
                    lo[di] = vfmaq_f32(lo[di], av, bl);
                    hi[di] = vfmaq_f32(hi[di], av, bh);
                }
            }
            for di in 0..rows {
                let cp = c.as_mut_ptr().add((i0 + di) * n + j0);
                vst1q_f32(cp, vaddq_f32(vld1q_f32(cp as *const f32), lo[di]));
                vst1q_f32(
                    cp.add(4),
                    vaddq_f32(vld1q_f32(cp.add(4) as *const f32), hi[di]),
                );
            }
        }
    }

    /// `y += alpha * x`, lane-wise FMA (bit-identical).
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: every access is below the min of the two lengths;
        // NEON availability is this fn's contract.
        unsafe {
            let len = x.len().min(y.len());
            let av = vdupq_n_f32(alpha);
            let mut i = 0;
            while i + 4 <= len {
                let yv = vld1q_f32(y.as_ptr().add(i));
                let xv = vld1q_f32(x.as_ptr().add(i));
                vst1q_f32(y.as_mut_ptr().add(i), vfmaq_f32(yv, av, xv));
                i += 4;
            }
            while i < len {
                *y.get_unchecked_mut(i) = alpha.mul_add(*x.get_unchecked(i), *y.get_unchecked(i));
                i += 1;
            }
        }
    }

    /// `out += a ⊙ b`, lane-wise FMA (bit-identical).
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn hadamard_add(a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: every access is below the min of the three lengths;
        // NEON availability is this fn's contract.
        unsafe {
            let len = a.len().min(b.len()).min(out.len());
            let mut i = 0;
            while i + 4 <= len {
                let ov = vld1q_f32(out.as_ptr().add(i));
                let av = vld1q_f32(a.as_ptr().add(i));
                let bv = vld1q_f32(b.as_ptr().add(i));
                vst1q_f32(out.as_mut_ptr().add(i), vfmaq_f32(ov, av, bv));
                i += 4;
            }
            while i < len {
                *out.get_unchecked_mut(i) = a
                    .get_unchecked(i)
                    .mul_add(*b.get_unchecked(i), *out.get_unchecked(i));
                i += 1;
            }
        }
    }
}
