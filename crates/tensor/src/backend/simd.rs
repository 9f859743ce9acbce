//! Vector kernels (`std::arch`) behind the dispatch points in
//! [`crate::gemm`], [`crate::ops`] and [`crate::activation`].
//!
//! * **x86-64**: two tiers; run-time detection picks the widest the host
//!   has on every call (`x86::tier`, cached atomic loads):
//!   - `avx512` (AVX-512F): `f32` NN, TN and NT run an 8×32 `zmm` register
//!     tile over every 32-column strip; the columns it leaves over take
//!     the `avx2` strips, then the portable edge;
//!   - `avx2` (AVX2+FMA): a 4×16 `ymm` tile over every 16-column strip, a
//!     4×8 one over one 8-column strip, the portable micro-kernel over the
//!     ragged right edge.
//!
//!   Both tiers are one source. The tile body is generic over the register
//!   width (`x86::Lanes`, implemented for `Ymm` and `Zmm`). `f64`, narrow
//!   products, the fused element-wise ops and the sigmoid/tanh loops run
//!   the portable loops of [`crate::reference`] inlined into a wrapper per
//!   tier, written once as a macro. There `mul_add` is one `vfmadd`
//!   instead of a call to `fmaf`, and the straight-line `f32`
//!   non-linearities vectorise sixteen or eight lanes wide. A narrow cell
//!   step ([`crate::step`]) runs in the `avx2` wrapper on both tiers.
//! * **aarch64**: NEON kernels for the `f32` NN GEMM, `axpy` and
//!   `hadamard_add` (NEON is baseline on aarch64, no detection needed).
//! * **anything else**: nothing here is compiled; the portable loops run.
//!
//! Bit-identity contract: every kernel performs, per output element, the
//! portable loops' exact operation sequence — `alpha · a[i,p]` broadcast
//! into the lanes (NN/TN) or `alpha` applied at the flush (NT), FMA in
//! ascending `p` from a zero accumulator, one flush into `C` per `KC`
//! block. A vector lane is an IEEE-754 FMA like any other, and a wider
//! register computes more elements abreast without changing any one
//! element's sequence, so both tiers equal the portable loops bit for bit.
//! NT gets there by packing `Bᵀ` into a `KC × width` panel first, so that
//! its reduction runs down the lanes instead of across them.

use super::{BackendKind, KernelBackend};

/// The default backend: the dispatched kernels, nothing overridden.
/// [`SimdBackend::detected`] reports whether a vector unit was found,
/// [`SimdBackend::tier`] which one.
#[derive(Debug)]
pub struct SimdBackend;

impl SimdBackend {
    /// True when this build/host combination actually runs vector kernels.
    pub fn detected() -> bool {
        Self::tier() != "portable"
    }

    /// The tier the dispatched kernels run on this host: `avx512`, `avx2`,
    /// `neon` or `portable`.
    pub fn tier() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        return match x86::tier() {
            Some(x86::Tier::Avx512) => "avx512",
            Some(x86::Tier::Avx2) => "avx2",
            None => "portable",
        };
        #[cfg(target_arch = "aarch64")]
        return "neon";
        #[allow(unreachable_code)]
        "portable"
    }
}

impl KernelBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }
}

/// Runs `$f(args)` on the widest x86-64 tier the host has — the wrapper of
/// that name in `x86::avx512`, else the one in `x86::avx2` — and returns its
/// result from the calling function. On a host with neither, and on every
/// other architecture, it does nothing and the caller goes on to its
/// portable loops. A wrapper's contract is its tier's units plus whatever
/// bounds its `# Safety` section names; the caller checks those bounds
/// before this line.
macro_rules! x86_tiers {
    ($f:ident $(::<$($g:tt),+>)? ($($arg:expr),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        match $crate::backend::simd::x86::tier() {
            Some($crate::backend::simd::x86::Tier::Avx512) => {
                // SAFETY: tier() detected AVX-512F with AVX2+FMA; the
                // caller checked the bounds the wrapper names.
                return unsafe { $crate::backend::simd::x86::avx512::$f $(::<$($g),+>)? ($($arg),*) };
            }
            Some($crate::backend::simd::x86::Tier::Avx2) => {
                // SAFETY: tier() detected AVX2+FMA; the caller checked the
                // bounds the wrapper names.
                return unsafe { $crate::backend::simd::x86::avx2::$f $(::<$($g),+>)? ($($arg),*) };
            }
            None => {}
        }
    };
}
pub(crate) use x86_tiers;

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::gemm::{KC, MR, NR};
    use crate::reference;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// The two x86-64 vector tiers. Only run-time detection picks one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Tier {
        /// AVX-512F (AVX2+FMA for the strips a `zmm` tile leaves over).
        Avx512,
        /// AVX2+FMA.
        Avx2,
    }

    /// The widest tier this host runs; `None` without AVX2+FMA.
    #[inline]
    pub(crate) fn tier() -> Option<Tier> {
        // is_x86_feature_detected! caches its own CPUID result.
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            None
        } else if is_x86_feature_detected!("avx512f") {
            Some(Tier::Avx512)
        } else {
            Some(Tier::Avx2)
        }
    }

    /// One vector register of `f32` lanes: what the register tile does with
    /// it. [`Ymm`] and [`Zmm`] implement it, so one tile body serves both
    /// widths. The methods are `#[inline(always)]` and take on the target
    /// features of the tier wrapper they end up in.
    ///
    /// Every method requires the register's units on the host, and `load`
    /// and `store` a pointer to `N` floats.
    trait Lanes {
        /// The register.
        type V: Copy;
        /// `f32` lanes per register.
        const N: usize;
        unsafe fn zero() -> Self::V;
        unsafe fn splat(x: f32) -> Self::V;
        unsafe fn load(p: *const f32) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        /// `a · b + c` per lane, rounded once.
        unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    }

    /// Eight lanes: AVX2+FMA.
    struct Ymm;
    /// Sixteen lanes: AVX-512F.
    struct Zmm;

    macro_rules! lanes {
        ($reg:ty, $v:ty, $n:literal, $zero:ident, $splat:ident, $load:ident, $store:ident,
         $fmadd:ident, $add:ident, $mul:ident) => {
            impl Lanes for $reg {
                type V = $v;
                const N: usize = $n;
                #[inline(always)]
                unsafe fn zero() -> $v {
                    // SAFETY: the trait's contract (the units are there).
                    unsafe { $zero() }
                }
                #[inline(always)]
                unsafe fn splat(x: f32) -> $v {
                    // SAFETY: as for `zero`.
                    unsafe { $splat(x) }
                }
                #[inline(always)]
                unsafe fn load(p: *const f32) -> $v {
                    // SAFETY: the trait's contract: `p` addresses N floats.
                    unsafe { $load(p) }
                }
                #[inline(always)]
                unsafe fn store(p: *mut f32, v: $v) {
                    // SAFETY: as for `load`.
                    unsafe { $store(p, v) }
                }
                #[inline(always)]
                unsafe fn fmadd(a: $v, b: $v, c: $v) -> $v {
                    // SAFETY: as for `zero`.
                    unsafe { $fmadd(a, b, c) }
                }
                #[inline(always)]
                unsafe fn add(a: $v, b: $v) -> $v {
                    // SAFETY: as for `zero`.
                    unsafe { $add(a, b) }
                }
                #[inline(always)]
                unsafe fn mul(a: $v, b: $v) -> $v {
                    // SAFETY: as for `zero`.
                    unsafe { $mul(a, b) }
                }
            }
        };
    }
    lanes!(
        Ymm,
        __m256,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );
    lanes!(
        Zmm,
        __m512,
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_fmadd_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    );

    /// Rows of the `zmm` tile: 8 rows × 2 registers is sixteen accumulators
    /// of the thirty-two `zmm` registers, two loads of `B` and one broadcast
    /// of `A` beside them.
    const ZMM_ROWS: usize = 8;

    /// The `f32` NN/TN kernel, `C += alpha · op(A) · B`, per `KC` block of
    /// the reduction: with `ZMM`, the 8×32 `zmm` tile over every 32-column
    /// strip; then the 4×16 `ymm` tile over every 16-column strip left, the
    /// 4×8 one over one 8-column strip, and the portable micro-kernels over
    /// the ragged right edge. At `alpha == 1` the tiles skip the prescale
    /// (`1 · a == a` and `c + 1 · acc == c + acc`, so the bits cannot
    /// change).
    ///
    /// # Safety
    /// AVX2+FMA must be available (and AVX-512F with `ZMM`), and the slices
    /// at least `m×k` (`k×m` with `TRANS_A`), `k×n` and `m×n`.
    #[inline(always)]
    unsafe fn gemm_f32<const ZMM: bool, const TRANS_A: bool>(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // SAFETY: this fn's contract, passed on unchanged.
        unsafe {
            if alpha == 1.0 {
                gemm_blocks::<false, ZMM, TRANS_A>(alpha, a, b, c, m, k, n)
            } else {
                gemm_blocks::<true, ZMM, TRANS_A>(alpha, a, b, c, m, k, n)
            }
        }
    }

    /// The body of [`gemm_f32`], `PRE` fixed.
    #[inline(always)]
    unsafe fn gemm_blocks<const PRE: bool, const ZMM: bool, const TRANS_A: bool>(
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
            let kc = kend - kk;
            let mut j = 0;
            // SAFETY: every strip [j, j + width) ends at or before n; it
            // reads the k-panel [kk, kend) of `a` and `b` and writes rows
            // [0, m) of `c`, inside the slices the caller vouched for.
            unsafe {
                let (ap, bp, cp) = (
                    a.as_ptr().add(kk * cs),
                    b.as_ptr().add(kk * n),
                    c.as_mut_ptr(),
                );
                if ZMM {
                    while j + 2 * Zmm::N <= n {
                        let (bj, cj) = (bp.add(j), cp.add(j));
                        strip::<Zmm, PRE, ZMM_ROWS, 2>(alpha, ap, rs, cs, bj, n, cj, n, m, kc);
                        j += 2 * Zmm::N;
                    }
                }
                while j + 2 * NR <= n {
                    strip::<Ymm, PRE, MR, 2>(alpha, ap, rs, cs, bp.add(j), n, cp.add(j), n, m, kc);
                    j += 2 * NR;
                }
                if j + NR <= n {
                    strip::<Ymm, PRE, MR, 1>(alpha, ap, rs, cs, bp.add(j), n, cp.add(j), n, m, kc);
                    j += NR;
                }
            }
            if j < n {
                for i0 in (0..m).step_by(MR) {
                    let ilim = (i0 + MR).min(m);
                    if TRANS_A {
                        reference::micro_kernel_t(alpha, a, m, b, c, i0, ilim, j, n, kk, kend, n);
                    } else {
                        reference::micro_kernel(alpha, a, k, b, c, i0, ilim, j, n, kk, kend, n);
                    }
                }
            }
        }
    }

    /// The `f32` NT kernel, order-preserving: each strip of `Bᵀ` — 32
    /// columns with `ZMM` where 32 remain, else 16, else 8 — is transposed
    /// into a `KC × width` panel, after which the product is the NN register
    /// tile with `alpha` applied at the flush: the portable loop's one FMA
    /// chain per element, a whole strip abreast. Columns past the last full
    /// 8-column strip take the portable loop. Below one `zmm` tile of rows
    /// (`m < 8`) the strips stay 16 wide: there the pack is most of the
    /// work and the 32-wide strips measured slower (1×320×512: 5 GFLOP/s
    /// against 7 on 16-wide strips).
    ///
    /// # Safety
    /// As [`gemm_f32`], with `B` `n×k`.
    #[inline(always)]
    unsafe fn gemm_nt_f32<const ZMM: bool>(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let full = n - n % NR;
        let zmm = ZMM && m >= ZMM_ROWS;
        // Written by `pack_bt` before `tile` reads it; never zero-filled.
        // Sized for the widest strip.
        let mut panel = [MaybeUninit::<f32>::uninit(); KC * 2 * Zmm::N];
        let panel = panel.as_mut_ptr().cast::<f32>();
        for kk in (0..k).step_by(KC) {
            let kc = (kk + KC).min(k) - kk;
            let mut j0 = 0;
            while j0 < full {
                // The strip's width, which is also the panel's row stride.
                let ldp = if zmm && j0 + 2 * Zmm::N <= full {
                    2 * Zmm::N
                } else if j0 + 2 * NR <= full {
                    2 * NR
                } else {
                    NR
                };
                for v in (0..ldp).step_by(NR) {
                    // SAFETY: rows [j0 + v, j0 + v + NR) × columns [kk,
                    // kk + kc) of the n×k `b` are in bounds (j0 + ldp ≤
                    // full); columns [v, v + NR) of the kc × ldp panel are
                    // inside its KC × 32 floats.
                    unsafe { pack_bt(b.as_ptr().add((j0 + v) * k + kk), k, kc, panel.add(v), ldp) };
                }
                // SAFETY: rows [0, m) × [kk, kk + kc) of `a` and × [j0, j0 +
                // ldp) of `c` are in bounds (j0 + ldp ≤ full ≤ n);
                // `pack_bt` just initialised the kc × ldp panel.
                unsafe {
                    let (ap, cp) = (a.as_ptr().add(kk), c.as_mut_ptr().add(j0));
                    if zmm && ldp == 2 * Zmm::N {
                        strip::<Zmm, false, ZMM_ROWS, 2>(alpha, ap, k, 1, panel, ldp, cp, n, m, kc)
                    } else if ldp == 2 * NR {
                        strip::<Ymm, false, MR, 2>(alpha, ap, k, 1, panel, ldp, cp, n, m, kc)
                    } else {
                        strip::<Ymm, false, MR, 1>(alpha, ap, k, 1, panel, ldp, cp, n, m, kc)
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

    /// One column strip of `W` registers, every row tile of it: [`tile`]
    /// over rows `[0, m)` in steps of `ROWS`, against the same `kc × W·N`
    /// block of `B`, then the rows left over in tiles of 4, 2 and 1. Every
    /// tile has its row count as a constant, so that its row loops unroll
    /// and its accumulators stay in registers.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn strip<L: Lanes, const PRE: bool, const ROWS: usize, const W: usize>(
        alpha: f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        m: usize,
        kc: usize,
    ) {
        // SAFETY: each tile covers rows [i, i + its rows) of the m-row
        // blocks the caller vouched for, with its units.
        unsafe {
            let at = |i: usize| (a.add(i * rs), c.add(i * ldc));
            let mut i0 = 0;
            while i0 + ROWS <= m {
                let (ai, ci) = at(i0);
                tile::<L, PRE, ROWS, W>(alpha, ai, rs, cs, b, ldb, ci, ldc, kc);
                i0 += ROWS;
            }
            if ROWS > 4 && i0 + 4 <= m {
                let (ai, ci) = at(i0);
                tile::<L, PRE, 4, W>(alpha, ai, rs, cs, b, ldb, ci, ldc, kc);
                i0 += 4;
            }
            if ROWS > 2 && i0 + 2 <= m {
                let (ai, ci) = at(i0);
                tile::<L, PRE, 2, W>(alpha, ai, rs, cs, b, ldb, ci, ldc, kc);
                i0 += 2;
            }
            if ROWS > 1 && i0 < m {
                let (ai, ci) = at(i0);
                tile::<L, PRE, 1, W>(alpha, ai, rs, cs, b, ldb, ci, ldc, kc);
            }
        }
    }

    /// One `ROWS × W·N` register tile (`W` registers of [`Lanes::N`] lanes
    /// per row: the 8×32 `zmm` tile is `Zmm, 8, 2`, the 4×16 `ymm` tile
    /// `Ymm, 4, 2`) over `kc` reduction steps: `acc[r] =
    /// fma(A[r, p], B[p, ·], acc[r])` for ascending `p` from zero, then one
    /// flush into `C`. `A[r, p]` is `a[r*rs + p*cs]`, `B[p, ·]` the `W·N`
    /// floats at `b[p * ldb]`. `PRE` folds `alpha` into `A` before the FMA
    /// and flushes `c += acc` (the NN/TN order); otherwise the flush is
    /// `c += alpha · acc` (the NT order). Every lane runs the same sequence,
    /// so the register width changes no bit.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile<L: Lanes, const PRE: bool, const ROWS: usize, const W: usize>(
        alpha: f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        kc: usize,
    ) {
        // SAFETY: the caller guarantees L's units, and that `a`, `b`, `c`
        // address a ROWS×kc, kc×(W·N) and ROWS×(W·N) block at the given
        // strides.
        unsafe {
            let mut acc = [[L::zero(); W]; ROWS];
            for p in 0..kc {
                let mut bv = [L::zero(); W];
                for (v, bv) in bv.iter_mut().enumerate() {
                    *bv = L::load(b.add(p * ldb + v * L::N));
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = *a.add(r * rs + p * cs);
                    let av = L::splat(if PRE { alpha * av } else { av });
                    for (accv, bv) in accr.iter_mut().zip(bv) {
                        *accv = L::fmadd(av, bv, *accv);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                for (v, accv) in accr.iter().enumerate() {
                    let cp = c.add(r * ldc + v * L::N);
                    let add = if PRE {
                        *accv
                    } else {
                        L::mul(L::splat(alpha), *accv)
                    };
                    L::store(cp, L::add(L::load(cp), add));
                }
            }
        }
    }

    /// The entry points of one tier: the `f32` GEMMs above, and the portable
    /// loops of [`crate::reference`] — `f64`, narrow products, the fused
    /// element-wise ops and the `f32` non-linearities — inlined into a
    /// wrapper compiled for the tier's units. There `mul_add` is one
    /// `vfmadd` instead of a call to `fmaf`, and the independent loops
    /// vectorise at the tier's width (a lane-wise FMA is the same correctly
    /// rounded operation, so the bits cannot change).
    macro_rules! tier {
        ($features:literal, $zmm:literal, $chain_lanes:expr) => {
            use crate::activation::Activation;
            use crate::backend::f32_views;
            use crate::gemm::narrow;
            use crate::reference;
            use crate::scalar::Float;

            /// Lanes × independent chains of [`fma_chains`]: ten registers.
            pub(crate) const CHAIN_LANES: usize = $chain_lanes;

            /// `C += alpha * A * B`, or `C += alpha * Aᵀ * B` with `A`
            /// stored `k×m` when `TRANS_A`. Narrow products take the
            /// portable row loop.
            ///
            /// # Safety
            /// This tier's units must be available and the slices at least
            /// `m×k`, `k×n`, `m×n`.
            #[target_feature(enable = $features)]
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
                    Some((a, b, c)) => {
                        // SAFETY: this fn's contract, passed on unchanged.
                        unsafe {
                            super::gemm_f32::<$zmm, TRANS_A>(alpha.to_f32(), a, b, c, m, k, n)
                        }
                    }
                    None if TRANS_A => reference::gemm_tn_accum(alpha, a, b, c, m, k, n),
                    None => reference::gemm_accum(alpha, a, b, c, m, k, n),
                }
            }

            /// `C += alpha * A * Bᵀ` (`B: n×k`). Products narrower than one
            /// register (`n < NR`) have nothing to pack and take the
            /// portable loop.
            ///
            /// # Safety
            /// This tier's units must be available and the slices at least
            /// `m×k`, `n×k`, `m×n`.
            #[target_feature(enable = $features)]
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
                    Some((a, b, c)) if n >= crate::gemm::NR => {
                        // SAFETY: this fn's contract, passed on unchanged.
                        unsafe { super::gemm_nt_f32::<$zmm>(alpha.to_f32(), a, b, c, m, k, n) }
                    }
                    _ => reference::gemm_nt_cols(alpha, a, b, c, m, k, n, 0),
                }
            }

            /// A narrow gate product, bias and activation in one pass per
            /// row ([`reference::affine_rows`]).
            ///
            /// # Safety
            /// This tier's units must be available (the body is safe code).
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
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

            /// [`reference::axpy_slice`].
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn axpy<T: Float>(alpha: T, x: &[T], y: &mut [T]) {
                reference::axpy_slice(alpha, x, y);
            }

            /// [`reference::hadamard_add_slice`].
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn hadamard_add<T: Float>(a: &[T], b: &[T], out: &mut [T]) {
                reference::hadamard_add_slice(a, b, out);
            }

            /// [`reference::row_mul_add_slice`].
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
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

            /// [`reference::column_sums_add`]: per column a sum from zero,
            /// rows ascending, so the width changes no bit.
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn column_sums_add<T: Float>(
                dg: &[T],
                db: &mut [T],
                rows: usize,
                n: usize,
            ) {
                reference::column_sums_add(dg, db, rows, n);
            }

            /// [`reference::dot_slice`]; the chain is sequential, so this
            /// one stays scalar.
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn dot<T: Float>(a: &[T], b: &[T]) -> T {
                reference::dot_slice(a, b)
            }

            /// [`reference::sigmoid_slice`]: for `f32` the body is
            /// straight-line arithmetic with no call in it, so the loop
            /// vectorises at the tier's width (a lane is the same IEEE
            /// operation; nothing contracts to an FMA).
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn sigmoid<T: Float>(m: &mut [T]) {
                reference::sigmoid_slice(m);
            }

            /// [`reference::tanh_slice`]; see [`sigmoid`].
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn tanh<T: Float>(m: &mut [T]) {
                reference::tanh_slice(m);
            }

            /// [`reference::fma_chains`] at this tier's width: ten
            /// registers of independent chains, nothing but `vfmadd` in the
            /// loop.
            ///
            /// # Safety
            /// This tier's units must be available.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn fma_chains(iters: usize) -> f32 {
                reference::fma_chains::<CHAIN_LANES>(iters)
            }
        };
    }

    /// AVX2+FMA: the `ymm` tiles, the portable loops eight lanes wide,
    /// and every host's narrow cell step ([`crate::step`]).
    pub(crate) mod avx2 {
        tier!("avx2,fma", false, crate::reference::CHAIN_LANES);

        /// A narrow cell step ([`reference::step`]), one pass per row.
        ///
        /// # Safety
        /// AVX2+FMA must be available (the body is safe code).
        #[target_feature(enable = "avx2,fma")]
        pub(crate) unsafe fn step<T: Float>(s: crate::step::Step<'_, T>) {
            reference::step(s);
        }
    }

    /// AVX-512F: the `zmm` tile first, the portable loops sixteen lanes
    /// wide.
    pub(crate) mod avx512 {
        tier!("avx512f,avx2,fma", true, 2 * crate::reference::CHAIN_LANES);
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
