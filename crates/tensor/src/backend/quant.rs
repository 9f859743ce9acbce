//! Symmetric per-tensor int8 quantized inference GEMM.
//!
//! Quantization scheme: `s = max|v| / 127`, `q = clamp(round(v / s), -127,
//! 127)`, so the representable range is symmetric and `-128` is never
//! produced. The forward GEMM (`gemm_f32`) quantizes both operands into the
//! caller's [`QuantScratch`], accumulates `Σ qa·qb` in `i32` (exact: each
//! product is ≤ 127² = 16129, so the accumulator cannot overflow until
//! `k > i32::MAX / 16129 ≈ 133 000`), and writes back `C += alpha · sa ·
//! sb · acc`.
//!
//! Error bound (checked by [`int8_bound`] in the parity tests): each
//! quantized value carries at most `s/2` absolute error, so each product
//! term errs by at most `amax·sb/2 + bmax·sa/2 + sa·sb/4` and a length-`k`
//! dot product by `k` times that, scaled by `|alpha|`.
//!
//! Only the forward GEMM is quantized. The transpose variants
//! (`gemm_nt`/`gemm_tn`) appear exclusively on the backward path, where
//! gradient precision matters, so they and every element-wise op keep
//! [`KernelBackend`]'s default: the dispatched f32 kernels.
//!
//! Weights are additionally *roundtrip-quantized in place* when a
//! `WeightStore` syncs under this backend (see [`roundtrip_quantize`]):
//! the store then holds exactly the dequantized values the kernel will see,
//! which keeps replay deterministic. Re-quantizing an already-roundtripped
//! tensor is not bit-exactly idempotent (the scale is recomputed from the
//! roundtripped max and can drift by an ULP), but the drift stays inside
//! the same `s/2` bound.

use super::{BackendKind, KernelBackend};
use crate::activation::Activation;
use crate::workspace::QuantScratch;

/// Int8 per-tensor quantized inference backend.
#[derive(Debug)]
pub struct Int8Backend;

/// Largest absolute value in a slice (NaNs are ignored by `f32::max`).
fn amax(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantizes one value at scale `s` (caller guarantees `s > 0`).
#[inline]
fn quantize(v: f32, s: f32) -> i8 {
    (v / s).round().clamp(-127.0, 127.0) as i8
}

/// Quantize-dequantize a tensor in place at its own per-tensor scale.
///
/// Returns the scale used, or `None` when the slice is all-zero (nothing
/// to quantize) or empty. `f64` callers should not reach this function —
/// the backend dispatch layer only routes `f32` data here.
pub fn roundtrip_quantize(v: &mut [f32]) -> Option<f32> {
    let a = amax(v);
    if a == 0.0 || !a.is_finite() {
        return None;
    }
    let s = a / 127.0;
    for x in v.iter_mut() {
        *x = quantize(*x, s) as f32 * s;
    }
    Some(s)
}

/// Absolute error bound for one element of `C += alpha * A * B` computed
/// through the int8 path, given the operand magnitudes.
///
/// Derivation: quantization error per value is at most `s/2`; a product
/// `a·b` then errs by at most `|a|·sb/2 + |b|·sa/2 + sa·sb/4`, bounded by
/// the per-tensor maxima. A dot product sums `k` such terms. The factor
/// 1.5 absorbs f32 accumulation error in the reference itself plus the
/// double-quantization drift described in the module docs.
pub fn int8_bound(alpha: f32, k: usize, a_max: f32, b_max: f32) -> f32 {
    let sa = a_max / 127.0;
    let sb = b_max / 127.0;
    let per_term = a_max * sb * 0.5 + b_max * sa * 0.5 + sa * sb * 0.25;
    alpha.abs() * (k as f32) * per_term * 1.5 + 1e-6
}

impl KernelBackend for Int8Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Int8
    }

    fn gemm_f32(
        &self,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        q: &mut QuantScratch,
    ) {
        let a_max = amax(&a[..m * k]);
        let b_max = amax(&b[..k * n]);
        if a_max == 0.0 || b_max == 0.0 {
            // One operand is identically zero: the true product is zero,
            // and accumulate-only semantics make that a no-op.
            return;
        }
        let sa = a_max / 127.0;
        let sb = b_max / 127.0;
        let (qa, qb, acc) = q.ensure(m * k, k * n, n);
        for (qv, &v) in qa.iter_mut().zip(&a[..m * k]) {
            *qv = quantize(v, sa);
        }
        for (qv, &v) in qb.iter_mut().zip(&b[..k * n]) {
            *qv = quantize(v, sb);
        }
        let rescale = alpha * sa * sb;
        for i in 0..m {
            acc.fill(0);
            for p in 0..k {
                let qav = qa[i * k + p] as i32;
                if qav == 0 {
                    // Integer zero-skip is exact (unlike the float NaN-skip
                    // bug this PR removes from gemm_tn): 0 · q == 0 in i32.
                    continue;
                }
                let brow = &qb[p * n..(p + 1) * n];
                for (av, &bv) in acc.iter_mut().zip(brow) {
                    *av += qav * bv as i32;
                }
            }
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &av) in crow.iter_mut().zip(acc.iter()) {
                *cv += rescale * av as f32;
            }
        }
    }

    /// A narrow gate product keeps the quantized GEMM: a zeroed `C`, the
    /// int8 product, the bias, the activation slices — the wide route's
    /// sequence.
    fn affine_f32(
        &self,
        act: Activation,
        a: &[f32],
        w: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        q: &mut QuantScratch,
    ) {
        c.fill(0.0);
        self.gemm_f32(1.0, a, w, c, m, k, n, q);
        self.add_bias_f32(c, m, n, b);
        act.apply_rows(c, n);
    }
}

#[cfg(test)]
mod tests {
    use super::super::Backend;
    use super::*;
    use crate::matrix::Matrix;
    use crate::workspace::Workspace;

    fn deterministic(rows: usize, cols: usize, seed: f32) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.7310 + seed).sin() * 2.0
        })
    }

    #[test]
    fn int8_gemm_stays_inside_the_documented_bound() {
        let mut ws: Workspace<f32> = Workspace::new();
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 4), (8, 16, 8), (13, 64, 9)] {
            let a = deterministic(m, k, 0.3);
            let b = deterministic(k, n, 1.1);
            let alpha = 0.75f32;
            let mut want = Matrix::zeros(m, n);
            crate::gemm(alpha, &a, &b, 0.0, &mut want);
            let mut got = Matrix::zeros(m, n);
            Backend::int8().gemm(alpha, &a, &b, 0.0, &mut got, &mut ws);
            let bound = int8_bound(alpha, k, amax(a.as_slice()), amax(b.as_slice()));
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((x - y).abs() <= bound, "{m}x{k}x{n}: |{x} - {y}| > {bound}");
            }
        }
    }

    #[test]
    fn zero_operand_is_an_exact_noop() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a: Matrix<f32> = Matrix::zeros(3, 4);
        let b = deterministic(4, 5, 0.0);
        let mut c = deterministic(3, 5, 2.0);
        let before = c.clone();
        Backend::int8().gemm(1.0f32, &a, &b, 1.0, &mut c, &mut ws);
        for (x, y) in c.as_slice().iter().zip(before.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn roundtrip_quantize_is_bounded_and_stable() {
        let mut m = deterministic(6, 7, 0.9);
        let orig = m.clone();
        let s = roundtrip_quantize(m.as_mut_slice()).expect("non-zero tensor");
        assert!(s > 0.0);
        for (x, y) in m.as_slice().iter().zip(orig.as_slice()) {
            assert!((x - y).abs() <= s * 0.5 + 1e-7);
        }
        // A second roundtrip moves values by at most the drift bound.
        let once = m.clone();
        let s2 = roundtrip_quantize(m.as_mut_slice()).expect("still non-zero");
        for (x, y) in m.as_slice().iter().zip(once.as_slice()) {
            assert!((x - y).abs() <= s2 * 0.5 + 1e-7);
        }
        // All-zero input declines.
        let mut z = [0.0f32; 8];
        assert_eq!(roundtrip_quantize(&mut z), None);
    }

    #[test]
    fn quantized_weights_make_the_int8_gemm_tighter() {
        // After roundtrip-quantizing B (the weight side), the only error
        // left in A·B is A's quantization: the result must not get worse.
        let mut ws: Workspace<f32> = Workspace::new();
        let a = deterministic(4, 32, 0.2);
        let mut b = deterministic(32, 6, 1.7);
        roundtrip_quantize(b.as_mut_slice());
        let mut want = Matrix::zeros(4, 6);
        crate::gemm(1.0f32, &a, &b, 0.0, &mut want);
        let mut got = Matrix::zeros(4, 6);
        Backend::int8().gemm(1.0f32, &a, &b, 0.0, &mut got, &mut ws);
        let bound = int8_bound(1.0, 32, amax(a.as_slice()), amax(b.as_slice()));
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() <= bound);
        }
    }

    #[test]
    fn int8_scratch_allocates_once_per_shape() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = deterministic(4, 8, 0.1);
        let b = deterministic(8, 6, 0.5);
        let mut c = Matrix::zeros(4, 6);
        Backend::int8().gemm(1.0f32, &a, &b, 0.0, &mut c, &mut ws);
        let bytes = ws.quant_scratch().bytes();
        assert!(bytes > 0);
        for _ in 0..4 {
            Backend::int8().gemm(1.0f32, &a, &b, 0.0, &mut c, &mut ws);
        }
        assert_eq!(ws.quant_scratch().bytes(), bytes);
    }
}
