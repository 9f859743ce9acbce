//! The portable backend.
//!
//! Overrides the seven kernels that contain a fused multiply-add with the
//! portable loops of [`crate::reference`], run as written (`mul_add` is a
//! call to `fmaf` in a build without `+fma`); narrow NN/TN products take the
//! same row loops as the dispatched kernels. Everything else is
//! [`KernelBackend`]'s default, and the gate non-linearities are the same
//! per-element functions everywhere ([`crate::activation::sigmoid_slice`]
//! has the same bits on every path), so there is nothing for an oracle to
//! run differently. The dispatched kernels the free functions
//! and [`super::SimdBackend`] run must match these loops bit for bit, so an
//! executor on this backend checked against `SequentialExec` (free
//! functions) is a check of the vector kernels against the portable loops.

use super::{BackendKind, KernelBackend};
use crate::activation::Activation;
use crate::gemm::narrow;
use crate::reference;

/// The portable loops under the default kind.
#[derive(Debug)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn simd_active(&self) -> bool {
        false
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
    ) {
        if narrow(k, n) {
            reference::gemm_rows::<f32, false>(alpha, a, b, c, m, k, n);
        } else {
            reference::gemm_accum(alpha, a, b, c, m, k, n);
        }
    }

    fn gemm_nt_f32(
        &self,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        reference::gemm_nt_cols(alpha, a, b, c, m, k, n, 0);
    }

    fn gemm_tn_f32(
        &self,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if narrow(k, n) {
            reference::gemm_rows::<f32, true>(alpha, a, b, c, m, k, n);
        } else {
            reference::gemm_tn_accum(alpha, a, b, c, m, k, n);
        }
    }

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
    ) {
        reference::affine_rows(act, a, w, b, c, m, k, n);
    }

    fn axpy_f32(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        reference::axpy_slice(alpha, x, y);
    }

    fn hadamard_add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        reference::hadamard_add_slice(a, b, out);
    }

    fn row_mul_add_f32(
        &self,
        a: &[f32],
        x: &[f32],
        y: &[f32],
        out: &mut [f32],
        rows: usize,
        cols: usize,
    ) {
        reference::row_mul_add_slice(a, x, y, out, rows, cols);
    }
}
