//! Vanilla (Elman) RNN cell: `H_t = tanh(W [X_t, H_{t-1}] + B)`.
//!
//! The paper's §II notes that BRNNs "use the basic RNN unit and its
//! variants LSTM and GRU"; the evaluation focuses on LSTM/GRU, but the
//! basic unit completes the family and is useful for fast tests and as
//! the cheapest ablation point for task granularity (one GEMM per cell).
//!
//! Up to `H = 32` (the product fits one 32-lane strip, `I + H ≤ 256`;
//! [`fits`]) a step is one [`Backend::step`] call, forward and backward:
//! blocks of up to four rows, the gate product, bias and tanh in
//! registers. Wider cells run the product through [`Backend::affine`] /
//! [`Backend::affine_grad`]. Both give each element the same operations in
//! the same order, so the width at which the route changes moves no bit.

use super::{CellState, StateGrad};
use bpar_tensor::reference::tanh_pre_grads;
use bpar_tensor::step::{fits, Step, VanillaBackward, VanillaForward};
use bpar_tensor::{init, Activation, Backend, Float, Matrix, Workspace};

/// Vanilla RNN parameters for one layer and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct VanillaParams<T: Float> {
    /// Kernel, `(input + hidden) × hidden`.
    pub w: Matrix<T>,
    /// Bias, `1 × hidden`.
    pub b: Matrix<T>,
    /// Input width.
    pub input: usize,
    /// Hidden width.
    pub hidden: usize,
}

/// Forward-pass values a vanilla cell must remember for BPTT.
#[derive(Debug, Clone)]
pub struct VanillaCache<T: Float> {
    /// Concatenated `[X_t, H_{t-1}]`.
    pub z: Matrix<T>,
    /// Activated output `H_t` (tanh'(x) = 1 - H_t²).
    pub h: Matrix<T>,
}

impl<T: Float> VanillaCache<T> {
    /// Zeroed cache buffers for a `batch`-row cell of the given widths —
    /// the persistent storage [`VanillaParams::forward`] writes into.
    pub fn zeros(batch: usize, input: usize, hidden: usize) -> Self {
        Self {
            z: Matrix::zeros(batch, input + hidden),
            h: Matrix::zeros(batch, hidden),
        }
    }

    /// Bytes of backing storage held by the cache.
    pub fn nbytes(&self) -> usize {
        self.z.nbytes() + self.h.nbytes()
    }
}

impl<T: Float> VanillaParams<T> {
    /// Xavier-initialised parameters.
    pub fn init(input: usize, hidden: usize, seed: u64) -> Self {
        Self {
            w: init::xavier_uniform(input + hidden, hidden, seed),
            b: Matrix::zeros(1, hidden),
            input,
            hidden,
        }
    }

    /// Zeroed same-shape parameters (gradient accumulator).
    pub fn zeros_like(&self) -> Self {
        Self {
            w: Matrix::zeros(self.w.rows(), self.w.cols()),
            b: Matrix::zeros(1, self.b.cols()),
            input: self.input,
            hidden: self.hidden,
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// True when a step is one [`Backend::step`] call ([`fits`]).
    fn fused(&self) -> bool {
        fits(self.input + self.hidden, self.hidden)
    }

    /// Forward update writing into caller-provided buffers (see
    /// [`VanillaCache::zeros`]). A cell on the one-call route is one
    /// [`Backend::step`]; otherwise the gate product runs through
    /// [`Backend::affine`].
    pub fn forward(
        &self,
        x: &Matrix<T>,
        prev: &CellState<T>,
        state: &mut CellState<T>,
        cache: &mut VanillaCache<T>,
        be: Backend,
    ) {
        let batch = x.rows();
        assert_eq!(x.cols(), self.input, "input width mismatch");
        assert_eq!(prev.h.shape(), (batch, self.hidden), "H_{{t-1}} shape");
        let (z, h) = (&mut cache.z, &mut cache.h);
        if self.fused() {
            return be.step(Step::VanillaForward(VanillaForward {
                x,
                h_prev: &prev.h,
                w: &self.w,
                b: &self.b,
                z,
                h_copy: h,
                h: &mut state.h,
            }));
        }
        Matrix::hstack_into(&[x, &prev.h], z);
        be.affine(Activation::Tanh, z, &self.w, &self.b, h);
        state.h.copy_from(h);
    }

    /// Backward update; see [`super::CellParams::backward`] for the
    /// argument contract: `dx` and `dprev` are caller-provided output
    /// buffers (fully overwritten), transient scratch comes from `ws`. A
    /// cell on the one-call route is one [`Backend::step`].
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        cache: &VanillaCache<T>,
        dh: &Matrix<T>,
        dstate: Option<&StateGrad<T>>,
        grads: &mut VanillaParams<T>,
        dx: &mut Matrix<T>,
        dprev: &mut StateGrad<T>,
        ws: &mut Workspace<T>,
        be: Backend,
    ) {
        let batch = dh.rows();
        let h = self.hidden;
        assert_eq!(dh.shape(), (batch, h), "dh shape");
        assert_eq!(dx.shape(), (batch, self.input), "dx buffer shape");
        assert_eq!(dprev.dh.shape(), (batch, h), "dH_prev buffer shape");

        // dpre = (dH_t + recurrent dH) ⊙ tanh'.
        let k = self.input + h;
        let mut dpre = ws.checkout(batch, if self.fused() { h + k } else { h });
        if self.fused() {
            be.step(Step::VanillaBackward(VanillaBackward {
                z: &cache.z,
                h: &cache.h,
                w: &self.w,
                dh,
                rec: dstate.map(|s| &s.dh),
                dw: &mut grads.w,
                db: &mut grads.b,
                dx,
                dh_prev: &mut dprev.dh,
                scratch: dpre.as_mut_slice(),
            }));
            return ws.give_back(dpre);
        }
        let (dhs, ys, out) = (dh.as_slice(), cache.h.as_slice(), dpre.as_mut_slice());
        match dstate {
            Some(s) => tanh_pre_grads::<T, true>(dhs, s.dh.as_slice(), ys, out),
            None => tanh_pre_grads::<T, false>(dhs, &[], ys, out),
        }

        let mut dz = ws.checkout(batch, k);
        let (gw, gb) = (&mut grads.w, &mut grads.b);
        be.affine_grad(&cache.z, &dpre, &self.w, gw, gb, &mut dz);
        for r in 0..batch {
            let (dxr, dhr) = dz.row(r).split_at(self.input);
            dx.row_mut(r).copy_from_slice(dxr);
            dprev.dh.row_mut(r).copy_from_slice(dhr);
        }
        ws.give_back(dpre);
        ws.give_back(dz);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{fresh, CellCache, CellKind, CellParams};
    use bpar_tensor::ops::add_bias;

    #[test]
    fn forward_matches_manual() {
        let mut p: VanillaParams<f64> = VanillaParams::init(1, 1, 0);
        p.w = Matrix::from_vec(2, 1, vec![0.5, -0.3]);
        p.b = Matrix::from_vec(1, 1, vec![0.1]);
        let x = Matrix::from_vec(1, 1, vec![0.8]);
        let prev = CellState {
            h: Matrix::from_vec(1, 1, vec![0.2]),
            c: None,
        };
        let (st, _) = fresh::forward(&CellParams::Vanilla(p), &x, &prev);
        let want = (0.8 * 0.5 + 0.2 * -0.3 + 0.1f64).tanh();
        assert!((st.h.get(0, 0) - want).abs() < 1e-12);
    }

    #[test]
    fn output_is_bounded() {
        let p = CellParams::Vanilla(VanillaParams::<f64>::init(4, 8, 1));
        let x = init::uniform(3, 4, -10.0, 10.0, 2);
        let (st, _) = fresh::forward(&p, &x, &CellState::zeros(CellKind::Vanilla, 3, 8));
        assert!(st.h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (batch, input, hidden) = (2usize, 3usize, 4usize);
        let p: VanillaParams<f64> = VanillaParams::init(input, hidden, 5);
        let x = init::uniform(batch, input, -1.0, 1.0, 6);
        let prev = CellState {
            h: init::uniform(batch, hidden, -0.5, 0.5, 7),
            c: None,
        };
        let s = init::uniform(batch, hidden, -1.0, 1.0, 8);
        let loss = |p: &VanillaParams<f64>, x: &Matrix<f64>, prev: &CellState<f64>| {
            let (st, _) = fresh::forward(&CellParams::Vanilla(p.clone()), x, prev);
            bpar_tensor::ops::dot(&s, &st.h)
        };
        let cell = CellParams::Vanilla(p.clone());
        let (_, cache) = fresh::forward(&cell, &x, &prev);
        let mut grads = cell.zeros_like();
        let (dx, sg) = fresh::backward(&cell, &cache, &s, None, &mut grads);
        let CellParams::Vanilla(grads) = grads else {
            unreachable!()
        };

        let eps = 1e-6;
        for &(r, c) in &[(0usize, 0usize), (3, 2), (6, 1)] {
            let mut pp = p.clone();
            pp.w.set(r, c, p.w.get(r, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.w.set(r, c, p.w.get(r, c) - eps);
            let lm = loss(&pp, &x, &prev);
            assert!((grads.w.get(r, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
        for c in [0usize, 3] {
            let mut pp = p.clone();
            pp.b.set(0, c, p.b.get(0, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.b.set(0, c, p.b.get(0, c) - eps);
            let lm = loss(&pp, &x, &prev);
            assert!((grads.b.get(0, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
        for &(r, c) in &[(0usize, 1usize), (1, 2)] {
            let mut xx = x.clone();
            xx.set(r, c, x.get(r, c) + eps);
            let lp = loss(&p, &xx, &prev);
            xx.set(r, c, x.get(r, c) - eps);
            let lm = loss(&p, &xx, &prev);
            assert!((dx.get(r, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
            let mut pv = prev.clone();
            pv.h.set(r, c + 1, prev.h.get(r, c + 1) + eps);
            let lp = loss(&p, &x, &pv);
            pv.h.set(r, c + 1, prev.h.get(r, c + 1) - eps);
            let lm = loss(&p, &x, &pv);
            assert!((sg.dh.get(r, c + 1) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
    }

    /// Regression oracle for the allocation-free rewrite: naive-GEMM
    /// oracle for the single kernel, bit-identity for everything
    /// elementwise (including `state.h == cache.h`, which replaced the
    /// old `h.clone()`).
    #[test]
    fn forward_matches_gemm_naive_oracle() {
        let (batch, input, hidden) = (3usize, 4usize, 5usize);
        let p: VanillaParams<f64> = VanillaParams::init(input, hidden, 41);
        let x = init::uniform(batch, input, -1.0, 1.0, 42);
        let prev = CellState {
            h: init::uniform(batch, hidden, -0.5, 0.5, 43),
            c: None,
        };
        let (st, cache) = fresh::forward(&CellParams::Vanilla(p.clone()), &x, &prev);
        let CellCache::Vanilla(cache) = cache else {
            unreachable!()
        };

        let z = Matrix::hstack(&[&x, &prev.h]);
        for (a, b) in cache.z.as_slice().iter().zip(z.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "Z must be bit-identical");
        }
        let mut hh = Matrix::zeros(batch, hidden);
        bpar_tensor::gemm_naive(1.0, &z, &p.w, 0.0, &mut hh);
        add_bias(&mut hh, &p.b);
        hh.map_inplace(|v| v.tanh());
        assert!(
            cache.h.max_abs_diff(&hh) < 1e-12,
            "H_t diverges from the naive-GEMM oracle"
        );
        for (a, b) in st.h.as_slice().iter().zip(cache.h.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "state H_t must equal cache H_t");
        }
    }

    /// In-place updates into persistent buffers with a reused workspace
    /// stay bit-identical to updates on freshly allocated ones.
    #[test]
    fn ws_paths_match_allocating_paths_bitwise_with_reuse() {
        fresh::assert_reuse_matches_fresh(CellKind::Vanilla, 45);
    }

    #[test]
    fn recurrent_gradient_accumulates() {
        let p = CellParams::Vanilla(VanillaParams::<f64>::init(2, 3, 9));
        let x = init::uniform(1, 2, -1.0, 1.0, 10);
        let prev = CellState {
            h: init::uniform(1, 3, -0.5, 0.5, 11),
            c: None,
        };
        let (_, cache) = fresh::forward(&p, &x, &prev);
        let dh = init::uniform(1, 3, -1.0, 1.0, 12);
        let rec = StateGrad {
            dh: init::uniform(1, 3, -1.0, 1.0, 13),
            dc: None,
        };
        let mut g1 = p.zeros_like();
        let (dx1, _) = fresh::backward(&p, &cache, &dh, None, &mut g1);
        let mut g2 = p.zeros_like();
        let (dx2, _) = fresh::backward(&p, &cache, &dh, Some(&rec), &mut g2);
        assert!(dx1.max_abs_diff(&dx2) > 1e-9);
    }
}
