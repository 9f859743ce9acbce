//! GRU cell: Equations (7)–(10) of the paper, forward and BPTT backward.
//!
//! ```text
//! Z_t = σ(W_z [X_t, H_{t-1}] + B_z)                 (7)
//! R_t = σ(W_r [X_t, H_{t-1}] + B_r)                 (8)
//! H̄_t = tanh(W_h [X_t, R_t ⊙ H_{t-1}] + B_h)        (9)
//! H_t = Z_t ⊙ H̄_t + (1 - Z_t) ⊙ H_{t-1}             (10)
//! ```
//!
//! The z and r gates share one fused `(I+H) × 2H` kernel (their input is
//! identical); the candidate gate needs its own `(I+H) × H` kernel because
//! its recurrent input is gated by `R_t`.
//!
//! Up to `H = 7` (both products narrower than 16 columns, `I + H ≤ 256`)
//! a step is one [`Backend::step`] call, forward and backward: one pass
//! per row, the gate products, biases and non-linearities in registers.
//! Wider cells run each gate product through [`Backend::affine`] /
//! [`Backend::affine_grad`] with the element-wise passes in between. Both
//! give each element the same operations in the same order, so the width
//! at which the route changes moves no bit.

use super::{CellState, StateGrad};
use bpar_tensor::activation::dsigmoid_from_y;
use bpar_tensor::gemm::narrow;
use bpar_tensor::reference::gru_update_grads;
use bpar_tensor::step::{GruBackward, GruForward, Step};
use bpar_tensor::{init, Activation, Backend, Float, Matrix, Workspace};

/// Fused GRU parameters for one layer and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct GruParams<T: Float> {
    /// Fused z/r kernel, `(input + hidden) × 2·hidden`, blocks `[z, r]`.
    pub wzr: Matrix<T>,
    /// Fused z/r bias, `1 × 2·hidden`.
    pub bzr: Matrix<T>,
    /// Candidate kernel, `(input + hidden) × hidden`.
    pub wh: Matrix<T>,
    /// Candidate bias, `1 × hidden`.
    pub bh: Matrix<T>,
    /// Input width.
    pub input: usize,
    /// Hidden width.
    pub hidden: usize,
}

/// Forward-pass values a GRU cell must remember for BPTT.
#[derive(Debug, Clone)]
pub struct GruCache<T: Float> {
    /// Concatenated `[X_t, H_{t-1}]`.
    pub zr_in: Matrix<T>,
    /// Concatenated `[X_t, R_t ⊙ H_{t-1}]`.
    pub h_in: Matrix<T>,
    /// Update- and reset-gate activations `[Z_t, R_t]`, `batch × 2·hidden`.
    pub zr: Matrix<T>,
    /// Candidate activation `H̄_t`.
    pub hbar: Matrix<T>,
    /// Previous hidden state `H_{t-1}`.
    pub h_prev: Matrix<T>,
}

impl<T: Float> GruCache<T> {
    /// Zeroed cache buffers for a `batch`-row cell of the given widths —
    /// the persistent storage [`GruParams::forward`] writes into.
    pub fn zeros(batch: usize, input: usize, hidden: usize) -> Self {
        Self {
            zr_in: Matrix::zeros(batch, input + hidden),
            h_in: Matrix::zeros(batch, input + hidden),
            zr: Matrix::zeros(batch, 2 * hidden),
            hbar: Matrix::zeros(batch, hidden),
            h_prev: Matrix::zeros(batch, hidden),
        }
    }

    /// Bytes of backing storage held by the cache.
    pub fn nbytes(&self) -> usize {
        self.zr_in.nbytes()
            + self.h_in.nbytes()
            + self.zr.nbytes()
            + self.hbar.nbytes()
            + self.h_prev.nbytes()
    }
}

impl<T: Float> GruParams<T> {
    /// Xavier-initialised parameters.
    pub fn init(input: usize, hidden: usize, seed: u64) -> Self {
        Self {
            wzr: init::xavier_uniform(input + hidden, 2 * hidden, seed),
            bzr: Matrix::zeros(1, 2 * hidden),
            wh: init::xavier_uniform(input + hidden, hidden, seed ^ 0x9e37_79b9),
            bh: Matrix::zeros(1, hidden),
            input,
            hidden,
        }
    }

    /// Zeroed same-shape parameters (gradient accumulator).
    pub fn zeros_like(&self) -> Self {
        Self {
            wzr: Matrix::zeros(self.wzr.rows(), self.wzr.cols()),
            bzr: Matrix::zeros(1, self.bzr.cols()),
            wh: Matrix::zeros(self.wh.rows(), self.wh.cols()),
            bh: Matrix::zeros(1, self.bh.cols()),
            input: self.input,
            hidden: self.hidden,
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.wzr.len() + self.bzr.len() + self.wh.len() + self.bh.len()
    }

    /// True when both gate products take the narrow route, so a step is
    /// one [`Backend::step`] call.
    fn fused(&self) -> bool {
        narrow(self.input + self.hidden, 2 * self.hidden)
    }

    /// Forward update (Eqs. 7–10): results go into the caller-provided
    /// `state`/`cache` buffers (see [`GruCache::zeros`]). A narrow cell is
    /// one [`Backend::step`]; otherwise both gate products run through
    /// [`Backend::affine`], and `R ⊙ H_{t-1}` is written straight into the
    /// right column block of `h_in`.
    pub fn forward(
        &self,
        x: &Matrix<T>,
        prev: &CellState<T>,
        state: &mut CellState<T>,
        cache: &mut GruCache<T>,
        be: Backend,
    ) {
        let batch = x.rows();
        assert_eq!(x.cols(), self.input, "input width mismatch");
        assert_eq!(prev.h.shape(), (batch, self.hidden), "H_{{t-1}} shape");
        let h = self.hidden;

        let GruCache {
            zr_in,
            h_in,
            zr,
            hbar,
            h_prev,
        } = cache;
        if self.fused() {
            return be.step(Step::GruForward(GruForward {
                x,
                h_prev: &prev.h,
                wzr: &self.wzr,
                bzr: &self.bzr,
                wh: &self.wh,
                bh: &self.bh,
                zr_in,
                h_in,
                zr,
                hbar,
                h_prev_copy: h_prev,
                h: &mut state.h,
            }));
        }
        Matrix::hstack_into(&[x, &prev.h], zr_in);
        be.affine(Activation::Sigmoid, zr_in, &self.wzr, &self.bzr, zr);

        // Candidate with reset-gated recurrent input: [X_t, R ⊙ H_{t-1}]
        // assembled in place (no `rh` temporary, no hstack copy).
        for row in 0..batch {
            let (rs, hp) = (&zr.row(row)[h..], prev.h.row(row));
            let dst = h_in.row_mut(row);
            dst[..self.input].copy_from_slice(x.row(row));
            for j in 0..h {
                dst[self.input + j] = rs[j] * hp[j];
            }
        }
        be.affine(Activation::Tanh, h_in, &self.wh, &self.bh, hbar);

        // H_t = Z ⊙ H̄ + (1-Z) ⊙ H_{t-1}.
        for row in 0..batch {
            let (zs, hb, hp) = (zr.row(row), hbar.row(row), prev.h.row(row));
            let out = state.h.row_mut(row);
            for j in 0..h {
                out[j] = zs[j] * hb[j] + (T::ONE - zs[j]) * hp[j];
            }
        }
        h_prev.copy_from(&prev.h);
    }

    /// Backward update (BPTT through Eqs. 7–10). See
    /// [`super::CellParams::backward`] for the argument contract: `dx` and
    /// `dprev` are caller-provided output buffers (fully overwritten),
    /// transient scratch comes from `ws`.
    ///
    /// A narrow cell is one [`Backend::step`], its gate gradients in one
    /// pool buffer. Otherwise three element-wise passes run around the two
    /// gate products' backward ([`Backend::affine_grad`]), on three pool
    /// buffers: `[dZ, dR]`, the fused kernel's pre-σ gradient, written in
    /// place; the candidate's pre-tanh gradient `dH̄`; and one
    /// input-gradient block that both products write in turn.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        cache: &GruCache<T>,
        dh: &Matrix<T>,
        dstate: Option<&StateGrad<T>>,
        grads: &mut GruParams<T>,
        dx: &mut Matrix<T>,
        dprev: &mut StateGrad<T>,
        ws: &mut Workspace<T>,
        be: Backend,
    ) {
        let batch = dh.rows();
        let (input, h) = (self.input, self.hidden);
        assert_eq!(dh.shape(), (batch, h), "dh shape");
        assert_eq!(dx.shape(), (batch, input), "dx buffer shape");
        assert_eq!(dprev.dh.shape(), (batch, h), "dH_prev buffer shape");
        let rec = dstate.map(|s| &s.dh);
        if self.fused() {
            let mut scratch = ws.checkout(batch, 3 * h);
            be.step(Step::GruBackward(GruBackward {
                zr_in: &cache.zr_in,
                h_in: &cache.h_in,
                zr: &cache.zr,
                hbar: &cache.hbar,
                h_prev: &cache.h_prev,
                wzr: &self.wzr,
                wh: &self.wh,
                dh,
                rec,
                dwzr: &mut grads.wzr,
                dbzr: &mut grads.bzr,
                dwh: &mut grads.wh,
                dbh: &mut grads.bh,
                dx,
                dh_prev: &mut dprev.dh,
                scratch: scratch.as_mut_slice(),
            }));
            return ws.give_back(scratch);
        }
        let mut dzr = ws.checkout(batch, 2 * h);
        let mut dhbar = ws.checkout(batch, h);
        let mut din = ws.checkout(batch, input + h);

        // Through Eq. (10), from dH_t = upstream + recurrent: the (1-Z)
        // path into dH_{t-1}, the candidate's and the update gate's
        // pre-activation gradients.
        for row in 0..batch {
            let rows = [
                cache.zr.row(row),
                cache.hbar.row(row),
                cache.h_prev.row(row),
                dh.row(row),
            ];
            let (dp, dhb) = (dprev.dh.row_mut(row), dhbar.row_mut(row));
            let dz = dzr.row_mut(row);
            match rec {
                Some(rec) => gru_update_grads::<T, true>(h, rows, rec.row(row), dp, dhb, dz),
                None => gru_update_grads::<T, false>(h, rows, &[], dp, dhb, dz),
            }
        }

        // Candidate kernel: dWh, dBh and d[X, R ⊙ H_{t-1}]; then dX, and
        // through R ⊙ H_{t-1} the reset gate's pre-activation gradient and
        // the R path into dH_{t-1}.
        let (gw, gb) = (&mut grads.wh, &mut grads.bh);
        be.affine_grad(&cache.h_in, &dhbar, &self.wh, gw, gb, &mut din);
        for row in 0..batch {
            let (src, drh) = din.row(row).split_at(input);
            dx.row_mut(row).copy_from_slice(src);
            let (rs, hp) = (&cache.zr.row(row)[h..], cache.h_prev.row(row));
            let (dr, dp) = (&mut dzr.row_mut(row)[h..], dprev.dh.row_mut(row));
            for j in 0..h {
                dr[j] = drh[j] * hp[j] * dsigmoid_from_y(rs[j]);
                dp[j] += drh[j] * rs[j];
            }
        }

        // Fused z/r kernel: dWzr, dBzr and d[X, H_{t-1}], added in.
        let (gw, gb) = (&mut grads.wzr, &mut grads.bzr);
        be.affine_grad(&cache.zr_in, &dzr, &self.wzr, gw, gb, &mut din);
        for row in 0..batch {
            let (src, srch) = din.row(row).split_at(input);
            for (d, &s) in dx.row_mut(row).iter_mut().zip(src) {
                *d += s;
            }
            for (d, &s) in dprev.dh.row_mut(row).iter_mut().zip(srch) {
                *d += s;
            }
        }

        ws.give_back(dzr);
        ws.give_back(dhbar);
        ws.give_back(din);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{fresh, CellCache, CellKind, CellParams, CellState};
    use bpar_tensor::ops::add_bias;

    fn state(batch: usize, hidden: usize, seed: u64) -> CellState<f64> {
        CellState {
            h: init::uniform(batch, hidden, -0.5, 0.5, seed),
            c: None,
        }
    }

    #[test]
    fn forward_shapes() {
        let p = CellParams::Gru(GruParams::<f64>::init(3, 5, 0));
        let x = init::uniform(2, 3, -1.0, 1.0, 7);
        let (st, cache) = fresh::forward(&p, &x, &CellState::zeros(CellKind::Gru, 2, 5));
        let CellCache::Gru(cache) = cache else {
            unreachable!()
        };
        assert_eq!(st.h.shape(), (2, 5));
        assert!(st.c.is_none());
        assert_eq!(cache.zr_in.shape(), (2, 8));
        assert_eq!(cache.h_in.shape(), (2, 8));
    }

    #[test]
    fn forward_matches_manual_equations() {
        let mut p: GruParams<f64> = GruParams::init(1, 1, 0);
        p.wzr = Matrix::from_vec(2, 2, vec![0.5, -0.4, 0.3, 0.7]); // rows [x; h], cols [z, r]
        p.bzr = Matrix::from_vec(1, 2, vec![0.1, -0.2]);
        p.wh = Matrix::from_vec(2, 1, vec![0.9, -0.6]);
        p.bh = Matrix::from_vec(1, 1, vec![0.05]);
        let x = Matrix::from_vec(1, 1, vec![0.8]);
        let prev = CellState {
            h: Matrix::from_vec(1, 1, vec![-0.3]),
            c: None,
        };
        let (st, _) = fresh::forward(&CellParams::Gru(p), &x, &prev);

        let sig = |v: f64| 1.0 / (1.0 + (-v).exp());
        let z = sig(0.8 * 0.5 + -0.3 * 0.3 + 0.1);
        let r = sig(0.8 * -0.4 + -0.3 * 0.7 + -0.2);
        let hbar = (0.8 * 0.9 + (r * -0.3) * -0.6 + 0.05).tanh();
        let hh = z * hbar + (1.0 - z) * -0.3;
        assert!((st.h.get(0, 0) - hh).abs() < 1e-12);
    }

    #[test]
    fn zero_update_gate_keeps_previous_state() {
        // Huge negative z-gate bias forces Z ≈ 0 → H_t ≈ H_{t-1}.
        let mut p: GruParams<f64> = GruParams::init(2, 3, 1);
        for j in 0..3 {
            p.bzr.set(0, j, -50.0);
        }
        let x = init::uniform(2, 2, -1.0, 1.0, 2);
        let prev = state(2, 3, 3);
        let (st, _) = fresh::forward(&CellParams::Gru(p), &x, &prev);
        assert!(st.h.max_abs_diff(&prev.h) < 1e-9);
    }

    /// Central finite-difference gradient check of the full backward pass.
    #[test]
    fn gradients_match_finite_differences() {
        let batch = 2;
        let (input, hidden) = (3, 4);
        let p: GruParams<f64> = GruParams::init(input, hidden, 5);
        let x = init::uniform(batch, input, -1.0, 1.0, 6);
        let prev = state(batch, hidden, 7);
        let s_h = init::uniform(batch, hidden, -1.0, 1.0, 8);

        let loss = |p: &GruParams<f64>, x: &Matrix<f64>, prev: &CellState<f64>| -> f64 {
            let (st, _) = fresh::forward(&CellParams::Gru(p.clone()), x, prev);
            bpar_tensor::ops::dot(&s_h, &st.h).to_f64()
        };

        let cell = CellParams::Gru(p.clone());
        let (_, cache) = fresh::forward(&cell, &x, &prev);
        let mut grads = cell.zeros_like();
        let (dx, sg_prev) = fresh::backward(&cell, &cache, &s_h, None, &mut grads);
        let CellParams::Gru(grads) = grads else {
            unreachable!()
        };

        let eps = 1e-6;
        for &(r, c) in &[(0, 0), (2, 3), (5, 7), (6, 1)] {
            let mut pp = p.clone();
            pp.wzr.set(r, c, p.wzr.get(r, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.wzr.set(r, c, p.wzr.get(r, c) - eps);
            let lm = loss(&pp, &x, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.wzr.get(r, c) - fd).abs() < 1e-5,
                "dWzr[{r},{c}] = {} vs {fd}",
                grads.wzr.get(r, c)
            );
        }
        for &(r, c) in &[(0, 0), (3, 2), (6, 3)] {
            let mut pp = p.clone();
            pp.wh.set(r, c, p.wh.get(r, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.wh.set(r, c, p.wh.get(r, c) - eps);
            let lm = loss(&pp, &x, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((grads.wh.get(r, c) - fd).abs() < 1e-5, "dWh[{r},{c}]");
        }
        for c in [0, 3, 5] {
            let mut pp = p.clone();
            pp.bzr.set(0, c, p.bzr.get(0, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.bzr.set(0, c, p.bzr.get(0, c) - eps);
            let lm = loss(&pp, &x, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((grads.bzr.get(0, c) - fd).abs() < 1e-5, "dBzr[{c}]");
        }
        for c in [0, 2] {
            let mut pp = p.clone();
            pp.bh.set(0, c, p.bh.get(0, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.bh.set(0, c, p.bh.get(0, c) - eps);
            let lm = loss(&pp, &x, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((grads.bh.get(0, c) - fd).abs() < 1e-5, "dBh[{c}]");
        }
        for &(r, c) in &[(0, 0), (1, 2)] {
            let mut xx = x.clone();
            xx.set(r, c, x.get(r, c) + eps);
            let lp = loss(&p, &xx, &prev);
            xx.set(r, c, x.get(r, c) - eps);
            let lm = loss(&p, &xx, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((dx.get(r, c) - fd).abs() < 1e-5, "dX[{r},{c}]");
        }
        for &(r, c) in &[(0, 1), (1, 3)] {
            let mut pv = prev.clone();
            pv.h.set(r, c, prev.h.get(r, c) + eps);
            let lp = loss(&p, &x, &pv);
            pv.h.set(r, c, prev.h.get(r, c) - eps);
            let lm = loss(&p, &x, &pv);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (sg_prev.dh.get(r, c) - fd).abs() < 1e-5,
                "dHprev[{r},{c}] = {} vs {fd}",
                sg_prev.dh.get(r, c)
            );
        }
    }

    /// Regression oracle for the allocation-free rewrite: an independent
    /// implementation built on `gemm_naive` plus the pre-rewrite
    /// copy-based assembly (`hadamard` into a temporary, then `hstack`).
    /// GEMM-fed activations are compared at ulp-scale tolerance (the
    /// blocked `gemm` fuses with `mul_add`, the naive oracle does not);
    /// everything derived elementwise from the produced gate values must
    /// be bit-identical.
    #[test]
    fn forward_matches_gemm_naive_oracle() {
        let batch = 3;
        let (input, hidden) = (4, 5);
        let h = hidden;
        let p: GruParams<f64> = GruParams::init(input, hidden, 31);
        let x = init::uniform(batch, input, -1.0, 1.0, 32);
        let prev = state(batch, hidden, 33);
        let (st, cache) = fresh::forward(&CellParams::Gru(p.clone()), &x, &prev);
        let CellCache::Gru(cache) = cache else {
            unreachable!()
        };

        // Oracle fused z/r gates: naive GEMM, then the same sigmoid.
        let zr_in = Matrix::hstack(&[&x, &prev.h]);
        for (a, b) in cache.zr_in.as_slice().iter().zip(zr_in.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "zr_in must be bit-identical");
        }
        let mut zr = Matrix::zeros(batch, 2 * h);
        bpar_tensor::gemm_naive(1.0, &zr_in, &p.wzr, 0.0, &mut zr);
        add_bias(&mut zr, &p.bzr);
        zr.map_inplace(|v| v.sigmoid());
        assert!(cache.zr.max_abs_diff(&zr) < 1e-12, "Z|R gates");

        // Candidate input assembled the pre-rewrite way from the gate
        // values the forward actually produced: `hadamard` into a
        // temporary, then `hstack`. Same scalars ⇒ bit-identical h_in.
        let r = Matrix::from_fn(batch, h, |row, j| cache.zr.get(row, h + j));
        let mut rh = Matrix::zeros(batch, h);
        bpar_tensor::ops::hadamard(&r, &prev.h, &mut rh);
        let h_in_ref = Matrix::hstack(&[&x, &rh]);
        for (a, b) in cache.h_in.as_slice().iter().zip(h_in_ref.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "h_in must be bit-identical");
        }

        // Candidate activation: naive GEMM oracle on the produced h_in.
        let mut hbar = Matrix::zeros(batch, h);
        bpar_tensor::gemm_naive(1.0, &cache.h_in, &p.wh, 0.0, &mut hbar);
        add_bias(&mut hbar, &p.bh);
        hbar.map_inplace(|v| v.tanh());
        assert!(
            cache.hbar.max_abs_diff(&hbar) < 1e-12,
            "H̄ diverges from the naive-GEMM oracle"
        );

        // Eq. (10) from the produced gate values, written with the
        // pre-rewrite expression. Identical inputs and operation order ⇒
        // the output must be bit-identical.
        for row in 0..batch {
            let (zs, hb, hp) = (cache.zr.row(row), cache.hbar.row(row), prev.h.row(row));
            for j in 0..h {
                let want = zs[j] * hb[j] + (1.0 - zs[j]) * hp[j];
                assert_eq!(
                    st.h.row(row)[j].to_bits(),
                    want.to_bits(),
                    "H_t must be bit-identical"
                );
            }
        }
    }

    /// In-place updates into persistent buffers with a reused workspace
    /// stay bit-identical to updates on freshly allocated ones.
    #[test]
    fn ws_paths_match_allocating_paths_bitwise_with_reuse() {
        fresh::assert_reuse_matches_fresh(CellKind::Gru, 35);
    }

    #[test]
    fn recurrent_state_grad_is_accumulated() {
        // Passing a recurrent dh must change the result vs None.
        let p = CellParams::Gru(GruParams::<f64>::init(2, 3, 9));
        let x = init::uniform(1, 2, -1.0, 1.0, 10);
        let (_, cache) = fresh::forward(&p, &x, &state(1, 3, 11));
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
