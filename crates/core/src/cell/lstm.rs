//! LSTM cell: Equations (1)–(6) of the paper, forward and BPTT backward.
//!
//! ```text
//! f_t = σ(W_f [X_t, H_{t-1}] + B_f)            (1)
//! i_t = σ(W_i [X_t, H_{t-1}] + B_i)            (2)
//! g_t = tanh(W_c [X_t, H_{t-1}] + B_c)         (3)   (the paper's C̄_t)
//! o_t = σ(W_o [X_t, H_{t-1}] + B_o)            (4)
//! C_t = f_t ⊙ C_{t-1} + i_t ⊙ g_t              (5)
//! H_t = o_t ⊙ tanh(C_t)                        (6)
//! ```
//!
//! The four gate weight matrices are fused into one `(I+H) × 4H` kernel so
//! each cell update is a single GEMM — the same layout MKL/cuDNN use and
//! the reason an RNN cell task is GEMM-dominated. Gate block order within
//! the fused matrix is `[i, f, g, o]`.
//!
//! Up to `H = 8` (the `4H`-wide product fits one 32-lane strip,
//! `I + H ≤ 256`; [`fits`]) a step is one [`Backend::step`] call, forward
//! and backward: blocks of up to four rows, the gate product, bias and
//! non-linearities in registers. Wider cells run the gate product through
//! [`Backend::affine`] / [`Backend::affine_grad`] with the element-wise
//! passes around it. Both give each element the same operations in the
//! same order, so the width at which the route changes moves no bit.

use super::{CellState, StateGrad};
use bpar_tensor::reference::lstm_gate_grads;
use bpar_tensor::step::{fits, LstmBackward, LstmForward, Step};
use bpar_tensor::{init, Activation, Backend, Float, Matrix, Workspace};

/// Fused LSTM parameters for one layer and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmParams<T: Float> {
    /// Fused gate kernel, `(input + hidden) × 4·hidden`, blocks `[i,f,g,o]`.
    pub w: Matrix<T>,
    /// Fused gate bias, `1 × 4·hidden`.
    pub b: Matrix<T>,
    /// Input width this cell was built for.
    pub input: usize,
    /// Hidden width.
    pub hidden: usize,
}

/// Forward-pass values an LSTM cell must remember for BPTT.
#[derive(Debug, Clone)]
pub struct LstmCache<T: Float> {
    /// Concatenated `[X_t, H_{t-1}]`, `batch × (input+hidden)`.
    pub z: Matrix<T>,
    /// Gate activations (post-nonlinearity), `batch × 4·hidden`,
    /// blocks `[i, f, g, o]`.
    pub gates: Matrix<T>,
    /// Previous cell state `C_{t-1}`.
    pub c_prev: Matrix<T>,
    /// `tanh(C_t)` (reused by Eq. (6) backward — together with `c_prev`
    /// and `gates` it reconstructs everything BPTT needs, so `C_t` itself
    /// lives only in the returned [`CellState`]).
    pub tanh_c: Matrix<T>,
}

impl<T: Float> LstmCache<T> {
    /// Zeroed cache buffers for a `batch`-row cell of the given widths —
    /// the persistent storage [`LstmParams::forward`] writes into.
    pub fn zeros(batch: usize, input: usize, hidden: usize) -> Self {
        Self {
            z: Matrix::zeros(batch, input + hidden),
            gates: Matrix::zeros(batch, 4 * hidden),
            c_prev: Matrix::zeros(batch, hidden),
            tanh_c: Matrix::zeros(batch, hidden),
        }
    }

    /// Bytes of backing storage held by the cache.
    pub fn nbytes(&self) -> usize {
        self.z.nbytes() + self.gates.nbytes() + self.c_prev.nbytes() + self.tanh_c.nbytes()
    }
}

impl<T: Float> LstmParams<T> {
    /// Xavier-initialised parameters; forget-gate bias starts at 1 (the
    /// standard trick to keep gradients flowing early in training).
    pub fn init(input: usize, hidden: usize, seed: u64) -> Self {
        let w = init::xavier_uniform(input + hidden, 4 * hidden, seed);
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.set(0, j, T::ONE); // forget-gate block
        }
        Self {
            w,
            b,
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
        fits(self.input + self.hidden, 4 * self.hidden)
    }

    /// Forward update (Eqs. 1–6). `x` is `batch × input`; `prev` must hold
    /// both `H_{t-1}` and `C_{t-1}`. Every result is written into the
    /// caller-provided `state`/`cache` buffers (see [`LstmCache::zeros`]).
    /// A cell on the one-call route is one [`Backend::step`]; otherwise
    /// the gate product runs through [`Backend::affine`].
    pub fn forward(
        &self,
        x: &Matrix<T>,
        prev: &CellState<T>,
        state: &mut CellState<T>,
        cache: &mut LstmCache<T>,
        be: Backend,
    ) {
        let batch = x.rows();
        assert_eq!(x.cols(), self.input, "input width mismatch");
        assert_eq!(prev.h.shape(), (batch, self.hidden), "H_{{t-1}} shape");
        let c_prev = prev.c.as_ref().expect("LSTM needs a cell state");
        let h = self.hidden;
        let c = state
            .c
            .as_mut()
            .expect("LSTM state buffer needs a cell state");
        assert_eq!(c.shape(), (batch, h), "C_t buffer shape");
        if self.fused() {
            return be.step(Step::LstmForward(LstmForward {
                x,
                h_prev: &prev.h,
                c_prev,
                w: &self.w,
                b: &self.b,
                z: &mut cache.z,
                gates: &mut cache.gates,
                tanh_c: &mut cache.tanh_c,
                c_prev_copy: &mut cache.c_prev,
                h: &mut state.h,
                c,
            }));
        }

        // Z = [X_t, H_{t-1}];  G = act(Z W + b): σ on i,f,o, tanh on g.
        let (z, gates) = (&mut cache.z, &mut cache.gates);
        Matrix::hstack_into(&[x, &prev.h], z);
        be.affine(Activation::LstmGates, z, &self.w, &self.b, gates);

        // C_t = f ⊙ C_{t-1} + i ⊙ g ;  H_t = o ⊙ tanh(C_t)
        for r in 0..batch {
            let grow = cache.gates.row(r);
            let (gi, rest) = grow.split_at(h);
            let (gf, rest) = rest.split_at(h);
            let gg = &rest[..h];
            let cp = c_prev.row(r);
            let crow = c.row_mut(r);
            for j in 0..h {
                crow[j] = gf[j] * cp[j] + gi[j] * gg[j];
            }
        }
        // One slice call over the whole batch × h block.
        cache.tanh_c.copy_from(c);
        be.tanh_inplace(&mut cache.tanh_c);
        for r in 0..batch {
            let go = &cache.gates.row(r)[3 * h..];
            let trow = cache.tanh_c.row(r);
            let hrow = state.h.row_mut(r);
            for j in 0..h {
                hrow[j] = go[j] * trow[j];
            }
        }
        cache.c_prev.copy_from(c_prev);
    }

    /// Backward update (BPTT through Eqs. 1–6).
    ///
    /// * `dh` — gradient w.r.t. `H_t` from the upstream consumers (merge /
    ///   next layer),
    /// * `dstate` — recurrent gradient from cell t+1 (`dh` through the
    ///   recurrence and `dc`), or `None` at the end of the direction,
    /// * `grads` — layer-level accumulator receiving `dW`, `dB`.
    ///
    /// The input gradient goes into `dx`, the state gradient for cell t-1
    /// into `dprev` (both caller-provided, fully overwritten); transient
    /// scratch comes from `ws` and the kernels dispatch through `be`. A
    /// cell on the one-call route is one [`Backend::step`].
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        cache: &LstmCache<T>,
        dh: &Matrix<T>,
        dstate: Option<&StateGrad<T>>,
        grads: &mut LstmParams<T>,
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

        // Gate pre-activation gradients, fused layout [i, f, g, o], from
        // dH_t = upstream + recurrent.
        let k = self.input + h;
        let mut dgates = ws.checkout(batch, if self.fused() { 4 * h + k } else { 4 * h });
        let dc_prev = dprev
            .dc
            .as_mut()
            .expect("LSTM gradient buffer needs a dC slot");
        assert_eq!(dc_prev.shape(), (batch, h), "dC_prev buffer shape");
        let rec = dstate.map(|s| {
            let dc = s.dc.as_ref().expect("LSTM state gradient needs a dC");
            (&s.dh, dc)
        });
        if self.fused() {
            be.step(Step::LstmBackward(LstmBackward {
                z: &cache.z,
                gates: &cache.gates,
                tanh_c: &cache.tanh_c,
                c_prev: &cache.c_prev,
                w: &self.w,
                dh,
                rec,
                dw: &mut grads.w,
                db: &mut grads.b,
                dx,
                dh_prev: &mut dprev.dh,
                dc_prev,
                scratch: dgates.as_mut_slice(),
            }));
            return ws.give_back(dgates);
        }
        for r in 0..batch {
            let rows = [
                cache.gates.row(r),
                cache.tanh_c.row(r),
                cache.c_prev.row(r),
                dh.row(r),
            ];
            let (dgrow, dcp) = (dgates.row_mut(r), dc_prev.row_mut(r));
            match rec {
                Some((rh, rc)) => {
                    lstm_gate_grads::<T, true>(h, rows, rh.row(r), rc.row(r), dgrow, dcp)
                }
                None => lstm_gate_grads::<T, false>(h, rows, &[], &[], dgrow, dcp),
            }
        }

        // dW += Zᵀ dG ;  dB += Σ_batch dG ;  dZ = dG Wᵀ, split into dX and
        // dH_{t-1}.
        let mut dz = ws.checkout(batch, k);
        let (gw, gb) = (&mut grads.w, &mut grads.b);
        be.affine_grad(&cache.z, &dgates, &self.w, gw, gb, &mut dz);
        for r in 0..batch {
            let (dxr, dhr) = dz.row(r).split_at(self.input);
            dx.row_mut(r).copy_from_slice(dxr);
            dprev.dh.row_mut(r).copy_from_slice(dhr);
        }

        ws.give_back(dgates);
        ws.give_back(dz);
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
            c: Some(init::uniform(batch, hidden, -0.5, 0.5, seed + 1)),
        }
    }

    #[test]
    fn forward_shapes() {
        let p = CellParams::Lstm(LstmParams::<f64>::init(3, 5, 0));
        let x = init::uniform(2, 3, -1.0, 1.0, 7);
        let (st, cache) = fresh::forward(&p, &x, &CellState::zeros(CellKind::Lstm, 2, 5));
        let CellCache::Lstm(cache) = cache else {
            unreachable!()
        };
        assert_eq!(st.h.shape(), (2, 5));
        assert_eq!(st.c.as_ref().unwrap().shape(), (2, 5));
        assert_eq!(cache.z.shape(), (2, 8));
        assert_eq!(cache.gates.shape(), (2, 20));
    }

    #[test]
    fn forward_matches_manual_equations() {
        // 1x1 cell computed by hand from Eqs. (1)-(6).
        let mut p: LstmParams<f64> = LstmParams::init(1, 1, 0);
        // w rows: [x; h], cols: [i, f, g, o]
        p.w = Matrix::from_vec(2, 4, vec![0.5, -0.3, 0.8, 0.1, 0.2, 0.4, -0.6, 0.9]);
        p.b = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, -0.1]);
        let x = Matrix::from_vec(1, 1, vec![0.7]);
        let prev = CellState {
            h: Matrix::from_vec(1, 1, vec![0.25]),
            c: Some(Matrix::from_vec(1, 1, vec![-0.4])),
        };
        let (st, _) = fresh::forward(&CellParams::Lstm(p), &x, &prev);

        let zi = 0.7 * 0.5 + 0.25 * 0.2 + 0.1;
        let zf = 0.7 * -0.3 + 0.25 * 0.4 + 0.2;
        let zg = 0.7 * 0.8 + 0.25 * -0.6 + 0.3;
        let zo = 0.7 * 0.1 + 0.25 * 0.9 + -0.1;
        let sig = |v: f64| 1.0 / (1.0 + (-v).exp());
        let c = sig(zf) * -0.4 + sig(zi) * zg.tanh();
        let h = sig(zo) * c.tanh();
        assert!((st.c.as_ref().unwrap().get(0, 0) - c).abs() < 1e-12);
        assert!((st.h.get(0, 0) - h).abs() < 1e-12);
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let p: LstmParams<f32> = LstmParams::init(2, 3, 0);
        for j in 0..3 {
            assert_eq!(p.b.get(0, j + 3), 1.0); // f block
            assert_eq!(p.b.get(0, j), 0.0); // i block
        }
    }

    #[test]
    fn outputs_are_bounded() {
        // |H_t| ≤ 1 because H = σ(·)·tanh(·).
        let p = CellParams::Lstm(LstmParams::<f64>::init(4, 8, 3));
        let x = init::uniform(5, 4, -10.0, 10.0, 9);
        let (st, _) = fresh::forward(&p, &x, &state(5, 8, 11));
        assert!(st.h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    /// Central finite-difference gradient check of the full backward pass.
    #[test]
    fn gradients_match_finite_differences() {
        let batch = 2;
        let (input, hidden) = (3, 4);
        let p: LstmParams<f64> = LstmParams::init(input, hidden, 5);
        let x = init::uniform(batch, input, -1.0, 1.0, 6);
        let prev = state(batch, hidden, 7);
        // Loss = Σ s_h ⊙ H_t + Σ s_c ⊙ C_t with fixed random sensitivities.
        let s_h = init::uniform(batch, hidden, -1.0, 1.0, 8);
        let s_c = init::uniform(batch, hidden, -1.0, 1.0, 9);

        let loss = |p: &LstmParams<f64>, x: &Matrix<f64>, prev: &CellState<f64>| -> f64 {
            let (st, _) = fresh::forward(&CellParams::Lstm(p.clone()), x, prev);
            bpar_tensor::ops::dot(&s_h, &st.h).to_f64()
                + bpar_tensor::ops::dot(&s_c, st.c.as_ref().unwrap()).to_f64()
        };

        // Analytic gradients: dh = s_h, recurrent dc = s_c.
        let cell = CellParams::Lstm(p.clone());
        let (_, cache) = fresh::forward(&cell, &x, &prev);
        let mut grads = cell.zeros_like();
        let dstate = StateGrad {
            dh: Matrix::zeros(batch, hidden),
            dc: Some(s_c.clone()),
        };
        let (dx, sg_prev) = fresh::backward(&cell, &cache, &s_h, Some(&dstate), &mut grads);
        let CellParams::Lstm(grads) = grads else {
            unreachable!()
        };

        let eps = 1e-6;
        // Check dW entries (sampled).
        for &(r, c) in &[(0, 0), (1, 3), (2, 7), (6, 15), (4, 9)] {
            let mut pp = p.clone();
            pp.w.set(r, c, p.w.get(r, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.w.set(r, c, p.w.get(r, c) - eps);
            let lm = loss(&pp, &x, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.w.get(r, c) - fd).abs() < 1e-5,
                "dW[{r},{c}] = {} vs fd {fd}",
                grads.w.get(r, c)
            );
        }
        // Check dB entries.
        for c in [0, 5, 9, 14] {
            let mut pp = p.clone();
            pp.b.set(0, c, p.b.get(0, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.b.set(0, c, p.b.get(0, c) - eps);
            let lm = loss(&pp, &x, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((grads.b.get(0, c) - fd).abs() < 1e-5, "dB[{c}]");
        }
        // Check dX entries.
        for &(r, c) in &[(0, 0), (1, 2)] {
            let mut xx = x.clone();
            xx.set(r, c, x.get(r, c) + eps);
            let lp = loss(&p, &xx, &prev);
            xx.set(r, c, x.get(r, c) - eps);
            let lm = loss(&p, &xx, &prev);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((dx.get(r, c) - fd).abs() < 1e-5, "dX[{r},{c}]");
        }
        // Check dH_{t-1} and dC_{t-1} entries.
        for &(r, c) in &[(0, 1), (1, 3)] {
            let mut pv = prev.clone();
            pv.h.set(r, c, prev.h.get(r, c) + eps);
            let lp = loss(&p, &x, &pv);
            pv.h.set(r, c, prev.h.get(r, c) - eps);
            let lm = loss(&p, &x, &pv);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((sg_prev.dh.get(r, c) - fd).abs() < 1e-5, "dHprev[{r},{c}]");

            let mut pv = prev.clone();
            let c0 = prev.c.as_ref().unwrap().get(r, c);
            pv.c.as_mut().unwrap().set(r, c, c0 + eps);
            let lp = loss(&p, &x, &pv);
            pv.c.as_mut().unwrap().set(r, c, c0 - eps);
            let lm = loss(&p, &x, &pv);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (sg_prev.dc.as_ref().unwrap().get(r, c) - fd).abs() < 1e-5,
                "dCprev[{r},{c}]"
            );
        }
    }

    /// Regression oracle for the allocation-free forward rewrite: an
    /// independent implementation built on `gemm_naive` plus the
    /// pre-rewrite copy-based elementwise loop. The elementwise section
    /// must match bit-for-bit (same inputs, same operation order, no
    /// reassociation); the gate GEMM is compared at ulp-scale tolerance
    /// because the blocked `gemm` fuses with `mul_add` while the naive
    /// oracle does not.
    #[test]
    fn forward_matches_gemm_naive_oracle() {
        let batch = 3;
        let (input, hidden) = (4, 5);
        let h = hidden;
        let p: LstmParams<f64> = LstmParams::init(input, hidden, 21);
        let x = init::uniform(batch, input, -1.0, 1.0, 22);
        let prev = state(batch, hidden, 23);
        let (st, cache) = fresh::forward(&CellParams::Lstm(p.clone()), &x, &prev);
        let CellCache::Lstm(cache) = cache else {
            unreachable!()
        };

        // Oracle gates: Z W + b via the naive triple loop, then the
        // shared nonlinearity helper.
        let z = Matrix::hstack(&[&x, &prev.h]);
        let mut gates = Matrix::zeros(batch, 4 * h);
        bpar_tensor::gemm_naive(1.0, &z, &p.w, 0.0, &mut gates);
        add_bias(&mut gates, &p.b);
        Activation::LstmGates.apply(&mut gates);
        assert!(
            cache.gates.max_abs_diff(&gates) < 1e-12,
            "gate activations diverge from the naive-GEMM oracle"
        );

        // Elementwise Eqs. (5)-(6) from the gate activations the forward
        // actually produced, written with the explicit row copies the
        // code used before the allocation-free rewrite. Identical inputs
        // and operation order ⇒ the outputs must be bit-identical.
        let cp = prev.c.as_ref().unwrap();
        let mut c_ref = Matrix::zeros(batch, h);
        let mut h_ref = Matrix::zeros(batch, h);
        for r in 0..batch {
            let grow = cache.gates.row(r).to_vec();
            for j in 0..h {
                c_ref.row_mut(r)[j] = grow[h + j] * cp.row(r)[j] + grow[j] * grow[2 * h + j];
            }
            let crow = c_ref.row(r).to_vec();
            for j in 0..h {
                h_ref.row_mut(r)[j] = grow[3 * h + j] * crow[j].tanh();
            }
        }
        let c_new = st.c.as_ref().unwrap();
        for (a, b) in c_new.as_slice().iter().zip(c_ref.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "C_t must be bit-identical");
        }
        for (a, b) in st.h.as_slice().iter().zip(h_ref.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "H_t must be bit-identical");
        }
        // tanh(C_t) in the cache is derived from the same C_t values.
        for (a, b) in cache.tanh_c.as_slice().iter().zip(c_ref.as_slice()) {
            assert_eq!(a.to_bits(), b.tanh().to_bits(), "tanh(C_t) mismatch");
        }
    }

    /// In-place updates into persistent buffers with a reused workspace
    /// stay bit-identical to updates on freshly allocated ones.
    #[test]
    fn ws_paths_match_allocating_paths_bitwise_with_reuse() {
        fresh::assert_reuse_matches_fresh(CellKind::Lstm, 25);
    }

    #[test]
    fn backward_accumulates_into_grads() {
        let p = CellParams::Lstm(LstmParams::<f64>::init(2, 3, 1));
        let x = init::uniform(1, 2, -1.0, 1.0, 2);
        let (_, cache) = fresh::forward(&p, &x, &state(1, 3, 3));
        let dh = init::uniform(1, 3, -1.0, 1.0, 4);
        let mut grads = p.zeros_like();
        fresh::backward(&p, &cache, &dh, None, &mut grads);
        let mut doubled = grads.clone();
        doubled.add_assign(&grads.clone());
        fresh::backward(&p, &cache, &dh, None, &mut grads);
        // Second call doubles the accumulator.
        grads.for_each_param(&doubled, &mut |a, b| assert!(a.max_abs_diff(b) < 1e-12));
    }

    #[test]
    fn gate_nonlinearity_helper_matches_forward() {
        let h = 3;
        let mut gates = init::uniform::<f64>(2, 4 * h, -2.0, 2.0, 5);
        let reference = {
            let mut g = gates.clone();
            for r in 0..2 {
                let row = g.row_mut(r);
                for v in &mut row[0..2 * h] {
                    *v = v.sigmoid();
                }
                for v in &mut row[2 * h..3 * h] {
                    *v = v.tanh();
                }
                for v in &mut row[3 * h..4 * h] {
                    *v = v.sigmoid();
                }
            }
            g
        };
        Activation::LstmGates.apply(&mut gates);
        assert!(gates.max_abs_diff(&reference) < 1e-15);
    }
}
