//! Diagonal linear recurrent cell: `H_t = λ ⊙ H_{t-1} + (X_t W + B)`.
//!
//! The diagonal-recurrent variant of Martin & Cundy, *"Parallelizing
//! Linear Recurrent Neural Nets Over Sequence Length"*: the recurrence
//! matrix is a learned diagonal `λ` (one decay per hidden unit), which
//! makes the state update a *linear* map `h ↦ λ ⊙ h + u_t`. Composition
//! of such maps is associative, so a whole direction can be evaluated by
//! a Blelloch parallel scan over the sequence dimension in `O(log T)`
//! depth instead of the `O(T)` chain every nonlinear cell requires — see
//! [`crate::scanplan`] and `RecurrenceStrategy::Scan`.
//!
//! The backward pass is itself a linear recurrence in the adjoint,
//! `δ_t = dH_t + λ ⊙ δ_{t+1}` (BPPSA, Wang et al.), scannable with the
//! same combine operator over reversed time.
//!
//! `λ` is initialised inside the unit interval (contractive), which both
//! stabilises training and bounds the error amplification of reordered
//! scan arithmetic.

use super::{CellState, StateGrad};
use bpar_tensor::ops::column_sums_into;
use bpar_tensor::{init, Activation, Backend, Float, Matrix, Workspace};

/// Diagonal linear recurrence parameters for one layer and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearParams<T: Float> {
    /// Input kernel, `input × hidden`.
    pub w: Matrix<T>,
    /// Diagonal recurrent decay, `1 × hidden` (broadcast over the batch).
    pub lambda: Matrix<T>,
    /// Bias, `1 × hidden`.
    pub b: Matrix<T>,
    /// Input width.
    pub input: usize,
    /// Hidden width.
    pub hidden: usize,
}

/// Forward-pass values a linear cell must remember for BPTT.
#[derive(Debug, Clone)]
pub struct LinearCache<T: Float> {
    /// Input `X_t`.
    pub x: Matrix<T>,
    /// Previous hidden state `H_{t-1}` (for the `dλ` reduction).
    pub h_prev: Matrix<T>,
}

impl<T: Float> LinearCache<T> {
    /// Zeroed cache buffers for a `batch`-row cell of the given widths.
    pub fn zeros(batch: usize, input: usize, hidden: usize) -> Self {
        Self {
            x: Matrix::zeros(batch, input),
            h_prev: Matrix::zeros(batch, hidden),
        }
    }

    /// Bytes of backing storage held by the cache.
    pub fn nbytes(&self) -> usize {
        self.x.nbytes() + self.h_prev.nbytes()
    }
}

impl<T: Float> LinearParams<T> {
    /// Seeded initialisation: Xavier input kernel, zero bias, and a
    /// contractive decay `λ ∈ (0.2, 0.9)` per hidden unit.
    pub fn init(input: usize, hidden: usize, seed: u64) -> Self {
        Self {
            w: init::xavier_uniform(input, hidden, seed),
            lambda: init::uniform(1, hidden, 0.2, 0.9, seed ^ 0x5ca3),
            b: Matrix::zeros(1, hidden),
            input,
            hidden,
        }
    }

    /// Zeroed same-shape parameters (gradient accumulator).
    pub fn zeros_like(&self) -> Self {
        Self {
            w: Matrix::zeros(self.w.rows(), self.w.cols()),
            lambda: Matrix::zeros(1, self.hidden),
            b: Matrix::zeros(1, self.hidden),
            input: self.input,
            hidden: self.hidden,
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.lambda.len() + self.b.len()
    }

    /// Forward update writing into caller-provided buffers:
    /// `u = X_t W + B` (one GEMM) then `H_t = λ ⊙ H_{t-1} + u` (the
    /// row-broadcast fused multiply-add the scan kernels share).
    pub fn forward(
        &self,
        x: &Matrix<T>,
        prev: &CellState<T>,
        state: &mut CellState<T>,
        cache: &mut LinearCache<T>,
        ws: &mut Workspace<T>,
        be: Backend,
    ) {
        let batch = x.rows();
        assert_eq!(x.cols(), self.input, "input width mismatch");
        assert_eq!(prev.h.shape(), (batch, self.hidden), "H_{{t-1}} shape");
        cache.x.copy_from(x);
        cache.h_prev.copy_from(&prev.h);
        let mut u = ws.checkout(batch, self.hidden);
        be.affine(Activation::Identity, x, &self.w, &self.b, &mut u);
        be.row_mul_add(&self.lambda, &cache.h_prev, &u, &mut state.h);
        ws.give_back(u);
    }

    /// Backward update; see [`super::CellParams::backward`] for the
    /// argument contract. `dstate.dh`, when present, is the *already
    /// λ-scaled* adjoint from the t+1 cell (this cell emits
    /// `dprev.dh = λ ⊙ δ_t` for the t-1 cell). With the total adjoint
    /// `δ = dH_t + dstate.dh`:
    ///
    /// * `dW += X_tᵀ δ`, `dB += Σ_rows δ`,
    /// * `dλ += Σ_rows δ ⊙ H_{t-1}` (the diagonal's rank-1 reduction),
    /// * `dX_t = δ Wᵀ`, `dprev.dh = λ ⊙ δ`.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        cache: &LinearCache<T>,
        dh: &Matrix<T>,
        dstate: Option<&StateGrad<T>>,
        grads: &mut LinearParams<T>,
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

        let mut delta = ws.checkout(batch, h);
        delta.copy_from(dh);
        if let Some(sg) = dstate {
            be.axpy(T::ONE, &sg.dh, &mut delta);
        }

        be.affine_grad(&cache.x, &delta, &self.w, &mut grads.w, &mut grads.b, dx);

        let mut row = ws.checkout(1, h);
        let mut dl = ws.checkout(batch, h);
        be.hadamard(&delta, &cache.h_prev, &mut dl);
        column_sums_into(&dl, &mut row);
        be.axpy(T::ONE, &row, &mut grads.lambda);

        dprev.dh.copy_from(&delta);
        be.row_scale(&self.lambda, &mut dprev.dh);

        ws.give_back(delta);
        ws.give_back(row);
        ws.give_back(dl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{fresh, CellCache, CellKind, CellParams};

    #[test]
    fn forward_matches_manual() {
        let mut p: LinearParams<f64> = LinearParams::init(1, 1, 0);
        p.w = Matrix::from_vec(1, 1, vec![0.5]);
        p.lambda = Matrix::from_vec(1, 1, vec![0.7]);
        p.b = Matrix::from_vec(1, 1, vec![0.1]);
        let x = Matrix::from_vec(1, 1, vec![0.8]);
        let prev = CellState {
            h: Matrix::from_vec(1, 1, vec![0.2]),
            c: None,
        };
        let (st, cache) = fresh::forward(&CellParams::Linear(p), &x, &prev);
        let CellCache::Linear(cache) = cache else {
            unreachable!()
        };
        let want = 0.7f64.mul_add(0.2, 0.8 * 0.5 + 0.1);
        assert!((st.h.get(0, 0) - want).abs() < 1e-15);
        assert_eq!(cache.h_prev.get(0, 0), 0.2);
    }

    #[test]
    fn lambda_initialises_contractive() {
        let p: LinearParams<f64> = LinearParams::init(4, 64, 123);
        assert!(p.lambda.as_slice().iter().all(|&l| (0.2..0.9).contains(&l)));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (batch, input, hidden) = (2usize, 3usize, 4usize);
        let p: LinearParams<f64> = LinearParams::init(input, hidden, 5);
        let x = init::uniform(batch, input, -1.0, 1.0, 6);
        let prev = CellState {
            h: init::uniform(batch, hidden, -0.5, 0.5, 7),
            c: None,
        };
        let s = init::uniform(batch, hidden, -1.0, 1.0, 8);
        let loss = |p: &LinearParams<f64>, x: &Matrix<f64>, prev: &CellState<f64>| {
            let (st, _) = fresh::forward(&CellParams::Linear(p.clone()), x, prev);
            bpar_tensor::ops::dot(&s, &st.h)
        };
        let cell = CellParams::Linear(p.clone());
        let (_, cache) = fresh::forward(&cell, &x, &prev);
        let mut grads = cell.zeros_like();
        let (dx, sg) = fresh::backward(&cell, &cache, &s, None, &mut grads);
        let CellParams::Linear(grads) = grads else {
            unreachable!()
        };

        let eps = 1e-6;
        for &(r, c) in &[(0usize, 0usize), (2, 3), (1, 1)] {
            let mut pp = p.clone();
            pp.w.set(r, c, p.w.get(r, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.w.set(r, c, p.w.get(r, c) - eps);
            let lm = loss(&pp, &x, &prev);
            assert!((grads.w.get(r, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
        for c in 0..hidden {
            let mut pp = p.clone();
            pp.lambda.set(0, c, p.lambda.get(0, c) + eps);
            let lp = loss(&pp, &x, &prev);
            pp.lambda.set(0, c, p.lambda.get(0, c) - eps);
            let lm = loss(&pp, &x, &prev);
            assert!((grads.lambda.get(0, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
            let mut pb = p.clone();
            pb.b.set(0, c, p.b.get(0, c) + eps);
            let lp = loss(&pb, &x, &prev);
            pb.b.set(0, c, p.b.get(0, c) - eps);
            let lm = loss(&pb, &x, &prev);
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

    /// In-place updates into persistent buffers with a reused workspace
    /// stay bit-identical to updates on freshly allocated ones.
    #[test]
    fn ws_paths_match_allocating_paths_bitwise_with_reuse() {
        fresh::assert_reuse_matches_fresh(CellKind::Linear, 45);
    }

    #[test]
    fn recurrent_gradient_accumulates() {
        let p = CellParams::Linear(LinearParams::<f64>::init(2, 3, 9));
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

    /// The whole point of the diagonal cell: applying the composed chunk
    /// transfer once equals running the recurrence step by step.
    #[test]
    fn chunk_transfer_matches_stepwise_recurrence() {
        let (batch, input, hidden) = (2usize, 3usize, 4usize);
        let lin: LinearParams<f64> = LinearParams::init(input, hidden, 20);
        let p = CellParams::Linear(lin.clone());
        let xs: Vec<Matrix<f64>> = (0..5)
            .map(|t| init::uniform(batch, input, -1.0, 1.0, 21 + t))
            .collect();
        let h0 = init::uniform(batch, hidden, -0.5, 0.5, 30);

        // Step-wise chain from h0.
        let mut st = CellState {
            h: h0.clone(),
            c: None,
        };
        for x in &xs {
            st = fresh::forward(&p, x, &st).0;
        }

        // Chunk transfer: run from zero, compose (λ^len, h_local_last),
        // then apply to h0.
        let mut local = CellState::zeros(CellKind::Linear, batch, hidden);
        for x in &xs {
            local = fresh::forward(&p, x, &local).0;
        }
        let mut a = Matrix::from_fn(1, hidden, |_, _| 1.0);
        for _ in 0..xs.len() {
            let prev = a.clone();
            bpar_tensor::ops::hadamard(&prev, &lin.lambda, &mut a);
        }
        let mut applied = Matrix::zeros(batch, hidden);
        bpar_tensor::ops::row_mul_add(&a, &h0, &local.h, &mut applied);
        assert!(applied.max_abs_diff(&st.h) < 1e-12);
    }
}
