//! RNN cell kernels.
//!
//! Each unrolled BRNN cell update — the body of one B-Par task — is a fixed
//! sequence of algebraic operations (the paper's `FwdBwdComputations`).
//! This module provides those kernels for LSTM and GRU cells, both the
//! forward pass and the BPTT backward pass, together with flop and
//! working-set estimators that feed the multi-core simulator's cost model.

pub mod gru;
pub mod linear;
pub mod lstm;
pub mod vanilla;

use bpar_tensor::{Backend, Float, Matrix, Workspace};

pub use gru::GruParams;
pub use linear::LinearParams;
pub use lstm::LstmParams;
pub use vanilla::VanillaParams;

/// Which recurrent cell a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellKind {
    /// Long Short-Term Memory, Equations (1)–(6).
    #[default]
    Lstm,
    /// Gated Recurrent Unit, Equations (7)–(10).
    Gru,
    /// Basic (Elman) RNN unit: `H_t = tanh(W [X_t, H_{t-1}] + B)`.
    Vanilla,
    /// Diagonal linear recurrence `H_t = λ ⊙ H_{t-1} + (X_t W + B)`
    /// (Martin & Cundy) — the only cell whose recurrence is associative
    /// and therefore eligible for parallel-scan execution.
    Linear,
}

impl CellKind {
    /// Number of gate blocks in the fused recurrent weight matrix
    /// (4 for LSTM: i, f, c̄, o; 3 for GRU: z, r, h; 1 otherwise).
    pub fn gates(self) -> usize {
        match self {
            CellKind::Lstm => 4,
            CellKind::Gru => 3,
            CellKind::Vanilla | CellKind::Linear => 1,
        }
    }

    /// True when the cell's recurrence is a linear map of the previous
    /// state, making it executable by a Blelloch scan over sequence
    /// length (`RecurrenceStrategy::Scan`); nonlinear cells always run
    /// the timestep chain.
    pub fn scannable(self) -> bool {
        matches!(self, CellKind::Linear)
    }

    /// Trainable parameters of one cell (one layer, one direction) with
    /// `input` inputs and `hidden` units: fused kernel plus bias.
    ///
    /// Matches the "Parameters" column of Tables III/IV when summed over
    /// layers and directions.
    pub fn params(self, input: usize, hidden: usize) -> usize {
        match self {
            // Input kernel + diagonal decay + bias; no dense recurrent
            // block at all.
            CellKind::Linear => input * hidden + 2 * hidden,
            _ => (input + hidden) * self.gates() * hidden + self.gates() * hidden,
        }
    }

    /// Floating-point operations of one forward cell update on a batch of
    /// `b` samples (GEMM plus element-wise gate algebra).
    pub fn forward_flops(self, b: usize, input: usize, hidden: usize) -> u64 {
        let gemm = match self {
            // The diagonal cell's only GEMM is input × kernel (the
            // recurrence is element-wise).
            CellKind::Linear => 2 * b as u64 * input as u64 * hidden as u64,
            _ => 2 * b as u64 * (input + hidden) as u64 * (self.gates() * hidden) as u64,
        };
        let elementwise = match self {
            // i,f,o sigmoids + g tanh + C/H updates ≈ 30 flops per unit.
            CellKind::Lstm => 30 * b as u64 * hidden as u64,
            CellKind::Gru => 25 * b as u64 * hidden as u64,
            CellKind::Vanilla => 8 * b as u64 * hidden as u64,
            // bias add + λ-fma.
            CellKind::Linear => 3 * b as u64 * hidden as u64,
        };
        gemm + elementwise
    }

    /// Floating-point operations of one backward (BPTT) cell update:
    /// two GEMMs (input gradient and weight gradient) plus gate algebra.
    pub fn backward_flops(self, b: usize, input: usize, hidden: usize) -> u64 {
        2 * self.forward_flops(b, input, hidden)
    }

    /// Approximate bytes touched by one forward cell task: weights, inputs,
    /// previous state, gate buffer, outputs. `scalar` is the element size.
    ///
    /// For the paper's granularity experiment (B=128, I=64, H=512, f32)
    /// this is dominated by the fused LSTM weights:
    /// (64+512)·4·512·4 B ≈ 4.7 MB, matching the reported 4.71 MB.
    pub fn forward_working_set(
        self,
        b: usize,
        input: usize,
        hidden: usize,
        scalar: usize,
    ) -> usize {
        if self == CellKind::Linear {
            let weights = input * hidden + 2 * hidden;
            let acts = b * input + 3 * b * hidden; // input + prev + u + output
            return (weights + acts) * scalar;
        }
        let g = self.gates();
        let weights = (input + hidden) * g * hidden + g * hidden;
        let acts = b * (input + hidden) // concatenated input
            + b * g * hidden // gate pre-activations
            + 3 * b * hidden; // prev state + new state + output
        (weights + acts) * scalar
    }

    /// Approximate bytes touched by one backward cell task (cache + weight
    /// gradients roughly double the forward footprint).
    pub fn backward_working_set(
        self,
        b: usize,
        input: usize,
        hidden: usize,
        scalar: usize,
    ) -> usize {
        2 * self.forward_working_set(b, input, hidden, scalar)
    }
}

/// Recurrent state carried between consecutive cells of one direction.
#[derive(Debug, Clone, PartialEq)]
pub struct CellState<T: Float> {
    /// Hidden state `H_t`, shape `batch × hidden`.
    pub h: Matrix<T>,
    /// Cell state `C_t` (LSTM only), shape `batch × hidden`.
    pub c: Option<Matrix<T>>,
}

impl<T: Float> CellState<T> {
    /// Zero state for a batch.
    pub fn zeros(kind: CellKind, batch: usize, hidden: usize) -> Self {
        Self {
            h: Matrix::zeros(batch, hidden),
            c: match kind {
                CellKind::Lstm => Some(Matrix::zeros(batch, hidden)),
                CellKind::Gru | CellKind::Vanilla | CellKind::Linear => None,
            },
        }
    }

    /// Bytes of backing storage held by the state.
    pub fn nbytes(&self) -> usize {
        self.h.nbytes() + self.c.as_ref().map_or(0, Matrix::nbytes)
    }
}

/// Values saved by a forward cell update for the backward pass.
#[derive(Debug, Clone)]
pub enum CellCache<T: Float> {
    /// LSTM: concatenated input `[X_t, H_{t-1}]`, gate activations, and
    /// cell states.
    Lstm(lstm::LstmCache<T>),
    /// GRU: concatenated inputs and gate activations.
    Gru(gru::GruCache<T>),
    /// Vanilla RNN: concatenated input and activated output.
    Vanilla(vanilla::VanillaCache<T>),
    /// Diagonal linear cell: input and previous hidden state.
    Linear(linear::LinearCache<T>),
}

impl<T: Float> CellCache<T> {
    /// Zeroed cache buffers of the right shape for one cell update — the
    /// persistent storage [`CellParams::forward`] writes into.
    pub fn zeros(kind: CellKind, batch: usize, input: usize, hidden: usize) -> Self {
        match kind {
            CellKind::Lstm => CellCache::Lstm(lstm::LstmCache::zeros(batch, input, hidden)),
            CellKind::Gru => CellCache::Gru(gru::GruCache::zeros(batch, input, hidden)),
            CellKind::Vanilla => {
                CellCache::Vanilla(vanilla::VanillaCache::zeros(batch, input, hidden))
            }
            CellKind::Linear => CellCache::Linear(linear::LinearCache::zeros(batch, input, hidden)),
        }
    }

    /// Bytes of backing storage held by the cache.
    pub fn nbytes(&self) -> usize {
        match self {
            CellCache::Lstm(c) => c.nbytes(),
            CellCache::Gru(c) => c.nbytes(),
            CellCache::Vanilla(c) => c.nbytes(),
            CellCache::Linear(c) => c.nbytes(),
        }
    }
}

/// Trainable parameters of one (layer, direction) cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellParams<T: Float> {
    /// LSTM parameters.
    Lstm(LstmParams<T>),
    /// GRU parameters.
    Gru(GruParams<T>),
    /// Vanilla RNN parameters.
    Vanilla(VanillaParams<T>),
    /// Diagonal linear recurrence parameters.
    Linear(LinearParams<T>),
}

impl<T: Float> CellParams<T> {
    /// Seeded initialisation for a cell with the given dimensions.
    pub fn init(kind: CellKind, input: usize, hidden: usize, seed: u64) -> Self {
        match kind {
            CellKind::Lstm => CellParams::Lstm(LstmParams::init(input, hidden, seed)),
            CellKind::Gru => CellParams::Gru(GruParams::init(input, hidden, seed)),
            CellKind::Vanilla => CellParams::Vanilla(VanillaParams::init(input, hidden, seed)),
            CellKind::Linear => CellParams::Linear(LinearParams::init(input, hidden, seed)),
        }
    }

    /// Zeroed parameters with the same shapes (gradient accumulators).
    pub fn zeros_like(&self) -> Self {
        match self {
            CellParams::Lstm(p) => CellParams::Lstm(p.zeros_like()),
            CellParams::Gru(p) => CellParams::Gru(p.zeros_like()),
            CellParams::Vanilla(p) => CellParams::Vanilla(p.zeros_like()),
            CellParams::Linear(p) => CellParams::Linear(p.zeros_like()),
        }
    }

    /// Zeroes every matrix in place: [`CellParams::zeros_like`] for an
    /// accumulator that already exists.
    pub fn fill_zero(&mut self) {
        match self {
            CellParams::Lstm(p) => {
                p.w.fill_zero();
                p.b.fill_zero();
            }
            CellParams::Gru(p) => {
                p.wzr.fill_zero();
                p.bzr.fill_zero();
                p.wh.fill_zero();
                p.bh.fill_zero();
            }
            CellParams::Vanilla(p) => {
                p.w.fill_zero();
                p.b.fill_zero();
            }
            CellParams::Linear(p) => {
                p.w.fill_zero();
                p.lambda.fill_zero();
                p.b.fill_zero();
            }
        }
    }

    /// The cell kind these parameters belong to.
    pub fn kind(&self) -> CellKind {
        match self {
            CellParams::Lstm(_) => CellKind::Lstm,
            CellParams::Gru(_) => CellKind::Gru,
            CellParams::Vanilla(_) => CellKind::Vanilla,
            CellParams::Linear(_) => CellKind::Linear,
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        match self {
            CellParams::Lstm(p) => p.param_count(),
            CellParams::Gru(p) => p.param_count(),
            CellParams::Vanilla(p) => p.param_count(),
            CellParams::Linear(p) => p.param_count(),
        }
    }

    /// Forward cell update: consumes `x` (`batch × input`) and the previous
    /// state, writes the new state and the cache BPTT needs into the
    /// caller-provided `state` and `cache` buffers (see
    /// [`CellCache::zeros`]). The cell's GEMM and bias kernels dispatch
    /// through `be`; only the linear cell draws a transient buffer (`u`)
    /// from `ws`.
    pub fn forward(
        &self,
        x: &Matrix<T>,
        prev: &CellState<T>,
        state: &mut CellState<T>,
        cache: &mut CellCache<T>,
        ws: &mut Workspace<T>,
        be: Backend,
    ) {
        match (self, cache) {
            (CellParams::Lstm(p), CellCache::Lstm(c)) => p.forward(x, prev, state, c, be),
            (CellParams::Gru(p), CellCache::Gru(c)) => p.forward(x, prev, state, c, be),
            (CellParams::Vanilla(p), CellCache::Vanilla(c)) => p.forward(x, prev, state, c, be),
            (CellParams::Linear(p), CellCache::Linear(c)) => p.forward(x, prev, state, c, ws, be),
            _ => panic!("cell kind mismatch between params and cache"),
        }
    }

    /// Backward cell update.
    ///
    /// * `dh` — gradient w.r.t. this cell's output `H_t` (upstream + merge),
    /// * `dstate` — gradient w.r.t. this cell's *state* flowing back from
    ///   the t+1 cell of the same direction (`dh_rec` plus `dc` for LSTM);
    ///   pass `None` for the last cell of the direction.
    ///
    /// Writes the input gradient into `dx` and the state gradient flowing
    /// to the t-1 cell into `dprev` (caller-provided, fully overwritten),
    /// and accumulates the weight gradients into `grads`. Scratch comes
    /// from `ws` and the GEMM kernels dispatch through `be`.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        cache: &CellCache<T>,
        dh: &Matrix<T>,
        dstate: Option<&StateGrad<T>>,
        grads: &mut CellParams<T>,
        dx: &mut Matrix<T>,
        dprev: &mut StateGrad<T>,
        ws: &mut Workspace<T>,
        be: Backend,
    ) {
        match (self, cache, grads) {
            (CellParams::Lstm(p), CellCache::Lstm(c), CellParams::Lstm(g)) => {
                p.backward(c, dh, dstate, g, dx, dprev, ws, be)
            }
            (CellParams::Gru(p), CellCache::Gru(c), CellParams::Gru(g)) => {
                p.backward(c, dh, dstate, g, dx, dprev, ws, be)
            }
            (CellParams::Vanilla(p), CellCache::Vanilla(c), CellParams::Vanilla(g)) => {
                p.backward(c, dh, dstate, g, dx, dprev, ws, be)
            }
            (CellParams::Linear(p), CellCache::Linear(c), CellParams::Linear(g)) => {
                p.backward(c, dh, dstate, g, dx, dprev, ws, be)
            }
            _ => panic!("cell kind mismatch between params, cache and grads"),
        }
    }

    /// Visits every parameter matrix alongside its gradient counterpart
    /// (used by optimizers).
    pub fn for_each_param(
        &mut self,
        grads: &CellParams<T>,
        f: &mut impl FnMut(&mut Matrix<T>, &Matrix<T>),
    ) {
        match (self, grads) {
            (CellParams::Lstm(p), CellParams::Lstm(g)) => {
                f(&mut p.w, &g.w);
                f(&mut p.b, &g.b);
            }
            (CellParams::Gru(p), CellParams::Gru(g)) => {
                f(&mut p.wzr, &g.wzr);
                f(&mut p.bzr, &g.bzr);
                f(&mut p.wh, &g.wh);
                f(&mut p.bh, &g.bh);
            }
            (CellParams::Vanilla(p), CellParams::Vanilla(g)) => {
                f(&mut p.w, &g.w);
                f(&mut p.b, &g.b);
            }
            (CellParams::Linear(p), CellParams::Linear(g)) => {
                f(&mut p.w, &g.w);
                f(&mut p.lambda, &g.lambda);
                f(&mut p.b, &g.b);
            }
            _ => panic!("cell kind mismatch in for_each_param"),
        }
    }

    /// Adds `other`'s parameters into `self` (gradient reduction across
    /// mini-batch replicas, §III-B data parallelism).
    pub fn add_assign(&mut self, other: &CellParams<T>) {
        match (self, other) {
            (CellParams::Lstm(a), CellParams::Lstm(b)) => {
                bpar_tensor::ops::axpy(T::ONE, &b.w, &mut a.w);
                bpar_tensor::ops::axpy(T::ONE, &b.b, &mut a.b);
            }
            (CellParams::Gru(a), CellParams::Gru(b)) => {
                bpar_tensor::ops::axpy(T::ONE, &b.wzr, &mut a.wzr);
                bpar_tensor::ops::axpy(T::ONE, &b.bzr, &mut a.bzr);
                bpar_tensor::ops::axpy(T::ONE, &b.wh, &mut a.wh);
                bpar_tensor::ops::axpy(T::ONE, &b.bh, &mut a.bh);
            }
            (CellParams::Vanilla(a), CellParams::Vanilla(b)) => {
                bpar_tensor::ops::axpy(T::ONE, &b.w, &mut a.w);
                bpar_tensor::ops::axpy(T::ONE, &b.b, &mut a.b);
            }
            (CellParams::Linear(a), CellParams::Linear(b)) => {
                bpar_tensor::ops::axpy(T::ONE, &b.w, &mut a.w);
                bpar_tensor::ops::axpy(T::ONE, &b.lambda, &mut a.lambda);
                bpar_tensor::ops::axpy(T::ONE, &b.b, &mut a.b);
            }
            _ => panic!("cell kind mismatch in add_assign"),
        }
    }
}

/// Gradient of the recurrent state flowing from cell t+1 back to cell t.
#[derive(Debug, Clone)]
pub struct StateGrad<T: Float> {
    /// Gradient w.r.t. `H_t` through the recurrent connection.
    pub dh: Matrix<T>,
    /// Gradient w.r.t. `C_t` (LSTM only).
    pub dc: Option<Matrix<T>>,
}

impl<T: Float> StateGrad<T> {
    /// Zero state gradient.
    pub fn zeros(kind: CellKind, batch: usize, hidden: usize) -> Self {
        Self {
            dh: Matrix::zeros(batch, hidden),
            dc: match kind {
                CellKind::Lstm => Some(Matrix::zeros(batch, hidden)),
                CellKind::Gru | CellKind::Vanilla | CellKind::Linear => None,
            },
        }
    }
}

/// The cell unit tests' shorthand for one update on fresh output buffers,
/// a fresh [`Workspace`] and the default backend, results returned by
/// value.
#[cfg(test)]
pub(crate) mod fresh {
    use super::*;
    use bpar_tensor::init;

    pub(crate) fn forward<T: Float>(
        p: &CellParams<T>,
        x: &Matrix<T>,
        prev: &CellState<T>,
    ) -> (CellState<T>, CellCache<T>) {
        let (kind, rows, hidden) = (p.kind(), x.rows(), prev.h.cols());
        let mut state = CellState::zeros(kind, rows, hidden);
        let mut cache = CellCache::zeros(kind, rows, x.cols(), hidden);
        let ws = &mut Workspace::new();
        p.forward(x, prev, &mut state, &mut cache, ws, Backend::default());
        (state, cache)
    }

    pub(crate) fn backward<T: Float>(
        p: &CellParams<T>,
        cache: &CellCache<T>,
        dh: &Matrix<T>,
        dstate: Option<&StateGrad<T>>,
        grads: &mut CellParams<T>,
    ) -> (Matrix<T>, StateGrad<T>) {
        let input = match p {
            CellParams::Lstm(p) => p.input,
            CellParams::Gru(p) => p.input,
            CellParams::Vanilla(p) => p.input,
            CellParams::Linear(p) => p.input,
        };
        let mut dx = Matrix::zeros(dh.rows(), input);
        let mut dprev = StateGrad::zeros(p.kind(), dh.rows(), dh.cols());
        let ws = &mut Workspace::new();
        let be = Backend::default();
        p.backward(cache, dh, dstate, grads, &mut dx, &mut dprev, ws, be);
        (dx, dprev)
    }

    fn assert_bits(a: &Matrix<f64>, b: &Matrix<f64>, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} drifted");
        }
    }

    /// Runs one `kind` cell's forward and backward three times into one set
    /// of persistent buffers with one reused [`Workspace`] (steady-state
    /// replay conditions) and checks every pass against [`forward`] and
    /// [`backward`] on fresh buffers, bit for bit.
    pub(crate) fn assert_reuse_matches_fresh(kind: CellKind, seed: u64) {
        let (batch, input, hidden) = (2, 3, 4);
        let p = CellParams::<f64>::init(kind, input, hidden, seed);
        let x = init::uniform(batch, input, -1.0, 1.0, seed + 1);
        let mut prev = CellState::zeros(kind, batch, hidden);
        prev.h = init::uniform(batch, hidden, -0.5, 0.5, seed + 2);
        if let Some(c) = &mut prev.c {
            *c = init::uniform(batch, hidden, -0.5, 0.5, seed + 3);
        }
        let dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 4);

        let (st_ref, cache_ref) = forward(&p, &x, &prev);
        let mut grads_ref = p.zeros_like();
        let (dx_ref, dprev_ref) = backward(&p, &cache_ref, &dh, None, &mut grads_ref);

        let mut ws = Workspace::new();
        let be = Backend::default();
        let mut st = CellState::zeros(kind, batch, hidden);
        let mut cache = CellCache::zeros(kind, batch, input, hidden);
        let mut dx = Matrix::zeros(batch, input);
        let mut dprev = StateGrad::zeros(kind, batch, hidden);
        for _ in 0..3 {
            p.forward(&x, &prev, &mut st, &mut cache, &mut ws, be);
            assert_bits(&st.h, &st_ref.h, "H_t");
            if let (Some(c), Some(c_ref)) = (&st.c, &st_ref.c) {
                assert_bits(c, c_ref, "C_t");
            }
            let mut grads = p.zeros_like();
            p.backward(
                &cache, &dh, None, &mut grads, &mut dx, &mut dprev, &mut ws, be,
            );
            assert_bits(&dx, &dx_ref, "dX");
            assert_bits(&dprev.dh, &dprev_ref.dh, "dH_prev");
            if let (Some(dc), Some(dc_ref)) = (&dprev.dc, &dprev_ref.dc) {
                assert_bits(dc, dc_ref, "dC_prev");
            }
            grads.for_each_param(&grads_ref, &mut |a, b| assert_bits(a, b, "dW"));
        }
        // Steady state: the pool serves every scratch shape without a
        // single cold allocation after the first iteration.
        assert!(ws.stats().reuses > 0, "scratch pool was never reused");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts() {
        assert_eq!(CellKind::Lstm.gates(), 4);
        assert_eq!(CellKind::Gru.gates(), 3);
    }

    #[test]
    fn param_formula_matches_paper_configs() {
        // 6-layer BLSTM, input 256, hidden 256, sum merge → 6.3M params
        // (Table III row "256/256/*").
        let lstm = CellKind::Lstm;
        let layer0 = 2 * lstm.params(256, 256);
        let layer_n = 2 * lstm.params(256, 256);
        let total = layer0 + 5 * layer_n;
        assert!((6_200_000..6_400_000).contains(&total), "got {total}");

        // input 64, hidden 1024 → 92.8M (Table III).
        let total = 2 * lstm.params(64, 1024) + 5 * 2 * lstm.params(1024, 1024);
        assert!((92_000_000..93_500_000).contains(&total), "got {total}");

        // BGRU 256/256 → 4.7M (Table IV).
        let gru = CellKind::Gru;
        let total = 6 * 2 * gru.params(256, 256);
        assert!((4_600_000..4_800_000).contains(&total), "got {total}");
    }

    #[test]
    fn working_set_matches_granularity_experiment() {
        // Paper §IV-B: B=128, I=64, H=512 LSTM task working set ≈ 4.71 MB.
        // Our accounting also includes the transient gate buffer, so the
        // estimate lands slightly above the paper's 4.71 MB (which is
        // dominated by the 4.5 MB fused weight matrix).
        let ws = CellKind::Lstm.forward_working_set(128, 64, 512, 4);
        let mb = ws as f64 / (1024.0 * 1024.0);
        assert!((4.0..7.0).contains(&mb), "got {mb} MB");
        let weights_only = ((64 + 512) * 4 * 512 + 4 * 512) * 4;
        assert!(weights_only as f64 / (1024.0 * 1024.0) > 4.4);
    }

    #[test]
    fn flops_scale_with_batch() {
        let f1 = CellKind::Lstm.forward_flops(1, 64, 128);
        let f2 = CellKind::Lstm.forward_flops(2, 64, 128);
        assert_eq!(f2, 2 * f1);
        assert_eq!(
            CellKind::Gru.backward_flops(4, 8, 16),
            2 * CellKind::Gru.forward_flops(4, 8, 16)
        );
    }

    #[test]
    fn zero_state_shapes() {
        let s: CellState<f32> = CellState::zeros(CellKind::Lstm, 3, 5);
        assert_eq!(s.h.shape(), (3, 5));
        assert_eq!(s.c.as_ref().unwrap().shape(), (3, 5));
        let s: CellState<f32> = CellState::zeros(CellKind::Gru, 3, 5);
        assert!(s.c.is_none());
    }

    #[test]
    fn params_roundtrip_through_enum() {
        let p: CellParams<f64> = CellParams::init(CellKind::Gru, 4, 6, 1);
        assert_eq!(p.kind(), CellKind::Gru);
        assert_eq!(p.param_count(), CellKind::Gru.params(4, 6));
        let z = p.zeros_like();
        assert_eq!(z.param_count(), p.param_count());
    }
}
