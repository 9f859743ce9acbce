//! Pluggable kernel backends.
//!
//! There is one f32/f64 arithmetic in this crate — the loops of
//! [`crate::reference`] — and one place where it meets the hardware: the
//! slice-level entry points in [`crate::gemm`], [`crate::ops`] and
//! [`crate::activation`], which run it on the host's widest vector unit
//! when there is one (AVX-512F, else AVX2+FMA, picked at run time; NEON on
//! aarch64) and as portable loops otherwise. A [`KernelBackend`]'s methods default to those
//! entry points, so the two selectable kinds differ only where one
//! overrides a method:
//!
//! * [`SimdBackend`] (the default) overrides nothing: it is the kernels the
//!   free functions run ([`Backend::simd_active`] reports whether a vector
//!   unit was found);
//! * [`ScalarBackend`] overrides the fused multiply-add kernels with the
//!   portable loops themselves — same bits, no vector unit, the oracle.
//!
//! NN and TN products narrower than one register tile (`n < 2·NR`, `k ≤ KC`) take
//! the narrow route under every kind — one pass per row of `C` instead of
//! the blocked nest ([`crate::gemm`] says why the bits cannot change).
//! [`Backend::affine`] is a gate product on that route and
//! [`Backend::affine_grad`] its backward (`gemm_tn`, the bias-gradient
//! column sums and `gemm_nt`). When all of a cell's gate products are
//! narrow, [`Backend::step`] runs the whole step in one call instead
//! ([`crate::step`]).
//!
//! Numerical contract (tested in `src/reference.rs`, `tests/proptests.rs`
//! and `bpar-core`'s `tests/backend_parity.rs`):
//!
//! * every GEMM variant and every element-wise op is **bit-identical** to
//!   the portable loops, in `f32` and `f64`, on every host, so `scalar` and
//!   `simd` differ in speed only;
//! * the `f32` sigmoid and tanh are one branch-free polynomial each
//!   ([`crate::reference::sigmoid_f32`], [`crate::reference::tanh_f32`]:
//!   ≤ 3 and ≤ 2 ULP from exact, no libm call) with the same bits as a
//!   scalar call, in the vectorised slice loops
//!   ([`crate::activation::sigmoid_slice`]) and under every backend — the
//!   trait's one method that takes an activation, `affine_f32`, applies
//!   the same per-element functions, so nothing can diverge.
//!
//! Backends only ever see `f32` slices; `f64` matrices go straight to the
//! dispatching entry points ([`crate::Float::as_f32_slice`] declines the
//! downcast), which keeps `f64` gradient-check tests exact.

mod scalar;
pub(crate) mod simd;
#[cfg(test)]
mod tier_tests;

pub use scalar::ScalarBackend;
pub use simd::SimdBackend;

use crate::activation::{self, Activation};
use crate::gemm::{self as gemm_mod, Op};
use crate::matrix::Matrix;
use crate::ops;
use crate::scalar::Float;
use crate::step::Step;
use crate::workspace::Workspace;

/// Which kernel backend a component should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The portable loops of [`crate::reference`], run as written.
    Scalar,
    /// The dispatched f32 kernels (vector unit when detected), bit-identical
    /// to [`BackendKind::Scalar`].
    #[default]
    Simd,
}

impl BackendKind {
    /// Parses a CLI spelling (`scalar|simd`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// All selectable kinds, in CLI order.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Scalar, BackendKind::Simd]
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Object-safe kernel surface of a backend, over raw `f32` slices.
///
/// Every method defaults to the dispatched kernel the free functions run;
/// a backend overrides only what it computes differently.
///
/// All GEMM entry points are **accumulate-only** (`C += alpha * op(A) *
/// op(B)`): shape checks, beta scaling and degenerate-shape early returns
/// are handled uniformly by [`Backend`] before dispatch, so every
/// implementation sees the same preconditions (`m, n, k > 0`,
/// `alpha != 0`, consistent slice lengths).
pub trait KernelBackend: Sync + std::fmt::Debug {
    /// Which selectable kind this backend implements.
    fn kind(&self) -> BackendKind;

    /// True when vector instructions are actually in use (false means
    /// detection found no vector unit and the portable loops run).
    fn simd_active(&self) -> bool {
        SimdBackend::detected()
    }

    /// `C += alpha * A * B` (`A: m×k`, `B: k×n`, `C: m×n`, row-major).
    #[allow(clippy::too_many_arguments)]
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
        gemm_mod::gemm_accum(alpha, a, b, c, m, k, n);
    }

    /// `C += alpha * A * Bᵀ` (`A: m×k`, `B: n×k`, `C: m×n`).
    #[allow(clippy::too_many_arguments)]
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
        gemm_mod::gemm_nt_accum(alpha, a, b, c, m, k, n);
    }

    /// `C += alpha * Aᵀ * B` (`A: k×m`, `B: k×n`, `C: m×n`).
    #[allow(clippy::too_many_arguments)]
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
        gemm_mod::gemm_tn_accum(alpha, a, b, c, m, k, n);
    }

    /// `C = act(A · W + b)` (`A: m×k`, `W: k×n`, `b: 1×n`) for a narrow
    /// product ([`Backend::affine`] picks the route): one fused pass per
    /// row.
    #[allow(clippy::too_many_arguments)]
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
        gemm_mod::affine_narrow(act, a, w, b, c, m, k, n);
    }

    /// `y += alpha * x`.
    fn axpy_f32(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        ops::axpy_slice(alpha, x, y);
    }

    /// `out = a ⊙ b`.
    fn hadamard_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::hadamard_slice(a, b, out);
    }

    /// `out += a ⊙ b`.
    fn hadamard_add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::hadamard_add_slice(a, b, out);
    }

    /// `out = a + b`.
    fn add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::add_slice(a, b, out);
    }

    /// `out = a - b`.
    fn sub_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::sub_slice(a, b, out);
    }

    /// `m *= alpha`.
    fn scale_f32(&self, alpha: f32, m: &mut [f32]) {
        ops::scale_slice(alpha, m);
    }

    /// Adds a `cols`-wide bias row to each of the `rows` rows of `m`.
    fn add_bias_f32(&self, m: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
        ops::add_bias_slice(m, rows, cols, bias);
    }

    /// `out[r] = a ⊙ x[r] + y[r]` with `a` a `cols`-wide decay row
    /// broadcast over `rows` rows — the diagonal linear-recurrence update
    /// and the `B` half of the scan transfer composition.
    #[allow(clippy::too_many_arguments)]
    fn row_mul_add_f32(
        &self,
        a: &[f32],
        x: &[f32],
        y: &[f32],
        out: &mut [f32],
        rows: usize,
        cols: usize,
    ) {
        ops::row_mul_add_slice(a, x, y, out, rows, cols);
    }

    /// `m[r] = a ⊙ m[r]` in place (row-broadcast carry update `p ← λ ⊙ p`).
    fn row_scale_f32(&self, a: &[f32], m: &mut [f32], rows: usize, cols: usize) {
        ops::row_scale_slice(a, m, rows, cols);
    }

    /// Row-wise stable softmax (the same code in every backend).
    fn softmax_rows_f32(&self, m: &mut [f32], rows: usize, cols: usize) {
        activation::softmax_rows_slice(m, rows, cols);
    }
}

/// `(a, b, c)` as `f32` slices when `T` is `f32`: the one downcast through
/// which generic code reaches the `f32`-only kernels.
#[inline(always)]
pub(crate) fn f32_views<'a, T: Float>(
    a: &'a [T],
    b: &'a [T],
    c: &'a mut [T],
) -> Option<(&'a [f32], &'a [f32], &'a mut [f32])> {
    Some((
        T::as_f32_slice(a)?,
        T::as_f32_slice(b)?,
        T::as_f32_slice_mut(c)?,
    ))
}

static SCALAR_BACKEND: ScalarBackend = ScalarBackend;
static SIMD_BACKEND: SimdBackend = SimdBackend;

/// A cheap, copyable handle to a [`KernelBackend`].
///
/// Task bodies capture this by value in their closures (it is one pointer),
/// and generic code calls the typed methods below, which downcast `f32`
/// data to the raw-slice trait surface and hand everything else to the
/// dispatching entry points directly.
#[derive(Clone, Copy, Debug)]
pub struct Backend(&'static dyn KernelBackend);

impl Default for Backend {
    fn default() -> Self {
        Backend::simd()
    }
}

impl PartialEq for Backend {
    fn eq(&self, other: &Self) -> bool {
        self.kind() == other.kind()
    }
}
impl Eq for Backend {}

impl Backend {
    /// The portable loops: the oracle [`Backend::simd`] must match bit for
    /// bit.
    pub fn scalar() -> Backend {
        Backend(&SCALAR_BACKEND)
    }

    /// The default backend: the dispatched kernels, nothing overridden.
    pub fn simd() -> Backend {
        Backend(&SIMD_BACKEND)
    }

    /// Handle for a [`BackendKind`].
    pub fn of(kind: BackendKind) -> Backend {
        match kind {
            BackendKind::Scalar => Backend::scalar(),
            BackendKind::Simd => Backend::simd(),
        }
    }

    /// The kind this handle dispatches to.
    pub fn kind(self) -> BackendKind {
        self.0.kind()
    }

    /// True when vector instructions are actually in use.
    pub fn simd_active(self) -> bool {
        self.0.simd_active()
    }

    /// `C = alpha * A * B + beta * C` through the backend.
    ///
    /// Same shape contract as [`crate::gemm`]. `ws` is unused: it stays
    /// only because the benchmark ledger, whose files change only with
    /// the benchmark, passes one.
    pub fn gemm<T: Float>(
        self,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
        _ws: &mut Workspace<T>,
    ) {
        self.gemm_nn(alpha, a, b, beta, c);
    }

    /// [`Backend::gemm`] without the unused workspace.
    fn gemm_nn<T: Float>(self, alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
        gemm_mod::checked(
            Op::NN,
            alpha,
            a,
            b,
            beta,
            c,
            |alpha, a, b, c, m, k, n| match f32_views(a, b, c) {
                Some((a, b, c)) => self.0.gemm_f32(alpha.to_f32(), a, b, c, m, k, n),
                None => gemm_mod::gemm_accum(alpha, a, b, c, m, k, n),
            },
        );
    }

    /// `C = alpha * A * Bᵀ + beta * C` through the backend.
    pub fn gemm_nt<T: Float>(
        self,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
    ) {
        gemm_mod::checked(
            Op::NT,
            alpha,
            a,
            b,
            beta,
            c,
            |alpha, a, b, c, m, k, n| match f32_views(a, b, c) {
                Some((a, b, c)) => self.0.gemm_nt_f32(alpha.to_f32(), a, b, c, m, k, n),
                None => gemm_mod::gemm_nt_accum(alpha, a, b, c, m, k, n),
            },
        );
    }

    /// `C = alpha * Aᵀ * B + beta * C` through the backend.
    pub fn gemm_tn<T: Float>(
        self,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
    ) {
        gemm_mod::checked(
            Op::TN,
            alpha,
            a,
            b,
            beta,
            c,
            |alpha, a, b, c, m, k, n| match f32_views(a, b, c) {
                Some((a, b, c)) => self.0.gemm_tn_f32(alpha.to_f32(), a, b, c, m, k, n),
                None => gemm_mod::gemm_tn_accum(alpha, a, b, c, m, k, n),
            },
        );
    }

    /// `out = act(z · W + b)` through the backend: a cell's gate product,
    /// bias and non-linearity in one call (`z: m×k`, `W: k×n`, `b: 1×n`,
    /// `out: m×n`, fully overwritten).
    ///
    /// The route follows the shape. A narrow product (`W` under `2·NR = 16`
    /// columns, `k ≤ KC`) runs one fused pass per row of `z`: the row's
    /// FMA chains, `0 + acc + b[j]`, the activation per element. Anything
    /// wider runs `gemm` into a zeroed `out`, `add_bias` and the activation
    /// slices. Both perform the same operations per element in the same
    /// order, so the route never changes a bit.
    ///
    /// # Panics
    /// Panics if the shapes are inconsistent, or if `act` is
    /// [`Activation::LstmGates`] and `n` is not a multiple of four.
    pub fn affine<T: Float>(
        self,
        act: Activation,
        z: &Matrix<T>,
        w: &Matrix<T>,
        b: &Matrix<T>,
        out: &mut Matrix<T>,
    ) {
        let ((m, k), n) = (z.shape(), w.cols());
        assert_eq!(w.rows(), k, "affine: inner dimensions differ");
        assert_eq!(b.shape(), (1, n), "affine: bias shape");
        assert_eq!(out.shape(), (m, n), "affine: out shape");
        assert!(
            act != Activation::LstmGates || n % 4 == 0,
            "affine: LSTM gate rows have four blocks"
        );
        if !gemm_mod::narrow(k, n) {
            self.gemm_nn(T::ONE, z, w, T::ZERO, out);
            self.add_bias(out, b);
            return act.apply(out);
        }
        let (zs, wts, bs) = (z.as_slice(), w.as_slice(), b.as_slice());
        match (f32_views(zs, wts, out.as_mut_slice()), T::as_f32_slice(bs)) {
            (Some((zf, wf, of)), Some(bf)) => self.0.affine_f32(act, zf, wf, bf, of, m, k, n),
            _ => gemm_mod::affine_narrow(act, zs, wts, bs, out.as_mut_slice(), m, k, n),
        }
    }

    /// The backward of [`Backend::affine`]'s gate product through the
    /// backend: `dW += zᵀ·dG`, `db += Σ_rows dG` and `dz = dG·Wᵀ` (`z:
    /// rows×k`, `dG: rows×n`, `W` and `dW: k×n`, `db: 1×n`, `dz: rows×k`,
    /// fully overwritten).
    ///
    /// Runs `gemm_tn(1, z, dG, 1, dW)`, the column sums of `dG` (from zero,
    /// rows ascending) added into `db` — the bits of `column_sums_into` +
    /// `axpy(1, ·, db)` — and `gemm_nt(1, dG, W, 0, dz)`. The GEMMs pick
    /// their own routes (a narrow TN product is already one pass per row of
    /// `dW`), so nothing is left to fuse.
    ///
    /// # Panics
    /// Panics if the shapes are inconsistent.
    pub fn affine_grad<T: Float>(
        self,
        z: &Matrix<T>,
        dg: &Matrix<T>,
        w: &Matrix<T>,
        dw: &mut Matrix<T>,
        db: &mut Matrix<T>,
        dz: &mut Matrix<T>,
    ) {
        let ((rows, k), n) = (z.shape(), dg.cols());
        assert_eq!(dg.rows(), rows, "affine_grad: z and dG rows differ");
        assert_eq!(w.shape(), (k, n), "affine_grad: W shape");
        assert_eq!(dw.shape(), (k, n), "affine_grad: dW shape");
        assert_eq!(db.shape(), (1, n), "affine_grad: db shape");
        assert_eq!(dz.shape(), (rows, k), "affine_grad: dz shape");
        self.gemm_tn(T::ONE, z, dg, T::ONE, dw);
        ops::column_sums_add_slice(dg.as_slice(), db.as_mut_slice(), rows, n);
        self.gemm_nt(T::ONE, dg, w, T::ZERO, dz);
    }

    /// One narrow cell step ([`crate::step`]): a whole LSTM, GRU or vanilla
    /// step, forward or backward, in one call, one pass per row. Under
    /// `scalar` the portable loops run as written; under `simd` they run
    /// inlined into the widest x86-64 tier's wrapper. Either way each
    /// element gets the operations of [`Backend::affine`], the cells'
    /// element-wise passes and [`Backend::affine_grad`], in their order.
    ///
    /// # Panics
    /// Panics if a gate product of the step is not narrow
    /// ([`crate::gemm::narrow`]) or a buffer is too small.
    pub fn step<T: Float>(self, step: Step<'_, T>) {
        match self.kind() {
            BackendKind::Scalar => crate::reference::step(step),
            BackendKind::Simd => crate::step::run(step),
        }
    }

    /// `y += alpha * x` through the backend.
    pub fn axpy<T: Float>(self, alpha: T, x: &Matrix<T>, y: &mut Matrix<T>) {
        assert_eq!(x.shape(), y.shape(), "axpy shape mismatch");
        if let Some(xf) = T::as_f32_slice(x.as_slice()) {
            let yf = T::as_f32_slice_mut(y.as_mut_slice()).expect("same scalar type");
            self.0.axpy_f32(alpha.to_f32(), xf, yf);
        } else {
            ops::axpy_slice(alpha, x.as_slice(), y.as_mut_slice());
        }
    }

    /// `out = a ⊙ b` through the backend.
    pub fn hadamard<T: Float>(self, a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
        assert_eq!(a.shape(), out.shape(), "hadamard out shape mismatch");
        if let (Some(af), Some(bf)) = (T::as_f32_slice(a.as_slice()), T::as_f32_slice(b.as_slice()))
        {
            let of = T::as_f32_slice_mut(out.as_mut_slice()).expect("same scalar type");
            self.0.hadamard_f32(af, bf, of);
        } else {
            ops::hadamard_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
        }
    }

    /// `out += a ⊙ b` through the backend.
    pub fn hadamard_add<T: Float>(self, a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(a.shape(), b.shape(), "hadamard_add shape mismatch");
        assert_eq!(a.shape(), out.shape(), "hadamard_add out shape mismatch");
        if let (Some(af), Some(bf)) = (T::as_f32_slice(a.as_slice()), T::as_f32_slice(b.as_slice()))
        {
            let of = T::as_f32_slice_mut(out.as_mut_slice()).expect("same scalar type");
            self.0.hadamard_add_f32(af, bf, of);
        } else {
            ops::hadamard_add_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
        }
    }

    /// `out = a + b` through the backend.
    pub fn add<T: Float>(self, a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(a.shape(), b.shape(), "add shape mismatch");
        assert_eq!(a.shape(), out.shape(), "add out shape mismatch");
        if let (Some(af), Some(bf)) = (T::as_f32_slice(a.as_slice()), T::as_f32_slice(b.as_slice()))
        {
            let of = T::as_f32_slice_mut(out.as_mut_slice()).expect("same scalar type");
            self.0.add_f32(af, bf, of);
        } else {
            ops::add_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
        }
    }

    /// `out = a - b` through the backend.
    pub fn sub<T: Float>(self, a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
        assert_eq!(a.shape(), out.shape(), "sub out shape mismatch");
        if let (Some(af), Some(bf)) = (T::as_f32_slice(a.as_slice()), T::as_f32_slice(b.as_slice()))
        {
            let of = T::as_f32_slice_mut(out.as_mut_slice()).expect("same scalar type");
            self.0.sub_f32(af, bf, of);
        } else {
            ops::sub_slice(a.as_slice(), b.as_slice(), out.as_mut_slice());
        }
    }

    /// `m *= alpha` through the backend.
    pub fn scale<T: Float>(self, alpha: T, m: &mut Matrix<T>) {
        if let Some(mf) = T::as_f32_slice_mut(m.as_mut_slice()) {
            self.0.scale_f32(alpha.to_f32(), mf);
        } else {
            ops::scale_slice(alpha, m.as_mut_slice());
        }
    }

    /// Bias-row broadcast through the backend.
    pub fn add_bias<T: Float>(self, m: &mut Matrix<T>, bias: &Matrix<T>) {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), m.cols(), "bias width mismatch");
        let (rows, cols) = m.shape();
        if let Some(bf) = T::as_f32_slice(bias.as_slice()) {
            let mf = T::as_f32_slice_mut(m.as_mut_slice()).expect("same scalar type");
            self.0.add_bias_f32(mf, rows, cols, bf);
        } else {
            ops::add_bias_slice(m.as_mut_slice(), rows, cols, bias.row(0));
        }
    }

    /// `out = a ⊙ x + y` with `a` a `1 × cols` row broadcast over the
    /// rows of `x`, through the backend.
    pub fn row_mul_add<T: Float>(
        self,
        a: &Matrix<T>,
        x: &Matrix<T>,
        y: &Matrix<T>,
        out: &mut Matrix<T>,
    ) {
        assert_eq!(a.rows(), 1, "row_mul_add: a must be a row vector");
        assert_eq!(a.cols(), x.cols(), "row_mul_add: a width mismatch");
        assert_eq!(x.shape(), y.shape(), "row_mul_add shape mismatch");
        assert_eq!(x.shape(), out.shape(), "row_mul_add out shape mismatch");
        let (rows, cols) = x.shape();
        if let (Some(af), Some(xf), Some(yf)) = (
            T::as_f32_slice(a.as_slice()),
            T::as_f32_slice(x.as_slice()),
            T::as_f32_slice(y.as_slice()),
        ) {
            let of = T::as_f32_slice_mut(out.as_mut_slice()).expect("same scalar type");
            self.0.row_mul_add_f32(af, xf, yf, of, rows, cols);
        } else {
            ops::row_mul_add_slice(
                a.row(0),
                x.as_slice(),
                y.as_slice(),
                out.as_mut_slice(),
                rows,
                cols,
            );
        }
    }

    /// `m[r] = a ⊙ m[r]` in place through the backend.
    pub fn row_scale<T: Float>(self, a: &Matrix<T>, m: &mut Matrix<T>) {
        assert_eq!(a.rows(), 1, "row_scale: a must be a row vector");
        assert_eq!(a.cols(), m.cols(), "row_scale: a width mismatch");
        let (rows, cols) = m.shape();
        if let Some(af) = T::as_f32_slice(a.as_slice()) {
            let mf = T::as_f32_slice_mut(m.as_mut_slice()).expect("same scalar type");
            self.0.row_scale_f32(af, mf, rows, cols);
        } else {
            ops::row_scale_slice(a.row(0), m.as_mut_slice(), rows, cols);
        }
    }

    /// Scan transfer composition through the backend: `(a1,b1)` then
    /// `(a2,b2)` into `(out_a, out_b)` — see [`ops::scan_combine`].
    pub fn scan_combine<T: Float>(
        self,
        a1: &Matrix<T>,
        b1: &Matrix<T>,
        a2: &Matrix<T>,
        b2: &Matrix<T>,
        out_a: &mut Matrix<T>,
        out_b: &mut Matrix<T>,
    ) {
        assert_eq!(a1.shape(), a2.shape(), "scan_combine decay shape mismatch");
        assert_eq!(a1.shape(), out_a.shape(), "scan_combine out_a shape");
        self.hadamard(a1, a2, out_a);
        self.row_mul_add(a2, b1, b2, out_b);
    }

    /// Element-wise tanh: [`activation::tanh_slice`], the same dispatched
    /// loop and the same bits under every backend.
    pub fn tanh_inplace<T: Float>(self, m: &mut Matrix<T>) {
        activation::tanh_slice(m.as_mut_slice());
    }

    /// Row-wise softmax through the backend.
    pub fn softmax_rows<T: Float>(self, m: &mut Matrix<T>) {
        let (rows, cols) = m.shape();
        if cols == 0 {
            return;
        }
        if let Some(mf) = T::as_f32_slice_mut(m.as_mut_slice()) {
            self.0.softmax_rows_f32(mf, rows, cols);
        } else {
            activation::softmax_rows(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrip() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
            assert_eq!(Backend::of(kind).kind(), kind);
        }
        assert_eq!(BackendKind::parse("mkl"), None);
        assert_eq!(Backend::default().kind(), BackendKind::Simd);
        assert_eq!(BackendKind::default(), BackendKind::Simd);
        assert_eq!(format!("{}", BackendKind::Scalar), "scalar");
    }

    #[test]
    fn handles_are_copy_and_comparable() {
        let a = Backend::simd();
        let b = a; // Copy
        assert_eq!(a, b);
        assert_ne!(Backend::scalar(), Backend::simd());
    }

    #[test]
    fn f64_always_takes_the_scalar_path() {
        // Whatever the backend, f64 takes the dispatching entry points (the
        // downcast declines) and must reproduce the
        // portable loops bit-for-bit.
        let a = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 * 0.25 - 3.0);
        let b = Matrix::from_fn(7, 4, |r, c| (r * 4 + c) as f64 * 0.125 - 1.0);
        let mut want = Matrix::zeros(5, 4);
        crate::reference::gemm(1.0, &a, &b, 0.0, &mut want);
        for be in [Backend::scalar(), Backend::simd()] {
            let mut got = Matrix::zeros(5, 4);
            be.gemm(1.0, &a, &b, 0.0, &mut got, &mut Workspace::new());
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{:?} diverged on f64", be.kind());
            }
        }
    }

    #[test]
    fn scalar_backend_matches_free_functions_bitwise_f32() {
        let a = Matrix::from_fn(9, 11, |r, c| ((r * 11 + c) as f32).sin());
        let b = Matrix::from_fn(11, 6, |r, c| ((r * 6 + c) as f32).cos());
        let mut want = Matrix::from_fn(9, 6, |r, c| (r + c) as f32 * 0.5);
        let start = want.clone();
        crate::gemm(1.25f32, &a, &b, 0.75, &mut want);
        for be in [Backend::scalar(), Backend::simd()] {
            let mut got = start.clone();
            be.gemm(1.25f32, &a, &b, 0.75, &mut got, &mut Workspace::new());
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{:?}", be.kind());
            }
        }
    }
}
