//! One narrow recurrent cell step, run as one pass per row.
//!
//! When every gate product of an LSTM, GRU or vanilla cell takes the
//! narrow route ([`crate::gemm::narrow`]: LSTM `h ≤ 3`, GRU `h ≤ 7`,
//! vanilla `h ≤ 15`, with `input + h ≤ KC`), a step is mostly fixed cost:
//! a kernel call per gate product, each with its own shape checks,
//! dispatch and activation pass, for a few dozen multiply-adds. A
//! [`Step`] hands the whole step to one call instead. Forward, each row
//! assembles `[X_t, H_{t-1}]`, runs its gate chains with the bias and the
//! non-linearities in registers, and writes the state and the cache BPTT
//! reads. Backward, each row computes its gate gradients and its input
//! gradients (`dG·Wᵀ`); the weight and bias gradients then run over all
//! rows.
//!
//! The kernels are [`crate::reference`]'s loops. [`crate::Backend::step`]
//! runs them as written under `scalar`, and inlined into the `avx2` tier's
//! wrapper under `simd` (on any x86-64 host with AVX2+FMA, AVX-512F hosts
//! included: it measured faster there). Per element they perform the
//! operations of the composed route ([`crate::Backend::affine`], the
//! cells' element-wise passes, [`crate::Backend::affine_grad`]) in the
//! same order, so a step gives the same bits either way:
//!
//! * gate products: FMA chains from zero, `p` ascending, then
//!   `0 + acc + b`, then the activation per element;
//! * weight gradients: per element the TN chain over the rows from zero,
//!   flushed into `dW` once per `KC` rows (once, for every batch a cell
//!   sees);
//! * bias gradients: column sums from zero, rows ascending, then one add;
//! * input gradients: per element the NT chain from zero, added to a zero.
//!
//! Nothing here allocates: the row values live in arrays of `2·NR` lanes,
//! and a backward step's gate gradients go into the caller's `scratch`.

#[cfg(target_arch = "x86_64")]
use crate::backend::simd::x86;
use crate::matrix::Matrix;
use crate::reference;
use crate::scalar::Float;

/// One narrow cell step: the operands of a forward or a BPTT step of an
/// LSTM, GRU or vanilla cell whose gate products all take the narrow route.
#[derive(Debug)]
pub enum Step<'a, T: Float> {
    /// Eqs. (1)–(6) forward.
    LstmForward(LstmForward<'a, T>),
    /// Eqs. (1)–(6) backward.
    LstmBackward(LstmBackward<'a, T>),
    /// Eqs. (7)–(10) forward.
    GruForward(GruForward<'a, T>),
    /// Eqs. (7)–(10) backward.
    GruBackward(GruBackward<'a, T>),
    /// `H_t = tanh(W [X_t, H_{t-1}] + B)` forward.
    VanillaForward(VanillaForward<'a, T>),
    /// `H_t = tanh(W [X_t, H_{t-1}] + B)` backward.
    VanillaBackward(VanillaBackward<'a, T>),
}

/// A narrow LSTM step forward. Shapes as in `bpar-core`'s `LstmParams`
/// and `LstmCache`; every `&mut` matrix is fully overwritten.
#[derive(Debug)]
pub struct LstmForward<'a, T: Float> {
    /// `X_t`, `rows × input`.
    pub x: &'a Matrix<T>,
    /// `H_{t-1}`, `rows × h`.
    pub h_prev: &'a Matrix<T>,
    /// `C_{t-1}`, `rows × h`.
    pub c_prev: &'a Matrix<T>,
    /// Fused gate kernel `(input + h) × 4h`, blocks `[i, f, g, o]`.
    pub w: &'a Matrix<T>,
    /// Fused gate bias, `1 × 4h`.
    pub b: &'a Matrix<T>,
    /// Cache: `[X_t, H_{t-1}]`.
    pub z: &'a mut Matrix<T>,
    /// Cache: the gate activations.
    pub gates: &'a mut Matrix<T>,
    /// Cache: `tanh(C_t)`.
    pub tanh_c: &'a mut Matrix<T>,
    /// Cache: a copy of `C_{t-1}`.
    pub c_prev_copy: &'a mut Matrix<T>,
    /// `H_t`.
    pub h: &'a mut Matrix<T>,
    /// `C_t`.
    pub c: &'a mut Matrix<T>,
}

/// A narrow LSTM step backward: reads the forward's cache, accumulates
/// into `dw`/`db`, overwrites `dx`, `dh_prev` and `dc_prev`.
#[derive(Debug)]
pub struct LstmBackward<'a, T: Float> {
    /// Cache: `[X_t, H_{t-1}]`.
    pub z: &'a Matrix<T>,
    /// Cache: the gate activations.
    pub gates: &'a Matrix<T>,
    /// Cache: `tanh(C_t)`.
    pub tanh_c: &'a Matrix<T>,
    /// Cache: `C_{t-1}`.
    pub c_prev: &'a Matrix<T>,
    /// Fused gate kernel.
    pub w: &'a Matrix<T>,
    /// Upstream `dH_t`, `rows × h`.
    pub dh: &'a Matrix<T>,
    /// Recurrent `(dH, dC)` from the step after this one, if any.
    pub rec: Option<(&'a Matrix<T>, &'a Matrix<T>)>,
    /// Kernel gradient accumulator.
    pub dw: &'a mut Matrix<T>,
    /// Bias gradient accumulator.
    pub db: &'a mut Matrix<T>,
    /// `dX_t`.
    pub dx: &'a mut Matrix<T>,
    /// `dH_{t-1}`.
    pub dh_prev: &'a mut Matrix<T>,
    /// `dC_{t-1}`.
    pub dc_prev: &'a mut Matrix<T>,
    /// At least `rows × 4h` elements for the gate gradients.
    pub scratch: &'a mut [T],
}

/// A narrow GRU step forward. Shapes as in `bpar-core`'s `GruParams` and
/// `GruCache`; every `&mut` matrix is fully overwritten.
#[derive(Debug)]
pub struct GruForward<'a, T: Float> {
    /// `X_t`, `rows × input`.
    pub x: &'a Matrix<T>,
    /// `H_{t-1}`, `rows × h`.
    pub h_prev: &'a Matrix<T>,
    /// Fused z/r kernel `(input + h) × 2h`.
    pub wzr: &'a Matrix<T>,
    /// Fused z/r bias, `1 × 2h`.
    pub bzr: &'a Matrix<T>,
    /// Candidate kernel `(input + h) × h`.
    pub wh: &'a Matrix<T>,
    /// Candidate bias, `1 × h`.
    pub bh: &'a Matrix<T>,
    /// Cache: `[X_t, H_{t-1}]`.
    pub zr_in: &'a mut Matrix<T>,
    /// Cache: `[X_t, R_t ⊙ H_{t-1}]`.
    pub h_in: &'a mut Matrix<T>,
    /// Cache: `[Z_t, R_t]`.
    pub zr: &'a mut Matrix<T>,
    /// Cache: `H̄_t`.
    pub hbar: &'a mut Matrix<T>,
    /// Cache: a copy of `H_{t-1}`.
    pub h_prev_copy: &'a mut Matrix<T>,
    /// `H_t`.
    pub h: &'a mut Matrix<T>,
}

/// A narrow GRU step backward: reads the forward's cache, accumulates into
/// the four gradient matrices, overwrites `dx` and `dh_prev`.
#[derive(Debug)]
pub struct GruBackward<'a, T: Float> {
    /// Cache: `[X_t, H_{t-1}]`.
    pub zr_in: &'a Matrix<T>,
    /// Cache: `[X_t, R_t ⊙ H_{t-1}]`.
    pub h_in: &'a Matrix<T>,
    /// Cache: `[Z_t, R_t]`.
    pub zr: &'a Matrix<T>,
    /// Cache: `H̄_t`.
    pub hbar: &'a Matrix<T>,
    /// Cache: `H_{t-1}`.
    pub h_prev: &'a Matrix<T>,
    /// Fused z/r kernel.
    pub wzr: &'a Matrix<T>,
    /// Candidate kernel.
    pub wh: &'a Matrix<T>,
    /// Upstream `dH_t`, `rows × h`.
    pub dh: &'a Matrix<T>,
    /// Recurrent `dH` from the step after this one, if any.
    pub rec: Option<&'a Matrix<T>>,
    /// z/r kernel gradient accumulator.
    pub dwzr: &'a mut Matrix<T>,
    /// z/r bias gradient accumulator.
    pub dbzr: &'a mut Matrix<T>,
    /// Candidate kernel gradient accumulator.
    pub dwh: &'a mut Matrix<T>,
    /// Candidate bias gradient accumulator.
    pub dbh: &'a mut Matrix<T>,
    /// `dX_t`.
    pub dx: &'a mut Matrix<T>,
    /// `dH_{t-1}`.
    pub dh_prev: &'a mut Matrix<T>,
    /// At least `rows × 3h` elements: the `[dZ, dR]` rows, then the `dH̄`
    /// rows.
    pub scratch: &'a mut [T],
}

/// A narrow vanilla step forward; every `&mut` matrix is fully
/// overwritten.
#[derive(Debug)]
pub struct VanillaForward<'a, T: Float> {
    /// `X_t`, `rows × input`.
    pub x: &'a Matrix<T>,
    /// `H_{t-1}`, `rows × h`.
    pub h_prev: &'a Matrix<T>,
    /// Kernel `(input + h) × h`.
    pub w: &'a Matrix<T>,
    /// Bias, `1 × h`.
    pub b: &'a Matrix<T>,
    /// Cache: `[X_t, H_{t-1}]`.
    pub z: &'a mut Matrix<T>,
    /// Cache: `H_t`.
    pub h_copy: &'a mut Matrix<T>,
    /// `H_t`.
    pub h: &'a mut Matrix<T>,
}

/// A narrow vanilla step backward: reads the forward's cache, accumulates
/// into `dw`/`db`, overwrites `dx` and `dh_prev`.
#[derive(Debug)]
pub struct VanillaBackward<'a, T: Float> {
    /// Cache: `[X_t, H_{t-1}]`.
    pub z: &'a Matrix<T>,
    /// Cache: `H_t`.
    pub h: &'a Matrix<T>,
    /// Kernel.
    pub w: &'a Matrix<T>,
    /// Upstream `dH_t`, `rows × h`.
    pub dh: &'a Matrix<T>,
    /// Recurrent `dH` from the step after this one, if any.
    pub rec: Option<&'a Matrix<T>>,
    /// Kernel gradient accumulator.
    pub dw: &'a mut Matrix<T>,
    /// Bias gradient accumulator.
    pub db: &'a mut Matrix<T>,
    /// `dX_t`.
    pub dx: &'a mut Matrix<T>,
    /// `dH_{t-1}`.
    pub dh_prev: &'a mut Matrix<T>,
    /// At least `rows × h` elements for the pre-tanh gradients.
    pub scratch: &'a mut [T],
}

/// [`reference::step`] inlined into the `avx2` tier's wrapper on every
/// x86-64 host with AVX2+FMA, as written elsewhere. A step's rows fit in
/// `2·NR` lanes, two `ymm` registers, and on an AVX-512F host the `avx512`
/// wrapper ran `fine_grain`'s forward steps up to 9 % slower than this one
/// (EXPERIMENTS.md, "The narrow cell step"), so the shape picks the `ymm`
/// tier.
pub(crate) fn run<T: Float>(step: Step<'_, T>) {
    #[cfg(target_arch = "x86_64")]
    if x86::tier().is_some() {
        // SAFETY: tier() reports a tier only where AVX2+FMA were
        // detected; the body is safe code.
        return unsafe { x86::avx2::step(step) };
    }
    reference::step(step);
}
