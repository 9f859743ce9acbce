//! One recurrent cell step in one call: a row-blocked register tile.
//!
//! When each gate product of an LSTM, GRU or vanilla cell fits one strip
//! of `4·NR = 32` lanes and one `KC` block ([`fits`]: LSTM `h ≤ 8`, GRU
//! `h ≤ 16`, vanilla `h ≤ 32`, with `input + h ≤ 256`), a step is mostly
//! fixed cost when composed of a kernel call per gate product: shape
//! checks, dispatch, a zeroed output, bias and activation passes,
//! workspace checkouts, for a few thousand multiply-adds. A [`Step`]
//! hands the whole step to one call instead.
//!
//! * Forward: per block of up to four rows, `[X_t, H_{t-1}]`, the gate
//!   products as FMA chains of all rows at once (each row of `W` loaded
//!   once for the block), then the bias, the non-linearities and the cell
//!   update, straight into the state and the cache BPTT reads.
//! * Backward: the gate gradients per row; the input gradients `dG·Wᵀ`
//!   and the weight gradients `zᵀ·dG` over all rows, in registers for a
//!   product narrower than `2·NR` lanes and through the tier's packed NT
//!   and TN tiles for a wider one; the bias gradients as column sums.
//!
//! The kernels are [`crate::reference`]'s loops, one per kind × direction,
//! the hidden width `H` and the widest product's `N` constants of each.
//! [`crate::Backend::step`] runs them as written under `scalar`; under
//! `simd` each kernel at each width is its own function compiled for a
//! tier ([`Kernels`]), and the shape picks the tier ([`run`]). Per
//! element they perform the operations of the composed route
//! ([`crate::Backend::affine`], the cells' element-wise passes,
//! [`crate::Backend::affine_grad`]) in the same order, so a step gives the
//! same bits either way, whatever the row block or the lane count:
//!
//! * gate products: FMA chains from zero, `p` ascending, then
//!   `0 + acc + b`, then the activation per element;
//! * weight gradients: per element the TN chain over the rows from zero,
//!   flushed into `dW` once per `KC` rows (once, for every batch a cell
//!   sees);
//! * bias gradients: column sums from zero, rows ascending, then one add;
//! * input gradients: per element the NT chain from zero, added to a zero.
//!
//! Nothing here allocates: the row values live in fixed-size arrays, and
//! a backward step's gate and input gradients go into the caller's
//! `scratch`.

#[cfg(target_arch = "x86_64")]
use crate::backend::simd::x86;
use crate::gemm::{KC, NR};
use crate::matrix::Matrix;
use crate::reference;
use crate::scalar::Float;

/// One cell step: the operands of a forward or a BPTT step of an LSTM, GRU
/// or vanilla cell on the one-call route ([`fits`]).
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

/// An LSTM step forward. Shapes as in `bpar-core`'s `LstmParams`
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

/// An LSTM step backward: reads the forward's cache, accumulates
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
    /// At least `rows × (4h + input + h)` elements: the gate gradients,
    /// then the input gradients `dG · Wᵀ`.
    pub scratch: &'a mut [T],
}

/// A GRU step forward. Shapes as in `bpar-core`'s `GruParams` and
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

/// A GRU step backward: reads the forward's cache, accumulates into
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
    /// At least `rows × (3h + input + h)` elements: the `[dZ, dR]` rows,
    /// the `dH̄` rows, then one product's input gradients.
    pub scratch: &'a mut [T],
}

/// A vanilla step forward; every `&mut` matrix is fully
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

/// A vanilla step backward: reads the forward's cache, accumulates
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
    /// At least `rows × (h + input + h)` elements: the pre-tanh gradients,
    /// then the input gradients.
    pub scratch: &'a mut [T],
}

/// True when a cell whose widest gate product is `k` deep and `n` wide
/// (LSTM `n = 4h`, GRU `2h`, vanilla `h`; `k = input + h`) makes one
/// [`crate::Backend::step`] call per step: the product's row fits one
/// strip of `4·NR = 32` lanes and one `KC` block. That is LSTM `h ≤ 8`,
/// GRU `h ≤ 16` and vanilla `h ≤ 32` with `input + h ≤ 256`. A zero-width
/// cell has nothing to fuse.
pub fn fits(k: usize, n: usize) -> bool {
    0 < n && n <= 4 * NR && k <= KC
}

impl<T: Float> Step<'_, T> {
    /// The width of the step's widest gate product.
    fn lanes(&self) -> usize {
        match self {
            Step::LstmForward(s) => 4 * s.h_prev.cols(),
            Step::LstmBackward(s) => 4 * s.dh.cols(),
            Step::GruForward(s) => 2 * s.h_prev.cols(),
            Step::GruBackward(s) => 2 * s.dh.cols(),
            Step::VanillaForward(s) => s.h_prev.cols(),
            Step::VanillaBackward(s) => s.dh.cols(),
        }
    }
}

/// The six kernels of a cell step ([`crate::reference`]'s
/// `{lstm,gru,vanilla}_{forward,backward}`) compiled for one tier, `H` the
/// hidden width and `N` the widest gate product's, and the NT product a
/// backward step hands its input gradients to. Each kernel at each width
/// is its own function, so none grows into one huge body.
///
/// # Safety
/// Every method needs the implementor's units. `nt` and `tn` also need
/// slices of at least `m×k` (`k×m` for `tn`'s `A`), `n×k` (`k×n` for
/// `tn`'s `B`) and `m×n` elements: the tiers' products read them through
/// raw pointers.
pub(crate) trait Kernels: Sized {
    unsafe fn lstm_forward<T: Float, const H: usize, const N: usize>(s: LstmForward<'_, T>);
    unsafe fn lstm_backward<T: Float, const H: usize, const N: usize>(s: LstmBackward<'_, T>);
    unsafe fn gru_forward<T: Float, const H: usize, const N: usize>(s: GruForward<'_, T>);
    unsafe fn gru_backward<T: Float, const H: usize, const N: usize>(s: GruBackward<'_, T>);
    unsafe fn vanilla_forward<T: Float, const H: usize, const N: usize>(s: VanillaForward<'_, T>);
    unsafe fn vanilla_backward<T: Float, const H: usize, const N: usize>(s: VanillaBackward<'_, T>);
    /// `C += A · Bᵀ` (`A` `m×k`, `B` `n×k`): the portable loop, or the
    /// tier's packed `f32` tile.
    unsafe fn nt<T: Float>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize);
    /// `C += Aᵀ · B` (`A` stored `k×m`): the portable loops, or the tier's
    /// GEMM.
    unsafe fn tn<T: Float>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize);
}

/// Implements [`Kernels`] for `$ty` by calling `$path::<kernel>::<$ty, T,
/// H, N>`, `$path::step_nt` and `$path::step_tn` under `unsafe` (the trait's contract is the
/// callee's; the portable kernels have none).
macro_rules! kernels_via {
    ($ty:ty, $($path:ident)::+) => {
        #[allow(unused_unsafe)]
        impl $crate::step::Kernels for $ty {
            unsafe fn lstm_forward<T: Float, const H: usize, const N: usize>(
                s: $crate::step::LstmForward<'_, T>,
            ) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::lstm_forward::<Self, T, H, N>(s) }
            }
            unsafe fn lstm_backward<T: Float, const H: usize, const N: usize>(
                s: $crate::step::LstmBackward<'_, T>,
            ) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::lstm_backward::<Self, T, H, N>(s) }
            }
            unsafe fn gru_forward<T: Float, const H: usize, const N: usize>(
                s: $crate::step::GruForward<'_, T>,
            ) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::gru_forward::<Self, T, H, N>(s) }
            }
            unsafe fn gru_backward<T: Float, const H: usize, const N: usize>(
                s: $crate::step::GruBackward<'_, T>,
            ) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::gru_backward::<Self, T, H, N>(s) }
            }
            unsafe fn vanilla_forward<T: Float, const H: usize, const N: usize>(
                s: $crate::step::VanillaForward<'_, T>,
            ) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::vanilla_forward::<Self, T, H, N>(s) }
            }
            unsafe fn vanilla_backward<T: Float, const H: usize, const N: usize>(
                s: $crate::step::VanillaBackward<'_, T>,
            ) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::vanilla_backward::<Self, T, H, N>(s) }
            }
            unsafe fn nt<T: Float>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::step_nt::<T>(a, b, c, m, k, n) }
            }
            unsafe fn tn<T: Float>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
                // SAFETY: this method's contract, passed on unchanged.
                unsafe { $($path)::+::step_tn::<T>(a, b, c, m, k, n) }
            }
        }
    };
}
pub(crate) use kernels_via;

/// The portable loops as written: `scalar`'s kernels, and `simd`'s on a
/// host with no vector tier.
struct Portable;
kernels_via!(Portable, reference);

/// Calls `K`'s kernel for the step's kind at its hidden width: every width
/// on the route, or with `WIDE` only those whose widest product is wider
/// than `2·NR` lanes (the rest panic, as off-route widths do).
///
/// # Safety
/// `K`'s units must be available.
unsafe fn dispatch<K: Kernels, T: Float, const WIDE: bool>(step: Step<'_, T>) {
    /// `K::$kernel::<T, H, N>($s)` for the arm `H => N` that matches `$h`,
    /// the narrow arms only without `WIDE`.
    macro_rules! by_width {
        ($kernel:ident($s:expr), $h:expr, [$($w:literal => $n:literal),*],
            [$($ww:literal => $wn:literal),*]) => {
            match $h {
                $($w if !WIDE => K::$kernel::<T, $w, $n>($s),)*
                $($ww => K::$kernel::<T, $ww, $wn>($s),)*
                h => panic!("step: no one-call step at hidden width {h}"),
            }
        };
    }
    // LSTM: N = 4H; GRU: N = 2H; vanilla: N = H. Narrow, then wide.
    macro_rules! lstm {
        ($kernel:ident($s:expr), $h:expr) => {
            by_width!($kernel($s), $h, [1 => 4, 2 => 8, 3 => 12, 4 => 16],
                [5 => 20, 6 => 24, 7 => 28, 8 => 32])
        };
    }
    macro_rules! gru {
        ($kernel:ident($s:expr), $h:expr) => {
            by_width!($kernel($s), $h, [1 => 2, 2 => 4, 3 => 6, 4 => 8, 5 => 10, 6 => 12,
                7 => 14, 8 => 16], [9 => 18, 10 => 20, 11 => 22, 12 => 24, 13 => 26, 14 => 28,
                15 => 30, 16 => 32])
        };
    }
    macro_rules! vanilla {
        ($kernel:ident($s:expr), $h:expr) => {
            by_width!($kernel($s), $h, [1 => 1, 2 => 2, 3 => 3, 4 => 4, 5 => 5, 6 => 6,
                7 => 7, 8 => 8, 9 => 9, 10 => 10, 11 => 11, 12 => 12, 13 => 13, 14 => 14,
                15 => 15, 16 => 16], [17 => 17, 18 => 18, 19 => 19, 20 => 20, 21 => 21,
                22 => 22, 23 => 23, 24 => 24, 25 => 25, 26 => 26, 27 => 27, 28 => 28,
                29 => 29, 30 => 30, 31 => 31, 32 => 32])
        };
    }
    // SAFETY: this fn's contract, passed on unchanged.
    unsafe {
        match step {
            Step::LstmForward(s) => lstm!(lstm_forward(s), s.h_prev.cols()),
            Step::LstmBackward(s) => lstm!(lstm_backward(s), s.dh.cols()),
            Step::GruForward(s) => gru!(gru_forward(s), s.h_prev.cols()),
            Step::GruBackward(s) => gru!(gru_backward(s), s.dh.cols()),
            Step::VanillaForward(s) => vanilla!(vanilla_forward(s), s.h_prev.cols()),
            Step::VanillaBackward(s) => vanilla!(vanilla_backward(s), s.dh.cols()),
        }
    }
}

/// The portable loops as written, whatever the host: `scalar`'s step.
pub(crate) fn portable<T: Float>(step: Step<'_, T>) {
    // SAFETY: the portable loops need no units.
    unsafe { dispatch::<Portable, T, false>(step) }
}

/// The step in a tier's wrapper on every x86-64 host with AVX2+FMA, the
/// portable loops elsewhere. The shape picks the tier: up to `2·NR` lanes
/// a row is at most two `ymm` registers and takes the `avx2` wrapper (the
/// `avx512` one ran `fine_grain`'s one-row steps up to 9 % slower,
/// EXPERIMENTS.md "The narrow cell step"); a wider row takes the `avx512`
/// wrapper where the host has it, one or two `zmm` registers.
pub(crate) fn run<T: Float>(step: Step<'_, T>) {
    #[cfg(target_arch = "x86_64")]
    match x86::tier() {
        Some(x86::Tier::Avx512) if step.lanes() > 2 * NR => {
            // SAFETY: tier() reported AVX-512F with AVX2+FMA.
            return unsafe { dispatch::<x86::avx512::Steps, T, true>(step) };
        }
        Some(_) => {
            // SAFETY: tier() reports a tier only where AVX2+FMA were
            // detected.
            return unsafe { dispatch::<x86::avx2::Steps, T, false>(step) };
        }
        None => {}
    }
    portable(step);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LSTM `h ≤ 8`, GRU `h ≤ 16`, vanilla `h ≤ 32`, `input + h ≤ KC`.
    #[test]
    fn each_kinds_route_ends_at_one_strip_and_one_kc_block() {
        // Gate-product lanes per hidden unit, and the widest hidden width.
        for (per_h, last) in [(4, 8), (2, 16), (1, 32)] {
            for h in 1..=last {
                assert!(fits(3 + h, per_h * h), "{per_h}·{h}");
                assert!(fits(KC, per_h * h) && !fits(KC + 1, per_h * h));
            }
            assert!(
                !fits(3 + last + 1, per_h * (last + 1)),
                "{per_h}·{}",
                last + 1
            );
        }
        assert!(!fits(3, 0), "a zero-width cell has no step");
    }
}
