//! Scalar abstraction over `f32` and `f64`.
//!
//! The library defaults to `f32` (what the paper's MKL kernels use), but
//! gradient-checking tests want `f64`, so every kernel is generic over
//! [`Float`]. The trait is deliberately tiny — just the arithmetic and
//! transcendental surface the RNN kernels need — to avoid pulling in an
//! external numerics crate. `exp`, `ln` and `sqrt` are libm's in both
//! precisions; `sigmoid` and `tanh` are libm's for `f64` only — for `f32`
//! they are the branch-free polynomials of [`crate::reference`], whose
//! bits do not depend on whether a call is scalar or a lane of a
//! vectorised loop. (Mind method resolution on a concrete `f32`:
//! `x.tanh()` is the inherent libm method, `Float::tanh(x)` is ours.)

use crate::reference;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar usable in every kernel of the workspace.
pub trait Float:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f64` (used for constants and RNG output).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used for reductions and reporting).
    fn to_f64(self) -> f64;
    /// Conversion from a count.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }

    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Hyperbolic tangent: libm for `f64`, [`crate::reference::tanh_f32`]
    /// for `f32`.
    fn tanh(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// The larger of `self` and `other` (NaN-naive, fine for kernels).
    fn max(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }
    /// The smaller of `self` and `other`.
    fn min(self, other: Self) -> Self {
        if self < other {
            self
        } else {
            other
        }
    }
    /// True if the value is finite (not NaN / ±inf).
    fn is_finite(self) -> bool;

    /// Fused multiply-add where the platform provides one.
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// Narrowing conversion to `f32` (exact when `Self = f32`).
    fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Reinterprets a slice of `Self` as `&[f32]` when `Self` *is* `f32`.
    ///
    /// This is the monomorphization escape hatch the kernel backends use:
    /// vector kernels are written once against `f32`, and
    /// generic code downcasts through here (`None` for `f64`, which runs
    /// the generic loops of [`crate::reference`]).
    fn as_f32_slice(s: &[Self]) -> Option<&[f32]> {
        if std::any::TypeId::of::<Self>() == std::any::TypeId::of::<f32>() {
            // SAFETY: TypeId equality proves `Self` is exactly `f32`, so the
            // slice has identical layout, alignment and lifetime.
            Some(unsafe { &*(s as *const [Self] as *const [f32]) })
        } else {
            None
        }
    }

    /// Mutable counterpart of [`Float::as_f32_slice`].
    fn as_f32_slice_mut(s: &mut [Self]) -> Option<&mut [f32]> {
        if std::any::TypeId::of::<Self>() == std::any::TypeId::of::<f32>() {
            // SAFETY: see `as_f32_slice`; exclusivity carries over unchanged.
            Some(unsafe { &mut *(s as *mut [Self] as *mut [f32]) })
        } else {
            None
        }
    }

    /// Logistic function `1 / (1 + e^-x)`, overflow-free. `f64` composes it
    /// from libm's `exp`; `f32` is [`crate::reference::sigmoid_f32`].
    fn sigmoid(self) -> Self;
}

/// The libm-composed sigmoid: `e^x` is only ever taken of a non-positive
/// argument, so nothing overflows.
#[inline(always)]
fn sigmoid_via_exp(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

macro_rules! impl_float {
    ($t:ty, $sigmoid:path, $tanh:path) => {
        impl Float for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                $tanh(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn sigmoid(self) -> Self {
                $sigmoid(self)
            }
        }
    };
}

// f32 runs the branch-free polynomials (same bits scalar or vectorised);
// f64 keeps libm, which the gradient checks want.
impl_float!(f32, reference::sigmoid_f32, reference::tanh_f32);
impl_float!(f64, sigmoid_via_exp, f64::tanh);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(f32::ZERO + f32::ONE, 1.0f32);
        assert_eq!(f64::ZERO + f64::ONE, 1.0f64);
    }

    #[test]
    fn sigmoid_is_stable_for_large_magnitudes() {
        // The naive 1/(1+exp(-x)) overflows exp for x = -1000.
        assert_eq!((-1000.0f64).sigmoid(), 0.0);
        assert_eq!((1000.0f64).sigmoid(), 1.0);
        assert!(((-1000.0f32).sigmoid()).is_finite());
    }

    #[test]
    fn sigmoid_matches_reference_midrange() {
        for &x in &[-4.0, -1.0, -0.5, 0.0, 0.5, 1.0, 4.0] {
            let want = 1.0 / (1.0 + (-x).exp());
            assert!((x.sigmoid() - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1f64, 0.7, 2.5, 8.0] {
            let s = x.sigmoid() + (-x).sigmoid();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f64::from_f64(0.25).to_f64(), 0.25);
        assert_eq!(f32::from_usize(7).to_f64(), 7.0);
    }

    #[test]
    fn min_max() {
        assert_eq!(Float::max(1.0f32, 2.0), 2.0);
        assert_eq!(Float::min(1.0f32, 2.0), 1.0);
    }

    #[test]
    fn f32_downcast_is_identity_and_f64_declines() {
        let xs = [1.0f32, -2.5, 3.25];
        let view = f32::as_f32_slice(&xs).expect("f32 must downcast");
        assert_eq!(view, &xs[..]);
        let mut ys = [0.0f32; 2];
        f32::as_f32_slice_mut(&mut ys).expect("f32 must downcast")[1] = 7.0;
        assert_eq!(ys, [0.0, 7.0]);

        let zs = [1.0f64, 2.0];
        assert!(f64::as_f32_slice(&zs).is_none());
        let mut zm = [1.0f64];
        assert!(f64::as_f32_slice_mut(&mut zm).is_none());
    }
}
