//! Activation functions and their derivatives.
//!
//! The LSTM/GRU equations only use the logistic sigmoid and tanh; the output
//! layer of the classification models adds a row-wise softmax. Derivatives
//! are expressed in terms of the *activated output* (`y`), which is what BPTT
//! has in hand after the forward pass, avoiding a second activation pass.
//! [`Activation`] names what [`crate::Backend::affine`] applies to a gate
//! product.
//!
//! [`sigmoid_slice`] and [`tanh_slice`] are the slice entry points every
//! cell and backend funnels through. They dispatch like the GEMMs: the
//! straight-line `f32` polynomials of [`crate::reference`] run sixteen
//! lanes wide on an AVX-512F host, eight on AVX2+FMA, as written
//! elsewhere, and a lane is one [`Float`] call, so every width gives the
//! same bits.

use crate::backend::simd::x86_tiers;
use crate::gemm::NR;
use crate::matrix::Matrix;
use crate::reference;
use crate::scalar::Float;

/// `m[i] = σ(m[i])`: the slice-level entry point every cell and backend
/// funnels through. Dispatches like [`crate::ops::axpy`]: the loop of
/// [`crate::reference`] inlined into the wrapper of the widest x86-64 tier
/// the host has (the `f32` body is straight-line arithmetic, so it runs
/// sixteen lanes wide under `avx512f`, eight under `avx2,fma`), the loop as
/// written elsewhere — equal to one [`Float::sigmoid`] per element, bit for
/// bit, whatever the width.
pub fn sigmoid_slice<T: Float>(m: &mut [T]) {
    x86_tiers!(sigmoid(m));
    reference::sigmoid_slice(m);
}

/// `m[i] = tanh(m[i])`; see [`sigmoid_slice`].
pub fn tanh_slice<T: Float>(m: &mut [T]) {
    x86_tiers!(tanh(m));
    reference::tanh_slice(m);
}

/// Sigmoid derivative from the sigmoid *output*: `σ'(x) = y (1 - y)`.
pub fn dsigmoid_from_y<T: Float>(y: T) -> T {
    y * (T::ONE - y)
}

/// Tanh derivative from the tanh *output*: `tanh'(x) = 1 - y²`.
pub fn dtanh_from_y<T: Float>(y: T) -> T {
    T::ONE - y * y
}

/// Row-wise numerically stable softmax (subtracts the row maximum).
///
/// A zero-column (or zero-row) matrix is a no-op: there is nothing to
/// normalise, and indexing the first element of an empty row would panic.
pub fn softmax_rows<T: Float>(m: &mut Matrix<T>) {
    if m.cols() == 0 {
        return;
    }
    let (rows, cols) = m.shape();
    softmax_rows_slice(m.as_mut_slice(), rows, cols);
}

/// Slice-level core of [`softmax_rows`], shared with the kernel backends.
/// Callers guarantee `cols > 0`.
pub(crate) fn softmax_rows_slice<T: Float>(m: &mut [T], rows: usize, cols: usize) {
    for r in 0..rows {
        let row = &mut m[r * cols..(r + 1) * cols];
        let mut mx = row[0];
        for &v in row.iter() {
            mx = mx.max(v);
        }
        let mut denom = T::ZERO;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
}

/// The element-wise function [`crate::Backend::affine`] applies to a
/// gate product `z·W + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// None: the product as is (linear cells, the classifier head).
    Identity,
    /// Logistic sigmoid on every column.
    Sigmoid,
    /// Hyperbolic tangent on every column.
    Tanh,
    /// The fused LSTM gate row `[i, f, g, o]`, four equal column blocks:
    /// σ, σ, tanh, σ.
    LstmGates,
}

impl Activation {
    /// Applies the activation in place, row by row, through the slice
    /// entry points.
    pub fn apply<T: Float>(self, m: &mut Matrix<T>) {
        let cols = m.cols();
        self.apply_rows(m.as_mut_slice(), cols);
    }

    /// [`Activation::apply`] over `cols`-wide rows of a raw slice.
    pub(crate) fn apply_rows<T: Float>(self, m: &mut [T], cols: usize) {
        match self {
            Activation::Identity => {}
            Activation::Sigmoid => sigmoid_slice(m),
            Activation::Tanh => tanh_slice(m),
            Activation::LstmGates => {
                assert!(cols.is_multiple_of(4), "LSTM gate rows have four blocks");
                let h = cols / 4;
                // A zero-width matrix is empty: no chunk of any size.
                for row in m.chunks_exact_mut(cols.max(1)) {
                    sigmoid_slice(&mut row[..2 * h]);
                    tanh_slice(&mut row[2 * h..3 * h]);
                    sigmoid_slice(&mut row[3 * h..]);
                }
            }
        }
    }

    /// The first `n < 2·NR` lanes of a narrow product's row through the
    /// portable loops, inlined into whichever wrapper calls it. The
    /// non-linearity runs over whole 8-lane registers (`NR` or `2·NR`
    /// lanes, one `zmm` under `avx512f`), so it is vector code with no
    /// scalar tail; a lane is one [`Float`] call, bit for bit, and lanes
    /// past `n` are scratch. An LSTM row takes σ and tanh over the whole
    /// register and keeps tanh on the `g` lanes: at these widths that
    /// measured faster under `simd` than [`lstm_gate_lanes`]' per-block
    /// loops (4×4×12: 471–507 against 667–715 ns).
    #[inline(always)]
    pub(crate) fn apply_lanes<T: Float>(self, row: &mut [T; 2 * NR], n: usize) {
        let lanes = |row: &mut [T; 2 * NR], f: fn(&mut [T])| {
            if n <= NR {
                f(&mut row[..NR])
            } else {
                f(&mut row[..])
            }
        };
        match self {
            Activation::Identity => {}
            Activation::Sigmoid => lanes(row, reference::sigmoid_slice),
            Activation::Tanh => lanes(row, reference::tanh_slice),
            Activation::LstmGates => {
                let (h, mut t) = (n / 4, *row);
                lanes(row, reference::sigmoid_slice);
                lanes(&mut t, reference::tanh_slice);
                row[2 * h..3 * h].copy_from_slice(&t[2 * h..3 * h]);
            }
        }
    }
}

/// The LSTM gate row `[i, f, g, o]` of hidden width `H` in place, as a
/// cell step runs it: σ on the `i`, `f` and `o` lanes, tanh on the `g`
/// lanes and nowhere else. Each block is a loop of constant length, so a
/// wrapper runs it as whole and partial registers of its width; a lane is
/// one [`Float`] call.
#[inline(always)]
pub(crate) fn lstm_gate_lanes<T: Float, const H: usize>(row: &mut [T]) {
    let (sig, rest) = row[..4 * H].split_at_mut(2 * H);
    let (g, o) = rest.split_at_mut(H);
    for v in sig {
        *v = v.sigmoid();
    }
    for v in g {
        *v = v.tanh();
    }
    for v in o {
        *v = v.sigmoid();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut m = Matrix::from_vec(1, 3, vec![-10.0f64, 0.0, 10.0]);
        Activation::Sigmoid.apply(&mut m);
        assert!(m.get(0, 0) < 1e-4);
        assert!((m.get(0, 1) - 0.5).abs() < 1e-12);
        assert!(m.get(0, 2) > 1.0 - 1e-4);
    }

    #[test]
    fn tanh_is_odd() {
        let mut m = Matrix::from_vec(1, 2, vec![1.3f64, -1.3]);
        Activation::Tanh.apply(&mut m);
        assert!((m.get(0, 0) + m.get(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let eps = 1e-6f64;
        for &x in &[-2.0, -0.3, 0.0, 0.9, 3.0] {
            let y = x.sigmoid();
            let fd = ((x + eps).sigmoid() - (x - eps).sigmoid()) / (2.0 * eps);
            assert!((dsigmoid_from_y(y) - fd).abs() < 1e-6, "sigmoid' at {x}");

            let y = x.tanh();
            let fd = ((x + eps).tanh() - (x - eps).tanh()) / (2.0 * eps);
            assert!((dtanh_from_y(y) - fd).abs() < 1e-6, "tanh' at {x}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0f64, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f64 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(m.row(r).iter().all(|&v| v > 0.0));
        }
        // Largest logit keeps the largest probability.
        assert!(m.get(0, 2) > m.get(0, 1) && m.get(0, 1) > m.get(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0f64, 2.0, 3.0]);
        let mut b = Matrix::from_vec(1, 3, vec![1001.0f64, 1002.0, 1003.0]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        assert!(a.max_abs_diff(&b) < 1e-12);
        assert!(b.all_finite());
    }

    #[test]
    fn softmax_handles_empty_shapes() {
        let mut zero_cols: Matrix<f64> = Matrix::zeros(3, 0);
        softmax_rows(&mut zero_cols); // must not panic
        assert_eq!(zero_cols.shape(), (3, 0));
        let mut zero_rows: Matrix<f64> = Matrix::zeros(0, 4);
        softmax_rows(&mut zero_rows);
        assert_eq!(zero_rows.shape(), (0, 4));
    }

    #[test]
    fn activation_enum_dispatch() {
        let mut m = Matrix::from_vec(1, 1, vec![0.0f64]);
        Activation::Sigmoid.apply(&mut m);
        assert_eq!(m.get(0, 0), 0.5);
        let mut m = Matrix::from_vec(1, 1, vec![0.7f64]);
        Activation::Identity.apply(&mut m);
        assert_eq!(m.get(0, 0), 0.7);
        let mut m = Matrix::from_vec(2, 4, vec![0.0f64; 8]);
        Activation::LstmGates.apply(&mut m);
        assert_eq!(m.row(1), &[0.5, 0.5, 0.0, 0.5]);
        let mut m: Matrix<f64> = Matrix::zeros(3, 0);
        Activation::LstmGates.apply(&mut m);
    }

    #[test]
    #[should_panic(expected = "four blocks")]
    fn lstm_gates_reject_a_width_not_a_multiple_of_four() {
        let mut m = Matrix::from_vec(1, 6, vec![0.0f64; 6]);
        Activation::LstmGates.apply(&mut m);
    }
}
