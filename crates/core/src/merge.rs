//! Merge cells: Equation (11), `y_t = merge(H_t, H̄_t)`.
//!
//! A merge cell combines the outputs of the forward-order and reverse-order
//! cells that processed the same input position. B-Par deliberately keeps
//! merges as *separate tasks* so forward and reverse cells of the same
//! layer never depend on each other directly (§III-A) — that separation is
//! what lets both directions run in parallel.

use bpar_tensor::{Float, Matrix};

/// How forward and reverse outputs are combined (Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeMode {
    /// Element-wise sum (keeps width `H`; the mode that matches the
    /// parameter counts of Tables III/IV).
    #[default]
    Sum,
    /// Element-wise average.
    Avg,
    /// Element-wise product.
    Mul,
    /// Feature concatenation (width `2H`).
    Concat,
}

impl MergeMode {
    /// Output width for inputs of width `hidden`.
    pub fn output_width(self, hidden: usize) -> usize {
        match self {
            MergeMode::Concat => 2 * hidden,
            _ => hidden,
        }
    }

    /// Forward merge: combines `fwd` and `rev` (both `batch × hidden`) into
    /// a caller-provided buffer of shape `batch × output_width(hidden)`.
    pub fn apply<T: Float>(self, fwd: &Matrix<T>, rev: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(fwd.shape(), rev.shape(), "merge operand shapes differ");
        assert_eq!(
            out.shape(),
            (fwd.rows(), self.output_width(fwd.cols())),
            "merge output buffer shape"
        );
        match self {
            MergeMode::Sum => bpar_tensor::ops::add(fwd, rev, out),
            MergeMode::Avg => {
                bpar_tensor::ops::add(fwd, rev, out);
                bpar_tensor::ops::scale(T::from_f64(0.5), out);
            }
            MergeMode::Mul => bpar_tensor::ops::hadamard(fwd, rev, out),
            MergeMode::Concat => Matrix::hstack_into(&[fwd, rev], out),
        }
    }

    /// Backward merge: splits the gradient w.r.t. the merged output into
    /// gradients w.r.t. the forward and reverse operands.
    ///
    /// For [`MergeMode::Mul`] the original operands are required. The
    /// gradients go into caller-provided `dfwd`/`drev` buffers
    /// (`batch × hidden`, fully overwritten).
    pub fn backward<T: Float>(
        self,
        dmerged: &Matrix<T>,
        fwd: &Matrix<T>,
        rev: &Matrix<T>,
        dfwd: &mut Matrix<T>,
        drev: &mut Matrix<T>,
    ) {
        assert_eq!(dfwd.shape(), fwd.shape(), "dfwd buffer shape");
        assert_eq!(drev.shape(), rev.shape(), "drev buffer shape");
        match self {
            MergeMode::Sum => {
                dfwd.copy_from(dmerged);
                drev.copy_from(dmerged);
            }
            MergeMode::Avg => {
                dfwd.copy_from(dmerged);
                bpar_tensor::ops::scale(T::from_f64(0.5), dfwd);
                drev.copy_from(dfwd);
            }
            MergeMode::Mul => {
                bpar_tensor::ops::hadamard(dmerged, rev, dfwd);
                bpar_tensor::ops::hadamard(dmerged, fwd, drev);
            }
            MergeMode::Concat => {
                let h = fwd.cols();
                assert_eq!(dmerged.cols(), 2 * h, "concat gradient width");
                for r in 0..dmerged.rows() {
                    let src = dmerged.row(r);
                    dfwd.row_mut(r).copy_from_slice(&src[..h]);
                    drev.row_mut(r).copy_from_slice(&src[h..]);
                }
            }
        }
    }

    /// Flop count of one merge task on a `b × h` pair (cost-model input).
    pub fn flops(self, b: usize, h: usize) -> u64 {
        match self {
            MergeMode::Concat => 0, // pure data movement
            MergeMode::Avg => 2 * (b * h) as u64,
            _ => (b * h) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpar_tensor::init;

    fn pair() -> (Matrix<f64>, Matrix<f64>) {
        (
            init::uniform(3, 4, -1.0, 1.0, 1),
            init::uniform(3, 4, -1.0, 1.0, 2),
        )
    }

    fn merged(mode: MergeMode, f: &Matrix<f64>, r: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(f.rows(), mode.output_width(f.cols()));
        mode.apply(f, r, &mut out);
        out
    }

    #[test]
    fn sum_merge() {
        let (f, r) = pair();
        let m = merged(MergeMode::Sum, &f, &r);
        for i in 0..3 {
            for j in 0..4 {
                assert!((m.get(i, j) - (f.get(i, j) + r.get(i, j))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn avg_is_half_sum() {
        let (f, r) = pair();
        let s = merged(MergeMode::Sum, &f, &r);
        let a = merged(MergeMode::Avg, &f, &r);
        let mut half = s.clone();
        bpar_tensor::ops::scale(0.5, &mut half);
        assert!(a.max_abs_diff(&half) < 1e-12);
    }

    #[test]
    fn concat_widths() {
        let (f, r) = pair();
        let c = merged(MergeMode::Concat, &f, &r);
        assert_eq!(c.shape(), (3, 8));
        assert_eq!(MergeMode::Concat.output_width(4), 8);
        assert_eq!(MergeMode::Sum.output_width(4), 4);
    }

    #[test]
    fn backward_finite_difference_all_modes() {
        let (f, r) = pair();
        let sens = init::uniform(3, 8, -1.0, 1.0, 3); // wide enough for concat
        let eps = 1e-6;
        for mode in [
            MergeMode::Sum,
            MergeMode::Avg,
            MergeMode::Mul,
            MergeMode::Concat,
        ] {
            let width = mode.output_width(4);
            let s = sens.row_block(0, 3);
            let s = Matrix::from_fn(3, width, |i, j| s.get(i, j));
            let loss = |f: &Matrix<f64>, r: &Matrix<f64>| -> f64 {
                bpar_tensor::ops::dot(&s, &merged(mode, f, r))
            };
            let (mut dfwd, mut drev) = (Matrix::zeros(3, 4), Matrix::zeros(3, 4));
            mode.backward(&s, &f, &r, &mut dfwd, &mut drev);
            for &(i, j) in &[(0usize, 0usize), (1, 2), (2, 3)] {
                let mut fp = f.clone();
                fp.set(i, j, f.get(i, j) + eps);
                let lp = loss(&fp, &r);
                fp.set(i, j, f.get(i, j) - eps);
                let lm = loss(&fp, &r);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((dfwd.get(i, j) - fd).abs() < 1e-6, "{mode:?} dfwd[{i},{j}]");

                let mut rp = r.clone();
                rp.set(i, j, r.get(i, j) + eps);
                let lp = loss(&f, &rp);
                rp.set(i, j, r.get(i, j) - eps);
                let lm = loss(&f, &rp);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((drev.get(i, j) - fd).abs() < 1e-6, "{mode:?} drev[{i},{j}]");
            }
        }
    }

    #[test]
    fn flops_are_zero_for_concat() {
        assert_eq!(MergeMode::Concat.flops(8, 16), 0);
        assert!(MergeMode::Sum.flops(8, 16) > 0);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn mismatched_operands_panic() {
        let f = Matrix::<f64>::zeros(2, 3);
        let r = Matrix::<f64>::zeros(2, 4);
        merged(MergeMode::Sum, &f, &r);
    }
}
