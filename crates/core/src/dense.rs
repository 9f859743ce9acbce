//! Output (classifier) layer: a dense projection from the merged BRNN
//! features to class logits.
//!
//! Many-to-one models apply this once, to the final merge cell's output;
//! many-to-many models apply it per timestep with shared weights.

use bpar_tensor::{init, Activation, Backend, Float, Matrix};

/// Dense layer parameters: `W: in × out`, `b: 1 × out`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseParams<T: Float> {
    /// Projection kernel.
    pub w: Matrix<T>,
    /// Bias row.
    pub b: Matrix<T>,
}

impl<T: Float> DenseParams<T> {
    /// Xavier-initialised dense layer.
    pub fn init(input: usize, output: usize, seed: u64) -> Self {
        Self {
            w: init::xavier_uniform(input, output, seed),
            b: Matrix::zeros(1, output),
        }
    }

    /// Zeroed same-shape parameters (gradient accumulator).
    pub fn zeros_like(&self) -> Self {
        Self {
            w: Matrix::zeros(self.w.rows(), self.w.cols()),
            b: Matrix::zeros(1, self.b.cols()),
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// `logits = x W + b`, into a caller-provided `batch × out` buffer
    /// (fully overwritten) through [`Backend::affine`].
    pub fn forward(&self, x: &Matrix<T>, out: &mut Matrix<T>, be: Backend) {
        be.affine(Activation::Identity, x, &self.w, &self.b, out);
    }

    /// Backward pass: given `x` and `dlogits`, accumulates `dW`, `dB` into
    /// `grads` and writes `dx` into a caller-provided buffer (fully
    /// overwritten), in one [`Backend::affine_grad`] call.
    pub fn backward(
        &self,
        x: &Matrix<T>,
        dlogits: &Matrix<T>,
        grads: &mut DenseParams<T>,
        dx: &mut Matrix<T>,
        be: Backend,
    ) {
        assert_eq!(dx.shape(), x.shape(), "dx buffer shape");
        be.affine_grad(x, dlogits, &self.w, &mut grads.w, &mut grads.b, dx);
    }

    /// Adds `other` into `self` (gradient reduction across replicas).
    pub fn add_assign(&mut self, other: &DenseParams<T>) {
        bpar_tensor::ops::axpy(T::ONE, &other.w, &mut self.w);
        bpar_tensor::ops::axpy(T::ONE, &other.b, &mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(p: &DenseParams<f64>, x: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(x.rows(), p.w.cols());
        p.forward(x, &mut out, Backend::default());
        out
    }

    #[test]
    fn forward_is_affine() {
        let mut p: DenseParams<f64> = DenseParams::init(2, 2, 0);
        p.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        p.b = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = forward(&p, &x);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let p: DenseParams<f64> = DenseParams::init(3, 2, 1);
        let x = init::uniform(4, 3, -1.0, 1.0, 2);
        let s = init::uniform(4, 2, -1.0, 1.0, 3);
        let loss =
            |p: &DenseParams<f64>, x: &Matrix<f64>| bpar_tensor::ops::dot(&s, &forward(p, x));

        let mut grads = p.zeros_like();
        let mut dx = Matrix::zeros(4, 3);
        p.backward(&x, &s, &mut grads, &mut dx, Backend::default());
        let eps = 1e-6;
        for &(r, c) in &[(0, 0), (1, 1), (2, 0)] {
            let mut pp = p.clone();
            pp.w.set(r, c, p.w.get(r, c) + eps);
            let lp = loss(&pp, &x);
            pp.w.set(r, c, p.w.get(r, c) - eps);
            let lm = loss(&pp, &x);
            assert!((grads.w.get(r, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
        for c in 0..2 {
            let mut pp = p.clone();
            pp.b.set(0, c, p.b.get(0, c) + eps);
            let lp = loss(&pp, &x);
            pp.b.set(0, c, p.b.get(0, c) - eps);
            let lm = loss(&pp, &x);
            assert!((grads.b.get(0, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
        for &(r, c) in &[(0, 0), (3, 2)] {
            let mut xx = x.clone();
            xx.set(r, c, x.get(r, c) + eps);
            let lp = loss(&p, &xx);
            xx.set(r, c, x.get(r, c) - eps);
            let lm = loss(&p, &xx);
            assert!((dx.get(r, c) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
    }

    #[test]
    fn param_count() {
        let p: DenseParams<f32> = DenseParams::init(10, 4, 0);
        assert_eq!(p.param_count(), 44);
    }
}
