//! Loss functions.
//!
//! Both evaluation tasks of the paper are classification problems — digit
//! recognition (TIDIGITS) and next-character prediction (Wikipedia) — so
//! the loss is softmax cross-entropy.

use bpar_tensor::activation::softmax_rows;
use bpar_tensor::{Float, Matrix};

/// Softmax cross-entropy over class-index targets.
///
/// Returns the mean loss and writes its gradient w.r.t. the raw logits
/// into the caller-provided `dlogits` buffer (fully overwritten) — the
/// well-known `(softmax - onehot)/B` shortcut of fusing softmax with
/// cross-entropy. The softmax probabilities are materialised in `dlogits`
/// itself (the loss reads each row's target probability before it is
/// shifted by `-1`), so no `probs` temporary is needed.
///
/// # Panics
/// Panics if `targets.len() != logits.rows()`, a target is out of range or
/// `dlogits` is not `logits`' shape.
pub fn softmax_cross_entropy<T: Float>(
    logits: &Matrix<T>,
    targets: &[usize],
    dlogits: &mut Matrix<T>,
) -> f64 {
    let (batch, classes) = logits.shape();
    assert_eq!(targets.len(), batch, "one target per batch row");
    assert_eq!(dlogits.shape(), (batch, classes), "dlogits buffer shape");
    dlogits.copy_from(logits);
    softmax_rows(dlogits);

    let mut loss = 0.0f64;
    let inv_b = T::from_f64(1.0 / batch as f64);
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < classes, "target {t} out of range for {classes} classes");
        let p = dlogits.get(r, t).to_f64().max(1e-30);
        loss -= p.ln();
        let v = dlogits.get(r, t);
        dlogits.set(r, t, v - T::ONE);
    }
    for v in dlogits.as_mut_slice() {
        *v *= inv_b;
    }
    loss / batch as f64
}

/// Prediction accuracy: fraction of rows whose argmax equals the target.
pub fn accuracy<T: Float>(logits: &Matrix<T>, targets: &[usize]) -> f64 {
    assert_eq!(targets.len(), logits.rows());
    if targets.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == t {
            correct += 1;
        }
    }
    correct as f64 / targets.len() as f64
}

/// Perplexity from a mean cross-entropy (natural log) value.
pub fn perplexity(mean_ce: f64) -> f64 {
    mean_ce.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpar_tensor::init;

    fn ce(logits: &Matrix<f64>, targets: &[usize]) -> (f64, Matrix<f64>) {
        let mut d = Matrix::zeros(logits.rows(), logits.cols());
        (softmax_cross_entropy(logits, targets, &mut d), d)
    }

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits: Matrix<f64> = Matrix::zeros(4, 8);
        let (loss, _) = ce(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_has_tiny_loss() {
        let mut logits: Matrix<f64> = Matrix::zeros(2, 3);
        logits.set(0, 1, 50.0);
        logits.set(1, 2, 50.0);
        let (loss, _) = ce(&logits, &[1, 2]);
        assert!(loss < 1e-9);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = init::uniform::<f64>(3, 4, -1.0, 1.0, 1);
        let targets = [2usize, 0, 3];
        let (_, d) = ce(&logits, &targets);
        let eps = 1e-6;
        for &(r, c) in &[(0, 0), (0, 2), (1, 1), (2, 3)] {
            let mut lp = logits.clone();
            lp.set(r, c, logits.get(r, c) + eps);
            let (a, _) = ce(&lp, &targets);
            lp.set(r, c, logits.get(r, c) - eps);
            let (b, _) = ce(&lp, &targets);
            let fd = (a - b) / (2.0 * eps);
            assert!((d.get(r, c) - fd).abs() < 1e-6, "dlogits[{r},{c}]");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Softmax-CE gradient per row sums to zero (probabilities sum to 1).
        let logits = init::uniform::<f64>(5, 7, -2.0, 2.0, 9);
        let (_, d) = ce(&logits, &[0, 1, 2, 3, 4]);
        for r in 0..5 {
            let s: f64 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let mut logits: Matrix<f32> = Matrix::zeros(3, 2);
        logits.set(0, 1, 1.0); // predicts 1, target 1 ✓
        logits.set(1, 0, 1.0); // predicts 0, target 1 ✗
        logits.set(2, 0, 1.0); // predicts 0, target 0 ✓
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn perplexity_of_zero_loss_is_one() {
        assert_eq!(perplexity(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let logits: Matrix<f64> = Matrix::zeros(1, 2);
        ce(&logits, &[5]);
    }
}
