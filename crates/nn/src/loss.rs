//! Softmax cross-entropy, the training objective of every experiment in the
//! paper.

use subfed_tensor::reduce::softmax_rows;
use subfed_tensor::Tensor;

/// Computes mean softmax cross-entropy over a `[batch, classes]` logits
/// tensor, returning `(loss, grad_logits)`.
///
/// The gradient is `(softmax(logits) - onehot(labels)) / batch`, ready to
/// feed straight into `Sequential::backward_ws`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size, the batch is
/// empty, or any label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.ndim(), 2, "logits must be [batch, classes]");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), n, "label count {} must equal batch {}", labels.len(), n);
    assert!(n > 0, "cross-entropy over an empty batch");
    let probs = softmax_rows(logits);
    let mut loss = 0.0f32;
    // lint: allow(hot-path-alloc) — the softmax probs double as the grad buffer: one owned copy per batch by design
    let mut grad = probs.clone().into_vec();
    let inv_n = 1.0 / n as f32;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let p = probs.data()[i * c + label].max(1e-12);
        loss -= p.ln();
        grad[i * c + label] -= 1.0;
    }
    for g in &mut grad {
        *g *= inv_n;
    }
    // lint: allow(hot-path-alloc) — shape metadata, not tensor data
    (loss * inv_n, Tensor::from_parts(vec![n, c], grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5, "{loss}");
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut data = vec![0.0; 3];
        data[1] = 20.0;
        let logits = Tensor::from_vec(vec![1, 3], data).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-3, "{loss}");
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![2, 3], vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = grad.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits =
            Tensor::from_vec(vec![2, 4], vec![0.3, -1.0, 2.0, 0.1, -0.5, 0.7, 0.0, 1.5]).unwrap();
        let labels = [2usize, 1usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels);
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (grad.data()[idx] - numeric).abs() < 1e-3,
                "idx {idx}: {} vs {numeric}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn loss_is_finite_for_extreme_logits() {
        let logits = Tensor::from_vec(vec![1, 2], vec![1000.0, -1000.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_label_panics() {
        let logits = Tensor::zeros(&[1, 3]);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let logits = Tensor::zeros(&[0, 3]);
        let _ = softmax_cross_entropy(&logits, &[]);
    }
}
