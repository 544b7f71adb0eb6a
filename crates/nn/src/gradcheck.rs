#![allow(clippy::needless_range_loop)]
//! Finite-difference gradient checking, used by every layer's test module.
//!
//! The scalar objective is `L(x) = ½‖f(x)‖²` so that `dL/dy = y`, which lets
//! the checker drive `backward_ws` without a loss layer. Both the input
//! gradient and every parameter gradient are compared against central
//! differences.

use crate::{Layer, Mode};
use subfed_tensor::init::{uniform, SeededRng};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

fn objective(layer: &mut Box<dyn Layer>, x: &Tensor) -> f32 {
    let y = layer.forward(x, Mode::Train);
    0.5 * y.sq_norm()
}

fn check_close(analytic: f32, numeric: f32, tol: f32, what: &str) {
    let denom = 1.0 + analytic.abs() + numeric.abs();
    assert!(
        (analytic - numeric).abs() / denom <= tol,
        "{what}: analytic {analytic} vs numeric {numeric} (tol {tol})"
    );
}

/// Checks `layer`'s input and parameter gradients on a random input of
/// `input_shape` against central finite differences.
///
/// # Panics
///
/// Panics (failing the test) if any coordinate's analytic and numeric
/// gradients disagree beyond `tol`.
pub fn check_layer(mut layer: Box<dyn Layer>, input_shape: &[usize], eps: f32, tol: f32) {
    let mut rng = SeededRng::new(0xFEED);
    let x = uniform(input_shape, -1.0, 1.0, &mut rng);

    // Analytic pass.
    let y = layer.forward(&x, Mode::Train);
    let dx = layer.backward_ws(&y, &mut Workspace::new());
    let param_grads: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();

    // Numeric input gradient (sample at most ~200 coordinates).
    let stride = (x.len() / 200).max(1);
    for idx in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let lp = objective(&mut layer, &xp);
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let lm = objective(&mut layer, &xm);
        let numeric = (lp - lm) / (2.0 * eps);
        check_close(dx.data()[idx], numeric, tol, &format!("input grad [{idx}]"));
    }

    // Numeric parameter gradients.
    let n_params = layer.params().len();
    for pi in 0..n_params {
        let plen = layer.params()[pi].len();
        let pstride = (plen / 100).max(1);
        for idx in (0..plen).step_by(pstride) {
            let orig = layer.params()[pi].value.data()[idx];
            layer.params_mut()[pi].value.data_mut()[idx] = orig + eps;
            let lp = objective(&mut layer, &x);
            layer.params_mut()[pi].value.data_mut()[idx] = orig - eps;
            let lm = objective(&mut layer, &x);
            layer.params_mut()[pi].value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            check_close(
                param_grads[pi].data()[idx],
                numeric,
                tol,
                &format!("param {pi} grad [{idx}]"),
            );
        }
    }
}
