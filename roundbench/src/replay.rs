//! Bench-side replay of one client update and one personalized evaluation,
//! timed layer by layer from outside through the public `nn` API.
//!
//! [`replay_train`] performs exactly the calls `train_client_ws` makes —
//! `spec.build`, `load_flat`, `ModelMask::apply`, `install_sparsity`, then
//! per batch each layer's `forward_ws`, `softmax_cross_entropy`, each
//! layer's `backward_ws` in reverse, and `Sgd::step` — so its `final_flat`
//! must equal the library's bit for bit. The caller checks that.

use std::time::Instant;

use subfed_core::FedConfig;
use subfed_data::{ClientData, Dataset};
use subfed_nn::loss::softmax_cross_entropy;
use subfed_nn::models::ModelSpec;
use subfed_nn::optim::Sgd;
use subfed_nn::{Mode, ModelMask, Sequential};
use subfed_tensor::conv::{taps_supported, ConvGeom};
use subfed_tensor::init::SeededRng;
use subfed_tensor::reduce::argmax_rows;
use subfed_tensor::sparse::{RectPattern, RowPattern, SPARSE_DENSITY_MAX};
use subfed_tensor::workspace::Workspace;

fn since_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The row a layer's time is reported under: `conv1`, `conv2`, `fc1`, …
/// for weight layers (numbered in model order), and one summed row per
/// kind for the rest (`bn`, `pool`, `act`, `flatten`).
pub fn layer_groups(model: &Sequential) -> Vec<String> {
    let (mut convs, mut fcs) = (0, 0);
    model
        .layers()
        .iter()
        .map(|l| match l.name() {
            "conv2d" => {
                convs += 1;
                format!("conv{convs}")
            }
            "linear" => {
                fcs += 1;
                format!("fc{fcs}")
            }
            "batchnorm2d" => "bn".to_string(),
            "maxpool2d" | "avgpool2d" => "pool".to_string(),
            "relu" | "leakyrelu" | "tanh" | "sigmoid" => "act".to_string(),
            other => other.to_string(),
        })
        .collect()
}

/// Per-layer wall times of one training batch, in microseconds.
pub struct BatchTimes {
    /// Examples in the batch.
    pub size: usize,
    /// Forward time per layer, in model order.
    pub fwd: Vec<f64>,
    /// Backward time per layer, in model order.
    pub bwd: Vec<f64>,
    /// `softmax_cross_entropy`.
    pub loss: f64,
    /// `Sgd::step`.
    pub sgd: f64,
    /// This batch's share of its epoch's `shuffled_batches` call.
    pub load: f64,
}

/// One replayed client update.
pub struct TrainReplay {
    /// Parameters after the first local epoch.
    pub first_epoch_flat: Vec<f32>,
    /// Parameters after the last local epoch.
    pub final_flat: Vec<f32>,
    /// Model build, `load_flat` and mask install, in microseconds.
    pub setup_us: f64,
    /// Every batch of every epoch.
    pub batches: Vec<BatchTimes>,
}

/// Replays `train_client_ws(spec, init_flat, data, cfg, Some(mask), None,
/// seed, ws)` with a timer around every public call it makes.
pub fn replay_train(
    spec: &ModelSpec,
    init_flat: &[f32],
    data: &ClientData,
    cfg: &FedConfig,
    mask: &ModelMask,
    seed: u64,
    ws: &mut Workspace,
) -> TrainReplay {
    let t = Instant::now();
    let mut rng = SeededRng::new(seed);
    let mut model = spec.build(&mut rng);
    model.load_flat(init_flat);
    mask.apply(&mut model);
    model.install_sparsity(mask);
    let setup_us = since_us(t);
    let layers = model.len();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    let mut first_epoch_flat = Vec::new();
    let mut batches = Vec::new();
    for epoch in 0..cfg.local_epochs {
        let t = Instant::now();
        let epoch_batches = data.train.shuffled_batches(cfg.batch_size, &mut rng);
        let load = since_us(t) / epoch_batches.len().max(1) as f64;
        for batch in epoch_batches {
            let mut fwd = Vec::with_capacity(layers);
            let mut x = batch.images.clone();
            for layer in model.layers_mut() {
                let t = Instant::now();
                x = layer.forward_ws(&x, Mode::Train, ws);
                fwd.push(since_us(t));
            }
            let t = Instant::now();
            let (_, grad) = softmax_cross_entropy(&x, &batch.labels);
            let loss = since_us(t);
            let mut bwd = vec![0.0; layers];
            let mut g = grad;
            for (slot, layer) in bwd.iter_mut().zip(model.layers_mut()).rev() {
                let t = Instant::now();
                g = layer.backward_ws(&g, ws);
                *slot = since_us(t);
            }
            let t = Instant::now();
            opt.step(&mut model, Some(mask), None);
            let sgd = since_us(t);
            batches.push(BatchTimes { size: batch.labels.len(), fwd, bwd, loss, sgd, load });
        }
        if epoch == 0 {
            first_epoch_flat = model.flatten();
        }
    }
    TrainReplay { first_epoch_flat, final_flat: model.flatten(), setup_us, batches }
}

/// Replays `Federation::evaluate_clients` for one client: a model built
/// from `build_seed`, `load_flat` without a mask install, and
/// `Mode::Eval` forwards over batches of 64. Returns the per-layer forward
/// times of every batch and the accuracy the replay computed.
pub fn replay_eval(
    spec: &ModelSpec,
    flat: &[f32],
    test: &Dataset,
    build_seed: u64,
) -> (Vec<Vec<f64>>, f32) {
    let mut model = spec.build(&mut SeededRng::new(build_seed));
    model.load_flat(flat);
    let mut times = Vec::new();
    let mut correct = 0usize;
    for b in test.batches(64) {
        let mut per_layer = Vec::with_capacity(model.len());
        let mut x = b.images.clone();
        for layer in model.layers_mut() {
            let t = Instant::now();
            x = layer.forward(&x, Mode::Eval);
            per_layer.push(since_us(t));
        }
        correct += argmax_rows(&x).iter().zip(&b.labels).filter(|(p, l)| p == l).count();
        times.push(per_layer);
    }
    (times, correct as f32 / test.len().max(1) as f32)
}

/// A weight layer's density under a mask and the kernel paths it takes.
pub struct KernelPath {
    /// Kept fraction of the weight tensor.
    pub density: f64,
    /// Training path with the mask installed (`train_client_ws`).
    pub train: &'static str,
    /// Evaluation path as `evaluate_clients` runs it (no mask install).
    pub eval: &'static str,
    /// Evaluation path with the mask installed (the validation pass at the
    /// end of `train_client_ws`).
    pub eval_installed: &'static str,
}

/// Derives the kernel path of every `conv*`/`fc*` layer from the mask the
/// way `install_sparsity` does: `RowPattern::from_mask`, the
/// `SPARSE_DENSITY_MAX` cut-off, and `taps_supported` for convolutions.
pub fn kernel_paths(
    spec: &ModelSpec,
    model: &Sequential,
    mask: &ModelMask,
) -> Vec<(String, KernelPath)> {
    let groups = layer_groups(model);
    let convs = spec.conv_shapes();
    let mut out = Vec::new();
    let mut param = 0;
    let mut conv_i = 0;
    for (layer, group) in model.layers().iter().zip(groups) {
        let count = layer.params().len();
        if count > 0 && (group.starts_with("conv") || group.starts_with("fc")) {
            let bits = &mask.tensors()[param];
            let shape = bits.shape();
            let rows = shape[0];
            let cols = bits.len() / rows;
            let pat = RowPattern::from_mask(rows, cols, bits.data());
            let sparse = pat.density() <= SPARSE_DENSITY_MAX;
            let rect = RectPattern::from_pattern(&pat).is_some();
            let taps = group.starts_with("conv") && {
                let c = convs[conv_i];
                conv_i += 1;
                taps_supported(&ConvGeom {
                    channels: c.cin,
                    height: c.out_h + c.k - 1,
                    width: c.out_w + c.k - 1,
                    kh: c.k,
                    kw: c.k,
                    stride: 1,
                    pad: 0,
                })
            };
            let path = KernelPath {
                density: f64::from(pat.density()),
                train: if sparse { "RowPattern" } else { "dense" },
                eval: if taps { "taps-dense" } else { "dense" },
                eval_installed: match (taps, sparse) {
                    (true, true) => "taps-sparse",
                    (true, false) => "taps-dense",
                    (false, true) if rect && group.starts_with("conv") => "rect",
                    (false, true) => "RowPattern",
                    (false, false) => "dense",
                },
            };
            out.push((group, path));
        }
        param += count;
    }
    out
}
