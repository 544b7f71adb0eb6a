//! The paper's two architectures and their channel-structure metadata.
//!
//! * **CNN-5** (§4.1 "Architecture"): two 5×5 conv layers with 10 and 20
//!   channels, each followed by BatchNorm and 2×2 max pooling, then FC-50
//!   and an FC classifier — used for MNIST and EMNIST.
//! * **LeNet-5** with BatchNorm after each conv — used for CIFAR-10/100.
//!
//! Input height/width are parameters so the same architectures run at paper
//! scale (28×28 / 32×32) in analytic tests and at 16×16 in the CPU-scaled
//! training benches.

use crate::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use crate::{ParamKind, ParamMeta, Sequential};
use subfed_tensor::init::SeededRng;

/// Declarative model architecture: a buildable, serialisable description of
/// the network every client trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// The paper's 5-layer CNN for MNIST/EMNIST.
    Cnn5 {
        /// Input channels (1 for the grayscale stand-ins).
        in_ch: usize,
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
        /// Number of output classes.
        classes: usize,
    },
    /// LeNet-5 with BatchNorm for CIFAR-10/100.
    LeNet5 {
        /// Input channels (3 for the colour stand-ins).
        in_ch: usize,
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
        /// Number of output classes.
        classes: usize,
    },
    /// A deeper VGG-style network (four 3×3 conv+BN blocks in two stages)
    /// — the depth regime where the paper says structured pruning shines
    /// (§3.5: "structured pruning is more effective when the depth of the
    /// neural network ... is sufficiently large"). Extension architecture.
    VggLite {
        /// Input channels.
        in_ch: usize,
        /// Input height (must be divisible by 4).
        height: usize,
        /// Input width (must be divisible by 4).
        width: usize,
        /// Number of output classes.
        classes: usize,
    },
}

/// Shape of one convolution layer, for analytic FLOP/parameter accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Square kernel side.
    pub k: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

/// Shape of one fully-connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcShape {
    /// Input features.
    pub fan_in: usize,
    /// Output features.
    pub fan_out: usize,
}

fn conv_out(side: usize, k: usize) -> usize {
    assert!(side >= k, "input side {side} too small for kernel {k}");
    side - k + 1
}

fn conv_out_pad(side: usize, k: usize, pad: usize) -> usize {
    let padded = side + 2 * pad;
    assert!(padded >= k, "input side {side} too small for kernel {k} with pad {pad}");
    padded - k + 1
}

fn pool_out(side: usize) -> usize {
    assert!(side >= 2, "input side {side} too small for 2x2 pooling");
    side / 2
}

impl ModelSpec {
    /// Convenience constructor for the CNN-5 architecture.
    pub fn cnn5(in_ch: usize, height: usize, width: usize, classes: usize) -> Self {
        ModelSpec::Cnn5 { in_ch, height, width, classes }
    }

    /// Convenience constructor for the LeNet-5 architecture.
    pub fn lenet5(in_ch: usize, height: usize, width: usize, classes: usize) -> Self {
        ModelSpec::LeNet5 { in_ch, height, width, classes }
    }

    /// Convenience constructor for the VGG-lite extension architecture.
    pub fn vgg_lite(in_ch: usize, height: usize, width: usize, classes: usize) -> Self {
        ModelSpec::VggLite { in_ch, height, width, classes }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match *self {
            ModelSpec::Cnn5 { classes, .. }
            | ModelSpec::LeNet5 { classes, .. }
            | ModelSpec::VggLite { classes, .. } => classes,
        }
    }

    /// Input shape as `[channels, height, width]`.
    pub fn input_shape(&self) -> [usize; 3] {
        match *self {
            ModelSpec::Cnn5 { in_ch, height, width, .. }
            | ModelSpec::LeNet5 { in_ch, height, width, .. }
            | ModelSpec::VggLite { in_ch, height, width, .. } => [in_ch, height, width],
        }
    }

    /// Shapes of all convolution layers, in order.
    pub fn conv_shapes(&self) -> Vec<ConvShape> {
        match *self {
            ModelSpec::Cnn5 { in_ch, height, width, .. } => {
                let (h1, w1) = (conv_out(height, 5), conv_out(width, 5));
                let (h1p, w1p) = (pool_out(h1), pool_out(w1));
                let (h2, w2) = (conv_out(h1p, 5), conv_out(w1p, 5));
                vec![
                    ConvShape { cin: in_ch, cout: 10, k: 5, out_h: h1, out_w: w1 },
                    ConvShape { cin: 10, cout: 20, k: 5, out_h: h2, out_w: w2 },
                ]
            }
            ModelSpec::LeNet5 { in_ch, height, width, .. } => {
                let (h1, w1) = (conv_out(height, 5), conv_out(width, 5));
                let (h1p, w1p) = (pool_out(h1), pool_out(w1));
                let (h2, w2) = (conv_out(h1p, 5), conv_out(w1p, 5));
                vec![
                    ConvShape { cin: in_ch, cout: 6, k: 5, out_h: h1, out_w: w1 },
                    ConvShape { cin: 6, cout: 16, k: 5, out_h: h2, out_w: w2 },
                ]
            }
            ModelSpec::VggLite { in_ch, height, width, .. } => {
                // 3x3 convs with pad 1 preserve spatial size.
                let (h1, w1) = (conv_out_pad(height, 3, 1), conv_out_pad(width, 3, 1));
                let (h1p, w1p) = (pool_out(h1), pool_out(w1));
                vec![
                    ConvShape { cin: in_ch, cout: 12, k: 3, out_h: h1, out_w: w1 },
                    ConvShape { cin: 12, cout: 12, k: 3, out_h: h1, out_w: w1 },
                    ConvShape { cin: 12, cout: 24, k: 3, out_h: h1p, out_w: w1p },
                    ConvShape { cin: 24, cout: 24, k: 3, out_h: h1p, out_w: w1p },
                ]
            }
        }
    }

    /// Shapes of all fully-connected layers, in order.
    pub fn fc_shapes(&self) -> Vec<FcShape> {
        let convs = self.conv_shapes();
        #[expect(
            clippy::expect_used,
            reason = "every ModelSpec variant returns a non-empty conv list by construction"
        )]
        let last = convs.last().expect("specs always have conv layers");
        let spatial = pool_out(last.out_h) * pool_out(last.out_w);
        let flat = last.cout * spatial;
        match *self {
            ModelSpec::Cnn5 { classes, .. } => vec![
                FcShape { fan_in: flat, fan_out: 50 },
                FcShape { fan_in: 50, fan_out: classes },
            ],
            ModelSpec::LeNet5 { classes, .. } => vec![
                FcShape { fan_in: flat, fan_out: 120 },
                FcShape { fan_in: 120, fan_out: 84 },
                FcShape { fan_in: 84, fan_out: classes },
            ],
            ModelSpec::VggLite { classes, .. } => vec![
                FcShape { fan_in: flat, fan_out: 64 },
                FcShape { fan_in: 64, fan_out: classes },
            ],
        }
    }

    /// Spatial size (`pooled_h × pooled_w`) of the final feature map per
    /// channel — the number of flattened inputs each final conv channel
    /// contributes to the first FC layer.
    pub fn final_spatial(&self) -> usize {
        let convs = self.conv_shapes();
        #[expect(
            clippy::expect_used,
            reason = "every ModelSpec variant returns a non-empty conv list by construction"
        )]
        let last = convs.last().expect("specs always have conv layers");
        pool_out(last.out_h) * pool_out(last.out_w)
    }

    /// Number of trainable parameters (conv/fc weights+biases and BN γ/β).
    pub fn num_trainable(&self) -> usize {
        let conv: usize = self
            .conv_shapes()
            .iter()
            // weight + bias + BN gamma/beta
            .map(|c| c.cout * c.cin * c.k * c.k + c.cout + 2 * c.cout)
            .sum();
        let fc: usize = self.fc_shapes().iter().map(|f| f.fan_in * f.fan_out + f.fan_out).sum();
        conv + fc
    }

    /// Builds the model with seeded initialisation.
    ///
    /// # Panics
    ///
    /// Panics if the input size is too small for the two conv/pool stages.
    // lint: cold — model construction + weight init run once per client-round
    pub fn build(&self, rng: &mut SeededRng) -> Sequential {
        let mut m = Sequential::new();
        match *self {
            ModelSpec::Cnn5 { in_ch, classes, .. } => {
                let fcs = self.fc_shapes();
                m.push(Box::new(Conv2d::new(in_ch, 10, 5, 1, 0, rng)));
                m.push(Box::new(BatchNorm2d::new(10)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(MaxPool2d::new(2, 2)));
                m.push(Box::new(Conv2d::new(10, 20, 5, 1, 0, rng)));
                m.push(Box::new(BatchNorm2d::new(20)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(MaxPool2d::new(2, 2)));
                m.push(Box::new(Flatten::new()));
                m.push(Box::new(Linear::new(fcs[0].fan_in, 50, rng)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(Linear::new(50, classes, rng)));
            }
            ModelSpec::LeNet5 { in_ch, classes, .. } => {
                let fcs = self.fc_shapes();
                m.push(Box::new(Conv2d::new(in_ch, 6, 5, 1, 0, rng)));
                m.push(Box::new(BatchNorm2d::new(6)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(MaxPool2d::new(2, 2)));
                m.push(Box::new(Conv2d::new(6, 16, 5, 1, 0, rng)));
                m.push(Box::new(BatchNorm2d::new(16)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(MaxPool2d::new(2, 2)));
                m.push(Box::new(Flatten::new()));
                m.push(Box::new(Linear::new(fcs[0].fan_in, 120, rng)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(Linear::new(120, 84, rng)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(Linear::new(84, classes, rng)));
            }
            ModelSpec::VggLite { in_ch, height, width, classes } => {
                assert!(
                    height % 4 == 0 && width % 4 == 0,
                    "VGG-lite input must be divisible by 4, got {height}x{width}"
                );
                let fcs = self.fc_shapes();
                m.push(Box::new(Conv2d::new(in_ch, 12, 3, 1, 1, rng)));
                m.push(Box::new(BatchNorm2d::new(12)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(Conv2d::new(12, 12, 3, 1, 1, rng)));
                m.push(Box::new(BatchNorm2d::new(12)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(MaxPool2d::new(2, 2)));
                m.push(Box::new(Conv2d::new(12, 24, 3, 1, 1, rng)));
                m.push(Box::new(BatchNorm2d::new(24)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(Conv2d::new(24, 24, 3, 1, 1, rng)));
                m.push(Box::new(BatchNorm2d::new(24)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(MaxPool2d::new(2, 2)));
                m.push(Box::new(Flatten::new()));
                m.push(Box::new(Linear::new(fcs[0].fan_in, 64, rng)));
                m.push(Box::new(ReLU::new()));
                m.push(Box::new(Linear::new(64, classes, rng)));
            }
        }
        m
    }
}

/// Builds the *classic* LeNet-5 (tanh activations, average pooling, no
/// BatchNorm) — an architecture ablation against the paper's
/// BatchNorm+ReLU+MaxPool variant. Note: without BatchNorm this model has
/// no channel-importance indicators, so it supports unstructured pruning
/// only.
///
/// # Panics
///
/// Panics if the input is too small for the two conv/pool stages.
pub fn lenet5_classic(
    in_ch: usize,
    height: usize,
    width: usize,
    classes: usize,
    rng: &mut SeededRng,
) -> Sequential {
    use crate::layers::{AvgPool2d, Tanh};
    let h1p = pool_out(conv_out(height, 5));
    let w1p = pool_out(conv_out(width, 5));
    let h2p = pool_out(conv_out(h1p, 5));
    let w2p = pool_out(conv_out(w1p, 5));
    let flat = 16 * h2p * w2p;
    let mut m = Sequential::new();
    m.push(Box::new(Conv2d::new(in_ch, 6, 5, 1, 0, rng)));
    m.push(Box::new(Tanh::new()));
    m.push(Box::new(AvgPool2d::new(2, 2)));
    m.push(Box::new(Conv2d::new(6, 16, 5, 1, 0, rng)));
    m.push(Box::new(Tanh::new()));
    m.push(Box::new(AvgPool2d::new(2, 2)));
    m.push(Box::new(Flatten::new()));
    m.push(Box::new(Linear::new(flat, 120, rng)));
    m.push(Box::new(Tanh::new()));
    m.push(Box::new(Linear::new(120, 84, rng)));
    m.push(Box::new(Tanh::new()));
    m.push(Box::new(Linear::new(84, classes, rng)));
    m
}

/// One prunable conv→BN block and where its channels feed, expressed as
/// indices into `Sequential::params` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvBlock {
    /// Param index of the conv weight `[out, in, k, k]`.
    pub conv_weight: usize,
    /// Param index of the conv bias `[out]`.
    pub conv_bias: usize,
    /// Param index of the BatchNorm γ `[out]`.
    pub bn_gamma: usize,
    /// Param index of the BatchNorm β `[out]`.
    pub bn_beta: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Which layer consumes this block's channels.
    pub downstream: Downstream,
}

/// The consumer of a conv block's output channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Downstream {
    /// The next convolution (weight param index); pruning channel `c`
    /// removes input-channel `c` of that weight.
    Conv {
        /// Param index of the downstream conv weight.
        weight: usize,
    },
    /// A fully-connected layer after flattening; pruning channel `c`
    /// removes `spatial` contiguous input columns of that weight.
    Linear {
        /// Param index of the downstream FC weight.
        weight: usize,
        /// Flattened spatial positions contributed per channel.
        spatial: usize,
    },
}

/// Channel-structure metadata of a model: every conv→BN block with its
/// downstream consumer. Derived by scanning the model's parameter layout,
/// so it works for any `Sequential` that follows the conv→BN convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelGraph {
    /// The prunable blocks, in layer order.
    pub blocks: Vec<ConvBlock>,
}

impl ChannelGraph {
    /// Total prunable channels across all blocks.
    pub fn total_channels(&self) -> usize {
        self.blocks.iter().map(|b| b.out_channels).sum()
    }
}

/// Derives the [`ChannelGraph`] of a model: [`channel_graph_flat`] over
/// its [`Sequential::metas`].
///
/// # Panics
///
/// As [`channel_graph_flat`].
pub fn channel_graph(model: &Sequential) -> ChannelGraph {
    channel_graph_flat(&model.metas())
}

/// Derives the [`ChannelGraph`] of a flat parameter layout (a model's
/// [`Sequential::metas`]) by scanning its kinds and shapes, so a caller
/// holding only flat snapshots needs no model. Conv layers not followed by
/// BatchNorm (e.g. [`lenet5_classic`]) carry no channel-importance
/// indicator and are skipped — such models support unstructured pruning
/// only.
///
/// # Panics
///
/// Panics if a conv→BN block has no downstream conv/FC consumer (the
/// classifier-conv case, which the paper's architectures do not contain).
pub fn channel_graph_flat(layout: &[ParamMeta]) -> ChannelGraph {
    let mut blocks = Vec::new();
    for (i, p) in layout.iter().enumerate() {
        if p.kind != ParamKind::ConvWeight {
            continue;
        }
        let has_bn = matches!(
            layout.get(i + 1..i + 4),
            Some([bias, gamma, beta])
                if bias.kind == ParamKind::ConvBias
                    && gamma.kind == ParamKind::BnGamma
                    && beta.kind == ParamKind::BnBeta
        );
        if !has_bn {
            continue;
        }
        let out_channels = p.shape[0];
        // Find the next weight that consumes these channels.
        #[expect(
            clippy::expect_used,
            reason = "the paper's architectures never end in a conv→BN block, so a missing \
                      consumer is a malformed model"
        )]
        let downstream = layout
            .get(i + 4..)
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .find_map(|(j, q)| match q.kind {
                ParamKind::ConvWeight => Some(Downstream::Conv { weight: i + 4 + j }),
                ParamKind::FcWeight => {
                    let fan_in = q.shape[1];
                    assert_eq!(
                        fan_in % out_channels,
                        0,
                        "FC fan-in {fan_in} not divisible by {out_channels} channels"
                    );
                    Some(Downstream::Linear { weight: i + 4 + j, spatial: fan_in / out_channels })
                }
                _ => None,
            })
            .expect("conv block must have a downstream consumer");
        blocks.push(ConvBlock {
            conv_weight: i,
            conv_bias: i + 1,
            bn_gamma: i + 2,
            bn_beta: i + 3,
            out_channels,
            downstream,
        });
    }
    ChannelGraph { blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use subfed_tensor::workspace::Workspace;
    use subfed_tensor::Tensor;

    #[test]
    fn lenet5_paper_scale_parameter_count() {
        // The paper quotes "62000 total parameters" for LeNet-5 on CIFAR.
        let spec = ModelSpec::lenet5(3, 32, 32, 10);
        let n = spec.num_trainable();
        // conv1 456 + conv2 2416 + bn 44 + fc 48120 + 10164 + 850 = 62050
        assert_eq!(n, 62_050);
        let mut rng = SeededRng::new(0);
        let model = spec.build(&mut rng);
        assert_eq!(model.num_trainable(), n);
    }

    #[test]
    fn cnn5_paper_scale_shapes() {
        let spec = ModelSpec::cnn5(1, 28, 28, 10);
        let convs = spec.conv_shapes();
        assert_eq!(convs[0].out_h, 24);
        assert_eq!(convs[1].out_h, 8);
        let fcs = spec.fc_shapes();
        assert_eq!(fcs[0].fan_in, 20 * 4 * 4);
        assert_eq!(fcs[1].fan_out, 10);
        let mut rng = SeededRng::new(0);
        let model = spec.build(&mut rng);
        assert_eq!(model.num_trainable(), spec.num_trainable());
    }

    #[test]
    fn forward_shapes_for_both_architectures() {
        let mut rng = SeededRng::new(1);
        for (spec, shape) in [
            (ModelSpec::cnn5(1, 16, 16, 7), [2usize, 1, 16, 16]),
            (ModelSpec::lenet5(3, 16, 16, 5), [2, 3, 16, 16]),
        ] {
            let mut model = spec.build(&mut rng);
            let x = Tensor::zeros(&shape);
            let y = model.forward(&x, Mode::Eval);
            assert_eq!(y.shape(), &[2, spec.classes()]);
        }
    }

    #[test]
    fn channel_graph_for_lenet5() {
        let mut rng = SeededRng::new(2);
        let spec = ModelSpec::lenet5(3, 16, 16, 5);
        let model = spec.build(&mut rng);
        let g = channel_graph(&model);
        assert_eq!(g.blocks.len(), 2);
        assert_eq!(g.blocks[0].out_channels, 6);
        assert_eq!(g.blocks[1].out_channels, 16);
        assert_eq!(g.total_channels(), 22);
        // First block feeds the second conv.
        assert!(matches!(g.blocks[0].downstream, Downstream::Conv { .. }));
        // Second block feeds fc1 with spatial = final pooled map size.
        match g.blocks[1].downstream {
            Downstream::Linear { spatial, .. } => assert_eq!(spatial, spec.final_spatial()),
            _ => panic!("expected linear downstream"),
        }
        // Indices point at the right kinds.
        let params = model.params();
        for b in &g.blocks {
            assert_eq!(params[b.conv_weight].kind, ParamKind::ConvWeight);
            assert_eq!(params[b.bn_gamma].kind, ParamKind::BnGamma);
            assert_eq!(params[b.bn_gamma].len(), b.out_channels);
        }
    }

    #[test]
    fn channel_graph_for_cnn5() {
        let mut rng = SeededRng::new(3);
        let model = ModelSpec::cnn5(1, 16, 16, 4).build(&mut rng);
        let g = channel_graph(&model);
        assert_eq!(g.blocks.len(), 2);
        assert_eq!(g.blocks[0].out_channels, 10);
        assert_eq!(g.blocks[1].out_channels, 20);
        assert_eq!(g.total_channels(), 30); // the paper's "30 channels"
    }

    #[test]
    fn flop_shapes_consistent_with_built_model() {
        let mut rng = SeededRng::new(4);
        let spec = ModelSpec::lenet5(3, 32, 32, 10);
        let mut model = spec.build(&mut rng);
        // If fc_shapes were wrong the forward pass would panic on feature
        // count; run it as an end-to-end consistency check.
        let y = model.forward(&Tensor::zeros(&[1, 3, 32, 32]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn vgg_lite_shapes_and_forward() {
        let spec = ModelSpec::vgg_lite(3, 16, 16, 10);
        let convs = spec.conv_shapes();
        assert_eq!(convs.len(), 4);
        // 3x3 pad-1 convs preserve size; two pools quarter it.
        assert_eq!(convs[0].out_h, 16);
        assert_eq!(convs[2].out_h, 8);
        assert_eq!(spec.final_spatial(), 16); // 4x4
        let fcs = spec.fc_shapes();
        assert_eq!(fcs[0].fan_in, 24 * 16);
        let mut rng = SeededRng::new(9);
        let mut model = spec.build(&mut rng);
        assert_eq!(model.num_trainable(), spec.num_trainable());
        let y = model.forward(&Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn vgg_lite_channel_graph_has_four_blocks() {
        let mut rng = SeededRng::new(10);
        let model = ModelSpec::vgg_lite(1, 16, 16, 4).build(&mut rng);
        let g = channel_graph(&model);
        assert_eq!(g.blocks.len(), 4);
        assert_eq!(g.total_channels(), 12 + 12 + 24 + 24);
        // Chain: conv -> conv -> conv -> conv -> linear.
        assert!(matches!(g.blocks[0].downstream, Downstream::Conv { .. }));
        assert!(matches!(g.blocks[1].downstream, Downstream::Conv { .. }));
        assert!(matches!(g.blocks[2].downstream, Downstream::Conv { .. }));
        match g.blocks[3].downstream {
            Downstream::Linear { spatial, .. } => assert_eq!(spatial, 16),
            _ => panic!("last block must feed the FC head"),
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn vgg_lite_rejects_odd_input() {
        let mut rng = SeededRng::new(11);
        let _ = ModelSpec::vgg_lite(1, 18, 18, 4).build(&mut rng);
    }

    #[test]
    fn lenet5_classic_runs_forward_and_backward() {
        let mut rng = SeededRng::new(8);
        let mut m = lenet5_classic(1, 16, 16, 4, &mut rng);
        let x = Tensor::zeros(&[2, 1, 16, 16]);
        let mut ws = Workspace::new();
        let y = m.forward_ws(&x, Mode::Train, &mut ws);
        assert_eq!(y.shape(), &[2, 4]);
        let mut dx = y;
        for layer in m.layers_mut().iter_mut().rev() {
            dx = layer.backward_ws(&dx, &mut ws);
        }
        assert_eq!(dx.shape(), &[2, 1, 16, 16]);
        // No BatchNorm: channel_graph finds no prunable blocks, so the
        // classic variant is unstructured-only by construction.
        assert!(m.params().iter().all(|p| p.kind != ParamKind::BnGamma));
        assert!(channel_graph(&m).blocks.is_empty());
    }

    #[test]
    #[should_panic(expected = "too small for kernel")]
    fn too_small_input_rejected() {
        let _ = ModelSpec::cnn5(1, 8, 8, 4).conv_shapes();
    }

    #[test]
    fn spec_debug_names_the_architecture() {
        let spec = ModelSpec::lenet5(3, 32, 32, 10);
        assert!(format!("{spec:?}").contains("LeNet5"));
    }
}
