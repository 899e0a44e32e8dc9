//! The model IR: a sequential node list with one save slot for residuals.

use ndirect_tensor::{ConvShape, Filter, Padding};

use crate::error::ModelError;
use crate::ops::pooled_extent;

/// A convolution layer with folded batch-norm and optional ReLU.
#[derive(Debug, Clone)]
pub struct ConvLayer {
    /// Output channels.
    pub k: usize,
    /// Kernel size (square).
    pub rs: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric padding.
    pub pad: usize,
    /// `KCRS` weights.
    pub filter: Filter,
    /// Folded batch-norm scale per output channel (`1.0` = none).
    pub scale: Vec<f32>,
    /// Folded batch-norm shift / bias per output channel.
    pub shift: Vec<f32>,
    /// Apply ReLU after the affine.
    pub relu: bool,
}

impl ConvLayer {
    /// The [`ConvShape`] this layer induces on an input of `(n, c, h, w)`.
    pub fn shape_for(&self, n: usize, c: usize, h: usize, w: usize) -> ConvShape {
        self.try_shape_for(n, c, h, w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ConvLayer::shape_for`].
    pub fn try_shape_for(
        &self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Result<ConvShape, ModelError> {
        if c != self.filter.c() {
            return Err(ModelError::ChannelMismatch {
                layer_c: self.filter.c(),
                input_c: c,
            });
        }
        Ok(ConvShape::try_new(
            n,
            c,
            h,
            w,
            self.k,
            self.rs,
            self.rs,
            self.stride,
            Padding::same(self.pad),
        )?)
    }

    /// The [`ConvShape`] of this layer used as a *depthwise* convolution
    /// on `(n, c, h, w)` input: filter is `(C, 1, R, S)`, output has `C`
    /// channels.
    pub fn depthwise_shape_for(&self, n: usize, c: usize, h: usize, w: usize) -> ConvShape {
        self.try_depthwise_shape_for(n, c, h, w)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ConvLayer::depthwise_shape_for`].
    pub fn try_depthwise_shape_for(
        &self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Result<ConvShape, ModelError> {
        if self.filter.c() != 1 {
            return Err(ModelError::Depthwise {
                context: format!(
                    "depthwise filter has one channel per group, got {}",
                    self.filter.c()
                ),
            });
        }
        if self.filter.k() != c || self.k != c {
            return Err(ModelError::Depthwise {
                context: format!(
                    "depthwise filter count must equal channels (multiplier 1): \
                     filter K={}, layer k={}, activation C={c}",
                    self.filter.k(),
                    self.k
                ),
            });
        }
        Ok(ConvShape::try_new(
            n,
            c,
            h,
            w,
            c,
            self.rs,
            self.rs,
            self.stride,
            Padding::same(self.pad),
        )?)
    }

    /// Parameter count (weights + scale + shift).
    pub fn params(&self) -> usize {
        self.filter.len() + self.scale.len() + self.shift.len()
    }

    /// Folds an inference-form batch-norm `(γ, β, μ, σ², ε)` into the
    /// layer's per-channel affine: `scale ← γ/√(σ²+ε) · scale`,
    /// `shift ← γ/√(σ²+ε)·(shift − μ) + β`. Composes with an existing
    /// affine, so bias-then-BN folds correctly.
    pub fn fold_batchnorm(
        &mut self,
        gamma: &[f32],
        beta: &[f32],
        mean: &[f32],
        var: &[f32],
        eps: f32,
    ) {
        assert_eq!(gamma.len(), self.k, "gamma len");
        assert_eq!(beta.len(), self.k, "beta len");
        assert_eq!(mean.len(), self.k, "mean len");
        assert_eq!(var.len(), self.k, "var len");
        for k in 0..self.k {
            let inv_std = gamma[k] / (var[k] + eps).sqrt();
            self.scale[k] *= inv_std;
            self.shift[k] = inv_std * (self.shift[k] - mean[k]) + beta[k];
        }
    }
}

/// A fully-connected layer.
#[derive(Debug, Clone)]
pub struct FcLayer {
    /// Output features.
    pub out: usize,
    /// `out × in` row-major weights.
    pub weight: Vec<f32>,
    /// `out` biases.
    pub bias: Vec<f32>,
    /// Apply ReLU after.
    pub relu: bool,
}

/// One step of a forward pass.
#[derive(Debug, Clone)]
pub enum Node {
    /// Convolution (+ folded BN + optional ReLU).
    Conv(ConvLayer),
    /// Depthwise convolution (channel multiplier 1): the layer's filter is
    /// `(C, 1, R, S)` and `k == c`. Runs through nDirect's depthwise
    /// kernel (§10.2) — the baselines do not implement depthwise, matching
    /// how frameworks route DSC blocks to a dedicated operator.
    DepthwiseConv(ConvLayer),
    /// Max pooling `(k, stride, pad)`.
    MaxPool(usize, usize, usize),
    /// Global average pooling to `1×1`.
    GlobalAvgPool,
    /// Fully connected (+ optional ReLU).
    Fc(FcLayer),
    /// Softmax over channels.
    Softmax,
    /// Save the current activation (start of a residual block).
    Save,
    /// Residual join: add the saved activation — passed through an optional
    /// projection conv (the downsampling shortcut) — then ReLU.
    ResidualJoin(Option<ConvLayer>),
}

/// A whole model.
#[derive(Debug, Clone)]
pub struct Model {
    /// Display name ("ResNet-50", …).
    pub name: String,
    /// Expected input: `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Forward-pass steps in execution order.
    pub nodes: Vec<Node>,
}

impl Model {
    /// Total parameter count.
    pub fn params(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Conv(c) | Node::DepthwiseConv(c) => c.params(),
                Node::Fc(f) => f.weight.len() + f.bias.len(),
                Node::ResidualJoin(Some(c)) => c.params(),
                _ => 0,
            })
            .sum()
    }

    /// Number of convolution nodes (projection shortcuts included).
    pub fn conv_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    Node::Conv(_) | Node::DepthwiseConv(_) | Node::ResidualJoin(Some(_))
                )
            })
            .count()
    }

    /// The one geometry walk: carries `(c, h, w)` and the save slot down
    /// the node list and returns every convolution's [`ConvShape`] for
    /// batch size `n` in execution order (projection shortcuts included),
    /// flagged `true` when it is depthwise.
    fn walk_convs(&self, n: usize) -> Vec<(ConvShape, bool)> {
        let (mut c, mut h, mut w) = self.input;
        let mut saved: Option<(usize, usize, usize)> = None;
        let mut convs = Vec::new();
        for node in &self.nodes {
            match node {
                Node::Conv(l) => {
                    let s = l.shape_for(n, c, h, w);
                    convs.push((s, false));
                    (c, h, w) = (l.k, s.p(), s.q());
                }
                Node::DepthwiseConv(l) => {
                    let s = l.depthwise_shape_for(n, c, h, w);
                    convs.push((s, true));
                    (h, w) = (s.p(), s.q());
                }
                Node::MaxPool(k, st, p) => {
                    (h, w) = (pooled_extent(h, *k, *st, *p), pooled_extent(w, *k, *st, *p));
                }
                Node::GlobalAvgPool => (h, w) = (1, 1),
                Node::Fc(f) => (c, h, w) = (f.out, 1, 1),
                Node::Softmax => {}
                Node::Save => saved = Some((c, h, w)),
                Node::ResidualJoin(proj) => {
                    if let (Some(l), Some((sc, sh, sw))) = (proj, saved) {
                        convs.push((l.shape_for(n, sc, sh, sw), false));
                    }
                    saved = None;
                }
            }
        }
        convs
    }

    /// Every standard convolution's [`ConvShape`] for batch size `n`, in
    /// execution order (projection shortcuts included) — what a per-shape
    /// tuner needs. Depthwise layers run a dedicated kernel and are not
    /// candidates for the standard-conv tuner.
    pub fn conv_shapes(&self, n: usize) -> Vec<ConvShape> {
        let convs = self.walk_convs(n).into_iter();
        convs.filter_map(|(shape, depthwise)| (!depthwise).then_some(shape)).collect()
    }

    /// Total convolution FLOPs for batch size `n` (the >90% the paper
    /// attributes to conv), including depthwise layers
    /// (`2·N·C·P·Q·R·S` each — no channel reduction).
    pub fn conv_flops(&self, n: usize) -> u64 {
        let flops = |&(s, depthwise): &(ConvShape, bool)| {
            if depthwise {
                2 * (s.n * s.c * s.p() * s.q()) as u64 * (s.r * s.s) as u64
            } else {
                s.flops()
            }
        };
        self.walk_convs(n).iter().map(flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::FilterLayout;

    fn conv(c: usize, k: usize, rs: usize, stride: usize, pad: usize) -> ConvLayer {
        ConvLayer {
            k,
            rs,
            stride,
            pad,
            filter: Filter::zeros(k, c, rs, rs, FilterLayout::Kcrs),
            scale: vec![1.0; k],
            shift: vec![0.0; k],
            relu: true,
        }
    }

    #[test]
    fn fold_batchnorm_equals_explicit_bn() {
        use ndirect_tensor::fill;
        // conv -> explicit BN must equal conv with the BN folded in.
        let mut layer = conv(2, 3, 3, 1, 1);
        fill::fill_random(layer.filter.as_mut_slice(), 7);
        layer.shift = vec![0.1, -0.2, 0.3]; // pre-existing bias
        let gamma = [1.5, 0.7, -1.1];
        let beta = [0.2, 0.0, -0.4];
        let mean = [0.05, -0.1, 0.2];
        let var = [1.2, 0.8, 2.0];
        let eps = 1e-5;

        let input = fill::random_tensor(
            ndirect_tensor::Tensor4::zeros(1, 2, 6, 6, ndirect_tensor::ActLayout::Nchw),
            8,
        );
        let shape = layer.shape_for(1, 2, 6, 6);

        // Reference: conv, + bias, then explicit BN.
        let mut reference =
            ndirect_baselines::naive::conv_ref(&input, &layer.filter, &shape);
        crate::ops::scale_shift(&mut reference, &layer.scale, &layer.shift);
        crate::ops::batch_norm(&mut reference, &gamma, &beta, &mean, &var, eps);

        // Folded: conv then the layer's affine.
        let mut folded_layer = layer.clone();
        folded_layer.fold_batchnorm(&gamma, &beta, &mean, &var, eps);
        let mut folded =
            ndirect_baselines::naive::conv_ref(&input, &folded_layer.filter, &shape);
        crate::ops::scale_shift(&mut folded, &folded_layer.scale, &folded_layer.shift);

        ndirect_tensor::assert_close(
            folded.as_slice(),
            reference.as_slice(),
            1e-5,
            "BN folding",
        );
    }

    #[test]
    fn conv_layer_shape_propagation() {
        let l = conv(3, 8, 3, 2, 1);
        let s = l.shape_for(1, 3, 8, 8);
        assert_eq!((s.p(), s.q(), s.k), (4, 4, 8));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_layer_rejects_wrong_channels() {
        conv(3, 8, 3, 1, 1).shape_for(1, 4, 8, 8);
    }

    #[test]
    fn model_accounting() {
        let m = Model {
            name: "tiny".into(),
            input: (3, 8, 8),
            nodes: vec![
                Node::Conv(conv(3, 4, 3, 1, 1)),
                Node::Save,
                Node::Conv(conv(4, 4, 3, 1, 1)),
                Node::ResidualJoin(None),
                Node::MaxPool(2, 2, 0),
                Node::GlobalAvgPool,
                Node::Fc(FcLayer {
                    out: 10,
                    weight: vec![0.0; 10 * 4],
                    bias: vec![0.0; 10],
                    relu: false,
                }),
                Node::Softmax,
            ],
        };
        assert_eq!(m.conv_count(), 2);
        // conv1: 2*(1*4*8*8)*(3*9)=13824*2... = 2*256*27 = 13824;
        // conv2: 2*256*36 = 18432.
        assert_eq!(m.conv_flops(1), 13824 + 18432);
        assert_eq!(m.params(), 4 * 3 * 9 + 8 + 4 * 4 * 9 + 8 + 10 * 4 + 10);
    }

    #[test]
    fn projection_shortcut_counts_flops() {
        let mut plain = Model {
            name: "t".into(),
            input: (4, 4, 4),
            nodes: vec![
                Node::Save,
                Node::Conv(conv(4, 4, 1, 1, 0)),
                Node::ResidualJoin(None),
            ],
        };
        let without = plain.conv_flops(1);
        plain.nodes[2] = Node::ResidualJoin(Some(conv(4, 4, 1, 1, 0)));
        assert_eq!(plain.conv_flops(1), 2 * without);
    }
}
