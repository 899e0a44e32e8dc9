//! The forward-pass interpreter.

use ndirect_baselines::Convolution;
use ndirect_tensor::{ActLayout, Tensor4};
use ndirect_threads::StaticPool;
use std::time::{Duration, Instant};

use crate::error::ModelError;
use crate::layer::{ConvLayer, Model, Node};
use crate::ops;

/// Per-run accounting.
#[derive(Debug, Clone, Default)]
pub struct InferenceStats {
    /// Wall time of the whole forward pass.
    pub total: Duration,
    /// Time spent inside convolution nodes (including shortcut
    /// projections) — the fraction the paper reports as dominant.
    pub conv_time: Duration,
    /// Number of convolutions executed.
    pub convs: usize,
}

impl InferenceStats {
    /// Convolution share of the total runtime.
    pub fn conv_fraction(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.conv_time.as_secs_f64() / self.total.as_secs_f64()
    }
}

/// A forward-pass engine bound to a convolution backend and a thread pool.
pub struct Engine<'a> {
    backend: &'a dyn Convolution,
    pool: &'a StaticPool,
    fuse_residual: bool,
    fuse_dwpw: bool,
}

impl<'a> Engine<'a> {
    /// Builds an engine.
    pub fn new(backend: &'a dyn Convolution, pool: &'a StaticPool) -> Self {
        Self {
            backend,
            pool,
            fuse_residual: false,
            fuse_dwpw: false,
        }
    }

    /// Enables residual-add fusion — the operator-fusion class of
    /// optimization the paper credits Ansor's end-to-end wins to (§8.3).
    ///
    /// When the backend *accumulates* into its output
    /// ([`Convolution::accumulates`]), a `Conv → ResidualJoin(None)` pair
    /// with an identity post-affine is computed by seeding the conv's
    /// output buffer with the shortcut instead of zeros: the elementwise
    /// add (one full read+write pass over the feature map) disappears into
    /// the kernel's existing read-add-write store.
    pub fn with_residual_fusion(mut self, on: bool) -> Self {
        self.fuse_residual = on;
        self
    }

    /// Enables depthwise+pointwise fusion: a `DepthwiseConv → Conv(1×1)`
    /// pair with an identity depthwise post-affine runs as one
    /// [`ndirect_core::FusedDwPwPlan`] block — the depthwise intermediate
    /// stays in a cache-resident slab instead of round-tripping through
    /// memory (the MobileNet block's dominant cost). The depthwise ReLU,
    /// when present, is applied in-slab; the pointwise layer's affine and
    /// ReLU run on the fused output as usual. Like the depthwise operator
    /// itself, the fused block always runs nDirect regardless of the
    /// standard-conv backend.
    pub fn with_dwpw_fusion(mut self, on: bool) -> Self {
        self.fuse_dwpw = on;
        self
    }

    /// The backend's display name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Runs `model` on an `NCHW` input batch, returning the final
    /// activation (post-softmax class probabilities for the zoo models)
    /// and timing stats.
    pub fn run(&self, model: &Model, input: &Tensor4) -> (Tensor4, InferenceStats) {
        self.try_run(model, input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Engine::run`]: geometry mismatches anywhere in
    /// the node list come back as a typed [`ModelError`] instead of a
    /// panic mid-inference.
    pub fn try_run(
        &self,
        model: &Model,
        input: &Tensor4,
    ) -> Result<(Tensor4, InferenceStats), ModelError> {
        let (c, h, w) = model.input;
        if (input.c(), input.h(), input.w()) != (c, h, w) {
            return Err(ModelError::InputMismatch {
                model: model.name.clone(),
                expected: (c, h, w),
                got: (input.c(), input.h(), input.w()),
            });
        }
        if input.layout() != ActLayout::Nchw {
            return Err(ModelError::Layout);
        }

        let mut stats = InferenceStats::default();
        let start = Instant::now();
        let mut act = input.clone();
        let mut saved: Option<Tensor4> = None;
        let mut skip_next_join = false;
        let mut skip_next_conv = false;
        for (i, node) in model.nodes.iter().enumerate() {
            // One timeline span per node so NDIRECT_PROBE traces show the
            // per-layer structure of a run (arg = node index).
            let _layer = ndirect_probe::probe_span!(Layer, i);
            match node {
                Node::Conv(layer) => {
                    if skip_next_conv {
                        // The preceding depthwise node already ran this
                        // 1×1 conv inside the fused dw+pw block.
                        skip_next_conv = false;
                        continue;
                    }
                    // Residual fusion: seed the conv output with the saved
                    // shortcut when the very next node joins it back with no
                    // projection and the conv has an identity post-affine.
                    let fusable = self.fuse_residual
                        && self.backend.accumulates()
                        && matches!(model.nodes.get(i + 1), Some(Node::ResidualJoin(None)))
                        && !layer.relu // the add must precede any ReLU
                        && identity_affine(layer);
                    if fusable {
                        let shortcut = saved.take().ok_or(ModelError::MissingSave)?;
                        let seeded = ConvKind::Standard(Some(shortcut));
                        act = self.conv(layer, &act, seeded, &mut stats)?;
                        // The join this fusion replaces always ends in ReLU.
                        ops::relu(&mut act);
                        skip_next_join = true;
                    } else {
                        act = self.conv(layer, &act, ConvKind::Standard(None), &mut stats)?;
                        finish(layer, &mut act);
                    }
                }
                Node::DepthwiseConv(layer) => {
                    // Dw+pw fusion: run the depthwise and the following
                    // 1×1 conv as one cache-resident block when the
                    // depthwise post-affine is the identity (its ReLU, if
                    // any, is applied in-slab between the stages).
                    let fused_pw = match model.nodes.get(i + 1) {
                        Some(Node::Conv(pw))
                            if self.fuse_dwpw
                                && identity_affine(layer)
                                && (pw.rs, pw.stride, pw.pad) == (1, 1, 0) =>
                        {
                            Some(pw)
                        }
                        _ => None,
                    };
                    act = self.conv(layer, &act, ConvKind::Depthwise(fused_pw), &mut stats)?;
                    // Fused, the block's output is the pointwise layer's.
                    finish(fused_pw.unwrap_or(layer), &mut act);
                    skip_next_conv = fused_pw.is_some();
                }
                Node::MaxPool(k, s, p) => act = ops::max_pool(&act, *k, *s, *p),
                Node::GlobalAvgPool => act = ops::global_avg_pool(&act),
                Node::Fc(fc) => {
                    act = ops::fully_connected(self.pool, &act, &fc.weight, &fc.bias);
                    if fc.relu {
                        ops::relu(&mut act);
                    }
                }
                Node::Softmax => ops::softmax(&mut act),
                Node::Save => saved = Some(act.clone()),
                Node::ResidualJoin(proj) => {
                    if skip_next_join {
                        // The preceding conv already consumed the shortcut;
                        // it also applied the trailing ReLU.
                        skip_next_join = false;
                        continue;
                    }
                    let mut shortcut = saved.take().ok_or(ModelError::MissingSave)?;
                    if let Some(layer) = proj {
                        shortcut =
                            self.conv(layer, &shortcut, ConvKind::Standard(None), &mut stats)?;
                        finish(layer, &mut shortcut);
                    }
                    ops::add_inplace(&mut act, &shortcut);
                    ops::relu(&mut act);
                }
            }
        }
        stats.total = start.elapsed();
        Ok((act, stats))
    }

    /// Runs one convolution node's kernel on `act` — shape derivation,
    /// output allocation (or the shortcut as the seed), the timed call and
    /// the `stats` update — and returns the raw output; the affine and
    /// ReLU are [`finish`]'s.
    fn conv(
        &self,
        layer: &ConvLayer,
        act: &Tensor4,
        kind: ConvKind<'_>,
        stats: &mut InferenceStats,
    ) -> Result<Tensor4, ModelError> {
        let (n, c, h, w) = act.dims();
        let shape = match kind {
            ConvKind::Standard(_) => layer.try_shape_for(n, c, h, w)?,
            ConvKind::Depthwise(_) => layer.try_depthwise_shape_for(n, c, h, w)?,
        };
        // A fused dw+pw block counts both its convolutions, as unfused.
        let convs = if matches!(kind, ConvKind::Depthwise(Some(_))) { 2 } else { 1 };
        let t0 = Instant::now();
        let out = match kind {
            ConvKind::Standard(seed) => {
                let expected = (n, layer.k, shape.p(), shape.q());
                let mut out = match seed {
                    Some(shortcut) if shortcut.dims() != expected => {
                        return Err(ModelError::ShortcutMismatch {
                            expected,
                            got: shortcut.dims(),
                        });
                    }
                    Some(shortcut) => shortcut,
                    None => Tensor4::output_for(&shape, ActLayout::Nchw),
                };
                self.backend
                    .conv(self.pool, act, &layer.filter, &shape, &mut out);
                out
            }
            ConvKind::Depthwise(None) => {
                ndirect_core::try_conv_depthwise(self.pool, act, &layer.filter, &shape)?
            }
            ConvKind::Depthwise(Some(pw)) => ndirect_core::try_conv_dwpw_fused_with(
                self.pool,
                act,
                &layer.filter,
                &pw.filter,
                &shape,
                layer.relu,
            )?,
        };
        stats.conv_time += t0.elapsed();
        stats.convs += convs;
        Ok(out)
    }
}

/// Which kernel a convolution node runs, and what its output starts from.
enum ConvKind<'m> {
    /// The backend's convolution, accumulating onto the given seed (the
    /// saved shortcut, under residual fusion) or else into a fresh zeroed
    /// output.
    Standard(Option<Tensor4>),
    /// nDirect's depthwise kernel — none of the baseline libraries
    /// implement depthwise, so (as in real frameworks) the operator is
    /// routed to the dedicated implementation regardless of the
    /// standard-conv backend — fused with the given pointwise layer when
    /// there is one.
    Depthwise(Option<&'m ConvLayer>),
}

/// Whether the layer's post-affine is the identity.
fn identity_affine(layer: &ConvLayer) -> bool {
    layer.scale.iter().all(|&s| s == 1.0) && layer.shift.iter().all(|&b| b == 0.0)
}

/// The layer's folded batch-norm affine and optional ReLU, on its output.
fn finish(layer: &ConvLayer, out: &mut Tensor4) {
    ops::scale_shift(out, &layer.scale, &layer.shift);
    if layer.relu {
        ops::relu(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::FcLayer;
    use ndirect_baselines::{Im2colBackend, NaiveBackend};
    use ndirect_tensor::{fill, Filter, FilterLayout};

    fn tiny_model(seed: u64) -> Model {
        let mk_conv = |c: usize, k: usize, rs: usize, stride: usize, pad: usize, relu: bool| {
            crate::layer::ConvLayer {
                k,
                rs,
                stride,
                pad,
                filter: fill::random_filter(
                    Filter::zeros(k, c, rs, rs, FilterLayout::Kcrs),
                    seed ^ (c as u64) << 8 ^ k as u64,
                ),
                scale: vec![0.5; k],
                shift: vec![0.1; k],
                relu,
            }
        };
        Model {
            name: "tiny".into(),
            input: (3, 12, 12),
            nodes: vec![
                Node::Conv(mk_conv(3, 8, 3, 1, 1, true)),
                Node::Save,
                Node::Conv(mk_conv(8, 8, 3, 1, 1, true)),
                Node::Conv(mk_conv(8, 8, 3, 1, 1, false)),
                Node::ResidualJoin(None),
                Node::MaxPool(2, 2, 0),
                Node::Save,
                Node::Conv(mk_conv(8, 16, 3, 2, 1, false)),
                Node::ResidualJoin(Some(mk_conv(8, 16, 1, 2, 0, false))),
                Node::GlobalAvgPool,
                Node::Fc(FcLayer {
                    out: 10,
                    weight: (0..10 * 16).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
                    bias: vec![0.05; 10],
                    relu: false,
                }),
                Node::Softmax,
            ],
        }
    }

    #[test]
    fn engine_runs_and_outputs_probabilities() {
        let model = tiny_model(11);
        let pool = StaticPool::new(1);
        let engine = Engine::new(&NaiveBackend, &pool);
        let input = fill::random_tensor(Tensor4::zeros(2, 3, 12, 12, ActLayout::Nchw), 5);
        let (out, stats) = engine.run(&model, &input);
        assert_eq!(out.dims(), (2, 10, 1, 1));
        for n in 0..2 {
            let sum: f32 = (0..10).map(|c| out.at(n, c, 0, 0)).sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        assert_eq!(stats.convs, 5, "4 main convs + 1 projection");
        assert!(stats.conv_time <= stats.total);
    }

    #[test]
    fn backends_agree_end_to_end() {
        let model = tiny_model(13);
        let pool = StaticPool::new(2);
        let input = fill::random_tensor(Tensor4::zeros(2, 3, 12, 12, ActLayout::Nchw), 6);
        let (ref_out, _) = Engine::new(&NaiveBackend, &pool).run(&model, &input);
        let (gemm_out, _) = Engine::new(&Im2colBackend, &pool).run(&model, &input);
        let nd = crate::backend::NDirectBackend::host();
        let (nd_out, _) = Engine::new(&nd, &pool).run(&model, &input);
        ndirect_tensor::assert_close(gemm_out.as_slice(), ref_out.as_slice(), 1e-3, "im2col e2e");
        ndirect_tensor::assert_close(nd_out.as_slice(), ref_out.as_slice(), 1e-3, "ndirect e2e");
    }

    #[test]
    fn residual_fusion_matches_unfused() {
        // tiny_resnet has identity-shortcut bottlenecks with unit affines —
        // the fusable pattern (tiny_model's scale=0.5 blocks fusion).
        let model = crate::zoo::tiny_resnet(21);
        let pool = StaticPool::new(2);
        let nd = crate::backend::NDirectBackend::host();
        let input = fill::random_tensor(Tensor4::zeros(2, 3, 32, 32, ActLayout::Nchw), 22);
        let (plain, s_plain) = Engine::new(&nd, &pool).run(&model, &input);
        let (fused, s_fused) = Engine::new(&nd, &pool)
            .with_residual_fusion(true)
            .run(&model, &input);
        // Same convs executed; the identity-shortcut block fuses.
        assert_eq!(s_plain.convs, s_fused.convs);
        ndirect_tensor::assert_close(
            fused.as_slice(),
            plain.as_slice(),
            1e-4,
            "residual fusion",
        );
    }

    #[test]
    fn dwpw_fusion_matches_unfused() {
        // mobilenet_lite's dw layers carry identity affines with ReLU —
        // exactly the fusable pattern; every dw→pw pair fuses.
        let model = crate::zoo::mobilenet_lite(31);
        let pool = StaticPool::new(2);
        let nd = crate::backend::NDirectBackend::host();
        let input = fill::random_tensor(Tensor4::zeros(1, 3, 224, 224, ActLayout::Nchw), 32);
        let (plain, s_plain) = Engine::new(&nd, &pool).run(&model, &input);
        let (fused, s_fused) = Engine::new(&nd, &pool)
            .with_dwpw_fusion(true)
            .run(&model, &input);
        assert_eq!(s_plain.convs, s_fused.convs, "fusion keeps the conv count");
        ndirect_tensor::assert_close(
            fused.as_slice(),
            plain.as_slice(),
            1e-4,
            "dwpw fusion",
        );
    }

    #[test]
    fn dwpw_fusion_skips_non_identity_depthwise_affine() {
        // A dw layer with a real affine must fall back to the unfused
        // path (the affine runs between the stages).
        let pool = StaticPool::new(1);
        let mk = |c: usize, k: usize| {
            fill::random_filter(Filter::zeros(k, c, 1, 1, FilterLayout::Kcrs), 41)
        };
        let dw = crate::layer::ConvLayer {
            k: 8,
            rs: 3,
            stride: 1,
            pad: 1,
            filter: fill::random_filter(Filter::zeros(8, 1, 3, 3, FilterLayout::Kcrs), 42),
            scale: vec![0.5; 8],
            shift: vec![0.1; 8],
            relu: true,
        };
        let pw = crate::layer::ConvLayer {
            k: 12,
            rs: 1,
            stride: 1,
            pad: 0,
            filter: mk(8, 12),
            scale: vec![1.0; 12],
            shift: vec![0.0; 12],
            relu: true,
        };
        let model = Model {
            name: "affine-dw".into(),
            input: (8, 10, 10),
            nodes: vec![Node::DepthwiseConv(dw), Node::Conv(pw)],
        };
        let nd = crate::backend::NDirectBackend::host();
        let input = fill::random_tensor(Tensor4::zeros(1, 8, 10, 10, ActLayout::Nchw), 43);
        let (plain, _) = Engine::new(&nd, &pool).run(&model, &input);
        let (maybe_fused, _) = Engine::new(&nd, &pool)
            .with_dwpw_fusion(true)
            .run(&model, &input);
        assert_eq!(plain.as_slice(), maybe_fused.as_slice(), "must not fuse");
    }

    #[test]
    fn residual_fusion_noop_for_non_accumulating_backend() {
        let model = tiny_model(23);
        let pool = StaticPool::new(1);
        let input = fill::random_tensor(Tensor4::zeros(1, 3, 12, 12, ActLayout::Nchw), 24);
        // NaiveBackend overwrites its output, so fusion must not trigger.
        let (a, _) = Engine::new(&NaiveBackend, &pool).run(&model, &input);
        let (b, _) = Engine::new(&NaiveBackend, &pool)
            .with_residual_fusion(true)
            .run(&model, &input);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "input does not match")]
    fn engine_rejects_wrong_input_shape() {
        let model = tiny_model(1);
        let pool = StaticPool::new(1);
        let engine = Engine::new(&NaiveBackend, &pool);
        let input = Tensor4::zeros(1, 3, 10, 10, ActLayout::Nchw);
        engine.run(&model, &input);
    }
}
