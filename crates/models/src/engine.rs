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
}

impl<'a> Engine<'a> {
    /// Builds an engine.
    pub fn new(backend: &'a dyn Convolution, pool: &'a StaticPool) -> Self {
        Self {
            backend,
            pool,
            fuse_residual: false,
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
        for (i, node) in model.nodes.iter().enumerate() {
            // One timeline span per node so NDIRECT_PROBE traces show the
            // per-layer structure of a run (arg = node index).
            let _layer = ndirect_probe::probe_span!(Layer, i);
            match node {
                Node::Conv(layer) => {
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
                    act = self.conv(layer, &act, ConvKind::Depthwise, &mut stats)?;
                    finish(layer, &mut act);
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
        kind: ConvKind,
        stats: &mut InferenceStats,
    ) -> Result<Tensor4, ModelError> {
        let (n, c, h, w) = act.dims();
        let shape = match kind {
            ConvKind::Standard(_) => layer.try_shape_for(n, c, h, w)?,
            ConvKind::Depthwise => layer.try_depthwise_shape_for(n, c, h, w)?,
        };
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
            ConvKind::Depthwise => {
                ndirect_core::try_conv_depthwise(self.pool, act, &layer.filter, &shape)?
            }
        };
        stats.conv_time += t0.elapsed();
        stats.convs += 1;
        Ok(out)
    }
}

/// Which kernel a convolution node runs, and what its output starts from.
enum ConvKind {
    /// The backend's convolution, accumulating onto the given seed (the
    /// saved shortcut, under residual fusion) or else into a fresh zeroed
    /// output.
    Standard(Option<Tensor4>),
    /// nDirect's depthwise kernel — none of the baseline libraries
    /// implement depthwise, so (as in real frameworks) the operator is
    /// routed to the dedicated implementation regardless of the
    /// standard-conv backend.
    Depthwise,
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
