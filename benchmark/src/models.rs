//! `resnet50_b1`, `vgg16_b1`, `mobilenet_b1`: whole models at batch 1
//! through `models::Engine` on the nDirect backend, default engine flags.
//! An operation is one inference.
//!
//! The traced part is a replay: a walker over the public `Model::nodes`
//! that calls the same public functions `Engine::try_run` calls, on the
//! same backend and pool, one span per call. Its final tensor must equal
//! the engine's bit for bit, so Σ spans against the untraced wall is an
//! accounting identity and the residue is the interpreter.

use std::time::{Duration, Instant};

use ndirect_baselines::{Convolution, Im2colBackend};
use ndirect_core::{ConvPlan, DepthwisePlan, FusedDwPwPlan};
use ndirect_models::{ops, ConvLayer, Engine, Model, NDirectBackend, Node};
use ndirect_platform::conv_min_traffic_bytes;
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;
use ndirect_workloads::MOBILENET;

use crate::common::{
    check_bitwise, check_probabilities, peak_rss_mib, repeat_setup, timed, Built, Outcome, RunArgs,
    Until, KERNEL_THREADS, TRACE_CAPACITY,
};
use crate::stats::{geomean, median, percentile};
use crate::trace::{SpanId, Trace};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Zoo {
    Resnet50,
    Vgg16,
    MobilenetLite,
}

/// Every standard convolution of the model at batch 1 (projection
/// shortcuts included), in execution order: what `Engine` will ask the
/// backend for, so what set-up prepares.
fn standard_convs(model: &Model) -> Vec<(ConvShape, &ConvLayer)> {
    let layers = model.nodes.iter().filter_map(|node| match node {
        Node::Conv(l) | Node::ResidualJoin(Some(l)) => Some(l),
        _ => None,
    });
    model.conv_shapes(1).into_iter().zip(layers).collect()
}

struct Program {
    pool: StaticPool,
    backend: NDirectBackend,
}

fn build(convs: &[(ConvShape, &ConvLayer)]) -> Built<Program> {
    let (pool_spawn, pool) = timed(|| StaticPool::new(KERNEL_THREADS));
    let (construct, backend) = timed(|| {
        let backend = NDirectBackend::host();
        for (shape, layer) in convs {
            backend.prepare(shape, &layer.filter, KERNEL_THREADS);
        }
        backend
    });
    Built {
        pool_spawn,
        construct,
        value: Program { pool, backend },
    }
}

#[derive(Default)]
struct Samples {
    latency_ms: Vec<f64>,
    conv_fraction: Vec<f64>,
    failed: u64,
    wall: Duration,
}

fn infer(program: &Program, model: &Model, input: &Tensor4, until: Until) -> Samples {
    let engine = Engine::new(&program.backend, &program.pool);
    let mut samples = Samples::default();
    let start = Instant::now();
    loop {
        let (t, result) = timed(|| engine.try_run(model, input));
        samples.latency_ms.push(t.as_secs_f64() * 1e3);
        match result {
            Ok((_, stats)) => samples.conv_fraction.push(stats.conv_fraction()),
            Err(_) => samples.failed += 1,
        }
        if until.reached(samples.latency_ms.len() as u64, start) {
            break;
        }
    }
    samples.wall = start.elapsed();
    samples
}

/// The calls `Engine::try_run` makes for one conv node, one span each.
fn conv_node(
    backend: &dyn Convolution,
    pool: &StaticPool,
    layer: &ConvLayer,
    act: &Tensor4,
    trace: &mut Trace,
    parent: Option<SpanId>,
    op: u32,
) -> Tensor4 {
    let (n, c, h, w) = act.dims();
    let shape = layer.shape_for(n, c, h, w);
    let mut out = trace.span("tensor.alloc", parent, op, || {
        Tensor4::output_for(&shape, ActLayout::Nchw)
    });
    trace.span("core.conv", parent, op, || {
        backend.conv(pool, act, &layer.filter, &shape, &mut out)
    });
    affine_relu(layer, &mut out, trace, parent, op);
    out
}

fn affine_relu(
    layer: &ConvLayer,
    out: &mut Tensor4,
    trace: &mut Trace,
    parent: Option<SpanId>,
    op: u32,
) {
    trace.span("models.ops.affine_relu", parent, op, || {
        ops::scale_shift(out, &layer.scale, &layer.shift);
        if layer.relu {
            ops::relu(out);
        }
    });
}

/// One forward pass, call for call what `Engine::try_run` does with its
/// default flags, under one `inference` span.
fn replay(
    program: &Program,
    model: &Model,
    input: &Tensor4,
    trace: &mut Trace,
    op: u32,
) -> Tensor4 {
    let (backend, pool) = (&program.backend, &program.pool);
    let root = trace.open("inference", None, op);
    let mut act = trace.span("tensor.alloc", root, op, || input.clone());
    let mut saved: Option<Tensor4> = None;
    for node in &model.nodes {
        match node {
            Node::Conv(layer) => act = conv_node(backend, pool, layer, &act, trace, root, op),
            Node::DepthwiseConv(layer) => {
                let (n, c, h, w) = act.dims();
                let shape = layer.depthwise_shape_for(n, c, h, w);
                let mut out = trace.span("core.depthwise", root, op, || {
                    ndirect_core::conv_depthwise(pool, &act, &layer.filter, &shape)
                });
                affine_relu(layer, &mut out, trace, root, op);
                act = out;
            }
            Node::MaxPool(k, s, p) => {
                act = trace.span("models.ops.pool", root, op, || {
                    ops::max_pool(&act, *k, *s, *p)
                })
            }
            Node::GlobalAvgPool => {
                act = trace.span("models.ops.pool", root, op, || ops::global_avg_pool(&act))
            }
            Node::Fc(fc) => {
                act = trace.span("models.ops.fc", root, op, || {
                    let mut out = ops::fully_connected(pool, &act, &fc.weight, &fc.bias);
                    if fc.relu {
                        ops::relu(&mut out);
                    }
                    out
                })
            }
            Node::Softmax => trace.span("models.ops.softmax", root, op, || ops::softmax(&mut act)),
            Node::Save => saved = Some(trace.span("tensor.alloc", root, op, || act.clone())),
            Node::ResidualJoin(proj) => {
                let shortcut_in = saved.take().expect("zoo models save before they join");
                let shortcut = match proj {
                    Some(layer) => conv_node(backend, pool, layer, &shortcut_in, trace, root, op),
                    None => shortcut_in,
                };
                trace.span("models.ops.residual", root, op, || {
                    ops::add_inplace(&mut act, &shortcut);
                    ops::relu(&mut act);
                });
            }
        }
    }
    trace.close(root);
    act
}

/// `core.dwpw_fused_speedup`: over the 13 full-width MobileNetV1 blocks,
/// depthwise plan + 1×1 plan against the fused plan. On no end-to-end path
/// while fusion is an opt-in engine flag.
fn dwpw_fused_speedup(pool: &StaticPool, seed: u64, outcome: &mut Outcome) -> f64 {
    const REPS: usize = 5;
    let platform = ndirect_platform::host();
    let speedups: Vec<f64> = MOBILENET
        .iter()
        .map(|cfg| {
            let (dw_shape, pw_shape) = (cfg.dw_shape(1), cfg.pw_shape(1));
            let seed = seed.wrapping_mul(1000) + cfg.id as u64;
            let input = fill::random_tensor(Tensor4::input_for(&dw_shape, ActLayout::Nchw), seed);
            let dwf =
                fill::random_filter(Filter::zeros(cfg.c, 1, 3, 3, FilterLayout::Kcrs), seed ^ 1);
            let pwf = fill::random_filter(
                Filter::zeros(cfg.k, cfg.c, 1, 1, FilterLayout::Kcrs),
                seed ^ 2,
            );
            let fused = FusedDwPwPlan::try_new(&platform, &dw_shape, &dwf, &pwf, KERNEL_THREADS)
                .unwrap_or_else(|e| panic!("fused plan, block {}: {e}", cfg.id));
            let dw = DepthwisePlan::try_new(&dw_shape, &dwf, KERNEL_THREADS)
                .unwrap_or_else(|e| panic!("depthwise plan, block {}: {e}", cfg.id));
            let pw = ConvPlan::try_new(&platform, &pw_shape, &pwf, KERNEL_THREADS)
                .unwrap_or_else(|e| panic!("pointwise plan, block {}: {e}", cfg.id));
            let mut mid = Tensor4::output_for(&dw_shape, ActLayout::Nchw);
            let mut out = Tensor4::output_for(&pw_shape, ActLayout::Nchw);
            // Both paths accumulate into `out`, so both pay its zero-fill.
            let mut time = |fused_path: bool| -> f64 {
                let samples: Vec<f64> = (0..=REPS)
                    .map(|_| {
                        let (t, result) = timed(|| {
                            out.fill_zero();
                            if fused_path {
                                fused.execute(pool, &input, &mut out)
                            } else {
                                dw.execute(pool, &input, &mut mid)
                                    .and_then(|()| pw.execute(pool, &mid, &mut out))
                            }
                        });
                        outcome.attempted += 1;
                        outcome.failed += u64::from(result.is_err());
                        t.as_secs_f64()
                    })
                    .skip(1) // the first call warms the plan's scratch
                    .collect();
                median(&samples)
            };
            let unfused_s = time(false);
            unfused_s / time(true)
        })
        .collect();
    geomean(&speedups)
}

pub fn run(zoo: Zoo, args: &RunArgs) -> Outcome {
    let model = match zoo {
        Zoo::Resnet50 => ndirect_models::resnet50(args.seed),
        Zoo::Vgg16 => ndirect_models::vgg16(args.seed),
        Zoo::MobilenetLite => ndirect_models::mobilenet_lite(args.seed),
    };
    let (c, h, w) = model.input;
    let input = fill::random_tensor(
        Tensor4::zeros(1, c, h, w, ActLayout::Nchw),
        args.seed.wrapping_mul(1000) + 7,
    );
    let convs = standard_convs(&model);
    let mut outcome = Outcome::default();

    let setup = repeat_setup(|| build(&convs));
    let program = setup.value;
    // Warm-up, outside the timed window; its output is what the replay and
    // the oracle are checked against.
    let (engine_out, _) = Engine::new(&program.backend, &program.pool)
        .try_run(&model, &input)
        .unwrap_or_else(|e| panic!("{}: warm-up inference: {e}", model.name));

    let timed_run = infer(&program, &model, &input, args.window());
    // p50 for the accounting against per-call span medians, p75 for what is
    // gated (see layers.rs on why the upper quartile).
    let p50 = median(&timed_run.latency_ms);
    let p75 = percentile(&timed_run.latency_ms, 75.0);
    let flops = model.conv_flops(1);
    outcome.attempted += timed_run.latency_ms.len() as u64;
    outcome.failed += timed_run.failed;
    outcome.note(format!(
        "{}: {} inferences in {:.2} s, {} conv nodes, {:.3} GFLOP of convolution each",
        model.name,
        timed_run.latency_ms.len(),
        timed_run.wall.as_secs_f64(),
        model.conv_count(),
        flops as f64 / 1e9
    ));

    if args.trace {
        let mut trace = Trace::with_capacity(TRACE_CAPACITY);
        let start = Instant::now();
        let mut op = 0;
        let replay_out = loop {
            let out = replay(&program, &model, &input, &mut trace, op);
            op += 1;
            if args.window().reached(u64::from(op), start) {
                break out;
            }
        };
        outcome.attempted += u64::from(op);
        outcome.check(
            "replay output vs Engine::run output",
            check_bitwise(&replay_out, &engine_out),
        );

        let per_op = |name: &str| {
            let ms = trace.per_op_ms(name);
            if ms.is_empty() {
                0.0
            } else {
                median(&ms)
            }
        };
        let conv_ms = per_op("core.conv");
        let depthwise_ms = per_op("core.depthwise");
        let spans_ms = median(&trace.covered_per_op_ms("inference"));
        outcome.set("core.conv_ms", conv_ms);
        outcome.set("core.depthwise_ms", depthwise_ms);
        outcome.set(
            "core.conv_gflops",
            flops as f64 / (conv_ms + depthwise_ms) / 1e6,
        );
        outcome.set("models.conv_share", (conv_ms + depthwise_ms) / p50);
        outcome.set(
            "models.ops.affine_relu_ms",
            per_op("models.ops.affine_relu"),
        );
        outcome.set("models.ops.pool_ms", per_op("models.ops.pool"));
        outcome.set("models.ops.fc_ms", per_op("models.ops.fc"));
        outcome.set("models.ops.residual_ms", per_op("models.ops.residual"));
        outcome.set("models.ops.softmax_ms", per_op("models.ops.softmax"));
        outcome.set("tensor.alloc_ms", per_op("tensor.alloc"));
        outcome.set("models.engine.unattributed_ms", p50 - spans_ms);
        outcome.set("models.trace_coverage", spans_ms / p50);
        outcome.set(
            "models.engine.conv_fraction",
            median(&timed_run.conv_fraction),
        );
        outcome.set("models.plan_prepare_ms", setup.construct_ms);
        outcome.set("threads.pool_spawn_ms", setup.pool_spawn_ms);

        // Computed: the plans are the ones set-up cached, so this reads
        // the schedules the timed inferences ran.
        let pack: u64 = convs
            .iter()
            .map(|(shape, layer)| {
                program
                    .backend
                    .prepare(shape, &layer.filter, KERNEL_THREADS)
                    .schedule()
                    .predicted_pack_bytes_u64(shape)
            })
            .sum();
        let traffic: u64 = convs.iter().map(|(s, _)| conv_min_traffic_bytes(s)).sum();
        let standard_flops: u64 = convs.iter().map(|(s, _)| s.flops()).sum();
        outcome.set("core.flops", flops as f64);
        outcome.set("core.pack_bytes_predicted", pack as f64);
        outcome.set("core.min_traffic_bytes", traffic as f64);
        outcome.set(
            "core.intensity_flop_per_byte",
            standard_flops as f64 / traffic as f64,
        );

        if zoo == Zoo::MobilenetLite {
            let speedup = dwpw_fused_speedup(&program.pool, args.seed, &mut outcome);
            outcome.set("core.dwpw_fused_speedup", speedup);
        }

        outcome.set_trace_overhead(p50, p75, percentile(&trace.per_op_ms("inference"), 75.0));
        outcome.trace = Some(trace);
    } else {
        outcome.set("setup_s", setup.setup_s);
        outcome.set("latency_ms_p75", p75);
        outcome.set("gflops_delivered", flops as f64 / p75 / 1e6);
        outcome.set("peak_rss_mib", peak_rss_mib());
    }

    // Outside every timed window: a second, independent convolution
    // (im2col + GEMM) through the same engine.
    let (oracle_out, _) = Engine::new(&Im2colBackend, &program.pool)
        .try_run(&model, &input)
        .unwrap_or_else(|e| panic!("{}: oracle inference: {e}", model.name));
    outcome.check(
        "class probabilities vs Engine over Im2colBackend",
        check_probabilities(&engine_out, &oracle_out),
    );
    outcome
}
