//! End-to-end robustness suite: malformed inputs must come back as typed
//! errors from every fallible entry point, the thread pool must survive
//! panicking jobs and dead workers, and an unsupported-ISA host must
//! degrade to an error rather than crash.
//!
//! The ISA test flips a process-global hook, so every test that drives a
//! conv entry point (they all probe the ISA at the boundary) shares the
//! [`ISA_HOOK`] lock: conv tests take it shared, the hook test exclusively.

use std::sync::RwLock;

use ndirect_baselines::{naive, winograd, BaselineError};
use ndirect_core::{
    try_conv3d_ndirect, try_conv_depthwise, try_conv_int16, try_conv_ndirect,
    try_conv_ndirect_with, try_conv_quantized, Conv3dShape, ConvPlan, DepthwisePlan, Error,
    Int16Filter, Int16Tensor, Schedule,
};
use ndirect_gemm::GemmError;
use ndirect_models::{zoo, ConvLayer, Engine, Model, ModelError, NDirectBackend, Node};
use ndirect_support::Rng64;
use ndirect_tensor::{
    fill, ActLayout, ConvShape, Filter, Filter5, FilterLayout, Padding, ShapeError, Tensor4,
    Tensor5,
};
use ndirect_threads::{PoolError, StaticPool};

static ISA_HOOK: RwLock<()> = RwLock::new(());

fn read_hook() -> std::sync::RwLockReadGuard<'static, ()> {
    ISA_HOOK.read().unwrap_or_else(|p| p.into_inner())
}

fn small_problem() -> (ConvShape, Tensor4, Filter) {
    let shape = ConvShape::square(1, 4, 8, 6, 3, 1);
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 1);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 2);
    (shape, input, filter)
}

/// A 6-channel 3×3 depthwise problem on a 9×9 image.
fn depthwise_problem() -> (ConvShape, Tensor4, Filter) {
    let shape = ConvShape::new(1, 6, 9, 9, 6, 3, 3, 1, Padding::same(1));
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 3);
    let filter = fill::random_filter(Filter::zeros(6, 1, 3, 3, FilterLayout::Kcrs), 4);
    (shape, input, filter)
}

/// `DepthwiseConv → Conv(1×1)` over [`depthwise_problem`]'s input, the
/// depthwise affine the identity so the pair is fusable.
fn dw_then_pw_model() -> Model {
    let layer = |k: usize, rs: usize, pad: usize, filter: Filter| ConvLayer {
        k,
        rs,
        stride: 1,
        pad,
        filter,
        scale: vec![1.0; k],
        shift: vec![0.0; k],
        relu: true,
    };
    let pw = fill::random_filter(Filter::zeros(8, 6, 1, 1, FilterLayout::Kcrs), 5);
    Model {
        name: "dw-pw".into(),
        input: (6, 9, 9),
        nodes: vec![
            Node::DepthwiseConv(layer(6, 3, 1, depthwise_problem().2)),
            Node::Conv(layer(8, 1, 0, pw)),
        ],
    }
}

// ------------------------------------------------------------- shapes

#[test]
fn invalid_shapes_are_typed_errors_not_panics() {
    assert!(matches!(
        ConvShape::try_new(0, 3, 8, 8, 4, 3, 3, 1, Padding::NONE),
        Err(ShapeError::ZeroDim { name: "N" })
    ));
    assert!(matches!(
        ConvShape::try_new(1, 3, 8, 8, 4, 3, 3, 0, Padding::NONE),
        Err(ShapeError::ZeroStride)
    ));
    assert!(matches!(
        ConvShape::try_new(1, 3, 2, 8, 4, 5, 3, 1, Padding::NONE),
        Err(ShapeError::KernelExceedsInput { axis: 'h', .. })
    ));
    assert!(matches!(
        ConvShape::try_new(1, usize::MAX / 2, 8, 8, 4, 3, 3, 1, Padding::NONE),
        Err(ShapeError::Overflow { .. })
    ));
    assert!(matches!(
        Padding::try_same_for_kernel(4, 3),
        Err(ShapeError::EvenKernelSamePadding { r: 4, s: 3 })
    ));
}

#[test]
fn fuzzed_shape_construction_never_panics() {
    // Any usize 9-tuple must produce Ok(valid shape) or a typed error —
    // and an Ok shape must re-validate and have consistent element counts.
    let mut rng = Rng64::seed_from_u64(0x20b5);
    for case in 0..2000 {
        let extreme = |rng: &mut Rng64| match rng.gen_range_usize(0, 4) {
            0 => 0,
            1 => rng.gen_range_usize(1, 9),
            2 => rng.gen_range_usize(1, 1 << 20),
            _ => usize::MAX - rng.gen_range_usize(0, 4),
        };
        let (n, c, h, w) = (extreme(&mut rng), extreme(&mut rng), extreme(&mut rng), extreme(&mut rng));
        let (k, r, s) = (extreme(&mut rng), extreme(&mut rng), extreme(&mut rng));
        let stride = extreme(&mut rng);
        let pad = Padding {
            h: rng.gen_range_usize(0, 4),
            w: rng.gen_range_usize(0, 4),
        };
        if let Ok(shape) = ConvShape::try_new(n, c, h, w, k, r, s, stride, pad) {
            assert!(shape.validate().is_ok(), "case {case}: Ok shape must re-validate");
            assert!(
                shape.try_input_len().is_ok()
                    && shape.try_filter_len().is_ok()
                    && shape.try_output_len().is_ok(),
                "case {case}: Ok shape must have computable element counts"
            );
        }
    }
}

// ------------------------------------------------------- conv entry points

#[test]
fn wrong_layout_is_a_typed_error() {
    let _g = read_hook();
    let (shape, input, filter) = small_problem();
    let pool = StaticPool::new(1);
    let err = try_conv_ndirect(&pool, &input.to_layout(ActLayout::Nhwc), &filter, &shape)
        .expect_err("NHWC into the NCHW entry");
    assert!(matches!(err, Error::Layout { .. }), "{err}");
}

#[test]
fn layout_is_read_from_the_filter() {
    // Every (activation, filter) layout pair, through the one-shot entry
    // and through a plan built from the filter alone: a KCRS filter means
    // NCHW, a KRSC filter NHWC, and the other activation layout is refused
    // at execute. K = 13 and C = 5 leave Vk and Tc tails.
    let _g = read_hook();
    let shape = ConvShape::new(2, 5, 9, 11, 13, 3, 3, 1, Padding::same(1));
    let nchw = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 11);
    let kcrs = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 12);
    let (nhwc, krsc) = (nchw.to_layout(ActLayout::Nhwc), kcrs.to_layout(FilterLayout::Krsc));
    let sched = Schedule::minimal(&shape);
    let pool = StaticPool::new(1);
    let planned = |input: &Tensor4, filter: &Filter, layout| -> Result<Tensor4, Error> {
        let plan = ConvPlan::try_with_schedule(&shape, filter, &sched)?;
        let mut out = Tensor4::output_for(&shape, layout);
        plan.execute(&pool, input, &mut out)?;
        Ok(out)
    };
    let cases = [
        (&nchw, &kcrs, ActLayout::Nchw, true),
        (&nhwc, &krsc, ActLayout::Nhwc, true),
        (&nhwc, &kcrs, ActLayout::Nchw, false),
        (&nchw, &krsc, ActLayout::Nhwc, false),
    ];
    let mut want = None;
    for (input, filter, layout, matched) in cases {
        let what = format!("{:?} input, {:?} filter", input.layout(), filter.layout());
        let oneshot = try_conv_ndirect_with(&pool, input, filter, &shape, &sched);
        let plan = planned(input, filter, layout);
        if !matched {
            for got in [oneshot, plan] {
                assert!(matches!(got, Err(Error::Layout { .. })), "{what}: {got:?}");
            }
            continue;
        }
        for got in [oneshot, plan] {
            let got = got.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(got.layout(), layout, "{what}");
            // NHWC/KRSC is NCHW/KCRS transposed, bit for bit.
            let bits = got.to_layout(ActLayout::Nchw).as_slice().to_vec();
            assert_eq!(bits, *want.get_or_insert_with(|| bits.clone()), "{what}");
        }
    }
}

#[test]
fn wrong_dims_are_a_typed_error() {
    let _g = read_hook();
    let (shape, _, filter) = small_problem();
    let pool = StaticPool::new(1);
    let wrong = Tensor4::zeros(1, 4, 9, 9, ActLayout::Nchw);
    let err = try_conv_ndirect(&pool, &wrong, &filter, &shape).expect_err("dims disagree");
    assert!(matches!(err, Error::DimMismatch { what: "input dims", .. }), "{err}");
}

#[test]
fn oversized_grid_is_a_typed_error() {
    let _g = read_hook();
    let (shape, input, filter) = small_problem();
    let pool = StaticPool::new(1);
    let mut sched = Schedule::minimal(&shape);
    sched.grid = ndirect_threads::Grid2::new(2, 2);
    let err = try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
        .expect_err("4-thread grid on 1-thread pool");
    assert!(
        matches!(err, Error::GridExceedsPool { needed: 4, available: 1 }),
        "{err}"
    );
}

#[test]
fn non_depthwise_shape_is_a_typed_error() {
    let _g = read_hook();
    let shape = ConvShape::square(1, 4, 8, 8, 3, 1); // K=8 != C=4
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 3);
    let dw = Filter::zeros(4, 1, 3, 3, FilterLayout::Kcrs);
    let pool = StaticPool::new(1);
    let err = try_conv_depthwise(&pool, &input, &dw, &shape).expect_err("K != C");
    assert!(matches!(err, Error::NotDepthwise { k: 8, c: 4 }), "{err}");
}

// ------------------------------------------------------------ plan sharing

#[test]
fn shared_plan_is_safe_across_threads_and_bitwise_deterministic() {
    // One ConvPlan behind an Arc, executed concurrently from two OS
    // threads on *different* inputs with their own pools and outputs,
    // must produce exactly the bits sequential execution produces: the
    // scratch arena hands each concurrent execute a disjoint lease and
    // the packed filter is only ever read.
    let _g = read_hook();
    let shape = ConvShape::square(2, 5, 9, 8, 3, 1);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 11);
    let mut sched = Schedule::minimal(&shape);
    sched.grid = ndirect_threads::Grid2::new(1, 2);
    let plan = std::sync::Arc::new(
        ndirect_core::ConvPlan::try_with_schedule(&shape, &filter, &sched).unwrap(),
    );
    // Pre-populate the arena so both threads hit the pooled path.
    plan.reserve_scratch(2).unwrap();

    let inputs: Vec<Tensor4> = (0..2)
        .map(|i| fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 20 + i))
        .collect();
    let sequential: Vec<Tensor4> = inputs
        .iter()
        .map(|input| {
            let pool = StaticPool::new(2);
            let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
            plan.execute(&pool, input, &mut out).unwrap();
            out
        })
        .collect();

    for _round in 0..4 {
        let concurrent: Vec<Tensor4> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|input| {
                    let plan = std::sync::Arc::clone(&plan);
                    scope.spawn(move || {
                        let pool = StaticPool::new(2);
                        let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
                        plan.execute(&pool, input, &mut out).unwrap();
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (got, want) in concurrent.iter().zip(&sequential) {
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "concurrent execute must be bitwise identical to sequential"
            );
        }
    }
}

#[test]
fn baseline_rejects_malformed_input_with_typed_error() {
    let (shape, _, filter) = small_problem();
    let wrong = Tensor4::zeros(2, 4, 8, 8, ActLayout::Nchw);
    let err = naive::try_conv_ref(&wrong, &filter, &shape).expect_err("batch mismatch");
    assert!(matches!(err, BaselineError::DimMismatch { .. }), "{err}");

    let pool = StaticPool::new(1);
    let shape5 = ConvShape::square(1, 4, 8, 8, 5, 1);
    let input5 = fill::random_tensor(Tensor4::input_for(&shape5, ActLayout::Nchw), 4);
    let filter5 = fill::random_filter(Filter::for_shape(&shape5, FilterLayout::Kcrs), 5);
    let err = winograd::try_conv_winograd(&pool, &input5, &filter5, &shape5)
        .expect_err("winograd needs 3x3");
    assert!(matches!(err, BaselineError::Unsupported { .. }), "{err}");
}

#[test]
fn gemm_rejects_short_operands_with_typed_error() {
    let a = vec![0.0f32; 4];
    let b = vec![0.0f32; 9];
    let mut c = vec![0.0f32; 6];
    let err = ndirect_gemm::try_gemm(2, 3, 3, &a, &b, &mut c).expect_err("A is short");
    assert!(matches!(err, GemmError::OperandSize { name: "A", .. }), "{err}");

    let a = vec![0.0f32; 6];
    let err = ndirect_gemm::try_gemm_strided(2, 3, 3, &a, 2, &b, 3, &mut c, 3, ndirect_gemm::BlockSizes::default())
        .expect_err("lda < k");
    assert!(matches!(err, GemmError::LeadingDim { name: "lda", .. }), "{err}");
}

#[test]
fn engine_rejects_mismatched_input_with_typed_error() {
    let _g = read_hook();
    let pool = StaticPool::new(1);
    let backend = NDirectBackend::host();
    let engine = Engine::new(&backend, &pool);
    let model = zoo::tiny_resnet(11);
    let wrong = Tensor4::zeros(1, 3, 16, 16, ActLayout::Nchw);
    let err = engine.try_run(&model, &wrong).expect_err("16x16 into a 32x32 model");
    assert!(matches!(err, ModelError::InputMismatch { .. }), "{err}");

    let bad_layout = Tensor4::zeros(1, 3, 32, 32, ActLayout::Nhwc);
    let err = engine.try_run(&model, &bad_layout).expect_err("engine runs NCHW");
    assert!(matches!(err, ModelError::Layout), "{err}");
}

// ------------------------------------------------------------- thread pool

#[test]
fn nested_region_is_a_typed_error() {
    let pool = StaticPool::new(2);
    let inner = std::sync::Mutex::new(None);
    pool.run(|tid| {
        if tid == 0 {
            // Record, don't assert: panicking here would abort the region.
            *inner.lock().unwrap() = Some(pool.try_run(|_| {}));
        }
    });
    assert_eq!(inner.into_inner().unwrap(), Some(Err(PoolError::NestedRun)));
    // The outer region exited cleanly; the pool is still usable.
    assert!(pool.try_run(|_| {}).is_ok());
}

#[test]
fn pool_survives_panicking_jobs_and_stays_usable() {
    let pool = StaticPool::new(4);
    for round in 0..3 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == round % 4 {
                    panic!("job failure in round {round}");
                }
            });
        }));
        assert!(result.is_err(), "round {round}: panic must propagate");

        // The pool must heal and run the full team again.
        let hits = std::sync::Mutex::new(vec![false; 4]);
        pool.run(|tid| hits.lock().unwrap()[tid] = true);
        assert!(
            hits.lock().unwrap().iter().all(|&h| h),
            "round {round}: all threads must run after a panic"
        );
    }
}

#[test]
fn pool_respawns_dead_workers() {
    let pool = StaticPool::new(3);
    pool.run(|_| {});
    pool.__test_kill_one_worker();
    // The next region must heal the team before dispatching work.
    let hits = std::sync::Mutex::new(vec![false; 3]);
    pool.run(|tid| hits.lock().unwrap()[tid] = true);
    assert!(hits.lock().unwrap().iter().all(|&h| h));
    assert_eq!(pool.live_workers(), 2, "size-3 pool keeps 2 workers");
}

// ----------------------------------------------------- forced degradation

/// Mirrors the scratch-provisioning arithmetic of the core driver: the
/// per-grid f32 element request for `sched` on `shape`.
fn scratch_elements(sched: &Schedule, shape: &ConvShape) -> usize {
    let win = (sched.vw - 1) * shape.stride + shape.s;
    let bbuf = sched.tc * shape.r * win;
    let tfbuf = sched.tk.div_ceil(sched.vk) * (sched.tc * shape.r * shape.s * sched.vk);
    (bbuf + tfbuf) * sched.grid.threads()
}

#[test]
fn forced_scratch_refusal_in_extension_drivers_is_a_typed_error() {
    // The depthwise and INT16 drivers have no smaller schedule to fall back
    // to, and the 3-D plan none below the minimal one, so a refused scratch
    // request must come back as `ScratchAlloc` from the `try_` entry point,
    // never an allocator abort on a worker thread. Write lock: the limit
    // hook is process-global.
    let _g = ISA_HOOK.write().unwrap_or_else(|p| p.into_inner());
    let (shape, _, _) = small_problem();
    let pool = StaticPool::new(2);
    let shape3 = ndirect_core::Conv3dShape {
        n: 1, c: 2, d: 4, h: 5, w: 6, k: 4, t: 3, r: 3, s: 3,
        stride: 1, pad_d: 1, pad_h: 1, pad_w: 1,
    };
    let input3 = ndirect_tensor::Tensor5::zeros(1, 2, 4, 5, 6);
    let filter3 = ndirect_tensor::Filter5::zeros(4, 2, 3, 3, 3);

    let (dw_shape, dw_input, dw_filter) = depthwise_problem();
    let input16 = ndirect_core::Int16Tensor::zeros(shape.n, shape.c, shape.h, shape.w);
    let filter16 = ndirect_core::Int16Filter::zeros(shape.k, shape.c, shape.r, shape.s);

    ndirect_core::conv::__set_scratch_element_limit(0);
    let c3 = ndirect_core::try_conv3d_ndirect(&pool, &input3, &filter3, &shape3);
    let dw = try_conv_depthwise(&pool, &dw_input, &dw_filter, &dw_shape);
    let dw_plan = DepthwisePlan::try_new(&dw_shape, &dw_filter, 2).map(|_| ());
    let i16 = ndirect_core::try_conv_int16(&pool, &input16, &filter16, &shape);
    ndirect_core::conv::__set_scratch_element_limit(usize::MAX);

    assert!(matches!(c3, Err(Error::ScratchAlloc { elements }) if elements > 0), "{c3:?}");
    assert!(matches!(dw, Err(Error::ScratchAlloc { elements }) if elements > 0), "{dw:?}");
    assert!(
        matches!(dw_plan, Err(Error::ScratchAlloc { elements }) if elements > 0),
        "{dw_plan:?}"
    );
    assert!(matches!(i16, Err(Error::ScratchAlloc { elements }) if elements > 0), "{i16:?}");
    // With the cap lifted all run.
    ndirect_core::try_conv3d_ndirect(&pool, &input3, &filter3, &shape3).expect("no cap");
    try_conv_depthwise(&pool, &dw_input, &dw_filter, &dw_shape).expect("no cap");
    ndirect_core::try_conv_int16(&pool, &input16, &filter16, &shape).expect("no cap");
}

#[test]
fn forced_scratch_refusal_degrades_once_and_preserves_bits() {
    // The limit hook is process-global like the ISA hook, so this test
    // takes the write lock: no other conv may run (and possibly trip the
    // injected refusal, or degrade and move the probe counter) meanwhile.
    let _g = ISA_HOOK.write().unwrap_or_else(|p| p.into_inner());
    let shape = ConvShape::square(1, 64, 64, 32, 3, 1);
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 7);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 8);
    let pool = StaticPool::new(1);

    let requested = Schedule::derive(&ndirect_platform::host(), &shape, 1).sanitized(&shape);
    // The fallback the plan layer would build, for sizing the injected
    // ceiling between the two requests.
    let mut fallback = Schedule::minimal(&shape)
        .with_grid(requested.grid)
        .with_packing(requested.packing)
        .with_filter_state(requested.filter_state)
        .sanitized(&shape);
    fallback.vw = fallback.vw.min(requested.vw);
    let want = scratch_elements(&requested, &shape);
    let floor = scratch_elements(&fallback, &shape);
    assert!(
        floor < want,
        "test needs headroom between minimal ({floor}) and derived ({want}) scratch"
    );

    // Cap provisioning below the derived request: the build must degrade
    // to the minimal-tile schedule, exactly once, and say so.
    ndirect_core::conv::__set_scratch_element_limit(want - 1);
    let before = ndirect_probe::counter(ndirect_probe::Counter::MinimalScheduleDegradations);
    let plan = ndirect_core::ConvPlan::try_with_schedule(&shape, &filter, &requested);
    let delta =
        ndirect_probe::counter(ndirect_probe::Counter::MinimalScheduleDegradations) - before;
    ndirect_core::conv::__set_scratch_element_limit(usize::MAX);

    let plan = plan.expect("the minimal fallback fits under the cap");
    assert!(plan.degraded(), "refused scratch must surface as degraded()");
    let expected_delta = if ndirect_probe::ENABLED { 1 } else { 0 };
    assert_eq!(delta, expected_delta, "exactly one degradation event per build");

    // The degraded plan must compute exactly what a plan built *directly*
    // on the fallback schedule computes — the injected refusal may change
    // which schedule runs, never what that schedule produces. (Bitwise
    // identity against the *requested* schedule is not promised: a
    // different `Tc` splits the channel reduction into different register
    // chains, so only closeness holds there.)
    let mut got = Tensor4::output_for(&shape, ActLayout::Nchw);
    plan.execute(&pool, &input, &mut got).expect("degraded plan still runs");
    let direct = ndirect_core::ConvPlan::try_with_schedule(&shape, &filter, &fallback)
        .expect("minimal schedule allocates");
    assert!(!direct.degraded(), "an explicitly minimal request is not a degradation");
    let mut want_min = Tensor4::output_for(&shape, ActLayout::Nchw);
    direct.execute(&pool, &input, &mut want_min).expect("minimal plan runs");
    assert_eq!(
        got.as_slice(),
        want_min.as_slice(),
        "degraded execution must be bitwise identical to the schedule it fell back to"
    );

    let free = ndirect_core::ConvPlan::try_with_schedule(&shape, &filter, &requested)
        .expect("no cap, no degradation");
    assert!(!free.degraded());
    let mut want_full = Tensor4::output_for(&shape, ActLayout::Nchw);
    free.execute(&pool, &input, &mut want_full).expect("unconstrained plan runs");
    ndirect_tensor::assert_close(
        got.as_slice(),
        want_full.as_slice(),
        2e-4,
        "degraded vs requested schedule",
    );
}

// ------------------------------------------------------------------ ISA

#[test]
fn unsupported_isa_degrades_to_typed_error() {
    let _g = ISA_HOOK.write().unwrap_or_else(|p| p.into_inner());
    let (shape, input, filter) = small_problem();
    let pool = StaticPool::new(1);

    let (dw_shape, dw_input, dw_filter) = depthwise_problem();
    // Depthwise first, so no backend plan is built (and refused by its own
    // ISA check) before the engine's own depthwise dispatch runs.
    let model = dw_then_pw_model();
    let backend = NDirectBackend::host();
    let nhwc_input = input.to_layout(ActLayout::Nhwc);
    let krsc = filter.to_layout(FilterLayout::Krsc);
    let shape3 = Conv3dShape {
        n: 1, c: 2, d: 3, h: 5, w: 5, k: 4, t: 2, r: 3, s: 3,
        stride: 1, pad_d: 0, pad_h: 1, pad_w: 1,
    };
    let (input3, filter3) = (Tensor5::zeros(1, 2, 3, 5, 5), Filter5::zeros(4, 2, 2, 3, 3));
    let (qi, qf) = (Int16Tensor::zeros(1, 4, 6, 6), Int16Filter::zeros(8, 4, 3, 3));

    ndirect_simd::force_unsupported(true);
    let err = try_conv_ndirect(&pool, &input, &filter, &shape).expect_err("forced ISA miss");
    let sched = Schedule::minimal(&shape);
    let nhwc = try_conv_ndirect_with(&pool, &nhwc_input, &krsc, &shape, &sched).map(|_| ());
    let conv3d = try_conv3d_ndirect(&pool, &input3, &filter3, &shape3).map(|_| ());
    let int16 = try_conv_int16(&pool, &qi, &qf, &shape).map(|_| ());
    let quantized = try_conv_quantized(&pool, &input, &filter, &shape).map(|_| ());
    let dw = try_conv_depthwise(&pool, &dw_input, &dw_filter, &dw_shape);
    let dw_plan = DepthwisePlan::try_new(&dw_shape, &dw_filter, 1).map(|_| ());
    let engine = Engine::new(&backend, &pool);
    let plain = engine.try_run(&model, &dw_input).map(|_| ());
    let engine = Engine::new(&backend, &pool).with_dwpw_fusion(true);
    let fused = engine.try_run(&model, &dw_input).map(|_| ());
    ndirect_simd::force_unsupported(false);
    match &err {
        Error::Isa(e) => assert!(e.to_string().contains("host CPU only supports"), "{e}"),
        other => panic!("expected Error::Isa, got {other}"),
    }
    assert!(matches!(nhwc, Err(Error::Isa(_))), "{nhwc:?}");
    assert!(matches!(conv3d, Err(Error::Isa(_))), "{conv3d:?}");
    assert!(matches!(int16, Err(Error::Isa(_))), "{int16:?}");
    assert!(matches!(quantized, Err(Error::Isa(_))), "{quantized:?}");
    assert!(matches!(dw, Err(Error::Isa(_))), "{dw:?}");
    assert!(matches!(dw_plan, Err(Error::Isa(_))), "{dw_plan:?}");
    assert!(matches!(plain, Err(ModelError::Conv(Error::Isa(_)))), "{plain:?}");
    assert!(matches!(fused, Err(ModelError::Conv(Error::Isa(_)))), "{fused:?}");
    Engine::new(&backend, &pool).try_run(&model, &dw_input).expect("supported host");

    // With the hook released, the same problem runs and matches the oracle.
    let got = try_conv_ndirect(&pool, &input, &filter, &shape).expect("supported host");
    let want = naive::conv_ref(&input, &filter, &shape);
    ndirect_tensor::assert_close(got.as_slice(), want.as_slice(), 2e-4, "post-hook conv");
}
