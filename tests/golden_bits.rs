//! Cross-commit bit-stability: a hash of the raw `f32` output bits of a
//! fixed, seeded problem set, held against a committed table.
//!
//! Every other bitwise test in the workspace compares two paths *of the
//! same build* (packing modes, thread grids, plan vs one-shot), or a plan
//! with the order-matched oracle (`conv_ordered`). None of them notices a
//! refactor that moves the kernels and the oracle together, because both
//! sides move. This file pins the bits themselves, so a structural change
//! to the kernels or drivers is held to the outputs of the commit before
//! it.
//!
//! Each case first asserts the in-build equalities, then compares the
//! FNV-1a hash of the common output with the table. Dense cases: every
//! packing mode × every grid, one-shot and planned under every tile-kernel
//! entry the host supports, equals `conv_ordered` for that entry's
//! rounding of the case's body ([`Kernel::fused`]); the hash is taken from
//! the baseline entry's output. Depthwise and dw+pw cases: every entry
//! gives one bit pattern (their kernels are the baseline's 4-lane code
//! under every entry). All schedules are spelled out: the channel tile
//! `Tc` groups the reduction, so a host-derived schedule would make the
//! bits host-dependent.
//!
//! The table is keyed on [`ndirect_simd::backend_name`], the baseline
//! entry's encoding: `"sse"` and `"scalar"` share it (the scalar backend
//! mirrors SSE's unfused multiply-add lane for lane); any other baseline
//! (`"sse+fma"`, `"neon"`) contracts the multiply-add, so it prints a
//! notice, skips the table and still asserts the in-build equalities. The
//! `avx2+fma` entry fuses the multiply-add for every filter but 1×1 and is
//! held to the oracle, not the table. The engine cases run plans pinned to
//! the baseline entry.

use ndirect_baselines::naive::conv_ordered;
use ndirect_core::kernel::Body;
use ndirect_core::{
    conv_depthwise, try_conv_ndirect_with, try_conv_dwpw_fused_with, ConvPlan, DepthwisePlan,
    DwPwSchedule, FusedDwPwPlan, Kernel, PackingMode, Schedule,
};
use ndirect_models::{zoo, ConvLayer, Engine, FcLayer, Model, NDirectBackend, Node};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::{Grid2, StaticPool};

/// Hashes of the baseline entry's output bits under the unfused-multiply-add
/// backends. A
/// refactor must not edit this table; a change that is *meant* to move the
/// bits regenerates it from the failure message, which prints every entry.
const GOLDEN: &[(&str, u64)] = &[
    ("nchw 3x3 s1", 0x7fe8_c333_94d9_c3ba),
    ("nchw 3x3 s2", 0x0560_41dd_b127_8e8e),
    ("nchw 1x1 s1", 0x46ee_0ec9_5e6f_631d),
    ("nchw 1x1 s2", 0x19b9_b839_360b_d605),
    ("nchw 5x5", 0x465c_165d_8616_b47b),
    ("nchw 7x7 s2 p3", 0x4d5a_1d40_ddeb_5bb9),
    ("nchw tails n2", 0x59a1_c7f1_4c38_3221),
    ("nchw wide strip", 0x657e_9ee5_23c1_f46e),
    ("nhwc 3x3 tails", 0x276e_8af5_8e43_db6d),
    ("nhwc 1x1 s2", 0x2a17_921c_eb42_3326),
    ("dw 3x3 s1", 0x2640_da13_1ae8_7986),
    ("dw 3x3 s2", 0x5eda_0150_97ae_f371),
    ("dw 5x5", 0xaa32_b7d9_514d_749d),
    ("dwpw", 0x5912_60a0_04cf_7522),
    ("dwpw mid_relu", 0x0b15_1702_23a7_a683),
];

fn fnv1a(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Compares `actual` with `table`, entry by entry.
fn check_golden(table: &[(&str, u64)], actual: &[(&str, u64)]) {
    let backend = ndirect_simd::backend_name();
    if !matches!(backend, "sse" | "scalar") {
        println!("golden_bits: no table for backend {backend:?}; in-build equalities only");
        return;
    }
    let stale: Vec<_> = actual
        .iter()
        .filter(|(name, hash)| table.iter().find(|(n, _)| n == name) != Some(&(*name, *hash)))
        .collect();
    let listing: String =
        actual.iter().map(|(n, h)| format!("    ({n:?}, {h:#018x}),\n")).collect();
    assert!(stale.is_empty(), "output bits moved for {stale:x?}; computed entries:\n{listing}");
}

/// Every tile-kernel registry entry this host runs, the baseline first.
fn kernels() -> Vec<Kernel> {
    static NOTICE: std::sync::Once = std::sync::Once::new();
    let kernels: Vec<_> = Kernel::supported().collect();
    if kernels.len() == 1 {
        NOTICE.call_once(|| println!("golden_bits: kernel axis covers {:?} only", kernels[0].name()));
    }
    kernels
}

fn problem(shape: &ConvShape, layout: ActLayout, seed: u64) -> (Tensor4, Filter) {
    let flayout = match layout {
        ActLayout::Nchw => FilterLayout::Kcrs,
        ActLayout::Nhwc => FilterLayout::Krsc,
    };
    (
        fill::random_tensor(Tensor4::input_for(shape, layout), seed),
        fill::random_filter(Filter::for_shape(shape, flayout), seed ^ 0x5a5a),
    )
}

/// `(Vw, Vk, Tc, Tk, Th)` over [`Schedule::minimal`].
fn schedule(shape: &ConvShape, tiles: (usize, usize, usize, usize, usize)) -> Schedule {
    let mut s = Schedule::minimal(shape);
    (s.vw, s.vk, s.tc, s.tk, s.th) = tiles;
    s
}

const MODES: [PackingMode; 2] = [PackingMode::Fused, PackingMode::Sequential];
const GRIDS: [(usize, usize); 3] = [(1, 1), (2, 1), (1, 2)];

/// The order-matched oracle's output for each rounding, indexed by
/// `fused`, over the schedule's channel tile.
fn oracles(input: &Tensor4, filter: &Filter, shape: &ConvShape, tc: usize) -> [Tensor4; 2] {
    [false, true].map(|fused| conv_ordered(input, filter, shape, tc, fused))
}

/// One `NCHW` case: every mode × grid, one-shot and planned under every
/// kernel entry, must equal the oracle for its entry's rounding; returns
/// the hash of the baseline entry's output.
fn nchw_case(name: &str, shape: ConvShape, tiles: (usize, usize, usize, usize, usize)) -> u64 {
    let (input, filter) = problem(&shape, ActLayout::Nchw, 0x601d);
    let base = schedule(&shape, tiles);
    let body = Body::of(shape.r, shape.s);
    let oracle = oracles(&input, &filter, &shape, base.tc);
    let want = |kernel: Kernel| oracle[usize::from(kernel.fused(body))].as_slice();
    for mode in MODES {
        for (ptn, ptk) in GRIDS {
            let pool = StaticPool::new(ptn * ptk);
            let sched = base.with_packing(mode).with_grid(Grid2::new(ptn, ptk));
            let oneshot = try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
                .expect("valid problem");
            let what = format!("{name}: {mode:?} on {ptn}x{ptk}, one-shot");
            assert_eq!(oneshot.as_slice(), want(Kernel::best()), "{what}");
            for kernel in kernels() {
                let plan = ConvPlan::try_with_schedule(&shape, &filter, &sched).expect("valid case");
                let mut planned = Tensor4::output_for(&shape, ActLayout::Nchw);
                plan.with_kernel(kernel).execute(&pool, &input, &mut planned).expect("valid case");
                let what = format!("{name}: {mode:?} on {ptn}x{ptk}, planned on {}", kernel.name());
                assert_eq!(planned.as_slice(), want(kernel), "{what}");
            }
        }
    }
    fnv1a(want(Kernel::supported().next().expect("the baseline runs")))
}

#[test]
fn nchw_bits_are_stable() {
    let pad = Padding::same;
    let cases = [
        ("nchw 3x3 s1", ConvShape::new(1, 8, 12, 14, 16, 3, 3, 1, pad(1)), (4, 8, 8, 8, 4)),
        ("nchw 3x3 s2", ConvShape::new(1, 6, 13, 15, 8, 3, 3, 2, pad(1)), (4, 8, 6, 8, 3)),
        ("nchw 1x1 s1", ConvShape::new(1, 16, 9, 12, 24, 1, 1, 1, Padding::NONE), (12, 8, 16, 16, 9)),
        ("nchw 1x1 s2", ConvShape::new(1, 10, 9, 11, 12, 1, 1, 2, Padding::NONE), (3, 4, 4, 8, 2)),
        ("nchw 5x5", ConvShape::new(1, 4, 11, 13, 8, 5, 5, 1, pad(2)), (8, 4, 4, 8, 11)),
        ("nchw 7x7 s2 p3", ConvShape::new(1, 3, 17, 19, 8, 7, 7, 2, pad(3)), (5, 8, 3, 8, 4)),
        // K = 13 (masked Vk tail), C = 5 over Tc = 3, Q = 17 over Vw = 8,
        // P = 9 over Th = 2, two images.
        ("nchw tails n2", ConvShape::new(2, 5, 9, 17, 13, 3, 3, 1, pad(1)), (8, 8, 3, 8, 2)),
        // Vw = 13 has no monomorphized kernel: the runtime-bound one runs.
        ("nchw wide strip", ConvShape::new(1, 4, 8, 29, 8, 3, 3, 1, pad(1)), (13, 8, 4, 8, 8)),
    ];
    let actual: Vec<_> =
        cases.into_iter().map(|(name, shape, tiles)| (name, nchw_case(name, shape, tiles))).collect();
    check_golden(GOLDEN, &actual);
}

/// Every grid × one-shot and planned (under every kernel entry) equal the
/// oracle for the entry's rounding, and the one-shot output equals the
/// `NCHW` one-shot's on the same schedule, transposed: `NHWC` is a packing
/// and addressing detail of the one loop nest, so the `NCHW` entries pin
/// its bits too.
#[test]
fn nhwc_bits_are_stable() {
    let cases = [
        ("nhwc 3x3 tails", ConvShape::new(2, 6, 9, 13, 13, 3, 3, 1, Padding::same(1)), (4, 8, 4, 8, 9)),
        ("nhwc 1x1 s2", ConvShape::new(1, 8, 9, 11, 12, 1, 1, 2, Padding::NONE), (8, 4, 8, 8, 5)),
    ];
    let mut actual = Vec::new();
    for (name, shape, tiles) in cases {
        let (input, filter) = problem(&shape, ActLayout::Nhwc, 0x601e);
        let base = schedule(&shape, tiles);
        let body = Body::of(shape.r, shape.s);
        let oracle = oracles(&input, &filter, &shape, base.tc);
        let want = |kernel: Kernel| oracle[usize::from(kernel.fused(body))].as_slice();
        for (ptn, ptk) in GRIDS {
            let pool = StaticPool::new(ptn * ptk);
            let sched = base.with_grid(Grid2::new(ptn, ptk));
            let oneshot = try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
                .expect("valid problem");
            let what = format!("{name}: one-shot on {ptn}x{ptk}");
            assert_eq!(oneshot.as_slice(), want(Kernel::best()), "{what}");
            for kernel in kernels() {
                let plan =
                    ConvPlan::try_with_schedule(&shape, &filter, &sched).expect("valid case");
                let mut planned = Tensor4::output_for(&shape, ActLayout::Nhwc);
                plan.with_kernel(kernel).execute(&pool, &input, &mut planned).expect("valid case");
                let what = format!("{name}: {ptn}x{ptk}, planned on {}", kernel.name());
                assert_eq!(planned.as_slice(), want(kernel), "{what}");
            }
        }
        let nchw = try_conv_ndirect_with(
            &StaticPool::new(1),
            &input.to_layout(ActLayout::Nchw),
            &filter.to_layout(FilterLayout::Kcrs),
            &shape,
            &base,
        )
        .expect("valid problem");
        let what = format!("{name}: NHWC == NCHW, transposed");
        assert_eq!(want(Kernel::best()), nchw.to_layout(ActLayout::Nhwc).as_slice(), "{what}");
        actual.push((name, fnv1a(want(Kernel::supported().next().expect("the baseline runs")))));
    }
    check_golden(GOLDEN, &actual);
}

fn dw_problem(shape: &ConvShape, k: usize, seed: u64) -> (Tensor4, Filter, Filter) {
    (
        fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), seed),
        fill::random_filter(Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs), seed ^ 1),
        fill::random_filter(Filter::zeros(k, shape.c, 1, 1, FilterLayout::Kcrs), seed ^ 2),
    )
}

#[test]
fn depthwise_bits_are_stable() {
    // C = 10: two full 4-lane channel groups and a 2-lane tail; odd
    // spatial sizes give a Q tail on the 8-pixel depthwise strip.
    let dw = |rs, stride, pad| ConvShape::new(2, 10, 13, 11, 10, rs, rs, stride, Padding::same(pad));
    let cases = [("dw 3x3 s1", dw(3, 1, 1)), ("dw 3x3 s2", dw(3, 2, 1)), ("dw 5x5", dw(5, 1, 2))];
    let mut actual = Vec::new();
    for (name, shape) in cases {
        let (input, filter, _) = dw_problem(&shape, 1, 0x601f);
        let reference = conv_depthwise(&StaticPool::new(1), &input, &filter, &shape);
        for threads in [1, 2] {
            let pool = StaticPool::new(threads);
            for kernel in kernels() {
                let plan = DepthwisePlan::try_new(&shape, &filter, threads).expect("valid case");
                let mut planned = Tensor4::output_for(&shape, ActLayout::Nchw);
                plan.with_kernel(kernel).execute(&pool, &input, &mut planned).expect("valid case");
                let what = format!("{name}: plan on {threads}, {}", kernel.name());
                assert_eq!(planned.as_slice(), reference.as_slice(), "{what}");
            }
        }
        actual.push((name, fnv1a(reference.as_slice())));
    }
    check_golden(GOLDEN, &actual);
}

#[test]
fn dwpw_bits_are_stable() {
    // C = 10 (dw lane tail), K = 13 (pw Vk tail), stride 2 over odd input.
    let shape = ConvShape::new(2, 10, 13, 11, 10, 3, 3, 2, Padding::same(1));
    let k = 13;
    let (input, dwf, pwf) = dw_problem(&shape, k, 0x6020);
    let mut actual = Vec::new();
    for (name, mid_relu) in [("dwpw", false), ("dwpw mid_relu", true)] {
        let reference =
            try_conv_dwpw_fused_with(&StaticPool::new(1), &input, &dwf, &pwf, &shape, mid_relu)
                .expect("valid case");
        for (threads, slice_rows, vw, vk) in [(1, 1, 4, 4), (2, 3, 12, 8), (2, 100, 5, 12)] {
            let pool = StaticPool::new(threads);
            let sched = DwPwSchedule { slice_rows, vw, vk };
            for kernel in kernels() {
                let plan = FusedDwPwPlan::try_with_schedule(&shape, &dwf, &pwf, &sched, threads)
                    .expect("valid case")
                    .with_mid_relu(mid_relu)
                    .with_kernel(kernel);
                let mut planned = Tensor4::zeros(shape.n, k, shape.p(), shape.q(), ActLayout::Nchw);
                plan.execute(&pool, &input, &mut planned).expect("valid case");
                let what = format!("{name}: {sched:?} on {threads}, {}", kernel.name());
                assert_eq!(planned.as_slice(), reference.as_slice(), "{what}");
            }
        }
        actual.push((name, fnv1a(reference.as_slice())));
    }
    check_golden(GOLDEN, &actual);
}

/// Hashes of `Engine::run`'s batch-1 output, same backends as [`GOLDEN`].
/// The standard convolutions run plans derived for a fixed preset platform
/// (not the host), so the channel tile — and with it the bits — is the
/// same everywhere, and pinned to the baseline entry, which is what the
/// backend key names.
const GOLDEN_ENGINE: &[(&str, u64)] = &[
    ("engine tiny_resnet", 0xebea_b277_f2d6_d621),
    ("engine mobilenet_lite", 0x3530_16d1_0db0_c760),
    ("engine fc head", 0x4f6d_0ecd_b4ff_a7d7),
    ("engine fc head n3", 0x6247_afb7_df6e_81b1),
];

/// Conv → pool → two FC layers, logits out (no softmax to blur the bits).
/// The FC dimensions are multiples of neither the GEMM's `MR = 6` nor its
/// `KC = 256`: 288 → 37 → 10.
fn fc_headed_model(seed: u64) -> Model {
    let fc = |input: usize, out: usize, relu: bool, seed: u64| {
        let mut weight = vec![0.0; out * input];
        fill::fill_random(&mut weight, seed);
        let mut bias = vec![0.0; out];
        fill::fill_random(&mut bias, seed ^ 0xb1a5);
        Node::Fc(FcLayer { out, weight, bias, relu })
    };
    Model {
        name: "fc-headed".into(),
        input: (3, 12, 12),
        nodes: vec![
            Node::Conv(ConvLayer {
                k: 8,
                rs: 3,
                stride: 1,
                pad: 1,
                filter: fill::random_filter(Filter::zeros(8, 3, 3, 3, FilterLayout::Kcrs), seed),
                scale: vec![0.5; 8],
                shift: vec![0.1; 8],
                relu: true,
            }),
            Node::MaxPool(2, 2, 0),
            fc(288, 37, true, seed ^ 1),
            fc(37, 10, false, seed ^ 2),
        ],
    }
}

#[test]
fn engine_bits_are_stable() {
    let models = [
        ("engine tiny_resnet", 1, zoo::tiny_resnet(0x6021)),
        ("engine mobilenet_lite", 1, zoo::mobilenet_lite(0x6022)),
        ("engine fc head", 1, fc_headed_model(0x6023)),
        ("engine fc head n3", 3, fc_headed_model(0x6023)),
    ];
    let pool = StaticPool::new(1);
    let baseline = Kernel::supported().next().expect("the baseline runs");
    let backend = NDirectBackend::new(ndirect_platform::kp920()).with_kernel(baseline);
    let engine = Engine::new(&backend, &pool);
    let mut actual = Vec::new();
    for (name, n, model) in &models {
        let (c, h, w) = model.input;
        let input = fill::random_tensor(Tensor4::zeros(*n, c, h, w, ActLayout::Nchw), 0x6024);
        let (first, stats) = engine.run(model, &input);
        assert_eq!(stats.convs, model.conv_count(), "{name}");
        let (again, _) = engine.run(model, &input);
        assert_eq!(first.as_slice(), again.as_slice(), "{name}: warm plans, same bits");
        actual.push((*name, fnv1a(first.as_slice())));
    }
    check_golden(GOLDEN_ENGINE, &actual);
}
