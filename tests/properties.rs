//! Property-based tests over randomized problem shapes and data, driven
//! by the workspace's seeded [`Rng64`] so every failure message carries
//! its case number and reproduces exactly.

use ndirect_baselines::{blocked, im2col, indirect, naive};
use ndirect_core::{
    conv_depthwise, try_compose_shapes, try_conv_depthwise_separable, try_conv_ndirect_with,
    DepthwisePlan, FusedDwPwPlan, Kernel, Schedule,
};
use ndirect_support::Rng64;
use ndirect_tensor::{
    assert_close, fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4,
};
use ndirect_threads::StaticPool;

/// Random-but-small convolution shapes: kernels 1–5, strides 1–2,
/// padding 0–2, channels/outputs 1–20, spatial 1–16 (subject to fitting).
fn random_shape(rng: &mut Rng64) -> ConvShape {
    loop {
        let n = rng.gen_range_usize(1, 4);
        let c = rng.gen_range_usize(1, 21);
        let h = rng.gen_range_usize(1, 17);
        let w = rng.gen_range_usize(1, 17);
        let k = rng.gen_range_usize(1, 21);
        let r = rng.gen_range_usize(1, 6);
        let s = rng.gen_range_usize(1, 6);
        let stride = rng.gen_range_usize(1, 3);
        let ph = rng.gen_range_usize(0, 3);
        let pw = rng.gen_range_usize(0, 3);
        if h + 2 * ph < r || w + 2 * pw < s {
            continue;
        }
        return ConvShape::new(n, c, h, w, k, r, s, stride, Padding { h: ph, w: pw });
    }
}

fn problem(shape: &ConvShape, seed: u64) -> (Tensor4, Filter) {
    (
        fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), seed),
        fill::random_filter(Filter::for_shape(shape, FilterLayout::Kcrs), seed),
    )
}

/// Runs `cases` iterations of an oracle comparison for one method.
fn against_oracle(
    seed: u64,
    cases: usize,
    run: impl Fn(&StaticPool, &Tensor4, &Filter, &ConvShape) -> Tensor4,
) {
    let mut rng = Rng64::seed_from_u64(seed);
    let pool = StaticPool::new(1);
    for case in 0..cases {
        let shape = random_shape(&mut rng);
        let (input, filter) = problem(&shape, rng.next_u64());
        let expect = naive::conv_ref(&input, &filter, &shape);
        let got = run(&pool, &input, &filter, &shape);
        assert_close(
            got.as_slice(),
            expect.as_slice(),
            2e-4,
            &format!("case {case}: {shape}"),
        );
    }
}

/// Wider-than-usual geometry for the shape-arithmetic properties below:
/// strides 1–4, kernels up to 7, and a bias toward tight fits (input ==
/// kernel) where the `P`/`Q` floor formula has its edge cases.
fn random_edge_shape(rng: &mut Rng64) -> ConvShape {
    loop {
        let r = rng.gen_range_usize(1, 8);
        let s = rng.gen_range_usize(1, 8);
        let stride = rng.gen_range_usize(1, 5);
        let ph = rng.gen_range_usize(0, 4);
        let pw = rng.gen_range_usize(0, 4);
        // Half the cases sit right at the minimum spatial extent.
        let (h, w) = if rng.gen_range_usize(0, 2) == 0 {
            (r.saturating_sub(2 * ph).max(1), s.saturating_sub(2 * pw).max(1))
        } else {
            (rng.gen_range_usize(1, 25), rng.gen_range_usize(1, 25))
        };
        if h + 2 * ph < r || w + 2 * pw < s {
            continue;
        }
        let n = rng.gen_range_usize(1, 5);
        let c = rng.gen_range_usize(1, 33);
        let k = rng.gen_range_usize(1, 33);
        return ConvShape::new(n, c, h, w, k, r, s, stride, Padding { h: ph, w: pw });
    }
}

#[test]
fn output_dims_match_a_valid_position_scan() {
    // P and Q come from a closed-form floor division; the ground truth is
    // "how many stride-spaced kernel placements fit in the padded input".
    let mut rng = Rng64::seed_from_u64(0x9a0a);
    let scan = |padded: usize, kernel: usize, stride: usize| {
        (0..)
            .map(|i| i * stride)
            .take_while(|&off| off + kernel <= padded)
            .count()
    };
    for case in 0..400 {
        let shape = random_edge_shape(&mut rng);
        assert_eq!(
            shape.p(),
            scan(shape.padded_h(), shape.r, shape.stride),
            "case {case}: {shape} P"
        );
        assert_eq!(
            shape.q(),
            scan(shape.padded_w(), shape.s, shape.stride),
            "case {case}: {shape} Q"
        );
    }
}

#[test]
fn flops_is_two_per_mac_over_the_output() {
    let mut rng = Rng64::seed_from_u64(0x9a0b);
    for case in 0..400 {
        let shape = random_edge_shape(&mut rng);
        let expect = 2u128
            * shape.output_len() as u128
            * (shape.c * shape.r * shape.s) as u128;
        assert_eq!(
            shape.flops() as u128,
            expect,
            "case {case}: {shape} flops"
        );
    }
}

#[test]
fn gemm_dims_are_consistent_with_element_counts() {
    // The paper's GEMM mapping must conserve elements: M'·N' is the whole
    // output, M'·K' the whole filter.
    let mut rng = Rng64::seed_from_u64(0x9a0c);
    for case in 0..400 {
        let shape = random_edge_shape(&mut rng);
        let (m, n, k) = shape.gemm_dims();
        assert_eq!(m, shape.k, "case {case}: {shape} M'");
        assert_eq!(m * n, shape.output_len(), "case {case}: {shape} M'·N'");
        assert_eq!(m * k, shape.filter_len(), "case {case}: {shape} M'·K'");
    }
}

#[test]
fn checked_and_plain_lens_agree_on_valid_shapes() {
    let mut rng = Rng64::seed_from_u64(0x9a0d);
    for case in 0..400 {
        let shape = random_edge_shape(&mut rng);
        assert_eq!(shape.try_input_len(), Ok(shape.input_len()), "case {case}: {shape}");
        assert_eq!(shape.try_filter_len(), Ok(shape.filter_len()), "case {case}: {shape}");
        assert_eq!(shape.try_output_len(), Ok(shape.output_len()), "case {case}: {shape}");
        assert_eq!(shape.try_padded_h(), Ok(shape.padded_h()), "case {case}: {shape}");
        assert_eq!(shape.try_padded_w(), Ok(shape.padded_w()), "case {case}: {shape}");
    }
}

#[test]
fn ndirect_matches_oracle_on_random_shapes() {
    against_oracle(0x9a01, 48, |pool, input, filter, shape| {
        try_conv_ndirect_with(pool, input, filter, shape, &Schedule::minimal(shape))
            .expect("valid problem")
    });
}

#[test]
fn im2col_matches_oracle_on_random_shapes() {
    against_oracle(0x9a02, 48, |pool, input, filter, shape| {
        im2col::conv_im2col(pool, input, filter, shape)
    });
}

#[test]
fn blocked_matches_oracle_on_random_shapes() {
    against_oracle(0x9a03, 48, |pool, input, filter, shape| {
        blocked::conv_blocked_nchw(pool, input, filter, shape)
    });
}

#[test]
fn indirect_matches_oracle_on_random_shapes() {
    against_oracle(0x9a04, 48, |pool, input, filter, shape| {
        indirect::conv_indirect_nchw(pool, input, filter, shape)
    });
}

#[test]
fn convolution_is_linear_in_the_input() {
    // conv(a·x + y, F) == a·conv(x, F) + conv(y, F)
    let mut rng = Rng64::seed_from_u64(0x9a05);
    let pool = StaticPool::new(1);
    for case in 0..24 {
        let shape = random_shape(&mut rng);
        let seed = rng.next_u64();
        let (x, filter) = problem(&shape, seed);
        let (y, _) = problem(&shape, seed.wrapping_add(101));
        let a = 0.75f32;
        let sched = Schedule::minimal(&shape);

        let mut combo = x.clone();
        for (cx, cy) in combo.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *cx = a * *cx + cy;
        }
        let lhs = try_conv_ndirect_with(&pool, &combo, &filter, &shape, &sched)
            .expect("valid problem");
        let cx = try_conv_ndirect_with(&pool, &x, &filter, &shape, &sched).expect("valid problem");
        let cy = try_conv_ndirect_with(&pool, &y, &filter, &shape, &sched).expect("valid problem");
        for (i, l) in lhs.as_slice().iter().enumerate() {
            let r = a * cx.as_slice()[i] + cy.as_slice()[i];
            assert!(
                (l - r).abs() <= 5e-4 * r.abs().max(1.0),
                "case {case} idx {i}: {l} vs {r}"
            );
        }
    }
}

#[test]
fn zero_filter_gives_zero_output() {
    let mut rng = Rng64::seed_from_u64(0x9a06);
    let pool = StaticPool::new(1);
    for case in 0..24 {
        let shape = random_shape(&mut rng);
        let (input, _) = problem(&shape, rng.next_u64());
        let filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        let got = try_conv_ndirect_with(&pool, &input, &filter, &shape, &Schedule::minimal(&shape))
            .expect("valid problem");
        assert!(got.as_slice().iter().all(|&v| v == 0.0), "case {case}");
    }
}

#[test]
fn gemm_matches_naive_matmul() {
    let mut rng = Rng64::seed_from_u64(0x9a07);
    for case in 0..48 {
        let m = rng.gen_range_usize(1, 40);
        let n = rng.gen_range_usize(1, 40);
        let k = rng.gen_range_usize(1, 40);
        let seed = rng.next_u64();
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill::fill_random(&mut a, seed);
        fill::fill_random(&mut b, seed ^ 1);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        ndirect_gemm::naive::matmul(m, n, k, &a, &b, &mut c1);
        ndirect_gemm::gemm(m, n, k, &a, &b, &mut c2);
        assert_close(&c2, &c1, 2e-4, &format!("gemm case {case}"));
    }
}

#[test]
fn layout_round_trip_random_dims() {
    let mut rng = Rng64::seed_from_u64(0x9a08);
    for case in 0..48 {
        let n = rng.gen_range_usize(1, 4);
        let c = rng.gen_range_usize(1, 9);
        let h = rng.gen_range_usize(1, 9);
        let w = rng.gen_range_usize(1, 9);
        let t = fill::random_tensor(Tensor4::zeros(n, c, h, w, ActLayout::Nchw), rng.next_u64());
        let back = t.to_layout(ActLayout::Nhwc).to_layout(ActLayout::Nchw);
        assert_eq!(back.as_slice(), t.as_slice(), "case {case}");
    }
}

#[test]
fn schedule_sanitize_is_idempotent() {
    let mut rng = Rng64::seed_from_u64(0x9a09);
    for case in 0..48 {
        let shape = random_shape(&mut rng);
        let s = Schedule::minimal(&shape).sanitized(&shape);
        assert_eq!(s.sanitized(&shape), s, "case {case}: {shape}");
    }
}

/// Random depthwise-separable pairs: a dw-able shape (`K == C`) plus a
/// pointwise output-channel count.
fn random_separable(rng: &mut Rng64) -> (ConvShape, usize) {
    loop {
        let n = rng.gen_range_usize(1, 3);
        let c = rng.gen_range_usize(1, 17);
        let h = rng.gen_range_usize(1, 15);
        let w = rng.gen_range_usize(1, 15);
        let r = rng.gen_range_usize(1, 4);
        let s = rng.gen_range_usize(1, 4);
        let stride = rng.gen_range_usize(1, 3);
        let ph = rng.gen_range_usize(0, 2);
        let pw = rng.gen_range_usize(0, 2);
        if h + 2 * ph < r || w + 2 * pw < s {
            continue;
        }
        let shape = ConvShape::new(n, c, h, w, c, r, s, stride, Padding { h: ph, w: pw });
        let k = rng.gen_range_usize(1, 17);
        return (shape, k);
    }
}

#[test]
fn dwpw_composed_shapes_satisfy_closed_forms() {
    // `try_compose_shapes` must put the pointwise stage exactly on the
    // depthwise output (a 1×1/stride-1/unpadded conv is the identity on
    // spatial dims), and the pointwise stage's `ConvShape::flops` must be
    // its closed form 2·N·K·P·Q·C (the depthwise stage's FLOPs, which
    // `ConvShape::flops` would overcount by C, are held to the probe in
    // `tests/probe_accounting.rs`).
    let mut rng = Rng64::seed_from_u64(0x9a0e);
    for case in 0..400 {
        let (shape, k) = random_separable(&mut rng);
        let (dw, pw) = try_compose_shapes(&shape, k)
            .unwrap_or_else(|e| panic!("case {case}: {shape} -> K={k}: {e}"));
        assert_eq!((dw.k, dw.c), (shape.c, shape.c), "case {case}: {shape} dw channels");
        assert_eq!((pw.h, pw.w), (dw.p(), dw.q()), "case {case}: {shape} pw input");
        assert_eq!((pw.p(), pw.q()), (dw.p(), dw.q()), "case {case}: {shape} pw identity");
        assert_eq!((pw.c, pw.k), (shape.c, k), "case {case}: {shape} pw channels");

        let plane = (dw.n * dw.p() * dw.q()) as u64;
        assert_eq!(
            2 * plane * (k * dw.c) as u64,
            pw.flops(),
            "case {case}: {shape} pw stage matches ConvShape::flops"
        );
    }
}

#[test]
fn dwpw_checked_composition_agrees_with_plain_construction() {
    // The checked lens: whenever the composed shapes build, their element
    // counts agree with the plain accessors, and the depthwise stage's
    // checked lengths are consistent too.
    let mut rng = Rng64::seed_from_u64(0x9a0f);
    for case in 0..400 {
        let (shape, k) = random_separable(&mut rng);
        let (dw, pw) = try_compose_shapes(&shape, k).unwrap();
        assert_eq!(dw.try_output_len(), Ok(dw.output_len()), "case {case}: {shape}");
        assert_eq!(pw.try_input_len(), Ok(pw.input_len()), "case {case}: {shape}");
        assert_eq!(
            dw.output_len() / dw.k,
            pw.input_len() / pw.c,
            "case {case}: {shape} intermediate plane must be shared"
        );
    }
}

#[test]
fn dwpw_fused_matches_unfused_on_random_shapes() {
    let mut rng = Rng64::seed_from_u64(0x9a11);
    let pool = StaticPool::new(2);
    for case in 0..32 {
        let (shape, k) = random_separable(&mut rng);
        let seed = rng.next_u64();
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
        let dwf = fill::random_filter(
            Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs),
            seed ^ 1,
        );
        let pwf =
            fill::random_filter(Filter::zeros(k, shape.c, 1, 1, FilterLayout::Kcrs), seed ^ 2);
        let expect = try_conv_depthwise_separable(&pool, &input, &dwf, &pwf, &shape)
            .unwrap_or_else(|e| panic!("case {case}: {shape}: {e}"));
        let plan = FusedDwPwPlan::try_new(&ndirect_platform::host(), &shape, &dwf, &pwf, 2)
            .unwrap_or_else(|e| panic!("case {case}: {shape}: {e}"));
        let mut got = Tensor4::zeros(shape.n, k, shape.p(), shape.q(), ActLayout::Nchw);
        plan.execute(&pool, &input, &mut got).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(got.as_slice(), expect.as_slice(), "case {case}: {shape} -> K={k}");
    }
}

// ------------------------------------------- generated differential suite
//
// ROADMAP item 2's safety net in its minimal form, for the
// depthwise-separable paths: per seed, one depthwise-separable pair over a
// *generated* shape space, run as depthwise plans and as the planned
// dw+pw block (every tile-kernel entry the host supports, two thread
// counts each) and as the separable one-shot, held bitwise equal to each
// other and within the conformance ULP budget of `baselines::naive`. Dense convolutions
// have their own generated suite, held bitwise to the order-matched
// oracle (`tests/ordered_oracle.rs`). A failure prints the seed and the
// shape.

/// Seeds that run first. Each pins a dense corner (see
/// `tests/ordered_oracle.rs`); their separable cases run here.
const REGRESSION_SEEDS: [u64; 6] =
    [0xd1ff_105e, 0xd1ff_1004, 0xd1ff_1236, 0xd1ff_1000, 0xd1ff_100d, 0xd1ff_104f];
const GENERATED_CASES: u64 = 200;

/// ULP distance via the lexicographic order of IEEE bits (as in
/// `crates/baselines/tests/conformance.rs`; integration tests are separate
/// binaries, so the helper is restated).
fn ulp_distance(a: f32, b: f32) -> u64 {
    let order = |x: f32| {
        let bits = x.to_bits() as i32;
        if bits < 0 { -i64::from(bits & i32::MAX) } else { i64::from(bits) }
    };
    order(a).abs_diff(order(b))
}

/// The conformance budget between the naive oracle and a direct path: 4096
/// ULP, with differences under `1e-5 · max|want|` forgiven (cancellation
/// can park a sum of O(1) products on either side of zero).
fn assert_conforms(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let floor = 1e-5 * want.iter().fold(0.0f32, |m, w| m.max(w.abs()));
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.is_finite() && ((g - w).abs() <= floor || ulp_distance(g, w) <= 4096),
            "{what}: [{i}] got {g}, oracle {w}"
        );
    }
}

/// Stride 1–3, pad 0–3, `R`/`S` ∈ {1, 3, 5, 7} independently, odd `H`/`W`.
fn diff_shape(rng: &mut Rng64, depthwise: bool) -> ConvShape {
    loop {
        let (r, s) = (*rng.choose(&[1, 3, 5, 7]), *rng.choose(&[1, 3, 5, 7]));
        let (h, w) = (2 * rng.gen_range_usize(0, 8) + 1, 2 * rng.gen_range_usize(0, 8) + 1);
        let pad = Padding { h: rng.gen_range_usize(0, 4), w: rng.gen_range_usize(0, 4) };
        if h + 2 * pad.h < r || w + 2 * pad.w < s {
            continue;
        }
        let n = rng.gen_range_usize(1, 3);
        let c = rng.gen_range_usize(1, 14);
        let k = if depthwise { c } else { rng.gen_range_usize(1, 22) };
        return ConvShape::new(n, c, h, w, k, r, s, rng.gen_range_usize(1, 4), pad);
    }
}

/// Advances `rng` past the draws each seed's dense case made before its
/// separable case when both ran here, from one stream (the dense case is
/// now `tests/ordered_oracle.rs`): the shape, then seven single draws
/// (five tile sizes, a thread grid, and the slab rows of a packing mode
/// since deleted). So every seed's separable case is still the one it
/// always drew.
fn skip_dense_draws(rng: &mut Rng64) {
    diff_shape(rng, false);
    for _ in 0..7 {
        rng.next_u64();
    }
}

fn separable_case(seed: u64, rng: &mut Rng64, pool: &StaticPool) {
    let shape = diff_shape(rng, true);
    let k = rng.gen_range_usize(1, 18);
    let what = format!("seed {seed:#x}: depthwise {shape} -> K={k}");
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
    let dwf = fill::random_filter(
        Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs),
        seed ^ 1,
    );
    let pwf = fill::random_filter(Filter::zeros(k, shape.c, 1, 1, FilterLayout::Kcrs), seed ^ 2);

    // Oracle: a depthwise conv is the dense conv whose filter is diagonal
    // in channels; the pointwise stage is a plain 1x1.
    let mut diagonal = Filter::for_shape(&shape, FilterLayout::Kcrs);
    for c in 0..shape.c {
        for (r, s) in (0..shape.r).flat_map(|r| (0..shape.s).map(move |s| (r, s))) {
            *diagonal.at_mut(c, c, r, s) = dwf.at(c, 0, r, s);
        }
    }
    let mid = naive::conv_ref(&input, &diagonal, &shape);
    let dw_out = conv_depthwise(pool, &input, &dwf, &shape);
    assert_conforms(dw_out.as_slice(), mid.as_slice(), &what);
    for threads in [1, 3] {
        for kernel in Kernel::supported() {
            let plan = DepthwisePlan::try_new(&shape, &dwf, threads)
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .with_kernel(kernel);
            let mut planned = Tensor4::output_for(&shape, ActLayout::Nchw);
            plan.execute(pool, &input, &mut planned).unwrap_or_else(|e| panic!("{what}: {e}"));
            let at = format!("{what}: dw plan on {threads}, {}", kernel.name());
            assert_eq!(planned.as_slice(), dw_out.as_slice(), "{at}");
        }
    }

    let (_, pw_shape) = try_compose_shapes(&shape, k).unwrap_or_else(|e| panic!("{what}: {e}"));
    let want = naive::conv_ref(&mid, &pwf, &pw_shape);
    let separable = try_conv_depthwise_separable(pool, &input, &dwf, &pwf, &shape)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_conforms(separable.as_slice(), want.as_slice(), &what);
    let host = ndirect_platform::host();
    for threads in [1, 3] {
        for kernel in Kernel::supported() {
            let plan = FusedDwPwPlan::try_new(&host, &shape, &dwf, &pwf, threads)
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .with_kernel(kernel);
            let mut planned = Tensor4::zeros(shape.n, k, shape.p(), shape.q(), ActLayout::Nchw);
            plan.execute(pool, &input, &mut planned).unwrap_or_else(|e| panic!("{what}: {e}"));
            let at = format!("{what}: dw+pw plan on {threads}, {}", kernel.name());
            assert_eq!(planned.as_slice(), separable.as_slice(), "{at}");
        }
    }
}

#[test]
fn generated_differential_suite() {
    let kernels: Vec<_> = Kernel::supported().map(|k| k.name()).collect();
    println!("generated_differential_suite: plans run on kernel entries {kernels:?}");
    let pool = StaticPool::new(4);
    let generated = (0..GENERATED_CASES).map(|i| 0xd1ff_0000 + i);
    for seed in REGRESSION_SEEDS.into_iter().chain(generated) {
        let mut rng = Rng64::seed_from_u64(seed);
        skip_dense_draws(&mut rng);
        separable_case(seed, &mut rng, &pool);
    }
}
