//! One conformance harness for every baseline: each method runs the same
//! small Table-4-like layer grid and is compared against the direct
//! (nDirect) convolution in max-ULP terms, with a per-baseline budget.
//!
//! This replaces the per-file `matches_naive_*` agreement tests that used
//! to be scattered through the baseline modules with one table: adding a
//! layer here exercises *every* method, and the ULP budgets document each
//! method's numerical character (exact-reassociation methods sit within a
//! few thousand ULP of direct; Winograd's and FFT's transforms amplify
//! rounding by orders of magnitude — the accuracy trade-off the paper
//! cites).
//!
//! Per-method *edge-case* tests (partial channel blocks, masked tails,
//! layout internals) stay with their modules; this file owns agreement.

use ndirect_baselines::{blocked, fft, im2col, indirect, naive, winograd};
use ndirect_core::{try_conv_ndirect_with, PackingMode, Schedule};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::StaticPool;

/// The direct (nDirect) reference: the host-derived schedule. Its packing
/// mode does not matter: `packing_variants_are_bitwise_identical_to_fused`
/// holds every mode to the same bits on the same grid, so each ULP budget
/// below holds against all of them.
fn direct_reference(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Tensor4 {
    let sched = Schedule::derive(&ndirect_platform::host(), shape, pool.size());
    try_conv_ndirect_with(pool, input, filter, shape, &sched).expect("valid problem")
}

/// ULP distance between two finite f32s: how many representable floats
/// apart they are, via the lexicographic-order mapping of IEEE bits.
/// Values straddling zero are charged the sum of their distances from
/// zero, so callers pair this with a small absolute floor (cancellation
/// can park a tiny result on either side of 0.0).
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn order(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            // Negative floats: magnitude bits grow toward -inf, so negate
            // the magnitude to keep the mapping monotone through zero.
            -i64::from(bits & i32::MAX)
        } else {
            i64::from(bits)
        }
    }
    order(a).abs_diff(order(b))
}

/// Max hybrid ULP distance over two slices: exact zeros-by-floor first,
/// ULP distance for everything else.
fn max_ulp(got: &[f32], want: &[f32], abs_floor: f32) -> u64 {
    assert_eq!(got.len(), want.len(), "conformance outputs must be same-size");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| {
            assert!(g.is_finite(), "baseline produced a non-finite value {g}");
            if (g - w).abs() <= abs_floor {
                0
            } else {
                ulp_distance(g, w)
            }
        })
        .max()
        .unwrap_or(0)
}

/// The shared layer grid: scaled-down stand-ins for Table 4's regimes —
/// the 7×7/stride-2 stem, a mid-network 3×3, a 1×1 projection, an
/// odd-spatial stride-2 downsample, and a valid (unpadded) 3×3 with tail
/// tiles.
fn layer_grid() -> Vec<(&'static str, ConvShape)> {
    vec![
        ("stem 7x7 s2", ConvShape::new(1, 3, 28, 28, 16, 7, 7, 2, Padding::same(3))),
        ("mid 3x3", ConvShape::square(1, 32, 32, 14, 3, 1)),
        ("proj 1x1", ConvShape::square(2, 32, 16, 14, 1, 1)),
        ("down 3x3 s2", ConvShape::new(1, 16, 15, 15, 32, 3, 3, 2, Padding::same(1))),
        ("valid 3x3", ConvShape::new(2, 8, 13, 13, 8, 3, 3, 1, Padding::NONE)),
    ]
}

/// Runs one baseline over every supported grid layer against the direct
/// path and enforces its ULP budget. The direct reference and the
/// baseline see identical operands (seeded per layer).
fn conformance(
    name: &str,
    budget_ulp: u64,
    abs_floor: f32,
    supports: impl Fn(&ConvShape) -> bool,
    run: impl Fn(&StaticPool, &Tensor4, &Filter, &ConvShape) -> Tensor4,
) {
    let pool = StaticPool::new(2);
    let mut covered = 0;
    for (i, (label, shape)) in layer_grid().into_iter().enumerate() {
        if !supports(&shape) {
            continue;
        }
        covered += 1;
        let seed = 0xc0f0 + i as u64;
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed ^ 1);
        let want = direct_reference(&pool, &input, &filter, &shape);
        let got = run(&pool, &input, &filter, &shape);
        let ulp = max_ulp(got.as_slice(), want.as_slice(), abs_floor);
        eprintln!("{name:<10} {label:<12} max {ulp} ULP (budget {budget_ulp})");
        assert!(
            ulp <= budget_ulp,
            "{name} on '{label}' ({shape}): {ulp} ULP from direct exceeds budget {budget_ulp}"
        );
    }
    assert!(covered >= 2, "{name} must cover at least two grid layers");
}

/// Declares one conformance test per baseline row:
/// `name => (budget_ulp, abs_floor, supports, runner)`.
macro_rules! conformance_suite {
    ($($test:ident: $name:literal => ($budget:expr, $floor:expr, $supports:expr, $run:expr);)+) => {
        $(
            #[test]
            fn $test() {
                conformance($name, $budget, $floor, $supports, $run);
            }
        )+
    };
}

conformance_suite! {
    // Exact-arithmetic methods reassociate the same f32 products, so they
    // sit within a few thousand ULP (~1e-4 relative) of the direct
    // summation order even on low-channel layers where each individual
    // rounding step weighs more.
    naive_conforms_to_direct: "naive" =>
        (4096, 1e-6, |_: &ConvShape| true,
         |_p: &StaticPool, i: &Tensor4, f: &Filter, s: &ConvShape| naive::conv_ref(i, f, s));
    im2col_conforms_to_direct: "im2col" =>
        (4096, 1e-6, |_: &ConvShape| true,
         |p: &StaticPool, i: &Tensor4, f: &Filter, s: &ConvShape| im2col::conv_im2col(p, i, f, s));
    blocked_conforms_to_direct: "blocked" =>
        (4096, 1e-6, |_: &ConvShape| true,
         |p: &StaticPool, i: &Tensor4, f: &Filter, s: &ConvShape| blocked::conv_blocked_nchw(p, i, f, s));
    indirect_conforms_to_direct: "indirect" =>
        (4096, 1e-6, |_: &ConvShape| true,
         |p: &StaticPool, i: &Tensor4, f: &Filter, s: &ConvShape| indirect::conv_indirect_nchw(p, i, f, s));
    // Transform-domain methods trade accuracy for FLOPs; their budgets are
    // orders of magnitude wider — the paper's §2.1 accuracy argument.
    winograd_conforms_to_direct: "winograd" =>
        (1 << 16, 1e-5, |s: &ConvShape| s.r == 3 && s.s == 3 && s.stride == 1,
         |p: &StaticPool, i: &Tensor4, f: &Filter, s: &ConvShape| winograd::conv_winograd(p, i, f, s));
    fft_conforms_to_direct: "fft" =>
        (1 << 17, 1e-4, |_: &ConvShape| true,
         |p: &StaticPool, i: &Tensor4, f: &Filter, s: &ConvShape| fft::conv_fft(p, i, f, s));
}

/// Every packing variant of the direct path is one plan over the same
/// Algorithm 2 loop nest: each output element still has exactly one
/// writer accumulating the same products in the same order, so outputs
/// must be *bitwise* identical across variants — no ULP budget at all.
/// This runs the full grid (stride-2 stem, boundary-heavy odd-spatial
/// downsample, valid-padding tails) against the `Fused` reference.
#[test]
fn packing_variants_are_bitwise_identical_to_fused() {
    let pool = StaticPool::new(2);
    for (i, (label, shape)) in layer_grid().into_iter().enumerate() {
        let seed = 0xace0 + i as u64;
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed ^ 1);
        let base = Schedule::derive(&ndirect_platform::host(), &shape, pool.size());
        let mut fused = base.clone();
        fused.packing = PackingMode::Fused;
        let want = try_conv_ndirect_with(&pool, &input, &filter, &shape, &fused.sanitized(&shape))
            .expect("valid problem");
        let mut sched = base.clone();
        sched.packing = PackingMode::Sequential;
        let sched = sched.sanitized(&shape);
        let got =
            try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched).expect("valid problem");
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "'{label}' ({shape}) under Sequential diverges bitwise from Fused"
        );
    }
}

#[test]
fn ulp_distance_helper_is_sane() {
    assert_eq!(ulp_distance(1.0, 1.0), 0);
    assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
    // Symmetric, and counts across zero as distance-from-zero sums.
    assert_eq!(ulp_distance(-0.0, 0.0), 0);
    assert_eq!(ulp_distance(1.5, 1.0), ulp_distance(1.0, 1.5));
    assert!(ulp_distance(-1e-30, 1e-30) > 0);
    // The floor suppresses cancellation noise near zero.
    assert_eq!(max_ulp(&[1e-7], &[-1e-7], 1e-6), 0);
}
