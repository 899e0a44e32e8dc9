//! Differential conformance for the fused depthwise+pointwise path.
//!
//! Every grid pair runs twice: fused ([`ndirect_core::FusedDwPwPlan`], one
//! pass, slab-resident intermediate) and unfused (`conv_depthwise` into a
//! materialized tensor, then the standard nDirect 1×1), and the outputs are
//! diffed in max-ULP terms. The unfused pointwise stage runs under every
//! packing variant, which must agree bitwise, so the fusion is held to all
//! of them.
//!
//! The grid deliberately walks the boundary machinery: stride 1 and 2,
//! same and valid padding, channel counts off the 4-lane grid (dw) and
//! off the `Vk` grid (pw), odd spatial sizes, and a `Q` that exercises
//! `Vw` tail tiles.

use ndirect_core::{
    conv_depthwise, try_conv_ndirect_with, try_conv_dwpw_fused, try_conv_dwpw_fused_with,
    DwPwSchedule, FusedDwPwPlan, PackingMode, Schedule,
};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::StaticPool;

// --- ULP harness (mirrors crates/baselines/tests/conformance.rs; Cargo
// --- integration tests are separate binaries, so the ~30 lines are
// --- restated rather than shared).

/// ULP distance between two finite f32s via the lexicographic-order
/// mapping of IEEE bits; values straddling zero are charged the sum of
/// their distances from zero.
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn order(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
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
    assert_eq!(got.len(), want.len(), "outputs must be same-size");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| {
            assert!(g.is_finite(), "fused path produced a non-finite value {g}");
            if (g - w).abs() <= abs_floor {
                0
            } else {
                ulp_distance(g, w)
            }
        })
        .max()
        .unwrap_or(0)
}

/// The pointwise stage reassociates the same `C`-length f32 dot products
/// as the unfused reference, so the pair sits in the exact-method budget
/// band of the baselines' conformance table.
const BUDGET_ULP: u64 = 4096;
const ABS_FLOOR: f32 = 1e-6;

/// One grid pair: `(label, N, C, K, H, W, stride, pad)` for a `3×3`
/// depthwise stage feeding a `1×1` pointwise `C → K`.
fn pair_grid() -> Vec<(&'static str, ConvShape, usize)> {
    let pair = |n, c, k, h, w, stride, pad: Option<usize>| {
        let padding = match pad {
            Some(p) => Padding::same(p),
            None => Padding::NONE,
        };
        (ConvShape::new(n, c, h, w, c, 3, 3, stride, padding), k)
    };
    vec![
        // Lane-aligned baseline.
        {
            let (s, k) = pair(1, 8, 12, 12, 12, 1, Some(1));
            ("even s1 p1", s, k)
        },
        // Odd spatial, dw channel tail (8 + 2 lanes-of-4), pw Vk tail.
        {
            let (s, k) = pair(1, 6, 9, 13, 13, 1, Some(1));
            ("odd s1 p1 tails", s, k)
        },
        // Stride-2 downsample, batch > 1.
        {
            let (s, k) = pair(2, 8, 16, 14, 14, 2, Some(1));
            ("even s2 p1", s, k)
        },
        // Stride 2 over odd input: asymmetric halo rows.
        {
            let (s, k) = pair(1, 10, 16, 15, 15, 2, Some(1));
            ("odd s2 p1", s, k)
        },
        // Valid padding, stride 1.
        {
            let (s, k) = pair(1, 12, 20, 11, 11, 1, None);
            ("s1 p0 valid", s, k)
        },
        // Valid padding, stride 2, channel counts off every grid.
        {
            let (s, k) = pair(1, 5, 7, 12, 12, 2, None);
            ("s2 p0 tails", s, k)
        },
        // Degenerate single channel.
        {
            let (s, k) = pair(1, 1, 4, 9, 9, 1, Some(1));
            ("single channel", s, k)
        },
        // Wide rows: Q = 29 forces Vw main + tail tiles at every width.
        {
            let (s, k) = pair(1, 4, 4, 7, 29, 1, Some(1));
            ("wide q", s, k)
        },
    ]
}

fn seeded_pair(dw_shape: &ConvShape, k: usize, seed: u64) -> (Tensor4, Filter, Filter) {
    (
        fill::random_tensor(Tensor4::input_for(dw_shape, ActLayout::Nchw), seed),
        fill::random_filter(
            Filter::zeros(dw_shape.c, 1, dw_shape.r, dw_shape.s, FilterLayout::Kcrs),
            seed ^ 1,
        ),
        fill::random_filter(
            Filter::zeros(k, dw_shape.c, 1, 1, FilterLayout::Kcrs),
            seed ^ 2,
        ),
    )
}

/// The unfused reference: depthwise into a materialized intermediate, then
/// the standard nDirect 1×1 with the host schedule under every packing
/// variant, which must agree bitwise.
fn unfused_reference(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    dw_shape: &ConvShape,
    k: usize,
    mid_relu: bool,
) -> Tensor4 {
    let mut mid = conv_depthwise(pool, input, dw_filter, dw_shape);
    if mid_relu {
        for v in mid.as_mut_slice() {
            *v = v.max(0.0);
        }
    }
    let pw_shape = ConvShape::new(
        dw_shape.n,
        dw_shape.c,
        dw_shape.p(),
        dw_shape.q(),
        k,
        1,
        1,
        1,
        Padding::NONE,
    );
    let base = Schedule::derive(&ndirect_platform::host(), &pw_shape, pool.size());
    let run = |mode| {
        try_conv_ndirect_with(pool, &mid, pw_filter, &pw_shape, &base.with_packing(mode))
            .expect("valid problem")
    };
    let want = run(PackingMode::Fused);
    let got = run(PackingMode::Sequential);
    assert_eq!(
        got.as_slice(),
        want.as_slice(),
        "{pw_shape} under Sequential differs from Fused"
    );
    want
}

/// The headline table: fused vs. unfused over the whole grid, within the
/// exact-method ULP budget.
#[test]
fn fused_conforms_to_unfused_on_grid() {
    let pool = StaticPool::new(2);
    for (i, (label, dw_shape, k)) in pair_grid().into_iter().enumerate() {
        let (input, dwf, pwf) = seeded_pair(&dw_shape, k, 0xd2f0 + i as u64);
        let want = unfused_reference(&pool, &input, &dwf, &pwf, &dw_shape, k, false);
        let got = try_conv_dwpw_fused(&pool, &input, &dwf, &pwf, &dw_shape)
            .unwrap_or_else(|e| panic!("fused on '{label}': {e}"));
        let ulp = max_ulp(got.as_slice(), want.as_slice(), ABS_FLOOR);
        eprintln!("dwpw {label:<16} max {ulp} ULP (budget {BUDGET_ULP})");
        assert!(
            ulp <= BUDGET_ULP,
            "fused on '{label}' ({dw_shape} -> K={k}): {ulp} ULP exceeds {BUDGET_ULP}"
        );
    }
}

/// Same table with the MobileNet activation placement: ReLU on the
/// depthwise intermediate, applied inside the slab by the fused path and
/// on the materialized tensor by the reference.
#[test]
fn fused_mid_relu_conforms_on_grid() {
    let pool = StaticPool::new(2);
    for (i, (label, dw_shape, k)) in pair_grid().into_iter().enumerate() {
        let (input, dwf, pwf) = seeded_pair(&dw_shape, k, 0xe1f0 + i as u64);
        let want = unfused_reference(&pool, &input, &dwf, &pwf, &dw_shape, k, true);
        let got = try_conv_dwpw_fused_with(&pool, &input, &dwf, &pwf, &dw_shape, true)
            .unwrap_or_else(|e| panic!("fused mid-relu on '{label}': {e}"));
        let ulp = max_ulp(got.as_slice(), want.as_slice(), ABS_FLOOR);
        eprintln!("dwpw+relu {label:<16} max {ulp} ULP (budget {BUDGET_ULP})");
        assert!(
            ulp <= BUDGET_ULP,
            "fused mid-relu on '{label}': {ulp} ULP exceeds {BUDGET_ULP}"
        );
    }
}

/// Within the fused path, every schedule is the same loop nest with the
/// same per-output accumulation chain — slice length and register tile
/// only re-partition work. Outputs must be *bitwise* identical across the
/// schedule corners, on every grid pair. No ULP budget at all.
#[test]
fn fused_schedules_are_bitwise_identical_on_grid() {
    let pool = StaticPool::new(2);
    for (i, (label, dw_shape, k)) in pair_grid().into_iter().enumerate() {
        let (input, dwf, pwf) = seeded_pair(&dw_shape, k, 0xf1f0 + i as u64);
        let run = |sched: &DwPwSchedule| {
            let plan =
                FusedDwPwPlan::try_with_schedule(&dw_shape, &dwf, &pwf, sched, pool.size())
                    .unwrap_or_else(|e| panic!("'{label}': {e}"));
            let mut out =
                Tensor4::zeros(dw_shape.n, k, dw_shape.p(), dw_shape.q(), ActLayout::Nchw);
            plan.execute(&pool, &input, &mut out)
                .unwrap_or_else(|e| panic!("'{label}': {e}"));
            out
        };
        let reference = DwPwSchedule::derive(&ndirect_platform::host(), &dw_shape);
        let want = run(&reference);
        for (rows, vw, vk) in [
            (1, 4, 4),
            (1, 12, 12),
            (dw_shape.p(), 4, 12),
            (dw_shape.p(), 12, 4),
            (2, 8, 8),
        ] {
            let sched = DwPwSchedule {
                slice_rows: rows,
                vw,
                vk,
            }
            .sanitized(&dw_shape);
            let got = run(&sched);
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "'{label}': schedule {sched:?} diverged bitwise from {reference:?}"
            );
        }
    }
}

/// The one-shot fused entry points reject pairs the plan cannot fuse,
/// with typed errors rather than wrong answers.
#[test]
fn fused_rejects_mismatched_pairs() {
    let pool = StaticPool::new(1);
    let dw_shape = ConvShape::new(1, 8, 10, 10, 8, 3, 3, 1, Padding::same(1));
    let (input, dwf, _) = seeded_pair(&dw_shape, 12, 9);
    // Pointwise filter whose C doesn't match the depthwise output.
    let bad_pw = Filter::zeros(12, 7, 1, 1, FilterLayout::Kcrs);
    assert!(try_conv_dwpw_fused(&pool, &input, &dwf, &bad_pw, &dw_shape).is_err());
    // Pointwise filter that isn't 1×1.
    let bad_rs = Filter::zeros(12, 8, 3, 3, FilterLayout::Kcrs);
    assert!(try_conv_dwpw_fused(&pool, &input, &dwf, &bad_rs, &dw_shape).is_err());
}
