//! Differential conformance for the depthwise-separable block.
//!
//! Every grid pair runs twice: as one [`ndirect_core::FusedDwPwPlan`] (a
//! depthwise plan feeding a 1×1 plan through a pooled intermediate) and
//! unfused (`conv_depthwise` into a materialized tensor, then the one-shot
//! nDirect 1×1), and the outputs must agree bit for bit. The unfused
//! pointwise stage runs under every packing variant, which must agree
//! bitwise too.
//!
//! The grid deliberately walks the boundary machinery: stride 1 and 2,
//! same and valid padding, channel counts off the 4-lane grid (dw) and
//! off the `Vk` grid (pw), odd spatial sizes, and a `Q` that exercises
//! `Vw` tail tiles.

use ndirect_core::{conv_depthwise, try_conv_ndirect_with, FusedDwPwPlan, PackingMode, Schedule};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::StaticPool;

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
) -> Tensor4 {
    let mid = conv_depthwise(pool, input, dw_filter, dw_shape);
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

fn plan(
    dw_shape: &ConvShape,
    dwf: &Filter,
    pwf: &Filter,
    threads: usize,
) -> Result<FusedDwPwPlan, ndirect_core::Error> {
    FusedDwPwPlan::try_new(&ndirect_platform::host(), dw_shape, dwf, pwf, threads)
}

/// The headline table: the planned block against the unfused one-shot
/// composition over the whole grid, bit for bit.
#[test]
fn fused_conforms_to_unfused_on_grid() {
    let pool = StaticPool::new(2);
    for (i, (label, dw_shape, k)) in pair_grid().into_iter().enumerate() {
        let (input, dwf, pwf) = seeded_pair(&dw_shape, k, 0xd2f0 + i as u64);
        let want = unfused_reference(&pool, &input, &dwf, &pwf, &dw_shape, k);
        let mut got = Tensor4::zeros(dw_shape.n, k, dw_shape.p(), dw_shape.q(), ActLayout::Nchw);
        plan(&dw_shape, &dwf, &pwf, pool.size())
            .and_then(|plan| plan.execute(&pool, &input, &mut got))
            .unwrap_or_else(|e| panic!("block on '{label}': {e}"));
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "block on '{label}' ({dw_shape} -> K={k}) differs from the unfused composition"
        );
    }
}

/// The block refuses pairs it cannot compose, with typed errors rather
/// than wrong answers.
#[test]
fn fused_rejects_mismatched_pairs() {
    let dw_shape = ConvShape::new(1, 8, 10, 10, 8, 3, 3, 1, Padding::same(1));
    let (_, dwf, _) = seeded_pair(&dw_shape, 12, 9);
    // Pointwise filter whose C doesn't match the depthwise output.
    let bad_pw = Filter::zeros(12, 7, 1, 1, FilterLayout::Kcrs);
    assert!(plan(&dw_shape, &dwf, &bad_pw, 1).is_err());
    // Pointwise filter that isn't 1×1.
    let bad_rs = Filter::zeros(12, 8, 3, 3, FilterLayout::Kcrs);
    assert!(plan(&dw_shape, &dwf, &bad_rs, 1).is_err());
}
