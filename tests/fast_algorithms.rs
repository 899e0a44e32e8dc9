//! Integration tests for the §2.1 fast-algorithm baselines (Winograd,
//! FFT) against the whole backend set.

use ndirect_baselines::{fft, naive, winograd};
use ndirect_core::try_conv_ndirect;
use ndirect_support::Rng64;
use ndirect_tensor::{assert_close, ActLayout, ConvShape, FilterLayout, Padding};
use ndirect_threads::StaticPool;
use ndirect_workloads::{fig4_layers, make_problem};

#[test]
fn winograd_matches_direct_on_scaled_3x3_table4_rows() {
    let pool = StaticPool::new(2);
    for layer in fig4_layers()
        .iter()
        .filter(|l| l.rs == 3 && l.stride == 1)
    {
        let shape = ConvShape::square(
            1,
            layer.c.min(32),
            layer.k.min(32),
            layer.hw.clamp(4, 14),
            3,
            1,
        );
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, layer.id as u64);
        let direct = try_conv_ndirect(&pool, &p.input, &p.filter, &shape).expect("valid problem");
        let wino = winograd::conv_winograd(&pool, &p.input, &p.filter, &shape);
        assert_close(
            wino.as_slice(),
            direct.as_slice(),
            2e-3, // Winograd's transforms cost a little precision
            &format!("winograd vs nDirect, layer {}", layer.id),
        );
    }
}

#[test]
fn fft_matches_direct_on_mixed_shapes() {
    let pool = StaticPool::new(2);
    for shape in [
        ConvShape::new(1, 3, 10, 10, 4, 3, 3, 1, Padding::same(1)),
        ConvShape::new(2, 2, 8, 12, 3, 5, 5, 1, Padding::same(2)),
        ConvShape::new(1, 4, 9, 9, 2, 3, 3, 2, Padding::same(1)),
        ConvShape::new(1, 2, 6, 6, 2, 1, 1, 1, Padding::NONE),
    ] {
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 99);
        let direct = naive::conv_ref(&p.input, &p.filter, &shape);
        let f = fft::conv_fft(&pool, &p.input, &p.filter, &shape);
        assert_close(f.as_slice(), direct.as_slice(), 5e-3, &format!("fft {shape}"));
    }
}

#[test]
fn winograd_thread_invariance() {
    let shape = ConvShape::new(2, 6, 10, 10, 8, 3, 3, 1, Padding::same(1));
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 5);
    let a = winograd::conv_winograd(&StaticPool::new(1), &p.input, &p.filter, &shape);
    let b = winograd::conv_winograd(&StaticPool::new(4), &p.input, &p.filter, &shape);
    // par_gemm stripes columns without changing reduction order.
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn fft_thread_invariance() {
    let shape = ConvShape::new(3, 2, 8, 8, 4, 3, 3, 1, Padding::same(1));
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 6);
    let a = fft::conv_fft(&StaticPool::new(1), &p.input, &p.filter, &shape);
    let b = fft::conv_fft(&StaticPool::new(3), &p.input, &p.filter, &shape);
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn winograd_matches_oracle_on_random_3x3_shapes() {
    let mut rng = Rng64::seed_from_u64(0xfa57);
    let pool = StaticPool::new(1);
    for case in 0..12 {
        let n = rng.gen_range_usize(1, 3);
        let c = rng.gen_range_usize(1, 12);
        let k = rng.gen_range_usize(1, 12);
        let h = rng.gen_range_usize(3, 14);
        let w = rng.gen_range_usize(3, 14);
        let pad = rng.gen_range_usize(0, 2);
        let shape = ConvShape::new(n, c, h, w, k, 3, 3, 1, Padding::same(pad));
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, rng.next_u64());
        let expect = naive::conv_ref(&p.input, &p.filter, &shape);
        let got = winograd::conv_winograd(&pool, &p.input, &p.filter, &shape);
        assert_close(
            got.as_slice(),
            expect.as_slice(),
            2e-3,
            &format!("case {case}: {shape}"),
        );
    }
}

#[test]
fn fft_matches_oracle_on_random_shapes() {
    let mut rng = Rng64::seed_from_u64(0xfa58);
    let pool = StaticPool::new(1);
    let mut case = 0;
    while case < 12 {
        let c = rng.gen_range_usize(1, 6);
        let k = rng.gen_range_usize(1, 6);
        let h = rng.gen_range_usize(3, 12);
        let w = rng.gen_range_usize(3, 12);
        let r = rng.gen_range_usize(1, 4);
        let s = rng.gen_range_usize(1, 4);
        let stride = rng.gen_range_usize(1, 3);
        if h < r || w < s {
            continue;
        }
        case += 1;
        let shape = ConvShape::new(1, c, h, w, k, r, s, stride, Padding::NONE);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, rng.next_u64());
        let expect = naive::conv_ref(&p.input, &p.filter, &shape);
        let got = fft::conv_fft(&pool, &p.input, &p.filter, &shape);
        assert_close(
            got.as_slice(),
            expect.as_slice(),
            5e-3,
            &format!("case {case}: {shape}"),
        );
    }
}
