//! Integration tests for the §10.2 extensions: depthwise, 3-D, native
//! NHWC — cross-module behaviour beyond the unit tests in `ndirect-core`.

use ndirect_core::{
    conv3d_naive, try_conv3d_ndirect, conv_depthwise, try_conv_ndirect, Conv3dShape, Schedule,
};
use ndirect_support::Rng64;
use ndirect_tensor::{
    assert_close, fill, ActLayout, ConvShape, Filter, Filter5, FilterLayout, Padding, Tensor4,
    Tensor5,
};
use ndirect_threads::StaticPool;

#[test]
fn depthwise_then_pointwise_equals_grouped_dense() {
    // A depthwise conv equals a dense conv whose filter is diagonal in
    // channels: F[k][c] = dw[k] if k == c else 0.
    let c = 6;
    let shape = ConvShape::new(2, c, 9, 9, c, 3, 3, 1, Padding::same(1));
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 1);
    let dw = fill::random_filter(Filter::zeros(c, 1, 3, 3, FilterLayout::Kcrs), 2);
    let pool = StaticPool::new(2);

    let got = conv_depthwise(&pool, &input, &dw, &shape);

    let mut dense = Filter::zeros(c, c, 3, 3, FilterLayout::Kcrs);
    for k in 0..c {
        for r in 0..3 {
            for s in 0..3 {
                *dense.at_mut(k, k, r, s) = dw.at(k, 0, r, s);
            }
        }
    }
    let expect = try_conv_ndirect(&pool, &input, &dense, &shape).expect("valid problem");
    assert_close(got.as_slice(), expect.as_slice(), 2e-4, "dw == diagonal dense");
}

#[test]
fn conv3d_with_unit_depth_equals_2d() {
    // T = D = 1 collapses 3-D convolution to the 2-D operator, and the 3-D
    // entry plans it as its 2-D self.
    let shape2 = ConvShape::new(1, 3, 8, 8, 5, 3, 3, 1, Padding::same(1));
    let input2 = fill::random_tensor(Tensor4::input_for(&shape2, ActLayout::Nchw), 3);
    let filter2 = fill::random_filter(Filter::for_shape(&shape2, FilterLayout::Kcrs), 3);
    let pool = StaticPool::new(1);
    let out2 = try_conv_ndirect(&pool, &input2, &filter2, &shape2).expect("valid problem");

    let shape3 = Conv3dShape {
        n: 1,
        c: 3,
        d: 1,
        h: 8,
        w: 8,
        k: 5,
        t: 1,
        r: 3,
        s: 3,
        stride: 1,
        pad_d: 0,
        pad_h: 1,
        pad_w: 1,
    };
    let mut input3 = Tensor5::zeros(1, 3, 1, 8, 8);
    input3.as_mut_slice().copy_from_slice(input2.as_slice());
    let mut filter3 = Filter5::zeros(5, 3, 1, 3, 3);
    filter3.as_mut_slice().copy_from_slice(filter2.as_slice());
    let out3 = try_conv3d_ndirect(&pool, &input3, &filter3, &shape3).expect("valid problem");
    // The same plan on the same shape and schedule: the same bits.
    assert_eq!(out3.as_slice(), out2.as_slice(), "conv3d(T=1) == conv2d");
}

#[test]
fn nhwc_native_matches_nchw_on_scaled_table4_rows() {
    let pool = StaticPool::new(2);
    for layer in ndirect_workloads::fig1_layers() {
        let shape = ConvShape::square(
            1,
            layer.c.min(24),
            layer.k.min(24),
            layer.hw.min(12).max(layer.rs + layer.stride),
            layer.rs,
            layer.stride,
        );
        let p = ndirect_workloads::make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 70);
        let nchw_out = try_conv_ndirect(&pool, &p.input, &p.filter, &shape).expect("valid problem");
        let nhwc_out = try_conv_ndirect(
            &pool,
            &p.input.to_layout(ActLayout::Nhwc),
            &p.filter.to_layout(FilterLayout::Krsc),
            &shape,
        )
        .expect("valid problem");
        assert_close(
            nhwc_out.to_layout(ActLayout::Nchw).as_slice(),
            nchw_out.as_slice(),
            2e-4,
            &format!("nhwc vs nchw, layer {}", layer.id),
        );
    }
}

#[test]
fn depthwise_matches_oracle_on_random_shapes() {
    let mut rng = Rng64::seed_from_u64(0xe071);
    let pool = StaticPool::new(1);
    for case in 0..16 {
        let n = rng.gen_range_usize(1, 3);
        let c = rng.gen_range_usize(1, 14);
        let hw = rng.gen_range_usize(3, 12);
        let rs = *rng.choose(&[1usize, 3, 5]);
        let stride = rng.gen_range_usize(1, 3);
        if hw + 2 * (rs / 2) < rs {
            continue;
        }
        let seed = rng.next_u64();
        let shape = ConvShape::new(n, c, hw, hw, c, rs, rs, stride, Padding::same(rs / 2));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
        let dw = fill::random_filter(Filter::zeros(c, 1, rs, rs, FilterLayout::Kcrs), seed ^ 1);
        let got = conv_depthwise(&pool, &input, &dw, &shape);

        // Scalar oracle.
        for ni in 0..n { for ci in 0..c {
            for oj in 0..shape.p() { for oi in 0..shape.q() {
                let mut acc = 0.0f32;
                for r in 0..rs { for s in 0..rs {
                    let ij = (stride * oj + r) as isize - (rs / 2) as isize;
                    let ii = (stride * oi + s) as isize - (rs / 2) as isize;
                    acc += ndirect_tensor::pad::at_padded(&input, ni, ci, ij, ii)
                        * dw.at(ci, 0, r, s);
                }}
                let g = got.at(ni, ci, oj, oi);
                assert!(
                    (g - acc).abs() <= 1e-4 * acc.abs().max(1.0),
                    "case {case}: {g} vs {acc}"
                );
            }}
        }}
    }
}

#[test]
fn conv3d_matches_oracle_on_random_shapes() {
    let mut rng = Rng64::seed_from_u64(0xe072);
    let pool = StaticPool::new(1);
    let mut case = 0;
    while case < 16 {
        let c = rng.gen_range_usize(1, 5);
        let k = rng.gen_range_usize(1, 6);
        let d = rng.gen_range_usize(2, 6);
        let hw = rng.gen_range_usize(3, 8);
        let t = rng.gen_range_usize(1, 3);
        let rs = rng.gen_range_usize(1, 4);
        if d < t || hw < rs {
            continue;
        }
        case += 1;
        let seed = rng.next_u64();
        let shape = Conv3dShape {
            n: 1, c, d, h: hw, w: hw, k, t, r: rs, s: rs,
            stride: 1, pad_d: 0, pad_h: 0, pad_w: 0,
        };
        let mut input = Tensor5::zeros(1, c, d, hw, hw);
        fill::fill_random(input.as_mut_slice(), seed);
        let mut filter = Filter5::zeros(k, c, t, rs, rs);
        fill::fill_random(filter.as_mut_slice(), seed ^ 2);
        let got = try_conv3d_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
        let expect = conv3d_naive(&input, &filter, &shape);
        assert_close(
            got.as_slice(),
            expect.as_slice(),
            2e-4,
            &format!("conv3d case {case}"),
        );
    }
}

#[test]
fn nhwc_native_matches_oracle_on_random_shapes() {
    let mut rng = Rng64::seed_from_u64(0xe073);
    let pool = StaticPool::new(1);
    for case in 0..16 {
        let n = rng.gen_range_usize(1, 3);
        let c = rng.gen_range_usize(1, 10);
        let k = rng.gen_range_usize(1, 14);
        let h = rng.gen_range_usize(3, 10);
        let w = rng.gen_range_usize(3, 12);
        let rs = *rng.choose(&[1usize, 3]);
        let stride = rng.gen_range_usize(1, 3);
        let seed = rng.next_u64();
        let shape = ConvShape::new(n, c, h, w, k, rs, rs, stride, Padding::same(rs / 2));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nhwc), seed);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Krsc), seed ^ 3);
        let expect = ndirect_baselines::naive::conv_ref(&input, &filter, &shape);
        let got = ndirect_core::try_conv_ndirect_with(
            &pool, &input, &filter, &shape, &Schedule::minimal(&shape),
        )
        .expect("valid problem");
        assert_close(
            got.as_slice(),
            expect.as_slice(),
            2e-4,
            &format!("case {case}: {shape}"),
        );
    }
}
