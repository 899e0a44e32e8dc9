//! The paper's layout-compatibility claim, end to end: nDirect consumes
//! and produces the mainstream layouts without the caller converting
//! anything, and agrees with itself across layouts.

use ndirect_core::{try_conv_ndirect, transform_filter};
use ndirect_tensor::{
    assert_close, convert, ActLayout, ConvShape, FilterLayout,
};
use ndirect_threads::StaticPool;
use ndirect_workloads::make_problem;

#[test]
fn nchw_and_nhwc_entries_agree() {
    let shape = ConvShape::square(2, 12, 20, 11, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 1);
    let pool = StaticPool::new(2);

    let out_nchw = try_conv_ndirect(&pool, &p.input, &p.filter, &shape).expect("valid problem");

    let in_nhwc = p.input.to_layout(ActLayout::Nhwc);
    let f_krsc = p.filter.to_layout(FilterLayout::Krsc);
    let out_nhwc = try_conv_ndirect(&pool, &in_nhwc, &f_krsc, &shape).expect("valid problem");

    assert_eq!(out_nchw.layout(), ActLayout::Nchw);
    assert_eq!(out_nhwc.layout(), ActLayout::Nhwc);
    assert_close(
        out_nhwc.to_layout(ActLayout::Nchw).as_slice(),
        out_nchw.as_slice(),
        2e-4, // the two native kernels reduce in different orders
        "NCHW vs NHWC entry",
    );
}

#[test]
fn filter_transform_preserves_every_weight() {
    // The on-the-fly transform is the only layout change nDirect makes;
    // verify it is lossless for awkward K values.
    for (k, c, r, s, vk) in [(13usize, 5usize, 3usize, 3usize, 8usize), (4, 3, 1, 1, 4), (31, 2, 5, 5, 12)] {
        let shape = ConvShape::new(1, c, r + 2, s + 2, k, r, s, 1, ndirect_tensor::Padding::NONE);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 9);
        let tf = transform_filter(&p.filter, vk);
        for kk in 0..k {
            for cc in 0..c {
                for rr in 0..r {
                    for ss in 0..s {
                        let block = tf.block(kk / vk, cc, 1);
                        let got = block[(rr * s + ss) * vk + kk % vk];
                        assert_eq!(got, p.filter.at(kk, cc, rr, ss), "k={kk} c={cc} r={rr} s={ss}");
                    }
                }
            }
        }
    }
}

#[test]
fn activation_round_trips_are_lossless() {
    let shape = ConvShape::square(3, 7, 5, 9, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 2);
    let nhwc = convert::convert_activation(&p.input, ActLayout::Nhwc);
    let back = convert::convert_activation(&nhwc, ActLayout::Nchw);
    assert_eq!(back.as_slice(), p.input.as_slice());

    let blocked = convert::to_blocked_activation(&p.input, 4);
    let back = convert::from_blocked_activation(&blocked, ActLayout::Nchw);
    assert_eq!(back.as_slice(), p.input.as_slice());
}

#[test]
fn output_tensor_matches_framework_expectations() {
    // A framework hands nDirect a preallocated NCHW output and expects
    // exactly (N, K, P, Q) with no layout surprises.
    let shape = ConvShape::square(2, 6, 10, 9, 3, 2);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 3);
    let pool = StaticPool::new(1);
    let out = try_conv_ndirect(&pool, &p.input, &p.filter, &shape).expect("valid problem");
    assert_eq!(out.dims(), (2, 10, shape.p(), shape.q()));
    assert_eq!(out.layout(), ActLayout::Nchw);
    // And the input/filter were not consumed or mutated.
    let p2 = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 3);
    assert_eq!(p.input.as_slice(), p2.input.as_slice());
    assert_eq!(p.filter.as_slice(), p2.filter.as_slice());
}

#[test]
fn xnnpack_baseline_keeps_its_native_layouts() {
    // The indirect baseline runs natively in NHWC/KRSC (§7.4); its NCHW
    // adapter must cost conversions, not change results.
    let shape = ConvShape::square(2, 8, 12, 9, 3, 1);
    let p = make_problem(shape, ActLayout::Nhwc, FilterLayout::Krsc, 4);
    let pool = StaticPool::new(1);
    let out = ndirect_baselines::indirect::conv_indirect(&pool, &p.input, &p.filter, &shape);
    assert_eq!(out.layout(), ActLayout::Nhwc);

    let in_nchw = p.input.to_layout(ActLayout::Nchw);
    let f_kcrs = p.filter.to_layout(FilterLayout::Kcrs);
    let out2 =
        ndirect_baselines::indirect::conv_indirect_nchw(&pool, &in_nchw, &f_kcrs, &shape);
    assert_close(
        out2.as_slice(),
        out.to_layout(ActLayout::Nchw).as_slice(),
        1e-6,
        "indirect adapter",
    );
}

#[test]
fn pre_padded_blocked_input_matches_implicit_padding() {
    // The LIBXSMM-style baseline pads explicitly; nDirect pads implicitly
    // in its packing. Same operator either way.
    let shape = ConvShape::square(1, 6, 8, 7, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 5);
    let pool = StaticPool::new(1);
    let blocked = ndirect_baselines::blocked::conv_blocked_nchw(&pool, &p.input, &p.filter, &shape);
    let ndirect = try_conv_ndirect(&pool, &p.input, &p.filter, &shape).expect("valid problem");
    assert_close(ndirect.as_slice(), blocked.as_slice(), 2e-4, "pad handling");
}

#[test]
fn empty_output_edge_case() {
    // Q == 1 and P == 1: the smallest legal output.
    let shape = ConvShape::new(1, 3, 3, 3, 2, 3, 3, 1, ndirect_tensor::Padding::NONE);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 6);
    let pool = StaticPool::new(1);
    let out = try_conv_ndirect(&pool, &p.input, &p.filter, &shape).expect("valid problem");
    assert_eq!(out.dims(), (1, 2, 1, 1));
    let expect = ndirect_baselines::naive::conv_ref(&p.input, &p.filter, &shape);
    assert_close(out.as_slice(), expect.as_slice(), 2e-4, "1x1 output");
}
