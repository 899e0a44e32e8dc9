//! The §10.2 extensions, end to end: depthwise-separable convolution
//! (MobileNet's building block), 3-D convolution, and the native NHWC
//! entry point.
//!
//! Each printed time is the median of five calls after a warm-up call, so
//! first-touch pages and cold caches stay out of it.
//!
//! ```sh
//! cargo run --release -p ndirect-integration --example extensions
//! ```

use ndirect_core::{
    conv3d_naive, try_conv3d_ndirect, try_conv_depthwise_separable, try_conv_ndirect, Conv3dShape,
};
use ndirect_tensor::{
    fill, max_rel_diff, ActLayout, ConvShape, Filter, Filter5, FilterLayout, Tensor4, Tensor5,
};
use ndirect_threads::StaticPool;
use std::time::Instant;

/// Timed calls per measurement, after one warm-up call.
const REPS: usize = 5;

/// Calls `f` once to warm up, then `REPS` more times; returns the last
/// result and the median seconds of the timed calls.
fn timed_median<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f();
    let mut secs = [0.0; REPS];
    for s in &mut secs {
        let t = Instant::now();
        out = f();
        *s = t.elapsed().as_secs_f64();
    }
    secs.sort_by(f64::total_cmp);
    (out, secs[REPS / 2])
}

fn main() {
    let pool = StaticPool::with_hardware_threads();

    // --- Depthwise separable block (MobileNet): dw3x3 + pw1x1 ---
    let shape = ConvShape::square(1, 64, 64, 56, 3, 1); // geometry carrier
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 1);
    let dw = fill::random_filter(Filter::zeros(64, 1, 3, 3, FilterLayout::Kcrs), 2);
    let pw = fill::random_filter(Filter::zeros(128, 64, 1, 1, FilterLayout::Kcrs), 3);
    let (out, dsc_secs) = timed_median(|| {
        try_conv_depthwise_separable(&pool, &input, &dw, &pw, &shape).expect("valid problem")
    });
    // The separable pair vs the dense 3x3 it approximates: count the MACs.
    let dsc_macs = 64 * 56 * 56 * 9 + 128 * 64 * 56 * 56;
    let dense_macs = 128 * 64 * 56 * 56 * 9;
    println!(
        "depthwise-separable 64->128 @56x56: {:.2} ms, {}x fewer MACs than dense 3x3",
        dsc_secs * 1e3,
        dense_macs / dsc_macs
    );
    assert_eq!(out.dims(), (1, 128, 56, 56));

    // --- 3-D convolution (video / volumetric) ---
    let shape3 = Conv3dShape {
        n: 1,
        c: 4,
        d: 16,
        h: 32,
        w: 32,
        k: 8,
        t: 3,
        r: 3,
        s: 3,
        stride: 1,
        pad_d: 1,
        pad_h: 1,
        pad_w: 1,
    };
    let mut vol = Tensor5::zeros(shape3.n, shape3.c, shape3.d, shape3.h, shape3.w);
    fill::fill_random(vol.as_mut_slice(), 4);
    let mut f3 = Filter5::zeros(shape3.k, shape3.c, shape3.t, shape3.r, shape3.s);
    fill::fill_random(f3.as_mut_slice(), 5);

    let (got, fast) =
        timed_median(|| try_conv3d_ndirect(&pool, &vol, &f3, &shape3).expect("valid problem"));
    let (expect, slow) = timed_median(|| conv3d_naive(&vol, &f3, &shape3));
    let err = max_rel_diff(got.as_slice(), expect.as_slice());
    println!(
        "conv3d 4->8 @16x32x32 3x3x3: {:.2} GFLOPS ({:.1}x over naive), max rel err {err:.1e}",
        shape3.flops() as f64 / fast / 1e9,
        slow / fast
    );
    assert!(err < 2e-4);

    // --- Native NHWC entry (TensorFlow-style layouts) ---
    let shape = ConvShape::square(1, 64, 64, 28, 3, 1);
    let in_nhwc = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nhwc), 6);
    let f_krsc = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Krsc), 7);
    let (out, nhwc_secs) =
        timed_median(|| try_conv_ndirect(&pool, &in_nhwc, &f_krsc, &shape).expect("valid problem"));
    println!(
        "native NHWC 64->64 @28x28 3x3: {:.2} GFLOPS, output layout {:?}",
        shape.gflops(nhwc_secs),
        out.layout()
    );
    let oracle = ndirect_baselines::naive::conv_ref(&in_nhwc, &f_krsc, &shape);
    let err = max_rel_diff(out.as_slice(), oracle.as_slice());
    assert!(err < 2e-4);

    // --- INT16 quantized convolution ---
    let shape = ConvShape::square(1, 64, 64, 28, 3, 1);
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 8);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 9);
    let ((qout, qx, qw), qt) = timed_median(|| {
        ndirect_core::try_conv_quantized(&pool, &input, &filter, &shape).expect("valid problem")
    });
    let reference = ndirect_baselines::naive::conv_ref(&input, &filter, &shape);
    let qerr = max_rel_diff(qout.as_slice(), reference.as_slice());
    println!(
        "INT16 quantized 64->64 @28x28 3x3: {:.2} effective GOPS, scales ({:.2e}, {:.2e}), max rel err {qerr:.1e}",
        shape.gflops(qt),
        qx.scale,
        qw.scale
    );
    // Worst plausible quantization error for this reduction: each of the
    // C·R·S products carries ≤ (scale_x + scale_w)/2 noise with [-1,1) data,
    // accumulating ~√(C·R·S) in RMS; outputs near zero make the relative
    // metric (denominator clamped at 1) see it directly.
    let crs = (64 * 3 * 3) as f32;
    let qbound = 2.0 * crs.sqrt() * (qx.scale + qw.scale);
    assert!(qerr < qbound, "qerr {qerr} vs bound {qbound}");
    println!("all extensions verified against oracles");
}
