//! Depthwise convolution — the §10.2 extension.
//!
//! Depthwise Separable Convolution (MobileNet/Xception) factors a standard
//! convolution into a *depthwise* stage (each channel convolved with its
//! own `R×S` filter, no cross-channel reduction) and a *pointwise* stage
//! (a 1×1 standard convolution, which [`crate::conv_ndirect`] already
//! handles with its dedicated pointwise kernel). The paper notes the
//! depthwise stage falls out of nDirect by "removing the reduction
//! operations of dimension C in micro-kernels" — which is exactly what
//! this module does: the same strip packing (`gather_row`), a register
//! tile of `Vw` pixels × 4 channels, and the same static `PTn`-style row
//! parallelization (there is no `K` dimension to split; channels play
//! that role).

use ndirect_simd::{F32x4, SimdVec};
use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

use crate::error::{check, Error};
use crate::pack::gather_row;

/// Depthwise convolution: `O[n][c] = I[n][c] ⊛ F[c]`, `NCHW` in and out.
/// Panics on invalid inputs; see [`try_conv_depthwise`].
pub fn conv_depthwise(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Tensor4 {
    try_conv_depthwise(pool, input, filter, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_depthwise`].
pub fn try_conv_depthwise(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    check::isa()?;
    shape.validate()?;
    check::act_layout(input, ActLayout::Nchw, "depthwise takes NCHW")?;
    check::depthwise_shape(shape)?;
    check::dims(
        "input dims",
        (shape.n, shape.c, shape.h, shape.w),
        input.dims(),
    )?;
    check::depthwise_filter(shape, filter, "filter dims", "depthwise takes KCRS")?;
    let (p, q) = (shape.p(), shape.q());
    let mut out = Tensor4::zeros(shape.n, shape.c, p, q, ActLayout::Nchw);

    // Thin wrapper since the plan layer exists: build a throwaway plan
    // borrowing the filter and execute it once. Repeated callers build a
    // [`crate::DepthwisePlan`] themselves to reuse the gather buffers.
    let plan = crate::plan::DepthwisePlan::borrowed(shape, filter, pool.size())?;
    plan.execute(pool, input, &mut out)?;
    Ok(out)
}

/// The depthwise register-tile width (pixels per strip).
const DW_VW: usize = 8;

/// Floats in one thread's gather strip: four channels' `R` rows of the
/// widest strip window, `4 · R · ((DW_VW−1)·stride + S)`.
pub(crate) fn gather_rows_len(shape: &ConvShape) -> Result<usize, Error> {
    crate::conv::input_span(DW_VW, shape.stride, shape.s)
        .and_then(|win_max| crate::conv::checked_product(&[4, shape.r, win_max]))
        .ok_or(Error::ScratchAlloc {
            elements: usize::MAX,
        })
}

/// The depthwise kernel: output rows `ohs` of the (up to) four channels
/// starting at `c0` of one image, each finished value handed to
/// `store(channel, oh, ow, value)`. The plan stores into the `NCHW` output,
/// the fused dw+pw path into its cache-resident slab; sharing the body is
/// what keeps the two bitwise equal.
#[inline(always)]
pub(crate) fn depthwise_rows(
    image: &[f32],
    filter: &Filter,
    shape: &ConvShape,
    c0: usize,
    ohs: std::ops::Range<usize>,
    rows: &mut [f32],
    mut store: impl FnMut(usize, usize, usize, f32),
) {
    let lanes = 4.min(shape.c - c0);
    let q = shape.q();
    let stride = shape.stride;
    let (r, s) = (shape.r, shape.s);
    let fdata = filter.as_slice(); // (C,1,R,S): channel-major taps
    for oh in ohs {
        let ih0 = (oh * stride) as isize - shape.pad.h as isize;
        let mut wv = 0;
        while wv < q {
            let valid_w = DW_VW.min(q - wv);
            let win = (valid_w - 1) * stride + s;
            let iw0 = (wv * stride) as isize - shape.pad.w as isize;
            // Gather the strip rows for each of the 4 channels.
            for l in 0..lanes {
                for rr in 0..r {
                    let dst = &mut rows[(l * r + rr) * win..(l * r + rr + 1) * win];
                    gather_row(image, c0 + l, ih0 + rr as isize, iw0, shape.h, shape.w, dst);
                }
            }
            // acc[wi] lanes = 4 channels of pixel wi.
            let mut acc = [F32x4::zero(); DW_VW];
            for rr in 0..r {
                for ss in 0..s {
                    // Filter taps for the 4 channels at (rr, ss).
                    let mut taps = [0.0f32; 4];
                    for (l, t) in taps.iter_mut().enumerate().take(lanes) {
                        // INDEX: c0 + l < C (lanes clamp); rr < R, ss < S.
                        *t = fdata[((c0 + l) * r + rr) * s + ss];
                    }
                    let fv = F32x4::from_array(taps);
                    for (wi, a) in acc.iter_mut().enumerate().take(valid_w) {
                        let mut xs = [0.0f32; 4];
                        for (l, x) in xs.iter_mut().enumerate().take(lanes) {
                            // INDEX: rows holds `lanes` windows of R*win
                            // floats; wi*stride+ss < win (valid_w clamp).
                            *x = rows[(l * r + rr) * win + wi * stride + ss];
                        }
                        *a = a.fma(fv, F32x4::from_array(xs));
                    }
                }
            }
            for (wi, a) in acc.iter().enumerate().take(valid_w) {
                for (l, &v) in a.to_array().iter().enumerate().take(lanes) {
                    store(c0 + l, oh, wv + wi, v);
                }
            }
            wv += valid_w;
        }
    }
}

/// Depthwise-separable block: depthwise `R×S` followed by pointwise `1×1`
/// (the MobileNet building block). `dw_filter` is `(C, 1, R, S)`;
/// `pw_filter` is `(K, C, 1, 1)`. Returns the `(N, K, P, Q)` output.
pub fn conv_depthwise_separable(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    shape: &ConvShape,
) -> Tensor4 {
    try_conv_depthwise_separable(pool, input, dw_filter, pw_filter, shape)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_depthwise_separable`].
pub fn try_conv_depthwise_separable(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    let dw_shape = ConvShape::try_new(
        shape.n, shape.c, shape.h, shape.w, shape.c, shape.r, shape.s, shape.stride, shape.pad,
    )?;
    let mid = try_conv_depthwise(pool, input, dw_filter, &dw_shape)?;
    let (k, c, r1, s1) = pw_filter.dims();
    if (c, r1, s1) != (shape.c, 1, 1) {
        return Err(Error::DimMismatch {
            what: "filter dims",
            expected: (k, shape.c, 1, 1),
            got: pw_filter.dims(),
        });
    }
    let pw_shape = ConvShape::try_new(
        shape.n,
        shape.c,
        dw_shape.p(),
        dw_shape.q(),
        k,
        1,
        1,
        1,
        ndirect_tensor::Padding::NONE,
    )?;
    crate::conv::try_conv_ndirect(pool, &mid, pw_filter, &pw_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{assert_close, fill, FilterLayout, Padding};

    /// Scalar depthwise oracle.
    fn depthwise_ref(input: &Tensor4, filter: &Filter, shape: &ConvShape) -> Tensor4 {
        let (p, q) = (shape.p(), shape.q());
        let mut out = Tensor4::zeros(shape.n, shape.c, p, q, ActLayout::Nchw);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for oj in 0..p {
                    for oi in 0..q {
                        let mut acc = 0.0;
                        for r in 0..shape.r {
                            for s in 0..shape.s {
                                let ij = (shape.stride * oj + r) as isize - shape.pad.h as isize;
                                let ii = (shape.stride * oi + s) as isize - shape.pad.w as isize;
                                acc += ndirect_tensor::pad::at_padded(input, n, c, ij, ii)
                                    * filter.at(c, 0, r, s);
                            }
                        }
                        *out.at_mut(n, c, oj, oi) = acc;
                    }
                }
            }
        }
        out
    }

    fn problem(shape: &ConvShape, seed: u64) -> (Tensor4, Filter) {
        (
            fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), seed),
            fill::random_filter(
                Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs),
                seed,
            ),
        )
    }

    fn dw_shape(n: usize, c: usize, hw: usize, rs: usize, stride: usize, pad: usize) -> ConvShape {
        ConvShape::new(n, c, hw, hw, c, rs, rs, stride, Padding::same(pad))
    }

    #[test]
    fn matches_oracle_basic() {
        let shape = dw_shape(1, 8, 10, 3, 1, 1);
        let (input, filter) = problem(&shape, 1);
        let pool = StaticPool::new(1);
        let got = conv_depthwise(&pool, &input, &filter, &shape);
        let expect = depthwise_ref(&input, &filter, &shape);
        assert_close(got.as_slice(), expect.as_slice(), 1e-5, "depthwise");
    }

    #[test]
    fn matches_oracle_channel_tail() {
        // C = 6: one full channel group + a 2-lane tail.
        let shape = dw_shape(2, 6, 9, 3, 1, 1);
        let (input, filter) = problem(&shape, 2);
        let pool = StaticPool::new(1);
        let got = conv_depthwise(&pool, &input, &filter, &shape);
        let expect = depthwise_ref(&input, &filter, &shape);
        assert_close(got.as_slice(), expect.as_slice(), 1e-5, "channel tail");
    }

    #[test]
    fn matches_oracle_strided_and_5x5() {
        for (rs, stride, pad) in [(3, 2, 1), (5, 1, 2), (5, 2, 2)] {
            let shape = dw_shape(1, 4, 11, rs, stride, pad);
            let (input, filter) = problem(&shape, 3);
            let pool = StaticPool::new(1);
            let got = conv_depthwise(&pool, &input, &filter, &shape);
            let expect = depthwise_ref(&input, &filter, &shape);
            assert_close(got.as_slice(), expect.as_slice(), 1e-5, "strided dw");
        }
    }

    #[test]
    fn multithreaded_is_bitwise_identical() {
        let shape = dw_shape(2, 12, 12, 3, 1, 1);
        let (input, filter) = problem(&shape, 4);
        let a = conv_depthwise(&StaticPool::new(1), &input, &filter, &shape);
        let b = conv_depthwise(&StaticPool::new(4), &input, &filter, &shape);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn separable_block_matches_composed_oracle() {
        let shape = dw_shape(1, 8, 8, 3, 1, 1);
        let (input, dw) = problem(&shape, 5);
        let pw = fill::random_filter(Filter::zeros(12, 8, 1, 1, FilterLayout::Kcrs), 6);
        let pool = StaticPool::new(2);
        let got = conv_depthwise_separable(&pool, &input, &dw, &pw, &shape);

        let mid = depthwise_ref(&input, &dw, &shape);
        let pw_shape = ConvShape::new(1, 8, 8, 8, 12, 1, 1, 1, Padding::NONE);
        let expect = ndirect_baselines::naive::conv_ref(&mid, &pw, &pw_shape);
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "separable");
        assert_eq!(got.dims(), (1, 12, 8, 8));
    }

    #[test]
    #[should_panic(expected = "K == C")]
    fn rejects_non_depthwise_shape() {
        let shape = ConvShape::new(1, 4, 8, 8, 8, 3, 3, 1, Padding::same(1));
        let input = Tensor4::input_for(&shape, ActLayout::Nchw);
        let filter = Filter::zeros(4, 1, 3, 3, FilterLayout::Kcrs);
        conv_depthwise(&StaticPool::new(1), &input, &filter, &shape);
    }
}
