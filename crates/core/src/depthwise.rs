//! Depthwise convolution — the §10.2 extension.
//!
//! Depthwise Separable Convolution (MobileNet/Xception) factors a standard
//! convolution into a *depthwise* stage (each channel convolved with its
//! own `R×S` filter, no cross-channel reduction) and a *pointwise* stage
//! (a 1×1 standard convolution, which [`crate::try_conv_ndirect`] already
//! handles with its dedicated pointwise kernel). The paper notes the
//! depthwise stage falls out of nDirect by "removing the reduction
//! operations of dimension C in micro-kernels". With no `C` to reduce,
//! the only axis left to vectorise is the output pixel, which is what this
//! module's one kernel, `depthwise_channel`, does (the dataflow of arXiv
//! 2206.12124, with the row reuse of arXiv 2001.02504):
//!
//! 1. the input rows one channel's output rows need are zero-padded into
//!    thread scratch once, each split into its `stride` phases, so that
//!    every tap of every output vector is one contiguous vector load —
//!    for strided layers too;
//! 2. each output row is swept in chunks of up to 8 accumulator
//!    vectors held in registers; every padded input row is reused by the
//!    `R` output rows and `S` taps that read it;
//! 3. whole vectors are stored into the caller's destination rows: the
//!    `NCHW` output plane ([`crate::DepthwisePlan`]) or the fused dw+pw
//!    path's slab ([`crate::dwpw`]).
//!
//! Every output starts from zero and adds its taps in `(r, s)` order, one
//! multiply-add each, so the two callers agree bitwise with each other and
//! with a scalar loop that does the same.

use std::ops::Range;

use ndirect_simd::{F32x4, SimdVec};
use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

use crate::conv::{checked_product, input_span};
use crate::error::{check, Error};
use crate::microkernel::Kernel;

/// [`try_conv_depthwise`] that panics on invalid inputs: the one panicking
/// twin left in this crate, kept because the frozen
/// `benchmark/src/models.rs` calls it.
pub fn conv_depthwise(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Tensor4 {
    try_conv_depthwise(pool, input, filter, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// Depthwise convolution: `O[n][c] = I[n][c] ⊛ F[c]`, `NCHW` in and out
/// (`K == C`, a `(C, 1, R, S)` `KCRS` filter).
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
    // [`crate::DepthwisePlan`] themselves to reuse the padded-row scratch.
    let plan = crate::plan::DepthwisePlan::borrowed(shape, filter, pool.size())?;
    plan.execute(pool, input, &mut out)?;
    Ok(out)
}

/// Accumulator vectors per chunk of an output row: the register tile.
const CHUNK: usize = 8;
/// Output pixels per accumulator vector.
const LANES: usize = F32x4::LANES;

/// Floats in one stride phase of a padded input row: the output row
/// rounded up to whole vectors, plus the `(S−1)/stride` columns the last
/// taps reach past it.
fn phase_len(shape: &ConvShape) -> usize {
    shape.q().div_ceil(LANES) * LANES + (shape.s - 1) / shape.stride
}

/// Floats of scratch [`depthwise_channel`] needs for up to `rows` output
/// rows: the `(rows−1)·stride + R` input rows they read, each as
/// `min(stride, S)` phases of [`phase_len`] floats (phases no tap reads
/// are not stored). `None` on overflow.
pub(crate) fn padded_len(shape: &ConvShape, rows: usize) -> Option<usize> {
    let in_rows = input_span(rows, shape.stride, shape.r)?;
    checked_product(&[in_rows, shape.stride.min(shape.s), phase_len(shape)])
}

/// The depthwise kernel: output rows `ohs` of one channel, written to
/// `dst` as `ohs.len()` rows of `Q` floats. `plane` is the channel's
/// `H×W` input, `taps` its `R·S` filter taps in `(r, s)` order, and
/// `scratch` holds at least [`padded_len`]`(shape, ohs.len())` floats.
/// Monomorphised on the stride (1, 2, any other at run time), each compiled
/// for `kernel`, the registry entry the caller's plan chose.
pub(crate) fn depthwise_channel(
    kernel: Kernel,
    plane: &[f32],
    taps: &[f32],
    shape: &ConvShape,
    ohs: Range<usize>,
    scratch: &mut [f32],
    dst: &mut [f32],
) {
    let (p, t, sh) = (plane, taps, shape);
    match shape.stride {
        1 => kernel.run(#[inline(always)] || channel_rows::<1>(p, t, sh, ohs, scratch, dst)),
        2 => kernel.run(#[inline(always)] || channel_rows::<2>(p, t, sh, ohs, scratch, dst)),
        _ => kernel.run(#[inline(always)] || channel_rows::<0>(p, t, sh, ohs, scratch, dst)),
    }
}

/// How a call's padded rows are laid out: `(stride, phase_len, row_len, S)`.
type Layout = (usize, usize, usize, usize);

/// [`depthwise_channel`] at a compile-time stride (`STRIDE == 0`: read
/// `shape.stride`).
#[inline(always)]
fn channel_rows<const STRIDE: usize>(
    plane: &[f32],
    taps: &[f32],
    shape: &ConvShape,
    ohs: Range<usize>,
    scratch: &mut [f32],
    dst: &mut [f32],
) {
    let stride = if STRIDE == 0 { shape.stride } else { STRIDE };
    let (q, w, pad, phase_len) = (shape.q(), shape.w, shape.pad.w, phase_len(shape));
    let row_len = stride.min(shape.s) * phase_len;
    let in_rows = ohs.len().saturating_sub(1) * stride + shape.r;
    let ih0 = (ohs.start * stride) as isize - shape.pad.h as isize;
    let padded = &mut scratch[..in_rows * row_len];
    padded.fill(0.0);
    for (ih, row) in (ih0..).zip(padded.chunks_exact_mut(row_len)) {
        // Rows outside the image stay zero.
        if (0..shape.h as isize).contains(&ih) {
            pad_row(&plane[ih as usize * w..][..w], pad, stride, phase_len, row);
        }
    }
    debug_assert_eq!(dst.len(), ohs.len() * q);
    let layout = (stride, phase_len, row_len, shape.s);
    for (i, out_row) in dst.chunks_exact_mut(q).enumerate() {
        let rows = &padded[i * stride * row_len..];
        let mut ow = 0;
        while ow < q {
            let vecs = (q - ow).div_ceil(LANES).min(CHUNK);
            match vecs {
                1 => chunk::<1>(rows, layout, taps, ow, out_row),
                2 => chunk::<2>(rows, layout, taps, ow, out_row),
                3 => chunk::<3>(rows, layout, taps, ow, out_row),
                4 => chunk::<4>(rows, layout, taps, ow, out_row),
                5 => chunk::<5>(rows, layout, taps, ow, out_row),
                6 => chunk::<6>(rows, layout, taps, ow, out_row),
                7 => chunk::<7>(rows, layout, taps, ow, out_row),
                _ => chunk::<CHUNK>(rows, layout, taps, ow, out_row),
            }
            ow += vecs * LANES;
        }
    }
}

/// Copies one input row `src` into `dst`, its zeroed padded row split into
/// stride phases: column `col` is padded column `x = col + pad`, stored in
/// phase `x % stride` at column `x / stride`.
#[inline(always)]
fn pad_row(src: &[f32], pad: usize, stride: usize, phase_len: usize, dst: &mut [f32]) {
    if stride == 1 {
        let (lo, hi) = (pad.min(phase_len), (src.len() + pad).min(phase_len));
        dst[lo..hi].copy_from_slice(&src[..hi - lo]);
        return;
    }
    let mut done = 0;
    if stride == 2 && dst.len() == 2 * phase_len {
        // Consecutive column pairs land side by side in the two phases.
        let (p0, p1) = dst.split_at_mut(phase_len);
        let (a, b) = if pad % 2 == 0 { (p0, p1) } else { (p1, p0) };
        let a = &mut a[(pad / 2).min(phase_len)..];
        let b = &mut b[pad.div_ceil(2).min(phase_len)..];
        done = 2 * (src.len() / 2).min(a.len()).min(b.len());
        for ((x, y), pair) in a.iter_mut().zip(b).zip(src.chunks_exact(2)) {
            // INDEX: `chunks_exact(2)` yields two-float pairs.
            (*x, *y) = (pair[0], pair[1]);
        }
    }
    // Any other stride, and what the pairs left: one column at a time.
    let phases = dst.len() / phase_len;
    for (x, &v) in (pad + done..).zip(&src[done..]) {
        let (phase, j) = (x % stride, x / stride);
        if j >= phase_len {
            break;
        }
        if phase < phases {
            // INDEX: phase < phases and j < phase_len just checked.
            dst[phase * phase_len + j] = v;
        }
    }
}

/// `V` output vectors of one row, starting at column `ow`: every tap is a
/// broadcast filter value times one contiguous load per vector, added in
/// `(r, s)` order to accumulators that start at zero. Lanes past `Q` are
/// computed from padding and not stored. `rows` starts at the row's first
/// padded input row.
#[inline(always)]
fn chunk<const V: usize>(rows: &[f32], lay: Layout, taps: &[f32], ow: usize, out: &mut [f32]) {
    let (stride, phase_len, row_len, s) = lay;
    let mut acc = [F32x4::zero(); V];
    for (rr, row_taps) in taps.chunks_exact(s).enumerate() {
        let row = &rows[rr * row_len..][..row_len];
        for (ss, &t) in row_taps.iter().enumerate() {
            let w = F32x4::splat(t);
            let base = (ss % stride) * phase_len + ow + ss / stride;
            let xs = &row[base..base + V * LANES];
            for (v, a) in acc.iter_mut().enumerate() {
                *a = a.fma(w, F32x4::load(&xs[v * LANES..]));
            }
        }
    }
    let live = (out.len() - ow).min(V * LANES);
    for (v, a) in acc.iter().enumerate() {
        let (at, n) = (ow + v * LANES, LANES.min(live - v * LANES));
        if n == LANES {
            a.store(&mut out[at..]);
        } else {
            let mut lanes = [0.0; LANES];
            a.store(&mut lanes);
            out[at..at + n].copy_from_slice(&lanes[..n]);
        }
    }
}

/// Depthwise-separable block: depthwise `R×S` followed by pointwise `1×1`
/// (the MobileNet building block). `dw_filter` is `(C, 1, R, S)`;
/// `pw_filter` is `(K, C, 1, 1)`. Returns the `(N, K, P, Q)` output.
pub fn try_conv_depthwise_separable(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    let (k, c, r1, s1) = pw_filter.dims();
    let (dw_shape, pw_shape) = crate::dwpw::try_compose_shapes(shape, k)?;
    let mid = try_conv_depthwise(pool, input, dw_filter, &dw_shape)?;
    if (c, r1, s1) != (shape.c, 1, 1) {
        return Err(Error::DimMismatch {
            what: "filter dims",
            expected: (k, shape.c, 1, 1),
            got: pw_filter.dims(),
        });
    }
    crate::conv::try_conv_ndirect(pool, &mid, pw_filter, &pw_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepthwisePlan;
    use ndirect_tensor::{assert_close, fill, FilterLayout, Padding};

    /// Scalar depthwise oracle: every output sums its taps from `0.0` in
    /// `(r, s)` order, a separate multiply and add each — the lane sequence
    /// of the SSE and scalar backends.
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

    /// `got` against the oracle: bit for bit on the backends whose lanes
    /// multiply and add separately (as `tests/golden_bits.rs` keys its
    /// table), within a tolerance where the multiply-add is fused.
    fn assert_oracle(got: &[f32], want: &[f32], what: &str) {
        if matches!(ndirect_simd::backend_name(), "sse" | "scalar") {
            assert_eq!(got, want, "{what}");
        } else {
            assert_close(got, want, 1e-5, what);
        }
    }

    #[test]
    fn matches_oracle_basic() {
        let shape = dw_shape(1, 8, 10, 3, 1, 1);
        let (input, filter) = problem(&shape, 1);
        let pool = StaticPool::new(1);
        let got = conv_depthwise(&pool, &input, &filter, &shape);
        let expect = depthwise_ref(&input, &filter, &shape);
        assert_oracle(got.as_slice(), expect.as_slice(), "depthwise");
    }

    #[test]
    fn matches_oracle_channel_tail() {
        // C = 6 over N = 2: planes after the first image's, and a Q = 9
        // row that ends in a one-lane vector.
        let shape = dw_shape(2, 6, 9, 3, 1, 1);
        let (input, filter) = problem(&shape, 2);
        let pool = StaticPool::new(1);
        let got = conv_depthwise(&pool, &input, &filter, &shape);
        let expect = depthwise_ref(&input, &filter, &shape);
        assert_oracle(got.as_slice(), expect.as_slice(), "channel tail");
    }

    #[test]
    fn matches_oracle_strided_and_5x5() {
        for (rs, stride, pad) in [(3, 2, 1), (5, 1, 2), (5, 2, 2)] {
            let shape = dw_shape(1, 4, 11, rs, stride, pad);
            let (input, filter) = problem(&shape, 3);
            let pool = StaticPool::new(1);
            let got = conv_depthwise(&pool, &input, &filter, &shape);
            let expect = depthwise_ref(&input, &filter, &shape);
            assert_oracle(got.as_slice(), expect.as_slice(), "strided dw");
        }
    }

    /// A generated sweep: `R = S ∈ {1, 3, 5, 7}` × stride `{1, 2, 3}` ×
    /// pad `{0, R/2}` × every `Q` in `1..=40` (every chunk width and
    /// lane tail) × `C ∈ {1, 5}`, `N = 2`, through `DepthwisePlan` on 1
    /// and 3 threads, and through the kernel one output row at a time (the
    /// fused path's slices), each under every registry entry. `P` cycles
    /// through 2–4 and the input is up to `stride − 1` columns wider than
    /// the window reaches. Under Miri a subset runs.
    #[test]
    fn generated_sweep_matches_oracle_bitwise() {
        let pools = [StaticPool::new(1), StaticPool::new(3)];
        let (kernels, qs): (&[usize], Vec<usize>) = if cfg!(miri) {
            (&[1, 3], vec![1, 6, 33])
        } else {
            (&[1, 3, 5, 7], (1..=40).collect())
        };
        for &rs in kernels {
            for stride in 1..=3 {
                for pad in [0, rs / 2] {
                    for &q in &qs {
                        for c in [1, 5] {
                            let (p, extra) = (2 + q % 3, q % stride);
                            let h = (p - 1) * stride + rs + extra - 2 * pad;
                            let w = (q - 1) * stride + rs + extra - 2 * pad;
                            let shape =
                                ConvShape::new(2, c, h, w, c, rs, rs, stride, Padding::same(pad));
                            assert_eq!((shape.p(), shape.q()), (p, q));
                            sweep_case(&shape, &pools);
                        }
                    }
                }
            }
        }
    }

    fn sweep_case(shape: &ConvShape, pools: &[StaticPool]) {
        let what = format!("{shape:?}");
        let (input, filter) = problem(shape, (shape.w * 131 + shape.c) as u64);
        let want = depthwise_ref(&input, &filter, shape);
        for kernel in Kernel::supported() {
            let what = format!("{what} on {}", kernel.name());
            for pool in pools {
                let plan = DepthwisePlan::try_new(shape, &filter, pool.size()).unwrap();
                let mut got = Tensor4::output_for(shape, ActLayout::Nchw);
                plan.with_kernel(kernel).execute(pool, &input, &mut got).unwrap();
                assert_oracle(got.as_slice(), want.as_slice(), &what);
            }
            // The last plane, one output row per call.
            let (plane_in, q, rs) = (shape.h * shape.w, shape.q(), shape.r * shape.s);
            let last = shape.n * shape.c - 1;
            let mut scratch = vec![0.0; padded_len(shape, 1).unwrap()];
            let mut row = vec![0.0; q];
            for oh in 0..shape.p() {
                depthwise_channel(
                    kernel,
                    &input.as_slice()[last * plane_in..][..plane_in],
                    &filter.as_slice()[(shape.c - 1) * rs..][..rs],
                    shape,
                    oh..oh + 1,
                    &mut scratch,
                    &mut row,
                );
                let want_row = &want.as_slice()[(last * shape.p() + oh) * q..][..q];
                assert_oracle(&row, want_row, &format!("{what} row {oh}"));
            }
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
        let got = try_conv_depthwise_separable(&pool, &input, &dw, &pw, &shape)
            .expect("valid problem");

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
