//! `NHWC` nDirect convolution.
//!
//! The paper claims nDirect "preserves the conventional `NCHW` and `NHWC`
//! data layouts": only the filter and the per-strip packed buffer `B` are
//! re-laid-out, and the micro-kernel never sees the activation layout.
//! `NHWC` here is exactly that — a packing and addressing detail of the
//! one [`crate::ConvPlan`] loop nest and its tile kernels:
//!
//! * the `KRSC` filter goes through the same [`crate::transform_filter_block`]
//!   / [`crate::TransformedFilter`] as `KCRS` (both read through
//!   [`Filter::at`]);
//! * each strip is packed by [`crate::pack::pack_strip_nhwc`] into the same
//!   `[c][r][win]` buffer as an `NCHW` strip, in one pass before the kernel
//!   (the plan runs [`crate::PackingMode::Sequential`] whatever it is
//!   given);
//! * the tile scatters with `(kstride, wstride) = (1, K)` instead of
//!   `(P·Q, 1)`.
//!
//! So the outputs sum in the `NCHW` `(c, r, s)` order and are bitwise equal
//! to the `NCHW` plan's on the same schedule, transposed.

use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

use crate::error::Error;
use crate::plan::{validate_filter, ConvPlan};
use crate::schedule::Schedule;

/// `NHWC` nDirect convolution with an explicit schedule.
///
/// `input` is `NHWC`, `filter` is `KRSC` (the pairing XNNPACK-era
/// frameworks use); the output is `NHWC`.
pub fn conv_ndirect_nhwc_with(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
    schedule: &Schedule,
) -> Tensor4 {
    try_conv_ndirect_nhwc_with(pool, input, filter, shape, schedule)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_ndirect_nhwc_with`]: an unsupported host ISA,
/// malformed shapes, layout/dimension mismatches and pool faults come back
/// as typed [`Error`]s.
///
/// A thin wrapper: the filter is checked as a plan build checks it, then a
/// throwaway plan borrowing the filter runs once (its execute checks the
/// input and the pool). Repeated callers build a [`ConvPlan`] themselves.
pub fn try_conv_ndirect_nhwc_with(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
    schedule: &Schedule,
) -> Result<Tensor4, Error> {
    validate_filter(shape, filter, ActLayout::Nhwc)?;
    let plan = ConvPlan::try_borrowed(shape, filter, schedule, ActLayout::Nhwc)?;
    let mut out = Tensor4::output_for(shape, ActLayout::Nhwc);
    plan.execute(pool, input, &mut out)?;
    Ok(out)
}

/// nDirect for `NHWC` activations / `KRSC` filters with a model-derived
/// schedule — no layout conversion involved.
pub fn conv_ndirect_nhwc(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Tensor4 {
    try_conv_ndirect_nhwc(pool, input, filter, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_ndirect_nhwc`].
pub fn try_conv_ndirect_nhwc(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    shape.validate()?;
    let schedule = Schedule::derive(&ndirect_platform::host(), shape, pool.size());
    try_conv_ndirect_nhwc_with(pool, input, filter, shape, &schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_baselines::naive;
    use ndirect_tensor::{assert_close, fill, FilterLayout, Padding};
    use ndirect_threads::Grid2;

    fn problem(shape: &ConvShape, seed: u64) -> (Tensor4, Filter) {
        (
            fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nhwc), seed),
            fill::random_filter(Filter::for_shape(shape, FilterLayout::Krsc), seed),
        )
    }

    fn check(shape: ConvShape, sched: &Schedule, threads: usize, what: &str) {
        let (input, filter) = problem(&shape, 23);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(threads);
        let got = conv_ndirect_nhwc_with(&pool, &input, &filter, &shape, sched);
        assert_eq!(got.layout(), ActLayout::Nhwc);
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, what);
    }

    #[test]
    fn matches_oracle_basic() {
        let shape = ConvShape::new(1, 5, 9, 11, 8, 3, 3, 1, Padding::same(1));
        check(shape, &Schedule::minimal(&shape), 1, "nhwc basic");
    }

    #[test]
    fn matches_oracle_channel_tiling() {
        // tc < C exercises the strided pack path.
        let shape = ConvShape::new(1, 10, 8, 8, 8, 3, 3, 1, Padding::NONE);
        let mut s = Schedule::minimal(&shape);
        s.tc = 3;
        check(shape, &s, 1, "nhwc channel tiles");
    }

    #[test]
    fn matches_oracle_strided_and_tails() {
        // K=13 (vk tail), Q tail, stride 2, padding.
        let shape = ConvShape::new(2, 6, 9, 13, 13, 3, 3, 2, Padding::same(1));
        let mut s = Schedule::minimal(&shape);
        s.vw = 4;
        s.vk = 8;
        s.tk = 8;
        check(shape, &s, 1, "nhwc tails");
    }

    #[test]
    fn matches_oracle_pointwise_and_7x7() {
        let shape = ConvShape::new(1, 8, 6, 10, 12, 1, 1, 1, Padding::NONE);
        check(shape, &Schedule::minimal(&shape), 1, "nhwc 1x1");
        let shape = ConvShape::new(1, 3, 12, 12, 6, 7, 7, 2, Padding::same(3));
        check(shape, &Schedule::minimal(&shape), 1, "nhwc 7x7");
    }

    #[test]
    fn thread_grids_bitwise_identical() {
        let shape = ConvShape::new(2, 8, 10, 10, 16, 3, 3, 1, Padding::same(1));
        let (input, filter) = problem(&shape, 29);
        let base = conv_ndirect_nhwc_with(
            &StaticPool::new(1),
            &input,
            &filter,
            &shape,
            &Schedule::minimal(&shape),
        );
        for (ptn, ptk) in [(2, 1), (1, 2), (2, 2), (4, 1)] {
            let pool = StaticPool::new(ptn * ptk);
            let sched = Schedule::minimal(&shape).with_grid(Grid2::new(ptn, ptk));
            let got = conv_ndirect_nhwc_with(&pool, &input, &filter, &shape, &sched);
            assert_eq!(got.as_slice(), base.as_slice(), "grid {ptn}x{ptk}");
        }
    }

    #[test]
    fn derived_schedule_entry_point() {
        let shape = ConvShape::square(1, 16, 24, 12, 3, 1);
        let (input, filter) = problem(&shape, 31);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(2);
        let got = conv_ndirect_nhwc(&pool, &input, &filter, &shape);
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "derived nhwc");
    }

    #[test]
    fn filter_transform_nhwc_layout() {
        // A KRSC filter goes through the one transform into the same
        // [kv][c][r][s][Vk] block as its KCRS copy.
        let shape = ConvShape::new(1, 3, 4, 4, 6, 2, 3, 1, Padding::NONE);
        let (_, krsc) = problem(&shape, 37);
        let kcrs = krsc.to_layout(FilterLayout::Kcrs);
        let len = 2 * 3 * 2 * 3 * 4;
        let (mut got, mut want) = (vec![0.0; len], vec![0.0; len]);
        crate::transform_filter_block(&krsc, 0, 6, 0, 3, 4, &mut got);
        crate::transform_filter_block(&kcrs, 0, 6, 0, 3, 4, &mut want);
        assert_eq!(got, want);
        // [kv=1][c=2][r=1][s=2] lane 1 is filter (k=5, c=2, r=1, s=2).
        assert_eq!(got[(((3 + 2) * 2 + 1) * 3 + 2) * 4 + 1], krsc.at(5, 2, 1, 2));
        // Lanes past K = 6 are zero padding.
        assert_eq!(got[len - 1], 0.0);
    }
}
