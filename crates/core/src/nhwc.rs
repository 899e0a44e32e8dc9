//! Native `NHWC` nDirect convolution.
//!
//! The paper claims nDirect "preserves the conventional `NCHW` and `NHWC`
//! data layouts" and presents the `NCHW` variant in detail. This module is
//! the `NHWC` sibling, built from the same ingredients with the layout's
//! natural advantages:
//!
//! * the register tile is the same `Vw` pixels × `Vk` output channels, but
//!   the output store is **contiguous vectors** (channels are innermost in
//!   `NHWC`), so the scatter of the `NCHW` kernel becomes vector
//!   read-add-writes;
//! * the filter transform is `KRSC → [kv][r][s][c][Vk]` — for a fixed tap
//!   `(r, s)` the kernel streams `(c, Vk)` blocks linearly;
//! * the packed strip keeps `NHWC`'s `[row][pixel][channel]` interleaving
//!   (`[r][win][Tc]`), so interior rows pack with one `memcpy` when the
//!   channel tile covers all of `C`.
//!
//! Parallelization and cache tiling reuse the same [`crate::Schedule`]
//! machinery as the `NCHW` path.

use ndirect_simd::{F32x4, SimdVec};
use ndirect_tensor::{ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::{SharedSlice, StaticPool};

use crate::error::{check, Error};
use crate::kernel::scatter_add;
use crate::microkernel::Kernel;
use crate::schedule::Schedule;

/// Transforms the filter block `k ∈ [kt, kt+tkb)`, `c ∈ [ct, ct+tcb)` into
/// `[kv][r][s][c][Vk]` (zero-padded `K` remainder). Accepts either filter
/// layout (it reads through logical indexing).
pub fn transform_filter_nhwc_block(
    filter: &Filter,
    kt: usize,
    tkb: usize,
    ct: usize,
    tcb: usize,
    vk: usize,
    out: &mut [f32],
) {
    let (k, c, r, s) = filter.dims();
    // AUDIT: allow(hotpath-no-panic) O(1) shape guard at block entry.
    assert!(kt + tkb <= k && ct + tcb <= c, "block out of range");
    let kvb = tkb.div_ceil(vk);
    // AUDIT: allow(hotpath-no-panic) O(1) guard protecting the unchecked
    // transform loop below; a failure is a planner sizing bug.
    assert!(out.len() >= kvb * r * s * tcb * vk, "transform buffer too small");
    for kv in 0..kvb {
        let lanes = vk.min(tkb - kv * vk);
        for rr in 0..r {
            for ss in 0..s {
                for cc in 0..tcb {
                    let base = (((kv * r + rr) * s + ss) * tcb + cc) * vk;
                    let dst = &mut out[base..base + vk];
                    for (l, d) in dst.iter_mut().enumerate().take(lanes) {
                        *d = filter.at(kt + kv * vk + l, ct + cc, rr, ss);
                    }
                    for d in dst[lanes..].iter_mut() {
                        *d = 0.0;
                    }
                }
            }
        }
    }
}

/// A whole `KRSC` filter pre-transformed for the `NHWC` kernel — the plan
/// layer's packed-once form.
///
/// The on-the-fly `NHWC` block layout is `[kv][r][s][c_local][Vk]` with the
/// channel tile *inside* the taps, so a full-`C` transform would not yield
/// contiguous sub-blocks for a channel window (the per-tap stride differs).
/// Instead the transform is tiled by the schedule's `Tc` at build time: for
/// each channel tile `ct` it stores every global `kv` group in block layout,
/// bitwise identical to what [`transform_filter_nhwc_block`] produces for
/// that tile (`K`-tail lanes coincide because thread `K` ranges split at
/// `Vk` granularity).
pub struct TransformedFilterNhwc {
    data: ndirect_tensor::AlignedBuf,
    /// Start offset of each `ct`-tile's region in `data`.
    offsets: Vec<usize>,
    /// The channel tile the transform was built for (must match execution).
    tc: usize,
    c: usize,
    r: usize,
    s: usize,
    vk: usize,
}

impl TransformedFilterNhwc {
    /// Transforms the whole filter, tiled by `tc`. Returns `Err(elements)`
    /// on size overflow or allocator refusal.
    pub fn try_new(filter: &Filter, vk: usize, tc: usize) -> Result<Self, usize> {
        let (k, c, r, s) = filter.dims();
        assert!(vk >= 1 && tc >= 1);
        let kvb = k.div_ceil(vk);
        // Tiles concatenate to exactly kvb·r·s·vk floats per channel.
        let total = kvb
            .checked_mul(r)
            .and_then(|x| x.checked_mul(s))
            .and_then(|x| x.checked_mul(vk))
            .and_then(|x| x.checked_mul(c))
            .ok_or(usize::MAX)?;
        let mut data = ndirect_tensor::AlignedBuf::try_zeroed(total)?;
        let mut offsets = Vec::new();
        let mut off = 0;
        let mut ct = 0;
        while ct < c {
            let tcb = tc.min(c - ct);
            let len = kvb * r * s * tcb * vk;
            transform_filter_nhwc_block(filter, 0, k, ct, tcb, vk, &mut data[off..off + len]);
            offsets.push(off);
            off += len;
            ct += tc;
        }
        Ok(Self {
            data,
            offsets,
            tc,
            c,
            r,
            s,
            vk,
        })
    }

    /// The `[r][s][tcb][vk]` block for the channel tile starting at `ct`
    /// (which must be a multiple of the build-time `tc`) and the *global*
    /// `kv` group.
    pub fn block(&self, ct: usize, tcb: usize, kv: usize) -> &[f32] {
        debug_assert_eq!(ct % self.tc, 0, "ct must be a tile boundary");
        debug_assert!(ct + tcb <= self.c);
        let blk = self.r * self.s * tcb * self.vk;
        // INDEX: ct < c and tc divides ct (asserted above), so
        // ct / tc < offsets.len() — one offset per tile boundary.
        let start = self.offsets[ct / self.tc] + kv * blk;
        &self.data[start..start + blk]
    }

    /// The channel tile the transform is laid out for.
    pub fn tile_c(&self) -> usize {
        self.tc
    }

    /// Total floats (for memory accounting).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the transform holds no data.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Packs one strip: `R` rows of `win` pixels × `tcb` channels from an
/// `NHWC` image into `buf[r][col][c_local]`, zero-filling padding.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_strip_nhwc(
    image: &[f32],
    shape: &ConvShape,
    ct: usize,
    tcb: usize,
    ih0: isize,
    iw0: isize,
    win: usize,
    buf: &mut [f32],
) {
    let (h, w, c) = (shape.h, shape.w, shape.c);
    for rr in 0..shape.r {
        let ih = ih0 + rr as isize;
        let dst = &mut buf[rr * win * tcb..(rr + 1) * win * tcb];
        if ih < 0 || ih as usize >= h {
            dst.fill(0.0);
            continue;
        }
        let row0 = ih as usize * w * c;
        if tcb == c {
            // Full channel tile: the (pixel, channel) slab is contiguous,
            // so the gather is the shared clipped copy with elem = C.
            crate::pack::fill_row_clipped(&image[row0..row0 + w * c], iw0, w, c, dst);
        } else {
            for col in 0..win {
                let iw = iw0 + col as isize;
                let d = &mut dst[col * tcb..(col + 1) * tcb];
                if iw < 0 || iw as usize >= w {
                    d.fill(0.0);
                } else {
                    let src = row0 + iw as usize * c + ct;
                    d.copy_from_slice(&image[src..src + tcb]);
                }
            }
        }
    }
}

/// The NHWC micro-kernel: `VW` pixels × `VKV·4` channels. Both operands
/// stream linearly per tap; the output is stored as contiguous vectors.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn kernel_nhwc<const VW: usize, const VKV: usize, const STRIDE: usize>(
    buf: &[f32],
    tf: &[f32],
    shape_r: usize,
    shape_s: usize,
    tcb: usize,
    win: usize,
    out_row: &SharedSlice<'_, f32>,
    obase: usize,
    kdim: usize,
    valid_k: usize,
) {
    let vk = VKV * 4;
    let mut acc = [[F32x4::zero(); VKV]; VW];
    for rr in 0..shape_r {
        let brow = &buf[rr * win * tcb..(rr + 1) * win * tcb];
        for ss in 0..shape_s {
            let tap = &tf[((rr * shape_s + ss) * tcb) * vk..((rr * shape_s + ss) * tcb + tcb) * vk];
            for cc in 0..tcb {
                let frow = &tap[cc * vk..(cc + 1) * vk];
                let mut fv = [F32x4::zero(); VKV];
                for (j, v) in fv.iter_mut().enumerate() {
                    *v = F32x4::load(&frow[j * 4..]);
                }
                for (wi, accw) in acc.iter_mut().enumerate() {
                    let x = F32x4::splat(brow[(wi * STRIDE + ss) * tcb + cc]);
                    for j in 0..VKV {
                        accw[j] = accw[j].fma(fv[j], x);
                    }
                }
            }
        }
    }
    if valid_k != vk {
        // K-tail block: the masked scalar scatter.
        return scatter_add(&acc, VKV, valid_k, out_row, obase, 1, kdim);
    }
    // Contiguous vector read-add-write per pixel.
    for (wi, accw) in acc.iter().enumerate() {
        let o = obase + wi * kdim;
        for (j, v) in accw.iter().enumerate() {
            // SAFETY: this (K-range × row) region has a single writer
            // under the driver's thread grid.
            let dst = unsafe { out_row.range_mut(o + j * 4, 4) };
            let sum = F32x4::load(dst).add(*v);
            sum.store(dst);
        }
    }
}

/// The dynamic `NHWC` kernel, for `Q` tails and tiles outside the table.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn kernel_nhwc_dyn(
    buf: &[f32],
    tf: &[f32],
    shape_r: usize,
    shape_s: usize,
    stride: usize,
    tcb: usize,
    win: usize,
    out_row: &SharedSlice<'_, f32>,
    obase: usize,
    kdim: usize,
    valid_w: usize,
    vk: usize,
    valid_k: usize,
) {
    use crate::kernel::{VKV_MAX, VW_MAX};
    let vkv = vk / 4;
    // AUDIT: allow(hotpath-no-panic) O(1) tile-entry guard sizing the
    // fixed accumulator array; every `acc` subscript below relies on it.
    assert!(valid_w <= VW_MAX && vkv <= VKV_MAX, "dyn kernel bounds");
    let mut acc = [[F32x4::zero(); VKV_MAX]; VW_MAX];
    for rr in 0..shape_r {
        let brow = &buf[rr * win * tcb..(rr + 1) * win * tcb];
        for ss in 0..shape_s {
            let tap = &tf[((rr * shape_s + ss) * tcb) * vk..((rr * shape_s + ss) * tcb + tcb) * vk];
            for cc in 0..tcb {
                let frow = &tap[cc * vk..(cc + 1) * vk];
                for (wi, accw) in acc.iter_mut().enumerate().take(valid_w) {
                    // INDEX: packed NHWC rows span win*tcb floats and
                    // wi*stride + ss < win by the valid_w clamp; cc < tcb.
                    let x = F32x4::splat(brow[(wi * stride + ss) * tcb + cc]);
                    for (j, a) in accw.iter_mut().enumerate().take(vkv) {
                        *a = a.fma(F32x4::load(&frow[j * 4..]), x);
                    }
                }
            }
        }
    }
    scatter_add(&acc[..valid_w], vkv, valid_k, out_row, obase, 1, kdim);
}

/// Runs one `NHWC` tile compiled for `kernel`, the plan's registry entry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_nhwc_tile(
    kernel: Kernel,
    buf: &[f32],
    tf: &[f32],
    shape: &ConvShape,
    tcb: usize,
    win: usize,
    out_row: &SharedSlice<'_, f32>,
    obase: usize,
    kdim: usize,
    valid_w: usize,
    vk: usize,
    valid_k: usize,
) {
    let (r, s, stride) = (shape.r, shape.s, shape.stride);
    // Each declared `(Vw, Vk)` of the arch's table at full width, strides
    // 1 and 2: the `NHWC` body serves every `R × S`, and `Q`-tails run on
    // the dynamic kernel.
    macro_rules! stamp {
        ($($body:ident ($vw:literal, $vk:literal): $($w:literal)*;)+) => {
            match (valid_w, vk, stride) {
                $(
                    ($vw, $vk, 1) if valid_k <= vk => return kernel.run(#[inline(always)] || {
                        kernel_nhwc::<$vw, { $vk / 4 }, 1>(
                            buf, tf, r, s, tcb, win, out_row, obase, kdim, valid_k,
                        )
                    }),
                    ($vw, $vk, 2) if valid_k <= vk => return kernel.run(#[inline(always)] || {
                        kernel_nhwc::<$vw, { $vk / 4 }, 2>(
                            buf, tf, r, s, tcb, win, out_row, obase, kdim, valid_k,
                        )
                    }),
                )+
                _ => {}
            }
        };
    }
    crate::kernel::arch_tiles!(stamp);
    kernel.run(#[inline(always)] || {
        kernel_nhwc_dyn(
            buf, tf, r, s, stride, tcb, win, out_row, obase, kdim, valid_w, vk, valid_k,
        )
    });
}

/// Native-`NHWC` nDirect convolution with an explicit schedule.
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

/// Fallible form of [`conv_ndirect_nhwc_with`]: malformed shapes,
/// layout/dimension mismatches and pool faults come back as typed
/// [`Error`]s.
pub fn try_conv_ndirect_nhwc_with(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
    schedule: &Schedule,
) -> Result<Tensor4, Error> {
    shape.validate()?;
    check::act_layout(input, ActLayout::Nhwc, "native NHWC entry takes NHWC")?;
    check::filter_layout(filter, FilterLayout::Krsc, "native NHWC entry takes KRSC")?;
    check::dims(
        "input dims",
        (shape.n, shape.c, shape.h, shape.w),
        input.dims(),
    )?;
    check::dims(
        "filter dims",
        (shape.k, shape.c, shape.r, shape.s),
        filter.dims(),
    )?;
    let sched = schedule.sanitized(shape);
    if sched.grid.threads() > pool.size() {
        return Err(Error::GridExceedsPool {
            needed: sched.grid.threads(),
            available: pool.size(),
        });
    }
    let (p, q) = (shape.p(), shape.q());
    let mut out = Tensor4::zeros(shape.n, shape.k, p, q, ActLayout::Nhwc);

    // Thin wrapper since the plan layer exists: build a throwaway plan
    // borrowing the filter (on-the-fly transform, zero-copy) and execute
    // it once. Repeated callers build a [`crate::ConvPlan`] themselves.
    let plan = crate::plan::ConvPlan::try_borrowed(shape, filter, schedule, ActLayout::Nhwc)?;
    plan.execute(pool, input, &mut out)?;
    Ok(out)
}

/// nDirect for `NHWC` activations / `KRSC` filters with a model-derived
/// schedule — the native `NHWC` kernel, no layout conversion involved.
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
    use ndirect_tensor::{assert_close, fill, Padding};
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
        let mut f = Filter::zeros(8, 2, 1, 1, FilterLayout::Krsc);
        for k in 0..8 {
            *f.at_mut(k, 0, 0, 0) = k as f32;
            *f.at_mut(k, 1, 0, 0) = 100.0 + k as f32;
        }
        let mut out = vec![0.0; 2 * 2 * 4];
        transform_filter_nhwc_block(&f, 0, 8, 0, 2, 4, &mut out);
        // [kv=0][r=0][s=0][c=0][vk]: k=0..4 at c=0.
        assert_eq!(&out[0..4], &[0.0, 1.0, 2.0, 3.0]);
        // c=1 follows.
        assert_eq!(&out[4..8], &[100.0, 101.0, 102.0, 103.0]);
        // kv=1: k=4..8.
        assert_eq!(&out[8..12], &[4.0, 5.0, 6.0, 7.0]);
    }
}
