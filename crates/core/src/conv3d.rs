//! 3-D (volumetric) convolution — the §10.2 extension.
//!
//! "Since 3D Convolution can be seen as 2D Convolution with additional
//! reduction dimensions, we can directly use the micro-kernels of nDirect
//! for acceleration." Here it runs the whole 2-D [`ConvPlan`] nest, not
//! just its kernels: flatten the kernel-depth and kernel-height taps into
//! one row dimension `T·R` and the output depth and height into `OD·P`
//! rows (`Conv3dShape::flat`). A `KCTRS` filter then has the memory
//! layout of a `KCRS` one with `T·R` rows, and an `NCDHW` output that of
//! an `NCHW` one with `OD·P` rows, so the filter transform, cache tiles,
//! thread grid and tile kernels are the 2-D ones. Only the strip pack
//! (`pack::pack_strip_ncdhw`) knows the data is volumetric.

use ndirect_tensor::{
    AlignedBuf, ConvShape, Filter, Filter5, FilterLayout, Padding, ShapeError, Tensor5,
};
use ndirect_threads::StaticPool;

use crate::conv::checked_product;
use crate::error::{check, Error};
use crate::plan::{ConvPlan, Layout};
use crate::schedule::Schedule;

/// A 3-D convolution problem: `NCDHW` input, `KCTRS` filter, symmetric
/// zero padding per spatial axis, one stride for all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input depth.
    pub d: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub k: usize,
    /// Kernel depth `T`.
    pub t: usize,
    /// Kernel height `R`.
    pub r: usize,
    /// Kernel width `S`.
    pub s: usize,
    /// Stride (shared by all three spatial axes).
    pub stride: usize,
    /// Depth padding.
    pub pad_d: usize,
    /// Height padding.
    pub pad_h: usize,
    /// Width padding.
    pub pad_w: usize,
}

impl Conv3dShape {
    /// The register tile the kernel runs for this problem on `platform`:
    /// [`crate::Schedule::derive`]'s Eq. 3–4 pick for the flattened
    /// `T·R × S` filter, through [`crate::Schedule::sanitized`]'s clamp.
    pub fn register_tile(&self, platform: &ndirect_platform::Platform) -> (usize, usize) {
        let rdim = self.t * self.r;
        crate::kernel::clamp_tile(crate::model::register_tile::tile_for(platform, rdim, self.s))
    }

    /// Output depth.
    pub fn od(&self) -> usize {
        (self.d + 2 * self.pad_d - self.t) / self.stride + 1
    }

    /// Output height.
    pub fn p(&self) -> usize {
        (self.h + 2 * self.pad_h - self.r) / self.stride + 1
    }

    /// Output width.
    pub fn q(&self) -> usize {
        (self.w + 2 * self.pad_w - self.s) / self.stride + 1
    }

    /// FLOPs (2 per MAC). Folded in `u128` and saturated at `u64::MAX`
    /// rather than wrapped, mirroring `ConvShape::flops` — the 3D product
    /// has two extra factors (`OD`, `T`), so it exceeds `u64` even sooner.
    pub fn flops(&self) -> u64 {
        [
            self.n,
            self.k,
            self.od(),
            self.p(),
            self.q(),
            self.c,
            self.t,
            self.r,
            self.s,
        ]
        .iter()
        .try_fold(2u128, |acc, &f| acc.checked_mul(f as u128))
        .map_or(u64::MAX, |total| u64::try_from(total).unwrap_or(u64::MAX))
    }

    /// Checks what [`ConvShape::validate`] checks, with depth as a third
    /// axis, and that the flattened problem is valid: a valid shape has
    /// derived quantities and element counts that cannot wrap.
    pub fn validate(&self) -> Result<(), ShapeError> {
        let pad = Padding { h: self.pad_h, w: self.pad_w };
        let (n, c, k, stride) = (self.n, self.c, self.k, self.stride);
        let (h, w, r, s) = (self.h, self.w, self.r, self.s);
        ConvShape { n, c, h, w, k, r, s, stride, pad }.validate()?;
        if self.d == 0 || self.t == 0 {
            return Err(ShapeError::ZeroDim { name: if self.d == 0 { "D" } else { "T" } });
        }
        let overflow = ShapeError::Overflow { what: "3-D shape" };
        let padded = self.pad_d.checked_mul(2).and_then(|p| p.checked_add(self.d));
        let padded = padded.ok_or(overflow)?;
        if padded < self.t {
            return Err(ShapeError::KernelExceedsInput { axis: 'd', kernel: self.t, padded });
        }
        // The input length, and `OD·P·str·T·R + H`, a bound on the flattened
        // height, so that `flat` multiplies freely; its own check covers the
        // filter and output lengths.
        checked_product(&[n, c, self.d, h, w]).ok_or(overflow)?;
        let rows = checked_product(&[self.od(), self.p(), stride, self.t, r]);
        rows.and_then(|rows| rows.checked_add(h)).ok_or(overflow)?;
        self.flat().validate()
    }

    /// The 2-D problem the plan runs: `T·R` filter rows over `OD·P` output
    /// rows, so that the `NCDHW` output is its `NCHW` one. Its height
    /// `H + (OD−1)·P·str + (T−1)·R` gives those `OD·P` rows and is `H` when
    /// `OD = T = 1`, so a unit-depth problem plans as its 2-D self. All of
    /// the nest reads it but the strip pack and the image length, which
    /// read `self`.
    pub(crate) fn flat(&self) -> ConvShape {
        ConvShape {
            n: self.n,
            c: self.c,
            h: self.h + (self.od() - 1) * self.p() * self.stride + (self.t - 1) * self.r,
            w: self.w,
            k: self.k,
            r: self.t * self.r,
            s: self.s,
            stride: self.stride,
            pad: Padding { h: self.pad_h, w: self.pad_w },
        }
    }
}

/// nDirect-style 3-D convolution: `NCDHW` in, `NCDHW` out, on the
/// [`ConvPlan`] nest over the flattened problem with the schedule derived
/// for it on the host (Eq. 1–2 cache tiles, the `PTn × PTk` grid, and the
/// minimal-tile fallback when scratch is refused).
pub fn try_conv3d_ndirect(
    pool: &StaticPool,
    input: &Tensor5,
    filter: &Filter5,
    shape: &Conv3dShape,
) -> Result<Tensor5, Error> {
    check::isa()?;
    shape.validate()?;
    let input_dims = (shape.n, shape.c, shape.d, shape.h, shape.w);
    let want = (input_dims, (shape.k, shape.c, shape.t, shape.r, shape.s));
    let got = (input.dims(), filter.dims());
    if got != want {
        let msg = format!("(input, filter) dims {got:?} are not the shape's {want:?}");
        return Err(Error::Config { msg });
    }
    let rows = kcrs_rows(filter)?;
    let sched = Schedule::derive(&ndirect_platform::host(), &shape.flat(), pool.size());
    let plan = ConvPlan::try_borrowed(&shape.flat(), &rows, &sched, Layout::Ncdhw(*shape))?;
    let mut out = Tensor5::zeros(shape.n, shape.k, shape.od(), shape.p(), shape.q());
    plan.execute_slices(pool, input.as_slice(), out.as_mut_slice())?;
    Ok(out)
}

/// The `KCTRS` filter as the `KCRS` one with `T·R` rows it is in memory.
fn kcrs_rows(filter: &Filter5) -> Result<Filter, Error> {
    let (k, c, t, r, s) = filter.dims();
    let mut data = AlignedBuf::try_zeroed(filter.len())
        .map_err(|elements| Error::ScratchAlloc { elements })?;
    data.copy_from_slice(filter.as_slice());
    Ok(Filter::from_buf(data, k, c, t * r, s, FilterLayout::Kcrs))
}

/// Naive 3-D convolution oracle.
pub fn conv3d_naive(input: &Tensor5, filter: &Filter5, shape: &Conv3dShape) -> Tensor5 {
    let (od, p, q) = (shape.od(), shape.p(), shape.q());
    let mut out = Tensor5::zeros(shape.n, shape.k, od, p, q);
    for n in 0..shape.n {
        for k in 0..shape.k {
            for odi in 0..od {
                for oj in 0..p {
                    for oi in 0..q {
                        let mut acc = 0.0;
                        for c in 0..shape.c {
                            for t in 0..shape.t {
                                for r in 0..shape.r {
                                    for s in 0..shape.s {
                                        let id = (shape.stride * odi + t) as isize
                                            - shape.pad_d as isize;
                                        let ih = (shape.stride * oj + r) as isize
                                            - shape.pad_h as isize;
                                        let iw = (shape.stride * oi + s) as isize
                                            - shape.pad_w as isize;
                                        acc += input.at_padded(n, c, id, ih, iw)
                                            * filter.at(k, c, t, r, s);
                                    }
                                }
                            }
                        }
                        *out.at_mut(n, k, odi, oj, oi) = acc;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::fill;

    fn problem(shape: &Conv3dShape, seed: u64) -> (Tensor5, Filter5) {
        let mut input = Tensor5::zeros(shape.n, shape.c, shape.d, shape.h, shape.w);
        fill::fill_random(input.as_mut_slice(), seed);
        let mut filter = Filter5::zeros(shape.k, shape.c, shape.t, shape.r, shape.s);
        fill::fill_random(filter.as_mut_slice(), seed ^ 0xf1f);
        (input, filter)
    }

    fn check(shape: Conv3dShape, threads: usize) {
        let (input, filter) = problem(&shape, 11);
        let pool = StaticPool::new(threads);
        let got = try_conv3d_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
        let expect = conv3d_naive(&input, &filter, &shape);
        ndirect_tensor::assert_close(
            got.as_slice(),
            expect.as_slice(),
            2e-4,
            &format!("{shape:?}"),
        );
    }

    #[test]
    fn matches_oracle_3x3x3() {
        check(
            Conv3dShape {
                n: 1,
                c: 3,
                d: 6,
                h: 7,
                w: 8,
                k: 10,
                t: 3,
                r: 3,
                s: 3,
                stride: 1,
                pad_d: 1,
                pad_h: 1,
                pad_w: 1,
            },
            1,
        );
    }

    #[test]
    fn matches_oracle_valid_and_strided() {
        check(
            Conv3dShape {
                n: 2,
                c: 2,
                d: 5,
                h: 9,
                w: 9,
                k: 6,
                t: 2,
                r: 3,
                s: 3,
                stride: 2,
                pad_d: 0,
                pad_h: 1,
                pad_w: 1,
            },
            1,
        );
    }

    #[test]
    fn matches_oracle_pointwise_volume() {
        check(
            Conv3dShape {
                n: 1,
                c: 8,
                d: 4,
                h: 5,
                w: 6,
                k: 9,
                t: 1,
                r: 1,
                s: 1,
                stride: 1,
                pad_d: 0,
                pad_h: 0,
                pad_w: 0,
            },
            2,
        );
    }

    #[test]
    fn multithreaded_bitwise_identical() {
        let shape = Conv3dShape {
            n: 1,
            c: 4,
            d: 5,
            h: 6,
            w: 7,
            k: 8,
            t: 3,
            r: 3,
            s: 3,
            stride: 1,
            pad_d: 1,
            pad_h: 1,
            pad_w: 1,
        };
        let (input, filter) = problem(&shape, 12);
        let a = try_conv3d_ndirect(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        let b = try_conv3d_ndirect(&StaticPool::new(4), &input, &filter, &shape)
            .expect("valid problem");
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn plan_grids_bitwise_identical() {
        // The 3-D plan splits K over PTk (K = 10: three Vk = 4 groups) and
        // the flat N·OD·P rows over PTn, as the 2-D one does.
        let shape = Conv3dShape {
            n: 2,
            c: 3,
            d: 4,
            h: 5,
            w: 6,
            k: 10,
            t: 3,
            r: 3,
            s: 3,
            stride: 1,
            pad_d: 1,
            pad_h: 1,
            pad_w: 1,
        };
        let (input, filter) = problem(&shape, 13);
        let rows = kcrs_rows(&filter).expect("small filter");
        let run = |ptn, ptk| {
            let grid = ndirect_threads::Grid2::new(ptn, ptk);
            let sched = Schedule::minimal(&shape.flat()).with_grid(grid);
            let plan = ConvPlan::try_borrowed(&shape.flat(), &rows, &sched, Layout::Ncdhw(shape))
                .expect("valid problem");
            let mut out = Tensor5::zeros(shape.n, shape.k, shape.od(), shape.p(), shape.q());
            let pool = StaticPool::new(ptn * ptk);
            plan.execute_slices(&pool, input.as_slice(), out.as_mut_slice())
                .expect("valid problem");
            out
        };
        let base = run(1, 1);
        let expect = conv3d_naive(&input, &filter, &shape);
        ndirect_tensor::assert_close(base.as_slice(), expect.as_slice(), 2e-4, "1x1 grid");
        for (ptn, ptk) in [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 1), (1, 4)] {
            let got = run(ptn, ptk);
            assert_eq!(got.as_slice(), base.as_slice(), "grid {ptn}x{ptk}");
        }
    }

    #[test]
    fn flops_accounting() {
        let shape = Conv3dShape {
            n: 1,
            c: 2,
            d: 4,
            h: 4,
            w: 4,
            k: 3,
            t: 2,
            r: 2,
            s: 2,
            stride: 1,
            pad_d: 0,
            pad_h: 0,
            pad_w: 0,
        };
        // outputs: 3*3*3*3 = 81, macs: 2*2*2*2 = 16 → 2*81*16 = 2592.
        assert_eq!(shape.flops(), 2592);
    }
}
