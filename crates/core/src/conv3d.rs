//! 3-D (volumetric) convolution — the §10.2 extension.
//!
//! "Since 3D Convolution can be seen as 2D Convolution with additional
//! reduction dimensions, we can directly use the micro-kernels of nDirect
//! for acceleration." Concretely: the 2-D micro-kernel reduces over
//! `(c, r, s)` with `r` indexing rows of the packed strip; for 3-D we
//! flatten the kernel-depth and kernel-height taps into a single row
//! dimension `r' = T·R` — row `t·R + r` of channel `c` is input row
//! `(id·str + t, ih·str + r)` — and the *identical* register-tiled kernel
//! ([`crate::kernel::run_tile`]) computes the `Vw × Vk` output tile. Only
//! the gather (3-D addressing, here) and the filter transform
//! ([`transform_filter3d_block`]) know the data is volumetric.

use ndirect_tensor::{Filter5, Tensor5};
use ndirect_threads::{split_static, SharedSlice, StaticPool};

use crate::conv::{checked_product, input_span, try_scratch_bufs};
use crate::error::{check, Error};
use crate::kernel::{run_tile, RowSource, TileArgs};
use crate::microkernel::Kernel;

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
    /// [`crate::Schedule::derive`]'s Eq. 3–4 pick for an `S`-wide filter,
    /// through [`crate::Schedule::sanitized`]'s clamp.
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
}

/// Transforms the filter block `k ∈ [kt, kt+tkb)` (all channels) into the
/// kernel's expected `[kv][c][t·r][s][Vk]` layout.
pub fn transform_filter3d_block(
    filter: &Filter5,
    kt: usize,
    tkb: usize,
    vk: usize,
    out: &mut [f32],
) {
    let (k, c, t, r, s) = filter.dims();
    assert!(kt + tkb <= k, "block out of range");
    let kvb = tkb.div_ceil(vk);
    assert!(out.len() >= kvb * c * t * r * s * vk, "transform buffer too small");
    for kv in 0..kvb {
        let lanes = vk.min(tkb - kv * vk);
        for cc in 0..c {
            for tt in 0..t {
                for rr in 0..r {
                    for ss in 0..s {
                        let row = tt * r + rr;
                        let base = (((kv * c + cc) * (t * r) + row) * s + ss) * vk;
                        for l in 0..lanes {
                            out[base + l] = filter.at(kt + kv * vk + l, cc, tt, rr, ss);
                        }
                        for d in out[base + lanes..base + vk].iter_mut() {
                            *d = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// nDirect-style 3-D convolution: `NCDHW` in, `NCDHW` out.
///
/// Parallelization: the flat `N·OD·P` output-row space is split statically
/// across the pool (every thread computes all `K`; with one extra grid
/// dimension the 2-D `PTk` split would also apply, omitted for clarity).
pub fn try_conv3d_ndirect(
    pool: &StaticPool,
    input: &Tensor5,
    filter: &Filter5,
    shape: &Conv3dShape,
) -> Result<Tensor5, Error> {
    check::isa()?;
    if input.dims() != (shape.n, shape.c, shape.d, shape.h, shape.w) {
        return Err(Error::Config {
            msg: format!(
                "input dims mismatch: shape implies {:?}, tensor is {:?}",
                (shape.n, shape.c, shape.d, shape.h, shape.w),
                input.dims()
            ),
        });
    }
    if filter.dims() != (shape.k, shape.c, shape.t, shape.r, shape.s) {
        return Err(Error::Config {
            msg: format!(
                "filter dims mismatch: shape implies {:?}, tensor is {:?}",
                (shape.k, shape.c, shape.t, shape.r, shape.s),
                filter.dims()
            ),
        });
    }
    if shape.stride < 1 {
        return Err(Error::Shape(ndirect_tensor::ShapeError::ZeroStride));
    }
    if shape.d + 2 * shape.pad_d < shape.t {
        return Err(Error::Shape(ndirect_tensor::ShapeError::KernelExceedsInput {
            axis: 'd',
            kernel: shape.t,
            padded: shape.d + 2 * shape.pad_d,
        }));
    }
    if shape.h + 2 * shape.pad_h < shape.r {
        return Err(Error::Shape(ndirect_tensor::ShapeError::KernelExceedsInput {
            axis: 'h',
            kernel: shape.r,
            padded: shape.h + 2 * shape.pad_h,
        }));
    }
    if shape.w + 2 * shape.pad_w < shape.s {
        return Err(Error::Shape(ndirect_tensor::ShapeError::KernelExceedsInput {
            axis: 'w',
            kernel: shape.s,
            padded: shape.w + 2 * shape.pad_w,
        }));
    }
    let (od, p, q) = (shape.od(), shape.p(), shape.q());
    let mut out = Tensor5::zeros(shape.n, shape.k, od, p, q);

    let (vw, vk) = shape.register_tile(&ndirect_platform::host());
    let rdim = shape.t * shape.r; // flattened (t, r) row dimension
    let kv_total = shape.k.div_ceil(vk);

    let threads = pool.size();
    let kernel = Kernel::best();
    let rows_total = shape.n * od * p;
    let in_data = input.as_slice();
    let image_len = shape.c * shape.d * shape.h * shape.w;

    // Whole-filter transform once (K is typically small for 3-D nets; the
    // per-block on-the-fly variant works identically but obscures the
    // demonstration).
    let mut tf = try_scratch_bufs(checked_product(&[kv_total, shape.c, rdim, shape.s, vk]), 1)?
        .swap_remove(0)
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    transform_filter3d_block(filter, 0, shape.k, vk, &mut tf);
    let tf_block_len = shape.c * rdim * shape.s * vk;
    // One strip buffer per thread, provisioned before the region so a
    // refusal is an error here rather than an abort on a worker.
    let strip_len = input_span(vw, shape.stride, shape.s)
        .and_then(|win_max| checked_product(&[shape.c, rdim, win_max]));
    let strips = try_scratch_bufs(strip_len, threads)?;

    let out_shared = SharedSlice::new(out.as_mut_slice());
    pool.try_run(|tid| {
        // Disjointness: threads own disjoint output rows (static split);
        // barrier before return.
        let out_all = &out_shared;
        let mut buf = strips[tid].lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        for row in split_static(rows_total, threads, tid) {
            let n = row / (od * p);
            let odh = row % (od * p);
            let odi = odh / p;
            let oh = odh % p;
            let image = &in_data[n * image_len..(n + 1) * image_len];

            let id0 = (odi * shape.stride) as isize - shape.pad_d as isize;
            let ih0 = (oh * shape.stride) as isize - shape.pad_h as isize;
            let mut wv = 0;
            while wv < q {
                let valid_w = vw.min(q - wv);
                let win = (valid_w - 1) * shape.stride + shape.s;
                let iw0 = (wv * shape.stride) as isize - shape.pad_w as isize;
                // 3-D gather: row (c, t·R + r) is input row (id0+t, ih0+r)
                // of channel c.
                for cc in 0..shape.c {
                    for tt in 0..shape.t {
                        for rr in 0..shape.r {
                            let dst_row = cc * rdim + tt * shape.r + rr;
                            let dst = &mut buf[dst_row * win..(dst_row + 1) * win];
                            gather_row3d(
                                image, shape, cc, id0 + tt as isize, ih0 + rr as isize, iw0, dst,
                            );
                        }
                    }
                }
                for kv in 0..kv_total {
                    let k0 = kv * vk;
                    let args = TileArgs {
                        tcb: shape.c,
                        rdim,
                        sdim: shape.s,
                        stride: shape.stride,
                        tf: &tf[kv * tf_block_len..(kv + 1) * tf_block_len],
                        vk,
                        obase: (((n * shape.k + k0) * od + odi) * p + oh) * q + wv,
                        kstride: od * p * q,
                        wstride: 1,
                        valid_w,
                        valid_k: vk.min(shape.k - k0),
                    };
                    let mut rows = RowSource::Packed {
                        buf: &buf,
                        win,
                        rdim,
                    };
                    run_tile(kernel, &mut rows, &args, out_all);
                }
                wv += vw;
            }
        }
    })?;
    Ok(out)
}

/// One input row of a 3-D volume with zero fill outside any axis.
fn gather_row3d(
    image: &[f32],
    shape: &Conv3dShape,
    c: usize,
    id: isize,
    ih: isize,
    iw0: isize,
    dst: &mut [f32],
) {
    if id < 0 || id as usize >= shape.d || ih < 0 || ih as usize >= shape.h {
        dst.fill(0.0);
        return;
    }
    let row0 = ((c * shape.d + id as usize) * shape.h + ih as usize) * shape.w;
    crate::pack::fill_row_clipped(&image[row0..row0 + shape.w], iw0, shape.w, dst);
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
