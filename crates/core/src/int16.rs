//! INT16 convolution — §3.3's "other data types" claim, made concrete.
//!
//! Quantized inference keeps activations and weights in narrow integers
//! and accumulates in i32. The nDirect structure carries over intact:
//! strip packing, on-the-fly filter transform, and an outer-product
//! register tile — except the FMA becomes the pairwise integer
//! multiply-accumulate (`pmaddwd` / `vmlal_s16`), which processes *two*
//! input channels per instruction. The filter transform therefore
//! interleaves channel pairs: `[kv][c/2][r][s][Vk][2]`, and the kernel
//! broadcasts an input channel-pair against it.
//!
//! Arithmetic is exact (integer), so the tests require bitwise equality
//! with the naive oracle and results are bitwise thread-invariant by
//! construction. The caller owns the usual quantized-kernel contract:
//! `C·R·S·max|x|·max|w|` must stay inside i32 (accumulation wraps
//! otherwise, as it does in every production int kernel).

use std::sync::Mutex;

use ndirect_simd::{I16x8, I32x4};
use ndirect_tensor::ConvShape;
use ndirect_threads::{split_static, SharedSlice, StaticPool};

use crate::conv::{checked_product, input_span, scratch_len, try_zeroed_vec};
use crate::error::{check, Error};

/// A dense `NCHW` i16 activation tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Int16Tensor {
    /// Row-major `NCHW` codes.
    pub data: Vec<i16>,
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Int16Tensor {
    /// Zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Int16Tensor {
            data: vec![0; n * c * h * w],
            n,
            c,
            h,
            w,
        }
    }

    #[inline]
    fn at_padded(&self, n: usize, c: usize, h: isize, w: isize) -> i16 {
        if h < 0 || w < 0 || h as usize >= self.h || w as usize >= self.w {
            0
        } else {
            self.data[((n * self.c + c) * self.h + h as usize) * self.w + w as usize]
        }
    }
}

/// A dense `KCRS` i16 filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Int16Filter {
    /// Row-major `KCRS` codes.
    pub data: Vec<i16>,
    /// Output channels.
    pub k: usize,
    /// Input channels.
    pub c: usize,
    /// Kernel height.
    pub r: usize,
    /// Kernel width.
    pub s: usize,
}

impl Int16Filter {
    /// Zero filter.
    pub fn zeros(k: usize, c: usize, r: usize, s: usize) -> Self {
        Int16Filter {
            data: vec![0; k * c * r * s],
            k,
            c,
            r,
            s,
        }
    }

    #[inline]
    fn at(&self, k: usize, c: usize, r: usize, s: usize) -> i16 {
        // INDEX: callers iterate k < K, c < C, r < R, s < S — flat KCRS.
        self.data[((k * self.c + c) * self.r + r) * self.s + s]
    }
}

/// Naive INT16 oracle: exact i32 accumulation (wrapping). Operands are
/// checked as [`try_conv_int16`] checks them.
pub fn conv_int16_naive(
    input: &Int16Tensor,
    filter: &Int16Filter,
    shape: &ConvShape,
) -> Result<Vec<i32>, Error> {
    validate(input, filter, shape)?;
    let (p, q) = (shape.p(), shape.q());
    let mut out = vec![0i32; shape.n * shape.k * p * q];
    for n in 0..shape.n {
        for k in 0..shape.k {
            for oj in 0..p {
                for oi in 0..q {
                    let mut acc = 0i32;
                    for c in 0..shape.c {
                        for r in 0..shape.r {
                            for s in 0..shape.s {
                                let ij = (shape.stride * oj + r) as isize - shape.pad.h as isize;
                                let ii = (shape.stride * oi + s) as isize - shape.pad.w as isize;
                                // CAST: i16 -> i32 widening, lossless.
                                let x = input.at_padded(n, c, ij, ii) as i32;
                                // CAST: i16 -> i32 widening, lossless.
                                acc = acc.wrapping_add(x * filter.at(k, c, r, s) as i32);
                            }
                        }
                    }
                    out[((n * shape.k + k) * p + oj) * q + oi] = acc;
                }
            }
        }
    }
    Ok(out)
}

/// Register-tile width (output pixels) of the INT16 kernel.
const VW: usize = 4;
/// Register-tile depth (output channels): two `I32x4` accumulators/pixel.
const VK: usize = 8;

/// nDirect-style INT16 convolution: `NCHW` i16 in, `NCHW` i32 out.
///
/// Parallelized over the flat `N·P` output-row space (bitwise-exact for
/// any thread count, since integer addition is associative).
pub fn try_conv_int16(
    pool: &StaticPool,
    input: &Int16Tensor,
    filter: &Int16Filter,
    shape: &ConvShape,
) -> Result<Vec<i32>, Error> {
    validate(input, filter, shape)?;
    let (p, q) = (shape.p(), shape.q());
    let cpairs = shape.c.div_ceil(2);
    let kv_total = shape.k.div_ceil(VK);
    let threads = pool.size();
    // Every buffer is sized with checked arithmetic and provisioned before
    // the region, so a refusal is an error here rather than an abort on a
    // worker.
    let out_len = checked_product(&[shape.n, shape.k, p, q]);
    let mut out = try_zeroed_vec::<i32>(scratch_len(out_len, 1)?)?;
    // Filter transform: [kv][cpair][r][s][VK][2], zero-padded in both the
    // K remainder and the odd-C pad channel.
    let tf_len = checked_product(&[kv_total, cpairs, shape.r, shape.s, VK, 2]);
    let mut tf = try_zeroed_vec::<i16>(scratch_len(tf_len, 1)?)?;
    for kv in 0..kv_total {
        for cp in 0..cpairs {
            for r in 0..shape.r {
                for s in 0..shape.s {
                    for l in 0..VK {
                        let k = kv * VK + l;
                        if k >= shape.k {
                            continue;
                        }
                        let base =
                            ((((kv * cpairs + cp) * shape.r + r) * shape.s + s) * VK + l) * 2;
                        tf[base] = filter.at(k, 2 * cp, r, s);
                        if 2 * cp + 1 < shape.c {
                            tf[base + 1] = filter.at(k, 2 * cp + 1, r, s);
                        }
                    }
                }
            }
        }
    }
    let tf_kv_len = cpairs * shape.r * shape.s * VK * 2;
    // One packed strip per thread: [cpair][r][win][2], channel pairs
    // interleaved so the kernel broadcasts one 32-bit pair per (pixel, tap).
    let strip_len = input_span(VW, shape.stride, shape.s)
        .and_then(|win_max| checked_product(&[cpairs, shape.r, win_max, 2]));
    let strip_len = scratch_len(strip_len, threads)?;
    let strips = (0..threads)
        .map(|_| try_zeroed_vec::<i16>(strip_len).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()?;
    let rows_total = shape.n * p;

    let out_shared = SharedSlice::new(&mut out);
    pool.try_run(|tid| {
        // Disjointness: output rows are statically split per thread;
        // barrier before return.
        let out_all = &out_shared;
        let mut buf = strips[tid].lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        for row in split_static(rows_total, threads, tid) {
            let n = row / p;
            let oh = row % p;
            let ih0 = (oh * shape.stride) as isize - shape.pad.h as isize;
            let mut wv = 0;
            while wv < q {
                let valid_w = VW.min(q - wv);
                let win = (valid_w - 1) * shape.stride + shape.s;
                let iw0 = (wv * shape.stride) as isize - shape.pad.w as isize;
                // Pack the strip.
                for cp in 0..cpairs {
                    for rr in 0..shape.r {
                        let ih = ih0 + rr as isize;
                        for col in 0..win {
                            let iw = iw0 + col as isize;
                            let base = ((cp * shape.r + rr) * win + col) * 2;
                            buf[base] = input.at_padded(n, 2 * cp, ih, iw);
                            buf[base + 1] = if 2 * cp + 1 < shape.c {
                                input.at_padded(n, 2 * cp + 1, ih, iw)
                            } else {
                                0
                            };
                        }
                    }
                }
                for kv in 0..kv_total {
                    let k0 = kv * VK;
                    let valid_k = VK.min(shape.k - k0);
                    let tfkv = &tf[kv * tf_kv_len..(kv + 1) * tf_kv_len];
                    let mut acc = [[I32x4::zero(); 2]; VW];
                    for cp in 0..cpairs {
                        for rr in 0..shape.r {
                            for ss in 0..shape.s {
                                let fbase =
                                    (((cp * shape.r + rr) * shape.s + ss) * VK) * 2;
                                let f0 = I16x8::load(&tfkv[fbase..]);
                                let f1 = I16x8::load(&tfkv[fbase + 8..]);
                                for (wi, accw) in acc.iter_mut().enumerate().take(valid_w) {
                                    let col = wi * shape.stride + ss;
                                    let b = ((cp * shape.r + rr) * win + col) * 2;
                                    let x = I16x8::splat_pair(buf[b], buf[b + 1]);
                                    accw[0] = accw[0].madd_acc(x, f0);
                                    accw[1] = accw[1].madd_acc(x, f1);
                                }
                            }
                        }
                    }
                    for (wi, accw) in acc.iter().enumerate().take(valid_w) {
                        for (j, v) in accw.iter().enumerate() {
                            let lanes = v.to_array();
                            for (l, &x) in lanes.iter().enumerate() {
                                let k_local = j * 4 + l;
                                if k_local < valid_k {
                                    let off = ((n * shape.k + k0 + k_local) * p + oh) * q
                                        + wv
                                        + wi;
                                    // SAFETY: this output row has one owner.
                                    unsafe {
                                        out_all.write(off, out_all.read(off).wrapping_add(x))
                                    };
                                }
                            }
                        }
                    }
                }
                wv += VW;
            }
        }
    })?;
    Ok(out)
}

fn validate(input: &Int16Tensor, filter: &Int16Filter, shape: &ConvShape) -> Result<(), Error> {
    check::isa()?;
    shape.validate()?;
    check::dims(
        "input dims",
        (shape.n, shape.c, shape.h, shape.w),
        (input.n, input.c, input.h, input.w),
    )?;
    check::dims(
        "filter dims",
        (shape.k, shape.c, shape.r, shape.s),
        (filter.k, filter.c, filter.r, filter.s),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_support::Rng64;
    use ndirect_tensor::Padding;

    fn problem(shape: &ConvShape, seed: u64) -> (Int16Tensor, Int16Filter) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut input = Int16Tensor::zeros(shape.n, shape.c, shape.h, shape.w);
        for x in &mut input.data {
            *x = rng.gen_range_i32(-31, 31) as i16;
        }
        let mut filter = Int16Filter::zeros(shape.k, shape.c, shape.r, shape.s);
        for x in &mut filter.data {
            *x = rng.gen_range_i32(-31, 31) as i16;
        }
        (input, filter)
    }

    fn check(shape: ConvShape, threads: usize) {
        let (input, filter) = problem(&shape, 61);
        let expect = conv_int16_naive(&input, &filter, &shape).expect("valid problem");
        let got = try_conv_int16(&StaticPool::new(threads), &input, &filter, &shape)
            .expect("valid problem");
        assert_eq!(got, expect, "int16 conv must be exact: {shape}");
    }

    #[test]
    fn exact_match_basic_3x3() {
        check(ConvShape::new(1, 4, 8, 8, 8, 3, 3, 1, Padding::same(1)), 1);
    }

    #[test]
    fn exact_match_odd_channels_and_k_tail() {
        // C=5 exercises the zero pad channel; K=10 the VK tail.
        check(ConvShape::new(2, 5, 7, 9, 10, 3, 3, 1, Padding::same(1)), 1);
    }

    #[test]
    fn exact_match_strided_pointwise_and_large_kernel() {
        check(ConvShape::new(1, 4, 9, 9, 6, 3, 3, 2, Padding::same(1)), 1);
        check(ConvShape::new(1, 6, 5, 5, 7, 1, 1, 1, Padding::NONE), 1);
        check(ConvShape::new(1, 2, 12, 12, 3, 5, 5, 1, Padding::same(2)), 1);
    }

    #[test]
    fn exact_match_multithreaded() {
        check(ConvShape::new(3, 6, 8, 8, 12, 3, 3, 1, Padding::same(1)), 4);
    }

    #[test]
    fn thread_count_invariant_bitwise() {
        let shape = ConvShape::new(2, 4, 8, 8, 8, 3, 3, 1, Padding::same(1));
        let (input, filter) = problem(&shape, 62);
        let a = try_conv_int16(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        let b = try_conv_int16(&StaticPool::new(5), &input, &filter, &shape)
            .expect("valid problem");
        assert_eq!(a, b);
    }

    #[test]
    fn identity_filter_copies_channel() {
        let shape = ConvShape::new(1, 2, 4, 4, 1, 1, 1, 1, Padding::NONE);
        let mut input = Int16Tensor::zeros(1, 2, 4, 4);
        for (i, x) in input.data.iter_mut().enumerate() {
            *x = i as i16;
        }
        let mut filter = Int16Filter::zeros(1, 2, 1, 1);
        filter.data[1] = 1; // pick channel 1
        let out = try_conv_int16(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        let expect: Vec<i32> = (16..32).collect();
        assert_eq!(out, expect);
    }
}
