//! The inner-product ablation kernel, measured against the outer-product
//! nest by `benches/ablations.rs` (`ablation_product_mode`).
//!
//! Algorithm 2 deliberately uses an *outer-product* update (§3.3: "We use
//! the outer-product method to update the output tensor O since its FAI is
//! higher than the inner-product method"). This module implements the
//! alternative the paper rejects — each output element computed as a
//! vectorized dot product over the packed strip — so the benchmark suite
//! can quantify that design decision. It is a bench, not a library entry.
//!
//! Structure: the same strip packing as the main path
//! ([`ndirect_core::pack::pack_strip`]), then for every `(pixel, k)` pair
//! a dot product over `(c, r, s)`: the `s`
//! dimension is contiguous in both the packed buffer and the `KCRS` filter
//! row, so it vectorizes with 4-lane loads and one horizontal reduction per
//! `(c, r)`. FAI per output element is `2·C·R·S / (2·C·R·S loads)` — every
//! operand is loaded once per use, the reuse the outer product gets from
//! its register tile is absent by construction.

use std::sync::{Mutex, MutexGuard};

use ndirect_core::pack::{pack_strip, StripGeom};
use ndirect_core::Error;
use ndirect_simd::{F32x4, SimdVec};
use ndirect_tensor::{ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::{split_static, StaticPool};

/// Output pixels per packed strip.
const VW: usize = 8;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Direct convolution with the inner-product kernel, `NCHW`/`KCRS` —
/// ablation only; the production entry point is
/// [`ndirect_core::try_conv_ndirect`].
pub fn try_conv_inner_product(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    shape.validate()?;
    let operands = (input.layout(), input.dims(), filter.layout(), filter.dims());
    let (n, c, k, (r, s)) = (shape.n, shape.c, shape.k, (shape.r, shape.s));
    if operands != (ActLayout::Nchw, (n, c, shape.h, shape.w), FilterLayout::Kcrs, (k, c, r, s)) {
        return Err(Error::Config {
            msg: format!("inner-product ablation takes NCHW/KCRS operands of {shape}"),
        });
    }
    let (p, q) = (shape.p(), shape.q());
    let mut out = Tensor4::output_for(shape, ActLayout::Nchw);
    let threads = pool.size();
    let image_len = c * shape.h * shape.w;
    let strip_len = c * r * ((VW - 1) * shape.stride + s);
    let strips: Vec<_> = (0..threads).map(|_| Mutex::new(vec![0.0; strip_len])).collect();
    // One lock per output row `(n, k, oh)`: a thread owns whole `(n, oh)`
    // rows, so no lock is ever contended.
    let rows: Vec<_> = out.as_mut_slice().chunks_mut(q).map(Mutex::new).collect();
    pool.try_run(|tid| {
        let mut buf = lock(&strips[tid]);
        for row in split_static(n * p, threads, tid) {
            let (ni, oh) = (row / p, row % p);
            let image = &input.as_slice()[ni * image_len..][..image_len];
            for wv in (0..q).step_by(VW) {
                let valid_w = VW.min(q - wv);
                let geom = StripGeom::new(shape, oh, wv, valid_w);
                pack_strip(image, 0, c, r, shape.h, shape.w, geom, &mut buf);
                for (ki, frow) in filter.as_slice().chunks_exact(c * r * s).enumerate() {
                    let mut dst = lock(&rows[(ni * k + ki) * p + oh]);
                    for wi in 0..valid_w {
                        let off = wi * shape.stride;
                        dst[wv + wi] = dot_strip(&buf, frow, c, r, s, geom.win, off);
                    }
                }
            }
        }
    })?;
    drop(rows);
    Ok(out)
}

/// Dot product of one output element: `Σ_{c,r,s} B[c][r][off+s]·F[c][r][s]`.
#[inline]
fn dot_strip(
    buf: &[f32],
    frow: &[f32],
    c: usize,
    r: usize,
    s: usize,
    win: usize,
    off: usize,
) -> f32 {
    let mut acc_v = F32x4::zero();
    let mut acc_s = 0.0f32;
    for ci in 0..c {
        for ri in 0..r {
            let b = &buf[(ci * r + ri) * win + off..(ci * r + ri) * win + off + s];
            let f = &frow[(ci * r + ri) * s..(ci * r + ri) * s + s];
            let mut si = 0;
            while si + 4 <= s {
                acc_v = acc_v.fma(F32x4::load(&b[si..]), F32x4::load(&f[si..]));
                si += 4;
            }
            while si < s {
                acc_s += b[si] * f[si];
                si += 1;
            }
        }
    }
    acc_v.reduce_sum() + acc_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{assert_close, fill, FilterLayout, Padding};

    fn check(shape: ConvShape, threads: usize) {
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 8);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 8);
        let expect = ndirect_baselines::naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(threads);
        let got = try_conv_inner_product(&pool, &input, &filter, &shape).expect("valid problem");
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "inner product");
    }

    #[test]
    fn matches_oracle_3x3() {
        check(ConvShape::new(1, 5, 9, 11, 7, 3, 3, 1, Padding::same(1)), 1);
    }

    #[test]
    fn matches_oracle_strided_and_wide_kernels() {
        check(ConvShape::new(1, 3, 12, 12, 4, 5, 5, 2, Padding::same(2)), 1);
        check(ConvShape::new(2, 2, 10, 14, 3, 7, 7, 1, Padding::same(3)), 1);
    }

    #[test]
    fn matches_oracle_pointwise_multithreaded() {
        check(ConvShape::new(2, 9, 6, 6, 5, 1, 1, 1, Padding::NONE), 4);
    }

    #[test]
    fn thread_count_invariant() {
        let shape = ConvShape::new(2, 4, 8, 8, 6, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 9);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 9);
        let a = try_conv_inner_product(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        let b = try_conv_inner_product(&StaticPool::new(3), &input, &filter, &shape)
            .expect("valid problem");
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
