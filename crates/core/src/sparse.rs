//! Channel-pruned convolution — the paper's §1 sparsity claim ("direct
//! convolution can exploit the sparsity of the convolution kernel and
//! avoid unnecessary computations") at the granularity structured pruning
//! actually produces: whole input channels whose filter taps are all zero.
//!
//! [`prune_channels`] scans the filter once for dead channels;
//! [`try_conv_ndirect_pruned`] compacts the live channels of the filter and
//! (one streaming pass) of the input, then runs the ordinary nDirect
//! convolution on the smaller `C`. For a density `d`, compute shrinks by
//! `1/d` while the compaction costs one extra read+write of the live input
//! — profitable whenever the reduction is not trivially small.

use ndirect_tensor::{ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;

use crate::conv::try_conv_ndirect;
use crate::error::{check, Error};

/// Which input channels carry any nonzero filter tap.
#[derive(Debug, Clone)]
pub struct ChannelMask {
    /// Indices of live channels, ascending.
    pub live: Vec<usize>,
    /// Original channel count.
    pub total: usize,
}

impl ChannelMask {
    /// Fraction of channels that are live.
    pub fn density(&self) -> f64 {
        self.live.len() as f64 / self.total.max(1) as f64
    }
}

/// Scans a `KCRS` filter for input channels that are zero across every
/// output channel and tap.
pub fn prune_channels(filter: &Filter) -> ChannelMask {
    assert_eq!(filter.layout(), FilterLayout::Kcrs, "pruning expects KCRS");
    let (k, c, r, s) = filter.dims();
    let mut live = Vec::new();
    'chan: for ci in 0..c {
        for ki in 0..k {
            for ri in 0..r {
                for si in 0..s {
                    if filter.at(ki, ci, ri, si) != 0.0 {
                        live.push(ci);
                        continue 'chan;
                    }
                }
            }
        }
    }
    ChannelMask { live, total: c }
}

/// Compacts the live channels of filter and input and convolves the
/// reduced problem. Falls back to the dense path when (almost) everything
/// is live. A fully-dead filter yields the correct all-zero output.
pub fn try_conv_ndirect_pruned(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    check::standard_nchw(input, filter, shape, "pruning expects NCHW/KCRS")?;
    let mask = prune_channels(filter);
    if mask.live.len() == mask.total {
        return try_conv_ndirect(pool, input, filter, shape);
    }
    if mask.live.is_empty() {
        return Ok(Tensor4::output_for(shape, ActLayout::Nchw));
    }

    let c_live = mask.live.len();
    // Compact filter: keep live channels only.
    let mut f2 = Filter::zeros(shape.k, c_live, shape.r, shape.s, FilterLayout::Kcrs);
    for ki in 0..shape.k {
        for (cj, &ci) in mask.live.iter().enumerate() {
            for ri in 0..shape.r {
                for si in 0..shape.s {
                    *f2.at_mut(ki, cj, ri, si) = filter.at(ki, ci, ri, si);
                }
            }
        }
    }
    // Compact input: one streaming copy of the live channel planes.
    let mut i2 = Tensor4::zeros(shape.n, c_live, shape.h, shape.w, ActLayout::Nchw);
    let plane = shape.h * shape.w;
    let src = input.as_slice();
    let dst = i2.as_mut_slice();
    for n in 0..shape.n {
        for (cj, &ci) in mask.live.iter().enumerate() {
            let s0 = (n * shape.c + ci) * plane;
            let d0 = (n * c_live + cj) * plane;
            dst[d0..d0 + plane].copy_from_slice(&src[s0..s0 + plane]);
        }
    }

    let mut reduced = *shape;
    reduced.c = c_live;
    try_conv_ndirect(pool, &i2, &f2, &reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::try_conv_ndirect;
    use ndirect_baselines::naive;
    use ndirect_tensor::{assert_close, fill, Padding};

    fn pruned_problem(shape: &ConvShape, dead_every: usize, seed: u64) -> (Tensor4, Filter) {
        let input = fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), seed);
        let mut filter = fill::random_filter(Filter::for_shape(shape, FilterLayout::Kcrs), seed);
        // Zero out every `dead_every`-th input channel's taps.
        for ci in (0..shape.c).step_by(dead_every) {
            for ki in 0..shape.k {
                for ri in 0..shape.r {
                    for si in 0..shape.s {
                        *filter.at_mut(ki, ci, ri, si) = 0.0;
                    }
                }
            }
        }
        (input, filter)
    }

    #[test]
    fn mask_detects_dead_channels() {
        let shape = ConvShape::new(1, 8, 6, 6, 4, 3, 3, 1, Padding::same(1));
        let (_, filter) = pruned_problem(&shape, 2, 1);
        let mask = prune_channels(&filter);
        assert_eq!(mask.live, vec![1, 3, 5, 7]);
        assert!((mask.density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pruned_conv_matches_dense_oracle() {
        let shape = ConvShape::new(2, 10, 9, 9, 6, 3, 3, 1, Padding::same(1));
        let (input, filter) = pruned_problem(&shape, 3, 2);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let got = try_conv_ndirect_pruned(&StaticPool::new(2), &input, &filter, &shape)
            .expect("valid problem");
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "pruned conv");
    }

    #[test]
    fn fully_dense_filter_takes_dense_path() {
        let shape = ConvShape::new(1, 4, 8, 8, 4, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 3);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 3);
        let dense = try_conv_ndirect(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        let pruned = try_conv_ndirect_pruned(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        assert_eq!(pruned.as_slice(), dense.as_slice());
    }

    #[test]
    fn fully_dead_filter_yields_zeros() {
        let shape = ConvShape::new(1, 3, 6, 6, 2, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 4);
        let filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        let out = try_conv_ndirect_pruned(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pruning_reduces_work_measurably() {
        // 7/8 channels dead: the pruned path should clearly beat dense on a
        // sizeable layer even on a noisy machine.
        let shape = ConvShape::new(1, 128, 28, 28, 64, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 5);
        let mut filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        // Keep only channels 0..16 live.
        let live_src = fill::random_filter(
            Filter::zeros(shape.k, 16, 3, 3, FilterLayout::Kcrs),
            5,
        );
        for ki in 0..shape.k {
            for ci in 0..16 {
                for ri in 0..3 {
                    for si in 0..3 {
                        *filter.at_mut(ki, ci, ri, si) = live_src.at(ki, ci, ri, si);
                    }
                }
            }
        }
        let pool = StaticPool::new(1);
        let t = std::time::Instant::now();
        let dense = try_conv_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
        let t_dense = t.elapsed();
        let t = std::time::Instant::now();
        let pruned = try_conv_ndirect_pruned(&pool, &input, &filter, &shape)
            .expect("valid problem");
        let t_pruned = t.elapsed();
        assert_close(pruned.as_slice(), dense.as_slice(), 2e-4, "pruned speedup");
        // 8x less compute; demand at least 2x wall-clock on this shape.
        assert!(
            t_pruned.as_secs_f64() * 2.0 < t_dense.as_secs_f64(),
            "dense {t_dense:?} vs pruned {t_pruned:?}"
        );
    }
}
