//! The depthwise-separable block as one plan: a [`DepthwisePlan`] feeding
//! a 1×1 [`ConvPlan`] through a pooled intermediate.
//!
//! The paper runs depthwise as an nDirect kernel "without the reduction
//! over C" (§10.2) and the pointwise stage as a plain 1×1 convolution; it
//! has no fused block, and on MobileNetV1's 13 blocks this composition
//! measured faster than a cache-slab fusion of the two stages
//! (EXPERIMENTS.md, "Extension: depthwise-separable blocks").

use std::sync::Mutex;

use ndirect_platform::Platform;
use ndirect_tensor::{ActLayout, AlignedBuf, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;

use crate::error::{check, Error};
use crate::microkernel::Kernel;
use crate::plan::{Arena, ConvPlan, DepthwisePlan};

/// A depthwise-separable block: a [`DepthwisePlan`] writes a pooled
/// `(N, C, P, Q)` intermediate that a 1×1 [`ConvPlan`] reads. The
/// intermediate is leased from a pool like the plans' scratch, so a
/// warmed [`execute`](FusedDwPwPlan::execute) is allocation-free and, like
/// [`ConvPlan::execute`], accumulates into `out`.
///
/// The type stays only because the frozen benchmark names it
/// (`benchmark/src/models.rs`, the `core.dwpw_fused_speedup` metric);
/// ROADMAP item 1(i) deletes it together with that metric.
pub struct FusedDwPwPlan {
    dw: DepthwisePlan<'static>,
    pw: ConvPlan<'static>,
    mid: Arena<Tensor4>,
}

impl FusedDwPwPlan {
    /// Builds the block for `threads` worker threads: `dw_shape` is the
    /// depthwise stage's (`K == C`), and the `(K, C, 1, 1)` `KCRS`
    /// pointwise filter's `K` is the block's output channel count. The
    /// pointwise plan is [`ConvPlan::try_new`]'s for the composed shape.
    pub fn try_new(
        platform: &Platform,
        dw_shape: &ConvShape,
        dw_filter: &Filter,
        pw_filter: &Filter,
        threads: usize,
    ) -> Result<FusedDwPwPlan, Error> {
        let dw = DepthwisePlan::try_new(dw_shape, dw_filter, threads)?;
        check::filter_layout(pw_filter, FilterLayout::Kcrs, "dw+pw takes KCRS")?;
        let (_, pw_shape) = crate::depthwise::try_compose_shapes(dw_shape, pw_filter.k())?;
        let pw = ConvPlan::try_new(platform, &pw_shape, pw_filter, threads)?;
        let mid = Arena::new(Self::alloc_mid(dw_shape)?);
        Ok(FusedDwPwPlan { dw, pw, mid })
    }

    // AUDIT: cold — intermediate provisioning; runs on arena miss only.
    fn alloc_mid(shape: &ConvShape) -> Result<Vec<Mutex<Tensor4>>, Error> {
        let buf = AlignedBuf::try_zeroed(shape.output_len())
            .map_err(|elements| Error::ScratchAlloc { elements })?;
        let mid = Tensor4::from_buf(buf, shape.n, shape.c, shape.p(), shape.q(), ActLayout::Nchw);
        Ok(vec![Mutex::new(mid)])
    }

    /// The block running `kernel` in both stages instead of the detected
    /// best entry.
    #[doc(hidden)]
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        FusedDwPwPlan {
            dw: self.dw.with_kernel(kernel),
            pw: self.pw.with_kernel(kernel),
            ..self
        }
    }

    /// Runs the depthwise stage into the leased intermediate, then the
    /// pointwise stage *accumulating* into `out` (`(N, K, P, Q)` `NCHW`).
    /// The pool must provide at least the plan's thread count.
    // AUDIT: hotpath
    pub fn execute(
        &self,
        pool: &StaticPool,
        input: &Tensor4,
        out: &mut Tensor4,
    ) -> Result<(), Error> {
        let mut set = match self.mid.take() {
            Some(set) => set,
            None => Self::alloc_mid(self.dw.shape())?,
        };
        // INDEX: every set is `alloc_mid`'s one slot. Only `get_mut` reaches
        // it, which never poisons, and the depthwise stage overwrites all of
        // it anyway.
        let mid = set[0].get_mut().unwrap_or_else(|poisoned| poisoned.into_inner());
        let result = self
            .dw
            .execute(pool, input, mid)
            .and_then(|()| self.pw.execute(pool, mid, out));
        self.mid.put(set);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, Padding};

    fn dw_shape(n: usize, c: usize, hw: usize, rs: usize, stride: usize, pad: usize) -> ConvShape {
        ConvShape::new(n, c, hw, hw, c, rs, rs, stride, Padding::same(pad))
    }

    fn problem(shape: &ConvShape, k: usize, seed: u64) -> (Tensor4, Filter, Filter) {
        (
            fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), seed),
            fill::random_filter(
                Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs),
                seed,
            ),
            fill::random_filter(
                Filter::zeros(k, shape.c, 1, 1, FilterLayout::Kcrs),
                seed + 1,
            ),
        )
    }

    /// The block's output on `pool`, from a zeroed tensor.
    fn run(
        pool: &StaticPool,
        shape: &ConvShape,
        dwf: &Filter,
        pwf: &Filter,
        input: &Tensor4,
    ) -> Tensor4 {
        let plan = FusedDwPwPlan::try_new(&ndirect_platform::host(), shape, dwf, pwf, pool.size())
            .expect("valid problem");
        let mut out = Tensor4::zeros(shape.n, pwf.k(), shape.p(), shape.q(), ActLayout::Nchw);
        plan.execute(pool, input, &mut out).expect("valid problem");
        out
    }

    #[test]
    fn matches_unfused_composition() {
        for (c, k, hw, stride, pad) in [
            (8, 12, 10, 1, 1),
            (6, 9, 11, 2, 1),
            (4, 16, 7, 1, 0),
            (12, 8, 9, 2, 0),
        ] {
            let shape = dw_shape(1, c, hw, 3, stride, pad);
            let (input, dwf, pwf) = problem(&shape, k, 7);
            let pool = StaticPool::new(2);
            let got = run(&pool, &shape, &dwf, &pwf, &input);
            let want = crate::try_conv_depthwise_separable(&pool, &input, &dwf, &pwf, &shape)
                .expect("valid problem");
            assert_eq!(got.dims(), want.dims());
            assert_eq!(got.as_slice(), want.as_slice(), "composed vs one-shot");
        }
    }

    #[test]
    fn multithreaded_is_bitwise_identical() {
        let shape = dw_shape(2, 10, 13, 3, 1, 1);
        let (input, dwf, pwf) = problem(&shape, 20, 9);
        let a = run(&StaticPool::new(1), &shape, &dwf, &pwf, &input);
        let b = run(&StaticPool::new(4), &shape, &dwf, &pwf, &input);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn execute_accumulates_into_seeded_output() {
        let shape = dw_shape(1, 4, 6, 3, 1, 1);
        let (input, dwf, pwf) = problem(&shape, 4, 2);
        let pool = StaticPool::new(1);
        let base = run(&pool, &shape, &dwf, &pwf, &input);

        let plan =
            FusedDwPwPlan::try_new(&ndirect_platform::host(), &shape, &dwf, &pwf, pool.size())
                .unwrap();
        let mut out = Tensor4::zeros(1, 4, shape.p(), shape.q(), ActLayout::Nchw);
        for v in out.as_mut_slice() {
            *v = 1.0;
        }
        plan.execute(&pool, &input, &mut out).unwrap();
        for (g, b) in out.as_slice().iter().zip(base.as_slice()) {
            assert!((g - (b + 1.0)).abs() <= 1e-5 * (b.abs() + 1.0));
        }
    }

    #[test]
    fn rejects_bad_filters() {
        let shape = dw_shape(1, 8, 8, 3, 1, 1);
        let (_, dwf, _) = problem(&shape, 12, 1);
        // Pointwise C mismatch.
        let bad_pw = Filter::zeros(12, 7, 1, 1, FilterLayout::Kcrs);
        assert!(matches!(
            FusedDwPwPlan::try_new(&ndirect_platform::host(), &shape, &dwf, &bad_pw, 1),
            Err(Error::DimMismatch { .. })
        ));
        // Non-depthwise shape (K != C).
        let bad_shape = ConvShape::new(1, 8, 8, 8, 16, 3, 3, 1, Padding::same(1));
        let pw = Filter::zeros(12, 8, 1, 1, FilterLayout::Kcrs);
        assert!(matches!(
            FusedDwPwPlan::try_new(&ndirect_platform::host(), &bad_shape, &dwf, &pw, 1),
            Err(Error::NotDepthwise { .. })
        ));
    }
}
