//! The nDirect convolution driver — Algorithm 2's loop nest.
//!
//! Loop structure (paper numbering):
//!
//! ```text
//! parallel over the PTn × PTk thread grid:        (§6)
//!   L1  n  over this thread's images
//!   L2  ht over output-row tiles of Th            (LLC)
//!   L3  ct over channel tiles of Tc               (L1)
//!   L4  kt over this thread's K tiles of Tk       (L2)
//!         transform_filter(kt, ct block)          (line 5)
//!   L5  oh over rows of the tile
//!   L6  wv over output-column strips of Vw
//!   L7  kv over Vk groups of the K tile
//!         first kv: packing fused with compute    (line 8, §5.3)
//!         rest:     main micro-kernel on B        (line 10)
//! ```
//!
//! Work distribution: `PTk` threads split `K` at `Vk` granularity; `PTn`
//! threads split the flat `N·P` output-row space (which realizes the
//! paper's `N`-before-`H` parallelization priority, since rows are ordered
//! by `(n, oh)`). No reduction dimension is parallelized, so every output
//! element is written by exactly one thread and results are bitwise
//! identical for every grid — a property the integration tests assert.
//!
//! Faithfulness note: Algorithm 2's loop order places `ct`/`kt` *inside*
//! `n`/`ht`, so the on-the-fly filter transform re-runs per `(n, ht)` tile
//! and the input strip re-packs per `kt` tile — redundancies the paper
//! amortizes via tile sizing. This driver keeps the paper's order; callers
//! who want the transform paid exactly once use
//! [`crate::FilterState::PreTransformed`] (the ablation benches compare
//! both).
//!
//! `NHWC` runs the same nest: the layout only changes how a strip is
//! packed ([`crate::pack::pack_strip_nhwc`]) and where the tile scatters.
//! So does `NCDHW`, on the flattened problem ([`crate::Conv3dShape`]): only
//! its strip pack (`pack::pack_strip_ncdhw`) reads the volume.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ndirect_tensor::{AlignedBuf, ConvShape, Filter, Tensor4};
use ndirect_threads::{SharedSlice, StaticPool};

use crate::error::Error;
use crate::filter::TransformedFilter;
use crate::kernel::{run_tile, RowSource, TileArgs};
use crate::microkernel::Kernel;
use crate::pack::{pack_strip, pack_strip_ncdhw, pack_strip_nhwc, StripGeom};
use crate::plan::{validate_filter, ConvPlan, Layout};
use crate::schedule::{PackingMode, Schedule};

/// nDirect convolution with a model-derived schedule for the host machine.
///
/// The filter's layout names the activations': a `KCRS` filter takes and
/// returns `NCHW`, a `KRSC` filter `NHWC` (see [`ConvPlan::try_new`]). The
/// schedule is derived from [`ndirect_platform::host`] with the pool's
/// thread count. An unsupported host ISA, malformed shapes,
/// layout/dimension mismatches and pool faults come back as typed
/// [`Error`]s.
pub fn try_conv_ndirect(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    shape.validate()?;
    let schedule = Schedule::derive(&ndirect_platform::host(), shape, pool.size());
    try_conv_ndirect_with(pool, input, filter, shape, &schedule)
}

/// nDirect convolution with an explicit [`Schedule`], in the layout the
/// filter names (as [`try_conv_ndirect`]).
///
/// The schedule's grid may use fewer threads than the pool provides
/// (surplus threads idle); it must not require more
/// ([`Error::GridExceedsPool`]).
///
/// A thin wrapper: the filter is checked as a plan build checks it, then a
/// throwaway [`ConvPlan`] borrowing the filter runs once (its execute
/// checks the input, the output and the pool). Callers that run the same
/// layer repeatedly build the plan themselves and amortize the setup.
pub fn try_conv_ndirect_with(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
    schedule: &Schedule,
) -> Result<Tensor4, Error> {
    validate_filter(shape, filter)?;
    let plan = ConvPlan::try_borrowed(shape, filter, schedule, Layout::of(filter))?;
    // The plan checks the input's layout against the filter's first, so
    // an output in the input's layout is the one it writes.
    let mut out = Tensor4::output_for(shape, input.layout());
    plan.execute(pool, input, &mut out)?;
    Ok(out)
}

/// Per-thread driver scratch: the packing strip buffer and the on-the-fly
/// filter-transform block.
pub(crate) struct Scratch {
    pub(crate) bbuf: AlignedBuf,
    pub(crate) tfbuf: AlignedBuf,
}

/// Test-only fault injection: a global ceiling (in f32 elements, summed
/// over the whole per-grid scratch request) above which
/// [`try_alloc_scratch`] refuses to provision. Lets the degradation tests
/// force the minimal-schedule fallback on shapes that would otherwise
/// allocate fine, without depending on allocator behaviour. Follows the
/// `__test_kill_one_worker` / `force_unsupported` precedent.
static SCRATCH_ELEMENT_LIMIT: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Test-only: caps scratch provisioning at `limit` f32 elements per grid
/// request; pass `usize::MAX` to clear. Global — callers must serialize
/// against other convolutions in the process.
#[doc(hidden)]
pub fn __set_scratch_element_limit(limit: usize) {
    SCRATCH_ELEMENT_LIMIT.store(limit, Ordering::Relaxed); // ORDERING: Relaxed — test-only knob; callers serialize externally
}

/// `(n − 1)·stride + taps`: the input extent that `n` outputs of a
/// `taps`-wide kernel cover. `None` on overflow.
pub(crate) fn input_span(n: usize, stride: usize, taps: usize) -> Option<usize> {
    (n.max(1) - 1).checked_mul(stride)?.checked_add(taps)
}

/// `dims.product()`, `None` on overflow.
pub(crate) fn checked_product(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Whether a scratch request of `total` f32 elements is under the test
/// ceiling.
fn within_limit(total: usize) -> bool {
    total <= SCRATCH_ELEMENT_LIMIT.load(Ordering::Relaxed) // ORDERING: Relaxed — advisory cap read once per provisioning; independent of other state
}

/// Allocates one [`Scratch`] per grid thread for `sched`, with every size
/// product checked. `Err` carries the element count of the request that
/// failed (overflow or allocator refusal) so the caller can degrade.
// AUDIT: cold — scratch provisioning; runs on arena miss, never per tile.
pub(crate) fn try_alloc_scratch(
    sched: &Schedule,
    shape: &ConvShape,
    threads: usize,
) -> Result<Vec<Mutex<Scratch>>, usize> {
    // The input-side buffer holds one `Tc·R·win` strip.
    let lens = || {
        let bbuf_len = checked_product(&[
            sched.tc,
            shape.r,
            input_span(sched.vw, shape.stride, shape.s)?,
        ])?;
        let kv_blocks = sched.tk.div_ceil(sched.vk);
        let tfbuf_len = checked_product(&[kv_blocks, sched.tc, shape.r, shape.s, sched.vk])?;
        let total = bbuf_len.checked_add(tfbuf_len)?.checked_mul(threads)?;
        Some((bbuf_len, tfbuf_len, total))
    };
    let (bbuf_len, tfbuf_len, total) = lens().ok_or(usize::MAX)?;
    if !within_limit(total) {
        return Err(total);
    }
    (0..threads)
        .map(|_| {
            Ok(Mutex::new(Scratch {
                bbuf: AlignedBuf::try_zeroed(bbuf_len)?,
                tfbuf: AlignedBuf::try_zeroed(tfbuf_len)?,
            }))
        })
        .collect()
}

/// Provisions `count` zeroed scratch buffers of `len` floats each — one
/// per thread — for the drivers outside the plan layer. `len` arrives as
/// the caller's checked size arithmetic (`None`: it overflowed); the
/// [`__set_scratch_element_limit`] ceiling applies to the whole request,
/// and allocator refusal is a typed error.
// AUDIT: cold — scratch provisioning, once per call before the region.
pub(crate) fn try_scratch_bufs(
    len: Option<usize>,
    count: usize,
) -> Result<Vec<Mutex<AlignedBuf>>, Error> {
    let len = scratch_len(len, count)?;
    (0..count)
        .map(|_| AlignedBuf::try_zeroed(len).map(Mutex::new))
        .collect::<Result<_, _>>()
        .map_err(|elements| Error::ScratchAlloc { elements })
}

/// Admits a request for `count` buffers of `len` elements each: `len`
/// back, or [`Error::ScratchAlloc`] when the size arithmetic overflowed
/// (`None`), the total does, or the total is over the
/// [`__set_scratch_element_limit`] ceiling.
pub(crate) fn scratch_len(len: Option<usize>, count: usize) -> Result<usize, Error> {
    let (Some(len), Some(total)) = (len, len.and_then(|l| l.checked_mul(count))) else {
        return Err(Error::ScratchAlloc { elements: usize::MAX });
    };
    if !within_limit(total) {
        return Err(Error::ScratchAlloc { elements: total });
    }
    Ok(len)
}

/// A zeroed `Vec` of `len` elements (admitted by [`scratch_len`]) for the
/// drivers whose buffers are not `f32`; allocator refusal is
/// [`Error::ScratchAlloc`], not an abort.
// AUDIT: cold — scratch provisioning, once per call before the region.
pub(crate) fn try_zeroed_vec<T: Clone + Default>(len: usize) -> Result<Vec<T>, Error> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).map_err(|_| Error::ScratchAlloc { elements: len })?;
    v.resize(len, T::default());
    Ok(v)
}

/// Everything one `(oh, wv)` strip needs.
pub(crate) struct StripCtx<'a> {
    pub(crate) kernel: Kernel,
    /// The activation layout of `image` and of the output.
    pub(crate) layout: &'a Layout,
    pub(crate) image: &'a [f32],
    pub(crate) shape: &'a ConvShape,
    pub(crate) sched: &'a Schedule,
    pub(crate) pre_tf: Option<&'a TransformedFilter>,
    pub(crate) tfbuf: &'a [f32],
    pub(crate) tf_block_len: usize,
    pub(crate) n: usize,
    pub(crate) ct: usize,
    pub(crate) tcb: usize,
    pub(crate) kt: usize,
    pub(crate) kv_blocks: usize,
    pub(crate) k_hi: usize,
    pub(crate) oh: usize,
    pub(crate) wv: usize,
    pub(crate) valid_w: usize,
    pub(crate) geom: StripGeom,
    pub(crate) p: usize,
    pub(crate) q: usize,
}

/// Runs loop L7 for one output strip, building each `kv` iteration's
/// [`RowSource`] straight from the schedule's packing mode: the first
/// iteration fills `bbuf` (fused gather or a sequential pack) and the rest
/// read it back.
///
/// The activation layout is a packing and addressing detail: an `NHWC`
/// or `NCDHW` strip (always `Sequential`, see [`crate::ConvPlan`]) packs
/// into the same `[c][r][win]` buffer, and an `NHWC` tile's output strides
/// swap.
pub(crate) fn compute_strip(ctx: StripCtx<'_>, bbuf: &mut [f32], out_all: &SharedSlice<'_, f32>) {
    let shape = ctx.shape;
    let sched = ctx.sched;
    let (kstride, wstride) = match ctx.layout {
        Layout::Nchw | Layout::Ncdhw(_) => (ctx.p * ctx.q, 1),
        Layout::Nhwc => (1, shape.k),
    };
    // Accounting: the strip packs `tcb·R·WIN` floats once here (fused
    // gather and sequential packing move the same data) and issues 2 FLOPs
    // per MAC over `valid_w` output pixels × the K channels this tile
    // covers.
    if ndirect_probe::ENABLED {
        let covered_k = sched.tk.min(ctx.k_hi - ctx.kt) as u64;
        ndirect_probe::add(
            ndirect_probe::Counter::FlopsIssued,
            2 * ctx.valid_w as u64 * covered_k * ctx.tcb as u64 * shape.r as u64 * shape.s as u64,
        );
        let strip_bytes = (ctx.tcb * shape.r * ctx.geom.win * std::mem::size_of::<f32>()) as u64;
        ndirect_probe::add(ndirect_probe::Counter::BytesPacked, strip_bytes);
    }
    let StripGeom { win, ih0, iw0 } = ctx.geom;
    for kv in 0..ctx.kv_blocks {
        let k0 = ctx.kt + kv * sched.vk;
        let valid_k = sched.vk.min(ctx.k_hi - k0);
        let tf = match ctx.pre_tf {
            Some(full) => full.block(k0 / sched.vk, ctx.ct, ctx.tcb),
            None => &ctx.tfbuf[kv * ctx.tf_block_len..(kv + 1) * ctx.tf_block_len],
        };
        let args = TileArgs {
            tcb: ctx.tcb,
            rdim: shape.r,
            sdim: shape.s,
            stride: shape.stride,
            tf,
            vk: sched.vk,
            obase: ctx.n * shape.k * ctx.p * ctx.q
                + k0 * kstride
                + (ctx.oh * ctx.q + ctx.wv) * wstride,
            kstride,
            wstride,
            valid_w: ctx.valid_w,
            valid_k,
        };
        let mut rows = match (sched.packing, kv == 0) {
            // The gather runs inside the kernel loop, so fused packing
            // time is attributed to MicroKernel.
            (PackingMode::Fused, true) => RowSource::Gather {
                image: ctx.image,
                ct: ctx.ct,
                h: shape.h,
                w: shape.w,
                ih0,
                iw0,
                buf: &mut *bbuf,
                win,
                rdim: shape.r,
            },
            (PackingMode::Sequential, true) => {
                let _pack = ndirect_probe::probe_phase!(Pack);
                match ctx.layout {
                    Layout::Nchw => pack_strip(
                        ctx.image, ctx.ct, ctx.tcb, shape.r, shape.h, shape.w, ctx.geom, bbuf,
                    ),
                    Layout::Nhwc => {
                        pack_strip_nhwc(ctx.image, shape, ctx.ct, ctx.tcb, ctx.geom, bbuf)
                    }
                    Layout::Ncdhw(vol) => {
                        pack_strip_ncdhw(ctx.image, vol, ctx.ct, ctx.tcb, ctx.oh, ctx.geom, bbuf)
                    }
                }
                RowSource::Packed { buf: &*bbuf, win, rdim: shape.r }
            }
            (_, false) => RowSource::Packed { buf: &*bbuf, win, rdim: shape.r },
        };
        let _mk = ndirect_probe::probe_phase!(MicroKernel);
        run_tile(ctx.kernel, &mut rows, &args, out_all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FilterState;
    use ndirect_baselines::naive;
    use ndirect_tensor::{assert_close, fill, ActLayout, FilterLayout, Padding};
    use ndirect_threads::Grid2;

    fn problem(shape: &ConvShape, seed: u64) -> (Tensor4, Filter) {
        (
            fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), seed),
            fill::random_filter(Filter::for_shape(shape, FilterLayout::Kcrs), seed),
        )
    }

    fn check_with(shape: ConvShape, schedule: &Schedule, pool_size: usize, what: &str) {
        let (input, filter) = problem(&shape, 5);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(pool_size);
        let got = try_conv_ndirect_with(&pool, &input, &filter, &shape, schedule)
            .expect("valid problem");
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, what);
    }

    #[test]
    fn matches_naive_minimal_schedule() {
        let shape = ConvShape::new(1, 3, 8, 10, 5, 3, 3, 1, Padding::NONE);
        check_with(shape, &Schedule::minimal(&shape), 1, "minimal");
    }

    #[test]
    fn matches_naive_derived_schedule() {
        let shape = ConvShape::square(2, 16, 24, 14, 3, 1);
        let sched = Schedule::derive(&ndirect_platform::host(), &shape, 1);
        check_with(shape, &sched, 1, "derived");
    }

    #[test]
    fn matches_naive_with_padding_and_stride() {
        for (rs, stride) in [(3, 1), (3, 2), (1, 1), (1, 2), (5, 2), (7, 2)] {
            let shape = ConvShape::square(1, 5, 9, 19, rs, stride);
            check_with(shape, &Schedule::minimal(&shape), 1, "pad/stride");
        }
    }

    #[test]
    fn wide_register_tile_executes() {
        // The Eq. 4 optimum for 5x5 on NEON is (Vw, Vk) = (24, 4): stamped
        // with its tails on AArch64, the dynamic kernel elsewhere.
        let shape = ConvShape::square(1, 4, 8, 30, 5, 1);
        let mut sched = Schedule::minimal(&shape);
        sched.vw = 24;
        sched.vk = 4;
        check_with(shape, &sched, 1, "wide (24,4) tile");
    }

    #[test]
    fn matches_naive_odd_sizes() {
        // Dimensions chosen to exercise every tail: K=13 (vk tail), C=5
        // (tc tail), Q=17 (vw tail).
        let shape = ConvShape::new(2, 5, 9, 17, 13, 3, 3, 1, Padding::same(1));
        let mut sched = Schedule::minimal(&shape);
        sched.vw = 8;
        sched.vk = 4;
        sched.tc = 3;
        sched.tk = 8;
        sched.th = 2;
        check_with(shape, &sched, 1, "odd sizes");
    }

    #[test]
    fn sequential_packing_matches_fused() {
        let shape = ConvShape::square(1, 8, 16, 12, 3, 1);
        let (input, filter) = problem(&shape, 9);
        let pool = StaticPool::new(1);
        let fused = try_conv_ndirect_with(
            &pool, &input, &filter, &shape,
            &Schedule::minimal(&shape).with_packing(PackingMode::Fused),
        )
        .expect("valid problem");
        let seq = try_conv_ndirect_with(
            &pool, &input, &filter, &shape,
            &Schedule::minimal(&shape).with_packing(PackingMode::Sequential),
        )
        .expect("valid problem");
        assert_eq!(fused.as_slice(), seq.as_slice(), "packing modes agree bitwise");
    }

    #[test]
    fn zero_copy_modes_match_fused_bitwise() {
        // Every non-fused way of sourcing the strip rows (packing the whole
        // strip before the kernel) must be bitwise identical to gathering
        // it inside the first `kv` iteration, including stride 2, heavy
        // padding, a pointwise layer, and every tail kind.
        let shapes = [
            ConvShape::square(1, 8, 16, 12, 3, 1),
            ConvShape::new(2, 5, 9, 17, 13, 3, 3, 2, Padding::same(1)),
            ConvShape::square(1, 4, 16, 9, 1, 1),
            ConvShape::new(1, 4, 9, 9, 8, 5, 5, 1, Padding::same(2)),
        ];
        let pool = StaticPool::new(1);
        for (i, shape) in shapes.into_iter().enumerate() {
            let (input, filter) = problem(&shape, 21 + i as u64);
            let [fused, seq] = [PackingMode::Fused, PackingMode::Sequential].map(|mode| {
                let sched = Schedule::minimal(&shape).with_packing(mode);
                try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
                    .expect("valid problem")
            });
            assert_eq!(fused.as_slice(), seq.as_slice(), "shape {i}: packing modes agree bitwise");
        }
    }

    #[test]
    fn pretransformed_matches_on_the_fly() {
        let shape = ConvShape::square(1, 6, 20, 10, 3, 1);
        let (input, filter) = problem(&shape, 11);
        let pool = StaticPool::new(1);
        let otf = try_conv_ndirect_with(
            &pool, &input, &filter, &shape,
            &Schedule::minimal(&shape).with_filter_state(FilterState::OnTheFly),
        )
        .expect("valid problem");
        let pre = try_conv_ndirect_with(
            &pool, &input, &filter, &shape,
            &Schedule::minimal(&shape).with_filter_state(FilterState::PreTransformed),
        )
        .expect("valid problem");
        assert_eq!(otf.as_slice(), pre.as_slice(), "filter states agree bitwise");
    }

    #[test]
    fn thread_grids_agree_bitwise() {
        let shape = ConvShape::square(2, 8, 24, 10, 3, 1);
        let (input, filter) = problem(&shape, 13);
        let base = {
            let pool = StaticPool::new(1);
            try_conv_ndirect_with(&pool, &input, &filter, &shape, &Schedule::minimal(&shape))
                .expect("valid problem")
        };
        for (ptn, ptk) in [(1, 2), (2, 1), (2, 2), (4, 1), (1, 4), (3, 2)] {
            let pool = StaticPool::new(ptn * ptk);
            let sched = Schedule::minimal(&shape).with_grid(Grid2::new(ptn, ptk));
            let got = try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
                .expect("valid problem");
            assert_eq!(
                got.as_slice(),
                base.as_slice(),
                "grid {ptn}x{ptk} must be bitwise identical"
            );
        }
    }

    #[test]
    fn more_threads_than_work() {
        // 1 image, tiny P, K=4: most threads idle but result is right.
        let shape = ConvShape::new(1, 3, 4, 6, 4, 3, 3, 1, Padding::NONE);
        let sched = Schedule::minimal(&shape).with_grid(Grid2::new(4, 2));
        check_with(shape, &sched, 8, "idle threads");
    }

    #[test]
    fn default_entry_point_works() {
        let shape = ConvShape::square(1, 8, 8, 9, 3, 1);
        let (input, filter) = problem(&shape, 15);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(2);
        let got = try_conv_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "default entry");
    }

    #[test]
    fn nhwc_entry_point_matches() {
        let shape = ConvShape::square(2, 5, 7, 8, 3, 1);
        let (input, filter) = problem(&shape, 19);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(1);
        let got = try_conv_ndirect(
            &pool,
            &input.to_layout(ActLayout::Nhwc),
            &filter.to_layout(FilterLayout::Krsc),
            &shape,
        )
        .expect("valid problem");
        assert_eq!(got.layout(), ActLayout::Nhwc);
        assert_close(
            got.to_layout(ActLayout::Nchw).as_slice(),
            expect.as_slice(),
            2e-4,
            "nhwc entry",
        );
    }

    #[test]
    fn rejects_grid_larger_than_pool() {
        let shape = ConvShape::square(1, 4, 4, 6, 3, 1);
        let (input, filter) = problem(&shape, 1);
        let pool = StaticPool::new(1);
        let sched = Schedule::minimal(&shape).with_grid(Grid2::new(2, 2));
        let err = try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
            .expect_err("a 2x2 grid on a 1-thread pool");
        assert_eq!(err, Error::GridExceedsPool { needed: 4, available: 1 });
    }

    #[test]
    fn scratch_size_overflow_is_an_error_not_a_panic() {
        // An unsanitized schedule with an absurd tile must fail in the
        // checked size arithmetic, never in the allocator or a panic.
        let shape = ConvShape::square(1, 8, 8, 10, 3, 1);
        let mut sched = Schedule::minimal(&shape);
        sched.tc = usize::MAX / 2;
        assert!(try_alloc_scratch(&sched, &shape, 1).is_err());
    }

    #[test]
    fn extension_scratch_overflow_is_an_error_not_an_abort() {
        // The depthwise plan and the INT16 driver size their buffers
        // through these helpers: a size that overflows (in the dims or
        // across the per-thread copies) is a typed refusal, never a wrapped
        // length. (The forced-refusal run through the entry points needs
        // the process-global limit hook, so it lives under the hook lock in
        // tests/robustness.rs.)
        let overflow = Err(Error::ScratchAlloc { elements: usize::MAX });
        let bufs = |len, count| try_scratch_bufs(len, count).map(|v| v.len());
        assert_eq!(bufs(checked_product(&[usize::MAX / 2, 3]), 1), overflow);
        assert_eq!(bufs(Some(usize::MAX / 2), 4), overflow);
        assert_eq!(bufs(input_span(2, usize::MAX, 1), 1), overflow);
        assert_eq!(bufs(Some(15), 2), Ok(2));
    }

    #[test]
    fn scratch_refusal_degrades_to_the_minimal_schedule() {
        // A shape with an enormous channel count makes the derived scratch
        // request exceed the address space; the driver's fallback (minimal
        // tiles on the same grid) must still allocate for the same shape.
        let shape = ConvShape::new(1, 1 << 48, 8, 8, 4, 3, 3, 1, Padding::NONE);
        let mut sched = Schedule::minimal(&shape);
        sched.tc = shape.c; // survives sanitize: tc is clamped to C
        let sched = sched.sanitized(&shape);
        assert!(
            try_alloc_scratch(&sched, &shape, 1).is_err(),
            "petabyte scratch request must be refused"
        );

        // Mirror the driver's degradation path.
        let mut fallback = Schedule::minimal(&shape)
            .with_grid(sched.grid)
            .with_packing(sched.packing)
            .with_filter_state(sched.filter_state)
            .sanitized(&shape);
        fallback.vw = fallback.vw.min(sched.vw);
        assert!(
            try_alloc_scratch(&fallback, &shape, 1).is_ok(),
            "minimal fallback must allocate for the same shape"
        );
    }
}
