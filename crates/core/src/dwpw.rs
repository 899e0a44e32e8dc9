//! Fused depthwise+pointwise convolution — the MobileNet building block
//! without the memory round-trip.
//!
//! The separable block ([`crate::conv_depthwise_separable`]) materializes
//! the depthwise output as a full `(N, C, P, Q)` tensor before the 1×1
//! conv reads it back: `2·N·C·P·Q·4` bytes of pure intermediate traffic
//! that both depthwise papers (arXiv 2206.12124, 2001.02504) identify as
//! the dominant cost of MobileNet-class layers — the pair is memory-bound,
//! not FLOP-bound. This module fuses the two stages at row-slice
//! granularity instead:
//!
//! 1. the depthwise register tile ([`crate::depthwise`]) computes rows
//!    `[oh0, oh0+len)` of *all* `C` channels into a thread-private slab
//!    laid out `[C][row][Q]`, sized by the same half-of-L2 reservation
//!    (Eq. 2) that [`crate::model::slicing`] uses for input slabs
//!    ([`crate::model::slicing::fused_slab_rows`]);
//! 2. the pointwise micro-kernel (Algorithm 3 with `R = S = 1`, via
//!    [`crate::kernel::RowSource::Strided`]) consumes the slab immediately,
//!    while it is cache-hot, accumulating into the final `(N, K, P, Q)`
//!    output.
//!
//! The slab never leaves the core's L2, so each slice saves the write plus
//! the read of its `C·len·Q·4` bytes — booked exactly on the
//! `bytes_intermediate_saved` probe counter, which a test holds equal to
//! the closed-form prediction.
//!
//! Work items are `(image, row-slice)` pairs split statically over the
//! plan's thread count. The `C` reduction of the pointwise stage is never
//! split and the `K` range of an output row has a single writer, so —
//! like every other path in this crate — results are bitwise identical
//! for any thread count.

use std::sync::Mutex;

use ndirect_platform::Platform;
use ndirect_support::{Json, JsonError};
use ndirect_tensor::{ActLayout, AlignedBuf, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::{split_static, StaticPool};

use crate::depthwise::{depthwise_channel, padded_len};
use crate::error::{check, Error};
use crate::filter::TransformedFilter;
use crate::kernel::{run_tile, RowSource, TileArgs};
use crate::microkernel::Kernel;
use crate::model;
use crate::plan::{execute_frame, Arena, FilterRef, Operands};

/// The tunable parameters of the fused dw+pw path. Deliberately smaller
/// than [`crate::Schedule`]: the depthwise stage has no `K` reduction to
/// tile and the slab replaces the `Tc/Tk/Th` cache hierarchy with a single
/// slice length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwPwSchedule {
    /// Depthwise output rows computed into the slab per slice (clamped to
    /// `[1, P]` by [`DwPwSchedule::sanitized`]); the cache-residency knob.
    pub slice_rows: usize,
    /// Pointwise register-tile width (output pixels per micro-kernel call).
    pub vw: usize,
    /// Pointwise register-tile depth (output channels; a multiple of 4).
    pub vk: usize,
}

impl DwPwSchedule {
    /// Derives the model-optimal fused schedule: slice length from the
    /// half-L2 slab budget ([`model::slicing::fused_slab_rows`]), pointwise
    /// register tile from Eqs. 3–4 with `S = 1` (a declared
    /// [`crate::kernel::Body::Pointwise`] tile), through
    /// [`DwPwSchedule::sanitized`].
    pub fn derive(platform: &Platform, dw_shape: &ConvShape) -> DwPwSchedule {
        let (vw, vk) = model::register_tile::tile_for(platform, 1, 1);
        let slice_rows = model::slicing::fused_slab_rows(platform, dw_shape);
        DwPwSchedule { slice_rows, vw, vk }.sanitized(dw_shape)
    }

    /// A small, always-valid schedule for tests.
    pub fn minimal(dw_shape: &ConvShape) -> DwPwSchedule {
        DwPwSchedule {
            slice_rows: dw_shape.p().min(2),
            vw: 4,
            vk: 4,
        }
    }

    /// Clamps the schedule to a specific problem: `slice_rows ∈ [1, P]`,
    /// `vw ∈ [1, 12]`, `vk` a multiple of 4 in `[4, 12]`. Both tables'
    /// pointwise tiles lie inside; any other tile in range runs on the
    /// dynamic kernel ([`crate::kernel::TILES`]).
    pub fn sanitized(&self, dw_shape: &ConvShape) -> DwPwSchedule {
        DwPwSchedule {
            slice_rows: self.slice_rows.clamp(1, dw_shape.p()),
            vw: self.vw.clamp(1, 12),
            vk: (self.vk / 4).clamp(1, 3) * 4,
        }
    }

    /// Serializes in the same style as [`crate::Schedule::to_json`].
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("slice_rows".into(), Json::usize(self.slice_rows)),
            ("vw".into(), Json::usize(self.vw)),
            ("vk".into(), Json::usize(self.vk)),
        ])
    }

    /// Parses the [`DwPwSchedule::to_json`] form; malformed or degenerate
    /// fields are typed errors, never panics.
    pub fn from_json(v: &Json) -> Result<DwPwSchedule, JsonError> {
        let s = DwPwSchedule {
            slice_rows: v.usize_field("slice_rows")?,
            vw: v.usize_field("vw")?,
            vk: v.usize_field("vk")?,
        };
        if s.slice_rows == 0 || s.vw == 0 || s.vk == 0 {
            return Err(JsonError {
                msg: "dwpw schedule fields must be >= 1".into(),
                at: 0,
            });
        }
        Ok(s)
    }
}

/// Per-thread scratch of the fused plan: the cache-resident depthwise
/// output slab plus the depthwise stage's padded input rows.
struct FusedScratch {
    /// `C · slice_rows · Q` floats, laid out `[C][row][Q]`.
    slab: AlignedBuf,
    /// One channel's padded input rows for a slice ([`padded_len`]).
    rows: AlignedBuf,
}

/// A pre-built fused depthwise+pointwise block: depthwise `(C,1,R,S)`
/// followed by pointwise `(K,C,1,1)`, the intermediate never leaving
/// cache. Owns the transformed pointwise filter and per-thread slabs, so
/// repeated [`execute`](FusedDwPwPlan::execute) calls are allocation-free.
///
/// Like [`crate::ConvPlan`], `execute` *accumulates* into `out` (the
/// pointwise micro-kernel scatters with read-add-write), so callers zero
/// or seed the output; the one-shot wrappers ([`try_conv_dwpw_fused`])
/// allocate a zeroed tensor.
pub struct FusedDwPwPlan<'f> {
    dw_shape: ConvShape,
    k: usize,
    sched: DwPwSchedule,
    mid_relu: bool,
    dw_filter: FilterRef<'f>,
    pw: TransformedFilter,
    threads: usize,
    kernel: Kernel,
    arena: Arena<FusedScratch>,
}

impl<'f> FusedDwPwPlan<'f> {
    /// Builds a fused plan with the model-derived schedule
    /// ([`DwPwSchedule::derive`]) for `threads` worker threads, copying
    /// the depthwise filter so the plan is `'static`. `dw_shape` describes
    /// the depthwise stage (`K == C`); the pointwise filter's `K` defines
    /// the block's output channels.
    pub fn try_new(
        platform: &Platform,
        dw_shape: &ConvShape,
        dw_filter: &Filter,
        pw_filter: &Filter,
        threads: usize,
    ) -> Result<FusedDwPwPlan<'static>, Error> {
        let sched = DwPwSchedule::derive(platform, dw_shape);
        FusedDwPwPlan::try_with_schedule(dw_shape, dw_filter, pw_filter, &sched, threads)
    }

    /// Builds a fused plan with an explicit schedule (sanitized to the
    /// problem), copying the depthwise filter so the plan is `'static`.
    pub fn try_with_schedule(
        dw_shape: &ConvShape,
        dw_filter: &Filter,
        pw_filter: &Filter,
        sched: &DwPwSchedule,
        threads: usize,
    ) -> Result<FusedDwPwPlan<'static>, Error> {
        validate_filters(dw_shape, dw_filter, pw_filter)?;
        FusedDwPwPlan::build(
            dw_shape,
            FilterRef::Owned(dw_filter.clone()),
            pw_filter,
            sched,
            threads,
        )
    }

    /// The throwaway plan behind [`try_conv_dwpw_fused`]: borrows the
    /// depthwise filter, skips validation (the wrapper ran it).
    fn borrowed(
        dw_shape: &ConvShape,
        dw_filter: &'f Filter,
        pw_filter: &Filter,
        sched: &DwPwSchedule,
        threads: usize,
    ) -> Result<FusedDwPwPlan<'f>, Error> {
        FusedDwPwPlan::build(
            dw_shape,
            FilterRef::Borrowed(dw_filter),
            pw_filter,
            sched,
            threads,
        )
    }

    fn build(
        dw_shape: &ConvShape,
        dw_filter: FilterRef<'f>,
        pw_filter: &Filter,
        sched: &DwPwSchedule,
        threads: usize,
    ) -> Result<FusedDwPwPlan<'f>, Error> {
        let sched = sched.sanitized(dw_shape);
        let threads = threads.max(1);
        let pw = TransformedFilter::try_new(pw_filter, sched.vk)
            .map_err(|elements| Error::ScratchAlloc { elements })?;
        let first = Self::alloc_set(dw_shape, &sched, threads)?;
        Ok(FusedDwPwPlan {
            dw_shape: *dw_shape,
            k: pw_filter.dims().0,
            sched,
            mid_relu: false,
            dw_filter,
            pw,
            threads,
            kernel: Kernel::best(),
            arena: Arena::new(first),
        })
    }

    /// Enables a ReLU on the depthwise intermediate (applied in-slab,
    /// before the pointwise stage) — MobileNet places one between the two
    /// convolutions. Off by default so the plan matches the plain
    /// dw→pw composition.
    pub fn with_mid_relu(mut self, mid_relu: bool) -> Self {
        self.mid_relu = mid_relu;
        self
    }

    // AUDIT: cold — scratch provisioning; runs on arena miss, never per tile.
    fn alloc_set(
        dw_shape: &ConvShape,
        sched: &DwPwSchedule,
        threads: usize,
    ) -> Result<Vec<Mutex<FusedScratch>>, Error> {
        let slab_len = crate::conv::scratch_len(
            crate::conv::checked_product(&[dw_shape.c, sched.slice_rows, dw_shape.q()]),
            threads,
        )?;
        let rows_len = crate::conv::scratch_len(padded_len(dw_shape, sched.slice_rows), threads)?;
        (0..threads)
            .map(|_| {
                let slab = AlignedBuf::try_zeroed(slab_len)
                    .map_err(|elements| Error::ScratchAlloc { elements })?;
                let rows = AlignedBuf::try_zeroed(rows_len)
                    .map_err(|elements| Error::ScratchAlloc { elements })?;
                Ok(Mutex::new(FusedScratch { slab, rows }))
            })
            .collect()
    }

    /// The depthwise-stage shape the plan was built for (`K == C`).
    pub fn dw_shape(&self) -> &ConvShape {
        &self.dw_shape
    }

    /// The block's output channel count (the pointwise filter's `K`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sanitized schedule the plan runs.
    pub fn schedule(&self) -> &DwPwSchedule {
        &self.sched
    }

    /// The worker-thread count the plan splits work over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the depthwise intermediate gets an in-slab ReLU.
    pub fn mid_relu(&self) -> bool {
        self.mid_relu
    }

    /// The tile-kernel encoding both stages run (see
    /// [`crate::ConvPlan::kernel_name`]).
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The plan running `kernel` instead of the detected best entry.
    #[doc(hidden)]
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        FusedDwPwPlan { kernel, ..self }
    }

    /// Bytes one thread's slab occupies — held within the half-L2 budget
    /// by [`DwPwSchedule::derive`] (an explicit schedule may exceed it).
    pub fn slab_bytes(&self) -> usize {
        model::slicing::fused_slab_bytes(&self.dw_shape, self.sched.slice_rows)
    }

    /// The closed-form intermediate traffic the fusion avoids: the write
    /// plus the read of the `(N, C, P, Q)` depthwise tensor the unfused
    /// composition materializes, `2·N·C·P·Q·4` bytes. The
    /// `bytes_intermediate_saved` probe counter measures exactly this.
    pub fn predicted_intermediate_saved_bytes(&self) -> u128 {
        let s = &self.dw_shape;
        2 * (s.n as u128) * (s.c as u128) * (s.p() as u128) * (s.q() as u128) * 4
    }

    /// Runs the fused block, *accumulating* into `out` (`(N, K, P, Q)`
    /// `NCHW`). The pool must provide at least the plan's thread count.
    // AUDIT: hotpath
    pub fn execute(
        &self,
        pool: &StaticPool,
        input: &Tensor4,
        out: &mut Tensor4,
    ) -> Result<(), Error> {
        let shape = &self.dw_shape;
        let (c, k) = (shape.c, self.k);
        let (p, q) = (shape.p(), shape.q());
        let operands = Operands {
            layout: ActLayout::Nchw,
            contexts: ("fused dw+pw takes NCHW", "fused dw+pw writes NCHW"),
            in_dims: (shape.n, shape.c, shape.h, shape.w),
            out_dims: (shape.n, k, p, q),
        };
        let sched = &self.sched;
        let taps = self.dw_filter.get().as_slice(); // (C,1,R,S): channel-major
        let (rs, plane_in) = (shape.r * shape.s, shape.h * shape.w);
        let slices = p.div_ceil(sched.slice_rows);
        let threads = self.threads;
        let in_data = input.as_slice();
        let image_len = shape.c * plane_in;
        let kv_blocks = self.pw.kv_blocks();
        let mid_relu = self.mid_relu;
        // Disjointness: each (image, row-slice) item owns output rows
        // [oh0, oh0+len) of *all* K channels of its image — the K and C
        // dimensions are never split, so every output element has a single
        // writer and the result is bitwise identical for any thread count.
        execute_frame(
            operands,
            threads,
            &self.arena,
            || Self::alloc_set(shape, sched, threads),
            pool,
            input,
            out,
            |tid, scratch, out_all| {
                for item in split_static(shape.n * slices, threads, tid) {
                    let n_idx = item / slices;
                    let oh0 = (item % slices) * sched.slice_rows;
                    let len = sched.slice_rows.min(p - oh0);
                    let image = &in_data[n_idx * image_len..(n_idx + 1) * image_len];

                    // Stage 1: depthwise rows [oh0, oh0+len) of every
                    // channel into the thread-private slab ([C][row][Q]).
                    let slab = &mut scratch.slab[..c * len * q];
                    for (ch, rows) in slab.chunks_exact_mut(len * q).enumerate() {
                        depthwise_channel(
                            self.kernel,
                            &image[ch * plane_in..][..plane_in],
                            &taps[ch * rs..][..rs],
                            shape,
                            oh0..oh0 + len,
                            &mut scratch.rows,
                            rows,
                        );
                    }
                    if mid_relu {
                        for v in slab.iter_mut() {
                            *v = v.max(0.0);
                        }
                    }

                    // Accounting: the unfused composition writes this slice
                    // to the intermediate tensor and reads it back —
                    // 2·C·len·Q·4 bytes that never touch memory here. Summed
                    // over all slices this is exactly 2·N·C·P·Q·4 (the
                    // closed form in `predicted_intermediate_saved_bytes`).
                    // The FLOP count is the dw MACs plus the pw MACs of the
                    // slice, ×2.
                    if ndirect_probe::ENABLED {
                        let slice_elems = (c * len * q) as u64;
                        ndirect_probe::add(
                            ndirect_probe::Counter::BytesIntermediateSaved,
                            2 * slice_elems * 4,
                        );
                        ndirect_probe::add(
                            ndirect_probe::Counter::FlopsIssued,
                            2 * slice_elems * (shape.r * shape.s) as u64
                                + 2 * (k * len * q) as u64 * c as u64,
                        );
                    }

                    // Stage 2: pointwise over the cache-hot slab,
                    // accumulating into the final output.
                    let slab = &*slab;
                    for oh in 0..len {
                        let mut wv = 0;
                        while wv < q {
                            let valid_w = sched.vw.min(q - wv);
                            for kv in 0..kv_blocks {
                                let k0 = kv * sched.vk;
                                let mut src = RowSource::Strided {
                                    buf: slab,
                                    rows_per_c: len,
                                    row_stride: q,
                                    row_off: oh,
                                    col_off: wv,
                                    win: valid_w,
                                };
                                let args = TileArgs {
                                    tcb: c,
                                    rdim: 1,
                                    sdim: 1,
                                    stride: 1,
                                    tf: self.pw.block(kv, 0, c),
                                    vk: sched.vk,
                                    obase: ((n_idx * k + k0) * p + oh0 + oh) * q + wv,
                                    kstride: p * q,
                                    wstride: 1,
                                    valid_w,
                                    valid_k: sched.vk.min(k - k0),
                                };
                                run_tile(self.kernel, &mut src, &args, out_all);
                            }
                            wv += valid_w;
                        }
                    }
                }
            },
        )
    }
}

/// Build-time filter checks shared by the plan constructors and the
/// one-shot wrappers.
fn validate_filters(
    dw_shape: &ConvShape,
    dw_filter: &Filter,
    pw_filter: &Filter,
) -> Result<(), Error> {
    check::isa()?;
    dw_shape.validate()?;
    check::depthwise_shape(dw_shape)?;
    check::depthwise_filter(
        dw_shape,
        dw_filter,
        "depthwise filter dims",
        "fused dw+pw takes KCRS",
    )?;
    let (k, c2, r1, s1) = pw_filter.dims();
    if (c2, r1, s1) != (dw_shape.c, 1, 1) {
        return Err(Error::DimMismatch {
            what: "pointwise filter dims",
            expected: (k, dw_shape.c, 1, 1),
            got: pw_filter.dims(),
        });
    }
    check::filter_layout(pw_filter, FilterLayout::Kcrs, "fused dw+pw takes KCRS")?;
    Ok(())
}

/// The closed-form FLOP count of one fused dw+pw block:
/// `2·N·C·P·Q·R·S` (depthwise) + `2·N·K·P·Q·C` (pointwise). Matches what
/// the plan books on `flops_issued` and what
/// [`Model::conv_flops`](../../ndirect_models) counts for the pair.
pub fn fused_pair_flops(dw_shape: &ConvShape, k: usize) -> u64 {
    let s = dw_shape;
    let plane = (s.n * s.p() * s.q()) as u64;
    2 * plane * (s.c * s.r * s.s) as u64 + 2 * plane * (k * s.c) as u64
}

/// The `(depthwise, pointwise)` shape pair a fused block runs, exactly as
/// the unfused composition ([`crate::try_conv_depthwise_separable`])
/// builds them: the dw stage maps `(C, H, W)` to `(C, P, Q)` and the pw
/// stage is `1×1` stride-1 unpadded on the dw output. Errors mirror the
/// plain constructors' (the checked-vs-plain "lens" the property suite
/// scans).
pub fn try_compose_shapes(
    shape: &ConvShape,
    k: usize,
) -> Result<(ConvShape, ConvShape), Error> {
    let dw_shape = ConvShape::try_new(
        shape.n, shape.c, shape.h, shape.w, shape.c, shape.r, shape.s, shape.stride, shape.pad,
    )?;
    let pw_shape = ConvShape::try_new(
        shape.n,
        shape.c,
        dw_shape.p(),
        dw_shape.q(),
        k,
        1,
        1,
        1,
        ndirect_tensor::Padding::NONE,
    )?;
    Ok((dw_shape, pw_shape))
}

/// Fused depthwise-separable block: depthwise `R×S` immediately consumed
/// by pointwise `1×1`, the intermediate staying in cache. Same signature
/// and result (within FP reassociation ULPs — the depthwise math is
/// bitwise identical, the pointwise reduction order matches the packed
/// 1×1 path) as [`crate::conv_depthwise_separable`]. Panics on invalid
/// inputs; see [`try_conv_dwpw_fused`].
pub fn conv_dwpw_fused(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    shape: &ConvShape,
) -> Tensor4 {
    try_conv_dwpw_fused(pool, input, dw_filter, pw_filter, shape)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_dwpw_fused`].
pub fn try_conv_dwpw_fused(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, Error> {
    try_conv_dwpw_fused_with(pool, input, dw_filter, pw_filter, shape, false)
}

/// [`try_conv_dwpw_fused`] with an optional ReLU on the depthwise
/// intermediate (`mid_relu`) — the MobileNet block's activation placement.
pub fn try_conv_dwpw_fused_with(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    shape: &ConvShape,
    mid_relu: bool,
) -> Result<Tensor4, Error> {
    let dw_shape = ConvShape::try_new(
        shape.n, shape.c, shape.h, shape.w, shape.c, shape.r, shape.s, shape.stride, shape.pad,
    )?;
    validate_filters(&dw_shape, dw_filter, pw_filter)?;
    let sched = DwPwSchedule::derive(&ndirect_platform::host(), &dw_shape);
    let plan = FusedDwPwPlan::borrowed(&dw_shape, dw_filter, pw_filter, &sched, pool.size())?
        .with_mid_relu(mid_relu);
    let k = pw_filter.dims().0;
    let mut out = Tensor4::zeros(shape.n, k, dw_shape.p(), dw_shape.q(), ActLayout::Nchw);
    plan.execute(pool, input, &mut out)?;
    Ok(out)
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
            fill::random_filter(Filter::zeros(k, shape.c, 1, 1, FilterLayout::Kcrs), seed + 1),
        )
    }

    fn assert_near(got: &[f32], want: &[f32], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = w.abs().max(1.0);
            assert!(
                (g - w).abs() <= tol * scale,
                "{what}: [{i}] got {g}, want {w}"
            );
        }
    }

    #[test]
    fn matches_unfused_composition() {
        for (c, k, hw, stride, pad) in
            [(8, 12, 10, 1, 1), (6, 9, 11, 2, 1), (4, 16, 7, 1, 0), (12, 8, 9, 2, 0)]
        {
            let shape = dw_shape(1, c, hw, 3, stride, pad);
            let (input, dwf, pwf) = problem(&shape, k, 7);
            let pool = StaticPool::new(2);
            let got = conv_dwpw_fused(&pool, &input, &dwf, &pwf, &shape);
            let want =
                crate::conv_depthwise_separable(&pool, &input, &dwf, &pwf, &shape);
            assert_eq!(got.dims(), want.dims());
            assert_near(got.as_slice(), want.as_slice(), 1e-5, "fused vs unfused");
        }
    }

    #[test]
    fn multithreaded_is_bitwise_identical() {
        let shape = dw_shape(2, 10, 13, 3, 1, 1);
        let (input, dwf, pwf) = problem(&shape, 20, 9);
        let a = conv_dwpw_fused(&StaticPool::new(1), &input, &dwf, &pwf, &shape);
        let b = conv_dwpw_fused(&StaticPool::new(4), &input, &dwf, &pwf, &shape);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn slice_lengths_are_bitwise_identical() {
        // The slice length only changes *when* rows are computed, never
        // the per-row arithmetic, so every slicing agrees bitwise.
        let shape = dw_shape(1, 6, 9, 3, 1, 1);
        let (input, dwf, pwf) = problem(&shape, 10, 3);
        let pool = StaticPool::new(2);
        let mut reference: Option<Tensor4> = None;
        for rows in [1, 2, 3, shape.p()] {
            let sched = DwPwSchedule {
                slice_rows: rows,
                vw: 8,
                vk: 8,
            };
            let plan =
                FusedDwPwPlan::try_with_schedule(&shape, &dwf, &pwf, &sched, pool.size())
                    .unwrap();
            let mut out = Tensor4::zeros(1, 10, shape.p(), shape.q(), ActLayout::Nchw);
            plan.execute(&pool, &input, &mut out).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(out.as_slice(), r.as_slice(), "rows={rows}"),
            }
        }
    }

    #[test]
    fn mid_relu_matches_manual_composition() {
        let shape = dw_shape(1, 8, 8, 3, 1, 1);
        let (input, dwf, pwf) = problem(&shape, 12, 5);
        let pool = StaticPool::new(1);
        let got =
            try_conv_dwpw_fused_with(&pool, &input, &dwf, &pwf, &shape, true).unwrap();

        // Manual composition: dw, relu, then pw.
        let mut mid = crate::conv_depthwise(&pool, &input, &dwf, &shape);
        for v in mid.as_mut_slice() {
            *v = v.max(0.0);
        }
        let pw_shape =
            ConvShape::new(1, 8, shape.p(), shape.q(), 12, 1, 1, 1, Padding::NONE);
        let want = crate::conv_ndirect(&pool, &mid, &pwf, &pw_shape);
        assert_near(got.as_slice(), want.as_slice(), 1e-5, "mid relu");
    }

    #[test]
    fn execute_accumulates_into_seeded_output() {
        let shape = dw_shape(1, 4, 6, 3, 1, 1);
        let (input, dwf, pwf) = problem(&shape, 4, 2);
        let pool = StaticPool::new(1);
        let base = conv_dwpw_fused(&pool, &input, &dwf, &pwf, &shape);

        let plan = FusedDwPwPlan::try_new(
            &ndirect_platform::host(),
            &shape,
            &dwf,
            &pwf,
            pool.size(),
        )
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
    fn schedule_json_round_trips() {
        let s = DwPwSchedule {
            slice_rows: 7,
            vw: 12,
            vk: 8,
        };
        let j = s.to_json();
        let parsed = DwPwSchedule::from_json(&j).unwrap();
        assert_eq!(parsed, s);
        // Degenerate fields are typed errors.
        let bad = DwPwSchedule {
            slice_rows: 0,
            vw: 4,
            vk: 4,
        };
        assert!(DwPwSchedule::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn sanitized_clamps_to_kernel_range() {
        let shape = dw_shape(1, 4, 8, 3, 1, 1);
        let s = DwPwSchedule {
            slice_rows: 1000,
            vw: 64,
            vk: 64,
        }
        .sanitized(&shape);
        assert_eq!(s.slice_rows, shape.p());
        assert_eq!(s.vw, 12);
        assert_eq!(s.vk, 12);
        let t = DwPwSchedule {
            slice_rows: 0,
            vw: 0,
            vk: 1,
        }
        .sanitized(&shape);
        assert_eq!((t.slice_rows, t.vw, t.vk), (1, 1, 4));
    }

    #[test]
    fn derived_slab_fits_half_l2() {
        let p = ndirect_platform::kp920();
        let shape = dw_shape(1, 128, 56, 3, 1, 1);
        let sched = DwPwSchedule::derive(&p, &shape);
        assert!(
            model::slicing::fused_slab_bytes(&shape, sched.slice_rows)
                <= p.cache.l2_per_core() / 2
        );
    }

    #[test]
    fn accounting_prediction_is_closed_form() {
        let shape = dw_shape(3, 16, 14, 3, 2, 1);
        let (_, dwf, pwf) = problem(&shape, 32, 1);
        let plan =
            FusedDwPwPlan::try_new(&ndirect_platform::host(), &shape, &dwf, &pwf, 1).unwrap();
        let (p, q) = (shape.p(), shape.q());
        assert_eq!(
            plan.predicted_intermediate_saved_bytes(),
            2 * 3 * 16 * (p as u128) * (q as u128) * 4
        );
        assert_eq!(
            fused_pair_flops(&shape, 32),
            (2 * 3 * 16 * p * q * 9 + 2 * 3 * 32 * p * q * 16) as u64
        );
    }

    #[test]
    fn rejects_bad_filters() {
        let shape = dw_shape(1, 8, 8, 3, 1, 1);
        let (_, dwf, _) = problem(&shape, 12, 1);
        // Pointwise C mismatch.
        let bad_pw = Filter::zeros(12, 7, 1, 1, FilterLayout::Kcrs);
        assert!(matches!(
            FusedDwPwPlan::try_new(
                &ndirect_platform::host(),
                &shape,
                &dwf,
                &bad_pw,
                1
            ),
            Err(Error::DimMismatch { .. })
        ));
        // Non-depthwise shape (K != C).
        let bad_shape = ConvShape::new(1, 8, 8, 8, 16, 3, 3, 1, Padding::same(1));
        let pw = Filter::zeros(12, 8, 1, 1, FilterLayout::Kcrs);
        assert!(matches!(
            FusedDwPwPlan::try_new(
                &ndirect_platform::host(),
                &bad_shape,
                &dwf,
                &pw,
                1
            ),
            Err(Error::NotDepthwise { .. })
        ));
    }
}
