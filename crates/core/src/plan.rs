//! The plan/executor layer: amortize setup across repeated executions.
//!
//! Every `conv_ndirect*` entry point pays three per-call costs that are
//! invariant for a fixed `(shape, schedule, filter)` triple: schedule
//! sanitization + validation, the filter layout transform (when
//! [`FilterState::PreTransformed`]), and the per-thread scratch
//! allocation (packing strip + filter-transform block). Inference
//! frameworks call the *same* layer thousands of times, so — like cuDNN's
//! `ConvolutionDescriptor`/plan split — this module hoists all of it into
//! a build-once [`ConvPlan`]:
//!
//! * **build** ([`ConvPlan::try_new`] and friends) validates, sanitizes,
//!   packs the filter once, and pre-allocates one scratch *set* (one
//!   buffer pair per grid thread), degrading to the minimal-tile schedule
//!   exactly like the one-shot drivers when the requested tiles cannot be
//!   allocated;
//! * **execute** ([`ConvPlan::execute`]) is the hot path: O(1) layout and
//!   dimension checks (kept in release builds because the kernels write
//!   through [`SharedSlice`]'s unchecked accessors), a lock-free-in-spirit
//!   scratch lease (a `Mutex`-guarded pop from a pre-sized pool), and the
//!   same loop nest the one-shot drivers run — no heap allocation, no
//!   re-validation, bitwise-identical results.
//!
//! Plans are `Send + Sync`: one plan can be shared across threads, each
//! executing on its own input/output pair. Concurrent executes beyond the
//! number of reserved scratch sets fall back to allocating a set on the
//! spot (correct, just not allocation-free); call
//! [`ConvPlan::reserve_scratch`] to size the pool for the expected
//! concurrency.
//!
//! The one-shot entry points ([`crate::try_conv_ndirect_with`],
//! [`crate::try_conv_depthwise`]) are thin wrappers that build a
//! throwaway borrowing plan and execute it once, so there is a single
//! implementation of each loop nest.
//!
//! ## `NCHW` and `NHWC`
//!
//! The paper claims nDirect "preserves the conventional `NCHW` and `NHWC`
//! data layouts": only the filter and the per-strip packed buffer `B` are
//! re-laid-out, and the micro-kernel never sees the activation layout. So
//! the layout belongs to the operands: a `KCRS` filter makes an `NCHW`
//! plan, a `KRSC` filter (the pairing XNNPACK-era frameworks use) an
//! `NHWC` one, and an input in the other layout is an [`Error::Layout`] at
//! execute. A [`ConvPlan`] runs one loop nest for both: it holds one
//! [`TransformedFilter`] form plus its [`ActLayout`], and `NHWC` is a
//! packing and addressing detail of that nest and its tile kernels:
//!
//! * the `KRSC` filter goes through the same [`crate::transform_filter_block`]
//!   / [`TransformedFilter`] as `KCRS` (both read through [`Filter::at`]);
//! * each strip is packed by [`crate::pack::pack_strip_nhwc`] into the same
//!   `[c][r][win]` buffer as an `NCHW` strip, in one pass before the kernel
//!   (the plan runs [`PackingMode::Sequential`] whatever it is given);
//! * the tile scatters with `(kstride, wstride) = (1, K)` instead of
//!   `(P·Q, 1)`.
//!
//! So the outputs sum in the `NCHW` `(c, r, s)` order and are bitwise equal
//! to the `NCHW` plan's on the same schedule, transposed.
//!
//! ## `NCDHW`
//!
//! 3-D convolution runs the same nest on the flattened problem
//! (`Conv3dShape::flat`, §10.2): a `KCTRS` filter is a `KCRS` one with
//! `T·R` rows, and an `NCDHW` output an `NCHW` one with `OD·P` rows, so the
//! transform, the tile scatter, the row walk and the thread partition are
//! the 2-D ones. Only the strip pack (`pack::pack_strip_ncdhw`,
//! again one pass under `Sequential`) and the image length read the volume.

use std::sync::Mutex;

use ndirect_platform::Platform;
use ndirect_tensor::{ActLayout, AlignedBuf, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::{split_static, SharedSlice, StaticPool};

use crate::conv::{compute_strip, try_alloc_scratch, Scratch, StripCtx};
use crate::conv3d::Conv3dShape;
use crate::error::{check, Error};
use crate::filter::{transform_filter_block, TransformedFilter};
use crate::microkernel::Kernel;
use crate::pack::StripGeom;
use crate::schedule::{image_rows, FilterState, PackingMode, Schedule};

/// How many idle scratch sets a plan keeps for reuse. Leases beyond this
/// (that many *concurrent* executes of one plan) allocate on the spot and
/// the surplus set is dropped on release.
const CACHED_SETS_MAX: usize = 8;

/// A filter the plan either borrows (the one-shot wrappers, zero-copy) or
/// owns (plans that outlive the caller's borrow). Shared with the fused
/// dw+pw plan in [`crate::dwpw`].
pub(crate) enum FilterRef<'f> {
    Borrowed(&'f Filter),
    Owned(Filter),
}

impl FilterRef<'_> {
    pub(crate) fn get(&self) -> &Filter {
        match self {
            FilterRef::Borrowed(f) => f,
            FilterRef::Owned(f) => f,
        }
    }
}

/// A plan's filter in one of its two states: raw (transformed on the fly
/// per cache block, the paper's default) or packed once at build time
/// into the form `P` its loop nest reads.
enum FilterForm<'f, P> {
    Raw(FilterRef<'f>),
    Packed(P),
}

impl<P> FilterForm<'_, P> {
    /// `(packed, raw)`: exactly one side is `Some`.
    fn split(&self) -> (Option<&P>, Option<&Filter>) {
        match self {
            FilterForm::Raw(f) => (None, Some(f.get())),
            FilterForm::Packed(p) => (Some(p), None),
        }
    }
}

/// A small pool of pre-allocated per-thread scratch sets (one `Mutex<S>`
/// slot per worker thread). `take`/`put` never allocate: the backing `Vec`
/// is created with [`CACHED_SETS_MAX`] capacity and `put` drops surplus
/// sets instead of growing it.
pub(crate) struct Arena<S> {
    sets: Mutex<Vec<Vec<Mutex<S>>>>,
}

impl<S> Arena<S> {
    pub(crate) fn new(first: Vec<Mutex<S>>) -> Self {
        let mut v = Vec::with_capacity(CACHED_SETS_MAX);
        v.push(first);
        Arena {
            sets: Mutex::new(v),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<Mutex<S>>>> {
        self.sets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn take(&self) -> Option<Vec<Mutex<S>>> {
        self.lock().pop()
    }

    fn put(&self, s: Vec<Mutex<S>>) {
        let mut g = self.lock();
        if g.len() < CACHED_SETS_MAX {
            // AUDIT: allow(hotpath-no-alloc) bounded arena return — at most
            // CACHED_SETS_MAX cached sets; amortizes to zero steady-state.
            g.push(s);
        }
    }

    fn idle(&self) -> usize {
        self.lock().len()
    }
}

/// What a plan's `execute` holds its operands to: one activation layout
/// for input and output (with the [`Error::Layout`] context of each) and
/// the dimensions the planned shape implies.
pub(crate) struct Operands {
    pub(crate) layout: ActLayout,
    pub(crate) contexts: (&'static str, &'static str),
    pub(crate) in_dims: (usize, usize, usize, usize),
    pub(crate) out_dims: (usize, usize, usize, usize),
}

impl Operands {
    /// The O(1) layout and dimension checks every plan's `execute` starts
    /// with, kept in release builds because the kernels write through
    /// [`SharedSlice`]'s unchecked accessors.
    pub(crate) fn check(&self, input: &Tensor4, out: &Tensor4) -> Result<(), Error> {
        check::act_layout(input, self.layout, self.contexts.0)?;
        check::dims("input dims", self.in_dims, input.dims())?;
        check::dims("output dims", self.out_dims, out.dims())?;
        check::act_layout(out, self.layout, self.contexts.1)
    }
}

/// The frame every plan's `execute` runs in, after its [`Operands::check`]:
/// the pool check, a scratch-set lease from `arena` (`alloc` only on a
/// miss: more concurrent executes than pooled sets), the parallel region
/// with each worker's scratch slot locked, and the put-back.
/// `body(tid, scratch, out)` runs on `threads` workers; it must give every
/// output element a single writer, and the pool barrier orders all writes
/// before this returns.
pub(crate) fn execute_frame<S: Send>(
    threads: usize,
    arena: &Arena<S>,
    alloc: impl FnOnce() -> Result<Vec<Mutex<S>>, Error>,
    pool: &StaticPool,
    out: &mut [f32],
    body: impl Fn(usize, &mut S, &SharedSlice<'_, f32>) + Sync,
) -> Result<(), Error> {
    if threads > pool.size() {
        return Err(Error::GridExceedsPool {
            needed: threads,
            available: pool.size(),
        });
    }
    let set = match arena.take() {
        Some(s) => {
            ndirect_probe::probe_count!(ScratchPoolHits, 1);
            s
        }
        None => {
            ndirect_probe::probe_count!(ScratchPoolMisses, 1);
            alloc()?
        }
    };
    let out_shared = SharedSlice::new(out);
    let result = pool.try_run(|tid| {
        if tid >= threads {
            return;
        }
        // The lock is uncontended: one thread per slot, once per region.
        // INDEX: tid < threads == set.len() — every `alloc` sizes to it.
        let mut scratch = set[tid]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        body(tid, &mut scratch, &out_shared);
    });
    arena.put(set);
    result.map_err(Error::from)
}

/// Where a [`ConvPlan`]'s activations sit: what packs a strip, how long an
/// image is, and where the tile scatters.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `NCHW`, named by a `KCRS` filter.
    Nchw,
    /// `NHWC`, named by a `KRSC` filter.
    Nhwc,
    /// `NCDHW`, planned by [`crate::try_conv3d_ndirect`] on the flattened
    /// shape, which it is `NCHW` to but for the strip pack and the image
    /// length.
    Ncdhw(Conv3dShape),
}

impl Layout {
    /// The layout a 2-D filter names: `KCRS` → `NCHW`, `KRSC` → `NHWC`.
    pub(crate) fn of(filter: &Filter) -> Layout {
        match filter.layout() {
            FilterLayout::Kcrs => Layout::Nchw,
            FilterLayout::Krsc => Layout::Nhwc,
        }
    }
}

/// A pre-built nDirect convolution: sanitized [`Schedule`], transformed
/// filter, and reusable per-thread scratch, ready to [`execute`] against
/// any number of input/output pairs of the planned [`ConvShape`].
///
/// See the [module docs](crate::plan) for the build/execute contract.
///
/// [`execute`]: ConvPlan::execute
pub struct ConvPlan<'f> {
    shape: ConvShape,
    sched: Schedule,
    degraded: bool,
    kernel: Kernel,
    layout: Layout,
    filter: FilterForm<'f, TransformedFilter>,
    arena: Arena<Scratch>,
}

impl<'f> ConvPlan<'f> {
    /// Builds a plan with the model-derived schedule for `platform` and
    /// `threads` threads, forcing [`FilterState::PreTransformed`] so the
    /// filter is packed exactly once (the point of planning). The filter is
    /// copied into the plan, so the plan is `'static` and can outlive the
    /// caller's borrow.
    ///
    /// The filter's layout names the activations': a `KCRS` filter plans
    /// `NCHW` input and output, a `KRSC` filter `NHWC`; an input in the
    /// other layout is an [`Error::Layout`] at [`execute`](ConvPlan::execute).
    pub fn try_new(
        platform: &Platform,
        shape: &ConvShape,
        filter: &Filter,
        threads: usize,
    ) -> Result<ConvPlan<'static>, Error> {
        validate_filter(shape, filter)?;
        let sched = Schedule::derive(platform, shape, threads)
            .with_filter_state(FilterState::PreTransformed);
        let layout = Layout::of(filter);
        ConvPlan::build(shape, filter, &sched, layout, || FilterRef::Owned(filter.clone()))
    }

    /// Builds a plan with an explicit schedule, in the layout the filter
    /// names (as [`ConvPlan::try_new`]). The schedule's [`FilterState`] is
    /// honored: `PreTransformed` packs the filter at build time, `OnTheFly`
    /// copies the raw filter and transforms per cache block during
    /// execution (the ablation pairing).
    pub fn try_with_schedule(
        shape: &ConvShape,
        filter: &Filter,
        schedule: &Schedule,
    ) -> Result<ConvPlan<'static>, Error> {
        validate_filter(shape, filter)?;
        let layout = Layout::of(filter);
        ConvPlan::build(shape, filter, schedule, layout, || FilterRef::Owned(filter.clone()))
    }

    /// The throwaway plan behind [`crate::try_conv_ndirect_with`] and
    /// [`crate::try_conv3d_ndirect`]: borrows the filter (zero-copy for
    /// on-the-fly schedules, so a one-shot call copies nothing) and skips
    /// validation — the wrapper already ran it, the ISA probe among its
    /// checks. A 3-D plan is the flattened problem over the `KCTRS` filter
    /// read as `KCRS` with `T·R` rows, in [`Layout::Ncdhw`].
    pub(crate) fn try_borrowed(
        shape: &ConvShape,
        filter: &'f Filter,
        schedule: &Schedule,
        layout: Layout,
    ) -> Result<ConvPlan<'f>, Error> {
        ConvPlan::build(shape, filter, schedule, layout, || FilterRef::Borrowed(filter))
    }

    /// Shared build path: sanitize, allocate the first scratch set with
    /// the same graceful degradation as the one-shot drivers (fall back to
    /// the minimal-tile schedule on the same grid; [`Error::ScratchAlloc`]
    /// only if even that fails), then put the filter into the form the
    /// *final* schedule asks for — packed once, or kept raw through
    /// `keep_raw` (a copy or a borrow).
    fn build(
        shape: &ConvShape,
        filter: &Filter,
        schedule: &Schedule,
        layout: Layout,
        keep_raw: impl FnOnce() -> FilterRef<'f>,
    ) -> Result<ConvPlan<'f>, Error> {
        let _build = ndirect_probe::probe_span!(PlanBuild, 0);
        let mut sched = schedule.sanitized(shape);
        // An `NHWC` or `NCDHW` strip is one pack pass into the `[c][r][win]`
        // buffer, then the kernel: no fused gather or per-channel slab reads
        // its rows. Every mode coerces to `Sequential`, so `schedule()` says
        // what runs (and the pack accounting stays exact).
        if layout != Layout::Nchw {
            sched.packing = PackingMode::Sequential;
        }
        let mut degraded = false;
        let first = match try_alloc_scratch(&sched, shape, sched.grid.threads()) {
            Ok(s) => s,
            Err(_) => {
                let mut fallback = Schedule::minimal(shape)
                    .with_grid(sched.grid)
                    .with_packing(sched.packing)
                    .with_filter_state(sched.filter_state)
                    .sanitized(shape);
                fallback.vw = fallback.vw.min(sched.vw);
                match try_alloc_scratch(&fallback, shape, fallback.grid.threads()) {
                    Ok(s) => {
                        ndirect_probe::probe_count!(MinimalScheduleDegradations, 1);
                        sched = fallback;
                        degraded = true;
                        s
                    }
                    Err(elements) => return Err(Error::ScratchAlloc { elements }),
                }
            }
        };
        // Pack for the schedule that will actually run (vk/tc may have
        // changed under degradation).
        let packed = sched.filter_state == FilterState::PreTransformed;
        let _ft = ndirect_probe::probe_phase!(FilterTransform);
        let filter = if packed {
            let tf = TransformedFilter::try_new(filter, sched.vk)
                .map_err(|elements| Error::ScratchAlloc { elements })?;
            FilterForm::Packed(tf)
        } else {
            FilterForm::Raw(keep_raw())
        };
        Ok(ConvPlan {
            shape: *shape,
            sched,
            degraded,
            kernel: Kernel::best(),
            layout,
            filter,
            arena: Arena::new(first),
        })
    }

    /// The schedule the plan executes (sanitized; the minimal-tile
    /// fallback if the build [`degraded`](ConvPlan::degraded)).
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// The convolution shape the plan was built for.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Whether scratch allocation fell back to the minimal-tile schedule
    /// at build time.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The tile-kernel encoding the plan runs, chosen at build by runtime
    /// detection: `"avx2+fma"` where the CPU has both over an x86-64 SSE2
    /// build (8-lane fused multiply-add for every filter but 1×1, whose
    /// kernels stay the baseline's 4-lane code), else the build's baseline
    /// (`"sse"`, `"sse+fma"`, `"neon"`, `"scalar"`). 16-lane (AVX-512)
    /// kernels are not here yet.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The plan running `kernel` instead of the detected best entry.
    #[doc(hidden)]
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        ConvPlan { kernel, ..self }
    }

    // AUDIT: cold — scratch provisioning; runs on arena miss, never per tile.
    fn alloc_set(&self) -> Result<Vec<Mutex<Scratch>>, Error> {
        try_alloc_scratch(&self.sched, &self.shape, self.sched.grid.threads())
            .map_err(|elements| Error::ScratchAlloc { elements })
    }

    /// Ensures at least `n` idle scratch sets are pooled (capped at the
    /// plan's internal maximum), so that up to `n` *concurrent*
    /// [`execute`](ConvPlan::execute) calls run allocation-free.
    pub fn reserve_scratch(&self, n: usize) -> Result<(), Error> {
        while self.arena.idle() < n.min(CACHED_SETS_MAX) {
            self.arena.put(self.alloc_set()?);
        }
        Ok(())
    }

    /// Runs the planned convolution, accumulating into `out` (pass a
    /// zeroed output, or one pre-seeded with a bias/shortcut to fuse the
    /// addition).
    ///
    /// The hot path: O(1) layout/dimension/grid checks — kept in release
    /// builds because the kernels write through unchecked accessors — a
    /// scratch-set lease from the plan's pool, and the driver loop nest
    /// (the frame all three plans share). No heap allocation,
    /// no filter work beyond the schedule's own on-the-fly blocks, results
    /// bitwise identical to the one-shot entry points.
    // AUDIT: hotpath
    pub fn execute(
        &self,
        pool: &StaticPool,
        input: &Tensor4,
        out: &mut Tensor4,
    ) -> Result<(), Error> {
        let shape = &self.shape;
        // A 3-D plan is `NCHW` to its nest; only its own entry runs it.
        let (layout, contexts) = match self.layout {
            Layout::Nhwc => (ActLayout::Nhwc, ("plan executes NHWC input", "plan writes NHWC")),
            Layout::Nchw | Layout::Ncdhw(_) => {
                (ActLayout::Nchw, ("plan executes NCHW input", "plan writes NCHW"))
            }
        };
        let operands = Operands {
            layout,
            contexts,
            in_dims: (shape.n, shape.c, shape.h, shape.w),
            out_dims: (shape.n, shape.k, shape.p(), shape.q()),
        };
        operands.check(input, out)?;
        self.execute_slices(pool, input.as_slice(), out.as_mut_slice())
    }

    /// [`ConvPlan::execute`] on the operands' data: `in_data` holds `N`
    /// images in the plan's layout, `out` the planned shape's outputs.
    /// [`ConvPlan::execute`] checks its `Tensor4`s, the 3-D entry its
    /// `Tensor5`s; the output length is checked again here, as the kernels
    /// scatter through unchecked accessors.
    pub(crate) fn execute_slices(
        &self,
        pool: &StaticPool,
        in_data: &[f32],
        out: &mut [f32],
    ) -> Result<(), Error> {
        let shape = &self.shape;
        let planned = shape.n * shape.k * shape.p() * shape.q();
        check::dims("output length", (planned, 1, 1, 1), (out.len(), 1, 1, 1))?;
        execute_frame(
            self.sched.grid.threads(),
            &self.arena,
            || self.alloc_set(),
            pool,
            out,
            |tid, scratch, out_all| {
                // Disjointness for the SharedSlice writes: K ranges are
                // disjoint across `tk` and (n, oh) row ranges across `tn`,
                // so each output element has exactly one writer.
                if let Some(region) = self.sched.partition(shape, tid) {
                    self.run(region, scratch, in_data, out_all);
                }
            },
        )
    }

    /// One thread's share of Algorithm 2's loop nest (see [`crate::conv`]
    /// for the loop-by-loop commentary) against pre-leased scratch, for
    /// every activation layout.
    fn run(
        &self,
        (k_lo, k_hi, rows): (usize, usize, std::ops::Range<usize>),
        scratch: &mut Scratch,
        in_data: &[f32],
        out_all: &SharedSlice<'_, f32>,
    ) {
        let shape = &self.shape;
        let sched = &self.sched;
        let (pre_tf, raw_filter) = self.filter.split();
        let (p, q) = (shape.p(), shape.q());
        let image_len = match self.layout {
            Layout::Ncdhw(vol) => vol.c * vol.d * vol.h * vol.w,
            Layout::Nchw | Layout::Nhwc => shape.c * shape.h * shape.w,
        };
        let Scratch { bbuf, tfbuf } = scratch;
        for (n, ohs) in image_rows(rows, p) {
            let image = &in_data[n * image_len..(n + 1) * image_len];
            let mut ht = ohs.start;
            while ht < ohs.end {
                let ht_end = (ht + sched.th).min(ohs.end);
                let mut ct = 0;
                while ct < shape.c {
                    let tcb = sched.tc.min(shape.c - ct);
                    let mut kt = k_lo;
                    while kt < k_hi {
                        let tkb = sched.tk.min(k_hi - kt);
                        let kv_blocks = tkb.div_ceil(sched.vk);
                        // Per-kv block length in the transform buffer uses
                        // the *live* channel count of this tile.
                        let tf_block_len = tcb * shape.r * shape.s * sched.vk;
                        if let Some(f) = raw_filter {
                            let _ft = ndirect_probe::probe_phase!(FilterTransform);
                            ndirect_probe::probe_count!(
                                BytesTransformed,
                                kv_blocks * tf_block_len * std::mem::size_of::<f32>()
                            );
                            transform_filter_block(f, kt, tkb, ct, tcb, sched.vk, tfbuf);
                        }
                        for oh in ht..ht_end {
                            let mut wv = 0;
                            while wv < q {
                                let valid_w = sched.vw.min(q - wv);
                                compute_strip(
                                    StripCtx {
                                        kernel: self.kernel,
                                        layout: &self.layout,
                                        image,
                                        shape,
                                        sched,
                                        pre_tf,
                                        tfbuf: &*tfbuf,
                                        tf_block_len,
                                        n,
                                        ct,
                                        tcb,
                                        kt,
                                        kv_blocks,
                                        k_hi,
                                        oh,
                                        wv,
                                        valid_w,
                                        geom: StripGeom::new(shape, oh, wv, valid_w),
                                        p,
                                        q,
                                    },
                                    bbuf,
                                    out_all,
                                );
                                wv += sched.vw;
                            }
                        }
                        kt += sched.tk;
                    }
                    ct += sched.tc;
                }
                ht = ht_end;
            }
        }
    }
}

/// Plan build-time filter checks (the input is checked at execute).
pub(crate) fn validate_filter(shape: &ConvShape, filter: &Filter) -> Result<(), Error> {
    check::isa()?;
    shape.validate()?;
    check::dims(
        "filter dims",
        (shape.k, shape.c, shape.r, shape.s),
        filter.dims(),
    )?;
    Ok(())
}

/// A pre-built depthwise convolution (`K == C`, channel multiplier 1):
/// owns the per-thread gather buffers so repeated
/// [`execute`](DepthwisePlan::execute) calls are allocation-free.
///
/// Unlike [`ConvPlan`] there is no filter transform (depthwise reads taps
/// directly) and no thread grid — work is `(n, c)` items split over a
/// fixed thread count chosen at build; every item writes its own output
/// plane, so results are bitwise identical for any thread count.
pub struct DepthwisePlan<'f> {
    shape: ConvShape,
    filter: FilterRef<'f>,
    threads: usize,
    kernel: Kernel,
    arena: Arena<AlignedBuf>,
}

impl<'f> DepthwisePlan<'f> {
    /// Builds a depthwise plan for `threads` worker threads, copying the
    /// `(C, 1, R, S)` filter so the plan is `'static`.
    pub fn try_new(
        shape: &ConvShape,
        filter: &Filter,
        threads: usize,
    ) -> Result<DepthwisePlan<'static>, Error> {
        check::isa()?;
        shape.validate()?;
        check::depthwise_shape(shape)?;
        check::depthwise_filter(shape, filter, "filter dims", "depthwise takes KCRS")?;
        DepthwisePlan::build(shape, FilterRef::Owned(filter.clone()), threads)
    }

    /// The throwaway plan behind [`crate::try_conv_depthwise`]: borrows
    /// the filter, skips validation (the wrapper ran it).
    pub(crate) fn borrowed(
        shape: &ConvShape,
        filter: &'f Filter,
        threads: usize,
    ) -> Result<DepthwisePlan<'f>, Error> {
        DepthwisePlan::build(shape, FilterRef::Borrowed(filter), threads)
    }

    fn build(
        shape: &ConvShape,
        filter: FilterRef<'f>,
        threads: usize,
    ) -> Result<DepthwisePlan<'f>, Error> {
        let threads = threads.max(1);
        let first = Self::alloc_set(shape, threads)?;
        Ok(DepthwisePlan {
            shape: *shape,
            filter,
            threads,
            kernel: Kernel::best(),
            arena: Arena::new(first),
        })
    }

    // AUDIT: cold — scratch provisioning; runs on arena miss, never per tile.
    fn alloc_set(shape: &ConvShape, threads: usize) -> Result<Vec<Mutex<AlignedBuf>>, Error> {
        crate::conv::try_scratch_bufs(crate::depthwise::padded_len(shape, shape.p()), threads)
    }

    /// The shape the plan was built for.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The worker-thread count the plan splits work over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The tile-kernel encoding the plan runs (see
    /// [`ConvPlan::kernel_name`]).
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The plan running `kernel` instead of the detected best entry.
    #[doc(hidden)]
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        DepthwisePlan { kernel, ..self }
    }

    /// Runs the planned depthwise convolution, writing (not accumulating)
    /// `out`. The pool must provide at least the plan's thread count.
    // AUDIT: hotpath
    pub fn execute(
        &self,
        pool: &StaticPool,
        input: &Tensor4,
        out: &mut Tensor4,
    ) -> Result<(), Error> {
        let shape = &self.shape;
        let (p, q) = (shape.p(), shape.q());
        let operands = Operands {
            layout: ActLayout::Nchw,
            contexts: ("depthwise takes NCHW", "depthwise writes NCHW"),
            in_dims: (shape.n, shape.c, shape.h, shape.w),
            out_dims: (shape.n, shape.c, p, q),
        };
        let taps = self.filter.get().as_slice(); // (C,1,R,S): channel-major
        let (rs, plane_in, plane_out) = (shape.r * shape.s, shape.h * shape.w, p * q);
        let threads = self.threads;
        let in_data = input.as_slice();
        operands.check(input, out)?;
        execute_frame(
            threads,
            &self.arena,
            || Self::alloc_set(shape, threads),
            pool,
            out.as_mut_slice(),
            |tid, scratch, out_all| {
                // In NCHW, item `n·C + c` indexes both its input and its
                // output plane; `c` picks the taps.
                for item in split_static(shape.n * shape.c, threads, tid) {
                    let c = item % shape.c;
                    // SAFETY: each (n, c) item owns output plane `item`
                    // alone, and `execute_frame` checked `out`'s dims.
                    let dst = unsafe { out_all.range_mut(item * plane_out, plane_out) };
                    crate::depthwise::depthwise_channel(
                        self.kernel,
                        &in_data[item * plane_in..][..plane_in],
                        &taps[c * rs..][..rs],
                        shape,
                        0..p,
                        scratch,
                        dst,
                    );
                }
            },
        )
    }
}

// Plans are shared across threads by design (one plan, many executes).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConvPlan<'static>>();
    assert_send_sync::<DepthwisePlan<'static>>();
    assert_send_sync::<crate::dwpw::FusedDwPwPlan<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{try_conv_ndirect, try_conv_ndirect_with};
    use ndirect_baselines::naive;
    use ndirect_tensor::{assert_close, fill, Padding};
    use ndirect_threads::Grid2;

    fn problem(shape: &ConvShape, layout: ActLayout, seed: u64) -> (Tensor4, Filter) {
        let flayout = match layout {
            ActLayout::Nchw => FilterLayout::Kcrs,
            ActLayout::Nhwc => FilterLayout::Krsc,
        };
        (
            fill::random_tensor(Tensor4::input_for(shape, layout), seed),
            fill::random_filter(Filter::for_shape(shape, flayout), seed),
        )
    }

    #[test]
    fn repeated_executes_match_one_shot_nchw() {
        let shape = ConvShape::new(2, 5, 9, 11, 13, 3, 3, 1, Padding::same(1));
        let (input, filter) = problem(&shape, ActLayout::Nchw, 41);
        let pool = StaticPool::new(2);
        let sched = Schedule::minimal(&shape).with_grid(Grid2::new(2, 1));
        let oneshot =
            try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched).expect("valid problem");

        let plan = ConvPlan::try_with_schedule(&shape, &filter, &sched).unwrap();
        for _ in 0..3 {
            let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
            plan.execute(&pool, &input, &mut out).unwrap();
            assert_eq!(out.as_slice(), oneshot.as_slice(), "plan reuse bitwise");
        }
    }

    #[test]
    fn packed_plan_matches_on_the_fly_plan_nchw() {
        let shape = ConvShape::new(1, 6, 10, 8, 9, 3, 3, 2, Padding::same(1));
        let (input, filter) = problem(&shape, ActLayout::Nchw, 43);
        let pool = StaticPool::new(1);
        let sched = Schedule::minimal(&shape);
        let otf = ConvPlan::try_with_schedule(&shape, &filter, &sched).unwrap();
        let packed = ConvPlan::try_with_schedule(
            &shape,
            &filter,
            &sched.with_filter_state(FilterState::PreTransformed),
        )
        .unwrap();
        let mut a = Tensor4::output_for(&shape, ActLayout::Nchw);
        let mut b = Tensor4::output_for(&shape, ActLayout::Nchw);
        otf.execute(&pool, &input, &mut a).unwrap();
        packed.execute(&pool, &input, &mut b).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "filter states bitwise");
    }

    #[test]
    fn packed_plan_matches_on_the_fly_plan_nhwc() {
        // K=13 exercises the global-kv K-tail equivalence; tc < C reads
        // channel windows of the pre-transform.
        let shape = ConvShape::new(2, 6, 9, 13, 13, 3, 3, 2, Padding::same(1));
        let (input, filter) = problem(&shape, ActLayout::Nhwc, 47);
        let pool = StaticPool::new(2);
        let mut sched = Schedule::minimal(&shape).with_grid(Grid2::new(1, 2));
        sched.vk = 8;
        sched.tk = 8;
        sched.tc = 4;
        let otf = ConvPlan::try_with_schedule(&shape, &filter, &sched).unwrap();
        let packed = ConvPlan::try_with_schedule(
            &shape,
            &filter,
            &sched.with_filter_state(FilterState::PreTransformed),
        )
        .unwrap();
        let (p, q) = (shape.p(), shape.q());
        let mut a = Tensor4::zeros(shape.n, shape.k, p, q, ActLayout::Nhwc);
        let mut b = Tensor4::zeros(shape.n, shape.k, p, q, ActLayout::Nhwc);
        otf.execute(&pool, &input, &mut a).unwrap();
        packed.execute(&pool, &input, &mut b).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "nhwc filter states bitwise");
    }

    #[test]
    fn derived_plan_runs_and_matches_reference() {
        let shape = ConvShape::square(1, 8, 16, 12, 3, 1);
        let (input, filter) = problem(&shape, ActLayout::Nchw, 51);
        let pool = StaticPool::new(2);
        let plan = ConvPlan::try_new(&ndirect_platform::host(), &shape, &filter, 2).unwrap();
        assert_eq!(plan.kernel_name(), Kernel::best().name(), "plans run the best entry");
        let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
        plan.execute(&pool, &input, &mut out).unwrap();
        let expect = ndirect_baselines::naive::conv_ref(&input, &filter, &shape);
        ndirect_tensor::assert_close(out.as_slice(), expect.as_slice(), 2e-4, "derived plan");
    }

    #[test]
    fn execute_rejects_wrong_dims_and_small_pool() {
        let shape = ConvShape::square(1, 4, 4, 6, 3, 1);
        let (input, filter) = problem(&shape, ActLayout::Nchw, 53);
        let sched = Schedule::minimal(&shape).with_grid(Grid2::new(2, 1));
        let plan = ConvPlan::try_with_schedule(&shape, &filter, &sched).unwrap();
        let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
        // Pool smaller than the plan's grid.
        let small = StaticPool::new(1);
        assert!(matches!(
            plan.execute(&small, &input, &mut out),
            Err(Error::GridExceedsPool { .. })
        ));
        // Wrong input dims.
        let pool = StaticPool::new(2);
        let bad = Tensor4::zeros(1, 4, 9, 9, ActLayout::Nchw);
        assert!(matches!(
            plan.execute(&pool, &bad, &mut out),
            Err(Error::DimMismatch { .. })
        ));
    }

    #[test]
    fn build_degrades_when_scratch_is_absurd() {
        // A shape with an enormous channel count: the sanitized schedule's
        // scratch request exceeds the address space, so the build falls
        // back to minimal tiles (and reports it).
        let shape = ConvShape::new(1, 1 << 48, 8, 8, 4, 3, 3, 1, Padding::NONE);
        let mut sched = Schedule::minimal(&shape);
        sched.tc = shape.c; // survives sanitize: tc is clamped to C
        let filter = Filter::zeros(4, 1, 3, 3, FilterLayout::Kcrs);
        let plan = ConvPlan::try_borrowed(&shape, &filter, &sched, Layout::Nchw).unwrap();
        assert!(plan.degraded());
        assert!(plan.schedule().tc < shape.c);
    }

    #[test]
    fn reserve_scratch_pools_sets() {
        let shape = ConvShape::square(1, 4, 4, 6, 3, 1);
        let (_, filter) = problem(&shape, ActLayout::Nchw, 57);
        let plan =
            ConvPlan::try_with_schedule(&shape, &filter, &Schedule::minimal(&shape)).unwrap();
        plan.reserve_scratch(3).unwrap();
        assert!(plan.arena.idle() >= 3);
    }

    #[test]
    fn depthwise_plan_reuse_matches_one_shot() {
        let shape = ConvShape::new(2, 6, 9, 9, 6, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 59);
        let filter = fill::random_filter(
            Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs),
            59,
        );
        let pool = StaticPool::new(2);
        let oneshot = crate::depthwise::conv_depthwise(&pool, &input, &filter, &shape);
        let plan = DepthwisePlan::try_new(&shape, &filter, 2).unwrap();
        for _ in 0..2 {
            let mut out =
                Tensor4::zeros(shape.n, shape.c, shape.p(), shape.q(), ActLayout::Nchw);
            plan.execute(&pool, &input, &mut out).unwrap();
            assert_eq!(out.as_slice(), oneshot.as_slice(), "depthwise plan bitwise");
        }
    }

    fn check_nhwc(shape: ConvShape, sched: &Schedule, threads: usize, what: &str) {
        let (input, filter) = problem(&shape, ActLayout::Nhwc, 23);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(threads);
        let got = try_conv_ndirect_with(&pool, &input, &filter, &shape, sched)
            .expect("valid problem");
        assert_eq!(got.layout(), ActLayout::Nhwc);
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, what);
    }

    #[test]
    fn matches_oracle_basic() {
        let shape = ConvShape::new(1, 5, 9, 11, 8, 3, 3, 1, Padding::same(1));
        check_nhwc(shape, &Schedule::minimal(&shape), 1, "nhwc basic");
    }

    #[test]
    fn matches_oracle_channel_tiling() {
        // tc < C exercises the strided pack path.
        let shape = ConvShape::new(1, 10, 8, 8, 8, 3, 3, 1, Padding::NONE);
        let mut s = Schedule::minimal(&shape);
        s.tc = 3;
        check_nhwc(shape, &s, 1, "nhwc channel tiles");
    }

    #[test]
    fn matches_oracle_strided_and_tails() {
        // K=13 (vk tail), Q tail, stride 2, padding.
        let shape = ConvShape::new(2, 6, 9, 13, 13, 3, 3, 2, Padding::same(1));
        let mut s = Schedule::minimal(&shape);
        s.vw = 4;
        s.vk = 8;
        s.tk = 8;
        check_nhwc(shape, &s, 1, "nhwc tails");
    }

    #[test]
    fn matches_oracle_pointwise_and_7x7() {
        let shape = ConvShape::new(1, 8, 6, 10, 12, 1, 1, 1, Padding::NONE);
        check_nhwc(shape, &Schedule::minimal(&shape), 1, "nhwc 1x1");
        let shape = ConvShape::new(1, 3, 12, 12, 6, 7, 7, 2, Padding::same(3));
        check_nhwc(shape, &Schedule::minimal(&shape), 1, "nhwc 7x7");
    }

    #[test]
    fn thread_grids_bitwise_identical() {
        let shape = ConvShape::new(2, 8, 10, 10, 16, 3, 3, 1, Padding::same(1));
        let (input, filter) = problem(&shape, ActLayout::Nhwc, 29);
        let base = try_conv_ndirect_with(
            &StaticPool::new(1),
            &input,
            &filter,
            &shape,
            &Schedule::minimal(&shape),
        )
        .expect("valid problem");
        for (ptn, ptk) in [(2, 1), (1, 2), (2, 2), (4, 1)] {
            let pool = StaticPool::new(ptn * ptk);
            let sched = Schedule::minimal(&shape).with_grid(Grid2::new(ptn, ptk));
            let got = try_conv_ndirect_with(&pool, &input, &filter, &shape, &sched)
                .expect("valid problem");
            assert_eq!(got.as_slice(), base.as_slice(), "grid {ptn}x{ptk}");
        }
    }

    #[test]
    fn derived_schedule_entry_point() {
        let shape = ConvShape::square(1, 16, 24, 12, 3, 1);
        let (input, filter) = problem(&shape, ActLayout::Nhwc, 31);
        let expect = naive::conv_ref(&input, &filter, &shape);
        let pool = StaticPool::new(2);
        let got = try_conv_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "derived nhwc");
    }

    #[test]
    fn filter_transform_nhwc_layout() {
        // A KRSC filter goes through the one transform into the same
        // [kv][c][r][s][Vk] block as its KCRS copy.
        let shape = ConvShape::new(1, 3, 4, 4, 6, 2, 3, 1, Padding::NONE);
        let (_, krsc) = problem(&shape, ActLayout::Nhwc, 37);
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
