//! The main micro-kernel (Algorithm 3) and its fused-packing variant.
//!
//! One invocation updates a `Vw × Vk` output register tile — `Vw`
//! consecutive output pixels of one row × `Vk` consecutive output channels —
//! accumulating over the current channel tile (`Tc`), all kernel rows `R`
//! and taps `S`:
//!
//! * the **filter** is read as dense `Vk`-vectors from the transformed
//!   layout (`[c][r][s][Vk]`), the streaming operand;
//! * the **input** is read as broadcast scalars from the packed strip
//!   buffer `B` (lane-indexed registers in the paper; `splat` here, which
//!   LLVM lowers to `ld1r`/lane-`fmla` on NEON and, under the `avx2+fma`
//!   registry entry, to a load-port `vbroadcastss`) — the outer-product
//!   update that gives direct convolution a higher FAI than a GEMM-shaped
//!   inner product;
//! * the **output** tile lives entirely in `Vw · Vk/L` accumulator
//!   registers until the final read-add-write scatter into `NCHW`.
//!
//! The kernels are generic over the vector ([`SimdVec`]): `L` is its lane
//! count, 4 or (the general body under `avx2+fma`) 8. Every output sums
//! its `(c, r, s)` products in that order from a zero accumulator, at any
//! `L`, so a kernel's bits depend only on whether its vector fuses the
//! multiply-add.
//!
//! [`RowSource::Gather`] fuses §5.3's packing into the first `kv`
//! iteration: each `(c, r)` input row is gathered into `B` immediately
//! before its FMA burst, so the buffer stores overlap with computation
//! exactly as the paper interleaves `st` with `fma`.

use ndirect_simd::{backend_name, F32x4, SimdVec};
use ndirect_threads::SharedSlice;

#[cfg(target_arch = "x86_64")]
use crate::avx2::F32x8;
use crate::microkernel::{micro_kernel, with_entry, Entry, Kernel, MicroKernel};
use crate::pack::gather_row;

/// Upper bound on `Vw` the dynamic kernel supports.
pub const VW_MAX: usize = 32;
/// Upper bound on `Vk/4` the dynamic kernel supports (its vectors per tap
/// at 4 lanes; at 8 it runs half as many).
pub const VKV_MAX: usize = 8;
/// Room for the lanes of the widest vector a kernel runs on.
const MAX_LANES: usize = 8;

/// Where the micro-kernel gets its input rows: the packed buffer (later
/// `kv` iterations) or a gather that fills the buffer as it goes (first
/// `kv` iteration in fused-packing mode).
pub enum RowSource<'a> {
    /// Read rows from an already-packed strip buffer (`[c][r][win]`).
    Packed {
        /// The packed strip (`[c][r][win]`).
        buf: &'a [f32],
        /// Elements per row.
        win: usize,
        /// Rows per channel (`R`, or `T·R` for 3-D).
        rdim: usize,
    },
    /// Gather each row from the image into the strip buffer on first use.
    Gather {
        /// One image's `C·H·W` data.
        image: &'a [f32],
        /// First channel of the tile.
        ct: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Strip origin row (`oh·str − pad.h`).
        ih0: isize,
        /// Strip origin column (`wv·str − pad.w`).
        iw0: isize,
        /// The strip buffer being filled (`[c][r][win]`).
        buf: &'a mut [f32],
        /// Elements per row.
        win: usize,
        /// Rows per channel.
        rdim: usize,
    },
    /// Read rows out of a cache-resident slab laid out
    /// `[c][row][row_stride]`: the fused dw+pw plan's depthwise-output slab
    /// ([`crate::FusedDwPwPlan`]). Each strip row is a contiguous
    /// `win`-element sub-slice of one slab row, so the kernels run
    /// unchanged — only the addressing differs from `Packed`.
    Strided {
        /// The slab (`[c][row][row_stride]`, `c` relative to the tile).
        buf: &'a [f32],
        /// Slab rows per channel.
        rows_per_c: usize,
        /// Elements per slab row.
        row_stride: usize,
        /// First slab row of this strip's window.
        row_off: usize,
        /// Column offset of this strip's window inside a slab row.
        col_off: usize,
        /// Elements per strip row (`(valid_w−1)·stride + S`).
        win: usize,
    },
}

impl RowSource<'_> {
    /// The single row walk: visits the tile's `(c, r)` rows in reduction
    /// order and hands `f` each row's filter taps (`[s][Vk]`) and input.
    /// All source-specific addressing and the fused gather live here, so
    /// every kernel is this walk plus a per-row body. `win` is the window
    /// the kernel reads, `(valid_w − 1)·stride + S`.
    ///
    /// Each source keeps a loop of its own, so that only the gathering one
    /// has a call in it and the others hold the caller's accumulators in
    /// registers. Callers mark `f` `#[inline(always)]` for the same reason:
    /// with one call site per loop it would otherwise be outlined and the
    /// accumulators would live in memory.
    #[inline(always)]
    fn for_each_row(
        &mut self,
        args: &TileArgs<'_>,
        win: usize,
        mut f: impl FnMut(&[f32], &[f32]),
    ) {
        let rdim = args.rdim;
        // (c, r, taps) in reduction order. Zipping the tap rows with the
        // packed rows below keeps both iterations check-free.
        let mut at = (0, 0);
        let walk = args.tf.chunks_exact(args.sdim * args.vk).take(args.tcb * rdim).map(move |tfr| {
            let (c, rr) = at;
            at = if rr + 1 < rdim { (c, rr + 1) } else { (c + 1, 0) };
            (c, rr, tfr)
        });
        match self {
            RowSource::Packed { buf, win: bwin, rdim: rd } => {
                debug_assert!(*rd == rdim && *bwin >= win);
                for ((_, _, tfr), brow) in walk.zip(buf.chunks_exact(*bwin)) {
                    f(tfr, brow);
                }
            }
            RowSource::Gather {
                image,
                ct,
                h,
                w,
                ih0,
                iw0,
                buf,
                win: bwin,
                rdim: rd,
            } => {
                debug_assert!(*rd == rdim && *bwin >= win);
                for ((c, rr, tfr), brow) in walk.zip(buf.chunks_exact_mut(*bwin)) {
                    gather_row(image, *ct + c, *ih0 + rr as isize, *iw0, *h, *w, brow);
                    f(tfr, brow);
                }
            }
            RowSource::Strided {
                buf,
                rows_per_c,
                row_stride,
                row_off,
                col_off,
                win: swin,
            } => {
                debug_assert!(*swin >= win);
                for (c, rr, tfr) in walk {
                    let base = (c * *rows_per_c + *row_off + rr) * *row_stride + *col_off;
                    f(tfr, &buf[base..base + *swin]);
                }
            }
        }
    }
}

/// Geometry + operand bundle shared by every kernel variant.
pub struct TileArgs<'a> {
    /// Live channels in the current `Tc` tile.
    pub tcb: usize,
    /// Kernel height `R`.
    pub rdim: usize,
    /// Kernel width `S`.
    pub sdim: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Transformed filter slice for this `kv` block: `[c][r][s][vk]`.
    pub tf: &'a [f32],
    /// `Vk` of the transformed filter.
    pub vk: usize,
    /// Offset of output element `(n, k0, oh, wv)` in `out`.
    pub obase: usize,
    /// Distance between consecutive output channels: `P·Q` for `NCHW`,
    /// `1` for `NHWC`.
    pub kstride: usize,
    /// Distance between consecutive output pixels: `1` for `NCHW`, `K`
    /// for `NHWC`.
    pub wstride: usize,
    /// Live output pixels (≤ scheduled `Vw`).
    pub valid_w: usize,
    /// Live output channels in this `kv` block (≤ `vk`).
    pub valid_k: usize,
}

/// The row body a tile kernel is stamped with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body {
    /// Any `R × S` filter, taps in a runtime loop.
    General,
    /// `R = S = 1`, with those as constants.
    Pointwise,
}

impl Body {
    /// The body an `R × S` filter runs (`rdim` is `T·R` for 3-D).
    pub fn of(rdim: usize, sdim: usize) -> Body {
        if rdim == 1 && sdim == 1 { Body::Pointwise } else { Body::General }
    }
}

/// A register tile the kernels are monomorphised for: `vw` pixels × `vk`
/// channels, stamped with one body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Output pixels (`Vw`).
    pub vw: usize,
    /// Output channels (`Vk`, a multiple of 4).
    pub vk: usize,
    /// The body it serves.
    pub body: Body,
}

// The registry's entries (`crate::microkernel`), each with its register
// file: the vector the general body runs on (the pointwise body runs on
// `F32x4` under every entry), and the registers it holds. The
// baseline's file is the one `ndirect_platform::host()` reports: NEON's 32
// lane-FMA registers on AArch64, x86-64's 16 xmm registers elsewhere.
micro_kernel!(
    Baseline, backend_name(), true,
    general: F32x4, registers: if cfg!(target_arch = "aarch64") { 32 } else { 16 },
    lane_fma: cfg!(target_arch = "aarch64")
);
// 16 ymm registers, 8-lane FMA for the general body. Offered over the SSE2
// builds (an `sse+fma` baseline fuses its `F32x4` too); `neon`/`scalar`
// have no use for it.
#[cfg(target_arch = "x86_64")]
micro_kernel!(
    Avx2Fma,
    "avx2+fma",
    matches!(backend_name(), "sse" | "sse+fma")
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma"),
    general: F32x8, registers: 16, lane_fma: false,
    "avx2,fma"
);

/// The x86-64 tile table: what Eqs. 3–4 derive over each registry
/// entry's register file (16 registers, 2 broadcasts held, a product
/// temporary when unfused). `(4, 8)` for both bodies on the 4-lane
/// unfused `sse` code, `(4, 16)` for the general body on `avx2+fma`'s
/// fused 8 lanes, whose pointwise body is the `sse` code. Each line is a
/// body, its tile, the entries that stamp it, and the widths stamped for
/// it, the `Q`-tails `1..=Vw` at the same `Vk`.
macro_rules! x86_64_tiles {
    ($stamp:ident) => {
        $stamp! {
            general (4, 8) [Baseline]: 1 2 3 4;
            pointwise (4, 8) [Baseline Avx2Fma]: 1 2 3 4;
            general (4, 16) [Avx2Fma]: 1 2 3 4;
        }
    };
}

/// The AArch64 tile table: `optimal_tile(NEON, s)` for `s = 1..=7`.
/// `(20, 4)` stamps no widths of its own; they are `(24, 4)`'s tails.
macro_rules! aarch64_tiles {
    ($stamp:ident) => {
        $stamp! {
            pointwise (8, 12) [Baseline]: 1 2 3 4 5 6 7 8;
            general (12, 8) [Baseline]: 1 2 3 4 5 6 7 8 9 10 11 12;
            general (24, 4) [Baseline]: 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24;
            general (20, 4) [Baseline]: ;
        }
    };
}

/// Every other target's table: the x86-64 baseline lines, the only entry
/// there being the baseline.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
macro_rules! baseline_tiles {
    ($stamp:ident) => {
        $stamp! {
            general (4, 8) [Baseline]: 1 2 3 4;
            pointwise (4, 8) [Baseline]: 1 2 3 4;
        }
    };
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86_64_tiles as arch_tiles;
#[cfg(target_arch = "aarch64")]
pub(crate) use aarch64_tiles as arch_tiles;
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) use baseline_tiles as arch_tiles;

/// A table line's body as a [`Body`].
macro_rules! body {
    (general) => { Body::General };
    (pointwise) => { Body::Pointwise };
}

/// A table as a `&[Tile]`.
macro_rules! tile_list {
    ($($body:ident ($vw:literal, $vk:literal) $entries:tt: $($w:literal)*;)+) => {
        &[$(Tile { vw: $vw, vk: $vk, body: body!($body) }),+]
    };
}

/// The x86-64 tiles, as data on every target.
pub const X86_64_TILES: &[Tile] = x86_64_tiles!(tile_list);
/// The AArch64 tiles, as data on every target.
pub const AARCH64_TILES: &[Tile] = aarch64_tiles!(tile_list);
/// The tiles this build monomorphises, for some registry entry. Every
/// other `(Vw, Vk)`, and a tile under an entry its line does not name,
/// runs on the dynamic kernel.
pub const TILES: &[Tile] = arch_tiles!(tile_list);

/// The entries that stamp each line of [`TILES`], in order.
macro_rules! entry_list {
    ($($body:ident ($vw:literal, $vk:literal) [$($entry:ident)+]: $($w:literal)*;)+) => {
        &[$(&[$(Entry::$entry),+]),+]
    };
}

const TILE_ENTRIES: &[&[Entry]] = arch_tiles!(entry_list);

/// The declared `(Vw, Vk)` pairs that the plans' entry ([`Kernel::best`])
/// has stamped kernels for, serving an `R × S` filter.
pub fn tiles_for(rdim: usize, sdim: usize) -> impl Iterator<Item = (usize, usize)> {
    let best = Kernel::best();
    TILES
        .iter()
        .zip(TILE_ENTRIES)
        .filter(move |(t, entries)| t.body == Body::of(rdim, sdim) && best.is_one_of(entries))
        .map(|(t, _)| (t.vw, t.vk))
}

/// Clamps a register tile into the dynamic kernel's bounds (`VW_MAX`,
/// `4·VKV_MAX`, `Vk` a multiple of 4): the one clamp every schedule
/// passes through, so any tile executes, declared or not.
pub fn clamp_tile((vw, vk): (usize, usize)) -> (usize, usize) {
    (vw.clamp(1, VW_MAX), (vk.max(4) / 4 * 4).min(4 * VKV_MAX))
}

/// The vector an entry runs a table line's body on.
macro_rules! vector {
    (general, $entry:ident) => { <$entry as MicroKernel>::General };
    (pointwise, $entry:ident) => { F32x4 };
}

/// Runs a line's stamped kernel under whichever of the line's entries
/// `$kernel` is, each instantiated for that entry alone; `false` when it
/// is none of them.
macro_rules! run_as {
    ($kernel:ident, [$($entry:ident)+], $body:ident, $w:literal, $vk:literal, $s:literal, $rows:ident, $args:ident, $out:ident) => {
        false $(|| $kernel.run_as::<$entry>(#[inline(always)] || {
            const VKV: usize = $vk / <vector!($body, $entry) as SimdVec>::LANES;
            $body::<vector!($body, $entry), $w, VKV, $s>($rows, $args, $out)
        }))+
    };
}

/// Stamps [`run_tile`]'s dispatch from a table: each line's widths at its
/// `Vk`, strides 1 and 2, its body only, under each entry it names.
///
/// Each arm is one out-of-line frame per entry. With the entry's frame
/// around all of [`run_tile`] instead, or around a plan's whole loop nest,
/// AVX2 encoding of the 4-lane code measured 0.96–1.09× of `sse`; here
/// 3×3 stride-1 layers ran 1.38–1.44× faster.
macro_rules! stamp_run_tile {
    ($($body:ident ($vw:literal, $vk:literal) $entries:tt: $($w:literal)*;)+) => {
        /// Runs the stamped kernel for the kernel's entry and the tile's
        /// body, `Vk`, live width and stride; `false` when there is none.
        #[inline(always)]
        fn run_stamped(
            kernel: Kernel,
            rows: &mut RowSource<'_>,
            args: &TileArgs<'_>,
            out: &SharedSlice<'_, f32>,
        ) -> bool {
            match (Body::of(args.rdim, args.sdim), args.vk, args.valid_w, args.stride) {
                $($(
                    (body!($body), $vk, $w, 1) => {
                        run_as!(kernel, $entries, $body, $w, $vk, 1, rows, args, out)
                    }
                    (body!($body), $vk, $w, 2) => {
                        run_as!(kernel, $entries, $body, $w, $vk, 2, rows, args, out)
                    }
                )*)+
                _ => false,
            }
        }
    };
}

arch_tiles!(stamp_run_tile);

/// Runs one tile compiled for `kernel`, the registry entry the caller's
/// plan chose: the stamped kernel when [`TILES`] has one for the entry,
/// body, `Vk`, live width and stride, else the dynamic kernel on the
/// entry's vector for the body.
///
/// Dispatch is on the strip's *live* width (`valid_w`), so `Q`-tail strips
/// of a declared tile run register-resident kernels too; `K`-tails are
/// handled inside the kernel by masking the accumulator store (the
/// zero-padded filter lanes compute zeros, which the mask discards).
pub fn run_tile(
    kernel: Kernel,
    rows: &mut RowSource<'_>,
    args: &TileArgs<'_>,
    out: &SharedSlice<'_, f32>,
) {
    debug_assert!(args.tf.len() >= args.tcb * args.rdim * args.sdim * args.vk);
    if !run_stamped(kernel, rows, args, out) {
        run_dyn(kernel, rows, args, out);
    }
}

/// [`dyn_kernel`] on the entry's vector for the tile's body, compiled for
/// the entry.
#[inline(always)]
fn run_dyn(kernel: Kernel, rows: &mut RowSource<'_>, args: &TileArgs<'_>, out: &SharedSlice<'_, f32>) {
    with_entry!(kernel.entry(), E => match Body::of(args.rdim, args.sdim) {
        Body::General => dyn_as::<E, <E as MicroKernel>::General>(kernel, rows, args, out),
        Body::Pointwise => dyn_as::<E, F32x4>(kernel, rows, args, out),
    });
}

/// [`dyn_kernel`] on `V` under entry `E`, which `kernel` is: one frame per
/// (entry, vector), so the baseline's two bodies share one.
#[inline(always)]
fn dyn_as<E: MicroKernel, V: SimdVec>(
    kernel: Kernel,
    rows: &mut RowSource<'_>,
    args: &TileArgs<'_>,
    out: &SharedSlice<'_, f32>,
) {
    kernel.run_as::<E>(#[inline(always)] || dyn_kernel::<V>(rows, args, out));
}

/// A stamped [`Body::General`] tile: `VW` pixels × `VKV` vectors of `V`,
/// accumulators pinned in registers for the whole `(c, r, s)` reduction,
/// then the scatter. `STRIDE` is also a const so every input index is a
/// compile-time offset.
#[inline(always)]
fn general<V: SimdVec, const VW: usize, const VKV: usize, const STRIDE: usize>(
    rows: &mut RowSource<'_>,
    args: &TileArgs<'_>,
    out: &SharedSlice<'_, f32>,
) {
    debug_assert_eq!((args.vk, args.stride, args.valid_w), (VKV * V::LANES, STRIDE, VW));
    let sdim = args.sdim;
    let mut acc = [[V::zero(); VKV]; VW];
    rows.for_each_row(args, (VW - 1) * STRIDE + sdim, #[inline(always)] |tfr, brow| {
        kernel_row::<V, VW, VKV, STRIDE>(&mut acc, brow, tfr, sdim)
    });
    scatter_add(&acc, VKV, args.valid_k, out, args.obase, args.kstride, args.wstride);
}

/// A stamped [`Body::Pointwise`] tile: the `R = S = 1` case of the same
/// walk and scatter, with those as constants. One single-tap row per
/// channel feeds only `Vw·Vk/L` FMAs on a register tile sized to fill the
/// file, and the runtime tap loop costs the accumulators their registers
/// (`core.gflops_1x1` fell 29 % without this). Stamping only the body a
/// tile serves keeps one frame per instantiation; when both bodies shared
/// a frame, the general one lost its register allocation.
#[inline(always)]
fn pointwise<V: SimdVec, const VW: usize, const VKV: usize, const STRIDE: usize>(
    rows: &mut RowSource<'_>,
    args: &TileArgs<'_>,
    out: &SharedSlice<'_, f32>,
) {
    let args = &TileArgs { rdim: 1, sdim: 1, vk: VKV * V::LANES, ..*args };
    general::<V, VW, VKV, STRIDE>(rows, args, out);
}

/// The read-add-write scatter every f32 kernel ends with: accumulator
/// `acc[wi]` vector `j` lane `l` is output channel `j·L + l` of pixel `wi`,
/// at `obase + channel·kstride + wi·wstride` (`NCHW`: pixels contiguous
/// along `Q`, channels `P·Q` apart; `NHWC`: the transpose). `valid_k` masks
/// the zero-padded filter lanes of a `K`-tail block.
#[inline(always)]
fn scatter_add<V: SimdVec, const J: usize>(
    acc: &[[V; J]],
    vkv: usize,
    valid_k: usize,
    out: &SharedSlice<'_, f32>,
    obase: usize,
    kstride: usize,
    wstride: usize,
) {
    let mut lanes = [0.0; MAX_LANES];
    for (wi, accw) in acc.iter().enumerate() {
        for (j, v) in accw.iter().enumerate().take(vkv) {
            v.store(&mut lanes);
            for (l, &x) in lanes.iter().take(V::LANES).enumerate() {
                let k_local = j * V::LANES + l;
                if k_local < valid_k {
                    // SAFETY: the driver's thread grid gives this tile's
                    // (K-range × output-row) region a single writer.
                    unsafe { out.add_assign(obase + k_local * kstride + wi * wstride, x) };
                }
            }
        }
    }
}

/// One `(c, r)` row's contribution: `S` taps × `VW` pixels × `VKV` vectors
/// of broadcast FMAs. `STRIDE` being const makes every input offset a
/// compile-time constant.
#[inline(always)]
fn kernel_row<V: SimdVec, const VW: usize, const VKV: usize, const STRIDE: usize>(
    acc: &mut [[V; VKV]; VW],
    brow: &[f32],
    tfr: &[f32],
    sdim: usize,
) {
    let span = (VW - 1) * STRIDE + 1;
    debug_assert!(tfr.len() >= sdim * VKV * V::LANES && brow.len() + 1 >= span + sdim);
    // Tap `ss` reads filter row `ss` and the `span` inputs from `ss` on:
    // slices whose lengths the optimizer can see, so the constant-offset
    // reads below are check-free and no bounds check (a panic exit that
    // keeps the accumulators in memory) is left in the loop.
    for (frow, seg) in tfr.chunks_exact(VKV * V::LANES).zip(brow.windows(span)).take(sdim) {
        let mut fv = [V::zero(); VKV];
        for (j, v) in fv.iter_mut().enumerate() {
            *v = V::load(&frow[j * V::LANES..]);
        }
        for wi in 0..VW {
            let x = V::splat(seg[wi * STRIDE]);
            for j in 0..VKV {
                acc[wi][j] = acc[wi][j].fma(fv[j], x);
            }
        }
    }
}

/// The dynamic kernel: identical math with runtime tile bounds, for every
/// tile outside [`TILES`] (presets run on another host,
/// [`crate::Schedule::minimal`], tuned schedules off the table).
/// Accumulators may spill. Tap order `(ss, wi, j)` matches
/// [`kernel_row`], so it gives the stamped kernels' bits for the same
/// `V`. `Vk` need not be a multiple of `V`'s lanes: the last vector of a
/// tap loads the row's remaining channels and zeros past them, which
/// [`scatter_add`] masks like a `K`-tail.
#[inline(always)]
fn dyn_kernel<V: SimdVec>(rows: &mut RowSource<'_>, args: &TileArgs<'_>, out: &SharedSlice<'_, f32>) {
    let vk = args.vk;
    let vkv = vk.div_ceil(V::LANES);
    // AUDIT: allow(hotpath-no-panic) O(1) tile-entry guard sizing the
    // fixed accumulator array; every `acc` subscript below relies on it.
    assert!(args.valid_w <= VW_MAX && vkv <= VKV_MAX, "tile exceeds dyn kernel bounds");
    let (sdim, stride, valid_w) = (args.sdim, args.stride, args.valid_w);
    let mut acc = [[V::zero(); VKV_MAX]; VW_MAX];
    rows.for_each_row(args, (valid_w - 1) * stride + sdim, #[inline(always)] |tfr, brow| {
        for ss in 0..sdim {
            let frow = &tfr[ss * vk..(ss + 1) * vk];
            for (wi, accw) in acc.iter_mut().enumerate().take(valid_w) {
                // INDEX: wi·stride + ss < win ≤ brow.len(), the window the
                // walk was asked for.
                let x = V::splat(brow[wi * stride + ss]);
                for (j, a) in accw.iter_mut().enumerate().take(vkv) {
                    *a = a.fma(load_padded(&frow[j * V::LANES..]), x);
                }
            }
        }
    });
    scatter_add(&acc[..valid_w], vkv, args.valid_k, out, args.obase, args.kstride, args.wstride);
}

/// `V::load` of `src`, zero-filled past its end when it is shorter than a
/// vector.
#[inline(always)]
fn load_padded<V: SimdVec>(src: &[f32]) -> V {
    if src.len() >= V::LANES {
        V::load(src)
    } else {
        let mut lanes = [0.0; MAX_LANES];
        lanes[..src.len()].copy_from_slice(src);
        V::load(&lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::transform_filter_block;
    use crate::pack::{pack_strip, StripGeom};
    use ndirect_baselines::naive::conv_ordered;
    use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};

    /// The order-matched oracle's output plane (`NCHW`) under `kernel`'s
    /// rounding of the shape's body. A tile covers every channel, so the
    /// oracle's channel tile is `C`.
    fn oracle(input: &Tensor4, filter: &Filter, shape: &ConvShape, kernel: Kernel) -> Vec<f32> {
        let fused = kernel.fused(Body::of(shape.r, shape.s));
        conv_ordered(input, filter, shape, shape.c, fused).as_slice().to_vec()
    }

    /// Asserts that the tile at output row `oh`, pixels `wv..wv + valid_w`,
    /// channels `0..valid_k`, of the `NCHW` plane `got` equals `want`'s.
    #[allow(clippy::too_many_arguments)]
    fn assert_tile_eq(
        got: &[f32],
        want: &[f32],
        shape: &ConvShape,
        oh: usize,
        wv: usize,
        valid_w: usize,
        valid_k: usize,
        what: &str,
    ) {
        let (p, q) = (shape.p(), shape.q());
        for kk in 0..valid_k {
            for wi in wv..wv + valid_w {
                let at = (kk * p + oh) * q + wi;
                assert_eq!(got[at].to_bits(), want[at].to_bits(), "{what}: k={kk} w={wi}");
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_and_check(
        shape: ConvShape,
        vw: usize,
        vk: usize,
        valid_w: usize,
        valid_k: usize,
        fused: bool,
    ) {
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 17);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 17);
        let (k0, oh, wv, ct) = (0, 0, 0, 0);
        let tcb = shape.c;

        let mut tf = vec![0.0; valid_k.div_ceil(vk) * tcb * shape.r * shape.s * vk];
        transform_filter_block(&filter, k0, valid_k.min(vk), ct, tcb, vk, &mut tf);

        let geom = StripGeom::new(&shape, oh, wv, vw);
        let mut buf = vec![0.0; tcb * shape.r * geom.win];
        let image = input.as_slice();

        let (p, q) = (shape.p(), shape.q());
        let valid_k = valid_k.min(vk);
        // Every registry entry, held bitwise to the oracle for its rounding.
        for kernel in Kernel::supported() {
            let mut out_vec = vec![0.0; shape.k * p * q];
            let out = SharedSlice::new(&mut out_vec);
            let args = TileArgs {
                tcb,
                rdim: shape.r,
                sdim: shape.s,
                stride: shape.stride,
                tf: &tf,
                vk,
                obase: (k0 * p + oh) * q + wv,
                kstride: p * q,
                wstride: 1,
                valid_w,
                valid_k,
            };
            if fused {
                let mut rows = RowSource::Gather {
                    image,
                    ct,
                    h: shape.h,
                    w: shape.w,
                    ih0: geom.ih0,
                    iw0: geom.iw0,
                    buf: &mut buf,
                    win: geom.win,
                    rdim: shape.r,
                };
                run_tile(kernel, &mut rows, &args, &out);
            } else {
                pack_strip(image, ct, tcb, shape.r, shape.h, shape.w, geom, &mut buf);
                let mut rows = RowSource::Packed {
                    buf: &buf,
                    win: geom.win,
                    rdim: shape.r,
                };
                run_tile(kernel, &mut rows, &args, &out);
            }
            let want = oracle(&input, &filter, &shape, kernel);
            assert_tile_eq(&out_vec, &want, &shape, oh, wv, valid_w, valid_k, kernel.name());
            // Untouched output stays zero (check one pixel outside the tile).
            if valid_w < q {
                assert_eq!(out_vec[oh * q + wv + valid_w], 0.0);
            }
        }
    }

    /// The three row sources a tile kernel reads.
    #[derive(Clone, Copy, Debug)]
    enum Source {
        Packed,
        Gather,
        Strided,
    }

    /// How a test runs a tile.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        /// [`run_tile`], whichever kernel it picks.
        Tile,
        /// [`run_stamped`], which must find a kernel exactly when `true`
        /// (the dynamic kernel runs when it does not).
        Stamped(bool),
        /// [`dyn_kernel`] alone.
        Dyn,
    }

    /// Runs one tile from `source` via `via`, scattering into an output
    /// plane laid out as `out_layout`, and returns the whole plane in
    /// `NCHW` order, for bitwise comparison.
    #[allow(clippy::too_many_arguments)]
    fn run_with_source(
        kernel: Kernel,
        input: &Tensor4,
        filter: &Filter,
        shape: &ConvShape,
        vk: usize,
        valid_w: usize,
        oh: usize,
        wv: usize,
        source: Source,
        via: Via,
        out_layout: ActLayout,
    ) -> Vec<f32> {
        let (k0, ct) = (0, 0);
        let tcb = shape.c;
        let valid_k = vk.min(shape.k);
        let mut tf = vec![0.0; tcb * shape.r * shape.s * vk];
        transform_filter_block(filter, k0, valid_k, ct, tcb, vk, &mut tf);
        let geom = StripGeom::new(shape, oh, wv, valid_w);
        let (p, q) = (shape.p(), shape.q());
        let (obase, kstride, wstride) = match out_layout {
            ActLayout::Nchw => ((k0 * p + oh) * q + wv, p * q, 1),
            ActLayout::Nhwc => ((oh * q + wv) * shape.k + k0, 1, shape.k),
        };
        let mut out_vec = vec![0.0; shape.k * p * q];
        let out = SharedSlice::new(&mut out_vec);
        let args = TileArgs {
            tcb,
            rdim: shape.r,
            sdim: shape.s,
            stride: shape.stride,
            tf: &tf,
            vk,
            obase,
            kstride,
            wstride,
            valid_w,
            valid_k,
        };
        let run = |rows: &mut RowSource<'_>| match via {
            Via::Tile => run_tile(kernel, rows, &args, &out),
            Via::Stamped(want) => {
                assert_eq!(run_stamped(kernel, rows, &args, &out), want, "stamped kernel?");
                if !want {
                    run_dyn(kernel, rows, &args, &out);
                }
            }
            Via::Dyn => run_dyn(kernel, rows, &args, &out),
        };
        let image = input.as_slice();
        let mut buf = vec![0.0; tcb * shape.r * geom.win];
        match source {
            Source::Packed => {
                pack_strip(image, ct, tcb, shape.r, shape.h, shape.w, geom, &mut buf);
                run(&mut RowSource::Packed { buf: &buf, win: geom.win, rdim: shape.r });
            }
            Source::Gather => run(&mut RowSource::Gather {
                image,
                ct,
                h: shape.h,
                w: shape.w,
                ih0: geom.ih0,
                iw0: geom.iw0,
                buf: &mut buf,
                win: geom.win,
                rdim: shape.r,
            }),
            Source::Strided => {
                // A two-row slice ending at `oh` (one row when oh = 0), so
                // `row_off` is exercised, not just a zero offset.
                let slice_oh0 = oh.saturating_sub(1);
                let slice_len = oh - slice_oh0 + 1;
                let row_win = (q - 1) * shape.stride + shape.s;
                let rows_per_c = (slice_len - 1) * shape.stride + shape.r;
                // The slab holds every full-width input row the slice
                // reads, per channel.
                let ih_base = (slice_oh0 * shape.stride) as isize - shape.pad.h as isize;
                let iw0 = -(shape.pad.w as isize);
                let mut slab = vec![0.0; tcb * rows_per_c * row_win];
                for (i, row) in slab.chunks_exact_mut(row_win).enumerate() {
                    let (c, ir) = (ct + i / rows_per_c, (i % rows_per_c) as isize);
                    gather_row(image, c, ih_base + ir, iw0, shape.h, shape.w, row);
                }
                run(&mut RowSource::Strided {
                    buf: &slab,
                    rows_per_c,
                    row_stride: row_win,
                    row_off: (oh - slice_oh0) * shape.stride,
                    col_off: wv * shape.stride,
                    win: geom.win,
                });
            }
        }
        match out_layout {
            ActLayout::Nchw => out_vec,
            ActLayout::Nhwc => (0..shape.k * p * q)
                .map(|i| out_vec[(i % (p * q)) * shape.k + i / (p * q)])
                .collect(),
        }
    }

    #[test]
    fn declared_tiles_match_dyn_kernel_bitwise() {
        // (shape, vk, valid_w, entries that stamp it): every declared tile
        // at each stride and tail width, then tiles no table declares: a
        // (6, 16), and Vk = 4 and 12, which an 8-lane dynamic kernel runs
        // with a partial last vector.
        let mut cases = Vec::new();
        for (tile, entries) in TILES.iter().zip(TILE_ENTRIES) {
            for stride in [1, 2] {
                let shape = match tile.body {
                    Body::General => {
                        let w = 2 * tile.vw + 3;
                        ConvShape::new(1, 3, 6, w, tile.vk, 3, 3, stride, Padding::same(1))
                    }
                    Body::Pointwise => {
                        let w = 2 * tile.vw;
                        ConvShape::new(1, 3, 4, w, tile.vk, 1, 1, stride, Padding::NONE)
                    }
                };
                for valid_w in 1..=tile.vw {
                    cases.push((shape, tile.vk, valid_w, *entries));
                }
            }
        }
        let none: &[Entry] = &[];
        for (k, vk, valid_w) in [(16, 16, 6), (4, 4, 3), (12, 12, 2)] {
            let off_table = ConvShape::new(1, 2, 6, 12, k, 3, 3, 1, Padding::same(1));
            cases.push((off_table, vk, valid_w, none));
        }
        for (i, (shape, vk, valid_w, entries)) in cases.into_iter().enumerate() {
            let seed = 41 + i as u64;
            let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
            let filter =
                fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed ^ 1);
            let oh = 1;
            let run = |kernel, source, via, out_layout| {
                let (vw, oh, wv) = (valid_w, oh, 0);
                run_with_source(
                    kernel, &input, &filter, &shape, vk, vw, oh, wv, source, via, out_layout,
                )
            };
            for kernel in Kernel::supported() {
                // The entry's dynamic kernel, held to the oracle, is what
                // its stamped kernel, every source and both output
                // addressings (`NCHW`'s `(kstride, wstride) = (P·Q, 1)`,
                // `NHWC`'s `(1, K)`) must match.
                let want = run(kernel, Source::Packed, Via::Dyn, ActLayout::Nchw);
                let what = format!("case {i} ({valid_w}, {vk}) on {}", kernel.name());
                let oracle = oracle(&input, &filter, &shape, kernel);
                assert_tile_eq(&want, &oracle, &shape, oh, 0, valid_w, vk.min(shape.k), &what);
                let via = Via::Stamped(kernel.is_one_of(entries));
                for source in [Source::Packed, Source::Gather, Source::Strided] {
                    for out_layout in [ActLayout::Nchw, ActLayout::Nhwc] {
                        let what = format!("{what}: {source:?} into {out_layout:?}");
                        assert_eq!(run(kernel, source, via, out_layout), want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn strided_source_matches_packed_bitwise() {
        // (shape, vk, valid_w, oh, wv): interior and boundary strips,
        // stride 1 and 2, pointwise, a 7x7, and a dyn-kernel width.
        if Kernel::supported().count() == 1 {
            println!("kernel axis: only {} runs on this host", Kernel::best().name());
        }
        let cases = [
            (ConvShape::new(1, 3, 10, 16, 8, 3, 3, 1, Padding::same(1)), 8, 8, 0, 0),
            (ConvShape::new(1, 3, 10, 16, 8, 3, 3, 1, Padding::same(1)), 8, 8, 5, 8),
            (ConvShape::new(1, 2, 9, 17, 8, 3, 3, 2, Padding::same(1)), 8, 4, 2, 4),
            (ConvShape::new(1, 2, 9, 17, 8, 3, 3, 2, Padding::same(1)), 8, 1, 4, 8),
            (ConvShape::new(1, 4, 6, 12, 8, 1, 1, 1, Padding::NONE), 8, 8, 3, 4),
            (ConvShape::new(1, 2, 12, 18, 4, 7, 7, 1, Padding::same(3)), 4, 8, 0, 0),
            (ConvShape::new(1, 2, 8, 16, 8, 3, 3, 1, Padding::same(1)), 8, 13, 7, 0),
            (ConvShape::new(1, 3, 10, 16, 16, 3, 3, 1, Padding::same(1)), 16, 4, 6, 12),
        ];
        for (i, (shape, vk, valid_w, oh, wv)) in cases.into_iter().enumerate() {
            let seed = 29 + i as u64;
            let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
            let filter =
                fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed ^ 1);
            let run = |kernel, source, via| {
                let out = ActLayout::Nchw;
                run_with_source(
                    kernel, &input, &filter, &shape, vk, valid_w, oh, wv, source, via, out,
                )
            };
            // Under every registry entry: its dynamic kernel equals the
            // oracle, and both sources through `run_tile` equal it.
            for kernel in Kernel::supported() {
                let what = format!("case {i} on {}", kernel.name());
                let dynamic = run(kernel, Source::Packed, Via::Dyn);
                let oracle = oracle(&input, &filter, &shape, kernel);
                assert_tile_eq(&dynamic, &oracle, &shape, oh, wv, valid_w, vk.min(shape.k), &what);
                let packed = run(kernel, Source::Packed, Via::Tile);
                assert_eq!(packed, dynamic, "{what}: Packed differs from the dynamic kernel");
                let strided = run(kernel, Source::Strided, Via::Tile);
                assert_eq!(strided, packed, "{what}: Strided differs from Packed");
            }
        }
    }

    #[test]
    fn w_tail_uses_dyn_kernel() {
        // Width 5 at Vk = 8: off the x86-64 table, a (12, 8) tail on AArch64.
        let shape = ConvShape::new(1, 2, 8, 16, 8, 3, 3, 1, Padding::NONE);
        run_and_check(shape, 8, 8, 5, 8, false);
    }

    #[test]
    fn unusual_schedule_falls_back_to_dyn() {
        // Vw = 6 at Vk = 8: the dynamic kernel wherever the table lacks it.
        let shape = ConvShape::new(1, 2, 8, 14, 8, 3, 3, 1, Padding::NONE);
        run_and_check(shape, 6, 8, 6, 8, false);
    }

    #[test]
    fn full_tile_monomorphized_8x8() {
        let shape = ConvShape::new(1, 3, 10, 16, 8, 3, 3, 1, Padding::NONE);
        run_and_check(shape, 8, 8, 8, 8, false);
    }

    #[test]
    fn full_tile_12x8_paper_config() {
        let shape = ConvShape::new(1, 2, 8, 20, 8, 3, 3, 1, Padding::NONE);
        run_and_check(shape, 12, 8, 12, 8, false);
    }

    #[test]
    fn fused_gather_matches_packed() {
        let shape = ConvShape::new(1, 3, 10, 16, 8, 3, 3, 1, Padding::same(1));
        run_and_check(shape, 8, 8, 8, 8, true);
        run_and_check(shape, 8, 8, 8, 8, false);
    }

    #[test]
    fn k_tail_masks_channels() {
        let shape = ConvShape::new(1, 2, 8, 16, 6, 3, 3, 1, Padding::NONE);
        run_and_check(shape, 8, 8, 8, 6, true);
    }

    #[test]
    fn stride_two_tiles() {
        let shape = ConvShape::new(1, 2, 9, 17, 8, 3, 3, 2, Padding::same(1));
        run_and_check(shape, 4, 8, 4, 8, false);
        run_and_check(shape, 4, 8, 3, 8, true);
    }

    #[test]
    fn pointwise_kernel() {
        let shape = ConvShape::new(1, 4, 6, 12, 8, 1, 1, 1, Padding::NONE);
        run_and_check(shape, 8, 8, 8, 8, false);
    }

    #[test]
    fn seven_by_seven_kernel() {
        let shape = ConvShape::new(1, 2, 12, 18, 4, 7, 7, 1, Padding::same(3));
        run_and_check(shape, 8, 4, 8, 4, true);
    }
}
