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
//!   LLVM lowers to `ld1r`/lane-`fmla` on NEON and, under the `avx2`
//!   registry entry, to a load-port `vbroadcastss`) — the outer-product
//!   update that gives direct convolution a higher FAI than a GEMM-shaped
//!   inner product;
//! * the **output** tile lives entirely in `Vw · Vk/4` accumulator
//!   registers until the final read-add-write scatter into `NCHW`.
//!
//! [`RowSource::Gather`] fuses §5.3's packing into the first `kv`
//! iteration: each `(c, r)` input row is gathered into `B` immediately
//! before its FMA burst, so the buffer stores overlap with computation
//! exactly as the paper interleaves `st` with `fma`.

use ndirect_simd::{F32x4, SimdVec};
use ndirect_threads::SharedSlice;

use crate::microkernel::Kernel;
use crate::pack::gather_row;

/// Upper bound on `Vw` the dynamic kernel supports.
pub const VW_MAX: usize = 32;
/// Upper bound on `Vk/4` the dynamic kernel supports.
pub const VKV_MAX: usize = 8;

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
    /// Read rows out of a cache-resident slice slab packed by
    /// [`crate::pack::pack_slice_slab`] (`[c][ih_rel][row_stride]` layout):
    /// the [`crate::PackingMode::Sliced`] path. Each strip row is a
    /// contiguous `win`-element sub-slice of one slab row, so the kernels
    /// run unchanged — only the addressing differs from `Packed`.
    Strided {
        /// The slab (`[c][ih_rel][row_stride]`, `c` relative to the tile).
        buf: &'a [f32],
        /// Slab rows per channel (`(slice_len−1)·stride + R`).
        rows_per_c: usize,
        /// Elements per slab row (`(Q−1)·stride + S`).
        row_stride: usize,
        /// First slab row of this strip's window (`(oh − slice_oh0)·stride`).
        row_off: usize,
        /// Column offset of this strip's window inside a slab row
        /// (`wv·stride`).
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
    /// Distance between consecutive output channels (`P·Q` for `NCHW`).
    pub kstride: usize,
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

/// The x86-64 tile table (and that of every target but AArch64): what
/// Eqs. 3–4 derive for 16 registers without lane FMA, `(4, 8)` for
/// `S ≥ 2` and `(4, 12)` for 1×1. Each line is a tile and the widths
/// stamped for it, the `Q`-tails `1..=Vw` at the same `Vk`.
macro_rules! x86_64_tiles {
    ($stamp:ident) => {
        $stamp! {
            general (4, 8): 1 2 3 4;
            pointwise (4, 12): 1 2 3 4;
        }
    };
}

/// The AArch64 tile table: `optimal_tile(NEON, s)` for `s = 1..=7`.
/// `(20, 4)` stamps no widths of its own; they are `(24, 4)`'s tails.
macro_rules! aarch64_tiles {
    ($stamp:ident) => {
        $stamp! {
            pointwise (8, 12): 1 2 3 4 5 6 7 8;
            general (12, 8): 1 2 3 4 5 6 7 8 9 10 11 12;
            general (24, 4): 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24;
            general (20, 4): ;
        }
    };
}

#[cfg(not(target_arch = "aarch64"))]
pub(crate) use x86_64_tiles as arch_tiles;
#[cfg(target_arch = "aarch64")]
pub(crate) use aarch64_tiles as arch_tiles;

/// A table line's body as a [`Body`].
macro_rules! body {
    (general) => { Body::General };
    (pointwise) => { Body::Pointwise };
}

/// A table as a `&[Tile]`.
macro_rules! tile_list {
    ($($body:ident ($vw:literal, $vk:literal): $($w:literal)*;)+) => {
        &[$(Tile { vw: $vw, vk: $vk, body: body!($body) }),+]
    };
}

/// The x86-64 tiles, as data on every target.
pub const X86_64_TILES: &[Tile] = x86_64_tiles!(tile_list);
/// The AArch64 tiles, as data on every target.
pub const AARCH64_TILES: &[Tile] = aarch64_tiles!(tile_list);
/// The tiles this build monomorphises. Every other `(Vw, Vk)` runs on
/// the dynamic kernel, at the same bits.
pub const TILES: &[Tile] = arch_tiles!(tile_list);

/// The declared `(Vw, Vk)` pairs that serve an `R × S` filter.
pub fn tiles_for(rdim: usize, sdim: usize) -> impl Iterator<Item = (usize, usize)> {
    TILES.iter().filter(move |t| t.body == Body::of(rdim, sdim)).map(|t| (t.vw, t.vk))
}

/// Clamps a register tile into the dynamic kernel's bounds (`VW_MAX`,
/// `4·VKV_MAX`, `Vk` a multiple of 4): the one clamp every schedule
/// passes through, so any tile executes, declared or not.
pub fn clamp_tile((vw, vk): (usize, usize)) -> (usize, usize) {
    (vw.clamp(1, VW_MAX), (vk.max(4) / 4 * 4).min(4 * VKV_MAX))
}

/// Stamps [`run_tile`]'s dispatch from a table: each line's widths at its
/// `Vk`, strides 1 and 2, its body only.
///
/// Each arm is one out-of-line frame per registry entry. With the entry's
/// frame around all of [`run_tile`] instead, or around a plan's whole loop
/// nest, `avx2` measured 0.96–1.09× of `sse`; here 3×3 stride-1 layers
/// run 1.38–1.44× faster.
macro_rules! stamp_run_tile {
    ($($body:ident ($vw:literal, $vk:literal): $($w:literal)*;)+) => {
        /// Runs the stamped kernel for the tile's body, `Vk`, live width
        /// and stride; `false` when there is none.
        #[inline(always)]
        fn run_stamped(
            kernel: Kernel,
            rows: &mut RowSource<'_>,
            args: &TileArgs<'_>,
            out: &SharedSlice<'_, f32>,
        ) -> bool {
            match (Body::of(args.rdim, args.sdim), args.vk, args.valid_w, args.stride) {
                $($(
                    (body!($body), $vk, $w, 1) => kernel.run(#[inline(always)] || {
                        $body::<$w, { $vk / 4 }, 1>(rows, args, out)
                    }),
                    (body!($body), $vk, $w, 2) => kernel.run(#[inline(always)] || {
                        $body::<$w, { $vk / 4 }, 2>(rows, args, out)
                    }),
                )*)+
                _ => return false,
            }
            true
        }
    };
}

arch_tiles!(stamp_run_tile);

/// Runs one tile compiled for `kernel`, the registry entry the caller's
/// plan chose: the stamped kernel when [`TILES`] has one for its body,
/// `Vk`, live width and stride, else the dynamic kernel.
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
        kernel.run(#[inline(always)] || dyn_kernel(rows, args, out));
    }
}

/// A stamped [`Body::General`] tile: `VW` pixels × `VKV·4` channels,
/// accumulators pinned in registers for the whole `(c, r, s)` reduction,
/// then the scatter. `STRIDE` is also a const so every input index is a
/// compile-time offset.
#[inline(always)]
fn general<const VW: usize, const VKV: usize, const STRIDE: usize>(
    rows: &mut RowSource<'_>,
    args: &TileArgs<'_>,
    out: &SharedSlice<'_, f32>,
) {
    debug_assert_eq!((args.vk, args.stride, args.valid_w), (VKV * 4, STRIDE, VW));
    let sdim = args.sdim;
    let mut acc = [[F32x4::zero(); VKV]; VW];
    rows.for_each_row(args, (VW - 1) * STRIDE + sdim, #[inline(always)] |tfr, brow| {
        kernel_row::<VW, VKV, STRIDE>(&mut acc, brow, tfr, sdim)
    });
    scatter_add(&acc, VKV, args.valid_k, out, args.obase, args.kstride, 1);
}

/// A stamped [`Body::Pointwise`] tile: the `R = S = 1` case of the same
/// walk and scatter, with those as constants. One single-tap row per
/// channel feeds only `Vw·Vk/4` FMAs on a register tile sized to fill the
/// file, and the runtime tap loop costs the accumulators their registers
/// (`core.gflops_1x1` fell 29 % without this). Stamping only the body a
/// tile serves keeps one frame per instantiation; when both bodies shared
/// a frame, the general one lost its register allocation.
#[inline(always)]
fn pointwise<const VW: usize, const VKV: usize, const STRIDE: usize>(
    rows: &mut RowSource<'_>,
    args: &TileArgs<'_>,
    out: &SharedSlice<'_, f32>,
) {
    general::<VW, VKV, STRIDE>(rows, &TileArgs { rdim: 1, sdim: 1, vk: VKV * 4, ..*args }, out);
}

/// The read-add-write scatter every f32 kernel ends with: accumulator
/// `acc[wi]` vector `j` lane `l` is output channel `j·4 + l` of pixel `wi`,
/// at `obase + channel·kstride + wi·wstride` (`NCHW`: pixels contiguous
/// along `Q`, channels `P·Q` apart; `NHWC`: the transpose). `valid_k` masks
/// the zero-padded filter lanes of a `K`-tail block.
#[inline(always)]
pub(crate) fn scatter_add<const J: usize>(
    acc: &[[F32x4; J]],
    vkv: usize,
    valid_k: usize,
    out: &SharedSlice<'_, f32>,
    obase: usize,
    kstride: usize,
    wstride: usize,
) {
    for (wi, accw) in acc.iter().enumerate() {
        for (j, v) in accw.iter().enumerate().take(vkv) {
            for (l, &x) in v.to_array().iter().enumerate() {
                let k_local = j * 4 + l;
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
fn kernel_row<const VW: usize, const VKV: usize, const STRIDE: usize>(
    acc: &mut [[F32x4; VKV]; VW],
    brow: &[f32],
    tfr: &[f32],
    sdim: usize,
) {
    let vk = VKV * 4;
    for ss in 0..sdim {
        let frow = &tfr[ss * vk..(ss + 1) * vk];
        let mut fv = [F32x4::zero(); VKV];
        for (j, v) in fv.iter_mut().enumerate() {
            *v = F32x4::load(&frow[j * 4..]);
        }
        // One slice whose length the optimizer can see, so the constant-
        // offset reads below are check-free.
        let seg = &brow[ss..ss + (VW - 1) * STRIDE + 1];
        for wi in 0..VW {
            let x = F32x4::splat(seg[wi * STRIDE]);
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
/// [`kernel_row`], so it gives the stamped kernels' bits.
#[inline(always)]
fn dyn_kernel(rows: &mut RowSource<'_>, args: &TileArgs<'_>, out: &SharedSlice<'_, f32>) {
    let vk = args.vk;
    let vkv = vk / 4;
    // AUDIT: allow(hotpath-no-panic) O(1) tile-entry guard sizing the
    // fixed accumulator array; every `acc` subscript below relies on it.
    assert!(args.valid_w <= VW_MAX && vkv <= VKV_MAX, "tile exceeds dyn kernel bounds");
    let (sdim, stride, valid_w) = (args.sdim, args.stride, args.valid_w);
    let mut acc = [[F32x4::zero(); VKV_MAX]; VW_MAX];
    rows.for_each_row(args, (valid_w - 1) * stride + sdim, #[inline(always)] |tfr, brow| {
        for ss in 0..sdim {
            for (wi, accw) in acc.iter_mut().enumerate().take(valid_w) {
                // INDEX: wi·stride + ss < win ≤ brow.len(), the window the
                // walk was asked for.
                let x = F32x4::splat(brow[wi * stride + ss]);
                for (j, a) in accw.iter_mut().enumerate().take(vkv) {
                    *a = a.fma(F32x4::load(&tfr[ss * vk + j * 4..]), x);
                }
            }
        }
    });
    scatter_add(&acc[..valid_w], vkv, args.valid_k, out, args.obase, args.kstride, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::transform_filter_block;
    use crate::pack::{pack_strip, StripGeom};
    use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};

    /// Scalar reference for one tile.
    #[allow(clippy::too_many_arguments)]
    fn reference_tile(
        input: &Tensor4,
        filter: &Filter,
        shape: &ConvShape,
        n: usize,
        k0: usize,
        oh: usize,
        wv: usize,
        valid_w: usize,
        valid_k: usize,
        ct: usize,
        tcb: usize,
    ) -> Vec<f32> {
        let mut tile = vec![0.0; valid_k * valid_w];
        for kk in 0..valid_k {
            for wi in 0..valid_w {
                let mut acc = 0.0;
                for c in ct..ct + tcb {
                    for rr in 0..shape.r {
                        for ss in 0..shape.s {
                            let ih = (oh * shape.stride) as isize - shape.pad.h as isize
                                + rr as isize;
                            let iw = ((wv + wi) * shape.stride) as isize
                                - shape.pad.w as isize
                                + ss as isize;
                            let x = ndirect_tensor::pad::at_padded(input, n, c, ih, iw);
                            acc += x * filter.at(k0 + kk, c, rr, ss);
                        }
                    }
                }
                tile[kk * valid_w + wi] = acc;
            }
        }
        tile
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
        let (n, k0, oh, wv, ct) = (0, 0, 0, 0, 0);
        let tcb = shape.c;

        let mut tf = vec![0.0; valid_k.div_ceil(vk) * tcb * shape.r * shape.s * vk];
        transform_filter_block(&filter, k0, valid_k.min(vk), ct, tcb, vk, &mut tf);

        let geom = StripGeom::new(&shape, oh, wv, vw);
        let mut buf = vec![0.0; tcb * shape.r * geom.win];
        let image = input.as_slice();

        let (p, q) = (shape.p(), shape.q());
        let valid_k = valid_k.min(vk);
        // Every registry entry, held bitwise to the baseline (the first).
        let mut run = |kernel| {
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
            out_vec
        };
        let outs: Vec<_> = Kernel::supported().map(|k| (k, run(k))).collect();
        let out_vec = &outs[0].1;
        for (kernel, got) in &outs {
            assert_eq!(got, out_vec, "{} vs {}", kernel.name(), outs[0].0.name());
        }

        let expect = reference_tile(
            &input, &filter, &shape, n, k0, oh, wv, valid_w, valid_k, ct, tcb,
        );
        for kk in 0..valid_k {
            for wi in 0..valid_w {
                let got = out_vec[(k0 + kk) * p * q + oh * q + wv + wi];
                let want = expect[kk * valid_w + wi];
                assert!(
                    (got - want).abs() <= 2e-4 * want.abs().max(1.0),
                    "k={kk} w={wi}: {got} vs {want}"
                );
            }
        }
        // Untouched output stays zero (check one pixel outside the tile).
        if valid_w < q {
            assert_eq!(out_vec[oh * q + wv + valid_w], 0.0);
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

    /// Runs one tile from `source` via `via` and returns the whole output
    /// plane, for bitwise comparison.
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
    ) -> Vec<f32> {
        let (k0, ct) = (0, 0);
        let tcb = shape.c;
        let valid_k = vk.min(shape.k);
        let mut tf = vec![0.0; tcb * shape.r * shape.s * vk];
        transform_filter_block(filter, k0, valid_k, ct, tcb, vk, &mut tf);
        let geom = StripGeom::new(shape, oh, wv, valid_w);
        let (p, q) = (shape.p(), shape.q());
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
            valid_w,
            valid_k,
        };
        let run = |rows: &mut RowSource<'_>| match via {
            Via::Tile => run_tile(kernel, rows, &args, &out),
            Via::Stamped(want) => {
                assert_eq!(run_stamped(kernel, rows, &args, &out), want, "stamped kernel?");
                if !want {
                    kernel.run(|| dyn_kernel(rows, &args, &out));
                }
            }
            Via::Dyn => kernel.run(|| dyn_kernel(rows, &args, &out)),
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
                let slab_rows = (slice_len - 1) * shape.stride + shape.r;
                let mut slab = vec![0.0; tcb * slab_rows * row_win];
                crate::pack::pack_slice_slab(
                    image, ct, tcb, shape, slice_oh0, slice_len, &mut slab,
                );
                run(&mut RowSource::Strided {
                    buf: &slab,
                    rows_per_c: slab_rows,
                    row_stride: row_win,
                    row_off: (oh - slice_oh0) * shape.stride,
                    col_off: wv * shape.stride,
                    win: geom.win,
                });
            }
        }
        out_vec
    }

    #[test]
    fn declared_tiles_match_dyn_kernel_bitwise() {
        // (shape, vk, valid_w, stamped): every declared tile at each stride
        // and tail width, then a Vk = 16 tile no table declares.
        let mut cases = Vec::new();
        for tile in TILES {
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
                    cases.push((shape, tile.vk, valid_w, true));
                }
            }
        }
        let off_table = ConvShape::new(1, 2, 6, 12, 16, 3, 3, 1, Padding::same(1));
        cases.push((off_table, 16, 6, false));
        for (i, (shape, vk, valid_w, want_stamped)) in cases.into_iter().enumerate() {
            let via = Via::Stamped(want_stamped);
            let seed = 41 + i as u64;
            let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
            let filter =
                fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed ^ 1);
            let oh = 1;
            let run = |kernel, source, via| {
                run_with_source(kernel, &input, &filter, &shape, vk, valid_w, oh, 0, source, via)
            };
            // The dynamic kernel on the baseline entry, checked against the
            // scalar reference, is what every entry and source must match.
            let baseline = Kernel::supported().next().expect("the baseline runs");
            let want = run(baseline, Source::Packed, Via::Dyn);
            let expect =
                reference_tile(&input, &filter, &shape, 0, 0, oh, 0, valid_w, vk, 0, shape.c);
            let (p, q) = (shape.p(), shape.q());
            for kk in 0..vk.min(shape.k) {
                for wi in 0..valid_w {
                    let (got, exp) = (want[(kk * p + oh) * q + wi], expect[kk * valid_w + wi]);
                    assert!((got - exp).abs() <= 2e-4 * exp.abs().max(1.0), "case {i}");
                }
            }
            for kernel in Kernel::supported() {
                for source in [Source::Packed, Source::Gather, Source::Strided] {
                    let what = format!("case {i} ({valid_w}, {vk}) {source:?}, {}", kernel.name());
                    assert_eq!(run(kernel, source, via), want, "{what}");
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
        ];
        for (i, (shape, vk, valid_w, oh, wv)) in cases.into_iter().enumerate() {
            let seed = 29 + i as u64;
            let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
            let filter =
                fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed ^ 1);
            let run = |kernel, strided| {
                let source = if strided { Source::Strided } else { Source::Packed };
                let via = Via::Tile;
                run_with_source(kernel, &input, &filter, &shape, vk, valid_w, oh, wv, source, via)
            };
            let packed = run(Kernel::supported().next().expect("the baseline runs"), false);
            // Both sources under every registry entry, bitwise.
            for kernel in Kernel::supported() {
                let what = format!("case {i} on {}", kernel.name());
                assert_eq!(run(kernel, false), packed, "{what}: Packed differs");
                assert_eq!(run(kernel, true), packed, "{what}: Strided differs from Packed");
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
