//! Input packing: the linear buffer `B` and its gather (§5.3, Figure 3).
//!
//! For one output strip — `Vw` consecutive output pixels of row `oh`, all
//! channels of the current `Tc` tile — the micro-kernel reads
//! `Tc · R · WIN` input elements, where `WIN = (Vw−1)·str + S` is the input
//! footprint of the strip along `W`. In `NCHW` those elements sit in `Tc·R`
//! separate rows; [`gather_row`] copies each row into the dense buffer `B`
//! (zero-filling the parts that fall into padding), after which every
//! subsequent `kv` iteration of loop L7 reads `B` with perfect L1 locality.
//!
//! In [`crate::PackingMode::Fused`] mode the driver never calls a separate
//! packing pass: the first `kv` iteration's kernel gathers each `(c, r)`
//! row right before using it (see [`crate::kernel`]), placing the buffer
//! stores between FMA bursts exactly as the paper places `st` after `fma`
//! to let out-of-order execution hide them.

use crate::conv3d::Conv3dShape;

/// Geometry of one packed strip.
#[derive(Debug, Clone, Copy)]
pub struct StripGeom {
    /// Input elements per `(c, r)` row: `(vw_actual − 1)·str + S`.
    pub win: usize,
    /// First input row of the strip: `oh·str − pad.h` (may be negative).
    pub ih0: isize,
    /// First input column: `wv·str − pad.w` (may be negative).
    pub iw0: isize,
}

impl StripGeom {
    /// Geometry for output row `oh`, starting output column `wv`, strip
    /// width `vw` under `shape`.
    pub fn new(shape: &ndirect_tensor::ConvShape, oh: usize, wv: usize, vw: usize) -> Self {
        StripGeom {
            win: (vw - 1) * shape.stride + shape.s,
            ih0: (oh * shape.stride) as isize - shape.pad.h as isize,
            iw0: (wv * shape.stride) as isize - shape.pad.w as isize,
        }
    }
}

/// Copies `dst.len()` columns starting at signed column `iw0` from `row`
/// (a `w`-column source) into `dst`, zero-filling columns outside `[0, w)`
/// — the shared clipped-copy every row gather in the workspace is built on.
#[inline]
pub fn fill_row_clipped(row: &[f32], iw0: isize, w: usize, dst: &mut [f32]) {
    let win = dst.len();
    // Columns [lo, hi) of dst are in-bounds.
    let lo = (-iw0).max(0) as usize;
    let hi = ((w as isize - iw0).max(0) as usize).min(win);
    if lo >= hi {
        dst.fill(0.0);
        return;
    }
    dst[..lo].fill(0.0);
    let src0 = (iw0 + lo as isize) as usize;
    dst[lo..hi].copy_from_slice(&row[src0..src0 + (hi - lo)]);
    dst[hi..].fill(0.0);
}

/// Copies one `(c, r)` input row into `dst[0..win]`, zero-filling where the
/// row leaves the input (padding). `image` is one image's `CHW` data.
///
/// Split into the out-of-range memset case and an interior `copy_from_slice`
/// (via [`fill_row_clipped`]) so the common unpadded path is a straight
/// memcpy.
#[inline]
pub fn gather_row(
    image: &[f32],
    c: usize,
    ih: isize,
    iw0: isize,
    h: usize,
    w: usize,
    dst: &mut [f32],
) {
    if ih < 0 || ih as usize >= h {
        dst.fill(0.0);
        return;
    }
    let row0 = c * h * w + ih as usize * w;
    fill_row_clipped(&image[row0..row0 + w], iw0, w, dst);
}

/// Packs a whole strip (`tcb` channels × `R` rows) into `buf` — the
/// [`crate::PackingMode::Sequential`] path and the pre-pass for testing.
///
/// `buf` layout: `[c][r][win]`, `c` relative to `ct`.
#[allow(clippy::too_many_arguments)]
pub fn pack_strip(
    image: &[f32],
    ct: usize,
    tcb: usize,
    r: usize,
    h: usize,
    w: usize,
    geom: StripGeom,
    buf: &mut [f32],
) {
    // AUDIT: allow(hotpath-no-panic) O(1) guard protecting the unchecked
    // packing loop below; a failure is a planner sizing bug.
    assert!(buf.len() >= tcb * r * geom.win, "packing buffer too small");
    for c in 0..tcb {
        for rr in 0..r {
            let dst = &mut buf[(c * r + rr) * geom.win..(c * r + rr + 1) * geom.win];
            gather_row(image, ct + c, geom.ih0 + rr as isize, geom.iw0, h, w, dst);
        }
    }
}

/// Packs an `NHWC` strip into the same `[c][r][win]` buffer as
/// [`pack_strip`], so the kernels read both layouts alike — the one pass
/// every `NHWC` strip takes (its plans run [`crate::PackingMode::Sequential`]).
/// `image` is one image's `HWC` data.
pub fn pack_strip_nhwc(
    image: &[f32],
    shape: &ndirect_tensor::ConvShape,
    ct: usize,
    tcb: usize,
    geom: StripGeom,
    buf: &mut [f32],
) {
    let (r, h, w, c, win) = (shape.r, shape.h, shape.w, shape.c, geom.win);
    // AUDIT: allow(hotpath-no-panic) O(1) guard protecting the unchecked
    // packing loop below; a failure is a planner sizing bug.
    assert!(buf.len() >= tcb * r * win, "packing buffer too small");
    // Columns [lo, hi) of the window are in the image.
    let lo = ((-geom.iw0).max(0) as usize).min(win);
    let hi = ((w as isize - geom.iw0).max(0) as usize).min(win);
    for cc in 0..tcb {
        for rr in 0..r {
            let dst = &mut buf[(cc * r + rr) * win..(cc * r + rr + 1) * win];
            let ih = geom.ih0 + rr as isize;
            if ih < 0 || ih as usize >= h || lo == hi {
                dst.fill(0.0);
                continue;
            }
            dst[..lo].fill(0.0);
            dst[hi..].fill(0.0);
            // Channel `ct + cc` of the row's pixels, `C` apart.
            let first = (ih as usize * w + (geom.iw0 + lo as isize) as usize) * c + ct + cc;
            for (d, &x) in dst[lo..hi].iter_mut().zip(image[first..].iter().step_by(c)) {
                *d = x;
            }
        }
    }
}

/// Packs an `NCDHW` strip into the same `[c][r][win]` buffer, `T·R` rows
/// per channel: the one pass every 3-D strip takes (its plans run
/// [`crate::PackingMode::Sequential`] on `Conv3dShape::flat`). Flat output
/// row `oh = od·P + oh'` has its strip origin at depth `od·str − pad_d` and
/// height `oh'·str − pad_h`, and strip row `t·R + r` is the input row `t`
/// deeper and `r` lower, zero outside the volume on any axis. `image` is
/// one volume's `CDHW` data, read as `C·D` planes of `H × W`.
pub(crate) fn pack_strip_ncdhw(
    image: &[f32],
    vol: &Conv3dShape,
    ct: usize,
    tcb: usize,
    oh: usize,
    geom: StripGeom,
    buf: &mut [f32],
) {
    let rdim = vol.t * vol.r;
    let StripGeom { win, iw0, .. } = geom;
    // AUDIT: allow(hotpath-no-panic) O(1) guard: a short buffer would leave
    // strip rows unpacked; a failure is a planner sizing bug.
    assert!(buf.len() >= tcb * rdim * win, "packing buffer too small");
    let id0 = ((oh / vol.p()) * vol.stride) as isize - vol.pad_d as isize;
    let ih0 = ((oh % vol.p()) * vol.stride) as isize - vol.pad_h as isize;
    for (row, dst) in buf.chunks_exact_mut(win).take(tcb * rdim).enumerate() {
        let (c, t, r) = (ct + row / rdim, row % rdim / vol.r, row % vol.r);
        let ih = ih0 + r as isize;
        match usize::try_from(id0 + t as isize) {
            Ok(id) if id < vol.d => gather_row(image, c * vol.d + id, ih, iw0, vol.h, vol.w, dst),
            _ => dst.fill(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, ActLayout, ConvShape, Padding, Tensor4};

    fn image(c: usize, h: usize, w: usize) -> Vec<f32> {
        let mut t = Tensor4::zeros(1, c, h, w, ActLayout::Nchw);
        fill::fill_iota(t.as_mut_slice());
        t.as_slice().to_vec()
    }

    #[test]
    fn interior_row_is_plain_copy() {
        let img = image(1, 4, 5);
        let mut dst = vec![9.0; 3];
        gather_row(&img, 0, 1, 1, 4, 5, &mut dst);
        assert_eq!(dst, vec![6.0, 7.0, 8.0]);
    }

    #[test]
    fn negative_row_zero_fills() {
        let img = image(1, 4, 5);
        let mut dst = vec![9.0; 3];
        gather_row(&img, 0, -1, 0, 4, 5, &mut dst);
        assert_eq!(dst, vec![0.0; 3]);
    }

    #[test]
    fn left_edge_zero_fills_prefix() {
        let img = image(1, 4, 5);
        let mut dst = vec![9.0; 4];
        gather_row(&img, 0, 0, -2, 4, 5, &mut dst);
        assert_eq!(dst, vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn right_edge_zero_fills_suffix() {
        let img = image(1, 4, 5);
        let mut dst = vec![9.0; 4];
        gather_row(&img, 0, 0, 3, 4, 5, &mut dst);
        assert_eq!(dst, vec![3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn second_channel_offsets_correctly() {
        let img = image(3, 2, 2);
        let mut dst = vec![0.0; 2];
        gather_row(&img, 2, 1, 0, 2, 2, &mut dst);
        assert_eq!(dst, vec![10.0, 11.0]);
    }

    #[test]
    fn strip_geometry_for_stride_two() {
        let shape = ConvShape::new(1, 1, 9, 9, 1, 3, 3, 2, Padding::same(1));
        let g = StripGeom::new(&shape, 2, 1, 4);
        // WIN = 3*2 + 3 = 9; ih0 = 2*2-1 = 3; iw0 = 1*2-1 = 1.
        assert_eq!(g.win, 9);
        assert_eq!(g.ih0, 3);
        assert_eq!(g.iw0, 1);
    }

    #[test]
    fn nhwc_strip_packs_like_the_nchw_strip() {
        // Padding on both sides, stride 2, and a channel window inside C.
        let shape = ConvShape::new(1, 5, 7, 9, 1, 3, 3, 2, Padding::same(1));
        let mut nchw = Tensor4::zeros(1, 5, 7, 9, ActLayout::Nchw);
        fill::fill_iota(nchw.as_mut_slice());
        let nhwc = nchw.to_layout(ActLayout::Nhwc);
        for (oh, wv, vw) in [(0, 0, 4), (1, 2, 3), (3, 4, 1)] {
            let g = StripGeom::new(&shape, oh, wv, vw);
            let (ct, tcb) = (1, 3);
            let mut want = vec![7.0; tcb * shape.r * g.win];
            let mut got = vec![7.0; tcb * shape.r * g.win];
            pack_strip(nchw.as_slice(), ct, tcb, shape.r, shape.h, shape.w, g, &mut want);
            pack_strip_nhwc(nhwc.as_slice(), &shape, ct, tcb, g, &mut got);
            assert_eq!(got, want, "oh={oh} wv={wv} vw={vw}");
        }
    }

    #[test]
    fn ncdhw_strip_packs_each_depth_like_the_nchw_strip() {
        // Stride 2 and padding on every axis, a channel window inside C:
        // strip rows `t·R..(t+1)·R` are the NCHW strip of plane
        // `c·D + id0 + t`, or zeros where that depth is padding.
        let vol = Conv3dShape {
            n: 1, c: 3, d: 5, h: 7, w: 9, k: 1, t: 3, r: 3, s: 3,
            stride: 2, pad_d: 1, pad_h: 1, pad_w: 1,
        };
        let img = image(vol.c * vol.d, vol.h, vol.w);
        let plane = ConvShape::new(1, 1, vol.h, vol.w, 1, vol.r, vol.s, 2, Padding::same(1));
        let (p, (ct, tcb)) = (vol.p(), (1, 2));
        // Output depths 0 (front padding), 1 and 2 (back padding).
        for (oh, wv, vw) in [(0, 0, 4), (p + 2, 1, 3), (2 * p + 3, 3, 1)] {
            let g = StripGeom::new(&plane, oh % p, wv, vw);
            let rows = vol.r * g.win;
            let mut got = vec![7.0; tcb * vol.t * rows];
            pack_strip_ncdhw(&img, &vol, ct, tcb, oh, g, &mut got);
            for (i, got) in got.chunks_exact(rows).enumerate() {
                let (c, t) = (ct + i / vol.t, i % vol.t);
                let id = ((oh / p) * vol.stride + t) as isize - vol.pad_d as isize;
                let mut want = vec![0.0; rows];
                if (0..vol.d as isize).contains(&id) {
                    let c_plane = c * vol.d + id as usize;
                    pack_strip(&img, c_plane, 1, vol.r, vol.h, vol.w, g, &mut want);
                }
                assert_eq!(got, want, "oh={oh} c={c} t={t}");
            }
        }
    }

    #[test]
    fn pack_strip_matches_manual_gather() {
        let shape = ConvShape::new(1, 2, 5, 5, 1, 3, 3, 1, Padding::same(1));
        let img = image(2, 5, 5);
        let g = StripGeom::new(&shape, 0, 0, 4);
        let mut buf = vec![7.0; 2 * 3 * g.win];
        pack_strip(&img, 0, 2, 3, 5, 5, g, &mut buf);
        // (c=0, r=0) is input row -1: zeros.
        assert!(buf[..g.win].iter().all(|&x| x == 0.0));
        // (c=0, r=1) is input row 0 starting at col -1.
        assert_eq!(&buf[g.win..g.win + 3], &[0.0, 0.0, 1.0]);
        // (c=1, r=2) is channel 1, input row 1.
        let off = (3 + 2) * g.win;
        assert_eq!(buf[off], 0.0);
        assert_eq!(buf[off + 1], 30.0);
    }
}
