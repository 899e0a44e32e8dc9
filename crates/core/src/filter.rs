//! The on-the-fly filter layout transform (Algorithm 2, line 5).
//!
//! nDirect's layout-compatibility story rests on transforming only the
//! *filter* tensor: `F` is small relative to the activations
//! (`K ≪ N·H·W`), is reused across every output pixel of the block, and is
//! read by the micro-kernel as dense `Vk`-vectors of *output channels*.
//! Each `Tk × Tc` block of the `KCRS` filter is rewritten as
//! `[kv][c][r][s][Vk]` — `⌈Tk/Vk⌉ · Tc · R · S · Vk` floats with the `K`
//! remainder zero-padded — either per cache block inside loop L4 (the
//! paper's on-the-fly mode) or once for the whole filter (the
//! pre-transformed ablation; same inner layout, so the micro-kernel is
//! oblivious to the choice).

use ndirect_tensor::{AlignedBuf, Filter};

/// Writes the transform of the filter block `k ∈ [kt, kt+tkb)`,
/// `c ∈ [ct, ct+tcb)` into `out`, laid out `[kv][c][r][s][Vk]` with
/// zero-padding in the trailing partial `kv` group.
///
/// `out` must hold `⌈tkb/vk⌉ · tcb · r · s · vk` floats.
pub fn transform_filter_block(
    filter: &Filter,
    kt: usize,
    tkb: usize,
    ct: usize,
    tcb: usize,
    vk: usize,
    out: &mut [f32],
) {
    let (k, c, r, s) = filter.dims();
    // AUDIT: allow(hotpath-no-panic) O(1) shape guard at block entry.
    assert!(kt + tkb <= k && ct + tcb <= c, "block out of range");
    // AUDIT: allow(hotpath-no-panic) O(1) shape guard at block entry.
    assert!(vk >= 1);
    let kvb = tkb.div_ceil(vk);
    let needed = kvb * tcb * r * s * vk;
    // AUDIT: allow(hotpath-no-panic) O(1) guard protecting the unchecked
    // transform loop below; a failure is a planner sizing bug.
    assert!(out.len() >= needed, "transform buffer too small");
    for kv in 0..kvb {
        let lanes = vk.min(tkb - kv * vk);
        for cc in 0..tcb {
            for rr in 0..r {
                for ss in 0..s {
                    let base = (((kv * tcb + cc) * r + rr) * s + ss) * vk;
                    let dst = &mut out[base..base + vk];
                    for (l, d) in dst.iter_mut().enumerate().take(lanes) {
                        *d = filter.at(kt + kv * vk + l, ct + cc, rr, ss);
                    }
                    for d in dst[lanes..].iter_mut() {
                        *d = 0.0;
                    }
                }
            }
        }
    }
}

/// A whole filter pre-transformed into `[⌈K/Vk⌉][C][R][S][Vk]` — the
/// [`crate::FilterState::PreTransformed`] ablation. Because `c` is the
/// second dimension, the slice for any `(kv, ct..ct+tcb)` block is
/// contiguous and identical to what [`transform_filter_block`] produces, so
/// the micro-kernel consumes both without distinction.
pub struct TransformedFilter {
    data: AlignedBuf,
    k: usize,
    c: usize,
    r: usize,
    s: usize,
    vk: usize,
}

impl TransformedFilter {
    /// Transforms the whole filter. Aborts on allocation failure; plan
    /// building uses [`TransformedFilter::try_new`] to degrade instead.
    pub fn new(filter: &Filter, vk: usize) -> Self {
        match Self::try_new(filter, vk) {
            Ok(tf) => tf,
            // Mirror AlignedBuf::zeroed's abort-on-OOM convention.
            Err(len) => std::alloc::handle_alloc_error(
                std::alloc::Layout::array::<f32>(len.min(isize::MAX as usize))
                    .unwrap_or_else(|_| std::alloc::Layout::new::<f32>()),
            ),
        }
    }

    /// Fallible whole-filter transform: returns `Err(elements)` when the
    /// buffer size overflows or the allocator refuses, so a caller (plan
    /// building) can surface a typed error instead of aborting.
    pub fn try_new(filter: &Filter, vk: usize) -> Result<Self, usize> {
        let (k, c, r, s) = filter.dims();
        let kvb = k.div_ceil(vk);
        let len = kvb
            .checked_mul(c)
            .and_then(|x| x.checked_mul(r))
            .and_then(|x| x.checked_mul(s))
            .and_then(|x| x.checked_mul(vk))
            .ok_or(usize::MAX)?;
        let mut data = AlignedBuf::try_zeroed(len)?;
        for kv in 0..kvb {
            let lanes = vk.min(k - kv * vk);
            for cc in 0..c {
                for rr in 0..r {
                    for ss in 0..s {
                        let base = (((kv * c + cc) * r + rr) * s + ss) * vk;
                        for l in 0..lanes {
                            data[base + l] = filter.at(kv * vk + l, cc, rr, ss);
                        }
                    }
                }
            }
        }
        Ok(Self { data, k, c, r, s, vk })
    }

    /// The contiguous `[c-relative][r][s][vk]` slice for the `kv`-th group
    /// restricted to channels `ct..ct+tcb`, with its channel stride
    /// (`r·s·vk`).
    ///
    /// Note: restricting channels keeps the *start* contiguous but the
    /// slice still spans the full-C layout, so the caller receives the
    /// correctly-offset window whose per-channel stride equals the
    /// on-the-fly block's — both layouts index as `((c·R + r)·S + s)·Vk`.
    pub fn block(&self, kv: usize, ct: usize, tcb: usize) -> &[f32] {
        // AUDIT: allow(hotpath-no-panic) O(1) block-bounds guard.
        assert!(ct + tcb <= self.c);
        let start = (kv * self.c + ct) * self.r * self.s * self.vk;
        let len = tcb * self.r * self.s * self.vk;
        &self.data[start..start + len]
    }

    /// Number of `kv` groups.
    pub fn kv_blocks(&self) -> usize {
        self.k.div_ceil(self.vk)
    }

    /// `Vk` the filter was transformed for.
    pub fn vk(&self) -> usize {
        self.vk
    }
}

/// Transforms a complete filter (convenience for [`TransformedFilter::new`]).
pub fn transform_filter(filter: &Filter, vk: usize) -> TransformedFilter {
    TransformedFilter::new(filter, vk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, FilterLayout};

    fn sample_filter(k: usize, c: usize, r: usize, s: usize) -> Filter {
        let mut f = Filter::zeros(k, c, r, s, FilterLayout::Kcrs);
        fill::fill_iota(f.as_mut_slice());
        f
    }

    #[test]
    fn block_transform_layout() {
        let f = sample_filter(8, 2, 1, 1);
        let mut out = vec![0.0; 2 * 2 * 4];
        transform_filter_block(&f, 0, 8, 0, 2, 4, &mut out);
        // kv=0, c=0: channels k=0..4 at (c=0): F[k][0][0][0] = k*2.
        assert_eq!(&out[0..4], &[0.0, 2.0, 4.0, 6.0]);
        // kv=0, c=1: F[k][1][0][0] = k*2+1.
        assert_eq!(&out[4..8], &[1.0, 3.0, 5.0, 7.0]);
        // kv=1, c=0: k=4..8.
        assert_eq!(&out[8..12], &[8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn block_transform_zero_pads_k_remainder() {
        let f = sample_filter(6, 1, 1, 1);
        let mut out = vec![9.0; 2 * 4];
        transform_filter_block(&f, 0, 6, 0, 1, 4, &mut out);
        assert_eq!(&out[4..8], &[4.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn block_transform_respects_offsets() {
        let f = sample_filter(8, 4, 1, 1);
        let mut out = vec![0.0; 2 * 4];
        // Block k in [4, 8), c in [1, 3).
        transform_filter_block(&f, 4, 4, 1, 2, 4, &mut out);
        assert_eq!(out[0], f.at(4, 1, 0, 0));
        assert_eq!(out[4], f.at(4, 2, 0, 0));
        assert_eq!(out[3], f.at(7, 1, 0, 0));
    }

    #[test]
    fn pretransformed_full_c_matches_block_transform() {
        let f = sample_filter(12, 3, 3, 3);
        let tf = TransformedFilter::new(&f, 8);
        assert_eq!(tf.kv_blocks(), 2);
        // Full-C block of kv=0 equals the on-the-fly transform of the same
        // block.
        let mut otf = vec![0.0; 2 * 3 * 3 * 3 * 8];
        transform_filter_block(&f, 0, 12, 0, 3, 8, &mut otf);
        let kv_len = 3 * 3 * 3 * 8;
        assert_eq!(tf.block(0, 0, 3), &otf[0..kv_len]);
        assert_eq!(tf.block(1, 0, 3), &otf[kv_len..2 * kv_len]);
    }

    #[test]
    fn pretransformed_sub_block_is_channel_window() {
        let f = sample_filter(4, 5, 2, 2);
        let tf = TransformedFilter::new(&f, 4);
        let blk = tf.block(0, 2, 2);
        // First element: k=0, c=2, r=0, s=0.
        assert_eq!(blk[0], f.at(0, 2, 0, 0));
        assert_eq!(blk.len(), 2 * 2 * 2 * 4);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn rejects_out_of_range_block() {
        let f = sample_filter(4, 4, 1, 1);
        let mut out = vec![0.0; 64];
        transform_filter_block(&f, 2, 4, 0, 4, 4, &mut out);
    }
}
