//! The MobileNetV1 depthwise-separable workload table.
//!
//! Howard et al., 2017 (arXiv 1704.04861), Table 1: after the full
//! 3×3 stem, the body is 13 repetitions of the depthwise-separable block —
//! a `3×3` depthwise conv (stride 1 or 2, same padding) followed by a
//! `1×1` pointwise conv that mixes channels. `ndirect-core` runs each
//! pair as a `DepthwisePlan` feeding a 1×1 `ConvPlan` (`FusedDwPwPlan`
//! holds the two); each pair is memory-bound, a handful of FLOPs per byte
//! of the `(N, C, P, Q)` intermediate the two stages pass.
//!
//! Same conventions as [`crate::table4`]: rows are `(ID, C, K, H/W, str)`
//! with `R/S = 3` and same padding fixed by the architecture, FP32
//! everywhere, batch size chosen by the harness.

use ndirect_tensor::{ConvShape, Padding};

/// One MobileNetV1 depthwise-separable pair: `3×3` depthwise over `C`
/// channels at `stride`, then `1×1` pointwise `C → K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwPwConfig {
    /// Block index in network order (1–13).
    pub id: usize,
    /// Channels into the depthwise stage (`C`).
    pub c: usize,
    /// Channels out of the pointwise stage (`K`).
    pub k: usize,
    /// Input height = width of the depthwise stage.
    pub hw: usize,
    /// Depthwise stride (1 or 2; the pointwise stage is always stride 1).
    pub stride: usize,
}

impl DwPwConfig {
    /// The depthwise stage's shape for batch size `n`: `3×3`, same
    /// padding, `K == C` (channel multiplier 1).
    pub fn dw_shape(&self, n: usize) -> ConvShape {
        ConvShape::new(
            n,
            self.c,
            self.hw,
            self.hw,
            self.c,
            3,
            3,
            self.stride,
            Padding::same(1),
        )
    }

    /// The pointwise stage's shape for batch size `n`: `1×1` stride-1
    /// unpadded on the depthwise output.
    pub fn pw_shape(&self, n: usize) -> ConvShape {
        let dw = self.dw_shape(n);
        ConvShape::new(n, self.c, dw.p(), dw.q(), self.k, 1, 1, 1, Padding::NONE)
    }

    /// FLOPs of the whole pair at batch size `n`: `2·N·C·P·Q·R·S`
    /// (depthwise — no cross-channel reduction, so [`ConvShape::flops`]
    /// would overcount by `C`) plus the pointwise stage's standard count.
    pub fn pair_flops(&self, n: usize) -> u64 {
        let dw = self.dw_shape(n);
        let dw_flops = 2 * (n * self.c * dw.p() * dw.q() * dw.r * dw.s) as u64;
        dw_flops + self.pw_shape(n).flops()
    }

    /// Bytes of depthwise-intermediate round-trip traffic the pair pays at
    /// batch size `n` — the write plus the read of the `(N, C, P, Q)`
    /// tensor between its two stages.
    pub fn intermediate_bytes(&self, n: usize) -> u64 {
        let dw = self.dw_shape(n);
        2 * (n * self.c * dw.p() * dw.q() * 4) as u64
    }
}

const fn pair(id: usize, c: usize, k: usize, hw: usize, stride: usize) -> DwPwConfig {
    DwPwConfig { id, c, k, hw, stride }
}

/// MobileNetV1 Table 1's 13 depthwise-separable pairs, in network order
/// (width multiplier 1.0, 224×224 input; the stem conv is not a pair and
/// is excluded).
pub const MOBILENET: [DwPwConfig; 13] = [
    pair(1, 32, 64, 112, 1),
    pair(2, 64, 128, 112, 2),
    pair(3, 128, 128, 56, 1),
    pair(4, 128, 256, 56, 2),
    pair(5, 256, 256, 28, 1),
    pair(6, 256, 512, 28, 2),
    pair(7, 512, 512, 14, 1),
    pair(8, 512, 512, 14, 1),
    pair(9, 512, 512, 14, 1),
    pair(10, 512, 512, 14, 1),
    pair(11, 512, 512, 14, 1),
    pair(12, 512, 1024, 14, 2),
    pair(13, 1024, 1024, 7, 1),
];

/// All 13 pairs — the full MobileNet sweep.
pub fn mobilenet_pairs() -> &'static [DwPwConfig] {
    &MOBILENET
}

/// Looks a pair up by its block ID (1–13).
pub fn pair_by_id(id: usize) -> Option<&'static DwPwConfig> {
    MOBILENET.get(id.checked_sub(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential() {
        for (i, p) in MOBILENET.iter().enumerate() {
            assert_eq!(p.id, i + 1);
        }
    }

    #[test]
    fn channel_chain_is_consistent() {
        // Each block's input channels are the previous block's output,
        // and spatial size follows the strides.
        for w in MOBILENET.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert_eq!(b.c, a.k, "block {} feeds block {}", a.id, b.id);
            let a_out = a.dw_shape(1).p();
            assert_eq!(b.hw, a_out, "block {} spatial chain", b.id);
        }
    }

    #[test]
    fn depthwise_shapes_are_depthwise() {
        for p in &MOBILENET {
            let s = p.dw_shape(2);
            assert_eq!(s.k, s.c, "block {}", p.id);
            assert_eq!((s.r, s.s), (3, 3));
            assert_eq!(s.pad.h, 1);
        }
    }

    #[test]
    fn strided_blocks_halve_spatial() {
        for p in MOBILENET.iter().filter(|p| p.stride == 2) {
            assert_eq!(p.dw_shape(1).p(), p.hw / 2, "block {}", p.id);
        }
    }

    #[test]
    fn pointwise_rides_on_dw_output() {
        for p in &MOBILENET {
            let (dw, pw) = (p.dw_shape(1), p.pw_shape(1));
            assert_eq!((pw.h, pw.w), (dw.p(), dw.q()), "block {}", p.id);
            assert_eq!(pw.c, p.c);
            assert_eq!(pw.k, p.k);
            assert_eq!((pw.r, pw.s, pw.stride), (1, 1, 1));
            assert_eq!(pw.pad.h, 0);
        }
    }

    #[test]
    fn last_block_is_7x7_1024() {
        let p = pair_by_id(13).unwrap();
        assert_eq!((p.c, p.k, p.hw), (1024, 1024, 7));
        assert!(pair_by_id(0).is_none());
        assert!(pair_by_id(14).is_none());
    }

    #[test]
    fn flops_and_bytes_scale_linearly_with_batch() {
        let p = pair_by_id(5).unwrap();
        assert_eq!(p.pair_flops(4), 4 * p.pair_flops(1));
        assert_eq!(p.intermediate_bytes(4), 4 * p.intermediate_bytes(1));
    }

    #[test]
    fn pairs_are_memory_bound_on_the_intermediate() {
        // The defining property of the workload: late blocks do only a
        // few tens of FLOPs per intermediate byte, so saving the
        // round-trip matters.
        let p = pair_by_id(13).unwrap();
        let intensity = p.pair_flops(1) as f64 / p.intermediate_bytes(1) as f64;
        assert!(intensity < 600.0, "intensity {intensity}");
    }
}
