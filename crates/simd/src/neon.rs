//! aarch64 NEON backend (`float32x4_t`) — the paper's target ISA.
//!
//! NEON (ASIMD) is mandatory in AArch64, so no feature detection is needed.
//! [`SimdVec::fma_lane`] lowers to `vfmaq_laneq_f32`, the exact scalar-vector
//! fused multiply-accumulate the paper's Algorithm 3 is built from
//! (`FMA((V2[0]..), V0)` etc.).

use core::arch::aarch64::*;

use crate::SimdVec;

/// Four `f32` lanes in a NEON register.
#[derive(Clone, Copy)]
pub struct F32x4(float32x4_t);

impl core::fmt::Debug for F32x4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F32x4({:?})", self.to_array())
    }
}

impl F32x4 {
    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        let mut out = [0.0; 4];
        self.store(&mut out);
        out
    }

    /// Builds a vector from an array.
    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        Self::load(&a)
    }
}

impl SimdVec for F32x4 {
    const LANES: usize = 4;
    const FUSED: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: NEON is mandatory on aarch64.
        Self(unsafe { vdupq_n_f32(0.0) })
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: as above.
        Self(unsafe { vdupq_n_f32(v) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= 4, "load requires 4 floats");
        // SAFETY: bounds checked above.
        Self(unsafe { vld1q_f32(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= 4, "store requires 4 floats");
        // SAFETY: bounds checked above.
        unsafe { vst1q_f32(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: NEON baseline.
        Self(unsafe { vaddq_f32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: NEON baseline.
        Self(unsafe { vsubq_f32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: NEON baseline.
        Self(unsafe { vmulq_f32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: NEON baseline.
        Self(unsafe { vmaxq_f32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        // SAFETY: NEON baseline; vfmaq is the fused multiply-accumulate.
        Self(unsafe { vfmaq_f32(self.0, a.0, b.0) })
    }

    #[inline(always)]
    fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        // SAFETY: NEON baseline; LANE < 4 is enforced by the match arms.
        Self(unsafe {
            match LANE {
                0 => vfmaq_laneq_f32::<0>(self.0, a.0, b.0),
                1 => vfmaq_laneq_f32::<1>(self.0, a.0, b.0),
                2 => vfmaq_laneq_f32::<2>(self.0, a.0, b.0),
                3 => vfmaq_laneq_f32::<3>(self.0, a.0, b.0),
                _ => unreachable!("lane index out of range"),
            }
        })
    }

    #[inline(always)]
    fn extract<const LANE: usize>(self) -> f32 {
        self.to_array()[LANE]
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        // SAFETY: NEON baseline.
        unsafe { vaddvq_f32(self.0) }
    }
}
