//! x86_64 SSE backend (`__m128`).
//!
//! SSE2 is part of the x86_64 baseline, so no runtime feature detection is
//! needed here. [`SimdVec::fma`] is `mulps` + `addps`, also when
//! `ndirect-core` runs these methods inlined under its runtime-selected
//! `avx2+fma` entry (`vmulps` + `vaddps`: the same bits; LLVM does not
//! contract a separate multiply and add). Only a build whose `RUSTFLAGS`
//! enable `fma` lowers it to `vfmadd`.

use core::arch::x86_64::*;

use crate::SimdVec;

/// Four `f32` lanes in an SSE register.
#[derive(Clone, Copy)]
pub struct F32x4(__m128);

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
    const FUSED: bool = cfg!(target_feature = "fma");

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        Self(unsafe { _mm_setzero_ps() })
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: as above.
        Self(unsafe { _mm_set1_ps(v) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= 4, "load requires 4 floats");
        // SAFETY: bounds checked above; unaligned load is always valid.
        Self(unsafe { _mm_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= 4, "store requires 4 floats");
        // SAFETY: bounds checked above; unaligned store is always valid.
        unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: SSE baseline.
        Self(unsafe { _mm_add_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: SSE baseline.
        Self(unsafe { _mm_sub_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: SSE baseline.
        Self(unsafe { _mm_mul_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: SSE baseline.
        Self(unsafe { _mm_max_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        #[cfg(target_feature = "fma")]
        // SAFETY: gated on compile-time FMA availability.
        unsafe {
            Self(_mm_fmadd_ps(a.0, b.0, self.0))
        }
        #[cfg(not(target_feature = "fma"))]
        self.add(a.mul(b))
    }

    #[inline(always)]
    fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        // Broadcast lane LANE of `b`, then FMA — the SSE spelling of NEON's
        // vfmaq_laneq_f32. The match keeps the shuffle immediate a literal
        // constant (stable Rust cannot compute it from the generic LANE).
        // SAFETY: SSE baseline.
        let bcast = Self(unsafe {
            match LANE {
                0 => _mm_shuffle_ps::<0b00_00_00_00>(b.0, b.0),
                1 => _mm_shuffle_ps::<0b01_01_01_01>(b.0, b.0),
                2 => _mm_shuffle_ps::<0b10_10_10_10>(b.0, b.0),
                3 => _mm_shuffle_ps::<0b11_11_11_11>(b.0, b.0),
                _ => unreachable!("lane index out of range"),
            }
        });
        self.fma(a, bcast)
    }

    #[inline(always)]
    fn extract<const LANE: usize>(self) -> f32 {
        self.to_array()[LANE]
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        let a = self.to_array();
        (a[0] + a[1]) + (a[2] + a[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_broadcast_matches_scalar() {
        use crate::scalar::F32x4Scalar;
        let a = [0.5, -1.0, 2.0, 8.0];
        let b = [3.0, 5.0, 7.0, 9.0];
        let acc = [1.0, 1.0, 1.0, 1.0];
        let native = F32x4::from_array(acc)
            .fma_lane::<1>(F32x4::from_array(a), F32x4::from_array(b))
            .to_array();
        let reference = F32x4Scalar::from_array(acc)
            .fma_lane::<1>(F32x4Scalar::from_array(a), F32x4Scalar::from_array(b))
            .to_array();
        for (x, y) in native.iter().zip(&reference) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
