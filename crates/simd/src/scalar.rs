//! Scalar reference backend: a plain `[f32; 4]`.
//!
//! Always compiled (every other backend is differential-tested against it).
//! Multiplications and additions are kept as separate operations — not
//! `f32::mul_add` — so results match non-FMA SSE bitwise.

use crate::SimdVec;

/// Four `f32` lanes in an ordinary array.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(16))]
pub struct F32x4Scalar(pub [f32; 4]);

impl F32x4Scalar {
    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        self.0
    }

    /// Builds a vector from an array.
    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        Self(a)
    }
}

impl SimdVec for F32x4Scalar {
    const LANES: usize = 4;
    const FUSED: bool = false;

    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; 4])
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        Self([v; 4])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        Self([src[0], src[1], src[2], src[3]])
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
        ])
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self([
            self.0[0] * rhs.0[0],
            self.0[1] * rhs.0[1],
            self.0[2] * rhs.0[2],
            self.0[3] * rhs.0[3],
        ])
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self([
            self.0[0].max(rhs.0[0]),
            self.0[1].max(rhs.0[1]),
            self.0[2].max(rhs.0[2]),
            self.0[3].max(rhs.0[3]),
        ])
    }

    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }

    #[inline(always)]
    fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        self.fma(a, Self::splat(b.0[LANE]))
    }

    #[inline(always)]
    fn extract<const LANE: usize>(self) -> f32 {
        self.0[LANE]
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_is_unfused() {
        // With unfused semantics the product rounds before the add; this is a
        // smoke check that we didn't accidentally call mul_add.
        let acc = F32x4Scalar::splat(1.0);
        let a = F32x4Scalar::splat(1.0 + f32::EPSILON);
        let b = F32x4Scalar::splat(1.0 - f32::EPSILON);
        let unfused = 1.0 + ((1.0 + f32::EPSILON) * (1.0 - f32::EPSILON));
        assert_eq!(acc.fma(a, b).extract::<0>(), unfused);
    }

    #[test]
    fn load_panics_on_short_slice() {
        let r = std::panic::catch_unwind(|| F32x4Scalar::load(&[1.0, 2.0]));
        assert!(r.is_err());
    }
}
