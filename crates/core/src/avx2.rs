//! x86_64 AVX2 + FMA vector (`__m256`): eight lanes, fused multiply-add,
//! the vector the `avx2+fma` registry entry runs the general body on.
//!
//! AVX2 and FMA are not in the x86-64 baseline, and stable Rust cannot put
//! a `#[target_feature]` on a safe trait method, so these methods carry no
//! features of their own: each is `#[inline(always)]`, and executing one
//! on a CPU without the features is undefined behaviour. That is why the
//! type is private to this crate. Its one user is the `Avx2Fma` entry
//! (`crate::kernel`), whose `General` vector it is: it is only named in
//! kernels inlined into that entry's `MicroKernel::run`, which carries
//! `avx2,fma` and which a `Kernel` only calls after detecting both
//! features on the CPU. No other code in the crate may name it.
//!
//! [`SimdVec::fma`] is `_mm256_fmadd_ps`: one rounding per multiply-add.

use core::arch::x86_64::*;

use ndirect_simd::SimdVec;

/// Eight `f32` lanes in an AVX register.
#[derive(Clone, Copy)]
pub(crate) struct F32x8(__m256);

impl core::fmt::Debug for F32x8 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut lanes = [0.0; 8];
        self.store(&mut lanes);
        write!(f, "F32x8({lanes:?})")
    }
}

impl SimdVec for F32x8 {
    const LANES: usize = 8;
    const FUSED: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: runs inlined under `Avx2Fma::run`, after detection
        // (module docs).
        Self(unsafe { _mm256_setzero_ps() })
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: as above.
        Self(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        // AUDIT: allow(hotpath-no-panic) O(1) guard protecting the unchecked load.
        assert!(src.len() >= 8, "load requires 8 floats");
        // SAFETY: bounds checked above; unaligned load; features as above.
        Self(unsafe { _mm256_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        // AUDIT: allow(hotpath-no-panic) O(1) guard protecting the unchecked store.
        assert!(dst.len() >= 8, "store requires 8 floats");
        // SAFETY: bounds checked above; unaligned store; features as above.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: features as above.
        Self(unsafe { _mm256_add_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: features as above.
        Self(unsafe { _mm256_sub_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: features as above.
        Self(unsafe { _mm256_mul_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: features as above.
        Self(unsafe { _mm256_max_ps(self.0, rhs.0) })
    }

    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        // SAFETY: features as above.
        Self(unsafe { _mm256_fmadd_ps(a.0, b.0, self.0) })
    }

    #[inline(always)]
    fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        self.fma(a, Self::splat(b.extract::<LANE>()))
    }

    #[inline(always)]
    fn extract<const LANE: usize>(self) -> f32 {
        let mut lanes = [0.0; 8];
        self.store(&mut lanes);
        lanes[LANE]
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        let mut a = [0.0; 8];
        self.store(&mut a);
        ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests call the methods outside the entry's frame, so they run
    /// only where the CPU has the features (which is what makes it sound).
    fn supported() -> bool {
        let on = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if !on {
            println!("F32x8: this CPU lacks avx2 or fma; nothing checked");
        }
        on
    }

    fn lanes(v: F32x8) -> [f32; 8] {
        let mut out = [0.0; 8];
        v.store(&mut out);
        out
    }

    #[test]
    fn lanewise_ops_and_fused_multiply_add() {
        if !supported() {
            return;
        }
        let a = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(10.0);
        assert_eq!(lanes(a.add(b))[7], 18.0);
        assert_eq!(lanes(b.sub(a))[0], 9.0);
        assert_eq!(lanes(a.mul(b))[4], 50.0);
        assert_eq!(lanes(a.max(F32x8::splat(4.5)))[..4], [4.5; 4]);
        assert_eq!(a.reduce_sum(), 36.0);
        assert_eq!(a.extract::<5>(), 6.0);
        assert_eq!(lanes(F32x8::zero().fma_lane::<2>(b, a)), [30.0; 8]);
        // One rounding: (1+e)(1-e) = 1 - e², which the unfused form rounds
        // to 1 before subtracting 1.
        let (e, one) = (f32::EPSILON, F32x8::splat(-1.0));
        let got = one.fma(F32x8::splat(1.0 + e), F32x8::splat(1.0 - e)).extract::<0>();
        assert_eq!(got, (1.0f32 + e).mul_add(1.0 - e, -1.0));
        assert_ne!(got, 0.0);
    }

    #[test]
    fn load_store_round_trip() {
        if !supported() {
            return;
        }
        let src: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut dst = [0.0; 8];
        F32x8::load(&src[1..]).store(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }
}
