//! Portable 4-lane `f32` SIMD vector for the nDirect micro-kernels.
//!
//! The paper's kernels are written against ARMv8 NEON: 32 × 128-bit vector
//! registers, each holding 4 × FP32, driven by fused multiply-accumulate
//! (`vfmaq_laneq_f32` — *scalar-vector* FMA, broadcasting one lane of an
//! input register against a filter vector). [`F32x4`] reproduces exactly that
//! operation set:
//!
//! * on **aarch64** it lowers to NEON intrinsics (the paper's target);
//! * on **x86_64** it lowers to SSE (plus FMA when compiled with
//!   `-C target-feature=+fma`, e.g. via `RUSTFLAGS=-Ctarget-cpu=native`);
//! * elsewhere (or with the `force-scalar` feature) it is a `[f32; 4]` that
//!   LLVM autovectorizes.
//!
//! Micro-kernels treat `F32x4` values as *register allocations*: a
//! `Vw × Vk/4` array of accumulators models the paper's `V8–V31`, and the
//! register-budget constraint (Eq. 3) is enforced by the analytic model in
//! `ndirect-core`, not here.
//!
//! The scalar backend computes `a*b + c` with separate multiply/add so its
//! results match SSE bitwise; NEON and x86-FMA fuse the rounding step, which
//! is why cross-implementation tests in this workspace compare with a small
//! relative tolerance rather than bitwise.

#![warn(missing_docs)]

mod int16;
pub mod runtime;
mod scalar;

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod sse;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
mod neon;

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
pub use sse::F32x4;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
pub use neon::F32x4;

#[cfg(any(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    feature = "force-scalar"
))]
pub use scalar::F32x4Scalar as F32x4;

pub use int16::{I16x8, I32x4};
pub use runtime::{detected_isa, force_unsupported, verify_host, Isa, UnsupportedIsa};
pub use scalar::F32x4Scalar;

/// Number of `f32` lanes per vector — fixed at 4 to model 128-bit NEON.
pub const LANES: usize = 4;

/// Name of the active backend, for diagnostics and the figures harness.
pub fn backend_name() -> &'static str {
    #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
    {
        "neon"
    }
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        if cfg!(target_feature = "fma") {
            "sse+fma"
        } else {
            "sse"
        }
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        feature = "force-scalar"
    ))]
    {
        "scalar"
    }
}

/// The trait all backends implement, so differential tests can run the same
/// generic kernel against [`F32x4`] and [`F32x4Scalar`].
pub trait SimdVec: Copy + core::fmt::Debug {
    /// Vector of four zeros.
    fn zero() -> Self;
    /// Broadcasts `v` to all lanes.
    fn splat(v: f32) -> Self;
    /// Loads four consecutive floats from `src` (must have `len >= 4`).
    fn load(src: &[f32]) -> Self;
    /// Stores the four lanes into `dst` (must have `len >= 4`).
    fn store(self, dst: &mut [f32]);
    /// Lane-wise addition.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Lane-wise multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise maximum.
    fn max(self, rhs: Self) -> Self;
    /// `self + a*b` per lane — the accumulator-updating FMA.
    fn fma(self, a: Self, b: Self) -> Self;
    /// `self + a*b[LANE]` — the paper's scalar-vector FMA
    /// (`vfmaq_laneq_f32`): broadcast lane `LANE` of `b` against `a`.
    fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self;
    /// Extracts one lane.
    fn extract<const LANE: usize>(self) -> f32;
    /// Sum of all four lanes.
    fn reduce_sum(self) -> f32;
    /// The lanes as an array.
    fn to_array(self) -> [f32; 4];
    /// Builds a vector from an array.
    fn from_array(a: [f32; 4]) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(a: f32, b: f32, c: f32, d: f32) -> F32x4 {
        F32x4::from_array([a, b, c, d])
    }

    #[test]
    fn splat_and_extract() {
        let x = F32x4::splat(2.5);
        assert_eq!(x.to_array(), [2.5; 4]);
        assert_eq!(x.extract::<0>(), 2.5);
        assert_eq!(x.extract::<3>(), 2.5);
    }

    #[test]
    fn load_store_round_trip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = F32x4::load(&src);
        let mut dst = [0.0; 4];
        x.store(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn arithmetic_lanewise() {
        let a = v(1.0, 2.0, 3.0, 4.0);
        let b = v(10.0, 20.0, 30.0, 40.0);
        assert_eq!(a.add(b).to_array(), [11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(a).to_array(), [9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(b).to_array(), [10.0, 40.0, 90.0, 160.0]);
        assert_eq!(a.max(v(2.0, 1.0, 5.0, 0.0)).to_array(), [2.0, 2.0, 5.0, 4.0]);
    }

    #[test]
    fn fma_accumulates() {
        let acc = v(1.0, 1.0, 1.0, 1.0);
        let a = v(2.0, 3.0, 4.0, 5.0);
        let b = v(10.0, 10.0, 10.0, 10.0);
        assert_eq!(acc.fma(a, b).to_array(), [21.0, 31.0, 41.0, 51.0]);
    }

    #[test]
    fn fma_lane_broadcasts_one_lane() {
        let acc = F32x4::zero();
        let a = v(1.0, 2.0, 3.0, 4.0);
        let b = v(10.0, 20.0, 30.0, 40.0);
        assert_eq!(acc.fma_lane::<0>(a, b).to_array(), [10.0, 20.0, 30.0, 40.0]);
        assert_eq!(acc.fma_lane::<2>(a, b).to_array(), [30.0, 60.0, 90.0, 120.0]);
    }

    #[test]
    fn reduce_sum_adds_lanes() {
        assert_eq!(v(1.0, 2.0, 3.0, 4.0).reduce_sum(), 10.0);
    }

    #[test]
    fn native_matches_scalar_backend() {
        // Differential check: run the same dot-product kernel on both.
        let xs: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let ys: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).cos()).collect();

        fn dot<V: SimdVec>(xs: &[f32], ys: &[f32]) -> f32 {
            let mut acc = V::zero();
            for (x4, y4) in xs.chunks_exact(4).zip(ys.chunks_exact(4)) {
                acc = acc.fma(V::load(x4), V::load(y4));
            }
            acc.reduce_sum()
        }

        let native = dot::<F32x4>(&xs, &ys);
        let scalar = dot::<F32x4Scalar>(&xs, &ys);
        assert!(
            (native - scalar).abs() <= 1e-5 * scalar.abs().max(1.0),
            "native={native} scalar={scalar}"
        );
    }

    #[test]
    fn backend_name_is_known() {
        assert!(["neon", "sse", "sse+fma", "scalar"].contains(&backend_name()));
    }
}
