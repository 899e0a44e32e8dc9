//! Roofline attribution: turning a measured `(flops, bytes, seconds)`
//! triple into achieved GFLOPS, fraction of peak, arithmetic intensity,
//! and a memory- vs compute-bound classification.
//!
//! The paper argues its tile and grid choices from analytic working-set
//! models; the roofline (Williams et al.) is the standard frame for
//! checking the *outcome*: a kernel with arithmetic intensity `I`
//! (FLOPs per byte of memory traffic) can at best achieve
//! `min(peak, I × bandwidth)`. Where a layer lands against that bound —
//! and on which side of the ridge point — says whether further tiling
//! work can help (compute-bound: yes, chase the FMA pipes) or whether
//! the schedule is already paying for DRAM (memory-bound: reduce
//! traffic, not instructions). [`Roofline`] is built from a
//! [`Platform`]'s Table 3 numbers.

use crate::Platform;

/// Which resource bounds a measured (or modeled) kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Arithmetic intensity above the ridge point: the FMA pipes are the
    /// ceiling and memory can keep up.
    Compute,
    /// Intensity below the ridge point: DRAM bandwidth caps throughput no
    /// matter how good the kernel is.
    Memory,
}

impl BoundKind {
    /// Stable lowercase name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            BoundKind::Compute => "compute",
            BoundKind::Memory => "memory",
        }
    }
}

/// The two machine ceilings of the roofline plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Compute ceiling in GFLOPS for the thread count being measured.
    pub peak_gflops: f64,
    /// Memory ceiling in GiB/s (the socket's bandwidth — shared by all
    /// cores, which is exactly the paper's Eq. 5–6 contention argument).
    pub bandwidth_gib_s: f64,
}

impl Roofline {
    /// The roofline for `threads` cores of `platform`: compute scales
    /// with the thread count (capped at the socket), bandwidth does not.
    pub fn for_threads(platform: &Platform, threads: usize) -> Roofline {
        Roofline {
            peak_gflops: platform.peak_for_threads(threads),
            bandwidth_gib_s: platform.max_bandwidth_gib_s,
        }
    }

    /// Memory bandwidth in bytes per second.
    pub fn bandwidth_bytes_s(&self) -> f64 {
        self.bandwidth_gib_s * (1u64 << 30) as f64
    }

    /// The ridge point: the arithmetic intensity (FLOPs/byte) at which
    /// the compute and memory ceilings intersect. Below it a kernel is
    /// memory-bound, above it compute-bound.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_gflops * 1e9 / self.bandwidth_bytes_s()
    }

    /// The attainable GFLOPS ceiling at intensity `i`:
    /// `min(peak, i × bandwidth)`.
    pub fn attainable_gflops(&self, intensity: f64) -> f64 {
        (intensity * self.bandwidth_bytes_s() / 1e9).min(self.peak_gflops)
    }

    /// Which ceiling governs a kernel of intensity `i`.
    pub fn classify(&self, intensity: f64) -> BoundKind {
        if intensity >= self.ridge_intensity() {
            BoundKind::Compute
        } else {
            BoundKind::Memory
        }
    }

    /// Attributes one measurement: `flops` useful FLOPs and `bytes` of
    /// compulsory memory traffic, done in `secs` seconds.
    pub fn attribute(&self, flops: u64, bytes: u64, secs: f64) -> LayerPerf {
        let secs = secs.max(1e-12);
        let gflops = flops as f64 / secs / 1e9;
        let intensity = flops as f64 / (bytes.max(1)) as f64;
        let attainable = self.attainable_gflops(intensity);
        LayerPerf {
            gflops,
            pct_peak: 100.0 * gflops / self.peak_gflops.max(1e-12),
            intensity,
            attainable_gflops: attainable,
            pct_roofline: 100.0 * gflops / attainable.max(1e-12),
            bound: self.classify(intensity),
        }
    }
}

/// One attributed measurement — a point under the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// Achieved throughput, GFLOPS.
    pub gflops: f64,
    /// Achieved fraction of the compute ceiling, percent (the right-hand
    /// axis of the paper's Figures 1b and 4).
    pub pct_peak: f64,
    /// Arithmetic intensity, FLOPs per byte of memory traffic.
    pub intensity: f64,
    /// The roofline ceiling at this intensity, GFLOPS.
    pub attainable_gflops: f64,
    /// Achieved fraction of the *attainable* ceiling, percent — the
    /// honest efficiency number for memory-bound layers (1×1 convs can
    /// sit far from peak while saturating DRAM).
    pub pct_roofline: f64,
    /// Which ceiling governs at this intensity.
    pub bound: BoundKind,
}

/// Compulsory memory traffic of one convolution, in bytes: every input,
/// filter, and output element moved once at fp32. This is the
/// lower-bound traffic a perfectly-tiled schedule approaches, and the
/// denominator the roofline's arithmetic intensity is defined against;
/// actual traffic (visible as `llc_misses × line` when hardware counters
/// are available) is at least this.
pub fn conv_min_traffic_bytes(shape: &ndirect_tensor::ConvShape) -> u64 {
    let f32s = std::mem::size_of::<f32>() as u64;
    let input = (shape.n * shape.c * shape.h * shape.w) as u64;
    let filter = (shape.k * shape.c * shape.r * shape.s) as u64;
    let output = (shape.n * shape.k * shape.p() * shape.q()) as u64;
    (input + filter + output).saturating_mul(f32s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::ConvShape;

    fn roof() -> Roofline {
        Roofline {
            peak_gflops: 100.0,
            bandwidth_gib_s: 10.0,
        }
    }

    #[test]
    fn ridge_point_separates_the_regimes() {
        let r = roof();
        let ridge = r.ridge_intensity();
        // 100 GFLOPS / (10 GiB/s) ≈ 9.31 FLOPs/byte.
        assert!((ridge - 100.0 * 1e9 / (10.0 * (1u64 << 30) as f64)).abs() < 1e-9);
        assert_eq!(r.classify(ridge * 2.0), BoundKind::Compute);
        assert_eq!(r.classify(ridge / 2.0), BoundKind::Memory);
    }

    #[test]
    fn attainable_is_min_of_the_two_ceilings() {
        let r = roof();
        assert_eq!(r.attainable_gflops(1e9), 100.0);
        let low = r.attainable_gflops(1.0);
        assert!((low - r.bandwidth_bytes_s() / 1e9).abs() < 1e-9);
        assert!(low < 100.0);
    }

    #[test]
    fn attribution_is_consistent() {
        let r = roof();
        // 50 GFLOP in 1 s at intensity 50 (compute-bound): 50% of peak.
        let p = r.attribute(50_000_000_000, 1_000_000_000, 1.0);
        assert!((p.gflops - 50.0).abs() < 1e-9);
        assert!((p.pct_peak - 50.0).abs() < 1e-9);
        assert_eq!(p.bound, BoundKind::Compute);
        assert!((p.intensity - 50.0).abs() < 1e-9);
        assert!(p.pct_roofline >= p.pct_peak - 1e-9);
    }

    #[test]
    fn memory_bound_layers_get_credit_against_their_own_roof() {
        let r = roof();
        // Intensity 1: roof is ~10.7 GFLOPS; achieving 5 is ~47% of the
        // attainable roof but only 5% of peak.
        let p = r.attribute(5_000_000_000, 5_000_000_000, 1.0);
        assert_eq!(p.bound, BoundKind::Memory);
        assert!(p.pct_peak < 6.0);
        assert!(p.pct_roofline > 40.0);
    }

    #[test]
    fn min_traffic_counts_every_tensor_once() {
        let shape = ConvShape::square(1, 2, 4, 8, 3, 1);
        let expect = 4 * ((2 * 8 * 8) + (4 * 2 * 3 * 3) + (4 * 8 * 8)) as u64;
        assert_eq!(conv_min_traffic_bytes(&shape), expect);
    }

    #[test]
    fn for_threads_scales_compute_not_bandwidth() {
        let p = crate::presets::kp920();
        let r1 = Roofline::for_threads(&p, 1);
        let r2 = Roofline::for_threads(&p, 2);
        assert!((r2.peak_gflops - 2.0 * r1.peak_gflops).abs() < 1e-9);
        assert_eq!(r1.bandwidth_gib_s, r2.bandwidth_gib_s);
    }
}
