//! Machine parameter records (the paper's Table 3).

/// Cache replacement policy — Figure 5's packing ablation behaves
/// differently under Phytium 2000+'s pseudo-random policy than under LRU,
/// so the spec records which one a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used (KP920, ThunderX2, RPi 4).
    Lru,
    /// Pseudo-random (Phytium 2000+).
    PseudoRandom,
}

/// Cache hierarchy parameters, all capacities in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Per-core L1 data cache capacity.
    pub l1d: usize,
    /// L2 capacity (per core, or per cluster when `l2_shared_by > 1`).
    pub l2: usize,
    /// Number of cores sharing one L2 (4 on Phytium 2000+, 1 elsewhere).
    pub l2_shared_by: usize,
    /// Shared L3 capacity, if the machine has one.
    pub l3: Option<usize>,
    /// Cache line size.
    pub line: usize,
    /// Replacement policy of the data caches.
    pub replacement: Replacement,
}

impl CacheSpec {
    /// L2 capacity effectively available to one core.
    pub fn l2_per_core(&self) -> usize {
        self.l2 / self.l2_shared_by
    }

    /// The capacity the tiling model should treat as "last-level" for one
    /// core: L3 per core when present, else the per-core share of L2.
    pub fn llc_per_core(&self, cores: usize) -> usize {
        match self.l3 {
            Some(l3) => l3 / cores,
            None => self.l2_per_core(),
        }
    }
}

/// SIMD register file parameters (Eq. 3's constraint inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimdSpec {
    /// Vector register width in bits (128 for NEON).
    pub vector_bits: usize,
    /// Number of architectural vector registers (32 on ARMv8).
    pub num_vregs: usize,
    /// FP32 FMA results per cycle per core (peak / cores / frequency / 2).
    pub fma_per_cycle: f64,
    /// Whether the ISA has lane-indexed FMA (`vfmaq_laneq_f32`): a loaded
    /// input vector feeds 4 broadcast-FMAs for free. NEON has it; SSE/AVX
    /// must issue one broadcast *load* per scalar instead, which changes
    /// which register tile the Eq. 4 model should pick (see
    /// `ndirect-core::model::register_tile`).
    pub lane_fma: bool,
    /// Whether the multiply-add rounds once. An unfused one (`mulps` then
    /// `addps`) needs a register for the product, which Eq. 3 counts.
    pub fused: bool,
}

impl SimdSpec {
    /// FP32 lanes per vector register.
    pub fn f32_lanes(&self) -> usize {
        self.vector_bits / 32
    }

    /// ARMv8 NEON: 32 × 128-bit registers with lane-indexed FMA.
    pub const NEON: SimdSpec = SimdSpec {
        vector_bits: 128,
        num_vregs: 32,
        fma_per_cycle: 2.0,
        lane_fma: true,
        fused: true,
    };
}

/// A complete machine description — one row of the paper's Table 3 plus the
/// microarchitectural details the models need.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable machine name.
    pub name: String,
    /// Physical core count.
    pub cores: usize,
    /// Core clock in GHz.
    pub frequency_ghz: f64,
    /// Theoretical peak FP32 throughput of the whole socket, GFLOPS.
    pub peak_fp32_gflops: f64,
    /// Peak memory bandwidth, GiB/s.
    pub max_bandwidth_gib_s: f64,
    /// Cache hierarchy.
    pub cache: CacheSpec,
    /// Vector register file. For the host ([`crate::host`]) this is the
    /// build's baseline kernel encoding's file.
    pub simd: SimdSpec,
    /// Set by [`crate::host`] alone; read through [`Platform::is_host`].
    pub(crate) host: bool,
    /// Streaming/non-streaming access-cost ratio `α` (§6.2). Presets carry
    /// a representative default; [`crate::measure_alpha`] refreshes it for
    /// the host.
    pub alpha: f64,
}

impl Platform {
    /// Whether this is the machine the process runs on, as made by
    /// [`crate::host`] (or copied from it). `ndirect-core` then derives
    /// each register tile over the register file of the kernel-registry
    /// entry that will run it, which may be wider than `simd`; presets
    /// keep their own `simd`.
    pub fn is_host(&self) -> bool {
        self.host
    }

    /// Peak FP32 GFLOPS of a single core.
    pub fn peak_per_core(&self) -> f64 {
        self.peak_fp32_gflops / self.cores as f64
    }

    /// Peak GFLOPS of `threads` cores (capped at the socket).
    pub fn peak_for_threads(&self, threads: usize) -> f64 {
        self.peak_per_core() * threads.min(self.cores) as f64
    }

    /// Achieved fraction of peak for a measured throughput on `threads`
    /// cores — the right-hand axis of the paper's Figures 1b and 4.
    pub fn efficiency(&self, gflops: f64, threads: usize) -> f64 {
        gflops / self.peak_for_threads(threads)
    }

    /// FP32 FLOPs per cycle per core implied by the Table 3 peak — a
    /// consistency check on the spec (8 for Phytium 2000+, 16 for KP920 and
    /// ThunderX2's 2×128-bit FMA pipes).
    pub fn flops_per_cycle_per_core(&self) -> f64 {
        self.peak_fp32_gflops / (self.cores as f64 * self.frequency_ghz)
    }

    /// Returns a copy with a different measured `alpha`.
    pub fn with_alpha(&self, alpha: f64) -> Platform {
        let mut p = self.clone();
        p.alpha = alpha;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Platform {
        Platform {
            name: "sample".into(),
            cores: 8,
            frequency_ghz: 2.0,
            peak_fp32_gflops: 128.0,
            max_bandwidth_gib_s: 40.0,
            cache: CacheSpec {
                l1d: 32 * 1024,
                l2: 512 * 1024,
                l2_shared_by: 1,
                l3: Some(16 * 1024 * 1024),
                line: 64,
                replacement: Replacement::Lru,
            },
            simd: SimdSpec::NEON,
            host: false,
            alpha: 2.0,
        }
    }

    #[test]
    fn per_core_peak() {
        let p = sample();
        assert_eq!(p.peak_per_core(), 16.0);
        assert_eq!(p.peak_for_threads(4), 64.0);
        assert_eq!(p.peak_for_threads(100), 128.0);
    }

    #[test]
    fn efficiency_fractions() {
        let p = sample();
        assert!((p.efficiency(64.0, 8) - 0.5).abs() < 1e-12);
        assert!((p.efficiency(8.0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flops_per_cycle() {
        let p = sample();
        assert!((p.flops_per_cycle_per_core() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn llc_per_core_prefers_l3() {
        let p = sample();
        assert_eq!(p.cache.llc_per_core(p.cores), 2 * 1024 * 1024);
        let mut no_l3 = p.clone();
        no_l3.cache.l3 = None;
        assert_eq!(no_l3.cache.llc_per_core(no_l3.cores), 512 * 1024);
    }

    #[test]
    fn l2_sharing_divides_capacity() {
        let mut p = sample();
        p.cache.l2 = 2 * 1024 * 1024;
        p.cache.l2_shared_by = 4;
        assert_eq!(p.cache.l2_per_core(), 512 * 1024);
    }

    #[test]
    fn neon_spec_lanes() {
        assert_eq!(SimdSpec::NEON.f32_lanes(), 4);
        assert_eq!(SimdSpec::NEON.num_vregs, 32);
    }

    #[test]
    fn with_alpha_only_changes_alpha() {
        let p = sample();
        let q = p.with_alpha(3.5);
        assert_eq!(q.alpha, 3.5);
        assert_eq!(q.cores, p.cores);
        assert_eq!(q.cache, p.cache);
    }
}
