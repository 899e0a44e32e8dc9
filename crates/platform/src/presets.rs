//! The paper's Table 3 machines, plus host detection.

use crate::spec::{CacheSpec, Platform, Replacement, SimdSpec};

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

/// Names of the four evaluation platforms, in Table 3 column order.
pub const PAPER_PLATFORM_NAMES: [&str; 4] = ["Phytium 2000+", "KP920", "ThunderX2", "RPi 4"];

/// Phytium 2000+ — 64 ARMv8 (FTC662) cores @ 2.2 GHz. L2 is shared by
/// 4-core clusters; no L3; pseudo-random replacement (the property Figure 5
/// attributes its packing-ablation behaviour to).
pub fn phytium_2000p() -> Platform {
    Platform {
        name: "Phytium 2000+".into(),
        cores: 64,
        frequency_ghz: 2.2,
        peak_fp32_gflops: 1126.4,
        max_bandwidth_gib_s: 143.1,
        cache: CacheSpec {
            l1d: 32 * KB,
            l2: 2 * MB,
            l2_shared_by: 4,
            l3: None,
            line: 64,
            replacement: Replacement::PseudoRandom,
        },
        simd: SimdSpec::NEON,
        host: false,
        alpha: 2.0,
    }
}

/// Kunpeng 920 — 64 TaiShan v110 cores @ 2.6 GHz, private 512 KB L2,
/// 64 MB shared L3.
pub fn kp920() -> Platform {
    Platform {
        name: "KP920".into(),
        cores: 64,
        frequency_ghz: 2.6,
        peak_fp32_gflops: 2662.4,
        max_bandwidth_gib_s: 190.7,
        cache: CacheSpec {
            l1d: 64 * KB,
            l2: 512 * KB,
            l2_shared_by: 1,
            l3: Some(64 * MB),
            line: 64,
            replacement: Replacement::Lru,
        },
        simd: SimdSpec::NEON,
        host: false,
        alpha: 2.0,
    }
}

/// Marvell ThunderX2 — 32 Vulcan cores @ 2.5 GHz, private 256 KB L2,
/// 32 MB shared L3, 4-way SMT available (Fig. 9).
pub fn thunderx2() -> Platform {
    Platform {
        name: "ThunderX2".into(),
        cores: 32,
        frequency_ghz: 2.5,
        peak_fp32_gflops: 1279.7,
        max_bandwidth_gib_s: 158.95,
        cache: CacheSpec {
            l1d: 32 * KB,
            l2: 256 * KB,
            l2_shared_by: 1,
            l3: Some(32 * MB),
            line: 64,
            replacement: Replacement::Lru,
        },
        simd: SimdSpec::NEON,
        host: false,
        alpha: 2.0,
    }
}

/// Raspberry Pi 4 Model B — 4 Cortex-A72 cores @ 1.8 GHz, 1 MB shared L2,
/// no L3.
pub fn rpi4() -> Platform {
    Platform {
        name: "RPi 4".into(),
        cores: 4,
        frequency_ghz: 1.8,
        peak_fp32_gflops: 56.8,
        max_bandwidth_gib_s: 16.8,
        cache: CacheSpec {
            l1d: 32 * KB,
            l2: MB,
            l2_shared_by: 4,
            l3: None,
            line: 64,
            replacement: Replacement::Lru,
        },
        simd: SimdSpec::NEON,
        host: false,
        alpha: 2.0,
    }
}

/// Fujitsu A64FX-like SVE machine (not in the paper's Table 3; used to
/// demonstrate the §10.1 portability of the analytic models to wider
/// vectors): 48 cores @ 2.2 GHz, 512-bit SVE (32 registers, 2 FMA pipes),
/// 64 KB L1d, 8 MB L2 per 12-core CMG, no L3.
pub fn a64fx_like() -> Platform {
    Platform {
        name: "A64FX-like (SVE-512)".into(),
        cores: 48,
        frequency_ghz: 2.2,
        // 2 pipes x 16 lanes x 2 flops = 64 flops/cycle/core.
        peak_fp32_gflops: 48.0 * 2.2 * 64.0,
        max_bandwidth_gib_s: 1024.0,
        cache: CacheSpec {
            l1d: 64 * KB,
            l2: 8 * MB,
            l2_shared_by: 12,
            l3: None,
            line: 256,
            replacement: Replacement::Lru,
        },
        simd: SimdSpec {
            vector_bits: 512,
            num_vregs: 32,
            fma_per_cycle: 2.0,
            lane_fma: true,
            fused: true,
        },
        host: false,
        alpha: 2.0,
    }
}

/// All four Table 3 platforms in column order.
pub fn paper_platforms() -> Vec<Platform> {
    vec![phytium_2000p(), kp920(), thunderx2(), rpi4()]
}

/// The three HPC platforms of Figure 4 (everything but the RPi 4).
pub fn hpc_platforms() -> Vec<Platform> {
    vec![phytium_2000p(), kp920(), thunderx2()]
}

/// A best-effort description of the machine this process runs on.
///
/// Core count comes from the OS; cache sizes from sysfs where available,
/// with conservative defaults (32 KB L1 / 512 KB L2 / 8 MB L3) otherwise.
/// The peak-GFLOPS estimate assumes two 4-lane (128-bit) FMA pipes per
/// core, 16 flops/cycle, at a nominal 2 GHz unless the frequency can be
/// read — measured *efficiency*
/// numbers against this synthetic peak are indicative only, which
/// EXPERIMENTS.md discusses.
pub fn host() -> Platform {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let l1d = read_cache_size("index0").unwrap_or(32 * KB);
    let l2 = read_cache_size("index2").unwrap_or(512 * KB);
    let l3 = read_cache_size("index3");
    let frequency_ghz = read_cpu_mhz().map(|m| m / 1000.0).unwrap_or(2.0);
    // Two 128-bit FMA pipes (every recent x86/ARM core): 16 flops/cycle.
    let peak = cores as f64 * frequency_ghz * 16.0;
    // The baseline encoding's *architectural* register file: 32 × 128-bit
    // on AArch64 (NEON), 16 × XMM on x86_64, fused where the build enables
    // FMA. `ndirect-core` derives tiles for wider registry entries over
    // their own files (`Platform::is_host`). Getting this wrong makes the
    // model pick spilling tiles.
    let simd = if cfg!(target_arch = "aarch64") {
        SimdSpec::NEON
    } else {
        SimdSpec {
            vector_bits: 128,
            num_vregs: 16,
            fma_per_cycle: 2.0,
            lane_fma: false,
            fused: cfg!(target_feature = "fma"),
        }
    };
    Platform {
        name: format!("host ({} cores, {})", cores, std::env::consts::ARCH),
        cores,
        frequency_ghz,
        peak_fp32_gflops: peak,
        max_bandwidth_gib_s: 20.0,
        cache: CacheSpec {
            l1d,
            l2,
            l2_shared_by: 1,
            l3,
            line: 64,
            replacement: Replacement::Lru,
        },
        simd,
        host: true,
        alpha: 2.0,
    }
}

/// Reads the current core clock from `/proc/cpuinfo` (Linux), in MHz.
fn read_cpu_mhz() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("cpu MHz") {
            return rest.trim_start_matches([' ', '\t', ':']).trim().parse().ok();
        }
    }
    None
}

/// Reads `/sys/devices/system/cpu/cpu0/cache/<index>/size` (Linux), parsing
/// the `K`/`M` suffix convention.
fn read_cache_size(index: &str) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/{index}/size");
    let text = std::fs::read_to_string(path).ok()?;
    parse_cache_size(text.trim())
}

fn parse_cache_size(text: &str) -> Option<usize> {
    if let Some(kb) = text.strip_suffix('K') {
        kb.parse::<usize>().ok().map(|v| v * KB)
    } else if let Some(mb) = text.strip_suffix('M') {
        mb.parse::<usize>().ok().map(|v| v * MB)
    } else {
        text.parse::<usize>().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_core_counts_and_peaks() {
        let p = phytium_2000p();
        assert_eq!(p.cores, 64);
        assert!((p.flops_per_cycle_per_core() - 8.0).abs() < 1e-9);
        let k = kp920();
        assert_eq!(k.cores, 64);
        assert!((k.flops_per_cycle_per_core() - 16.0).abs() < 1e-9);
        let t = thunderx2();
        assert_eq!(t.cores, 32);
        assert!((t.flops_per_cycle_per_core() - 16.0).abs() < 0.01);
        let r = rpi4();
        assert_eq!(r.cores, 4);
    }

    #[test]
    fn phytium_l2_is_cluster_shared_and_no_l3() {
        let p = phytium_2000p();
        assert_eq!(p.cache.l2_shared_by, 4);
        assert_eq!(p.cache.l2_per_core(), 512 * KB);
        assert!(p.cache.l3.is_none());
        assert_eq!(p.cache.replacement, Replacement::PseudoRandom);
    }

    #[test]
    fn hpc_platforms_excludes_rpi() {
        let names: Vec<String> = hpc_platforms().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vec!["Phytium 2000+", "KP920", "ThunderX2"]);
    }

    #[test]
    fn host_detection_is_sane() {
        let h = host();
        assert!(h.cores >= 1);
        assert!(h.cache.l1d >= 8 * KB);
        assert!(h.peak_fp32_gflops > 0.0);
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("32K"), Some(32 * KB));
        assert_eq!(parse_cache_size("1M"), Some(MB));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size("?"), None);
    }
}
