//! Runtime ISA capability detection and graceful degradation.
//!
//! The [`crate::F32x4`] backend is the target's compiled-in baseline (SSE2
//! on x86-64); `ndirect-core`'s kernel registry adds wider encodings per
//! plan by runtime detection, and names them itself, so [`compiled_isa`]
//! and [`detected_isa`] describe the build and the CPU only. A binary
//! built with `-C target-feature=+fma` (or any feature beyond the target's
//! baseline) can land on a machine whose CPU lacks that extension — where
//! the first vector instruction dies with an illegal-instruction fault,
//! not a catchable error. This module closes that gap: [`verify_host`]
//! compares what the binary was compiled to require against what the
//! running CPU reports (via `is_x86_feature_detected!` on x86_64; NEON is
//! architecturally guaranteed on aarch64), and the convolution drivers
//! call it once at their fallible API boundary so the mismatch surfaces as
//! a typed error instead of a crash.
//!
//! [`force_unsupported`] is a test hook that makes [`verify_host`] report
//! failure, letting degradation paths be exercised on any machine.

use std::sync::atomic::{AtomicBool, Ordering};

/// Instruction sets the workspace's kernels can be compiled against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// ARMv8 NEON (baseline on aarch64).
    Neon,
    /// x86-64 SSE2 with fused multiply-add (AVX2-era machines).
    SseFma,
    /// x86-64 SSE2 only.
    Sse,
    /// Portable scalar fallback — runs anywhere.
    Scalar,
}

impl Isa {
    /// Display name, matching [`crate::backend_name`].
    pub fn name(self) -> &'static str {
        match self {
            Isa::Neon => "neon",
            Isa::SseFma => "sse+fma",
            Isa::Sse => "sse",
            Isa::Scalar => "scalar",
        }
    }
}

/// The ISA this binary's kernels were compiled to require.
pub fn compiled_isa() -> Isa {
    #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
    {
        Isa::Neon
    }
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        if cfg!(target_feature = "fma") {
            Isa::SseFma
        } else {
            Isa::Sse
        }
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        feature = "force-scalar"
    ))]
    {
        Isa::Scalar
    }
}

/// The best ISA the *running* CPU supports, probed at runtime.
///
/// Never crashes: on architectures without a probing facility it falls
/// back to the compile-time baseline, which is guaranteed present (the
/// program is already executing).
pub fn detected_isa() -> Isa {
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is mandatory in ARMv8-A; if we are running, it is there.
        Isa::Neon
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            Isa::SseFma
        } else if std::arch::is_x86_feature_detected!("sse2") {
            Isa::Sse
        } else {
            Isa::Scalar
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Isa::Scalar
    }
}

/// The binary requires an ISA extension the host CPU does not report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedIsa {
    /// What the kernels were compiled to require.
    pub required: Isa,
    /// The best the host offers.
    pub available: Isa,
}

impl std::fmt::Display for UnsupportedIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernels compiled for {} but host CPU only supports {} — \
             rebuild without the missing target features (or with the \
             force-scalar feature)",
            self.required.name(),
            self.available.name()
        )
    }
}

impl std::error::Error for UnsupportedIsa {}

static FORCE_UNSUPPORTED: AtomicBool = AtomicBool::new(false);

/// Test hook: makes [`verify_host`] fail as if the host CPU lacked the
/// compiled ISA, so callers' degradation paths can be exercised anywhere.
pub fn force_unsupported(on: bool) {
    // ORDERING: SeqCst — cold test hook, never on the per-tile path; the
    // strongest order keeps it trivially correct.
    FORCE_UNSUPPORTED.store(on, Ordering::SeqCst);
}

fn rank(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => 0,
        Isa::Sse => 1,
        Isa::SseFma => 2,
        // NEON is its own architecture; ranking only compares within one.
        Isa::Neon => 1,
    }
}

/// Checks that the host CPU supports everything the compiled kernels
/// assume. `Ok` carries the active ISA; `Err` explains the mismatch.
pub fn verify_host() -> Result<Isa, UnsupportedIsa> {
    let required = compiled_isa();
    // ORDERING: SeqCst — pairs with the test hook's store; capability
    // verification runs once at setup, not on the kernel path.
    if FORCE_UNSUPPORTED.load(Ordering::SeqCst) {
        return Err(UnsupportedIsa {
            required,
            available: Isa::Scalar,
        });
    }
    let available = detected_isa();
    // Scalar needs nothing; cross-architecture mismatch cannot happen in a
    // running process, so comparing ranks within the architecture suffices.
    if required == Isa::Scalar || rank(available) >= rank(required) {
        Ok(required)
    } else {
        Err(UnsupportedIsa {
            required,
            available,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_supports_what_it_is_running() {
        // The binary is executing, so its baseline must verify.
        let isa = verify_host().expect("running binary must be supported");
        assert_eq!(isa, compiled_isa());
    }

    #[test]
    fn detection_never_panics_and_is_stable() {
        assert_eq!(detected_isa(), detected_isa());
    }

    #[test]
    fn force_unsupported_hook_fails_verification() {
        force_unsupported(true);
        let err = verify_host().expect_err("hook must force failure");
        assert_eq!(err.required, compiled_isa());
        let msg = err.to_string();
        assert!(msg.contains("host CPU only supports"), "{msg}");
        force_unsupported(false);
        assert!(verify_host().is_ok());
    }
}
