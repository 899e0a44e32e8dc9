//! The tile-kernel registry: one entry per ISA encoding of the same row
//! bodies, detected at run time and chosen once per plan (after rten's
//! `Kernel` trait).
//!
//! An entry holds no kernels of its own. [`Kernel::run`] takes a closure
//! that inlines one tile kernel — a `(Vw, Vk/4, stride)` instantiation of
//! [`crate::kernel`]'s row walk, the runtime-bound edge kernel, an `NHWC`
//! tile, a depthwise channel — and the entry's `#[target_feature]` sits on
//! the out-of-line [`MicroKernel::run`] that calls it, so each
//! instantiation is compiled once per entry. A kernel reached without
//! going through `run` compiles for the baseline, silently.
//!
//! On x86-64 the entries are the SSE2 baseline (`sse`) and `avx2`: the
//! same `F32x4` code with VEX three-operand encoding and load-port
//! broadcasts. `avx2` enables no FMA, so `F32x4::fma` stays a multiply and
//! an add, every output sums the same products in the same order, and both
//! entries produce the same bits. A build whose baseline already has wider
//! features (`sse+fma`), `neon` and `scalar` hold the baseline alone. FMA
//! and 8- or 16-lane entries are not here yet.

use ndirect_simd::backend_name;

/// One ISA encoding of the tile kernels.
pub(crate) trait MicroKernel {
    /// The name [`Kernel::name`] reports.
    fn name() -> &'static str;
    /// Whether the running CPU can execute this entry.
    fn supported() -> bool;
    /// Calls `body`, compiled with this entry's target features.
    ///
    /// # Safety
    ///
    /// [`MicroKernel::supported`] holds on the running CPU.
    unsafe fn run<R>(body: impl FnOnce() -> R) -> R;
}

/// Stamps one registry entry: its type, name, detection, and a `run`
/// carrying the entry's target features.
macro_rules! micro_kernel {
    ($entry:ident, $name:expr, $supported:expr $(, $feature:literal)?) => {
        pub(crate) struct $entry;

        impl MicroKernel for $entry {
            fn name() -> &'static str {
                $name
            }

            fn supported() -> bool {
                $supported
            }

            /// # Safety
            ///
            /// The running CPU has the entry's features (`supported()`).
            $(#[target_feature(enable = $feature)])?
            #[inline(never)]
            unsafe fn run<R>(body: impl FnOnce() -> R) -> R {
                body()
            }
        }
    };
}

micro_kernel!(Baseline, backend_name(), true);
// Only over the plain SSE2 build: a baseline with FMA would make this entry
// fuse too, and `neon`/`scalar` have no use for it.
#[cfg(target_arch = "x86_64")]
micro_kernel!(
    Avx2,
    "avx2",
    backend_name() == "sse" && std::arch::is_x86_feature_detected!("avx2"),
    "avx2"
);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

#[cfg(target_arch = "x86_64")]
const ENTRIES: &[Entry] = &[Entry::Baseline, Entry::Avx2];
#[cfg(not(target_arch = "x86_64"))]
const ENTRIES: &[Entry] = &[Entry::Baseline];

/// A registry entry the running CPU supports. [`Kernel::supported`] is
/// the only way to make one, which is what lets a tile kernel run under
/// the entry's target features safely. Plans pick [`Kernel::best`] at
/// build and report it by [`Kernel::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(Entry);

impl Kernel {
    /// Every supported entry, the baseline first: each one produces the
    /// same bits, so tests hold every one to the first.
    pub fn supported() -> impl Iterator<Item = Kernel> {
        ENTRIES
            .iter()
            .filter(|e| match e {
                Entry::Baseline => Baseline::supported(),
                #[cfg(target_arch = "x86_64")]
                Entry::Avx2 => Avx2::supported(),
            })
            .map(|&e| Kernel(e))
    }

    /// The last supported entry in registry order, the one plans run.
    pub fn best() -> Kernel {
        Kernel::supported().last().unwrap_or(Kernel(Entry::Baseline))
    }

    /// The entry's registry name (`"sse"`, `"avx2"`, `"neon"`, …).
    pub fn name(self) -> &'static str {
        match self.0 {
            Entry::Baseline => Baseline::name(),
            #[cfg(target_arch = "x86_64")]
            Entry::Avx2 => Avx2::name(),
        }
    }

    /// Runs `body` — one tile kernel, which must be `#[inline(always)]`
    /// all the way down — compiled out of line for this entry.
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self.0 {
            // SAFETY: a `Kernel` is only built from an entry whose
            // `supported()` held, so the CPU has its features.
            Entry::Baseline => unsafe { Baseline::run(body) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Entry::Avx2 => unsafe { Avx2::run(body) },
        }
    }
}
