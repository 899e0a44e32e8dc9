//! The tile-kernel registry: one entry per ISA encoding of the same row
//! bodies, detected at run time and chosen once per plan (after rten's
//! `Kernel` trait).
//!
//! An entry holds no kernels of its own. It names the vector type the
//! general row body runs on (every entry runs the pointwise body on the
//! baseline's `F32x4`) and the size of its register file, and
//! [`MicroKernel::run`] takes a closure that inlines one tile kernel — a
//! `(Vw, Vk/L, stride)` instantiation of [`crate::kernel`]'s row walk, the
//! runtime-bound edge kernel, a depthwise channel — with the entry's
//! `#[target_feature]` on that out-of-line `run`, so each instantiation is
//! compiled once per entry. A kernel reached without going through `run`
//! compiles for the baseline, silently.
//!
//! On x86-64 the entries are the build's baseline (`sse`, or `sse+fma`
//! when `RUSTFLAGS` enable FMA) and `avx2+fma`. The latter runs the general
//! body on 8-lane `F32x8` vectors with a fused multiply-add (a vector
//! private to this crate, since its methods need the entry's features),
//! and the pointwise body on the baseline's `F32x4` code, which stays
//! unfused on an `sse` build (`mulps` + `addps` under VEX encoding).
//! [`with_entry!`] is the one dispatch over the entries; a `Kernel`'s
//! methods go through it, and [`Kernel::run_as`] runs one named entry's
//! instantiation alone. Lanes run over
//! output channels, never over the reduction, so every output sums the
//! same products in the same order under every entry, and two entries
//! differ in bits only where one fuses a body and the other does not
//! ([`Kernel::fused`]). `neon` and `scalar` hold the baseline alone.
//! 16-lane (AVX-512) entries are not here yet.
//!
//! The entries are declared in [`crate::kernel`], beside the tile table
//! lines they stamp. Each entry's register file
//! ([`Kernel::register_file`]) is what Eqs. 3–4 derive the host's tiles
//! over.

use ndirect_platform::SimdSpec;
use ndirect_simd::{F32x4, SimdVec};

use crate::kernel::Body;

/// One ISA encoding of the tile kernels.
pub(crate) trait MicroKernel {
    /// The entry's identity in the registry.
    const ENTRY: Entry;
    /// Architectural vector registers the entry's code can hold.
    const REGISTERS: usize;
    /// Whether the ISA has lane-indexed FMA (Eq. 3's NEON accounting).
    const LANE_FMA: bool;
    /// The vector the [`Body::General`] kernels run on.
    type General: SimdVec;
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

/// Stamps one registry entry: its type, name, detection, register file
/// (the vector the general body runs on, the register count), and a `run`
/// carrying the entry's target features. The entries are declared beside
/// the tile table lines they stamp, in [`crate::kernel`].
macro_rules! micro_kernel {
    (
        $entry:ident, $name:expr, $supported:expr,
        general: $general:ty, registers: $registers:expr, lane_fma: $lane_fma:expr
        $(, $feature:literal)?
    ) => {
        pub(crate) struct $entry;

        impl $crate::microkernel::MicroKernel for $entry {
            const ENTRY: $crate::microkernel::Entry = $crate::microkernel::Entry::$entry;
            const REGISTERS: usize = $registers;
            const LANE_FMA: bool = $lane_fma;
            type General = $general;

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

pub(crate) use micro_kernel;

/// The registry's entries, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Entry {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

#[cfg(target_arch = "x86_64")]
const ENTRIES: &[Entry] = &[Entry::Baseline, Entry::Avx2Fma];
#[cfg(not(target_arch = "x86_64"))]
const ENTRIES: &[Entry] = &[Entry::Baseline];

/// Evaluates `$body` with the type `$E` naming the entry `$entry` is: the
/// registry's one dispatch over its entries ([`Kernel::run_as`] runs one
/// named entry).
macro_rules! with_entry {
    ($entry:expr, $E:ident => $body:expr) => {
        match $entry {
            $crate::microkernel::Entry::Baseline => {
                type $E = $crate::kernel::Baseline;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            $crate::microkernel::Entry::Avx2Fma => {
                type $E = $crate::kernel::Avx2Fma;
                $body
            }
        }
    };
}

pub(crate) use with_entry;

/// A registry entry the running CPU supports. [`Kernel::supported`] is
/// the only way to make one, which is what lets a tile kernel run under
/// the entry's target features safely. Plans pick [`Kernel::best`] at
/// build and report it by [`Kernel::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(Entry);

impl Kernel {
    /// Every supported entry, the baseline first.
    pub fn supported() -> impl Iterator<Item = Kernel> {
        ENTRIES.iter().filter(|&&e| with_entry!(e, E => E::supported())).map(|&e| Kernel(e))
    }

    /// The last supported entry in registry order, the one plans run.
    pub fn best() -> Kernel {
        Kernel::supported().last().unwrap_or(Kernel(Entry::Baseline))
    }

    /// The entry's registry name (`"sse"`, `"avx2+fma"`, `"neon"`, …).
    pub fn name(self) -> &'static str {
        with_entry!(self.0, E => E::name())
    }

    /// The register file `body`'s kernels run on under this entry: its
    /// vector's lanes and whether its multiply-add is fused (the
    /// pointwise body's vector is the baseline's `F32x4` under every
    /// entry), the entry's register count. Eqs. 3–4 derive the host's
    /// tiles over it.
    pub(crate) fn register_file(self, body: Body) -> SimdSpec {
        with_entry!(self.0, E => {
            type General = <E as MicroKernel>::General;
            let (lanes, fused) = match body {
                Body::General => (General::LANES, General::FUSED),
                Body::Pointwise => (F32x4::LANES, F32x4::FUSED),
            };
            SimdSpec {
                vector_bits: 32 * lanes,
                num_vregs: E::REGISTERS,
                fma_per_cycle: 2.0,
                lane_fma: E::LANE_FMA,
                fused,
            }
        })
    }

    /// Whether `body`'s kernels round each multiply-add once under this
    /// entry: what an order-matched scalar oracle must do to give their
    /// bits.
    pub fn fused(self, body: Body) -> bool {
        self.register_file(body).fused
    }

    /// The entry this kernel is, for [`with_entry!`].
    pub(crate) fn entry(self) -> Entry {
        self.0
    }

    /// Whether this kernel is one of `entries`.
    pub(crate) fn is_one_of(self, entries: &[Entry]) -> bool {
        entries.contains(&self.0)
    }

    /// Runs `body` — one tile kernel, which must be `#[inline(always)]`
    /// all the way down — compiled out of line for this entry.
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        // SAFETY: a `Kernel` is only built from an entry whose
        // `supported()` held, so the CPU has its features.
        with_entry!(self.0, E => unsafe { E::run(body) })
    }

    /// Runs `body` compiled for entry `E` only, when this kernel is `E`;
    /// `false` (and nothing run) otherwise. Code that only `E` may run —
    /// its wider vectors — is instantiated for `E` alone.
    #[inline(always)]
    pub(crate) fn run_as<E: MicroKernel>(self, body: impl FnOnce()) -> bool {
        let is = self.0 == E::ENTRY;
        if is {
            // SAFETY: `self` was built from a supported entry, and it is `E`.
            unsafe { E::run(body) }
        }
        is
    }
}
