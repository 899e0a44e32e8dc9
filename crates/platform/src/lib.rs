//! Evaluation-platform descriptions and memory microbenchmarks.
//!
//! The paper's analytic models consume a handful of machine parameters:
//! cache capacities (Eqs. 1–2), vector register file size (Eq. 3), core
//! count, and the streaming/non-streaming memory-access coefficient `α`
//! (Eqs. 5–6, measured offline with a microbenchmark). This crate provides:
//!
//! * [`Platform`] — those parameters, with [`presets`] reproducing the
//!   paper's Table 3 machines exactly, so the model-derived tile sizes and
//!   thread mappings can be checked against the paper;
//! * [`presets::host`] — a best-effort description of the machine the code
//!   is actually running on (used when *measuring*);
//! * [`alpha`] — the α microbenchmark (§6.2): time per element of streaming
//!   vs non-streaming traversals of a buffer larger than the LLC;
//! * [`timer`] — a tiny wall-clock scope timer used by every per-phase
//!   breakdown in the workspace;
//! * [`roofline`] — achieved-GFLOPS / %-of-peak / arithmetic-intensity
//!   attribution against the machine's compute and bandwidth ceilings.

// This crate has no business touching raw pointers; the auditor's
// lint-header rule holds that line at compile time.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod alpha;
pub mod presets;
pub mod roofline;
pub mod spec;
pub mod timer;

pub use alpha::{measure_alpha, AlphaMeasurement};
pub use presets::{host, kp920, phytium_2000p, rpi4, thunderx2, PAPER_PLATFORM_NAMES};
pub use roofline::{conv_min_traffic_bytes, BoundKind, LayerPerf, Roofline};
pub use spec::{CacheSpec, Platform, Replacement, SimdSpec};
pub use timer::Stopwatch;
