//! # nDirect — layout-preserving direct convolution for multi-core CPUs
//!
//! A from-scratch Rust implementation of the convolution algorithm of
//! *"Optimizing Direct Convolutions on ARM Multi-Cores"* (Wang, Yang, Fang
//! et al., SC'23). The design goals, in the paper's order:
//!
//! 1. **Layout compatibility** — activations stay in the framework's `NCHW`
//!    (or `NHWC`) layout, the one the filter's `KCRS` (or `KRSC`) layout
//!    names ([`plan`]); only the small filter tensor is re-laid-out
//!    *on the fly* into `⌈Tk/Vk⌉·Tc·R·S·Vk` blocks ([`filter`]);
//! 2. **A convolution-native micro-kernel** — an outer-product register
//!    tile of `Vw` output pixels × `Vk` output channels updated with
//!    broadcast FMAs ([`kernel`], the paper's Algorithm 3), with `(Vw, Vk)`
//!    chosen by an analytic register/arithmetic-intensity model
//!    ([`model::register_tile`], Eqs. 3–4);
//! 3. **Latency-hidden packing** — the input patch for each output strip is
//!    gathered into an L1-resident linear buffer *fused with the first
//!    `kv` iteration's FMAs* ([`pack`], §5.3), instead of as a separate
//!    sequential pass;
//! 4. **Model-driven cache tiling** — `Tc, Tk, Th` from cache-capacity
//!    inequalities ([`model::cache_tiles`], Eqs. 1–2);
//! 5. **Analytic thread mapping** — a static `PTn × PTk` grid maximizing
//!    per-thread arithmetic intensity with the measured streaming /
//!    non-streaming coefficient `α` ([`model::thread_map`], Eqs. 5–6).
//!
//! ## Quick start
//!
//! ```
//! use ndirect_core::try_conv_ndirect;
//! use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
//! use ndirect_threads::StaticPool;
//!
//! let shape = ConvShape::square(1, 64, 64, 28, 3, 1); // N C K H/W R/S str
//! let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 0);
//! let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 0);
//! let pool = StaticPool::new(1);
//! let output = try_conv_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
//! assert_eq!(output.dims(), (1, 64, 28, 28));
//! ```
//!
//! For control over every parameter (tile sizes, packing mode, thread
//! grid), build a [`Schedule`] — either [`Schedule::derive`]d from a
//! [`ndirect_platform::Platform`] or constructed manually (the autotuner
//! crate searches over schedules).

#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod conv;
pub mod conv3d;
pub mod depthwise;
pub mod dwpw;
pub mod error;
pub mod filter;
pub mod int16;
pub mod kernel;
mod microkernel;
pub mod model;
pub mod pack;
pub mod plan;
pub mod quantize;
pub mod registry;
pub mod schedule;

pub use conv::{try_conv_ndirect, try_conv_ndirect_with};
pub use depthwise::{
    conv_depthwise, try_compose_shapes, try_conv_depthwise, try_conv_depthwise_separable,
};
pub use dwpw::FusedDwPwPlan;
pub use conv3d::{conv3d_naive, try_conv3d_ndirect, Conv3dShape};
pub use error::Error;
#[doc(hidden)]
pub use microkernel::Kernel;
pub use int16::{conv_int16_naive, try_conv_int16, Int16Filter, Int16Tensor};
pub use quantize::{try_conv_quantized, QuantParams};
pub use filter::{transform_filter, transform_filter_block, TransformedFilter};
pub use plan::{ConvPlan, DepthwisePlan};
pub use registry::{PlanKey, PlanRegistry};
pub use schedule::{FilterState, PackingMode, Schedule};
