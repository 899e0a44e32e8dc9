//! CNN model zoo and inference engine for the end-to-end experiments.
//!
//! The paper's Figure 7 integrates nDirect into MXNet and times whole
//! ResNet-50/101 and VGG-16/19 forward passes against Ansor-tuned models
//! and MXNet's im2col+OpenBLAS path. This crate supplies the equivalent
//! substrate:
//!
//! * [`ops`] — the non-convolution operators a forward pass needs (bias /
//!   folded batch-norm, ReLU, max/global-average pooling, fully-connected,
//!   softmax, residual add);
//! * [`layer`] — a small sequential IR with a save/restore pair for
//!   residual blocks;
//! * [`zoo`] — ResNet-50/101 and VGG-16/19 builders with seeded random
//!   weights (weights are a data substitution — FP32 conv throughput is
//!   data-independent, see DESIGN.md);
//! * [`engine`] — a forward-pass interpreter with pluggable convolution
//!   backends and per-operator timing;
//! * [`backend`] — adapters exposing nDirect (model-scheduled or
//!   autotuned-per-shape) through the same [`ndirect_baselines::Convolution`]
//!   interface as the baselines.

// This crate has no business touching raw pointers; the auditor's
// lint-header rule holds that line at compile time.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod layer;
pub mod ops;
pub mod zoo;

pub use backend::NDirectBackend;
pub use engine::{Engine, InferenceStats};
pub use error::ModelError;
pub use layer::{ConvLayer, FcLayer, Model, Node};
pub use zoo::{mobilenet_lite, resnet101, resnet50, tiny_resnet, vgg16, vgg19};
