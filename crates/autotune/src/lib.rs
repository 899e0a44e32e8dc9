//! An Ansor-like schedule autotuner for direct convolution.
//!
//! The paper's strongest search-based baseline is Ansor (TVM): evolutionary
//! search over a hierarchical schedule space with a learned cost model,
//! given a budget of measured trials (1,000 per convolution layer in §7.3).
//! This crate reproduces that *methodology* against the same operator our
//! library implements:
//!
//! * [`space`] — the schedule search space: register tiles `(Vw, Vk)`,
//!   cache tiles `(Tc, Tk, Th)`, packing mode, and the thread-grid split;
//! * [`cost`] — a learned linear cost model over schedule features,
//!   retrained on the measurements gathered so far (Ansor's
//!   measure-and-learn loop);
//! * [`search`] — evolutionary search: random initial population, tournament
//!   selection, mutation of one parameter at a time, cost-model-guided
//!   pruning of candidates before spending real measurements.
//!
//! The tuner measures real executions (like Ansor's RPC measurement), so
//! tuned throughput is directly comparable to nDirect's model-derived
//! schedule — the comparison of the paper's Figure 6.

// This crate has no business touching raw pointers; the auditor's
// lint-header rule holds that line at compile time.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod search;
pub mod space;

pub use cache::ScheduleCache;
pub use search::{tune, TuneReport, TuneSettings};
pub use space::{random_schedule, ScheduleSpace};
