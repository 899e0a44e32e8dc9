//! The serving telemetry plane (DESIGN.md §16): always-on per-stage
//! latency histograms, fault counters, and backpressure gauges, per model
//! and aggregate, registered in a [`MetricsRegistry`] so one snapshot
//! serializes everything as JSON or Prometheus text.
//!
//! Everything here records unconditionally — an inference server that
//! cannot report its own p99 is not operable — while the Chrome-trace
//! span emission for the same stage transitions stays behind the `probe`
//! feature (see `server.rs`, which calls `ndirect_probe::record_span`
//! next to each histogram record).
//!
//! Stage model (one request's life, each bounded by [`ndirect_probe::now_ns`]
//! timestamps carried on the `Pending`):
//!
//! ```text
//! submit ──admission──▶ taken by batcher ──linger──▶ batch formed
//!        ──dispatch──▶ shard picks it up ──execute──▶ kernel done
//!        ──delivery──▶ ticket resolved          (latency = the sum)
//! ```

use std::sync::Arc;
use std::time::Duration;

use ndirect_probe::metrics::{
    Counter, Gauge, LogHistogram, MetricsRegistry, MetricsSnapshot, RateWindow,
};

/// Every metric family the serving plane registers, by name; the chaos
/// suite asserts that a snapshot carries all of them. Types and units are
/// catalogued in DESIGN.md §16.
pub const METRIC_CATALOG: &[&str] = &[
    // Counters (per model and aggregate).
    "serve_enqueued_total",
    "serve_shed_total",
    "serve_shed_overload_total",
    "serve_expired_arrival_total",
    "serve_expired_queue_total",
    "serve_late_total",
    "serve_completed_total",
    "serve_failed_total",
    "serve_retries_total",
    "serve_degraded_total",
    "serve_panics_total",
    "serve_batches_total",
    "serve_batched_requests_total",
    // Gauges (aggregate).
    "serve_queue_depth",
    "serve_queue_high_water",
    "serve_completed_rps",
    "serve_shed_rps",
    // Histograms (per model and aggregate; `_ns` families in nanoseconds).
    "serve_stage_admission_ns",
    "serve_stage_linger_ns",
    "serve_stage_dispatch_ns",
    "serve_stage_execute_ns",
    "serve_stage_delivery_ns",
    "serve_latency_ns",
    "serve_service_ns",
    "serve_batch_size",
];

/// One label scope's worth of handles: either the unlabeled aggregate or
/// one `model="<name>"` slice. Counters and histograms are bumped in
/// pairs via [`ServeMetrics::sets`].
pub(crate) struct ModelSet {
    // Admission and outcome counters.
    pub(crate) enqueued: Arc<Counter>,
    /// All admission refusals (overload + expired-on-arrival + draining).
    pub(crate) shed: Arc<Counter>,
    pub(crate) shed_overload: Arc<Counter>,
    pub(crate) expired_arrival: Arc<Counter>,
    pub(crate) expired_queue: Arc<Counter>,
    pub(crate) late: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) degraded: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) batched_requests: Arc<Counter>,
    // Per-stage latency attribution.
    pub(crate) stage_admission: Arc<LogHistogram>,
    pub(crate) stage_linger: Arc<LogHistogram>,
    pub(crate) stage_dispatch: Arc<LogHistogram>,
    pub(crate) stage_execute: Arc<LogHistogram>,
    pub(crate) stage_delivery: Arc<LogHistogram>,
    /// End-to-end submit → ticket resolution.
    pub(crate) latency: Arc<LogHistogram>,
    /// Per-request share of batch execution (execute / batch size); its
    /// p99 feeds the `Overloaded::retry_after` hint.
    pub(crate) service: Arc<LogHistogram>,
    pub(crate) batch_size: Arc<LogHistogram>,
}

impl ModelSet {
    fn register(reg: &MetricsRegistry, labels: &[(&str, &str)]) -> ModelSet {
        let c = |name: &str, help: &str| reg.counter(name, help, labels);
        let h = |name: &str, help: &str| reg.histogram(name, help, labels);
        ModelSet {
            enqueued: c("serve_enqueued_total", "requests admitted into the queue"),
            shed: c(
                "serve_shed_total",
                "requests refused admission (overload, arrival-expired, draining)",
            ),
            shed_overload: c(
                "serve_shed_overload_total",
                "requests refused for queue pressure (high-water mark)",
            ),
            expired_arrival: c(
                "serve_expired_arrival_total",
                "requests whose deadline had already passed at submit",
            ),
            expired_queue: c(
                "serve_expired_queue_total",
                "admitted requests cancelled by the queue deadline sweep",
            ),
            late: c(
                "serve_late_total",
                "results delivered after their deadline (flagged, not dropped)",
            ),
            completed: c("serve_completed_total", "requests resolved with a result"),
            failed: c("serve_failed_total", "requests resolved with an error after admission"),
            retries: c("serve_retries_total", "transient-failure retries performed"),
            degraded: c(
                "serve_degraded_total",
                "requests answered by the minimal-schedule degraded plan",
            ),
            panics: c(
                "serve_panics_total",
                "requests that panicked the kernel and were isolated",
            ),
            batches: c("serve_batches_total", "batches dispatched to shards"),
            batched_requests: c(
                "serve_batched_requests_total",
                "requests carried inside dispatched batches",
            ),
            stage_admission: h(
                "serve_stage_admission_ns",
                "submit to batcher take (queue wait), nanoseconds",
            ),
            stage_linger: h(
                "serve_stage_linger_ns",
                "batcher take to batch formed (coalescing linger), nanoseconds",
            ),
            stage_dispatch: h(
                "serve_stage_dispatch_ns",
                "batch formed to shard pickup (dispatch queue), nanoseconds",
            ),
            stage_execute: h(
                "serve_stage_execute_ns",
                "plan execution wall time of the request's batch, nanoseconds",
            ),
            stage_delivery: h(
                "serve_stage_delivery_ns",
                "kernel done to ticket resolved (scatter + wake), nanoseconds",
            ),
            latency: h("serve_latency_ns", "end-to-end submit to delivery, nanoseconds"),
            service: h(
                "serve_service_ns",
                "per-request share of batch execution, nanoseconds (p99 feeds retry_after)",
            ),
            batch_size: h("serve_batch_size", "requests coalesced per dispatched batch"),
        }
    }
}

/// All of a server's metric handles plus the registry they live in.
pub(crate) struct ServeMetrics {
    registry: MetricsRegistry,
    pub(crate) aggregate: ModelSet,
    pub(crate) models: Vec<ModelSet>,
    /// Submit-queue depth at the last observation point.
    pub(crate) queue_depth: Arc<Gauge>,
    /// Highest depth any push observed (high-water mark).
    pub(crate) queue_high_water: Arc<Gauge>,
    pub(crate) completed_rps: Arc<RateWindow>,
    pub(crate) shed_rps: Arc<RateWindow>,
}

impl ServeMetrics {
    pub(crate) fn new(model_names: &[&str]) -> ServeMetrics {
        let registry = MetricsRegistry::new();
        let aggregate = ModelSet::register(&registry, &[]);
        let models = model_names
            .iter()
            .map(|name| ModelSet::register(&registry, &[("model", name)]))
            .collect();
        let queue_depth = registry.gauge(
            "serve_queue_depth",
            "submit-queue depth at last observation",
            &[],
        );
        let queue_high_water = registry.gauge(
            "serve_queue_high_water",
            "highest submit-queue depth observed",
            &[],
        );
        let completed_rps = registry.rate(
            "serve_completed_rps",
            "completions per second (10 s sliding window)",
            &[],
            10,
        );
        let shed_rps = registry.rate(
            "serve_shed_rps",
            "admission refusals per second (10 s sliding window)",
            &[],
            10,
        );
        ServeMetrics {
            registry,
            aggregate,
            models,
            queue_depth,
            queue_high_water,
            completed_rps,
            shed_rps,
        }
    }

    /// The aggregate scope plus the model's own scope: every counter or
    /// histogram record loops over this pair so per-model and aggregate
    /// views stay consistent by construction.
    pub(crate) fn sets(&self, model: usize) -> [&ModelSet; 2] {
        // INDEX: model indexes were validated against the model table at
        // submission; one ModelSet exists per registered model.
        [&self.aggregate, &self.models[model]]
    }

    /// Snapshots every registered metric.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Floor of the `Overloaded::retry_after` hint.
pub(crate) const RETRY_AFTER_FLOOR: Duration = Duration::from_millis(1);
/// Ceiling of the `Overloaded::retry_after` hint.
pub(crate) const RETRY_AFTER_CEIL: Duration = Duration::from_secs(2);
/// Assumed per-request service time before any request has completed.
pub(crate) const COLD_SERVICE_NS: u64 = 10_000_000;

/// The measured backoff hint (ISSUE 9 satellite): estimated time for the
/// shards to drain `depth` queued requests at the *measured* p99
/// per-request service time, clamped to `[RETRY_AFTER_FLOOR,
/// RETRY_AFTER_CEIL]`. Three regimes fall out of the clamp:
///
/// * **light** — a shallow queue of fast requests drains in under a
///   millisecond; the floor keeps clients from busy-retrying;
/// * **proportional** — the estimate passes through: `depth · p99 /
///   shards`;
/// * **saturated** — a deep queue of slow requests would take longer than
///   the ceiling; 2 s caps the hint so clients re-probe rather than
///   giving up on a stale estimate.
///
/// `p99_service_ns == 0` (no completion yet) falls back to
/// [`COLD_SERVICE_NS`] per request.
pub(crate) fn retry_hint(depth: usize, shards: usize, p99_service_ns: u64) -> Duration {
    let per_request_ns = if p99_service_ns == 0 {
        COLD_SERVICE_NS
    } else {
        p99_service_ns
    };
    let drain_ns =
        u128::from(per_request_ns) * depth.max(1) as u128 / shards.max(1) as u128;
    Duration::from_nanos(drain_ns.min(u128::from(u64::MAX)) as u64)
        .clamp(RETRY_AFTER_FLOOR, RETRY_AFTER_CEIL)
}
