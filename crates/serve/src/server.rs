//! The serving engine: admission → batcher → shard executors.
//!
//! ```text
//!  clients ──submit()──▶ [ SubmitQueue ]──batcher──▶ [ Dispatch ]──▶ shard 0 (StaticPool)
//!            (shed at      bounded MPMC   coalesces    bounded        shard 1 (StaticPool)
//!             high water)                 same-model    (backpressure)   …
//! ```
//!
//! The batcher coalesces same-model requests into larger-`N` batches —
//! the throughput lever both source papers pull — and the pinned
//! per-model schedule guarantees each sample of a batched execution is
//! bitwise identical to its `N = 1` execution, so batching is purely a
//! performance decision, never a numerics one.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ndirect_core::{ConvPlan, PlanKey, PlanRegistry, Schedule};
use ndirect_platform::Platform;
use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::{CancelToken, StaticPool};

use crate::error::{core_error_is_transient, ExpiredAt, ServeError};
use crate::metrics::{retry_hint, ServeMetrics};
use crate::queue::{Batch, BatchPlanOutcome, Dispatch, Pending, SubmitQueue};
use crate::ticket::{InferResponse, ResponseSlot, Ticket};

/// The span/trace key for a request: the ticket id's low 32 bits (ids are
/// sequential, so collisions need 2^32 requests in one trace window).
fn trace32(id: u64) -> u32 {
    id as u32
}

/// Registry tag of the pinned fast plan ([`pinned_schedule`]).
const TAG_PINNED: u64 = 0;
/// Registry tag of the minimal-schedule degraded fallback plan.
const TAG_DEGRADED: u64 = 1;

/// The schedule a server pins for a model: derived once from the model's
/// `N = 1` shape, filter pre-transformed. Every batch size executes under
/// these exact tile parameters, which is what makes per-sample results
/// bitwise identical across batch compositions (the per-output-element
/// accumulation order over `(c, r, s)` is fixed by the tiles, and rows
/// are independent). Public so test suites can build reference plans.
pub fn pinned_schedule(platform: &Platform, shape1: &ConvShape, threads: usize) -> Schedule {
    Schedule::derive(platform, shape1, threads)
        .with_filter_state(ndirect_core::FilterState::PreTransformed)
}

/// Serving-engine knobs. [`ServeConfig::default`] is sized for tests and
/// small deployments.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Submit-queue allocation (upper bound on queued requests).
    pub queue_capacity: usize,
    /// Admission control: submissions are shed with
    /// [`ServeError::Overloaded`] while the queue holds this many.
    pub high_water: usize,
    /// Most requests coalesced into one batch.
    pub max_batch: usize,
    /// Worker shard threads (each owns a [`StaticPool`]).
    pub shards: usize,
    /// [`StaticPool`] size per shard.
    pub threads_per_shard: usize,
    /// Transient-failure retries before degrading to the minimal plan.
    pub max_retries: usize,
    /// Backoff before retry `k` is `retry_backoff · 2^(k−1)`.
    pub retry_backoff: Duration,
    /// How long the batcher waits for same-model stragglers when a batch
    /// forms below `max_batch`. Zero disables lingering.
    pub batch_linger: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            high_water: 896,
            max_batch: 8,
            shards: 2,
            threads_per_shard: 1,
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
            batch_linger: Duration::from_micros(200),
        }
    }
}

/// A model registered with the server: a name, its `N = 1` input shape,
/// and its frozen weights.
pub struct ModelDef {
    /// Name clients submit against.
    pub name: String,
    /// The single-request convolution shape (`n` must be 1).
    pub shape: ConvShape,
    /// Frozen weights (`KCRS`). The server keys plans on this buffer's
    /// identity; it must not be mutated for the server's lifetime.
    pub filter: Filter,
}

/// A registered model with its pinned schedule and plan registry.
struct Model {
    shape1: ConvShape,
    filter: Filter,
    pinned: Schedule,
    registry: PlanRegistry,
}

impl Model {
    fn batch_shape(&self, nb: usize) -> ConvShape {
        ConvShape { n: nb, ..self.shape1 }
    }
}

/// Fault-injection hook compiled to constant no-ops unless testing or the
/// `chaos` feature is on.
#[derive(Clone, Default)]
struct FaultHook {
    #[cfg(any(test, feature = "chaos"))]
    sheet: Option<Arc<crate::faults::Faults>>,
}

impl FaultHook {
    fn refused_alloc(&self) -> bool {
        #[cfg(any(test, feature = "chaos"))]
        {
            self.sheet.as_ref().is_some_and(|f| f.take_refused_alloc())
        }
        #[cfg(not(any(test, feature = "chaos")))]
        {
            false
        }
    }

    fn panic_batch(&self) -> bool {
        #[cfg(any(test, feature = "chaos"))]
        {
            self.sheet.as_ref().is_some_and(|f| f.take_panic_batch())
        }
        #[cfg(not(any(test, feature = "chaos")))]
        {
            false
        }
    }

    fn kill_worker(&self) -> bool {
        #[cfg(any(test, feature = "chaos"))]
        {
            self.sheet.as_ref().is_some_and(|f| f.take_kill_worker())
        }
        #[cfg(not(any(test, feature = "chaos")))]
        {
            false
        }
    }

    fn poison_submit(&self) -> bool {
        #[cfg(any(test, feature = "chaos"))]
        {
            self.sheet.as_ref().is_some_and(|f| f.take_poison_submit())
        }
        #[cfg(not(any(test, feature = "chaos")))]
        {
            false
        }
    }

    fn kernel_delay(&self) -> Option<Duration> {
        #[cfg(any(test, feature = "chaos"))]
        {
            self.sheet.as_ref().and_then(|f| f.kernel_delay())
        }
        #[cfg(not(any(test, feature = "chaos")))]
        {
            None
        }
    }

    fn queue_hold(&self) {
        #[cfg(any(test, feature = "chaos"))]
        if let Some(f) = &self.sheet {
            f.wait_while_held();
        }
    }

    fn queue_stall(&self) -> Option<Duration> {
        #[cfg(any(test, feature = "chaos"))]
        {
            self.sheet.as_ref().and_then(|f| f.take_queue_stall())
        }
        #[cfg(not(any(test, feature = "chaos")))]
        {
            None
        }
    }
}

/// A point-in-time snapshot of the server's health counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub enqueued: u64,
    /// Requests refused admission (overload, arrival-expired, draining).
    pub shed: u64,
    /// Requests resolved with a result.
    pub completed: u64,
    /// Requests resolved with an error after admission.
    pub failed: u64,
    /// Deadlines missed after admission (cancelled in queue + delivered
    /// late).
    pub deadline_misses: u64,
    /// Batches dispatched to shards.
    pub batches: u64,
    /// Requests carried inside dispatched batches.
    pub batched_requests: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Requests answered by the degraded minimal-schedule plan.
    pub degraded: u64,
    /// Requests that panicked and were isolated from their batch peers.
    pub isolated_panics: u64,
    /// Current submit-queue depth.
    pub queue_depth: usize,
    /// Worker deaths detected (and healed) across all shard pools.
    pub worker_deaths: usize,
}

struct ServerInner {
    config: ServeConfig,
    models: Vec<Model>,
    by_name: HashMap<String, usize>,
    queue: SubmitQueue,
    dispatch: Dispatch,
    /// The telemetry plane (DESIGN.md §16): always-on per-stage
    /// histograms, fault counters, and backpressure gauges.
    metrics: ServeMetrics,
    next_id: AtomicU64,
    faults: FaultHook,
}

impl ServerInner {
    /// The measured backoff hint: current backlog drained at the live p99
    /// per-request service time (histogram-derived, not an EWMA guess).
    fn estimate_retry_after(&self, depth: usize) -> Duration {
        retry_hint(
            depth,
            self.config.shards,
            self.metrics.aggregate.service.quantile(99.0),
        )
    }
}

/// The multi-worker serving engine. See the [crate docs](crate) for the
/// pipeline and fault model.
pub struct Server {
    inner: Arc<ServerInner>,
    pools: Vec<Arc<StaticPool>>,
    batcher: Option<std::thread::JoinHandle<()>>,
    shards: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Builds a server: validates the config, pins each model's schedule,
    /// eagerly builds every model's `N = 1` plan (so misconfigured models
    /// fail here, not on the first request), spawns the shard pools and
    /// the pipeline threads.
    pub fn try_new(config: ServeConfig, models: Vec<ModelDef>) -> Result<Server, ServeError> {
        Self::build(config, models, FaultHook::default())
    }

    /// [`Server::try_new`] with a fault sheet attached; the chaos suites'
    /// entry point.
    #[cfg(any(test, feature = "chaos"))]
    pub fn with_faults(
        config: ServeConfig,
        models: Vec<ModelDef>,
        faults: Arc<crate::faults::Faults>,
    ) -> Result<Server, ServeError> {
        Self::build(config, models, FaultHook { sheet: Some(faults) })
    }

    fn build(config: ServeConfig, defs: Vec<ModelDef>, faults: FaultHook) -> Result<Server, ServeError> {
        let cfg_err = |msg: String| Err(ServeError::Config { msg });
        if config.queue_capacity == 0 {
            return cfg_err("queue_capacity must be >= 1".into());
        }
        if config.high_water == 0 || config.high_water > config.queue_capacity {
            return cfg_err(format!(
                "high_water must be in 1..={} (got {})",
                config.queue_capacity, config.high_water
            ));
        }
        if config.max_batch == 0 {
            return cfg_err("max_batch must be >= 1".into());
        }
        if config.shards == 0 {
            return cfg_err("shards must be >= 1".into());
        }
        if config.threads_per_shard == 0 {
            return cfg_err("threads_per_shard must be >= 1".into());
        }

        let platform = ndirect_platform::host();
        let mut models = Vec::with_capacity(defs.len());
        let mut by_name = HashMap::with_capacity(defs.len());
        let mut names = Vec::with_capacity(defs.len());
        for def in defs {
            if def.shape.n != 1 {
                return cfg_err(format!(
                    "model {:?}: signature shape must have n == 1 (got {})",
                    def.name, def.shape.n
                ));
            }
            if by_name.contains_key(&def.name) {
                return cfg_err(format!("duplicate model name {:?}", def.name));
            }
            let pinned = pinned_schedule(&platform, &def.shape, config.threads_per_shard);
            let model = Model {
                shape1: def.shape,
                filter: def.filter,
                pinned,
                registry: PlanRegistry::new(),
            };
            // Eager N = 1 plan: validates shape/filter/ISA now and makes
            // the first single-request call allocation-free.
            let key = PlanKey::with_tag(&model.shape1, &model.filter, config.threads_per_shard, TAG_PINNED);
            model
                .registry
                .get_or_try_build(key, || {
                    ConvPlan::try_with_schedule(&model.shape1, &model.filter, &model.pinned)
                })
                .map_err(ServeError::Conv)?;
            names.push(def.name.clone());
            by_name.insert(def.name, models.len());
            models.push(model);
        }
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let metrics = ServeMetrics::new(&name_refs);

        let mut pools = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            pools.push(Arc::new(
                StaticPool::try_new(config.threads_per_shard)
                    .map_err(|e| ServeError::Conv(ndirect_core::Error::Pool(e)))?,
            ));
        }

        let dispatch_capacity = config.shards * 2;
        let inner = Arc::new(ServerInner {
            queue: SubmitQueue::new(config.queue_capacity, config.high_water),
            dispatch: Dispatch::new(dispatch_capacity),
            config,
            models,
            by_name,
            metrics,
            next_id: AtomicU64::new(1),
            faults,
        });

        let spawn_err =
            |e: std::io::Error| ServeError::Config { msg: format!("failed to spawn serving thread: {e}") };
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ndirect-serve-batcher".into())
                .spawn(move || batcher_loop(&inner))
                .map_err(spawn_err)?
        };
        let mut shards = Vec::with_capacity(pools.len());
        for (i, pool) in pools.iter().enumerate() {
            let inner = Arc::clone(&inner);
            let pool = Arc::clone(pool);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("ndirect-serve-shard-{i}"))
                    .spawn(move || shard_loop(&inner, &pool))
                    .map_err(spawn_err)?,
            );
        }

        Ok(Server { inner, pools, batcher: Some(batcher), shards })
    }

    /// Submits a request against a registered model. `input` is the
    /// `(1, C, H, W)` activation in `NCHW`; `deadline`, if given, sheds
    /// the request once passed (unless it is already mid-kernel — those
    /// results are delivered flagged [`InferResponse::late`]).
    ///
    /// Never blocks: over the high-water mark the request is refused with
    /// [`ServeError::Overloaded`] carrying a backoff hint.
    pub fn submit(
        &self,
        model: &str,
        input: Tensor4,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let Some(&idx) = inner.by_name.get(model) else {
            return Err(ServeError::UnknownModel { name: model.to_string() });
        };
        let m = &inner.models[idx];
        let expected = (1, m.shape1.c, m.shape1.h, m.shape1.w);
        if input.layout() != ActLayout::Nchw {
            return Err(ServeError::BadInput {
                context: "serving input must be NCHW",
                expected,
                got: input.dims(),
            });
        }
        if input.dims() != expected {
            return Err(ServeError::BadInput {
                context: "input dims",
                expected,
                got: input.dims(),
            });
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            for s in inner.metrics.sets(idx) {
                s.shed.add(1);
                s.expired_arrival.add(1);
            }
            inner.metrics.shed_rps.record(1);
            return Err(ServeError::DeadlineExpired { at: ExpiredAt::Arrival });
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed — ticket id allocation; only uniqueness matters
        let slot = Arc::new(ResponseSlot::default());
        let pending = Pending {
            id,
            model: idx,
            input,
            deadline,
            slot: Arc::clone(&slot),
            cancel: CancelToken::new(),
            poison: inner.faults.poison_submit(),
            t_submit_ns: ndirect_probe::now_ns(),
            t_taken_ns: 0,
        };
        match inner.queue.push(pending) {
            Ok(depth) => {
                for s in inner.metrics.sets(idx) {
                    s.enqueued.add(1);
                }
                inner.metrics.queue_depth.set(depth as u64);
                inner.metrics.queue_high_water.set_max(depth as u64);
                Ok(Ticket { slot, id })
            }
            Err(boxed) => {
                let (error, rejected) = *boxed;
                // The rejected request never got a ticket; suppress its
                // drop-guard resolution path by resolving explicitly.
                rejected.slot.resolve(Err(error.clone()));
                drop(rejected);
                for s in inner.metrics.sets(idx) {
                    s.shed.add(1);
                    if matches!(error, ServeError::Overloaded { .. }) {
                        s.shed_overload.add(1);
                    }
                }
                inner.metrics.shed_rps.record(1);
                Err(match error {
                    ServeError::Overloaded { depth, .. } => ServeError::Overloaded {
                        depth,
                        retry_after: inner.estimate_retry_after(depth),
                    },
                    other => other,
                })
            }
        }
    }

    /// [`Server::submit`] with a relative deadline.
    pub fn submit_within(
        &self,
        model: &str,
        input: Tensor4,
        timeout: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit(model, input, Some(Instant::now() + timeout))
    }

    /// Snapshot of the server's health counters, derived from the
    /// aggregate scope of the telemetry plane (`deadline_misses` is
    /// queue-expiries plus late deliveries, as before).
    pub fn stats(&self) -> ServeStats {
        let a = &self.inner.metrics.aggregate;
        ServeStats {
            enqueued: a.enqueued.get(),
            shed: a.shed.get(),
            completed: a.completed.get(),
            failed: a.failed.get(),
            deadline_misses: a.expired_queue.get() + a.late.get(),
            batches: a.batches.get(),
            batched_requests: a.batched_requests.get(),
            retries: a.retries.get(),
            degraded: a.degraded.get(),
            isolated_panics: a.panics.get(),
            queue_depth: self.inner.queue.depth(),
            worker_deaths: self.pools.iter().map(|p| p.worker_deaths()).sum(),
        }
    }

    /// Snapshot of every registered telemetry metric — per-stage latency
    /// histograms, fault counters, gauges — per model and aggregate.
    /// Serialize with [`MetricsSnapshot::to_json`] or
    /// [`MetricsSnapshot::to_prometheus`]; diff two snapshots with
    /// [`MetricsSnapshot::since`].
    ///
    /// [`MetricsSnapshot::to_json`]: ndirect_probe::metrics::MetricsSnapshot::to_json
    /// [`MetricsSnapshot::to_prometheus`]: ndirect_probe::metrics::MetricsSnapshot::to_prometheus
    /// [`MetricsSnapshot::since`]: ndirect_probe::metrics::MetricsSnapshot::since
    pub fn metrics_snapshot(&self) -> ndirect_probe::metrics::MetricsSnapshot {
        // The depth gauge tracks push-time observations; refresh it so a
        // snapshot of an idle server reads the true (drained) depth.
        self.inner.metrics.queue_depth.set(self.inner.queue.depth() as u64);
        self.inner.metrics.snapshot()
    }

    /// Total plans across all model registries (diagnostics: proves shed
    /// requests never triggered a plan build).
    pub fn planned_plans(&self) -> usize {
        self.inner.models.iter().map(|m| m.registry.len()).sum()
    }

    /// Graceful drain: stops admitting, completes everything already
    /// queued or in flight, then joins the pipeline threads.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.inner.queue.close();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        // The batcher closes the dispatch on clean exit; close again
        // defensively in case it died.
        self.inner.dispatch.close();
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

// AUDIT: hotpath
fn batcher_loop(inner: &Arc<ServerInner>) {
    // AUDIT: allow(hotpath-no-alloc) loop-local buffer allocated once and
    // reused (cleared) every wakeup.
    let mut expired = Vec::new();
    loop {
        inner.faults.queue_hold();
        if let Some(stall) = inner.faults.queue_stall() {
            std::thread::sleep(stall);
        }
        expired.clear();
        let outcome =
            inner
                .queue
                .next_batch(inner.config.max_batch, inner.config.batch_linger, &mut expired);
        if !expired.is_empty() {
            for &model in &expired {
                for s in inner.metrics.sets(model) {
                    s.expired_queue.add(1);
                    s.failed.add(1);
                }
            }
        }
        match outcome {
            BatchPlanOutcome::Batch(requests) => {
                let t_formed_ns = ndirect_probe::now_ns();
                let n = requests.len() as u64;
                // INDEX: next_batch only returns non-empty batches.
                let model = requests[0].model;
                for r in &requests {
                    // Admission wait ended when `take_matching` stamped the
                    // request; linger runs from there to batch formation.
                    let admission_ns = r.t_taken_ns.saturating_sub(r.t_submit_ns);
                    let linger_ns = t_formed_ns.saturating_sub(r.t_taken_ns);
                    for s in inner.metrics.sets(model) {
                        s.stage_admission.record(admission_ns);
                        s.stage_linger.record(linger_ns);
                    }
                    ndirect_probe::record_span(
                        ndirect_probe::Phase::ServeAdmission,
                        trace32(r.id),
                        r.t_submit_ns,
                        admission_ns,
                    );
                    ndirect_probe::record_span(
                        ndirect_probe::Phase::ServeLinger,
                        trace32(r.id),
                        r.t_taken_ns,
                        linger_ns,
                    );
                }
                for s in inner.metrics.sets(model) {
                    s.batches.add(1);
                    s.batched_requests.add(n);
                    s.batch_size.record(n);
                }
                // AUDIT: allow(hotpath-no-alloc) per-batch handoff to the
                // shard queue; one enqueue per formed batch.
                inner.dispatch.push(Batch { model, requests, t_formed_ns });
            }
            BatchPlanOutcome::Swept => {}
            BatchPlanOutcome::Drained => break,
        }
    }
    inner.dispatch.close();
}

// AUDIT: hotpath
fn shard_loop(inner: &Arc<ServerInner>, pool: &Arc<StaticPool>) {
    while let Some(batch) = inner.dispatch.pop() {
        execute_batch(inner, pool, batch);
    }
}

/// How one batch execution attempt ended.
enum Exec {
    Done,
    Panicked,
    Failed { error: ndirect_core::Error, attempts: usize },
}

fn execute_batch(inner: &Arc<ServerInner>, pool: &Arc<StaticPool>, batch: Batch) {
    let model_idx = batch.model;
    // INDEX: model indexes were validated at submission.
    let model = &inner.models[model_idx];
    let t_picked_ns = ndirect_probe::now_ns();

    // Defensive: a request cancelled while the batch sat in dispatch was
    // already resolved by its canceller; just drop it (never a kernel
    // slot for a cancelled request).
    let live: Vec<Pending> = batch
        .requests
        .into_iter()
        .filter(|r| !r.cancel.is_cancelled())
        // AUDIT: allow(hotpath-no-alloc) per-batch gather of live
        // requests; bounded by batch size.
        .collect();
    if live.is_empty() {
        return;
    }

    // Dispatch-queue stage: batch sealed → shard pickup, shared by every
    // request in the batch.
    let dispatch_ns = t_picked_ns.saturating_sub(batch.t_formed_ns);
    for r in &live {
        for s in inner.metrics.sets(model_idx) {
            s.stage_dispatch.record(dispatch_ns);
        }
        ndirect_probe::record_span(
            ndirect_probe::Phase::ServeDispatch,
            trace32(r.id),
            batch.t_formed_ns,
            dispatch_ns,
        );
    }

    if inner.faults.kill_worker() {
        pool.inject_worker_death();
    }

    let nb = live.len();
    let (plan, degraded) = match acquire_plan(inner, model_idx, nb, pool.size()) {
        Ok(pair) => pair,
        Err(error) => {
            fail_all(inner, model_idx, live, &error);
            return;
        }
    };

    // Gather: NCHW puts each image contiguous, so batching is a memcpy.
    let shape = model.batch_shape(nb);
    let in_len = model.shape1.c * model.shape1.h * model.shape1.w;
    let out_len = model.shape1.k * model.shape1.p() * model.shape1.q();
    let mut batch_in = Tensor4::zeros(nb, shape.c, shape.h, shape.w, ActLayout::Nchw);
    for (i, r) in live.iter().enumerate() {
        batch_in.as_mut_slice()[i * in_len..(i + 1) * in_len].copy_from_slice(r.input.as_slice());
    }
    let mut batch_out = Tensor4::zeros(nb, shape.k, shape.p(), shape.q(), ActLayout::Nchw);

    let poisoned = live.iter().any(|r| r.poison);
    // Tag the pool's worker/region spans with the batch's lead trace ID
    // so kernel activity in the Chrome trace links back to the requests
    // it served.
    // INDEX: live is non-empty — the empty case returned above.
    pool.set_trace_tag(trace32(live[0].id));
    let t_exec_start_ns = ndirect_probe::now_ns();
    let mut attempts = 0usize;
    let outcome = loop {
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(delay) = inner.faults.kernel_delay() {
                std::thread::sleep(delay);
            }
            if poisoned || inner.faults.panic_batch() {
                // AUDIT: allow(hotpath-no-panic) fault injection, confined
                // by the surrounding catch_unwind.
                panic!("injected kernel poison");
            }
            plan.execute(pool, &batch_in, &mut batch_out)
        }));
        match attempt {
            Err(_) => break Exec::Panicked,
            Ok(Ok(())) => break Exec::Done,
            Ok(Err(e)) if core_error_is_transient(&e) && attempts < inner.config.max_retries => {
                attempts += 1;
                backoff(inner, model_idx, attempts);
            }
            Ok(Err(e)) => break Exec::Failed { error: e, attempts },
        }
    };
    let t_exec_end_ns = ndirect_probe::now_ns();
    pool.set_trace_tag(0);

    match outcome {
        Exec::Done => {
            let exec_ns = t_exec_end_ns.saturating_sub(t_exec_start_ns);
            let service_ns = exec_ns / nb as u64;
            for (i, r) in live.into_iter().enumerate() {
                for s in inner.metrics.sets(model_idx) {
                    s.stage_execute.record(exec_ns);
                    s.service.record(service_ns);
                }
                ndirect_probe::record_span(
                    ndirect_probe::Phase::ServeExecute,
                    trace32(r.id),
                    t_exec_start_ns,
                    exec_ns,
                );
                let mut out = Tensor4::zeros(1, shape.k, shape.p(), shape.q(), ActLayout::Nchw);
                out.as_mut_slice()
                    .copy_from_slice(&batch_out.as_slice()[i * out_len..(i + 1) * out_len]);
                deliver(inner, model_idx, r, out, degraded, nb, t_exec_end_ns);
            }
        }
        Exec::Panicked => isolate_batch(inner, pool, model_idx, live),
        Exec::Failed { error, attempts } => {
            let error = if core_error_is_transient(&error) {
                ServeError::RetriesExhausted { attempts: attempts + 1, last: error }
            } else {
                ServeError::Conv(error)
            };
            fail_all(inner, model_idx, live, &error);
        }
    }
}

/// Panic isolation: re-run each request of a panicked batch individually
/// under its own `catch_unwind`, so one poisoned request fails alone and
/// its peers still complete (bitwise identically to the batched run,
/// thanks to the pinned schedule).
// AUDIT: cold — panic-recovery path; runs only after a batch panicked.
fn isolate_batch(inner: &Arc<ServerInner>, pool: &Arc<StaticPool>, model_idx: usize, live: Vec<Pending>) {
    let model = &inner.models[model_idx];
    let (plan, degraded) = match acquire_plan(inner, model_idx, 1, pool.size()) {
        Ok(pair) => pair,
        Err(error) => {
            fail_all(inner, model_idx, live, &error);
            return;
        }
    };
    let shape = model.shape1;
    for r in live {
        let mut out = Tensor4::zeros(1, shape.k, shape.p(), shape.q(), ActLayout::Nchw);
        pool.set_trace_tag(trace32(r.id));
        let t_start_ns = ndirect_probe::now_ns();
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if r.poison {
                panic!("injected kernel poison");
            }
            plan.execute(pool, &r.input, &mut out)
        }));
        let t_end_ns = ndirect_probe::now_ns();
        pool.set_trace_tag(0);
        match attempt {
            Err(_) => {
                for s in inner.metrics.sets(model_idx) {
                    s.panics.add(1);
                    s.failed.add(1);
                }
                r.slot.resolve(Err(ServeError::WorkerPanicked));
            }
            Ok(Ok(())) => {
                let exec_ns = t_end_ns.saturating_sub(t_start_ns);
                for s in inner.metrics.sets(model_idx) {
                    s.stage_execute.record(exec_ns);
                    s.service.record(exec_ns);
                }
                ndirect_probe::record_span(
                    ndirect_probe::Phase::ServeExecute,
                    trace32(r.id),
                    t_start_ns,
                    exec_ns,
                );
                deliver(inner, model_idx, r, out, degraded, 1, t_end_ns);
            }
            Ok(Err(e)) => {
                for s in inner.metrics.sets(model_idx) {
                    s.failed.add(1);
                }
                r.slot.resolve(Err(ServeError::Conv(e)));
            }
        }
    }
}

/// Resolves a completed request, flagging (never dropping) results whose
/// deadline passed mid-flight. `exec_end_ns` bounds the delivery stage:
/// kernel done → ticket resolved (per-sample scatter + wake).
fn deliver(
    inner: &Arc<ServerInner>,
    model_idx: usize,
    r: Pending,
    output: Tensor4,
    degraded: bool,
    batch: usize,
    exec_end_ns: u64,
) {
    let late = r.expired(Instant::now());
    let t_done_ns = ndirect_probe::now_ns();
    let delivery_ns = t_done_ns.saturating_sub(exec_end_ns);
    let latency_ns = t_done_ns.saturating_sub(r.t_submit_ns);
    for s in inner.metrics.sets(model_idx) {
        s.stage_delivery.record(delivery_ns);
        s.latency.record(latency_ns);
        s.completed.add(1);
        if late {
            s.late.add(1);
        }
        if degraded {
            s.degraded.add(1);
        }
    }
    inner.metrics.completed_rps.record(1);
    ndirect_probe::record_span(
        ndirect_probe::Phase::ServeDeliver,
        trace32(r.id),
        exec_end_ns,
        delivery_ns,
    );
    r.slot.resolve(Ok(InferResponse { output, late, degraded, batch }));
}

// AUDIT: cold — failure path; resolves every request with an error.
fn fail_all(inner: &Arc<ServerInner>, model_idx: usize, live: Vec<Pending>, error: &ServeError) {
    for s in inner.metrics.sets(model_idx) {
        s.failed.add(live.len() as u64);
    }
    for r in live {
        r.slot.resolve(Err(error.clone()));
    }
}

/// Resolves the plan for a batch size: the pinned fast plan, with bounded
/// retry-with-backoff on transient faults, then the minimal-schedule
/// degraded plan as the last resort before giving up.
fn acquire_plan(
    inner: &Arc<ServerInner>,
    model_idx: usize,
    nb: usize,
    pool_size: usize,
) -> Result<(Arc<ConvPlan<'static>>, bool), ServeError> {
    // INDEX: model indexes were validated at submission.
    let model = &inner.models[model_idx];
    let shape = model.batch_shape(nb);
    let key = PlanKey::with_tag(&shape, &model.filter, pool_size, TAG_PINNED);
    let mut attempts = 0usize;
    loop {
        let built = model.registry.get_or_try_build(key, || {
            if inner.faults.refused_alloc() {
                return Err(ndirect_core::Error::ScratchAlloc { elements: usize::MAX });
            }
            ConvPlan::try_with_schedule(&shape, &model.filter, &model.pinned)
        });
        match built {
            Ok(plan) => return Ok((plan, false)),
            Err(e) if core_error_is_transient(&e) && attempts < inner.config.max_retries => {
                attempts += 1;
                backoff(inner, model_idx, attempts);
            }
            Err(e) if core_error_is_transient(&e) => {
                // Retries exhausted: degrade to the minimal schedule (its
                // scratch is a fraction of the tuned plan's).
                let dkey = PlanKey::with_tag(&shape, &model.filter, pool_size, TAG_DEGRADED);
                let degraded = model.registry.get_or_try_build(dkey, || {
                    if inner.faults.refused_alloc() {
                        return Err(ndirect_core::Error::ScratchAlloc { elements: usize::MAX });
                    }
                    ConvPlan::try_with_schedule(&shape, &model.filter, &Schedule::minimal(&shape))
                });
                return match degraded {
                    Ok(plan) => Ok((plan, true)),
                    Err(last) => Err(ServeError::RetriesExhausted { attempts: attempts + 1, last }),
                };
            }
            Err(e) => return Err(ServeError::Conv(e)),
        }
    }
}

fn backoff(inner: &Arc<ServerInner>, model_idx: usize, attempt: usize) {
    for s in inner.metrics.sets(model_idx) {
        s.retries.add(1);
    }
    let factor = 1u32 << (attempt - 1).min(10) as u32;
    std::thread::sleep(inner.config.retry_backoff.saturating_mul(factor));
}
