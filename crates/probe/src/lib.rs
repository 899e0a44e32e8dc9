//! Zero-cost observability for the nDirect stack.
//!
//! The paper's claims are mechanistic — packing hides behind FMAs, the
//! analytic models pick near-optimal tiles, the 2-D thread grid balances —
//! and this crate gives tests and benches a way to observe those mechanisms
//! at runtime instead of inferring them from end-to-end GFLOPS:
//!
//! * **Monotonic counters** ([`Counter`]): FLOPs issued by the
//!   micro-kernels, bytes packed, scratch-pool hits/misses,
//!   minimal-schedule degradations, plan-cache hits/misses.
//! * **Phase timers** ([`phase`]): accumulated nanoseconds + call counts
//!   per thread for the hot phases (pack, micro-kernel, filter transform,
//!   barrier wait, plan build).
//! * **Per-thread event timelines** ([`span`]): coarse-grained spans
//!   (parallel region, worker busy slice, model layer) recorded into a
//!   bounded lock-free per-thread buffer; overflow drops events and counts
//!   the drops rather than blocking or reallocating.
//! * **[`TraceReport`]**: a quiescent snapshot of all of the above that
//!   serializes via the in-tree [`ndirect_support::Json`], renders a
//!   per-thread text timeline, diffs against an earlier snapshot
//!   ([`TraceReport::since`]), and exports the span timelines as Chrome
//!   trace-event JSON ([`TraceReport::to_chrome_trace`]) for
//!   `chrome://tracing` / Perfetto.
//!
//! # Zero cost when disabled
//!
//! Everything is gated on the `probe` cargo feature **of this crate**:
//! [`ENABLED`] is `pub const ENABLED: bool = cfg!(feature = "probe")`, and
//! every macro and inline helper starts with `if ENABLED`. Because the
//! constant lives here (not in the expanded code), consumer crates get the
//! right value regardless of their own feature sets, and with the feature
//! off the optimizer removes the instrumentation entirely — no clock
//! reads, no atomics, no argument evaluation. `benches/probe_overhead.rs`
//! in `ndirect-bench` guards this in CI.
//!
//! # Concurrency model
//!
//! Hot-path updates use `Relaxed` atomics: counters are monotonic sums and
//! per-thread state is only ever written by its owning thread. Reads
//! ([`TraceReport::capture`], [`counter`]) are meant for *quiescent*
//! points — after a pool barrier, between `execute` calls — where the
//! `Mutex` acquired while walking the thread registry provides the needed
//! synchronization edge. Capturing mid-region yields torn but memory-safe
//! snapshots, which is fine for monitoring and wrong for assertions; the
//! accounting tests serialize themselves accordingly.

// This crate has no business touching raw pointers; the auditor's
// lint-header rule holds that line at compile time.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ndirect_support::Json;

pub mod metrics;

/// `true` iff this crate was built with its `probe` feature.
///
/// Instrumented crates forward their own `probe` feature to
/// `ndirect-probe/probe`, so one `--features probe` at the workspace level
/// flips every call site at once.
pub const ENABLED: bool = cfg!(feature = "probe");

/// Events each thread can buffer before further spans are dropped
/// (counted in [`ThreadTrace::dropped`]). 24 bytes per slot.
pub const EVENTS_PER_THREAD: usize = 4096;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Global monotonic counters. Each is a plain `AtomicU64` bumped with
/// `Relaxed` ordering from the hot paths; see the crate docs for when a
/// read is trustworthy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Floating-point operations issued by the inner kernels, counted as
    /// 2 (multiply + add) per MAC actually performed, padding excluded.
    /// For one full direct conv this equals `ConvShape::flops()`.
    FlopsIssued = 0,
    /// Bytes of activation data written into packed strip buffers
    /// (`Tc·R·WIN` floats per strip, fused and sequential alike).
    BytesPacked,
    /// Bytes of filter data written in micro-kernel order by the filter
    /// transform (on-the-fly blocks and plan-time packing both count).
    BytesTransformed,
    /// `ConvPlan`/`DepthwisePlan` executions that reused a pooled scratch
    /// set instead of allocating one.
    ScratchPoolHits,
    /// Executions that had to allocate a fresh scratch set (first use, or
    /// more concurrent executions than the pool had idle sets).
    ScratchPoolMisses,
    /// Times a requested schedule could not be provisioned and the build
    /// degraded to `Schedule::minimal` instead of failing.
    MinimalScheduleDegradations,
    /// Model-backend convolutions served by an already-built plan.
    PlanCacheHits,
    /// Model-backend convolutions that had to build (and cache) a plan.
    PlanCacheMisses,
    /// Parallel regions dispatched through `StaticPool::try_run`
    /// (single-thread inline runs included).
    Regions,
    /// Timeline events discarded because a per-thread buffer was full.
    EventsDropped,
    /// Bytes of depthwise-intermediate round-trip traffic the fused
    /// dw+pw path *avoided*: for every row-slice consumed straight out
    /// of the cache-resident slab, the write plus read of the slice the
    /// unfused composition would have pushed through memory
    /// (`2·C·len·Q·4` per slice, `2·N·C·P·Q·4` over a whole layer).
    BytesIntermediateSaved,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 11;

impl Counter {
    /// All counters, in declaration (= serialization) order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::FlopsIssued,
        Counter::BytesPacked,
        Counter::BytesTransformed,
        Counter::ScratchPoolHits,
        Counter::ScratchPoolMisses,
        Counter::MinimalScheduleDegradations,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::Regions,
        Counter::EventsDropped,
        Counter::BytesIntermediateSaved,
    ];

    /// Stable snake_case name used in JSON and the text report.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FlopsIssued => "flops_issued",
            Counter::BytesPacked => "bytes_packed",
            Counter::BytesTransformed => "bytes_transformed",
            Counter::ScratchPoolHits => "scratch_pool_hits",
            Counter::ScratchPoolMisses => "scratch_pool_misses",
            Counter::MinimalScheduleDegradations => "minimal_schedule_degradations",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::Regions => "regions",
            Counter::EventsDropped => "events_dropped",
            Counter::BytesIntermediateSaved => "bytes_intermediate_saved",
        }
    }
}

struct Counters([AtomicU64; NUM_COUNTERS]);

static COUNTERS: Counters = {
    #[allow(clippy::declare_interior_mutable_const)]
    const Z: AtomicU64 = AtomicU64::new(0);
    Counters([Z; NUM_COUNTERS])
};

/// Adds `n` to a counter. Compiles to nothing when [`ENABLED`] is false.
// AUDIT: hotpath
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    if ENABLED {
        // INDEX: Counter discriminants enumerate 0..NUM_COUNTERS, which
        // sizes the array.
        COUNTERS.0[counter as usize].fetch_add(n, Relaxed); // ORDERING: Relaxed — monotonic counter bump; publishes no other memory
    }
}

/// Current value of a counter (0 when disabled). Only trustworthy at
/// quiescent points; see the crate docs.
#[inline]
pub fn counter(counter: Counter) -> u64 {
    if ENABLED {
        COUNTERS.0[counter as usize].load(Relaxed) // ORDERING: Relaxed — point-in-time read of an independent sum
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// What a timer or span measures. The first group (through `PlanBuild`)
/// are *hot phases*: per-thread accumulated time + call counts, no
/// timeline event per call. The rest are *coarse spans* recorded into the
/// per-thread timeline (and accumulated too).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Phase {
    /// Packing an input strip into the contiguous scratch buffer.
    Pack = 0,
    /// The vectorized inner kernel, including fused gather-packing.
    MicroKernel,
    /// Reordering filter blocks into micro-kernel layout.
    FilterTransform,
    /// A caller blocked on the pool's region latch.
    Barrier,
    /// Schedule derivation + scratch/filter provisioning in a plan build.
    PlanBuild,
    /// One parallel region, as seen by the dispatching caller.
    Region,
    /// One worker's busy slice of a region (arg = thread id in the grid).
    Worker,
    /// One model node executed by the engine (arg = node index).
    Layer,
    /// A serve request waiting in the admission queue, from submit to the
    /// batcher taking it (arg = low 32 bits of the trace ID).
    ServeAdmission,
    /// A serve request lingering in a forming batch waiting for
    /// coalescing partners (arg = trace ID).
    ServeLinger,
    /// A serve batch waiting in the bounded dispatch channel for a free
    /// shard (arg = trace ID of the batch's first request).
    ServeDispatch,
    /// A serve batch executing its convolution plan (arg = trace ID).
    ServeExecute,
    /// Result delivery: gather/scatter plus waking the ticket holder
    /// (arg = trace ID).
    ServeDeliver,
}

/// Number of [`Phase`] variants.
pub const NUM_PHASES: usize = 13;

impl Phase {
    /// All phases, in declaration order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Pack,
        Phase::MicroKernel,
        Phase::FilterTransform,
        Phase::Barrier,
        Phase::PlanBuild,
        Phase::Region,
        Phase::Worker,
        Phase::Layer,
        Phase::ServeAdmission,
        Phase::ServeLinger,
        Phase::ServeDispatch,
        Phase::ServeExecute,
        Phase::ServeDeliver,
    ];

    /// Stable snake_case name used in JSON and the text report.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pack => "pack",
            Phase::MicroKernel => "micro_kernel",
            Phase::FilterTransform => "filter_transform",
            Phase::Barrier => "barrier",
            Phase::PlanBuild => "plan_build",
            Phase::Region => "region",
            Phase::Worker => "worker",
            Phase::Layer => "layer",
            Phase::ServeAdmission => "serve_admission",
            Phase::ServeLinger => "serve_linger",
            Phase::ServeDispatch => "serve_dispatch",
            Phase::ServeExecute => "serve_execute",
            Phase::ServeDeliver => "serve_deliver",
        }
    }

    fn from_u8(x: u8) -> Phase {
        Phase::ALL[(x as usize).min(NUM_PHASES - 1)]
    }
}

// ---------------------------------------------------------------------------
// Per-thread state
// ---------------------------------------------------------------------------

/// One timeline slot: `meta` packs `phase` (high 8 bits of the low 40) and
/// a 32-bit user argument; times are nanoseconds since the process probe
/// epoch. Written by the owning thread only, so `Relaxed` stores suffice.
struct EventSlot {
    meta: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

struct ThreadSlot {
    name: String,
    phase_ns: [AtomicU64; NUM_PHASES],
    phase_calls: [AtomicU64; NUM_PHASES],
    /// Number of *reserved* event slots; may briefly exceed written ones
    /// mid-record, hence capture only at quiescence.
    events_len: AtomicUsize,
    events: Box<[EventSlot]>,
    dropped: AtomicU64,
}

impl ThreadSlot {
    fn new(name: String) -> ThreadSlot {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        ThreadSlot {
            name,
            phase_ns: [Z; NUM_PHASES],
            phase_calls: [Z; NUM_PHASES],
            events_len: AtomicUsize::new(0),
            events: (0..EVENTS_PER_THREAD)
                .map(|_| EventSlot {
                    meta: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                })
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }

    fn record_event(&self, phase: Phase, arg: u32, start_ns: u64, dur_ns: u64) {
        let idx = self.events_len.fetch_add(1, Relaxed); // ORDERING: Relaxed — claims a slot index in a single-writer ring; no payload ordering
        if idx >= self.events.len() {
            // Park the length at capacity so it can't wrap after ~2^64
            // reservations, and account for the loss.
            self.events_len.store(self.events.len(), Relaxed); // ORDERING: Relaxed — single-writer saturation clamp
            self.dropped.fetch_add(1, Relaxed); // ORDERING: Relaxed — monotonic drop counter
            add(Counter::EventsDropped, 1);
            return;
        }
        // INDEX: idx was bounds-checked against events.len() above (the
        // early return handles the saturated case).
        let slot = &self.events[idx];
        slot.meta
            .store(((phase as u64) << 32) | arg as u64, Relaxed); // ORDERING: Relaxed — single-writer slot; readers accept torn snapshots by design
        slot.start_ns.store(start_ns, Relaxed); // ORDERING: Relaxed — single-writer slot; readers accept torn snapshots by design
        slot.dur_ns.store(dur_ns, Relaxed); // ORDERING: Relaxed — single-writer slot; readers accept torn snapshots by design
    }

    fn reset(&self) {
        for a in &self.phase_ns {
            a.store(0, Relaxed); // ORDERING: Relaxed — owner-thread reset; concurrent readers accept mid-reset views
        }
        for a in &self.phase_calls {
            a.store(0, Relaxed); // ORDERING: Relaxed — owner-thread reset; concurrent readers accept mid-reset views
        }
        self.events_len.store(0, Relaxed); // ORDERING: Relaxed — owner-thread reset; concurrent readers accept mid-reset views
        self.dropped.store(0, Relaxed); // ORDERING: Relaxed — owner-thread reset; concurrent readers accept mid-reset views
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process probe epoch (first clock use). **Not**
/// gated on [`ENABLED`]: the always-on [`metrics`] plane and the serve
/// stage timestamps use this clock so their spans line up with the
/// feature-gated timeline when both are active.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static SLOT: Arc<ThreadSlot> = {
        static ANON: AtomicUsize = AtomicUsize::new(0);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{}", ANON.fetch_add(1, Relaxed))); // ORDERING: Relaxed — unique-id tick; only uniqueness matters
        let slot = Arc::new(ThreadSlot::new(name));
        registry()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&slot));
        slot
    };
}

#[inline]
fn with_slot(f: impl FnOnce(&ThreadSlot)) {
    // Accessing a TLS key during that thread's destruction panics; probes
    // firing from exiting threads are silently dropped instead.
    let _ = SLOT.try_with(|s| f(s));
}

// ---------------------------------------------------------------------------
// Timers and spans
// ---------------------------------------------------------------------------

/// Scoped timer for a hot phase: accumulates elapsed nanoseconds and one
/// call into the current thread's per-phase totals on drop. No timeline
/// event, so it is cheap enough for per-strip scopes.
#[must_use = "the timer measures until it is dropped"]
pub struct PhaseTimer {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            with_slot(|s| {
                s.phase_ns[self.phase as usize].fetch_add(ns, Relaxed); // ORDERING: Relaxed — per-thread phase accumulator; read racily by design
                s.phase_calls[self.phase as usize].fetch_add(1, Relaxed); // ORDERING: Relaxed — per-thread phase accumulator; read racily by design
            });
        }
    }
}

/// Starts a [`PhaseTimer`]. When [`ENABLED`] is false no clock is read and
/// the guard is inert.
#[inline(always)]
pub fn phase(phase: Phase) -> PhaseTimer {
    PhaseTimer {
        phase,
        start: if ENABLED { Some(Instant::now()) } else { None },
    }
}

/// Scoped span: like [`PhaseTimer`] but additionally records a timeline
/// event `(phase, arg, start, duration)` in the current thread's bounded
/// buffer on drop. Use for coarse scopes (regions, layers), not per-strip.
#[must_use = "the span measures until it is dropped"]
pub struct SpanGuard {
    phase: Phase,
    arg: u32,
    start: Option<Instant>,
    start_ns: u64,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            with_slot(|s| {
                s.phase_ns[self.phase as usize].fetch_add(ns, Relaxed); // ORDERING: Relaxed — per-thread phase accumulator; read racily by design
                s.phase_calls[self.phase as usize].fetch_add(1, Relaxed); // ORDERING: Relaxed — per-thread phase accumulator; read racily by design
                s.record_event(self.phase, self.arg, self.start_ns, ns);
            });
        }
    }
}

/// Starts a [`SpanGuard`] with a caller-chosen 32-bit argument (thread id,
/// layer index, …). Inert when [`ENABLED`] is false.
#[inline(always)]
pub fn span(phase: Phase, arg: u32) -> SpanGuard {
    if ENABLED {
        SpanGuard {
            phase,
            arg,
            start: Some(Instant::now()),
            start_ns: now_ns(),
        }
    } else {
        SpanGuard {
            phase,
            arg,
            start: None,
            start_ns: 0,
        }
    }
}

/// Records an already-measured span into the *current* thread's timeline.
///
/// The scoped [`span`] guard measures start and end on the same thread; a
/// serve request's stage transitions happen on different threads (submit
/// on the caller, dequeue on the batcher, execute on a shard), so the
/// serving plane measures each stage itself with [`now_ns`] timestamps
/// and reports the finished interval here from whichever thread observed
/// the stage end. No-op (nothing evaluated beyond the arguments) when
/// [`ENABLED`] is false.
// AUDIT: hotpath
#[inline]
pub fn record_span(phase: Phase, arg: u32, start_ns: u64, dur_ns: u64) {
    if ENABLED {
        with_slot(|s| {
            // INDEX: Phase discriminants enumerate 0..NUM_PHASES, which
            // sizes both arrays.
            s.phase_ns[phase as usize].fetch_add(dur_ns, Relaxed); // ORDERING: Relaxed — per-thread phase accumulator; read racily by design
            // INDEX: same NUM_PHASES bound as the line above.
            s.phase_calls[phase as usize].fetch_add(1, Relaxed); // ORDERING: Relaxed — per-thread phase accumulator; read racily by design
            s.record_event(phase, arg, start_ns, dur_ns);
        });
    }
}

/// Bumps a [`Counter`]; the count expression is **not evaluated** when the
/// probe is disabled, so it may be arbitrarily expensive.
#[macro_export]
macro_rules! probe_count {
    ($counter:ident, $n:expr) => {
        if $crate::ENABLED {
            $crate::add($crate::Counter::$counter, $n as u64);
        }
    };
}

/// Expands to a scoped [`PhaseTimer`] expression:
/// `let _t = probe_phase!(Pack);`
#[macro_export]
macro_rules! probe_phase {
    ($phase:ident) => {
        $crate::phase($crate::Phase::$phase)
    };
}

/// Expands to a scoped [`SpanGuard`] expression:
/// `let _s = probe_span!(Layer, idx);` (arg is not evaluated when
/// disabled).
#[macro_export]
macro_rules! probe_span {
    ($phase:ident, $arg:expr) => {
        $crate::span(
            $crate::Phase::$phase,
            if $crate::ENABLED { $arg as u32 } else { 0 },
        )
    };
}

/// Records a value into a [`metrics::LogHistogram`](metrics::LogHistogram)
/// **only when the probe feature is on**; like [`probe_count!`], neither
/// the histogram expression nor the value is evaluated when disabled, so
/// hot paths may pass arbitrarily expensive expressions. The serving
/// plane's always-on metrics call [`metrics::LogHistogram::record`]
/// directly instead; this macro is for optional kernel-side distributions
/// that must const-fold away (guarded by `probe_overhead.rs --guard`).
#[macro_export]
macro_rules! probe_hist {
    ($hist:expr, $value:expr) => {
        if $crate::ENABLED {
            ($hist).record($value as u64);
        }
    };
}

/// Zeroes every counter and every registered thread's phase totals and
/// timeline. Callers must be quiescent (no regions in flight).
pub fn reset() {
    if !ENABLED {
        return;
    }
    for a in &COUNTERS.0 {
        a.store(0, Relaxed); // ORDERING: Relaxed — reset races with recorders by design (crate docs)
    }
    for slot in registry().lock().unwrap_or_else(|p| p.into_inner()).iter() {
        slot.reset();
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One recorded timeline event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// What was measured.
    pub phase: Phase,
    /// Caller-supplied argument (thread id, layer index, …).
    pub arg: u32,
    /// Start, nanoseconds since the process probe epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Snapshot of one thread's probe state.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Thread name (or `thread-N` for unnamed threads).
    pub name: String,
    /// Accumulated nanoseconds per [`Phase`], indexed by `Phase as usize`.
    pub phase_ns: [u64; NUM_PHASES],
    /// Accumulated scope entries per [`Phase`].
    pub phase_calls: [u64; NUM_PHASES],
    /// Recorded timeline events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to buffer overflow since the last [`reset`].
    pub dropped: u64,
}

/// A quiescent snapshot of all probe state: global counters plus one
/// [`ThreadTrace`] per thread that ever recorded anything.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Counter values, in [`Counter::ALL`] order.
    pub counters: [u64; NUM_COUNTERS],
    /// Per-thread traces, in registration order. Threads with no recorded
    /// state (all zeros, no events) are omitted.
    pub threads: Vec<ThreadTrace>,
    /// Capture time, nanoseconds since the process probe epoch.
    pub captured_ns: u64,
}

impl TraceReport {
    /// Captures the current probe state. Empty when [`ENABLED`] is false.
    pub fn capture() -> TraceReport {
        if !ENABLED {
            return TraceReport::default();
        }
        let mut counters = [0u64; NUM_COUNTERS];
        for (dst, src) in counters.iter_mut().zip(&COUNTERS.0) {
            *dst = src.load(Relaxed); // ORDERING: Relaxed — racy snapshot read; counters are independent sums
        }
        let mut threads = Vec::new();
        for slot in registry().lock().unwrap_or_else(|p| p.into_inner()).iter() {
            let phase_ns = std::array::from_fn(|i| slot.phase_ns[i].load(Relaxed)); // ORDERING: Relaxed — racy snapshot read; counters are independent sums
            let phase_calls = std::array::from_fn(|i| slot.phase_calls[i].load(Relaxed)); // ORDERING: Relaxed — racy snapshot read; counters are independent sums
            let len = slot.events_len.load(Relaxed).min(slot.events.len()); // ORDERING: Relaxed — racy snapshot read; length is clamped to capacity
            let events: Vec<Event> = slot.events[..len]
                .iter()
                .map(|e| {
                    let meta = e.meta.load(Relaxed); // ORDERING: Relaxed — racy snapshot read; torn events are acceptable
                    Event {
                        phase: Phase::from_u8((meta >> 32) as u8),
                        arg: meta as u32,
                        start_ns: e.start_ns.load(Relaxed), // ORDERING: Relaxed — racy snapshot read; torn events are acceptable
                        dur_ns: e.dur_ns.load(Relaxed), // ORDERING: Relaxed — racy snapshot read; torn events are acceptable
                    }
                })
                .collect();
            let dropped = slot.dropped.load(Relaxed); // ORDERING: Relaxed — racy snapshot read; counters are independent sums
            let quiet = events.is_empty()
                && dropped == 0
                && phase_calls.iter().all(|&c| c == 0);
            if !quiet {
                threads.push(ThreadTrace {
                    name: slot.name.clone(),
                    phase_ns,
                    phase_calls,
                    events,
                    dropped,
                });
            }
        }
        TraceReport {
            counters,
            threads,
            captured_ns: now_ns(),
        }
    }

    /// Value of one counter in this snapshot.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The delta between this snapshot and an earlier `baseline`: counter
    /// differences, per-thread phase-total differences, and only the
    /// timeline events that started after the baseline was captured.
    ///
    /// This is the race-free alternative to [`reset`] for benches and
    /// tests: `reset` zeroes process-global state (so two concurrent
    /// measurements corrupt each other), while `since` is pure arithmetic
    /// on two immutable snapshots. Threads are matched by name in
    /// registration order (the registry only appends, so positions are
    /// stable); threads with nothing new since the baseline are omitted.
    pub fn since(&self, baseline: &TraceReport) -> TraceReport {
        let mut counters = [0u64; NUM_COUNTERS];
        for (i, dst) in counters.iter_mut().enumerate() {
            *dst = self.counters[i].saturating_sub(baseline.counters[i]);
        }
        let mut consumed = vec![false; baseline.threads.len()];
        let mut threads = Vec::new();
        for t in &self.threads {
            let base = baseline.threads.iter().enumerate().find_map(|(i, b)| {
                (!consumed[i] && b.name == t.name).then(|| {
                    consumed[i] = true;
                    b
                })
            });
            let zero = [0u64; NUM_PHASES];
            let (base_ns, base_calls, base_dropped) = match base {
                Some(b) => (&b.phase_ns, &b.phase_calls, b.dropped),
                None => (&zero, &zero, 0),
            };
            let phase_ns = std::array::from_fn(|i| t.phase_ns[i].saturating_sub(base_ns[i]));
            let phase_calls =
                std::array::from_fn(|i| t.phase_calls[i].saturating_sub(base_calls[i]));
            let events: Vec<Event> = t
                .events
                .iter()
                .filter(|e| e.start_ns >= baseline.captured_ns)
                .copied()
                .collect();
            let dropped = t.dropped.saturating_sub(base_dropped);
            let quiet =
                events.is_empty() && dropped == 0 && phase_calls.iter().all(|&c| c == 0);
            if !quiet {
                threads.push(ThreadTrace {
                    name: t.name.clone(),
                    phase_ns,
                    phase_calls,
                    events,
                    dropped,
                });
            }
        }
        TraceReport {
            counters,
            threads,
            captured_ns: self.captured_ns,
        }
    }

    /// Exports the per-thread span timelines as Chrome trace-event JSON
    /// (the "JSON Object Format": `{"traceEvents": [...]}`), loadable
    /// directly in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
    ///
    /// Each recorded span becomes one complete (`"ph": "X"`) event with
    /// `pid` 0, `tid` = the thread's registration index, microsecond
    /// `ts`/`dur`, and the span argument under `args`. Thread names are
    /// emitted as `thread_name` metadata events first; complete events
    /// follow sorted by start time, as the trace-viewer importers expect.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            events.push(Json::Obj(vec![
                ("name".to_owned(), Json::str("thread_name")),
                ("ph".to_owned(), Json::str("M")),
                ("pid".to_owned(), Json::usize(0)),
                ("tid".to_owned(), Json::usize(tid)),
                ("ts".to_owned(), Json::num(0.0)),
                (
                    "args".to_owned(),
                    Json::Obj(vec![("name".to_owned(), Json::str(t.name.clone()))]),
                ),
            ]));
        }
        let mut spans: Vec<(u64, usize, &Event)> = self
            .threads
            .iter()
            .enumerate()
            .flat_map(|(tid, t)| t.events.iter().map(move |e| (e.start_ns, tid, e)))
            .collect();
        spans.sort_by_key(|&(start_ns, tid, _)| (start_ns, tid));
        for (start_ns, tid, e) in spans {
            events.push(Json::Obj(vec![
                ("name".to_owned(), Json::str(e.phase.name())),
                ("cat".to_owned(), Json::str("ndirect")),
                ("ph".to_owned(), Json::str("X")),
                ("pid".to_owned(), Json::usize(0)),
                ("tid".to_owned(), Json::usize(tid)),
                ("ts".to_owned(), Json::num(start_ns as f64 / 1e3)),
                ("dur".to_owned(), Json::num(e.dur_ns as f64 / 1e3)),
                (
                    "args".to_owned(),
                    Json::Obj(vec![("arg".to_owned(), Json::num(e.arg as f64))]),
                ),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::str("ms")),
        ])
    }

    /// Serializes the report with the in-tree JSON support. Counter values
    /// above 2⁵³ lose precision (stored as f64), which the trace consumers
    /// accept; exact assertions should read [`TraceReport::counter`].
    pub fn to_json(&self) -> Json {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_owned(), Json::num(self.counter(c) as f64)))
            .collect();
        let threads = self
            .threads
            .iter()
            .map(|t| {
                let phases = Phase::ALL
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| t.phase_calls[i] != 0)
                    .map(|(i, &p)| {
                        (
                            p.name().to_owned(),
                            Json::Obj(vec![
                                ("ns".to_owned(), Json::num(t.phase_ns[i] as f64)),
                                ("calls".to_owned(), Json::num(t.phase_calls[i] as f64)),
                            ]),
                        )
                    })
                    .collect();
                let events = t
                    .events
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("phase".to_owned(), Json::str(e.phase.name())),
                            ("arg".to_owned(), Json::num(e.arg as f64)),
                            ("start_ns".to_owned(), Json::num(e.start_ns as f64)),
                            ("dur_ns".to_owned(), Json::num(e.dur_ns as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".to_owned(), Json::str(t.name.clone())),
                    ("phases".to_owned(), Json::Obj(phases)),
                    ("events".to_owned(), Json::Arr(events)),
                    ("dropped".to_owned(), Json::num(t.dropped as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("enabled".to_owned(), Json::Bool(ENABLED)),
            ("captured_ns".to_owned(), Json::num(self.captured_ns as f64)),
            ("counters".to_owned(), Json::Obj(counters)),
            ("threads".to_owned(), Json::Arr(threads)),
        ])
    }

    /// Renders the counters, per-thread phase totals, and an ASCII
    /// per-thread timeline of the coarse spans, `width` columns wide.
    pub fn render_timeline(&self, width: usize) -> String {
        use std::fmt::Write;
        let width = width.clamp(20, 400);
        let mut out = String::new();
        let _ = writeln!(out, "probe trace (enabled={ENABLED})");
        let _ = writeln!(out, "counters:");
        for &c in &Counter::ALL {
            if self.counter(c) != 0 {
                let _ = writeln!(out, "  {:<30} {}", c.name(), self.counter(c));
            }
        }
        if self.threads.is_empty() {
            let _ = writeln!(out, "threads: none recorded");
            return out;
        }
        // Scale the timeline to the recorded event window.
        let t0 = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .map(|e| e.start_ns)
            .min()
            .unwrap_or(0);
        let t1 = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .map(|e| e.start_ns + e.dur_ns)
            .max()
            .unwrap_or(t0 + 1)
            .max(t0 + 1);
        let span_ns = t1 - t0;
        let _ = writeln!(
            out,
            "timeline: {} events over {:.3} ms ({} cols, . idle | p pack | m micro-kernel | f filter | b barrier | P plan | R region | W worker | L layer | Q admission | G linger | D dispatch | X execute | V deliver)",
            self.threads.iter().map(|t| t.events.len()).sum::<usize>(),
            span_ns as f64 / 1e6,
            width,
        );
        for t in &self.threads {
            let mut lane = vec![b'.'; width];
            for e in &t.events {
                let code = match e.phase {
                    Phase::Pack => b'p',
                    Phase::MicroKernel => b'm',
                    Phase::FilterTransform => b'f',
                    Phase::Barrier => b'b',
                    Phase::PlanBuild => b'P',
                    Phase::Region => b'R',
                    Phase::Worker => b'W',
                    Phase::Layer => b'L',
                    Phase::ServeAdmission => b'Q',
                    Phase::ServeLinger => b'G',
                    Phase::ServeDispatch => b'D',
                    Phase::ServeExecute => b'X',
                    Phase::ServeDeliver => b'V',
                };
                let lo = ((e.start_ns - t0) as u128 * width as u128 / span_ns as u128) as usize;
                let hi = (((e.start_ns + e.dur_ns - t0) as u128 * width as u128)
                    / span_ns as u128) as usize;
                for cell in lane
                    .iter_mut()
                    .take(hi.clamp(lo, width - 1) + 1)
                    .skip(lo.min(width - 1))
                {
                    *cell = code;
                }
            }
            let _ = writeln!(
                out,
                "  {:<18} |{}|",
                truncate(&t.name, 18),
                String::from_utf8_lossy(&lane)
            );
            for (i, &p) in Phase::ALL.iter().enumerate() {
                if t.phase_calls[i] != 0 {
                    let _ = writeln!(
                        out,
                        "    {:<16} {:>10.3} ms  {:>8} calls",
                        p.name(),
                        t.phase_ns[i] as f64 / 1e6,
                        t.phase_calls[i],
                    );
                }
            }
            if t.dropped != 0 {
                let _ = writeln!(out, "    (dropped {} events)", t.dropped);
            }
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// `true` when tracing was requested via `NDIRECT_PROBE=1` (any value but
/// `0` or empty counts) *and* the probe is compiled in.
pub fn env_requested() -> bool {
    ENABLED
        && matches!(std::env::var("NDIRECT_PROBE"), Ok(v) if !v.is_empty() && v != "0")
}

/// If `NDIRECT_PROBE=1` and the probe is compiled in, captures a report
/// and prints its text timeline to stderr, prefixed with `label`.
/// Convenient tail call for benches and examples; a no-op otherwise.
pub fn report_if_env(label: &str) {
    if env_requested() {
        let report = TraceReport::capture();
        eprintln!("== {label} ==\n{}", report.render_timeline(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The probe's own unit tests run with or without the feature; the
    // cross-stack accounting lives in tests/probe_accounting.rs.

    #[test]
    fn disabled_state_is_inert_and_enabled_state_counts() {
        let before = counter(Counter::FlopsIssued);
        add(Counter::FlopsIssued, 7);
        probe_count!(FlopsIssued, 5);
        let delta = counter(Counter::FlopsIssued) - before;
        if ENABLED {
            assert_eq!(delta, 12);
        } else {
            assert_eq!(counter(Counter::FlopsIssued), 0);
        }
    }

    #[test]
    fn spans_and_phases_land_in_the_report() {
        {
            let _t = probe_phase!(Pack);
            let _s = probe_span!(Layer, 3);
            std::hint::black_box(0);
        }
        let report = TraceReport::capture();
        if ENABLED {
            let me = report
                .threads
                .iter()
                .find(|t| t.phase_calls[Phase::Pack as usize] > 0)
                .expect("current thread recorded");
            assert!(me.phase_calls[Phase::Layer as usize] >= 1);
            assert!(me.events.iter().any(|e| e.phase == Phase::Layer && e.arg == 3));
            let json = report.to_json();
            assert!(json.get("counters").is_some());
            let text = report.render_timeline(80);
            assert!(text.contains("layer"));
        } else {
            assert!(report.threads.is_empty());
        }
    }

    #[test]
    fn since_yields_deltas_not_totals() {
        let b0 = TraceReport::capture();
        add(Counter::BytesPacked, 40);
        {
            let _s = probe_span!(Layer, 9);
            std::hint::black_box(0);
        }
        let b1 = TraceReport::capture();
        let delta = b1.since(&b0);
        if ENABLED {
            assert_eq!(delta.counter(Counter::BytesPacked), 40);
            // Only events recorded after the baseline survive, and every
            // surviving event started inside the delta window.
            assert!(delta
                .threads
                .iter()
                .flat_map(|t| t.events.iter())
                .all(|e| e.start_ns >= b0.captured_ns));
            assert!(delta
                .threads
                .iter()
                .any(|t| t.events.iter().any(|e| e.phase == Phase::Layer && e.arg == 9)));
            // Deltaing a snapshot against itself is empty.
            let none = b1.since(&b1);
            assert_eq!(none.counter(Counter::BytesPacked), 0);
            assert!(none.threads.iter().all(|t| t.events.is_empty()));
        } else {
            assert_eq!(delta.counter(Counter::BytesPacked), 0);
            assert!(delta.threads.is_empty());
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_even_when_empty() {
        let empty = TraceReport::default();
        let json = empty.to_chrome_trace();
        let parsed = Json::parse(&json.pretty()).expect("valid JSON");
        assert_eq!(
            parsed.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );

        // A single-event trace produces one metadata + one complete event.
        let one = TraceReport {
            counters: [0; NUM_COUNTERS],
            threads: vec![ThreadTrace {
                name: "solo".into(),
                phase_ns: [0; NUM_PHASES],
                phase_calls: [0; NUM_PHASES],
                events: vec![Event {
                    phase: Phase::Worker,
                    arg: 2,
                    start_ns: 1500,
                    dur_ns: 3000,
                }],
                dropped: 0,
            }],
            captured_ns: 9000,
        };
        let parsed = Json::parse(&one.to_chrome_trace().pretty()).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].str_field("ph").unwrap(), "M");
        let x = &events[1];
        assert_eq!(x.str_field("ph").unwrap(), "X");
        assert_eq!(x.str_field("name").unwrap(), "worker");
        assert_eq!(x.get("pid").and_then(Json::as_usize), Some(0));
        assert_eq!(x.get("tid").and_then(Json::as_usize), Some(0));
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(3.0));
        // Rendering the same single-event trace as text also works.
        assert!(one.render_timeline(40).contains("worker"));
    }

    #[test]
    fn overflow_drops_instead_of_growing() {
        if !ENABLED {
            return;
        }
        for i in 0..(EVENTS_PER_THREAD + 10) {
            let _s = probe_span!(Worker, i);
        }
        let report = TraceReport::capture();
        let me = report
            .threads
            .iter()
            .find(|t| t.dropped > 0 || t.events.len() == EVENTS_PER_THREAD);
        assert!(me.is_some(), "buffer must cap at EVENTS_PER_THREAD");
    }
}
