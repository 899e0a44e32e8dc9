//! Serving-engine unit tests: correctness of batched results, admission
//! control, fault handling, and the table-driven deadline-semantics
//! suite. These run in tier-1 (`cfg(test)` compiles the fault sheet in);
//! the heavier end-to-end chaos scenarios live in `tests/chaos.rs` behind
//! the `chaos` feature.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ndirect_core::{ConvPlan, Schedule};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;

use crate::faults::Faults;
use crate::{pinned_schedule, ExpiredAt, ModelDef, ServeConfig, ServeError, Server};

const MODEL: &str = "layer";

fn small_shape() -> ConvShape {
    ConvShape::square(1, 4, 8, 6, 3, 1)
}

fn model_def(seed: u64) -> ModelDef {
    let shape = small_shape();
    ModelDef {
        name: MODEL.into(),
        shape,
        filter: fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed),
    }
}

fn input(seed: u64) -> Tensor4 {
    fill::random_tensor(Tensor4::input_for(&small_shape(), ActLayout::Nchw), seed)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        threads_per_shard: 1,
        batch_linger: Duration::ZERO,
        retry_backoff: Duration::from_micros(100),
        ..ServeConfig::default()
    }
}

/// Reference result computed directly through a plan with the *same*
/// pinned schedule the server uses — the bitwise ground truth.
fn reference(filter_seed: u64, in_seed: u64) -> Vec<f32> {
    let shape = small_shape();
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), filter_seed);
    let pinned = pinned_schedule(&ndirect_platform::host(), &shape, 1);
    let plan = ConvPlan::try_with_schedule(&shape, &filter, &pinned).expect("reference plan");
    let pool = StaticPool::new(1);
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
    plan.execute(&pool, &input(in_seed), &mut out).expect("reference exec");
    out.as_slice().to_vec()
}

#[test]
fn single_request_round_trip_is_bitwise_correct() {
    let server = Server::try_new(quick_config(), vec![model_def(1)]).expect("server");
    let resp = server
        .submit(MODEL, input(7), None)
        .expect("submit")
        .wait()
        .expect("result");
    assert!(!resp.late && !resp.degraded);
    assert_eq!(resp.output.as_slice(), reference(1, 7).as_slice(), "bitwise");
    let stats = server.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.shed, 0);
    server.shutdown();
}

#[test]
fn batched_execution_is_bitwise_identical_to_single() {
    // Stall the batcher so all requests coalesce into ONE batch, then
    // check each against its individually-executed reference: the pinned
    // schedule makes batching invisible to the numerics.
    let faults = Arc::new(Faults::new());
    faults.stall_queue_once_ms(60);
    let server =
        Server::with_faults(quick_config(), vec![model_def(1)], Arc::clone(&faults)).expect("server");
    let tickets: Vec<_> = (0..4)
        .map(|i| server.submit(MODEL, input(100 + i), None).expect("submit"))
        .collect();
    let mut batch_sizes = Vec::new();
    for (i, t) in tickets.into_iter().enumerate() {
        let resp = t.wait().expect("result");
        assert_eq!(
            resp.output.as_slice(),
            reference(1, 100 + i as u64).as_slice(),
            "request {i} bitwise vs its N=1 reference"
        );
        batch_sizes.push(resp.batch);
    }
    assert!(
        batch_sizes.iter().any(|&b| b > 1),
        "stalled batcher must have coalesced: {batch_sizes:?}"
    );
    server.shutdown();
}

#[test]
fn unknown_model_and_bad_input_are_typed() {
    let server = Server::try_new(quick_config(), vec![model_def(1)]).expect("server");
    assert!(matches!(
        server.submit("nope", input(1), None),
        Err(ServeError::UnknownModel { .. })
    ));
    let wrong = Tensor4::zeros(1, 3, 6, 6, ActLayout::Nchw);
    match server.submit(MODEL, wrong, None) {
        Err(ServeError::BadInput { expected, got, .. }) => {
            assert_eq!(expected, (1, 4, 6, 6));
            assert_eq!(got, (1, 3, 6, 6));
        }
        other => panic!("expected BadInput, got {:?}", other.map(|t| t.id())),
    }
    let nhwc = Tensor4::zeros(1, 4, 6, 6, ActLayout::Nhwc);
    assert!(matches!(
        server.submit(MODEL, nhwc, None),
        Err(ServeError::BadInput { .. })
    ));
    server.shutdown();
}

#[test]
fn overload_sheds_with_backoff_hint() {
    let faults = Arc::new(Faults::new());
    faults.stall_queue_once_ms(200);
    let config = ServeConfig {
        queue_capacity: 4,
        high_water: 2,
        ..quick_config()
    };
    let server = Server::with_faults(config, vec![model_def(1)], Arc::clone(&faults)).expect("server");
    let _t1 = server.submit(MODEL, input(1), None).expect("first admitted");
    let _t2 = server.submit(MODEL, input(2), None).expect("second admitted");
    match server.submit(MODEL, input(3), None) {
        Err(e @ ServeError::Overloaded { depth, .. }) => {
            assert_eq!(depth, 2);
            assert!(e.is_retryable());
            let hint = e.retry_after().expect("hint");
            assert!(hint >= Duration::from_millis(1) && hint <= Duration::from_secs(2));
        }
        other => panic!("expected Overloaded, got {:?}", other.map(|t| t.id())),
    }
    assert_eq!(server.stats().shed, 1);
    server.shutdown();
}

/// ISSUE 9 satellite: the `Overloaded::retry_after` hint is derived from
/// the measured backlog and p99 service time (`metrics::retry_hint`), and
/// the clamp yields exactly three regimes.
#[test]
fn retry_hint_regime_table() {
    use crate::metrics::{retry_hint, COLD_SERVICE_NS, RETRY_AFTER_CEIL, RETRY_AFTER_FLOOR};

    struct Case {
        name: &'static str,
        depth: usize,
        shards: usize,
        p99_ns: u64,
        expect: Duration,
    }
    let cases = [
        // Light load: a shallow queue of microsecond requests drains well
        // under a millisecond — the hint is floor-clamped so clients back
        // off a meaningful amount instead of busy-retrying.
        Case { name: "light/floor", depth: 4, shards: 2, p99_ns: 50_000, expect: RETRY_AFTER_FLOOR },
        Case { name: "light/empty-queue", depth: 0, shards: 4, p99_ns: 1_000, expect: RETRY_AFTER_FLOOR },
        // Moderate load: the estimate passes through proportionally —
        // depth × p99 / shards.
        Case {
            name: "moderate/proportional",
            depth: 100,
            shards: 2,
            p99_ns: 1_000_000, // 1 ms p99 → 100 · 1 ms / 2 = 50 ms
            expect: Duration::from_millis(50),
        },
        Case {
            name: "moderate/more-shards-drain-faster",
            depth: 100,
            shards: 4,
            p99_ns: 1_000_000, // same backlog, twice the shards → 25 ms
            expect: Duration::from_millis(25),
        },
        // Saturated: a deep queue of slow requests would take minutes;
        // the ceiling caps the hint at 2 s so clients re-probe.
        Case {
            name: "saturated/ceiling",
            depth: 5000,
            shards: 1,
            p99_ns: 20_000_000,
            expect: RETRY_AFTER_CEIL,
        },
        // No completion observed yet: falls back to the cold estimate.
        Case {
            name: "cold/fallback",
            depth: 400,
            shards: 2,
            p99_ns: 0, // → COLD_SERVICE_NS per request: 400 · 10 ms / 2 = 2 s cap
            expect: RETRY_AFTER_CEIL,
        },
    ];
    for c in cases {
        assert_eq!(retry_hint(c.depth, c.shards, c.p99_ns), c.expect, "case {}", c.name);
    }
    // The cold fallback constant is what the proportional path uses.
    assert_eq!(
        retry_hint(10, 1, 0),
        retry_hint(10, 1, COLD_SERVICE_NS),
        "p99 = 0 behaves exactly like a measured cold-estimate p99"
    );
}

#[test]
fn transient_alloc_refusal_is_retried_transparently() {
    let faults = Arc::new(Faults::new());
    let server =
        Server::with_faults(quick_config(), vec![model_def(1)], Arc::clone(&faults)).expect("server");
    // The N=1 plan is pre-built; arm the refusal and force a NEW plan
    // build by batching two requests.
    faults.refuse_next_allocs(1);
    faults.stall_queue_once_ms(40);
    let t1 = server.submit(MODEL, input(1), None).expect("submit");
    let t2 = server.submit(MODEL, input(2), None).expect("submit");
    let r1 = t1.wait().expect("retried to success");
    let r2 = t2.wait().expect("retried to success");
    assert!(!r1.degraded && !r2.degraded, "fast plan after retry");
    assert_eq!(r1.output.as_slice(), reference(1, 1).as_slice());
    assert_eq!(r2.output.as_slice(), reference(1, 2).as_slice());
    let stats = server.stats();
    assert!(stats.retries >= 1, "retry happened: {stats:?}");
    assert_eq!(faults.injected(), 2, "stall + one refusal consumed");
    server.shutdown();
}

#[test]
fn exhausted_retries_degrade_to_minimal_schedule_correctly() {
    let config = ServeConfig { max_retries: 1, ..quick_config() };
    let faults = Arc::new(Faults::new());
    faults.hold_queue();
    let server =
        Server::with_faults(config, vec![model_def(1)], Arc::clone(&faults)).expect("server");
    // Two refusals cover the first try + single retry of a fresh batch
    // plan; the degraded build then succeeds. The hold makes the two
    // requests one batch of 2.
    faults.refuse_next_allocs(2);
    let t1 = server.submit(MODEL, input(5), None).expect("submit");
    let t2 = server.submit(MODEL, input(6), None).expect("submit");
    faults.release_queue();
    let r1 = t1.wait().expect("degraded result");
    let r2 = t2.wait().expect("degraded result");
    assert!(r1.degraded && r2.degraded, "minimal-schedule fallback used");
    // Degraded ≠ pinned bits (different tile grouping), but must equal
    // the minimal-schedule reference — degraded-but-correct. The batch
    // held 2 requests, so the reference is built at that batch size.
    let shape1 = small_shape();
    let shape2 = ConvShape { n: 2, ..shape1 };
    let filter = fill::random_filter(Filter::for_shape(&shape1, FilterLayout::Kcrs), 1);
    let plan = ConvPlan::try_with_schedule(&shape2, &filter, &Schedule::minimal(&shape2))
        .expect("reference degraded plan");
    let pool = StaticPool::new(1);
    let mut batch_in = Tensor4::zeros(2, shape1.c, shape1.h, shape1.w, ActLayout::Nchw);
    let half = shape1.c * shape1.h * shape1.w;
    batch_in.as_mut_slice()[..half].copy_from_slice(input(5).as_slice());
    batch_in.as_mut_slice()[half..].copy_from_slice(input(6).as_slice());
    let mut out = Tensor4::zeros(2, shape1.k, shape1.p(), shape1.q(), ActLayout::Nchw);
    plan.execute(&pool, &batch_in, &mut out).expect("reference exec");
    let out_half = shape1.k * shape1.p() * shape1.q();
    assert_eq!(r1.output.as_slice(), &out.as_slice()[..out_half]);
    assert_eq!(r2.output.as_slice(), &out.as_slice()[out_half..]);
    assert!(server.stats().degraded >= 2);
    server.shutdown();
}

#[test]
fn total_transient_failure_yields_retries_exhausted() {
    let config = ServeConfig { max_retries: 1, ..quick_config() };
    let faults = Arc::new(Faults::new());
    faults.hold_queue();
    let server =
        Server::with_faults(config, vec![model_def(1)], Arc::clone(&faults)).expect("server");
    // First try + 1 retry + degraded fallback = 3 refusals needed to
    // exhaust everything for one fresh (batched) plan. The hold makes the
    // two requests one batch of 2.
    faults.refuse_next_allocs(3);
    let t1 = server.submit(MODEL, input(1), None).expect("submit");
    let t2 = server.submit(MODEL, input(2), None).expect("submit");
    faults.release_queue();
    for t in [t1, t2] {
        match t.wait() {
            Err(e @ ServeError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, 2);
                assert!(e.is_retryable());
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn poisoned_request_fails_alone_batch_peers_complete() {
    let faults = Arc::new(Faults::new());
    faults.stall_queue_once_ms(60);
    let server =
        Server::with_faults(quick_config(), vec![model_def(1)], Arc::clone(&faults)).expect("server");
    let t_before = server.submit(MODEL, input(21), None).expect("submit");
    faults.poison_next_submits(1);
    let t_poisoned = server.submit(MODEL, input(22), None).expect("submit");
    let t_after = server.submit(MODEL, input(23), None).expect("submit");

    let good = t_before.wait().expect("peer completes");
    assert_eq!(good.output.as_slice(), reference(1, 21).as_slice(), "bitwise peer");
    assert!(matches!(t_poisoned.wait(), Err(ServeError::WorkerPanicked)));
    let good2 = t_after.wait().expect("peer completes");
    assert_eq!(good2.output.as_slice(), reference(1, 23).as_slice(), "bitwise peer");
    let stats = server.stats();
    assert_eq!(stats.isolated_panics, 1);
    assert_eq!(stats.completed, 2);
    server.shutdown();
}

#[test]
fn worker_death_during_service_is_healed_and_results_stay_correct() {
    let config = ServeConfig { threads_per_shard: 2, ..quick_config() };
    let faults = Arc::new(Faults::new());
    let server =
        Server::with_faults(config, vec![model_def(1)], Arc::clone(&faults)).expect("server");
    faults.kill_worker_before_next_batches(1);
    let resp = server
        .submit(MODEL, input(9), None)
        .expect("submit")
        .wait()
        .expect("served across the respawn");
    // Reference with the 2-thread pinned schedule.
    let shape = small_shape();
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 1);
    let pinned = pinned_schedule(&ndirect_platform::host(), &shape, 2);
    let plan = ConvPlan::try_with_schedule(&shape, &filter, &pinned).expect("plan");
    let pool = StaticPool::new(2);
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
    plan.execute(&pool, &input(9), &mut out).expect("reference");
    assert_eq!(resp.output.as_slice(), out.as_slice(), "bitwise across worker death");
    assert_eq!(server.stats().worker_deaths, 1, "death detected and healed");
    server.shutdown();
}

#[test]
fn graceful_drain_completes_admitted_requests() {
    let faults = Arc::new(Faults::new());
    faults.stall_queue_once_ms(30);
    let server =
        Server::with_faults(quick_config(), vec![model_def(1)], Arc::clone(&faults)).expect("server");
    let tickets: Vec<_> = (0..6)
        .map(|i| server.submit(MODEL, input(i), None).expect("submit"))
        .collect();
    server.shutdown(); // returns only once the pipeline drained
    for (i, t) in tickets.into_iter().enumerate() {
        let resp = t
            .wait_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("ticket {i} stranded after shutdown"))
            .expect("admitted request completed, not dropped");
        assert_eq!(resp.output.as_slice(), reference(1, i as u64).as_slice());
    }
}

#[test]
fn config_validation_is_typed() {
    for (config, needle) in [
        (ServeConfig { queue_capacity: 0, ..ServeConfig::default() }, "queue_capacity"),
        (ServeConfig { high_water: 0, ..ServeConfig::default() }, "high_water"),
        (ServeConfig { max_batch: 0, ..ServeConfig::default() }, "max_batch"),
        (ServeConfig { shards: 0, ..ServeConfig::default() }, "shards"),
        (ServeConfig { threads_per_shard: 0, ..ServeConfig::default() }, "threads_per_shard"),
    ] {
        match Server::try_new(config, vec![model_def(1)]) {
            Err(ServeError::Config { msg }) => assert!(msg.contains(needle), "{msg} vs {needle}"),
            Ok(_) => panic!("invalid config accepted ({needle})"),
            Err(e) => panic!("expected Config error, got {e}"),
        }
    }
    // Non-unit model signature.
    let mut bad = model_def(1);
    bad.shape = ConvShape { n: 2, ..bad.shape };
    assert!(matches!(
        Server::try_new(quick_config(), vec![bad]),
        Err(ServeError::Config { .. })
    ));
}

// ---------------------------------------------------------------------------
// Table-driven deadline semantics (ISSUE 6 satellite 3)
// ---------------------------------------------------------------------------

/// What a deadline scenario must produce.
enum Expect {
    /// (a) Refused at submit, no queue slot, no plan touched.
    ShedOnArrival,
    /// (b) Admitted, then cancelled in-queue before dispatch.
    CancelledInQueue,
    /// (c) Dispatched before expiry: the in-flight batch is never
    /// cancelled; the result arrives past the deadline flagged late.
    LateDelivery,
}

struct DeadlineCase {
    name: &'static str,
    /// Deadline offset from submit time; negative = already expired.
    deadline_ms: i64,
    /// Batcher stall armed before the submit (keeps the request queued
    /// past its deadline).
    stall_queue_ms: u64,
    /// Kernel slowdown (keeps the request in flight past its deadline).
    slow_kernel_ms: u64,
    expect: Expect,
}

const DEADLINE_CASES: &[DeadlineCase] = &[
    DeadlineCase {
        name: "expired_on_arrival_is_shed_without_touching_a_plan",
        deadline_ms: -10,
        stall_queue_ms: 0,
        slow_kernel_ms: 0,
        expect: Expect::ShedOnArrival,
    },
    DeadlineCase {
        name: "mid_queue_expiry_cancels_before_dispatch",
        deadline_ms: 20,
        stall_queue_ms: 120,
        slow_kernel_ms: 0,
        expect: Expect::CancelledInQueue,
    },
    DeadlineCase {
        name: "in_flight_batch_is_never_cancelled_result_is_flagged_late",
        deadline_ms: 250,
        stall_queue_ms: 0,
        slow_kernel_ms: 600,
        expect: Expect::LateDelivery,
    },
];

#[test]
fn deadline_semantics_table() {
    for case in DEADLINE_CASES {
        let faults = Arc::new(Faults::new());
        if case.stall_queue_ms > 0 {
            faults.stall_queue_once_ms(case.stall_queue_ms);
        }
        if case.slow_kernel_ms > 0 {
            faults.slow_kernels_ms(case.slow_kernel_ms);
        }
        let server = Server::with_faults(quick_config(), vec![model_def(1)], Arc::clone(&faults))
            .unwrap_or_else(|e| panic!("{}: server: {e}", case.name));
        let plans_before = server.planned_plans();
        let deadline = if case.deadline_ms < 0 {
            Instant::now() - Duration::from_millis(case.deadline_ms.unsigned_abs())
        } else {
            Instant::now() + Duration::from_millis(case.deadline_ms as u64)
        };
        let submitted = server.submit(MODEL, input(42), Some(deadline));

        match case.expect {
            Expect::ShedOnArrival => {
                match submitted {
                    Err(e @ ServeError::DeadlineExpired { at: ExpiredAt::Arrival }) => {
                        assert!(!e.is_retryable(), "{}", case.name)
                    }
                    other => panic!("{}: expected arrival shed, got {:?}", case.name, other.map(|t| t.id())),
                }
                let stats = server.stats();
                assert_eq!(stats.enqueued, 0, "{}: never queued", case.name);
                assert_eq!(stats.shed, 1, "{}", case.name);
                assert_eq!(stats.batches, 0, "{}: nothing dispatched", case.name);
                assert_eq!(
                    server.planned_plans(),
                    plans_before,
                    "{}: no plan touched",
                    case.name
                );
            }
            Expect::CancelledInQueue => {
                let ticket = submitted.unwrap_or_else(|e| panic!("{}: admitted: {e}", case.name));
                match ticket.wait_timeout(Duration::from_secs(5)) {
                    Ok(Err(e @ ServeError::DeadlineExpired { at: ExpiredAt::Queue })) => {
                        assert!(e.is_retryable(), "{}", case.name)
                    }
                    Ok(other) => panic!("{}: expected queue expiry, got {:?}", case.name, other.map(|r| r.batch)),
                    Err(_) => panic!("{}: ticket stranded", case.name),
                }
                let stats = server.stats();
                assert_eq!(stats.deadline_misses, 1, "{}", case.name);
                assert_eq!(stats.batches, 0, "{}: cancelled before dispatch", case.name);
            }
            Expect::LateDelivery => {
                let ticket = submitted.unwrap_or_else(|e| panic!("{}: admitted: {e}", case.name));
                let resp = match ticket.wait_timeout(Duration::from_secs(8)) {
                    Ok(Ok(resp)) => resp,
                    Ok(Err(e)) => panic!("{}: in-flight request failed: {e}", case.name),
                    Err(_) => panic!("{}: ticket stranded", case.name),
                };
                assert!(resp.late, "{}: must be flagged late", case.name);
                assert_eq!(
                    resp.output.as_slice(),
                    reference(1, 42).as_slice(),
                    "{}: late result still bitwise correct",
                    case.name
                );
                let stats = server.stats();
                assert_eq!(stats.completed, 1, "{}", case.name);
                assert!(stats.deadline_misses >= 1, "{}", case.name);
            }
        }
        server.shutdown();
    }
}
