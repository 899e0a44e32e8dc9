//! Chaos suite: deterministic fault storms against a live server.
//!
//! Every test pins the contract from DESIGN.md §13: **every injected
//! fault maps to a typed [`ServeError`] or a degraded-but-correct result
//! (bitwise-checked against a reference plan), and nothing ever hangs** —
//! each scenario runs under a 10-second watchdog thread.
//!
//! Run with `cargo test -p ndirect-serve --features chaos`.

#![cfg(feature = "chaos")]

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ndirect_core::{ConvPlan, Schedule};
use ndirect_serve::faults::Faults;
use ndirect_serve::{pinned_schedule, ModelDef, ServeConfig, ServeError, Server, Ticket};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;

const MODEL: &str = "chaos-layer";
const FILTER_SEED: u64 = 11;

fn shape1() -> ConvShape {
    ConvShape::square(1, 4, 8, 6, 3, 1)
}

fn model_def() -> ModelDef {
    let shape = shape1();
    ModelDef {
        name: MODEL.into(),
        shape,
        filter: fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), FILTER_SEED),
    }
}

fn input(seed: u64) -> Tensor4 {
    fill::random_tensor(Tensor4::input_for(&shape1(), ActLayout::Nchw), seed)
}

/// Bitwise reference through the same pinned schedule the server uses.
/// The pinned schedule fixes tile parameters (and with them the float
/// accumulation grouping) across batch sizes, so this N=1 run is the
/// ground truth for a request served at *any* batch size.
fn pinned_reference(in_seed: u64, threads: usize) -> Vec<f32> {
    reference_with(&pinned_schedule(&ndirect_platform::host(), &shape1(), threads), in_seed, threads)
}

/// Bitwise reference through the minimal (degraded) schedule, whose tile
/// parameters are also batch-size-independent.
fn minimal_reference(in_seed: u64) -> Vec<f32> {
    reference_with(&Schedule::minimal(&shape1()), in_seed, 1)
}

fn reference_with(schedule: &Schedule, in_seed: u64, threads: usize) -> Vec<f32> {
    let shape = shape1();
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), FILTER_SEED);
    let plan = ConvPlan::try_with_schedule(&shape, &filter, schedule).expect("reference plan");
    let pool = StaticPool::new(threads);
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
    plan.execute(&pool, &input(in_seed), &mut out).expect("reference exec");
    out.as_slice().to_vec()
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

/// Runs `f` on its own thread and fails the test if it has not finished
/// within 10 seconds — the suite-wide hang detector. Panics inside `f`
/// propagate.
fn watchdog<F>(name: &'static str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .expect("spawn watchdog subject");
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => handle.join().expect("scenario thread"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The scenario panicked before sending; join to propagate it.
            handle.join().expect("scenario thread panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos scenario `{name}` exceeded the 10 s watchdog: hang")
        }
    }
}

/// A resolved ticket must be Ok-and-bitwise-correct or a *typed* error
/// from the expected family — never a hang (the caller's watchdog covers
/// that) and never silently wrong data.
fn assert_resolution(
    who: &str,
    ticket: Ticket,
    in_seed: u64,
    threads: usize,
    error_ok: impl Fn(&ServeError) -> bool,
) {
    match ticket.wait_timeout(Duration::from_secs(8)) {
        Ok(Ok(resp)) => {
            let want = if resp.degraded {
                minimal_reference(in_seed)
            } else {
                pinned_reference(in_seed, threads)
            };
            assert_eq!(
                resp.output.as_slice(),
                want.as_slice(),
                "{who}: delivered result must be bitwise-correct (degraded={})",
                resp.degraded
            );
        }
        Ok(Err(e)) => assert!(error_ok(&e), "{who}: unexpected error class: {e}"),
        Err(_) => panic!("{who}: ticket unresolved — stranded request"),
    }
}

#[test]
fn alloc_refusal_storm_degrades_or_fails_typed() {
    watchdog("alloc-refusal", || {
        let faults = Arc::new(Faults::new());
        let server = Server::with_faults(
            ServeConfig { max_retries: 1, ..quick_config() },
            vec![model_def()],
            Arc::clone(&faults),
        )
        .expect("server");
        // Refuse a whole storm of scratch allocations; fresh (batched)
        // plan builds hit the refusals, retry, degrade, or exhaust.
        faults.refuse_next_allocs(6);
        faults.stall_queue_once_ms(40);
        let tickets: Vec<_> = (0..4)
            .map(|i| server.submit(MODEL, input(i), None).expect("submit"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_resolution("alloc-refusal", t, i as u64, 1, |e| {
                matches!(e, ServeError::RetriesExhausted { .. })
            });
        }
        server.shutdown();
    });
}

#[test]
fn worker_death_storm_is_healed_without_wrong_answers() {
    watchdog("worker-death", || {
        let faults = Arc::new(Faults::new());
        let server = Server::with_faults(
            ServeConfig { threads_per_shard: 2, ..quick_config() },
            vec![model_def()],
            Arc::clone(&faults),
        )
        .expect("server");
        faults.kill_worker_before_next_batches(3);
        for round in 0..5u64 {
            let resp = server
                .submit(MODEL, input(round), None)
                .expect("submit")
                .wait()
                .expect("served across respawns");
            assert_eq!(
                resp.output.as_slice(),
                pinned_reference(round, 2).as_slice(),
                "round {round}: bitwise across worker death"
            );
        }
        assert!(server.stats().worker_deaths >= 3, "all kills landed and healed");
        server.shutdown();
    });
}

#[test]
fn slow_kernels_trip_backpressure_into_typed_shed() {
    watchdog("overload-shed", || {
        let faults = Arc::new(Faults::new());
        let server = Server::with_faults(
            ServeConfig {
                queue_capacity: 4,
                high_water: 2,
                max_batch: 1,
                ..quick_config()
            },
            vec![model_def()],
            Arc::clone(&faults),
        )
        .expect("server");
        faults.slow_kernels_ms(150);
        let mut admitted = Vec::new();
        let mut shed = 0usize;
        for i in 0..10u64 {
            match server.submit(MODEL, input(i), None) {
                Ok(t) => admitted.push((i, t)),
                Err(e @ ServeError::Overloaded { .. }) => {
                    assert!(e.is_retryable());
                    assert!(e.retry_after().expect("hint") >= Duration::from_millis(1));
                    shed += 1;
                }
                Err(other) => panic!("expected Overloaded, got {other}"),
            }
        }
        assert!(shed > 0, "slow kernels must eventually trip the high-water shed");
        faults.slow_kernels_ms(0); // lift the fault; the backlog drains fast
        for (seed, t) in admitted {
            assert_resolution("overload-shed", t, seed, 1, |_| false);
        }
        assert_eq!(server.stats().shed as usize, shed);
        server.shutdown();
    });
}

#[test]
fn queue_stall_expires_deadlines_without_kernel_slots() {
    watchdog("queue-stall", || {
        let faults = Arc::new(Faults::new());
        // Armed before the server exists: the batcher's first loop
        // iteration consumes the stall, and the short-deadline requests
        // submitted during it all expire in-queue.
        faults.stall_queue_once_ms(150);
        let server =
            Server::with_faults(quick_config(), vec![model_def()], Arc::clone(&faults)).expect("server");
        let doomed: Vec<_> = (1..4u64)
            .map(|i| {
                server
                    .submit_within(MODEL, input(i), Duration::from_millis(20))
                    .expect("admitted")
            })
            .collect();
        for t in doomed {
            match t.wait_timeout(Duration::from_secs(8)) {
                Ok(Err(ServeError::DeadlineExpired { .. })) => {}
                Ok(other) => panic!("expected queue expiry, got {:?}", other.map(|r| r.batch)),
                Err(_) => panic!("expired ticket stranded"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 0, "expired requests never dispatched");
        assert_eq!(stats.deadline_misses, 3);
        server.shutdown();
    });
}

#[test]
fn poison_storm_is_isolated_peer_by_peer() {
    watchdog("poison-isolation", || {
        let faults = Arc::new(Faults::new());
        faults.stall_queue_once_ms(60);
        let server =
            Server::with_faults(quick_config(), vec![model_def()], Arc::clone(&faults)).expect("server");
        // Batch of five with two poisoned members.
        let mut tickets = Vec::new();
        for i in 0..5u64 {
            if i == 1 || i == 3 {
                faults.poison_next_submits(1);
            }
            tickets.push((i, server.submit(MODEL, input(i), None).expect("submit")));
        }
        for (i, t) in tickets {
            if i == 1 || i == 3 {
                assert!(
                    matches!(t.wait(), Err(ServeError::WorkerPanicked)),
                    "poisoned request {i} fails alone, typed"
                );
            } else {
                assert_resolution("poison-isolation", t, i, 1, |_| false);
            }
        }
        let stats = server.stats();
        assert_eq!(stats.isolated_panics, 2);
        assert_eq!(stats.completed, 3);
        server.shutdown();
    });
}

#[test]
fn full_storm_every_ticket_resolves_typed_or_correct() {
    watchdog("full-storm", || {
        let faults = Arc::new(Faults::new());
        let server = Server::with_faults(
            ServeConfig {
                threads_per_shard: 2,
                queue_capacity: 64,
                high_water: 48,
                max_retries: 1,
                ..quick_config()
            },
            vec![model_def()],
            Arc::clone(&faults),
        )
        .expect("server");
        // Everything at once: refusals, kills, poison, slowdown, stall.
        faults.refuse_next_allocs(4);
        faults.kill_worker_before_next_batches(2);
        faults.slow_kernels_ms(5);
        faults.stall_queue_once_ms(30);
        let mut tickets = Vec::new();
        for i in 0..24u64 {
            if i % 7 == 3 {
                faults.poison_next_submits(1);
            }
            let deadline = (i % 5 == 4).then(|| Instant::now() + Duration::from_millis(15));
            match server.submit(MODEL, input(i), deadline) {
                Ok(t) => tickets.push((i, t)),
                Err(e) => {
                    // Admission refusals must be typed shed/expiry.
                    assert!(
                        matches!(
                            e,
                            ServeError::Overloaded { .. } | ServeError::DeadlineExpired { .. }
                        ),
                        "typed admission error, got {e}"
                    );
                }
            }
        }
        for (i, t) in tickets {
            assert_resolution("full-storm", t, i, 2, |e| {
                matches!(
                    e,
                    ServeError::WorkerPanicked
                        | ServeError::RetriesExhausted { .. }
                        | ServeError::DeadlineExpired { .. }
                )
            });
        }
        assert!(faults.injected() > 0, "the storm actually fired");
        server.shutdown();
    });
}

#[test]
fn shutdown_under_chaos_strands_no_ticket() {
    watchdog("drain-chaos", || {
        let faults = Arc::new(Faults::new());
        faults.slow_kernels_ms(20);
        faults.stall_queue_once_ms(40);
        let server =
            Server::with_faults(quick_config(), vec![model_def()], Arc::clone(&faults)).expect("server");
        let tickets: Vec<_> = (0..8u64)
            .map(|i| (i, server.submit(MODEL, input(i), None).expect("submit")))
            .collect();
        server.shutdown();
        // Post-drain: everything admitted was completed, not dropped.
        for (i, t) in tickets {
            assert_resolution("drain-chaos", t, i, 1, |_| false);
        }
    });
}

/// ISSUE 9 acceptance: after a deterministic multi-phase fault storm, the
/// final metrics snapshot's counters **exactly** account for every
/// injected fault — arrival expiries, queue expiries, retries,
/// degradations, and panics each equal their armed totals (hard
/// equality), the conservation law `enqueued == completed + failed`
/// holds, and the latency histogram's quantiles respect the documented
/// bucket error bound against client-observed wall times.
#[test]
fn metrics_snapshot_accounts_for_every_injected_fault() {
    use ndirect_probe::metrics::{parse_prometheus, MetricsSnapshot, MAX_RELATIVE_ERROR};
    use ndirect_serve::METRIC_CATALOG;

    watchdog("metrics-accounting", || {
        let faults = Arc::new(Faults::new());
        // Phase B's fault, armed before the server exists so the batcher's
        // first loop iteration consumes the stall.
        faults.stall_queue_once_ms(150);
        let server = Server::with_faults(
            ServeConfig {
                max_retries: 1,
                // Generous linger so back-to-back submits of a phase are
                // deterministically coalesced into one batch.
                batch_linger: Duration::from_millis(200),
                ..quick_config()
            },
            vec![model_def()],
            Arc::clone(&faults),
        )
        .expect("server");

        // Phase B — 3 queue expiries: the batcher sleeps through the
        // stall while these 20 ms deadlines lapse in the queue.
        let doomed: Vec<_> = (0..3u64)
            .map(|i| {
                server
                    .submit_within(MODEL, input(100 + i), Duration::from_millis(20))
                    .expect("admitted")
            })
            .collect();

        // Phase A — 2 arrival expiries: already-passed deadlines are
        // refused at the door and never enter the queue.
        for i in 0..2u64 {
            match server.submit_within(MODEL, input(200 + i), Duration::ZERO) {
                Err(ServeError::DeadlineExpired { .. }) => {}
                other => panic!("expected arrival expiry, got {:?}", other.map(|t| t.id())),
            }
        }
        for t in doomed {
            match t.wait_timeout(Duration::from_secs(8)) {
                Ok(Err(ServeError::DeadlineExpired { .. })) => {}
                Ok(other) => panic!("expected queue expiry, got {:?}", other.map(|r| r.batch)),
                Err(_) => panic!("doomed ticket stranded"),
            }
        }

        // Every completed request's client-observed wall time upper-bounds
        // its server-side latency; the histogram's p100 must stay within
        // one bucket width of the slowest of these.
        let mut wall_ns: Vec<u64> = Vec::new();
        let mut timed_wait = |seed: u64, t: Ticket, started: Instant, want_degraded: bool| {
            let resp = t.wait_timeout(Duration::from_secs(8)).expect("resolved").expect("ok");
            wall_ns.push(started.elapsed().as_nanos() as u64);
            assert_eq!(resp.degraded, want_degraded, "seed {seed}: degraded flag");
            let want = if want_degraded { minimal_reference(seed) } else { pinned_reference(seed, 1) };
            assert_eq!(resp.output.as_slice(), want.as_slice(), "seed {seed}: bitwise");
        };

        // Phase C — 2 refused allocations against the fresh N = 2 plan:
        // one retry (max_retries = 1), then both requests complete on the
        // degraded minimal-schedule plan.
        faults.refuse_next_allocs(2);
        let c_started = Instant::now();
        let c1 = server.submit(MODEL, input(1), None).expect("submit c1");
        let c2 = server.submit(MODEL, input(2), None).expect("submit c2");
        timed_wait(1, c1, c_started, true);
        timed_wait(2, c2, c_started, true);

        // Phase D — 2 poisoned requests panic the batch; isolation fails
        // exactly the poisoned pair and completes their peer.
        faults.poison_next_submits(2);
        let d_started = Instant::now();
        let d1 = server.submit(MODEL, input(3), None).expect("submit d1");
        let d2 = server.submit(MODEL, input(4), None).expect("submit d2");
        let d3 = server.submit(MODEL, input(5), None).expect("submit d3");
        for (who, t) in [("d1", d1), ("d2", d2)] {
            assert!(
                matches!(t.wait_timeout(Duration::from_secs(8)), Ok(Err(ServeError::WorkerPanicked))),
                "{who}: poisoned request fails alone, typed"
            );
        }
        timed_wait(5, d3, d_started, false);

        // Phase E — 4 clean completions.
        let e_started = Instant::now();
        let clean: Vec<_> = (10..14u64)
            .map(|i| (i, server.submit(MODEL, input(i), None).expect("submit clean")))
            .collect();
        for (i, t) in clean {
            timed_wait(i, t, e_started, false);
        }

        // --- The accounting ---------------------------------------------
        let snap = server.metrics_snapshot();
        let agg = |name: &str| snap.counter(name, &[]).unwrap_or_else(|| panic!("counter {name}"));

        // Injected-fault totals, hard equality.
        assert_eq!(agg("serve_expired_arrival_total"), 2, "arrival expiries");
        assert_eq!(agg("serve_expired_queue_total"), 3, "queue expiries (stall sweep)");
        assert_eq!(agg("serve_retries_total"), 1, "2 refusals / max_retries 1 = one backoff");
        assert_eq!(agg("serve_degraded_total"), 2, "both phase-C requests degraded");
        assert_eq!(agg("serve_panics_total"), 2, "both poisoned requests isolated");
        assert_eq!(agg("serve_shed_total"), 2, "sheds = the arrival expiries");
        assert_eq!(agg("serve_shed_overload_total"), 0);
        assert_eq!(agg("serve_late_total"), 0);

        // Conservation: every admitted request is completed or failed.
        let enqueued = agg("serve_enqueued_total");
        assert_eq!(enqueued, 12);
        assert_eq!(agg("serve_completed_total"), 7);
        assert_eq!(agg("serve_failed_total"), 5, "3 queue expiries + 2 isolated panics");
        assert_eq!(agg("serve_completed_total") + agg("serve_failed_total"), enqueued);
        // Dispatched work: everything admitted that did not expire in queue.
        assert_eq!(agg("serve_batched_requests_total"), 9);

        // The per-model scope mirrors the aggregate exactly (one model).
        let model_labels = [("model", MODEL)];
        for name in METRIC_CATALOG.iter().filter(|n| n.ends_with("_total")) {
            assert_eq!(
                snap.counter(name, &model_labels),
                Some(agg(name)),
                "{name}: model scope mirrors aggregate"
            );
        }

        // Stage histograms carry one sample per request that crossed the
        // stage: 9 dispatched, 7 executed-and-delivered.
        let hist = |name: &str| snap.histogram(name, &[]).unwrap_or_else(|| panic!("histogram {name}"));
        assert_eq!(hist("serve_stage_admission_ns").count, 9);
        assert_eq!(hist("serve_stage_linger_ns").count, 9);
        assert_eq!(hist("serve_stage_dispatch_ns").count, 9);
        assert_eq!(hist("serve_stage_execute_ns").count, 7);
        assert_eq!(hist("serve_stage_delivery_ns").count, 7);
        assert_eq!(hist("serve_service_ns").count, 7);
        let latency = hist("serve_latency_ns");
        assert_eq!(latency.count, 7, "one latency sample per completion");
        assert_eq!(latency.buckets.iter().map(|&(_, n)| n).sum::<u64>(), latency.count);

        // Quantile error bound, cross-checked against the client's clock:
        // server-side latency <= client wall time per request, and the
        // histogram may overshoot the true maximum by at most one bucket
        // width (MAX_RELATIVE_ERROR).
        let max_wall = *wall_ns.iter().max().expect("completions");
        let p100 = latency.quantile(100.0);
        assert!(p100 > 0);
        let bound = max_wall + (MAX_RELATIVE_ERROR * max_wall as f64).ceil() as u64;
        assert!(
            p100 <= bound,
            "latency p100 {p100} exceeds client-observed max {max_wall} + bucket error ({bound})"
        );
        for pair in [(50.0, 99.0), (99.0, 100.0)] {
            assert!(latency.quantile(pair.0) <= latency.quantile(pair.1), "quantiles monotone");
        }

        // Export surface: every catalogued family is present with its
        // unlabeled aggregate sample, the JSON round-trips losslessly, and
        // the Prometheus text parses back.
        for name in METRIC_CATALOG {
            let family = snap
                .family(name)
                .unwrap_or_else(|| panic!("catalog family {name} missing from snapshot"));
            assert!(family.sample(&[]).is_some(), "family {name} lacks its aggregate sample");
        }
        let rt = MetricsSnapshot::from_json(&snap.to_json()).expect("json round-trip");
        assert_eq!(rt, snap, "JSON serialization is lossless");
        let prom = parse_prometheus(&snap.to_prometheus()).expect("prometheus parses");
        assert!(!prom.is_empty());

        server.shutdown();
    });
}
