//! `serve_batched`, `serve_unbatched`: the serving front-end under a closed
//! loop.
//!
//! One generator thread keeps a window of 16 requests outstanding against
//! the three `servebench` zoo models (Table-4 rows 21/22/23 at 1/8 channel
//! width), the model of each request drawn from the seeded RNG, waits
//! issued in submit order. Closed rather than open loop because a gated
//! number must repeat on a shared box. The 2 s deadline exercises the
//! deadline path without shaping the load: at 25 ms, a few requests in a
//! million came back late when a neighbour stalled the box, and a workload
//! must be one on which no operation fails. An operation is one request,
//! timed from the start of `submit_within` to the return of `Ticket::wait`;
//! a refused, failed or late request counts as failed. With the server's
//! batcher and one shard thread, at most `nproc` threads are ever busy.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ndirect_core::ConvPlan;
use ndirect_platform::conv_min_traffic_bytes;
use ndirect_serve::{pinned_schedule, ModelDef, ServeConfig, Server, Ticket};
use ndirect_support::Rng64;
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;
use ndirect_workloads::table4;

use crate::common::{
    peak_rss_mib, repeat_setup, timed, Built, Outcome, RunArgs, Until, KERNEL_THREADS,
    TRACE_CAPACITY,
};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Trace};

const ZOO: [usize; 3] = [21, 22, 23];
const CHANNEL_SCALE: usize = 8;
const WINDOW: usize = 16;
const DEADLINE: Duration = Duration::from_secs(2);
const WARM_UP_REQUESTS: u64 = 200;
/// Distinct inputs per model; requests cycle through them.
const VARIANTS: usize = 4;
/// One response in this many is checked bit for bit.
const CHECK_EVERY: u64 = 256;

struct ZooModel {
    name: String,
    shape: ConvShape,
    filter: Filter,
    inputs: Vec<Tensor4>,
}

fn zoo(seed: u64) -> Vec<ZooModel> {
    ZOO.iter()
        .map(|&id| {
            let cfg = table4::layer_by_id(id).expect("a Table-4 id");
            let shape = ConvShape::square(
                1,
                cfg.c / CHANNEL_SCALE,
                cfg.k / CHANNEL_SCALE,
                cfg.hw,
                cfg.rs,
                cfg.stride,
            );
            let seed = seed.wrapping_mul(1000) + id as u64 * 10;
            ZooModel {
                name: format!("t4-{id}"),
                shape,
                filter: fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed),
                inputs: (1..=VARIANTS as u64)
                    .map(|v| {
                        fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed + v)
                    })
                    .collect(),
            }
        })
        .collect()
}

fn build(zoo: &[ZooModel], batched: bool) -> Built<Server> {
    let config = ServeConfig {
        shards: 1,
        threads_per_shard: KERNEL_THREADS,
        max_batch: if batched { 8 } else { 1 },
        batch_linger: if batched {
            Duration::from_micros(200)
        } else {
            Duration::ZERO
        },
        ..ServeConfig::default()
    };
    // Copying the weights into the definitions is the benchmark's own
    // work, not the program's set-up.
    let defs = zoo
        .iter()
        .map(|m| ModelDef {
            name: m.name.clone(),
            shape: m.shape,
            filter: m.filter.clone(),
        })
        .collect();
    let (construct, server) = timed(|| Server::try_new(config, defs));
    Built {
        // The server spawns its own pools inside `try_new`.
        pool_spawn: Duration::ZERO,
        construct,
        value: server.unwrap_or_else(|e| panic!("Server::try_new: {e}")),
    }
}

struct Outstanding {
    ticket: Ticket,
    submitted: Instant,
    seq: u64,
    model: usize,
    variant: usize,
    span: Option<SpanId>,
}

#[derive(Default)]
struct Samples {
    /// Start of `submit_within` to return of `wait`, completed in-deadline
    /// requests only.
    latency_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    flops_done: u64,
    /// `(model, variant, hash of the output's bits)` of every
    /// `CHECK_EVERY`-th request. A hash, not the tensor: kept tensors would
    /// be most of the process's memory, in proportion to its throughput.
    kept: Vec<(usize, usize, u64)>,
    wall: Duration,
}

/// FNV-1a over the bit patterns: equal hashes stand for bitwise equality.
fn bits_hash(t: &Tensor4) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The closed loop. `seq` numbers requests across calls so the model draw
/// and the kept sample continue from warm-up into the timed window.
fn drive(
    server: &Server,
    zoo: &[ZooModel],
    rng: &mut Rng64,
    seq: &mut u64,
    until: Until,
    mut trace: Option<&mut Trace>,
) -> Samples {
    // Sized up front: a sample vector that doubles mid-run holds two copies
    // for a moment, and the peak memory the run reports would then depend
    // on whether the request count crossed a power of two.
    let expected = match until {
        Until::Ops(n) => n as usize,
        Until::Elapsed(budget) => (budget.as_secs_f64() * 100_000.0) as usize,
    };
    let mut samples = Samples {
        latency_ms: Vec::with_capacity(expected),
        ..Samples::default()
    };
    let mut window: VecDeque<Outstanding> = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    let mut submitting = true;
    while submitting || !window.is_empty() {
        if submitting && window.len() < WINDOW {
            submitting = !until.reached(samples.attempted, start);
            if !submitting {
                continue;
            }
            let model = rng.gen_range_usize(0, zoo.len());
            let variant = (*seq % VARIANTS as u64) as usize;
            let input = zoo[model].inputs[variant].clone();
            let op = *seq as u32;
            let span = trace
                .as_deref_mut()
                .and_then(|t| t.open("request", None, op));
            let t0 = Instant::now();
            let submitted = server.submit_within(&zoo[model].name, input, DEADLINE);
            let t1 = Instant::now();
            if let Some(t) = trace.as_deref_mut() {
                t.record("serve.submit", t0, Some(t1), span, op);
            }
            samples.attempted += 1;
            match submitted {
                Ok(ticket) => window.push_back(Outstanding {
                    ticket,
                    submitted: t0,
                    seq: *seq,
                    model,
                    variant,
                    span,
                }),
                Err(_) => {
                    samples.failed += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.close(span);
                    }
                }
            }
            *seq += 1;
            continue;
        }
        let Some(next) = window.pop_front() else {
            continue;
        };
        let t0 = Instant::now();
        let response = next.ticket.wait();
        let t1 = Instant::now();
        if let Some(t) = trace.as_deref_mut() {
            t.record("serve.wait", t0, Some(t1), next.span, next.seq as u32);
            t.close(next.span);
        }
        match response {
            Ok(r) if !r.late => {
                samples
                    .latency_ms
                    .push((t1 - next.submitted).as_secs_f64() * 1e3);
                samples.flops_done += zoo[next.model].shape.flops();
                if next.seq % CHECK_EVERY == 0 {
                    samples
                        .kept
                        .push((next.model, next.variant, bits_hash(&r.output)));
                }
            }
            _ => samples.failed += 1,
        }
    }
    samples.wall = start.elapsed();
    samples
}

/// The same mix executed straight through `ConvPlan`s on the pinned
/// schedule, no server: the ceiling the serve path is measured against.
fn kernel_only_req_per_s(
    zoo: &[ZooModel],
    plans: &[ConvPlan<'static>],
    pool: &StaticPool,
    seed: u64,
    budget: Duration,
    outcome: &mut Outcome,
) -> f64 {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut outs: Vec<Tensor4> = zoo
        .iter()
        .map(|m| Tensor4::output_for(&m.shape, ActLayout::Nchw))
        .collect();
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < budget {
        let model = rng.gen_range_usize(0, zoo.len());
        let input = &zoo[model].inputs[(done % VARIANTS as u64) as usize];
        outs[model].fill_zero();
        outcome.failed += u64::from(plans[model].execute(pool, input, &mut outs[model]).is_err());
        done += 1;
    }
    outcome.attempted += done;
    done as f64 / start.elapsed().as_secs_f64()
}

pub fn run(batched: bool, args: &RunArgs) -> Outcome {
    let zoo = zoo(args.seed);
    let mut outcome = Outcome::default();
    let mut rng = Rng64::seed_from_u64(args.seed);
    let mut seq = 0u64;

    let setup = repeat_setup(|| build(&zoo, batched));
    let server = setup.value;
    let warm = drive(
        &server,
        &zoo,
        &mut rng,
        &mut seq,
        Until::Ops(WARM_UP_REQUESTS),
        None,
    );
    let baseline = server.metrics_snapshot();

    let timed_run = drive(&server, &zoo, &mut rng, &mut seq, args.window(), None);
    let served = server.metrics_snapshot().since(&baseline);
    let rss = peak_rss_mib();
    assert!(
        !timed_run.latency_ms.is_empty(),
        "no request completed within its deadline in {:?}",
        timed_run.wall
    );
    let p50 = median(&timed_run.latency_ms);
    let p75 = percentile(&timed_run.latency_ms, 75.0);
    let req_per_s = timed_run.latency_ms.len() as f64 / timed_run.wall.as_secs_f64();
    outcome.attempted += timed_run.attempted;
    outcome.failed += timed_run.failed + warm.failed;
    outcome.note(format!(
        "{} requests in {:.2} s, {} completed within the {} s deadline",
        timed_run.attempted,
        timed_run.wall.as_secs_f64(),
        timed_run.latency_ms.len(),
        DEADLINE.as_secs()
    ));

    let mut kept = timed_run.kept;
    let platform = ndirect_platform::host();
    let (plan_build, plans) = timed(|| -> Vec<ConvPlan<'static>> {
        zoo.iter()
            .map(|m| {
                let schedule = pinned_schedule(&platform, &m.shape, KERNEL_THREADS);
                ConvPlan::try_with_schedule(&m.shape, &m.filter, &schedule)
                    .unwrap_or_else(|e| panic!("pinned plan for {}: {e}", m.name))
            })
            .collect()
    });
    let pool = StaticPool::new(KERNEL_THREADS);

    if args.trace {
        let mut trace = Trace::with_capacity(TRACE_CAPACITY);
        let traced = drive(
            &server,
            &zoo,
            &mut rng,
            &mut seq,
            args.window(),
            Some(&mut trace),
        );
        outcome.attempted += traced.attempted;
        outcome.failed += traced.failed;
        kept.extend(traced.kept);

        let hist_us = |name: &str, q: f64| {
            served
                .histogram(name, &[])
                .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
        };
        let count = |name: &str| served.counter(name, &[]).unwrap_or(0) as f64;
        outcome.set("serve.req_per_s", req_per_s);
        outcome.set(
            "serve.latency_ms_p99",
            percentile(&timed_run.latency_ms, 99.0),
        );
        for (metric, family, q) in [
            (
                "serve.stage_admission_us_p50",
                "serve_stage_admission_ns",
                50.0,
            ),
            ("serve.stage_linger_us_p50", "serve_stage_linger_ns", 50.0),
            (
                "serve.stage_dispatch_us_p50",
                "serve_stage_dispatch_ns",
                50.0,
            ),
            ("serve.stage_execute_us_p50", "serve_stage_execute_ns", 50.0),
            ("serve.stage_execute_us_p99", "serve_stage_execute_ns", 99.0),
            (
                "serve.stage_delivery_us_p50",
                "serve_stage_delivery_ns",
                50.0,
            ),
            ("serve.latency_us_p50_server", "serve_latency_ns", 50.0),
        ] {
            outcome.set(metric, hist_us(family, q));
        }
        let batches = count("serve_batches_total");
        outcome.set(
            "serve.batch_size_mean",
            count("serve_batched_requests_total") / batches.max(1.0),
        );
        outcome.set("serve.batches", batches);
        for (metric, family) in [
            ("serve.completed", "serve_completed_total"),
            ("serve.shed", "serve_shed_total"),
            ("serve.late", "serve_late_total"),
            ("serve.retries", "serve_retries_total"),
            ("serve.degraded", "serve_degraded_total"),
        ] {
            outcome.set(metric, count(family));
        }
        outcome.set(
            "serve.submit_call_us_p50",
            median(&trace.per_op_ms("serve.submit")) * 1e3,
        );
        outcome.set(
            "serve.wait_call_us_p50",
            median(&trace.per_op_ms("serve.wait")) * 1e3,
        );
        outcome.set("serve.setup_ms", setup.construct_ms);
        outcome.set("core.plan_build_ms", plan_build.as_secs_f64() * 1e3);
        outcome.note(format!(
            "client latency p50 {:.1} us beside the server's own serve_latency_ns p50 {:.1} us",
            p50 * 1e3,
            hist_us("serve_latency_ns", 50.0)
        ));

        let ceiling = kernel_only_req_per_s(
            &zoo,
            &plans,
            &pool,
            args.seed,
            Duration::from_secs_f64(args.seconds.min(1.0)),
            &mut outcome,
        );
        outcome.set("core.kernel_only_req_per_s", ceiling);
        outcome.set("serve.efficiency", req_per_s / ceiling);

        // Computed, per request in expectation: the mix draws the three
        // models uniformly.
        let mean = |f: &dyn Fn(&ZooModel, &ConvPlan<'static>) -> u64| {
            zoo.iter().zip(&plans).map(|(m, p)| f(m, p)).sum::<u64>() as f64 / zoo.len() as f64
        };
        let flops = mean(&|m, _| m.shape.flops());
        let traffic = mean(&|m, _| conv_min_traffic_bytes(&m.shape));
        outcome.set("core.flops", flops);
        outcome.set(
            "core.pack_bytes_predicted",
            mean(&|m, p| p.schedule().predicted_pack_bytes_u64(&m.shape)),
        );
        outcome.set("core.min_traffic_bytes", traffic);
        outcome.set("core.intensity_flop_per_byte", flops / traffic);

        outcome.set_trace_overhead(p50, p75, percentile(&traced.latency_ms, 75.0));
        outcome.trace = Some(trace);
    } else {
        outcome.set("setup_s", setup.setup_s);
        outcome.set("latency_ms_p75", p75);
        outcome.set(
            "gflops_delivered",
            timed_run.flops_done as f64 / timed_run.wall.as_secs_f64() / 1e9,
        );
        outcome.set("peak_rss_mib", rss);
    }
    server.shutdown();

    // Outside every timed window: the checked responses against a direct
    // `ConvPlan` on the schedule the server pins, bit for bit.
    let reference: Vec<Vec<u64>> = zoo
        .iter()
        .zip(&plans)
        .map(|(m, plan)| {
            m.inputs
                .iter()
                .map(|input| {
                    let mut want = Tensor4::output_for(&m.shape, ActLayout::Nchw);
                    plan.execute(&pool, input, &mut want)
                        .unwrap_or_else(|e| panic!("reference for {}: {e}", m.name));
                    bits_hash(&want)
                })
                .collect()
        })
        .collect();
    let mismatches = kept
        .iter()
        .filter(|(model, variant, got)| reference[*model][*variant] != *got)
        .count();
    outcome.attempted += kept.len() as u64;
    outcome.failed += mismatches as u64;
    outcome.note(format!(
        "{}: {} of {} checked responses (1 in {CHECK_EVERY}) differ from a direct ConvPlan on the pinned schedule",
        if mismatches == 0 { "check ok" } else { "CHECK FAILED" },
        mismatches,
        kept.len()
    ));
    outcome
}
