//! `layers_t4`: eleven Table-4 convolutions through `ConvPlan`.
//!
//! Round-robin sweeps rather than per-layer blocks: each layer's filter and
//! input are as cold as inside a real network, and a noisy-neighbour burst
//! lands on all layers instead of one. An operation is one sweep; only the
//! `execute` calls are timed, the zero-fill between them is not.
//!
//! Timings are reported at the upper quartile, not the median: the shared
//! host has a fast state that comes and goes (a neighbour idle) and a slow
//! one that persists, so quantiles at or below the median flip between the
//! two from run to run while the upper quartile stays put (README.md,
//! "Why p75").

use std::time::{Duration, Instant};

use ndirect_baselines::naive;
use ndirect_core::ConvPlan;
use ndirect_platform::{conv_min_traffic_bytes, Platform};
use ndirect_tensor::{ActLayout, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;
use ndirect_workloads::{make_problem, table4, Problem};

use crate::common::{
    check_ulp, peak_rss_mib, repeat_setup, timed, Built, Outcome, RunArgs, Until, KERNEL_THREADS,
    TRACE_CAPACITY,
};
use crate::spec::T4_LAYERS;
use crate::stats::{geomean, median, percentile};
use crate::trace::Trace;

/// The row `core.oneshot_over_plan` is measured on (Table-4 id 10).
const ONESHOT_ROW: usize = 4;

struct Layer {
    problem: Problem,
    out: Tensor4,
}

fn problems(seed: u64) -> Vec<Layer> {
    T4_LAYERS
        .iter()
        .map(|&(id, _, _)| {
            let shape = table4::layer_by_id(id).expect("a Table-4 id").shape(1);
            Layer {
                problem: make_problem(
                    shape,
                    ActLayout::Nchw,
                    FilterLayout::Kcrs,
                    seed.wrapping_mul(1000) + id as u64,
                ),
                out: Tensor4::output_for(&shape, ActLayout::Nchw),
            }
        })
        .collect()
}

struct Program {
    pool: StaticPool,
    plans: Vec<ConvPlan<'static>>,
}

fn build(platform: &Platform, layers: &[Layer], threads: usize) -> Built<Program> {
    let (pool_spawn, pool) = timed(|| StaticPool::new(threads));
    let (construct, plans) = timed(|| {
        layers
            .iter()
            .map(|l| {
                ConvPlan::try_new(platform, &l.problem.shape, &l.problem.filter, threads)
                    .unwrap_or_else(|e| panic!("plan for {}: {e}", l.problem.shape))
            })
            .collect()
    });
    Built {
        pool_spawn,
        construct,
        value: Program { pool, plans },
    }
}

#[derive(Default)]
struct Samples {
    /// Σ `execute` time of each sweep, ms.
    sweep_ms: Vec<f64>,
    /// `execute` time of each layer in each sweep, seconds.
    layer_s: Vec<Vec<f64>>,
    failed: u64,
    wall: Duration,
}

impl Samples {
    /// FLOPs over the upper-quartile `execute` time of each layer.
    fn layer_gflops(&self, layers: &[Layer]) -> Vec<f64> {
        layers
            .iter()
            .zip(&self.layer_s)
            .map(|(l, s)| l.problem.shape.flops() as f64 / percentile(s, 75.0) / 1e9)
            .collect()
    }
}

fn sweep(
    program: &Program,
    layers: &mut [Layer],
    until: Until,
    mut trace: Option<&mut Trace>,
) -> Samples {
    let mut samples = Samples {
        layer_s: vec![Vec::new(); layers.len()],
        ..Samples::default()
    };
    let start = Instant::now();
    let mut op = 0u32;
    loop {
        let parent = trace.as_deref_mut().and_then(|t| t.open("sweep", None, op));
        let mut total = Duration::ZERO;
        for (i, (layer, plan)) in layers.iter_mut().zip(&program.plans).enumerate() {
            layer.out.fill_zero();
            let t0 = Instant::now();
            let result = plan.execute(&program.pool, &layer.problem.input, &mut layer.out);
            let t1 = Instant::now();
            if let Some(t) = trace.as_deref_mut() {
                t.record(T4_LAYERS[i].2, t0, Some(t1), parent, op);
            }
            samples.failed += u64::from(result.is_err());
            samples.layer_s[i].push((t1 - t0).as_secs_f64());
            total += t1 - t0;
        }
        if let Some(t) = trace.as_deref_mut() {
            t.close(parent);
        }
        samples.sweep_ms.push(total.as_secs_f64() * 1e3);
        op += 1;
        if until.reached(u64::from(op), start) {
            break;
        }
    }
    samples.wall = start.elapsed();
    samples
}

pub fn run(args: &RunArgs) -> Outcome {
    let platform = ndirect_platform::host();
    let mut layers = problems(args.seed);
    let mut outcome = Outcome::default();

    let setup = repeat_setup(|| build(&platform, &layers, KERNEL_THREADS));
    let program = setup.value;
    sweep(&program, &mut layers, Until::Ops(2), None);

    let timed_run = sweep(&program, &mut layers, args.window(), None);
    let sweep_p75 = percentile(&timed_run.sweep_ms, 75.0);
    let gflops = timed_run.layer_gflops(&layers);
    outcome.attempted += timed_run.sweep_ms.len() as u64;
    outcome.failed += timed_run.failed;
    outcome.note(format!(
        "{} sweeps of {} layers in {:.2} s",
        timed_run.sweep_ms.len(),
        layers.len(),
        timed_run.wall.as_secs_f64()
    ));

    let flops: u64 = layers.iter().map(|l| l.problem.shape.flops()).sum();
    if args.trace {
        let mut trace = Trace::with_capacity(TRACE_CAPACITY);
        let traced = sweep(&program, &mut layers, args.window(), Some(&mut trace));
        outcome.attempted += traced.sweep_ms.len() as u64;
        outcome.failed += traced.failed;

        for (i, &(_, metric, _)) in T4_LAYERS.iter().enumerate() {
            outcome.set(metric, gflops[i]);
        }
        let group = |rs: usize| -> Vec<f64> {
            layers
                .iter()
                .zip(&gflops)
                .filter(|(l, _)| l.problem.shape.r == rs)
                .map(|(_, &g)| g)
                .collect()
        };
        outcome.set("core.gflops_3x3", geomean(&group(3)));
        outcome.set("core.gflops_1x1", geomean(&group(1)));
        outcome.set("core.gflops_geomean", geomean(&gflops));

        // Computed, not measured: these repeat exactly, and a packing
        // change moves the bytes here before it moves any time.
        let pack: u64 = layers
            .iter()
            .zip(&program.plans)
            .map(|(l, p)| p.schedule().predicted_pack_bytes_u64(&l.problem.shape))
            .sum();
        let traffic: u64 = layers
            .iter()
            .map(|l| conv_min_traffic_bytes(&l.problem.shape))
            .sum();
        outcome.set("core.flops", flops as f64);
        outcome.set("core.pack_bytes_predicted", pack as f64);
        outcome.set("core.min_traffic_bytes", traffic as f64);
        outcome.set(
            "core.intensity_flop_per_byte",
            flops as f64 / traffic as f64,
        );
        outcome.set("core.plan_build_ms", setup.construct_ms);
        outcome.set("threads.pool_spawn_ms", setup.pool_spawn_ms);

        // The build-per-call use of the same code: schedule, pack and run
        // on every call, against the planned execute of the same row.
        let row = &layers[ONESHOT_ROW].problem;
        let oneshot: Vec<f64> = (0..9)
            .map(|_| {
                let (t, result) = timed(|| {
                    ndirect_core::try_conv_ndirect(
                        &program.pool,
                        &row.input,
                        &row.filter,
                        &row.shape,
                    )
                });
                outcome.failed += u64::from(result.is_err());
                t.as_secs_f64()
            })
            .collect();
        outcome.attempted += oneshot.len() as u64;
        outcome.set(
            "core.oneshot_over_plan",
            median(&oneshot) / median(&timed_run.layer_s[ONESHOT_ROW]),
        );

        // Diagnostics only: two shared vCPUs cannot gate scaling, and the
        // peak is the one `platform::host()` assumes, not a measured one.
        let two = build(&platform, &layers, 2).value;
        sweep(&two, &mut layers, Until::Ops(2), None);
        let two_run = sweep(&two, &mut layers, Until::Ops(7), None);
        outcome.attempted += two_run.sweep_ms.len() as u64;
        outcome.failed += two_run.failed;
        outcome.set(
            "threads.speedup_2t",
            geomean(&two_run.layer_gflops(&layers)) / geomean(&gflops),
        );
        outcome.set(
            "platform.pct_nominal_peak",
            100.0 * geomean(&gflops) / platform.peak_for_threads(KERNEL_THREADS),
        );
        outcome.note(format!(
            "threads.speedup_2t is a diagnostic on {} shared vCPU(s); platform.pct_nominal_peak is against the assumed {:.1} GFLOP/s of platform::host()",
            platform.cores,
            platform.peak_for_threads(KERNEL_THREADS)
        ));

        outcome.set_trace_overhead(
            median(&timed_run.sweep_ms),
            sweep_p75,
            percentile(&traced.sweep_ms, 75.0),
        );
        outcome.trace = Some(trace);
        // Leave the 1-thread program's outputs in place for the check.
        sweep(&program, &mut layers, Until::Ops(1), None);
    } else {
        outcome.set("setup_s", setup.setup_s);
        outcome.set("latency_ms_p75", sweep_p75);
        outcome.set("gflops_delivered", geomean(&gflops));
        outcome.set("peak_rss_mib", peak_rss_mib());
    }

    // Outside every timed window: what the last sweep left in each output
    // against the naive oracle.
    for (layer, &(id, _, _)) in layers.iter().zip(&T4_LAYERS) {
        let p = &layer.problem;
        let want = naive::conv_ref(&p.input, &p.filter, &p.shape);
        outcome.check(
            &format!("t4_{id:02} vs baselines::naive::conv_ref"),
            check_ulp(layer.out.as_slice(), want.as_slice()),
        );
    }
    outcome
}
