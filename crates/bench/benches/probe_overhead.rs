//! The zero-cost proof for the observability layer.
//!
//! Without `--features probe`, every probe macro must const-fold away:
//! the counters stay at zero even across a full convolution, and a tight
//! loop of `probe_count!` / `probe_phase!` / `probe_span!` /
//! `probe_hist!` calls costs nanoseconds in total — no clock reads, no
//! atomics, no histogram buckets touched. Run with `--guard`
//! (the CI no-probe job does) to turn those statements into hard
//! assertions; the process aborts if instrumentation leaked into the
//! disabled build.
//!
//! With `--features probe`, `--guard` instead asserts the probes are
//! *live* (a conv moves the counters), and the bench labels report what
//! enabling costs on one ResNet layer.

use ndirect_bench::harness::{Criterion, Throughput};
use ndirect_bench::{bench_group, bench_main};
use ndirect_core::{try_conv_ndirect_with, Schedule};
use ndirect_probe::metrics::LogHistogram;
use ndirect_probe::{probe_count, probe_hist, probe_phase, probe_span, Counter};
use ndirect_tensor::{ActLayout, FilterLayout};
use ndirect_threads::StaticPool;
use ndirect_workloads::{make_problem, table4};
use std::hint::black_box;
use std::time::Instant;

/// Iterations for the macro-cost loops: enough that even ~1 ns/call of
/// residual instrumentation would be unmistakable.
const CALLS: u64 = 100_000_000;

/// Generous per-call budget for the disabled build, in nanoseconds. A
/// compiled-out probe site is an empty loop iteration (well under 1 ns
/// even on a busy CI runner); real instrumentation (a clock read plus an
/// atomic RMW) costs tens of nanoseconds and blows well past this.
const DISABLED_NS_PER_CALL: f64 = 2.0;

fn timed_loop(mut body: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..CALLS {
        body(black_box(i));
    }
    start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

/// Gated histogram target for the `probe_hist!` cost loop; `const`
/// construction is exactly how a kernel-side distribution would live.
static HIST: LogHistogram = LogHistogram::new();

fn macro_costs() -> [(&'static str, f64); 4] {
    [
        ("probe_count", timed_loop(|i| probe_count!(FlopsIssued, i))),
        (
            "probe_phase",
            timed_loop(|_| {
                let _t = probe_phase!(Pack);
            }),
        ),
        (
            "probe_span",
            timed_loop(|i| {
                let _s = probe_span!(Worker, i);
            }),
        ),
        ("probe_hist", timed_loop(|i| probe_hist!(HIST, i))),
    ]
}

fn bench_probe_overhead(c: &mut Criterion) {
    let guard = std::env::args().any(|a| a == "--guard");
    let pool = StaticPool::new(1);
    let platform = ndirect_platform::host();

    // Layer 10: C128 K128 28x28 3x3 — a mid-network ResNet-50 conv.
    let layer = table4::layer_by_id(10).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 10);
    let sched = Schedule::derive(&platform, &shape, 1);

    // The instrumented hot path end to end: one full conv.
    let flops_before = ndirect_probe::counter(Counter::FlopsIssued);
    try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched).expect("valid problem");
    let flops_delta = ndirect_probe::counter(Counter::FlopsIssued) - flops_before;

    let costs = macro_costs();
    for (name, ns) in costs {
        eprintln!(
            "{name:<12} {ns:.3} ns/call (enabled={})",
            ndirect_probe::ENABLED
        );
    }

    if guard {
        if ndirect_probe::ENABLED {
            assert_eq!(
                flops_delta,
                shape.flops(),
                "live probes must account the conv's FLOPs exactly"
            );
            assert_eq!(
                HIST.count(),
                CALLS,
                "a live probe_hist! site must record every sample"
            );
            eprintln!("guard OK: probes are live and account correctly");
        } else {
            assert_eq!(
                ndirect_probe::counter(Counter::FlopsIssued),
                0,
                "a disabled probe build must never touch a counter"
            );
            assert_eq!(flops_delta, 0, "conv moved a counter in a disabled build");
            assert_eq!(
                HIST.count(),
                0,
                "probe_hist! recorded into a histogram in a disabled build"
            );
            for (name, ns) in costs {
                assert!(
                    ns < DISABLED_NS_PER_CALL,
                    "{name} costs {ns:.3} ns/call with the probe disabled \
                     (budget {DISABLED_NS_PER_CALL} ns): instrumentation leaked into the hot path"
                );
            }
            eprintln!("guard OK: disabled probes compile to nothing");
        }
    }

    // The same conv timed as a bench label, so enabled-vs-disabled runs
    // can be compared against each other.
    let mut group = c.benchmark_group("probe_overhead");
    group.sample_size(if guard { 1 } else { 20 });
    group.throughput(Throughput::Elements(shape.flops()));
    let label = if ndirect_probe::ENABLED {
        "conv_probe_enabled"
    } else {
        "conv_probe_disabled"
    };
    group.bench_function(label, |b| {
        b.iter(|| {
            try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem")
        });
    });
    group.finish();
}

bench_group!(benches, bench_probe_overhead);
bench_main!(benches);
