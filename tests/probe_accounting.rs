//! Differential accounting tests for the observability layer: the probe's
//! counters must agree with the closed-form FLOP count, the schedule's
//! analytic packing prediction, and the plan layer's pooling contract —
//! on real Table 4 layers, across thread grids.
//!
//! The probe's counters are process-global, so every test here serializes
//! on one lock and asserts on [`TraceReport::since`] snapshot deltas —
//! never on `probe::reset()`, which would race any concurrent reader in
//! the process. Without `--features probe` the counters are compile-time
//! zeros; each test then only exercises that the API is inert.

use std::sync::{Mutex, MutexGuard};

use ndirect_core::{
    try_conv3d_ndirect, Conv3dShape, ConvPlan, DepthwisePlan, FusedDwPwPlan, Schedule,
};
use ndirect_probe::{Counter, Phase, TraceReport};
use ndirect_tensor::{fill, ActLayout, Filter, Filter5, FilterLayout, Tensor4, Tensor5};
use ndirect_threads::{Grid2, StaticPool};
use ndirect_workloads::{make_problem, table4, MOBILENET};

/// Serializes counter-sensitive tests within this binary (other test
/// binaries are separate processes, so their counters are independent).
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The accounting layer set: a mid-network 3×3, a late 3×3, and the
/// smallest-spatial ResNet-50 row — three Table 4 layers as required by
/// the acceptance criteria, kept cheap enough for the test profile.
const LAYERS: [usize; 3] = [10, 16, 21];

fn deltas(counters: &[Counter], f: impl FnOnce()) -> Vec<u64> {
    let before = TraceReport::capture();
    f();
    let delta = TraceReport::capture().since(&before);
    counters.iter().map(|&c| delta.counter(c)).collect()
}

fn run_layer_nchw(layer_id: usize, threads: usize, grid: Option<Grid2>) -> Tensor4 {
    let layer = table4::layer_by_id(layer_id).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, layer_id as u64);
    let pool = StaticPool::new(threads);
    let platform = ndirect_platform::host();
    let mut sched = Schedule::derive(&platform, &shape, threads);
    if let Some(g) = grid {
        sched = sched.with_grid(g);
    }
    let plan = ConvPlan::try_with_schedule(&shape, &p.filter, &sched).expect("valid layer");
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
    plan.execute(&pool, &p.input, &mut out).expect("valid layer");
    out
}

#[test]
fn flop_counter_matches_closed_form_on_table4_layers() {
    let _g = lock();
    for &id in &LAYERS {
        let shape = table4::layer_by_id(id).unwrap().shape(1);
        for threads in [1, 4] {
            let d = deltas(&[Counter::FlopsIssued], || {
                run_layer_nchw(id, threads, None);
            });
            if ndirect_probe::ENABLED {
                assert_eq!(
                    d[0],
                    shape.flops(),
                    "layer {id} × {threads} threads: flops_issued must equal 2·N·K·C·R·S·Ho·Wo"
                );
            } else {
                assert_eq!(d[0], 0, "disabled probe must not count");
            }
        }
    }
}

#[test]
fn packed_bytes_match_schedule_prediction() {
    let _g = lock();
    let platform = ndirect_platform::host();
    for &id in &LAYERS {
        let shape = table4::layer_by_id(id).unwrap().shape(1);
        for threads in [1, 4] {
            let sched = Schedule::derive(&platform, &shape, threads).sanitized(&shape);
            let d = deltas(&[Counter::BytesPacked], || {
                run_layer_nchw(id, threads, None);
            });
            if ndirect_probe::ENABLED {
                assert_eq!(
                    d[0] as u128,
                    sched.predicted_pack_bytes(&shape),
                    "layer {id} × {threads} threads: bytes_packed must match the cache model"
                );
            } else {
                assert_eq!(d[0], 0);
            }
        }
    }
}

#[test]
fn nhwc_driver_accounts_like_the_cache_model_too() {
    let _g = lock();
    let layer = table4::layer_by_id(10).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nhwc, FilterLayout::Krsc, 10);
    let pool = StaticPool::new(2);
    let platform = ndirect_platform::host();
    let plan = ConvPlan::try_new(&platform, &shape, &p.filter, 2).expect("valid layer");
    let mut out = Tensor4::output_for(&shape, ActLayout::Nhwc);
    let d = deltas(&[Counter::FlopsIssued, Counter::BytesPacked], || {
        plan.execute(&pool, &p.input, &mut out).expect("valid layer");
    });
    if ndirect_probe::ENABLED {
        assert_eq!(d[0], shape.flops(), "NHWC flops accounting");
        assert_eq!(
            d[1] as u128,
            plan.schedule().predicted_pack_bytes(&shape),
            "NHWC packing accounting"
        );
    } else {
        assert_eq!(d, vec![0, 0]);
    }
}

#[test]
fn conv3d_counts_its_flops_and_runs_its_declared_tile() {
    // OD = P = 1 is one row tile, so each filter block is transformed once,
    // and K = 3 is one K tile of one Vk group: the strip packs pin the Vw
    // and the transform the Vk the 3-D plan runs, which must be
    // `Conv3dShape::register_tile` (the tile `tests/kernel_table.rs` holds
    // to the declared table). Q = 48 strips differ in count for every Vw.
    let _g = lock();
    let shape = Conv3dShape {
        n: 1, c: 2, d: 2, h: 3, w: 48, k: 3, t: 2, r: 3, s: 3,
        stride: 1, pad_d: 0, pad_h: 0, pad_w: 1,
    };
    let mut input = Tensor5::zeros(shape.n, shape.c, shape.d, shape.h, shape.w);
    fill::fill_random(input.as_mut_slice(), 61);
    let mut filter = Filter5::zeros(shape.k, shape.c, shape.t, shape.r, shape.s);
    fill::fill_random(filter.as_mut_slice(), 62);
    let pool = StaticPool::new(1);
    let watched = [Counter::FlopsIssued, Counter::BytesPacked, Counter::BytesTransformed];
    let d = deltas(&watched, || {
        try_conv3d_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
    });
    if !ndirect_probe::ENABLED {
        assert_eq!(d, vec![0; 3], "disabled probe must not count");
        return;
    }
    assert_eq!(d[0], shape.flops(), "flops_issued must equal 2·N·K·OD·P·Q·C·T·R·S");
    let (vw, vk) = shape.register_tile(&ndirect_platform::host());
    let q = shape.q();
    let win = |wv: usize| (vw.min(q - wv) - 1) * shape.stride + shape.s;
    let win_sum: usize = (0..q).step_by(vw).map(win).sum();
    let rows = shape.c * shape.t * shape.r;
    assert_eq!(d[1], (rows * win_sum * 4) as u64, "every strip packed once at Vw = {vw}");
    assert_eq!(d[2], (rows * shape.s * vk * 4) as u64, "one transform at Vk = {vk}");
}

#[test]
fn scratch_pool_hit_rate_is_total_after_warmup() {
    let _g = lock();
    let layer = table4::layer_by_id(21).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 21);
    let pool = StaticPool::new(1);
    let platform = ndirect_platform::host();
    // The plan build provisions the first scratch set, so even the first
    // execute is a pool hit: warm-up cost lives entirely in the build.
    let plan = ConvPlan::try_new(&platform, &shape, &p.filter, 1).expect("valid layer");
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
    const RUNS: u64 = 6;
    let d = deltas(&[Counter::ScratchPoolHits, Counter::ScratchPoolMisses], || {
        for _ in 0..RUNS {
            plan.execute(&pool, &p.input, &mut out).expect("valid layer");
        }
    });
    if ndirect_probe::ENABLED {
        assert_eq!(d[0], RUNS, "every post-build execute must lease from the pool");
        assert_eq!(d[1], 0, "a warm plan must never allocate scratch");
    } else {
        assert_eq!(d, vec![0, 0]);
    }
}

#[test]
fn counters_and_results_are_identical_across_1_and_4_threads() {
    let _g = lock();
    let watched = [Counter::FlopsIssued, Counter::BytesPacked];
    for &id in &LAYERS {
        // Row-only grids: splitting the flat N·P row space changes nothing
        // about how many (row, Tc, Tk, strip) packs happen in total, and
        // FLOPs are grid-invariant outright — so every counter must agree
        // bit for bit with the single-thread run, as must the output.
        let mut outs = Vec::new();
        let mut counts = Vec::new();
        for (threads, grid) in [(1, Grid2::new(1, 1)), (4, Grid2::new(4, 1))] {
            let mut out = None;
            let d = deltas(&watched, || {
                out = Some(run_layer_nchw(id, threads, Some(grid)));
            });
            outs.push(out.unwrap());
            counts.push(d);
        }
        assert_eq!(
            counts[0], counts[1],
            "layer {id}: counters must be thread-grid invariant on row-only grids"
        );
        assert_eq!(
            outs[0].as_slice(),
            outs[1].as_slice(),
            "layer {id}: results must be bitwise identical across grids"
        );
    }
}

#[test]
fn balanced_split_shows_every_worker_busy() {
    let _g = lock();
    if !ndirect_probe::ENABLED {
        return;
    }
    let layer = table4::layer_by_id(10).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 10);
    let pool = StaticPool::new(4);
    let platform = ndirect_platform::host();
    let sched = Schedule::derive(&platform, &shape, 4).with_grid(Grid2::new(4, 1));
    let plan = ConvPlan::try_with_schedule(&shape, &p.filter, &sched).expect("valid layer");
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);

    let before = TraceReport::capture();
    plan.execute(&pool, &p.input, &mut out).expect("valid layer");
    let report = TraceReport::capture().since(&before);

    // Jobs are pulled from a shared board, so which OS thread runs which
    // grid slot is scheduler-dependent (on a single-CPU host one worker
    // can drain several slots). The *balanced-split* property is about
    // the grid: every one of the 4 slots must have recorded a busy
    // Worker span (arg = grid thread id).
    let mut slots: Vec<u32> = report
        .threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.phase == Phase::Worker)
        .map(|e| e.arg)
        .collect();
    slots.sort_unstable();
    slots.dedup();
    assert_eq!(
        slots,
        [0, 1, 2, 3],
        "a 4×1 grid over 28 rows must run every grid slot"
    );
    // And every thread that ran a slot actually did micro-kernel work.
    for t in report
        .threads
        .iter()
        .filter(|t| t.phase_ns[Phase::Worker as usize] > 0)
    {
        assert!(
            t.phase_calls[Phase::MicroKernel as usize] > 0,
            "thread {} ran a worker slot without touching the micro-kernel",
            t.name
        );
    }
    // The dispatching caller also recorded the region span and its
    // barrier wait.
    assert!(
        report
            .threads
            .iter()
            .any(|t| t.phase_calls[Phase::Region as usize] > 0
                && t.phase_calls[Phase::Barrier as usize] > 0),
        "the caller must record the region and its barrier"
    );
    assert_eq!(report.counter(Counter::Regions), 1);
}

/// The FLOP identity over the separable layers: on every MobileNetV1
/// block, at 1 and 2 threads, a depthwise plan books `2·N·C·P·Q·R·S` (no
/// reduction over `C`, which `ConvShape::flops` would count) and the dw+pw
/// block books that plus its pointwise stage's `ConvShape::flops`, the
/// workload's `pair_flops`.
#[test]
fn depthwise_and_dwpw_flops_match_closed_form_on_mobilenet_blocks() {
    let _g = lock();
    let platform = ndirect_platform::host();
    for cfg in &MOBILENET {
        let (dw_shape, pw_shape) = (cfg.dw_shape(1), cfg.pw_shape(1));
        let seed = cfg.id as u64;
        let input = fill::random_tensor(Tensor4::input_for(&dw_shape, ActLayout::Nchw), seed);
        let dwf = fill::random_filter(Filter::zeros(cfg.c, 1, 3, 3, FilterLayout::Kcrs), seed);
        let pwf = fill::random_filter(Filter::zeros(cfg.k, cfg.c, 1, 1, FilterLayout::Kcrs), seed);
        let s = &dw_shape;
        let dw_flops = 2 * (s.n * s.c * s.p() * s.q() * s.r * s.s) as u64;
        assert_eq!(dw_flops + pw_shape.flops(), cfg.pair_flops(1), "block {}", cfg.id);
        for threads in [1, 2] {
            let pool = StaticPool::new(threads);
            let what = format!("block {} on {threads} threads", cfg.id);
            let dw = DepthwisePlan::try_new(&dw_shape, &dwf, threads).expect("valid block");
            let block = FusedDwPwPlan::try_new(&platform, &dw_shape, &dwf, &pwf, threads)
                .expect("valid block");
            let mut mid = Tensor4::output_for(&dw_shape, ActLayout::Nchw);
            let mut out = Tensor4::output_for(&pw_shape, ActLayout::Nchw);
            let d = deltas(&[Counter::FlopsIssued], || {
                dw.execute(&pool, &input, &mut mid).expect("valid block");
            });
            let b = deltas(&[Counter::FlopsIssued], || {
                block.execute(&pool, &input, &mut out).expect("valid block");
            });
            if ndirect_probe::ENABLED {
                assert_eq!(d[0], dw_flops, "{what}: depthwise");
                assert_eq!(b[0], cfg.pair_flops(1), "{what}: dw+pw");
            } else {
                assert_eq!((d[0], b[0]), (0, 0), "disabled probe must not count");
            }
        }
    }
}

#[test]
fn model_backend_plan_cache_hits_after_first_call() {
    let _g = lock();
    let shape = table4::layer_by_id(21).unwrap().shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 5);
    let pool = StaticPool::new(1);
    let backend = ndirect_models::NDirectBackend::host();
    let watched = [Counter::PlanCacheMisses, Counter::PlanCacheHits];
    let first = deltas(&watched, || {
        ndirect_baselines::run_backend(&backend, &pool, &p.input, &p.filter, &shape);
    });
    let second = deltas(&watched, || {
        ndirect_baselines::run_backend(&backend, &pool, &p.input, &p.filter, &shape);
    });
    if ndirect_probe::ENABLED {
        assert_eq!(first, vec![1, 0], "first call builds the plan");
        assert_eq!(second, vec![0, 1], "second call reuses it");
    } else {
        assert_eq!(first, vec![0, 0]);
        assert_eq!(second, vec![0, 0]);
    }
}

#[test]
fn trace_report_serializes_and_renders() {
    let _g = lock();
    run_layer_nchw(21, 1, None);
    let report = TraceReport::capture();
    let json = report.to_json();
    assert_eq!(json.get("enabled").and_then(|j| j.as_bool()), Some(ndirect_probe::ENABLED));
    let text = report.render_timeline(80);
    assert!(text.contains("counters"));
    if ndirect_probe::ENABLED {
        assert!(
            json.get("threads").and_then(|t| t.as_arr()).map(|a| a.len()) >= Some(1),
            "an instrumented run must record at least one thread"
        );
        // The JSON round-trips through the in-tree parser.
        let parsed = ndirect_support::Json::parse(&json.pretty()).expect("valid JSON");
        assert!(parsed.get("counters").is_some());
    }
}
