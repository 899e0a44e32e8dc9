//! Determinism across parallel configurations.
//!
//! nDirect never parallelizes a reduction dimension, so the floating-point
//! reduction order of every output element is independent of the thread
//! grid — results must be *bitwise* identical across grids. The same holds
//! for the baselines' batch/row/channel-block decompositions.

use std::sync::{Mutex, MutexGuard};

use ndirect_baselines::{blocked, im2col, indirect};
use ndirect_core::{try_conv_ndirect_with, Schedule};
use ndirect_tensor::{ActLayout, ConvShape, FilterLayout};
use ndirect_threads::{Grid2, StaticPool};
use ndirect_workloads::make_problem;

fn shape() -> ConvShape {
    ConvShape::square(4, 24, 32, 12, 3, 1)
}

/// The probe's counters are process-global, so the probe-state test below
/// can only assert exact deltas while no other convolution runs in this
/// binary: every conv-running test shares this lock.
static PROBE_LOCK: Mutex<()> = Mutex::new(());

fn probe_lock() -> MutexGuard<'static, ()> {
    PROBE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The invariance contract extended to observability: not just the
/// *results* but the *accounting* must be independent of the thread grid —
/// FLOPs always, packed bytes on row-only grids (splitting K at `Vk`
/// granularity can change the number of `Tk` tiles, which is a real
/// packing-volume difference, not an accounting bug).
#[test]
fn probe_state_invariant_across_row_grids() {
    let _g = probe_lock();
    let shape = shape();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 48);
    let watched = [
        ndirect_probe::Counter::FlopsIssued,
        ndirect_probe::Counter::BytesPacked,
    ];
    let mut seen = Vec::new();
    for (ptn, threads) in [(1, 1), (2, 2), (4, 4)] {
        let pool = StaticPool::new(threads);
        let sched = Schedule::minimal(&shape).with_grid(Grid2::new(ptn, 1));
        let before: Vec<u64> = watched.iter().map(|&c| ndirect_probe::counter(c)).collect();
        let out = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
            .expect("valid problem");
        let delta: Vec<u64> = watched
            .iter()
            .zip(&before)
            .map(|(&c, b)| ndirect_probe::counter(c) - b)
            .collect();
        seen.push((delta, out));
    }
    for (delta, out) in &seen[1..] {
        assert_eq!(delta, &seen[0].0, "probe counters diverged across grids");
        assert_eq!(out.as_slice(), seen[0].1.as_slice(), "results diverged");
    }
    if ndirect_probe::ENABLED {
        assert_eq!(seen[0].0[0], shape.flops(), "flops delta is the closed form");
    } else {
        assert_eq!(seen[0].0, vec![0, 0], "disabled probe must stay silent");
    }
}

#[test]
fn ndirect_bitwise_identical_across_grids() {
    let _g = probe_lock();
    let shape = shape();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 42);
    let reference = {
        let pool = StaticPool::new(1);
        let sched = Schedule::minimal(&shape);
        try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched).expect("valid problem")
    };
    for (ptn, ptk) in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 2), (3, 1), (1, 8)] {
        let pool = StaticPool::new(ptn * ptk);
        let sched = Schedule::minimal(&shape).with_grid(Grid2::new(ptn, ptk));
        let got = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
            .expect("valid problem");
        assert_eq!(
            got.as_slice(),
            reference.as_slice(),
            "grid {ptn}x{ptk} diverged bitwise"
        );
    }
}

#[test]
fn ndirect_bitwise_identical_across_repeat_runs() {
    let _g = probe_lock();
    let shape = shape();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 43);
    let pool = StaticPool::new(4);
    let sched = Schedule::minimal(&shape).with_grid(Grid2::new(2, 2));
    let a = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
        .expect("valid problem");
    for _ in 0..5 {
        let b = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
            .expect("valid problem");
        assert_eq!(a.as_slice(), b.as_slice(), "repeat run diverged");
    }
}

#[test]
fn im2col_bitwise_identical_across_thread_counts() {
    let _g = probe_lock();
    let shape = shape();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 44);
    let base = im2col::conv_im2col(&StaticPool::new(1), &p.input, &p.filter, &shape);
    for threads in [2, 3, 4, 8] {
        let got = im2col::conv_im2col(&StaticPool::new(threads), &p.input, &p.filter, &shape);
        assert_eq!(got.as_slice(), base.as_slice(), "{threads} threads");
    }
}

#[test]
fn blocked_bitwise_identical_across_thread_counts() {
    let _g = probe_lock();
    let shape = shape();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 45);
    let ops = blocked::prepare_blocked(&p.input, &p.filter, &shape);
    let base = blocked::conv_blocked(&StaticPool::new(1), &ops.input, &ops.filter, &shape);
    for threads in [2, 4, 7] {
        let got = blocked::conv_blocked(&StaticPool::new(threads), &ops.input, &ops.filter, &shape);
        assert_eq!(got.as_slice(), base.as_slice(), "{threads} threads");
    }
}

#[test]
fn indirect_bitwise_identical_across_thread_counts() {
    let _g = probe_lock();
    let shape = shape();
    let p = make_problem(shape, ActLayout::Nhwc, FilterLayout::Krsc, 46);
    let base = indirect::conv_indirect(&StaticPool::new(1), &p.input, &p.filter, &shape);
    for threads in [2, 4, 5] {
        let got = indirect::conv_indirect(&StaticPool::new(threads), &p.input, &p.filter, &shape);
        assert_eq!(got.as_slice(), base.as_slice(), "{threads} threads");
    }
}

#[test]
fn oversubscribed_pool_still_correct() {
    let _g = probe_lock();
    // Fig. 9's SMT setting oversubscribes threads well past the core count.
    let shape = ConvShape::square(2, 8, 16, 10, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 47);
    let seq = try_conv_ndirect_with(
        &StaticPool::new(1),
        &p.input,
        &p.filter,
        &shape,
        &Schedule::minimal(&shape),
    )
    .expect("valid problem");
    let pool = StaticPool::new(16);
    let sched = Schedule::minimal(&shape).with_grid(Grid2::new(4, 4));
    let got = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
        .expect("valid problem");
    assert_eq!(got.as_slice(), seq.as_slice());
}
