//! Autotuner integration: the searcher must explore, respect budgets, and
//! produce schedules that beat obviously bad ones.

use ndirect_autotune::{tune, TuneSettings};
use ndirect_core::{try_conv_ndirect_with, Schedule};
use ndirect_tensor::{ActLayout, ConvShape, FilterLayout};
use ndirect_threads::{Grid2, StaticPool};
use ndirect_workloads::make_problem;

#[test]
fn tuner_finds_schedule_no_worse_than_random_floor() {
    let shape = ConvShape::square(1, 16, 16, 14, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 1);
    let pool = StaticPool::new(1);
    let settings = TuneSettings {
        trials: 12,
        population: 6,
        pool: 16,
        measured_per_round: 3,
        reps: 2,
        seed: 1,
    };
    let report = tune(&pool, &shape, &p.input, &p.filter, &settings).expect("valid problem");
    // Budget respected and actually explored: the measured-trial count is
    // within the configured budget (plus the per-round overshoot) and more
    // than one candidate was tried.
    assert!(report.trials_used <= settings.trials + settings.measured_per_round);
    assert!(report.trials_used >= settings.population.min(settings.trials));
    assert!(report.history.len() >= 2, "no evolutionary rounds ran");
    // And the reported best is the max of the convergence curve.
    let final_best = report.history.last().unwrap().1;
    assert_eq!(report.best_gflops, final_best);
}

#[test]
fn tuned_schedule_executes_correctly_multithreaded() {
    let shape = ConvShape::square(2, 12, 16, 10, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 2);
    let pool = StaticPool::new(4);
    let report = tune(&pool, &shape, &p.input, &p.filter, &TuneSettings::smoke())
        .expect("valid problem");
    assert!(report.best.threads() <= 4);
    let got = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &report.best)
        .expect("valid problem");
    let expect = ndirect_baselines::naive::conv_ref(&p.input, &p.filter, &shape);
    ndirect_tensor::assert_close(got.as_slice(), expect.as_slice(), 2e-4, "tuned, 4 threads");
}

#[test]
fn model_derived_schedule_is_competitive_with_short_search() {
    // The paper's pitch: the analytic model needs no search. A short
    // search should not embarrass it by more than 2x on a 3x3 layer
    // (generous bound: CI machines are noisy).
    let shape = ConvShape::square(1, 32, 32, 28, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 3);
    let pool = StaticPool::new(1);

    let report = tune(
        &pool,
        &shape,
        &p.input,
        &p.filter,
        &TuneSettings {
            trials: 10,
            population: 6,
            pool: 12,
            measured_per_round: 2,
            reps: 2,
            seed: 5,
        },
    )
    .expect("valid problem");
    let sched = Schedule::derive(&ndirect_platform::host(), &shape, 1);
    let model_secs = ndirect_bench_floor(&pool, &p, &shape, &sched);
    let model_gflops = shape.gflops(model_secs);
    assert!(
        model_gflops * 2.0 > report.best_gflops,
        "model {model_gflops:.1} vs tuned {:.1}",
        report.best_gflops
    );
}

fn ndirect_bench_floor(
    pool: &StaticPool,
    p: &ndirect_workloads::Problem,
    shape: &ConvShape,
    sched: &Schedule,
) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let out = try_conv_ndirect_with(pool, &p.input, &p.filter, shape, sched)
            .expect("valid problem");
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

#[test]
fn all_k_grid_is_correct_but_never_model_chosen_for_k_starved_shapes() {
    // Sanity: an all-K grid (the ACL strawman) on a K-starved problem
    // leaves threads idle; the tuner (or the model) must do better or the
    // problem is degenerate. K = 4 with 4 threads means the all-K grid can
    // use at most ... one vk-block per thread; with vk >= 4 only one
    // K-chunk exists, so 3 of 4 threads idle.
    let shape = ConvShape::square(4, 8, 4, 16, 3, 1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 4);
    let pool = StaticPool::new(4);

    let bad = Schedule::minimal(&shape).with_grid(Grid2::new(1, 4));
    let good = Schedule::minimal(&shape).with_grid(Grid2::new(4, 1));
    // Both compute the right answer…
    let a = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &bad).expect("valid problem");
    let b = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &good)
        .expect("valid problem");
    assert_eq!(a.as_slice(), b.as_slice());
    // …and the model never *chooses* the bad grid here.
    let derived = ndirect_core::model::thread_map::derive(&ndirect_platform::host(), &shape, 4);
    assert!(derived.ptn() > 1, "model chose {derived:?} for a K-starved shape");
}
