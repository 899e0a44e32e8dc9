//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * fused vs sequential packing (also Fig. 5; here on a ResNet layer);
//! * on-the-fly vs pre-transformed filters;
//! * model-derived thread grid vs the naive all-K grid (the ACL failure
//!   mode of §3.2) vs all-N;
//! * register-tile sensitivity around the model's optimum;
//! * the outer-product tile vs the inner-product kernel of §3.3
//!   ([`ndirect_bench::inner_product`]).

use ndirect_bench::harness::{BenchmarkId, Criterion, Throughput};
use ndirect_bench::inner_product::try_conv_inner_product;
use ndirect_bench::{bench_group, bench_main};
use ndirect_core::{try_conv_ndirect_with, FilterState, PackingMode, Schedule};
use ndirect_tensor::{ActLayout, FilterLayout};
use ndirect_threads::{Grid2, StaticPool};
use ndirect_workloads::{make_problem, table4};

fn bench_packing_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_packing_mode");
    group.sample_size(10);
    let pool = StaticPool::new(1);
    let layer = table4::layer_by_id(10).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 1);
    let base = Schedule::derive(&ndirect_platform::host(), &shape, 1);
    group.throughput(Throughput::Elements(shape.flops()));
    for (name, mode) in [
        ("fused", PackingMode::Fused),
        ("sequential", PackingMode::Sequential),
    ] {
        let sched = base.with_packing(mode);
        group.bench_function(name, |b| {
            b.iter(|| try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem"));
        });
    }
    group.finish();
}

fn bench_filter_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_filter_state");
    group.sample_size(10);
    let pool = StaticPool::new(1);
    // Layer 21 has a tiny spatial extent, so the filter transform is a
    // relatively large share of the work — the worst case for on-the-fly.
    let layer = table4::layer_by_id(21).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 2);
    let base = Schedule::derive(&ndirect_platform::host(), &shape, 1);
    group.throughput(Throughput::Elements(shape.flops()));
    for (name, state) in [
        ("on_the_fly", FilterState::OnTheFly),
        ("pre_transformed", FilterState::PreTransformed),
    ] {
        let sched = base.with_filter_state(state);
        group.bench_function(name, |b| {
            b.iter(|| try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem"));
        });
    }
    group.finish();
}

fn bench_thread_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_thread_grid");
    group.sample_size(10);
    let threads = 4;
    let pool = StaticPool::new(threads);
    let platform = ndirect_platform::host();
    let layer = table4::layer_by_id(3).unwrap();
    let shape = layer.shape(threads);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 3);
    let base = Schedule::derive(&platform, &shape, threads);
    group.throughput(Throughput::Elements(shape.flops()));

    let model_grid = ndirect_core::model::thread_map::derive(&platform, &shape, threads);
    for (name, grid) in [
        ("model", model_grid),
        ("naive_all_k", Grid2::new(1, threads)),
        ("all_n", Grid2::new(threads, 1)),
    ] {
        let sched = base.with_grid(grid);
        group.bench_with_input(BenchmarkId::new("grid", name), &name, |b, _| {
            b.iter(|| try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem"));
        });
    }
    group.finish();
}

fn bench_register_tiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_register_tile");
    group.sample_size(10);
    let pool = StaticPool::new(1);
    let layer = table4::layer_by_id(16).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 4);
    let base = Schedule::derive(&ndirect_platform::host(), &shape, 1);
    group.throughput(Throughput::Elements(shape.flops()));
    for (vw, vk) in [(4usize, 4usize), (4, 8), (8, 4), (8, 8), (12, 8)] {
        let mut sched = base.clone();
        sched.vw = vw;
        sched.vk = vk;
        group.bench_with_input(
            BenchmarkId::new("tile", format!("vw{vw}_vk{vk}")),
            &vw,
            |b, _| {
                b.iter(|| try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                    .expect("valid problem"));
            },
        );
    }
    group.finish();
}

fn bench_product_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_product_mode");
    group.sample_size(10);
    let pool = StaticPool::new(1);
    let layer = table4::layer_by_id(10).unwrap();
    let shape = layer.shape(1);
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 5);
    let sched = Schedule::derive(&ndirect_platform::host(), &shape, 1);
    group.throughput(Throughput::Elements(shape.flops()));
    group.bench_function("outer_product", |b| {
        b.iter(|| try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
            .expect("valid problem"));
    });
    group.bench_function("inner_product", |b| {
        b.iter(|| try_conv_inner_product(&pool, &p.input, &p.filter, &shape)
            .expect("valid problem"));
    });
    group.finish();
}

bench_group!(
    benches,
    bench_packing_mode,
    bench_filter_state,
    bench_thread_grid,
    bench_register_tiles,
    bench_product_mode
);
bench_main!(benches);
