//! Layer benchmark: compare every convolution method on a chosen Table 4
//! layer, the single-layer slice of the paper's Figure 4.
//!
//! ```sh
//! cargo run --release -p ndirect-integration --example layer_benchmark -- [layer_id] [batch]
//! ```

use ndirect_baselines::{blocked, im2col, indirect};
use ndirect_core::{try_conv_ndirect_with, Schedule};
use ndirect_tensor::{ActLayout, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;
use ndirect_workloads::{make_problem, table4};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let layer_id: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(10);
    let batch: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);

    let layer = table4::layer_by_id(layer_id).unwrap_or_else(|| {
        eprintln!("layer id must be 1..=28");
        std::process::exit(1);
    });
    let shape = layer.shape(batch);
    println!("Table 4 layer {layer_id}: {shape}");

    let pool = StaticPool::with_hardware_threads();
    let platform = ndirect_platform::host();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 7);

    let bench = |name: &str, mut f: Box<dyn FnMut() -> Tensor4 + '_>| {
        let mut best = f64::MAX;
        std::hint::black_box(f()); // warm-up
        for _ in 0..3 {
            let t = Instant::now();
            let out = f();
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        println!(
            "{name:<14} {:>8.2} ms  {:>8.2} GFLOPS",
            best * 1e3,
            shape.gflops(best)
        );
    };

    let sched = Schedule::derive(&platform, &shape, pool.size());
    bench(
        "NDIRECT",
        Box::new(|| try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
            .expect("valid problem")),
    );
    bench(
        "im2col+GEMM",
        Box::new(|| im2col::conv_im2col(&pool, &p.input, &p.filter, &shape)),
    );
    let ops = blocked::prepare_blocked(&p.input, &p.filter, &shape);
    bench(
        "LIBXSMM-like",
        Box::new(|| {
            blocked::conv_blocked(&pool, &ops.input, &ops.filter, &shape)
                .to_tensor(ActLayout::Nchw)
        }),
    );
    let in_nhwc = p.input.to_layout(ActLayout::Nhwc);
    let f_krsc = p.filter.to_layout(FilterLayout::Krsc);
    bench(
        "XNNPACK-like",
        Box::new(|| indirect::conv_indirect(&pool, &in_nhwc, &f_krsc, &shape)),
    );
}
