//! Autotune a convolution schedule and compare it with the analytic
//! model's choice — a single-layer slice of the paper's Figure 6.
//!
//! ```sh
//! cargo run --release -p ndirect-integration --example autotune_conv -- [layer_id] [trials]
//! ```

use ndirect_autotune::{tune, TuneSettings};
use ndirect_core::{try_conv_ndirect_with, Schedule};
use ndirect_tensor::{ActLayout, FilterLayout};
use ndirect_threads::StaticPool;
use ndirect_workloads::{make_problem, table4};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let layer_id: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(10);
    let trials: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);

    let layer = table4::layer_by_id(layer_id).expect("layer id 1..=28");
    let shape = layer.shape(1);
    println!("tuning layer {layer_id}: {shape} ({trials} measured trials)");

    let pool = StaticPool::with_hardware_threads();
    let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 3);

    let settings = TuneSettings {
        trials,
        ..TuneSettings::default()
    };
    let report = tune(&pool, &shape, &p.input, &p.filter, &settings).expect("valid problem");
    println!("convergence:");
    for (t, g) in &report.history {
        println!("  after {t:>4} trials: best {g:>8.2} GFLOPS");
    }
    println!(
        "tuned:  Vw={} Vk={} Tc={} Tk={} Th={} packing={:?}  ->  {:.2} GFLOPS",
        report.best.vw,
        report.best.vk,
        report.best.tc,
        report.best.tk,
        report.best.th,
        report.best.packing,
        report.best_gflops
    );

    let sched = Schedule::derive(&ndirect_platform::host(), &shape, pool.size());
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let out = try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
            .expect("valid problem");
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    println!(
        "model:  Vw={} Vk={} Tc={} Tk={} Th={} (no search)     ->  {:.2} GFLOPS",
        sched.vw,
        sched.vk,
        sched.tc,
        sched.tk,
        sched.th,
        shape.gflops(best)
    );
}
