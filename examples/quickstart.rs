//! Quickstart: run one nDirect convolution and verify it against the
//! naive oracle.
//!
//! ```sh
//! cargo run --release -p ndirect-integration --example quickstart
//! ```

use ndirect_core::{try_conv_ndirect, Schedule};
use ndirect_tensor::{fill, max_rel_diff, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;

fn main() {
    // A ResNet-50 layer (Table 4 id 10): C=128, K=128, 28x28, 3x3, stride 1.
    let shape = ConvShape::square(1, 128, 128, 28, 3, 1);
    println!("convolution: {shape}");
    println!("FLOPs: {:.2} G", shape.flops() as f64 / 1e9);

    // Mainstream layouts in, mainstream layouts out — no format conversion.
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 1);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 1);

    // One thread team for the process; nDirect derives its schedule from
    // the host's cache sizes and register file.
    let pool = StaticPool::with_hardware_threads();
    let schedule = Schedule::derive(&ndirect_platform::host(), &shape, pool.size());
    println!(
        "derived schedule: Vw={} Vk={} Tc={} Tk={} Th={} grid={}x{}",
        schedule.vw,
        schedule.vk,
        schedule.tc,
        schedule.tk,
        schedule.th,
        schedule.grid.ptn(),
        schedule.grid.ptk()
    );

    let start = std::time::Instant::now();
    let output = try_conv_ndirect(&pool, &input, &filter, &shape).expect("valid problem");
    let secs = start.elapsed().as_secs_f64();
    println!(
        "nDirect: {:.2} ms = {:.2} GFLOPS",
        secs * 1e3,
        shape.gflops(secs)
    );

    // Check against the seven-loop oracle.
    let reference = ndirect_baselines::naive::conv_ref(&input, &filter, &shape);
    let err = max_rel_diff(output.as_slice(), reference.as_slice());
    println!("max relative error vs naive oracle: {err:.2e}");
    assert!(err < 2e-4);
    println!("OK");
}
