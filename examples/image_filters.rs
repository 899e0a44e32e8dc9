//! Classic image filtering through the convolution API: Sobel edge
//! detection and Gaussian blur on a synthetic image, run through nDirect
//! and rendered as ASCII art — the "convolution is a sliding dot product"
//! intuition of the paper's §1, end to end.
//!
//! ```sh
//! cargo run --release -p ndirect-integration --example image_filters
//! ```

use ndirect_core::try_conv_ndirect;
use ndirect_tensor::{ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::StaticPool;

const SIZE: usize = 48;

/// A synthetic image: a bright disc on a dark background with a diagonal
/// stripe, values in [0, 1].
fn synthetic_image() -> Tensor4 {
    let mut img = Tensor4::zeros(1, 1, SIZE, SIZE, ActLayout::Nchw);
    let c = SIZE as f32 / 2.0;
    for y in 0..SIZE {
        for x in 0..SIZE {
            let (dx, dy) = (x as f32 - c, y as f32 - c);
            let mut v = if (dx * dx + dy * dy).sqrt() < SIZE as f32 / 4.0 {
                1.0
            } else {
                0.1
            };
            if (x + SIZE - y) % SIZE < 3 {
                v = 0.9;
            }
            *img.at_mut(0, 0, y, x) = v;
        }
    }
    img
}

fn render(title: &str, t: &Tensor4, ch: usize) {
    println!("--- {title} ---");
    let (_, _, h, w) = t.dims();
    let (mut lo, mut hi) = (f32::MAX, f32::MIN);
    for y in 0..h {
        for x in 0..w {
            let v = t.at(0, ch, y, x);
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let ramp: &[u8] = b" .:-=+*#%@";
    for y in (0..h).step_by(2) {
        let mut line = String::new();
        for x in 0..w {
            let v = (t.at(0, ch, y, x) - lo) / (hi - lo).max(1e-6);
            let idx = ((v * (ramp.len() - 1) as f32).round() as usize).min(ramp.len() - 1);
            line.push(ramp[idx] as char);
        }
        println!("{line}");
    }
}

fn main() {
    let img = synthetic_image();
    render("input", &img, 0);
    let pool = StaticPool::new(1);

    // One conv with K=2 computes both Sobel gradients in a single pass.
    let shape = ConvShape::new(1, 1, SIZE, SIZE, 2, 3, 3, 1, Padding::same(1));
    let mut sobel = Filter::zeros(2, 1, 3, 3, FilterLayout::Kcrs);
    #[rustfmt::skip]
    let gx = [-1.0, 0.0, 1.0,
              -2.0, 0.0, 2.0,
              -1.0, 0.0, 1.0];
    #[rustfmt::skip]
    let gy = [-1.0, -2.0, -1.0,
               0.0,  0.0,  0.0,
               1.0,  2.0,  1.0];
    for (i, v) in gx.iter().enumerate() {
        sobel.as_mut_slice()[i] = *v;
    }
    for (i, v) in gy.iter().enumerate() {
        sobel.as_mut_slice()[9 + i] = *v;
    }
    let grads = try_conv_ndirect(&pool, &img, &sobel, &shape).expect("valid problem");

    // Gradient magnitude.
    let mut edges = Tensor4::zeros(1, 1, SIZE, SIZE, ActLayout::Nchw);
    for y in 0..SIZE {
        for x in 0..SIZE {
            let (gx, gy) = (grads.at(0, 0, y, x), grads.at(0, 1, y, x));
            *edges.at_mut(0, 0, y, x) = (gx * gx + gy * gy).sqrt();
        }
    }
    render("Sobel edge magnitude (nDirect)", &edges, 0);

    // 5x5 Gaussian blur.
    let shape = ConvShape::new(1, 1, SIZE, SIZE, 1, 5, 5, 1, Padding::same(2));
    let mut gauss = Filter::zeros(1, 1, 5, 5, FilterLayout::Kcrs);
    let kernel1d = [1.0f32, 4.0, 6.0, 4.0, 1.0];
    let norm: f32 = 256.0;
    for r in 0..5 {
        for s in 0..5 {
            *gauss.at_mut(0, 0, r, s) = kernel1d[r] * kernel1d[s] / norm;
        }
    }
    let blurred = try_conv_ndirect(&pool, &img, &gauss, &shape).expect("valid problem");
    render("Gaussian blur (nDirect)", &blurred, 0);

    // Cross-check one filter against the oracle.
    let reference = ndirect_baselines::naive::conv_ref(&img, &gauss, &shape);
    let err = ndirect_tensor::max_rel_diff(blurred.as_slice(), reference.as_slice());
    println!("\nmax relative error vs oracle: {err:.2e}");
}
