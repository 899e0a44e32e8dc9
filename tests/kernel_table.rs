//! The model ↔ kernel-table tie: every register tile the derivations pick
//! lands on a tile the kernel table of the arch that runs it declares, so
//! no derived schedule falls silently to the dynamic kernel.
//!
//! The host model is held to this build's table ([`TILES`]); the NEON
//! presets are held to the AArch64 table as data, on any host.

use ndirect_core::kernel::{Body, Tile, AARCH64_TILES, TILES};
use ndirect_core::{Conv3dShape, Schedule};
use ndirect_models::zoo;
use ndirect_platform::presets::paper_platforms;
use ndirect_platform::{host, Platform, SimdSpec};
use ndirect_tensor::ConvShape;
use ndirect_workloads::{mobilenet_pairs, TABLE4};

const BATCHES: [usize; 4] = [1, 2, 4, 8];

/// The host against this build's table, then every NEON preset against
/// the AArch64 table.
fn platforms() -> Vec<(Platform, &'static [Tile])> {
    let presets = paper_platforms();
    assert!(presets.iter().all(|p| p.simd == SimdSpec::NEON));
    std::iter::once((host(), TILES))
        .chain(presets.into_iter().map(|p| (p, AARCH64_TILES)))
        .collect()
}

/// Every standard convolution: Table 4 and the zoo at each batch size, and
/// the MobileNet pairs' pointwise stages.
fn conv_shapes() -> Vec<(String, ConvShape)> {
    let mut shapes = Vec::new();
    for n in BATCHES {
        for layer in &TABLE4 {
            shapes.push((format!("Table 4 #{} N={n}", layer.id), layer.shape(n)));
        }
        for pair in mobilenet_pairs() {
            shapes.push((format!("MobileNet pw #{} N={n}", pair.id), pair.pw_shape(n)));
        }
    }
    let zoo = [
        zoo::resnet50,
        zoo::resnet101,
        zoo::vgg16,
        zoo::vgg19,
        zoo::mobilenet_lite,
        zoo::tiny_resnet,
    ];
    for build in zoo {
        let model = build(0);
        for n in BATCHES {
            for (i, shape) in model.conv_shapes(n).into_iter().enumerate() {
                shapes.push((format!("{} conv {i} N={n}", model.name), shape));
            }
        }
    }
    shapes
}

/// Records a miss when `(vw, vk)` for `body` is not on `table`.
fn check(
    misses: &mut Vec<String>,
    table: &[Tile],
    who: &str,
    what: &str,
    vw: usize,
    vk: usize,
    body: Body,
) {
    if !table.contains(&Tile { vw, vk, body }) {
        misses.push(format!(
            "{who}: {what} derives {body:?} ({vw}, {vk}), not a declared tile"
        ));
    }
}

fn assert_no_misses(misses: Vec<String>) {
    assert!(
        misses.is_empty(),
        "{} derived tiles off the table:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

#[test]
fn derived_conv_schedules_land_on_declared_tiles() {
    let shapes = conv_shapes();
    let mut misses = Vec::new();
    for (platform, table) in platforms() {
        for (what, shape) in &shapes {
            let s = Schedule::derive(&platform, shape, 1).sanitized(shape);
            let body = Body::of(shape.r, shape.s);
            check(
                &mut misses,
                table,
                &platform.name,
                &format!("{what} {shape:?}"),
                s.vw,
                s.vk,
                body,
            );
        }
    }
    assert_no_misses(misses);
}

#[test]
fn conv3d_tiles_land_on_declared_tiles() {
    // Table 4 lifted to volumes: a cubic kernel over an 8-deep input.
    let mut misses = Vec::new();
    for (platform, table) in platforms() {
        for layer in &TABLE4 {
            let pad = layer.rs / 2;
            let shape = Conv3dShape {
                n: 1,
                c: layer.c,
                d: 8,
                h: layer.hw,
                w: layer.hw,
                k: layer.k,
                t: layer.rs,
                r: layer.rs,
                s: layer.rs,
                stride: layer.stride,
                pad_d: pad,
                pad_h: pad,
                pad_w: pad,
            };
            let (vw, vk) = shape.register_tile(&platform);
            let body = Body::of(shape.t * shape.r, shape.s);
            let what = format!("conv3d from Table 4 #{} {shape:?}", layer.id);
            check(&mut misses, table, &platform.name, &what, vw, vk, body);
        }
    }
    assert_no_misses(misses);
}

#[test]
fn model_tiles_for_square_kernels_up_to_7x7_land_on_declared_tiles() {
    // Beyond the workloads: every `R = S` up to 7, as Eqs. 3–4 see them.
    let mut misses = Vec::new();
    for (platform, table) in platforms() {
        for s in 1..=7 {
            let (vw, vk) = ndirect_core::model::register_tile::optimal_tile(&platform.simd, s);
            let what = format!("{s}x{s}");
            check(&mut misses, table, &platform.name, &what, vw, vk, Body::of(s, s));
        }
    }
    assert_no_misses(misses);
}

#[test]
fn every_table_serves_both_bodies_with_multiple_of_four_depths() {
    for table in [TILES, AARCH64_TILES, ndirect_core::kernel::X86_64_TILES] {
        for body in [Body::General, Body::Pointwise] {
            assert!(
                table.iter().any(|t| t.body == body),
                "{table:?} has no {body:?} tile"
            );
        }
        assert!(
            table.iter().all(|t| t.vk % 4 == 0 && t.vw >= 1),
            "{table:?}"
        );
    }
}
