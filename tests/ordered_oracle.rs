//! The order-matched oracle suite: every dense nDirect plan, bit for bit.
//!
//! An f32 plan's per-output sum is fixed by its schedule, not by its ISA:
//! lanes run over output channels, so each output sums its `(c, r, s)`
//! products in order within each `Tc` group, and the groups add into the
//! output in order. `baselines::naive::conv_ordered` computes exactly that
//! sum, rounding each multiply-add once when asked to. So every plan ×
//! supported kernel entry × packing mode × thread grid, on both activation
//! layouts, is held with `assert_eq!` to the oracle for the rounding its
//! entry uses for the shape's body ([`Kernel::fused`]), over a generated
//! shape and schedule space. The one-shot entry points run the best entry
//! and are held the same way.
//!
//! The oracle with one group and no fusing is `naive::conv_ref` itself
//! (checked in `ndirect-baselines`), so this suite ties every entry's
//! kernels to the naive seven-loop convolution without a tolerance.
//!
//! A failure prints the seed, shape and schedule; add the seed to
//! `REGRESSION_SEEDS`.

use ndirect_baselines::naive::conv_ordered;
use ndirect_core::kernel::Body;
use ndirect_core::{
    conv_ndirect_nhwc_with, conv_ndirect_with, ConvPlan, Kernel, PackingMode, Schedule,
};
use ndirect_support::Rng64;
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::{Grid2, StaticPool};

/// Seeds that run first: each pins a corner the generator reaches rarely.
const REGRESSION_SEEDS: [u64; 6] = [
    0xd1ff_105e, // 7x3 over H = 1, pad 3x0: six of seven kernel rows are pure padding
    0xd1ff_1004, // 1x1 stride 3 pad 3x2: whole strips lie outside the image
    0xd1ff_1236, // Vw = 13 (no monomorphized kernel), N = 2, Th = 1
    0xd1ff_1000, // C = 1, K = 1, 7x7 stride 3 over 3x7: every tile is a tail
    0xd1ff_100d, // 5x7 kernel wider and taller than the 1x3 input
    0xd1ff_104f, // Vw = 1, Th = 1, N = 2: the row grid splits mid-image
];
const GENERATED_CASES: u64 = 200;

/// Stride 1–3, pad 0–3, `R`/`S` ∈ {1, 3, 5, 7} independently, odd `H`/`W`.
fn dense_shape(rng: &mut Rng64) -> ConvShape {
    loop {
        let (r, s) = (*rng.choose(&[1, 3, 5, 7]), *rng.choose(&[1, 3, 5, 7]));
        let (h, w) = (2 * rng.gen_range_usize(0, 8) + 1, 2 * rng.gen_range_usize(0, 8) + 1);
        let pad = Padding { h: rng.gen_range_usize(0, 4), w: rng.gen_range_usize(0, 4) };
        if h + 2 * pad.h < r || w + 2 * pad.w < s {
            continue;
        }
        let n = rng.gen_range_usize(1, 3);
        let c = rng.gen_range_usize(1, 14);
        let k = rng.gen_range_usize(1, 22);
        return ConvShape::new(n, c, h, w, k, r, s, rng.gen_range_usize(1, 4), pad);
    }
}

/// Tiles drawn so that every tiled dimension usually ends in a tail, and
/// every declared `Vk` (4-lane and 8-lane alike) comes up.
fn dense_schedule(rng: &mut Rng64, shape: &ConvShape) -> Schedule {
    let mut s = Schedule::minimal(shape);
    s.vw = rng.gen_range_usize(1, 14);
    s.vk = *rng.choose(&[4, 8, 12, 16]);
    s.tc = rng.gen_range_usize(1, shape.c + 1);
    s.tk = s.vk * rng.gen_range_usize(1, 3);
    s.th = rng.gen_range_usize(1, shape.p() + 1);
    s
}

fn dense_case(seed: u64, pool: &StaticPool) {
    let mut rng = Rng64::seed_from_u64(seed);
    let shape = dense_shape(&mut rng);
    let base = dense_schedule(&mut rng, &shape);
    let what = format!("seed {seed:#x}: {shape} with {base:?}");
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), seed);
    let body = Body::of(shape.r, shape.s);
    let oracle =
        [false, true].map(|fused| conv_ordered(&input, &filter, &shape, base.tc, fused));
    let want = |kernel: Kernel| &oracle[usize::from(kernel.fused(body))];
    let grids = [(1, 1), *rng.choose(&[(2, 1), (1, 2), (2, 2)])];
    let sliced = PackingMode::Sliced { rows: rng.gen_range_usize(1, 4) };

    for mode in [PackingMode::Fused, PackingMode::Sequential, sliced] {
        for (ptn, ptk) in grids {
            let sched = base.with_packing(mode).with_grid(Grid2::new(ptn, ptk));
            let at = format!("{what}: {mode:?} on {ptn}x{ptk}");
            let oneshot = conv_ndirect_with(pool, &input, &filter, &shape, &sched);
            let best = Kernel::best();
            let expect = want(best).as_slice();
            assert_eq!(oneshot.as_slice(), expect, "{at}: one-shot on {}", best.name());
            for kernel in Kernel::supported() {
                let plan = ConvPlan::try_with_schedule(&shape, &filter, &sched)
                    .unwrap_or_else(|e| panic!("{at}: {e}"))
                    .with_kernel(kernel);
                let mut planned = Tensor4::output_for(&shape, ActLayout::Nchw);
                plan.execute(pool, &input, &mut planned).unwrap_or_else(|e| panic!("{at}: {e}"));
                let expect = want(kernel).as_slice();
                assert_eq!(planned.as_slice(), expect, "{at}: plan on {}", kernel.name());
            }
        }
    }

    // NHWC is a packing and addressing detail of the same loop nest: the
    // same sums, transposed.
    let (input, filter) = (input.to_layout(ActLayout::Nhwc), filter.to_layout(FilterLayout::Krsc));
    let nhwc = |kernel: Kernel| want(kernel).to_layout(ActLayout::Nhwc);
    for (ptn, ptk) in grids {
        let sched = base.with_grid(Grid2::new(ptn, ptk));
        let at = format!("{what}: NHWC on {ptn}x{ptk}");
        let oneshot = conv_ndirect_nhwc_with(pool, &input, &filter, &shape, &sched);
        assert_eq!(oneshot.as_slice(), nhwc(Kernel::best()).as_slice(), "{at}: one-shot");
        for kernel in Kernel::supported() {
            let plan = ConvPlan::try_with_schedule_nhwc(&shape, &filter, &sched)
                .unwrap_or_else(|e| panic!("{at}: {e}"))
                .with_kernel(kernel);
            let mut planned = Tensor4::output_for(&shape, ActLayout::Nhwc);
            plan.execute(pool, &input, &mut planned).unwrap_or_else(|e| panic!("{at}: {e}"));
            let expect = nhwc(kernel);
            assert_eq!(planned.as_slice(), expect.as_slice(), "{at}: plan on {}", kernel.name());
        }
    }
}

#[test]
fn generated_dense_plans_equal_the_ordered_oracle() {
    let kernels: Vec<_> = Kernel::supported().map(|k| k.name()).collect();
    println!("ordered oracle: plans run on kernel entries {kernels:?}");
    let pool = StaticPool::new(4);
    let generated = (0..GENERATED_CASES).map(|i| 0xd1ff_0000 + i);
    for seed in REGRESSION_SEEDS.into_iter().chain(generated) {
        dense_case(seed, &pool);
    }
}

#[test]
fn table_4_shapes_equal_the_ordered_oracle_on_derived_schedules() {
    // The schedules plans actually run: derived for the host, so the
    // stamped tiles of the best entry (a 3x3 at Vk = 16 under avx2+fma),
    // scaled-down Table-4 rows so the scalar oracle stays quick.
    let platform = ndirect_platform::host();
    let pool = StaticPool::new(2);
    for layer in &ndirect_workloads::TABLE4 {
        let full = layer.shape(1);
        let hw = full.h.min(9);
        let shape = ConvShape::new(
            1,
            full.c.min(24),
            hw,
            hw,
            full.k.min(40),
            full.r,
            full.s,
            full.stride,
            full.pad,
        );
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 7);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 8);
        let sched = Schedule::derive(&platform, &shape, 2);
        for kernel in Kernel::supported() {
            let plan = ConvPlan::try_with_schedule(&shape, &filter, &sched)
                .expect("valid layer")
                .with_kernel(kernel);
            let tc = plan.schedule().tc;
            let mut planned = Tensor4::output_for(&shape, ActLayout::Nchw);
            plan.execute(&pool, &input, &mut planned).expect("valid layer");
            let fused = kernel.fused(Body::of(shape.r, shape.s));
            let want = conv_ordered(&input, &filter, &shape, tc, fused);
            let what = format!("Table 4 #{} as {shape} with {sched:?} on {}", layer.id, kernel.name());
            assert_eq!(planned.as_slice(), want.as_slice(), "{what}");
        }
    }
}
