//! Proof of the plan layer's core promise: once a [`ConvPlan`] is built
//! and warmed, `execute` never touches the global allocator — not on the
//! single-thread inline path, not on the threaded path (whose job
//! dispatch reuses the pool's latch and pre-sized queue), and not for a
//! warmed [`DepthwisePlan`] or [`FusedDwPwPlan`]. The same allocator holds
//! `ops::fully_connected` to staging nothing the size of its weights.
//!
//! This file is its own test binary with exactly one `#[test]` so the
//! counting allocator below sees no interference from parallel tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ndirect_core::{ConvPlan, DepthwisePlan, DwPwSchedule, FusedDwPwPlan};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Padding, Tensor4};
use ndirect_threads::StaticPool;

/// Forwards to [`System`], counting allocation events (alloc,
/// alloc_zeroed, realloc — frees are irrelevant to the claim) from any
/// thread while [`ARMED`].
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System`; the counters are atomics, so the
// allocator imposes no extra synchronization or aliasing requirements.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our own contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our own contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: all arguments forwarded unchanged from our own contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` forwarded unchanged from our own contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warmed_plan_execute_never_allocates() {
    let platform = ndirect_platform::host();
    let shape = ConvShape::square(2, 6, 16, 12, 3, 1);
    let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 4);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 3);
    let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);

    // Single-thread pool: execute runs the whole nest inline.
    let pool1 = StaticPool::new(1);
    let plan = ConvPlan::try_new(&platform, &shape, &filter, 1).unwrap();
    plan.execute(&pool1, &input, &mut out).unwrap(); // warm the scratch lease
    let n = allocs_during(|| {
        for _ in 0..8 {
            plan.execute(&pool1, &input, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "inline steady-state execute hit the allocator {n}x");

    // Multi-thread pool: dispatch must also be allocation-free — jobs are
    // plain structs on a pre-sized queue and the region latch is re-armed,
    // not reallocated.
    let pool2 = StaticPool::new(2);
    let plan2 = ConvPlan::try_new(&platform, &shape, &filter, 2).unwrap();
    plan2.execute(&pool2, &input, &mut out).unwrap();
    let n = allocs_during(|| {
        for _ in 0..8 {
            plan2.execute(&pool2, &input, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "threaded steady-state execute hit the allocator {n}x");

    // Depthwise plans make the same promise.
    let dw_shape = ConvShape::square(1, 6, 6, 12, 3, 1); // K == C
    let dw_input = fill::random_tensor(Tensor4::input_for(&dw_shape, ActLayout::Nchw), 6);
    let dw_filter = fill::random_filter(Filter::zeros(6, 1, 3, 3, FilterLayout::Kcrs), 7);
    let mut dw_out = Tensor4::output_for(&dw_shape, ActLayout::Nchw);
    let dw = DepthwisePlan::try_new(&dw_shape, &dw_filter, 1).unwrap();
    dw.execute(&pool1, &dw_input, &mut dw_out).unwrap();
    let n = allocs_during(|| {
        for _ in 0..8 {
            dw.execute(&pool1, &dw_input, &mut dw_out).unwrap();
        }
    });
    assert_eq!(n, 0, "depthwise steady-state execute hit the allocator {n}x");

    // So do fused dw+pw plans, stride 2 included, on both pools.
    let pw_filter = fill::random_filter(Filter::zeros(10, 6, 1, 1, FilterLayout::Kcrs), 8);
    for (stride, pool) in [(1, &pool1), (2, &pool2)] {
        let shape = ConvShape::new(1, 6, 12, 12, 6, 3, 3, stride, Padding::same(1));
        let sched = DwPwSchedule {
            slice_rows: 2,
            vw: 8,
            vk: 8,
        };
        let fused =
            FusedDwPwPlan::try_with_schedule(&shape, &dw_filter, &pw_filter, &sched, pool.size())
                .unwrap();
        let mut out = Tensor4::zeros(1, 10, shape.p(), shape.q(), ActLayout::Nchw);
        fused.execute(pool, &dw_input, &mut out).unwrap();
        let n = allocs_during(|| {
            for _ in 0..8 {
                fused.execute(pool, &dw_input, &mut out).unwrap();
            }
        });
        assert_eq!(n, 0, "fused dw+pw (stride {stride}) hit the allocator {n}x");
    }

    // The FC layer reads its weights where they lie: one call allocates
    // the GEMM's fixed pack buffers (~2.4 MB) and activation-sized
    // vectors, never a copy of the `out × in` weights (8.2 MB here).
    let (in_dim, out_dim) = (2048, 1000);
    let x = fill::random_tensor(Tensor4::zeros(1, in_dim, 1, 1, ActLayout::Nchw), 8);
    let mut weight = vec![0.0f32; out_dim * in_dim];
    fill::fill_random(&mut weight, 9);
    let bias = vec![0.0f32; out_dim];
    allocs_during(|| {
        std::hint::black_box(ndirect_models::ops::fully_connected(&pool1, &x, &weight, &bias));
    });
    let (allocated, weights) = (BYTES.load(Ordering::SeqCst), 4 * out_dim * in_dim);
    assert!(
        allocated < weights,
        "fully_connected allocated {allocated} B, its weights are {weights} B"
    );
}
