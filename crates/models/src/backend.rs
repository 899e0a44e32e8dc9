//! Convolution backends for the engine, beyond the baseline set.
//!
//! The baselines crate defines the [`Convolution`] interface and implements
//! it for naive / im2col / blocked / indirect. Here we add nDirect in the
//! two flavours the end-to-end figures need: model-scheduled (what
//! "MXNet+NDIRECT" measures) and, given a schedule table, per-shape
//! autotuned (the Ansor proxy, with the search cost paid offline exactly
//! as the paper excludes Ansor's tuning time).
//!
//! The backend is built on the plan layer: the first call for a layer
//! builds a [`ConvPlan`] (schedule derivation, filter packing, scratch
//! allocation, all paid once) and every later call is the allocation-free
//! [`ConvPlan::execute`] hot path — the same amortization a framework
//! integration would do, so the end-to-end figures measure steady-state
//! inference rather than per-call setup.

use std::collections::HashMap;
use std::sync::Arc;

use ndirect_baselines::Convolution;
use ndirect_core::{ConvPlan, DepthwisePlan, Kernel, PlanKey, PlanRegistry, Schedule};
use ndirect_platform::Platform;
use ndirect_tensor::{ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

/// nDirect executed through per-layer [`ConvPlan`]s (scheduled + packed
/// once, reused). A shape found in the schedule table runs that (e.g.
/// autotuned) schedule, its own [`ndirect_core::FilterState`] honored;
/// every other shape runs the schedule the analytic models derive.
pub struct NDirectBackend {
    platform: Platform,
    schedules: HashMap<ConvShape, Schedule>,
    name: &'static str,
    cache: PlanRegistry,
    kernel: Kernel,
}

impl NDirectBackend {
    /// Backend deriving schedules for `platform`.
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            schedules: HashMap::new(),
            name: "nDirect",
            cache: PlanRegistry::new(),
            kernel: Kernel::best(),
        }
    }

    /// Backend for the host machine.
    pub fn host() -> Self {
        Self::new(ndirect_platform::host())
    }

    /// Host backend that runs the externally supplied per-shape
    /// `schedules`, under its own display `name`.
    pub fn tuned(schedules: HashMap<ConvShape, Schedule>, name: &'static str) -> Self {
        Self {
            schedules,
            name,
            ..Self::host()
        }
    }

    /// The backend building every plan on `kernel` instead of the detected
    /// best entry (see [`ConvPlan::kernel_name`]).
    #[doc(hidden)]
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        Self { kernel, ..self }
    }

    /// Number of tuned shapes.
    pub fn tuned_shapes(&self) -> usize {
        self.schedules.len()
    }

    /// Eagerly builds (and caches) the plan for a layer, so the first
    /// timed call doesn't pay schedule derivation + filter packing.
    /// Returns the plan for callers that want to execute it directly.
    ///
    /// The registry tracks the shape + frozen-filter identity so a rebuilt
    /// weight buffer gets a fresh plan. A build failure at this level is a
    /// caller bug (bad shape), so the backend keeps its seed panic
    /// behaviour; the fallible path lives in
    /// [`PlanRegistry::get_or_try_build`] for callers (the serving layer)
    /// that handle refusals.
    pub fn prepare(
        &self,
        shape: &ConvShape,
        filter: &Filter,
        threads: usize,
    ) -> Arc<ConvPlan<'static>> {
        self.cache
            .get_or_try_build(PlanKey::new(shape, filter, threads), || {
                let plan = match self.schedules.get(shape) {
                    Some(schedule) => ConvPlan::try_with_schedule(shape, filter, schedule),
                    None => ConvPlan::try_new(&self.platform, shape, filter, threads),
                };
                plan.map(|p| p.with_kernel(self.kernel))
            })
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Eagerly builds (and caches) the plan for a depthwise layer, keyed
    /// like any other layer in the shared registry.
    pub fn prepare_depthwise(
        &self,
        shape: &ConvShape,
        filter: &Filter,
        threads: usize,
    ) -> Arc<DepthwisePlan<'static>> {
        self.cache
            .get_or_try_build_depthwise(PlanKey::new(shape, filter, threads), || {
                DepthwisePlan::try_new(shape, filter, threads).map(|p| p.with_kernel(self.kernel))
            })
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of distinct layers planned so far.
    pub fn planned_layers(&self) -> usize {
        self.cache.len()
    }
}

impl Convolution for NDirectBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn accumulates(&self) -> bool {
        true // the micro-kernel's store is a read-add-write
    }

    fn conv(
        &self,
        pool: &StaticPool,
        input: &Tensor4,
        filter: &Filter,
        shape: &ConvShape,
        output: &mut Tensor4,
    ) {
        let plan = self.prepare(shape, filter, pool.size());
        plan.execute(pool, input, output)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_baselines::naive;
    use ndirect_tensor::{assert_close, fill, ActLayout, FilterLayout};

    fn problem() -> (ConvShape, Tensor4, Filter) {
        let shape = ConvShape::square(1, 6, 10, 9, 3, 1);
        (
            shape,
            fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 2),
            fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 2),
        )
    }

    #[test]
    fn ndirect_backend_matches_oracle() {
        let (shape, input, filter) = problem();
        let pool = StaticPool::new(2);
        let backend = NDirectBackend::host();
        let got = ndirect_baselines::run_backend(&backend, &pool, &input, &filter, &shape);
        let expect = naive::conv_ref(&input, &filter, &shape);
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "NDirectBackend");
    }

    #[test]
    fn plan_cache_reuses_one_plan_per_layer() {
        let (shape, input, filter) = problem();
        let pool = StaticPool::new(1);
        let backend = NDirectBackend::host();
        let a = ndirect_baselines::run_backend(&backend, &pool, &input, &filter, &shape);
        let b = ndirect_baselines::run_backend(&backend, &pool, &input, &filter, &shape);
        assert_eq!(a.as_slice(), b.as_slice(), "replanning must not change bits");
        assert_eq!(backend.planned_layers(), 1);

        // A different filter buffer for the same shape is a different
        // layer (the frozen-weights identity key).
        let filter2 = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 7);
        let _ = ndirect_baselines::run_backend(&backend, &pool, &input, &filter2, &shape);
        assert_eq!(backend.planned_layers(), 2);
    }

    #[test]
    fn prepare_is_eager_and_conv_hits_the_cache() {
        let (shape, input, filter) = problem();
        let pool = StaticPool::new(1);
        let backend = NDirectBackend::host();
        let plan = backend.prepare(&shape, &filter, pool.size());
        assert_eq!(backend.planned_layers(), 1);
        let got = ndirect_baselines::run_backend(&backend, &pool, &input, &filter, &shape);
        assert_eq!(backend.planned_layers(), 1, "conv reused the prepared plan");
        // The prepared plan executes standalone too, bitwise identically.
        let mut out = Tensor4::output_for(&shape, ActLayout::Nchw);
        plan.execute(&pool, &input, &mut out).unwrap();
        assert_eq!(out.as_slice(), got.as_slice());
    }

    #[test]
    fn prepare_depthwise_caches_and_executes() {
        let dw_shape = ConvShape::new(
            1,
            6,
            9,
            9,
            6,
            3,
            3,
            1,
            ndirect_tensor::Padding::same(1),
        );
        let dwf = fill::random_filter(Filter::zeros(6, 1, 3, 3, FilterLayout::Kcrs), 7);
        let pool = StaticPool::new(1);
        let backend = NDirectBackend::host();
        let a = backend.prepare_depthwise(&dw_shape, &dwf, 1);
        let b = backend.prepare_depthwise(&dw_shape, &dwf, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(backend.planned_layers(), 1);

        let input = fill::random_tensor(Tensor4::input_for(&dw_shape, ActLayout::Nchw), 8);
        let mut out = Tensor4::zeros(1, 6, dw_shape.p(), dw_shape.q(), ActLayout::Nchw);
        a.execute(&pool, &input, &mut out).unwrap();
        let want = ndirect_core::conv_depthwise(&pool, &input, &dwf, &dw_shape);
        assert_eq!(out.as_slice(), want.as_slice(), "same bits as the one-shot");
    }

    #[test]
    fn tuned_backend_uses_table_and_fallback() {
        let (shape, input, filter) = problem();
        let pool = StaticPool::new(1);
        let mut table = HashMap::new();
        table.insert(shape, Schedule::minimal(&shape));
        let backend = NDirectBackend::tuned(table, "tuned");
        assert_eq!(backend.tuned_shapes(), 1);
        let got = ndirect_baselines::run_backend(&backend, &pool, &input, &filter, &shape);
        let expect = naive::conv_ref(&input, &filter, &shape);
        assert_close(got.as_slice(), expect.as_slice(), 2e-4, "TunedBackend");

        // A shape missing from the table falls back to the model.
        let other = ConvShape::square(1, 6, 8, 7, 3, 1);
        let input2 = fill::random_tensor(Tensor4::input_for(&other, ActLayout::Nchw), 3);
        let filter2 = fill::random_filter(Filter::for_shape(&other, FilterLayout::Kcrs), 3);
        let got2 = ndirect_baselines::run_backend(&backend, &pool, &input2, &filter2, &other);
        let expect2 = naive::conv_ref(&input2, &filter2, &other);
        assert_close(got2.as_slice(), expect2.as_slice(), 2e-4, "fallback");
    }
}
