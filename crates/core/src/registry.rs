//! Shared plan registry: build each [`ConvPlan`] once, execute it from
//! many threads.
//!
//! A serving process holds one registry per model (or one global one) and
//! resolves every request through [`PlanRegistry::get_or_try_build`]. The
//! key is the *identity* of a planned layer: the convolution shape, the
//! frozen filter buffer (address + length), the thread count the plan's
//! grid was derived for, and a caller-chosen `tag` that distinguishes
//! alternative plans for the same layer (e.g. the serving layer keeps the
//! pinned fast plan under tag 0 and the minimal-schedule degraded plan
//! under tag 1).
//!
//! Keying on the filter's address encodes the frozen-weights contract of
//! inference: a plan packs the filter at build time, so it is only valid
//! for calls that pass the same filter buffer. A model that rebuilds or
//! moves its weights gets a fresh plan; a model that *mutates* weights in
//! place must not use a planning layer at all.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ndirect_tensor::{ConvShape, Filter};

use crate::dwpw::FusedDwPwPlan;
use crate::error::Error;
use crate::plan::{ConvPlan, DepthwisePlan};

/// Identity of a planned layer: shape + frozen-filter identity + thread
/// count + caller tag.
///
/// Two-filter layers (the fused dw+pw block) extend the identity with the
/// second filter's buffer via [`PlanKey::for_pair`]; single-filter keys
/// leave those fields zero, so the two families never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The convolution shape the plan was built for.
    pub shape: ConvShape,
    /// Address of the filter buffer the plan packed.
    fptr: usize,
    /// Length of the filter buffer in elements.
    flen: usize,
    /// Address of the second (pointwise) filter buffer for fused dw+pw
    /// keys; 0 for single-filter layers.
    fptr2: usize,
    /// Length of the second filter buffer; 0 for single-filter layers.
    flen2: usize,
    /// Thread count the plan's grid targets.
    pub threads: usize,
    /// Caller-chosen discriminator between alternative plans for the same
    /// layer (0 by convention for the primary plan).
    pub tag: u64,
}

impl PlanKey {
    /// Key for the primary plan (`tag == 0`) of a layer.
    pub fn new(shape: &ConvShape, filter: &Filter, threads: usize) -> Self {
        Self::with_tag(shape, filter, threads, 0)
    }

    /// Key for an alternative plan of the same layer, distinguished by
    /// `tag`.
    pub fn with_tag(shape: &ConvShape, filter: &Filter, threads: usize, tag: u64) -> Self {
        let data = filter.as_slice();
        Self {
            shape: *shape,
            fptr: data.as_ptr() as usize,
            flen: data.len(),
            fptr2: 0,
            flen2: 0,
            threads,
            tag,
        }
    }

    /// Key for a two-filter fused dw+pw layer: `shape` is the depthwise
    /// stage's, and both frozen filter buffers join the identity.
    pub fn for_pair(
        shape: &ConvShape,
        dw_filter: &Filter,
        pw_filter: &Filter,
        threads: usize,
        tag: u64,
    ) -> Self {
        let pw = pw_filter.as_slice();
        let mut key = Self::with_tag(shape, dw_filter, threads, tag);
        key.fptr2 = pw.as_ptr() as usize;
        key.flen2 = pw.len();
        key
    }
}

/// One plan family's build-once map. The mutex is held only around the
/// map access, never across a plan build or an execution: a miss releases
/// the lock, builds outside it, and re-checks on insert (first build wins;
/// a concurrent duplicate build is discarded). Plans come out as `Arc`s so
/// executions proceed lock-free on the shared plan.
struct Cache<P>(Mutex<HashMap<PlanKey, Arc<P>>>);

impl<P> Default for Cache<P> {
    fn default() -> Self {
        Cache(Mutex::new(HashMap::new()))
    }
}

impl<P> Cache<P> {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PlanKey, Arc<P>>> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get(&self, key: &PlanKey) -> Option<Arc<P>> {
        let hit = self.lock().get(key).map(Arc::clone);
        if hit.is_some() {
            ndirect_probe::probe_count!(PlanCacheHits, 1);
        }
        hit
    }

    fn get_or_try_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<P, Error>,
    ) -> Result<Arc<P>, Error> {
        if let Some(plan) = self.get(&key) {
            return Ok(plan);
        }
        ndirect_probe::probe_count!(PlanCacheMisses, 1);
        let built = Arc::new(build()?);
        Ok(Arc::clone(self.lock().entry(key).or_insert(built)))
    }
}

/// A concurrent build-once cache of planned layers, shared across worker
/// threads via `Arc`. Three plan families live side by side — standard
/// [`ConvPlan`]s, [`DepthwisePlan`]s, and fused [`FusedDwPwPlan`]s — each
/// in its own typed map under the same [`PlanKey`] identity scheme, so the
/// serving layer and the model backends resolve every layer kind through
/// one registry.
#[derive(Default)]
pub struct PlanRegistry {
    map: Cache<ConvPlan<'static>>,
    dw: Cache<DepthwisePlan<'static>>,
    fused: Cache<FusedDwPwPlan<'static>>,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanRegistry")
            .field("plans", &self.len())
            .finish()
    }
}

impl PlanRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached plan for `key`, or builds, caches, and returns
    /// it. Build failures are returned to the caller and nothing is
    /// cached (a later call may retry — scratch refusal is transient).
    ///
    /// `build` runs *outside* the registry lock, so a slow plan build
    /// (schedule derivation + filter packing) never blocks concurrent
    /// lookups of other layers. Two threads racing on the same cold key
    /// may both build; the loser's plan is dropped and the winner's is
    /// returned to both.
    pub fn get_or_try_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<ConvPlan<'static>, Error>,
    ) -> Result<Arc<ConvPlan<'static>>, Error> {
        self.map.get_or_try_build(key, build)
    }

    /// Returns the cached plan for `key` without building.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<ConvPlan<'static>>> {
        self.map.get(key)
    }

    /// Returns the cached depthwise plan for `key`, or builds, caches, and
    /// returns it — same locking discipline as
    /// [`PlanRegistry::get_or_try_build`].
    pub fn get_or_try_build_depthwise(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<DepthwisePlan<'static>, Error>,
    ) -> Result<Arc<DepthwisePlan<'static>>, Error> {
        self.dw.get_or_try_build(key, build)
    }

    /// Returns the cached depthwise plan for `key` without building.
    pub fn get_depthwise(&self, key: &PlanKey) -> Option<Arc<DepthwisePlan<'static>>> {
        self.dw.get(key)
    }

    /// Returns the cached fused dw+pw plan for `key` (built with
    /// [`PlanKey::for_pair`]), or builds, caches, and returns it — same
    /// locking discipline as [`PlanRegistry::get_or_try_build`].
    pub fn get_or_try_build_fused(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<FusedDwPwPlan<'static>, Error>,
    ) -> Result<Arc<FusedDwPwPlan<'static>>, Error> {
        self.fused.get_or_try_build(key, build)
    }

    /// Returns the cached fused dw+pw plan for `key` without building.
    pub fn get_fused(&self, key: &PlanKey) -> Option<Arc<FusedDwPwPlan<'static>>> {
        self.fused.get(key)
    }

    /// Number of distinct plans cached, across all three families.
    pub fn len(&self) -> usize {
        self.map.lock().len() + self.dw.lock().len() + self.fused.lock().len()
    }

    /// Whether the registry holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (e.g. after a weight reload invalidated
    /// the filter identities).
    pub fn clear(&self) {
        self.map.lock().clear();
        self.dw.lock().clear();
        self.fused.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, FilterLayout};

    fn problem() -> (ConvShape, Filter) {
        let shape = ConvShape::square(1, 4, 8, 7, 3, 1);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 1);
        (shape, filter)
    }

    fn build(shape: &ConvShape, filter: &Filter) -> Result<ConvPlan<'static>, Error> {
        ConvPlan::try_new(&ndirect_platform::host(), shape, filter, 1)
    }

    #[test]
    fn builds_once_and_reuses() {
        let (shape, filter) = problem();
        let reg = PlanRegistry::new();
        let key = PlanKey::new(&shape, &filter, 1);
        let mut builds = 0;
        let a = reg
            .get_or_try_build(key, || {
                builds += 1;
                build(&shape, &filter)
            })
            .expect("first build");
        let b = reg
            .get_or_try_build(key, || {
                builds += 1;
                build(&shape, &filter)
            })
            .expect("cache hit");
        assert_eq!(builds, 1, "second lookup must not rebuild");
        assert!(Arc::ptr_eq(&a, &b), "both callers share one plan");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn failed_build_is_not_cached_and_can_retry() {
        let (shape, filter) = problem();
        let reg = PlanRegistry::new();
        let key = PlanKey::new(&shape, &filter, 1);
        let err = reg.get_or_try_build(key, || Err(Error::ScratchAlloc { elements: 42 }));
        assert!(err.is_err());
        assert!(reg.is_empty(), "failures must not poison the cache");
        // The transient fault clears; the retry succeeds.
        reg.get_or_try_build(key, || build(&shape, &filter))
            .expect("retry after transient failure");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn tags_separate_alternative_plans_for_one_layer() {
        let (shape, filter) = problem();
        let reg = PlanRegistry::new();
        let fast = PlanKey::new(&shape, &filter, 1);
        let degraded = PlanKey::with_tag(&shape, &filter, 1, 1);
        assert_ne!(fast, degraded);
        let a = reg
            .get_or_try_build(fast, || build(&shape, &filter))
            .expect("fast plan");
        let b = reg
            .get_or_try_build(degraded, || {
                let sched = crate::Schedule::minimal(&shape);
                ConvPlan::try_with_schedule(&shape, &filter, &sched)
            })
            .expect("degraded plan");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn distinct_filter_buffers_are_distinct_layers() {
        let (shape, filter) = problem();
        let filter2 = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 9);
        assert_ne!(
            PlanKey::new(&shape, &filter, 1),
            PlanKey::new(&shape, &filter2, 1),
            "frozen-weights identity keys on the buffer address"
        );
    }

    #[test]
    fn concurrent_cold_lookups_converge_to_one_plan() {
        let (shape, filter) = problem();
        let reg = Arc::new(PlanRegistry::new());
        let key = PlanKey::new(&shape, &filter, 1);
        let plans: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let (shape, filter) = (&shape, &filter);
                    s.spawn(move || {
                        reg.get_or_try_build(key, || build(shape, filter))
                            .expect("racing build")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert_eq!(reg.len(), 1, "one winner");
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
    }

    fn dwpw_problem() -> (ConvShape, Filter, Filter) {
        let shape = ndirect_tensor::ConvShape::new(
            1,
            8,
            10,
            10,
            8,
            3,
            3,
            1,
            ndirect_tensor::Padding::same(1),
        );
        let dw = fill::random_filter(Filter::zeros(8, 1, 3, 3, FilterLayout::Kcrs), 2);
        let pw = fill::random_filter(Filter::zeros(12, 8, 1, 1, FilterLayout::Kcrs), 3);
        (shape, dw, pw)
    }

    #[test]
    fn depthwise_plans_register_and_reuse() {
        let (shape, dw, _) = dwpw_problem();
        let reg = PlanRegistry::new();
        let key = PlanKey::new(&shape, &dw, 1);
        let a = reg
            .get_or_try_build_depthwise(key, || DepthwisePlan::try_new(&shape, &dw, 1))
            .expect("dw build");
        let b = reg
            .get_or_try_build_depthwise(key, || panic!("must not rebuild"))
            .expect("dw hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        // The same key in the ConvPlan family is still a miss: the maps
        // are typed, so a dw registration never shadows a conv plan.
        assert!(reg.get(&key).is_none());
    }

    #[test]
    fn pair_keys_distinguish_pointwise_filters() {
        let (shape, dw, pw) = dwpw_problem();
        let pw2 = fill::random_filter(Filter::zeros(12, 8, 1, 1, FilterLayout::Kcrs), 4);
        let a = PlanKey::for_pair(&shape, &dw, &pw, 1, 0);
        let b = PlanKey::for_pair(&shape, &dw, &pw2, 1, 0);
        assert_ne!(a, b, "a different pointwise filter is a different layer");
        assert_ne!(
            a,
            PlanKey::new(&shape, &dw, 1),
            "pair keys never collide with single-filter keys"
        );
    }

    #[test]
    fn concurrent_fused_lookups_share_one_plan() {
        let (shape, dw, pw) = dwpw_problem();
        let reg = Arc::new(PlanRegistry::new());
        let key = PlanKey::for_pair(&shape, &dw, &pw, 1, 0);
        let plans: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let (shape, dw, pw) = (&shape, &dw, &pw);
                    s.spawn(move || {
                        reg.get_or_try_build_fused(key, || {
                            FusedDwPwPlan::try_new(
                                &ndirect_platform::host(),
                                shape,
                                dw,
                                pw,
                                1,
                            )
                        })
                        .expect("racing fused build")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert_eq!(reg.len(), 1, "one winner");
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        // Shared-Arc execution: every clone runs the same plan instance.
        let pool = ndirect_threads::StaticPool::new(1);
        let input = fill::random_tensor(
            ndirect_tensor::Tensor4::input_for(&shape, ndirect_tensor::ActLayout::Nchw),
            5,
        );
        let mut out = ndirect_tensor::Tensor4::zeros(
            1,
            12,
            shape.p(),
            shape.q(),
            ndirect_tensor::ActLayout::Nchw,
        );
        plans[0].execute(&pool, &input, &mut out).expect("execute");
    }

    #[test]
    fn clear_empties_every_family() {
        let (shape, dw, pw) = dwpw_problem();
        let reg = PlanRegistry::new();
        reg.get_or_try_build_depthwise(PlanKey::new(&shape, &dw, 1), || {
            DepthwisePlan::try_new(&shape, &dw, 1)
        })
        .expect("dw");
        reg.get_or_try_build_fused(PlanKey::for_pair(&shape, &dw, &pw, 1, 0), || {
            FusedDwPwPlan::try_new(&ndirect_platform::host(), &shape, &dw, &pw, 1)
        })
        .expect("fused");
        assert_eq!(reg.len(), 2);
        reg.clear();
        assert!(reg.is_empty());
    }
}
