//! Measured search over the fused dw+pw schedule space.
//!
//! The fused path's space is tiny compared to the full [`crate::space`]
//! hierarchy — two knobs ([`DwPwSchedule`]: slice length and the `(Vw, Vk)`
//! register tile) —
//! so no evolutionary machinery is needed: we enumerate every point and
//! measure each one, Ansor's "measure the whole space" degenerate case.
//! The model-derived slice length anchors the candidate set the same way
//! the sliced packing candidate anchors [`crate::space::ScheduleSpace`].

use ndirect_core::{fused_pair_flops, DwPwSchedule, Error, FusedDwPwPlan};
use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;
use std::time::Instant;

/// Candidate values per fused-schedule parameter, specialized to a
/// depthwise stage.
#[derive(Debug, Clone)]
pub struct DwPwSpace {
    /// Slab slice-length candidates (rows of depthwise output per slice).
    pub slice_rows: Vec<usize>,
    /// Pointwise register-tile `(Vw, Vk)` candidates.
    pub tiles: Vec<(usize, usize)>,
}

impl DwPwSpace {
    /// The space for one depthwise stage. Slice-length candidates bracket
    /// the host's analytic half-L2 value (half, 1×, 2×) plus the
    /// single-row and whole-plane extremes; register tiles are the declared
    /// pointwise tiles, as in [`crate::space::ScheduleSpace`].
    pub fn for_shape(dw_shape: &ConvShape) -> Self {
        let p = dw_shape.p();
        let model_rows =
            ndirect_core::model::slicing::fused_slab_rows(&ndirect_platform::host(), dw_shape);
        let slice_rows: Vec<usize> = [
            1,
            (model_rows / 2).max(1),
            model_rows,
            (2 * model_rows).min(p),
            p,
        ]
        .iter()
        .copied()
        .filter(|&r| (1..=p).contains(&r))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
        DwPwSpace {
            slice_rows,
            tiles: ndirect_core::kernel::tiles_for(1, 1).collect(),
        }
    }

    /// Number of distinct points before sanitization (for reporting).
    pub fn size(&self) -> usize {
        self.slice_rows.len() * self.tiles.len()
    }

    /// Enumerates every schedule in the space, sanitized to the problem
    /// and deduplicated (clamping can collapse points).
    pub fn candidates(&self, dw_shape: &ConvShape) -> Vec<DwPwSchedule> {
        let mut out: Vec<DwPwSchedule> = Vec::with_capacity(self.size());
        for &rows in &self.slice_rows {
            for &(vw, vk) in &self.tiles {
                let s = DwPwSchedule { slice_rows: rows, vw, vk }.sanitized(dw_shape);
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// Outcome of a fused-schedule tuning run.
#[derive(Debug, Clone)]
pub struct DwPwTuneReport {
    /// Best schedule found.
    pub best: DwPwSchedule,
    /// Its measured throughput over the whole fused pair.
    pub best_gflops: f64,
    /// Schedules measured (the space is exhausted, so this is the
    /// deduplicated space size).
    pub trials: usize,
}

/// Exhaustively measures every fused schedule for one dw+pw pair and
/// returns the fastest. `reps` repetitions are timed per candidate and the
/// minimum is kept, as in [`crate::search::tune`].
pub fn tune_dwpw(
    pool: &StaticPool,
    input: &Tensor4,
    dw_filter: &Filter,
    pw_filter: &Filter,
    dw_shape: &ConvShape,
    reps: usize,
) -> Result<DwPwTuneReport, Error> {
    let space = DwPwSpace::for_shape(dw_shape);
    let candidates = space.candidates(dw_shape);
    let k = pw_filter.dims().0;
    let flops = fused_pair_flops(dw_shape, k) as f64;
    let mut out = Tensor4::zeros(dw_shape.n, k, dw_shape.p(), dw_shape.q(), ActLayout::Nchw);

    let mut best: Option<(DwPwSchedule, f64)> = None;
    for sched in &candidates {
        let plan =
            FusedDwPwPlan::try_with_schedule(dw_shape, dw_filter, pw_filter, sched, pool.size())?;
        let mut elapsed = f64::MAX;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            plan.execute(pool, input, &mut out)?;
            elapsed = elapsed.min(start.elapsed().as_secs_f64());
        }
        std::hint::black_box(out.as_slice());
        let gflops = flops / elapsed / 1e9;
        if best.as_ref().is_none_or(|(_, g)| gflops > *g) {
            best = Some((*sched, gflops));
        }
    }
    // `candidates` is non-empty by construction (slice_rows always
    // contains 1), so `best` is always populated.
    let (best, best_gflops) = best.ok_or(Error::ScratchAlloc { elements: 0 })?;
    Ok(DwPwTuneReport {
        best,
        best_gflops,
        trials: candidates.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, FilterLayout, Padding};

    fn dw_shape() -> ConvShape {
        ConvShape::new(1, 8, 12, 12, 8, 3, 3, 1, Padding::same(1))
    }

    fn problem(shape: &ConvShape, k: usize) -> (Tensor4, Filter, Filter) {
        (
            fill::random_tensor(Tensor4::input_for(shape, ActLayout::Nchw), 3),
            fill::random_filter(
                Filter::zeros(shape.c, 1, shape.r, shape.s, FilterLayout::Kcrs),
                4,
            ),
            fill::random_filter(Filter::zeros(k, shape.c, 1, 1, FilterLayout::Kcrs), 5),
        )
    }

    #[test]
    fn space_brackets_the_model_slice_length() {
        let shape = dw_shape();
        let space = DwPwSpace::for_shape(&shape);
        let model_rows =
            ndirect_core::model::slicing::fused_slab_rows(&ndirect_platform::host(), &shape);
        assert!(space.slice_rows.contains(&model_rows));
        assert!(space.slice_rows.contains(&1));
        assert!(space.slice_rows.iter().all(|&r| r >= 1 && r <= shape.p()));
        let declared: Vec<_> = ndirect_core::kernel::TILES
            .iter()
            .filter(|t| t.body == ndirect_core::kernel::Body::Pointwise)
            .map(|t| (t.vw, t.vk))
            .collect();
        assert!(!declared.is_empty());
        assert_eq!(space.tiles, declared);
    }

    #[test]
    fn candidates_are_sanitized_and_deduplicated() {
        let shape = dw_shape();
        let space = DwPwSpace::for_shape(&shape);
        let cands = space.candidates(&shape);
        assert!(!cands.is_empty());
        assert!(cands.len() <= space.size());
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(*c, c.sanitized(&shape), "candidate {i}");
            assert!(!cands[..i].contains(c), "candidate {i} duplicated");
        }
    }

    #[test]
    fn tune_returns_a_schedule_that_reproduces_the_unfused_result() {
        let shape = dw_shape();
        let k = 12;
        let (input, dwf, pwf) = problem(&shape, k);
        let pool = StaticPool::new(2);
        let report = tune_dwpw(&pool, &input, &dwf, &pwf, &shape, 1).unwrap();
        assert!(report.trials >= 1);
        assert!(report.best_gflops > 0.0);
        assert_eq!(report.best, report.best.sanitized(&shape));

        // The winner must still be numerically right.
        let plan =
            FusedDwPwPlan::try_with_schedule(&shape, &dwf, &pwf, &report.best, pool.size())
                .unwrap();
        let mut got = Tensor4::zeros(shape.n, k, shape.p(), shape.q(), ActLayout::Nchw);
        plan.execute(&pool, &input, &mut got).unwrap();
        let want =
            ndirect_core::try_conv_depthwise_separable(&pool, &input, &dwf, &pwf, &shape)
                .unwrap();
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                "[{i}] got {g}, want {w}"
            );
        }
    }
}
