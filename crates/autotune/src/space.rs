//! The schedule search space.

use ndirect_core::{PackingMode, Schedule};
use ndirect_tensor::ConvShape;
use ndirect_threads::Grid2;
use ndirect_support::Rng64;

/// Candidate values per parameter, specialized to a problem.
///
/// The space mirrors what Ansor explores for a conv2d subgraph: tile sizes
/// at every loop level plus the parallel split. Register-tile candidates
/// are the `(Vw, Vk)` pairs the build's kernel table declares for the
/// shape's body ([`ndirect_core::kernel::tiles_for`]): the kernels that
/// exist, where any other tile would run on the dynamic kernel.
#[derive(Debug, Clone)]
pub struct ScheduleSpace {
    /// Register-tile `(Vw, Vk)` candidates.
    pub tiles: Vec<(usize, usize)>,
    /// Channel cache-tile candidates.
    pub tc: Vec<usize>,
    /// `Tk` expressed as multiples of `Vk`.
    pub tk_multiplier: Vec<usize>,
    /// Output-row tile candidates.
    pub th: Vec<usize>,
    /// Packing strategies.
    pub packing: Vec<PackingMode>,
    /// Thread-grid factorizations of the team size.
    pub grids: Vec<Grid2>,
}

impl ScheduleSpace {
    /// The space for a problem and a fixed thread count.
    pub fn for_shape(shape: &ConvShape, threads: usize) -> Self {
        let p = shape.p();
        // The sliced variant joins the search alongside the two packed
        // baselines; its slice length comes from the host's analytic slab
        // model so the candidate is cache-resident by construction (search
        // can still reject it on measurement).
        let model_rows = ndirect_core::model::slicing::slab_rows(
            &ndirect_platform::host(),
            shape,
            16.min(shape.c).max(1),
        );
        let tc_max = shape.c;
        let tc: Vec<usize> = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
            .iter()
            .copied()
            .filter(|&t| t <= tc_max)
            .chain(std::iter::once(tc_max))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let th: Vec<usize> = [1, 2, 4, 8, 16, 32, 64]
            .iter()
            .copied()
            .filter(|&t| t <= p)
            .chain(std::iter::once(p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        ScheduleSpace {
            tiles: ndirect_core::kernel::tiles_for(shape.r, shape.s).collect(),
            tc,
            // Tk = multiplier × Vk, capped later by sanitize.
            tk_multiplier: vec![1, 2, 4, 8, 16, 32, 64],
            th,
            packing: vec![
                PackingMode::Fused,
                PackingMode::Sequential,
                PackingMode::Sliced { rows: model_rows },
            ],
            grids: Grid2::factorizations(threads),
        }
    }

    /// Number of distinct points (for reporting).
    pub fn size(&self) -> usize {
        self.tiles.len()
            * self.tc.len()
            * self.tk_multiplier.len()
            * self.th.len()
            * self.packing.len()
            * self.grids.len()
    }
}

/// Draws a uniformly random schedule from the space.
pub fn random_schedule(space: &ScheduleSpace, shape: &ConvShape, rng: &mut Rng64) -> Schedule {
    let pick = |v: &Vec<usize>, rng: &mut Rng64| v[rng.gen_range_usize(0, v.len())];
    let (vw, vk) = space.tiles[rng.gen_range_usize(0, space.tiles.len())];
    let sched = Schedule {
        vw,
        vk,
        tc: pick(&space.tc, rng),
        tk: pick(&space.tk_multiplier, rng) * vk,
        th: pick(&space.th, rng),
        grid: space.grids[rng.gen_range_usize(0, space.grids.len())],
        packing: space.packing[rng.gen_range_usize(0, space.packing.len())],
        filter_state: ndirect_core::FilterState::OnTheFly,
    };
    sched.sanitized(shape)
}

/// Mutates exactly one parameter of a schedule — the evolutionary search's
/// neighborhood move.
pub fn mutate(
    sched: &Schedule,
    space: &ScheduleSpace,
    shape: &ConvShape,
    rng: &mut Rng64,
) -> Schedule {
    let mut s = sched.clone();
    match rng.gen_range_usize(0, 5) {
        0 => {
            (s.vw, s.vk) = space.tiles[rng.gen_range_usize(0, space.tiles.len())];
            s.tk = (s.tk / s.vk.max(1)).max(1) * s.vk;
        }
        1 => s.tc = space.tc[rng.gen_range_usize(0, space.tc.len())],
        2 => s.tk = space.tk_multiplier[rng.gen_range_usize(0, space.tk_multiplier.len())] * s.vk,
        3 => s.th = space.th[rng.gen_range_usize(0, space.th.len())],
        _ => {
            if space.grids.len() > 1 {
                s.grid = space.grids[rng.gen_range_usize(0, space.grids.len())];
            } else {
                // Step to the next packing variant in the space (cyclic),
                // so single-thread searches still explore every mode.
                let i = space
                    .packing
                    .iter()
                    .position(|&m| m == s.packing)
                    .unwrap_or(0);
                s.packing = space.packing[(i + 1) % space.packing.len()];
            }
        }
    }
    s.sanitized(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::square(2, 64, 64, 28, 3, 1)
    }

    #[test]
    fn space_candidates_are_bounded_by_problem() {
        let sp = ScheduleSpace::for_shape(&shape(), 4);
        assert!(sp.tc.iter().all(|&t| t <= 64));
        assert!(sp.th.iter().all(|&t| t <= 28));
        assert!(sp.tc.contains(&64), "full-C candidate present");
        assert!(sp.grids.len() == 3); // 1x4, 2x2, 4x1
        assert!(sp.size() > 1000);
    }

    #[test]
    fn random_schedules_are_valid_and_varied() {
        let sp = ScheduleSpace::for_shape(&shape(), 4);
        let mut rng = Rng64::seed_from_u64(1);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let s = random_schedule(&sp, &shape(), &mut rng);
            assert!(s.tc >= 1 && s.tc <= 64);
            assert_eq!(s.tk % s.vk, 0);
            assert!(s.threads() <= 4);
            distinct.insert(format!("{s:?}"));
        }
        assert!(distinct.len() > 30, "search space sampling too narrow");
    }

    #[test]
    fn mutation_changes_at_most_one_axis() {
        let sp = ScheduleSpace::for_shape(&shape(), 4);
        let mut rng = Rng64::seed_from_u64(2);
        let base = random_schedule(&sp, &shape(), &mut rng);
        for _ in 0..50 {
            let m = mutate(&base, &sp, &shape(), &mut rng);
            // sanitize keeps it valid:
            assert!(m.tc >= 1 && m.tc <= 64);
            assert_eq!(m.tk % m.vk, 0);
        }
    }
}
