//! A learned linear cost model over schedule features.
//!
//! Ansor guides its evolutionary search with a cost model trained on the
//! measurements collected so far, so most candidates are scored without
//! spending a real measurement. We use ridge regression on a small,
//! hand-picked feature vector — linear in the features but nonlinear in the
//! schedule (logs and interaction terms), which is plenty for ranking
//! candidates within one operator.

use ndirect_core::{PackingMode, Schedule};
use ndirect_tensor::ConvShape;

/// Number of features the model consumes.
pub const NUM_FEATURES: usize = 9;

/// Extracts the feature vector of a schedule for a problem.
///
/// Features (all dimensionless, roughly unit-scaled):
/// 1. bias,
/// 2. `ln Vw`, `ln Vk` — register-tile shape,
/// 3. register-pressure overflow (how far Eq. 3 is exceeded),
/// 4. `ln Tc`, `ln(Tk/Vk)`, `ln Th` — cache tiles,
/// 5. packing mode flag (fused; sequential is the zero reference level),
/// 6. thread-grid balance `ln(PTn/PTk)`.
pub fn features(sched: &Schedule, shape: &ConvShape) -> [f64; NUM_FEATURES] {
    let regs = ndirect_core::model::register_tile::registers_used(sched.vw, sched.vk, shape.s);
    let overflow = (regs as f64 - 16.0).max(0.0) / 16.0;
    [
        1.0,
        (sched.vw as f64).ln(),
        (sched.vk as f64).ln(),
        overflow,
        (sched.tc as f64).ln(),
        (sched.tk as f64 / sched.vk as f64).ln(),
        (sched.th as f64).ln(),
        if sched.packing == PackingMode::Fused { 1.0 } else { 0.0 },
        (sched.grid.ptn() as f64 / sched.grid.ptk() as f64).ln(),
    ]
}

/// Ridge-regression cost model mapping features → predicted GFLOPS.
#[derive(Debug, Clone)]
pub struct CostModel {
    weights: [f64; NUM_FEATURES],
    trained: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CostModel {
    /// An untrained model (predicts 0 for everything and reports
    /// [`CostModel::is_trained`] = false so the search measures instead).
    pub fn new() -> Self {
        CostModel {
            weights: [0.0; NUM_FEATURES],
            trained: false,
        }
    }

    /// Whether [`CostModel::fit`] has run on enough samples to rank.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Predicted throughput for a candidate.
    pub fn predict(&self, sched: &Schedule, shape: &ConvShape) -> f64 {
        let f = features(sched, shape);
        f.iter().zip(&self.weights).map(|(x, w)| x * w).sum()
    }

    /// Fits ridge regression (`λ = 0.1`) on `(schedule, measured GFLOPS)`
    /// samples via the normal equations. Needs at least `NUM_FEATURES`
    /// samples to mark itself trained.
    pub fn fit(&mut self, samples: &[(Schedule, f64)], shape: &ConvShape) {
        let n = samples.len();
        if n < NUM_FEATURES {
            return;
        }
        const D: usize = NUM_FEATURES;
        let mut xtx = [[0.0f64; D]; D];
        let mut xty = [0.0f64; D];
        for (sched, y) in samples {
            let f = features(sched, shape);
            for i in 0..D {
                xty[i] += f[i] * y;
                for j in 0..D {
                    xtx[i][j] += f[i] * f[j];
                }
            }
        }
        let lambda = 0.1;
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += lambda;
        }
        if let Some(w) = solve(xtx, xty) {
            self.weights = w;
            self.trained = true;
        }
    }
}

/// Gaussian elimination with partial pivoting for the tiny normal system.
fn solve(mut a: [[f64; NUM_FEATURES]; NUM_FEATURES], mut b: [f64; NUM_FEATURES]) -> Option<[f64; NUM_FEATURES]> {
    const D: usize = NUM_FEATURES;
    for col in 0..D {
        let pivot = (col..D).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..D {
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, p) in pivot_row.iter().enumerate().take(D).skip(col) {
                a[row][k] -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0; D];
    for col in (0..D).rev() {
        let mut acc = b[col];
        for (k, xk) in x.iter().enumerate().take(D).skip(col + 1) {
            acc -= a[col][k] * xk;
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{random_schedule, ScheduleSpace};
    use ndirect_support::Rng64;

    fn shape() -> ConvShape {
        ConvShape::square(1, 32, 32, 14, 3, 1)
    }

    #[test]
    fn untrained_model_reports_untrained() {
        let m = CostModel::new();
        assert!(!m.is_trained());
        let sp = ScheduleSpace::for_shape(&shape(), 1);
        let mut rng = Rng64::seed_from_u64(3);
        let s = random_schedule(&sp, &shape(), &mut rng);
        assert_eq!(m.predict(&s, &shape()), 0.0);
    }

    #[test]
    fn model_learns_a_linear_relationship() {
        // Synthetic ground truth: y depends on ln(vw) and packing flag.
        let sp = ScheduleSpace::for_shape(&shape(), 4);
        let mut rng = Rng64::seed_from_u64(4);
        let truth = |s: &Schedule| {
            3.0 * (s.vw as f64).ln()
                + 2.0 * f64::from(s.packing == ndirect_core::PackingMode::Fused)
                + 1.0
        };
        let samples: Vec<(Schedule, f64)> = (0..200)
            .map(|_| {
                let s = random_schedule(&sp, &shape(), &mut rng);
                let y = truth(&s);
                (s, y)
            })
            .collect();
        let mut m = CostModel::new();
        m.fit(&samples, &shape());
        assert!(m.is_trained());
        // Predictions track ground truth to within ridge bias.
        for (s, y) in samples.iter().take(20) {
            assert!((m.predict(s, &shape()) - y).abs() < 0.5, "{s:?}");
        }
    }

    #[test]
    fn fit_requires_enough_samples() {
        let sp = ScheduleSpace::for_shape(&shape(), 1);
        let mut rng = Rng64::seed_from_u64(5);
        let samples: Vec<(Schedule, f64)> = (0..3)
            .map(|_| (random_schedule(&sp, &shape(), &mut rng), 1.0))
            .collect();
        let mut m = CostModel::new();
        m.fit(&samples, &shape());
        assert!(!m.is_trained());
    }

    #[test]
    fn features_have_expected_arity() {
        let sp = ScheduleSpace::for_shape(&shape(), 2);
        let mut rng = Rng64::seed_from_u64(6);
        let s = random_schedule(&sp, &shape(), &mut rng);
        let f = features(&s, &shape());
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(f[0], 1.0);
        assert!(f.iter().all(|x| x.is_finite()));
    }
}
