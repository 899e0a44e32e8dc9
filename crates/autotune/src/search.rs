//! Evolutionary schedule search with cost-model-guided measurement.
//!
//! The loop follows Ansor's structure at operator granularity:
//!
//! 1. measure a random initial population;
//! 2. each round, breed a large candidate pool by mutating the best
//!    measured schedules, rank the pool with the learned cost model, and
//!    spend real measurements only on the top slice;
//! 3. retrain the cost model on all measurements so far;
//! 4. stop when the trial budget is exhausted.

use ndirect_core::{try_conv_ndirect_with, Error, Schedule};
use ndirect_tensor::{ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;
use ndirect_support::Rng64;
use std::time::Instant;

use crate::cost::CostModel;
use crate::space::{mutate, random_schedule, ScheduleSpace};

/// Tuning budget and strategy knobs.
#[derive(Debug, Clone)]
pub struct TuneSettings {
    /// Total *measured* trials (the paper gives Ansor 1,000 per layer).
    pub trials: usize,
    /// Random initial population size.
    pub population: usize,
    /// Mutants generated per round (scored by the model, mostly unmeasured).
    pub pool: usize,
    /// Measurements spent per round on the model's top picks.
    pub measured_per_round: usize,
    /// Repetitions per measurement (min is taken).
    pub reps: usize,
    /// RNG seed, for reproducible tuning runs.
    pub seed: u64,
}

impl Default for TuneSettings {
    fn default() -> Self {
        TuneSettings {
            trials: 64,
            population: 16,
            pool: 64,
            measured_per_round: 8,
            reps: 2,
            seed: 0x5eed,
        }
    }
}

impl TuneSettings {
    /// A tiny budget for tests.
    pub fn smoke() -> Self {
        TuneSettings {
            trials: 6,
            population: 4,
            pool: 8,
            measured_per_round: 2,
            reps: 1,
            seed: 7,
        }
    }
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Best schedule found.
    pub best: Schedule,
    /// Its measured throughput.
    pub best_gflops: f64,
    /// Measured trials actually spent.
    pub trials_used: usize,
    /// `(trial index, best-so-far GFLOPS)` convergence curve.
    pub history: Vec<(usize, f64)>,
}

/// Tunes nDirect's schedule for one problem by measurement, Ansor-style.
///
/// `input`/`filter` supply real operand data so measurements exercise the
/// same memory system the final run will. The first measurement that fails
/// (malformed operands, an unsupported host ISA, a pool fault) ends the
/// run with its typed [`Error`].
pub fn tune(
    pool: &StaticPool,
    shape: &ConvShape,
    input: &Tensor4,
    filter: &Filter,
    settings: &TuneSettings,
) -> Result<TuneReport, Error> {
    let space = ScheduleSpace::for_shape(shape, pool.size());
    let mut rng = Rng64::seed_from_u64(settings.seed);
    let mut model = CostModel::new();
    let mut measured: Vec<(Schedule, f64)> = Vec::new();
    let mut history = Vec::new();

    let measure = |sched: &Schedule, measured: &mut Vec<(Schedule, f64)>| -> Result<(), Error> {
        let mut best = f64::MAX;
        for _ in 0..settings.reps.max(1) {
            let start = Instant::now();
            let out = try_conv_ndirect_with(pool, input, filter, shape, sched)?;
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        measured.push((sched.clone(), shape.gflops(best)));
        Ok(())
    };

    // Round 0: random population.
    let init = settings.population.min(settings.trials).max(1);
    for _ in 0..init {
        let s = random_schedule(&space, shape, &mut rng);
        measure(&s, &mut measured)?;
    }
    let mut best_idx = argmax(&measured);
    history.push((measured.len(), measured[best_idx].1));

    // Evolutionary rounds.
    while measured.len() < settings.trials {
        model.fit(&measured, shape);

        // Breed candidates from the top quartile of measured schedules.
        let mut parents: Vec<usize> = (0..measured.len()).collect();
        parents.sort_by(|&a, &b| measured[b].1.total_cmp(&measured[a].1));
        parents.truncate((measured.len() / 4).max(1));

        let mut pool_candidates: Vec<Schedule> = Vec::with_capacity(settings.pool);
        for i in 0..settings.pool {
            let parent = &measured[parents[i % parents.len()]].0;
            pool_candidates.push(mutate(parent, &space, shape, &mut rng));
        }
        // A dash of exploration.
        for _ in 0..settings.pool / 8 {
            pool_candidates.push(random_schedule(&space, shape, &mut rng));
        }

        // Rank by the model (or keep order if untrained), measure the top.
        if model.is_trained() {
            pool_candidates.sort_by(|a, b| {
                model.predict(b, shape).total_cmp(&model.predict(a, shape))
            });
        }
        let budget_left = settings.trials - measured.len();
        for cand in pool_candidates
            .into_iter()
            .take(settings.measured_per_round.min(budget_left))
        {
            // Skip exact repeats of something already measured.
            if measured.iter().any(|(s, _)| *s == cand) {
                continue;
            }
            measure(&cand, &mut measured)?;
        }
        let new_best = argmax(&measured);
        if measured[new_best].1 > measured[best_idx].1 {
            best_idx = new_best;
        }
        history.push((measured.len(), measured[best_idx].1));
        if history.len() > 10_000 {
            break; // safety valve against repeat-skips starving progress
        }
    }

    Ok(TuneReport {
        best: measured[best_idx].0.clone(),
        best_gflops: measured[best_idx].1,
        trials_used: measured.len(),
        history,
    })
}

/// Index of the best measurement. Callers always measure at least one
/// schedule before ranking; an empty slice degrades to index 0 rather
/// than panicking (it would be caught by the slice index at the use site
/// with a clearer message than an unwrap here).
fn argmax(measured: &[(Schedule, f64)]) -> usize {
    measured
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, ActLayout, FilterLayout};

    fn tiny_problem() -> (ConvShape, Tensor4, Filter) {
        let shape = ConvShape::square(1, 8, 8, 10, 3, 1);
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 1);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 1);
        (shape, input, filter)
    }

    #[test]
    fn tune_respects_trial_budget_and_finds_valid_schedule() {
        let (shape, input, filter) = tiny_problem();
        let pool = StaticPool::new(1);
        let report = tune(&pool, &shape, &input, &filter, &TuneSettings::smoke())
            .expect("valid problem");
        assert!(report.trials_used <= 6 + 2, "budget roughly respected");
        assert!(report.best_gflops > 0.0);
        assert!(report.best.tc <= 8);
    }

    #[test]
    fn tuning_is_reproducible_for_fixed_seed() {
        let (shape, input, filter) = tiny_problem();
        let pool = StaticPool::new(1);
        let a = tune(&pool, &shape, &input, &filter, &TuneSettings::smoke())
            .expect("valid problem");
        let b = tune(&pool, &shape, &input, &filter, &TuneSettings::smoke())
            .expect("valid problem");
        // Timing noise can change the winner, but the candidate *sequence*
        // is seeded; both runs must explore the same number of trials.
        assert_eq!(a.trials_used, b.trials_used);
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let (shape, input, filter) = tiny_problem();
        let pool = StaticPool::new(1);
        let report = tune(&pool, &shape, &input, &filter, &TuneSettings::smoke())
            .expect("valid problem");
        let mut prev = 0.0;
        for (_, g) in &report.history {
            assert!(*g >= prev);
            prev = *g;
        }
    }

    #[test]
    fn tuned_result_computes_correct_convolution() {
        let (shape, input, filter) = tiny_problem();
        let pool = StaticPool::new(1);
        let report = tune(&pool, &shape, &input, &filter, &TuneSettings::smoke())
            .expect("valid problem");
        let got = try_conv_ndirect_with(&pool, &input, &filter, &shape, &report.best)
            .expect("tuned schedule runs");
        let expect = ndirect_baselines_naive(&input, &filter, &shape);
        ndirect_tensor::assert_close(got.as_slice(), expect.as_slice(), 2e-4, "tuned conv");
    }

    // Local shim to avoid a dev-dependency cycle with ndirect-baselines.
    fn ndirect_baselines_naive(
        input: &Tensor4,
        filter: &Filter,
        shape: &ConvShape,
    ) -> Tensor4 {
        let mut out = Tensor4::output_for(shape, ActLayout::Nchw);
        for n in 0..shape.n {
            for k in 0..shape.k {
                for oj in 0..shape.p() {
                    for oi in 0..shape.q() {
                        let mut acc = 0.0;
                        for c in 0..shape.c {
                            for r in 0..shape.r {
                                for s in 0..shape.s {
                                    let ij = (shape.stride * oj + r) as isize
                                        - shape.pad.h as isize;
                                    let ii = (shape.stride * oi + s) as isize
                                        - shape.pad.w as isize;
                                    acc += ndirect_tensor::pad::at_padded(input, n, c, ij, ii)
                                        * filter.at(k, c, r, s);
                                }
                            }
                        }
                        *out.at_mut(n, k, oj, oi) = acc;
                    }
                }
            }
        }
        out
    }
}
