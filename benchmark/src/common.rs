//! What the six workloads share: the run's arguments and result, repeated
//! set-up, peak memory, and the output checks.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ndirect_tensor::Tensor4;

use crate::stats;
use crate::trace::Trace;

/// Kernel pools are pinned to one thread in every timed run: on a shared
/// 2-vCPU box a 2-thread fork-join's median moves by half between
/// identical runs, a 1-thread one by a few percent.
pub const KERNEL_THREADS: usize = 1;

/// Spans kept per traced run; a serve run makes three per request.
pub const TRACE_CAPACITY: usize = 400_000;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace_<workload>.json` goes.
    pub out: PathBuf,
}

impl RunArgs {
    /// The timed window. A traced run splits `--seconds` in two: the first
    /// half untraced, as the reference for `trace.overhead_pct`, the second
    /// with spans.
    pub fn window(&self) -> Until {
        Until::Elapsed(Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }))
    }
}

/// When a loop of operations stops: after so many, or once so much time
/// has passed. Checked after each operation, so a loop always runs one.
#[derive(Clone, Copy)]
pub enum Until {
    Ops(u64),
    Elapsed(Duration),
}

impl Until {
    pub fn reached(self, ops: u64, start: Instant) -> bool {
        match self {
            Until::Ops(n) => ops >= n,
            Until::Elapsed(budget) => start.elapsed() >= budget,
        }
    }
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations plus output checks.
    pub attempted: u64,
    /// Operations that errored, were refused or came late, plus checks
    /// that missed.
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    /// Lines for the reader: sample counts, what a check compared.
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// What tracing cost: upper-quartile operation time with spans against
    /// without, and the untraced median the per-layer numbers add up to.
    pub fn set_trace_overhead(&mut self, untraced_p50: f64, untraced_p75: f64, traced_p75: f64) {
        self.set("trace.untraced_latency_ms_p50", untraced_p50);
        self.set(
            "trace.overhead_pct",
            100.0 * (traced_p75 - untraced_p75) / untraced_p75,
        );
    }

    /// Counts one output check; a miss is a failed operation.
    pub fn check(&mut self, what: &str, verdict: Result<String, String>) {
        self.attempted += 1;
        match verdict {
            Ok(detail) => self.note(format!("check ok: {what}: {detail}")),
            Err(detail) => {
                self.failed += 1;
                self.note(format!("CHECK FAILED: {what}: {detail}"));
            }
        }
    }
}

/// One pass through the program's set-up calls: wall time inside
/// `StaticPool::new`, inside the plan/server construction, and what they
/// built. The benchmark's own weight and input generation is outside both.
pub struct Built<T> {
    pub pool_spawn: Duration,
    pub construct: Duration,
    pub value: T,
}

pub struct Setup<T> {
    /// Median over the repetitions, seconds.
    pub setup_s: f64,
    pub pool_spawn_ms: f64,
    pub construct_ms: f64,
    /// What the last repetition built; the run uses it.
    pub value: T,
}

/// Sets up several times — each repetition from nothing, the previous one
/// dropped first — and reports the median, so that one descheduled
/// millisecond does not decide `setup_s`. Cheap set-ups repeat more:
/// between 3 and 50 times, aiming at half a second in total.
pub fn repeat_setup<T>(mut build: impl FnMut() -> Built<T>) -> Setup<T> {
    let mut last = build();
    let total = |b: &Built<T>| (b.pool_spawn + b.construct).as_secs_f64();
    let reps = ((0.5 / total(&last).max(1e-6)) as usize).clamp(3, 50);
    let (mut sums, mut spawns, mut constructs) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        if rep > 0 {
            // Drop before rebuilding: two live copies would double the
            // peak memory the run reports.
            drop(last);
            last = build();
        }
        sums.push(total(&last));
        spawns.push(last.pool_spawn.as_secs_f64() * 1e3);
        constructs.push(last.construct.as_secs_f64() * 1e3);
    }
    Setup {
        setup_s: stats::median(&sums),
        pool_spawn_ms: stats::median(&spawns),
        construct_ms: stats::median(&constructs),
        value: last.value,
    }
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Peak resident set of this process (`VmHWM`), MiB. Read after the timed
/// window and before the output checks, so the oracle's buffers are not
/// counted.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// ULP distance between two finite f32s via the lexicographic order of
/// IEEE bits; values straddling zero are charged both distances from zero.
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn order(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            -i64::from(bits & i32::MAX)
        } else {
            i64::from(bits)
        }
    }
    order(a).abs_diff(order(b))
}

/// The budget `crates/baselines/tests/conformance.rs` allows between the
/// naive oracle and direct convolution: 4096 ULP, with differences under
/// an absolute floor forgiven (cancellation parks tiny sums on either side
/// of zero). The conformance shapes reduce over at most 288 products and
/// stay near unit scale, where a floor of 1e-6 does; Table-4 rows reduce
/// over up to 4608 products and reach |y| ≈ 100, where two orders of f32
/// summation were measured up to 2.6e-4 apart. The floor here is 1e-5 of
/// the oracle's largest magnitude: 4x that, and far below any wrong tap.
pub const ULP_BUDGET: u64 = 4096;
const ABS_FLOOR_PER_UNIT: f32 = 1e-5;

/// Checks `got` against the oracle's `want`.
pub fn check_ulp(got: &[f32], want: &[f32]) -> Result<String, String> {
    if got.len() != want.len() {
        return Err(format!("{} values, oracle has {}", got.len(), want.len()));
    }
    let scale = want.iter().fold(1.0f32, |m, w| m.max(w.abs()));
    let floor = ABS_FLOOR_PER_UNIT * scale;
    let mut worst = 0;
    for (&g, &w) in got.iter().zip(want) {
        if !g.is_finite() {
            return Err(format!("non-finite output {g}"));
        }
        if (g - w).abs() > floor {
            worst = worst.max(ulp_distance(g, w));
        }
    }
    if worst <= ULP_BUDGET {
        Ok(format!(
            "max {worst} ULP (budget {ULP_BUDGET}, abs floor {floor:.2e})"
        ))
    } else {
        Err(format!(
            "max {worst} ULP exceeds budget {ULP_BUDGET} (abs floor {floor:.2e})"
        ))
    }
}

/// Checks class probabilities against a second backend's: same top class,
/// no probability further than 1e-4 away.
pub fn check_probabilities(got: &Tensor4, want: &Tensor4) -> Result<String, String> {
    if got.dims() != want.dims() {
        return Err(format!(
            "dims {:?}, oracle has {:?}",
            got.dims(),
            want.dims()
        ));
    }
    let argmax = |t: &Tensor4| {
        t.as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    };
    let diff = ndirect_tensor::max_abs_diff(got.as_slice(), want.as_slice());
    let (top, top_want) = (argmax(got), argmax(want));
    let top_p = top.map_or(f32::NAN, |i| got.as_slice()[i]);
    if !got.as_slice().iter().all(|p| p.is_finite()) {
        Err("non-finite probability".into())
    } else if top != top_want {
        Err(format!("top class {top:?}, oracle says {top_want:?}"))
    } else if diff > 1e-4 {
        Err(format!("max abs diff {diff:.3e} > 1e-4"))
    } else {
        Ok(format!(
            "same top class {top:?} (p = {top_p:.4}), max abs diff {diff:.3e} <= 1e-4"
        ))
    }
}

/// Checks two tensors bit for bit.
pub fn check_bitwise(got: &Tensor4, want: &Tensor4) -> Result<String, String> {
    let same = got.dims() == want.dims()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(format!("{} values equal bit for bit", got.len()))
    } else {
        Err("outputs differ".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::ActLayout;

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 3)), 3);
        assert_eq!(ulp_distance(-0.0, 0.0), 0);
        assert_eq!(ulp_distance(1.5, 1.0), ulp_distance(1.0, 1.5));
    }

    /// The demonstration the acceptance criteria ask for: a reference
    /// perturbed on purpose makes the check miss, the miss counts as a
    /// failed operation, and a run with a failed operation is not correct.
    #[test]
    fn a_perturbed_reference_fails_the_check_and_the_run() {
        let want: Vec<f32> = (0..64).map(|i| 0.5 + i as f32).collect();
        let mut outcome = Outcome::default();
        outcome.check("exact copy", check_ulp(&want, &want));
        assert_eq!((outcome.attempted, outcome.failed), (1, 0));

        let mut perturbed = want.clone();
        perturbed[17] *= 1.01;
        outcome.check("perturbed", check_ulp(&want, &perturbed));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert!(outcome.notes.last().unwrap().starts_with("CHECK FAILED"));
        assert_ne!(crate::exit_code(&outcome), 0);
    }

    #[test]
    fn small_differences_near_zero_are_forgiven_large_ones_are_not() {
        assert!(check_ulp(&[1e-7, 8.0], &[-1e-7, 8.0]).is_ok());
        assert!(check_ulp(&[1e-3, 8.0], &[-1e-3, 8.0]).is_err());
        assert!(check_ulp(&[f32::NAN], &[0.0]).is_err());
        assert!(check_ulp(&[0.0], &[0.0, 0.0]).is_err());
    }

    #[test]
    fn probability_and_bitwise_checks() {
        let mut a = Tensor4::zeros(1, 4, 1, 1, ActLayout::Nchw);
        a.as_mut_slice().copy_from_slice(&[0.1, 0.6, 0.2, 0.1]);
        let mut b = a.clone();
        assert!(check_probabilities(&a, &b).is_ok());
        assert!(check_bitwise(&a, &b).is_ok());
        b.as_mut_slice()[0] += 5e-5;
        assert!(check_probabilities(&a, &b).is_ok());
        assert!(check_bitwise(&a, &b).is_err());
        b.as_mut_slice().copy_from_slice(&[0.6, 0.1, 0.2, 0.1]);
        assert!(check_probabilities(&a, &b).is_err());
    }

    #[test]
    fn repeated_setup_reports_the_median_and_keeps_the_last_build() {
        let mut calls = 0u32;
        let setup = repeat_setup(|| {
            calls += 1;
            Built {
                pool_spawn: Duration::from_millis(100),
                construct: Duration::from_millis(if calls == 2 { 900 } else { 100 }),
                value: calls,
            }
        });
        assert_eq!(
            setup.value, 3,
            "0.2 s per set-up repeats the minimum 3 times"
        );
        assert!((setup.setup_s - 0.2).abs() < 1e-9);
        assert!((setup.construct_ms - 100.0).abs() < 1e-9);
        assert!(peak_rss_mib() > 0.0);
    }
}
