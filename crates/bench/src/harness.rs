//! The workspace's own micro-benchmark harness.
//!
//! The container builds fully offline, so the benches cannot pull in
//! Criterion; this module provides the small slice of its API the bench
//! files actually use — groups, per-case `Bencher::iter`, element/byte
//! throughput — implemented over [`crate::best_seconds`] (one warm-up,
//! report the minimum). Bench files register their entry points with the
//! [`bench_group!`](crate::bench_group) / [`bench_main!`](crate::bench_main)
//! macros and run under `cargo bench` exactly as before.

use crate::best_seconds;

/// How a measured time is converted into a rate for the report line.
pub enum Throughput {
    /// Elements (or FLOPs) processed per iteration — reported as `Gelem/s`.
    Elements(u64),
    /// Bytes moved per iteration — reported as `GiB/s`.
    Bytes(u64),
}

/// A `function/parameter` benchmark label.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// Joins a function name and a parameter into `name/param`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        let function = function.into();
        Self {
            full: format!("{function}/{parameter}"),
        }
    }
}

/// Anything usable as a benchmark label: a string or a [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// The label text.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.full
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The harness root; [`bench_group!`](crate::bench_group) passes one to
/// every registered bench function.
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Opens a named group of related measurements.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\n## {name}");
        BenchmarkGroup {
            name,
            sample_size: 10,
            throughput: None,
        }
    }
}

/// A named set of measurements sharing a sample size and throughput unit.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Timed repetitions per case (the reported time is the minimum).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the per-iteration work used to derive a rate on report lines.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Measures one case.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.into_id();
        let mut b = Bencher {
            reps: self.sample_size,
            best: f64::MAX,
        };
        f(&mut b);
        self.report(&label, b.best);
        self
    }

    /// Measures one case that closes over an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = id.into_id();
        let mut b = Bencher {
            reps: self.sample_size,
            best: f64::MAX,
        };
        f(&mut b, input);
        self.report(&label, b.best);
        self
    }

    /// Ends the group (report lines are printed as cases finish).
    pub fn finish(self) {}

    fn report(&self, label: &str, secs: f64) {
        let mut line = format!("{}/{label:<40} time: {}", self.name, fmt_time(secs));
        match self.throughput {
            Some(Throughput::Elements(n)) => {
                let rate = n as f64 / secs / 1e9;
                line.push_str(&format!("   thrpt: {rate:.2} Gelem/s"));
            }
            Some(Throughput::Bytes(n)) => {
                let rate = n as f64 / secs / (1u64 << 30) as f64;
                line.push_str(&format!("   thrpt: {rate:.2} GiB/s"));
            }
            None => {}
        }
        println!("{line}");
    }
}

/// Runs and times the closure handed to a bench case.
pub struct Bencher {
    reps: usize,
    best: f64,
}

impl Bencher {
    /// Times `f` (`sample_size` repetitions after one warm-up) and records
    /// the minimum.
    pub fn iter<T>(&mut self, f: impl FnMut() -> T) {
        self.best = self.best.min(best_seconds(self.reps, f));
    }
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:8.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:8.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:8.2} ms", secs * 1e3)
    } else {
        format!("{secs:8.3} s ")
    }
}

/// Registers bench functions under one entry point, mirroring the macro
/// shape the bench files were originally written against.
#[macro_export]
macro_rules! bench_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! bench_main {
    ($name:ident) => {
        fn main() {
            $name();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_positive_minimum() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("harness_selftest");
        g.sample_size(3);
        g.throughput(Throughput::Elements(1000));
        let mut ran = 0u32;
        g.bench_function("sum", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box((0..1000u64).sum::<u64>())
            })
        });
        g.bench_with_input(BenchmarkId::new("sum", 7), &7u64, |b, &n| {
            b.iter(|| std::hint::black_box((0..n).sum::<u64>()))
        });
        g.finish();
        // One warm-up + three samples.
        assert_eq!(ran, 4);
    }

    #[test]
    fn time_formatting_picks_sane_units() {
        assert!(fmt_time(2.5e-9).contains("ns"));
        assert!(fmt_time(2.5e-5).contains("µs"));
        assert!(fmt_time(2.5e-2).contains("ms"));
        assert!(fmt_time(2.5).contains("s"));
    }
}
