//! The workspace's own micro-benchmark harness.
//!
//! The container builds fully offline, so the benches cannot pull in
//! Criterion; this module provides the small slice of its API the bench
//! files actually use — groups, per-case `Bencher::iter`, element/byte
//! throughput — implemented over [`crate::best_seconds`] (one warm-up,
//! report the minimum). Bench files register their entry points with the
//! [`bench_group!`](crate::bench_group) / [`bench_main!`](crate::bench_main)
//! macros and run under `cargo bench` exactly as before.
//!
//! Setting `NDIRECT_BENCH_JSON=<path>` additionally appends one JSON line
//! per measured case to `<path>` (creating it on first write), so a bench
//! sweep can be post-processed without scraping the human-readable table.
//! Each line is a self-contained object:
//!
//! ```json
//! {"schema_version": 1, "kind": "ndirect-bench-case", "group": "...",
//!  "case": "...", "secs": 1.2e-3, "elements": 1000, "gelem_s": 0.83}
//! ```
//!
//! (`elements`/`gelem_s` become `bytes`/`gib_s` for byte throughput, and
//! are omitted when the group declared no throughput.)

use std::io::Write;

use crate::best_seconds;
use ndirect_support::Json;

/// Schema stamp on every `NDIRECT_BENCH_JSON` line; the `kind` field is
/// `"ndirect-bench-case"` so the lines are distinguishable from BENCH
/// suites if files get mixed up.
pub const BENCH_CASE_SCHEMA_VERSION: usize = 1;

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
        if let Ok(path) = std::env::var("NDIRECT_BENCH_JSON") {
            if !path.is_empty() {
                append_json_line(&path, self.case_json(label, secs));
            }
        }
    }

    /// One measured case as a self-contained JSON object (one line of the
    /// `NDIRECT_BENCH_JSON` sidecar).
    fn case_json(&self, label: &str, secs: f64) -> Json {
        let mut members = vec![
            (
                "schema_version".to_owned(),
                Json::usize(BENCH_CASE_SCHEMA_VERSION),
            ),
            ("kind".to_owned(), Json::str("ndirect-bench-case")),
            ("group".to_owned(), Json::str(self.name.clone())),
            ("case".to_owned(), Json::str(label)),
            ("secs".to_owned(), Json::num(secs)),
        ];
        match self.throughput {
            Some(Throughput::Elements(n)) => {
                members.push(("elements".to_owned(), Json::num(n as f64)));
                members.push(("gelem_s".to_owned(), Json::num(n as f64 / secs / 1e9)));
            }
            Some(Throughput::Bytes(n)) => {
                members.push(("bytes".to_owned(), Json::num(n as f64)));
                members.push((
                    "gib_s".to_owned(),
                    Json::num(n as f64 / secs / (1u64 << 30) as f64),
                ));
            }
            None => {}
        }
        Json::Obj(members)
    }
}

/// Appends `value` as one compact line to `path`, creating parent
/// directories and the file as needed. Failures are reported to stderr
/// but never abort a bench run — the sidecar is an optional convenience.
fn append_json_line(path: &str, value: Json) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        // One `write` per line: appends from concurrent cases must not
        // interleave mid-line.
        .and_then(|mut f| f.write_all(format!("{}\n", value.compact()).as_bytes()));
    if let Err(e) = result {
        eprintln!("NDIRECT_BENCH_JSON: cannot append to {path}: {e}");
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
    fn json_sidecar_appends_one_wellformed_line_per_case() {
        let path = std::env::temp_dir().join(format!(
            "ndirect_bench_json_sidecar_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("NDIRECT_BENCH_JSON", &path);
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("sidecar_selftest");
        g.sample_size(2);
        g.throughput(Throughput::Bytes(1 << 20));
        g.bench_function("copy", |b| b.iter(|| std::hint::black_box(vec![0u8; 64])));
        g.bench_function("fill", |b| b.iter(|| std::hint::black_box([1u8; 64])));
        g.finish();
        std::env::remove_var("NDIRECT_BENCH_JSON");

        let text = std::fs::read_to_string(&path).expect("sidecar written");
        let _ = std::fs::remove_file(&path);
        // Other tests in this process may interleave lines while the env
        // var is set; key on this test's unique group name.
        let mine: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("every line parses standalone"))
            .filter(|j| j.get("group").and_then(Json::as_str) == Some("sidecar_selftest"))
            .collect();
        assert_eq!(mine.len(), 2);
        for line in &mine {
            assert_eq!(
                line.get("kind").and_then(Json::as_str),
                Some("ndirect-bench-case")
            );
            assert_eq!(
                line.usize_field("schema_version").unwrap(),
                BENCH_CASE_SCHEMA_VERSION
            );
            assert!(line.require("secs").unwrap().as_f64().unwrap() > 0.0);
            assert!(line.require("gib_s").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(
                line.require("bytes").unwrap().as_f64().unwrap(),
                (1u64 << 20) as f64
            );
        }
        let cases: Vec<&str> = mine
            .iter()
            .map(|l| l.get("case").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(cases, ["copy", "fill"]);
    }

    #[test]
    fn time_formatting_picks_sane_units() {
        assert!(fmt_time(2.5e-9).contains("ns"));
        assert!(fmt_time(2.5e-5).contains("µs"));
        assert!(fmt_time(2.5e-2).contains("ms"));
        assert!(fmt_time(2.5).contains("s"));
    }
}
