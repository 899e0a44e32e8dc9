//! Shared measurement infrastructure for the figure harness and the
//! `cargo bench` targets (which run on the in-tree [`harness`] — the
//! offline container cannot pull in Criterion).
//!
//! Everything here is about running one convolution workload under one
//! *method* (the paper's term for a convolution implementation) and
//! reporting GFLOPS, with per-method setup (layout conversion, weight
//! packing, tuning) handled the way the paper's methodology (§7.4)
//! prescribes for that method:
//!
//! * `im2col+GEMM`, `nDirect` — no setup excluded; every cost inside the
//!   call is measured (nDirect's filter transform happens on the fly);
//! * `LIBXSMM-like` — layout conversion excluded (the paper measures its
//!   micro-kernels on pre-converted data, Fig. 1b/4) but reported
//!   separately by the breakdown experiment;
//! * `XNNPACK-like` — weights pre-packed at operator-creation time (as in
//!   XNNPACK), the indirection buffer built per call;
//! * `ACL-direct-like` — the naive-parallelization strawman of §3.2:
//!   correct direct convolution parallelized only over `K`;
//! * `Ansor-like` — nDirect's kernel space tuned per shape by the
//!   evolutionary searcher, tuning time excluded (§7.3 excludes Ansor's
//!   search overhead).

// This crate has no business touching raw pointers; the auditor's
// lint-header rule holds that line at compile time.
#![forbid(unsafe_code)]

pub mod harness;
pub mod inner_product;

use std::time::Instant;

use ndirect_autotune::{tune, TuneSettings};
use ndirect_baselines::{blocked, im2col, indirect};
use ndirect_core::{try_conv_ndirect_with, Error, Schedule};
use ndirect_platform::Platform;
use ndirect_support::Json;
use ndirect_tensor::{ActLayout, ConvShape, FilterLayout, Tensor4};
use ndirect_threads::{Grid2, StaticPool};
use ndirect_workloads::make_problem;

/// The convolution implementations compared across the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Im2colGemm,
    Xnnpack,
    Libxsmm,
    NDirect,
    AclDirect,
    AnsorTuned,
}

impl Method {
    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Im2colGemm => "im2col+GEMM",
            Method::Xnnpack => "XNNPACK",
            Method::Libxsmm => "LIBXSMM",
            Method::NDirect => "NDIRECT",
            Method::AclDirect => "ACL_DIRECT",
            Method::AnsorTuned => "Ansor",
        }
    }

    /// The method set of Figures 4, 8 and 9.
    pub const FIG4: [Method; 4] = [
        Method::Im2colGemm,
        Method::Xnnpack,
        Method::Libxsmm,
        Method::NDirect,
    ];
}

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub layer_id: usize,
    pub method: Method,
    pub threads: usize,
    pub batch: usize,
    pub gflops: f64,
}

/// Conversion into the workspace's [`Json`] value, for the result files
/// the `figures` binary writes.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::num(f64::from(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::usize(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

macro_rules! impl_tojson_tuple {
    ($($t:ident : $i:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$i.to_json()),+])
            }
        }
    };
}

impl_tojson_tuple!(A: 0, B: 1);
impl_tojson_tuple!(A: 0, B: 1, C: 2);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl ToJson for Measurement {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("layer_id".into(), Json::usize(self.layer_id)),
            ("method".into(), Json::str(self.method.label())),
            ("threads".into(), Json::usize(self.threads)),
            ("batch".into(), Json::usize(self.batch)),
            ("gflops".into(), Json::num(self.gflops)),
        ])
    }
}

/// Times `f` `reps` times after one warm-up, returning the minimum.
pub fn best_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

/// [`best_seconds`] for a fallible workload: an error comes back instead
/// of a time.
fn try_best_seconds<T>(reps: usize, mut f: impl FnMut() -> Result<T, Error>) -> Result<f64, Error> {
    let mut failed = Ok(());
    let secs = best_seconds(reps, || f().map_err(|e| failed = Err(e)));
    failed.map(|()| secs)
}

/// Runs one `(shape, method)` workload and reports throughput. The nDirect
/// methods' typed errors (an unsupported host ISA, a pool fault) come back
/// instead of a number.
pub fn run_method(
    method: Method,
    shape: &ConvShape,
    pool: &StaticPool,
    platform: &Platform,
    reps: usize,
) -> Result<f64, Error> {
    let p = make_problem(*shape, ActLayout::Nchw, FilterLayout::Kcrs, 0xbe9c4);
    let secs = match method {
        Method::Im2colGemm => best_seconds(reps, || {
            im2col::conv_im2col(pool, &p.input, &p.filter, shape)
        }),
        Method::Xnnpack => {
            let in_nhwc = p.input.to_layout(ActLayout::Nhwc);
            let f_krsc = p.filter.to_layout(FilterLayout::Krsc);
            // Weights packed once (operator creation); indirection buffer
            // built per call (depends on input geometry).
            let weights = indirect::PackedWeights::pack(&f_krsc);
            best_seconds(reps, || {
                let ind = indirect::build_indirection(shape);
                let mut out = Tensor4::output_for(shape, ActLayout::Nhwc);
                indirect::conv_indirect_prepacked(pool, &in_nhwc, &weights, &ind, shape, &mut out);
                out
            })
        }
        Method::Libxsmm => {
            let ops = blocked::prepare_blocked(&p.input, &p.filter, shape);
            best_seconds(reps, || blocked::conv_blocked(pool, &ops.input, &ops.filter, shape))
        }
        Method::NDirect => {
            let sched = Schedule::derive(platform, shape, pool.size());
            try_best_seconds(reps, || {
                try_conv_ndirect_with(pool, &p.input, &p.filter, shape, &sched)
            })?
        }
        Method::AclDirect => {
            // §3.2's failure mode: parallelize only K, sequential batches.
            let mut sched = Schedule::derive(platform, shape, pool.size());
            sched.grid = Grid2::new(1, pool.size());
            try_best_seconds(reps, || {
                try_conv_ndirect_with(pool, &p.input, &p.filter, shape, &sched)
            })?
        }
        Method::AnsorTuned => {
            let settings = tune_settings_for_budget(reps);
            let report = tune(pool, shape, &p.input, &p.filter, &settings)?;
            try_best_seconds(reps, || {
                try_conv_ndirect_with(pool, &p.input, &p.filter, shape, &report.best)
            })?
        }
    };
    Ok(shape.gflops(secs))
}

/// Tuning budget: modest by default so the harness completes on a laptop;
/// the paper's 1,000-trial budget is available via `figures --paper-trials`.
pub fn tune_settings_for_budget(reps: usize) -> TuneSettings {
    TuneSettings {
        trials: 16,
        population: 8,
        pool: 32,
        measured_per_round: 4,
        reps: reps.min(2),
        seed: 0xa45,
    }
}

/// Formats a GFLOPS table: one row per layer, one column per method.
pub fn format_table(
    title: &str,
    methods: &[Method],
    rows: &[(usize, Vec<f64>)],
    peak_for_pct: Option<f64>,
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "### {title}");
    let _ = write!(s, "{:>5} ", "layer");
    for m in methods {
        let _ = write!(s, "{:>14} ", m.label());
    }
    if peak_for_pct.is_some() {
        let _ = write!(s, "{:>10}", "%peak(nD)");
    }
    let _ = writeln!(s);
    let mut geo: Vec<f64> = vec![0.0; methods.len()];
    for (id, vals) in rows {
        let _ = write!(s, "{id:>5} ");
        for (i, v) in vals.iter().enumerate() {
            let _ = write!(s, "{v:>14.2} ");
            geo[i] += v.max(1e-9).ln();
        }
        if let Some(peak) = peak_for_pct {
            if let Some(last) = vals.last() {
                let _ = write!(s, "{:>9.1}%", 100.0 * last / peak);
            }
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:>5} ", "Geo");
    for g in &geo {
        let _ = write!(s, "{:>14.2} ", (g / rows.len().max(1) as f64).exp());
    }
    let _ = writeln!(s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_platform::host;

    #[test]
    fn best_seconds_returns_minimum_positive() {
        let s = best_seconds(3, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        assert!((0.0..1.0).contains(&s));
    }

    #[test]
    fn every_method_measures_a_small_layer() {
        let shape = ConvShape::square(1, 8, 8, 10, 3, 1);
        let pool = StaticPool::new(1);
        let platform = host();
        for m in [
            Method::Im2colGemm,
            Method::Xnnpack,
            Method::Libxsmm,
            Method::NDirect,
            Method::AclDirect,
        ] {
            let g = run_method(m, &shape, &pool, &platform, 1).expect("valid problem");
            assert!(g > 0.0, "{m:?}");
        }
    }

    #[test]
    fn tuned_method_measures_too() {
        // Separate (slower) case: runs a real 6-trial search first.
        let shape = ConvShape::square(1, 4, 4, 8, 3, 1);
        let pool = StaticPool::new(1);
        let g = run_method(Method::AnsorTuned, &shape, &pool, &host(), 1).expect("valid problem");
        assert!(g > 0.0);
    }

    #[test]
    fn acl_method_uses_all_k_grid() {
        // With >1 threads the ACL strawman pins ptn = 1.
        let shape = ConvShape::square(2, 4, 8, 8, 3, 1);
        let pool = StaticPool::new(2);
        let g = run_method(Method::AclDirect, &shape, &pool, &host(), 1).expect("valid problem");
        assert!(g > 0.0);
    }

    #[test]
    fn table_formatting_includes_geomean() {
        let rows = vec![(1, vec![10.0, 20.0]), (2, vec![40.0, 80.0])];
        let t = format_table("t", &[Method::Im2colGemm, Method::NDirect], &rows, Some(100.0));
        assert!(t.contains("Geo"));
        assert!(t.contains("im2col+GEMM"));
        assert!(t.contains("20.00"), "{t}");
        // Geomean of 10 and 40 = 20.
        assert!(t.lines().last().unwrap().contains("20.00"));
    }
}
