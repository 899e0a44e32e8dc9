//! `figures` — regenerates every table and figure of the paper's
//! evaluation on the host machine.
//!
//! ```text
//! cargo run -p ndirect-bench --release --bin figures -- [options] <targets...>
//!
//! targets: table3 table4 model alpha fig1a fig1b fig4 fig5 fig6 fig7
//!          fig8 fig9 all
//! options:
//!   --threads N   thread count (default: hardware threads)
//!   --batch N     batch size (default: max(threads, 2); paper: = cores)
//!   --reps N      timed repetitions per point (default 3)
//!   --fast        1 rep, batch 1 — a quick smoke pass
//!   --out DIR     write JSON results (default: results/)
//! ```
//!
//! Absolute numbers are host-specific; EXPERIMENTS.md compares the *shape*
//! of each result against the paper.

use std::collections::HashMap;
use std::io::Write as _;

use ndirect_autotune::tune;
use ndirect_baselines::{blocked, im2col, Im2colBackend};
use ndirect_bench::{format_table, run_method, tune_settings_for_budget, Measurement, Method, ToJson};
use ndirect_core::{try_conv_ndirect_with, PackingMode, Schedule};
use ndirect_models::{resnet101, resnet50, vgg16, vgg19, Engine, NDirectBackend};
use ndirect_platform::{host, kp920, measure_alpha, phytium_2000p, rpi4, thunderx2, Platform};
use ndirect_tensor::{ActLayout, ConvShape, FilterLayout, Tensor4};
use ndirect_threads::StaticPool;
use ndirect_workloads::{fig1_layers, fig4_layers, make_problem, vgg16_layers, LayerConfig};

struct Opts {
    threads: usize,
    batch: usize,
    reps: usize,
    out: String,
    paper_trials: bool,
    /// Optional tuned-schedule cache file: fig6/fig7 reuse schedules from
    /// it and write newly tuned ones back (tune once, reuse forever).
    schedule_cache: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        threads: ndirect_threads::hardware_threads(),
        batch: 0,
        reps: 3,
        out: "results".into(),
        paper_trials: false,
        schedule_cache: None,
    };
    let mut targets = Vec::new();
    let mut it = args.iter();
    fn usage_exit(flag: &str, want: &str) -> ! {
        eprintln!("error: {flag} requires {want} (see `figures --help` header in the source docs)");
        std::process::exit(2);
    }
    fn num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> usize {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage_exit(flag, "a positive integer"))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => opts.threads = num(&mut it, "--threads"),
            "--batch" => opts.batch = num(&mut it, "--batch"),
            "--reps" => opts.reps = num(&mut it, "--reps"),
            "--out" => {
                opts.out = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--out", "a directory path"))
                    .clone()
            }
            "--fast" => {
                opts.reps = 1;
                opts.batch = 1;
            }
            "--paper-trials" => opts.paper_trials = true,
            "--schedule-cache" => {
                opts.schedule_cache = Some(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--schedule-cache", "a file path"))
                        .clone(),
                )
            }
            t => targets.push(t.to_string()),
        }
    }
    if opts.batch == 0 {
        // The paper sets N = number of physical cores (§7.2).
        opts.batch = opts.threads.max(2);
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = ["table3", "table4", "model", "alpha", "fig1a", "fig1b", "fig4", "fig5",
            "fig6", "fig7", "fig8", "fig9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    std::fs::create_dir_all(&opts.out).ok();

    let platform = host();
    println!(
        "host: {} | SIMD backend: {} | threads={} batch={} reps={}",
        platform.name,
        ndirect_simd::backend_name(),
        opts.threads,
        opts.batch,
        opts.reps
    );
    println!("(paper setting: N = physical cores, 64/64/32/4 per machine)\n");

    for t in &targets {
        // Snapshot the probe before each target so the per-target trace
        // sidecar holds only this target's spans and counter deltas.
        let probe_before = ndirect_probe::TraceReport::capture();
        let known = match t.as_str() {
            "table3" => {
                table3();
                true
            }
            "table4" => {
                table4();
                true
            }
            "model" => {
                model_tables();
                true
            }
            "alpha" => {
                alpha_bench();
                true
            }
            "fig1a" => {
                fig1a(&opts);
                true
            }
            "fig1b" => {
                fig1b(&opts, &platform);
                true
            }
            "fig4" => {
                fig4(&opts, &platform);
                true
            }
            "fig5" => {
                fig5(&opts, &platform);
                true
            }
            "fig6" => {
                fig6(&opts, &platform);
                true
            }
            "fig7" => {
                fig7(&opts);
                true
            }
            "fig8" => {
                fig8(&opts, &platform);
                true
            }
            "fig9" => {
                fig9(&opts, &platform);
                true
            }
            "nhwc" => {
                nhwc_extension(&opts, &platform);
                true
            }
            "fastalg" => {
                fast_algorithms(&opts, &platform);
                true
            }
            "int16" => {
                int16_extension(&opts, &platform);
                true
            }
            other => {
                eprintln!("unknown target: {other}");
                false
            }
        };
        if known {
            save_target_trace(&opts, t, &probe_before);
        }
    }
}

/// With `--features probe`, writes `{out}/TRACE_{target}.json` — the
/// Chrome-trace view of what this one target did (spans and counters
/// since `before`) — and honors `NDIRECT_PROBE=1` stderr reporting for
/// every target. A no-op in probe-less builds.
fn save_target_trace(opts: &Opts, target: &str, before: &ndirect_probe::TraceReport) {
    if !ndirect_probe::ENABLED {
        return;
    }
    let delta = ndirect_probe::TraceReport::capture().since(before);
    let path = format!("{}/TRACE_{target}.json", opts.out);
    match std::fs::write(&path, delta.to_chrome_trace().pretty()) {
        Ok(()) => println!("  -> {path} (chrome://tracing)"),
        Err(e) => eprintln!("  !! cannot write {path}: {e}"),
    }
    if ndirect_probe::env_requested() {
        eprintln!("== {target} ==\n{}", delta.render_timeline(100));
    }
}

fn save_json<T: ToJson>(opts: &Opts, name: &str, value: &T) {
    let path = format!("{}/{}.json", opts.out, name);
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let s = value.to_json().pretty();
            let _ = f.write_all(s.as_bytes());
            println!("  -> {path}");
        }
        Err(e) => eprintln!("  !! cannot write {path}: {e}"),
    }
}

// ---------------------------------------------------------------- tables

fn table3() {
    println!("### Table 3: hardware platforms (paper values)");
    println!(
        "{:<15} {:>6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "platform", "cores", "peak GF/s", "GHz", "BW GiB/s", "L1", "L2", "L3"
    );
    for p in [phytium_2000p(), kp920(), thunderx2(), rpi4(), host()] {
        println!(
            "{:<15} {:>6} {:>10.1} {:>10.2} {:>10.2} {:>7}K {:>7}K {:>8}",
            p.name,
            p.cores,
            p.peak_fp32_gflops,
            p.frequency_ghz,
            p.max_bandwidth_gib_s,
            p.cache.l1d / 1024,
            p.cache.l2 / 1024,
            p.cache
                .l3
                .map(|b| format!("{}M", b >> 20))
                .unwrap_or_else(|| "None".into()),
        );
    }
    println!();
}

fn table4() {
    println!("### Table 4: convolution operator configurations");
    println!(
        "{:>3} {:>6} {:>6} {:>5} {:>4} {:>4}  network",
        "ID", "C", "K", "H/W", "R/S", "str"
    );
    for l in fig4_layers() {
        println!(
            "{:>3} {:>6} {:>6} {:>5} {:>4} {:>4}  {:?}",
            l.id, l.c, l.k, l.hw, l.rs, l.stride, l.network
        );
    }
    println!();
}

fn model_tables() {
    println!("### Analytic models (Eqs. 1-6)");
    println!("-- register tiles (Eqs. 3-4), per platform and kernel width:");
    for p in [phytium_2000p(), kp920(), thunderx2(), rpi4(), host()] {
        print!("{:<24}", p.name);
        for s in [1usize, 3, 5, 7] {
            let (vw, vk) = ndirect_core::model::register_tile::optimal_tile(&p.simd, s);
            print!("  S={s}:(Vw={vw:>2},Vk={vk:>2})");
        }
        println!();
    }
    println!("-- cache tiles (Eqs. 1-2) for layer 10 (C128 K128 28x28 3x3):");
    let shape = ConvShape::square(64, 128, 128, 28, 3, 1);
    for p in [phytium_2000p(), kp920(), thunderx2(), rpi4(), host()] {
        let (vw, vk) = ndirect_core::model::register_tile::optimal_tile(&p.simd, 3);
        let t = ndirect_core::model::cache_tiles::derive(&p, &shape, vw, vk);
        println!(
            "{:<24} Tc={:>4} Tk={:>4} Th={:>4}",
            p.name, t.tc, t.tk, t.th
        );
    }
    println!("-- thread grids (Eqs. 5-6) on Phytium 2000+ (64 threads, alpha=2):");
    let p = phytium_2000p();
    for l in fig1_layers() {
        let shape = l.shape(p.cores);
        let g = ndirect_core::model::thread_map::derive(&p, &shape, 64);
        let ideal = ndirect_core::model::thread_map::ideal_ptn(&p, &shape);
        println!(
            "layer {:>2}: PTn x PTk = {:>2} x {:>2}   (ideal PTn = {:>5.1})",
            l.id,
            g.ptn(),
            g.ptk(),
            ideal
        );
    }
    println!();
}

fn alpha_bench() {
    println!("### alpha microbenchmark (Sec. 6.2)");
    let h = host();
    let llc = h.cache.l3.unwrap_or(h.cache.l2);
    let m = measure_alpha(4 * llc, 3);
    println!(
        "streaming {:.3} ns/elem, non-streaming {:.3} ns/elem  =>  alpha = {:.2}\n",
        m.streaming_ns, m.non_streaming_ns, m.alpha
    );
}

// ---------------------------------------------------------------- figures

/// Figure 1a: runtime breakdown of im2col+GEMM and LIBXSMM-style direct
/// convolution when fed NCHW data (single thread, so attribution is exact).
fn fig1a(opts: &Opts) {
    println!("### Fig 1a: % of runtime per step (batch=1, 1 thread)");
    println!(
        "{:>5} | {:>10} {:>10} {:>12} | {:>10} {:>12}",
        "layer", "im2col", "packing", "micro(GEMM)", "transform", "micro(XSMM)"
    );
    let pool = StaticPool::new(1);
    let mut json = Vec::new();
    for l in fig1_layers() {
        let shape = l.shape(1);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 1);
        let (_, sw_gemm) = im2col::conv_im2col_timed(&p.input, &p.filter, &shape);
        let (_, sw_xsmm) = blocked::conv_blocked_timed(&pool, &p.input, &p.filter, &shape);
        let g = |sw: &ndirect_platform::Stopwatch, k: &str| {
            100.0 * sw.get(k).as_secs_f64() / sw.total().as_secs_f64().max(1e-12)
        };
        println!(
            "{:>5} | {:>9.1}% {:>9.1}% {:>11.1}% | {:>9.1}% {:>11.1}%",
            l.id,
            g(&sw_gemm, "im2col"),
            g(&sw_gemm, "packing"),
            g(&sw_gemm, "micro-kernel"),
            g(&sw_xsmm, "transform"),
            g(&sw_xsmm, "micro-kernel"),
        );
        json.push((
            l.id,
            g(&sw_gemm, "im2col"),
            g(&sw_gemm, "packing"),
            g(&sw_gemm, "micro-kernel"),
            g(&sw_xsmm, "transform"),
            g(&sw_xsmm, "micro-kernel"),
        ));
    }
    save_json(opts, "fig1a", &json);
    println!();
}

fn measure_layers(
    layers: &[LayerConfig],
    methods: &[Method],
    opts: &Opts,
    platform: &Platform,
    threads: usize,
    batch: usize,
) -> Vec<(usize, Vec<f64>)> {
    let pool = StaticPool::new(threads);
    layers
        .iter()
        .map(|l| {
            let shape = l.shape(batch);
            let vals = methods
                .iter()
                .map(|&m| run_method(m, &shape, &pool, platform, opts.reps).expect("valid problem"))
                .collect();
            (l.id, vals)
        })
        .collect()
}

fn to_measurements(
    rows: &[(usize, Vec<f64>)],
    methods: &[Method],
    threads: usize,
    batch: usize,
) -> Vec<Measurement> {
    rows.iter()
        .flat_map(|(id, vals)| {
            methods.iter().zip(vals).map(move |(&m, &g)| Measurement {
                layer_id: *id,
                method: m,
                threads,
                batch,
                gflops: g,
            })
        })
        .collect()
}

/// Figure 1b: multi-core CONV performance as % of peak, 5 methods.
fn fig1b(opts: &Opts, platform: &Platform) {
    println!(
        "### Fig 1b: layers 1-20, {} threads, batch {} (% of modeled peak)",
        opts.threads, opts.batch
    );
    let methods = [
        Method::Libxsmm,
        Method::Im2colGemm,
        Method::Xnnpack,
        Method::AclDirect,
        Method::AnsorTuned,
    ];
    let rows = measure_layers(fig1_layers(), &methods, opts, platform, opts.threads, opts.batch);
    let peak = platform.peak_for_threads(opts.threads);
    let pct_rows: Vec<(usize, Vec<f64>)> = rows
        .iter()
        .map(|(id, vals)| (*id, vals.iter().map(|g| 100.0 * g / peak).collect()))
        .collect();
    print!("{}", format_table("percent of peak", &methods, &pct_rows, None));
    save_json(opts, "fig1b", &to_measurements(&rows, &methods, opts.threads, opts.batch));
    println!();
}

/// Figure 4: GFLOPS of the 4 main methods over all 28 layers.
fn fig4(opts: &Opts, platform: &Platform) {
    println!(
        "### Fig 4: layers 1-28, {} threads, batch {} (GFLOPS; last col = nDirect % of peak)",
        opts.threads, opts.batch
    );
    let rows = measure_layers(
        fig4_layers(),
        &Method::FIG4,
        opts,
        platform,
        opts.threads,
        opts.batch,
    );
    print!(
        "{}",
        format_table(
            "GFLOPS",
            &Method::FIG4,
            &rows,
            Some(platform.peak_for_threads(opts.threads)),
        )
    );
    save_json(opts, "fig4", &to_measurements(&rows, &Method::FIG4, opts.threads, opts.batch));
    println!();
}

/// Figure 5: the packing optimization on the VGG layers.
fn fig5(opts: &Opts, platform: &Platform) {
    println!(
        "### Fig 5: fused vs sequential packing, VGG layers 24-28 ({} threads, batch {})",
        opts.threads, opts.batch
    );
    println!(
        "{:>5} {:>16} {:>16} {:>9}",
        "layer", "sequential GF/s", "fused GF/s", "speedup"
    );
    let pool = StaticPool::new(opts.threads);
    let mut json = Vec::new();
    for l in vgg16_layers() {
        let shape = l.shape(opts.batch);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 5);
        let base = Schedule::derive(platform, &shape, opts.threads);
        let mut g = [0.0f64; 2];
        for (i, mode) in [PackingMode::Sequential, PackingMode::Fused].iter().enumerate() {
            let sched = base.with_packing(*mode);
            let secs = ndirect_bench::best_seconds(opts.reps, || {
                try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                    .expect("valid problem")
            });
            g[i] = shape.gflops(secs);
        }
        println!(
            "{:>5} {:>16.2} {:>16.2} {:>8.2}x",
            l.id,
            g[0],
            g[1],
            g[1] / g[0]
        );
        json.push((l.id, g[0], g[1]));
    }
    save_json(opts, "fig5", &json);
    println!();
}

/// Figure 6: nDirect speedup over the Ansor-like tuner, layers 1-20.
fn fig6(opts: &Opts, platform: &Platform) {
    let trials = if opts.paper_trials { 1000 } else { 16 };
    println!(
        "### Fig 6: nDirect speedup over Ansor-like tuned schedules ({} trials/layer)",
        trials
    );
    println!("{:>5} {:>14} {:>14} {:>9}", "layer", "Ansor GF/s", "NDIRECT GF/s", "speedup");
    let pool = StaticPool::new(opts.threads);
    let mut json = Vec::new();
    for l in fig1_layers() {
        let shape = l.shape(opts.batch);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 6);
        let mut settings = tune_settings_for_budget(opts.reps);
        settings.trials = trials;
        let report = tune(&pool, &shape, &p.input, &p.filter, &settings).expect("valid problem");
        let tuned_secs = ndirect_bench::best_seconds(opts.reps, || {
            try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &report.best)
                .expect("valid problem")
        });
        let sched = Schedule::derive(platform, &shape, opts.threads);
        let nd_secs = ndirect_bench::best_seconds(opts.reps, || {
            try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem")
        });
        let (ga, gn) = (shape.gflops(tuned_secs), shape.gflops(nd_secs));
        println!("{:>5} {:>14.2} {:>14.2} {:>8.2}x", l.id, ga, gn, gn / ga);
        json.push((l.id, ga, gn));
    }
    save_json(opts, "fig6", &json);
    println!();
}

/// Figure 7: end-to-end inference, normalized to the Ansor-like backend.
fn fig7(opts: &Opts) {
    println!(
        "### Fig 7: end-to-end inference ({} threads, batch {})",
        opts.threads, opts.batch
    );
    let models = [resnet50(7), resnet101(7), vgg16(7), vgg19(7)];
    let pool = StaticPool::new(opts.threads);
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>16} {:>18} {:>10}",
        "model", "NDIRECT (s)", "ND+fused (s)", "Ansor (s)", "im2col+GEMM (s)", "NDIRECT vs Ansor", "conv %"
    );
    let mut json = Vec::new();
    for model in &models {
        let input = ndirect_tensor::fill::random_tensor(
            Tensor4::zeros(opts.batch, 3, 224, 224, ActLayout::Nchw),
            99,
        );
        // Tune each distinct conv shape once (Ansor methodology: search
        // cost excluded from inference time). A --schedule-cache file makes
        // tuning a one-time cost across harness invocations.
        let mut cache = opts
            .schedule_cache
            .as_ref()
            .and_then(|p| ndirect_autotune::ScheduleCache::load(p).ok())
            .unwrap_or_else(|| ndirect_autotune::ScheduleCache::new("figures fig7"));
        let mut table = HashMap::new();
        for shape in model.conv_shapes(opts.batch) {
            if table.contains_key(&shape) {
                continue;
            }
            if let Some(sched) = cache.get(&shape) {
                table.insert(shape, sched.clone());
                continue;
            }
            let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 7);
            let mut settings = tune_settings_for_budget(1);
            settings.trials = if opts.paper_trials { 64 } else { 8 };
            let report = tune(&pool, &shape, &p.input, &p.filter, &settings)
                .expect("valid problem");
            cache.put(&shape, report.best.clone());
            table.insert(shape, report.best);
        }
        if let Some(path) = &opts.schedule_cache {
            if let Err(e) = cache.save(path) {
                eprintln!("  !! cannot write schedule cache {path}: {e}");
            }
        }
        let tuned = NDirectBackend::tuned(table, "Ansor-like");
        let ndirect = NDirectBackend::host();

        let time_backend = |backend: &dyn ndirect_baselines::Convolution, fuse: bool| {
            let engine = Engine::new(backend, &pool).with_residual_fusion(fuse);
            let mut best = f64::MAX;
            let mut conv_frac = 0.0;
            for _ in 0..opts.reps.max(1) {
                let (out, stats) = engine.run(model, &input);
                std::hint::black_box(out);
                if stats.total.as_secs_f64() < best {
                    best = stats.total.as_secs_f64();
                    conv_frac = stats.conv_fraction();
                }
            }
            (best, conv_frac)
        };
        let (t_nd, frac) = time_backend(&ndirect, false);
        let (t_nd_fused, _) = time_backend(&ndirect, true);
        let (t_ansor, _) = time_backend(&tuned, false);
        let (t_gemm, _) = time_backend(&Im2colBackend, false);
        println!(
            "{:<12} {:>14.3} {:>12.3} {:>12.3} {:>16.3} {:>17.2}x {:>9.1}%",
            model.name,
            t_nd,
            t_nd_fused,
            t_ansor,
            t_gemm,
            t_ansor / t_nd,
            100.0 * frac
        );
        json.push((model.name.clone(), t_nd, t_nd_fused, t_ansor, t_gemm));
    }
    save_json(opts, "fig7", &json);
    println!();
}

/// Figure 8: the embedded-platform experiment (RPi 4 in the paper):
/// single-core and all-core runs of layers 1-20.
fn fig8(opts: &Opts, platform: &Platform) {
    println!("### Fig 8a: single-core, layers 1-20, batch 1");
    let rows = measure_layers(fig1_layers(), &Method::FIG4, opts, platform, 1, 1);
    print!("{}", format_table("GFLOPS (1 thread)", &Method::FIG4, &rows, None));
    save_json(opts, "fig8a", &to_measurements(&rows, &Method::FIG4, 1, 1));

    let threads = opts.threads.max(4);
    println!("### Fig 8b: {threads}-thread, layers 1-20, batch {threads}");
    let rows = measure_layers(fig1_layers(), &Method::FIG4, opts, platform, threads, threads);
    print!("{}", format_table("GFLOPS (multi)", &Method::FIG4, &rows, None));
    save_json(opts, "fig8b", &to_measurements(&rows, &Method::FIG4, threads, threads));
    println!();
}

/// Extension experiment (not a paper figure): nDirect on `NHWC`
/// activations (the `NCHW` loop nest and kernels, with `NHWC` strip packing
/// and output strides) against nDirect on `NCHW` and the NHWC-native
/// XNNPACK-style baseline, layers 1-20.
fn nhwc_extension(opts: &Opts, platform: &Platform) {
    println!(
        "### NHWC extension: native layouts compared ({} threads, batch {})",
        opts.threads, opts.batch
    );
    println!(
        "{:>5} {:>16} {:>16} {:>16}",
        "layer", "NDIRECT nchw", "NDIRECT nhwc", "XNNPACK nhwc"
    );
    let pool = StaticPool::new(opts.threads);
    let mut json = Vec::new();
    for l in fig1_layers() {
        let shape = l.shape(opts.batch);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 77);
        let sched = Schedule::derive(platform, &shape, opts.threads);
        let t_nchw = ndirect_bench::best_seconds(opts.reps, || {
            try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem")
        });
        let in_nhwc = p.input.to_layout(ActLayout::Nhwc);
        let f_krsc = p.filter.to_layout(FilterLayout::Krsc);
        let t_nhwc = ndirect_bench::best_seconds(opts.reps, || {
            ndirect_core::try_conv_ndirect_with(&pool, &in_nhwc, &f_krsc, &shape, &sched)
                .expect("valid problem")
        });
        let t_xnn = ndirect_bench::best_seconds(opts.reps, || {
            ndirect_baselines::indirect::conv_indirect(&pool, &in_nhwc, &f_krsc, &shape)
        });
        let g = |t: f64| shape.gflops(t);
        println!(
            "{:>5} {:>16.2} {:>16.2} {:>16.2}",
            l.id,
            g(t_nchw),
            g(t_nhwc),
            g(t_xnn)
        );
        json.push((l.id, g(t_nchw), g(t_nhwc), g(t_xnn)));
    }
    save_json(opts, "nhwc_extension", &json);
    println!();
}

/// Extension experiment: the fast-algorithm families §2.1 sets aside
/// (Winograd F(2x2,3x3), FFT), measured for throughput, numeric error and
/// workspace against nDirect on the 3x3 stride-1 layers.
fn fast_algorithms(opts: &Opts, platform: &Platform) {
    println!(
        "### Fast algorithms (Winograd / FFT) vs nDirect, 3x3 stride-1 layers ({} threads, batch {})",
        opts.threads, opts.batch
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>11} {:>11} {:>12}",
        "layer", "nDirect GF/s", "Wino GF/s", "FFT GF/s", "Wino err", "FFT err", "Wino ws(MB)"
    );
    let pool = StaticPool::new(opts.threads);
    let mut json = Vec::new();
    for l in fig4_layers()
        .iter()
        .filter(|l| l.rs == 3 && l.stride == 1 && l.hw <= 56)
    {
        let shape = l.shape(opts.batch);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 88);
        let reference = ndirect_baselines::naive::conv_ref(&p.input, &p.filter, &shape);
        let sched = Schedule::derive(platform, &shape, opts.threads);
        let t_nd = ndirect_bench::best_seconds(opts.reps, || {
            try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem")
        });
        let wino = ndirect_baselines::winograd::conv_winograd(&pool, &p.input, &p.filter, &shape);
        let t_wino = ndirect_bench::best_seconds(opts.reps, || {
            ndirect_baselines::winograd::conv_winograd(&pool, &p.input, &p.filter, &shape)
        });
        // FFT is orders of magnitude slower on 3x3; one rep suffices.
        let fftr = ndirect_baselines::fft::conv_fft(&pool, &p.input, &p.filter, &shape);
        let t_fft = ndirect_bench::best_seconds(1, || {
            ndirect_baselines::fft::conv_fft(&pool, &p.input, &p.filter, &shape)
        });
        let err_w = ndirect_tensor::max_rel_diff(wino.as_slice(), reference.as_slice());
        let err_f = ndirect_tensor::max_rel_diff(fftr.as_slice(), reference.as_slice());
        let ws_mb = ndirect_baselines::winograd::winograd_workspace_floats(&shape) as f64 * 4.0
            / (1 << 20) as f64;
        let g = |t: f64| shape.gflops(t);
        println!(
            "{:>5} {:>12.2} {:>12.2} {:>12.2} {:>11.2e} {:>11.2e} {:>12.1}",
            l.id,
            g(t_nd),
            g(t_wino),
            g(t_fft),
            err_w,
            err_f,
            ws_mb
        );
        json.push((l.id, g(t_nd), g(t_wino), g(t_fft), err_w, err_f));
    }
    save_json(opts, "fast_algorithms", &json);
    println!();
}

/// Extension experiment: the INT16 quantized path (§3.3's "other data
/// types") against FP32 nDirect — throughput in effective GOPS (2 ops per
/// MAC, same accounting) plus the induced quantization error.
fn int16_extension(opts: &Opts, platform: &Platform) {
    println!(
        "### INT16 extension: quantized vs FP32 nDirect ({} threads, batch {})",
        opts.threads, opts.batch
    );
    println!(
        "{:>5} {:>14} {:>14} {:>9} {:>12}",
        "layer", "FP32 GF/s", "INT16 GOPS", "ratio", "quant err"
    );
    let pool = StaticPool::new(opts.threads);
    let mut json = Vec::new();
    for l in fig1_layers() {
        let shape = l.shape(opts.batch);
        let p = make_problem(shape, ActLayout::Nchw, FilterLayout::Kcrs, 90);
        let sched = Schedule::derive(platform, &shape, opts.threads);
        let t_f32 = ndirect_bench::best_seconds(opts.reps, || {
            try_conv_ndirect_with(&pool, &p.input, &p.filter, &shape, &sched)
                .expect("valid problem")
        });
        // Quantize once (operator setup), time the integer kernel.
        let reduction = shape.c * shape.r * shape.s;
        let max_code = ndirect_core::quantize::safe_max_code(reduction);
        let qx = ndirect_core::QuantParams::fit(p.input.as_slice(), max_code);
        let qw = ndirect_core::QuantParams::fit(p.filter.as_slice(), max_code);
        let mut qi = ndirect_core::Int16Tensor::zeros(shape.n, shape.c, shape.h, shape.w);
        for (d, &x) in qi.data.iter_mut().zip(p.input.as_slice()) {
            *d = qx.quantize(x);
        }
        let mut qf = ndirect_core::Int16Filter::zeros(shape.k, shape.c, shape.r, shape.s);
        for (d, &x) in qf.data.iter_mut().zip(p.filter.as_slice()) {
            *d = qw.quantize(x);
        }
        let t_i16 = ndirect_bench::best_seconds(opts.reps, || {
            ndirect_core::try_conv_int16(&pool, &qi, &qf, &shape).expect("valid problem")
        });
        let (qout, _, _) = ndirect_core::try_conv_quantized(&pool, &p.input, &p.filter, &shape)
            .expect("valid problem");
        let reference = ndirect_baselines::naive::conv_ref(&p.input, &p.filter, &shape);
        let err = ndirect_tensor::max_rel_diff(qout.as_slice(), reference.as_slice());
        let g = |t: f64| shape.gflops(t);
        println!(
            "{:>5} {:>14.2} {:>14.2} {:>8.2}x {:>12.2e}",
            l.id,
            g(t_f32),
            g(t_i16),
            g(t_i16) / g(t_f32),
            err
        );
        json.push((l.id, g(t_f32), g(t_i16), err));
    }
    save_json(opts, "int16_extension", &json);
    println!();
}

/// Figure 9: hyper-threading — 4 threads per core, batch = logical cores.
fn fig9(opts: &Opts, platform: &Platform) {
    let threads = 4 * ndirect_threads::hardware_threads();
    println!("### Fig 9: SMT oversubscription, {threads} threads, batch {threads}");
    let rows = measure_layers(fig1_layers(), &Method::FIG4, opts, platform, threads, threads);
    print!("{}", format_table("GFLOPS (SMT)", &Method::FIG4, &rows, None));
    save_json(opts, "fig9", &to_measurements(&rows, &Method::FIG4, threads, threads));
    println!();
}
