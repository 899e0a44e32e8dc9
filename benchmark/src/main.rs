//! The repo's one benchmark: Table-4 layers, three whole models and the
//! serve path, each measured from outside by timing calls into public
//! functions. See `benchmark/README.md`.
//!
//! ```text
//! ndirect-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//!     One run of one workload in this process. Prints one line per metric
//!     (`workload metric value unit`), then one JSON object as the last
//!     line: every end-to-end metric with --trace 0, every per-layer metric
//!     with --trace 1 (which also writes DIR/trace_NAME.json).
//!
//! ndirect-benchmark run [--workload NAME|all] [--seed N] [--rounds N]
//!                       [--seconds S] [--quick] [--out DIR]
//!     A set: ROUNDS interleaved rounds (A B C D E F, A B C ...), every run
//!     a fresh child process, round r on seed N + r; one traced run per
//!     workload after its first round. Writes DIR/result.json.
//!
//! ndirect-benchmark compare A.json B.json
//!     Applies the bounds to two result files, row by row.
//! ```
//!
//! Exit code 0: every operation and output check passed. 1: some did not
//! (or `compare` found a row worse). 2: bad usage or incomparable results.

mod common;
mod layers;
mod models;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ndirect_support::Json;

use common::{Outcome, RunArgs};
use report::{ResultDoc, Verdict, WorkloadResult};
use spec::{END_TO_END, WORKLOADS};

fn run_workload(name: &str, args: &RunArgs) -> Outcome {
    match name {
        "layers_t4" => layers::run(args),
        "resnet50_b1" => models::run(models::Zoo::Resnet50, args),
        "vgg16_b1" => models::run(models::Zoo::Vgg16, args),
        "mobilenet_b1" => models::run(models::Zoo::MobilenetLite, args),
        "serve_batched" => serve::run(true, args),
        "serve_unbatched" => serve::run(false, args),
        other => unreachable!("{other} passed the workload check"),
    }
}

/// A run with a failed operation or a missed output check fails the
/// command.
fn exit_code(outcome: &Outcome) -> u8 {
    u8::from(outcome.failed > 0)
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: ndirect-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n\
         \x20      ndirect-benchmark run [--workload NAME|all] [--seed N] [--rounds N] [--seconds S] [--quick] [--out DIR]\n\
         \x20      ndirect-benchmark compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs, plus the valueless `--quick`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            let value = if flag == "--quick" {
                String::new()
            } else {
                it.next().ok_or(format!("{flag} needs a value"))?.clone()
            };
            flags.push((flag.clone(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} {v:?} is not a valid number"))
        })
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }

    fn out(&self) -> PathBuf {
        self.get("--out").map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            PathBuf::from,
        )
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().expect("output files live in a directory");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One run of one workload, in this process.
fn single(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["--workload", "--seed", "--seconds", "--trace", "--out"])?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    if spec::workload(name).is_none() {
        return Err(format!("unknown workload {name:?}"));
    }
    let seconds: f64 = flags.number("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let args = RunArgs {
        seed: flags.number("--seed", 1)?,
        seconds,
        trace: match flags.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
        },
        out: flags.out(),
    };
    println!(
        "# {name}: {}",
        spec::workload(name).expect("checked above").why
    );
    let mut outcome = run_workload(name, &args);
    if let Some((spans, dropped)) = outcome.trace.as_ref().map(|t| (t.spans().len(), t.dropped)) {
        outcome.set("trace.spans", spans as f64);
        outcome.set("trace.dropped_spans", dropped as f64);
    }
    for (metric, value) in &outcome.values {
        let unit = spec::unit_of(metric).unwrap_or_else(|| panic!("{metric} is not declared"));
        println!("{name} {metric} {value} {unit}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# {name}: {} of {} operations and checks failed (failed_share {})",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted as f64
    );
    if let Some(trace) = &outcome.trace {
        let path = args.out.join(format!("trace_{name}.json"));
        write_file(&path, &trace.to_json(name).compact())?;
        println!(
            "# {} spans ({} dropped) -> {}",
            trace.spans().len(),
            trace.dropped,
            path.display()
        );
    }
    println!("{}", report::run_line(&outcome, args.trace).compact());
    Ok(ExitCode::from(exit_code(&outcome)))
}

/// Starts one run as a child process, waits for it, reads its last line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<report::RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for note in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{note}");
    }
    report::parse_run_line(&stdout).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {trace}) exited with {}: {e}",
            output.status
        )
    })
}

/// A set of runs: interleaved rounds, every run a fresh child process with
/// cold plan caches and its own peak memory. Machine speed drifts by up to
/// 15 % over minutes on a shared box; spreading each workload's runs over
/// the whole set turns that drift into common mode.
fn set(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&[
        "--workload",
        "--seed",
        "--rounds",
        "--seconds",
        "--quick",
        "--out",
    ])?;
    let quick = flags.get("--quick").is_some();
    let rounds: usize = flags.number("--rounds", if quick { 1 } else { 3 })?;
    let seconds: f64 = flags.number(
        "--seconds",
        if quick { 1.0 } else { spec::RUN_SECONDS as f64 },
    )?;
    let seed: u64 = flags.number("--seed", 1)?;
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let chosen: Vec<&str> = match flags.get("--workload").unwrap_or("all") {
        "all" => WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![
            spec::workload(one)
                .ok_or(format!("unknown workload {one:?}"))?
                .name,
        ],
    };
    let out = flags.out();
    let mut results: Vec<WorkloadResult> = chosen
        .iter()
        .map(|name| WorkloadResult {
            name: name.to_string(),
            attempted: 0,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), Vec::new()))
                .collect(),
            per_layer: Vec::new(),
        })
        .collect();
    for round in 0..rounds {
        for result in &mut results {
            let mut runs = vec![child_run(
                &result.name,
                seed + round as u64,
                seconds,
                false,
                &out,
            )?];
            if round == 0 {
                runs.push(child_run(&result.name, seed, seconds, true, &out)?);
            }
            for run in &runs {
                result.attempted += run.attempted;
                result.failed += run.failed;
            }
            for (name, value) in &runs[0].metrics {
                let slot = result.end_to_end.iter_mut().find(|(n, _)| n == name);
                slot.ok_or(format!("the run emitted undeclared metric {name}"))?
                    .1
                    .push(*value);
            }
            if let Some(traced) = runs.get(1) {
                result.per_layer = traced.metrics.clone();
            }
        }
    }
    let doc = ResultDoc {
        quick,
        provenance: report::provenance(seed, rounds, seconds),
        workloads: results,
    };
    for w in &doc.workloads {
        for (metric, values) in &w.end_to_end {
            println!(
                "{} {metric} {} {} (median of {} round(s), spread {:.4})",
                w.name,
                stats::median(values),
                spec::unit_of(metric).unwrap_or(""),
                values.len(),
                stats::iqr_share(values)
            );
        }
        for (metric, value) in &w.per_layer {
            println!(
                "{} {metric} {value} {}",
                w.name,
                spec::unit_of(metric).unwrap_or("")
            );
        }
        println!(
            "{} failed_share {} ratio ({} of {})",
            w.name,
            w.failed as f64 / w.attempted as f64,
            w.failed,
            w.attempted
        );
    }
    if quick {
        println!("# --quick: one short round; these numbers are not for claims");
    }
    let path = out.join("result.json");
    write_file(&path, &doc.to_json().pretty())?;
    println!("# -> {}", path.display());
    let failed: u64 = doc.workloads.iter().map(|w| w.failed).sum();
    Ok(ExitCode::from(u8::from(failed > 0)))
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| -> Result<ResultDoc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        ResultDoc::from_json(&json).map_err(|e| format!("{path}: {e}"))
    };
    let (first, second) = (load(a)?, load(b)?);
    let mismatch = report::provenance_mismatch(&first, &second);
    if !mismatch.is_empty() {
        eprintln!("the two results are not comparable; their provenance differs:");
        for line in mismatch {
            eprintln!("  {line}");
        }
        return Ok(ExitCode::from(2));
    }
    if first.quick || second.quick {
        println!("# a --quick result is a smoke test; nothing below is a claim");
    }
    println!(
        "{:<16} {:<17} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worsening", "spread", "bound"
    );
    let rows = report::compare(&first, &second);
    for r in &rows {
        println!(
            "{:<16} {:<17} {:>12.4} {:>12.4} {:>+8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let more_failures: Vec<&str> = first
        .workloads
        .iter()
        .filter(|wa| {
            second.workloads.iter().any(|wb| {
                wb.name == wa.name
                    && wb.failed as f64 / wb.attempted.max(1) as f64
                        > wa.failed as f64 / wa.attempted.max(1) as f64 + 0.001
            })
        })
        .map(|w| w.name.as_str())
        .collect();
    println!(
        "# {} better, {} within bound, {} worse, {} unresolved; failed_share worse on: {}",
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        if more_failures.is_empty() {
            "none".into()
        } else {
            more_failures.join(" ")
        }
    );
    Ok(ExitCode::from(u8::from(
        count(Verdict::Worse) > 0 || !more_failures.is_empty(),
    )))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| set(&f)),
        Some("compare") => compare(&args[1..]),
        _ => Flags::parse(&args).and_then(|f| single(&f)),
    };
    result.unwrap_or_else(|message| usage(&message))
}
