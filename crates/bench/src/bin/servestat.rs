//! `servestat` — render a serve metrics snapshot as an ASCII dashboard,
//! or re-export it for machines.
//!
//! ```text
//! cargo run -p ndirect-serve --example snapshot > results/metrics.json
//! cargo run -p ndirect-bench --bin servestat -- results/metrics.json [mode]
//!
//!   (no mode)   ASCII dashboard: per-stage latency quantiles, outcome
//!               counters, gauges, and a per-model breakdown
//!   --json      re-emit the snapshot as canonical snapshot JSON
//!   --prom      emit Prometheus text exposition format
//! ```
//!
//! The input is any `MetricsSnapshot::to_json` dump of
//! `Server::metrics_snapshot`; the `snapshot` example of `ndirect-serve`
//! prints one from a live server. That the export surface matches
//! `ndirect_serve::METRIC_CATALOG` is asserted by the chaos suite
//! (`crates/serve/tests/chaos.rs`), not here.

use ndirect_probe::metrics::{HistogramSnapshot, MetricKind, MetricsSnapshot};
use ndirect_support::Json;

/// Stage histogram families in pipeline order, with display names.
const STAGES: [(&str, &str); 7] = [
    ("serve_stage_admission_ns", "admission"),
    ("serve_stage_linger_ns", "linger"),
    ("serve_stage_dispatch_ns", "dispatch"),
    ("serve_stage_execute_ns", "execute"),
    ("serve_stage_delivery_ns", "delivery"),
    ("serve_latency_ns", "e2e latency"),
    ("serve_service_ns", "service"),
];

fn usage_exit() -> ! {
    eprintln!("usage: servestat <metrics.json> [--json | --prom]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, mode) = match args.as_slice() {
        [p] => (p.clone(), None),
        [p, m] if m.starts_with("--") => (p.clone(), Some(m.clone())),
        [m, p] if m.starts_with("--") => (p.clone(), Some(m.clone())),
        _ => usage_exit(),
    };

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("servestat: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let json = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("servestat: {path} is not valid JSON: {e:?}");
        std::process::exit(1);
    });
    let snap = MetricsSnapshot::from_json(&json).unwrap_or_else(|e| {
        eprintln!("servestat: {path} is not a metrics snapshot: {e}");
        std::process::exit(1);
    });

    let rendered = match mode.as_deref() {
        None => dashboard(&path, &snap),
        Some("--json") => format!("{}\n", snap.to_json().pretty()),
        Some("--prom") => snap.to_prometheus(),
        Some(other) => {
            eprintln!("servestat: unknown mode {other:?}");
            usage_exit();
        }
    };
    // One write, EPIPE-tolerant: `servestat --prom | head` closing the
    // pipe early is a normal way to consume this output, not an error.
    use std::io::Write;
    if std::io::stdout().write_all(rendered.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

fn quantile_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q) as f64 / 1e6
}

fn dashboard(path: &str, snap: &MetricsSnapshot) -> String {
    use std::fmt::Write;
    let mut o = String::new();
    let _ = writeln!(
        o,
        "servestat: {path} (captured {:.3}s after probe epoch)",
        snap.captured_ns as f64 / 1e9
    );

    let _ = writeln!(o);
    let _ = writeln!(o, "stage latencies (aggregate)");
    let _ = writeln!(
        o,
        "  {:<12} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50 ms", "p99 ms", "p999 ms", "max ms"
    );
    for (name, label) in STAGES {
        let h = snap.histogram(name, &[]).cloned().unwrap_or_default();
        let _ = writeln!(
            o,
            "  {:<12} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            label,
            h.count,
            quantile_ms(&h, 50.0),
            quantile_ms(&h, 99.0),
            quantile_ms(&h, 99.9),
            quantile_ms(&h, 100.0),
        );
    }
    if let Some(h) = snap.histogram("serve_batch_size", &[]) {
        let mean = if h.count > 0 {
            h.sum as f64 / h.count as f64
        } else {
            0.0
        };
        let _ = writeln!(
            o,
            "  {:<12} {:>9} {:>10} {:>10.2} (mean; p99 {})",
            "batch size",
            h.count,
            "",
            mean,
            h.quantile(99.0)
        );
    }

    let _ = writeln!(o);
    let _ = writeln!(o, "counters (aggregate)                     gauges");
    let counters: Vec<(&str, u64)> = snap
        .families
        .iter()
        .filter(|f| f.kind == MetricKind::Counter)
        .filter_map(|f| Some((f.name.as_str(), snap.counter(&f.name, &[])?)))
        .collect();
    let gauges: Vec<(&str, f64)> = snap
        .families
        .iter()
        .filter(|f| f.kind == MetricKind::Gauge)
        .filter_map(|f| Some((f.name.as_str(), snap.gauge(&f.name, &[])?)))
        .collect();
    for i in 0..counters.len().max(gauges.len()) {
        let left = counters
            .get(i)
            .map(|(n, v)| format!("{n:<28} {v:>9}"))
            .unwrap_or_default();
        let right = gauges
            .get(i)
            .map(|(n, v)| format!("{n:<22} {v:>9.2}"))
            .unwrap_or_default();
        let _ = writeln!(o, "  {left:<39} {right}");
    }

    let models = model_names(snap);
    if !models.is_empty() {
        let _ = writeln!(o);
        let _ = writeln!(o, "per model");
        let _ = writeln!(
            o,
            "  {:<16} {:>9} {:>9} {:>9} {:>12}",
            "model", "completed", "failed", "shed", "e2e p99 ms"
        );
        for m in &models {
            let labels: &[(&str, &str)] = &[("model", m.as_str())];
            let p99 = snap
                .histogram("serve_latency_ns", labels)
                .map(|h| quantile_ms(h, 99.0))
                .unwrap_or(0.0);
            let _ = writeln!(
                o,
                "  {:<16} {:>9} {:>9} {:>9} {:>12.3}",
                m,
                snap.counter("serve_completed_total", labels).unwrap_or(0),
                snap.counter("serve_failed_total", labels).unwrap_or(0),
                snap.counter("serve_shed_total", labels).unwrap_or(0),
                p99,
            );
        }
    }
    o
}

/// Distinct `model` label values, registration order.
fn model_names(snap: &MetricsSnapshot) -> Vec<String> {
    let mut names = Vec::new();
    if let Some(f) = snap.family("serve_completed_total") {
        for s in &f.samples {
            for (k, v) in &s.labels {
                if k == "model" && !names.iter().any(|n| n == v) {
                    names.push(v.clone());
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_serve::{ModelDef, ServeConfig, Server};
    use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};

    #[test]
    fn live_snapshot_renders_every_stage_row() {
        let shape = ConvShape::square(1, 4, 8, 6, 3, 1);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 3);
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let model = ModelDef {
            name: "tiny".into(),
            shape,
            filter,
        };
        let server = Server::try_new(config, vec![model]).expect("server");
        for seed in 0..4 {
            let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
            let ticket = server.submit("tiny", input, None).expect("admitted");
            ticket.wait().expect("completed");
        }
        let snap = server.metrics_snapshot();
        server.shutdown();

        let board = dashboard("live", &snap);
        let prom = snap.to_prometheus();
        for (family, label) in STAGES {
            let row = board
                .lines()
                .find_map(|l| l.trim_start().strip_prefix(label))
                .unwrap_or_else(|| panic!("no dashboard row for {label}:\n{board}"));
            let count = row.split_whitespace().next();
            assert_eq!(count, Some("4"), "{label}: one sample per request");
            assert!(
                prom.contains(&format!("{family}_count")),
                "{family} exported"
            );
        }
        assert!(
            board.contains("tiny"),
            "per-model table names the model:\n{board}"
        );
    }
}
