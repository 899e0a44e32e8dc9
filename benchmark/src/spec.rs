//! What the benchmark declares: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the root of the repo says the same; a test
//! holds the two together, and another holds both to what a run emits.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "layers_t4",
        why: "11 Table-4 convolutions through ConvPlan, round-robin: core kernels and packing do all the work, models and serve none",
    },
    Workload {
        name: "resnet50_b1",
        why: "whole ResNet-50 at batch 1 through Engine: core is ~94% of wall, so a kernel gain shows at ~0.94x and an engine gain barely",
    },
    Workload {
        name: "vgg16_b1",
        why: "whole VGG-16 at batch 1: the naive FC head and pooling in models::ops are 60-68% of wall, conv under half - the mirror of ResNet-50",
    },
    Workload {
        name: "mobilenet_b1",
        why: "MobileNet-lite at batch 1: depthwise 3x3 + pointwise 1x1 on small tensors, 27 conv nodes in ~10 ms, so per-node engine cost weighs most",
    },
    Workload {
        name: "serve_batched",
        why: "closed loop of 16 outstanding requests over three zoo models, max_batch 8 and 200 us linger: queue, batcher, dispatch and delivery on every request",
    },
    Workload {
        name: "serve_unbatched",
        why: "identical traffic with max_batch 1 and no linger: one kernel call per request, so a batching change must not move this row",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bounds are set from the spread measured on the builder's host (ten runs
/// per workload, see README.md): run-to-run quartile distance is 3-6 % for
/// the timings on a shared 2-vCPU box, so a bound of a tenth would reject
/// the benchmark against itself.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p75",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "gflops_delivered",
        unit: "GFLOP/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// No per-layer metric is gated; the direction is for the reader of
    /// `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Table-4 rows of `layers_t4`, with the metric and span name of each.
pub const T4_LAYERS: [(usize, &str, &str); 11] = [
    (1, "core.gflops.t4_01", "core.execute.t4_01"),
    (3, "core.gflops.t4_03", "core.execute.t4_03"),
    (5, "core.gflops.t4_05", "core.execute.t4_05"),
    (9, "core.gflops.t4_09", "core.execute.t4_09"),
    (10, "core.gflops.t4_10", "core.execute.t4_10"),
    (12, "core.gflops.t4_12", "core.execute.t4_12"),
    (16, "core.gflops.t4_16", "core.execute.t4_16"),
    (17, "core.gflops.t4_17", "core.execute.t4_17"),
    (21, "core.gflops.t4_21", "core.execute.t4_21"),
    (22, "core.gflops.t4_22", "core.execute.t4_22"),
    (28, "core.gflops.t4_28", "core.execute.t4_28"),
];

/// Named `<crate>.<what>`. A metric reads 0 on a workload that does not
/// run that layer (every `serve.*` on `layers_t4`, say).
pub const PER_LAYER: [PerLayer; 63] = [
    higher(T4_LAYERS[0].1, "GFLOP/s"),
    higher(T4_LAYERS[1].1, "GFLOP/s"),
    higher(T4_LAYERS[2].1, "GFLOP/s"),
    higher(T4_LAYERS[3].1, "GFLOP/s"),
    higher(T4_LAYERS[4].1, "GFLOP/s"),
    higher(T4_LAYERS[5].1, "GFLOP/s"),
    higher(T4_LAYERS[6].1, "GFLOP/s"),
    higher(T4_LAYERS[7].1, "GFLOP/s"),
    higher(T4_LAYERS[8].1, "GFLOP/s"),
    higher(T4_LAYERS[9].1, "GFLOP/s"),
    higher(T4_LAYERS[10].1, "GFLOP/s"),
    higher("core.gflops_3x3", "GFLOP/s"),
    higher("core.gflops_1x1", "GFLOP/s"),
    higher("core.gflops_geomean", "GFLOP/s"),
    lower("core.flops", "count"),
    lower("core.pack_bytes_predicted", "B"),
    lower("core.min_traffic_bytes", "B"),
    higher("core.intensity_flop_per_byte", "flop/B"),
    lower("core.plan_build_ms", "ms"),
    lower("models.plan_prepare_ms", "ms"),
    lower("serve.setup_ms", "ms"),
    lower("threads.pool_spawn_ms", "ms"),
    lower("core.oneshot_over_plan", "ratio"),
    lower("core.conv_ms", "ms"),
    higher("core.conv_gflops", "GFLOP/s"),
    lower("core.depthwise_ms", "ms"),
    higher("core.dwpw_fused_speedup", "ratio"),
    higher("core.kernel_only_req_per_s", "1/s"),
    higher("serve.efficiency", "ratio"),
    higher("models.conv_share", "ratio"),
    lower("models.ops.affine_relu_ms", "ms"),
    lower("models.ops.pool_ms", "ms"),
    lower("models.ops.fc_ms", "ms"),
    lower("models.ops.residual_ms", "ms"),
    lower("models.ops.softmax_ms", "ms"),
    lower("tensor.alloc_ms", "ms"),
    lower("models.engine.unattributed_ms", "ms"),
    higher("models.trace_coverage", "ratio"),
    higher("models.engine.conv_fraction", "ratio"),
    higher("serve.req_per_s", "1/s"),
    lower("serve.latency_ms_p99", "ms"),
    lower("serve.stage_admission_us_p50", "us"),
    lower("serve.stage_linger_us_p50", "us"),
    lower("serve.stage_dispatch_us_p50", "us"),
    lower("serve.stage_execute_us_p50", "us"),
    lower("serve.stage_execute_us_p99", "us"),
    lower("serve.stage_delivery_us_p50", "us"),
    lower("serve.latency_us_p50_server", "us"),
    higher("serve.batch_size_mean", "count"),
    lower("serve.batches", "count"),
    higher("serve.completed", "count"),
    lower("serve.shed", "count"),
    lower("serve.late", "count"),
    lower("serve.retries", "count"),
    lower("serve.degraded", "count"),
    lower("serve.submit_call_us_p50", "us"),
    lower("serve.wait_call_us_p50", "us"),
    higher("threads.speedup_2t", "ratio"),
    higher("platform.pct_nominal_peak", "%"),
    lower("trace.overhead_pct", "%"),
    lower("trace.spans", "count"),
    lower("trace.dropped_spans", "count"),
    lower("trace.untraced_latency_ms_p50", "ms"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Unit of a declared metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_support::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name:?} must match [A-Za-z0-9_.-]+");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is declared twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "unit {unit:?} too long");
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` as these tables imply it.
    fn expected_benchmark_json() -> Json {
        let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
        Json::Obj(vec![
            (
                "command".into(),
                strs(&[
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]),
            ),
            ("paths".into(), strs(&["benchmark"])),
            ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
            (
                "workloads".into(),
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(w.name)),
                                ("why".into(), Json::str(w.why)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(m.name)),
                                ("unit".into(), Json::str(m.unit)),
                                ("better".into(), Json::str(m.better.as_str())),
                                ("bound".into(), Json::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer".into(),
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(m.name)),
                                ("unit".into(), Json::str(m.unit)),
                                ("better".into(), Json::str(m.better.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn benchmark_json_declares_exactly_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repo");
        let declared = Json::parse(&text).expect("BENCHMARK.json parses");
        let expected = expected_benchmark_json();
        assert!(
            declared == expected,
            "BENCHMARK.json and benchmark/src/spec.rs disagree; the spec implies:\n{}",
            expected.pretty()
        );
    }
}
