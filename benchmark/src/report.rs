//! The line one run prints, the `result.json` a set of runs writes, and the
//! comparison of two such files under the benchmark's bounds.

use ndirect_support::Json;

use crate::common::{Outcome, KERNEL_THREADS};
use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};

/// The last line of a run's standard output: every end-to-end metric when
/// `trace` is off, every per-layer metric when it is on. A per-layer metric
/// the workload does not exercise reads 0.
pub fn run_line(outcome: &Outcome, trace: bool) -> Json {
    let value_of = |name: &str| {
        outcome
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    let metric = |name: &str, unit: &str, value: f64| {
        assert!(value.is_finite(), "{name} is {value}");
        (
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::str(unit)),
            ]),
        )
    };
    let metrics = if trace {
        PER_LAYER
            .iter()
            .map(|m| metric(m.name, m.unit, value_of(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = value_of(m.name)
                    .unwrap_or_else(|| panic!("the run did not measure {}", m.name));
                metric(m.name, m.unit, value)
            })
            .collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// A run line read back by the process that started the run.
pub struct RunLine {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_run_line(stdout: &str) -> Result<RunLine, String> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let field = |key: &str| json.get(key).ok_or(format!("no {key:?} in the run line"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunLine {
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

/// One workload's numbers over a set of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// Per end-to-end metric, one value per round; the reported value is
    /// their median.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// From the one traced run.
    pub per_layer: Vec<(String, f64)>,
}

/// What `run` writes as `result.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDoc {
    /// A smoke run: one short round, not for claims.
    pub quick: bool,
    /// Everything that must match for two results to be comparable.
    pub provenance: Vec<(String, String)>,
    pub workloads: Vec<WorkloadResult>,
}

pub fn provenance(seed: u64, rounds: usize, seconds: f64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    [
        ("nproc", nproc.to_string()),
        (
            "isa_detected",
            ndirect_simd::runtime::detected_isa().name().into(),
        ),
        (
            "isa_compiled",
            ndirect_simd::runtime::compiled_isa().name().into(),
        ),
        ("rustc", env!("BENCH_RUSTC_VERSION").into()),
        ("rustflags", env!("BENCH_RUSTFLAGS").into()),
        ("kernel_threads", KERNEL_THREADS.to_string()),
        ("seed", seed.to_string()),
        ("rounds", rounds.to_string()),
        ("seconds_per_round", seconds.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

impl ResultDoc {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let end_to_end = w
                    .end_to_end
                    .iter()
                    .map(|(name, rounds)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(median(rounds))),
                                ("unit".into(), Json::str(spec::unit_of(name).unwrap_or(""))),
                                ("spread".into(), Json::Num(iqr_share(rounds))),
                                (
                                    "rounds".into(),
                                    Json::Arr(rounds.iter().map(|&v| Json::Num(v)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect();
                let per_layer = w
                    .per_layer
                    .iter()
                    .map(|(name, value)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*value)),
                                ("unit".into(), Json::str(spec::unit_of(name).unwrap_or(""))),
                            ]),
                        )
                    })
                    .collect();
                (
                    w.name.clone(),
                    Json::Obj(vec![
                        ("attempted".into(), Json::Num(w.attempted as f64)),
                        ("failed".into(), Json::Num(w.failed as f64)),
                        ("end_to_end".into(), Json::Obj(end_to_end)),
                        ("per_layer".into(), Json::Obj(per_layer)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("kind".into(), Json::str("ndirect-benchmark-result")),
            ("quick".into(), Json::Bool(self.quick)),
            (
                "provenance".into(),
                Json::Obj(
                    self.provenance
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                        .collect(),
                ),
            ),
            ("workloads".into(), Json::Obj(workloads)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<ResultDoc, String> {
        if json.get("kind").and_then(Json::as_str) != Some("ndirect-benchmark-result") {
            return Err("not a benchmark result file".into());
        }
        let obj = |j: &Json, key: &str| -> Result<Vec<(String, Json)>, String> {
            j.get(key)
                .and_then(Json::as_obj)
                .map(<[_]>::to_vec)
                .ok_or(format!("no object {key:?}"))
        };
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("no number {key:?}"))
        };
        let workloads = obj(json, "workloads")?
            .into_iter()
            .map(|(name, w)| {
                let end_to_end = obj(&w, "end_to_end")?
                    .into_iter()
                    .map(|(metric, m)| {
                        let rounds = m
                            .get("rounds")
                            .and_then(Json::as_arr)
                            .ok_or(format!("{metric} has no rounds"))?
                            .iter()
                            .map(|v| {
                                v.as_f64()
                                    .ok_or(format!("{metric}: a round is not a number"))
                            })
                            .collect::<Result<Vec<f64>, String>>()?;
                        Ok((metric, rounds))
                    })
                    .collect::<Result<_, String>>()?;
                let per_layer = obj(&w, "per_layer")?
                    .into_iter()
                    .map(|(metric, m)| Ok((metric, num(&m, "value")?)))
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadResult {
                    name,
                    attempted: num(&w, "attempted")? as u64,
                    failed: num(&w, "failed")? as u64,
                    end_to_end,
                    per_layer,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultDoc {
            quick: json
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("no bool \"quick\"")?,
            provenance: obj(json, "provenance")?
                .into_iter()
                .map(|(k, v)| {
                    Ok((
                        k,
                        v.as_str()
                            .ok_or("provenance values are strings")?
                            .to_string(),
                    ))
                })
                .collect::<Result<_, String>>()?,
            workloads,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every round of the second result beats every round of the first.
    Better,
    WithinBound,
    /// The second median is worse than the first by more than the bound.
    Worse,
    /// The rounds of one result spread wider than the bound, so a median
    /// inside or outside it shows nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// Share of the first median by which the second is worse (negative:
    /// better).
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(first: &[f64], second: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (a, b) = (median(first), median(second));
    let worsening = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = iqr_share(first).max(iqr_share(second));
    let verdict = if second.iter().all(|&s| first.iter().all(|&f| beats(s, f))) {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (worsening, spread, verdict)
}

/// Keys of the provenance header on which the two results differ; any
/// makes them incomparable.
pub fn provenance_mismatch(a: &ResultDoc, b: &ResultDoc) -> Vec<String> {
    let mut keys: Vec<&String> = a
        .provenance
        .iter()
        .chain(&b.provenance)
        .map(|(k, _)| k)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let get = |doc: &ResultDoc, key: &str| {
        doc.provenance
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    keys.into_iter()
        .filter(|k| get(a, k) != get(b, k))
        .map(|k| format!("{k}: {:?} vs {:?}", get(a, k), get(b, k)))
        .collect()
}

/// One row per (workload, end-to-end metric) present in both results.
pub fn compare(a: &ResultDoc, b: &ResultDoc) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for m in &END_TO_END {
            let rounds = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map(|(_, r)| r.clone())
            };
            let (Some(first), Some(second)) = (rounds(wa), rounds(wb)) else {
                continue;
            };
            let (worsening, spread, verdict) = judge(&first, &second, m.better, m.bound);
            rows.push(Row {
                workload: wa.name.clone(),
                metric: m.name,
                first: median(&first),
                second: median(&second),
                worsening,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> ResultDoc {
        ResultDoc {
            quick: false,
            provenance: provenance(3, 3, 10.0),
            workloads: vec![WorkloadResult {
                name: "layers_t4".into(),
                attempted: 211,
                failed: 0,
                end_to_end: vec![
                    ("latency_ms_p75".into(), vec![121.5, 119.25, 130.125]),
                    ("gflops_delivered".into(), vec![18.1, 18.3, 17.6]),
                ],
                per_layer: vec![
                    ("core.gflops.t4_01".into(), 17.046875),
                    ("serve.shed".into(), 0.0),
                ],
            }],
        }
    }

    #[test]
    fn result_json_round_trips_through_the_support_parser() {
        let original = doc();
        let text = original.to_json().pretty();
        let parsed = ResultDoc::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
        assert!(ResultDoc::from_json(&Json::parse("{\"kind\":\"other\"}").unwrap()).is_err());
    }

    #[test]
    fn run_line_carries_every_declared_metric_of_its_kind() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            outcome.set(m.name, 1.5);
        }
        outcome.set("core.gflops.t4_01", 17.25);
        let line = run_line(&outcome, false).compact();
        let parsed = parse_run_line(&format!("notes\n{line}")).unwrap();
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
        let names: Vec<&str> = parsed.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());

        let traced = parse_run_line(&run_line(&outcome, true).compact()).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let value = |name: &str| traced.metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(value("core.gflops.t4_01"), 17.25);
        assert_eq!(
            value("serve.shed"),
            0.0,
            "a layer the workload does not run reads 0"
        );
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        let v = |second: &[f64], better| judge(&steady, second, better, 0.10).2;
        assert_eq!(
            v(&[104.0, 105.0, 103.0], Better::Lower),
            Verdict::WithinBound
        );
        assert_eq!(v(&[114.0, 115.0, 113.0], Better::Lower), Verdict::Worse);
        assert_eq!(v(&[114.0, 115.0, 113.0], Better::Higher), Verdict::Better);
        assert_eq!(v(&[90.0, 91.0, 98.0], Better::Lower), Verdict::Better);
        assert_eq!(
            v(&[80.0, 85.0, 120.0, 130.0], Better::Lower),
            Verdict::Unresolved
        );
        let (worsening, _, _) = judge(&steady, &[90.0, 90.5], Better::Higher, 0.10);
        assert!((worsening - 0.1).abs() < 0.01);
    }

    #[test]
    fn results_from_different_set_ups_are_not_comparable() {
        let a = doc();
        let mut b = doc();
        assert!(provenance_mismatch(&a, &b).is_empty());
        assert_eq!(compare(&a, &b).len(), 2);
        b.provenance
            .iter_mut()
            .find(|(k, _)| k == "seed")
            .unwrap()
            .1 = "4".into();
        let diff = provenance_mismatch(&a, &b);
        assert_eq!(diff.len(), 1);
        assert!(diff[0].starts_with("seed"));
    }
}
