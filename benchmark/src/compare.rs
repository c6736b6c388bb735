//! Sets of runs on disk, and the rule that judges one set against
//! another: each workload × end-to-end metric in its own row, by the
//! bound the benchmark fixed.

use crate::measure::{median, quartiles};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::run::Outcome;
use crate::workloads::NAMES;
use earthc::earth_ir::json::{self, Obj, ObjectExt as _, Value};
use std::collections::BTreeMap;

/// Values of one metric over the runs of a set, with its unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

/// Every run of one workload in a set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Series>,
    pub per_layer: BTreeMap<String, Series>,
}

impl WorkloadRuns {
    /// Adds one run: a traced one feeds `per_layer`, another `end_to_end`.
    pub fn add(&mut self, outcome: &Outcome, traced: bool) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        let into = if traced {
            &mut self.per_layer
        } else {
            &mut self.end_to_end
        };
        for m in &outcome.metrics {
            let series = into.entry(m.name.clone()).or_default();
            series.unit = m.unit.clone();
            series.values.push(m.value);
        }
    }
}

/// One complete set of runs: what `run --out` writes and `compare` reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    pub seed: u64,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

fn series_json(map: &BTreeMap<String, Series>) -> String {
    let mut o = Obj::new();
    for (name, s) in map {
        let values: Vec<String> = s.values.iter().map(|v| json::float(*v)).collect();
        let entry = Obj::new()
            .str("unit", &s.unit)
            .raw("values", &format!("[{}]", values.join(",")))
            .finish();
        o = o.raw(name, &entry);
    }
    o.finish()
}

fn series_from(v: &Value, what: &str) -> Result<BTreeMap<String, Series>, json::JsonError> {
    let mut map = BTreeMap::new();
    for (name, entry) in v.as_object(what)? {
        let entry = entry.as_object(name)?;
        let values = entry
            .get_array("values")?
            .iter()
            .map(|v| match v {
                Value::Float(x) => Ok(*x),
                Value::Int(n) => Ok(*n as f64),
                _ => Err(json::JsonError::shape(format!(
                    "{name}: values must be numbers"
                ))),
            })
            .collect::<Result<_, _>>()?;
        map.insert(
            name.clone(),
            Series {
                unit: entry.get_str("unit")?,
                values,
            },
        );
    }
    Ok(map)
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let mut workloads = Obj::new();
        for (name, w) in &self.workloads {
            let entry = Obj::new()
                .u64("attempted", w.attempted)
                .u64("failed", w.failed)
                .raw("end_to_end", &series_json(&w.end_to_end))
                .raw("per_layer", &series_json(&w.per_layer))
                .finish();
            workloads = workloads.raw(name, &entry);
        }
        Obj::new()
            .u64("seed", self.seed)
            .raw("workloads", &workloads.finish())
            .finish()
    }

    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let parse = || -> Result<ResultSet, json::JsonError> {
            let doc = json::parse(text)?;
            let doc = doc.as_object("result set")?;
            let mut set = ResultSet {
                seed: doc.get_u64("seed")?,
                ..ResultSet::default()
            };
            let missing = || json::JsonError::shape("missing field");
            for (name, w) in doc
                .field("workloads")
                .ok_or_else(missing)?
                .as_object("workloads")?
            {
                let w = w.as_object(name)?;
                set.workloads.insert(
                    name.clone(),
                    WorkloadRuns {
                        attempted: w.get_u64("attempted")?,
                        failed: w.get_u64("failed")?,
                        end_to_end: series_from(
                            w.field("end_to_end").ok_or_else(missing)?,
                            "end_to_end",
                        )?,
                        per_layer: series_from(
                            w.field("per_layer").ok_or_else(missing)?,
                            "per_layer",
                        )?,
                    },
                );
            }
            Ok(set)
        };
        parse().map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The candidate's median is worse than the baseline's by more than
    /// the bound (an exact metric: worse at all).
    Regressed,
    /// The run-to-run spread is wider than the bound (an exact metric:
    /// does not repeat), so the medians cannot tell; not the same as
    /// unchanged.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile distance as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

/// How much worse `candidate`'s median is than `baseline`'s, as a share
/// of the baseline's (negative: better).
pub fn worsening(m: &EndToEnd, baseline: &[f64], candidate: &[f64]) -> f64 {
    let (a, b) = (median(baseline), median(candidate));
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(m: &EndToEnd, baseline: &[f64], candidate: &[f64]) -> Verdict {
    if m.exact {
        // Bound 0, and a value that does not even repeat within a set
        // cannot be compared across sets.
        let repeats = |v: &[f64]| v.iter().all(|x| *x == v[0]);
        return if !repeats(baseline) || !repeats(candidate) {
            Verdict::Unresolved
        } else if worsening(m, baseline, candidate) > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let wide = spread(baseline).max(spread(candidate)) > m.bound;
    if wide {
        let every_run_better = baseline.iter().all(|a| {
            candidate.iter().all(|b| match m.better {
                Better::Lower => b < a,
                Better::Higher => b > a,
            })
        });
        return if every_run_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(m, baseline, candidate) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one row per workload × end-to-end metric and returns whether
/// every row is `ok` and no op failed on either side.
pub fn compare(baseline: &ResultSet, candidate: &ResultSet) -> Result<bool, String> {
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse%", "spread%", "bound%"
    );
    let mut all_ok = true;
    for workload in NAMES {
        let missing = || format!("no `{workload}` in a set");
        let a = baseline.workloads.get(workload).ok_or_else(missing)?;
        let b = candidate.workloads.get(workload).ok_or_else(missing)?;
        if a.failed + b.failed > 0 {
            println!(
                "{workload:<13} ops failed: baseline {} of {}, candidate {} of {}",
                a.failed, a.attempted, b.failed, b.attempted
            );
            all_ok = false;
        }
        for m in &END_TO_END {
            let values = |w: &WorkloadRuns| {
                w.end_to_end
                    .get(m.name)
                    .filter(|s| !s.values.is_empty())
                    .map(|s| s.values.clone())
                    .ok_or(format!("{workload}: no `{}` in a set", m.name))
            };
            let (va, vb) = (values(a)?, values(b)?);
            let verdict = judge(m, &va, &vb);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{workload:<13} {:<15} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>7}  {}",
                m.name,
                median(&va),
                median(&vb),
                100.0 * worsening(m, &va, &vb),
                100.0 * spread(&va).max(spread(&vb)),
                if m.exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}", 100.0 * m.bound)
                },
                verdict.name()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn a_median_beyond_the_bound_regresses_either_direction() {
        let base = [100.0, 101.0, 99.0];
        let shifted = |by: f64| base.map(|v| v + by);
        let p50 = metric("op_p50_ms"); // lower is better
        let bound = 100.0 * p50.bound;
        assert_eq!(judge(p50, &base, &shifted(bound - 1.0)), Verdict::Ok);
        assert_eq!(judge(p50, &base, &shifted(bound + 1.0)), Verdict::Regressed);
        assert_eq!(judge(p50, &base, &shifted(-50.0)), Verdict::Ok);
        let rate = metric("ops_per_s"); // higher is better
        let bound = 100.0 * rate.bound;
        assert_eq!(
            judge(rate, &base, &shifted(-bound - 1.0)),
            Verdict::Regressed
        );
        assert_eq!(judge(rate, &base, &shifted(-bound + 1.0)), Verdict::Ok);
        assert_eq!(judge(rate, &base, &shifted(20.0)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let p50 = metric("op_p50_ms");
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(p50, &noisy, &[100.0, 100.5, 99.5]),
            Verdict::Unresolved
        );
        // ... unless every run of the candidate beats every run of the baseline.
        assert_eq!(judge(p50, &noisy, &[70.0, 71.0, 69.0]), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_have_bound_zero_and_must_repeat() {
        let comm = metric("comm_ops");
        assert_eq!(judge(comm, &[1234.0, 1234.0], &[1234.0]), Verdict::Ok);
        assert_eq!(
            judge(comm, &[1234.0, 1234.0], &[1235.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(comm, &[1234.0], &[1000.0]), Verdict::Ok);
        assert_eq!(
            judge(comm, &[1234.0, 1233.0], &[1234.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_sets_round_trip() {
        let mut set = ResultSet {
            seed: 9,
            ..ResultSet::default()
        };
        let w = set.workloads.entry("sim_run".into()).or_default();
        w.attempted = 200;
        w.end_to_end.insert(
            "op_p50_ms".into(),
            Series {
                unit: "ms".into(),
                values: vec![1.25, 3.0],
            },
        );
        w.per_layer.insert(
            "sim.ops".into(),
            Series {
                unit: "count".into(),
                values: vec![9.0],
            },
        );
        assert_eq!(ResultSet::from_json(&set.to_json()).unwrap(), set);
        assert!(ResultSet::from_json("{}").is_err());
    }
}
