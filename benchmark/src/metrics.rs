//! Every metric the benchmark reports: name, unit, direction, and for
//! the end-to-end ones the bound. `BENCHMARK.json` at the repository
//! root states the same table for the driver; a test keeps the two equal.

use crate::corpus::{kernel_names, Mode};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
    /// On the simulator's clock: two runs of the same code must agree to
    /// the last digit, and `compare` checks equality instead of `bound`.
    pub exact: bool,
}

/// Bound written for the exact metrics. `compare` ignores it; it is as
/// small as a bound can usefully be for a reader that applies bounds only.
const EXACT_BOUND: f64 = 0.001;

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("op_p50_ms", "ms", Better::Lower, 0.10, false),
    e2e("op_p90_ms", "ms", Better::Lower, 0.15, false),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10, false),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.10, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, false),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("virt_ms", "sim_ms", Better::Lower, EXACT_BOUND, true),
    e2e("virt_vs_simple", "ratio", Better::Lower, EXACT_BOUND, true),
    e2e("comm_ops", "count", Better::Lower, EXACT_BOUND, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// Stated for the reader of `BENCHMARK.json`; nothing is judged by it,
    /// since a per-layer metric has no bound.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// The per-layer metrics, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &'static str, Better); 54] = [
        // compile path → compile_cold/op_p50_ms (and olden_modes, daemon_churn)
        ("frontend.lex_ms", "ms", Lower),
        ("frontend.parse_ms", "ms", Lower),
        ("frontend.lower_ms", "ms", Lower),
        ("frontend.tokens", "count", Lower),
        ("analysis.locality_ms", "ms", Lower),
        ("analysis.analyze_ms", "ms", Lower),
        ("commopt.optimize_ms", "ms", Lower),
        ("commopt.motions", "count", Higher),
        ("pass.apply_ms", "ms", Lower),
        ("pass.manager_self_ms", "ms", Lower),
        ("pass.analysis_misses", "count", Lower),
        ("ir.pretty_ms", "ms", Lower),
        ("ir.stmts_lowered", "count", Lower),
        ("ir.stmts_optimized", "count", Lower),
        ("sim.codegen_ms", "ms", Lower),
        ("sim.predecode_ms", "ms", Lower),
        // simulator → sim_run/op_p50_ms, sim_run/virt_ms
        ("sim.native_ms", "ms", Lower),
        ("sim.native_ms.power", "ms", Lower),
        ("sim.native_ms.tsp", "ms", Lower),
        ("sim.native_ms.health", "ms", Lower),
        ("sim.native_ms.perimeter", "ms", Lower),
        ("sim.native_ms.voronoi", "ms", Lower),
        ("sim.native_ms.treeadd", "ms", Lower),
        ("sim.native_ns_per_op", "ns", Lower),
        ("sim.ops", "count", Lower),
        ("sim.stall_ms", "sim_ms", Lower),
        ("sim.interp_ns_per_op", "ns", Lower),
        // profile-guided build → olden_modes/op_p50_ms
        ("sim.instrumented_ms", "ms", Lower),
        ("profile.from_trace_ms", "ms", Lower),
        ("profile.sites_matched", "count", Higher),
        ("commopt.pgo_flips", "count", Higher),
        // serving → daemon_warm/cpu_ms_per_op
        ("serve.req_encode_ms", "ms", Lower),
        ("serve.req_decode_ms", "ms", Lower),
        ("serve.resp_encode_ms", "ms", Lower),
        ("serve.resp_decode_ms", "ms", Lower),
        ("ir.json_parse_ms", "ms", Lower),
        ("serve.cache_key_ms", "ms", Lower),
        ("serve.cache_lookup_ms", "ms", Lower),
        ("serve.backend_run_ms", "ms", Lower),
        // Bytes, not a count that repeats: a compile response carries the
        // cold compile's pass report, wall times and all.
        ("serve.frame_bytes", "B", Lower),
        ("serve.hit_ratio", "ratio", Higher),
        ("serve.rejected", "count", Lower),
        // incremental recompile → daemon_churn/cpu_ms_per_op
        ("serve.backend_compile_ms", "ms", Lower),
        ("commopt.incremental_ms", "ms", Lower),
        ("commopt.functions_reoptimized", "count", Lower),
        ("ir.fingerprint_ms", "ms", Lower),
        ("serve.evictions", "count", Lower),
        // both daemon workloads, on the wall clock, gating nothing
        ("serve.rtt_p50_ms", "ms", Lower),
        ("serve.rtt_p90_ms", "ms", Lower),
        ("serve.wall_ms_per_op", "ms", Lower),
        ("serve.cpu_util", "ratio", Higher),
        ("serve.net_residual_ms", "ms", Lower),
        // the tracing itself
        ("trace.overhead_pct", "%", Lower),
        ("trace.unattributed_pct", "%", Lower),
    ];
    let mut all: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    // olden_modes/virt_vs_simple and olden_modes/comm_ops, one row per build
    for (prefix, unit) in [("virt_us", "sim_us"), ("comm", "count")] {
        for kernel in kernel_names() {
            for mode in Mode::ALL {
                all.push(PerLayer {
                    name: format!("{prefix}.{kernel}.{}", mode.name()),
                    unit,
                    better: Lower,
                });
            }
        }
    }
    all
}

/// The per-layer values of one traced run. Every metric is present; one
/// that belongs to a layer the workload never enters stays 0.
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn zeroed() -> Layers {
        Layers(per_layer().into_iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name that is not in [`per_layer`]: a typo in a
    /// workload, not a run-time condition.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthc::earth_ir::json::{self, ObjectExt as _, Value};

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` must say what this module says, or the driver
    /// and `compare` would judge by different rules.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let doc = doc.as_object("BENCHMARK.json").unwrap();
        let rows = |key: &str| -> Vec<Vec<(String, Value)>> {
            doc.get_array(key)
                .unwrap()
                .iter()
                .map(|v| v.as_object(key).unwrap().to_vec())
                .collect()
        };

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(row.get_str("name").unwrap(), m.name);
            assert_eq!(row.get_str("unit").unwrap(), m.unit);
            assert_eq!(row.get_str("better").unwrap(), direction(m.better));
            assert_eq!(row.get_f64("bound").unwrap(), m.bound);
        }

        let layers = rows("per_layer");
        let table = per_layer();
        assert!(table.len() <= 128);
        assert_eq!(layers.len(), table.len());
        for (row, m) in layers.iter().zip(&table) {
            assert_eq!(row.get_str("name").unwrap(), m.name);
            assert_eq!(row.get_str("unit").unwrap(), m.unit);
            assert_eq!(row.get_str("better").unwrap(), direction(m.better));
        }

        let workloads: Vec<String> = rows("workloads")
            .iter()
            .map(|w| w.get_str("name").unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
