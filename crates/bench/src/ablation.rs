//! Ablation studies beyond the paper (DESIGN.md §7): isolate the effect of
//! each optimization component, sweep the blocking threshold, and sweep the
//! loop-frequency constant. Every variant is an optimizer configuration
//! of `earthc::Pipeline`.

use earth_olden::{Benchmark, Preset};
use earth_sim::Stats;
use earthc::earth_commopt::{CommOptConfig, FreqModel};
use earthc::Pipeline;

/// A named optimizer configuration.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Short label for tables.
    pub name: String,
    /// The optimizer configuration.
    pub config: CommOptConfig,
}

/// The component-ablation variants: none / redundancy-only / motion /
/// motion+blocking (full).
pub fn component_variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "none".into(),
            config: CommOptConfig::disabled(),
        },
        Variant {
            name: "redundancy".into(),
            config: CommOptConfig {
                enable_motion: false,
                enable_blocking: false,
                ..CommOptConfig::default()
            },
        },
        Variant {
            name: "motion".into(),
            config: CommOptConfig {
                enable_blocking: false,
                ..CommOptConfig::default()
            },
        },
        Variant {
            name: "full".into(),
            config: CommOptConfig::default(),
        },
    ]
}

/// Blocking-threshold sweep variants (2..=6).
pub fn threshold_variants() -> Vec<Variant> {
    (2..=6)
        .map(|t| Variant {
            name: format!("threshold={t}"),
            config: CommOptConfig {
                block_threshold: t,
                ..CommOptConfig::default()
            },
        })
        .collect()
}

/// Loop-frequency sweep variants: with a factor below 1 the hoisting of
/// loop-invariant reads above loops stops paying for single-branch tuples.
pub fn freq_variants() -> Vec<Variant> {
    [0.5, 1.0, 2.0, 10.0, 100.0]
        .into_iter()
        .map(|f| Variant {
            name: format!("loop-freq={f}"),
            config: CommOptConfig {
                freq: FreqModel {
                    loop_factor: f,
                    ..FreqModel::default()
                },
                ..CommOptConfig::default()
            },
        })
        .collect()
}

/// The outcome of one variant on one benchmark.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Variant label.
    pub name: String,
    /// Virtual run time (ns).
    pub time_ns: u64,
    /// Communication counts.
    pub stats: Stats,
}

/// Runs each variant of a benchmark and checks result agreement.
pub fn run_variants(
    bench: &Benchmark,
    variants: &[Variant],
    preset: Preset,
    n_nodes: u16,
) -> Vec<VariantResult> {
    let args = (bench.args)(preset);
    let run = |cfg: Option<CommOptConfig>| {
        Pipeline::new()
            .nodes(n_nodes)
            .optimizer(cfg)
            .run_source(bench.source, &args)
    };
    let baseline = run(None).expect("simple run");
    variants
        .iter()
        .map(|v| {
            let r = run(Some(v.config.clone())).expect("variant run");
            assert_eq!(
                r.ret, baseline.ret,
                "{}: variant `{}` changed the result",
                bench.name, v.name
            );
            VariantResult {
                name: v.name.clone(),
                time_ns: r.time_ns,
                stats: r.stats,
            }
        })
        .collect()
}

/// Renders variant results as a table.
pub fn render_variants(bench: &str, results: &[VariantResult]) -> String {
    let base = results.first().map(|r| r.time_ns as f64).unwrap_or(1.0);
    let data: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                bench.to_string(),
                r.name.clone(),
                crate::render::secs(r.time_ns),
                format!("{:.2}", base / r.time_ns as f64),
                r.stats.total_comm().to_string(),
                r.stats.read_data.to_string(),
                r.stats.write_data.to_string(),
                r.stats.blkmov.to_string(),
            ]
        })
        .collect();
    crate::render::table(
        &[
            "benchmark",
            "variant",
            "time(s)",
            "rel-speed",
            "comm",
            "rd",
            "wr",
            "blk",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_olden::by_name;

    #[test]
    fn component_ablation_is_monotone_in_comm_for_power() {
        let bench = by_name("power").unwrap();
        let results = run_variants(&bench, &component_variants(), Preset::Test, 2);
        // Full optimization must communicate no more than no optimization.
        let none = results.iter().find(|r| r.name == "none").unwrap();
        let full = results.iter().find(|r| r.name == "full").unwrap();
        let (full, none) = (full.stats.total_comm(), none.stats.total_comm());
        assert!(full < none, "{full} !< {none}");
    }

    #[test]
    fn threshold_sweep_changes_blocking() {
        let bench = by_name("perimeter").unwrap();
        let results = run_variants(&bench, &threshold_variants(), Preset::Test, 2);
        let t2 = &results[0];
        let t6 = &results[4];
        assert!(
            t2.stats.blkmov >= t6.stats.blkmov,
            "lower threshold must block at least as much: {} vs {}",
            t2.stats.blkmov,
            t6.stats.blkmov
        );
    }

    #[test]
    fn variants_render() {
        let bench = by_name("health").unwrap();
        let results = run_variants(&bench, &component_variants(), Preset::Test, 2);
        let s = render_variants("health", &results);
        assert!(s.contains("redundancy"));
    }
}
