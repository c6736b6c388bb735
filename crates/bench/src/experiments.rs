//! Experiment drivers for Figure 10 (dynamic communication counts) and
//! Table III (performance improvement). The simple and optimized builds
//! are `earthc::Pipeline`'s, with and without the optimizer; the
//! Sequential column is [`earth_sim::run_sequential`].

use crate::render;
use earth_olden::{suite, Benchmark, Preset};
use earth_sim::Stats;
use earthc::Pipeline;

/// One benchmark's Figure 10 data.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Counts for the simple (unoptimized) build; Figure 10's bars are
    /// `read_data`, `write_data` and `blkmov`.
    pub simple: Stats,
    /// Counts for the optimized build.
    pub optimized: Stats,
}

impl Fig10Row {
    /// Optimized total, normalized to simple = 100 (the figure's y-axis).
    pub fn normalized_optimized(&self) -> f64 {
        100.0 * self.optimized.total_comm() as f64 / self.simple.total_comm() as f64
    }
}

/// Measures Figure 10 for every benchmark.
pub fn figure10(preset: Preset, n_nodes: u16) -> Vec<Fig10Row> {
    suite()
        .iter()
        .map(|b| figure10_one(b, preset, n_nodes))
        .collect()
}

/// Measures Figure 10 for one benchmark.
pub fn figure10_one(bench: &Benchmark, preset: Preset, n_nodes: u16) -> Fig10Row {
    let args = (bench.args)(preset);
    let simple = Pipeline::new()
        .nodes(n_nodes)
        .optimizer(None)
        .run_source(bench.source, &args)
        .expect("simple run");
    let optimized = Pipeline::new()
        .nodes(n_nodes)
        .run_source(bench.source, &args)
        .expect("optimized run");
    assert_eq!(simple.ret, optimized.ret, "{}: builds disagree", bench.name);
    Fig10Row {
        bench: bench.name,
        simple: simple.stats,
        optimized: optimized.stats,
    }
}

/// Renders Figure 10 as a table plus ASCII bars.
pub fn render_figure10(rows: &[Fig10Row]) -> String {
    let mut data = Vec::new();
    for r in rows {
        let n = |v: u64| -> String {
            format!("{:.1}", 100.0 * v as f64 / r.simple.total_comm() as f64)
        };
        data.push(vec![
            r.bench.to_string(),
            format!("{:.3}M", r.simple.total_comm() as f64 / 1e6),
            "100.0".into(),
            n(r.simple.read_data),
            n(r.simple.write_data),
            n(r.simple.blkmov),
            format!("{:.1}", r.normalized_optimized()),
            n(r.optimized.read_data),
            n(r.optimized.write_data),
            n(r.optimized.blkmov),
        ]);
    }
    let mut out = render::table(
        &[
            "benchmark",
            "total(simple)",
            "simple",
            "rd",
            "wr",
            "blk",
            "optimized",
            "rd",
            "wr",
            "blk",
        ],
        &data,
    );
    out.push('\n');
    for r in rows {
        let bar = |x: f64| "#".repeat((x / 2.0).round() as usize);
        out.push_str(&format!(
            "{:<10} simple    |{}\n{:<10} optimized |{}\n",
            r.bench,
            bar(100.0),
            "",
            bar(r.normalized_optimized())
        ));
    }
    out
}

/// One `(benchmark, processors)` row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Number of processors for the parallel builds.
    pub procs: u16,
    /// Sequential-C time (ns), same for every `procs`.
    pub sequential_ns: u64,
    /// Simple EARTH-C time (ns).
    pub simple_ns: u64,
    /// Optimized EARTH-C time (ns).
    pub optimized_ns: u64,
}

impl Table3Row {
    /// Speedup of the simple build over sequential.
    pub fn simple_speedup(&self) -> f64 {
        self.sequential_ns as f64 / self.simple_ns as f64
    }

    /// Speedup of the optimized build over sequential.
    pub fn optimized_speedup(&self) -> f64 {
        self.sequential_ns as f64 / self.optimized_ns as f64
    }

    /// Improvement of optimized over simple (the paper's last column).
    pub fn improvement(&self) -> f64 {
        (self.simple_ns as f64 - self.optimized_ns as f64) / self.simple_ns as f64
    }
}

/// Measures Table III for one benchmark over the given processor counts.
pub fn table3_one(bench: &Benchmark, preset: Preset, procs: &[u16]) -> Vec<Table3Row> {
    let args = (bench.args)(preset);
    let prog = earthc::compile_earth_c(bench.source).expect("benchmark source compiles");
    let seq = earth_sim::run_sequential(&prog, "main", &args).expect("sequential run");
    procs
        .iter()
        .map(|&p| {
            let simple = Pipeline::new()
                .nodes(p)
                .optimizer(None)
                .run_source(bench.source, &args)
                .expect("simple run");
            let optimized = Pipeline::new()
                .nodes(p)
                .run_source(bench.source, &args)
                .expect("optimized run");
            assert_eq!(simple.ret, seq.ret, "{}: simple result", bench.name);
            assert_eq!(optimized.ret, seq.ret, "{}: optimized result", bench.name);
            Table3Row {
                bench: bench.name,
                procs: p,
                sequential_ns: seq.time_ns,
                simple_ns: simple.time_ns,
                optimized_ns: optimized.time_ns,
            }
        })
        .collect()
}

/// Measures Table III for the whole suite.
pub fn table3(preset: Preset, procs: &[u16]) -> Vec<Table3Row> {
    suite()
        .iter()
        .flat_map(|b| table3_one(b, preset, procs))
        .collect()
}

/// Renders Table III in the paper's layout.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.to_string(),
                format!("{} procs", r.procs),
                render::secs(r.sequential_ns),
                render::secs(r.simple_ns),
                render::secs(r.optimized_ns),
                format!("{:.2}", r.simple_speedup()),
                format!("{:.2}", r.optimized_speedup()),
                render::pct(r.improvement()),
            ]
        })
        .collect();
    render::table(
        &[
            "Benchmark",
            "",
            "Sequential(s)",
            "Simple(s)",
            "Optimized(s)",
            "Simple-SU",
            "Opt-SU",
            "%impr",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_olden::by_name;

    #[test]
    fn fig10_shape_for_health() {
        let bench = by_name("health").unwrap();
        let row = figure10_one(&bench, Preset::Test, 4);
        assert!(row.normalized_optimized() < 100.0);
        assert!(row.simple.total_comm() > 0);
    }

    #[test]
    fn table3_shape_for_power() {
        let bench = by_name("power").unwrap();
        let rows = table3_one(&bench, Preset::Test, &[1, 2]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.improvement() > -0.05,
                "optimization should not hurt much: {}",
                r.improvement()
            );
        }
    }

    #[test]
    fn render_contains_columns() {
        let bench = by_name("power").unwrap();
        let rows = table3_one(&bench, Preset::Test, &[1]);
        let s = render_table3(&rows);
        assert!(s.contains("%impr"));
        assert!(s.contains("power"));
        let f = figure10_one(&bench, Preset::Test, 2);
        let fs = render_figure10(&[f]);
        assert!(fs.contains("optimized"));
    }

    /// The simple build spreads over 8 nodes without pathology: same
    /// result, and not dramatically slower than on one node. At `Small`
    /// sizes some kernels are latency-bound (true remote ops at 8 nodes
    /// vs pseudo-remote at 1), so this guards against pathological
    /// distribution only; Table III measures the speedup curves.
    #[test]
    fn parallel_speedup_smoke() {
        for bench in suite() {
            let args = (bench.args)(Preset::Small);
            let run = |nodes: u16| {
                Pipeline::new()
                    .nodes(nodes)
                    .optimizer(None)
                    .run_source(bench.source, &args)
                    .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
            };
            let (one, eight) = (run(1), run(8));
            assert_eq!(one.ret, eight.ret, "{}", bench.name);
            assert!(
                (eight.time_ns as f64) < 2.0 * one.time_ns as f64,
                "{}: 8 nodes much slower than 1 ({} vs {})",
                bench.name,
                eight.time_ns,
                one.time_ns
            );
        }
    }
}
