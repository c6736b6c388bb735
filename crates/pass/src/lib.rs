//! # earth-pass — the pass-manager layer of the EARTH-C pipeline
//!
//! The paper's framework is explicitly staged: points-to/connection
//! analysis feeds read/write sets, which feed possible-placement and then
//! communication selection (§3, Fig. 2). This crate turns that staging
//! into an LLVM-style pass/analysis-manager architecture:
//!
//! * a [`Pass`] trait — a named unit of work over the IR that may consume
//!   the shared analysis (through the [`AnalysisCache`]) and must declare
//!   what it invalidated when it mutates the program;
//! * a [`PassManager`] that runs registered passes in order, timing each
//!   one and attributing analysis-cache activity (hits, misses,
//!   per-function recomputes, invalidations) per pass;
//! * a [`PipelineReport`] summarizing the run — renderable as a timings
//!   table (`earthcc run --timings`) or machine-readable JSON
//!   (`--report-json`).
//!
//! The payoff: an `inline → locality → verify → lint →
//! optimize` pipeline performs exactly **one** whole-program analysis
//! instead of one per consumer, and the optimize pass fans per-function
//! placement + selection out across scoped worker threads with a
//! deterministic (FuncId-ordered) merge.
//!
//! # Examples
//!
//! ```
//! use earth_pass::{PassManager, passes};
//! use earth_analysis::AnalysisCache;
//!
//! let mut prog = earth_frontend::compile(r#"
//!     struct Point { double x; double y; };
//!     double distance(Point *p) {
//!         double d;
//!         d = sqrt(p->x * p->x + p->y * p->y);
//!         return d;
//!     }
//! "#).unwrap();
//! let cfg = earth_commopt::CommOptConfig::default();
//! let mut cache = AnalysisCache::new();
//! let mut pm = PassManager::new();
//! pm.register(passes::VerifyPlacementPass::new(cfg.clone()));
//! pm.register(passes::RaceLintPass::new());
//! pm.register(passes::OptimizePass::new(cfg, 1, None));
//! pm.register(passes::ValidateIrPass);
//! let report = pm.run(&mut prog, &mut cache).unwrap();
//! // Three analysis consumers, one whole-program analysis:
//! assert_eq!(report.cache.misses, 1);
//! assert_eq!(report.cache.hits, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod passes;

pub use passes::{
    EscapePass, InlinePass, LocalityPass, OptimizePass, ProbAliasPass, RaceLintPass, SnapshotSlot,
    ValidateIrPass, VerifyPlacementPass,
};

use earth_analysis::{AnalysisCache, CacheStats};
use earth_ir::json::{self, Encode, Obj};
use earth_ir::{Diagnostic, Program};
use std::fmt;
use std::time::{Duration, Instant};

/// A named compilation pass.
///
/// A pass reads and/or mutates the program; whenever it mutates the IR it
/// must invalidate the [`AnalysisCache`] at the appropriate granularity
/// (whole-program for structural changes, per-[`FuncId`](earth_ir::FuncId)
/// for local rewrites) — the cache is how later passes see a consistent
/// analysis without recomputing it.
pub trait Pass {
    /// Stable name used in reports and timings.
    fn name(&self) -> &'static str;

    /// Runs the pass. Record counters and non-fatal diagnostics on
    /// `report`; return `Err` with the offending diagnostics to abort the
    /// pipeline.
    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>>;
}

/// Instrumentation for one executed pass.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Wall-clock time spent in [`Pass::run`].
    pub wall: Duration,
    /// Analysis-cache activity attributed to this pass (delta of the
    /// cache's counters across the run).
    pub cache: CacheStats,
    /// Pass-specific counters (motion counts, inlined calls, …).
    pub counters: Vec<(&'static str, u64)>,
    /// Non-fatal diagnostics the pass produced (lint verdicts, warnings).
    pub diagnostics: Vec<Diagnostic>,
}

impl PassReport {
    /// Appends a named counter.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// Looks up a counter by name.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Wall time of one layer that runs outside the pass manager, taken by the
/// driver around the call it already makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTime {
    /// Row name in the timings table (`lex+parse`, `codegen`, …).
    pub name: &'static str,
    /// Wall-clock time spent in the layer.
    pub wall: Duration,
}

/// The whole pipeline's instrumentation: one [`PassReport`] per executed
/// pass plus the final analysis-cache totals, and — where the driver timed
/// them — the layers on either side of the passes.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Reports in execution order (includes the failing pass, if any).
    pub passes: Vec<PassReport>,
    /// Final cache counters for the whole run.
    pub cache: CacheStats,
    /// Layers that ran before the passes (`lex+parse`, `lower`), in order.
    /// Empty unless the driver timed them.
    pub frontend: Vec<LayerTime>,
    /// Layers that ran after the passes (`codegen`, `predecode`), in
    /// order. Empty unless the driver timed them.
    pub backend: Vec<LayerTime>,
}

impl PipelineReport {
    /// Total wall-clock time across all passes (the layers outside the
    /// pass manager are not part of it).
    pub fn total_wall(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }

    /// The report of the named pass, if it ran.
    pub fn pass(&self, name: &str) -> Option<&PassReport> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Human-readable timings table (the `--timings` output): one row per
    /// layer and pass in execution order, then the total of all rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>12}  {:<28} counters\n",
            "pass", "wall", "cache (hit/miss/refn/inval/esc)"
        ));
        let layer_rows = |out: &mut String, layers: &[LayerTime]| {
            for l in layers {
                out.push_str(&format!(
                    "{:<18} {:>12}\n",
                    l.name,
                    format!("{:.1?}", l.wall)
                ));
            }
        };
        layer_rows(&mut out, &self.frontend);
        for p in &self.passes {
            let cache = format!(
                "{}/{}/{}/{}/{}",
                p.cache.hits,
                p.cache.misses,
                p.cache.function_recomputes,
                p.cache.invalidations,
                p.cache.escalations
            );
            let counters = p
                .counters
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<18} {:>12}  {:<28} {}\n",
                p.name,
                format!("{:.1?}", p.wall),
                cache,
                counters
            ));
        }
        layer_rows(&mut out, &self.backend);
        let layers = self.frontend.iter().chain(&self.backend);
        let layers: Duration = layers.map(|l| l.wall).sum();
        out.push_str(&format!(
            "{:<18} {:>12}  analyses={} hits={} refns={} invals={} escs={}\n",
            "total",
            format!("{:.1?}", self.total_wall() + layers),
            self.cache.misses,
            self.cache.hits,
            self.cache.function_recomputes,
            self.cache.invalidations,
            self.cache.escalations
        ));
        out
    }

    /// Machine-readable JSON encoding (the `--report-json` output).
    pub fn to_json(&self) -> String {
        json::encode(self)
    }
}

// Reports are written, never read back (pass names are `&'static str`),
// so the encoding is declared one way only.

impl Encode for PassReport {
    fn encode(&self, out: &mut String) {
        Obj::open(out)
            .field("name", self.name)
            .field("wall_ns", &self.wall.as_nanos())
            .field("cache", &self.cache)
            .field("counters", &self.counters)
            .field("diagnostics", &self.diagnostics)
            .close();
    }
}

impl Encode for PipelineReport {
    fn encode(&self, out: &mut String) {
        let mut o = Obj::open(out).field("passes", &self.passes);
        // Beside `passes`, and only where the driver timed them.
        for (group, layers) in [("frontend", &self.frontend), ("backend", &self.backend)] {
            if !layers.is_empty() {
                let rows = layers
                    .iter()
                    .map(|l| (format!("{}_ns", l.name), l.wall.as_nanos()));
                o = o.field(group, &rows.collect::<Vec<_>>());
            }
        }
        o.field("total_wall_ns", &self.total_wall().as_nanos())
            .field("cache", &self.cache)
            .close();
    }
}

/// A pipeline abort: the named pass rejected the program.
#[derive(Debug)]
pub struct PassError {
    /// Name of the failing pass.
    pub pass: &'static str,
    /// The violations it reported.
    pub diagnostics: Vec<Diagnostic>,
    /// Instrumentation up to and including the failing pass.
    pub report: Box<PipelineReport>,
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass `{}` failed:\n{}",
            self.pass,
            earth_ir::diag::render_all(&self.diagnostics)
        )
    }
}

impl std::error::Error for PassError {}

/// Runs registered [`Pass`]es in order over one program and one shared
/// [`AnalysisCache`], timing each pass and attributing cache activity.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.passes.iter().map(|p| p.name()))
            .finish()
    }
}

impl PassManager {
    /// An empty manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass to the pipeline; passes run in registration order.
    pub fn register(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the registered passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order. Stops at the first failing pass,
    /// returning its diagnostics together with the instrumentation
    /// collected so far.
    pub fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
    ) -> Result<PipelineReport, PassError> {
        let mut report = PipelineReport::default();
        for pass in &mut self.passes {
            let mut pr = PassReport {
                name: pass.name(),
                ..PassReport::default()
            };
            let before = cache.stats();
            let start = Instant::now();
            let result = pass.run(prog, cache, &mut pr);
            pr.wall = start.elapsed();
            pr.cache = cache.stats().delta_since(&before);
            report.passes.push(pr);
            report.cache = cache.stats();
            if let Err(diagnostics) = result {
                return Err(PassError {
                    pass: pass.name(),
                    diagnostics,
                    report: Box::new(report),
                });
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;

    const SRC: &str = r#"
        struct Point { double x; double y; };
        double distance(Point *p) {
            double d;
            d = sqrt(p->x * p->x + p->y * p->y);
            return d;
        }
    "#;

    /// verify + lint + optimize + validate share one whole-program
    /// analysis through the cache.
    #[test]
    fn default_pipeline_analyzes_once() {
        let mut prog = compile(SRC).unwrap();
        let cfg = earth_commopt::CommOptConfig::default();
        let mut cache = AnalysisCache::new();
        let mut pm = PassManager::new();
        pm.register(VerifyPlacementPass::new(cfg.clone()));
        pm.register(RaceLintPass::new());
        pm.register(OptimizePass::new(cfg, 2, None));
        pm.register(ValidateIrPass);
        let report = pm.run(&mut prog, &mut cache).unwrap();
        assert_eq!(report.cache.misses, 1, "{}", report.render());
        assert_eq!(report.cache.hits, 2, "{}", report.render());
        // The optimize pass invalidated the function it rewrote.
        assert!(report.cache.invalidations >= 1, "{}", report.render());
        // Optimization actually happened.
        let opt = report.pass("optimize").unwrap();
        assert_eq!(opt.get_counter("pipelined_reads"), Some(2));
    }

    /// A pass that mutates the IR marks the cache, and the next consumer
    /// refreshes only the changed function.
    #[test]
    fn per_function_refresh_after_optimize() {
        let mut prog = compile(SRC).unwrap();
        let cfg = earth_commopt::CommOptConfig::default();
        let mut cache = AnalysisCache::new();
        let mut pm = PassManager::new();
        pm.register(OptimizePass::new(cfg, 1, None));
        pm.register(RaceLintPass::new());
        let report = pm.run(&mut prog, &mut cache).unwrap();
        // The lint pass after optimize pays at most a per-function refresh
        // or one escalated re-analysis — never more.
        assert!(report.cache.misses <= 2, "{}", report.render());
    }

    /// One pass, three ways to hand it work, one output: without a slot it
    /// analyzes once, fingerprints nothing and leaves no snapshot; with an
    /// empty slot it does the same work and captures a snapshot; seeded
    /// from that snapshot it splices — and the reuse counters say so.
    #[test]
    fn slot_decides_capture_and_reuse_not_the_output() {
        use std::sync::{Arc, Mutex};
        let cfg = earth_commopt::CommOptConfig::default();
        let run = |slot: Option<Arc<Mutex<SnapshotSlot>>>| {
            let mut prog = compile(SRC).unwrap();
            let mut cache = AnalysisCache::new();
            let mut pm = PassManager::new();
            pm.register(OptimizePass::new(cfg.clone(), 1, slot));
            let report = pm.run(&mut prog, &mut cache).unwrap();
            (earth_ir::pretty::print_program(&prog), report)
        };
        // No slot: the reference output, one analysis, no reuse accounting.
        let (reference, plain_report) = run(None);
        assert_eq!(plain_report.cache.misses, 1, "scratch pays one analysis");
        let opt = plain_report.pass("optimize").unwrap();
        for counter in ["functions_reused", "functions_reoptimized", "full_rebuild"] {
            assert_eq!(opt.get_counter(counter), None, "{counter} without a slot");
        }
        // Empty slot: same output, same single analysis, plus a snapshot.
        let slot = Arc::new(Mutex::new(SnapshotSlot::default()));
        let (cold, cold_report) = run(Some(slot.clone()));
        assert_eq!(cold, reference);
        assert_eq!(cold_report.cache.misses, 1, "cold pays one analysis");
        let opt = cold_report.pass("optimize").unwrap();
        assert_eq!(opt.get_counter("full_rebuild"), Some(1));
        assert_eq!(opt.get_counter("functions_reused"), Some(0));
        assert_eq!(slot.lock().unwrap().fallback, Some("cold"));
        assert!(slot.lock().unwrap().snapshot.is_some());
        // The same slot again, now holding the seed, over the unchanged
        // program: everything splices, no whole-program analysis at all.
        let (warm, warm_report) = run(Some(slot.clone()));
        assert_eq!(warm, reference);
        assert_eq!(warm_report.cache.misses, 0, "warm analyzes nothing");
        let opt = warm_report.pass("optimize").unwrap();
        assert_eq!(opt.get_counter("full_rebuild"), Some(0));
        assert_eq!(opt.get_counter("functions_reoptimized"), Some(0));
        assert_eq!(opt.get_counter("functions_reused"), Some(1));
        assert_eq!(opt.get_counter("escalations"), Some(0));
        assert!(
            slot.lock().unwrap().snapshot.is_some(),
            "re-seeded for next time"
        );
    }

    /// Satellite of the incremental work: the report JSON carries the
    /// incremental counters and the cache escalation counter, and parses
    /// back through the shared `earth_ir::json` reader.
    #[test]
    fn incremental_counters_round_trip_through_json() {
        use std::sync::{Arc, Mutex};
        let cfg = earth_commopt::CommOptConfig::default();
        let slot = Arc::new(Mutex::new(SnapshotSlot::default()));
        let mut prog = compile(SRC).unwrap();
        let mut cache = AnalysisCache::new();
        let mut pm = PassManager::new();
        pm.register(OptimizePass::new(cfg, 2, Some(slot)));
        let report = pm.run(&mut prog, &mut cache).unwrap();
        let json = report.to_json();
        use earth_ir::json::ObjectExt as _;
        let v = earth_ir::json::parse(&json).unwrap();
        let top = v.as_object("report").unwrap();
        let cache_obj = top.field("cache").unwrap().as_object("cache").unwrap();
        assert_eq!(cache_obj.get_u64("escalations").unwrap(), 0);
        assert_eq!(cache_obj.get_u64("misses").unwrap(), 1);
        let passes = top.get_array("passes").unwrap();
        let counters = passes[0].as_object("pass").unwrap().field("counters");
        let counters = counters.unwrap().as_object("counters").unwrap();
        assert_eq!(counters.get_u64("functions_reused").unwrap(), 0);
        assert_eq!(counters.get_u64("functions_reoptimized").unwrap(), 1);
        assert_eq!(counters.get_u64("escalations").unwrap(), 0);
        // The render table carries the escalation column too.
        assert!(report.render().contains("escs=0"), "{}", report.render());
    }

    #[test]
    fn report_renders_and_serializes() {
        let mut prog = compile(SRC).unwrap();
        let cfg = earth_commopt::CommOptConfig::default();
        let mut cache = AnalysisCache::new();
        let mut pm = PassManager::new();
        pm.register(OptimizePass::new(cfg, 1, None));
        pm.register(ValidateIrPass);
        let report = pm.run(&mut prog, &mut cache).unwrap();
        let text = report.render();
        assert!(text.contains("optimize"), "{text}");
        assert!(text.contains("validate-ir"), "{text}");
        let json = report.to_json();
        assert!(json.starts_with("{\"passes\":["), "{json}");
        assert!(json.contains("\"name\":\"optimize\""), "{json}");
        assert!(json.contains("\"total_wall_ns\""), "{json}");
    }
}
