//! # earthc — reproduction of *Communication Optimizations for Parallel C Programs*
//!
//! A full reimplementation of the system described by Yingchun Zhu and
//! Laurie J. Hendren (PLDI 1998): an optimizing compiler pipeline for the
//! EARTH-C parallel dialect of C that reduces communication overhead for
//! programs using dynamically-allocated data structures, evaluated on a
//! simulator of the EARTH-MANNA distributed-memory multithreaded machine.
//!
//! This crate is the facade tying the workspace together:
//!
//! | crate | role |
//! |---|---|
//! | [`earth_frontend`] | EARTH-C subset → SIMPLE IR (three-address, ≤ 1 remote op/stmt) |
//! | [`earth_ir`] | the SIMPLE intermediate representation |
//! | [`earth_analysis`] | regions/connection, read-write sets, locality |
//! | [`earth_commopt`] | **the paper**: possible-placement analysis + communication selection |
//! | [`earth_sim`] | EARTH-MANNA discrete-event simulator (Table-I cost model) |
//! | [`earth_olden`] | the six Olden benchmarks in EARTH-C: sources and problem sizes |
//!
//! # Examples
//!
//! Compile, optimize, and run a program on a simulated 4-node machine:
//!
//! ```
//! use earthc::{compile_earth_c, Pipeline};
//!
//! let result = Pipeline::new()
//!     .nodes(4)
//!     .run_source(r#"
//!         struct Point { double x; double y; };
//!         double main() {
//!             Point *p;
//!             p = malloc_on(1, sizeof(Point));
//!             p->x = 3.0;
//!             p->y = 4.0;
//!             return sqrt(p->x * p->x + p->y * p->y);
//!         }
//!     "#, &[]).unwrap();
//! assert_eq!(result.ret, earthc::Value::Double(5.0));
//! # let _ = compile_earth_c;
//! ```

#![warn(missing_docs)]

pub use earth_analysis;
pub use earth_commopt;
pub use earth_frontend;
pub use earth_ir;
pub use earth_lint;
pub use earth_olden;
pub use earth_pass;
pub use earth_profile;
pub use earth_serve;
pub use earth_sim;

pub mod serve;

pub use earth_analysis::{AnalysisCache, CacheStats};
pub use earth_commopt::{CommOptConfig, IncrementalStats, OptReport, PipelineSnapshot};
pub use earth_frontend::FrontendError;
pub use earth_ir::Program;
pub use earth_pass::{LayerTime, PassManager, PipelineReport, SnapshotSlot};
pub use earth_profile::{Profile, ProfileDb};
pub use earth_sim::{CostModel, RunResult, SimError, Value};

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Any failure in the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Lexing, parsing, or type checking failed.
    Frontend(FrontendError),
    /// The placement translation validator rejected the optimizer's motions
    /// (only with [`Pipeline::verify`] enabled).
    Verify(Vec<earth_ir::Diagnostic>),
    /// The race linter found a possibly-racy parallel construct (only with
    /// [`Pipeline::lint`] enabled in fatal mode).
    Lint(Vec<earth_ir::Diagnostic>),
    /// The IR validation pass rejected the pipeline's output — a compiler
    /// bug surfaced as diagnostics instead of a panic.
    InvalidIr(Vec<earth_ir::Diagnostic>),
    /// Code generation or simulation failed.
    Sim(SimError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "frontend: {e}"),
            PipelineError::Verify(ds) => {
                write!(
                    f,
                    "placement validation failed:\n{}",
                    earth_ir::diag::render_all(ds)
                )
            }
            PipelineError::Lint(ds) => {
                write!(f, "race lint failed:\n{}", earth_ir::diag::render_all(ds))
            }
            PipelineError::InvalidIr(ds) => {
                write!(
                    f,
                    "IR validation failed:\n{}",
                    earth_ir::diag::render_all(ds)
                )
            }
            PipelineError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Maps a failed pass onto the pipeline error naming it.
fn pass_error(e: earth_pass::PassError) -> PipelineError {
    match e.pass {
        "verify-placement" => PipelineError::Verify(e.diagnostics),
        "race-lint" => PipelineError::Lint(e.diagnostics),
        _ => PipelineError::InvalidIr(e.diagnostics),
    }
}

impl From<FrontendError> for PipelineError {
    fn from(e: FrontendError) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

/// Compiles EARTH-C source to SIMPLE IR (no optimization).
///
/// # Errors
///
/// Returns a [`FrontendError`] for any lexical, syntactic, or type error.
pub fn compile_earth_c(src: &str) -> Result<Program, FrontendError> {
    earth_frontend::compile(src)
}

/// End-to-end pipeline builder: frontend → compilation passes (inlining,
/// locality inference, placement verification, race linting,
/// communication optimization, IR validation) → threaded-code
/// generation → simulation.
///
/// The compilation phases run under a [`earth_pass::PassManager`] over one
/// shared [`AnalysisCache`]: however many passes consume the whole-program
/// analysis, it is computed once and invalidated precisely (whole-program
/// or per-function) when a pass mutates the IR. Per-pass wall time and
/// cache activity are surfaced through [`run_program_report`]
/// (`earthcc run --timings` / `--report-json`).
///
/// [`run_program_report`]: Pipeline::run_program_report
#[derive(Debug, Clone)]
pub struct Pipeline {
    nodes: u16,
    optimize: Option<CommOptConfig>,
    verify: bool,
    lint: bool,
    infer_locality: bool,
    inline: Option<earth_commopt::InlineConfig>,
    workers: Option<usize>,
    profile: Option<Arc<ProfileDb>>,
    entry: String,
    machine: earth_sim::MachineConfig,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// A pipeline with default settings: 1 node, full communication
    /// optimization, locality inference on, entry point `main`.
    pub fn new() -> Self {
        Pipeline {
            nodes: 1,
            optimize: Some(CommOptConfig::default()),
            verify: false,
            lint: false,
            infer_locality: true,
            inline: None,
            workers: None,
            profile: None,
            entry: "main".into(),
            machine: earth_sim::MachineConfig::default(),
        }
    }

    /// Sets the number of EARTH nodes.
    pub fn nodes(mut self, n: u16) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the communication-optimizer configuration (`None` = the
    /// paper's unoptimized "simple" build).
    pub fn optimizer(mut self, cfg: Option<CommOptConfig>) -> Self {
        self.optimize = cfg;
        self
    }

    /// Enables or disables locality inference.
    pub fn locality(mut self, on: bool) -> Self {
        self.infer_locality = on;
        self
    }

    /// Runs the placement translation validator ([`earth_lint`]) over the
    /// motions the optimizer is about to perform; any violation aborts the
    /// pipeline with [`PipelineError::Verify`]. Off by default.
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Runs the parallel-soundness race linter ([`earth_lint`]) as a
    /// pipeline pass. Verdicts are recorded on the [`PipelineReport`];
    /// possibly-racy constructs do not abort the run. Off by default.
    pub fn lint(mut self, on: bool) -> Self {
        self.lint = on;
        self
    }

    /// Sets the optimizer's per-function fan-out width (number of scoped
    /// worker threads). Defaults to [`earth_commopt::default_workers`] and
    /// is clamped through [`earth_commopt::clamp_workers`] — `0` and
    /// oversubscribed requests can't spawn a degenerate pool. The output
    /// is byte-identical for any width.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Feeds a measured execution profile into the optimizer (and into the
    /// placement validator's replay, when [`verify`](Self::verify) is
    /// on): measured branch probabilities, trip counts, and execution
    /// counts replace the static heuristics, and the `optimize` pass
    /// reports the PGO accounting. Collect the profile with
    /// [`instrument_source`](Self::instrument_source) on the same
    /// pipeline configuration. `None` (the default) keeps the paper's
    /// static frequency model.
    pub fn profile(mut self, db: Option<Arc<ProfileDb>>) -> Self {
        self.profile = db;
        self
    }

    /// Enables local function inlining (the paper's Phase-I pass) with the
    /// given configuration; off by default.
    pub fn inlining(mut self, cfg: Option<earth_commopt::InlineConfig>) -> Self {
        self.inline = cfg;
        self
    }

    /// Sets the entry function (default `main`).
    pub fn entry(mut self, name: impl Into<String>) -> Self {
        self.entry = name.into();
        self
    }

    /// Overrides the machine timing model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.machine.cost = cost;
        self
    }

    /// Collects the per-op-kind dispatch histogram
    /// ([`RunResult::op_stats`](earth_sim::RunResult)) during simulation
    /// (`earthcc run --op-stats`). Off by default.
    pub fn record_op_stats(mut self, on: bool) -> Self {
        self.machine.record_op_stats = on;
        self
    }

    /// Builds the pass pipeline this configuration describes, in order:
    /// inline → locality → prob-alias → escape →
    /// verify-placement → race-lint → optimize → validate-ir (transform
    /// passes only when enabled; `prob-alias` only under
    /// [`AliasMode::Prob`](earth_commopt::AliasMode); `escape` only under
    /// [`EscapeMode::On`](earth_commopt::EscapeMode)). The validator and
    /// the optimizer are built with the same configuration,
    /// [`profile`](Self::profile) included; `slot`, when there is one,
    /// seeds the optimizer and receives its snapshot (see
    /// [`earth_pass::OptimizePass`]).
    pub fn pass_manager(&self, slot: Option<Arc<Mutex<SnapshotSlot>>>) -> PassManager {
        let mut pm = PassManager::new();
        if let Some(icfg) = &self.inline {
            pm.register(earth_pass::InlinePass::new(icfg.clone()));
        }
        if self.infer_locality {
            pm.register(earth_pass::LocalityPass);
        }
        if let Some(cfg) = &self.optimize {
            let mut cfg = cfg.clone();
            if let Some(db) = &self.profile {
                cfg.profile = Some(db.clone());
            }
            if cfg.alias == earth_commopt::AliasMode::Prob {
                // Survey pass: surfaces annotation/induction counts from the
                // shared cached analysis before selection consumes the facts.
                pm.register(earth_pass::ProbAliasPass);
            }
            if cfg.escape == earth_commopt::EscapeMode::On {
                // Survey pass: surfaces region/upgrade counts from the
                // shared cached analysis before the optimizer deletes the
                // corresponding communication.
                pm.register(earth_pass::EscapePass);
            }
            if self.verify {
                pm.register(earth_pass::VerifyPlacementPass::new(cfg.clone()));
            }
            if self.lint {
                pm.register(earth_pass::RaceLintPass::new());
            }
            let workers = earth_commopt::clamp_workers(
                self.workers.unwrap_or_else(earth_commopt::default_workers),
            );
            pm.register(earth_pass::OptimizePass::new(cfg, workers, slot));
        } else if self.lint {
            pm.register(earth_pass::RaceLintPass::new());
        }
        pm.register(earth_pass::ValidateIrPass);
        pm
    }

    /// Runs the compilation passes (no code generation or simulation) over
    /// `prog` in place, sharing one analysis across all of them.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Verify`], [`PipelineError::Lint`], or
    /// [`PipelineError::InvalidIr`] when the corresponding pass rejects
    /// the program.
    pub fn apply_passes(&self, prog: &mut Program) -> Result<PipelineReport, PipelineError> {
        self.run_passes(prog, None)
    }

    /// The one body of [`apply_passes`](Self::apply_passes) and
    /// [`apply_passes_incremental`](Self::apply_passes_incremental): one
    /// fresh [`AnalysisCache`] under one [`pass_manager`](Self::pass_manager).
    fn run_passes(
        &self,
        prog: &mut Program,
        slot: Option<Arc<Mutex<SnapshotSlot>>>,
    ) -> Result<PipelineReport, PipelineError> {
        let mut cache = AnalysisCache::new();
        self.pass_manager(slot)
            .run(prog, &mut cache)
            .map_err(pass_error)
    }

    /// [`apply_passes`](Self::apply_passes) with function-granular
    /// incremental recompilation: the same passes, with the optimizer
    /// seeded from `prev` (`None` = nothing to reuse), and the result
    /// carries the snapshot to seed the *next* compile of this
    /// translation unit plus the reuse counters ([`IncrementalStats`]).
    /// The optimized program is byte-identical to
    /// [`apply_passes`](Self::apply_passes) and the report differs only
    /// in the reuse counters — but the snapshot is not free (fingerprints
    /// and a clone of every optimized body), so callers that will not
    /// keep it call [`apply_passes`](Self::apply_passes). Without an
    /// optimizer configured no snapshot is produced.
    ///
    /// # Errors
    ///
    /// Same as [`apply_passes`](Self::apply_passes).
    pub fn apply_passes_incremental(
        &self,
        prog: &mut Program,
        prev: Option<Arc<PipelineSnapshot>>,
    ) -> Result<
        (
            PipelineReport,
            Option<Arc<PipelineSnapshot>>,
            IncrementalStats,
        ),
        PipelineError,
    > {
        let slot = Arc::new(Mutex::new(SnapshotSlot {
            // Without an optimizer no pass would take the seed out again.
            snapshot: prev.filter(|_| self.optimize.is_some()),
            ..SnapshotSlot::default()
        }));
        let report = self.run_passes(prog, Some(slot.clone()))?;
        let mut out = slot.lock().expect("snapshot slot");
        Ok((report, out.snapshot.take(), std::mem::take(&mut out.stats)))
    }

    /// Runs the pipeline over an already-compiled program, returning the
    /// simulation result together with the per-pass instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates pass and simulator errors; see
    /// [`apply_passes`](Self::apply_passes) and [`earth_sim::NativeMachine::run`].
    pub fn run_program_report(
        &self,
        mut prog: Program,
        args: &[Value],
    ) -> Result<(RunResult, PipelineReport), PipelineError> {
        let mut report = self.apply_passes(&mut prog)?;
        let (_, result, backend) =
            self.simulate(&prog, earth_sim::CodegenOptions::default(), args)?;
        report.backend = backend;
        Ok((result, report))
    }

    /// Code generation + simulation on the native tier of an
    /// already-lowered program, with the wall time of the layers ahead of
    /// the run.
    fn simulate(
        &self,
        prog: &Program,
        opts: earth_sim::CodegenOptions,
        args: &[Value],
    ) -> Result<(earth_sim::CompiledProgram, RunResult, Vec<LayerTime>), PipelineError> {
        let start = Instant::now();
        let compiled = earth_sim::compile(prog, opts).map_err(|e| SimError {
            time_ns: 0,
            message: e.to_string(),
        })?;
        let mut layers = vec![LayerTime {
            name: "codegen",
            wall: start.elapsed(),
        }];
        let entry = compiled
            .function_by_name(&self.entry)
            .ok_or_else(|| SimError {
                time_ns: 0,
                message: format!("no function named `{}`", self.entry),
            })?;
        let mut mc = self.machine.clone();
        mc.n_nodes = self.nodes;
        let start = Instant::now();
        let native = earth_sim::NativeProgram::compile(&compiled, &mc.cost);
        layers.push(LayerTime {
            name: "predecode",
            wall: start.elapsed(),
        });
        let result = earth_sim::NativeMachine::new(mc).run(&native, entry, args)?;
        Ok((compiled, result, layers))
    }

    /// Runs the *instrumented* build of an already-compiled program: the
    /// configured pre-passes (inlining, locality) but
    /// **no** communication optimization, code generated with
    /// [`record_sites`](earth_sim::CodegenOptions::record_sites), and the
    /// run's per-site trace folded into a [`Profile`].
    ///
    /// Skipping the optimizer is what makes the profile portable: sites
    /// are recorded over the same pre-selection tree a later
    /// profile-guided compile (same pipeline settings plus
    /// [`profile`](Self::profile)) assigns sites over, so they resolve by
    /// construction.
    ///
    /// # Errors
    ///
    /// Propagates pass and simulator errors; see
    /// [`apply_passes`](Self::apply_passes) and [`earth_sim::NativeMachine::run`].
    pub fn instrument_program(
        &self,
        mut prog: Program,
        args: &[Value],
    ) -> Result<(RunResult, Profile), PipelineError> {
        let mut instrumented = self.clone();
        instrumented.optimize = None;
        instrumented.verify = false;
        instrumented.profile = None;
        instrumented.apply_passes(&mut prog)?;
        let opts = earth_sim::CodegenOptions {
            record_sites: true,
            ..Default::default()
        };
        let (compiled, result, _) = instrumented.simulate(&prog, opts, args)?;
        let profile = Profile::from_trace(&compiled, &result.site_trace);
        Ok((result, profile))
    }

    /// Compiles EARTH-C source and runs the instrumented build; see
    /// [`instrument_program`](Self::instrument_program).
    ///
    /// # Errors
    ///
    /// Propagates frontend, pass, and simulator errors.
    pub fn instrument_source(
        &self,
        src: &str,
        args: &[Value],
    ) -> Result<(RunResult, Profile), PipelineError> {
        let prog = earth_frontend::compile(src)?;
        self.instrument_program(prog, args)
    }

    /// Runs the pipeline over an already-compiled program.
    ///
    /// # Errors
    ///
    /// Propagates pass and simulator errors; see
    /// [`earth_sim::NativeMachine::run`].
    pub fn run_program(&self, prog: Program, args: &[Value]) -> Result<RunResult, PipelineError> {
        self.run_program_report(prog, args).map(|(r, _)| r)
    }

    /// Compiles EARTH-C source and runs it, returning the simulation
    /// result together with the per-pass instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates frontend, pass, and simulator errors.
    pub fn run_source_report(
        &self,
        src: &str,
        args: &[Value],
    ) -> Result<(RunResult, PipelineReport), PipelineError> {
        // `earth_frontend::compile`, its two halves timed apart.
        let start = Instant::now();
        let unit = earth_frontend::parse_unit(src).map_err(FrontendError::from)?;
        let lex_parse = start.elapsed();
        let start = Instant::now();
        let prog = earth_frontend::lower_unit(&unit).map_err(FrontendError::from)?;
        let lower = start.elapsed();
        let (result, mut report) = self.run_program_report(prog, args)?;
        report.frontend = [("lex+parse", lex_parse), ("lower", lower)]
            .map(|(name, wall)| LayerTime { name, wall })
            .into();
        Ok((result, report))
    }

    /// Compiles EARTH-C source and runs it.
    ///
    /// # Errors
    ///
    /// Propagates frontend, pass, and simulator errors.
    pub fn run_source(&self, src: &str, args: &[Value]) -> Result<RunResult, PipelineError> {
        self.run_source_report(src, args).map(|(r, _)| r)
    }
}
