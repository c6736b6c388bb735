//! The concrete passes of the EARTH-C pipeline.
//!
//! Each former hard-coded phase of the driver is a [`Pass`]:
//!
//! | pass | kind | cache discipline |
//! |---|---|---|
//! | [`InlinePass`] | transform | invalidates whole program when it inlined |
//! | [`LocalityPass`] | transform | invalidates whole program when it upgraded |
//! | [`VerifyPlacementPass`] | analysis consumer | reads the cache; aborts on violations |
//! | [`RaceLintPass`] | analysis consumer | reads the cache; records verdicts |
//! | [`ProbAliasPass`] | analysis consumer | reads the cache; surveys probabilistic facts |
//! | [`EscapePass`] | analysis consumer | reads the cache; surveys escape/affinity verdicts |
//! | [`OptimizePass`] | transform | reads the cache unless its [`SnapshotSlot`] held an applicable seed (then no cache read at all), then invalidates per changed [`FuncId`](earth_ir::FuncId) |
//! | [`ValidateIrPass`] | check | pure; aborts on IR errors |

use crate::{Pass, PassReport};
use earth_analysis::AnalysisCache;
use earth_commopt::{
    inline_functions, optimize_program_seeded, CommOptConfig, IncrementalStats, InlineConfig,
    OptReport, PipelineSnapshot, Seed, SelectionStats,
};
use earth_ir::{assign_program_sites, Diagnostic, Program, Severity};
use earth_lint::LintReport;
use std::sync::{Arc, Mutex};

/// Local function inlining (the paper's Phase-I pass).
#[derive(Debug, Clone)]
pub struct InlinePass {
    /// Inliner limits.
    pub cfg: InlineConfig,
}

impl InlinePass {
    /// A pass with the given configuration.
    pub fn new(cfg: InlineConfig) -> Self {
        InlinePass { cfg }
    }
}

impl Pass for InlinePass {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let r = inline_functions(prog, &self.cfg);
        report.counter("inlined_calls", r.inlined_calls as u64);
        if r.inlined_calls > 0 {
            // Call sites disappeared: every caller's effects changed.
            cache.invalidate_all();
        }
        Ok(())
    }
}

/// Locality inference: upgrades provably-local pointers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalityPass;

impl Pass for LocalityPass {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let r = earth_analysis::infer_locality(prog);
        report.counter("vars_upgraded", r.len() as u64);
        if !r.is_empty() {
            cache.invalidate_all();
        }
        Ok(())
    }
}

/// The placement translation validator ([`earth_lint::replay_program`])
/// run over the motions the optimizer is about to perform. Any violation
/// aborts the pipeline.
#[derive(Debug, Clone)]
pub struct VerifyPlacementPass {
    /// The optimizer configuration whose selection is replayed — the one
    /// [`OptimizePass`] runs under, measured profile included, or the
    /// pass certifies a plan the optimizer does not apply.
    pub cfg: CommOptConfig,
}

impl VerifyPlacementPass {
    /// A pass validating selection under `cfg`.
    pub fn new(cfg: CommOptConfig) -> Self {
        VerifyPlacementPass { cfg }
    }
}

impl Pass for VerifyPlacementPass {
    fn name(&self) -> &'static str {
        "verify-placement"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let analysis = cache.get(prog);
        let replay = earth_lint::replay_program(prog, &self.cfg, analysis);
        let motions: usize = replay.logs.iter().map(|log| log.len()).sum();
        report.counter("motions_checked", motions as u64);
        report.counter("violations", replay.violations.len() as u64);
        if replay.violations.is_empty() {
            Ok(())
        } else {
            Err(replay.violations)
        }
    }
}

/// The parallel-soundness race linter ([`earth_lint::lint_program_with`]).
///
/// Verdicts are recorded as diagnostics on the pass report; a possibly-racy
/// construct does **not** abort the pipeline (EARTH-C semantics trust the
/// programmer's `forall`/ParSeq assertion) unless
/// [`fail_on_racy`](RaceLintPass::fail_on_racy) is set.
#[derive(Debug, Clone, Default)]
pub struct RaceLintPass {
    /// Abort the pipeline when any construct is possibly racy.
    pub fail_on_racy: bool,
    /// The full report of the last run (verdicts per construct).
    pub last: Option<LintReport>,
}

impl RaceLintPass {
    /// A non-fatal linting pass.
    pub fn new() -> Self {
        RaceLintPass::default()
    }

    /// A linting pass that aborts on any possibly-racy construct.
    pub fn fatal() -> Self {
        RaceLintPass {
            fail_on_racy: true,
            last: None,
        }
    }
}

impl Pass for RaceLintPass {
    fn name(&self) -> &'static str {
        "race-lint"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let analysis = cache.get(prog);
        let lint = earth_lint::lint_program_with(prog, analysis);
        report.counter("constructs", lint.verdicts.len() as u64);
        report.counter(
            "racy",
            lint.verdicts.iter().filter(|v| !v.independent).count() as u64,
        );
        report.diagnostics.extend(lint.diagnostics.iter().cloned());
        let failed = self.fail_on_racy && !lint.all_independent();
        let diags = lint.diagnostics.clone();
        self.last = Some(lint);
        if failed {
            Err(diags)
        } else {
            Ok(())
        }
    }
}

/// Probabilistic alias + loop pointer-induction survey (prob-alias mode).
///
/// The structural [`ProbFacts`](earth_analysis::ProbFacts) are memoized
/// per function beside the shared cached analysis
/// ([`FunctionAnalysis::prob_facts`](earth_analysis::FunctionAnalysis::prob_facts)):
/// this pass computes them and the optimizer reads the same instances.
/// The pass surfaces them as pipeline
/// counters *before* selection so timing reports and drivers can see what
/// prob-alias mode has to work with: how many branches/loops received a
/// likelihood annotation and how many loop pointer inductions were
/// recognized. It mutates nothing and invalidates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbAliasPass;

impl Pass for ProbAliasPass {
    fn name(&self) -> &'static str {
        "prob-alias"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let analysis = cache.get(prog);
        let mut annotated = 0u64;
        let mut inductions = 0u64;
        for (fid, f) in prog.iter_functions() {
            let facts = analysis.function(fid).prob_facts(f);
            annotated += facts.n_annotated() as u64;
            inductions += facts.inductions().len() as u64;
        }
        report.counter("sites_annotated", annotated);
        report.counter("inductions_found", inductions);
        Ok(())
    }
}

/// Whole-program escape & node-affinity survey (`--escape on`).
///
/// The [`EscapeAnalysis`](earth_analysis::EscapeAnalysis) is memoized
/// beside the shared cached analysis
/// ([`ProgramAnalysis::escape`](earth_analysis::ProgramAnalysis::escape)):
/// this pass computes it and the optimizer reads the same instance. The
/// pass surfaces the
/// verdicts as pipeline counters *before* selection, so timing reports and
/// drivers can see how much communication the escape upgrades stand to
/// delete: how many allocation-site regions proved node-local, how many
/// stayed shared, and how many `MaybeRemote` pointers are upgradable. It
/// mutates nothing and invalidates nothing; cache awareness comes from
/// [`OptimizePass`], whose per-function invalidation fires on escape-only
/// changes because [`MotionLog::is_empty`](earth_commopt::MotionLog)
/// accounts for recorded upgrades.
#[derive(Debug, Clone, Copy, Default)]
pub struct EscapePass;

impl Pass for EscapePass {
    fn name(&self) -> &'static str {
        "escape"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let esc = cache.get(prog).escape(prog);
        report.counter("regions_node_local", esc.regions_node_local as u64);
        report.counter("regions_shared", esc.regions_shared as u64);
        report.counter("vars_upgradable", esc.total_upgrades() as u64);
        Ok(())
    }
}

/// Where [`OptimizePass`] finds its seed and leaves its snapshot: shared,
/// because the pass manager owns the pass itself.
#[derive(Debug, Default)]
pub struct SnapshotSlot {
    /// Going in: the snapshot of the previous compile of this translation
    /// unit, if there was one (the pass takes it). Coming out: the
    /// snapshot this run produced, seed for the next compile.
    pub snapshot: Option<Arc<PipelineSnapshot>>,
    /// Reuse/re-optimization/escalation counters of the run.
    pub stats: IncrementalStats,
    /// Why the run could not use its seed snapshot: `"cold"` when none
    /// was supplied, a [`FallbackReason`](earth_commopt::FallbackReason)
    /// rendering when one was supplied but did not apply, `None` when the
    /// incremental path ran.
    pub fallback: Option<&'static str>,
}

/// The paper's communication optimization (possible-placement analysis +
/// selection + transformation), fanned out per function across scoped
/// worker threads with a deterministic [`FuncId`](earth_ir::FuncId)-ordered
/// merge — the one pass over the one driver,
/// [`optimize_program_seeded`]. Scratch compilation is the incremental
/// path with nothing to reuse, so the modes are properties of what the
/// pass was handed, not passes of their own:
///
/// * **A [`SnapshotSlot`]** makes the run function-granular. With an
///   applicable seed in the slot, placement + selection re-run for
///   exactly the functions the edit can affect (see
///   [`earth_commopt::incremental`]) and the seed's optimized IR and
///   motion logs are spliced for the rest — byte-identical to a scratch
///   run, **without** consulting the whole-program analysis cache. With
///   no seed, or an inapplicable one, the run is a scratch run over the
///   cached analysis. Either way the run's snapshot is left in the slot
///   and the report gains `functions_reused`, `functions_reoptimized`,
///   `escalations` and `full_rebuild`. Without a slot nothing is
///   fingerprinted and nothing is captured.
/// * **A measured profile** ([`CommOptConfig::profile`]) makes the run
///   profile-guided. The pass runs on the pre-selection tree — the same
///   tree the instrumented build assigned [`SiteId`](earth_ir::SiteId)s
///   over, since both compiles share the deterministic pre-passes — so
///   the profile's sites resolve by construction wherever the code is
///   unchanged, and the report gains the PGO accounting the driver
///   surfaces as one line: `sites_instrumented` (sites assigned over the
///   program about to be optimized — what an instrumented build of it
///   would record), `sites_matched` (how many of those the profile has
///   counters for; zero means the profile is stale or from a different
///   program) and `decisions_flipped` (selection decisions where the
///   measured cost-model choice differed from the static heuristic).
#[derive(Debug)]
pub struct OptimizePass {
    /// Optimizer configuration.
    pub cfg: CommOptConfig,
    /// Fan-out width (clamped to `1..=#dirty-functions`).
    pub workers: usize,
    /// The per-function reports of the last run.
    pub last: Option<OptReport>,
    slot: Option<Arc<Mutex<SnapshotSlot>>>,
}

impl OptimizePass {
    /// A pass optimizing under `cfg` with the given fan-out width, seeded
    /// from and publishing into `slot` when there is one.
    pub fn new(cfg: CommOptConfig, workers: usize, slot: Option<Arc<Mutex<SnapshotSlot>>>) -> Self {
        OptimizePass {
            cfg,
            workers,
            last: None,
            slot,
        }
    }
}

impl Pass for OptimizePass {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        // Site accounting must happen before selection rewrites the tree:
        // afterwards optimizer-inserted statements carry fresh labels that
        // no instrumented build ever saw.
        let pgo = self.cfg.profile.as_ref().map(|db| {
            let matched: usize = prog
                .iter_functions()
                .map(|(fid, f)| db.function_view(fid, f).matched())
                .sum();
            (assign_program_sites(prog).len(), matched)
        });
        let prev = self
            .slot
            .as_ref()
            .and_then(|slot| slot.lock().expect("snapshot slot").snapshot.take());
        let (seed, fallback) = match prev.as_deref().map(|p| Seed::snapshot(prog, &self.cfg, p)) {
            Some(Ok(seed)) => (seed, None),
            Some(Err(reason)) => (Seed::scratch(cache.get(prog)), Some(reason.as_str())),
            None => (Seed::scratch(cache.get(prog)), Some("cold")),
        };
        let (opt, snapshot, inc) =
            optimize_program_seeded(prog, &self.cfg, self.workers, seed, self.slot.is_some());
        // Only the functions selection actually rewrote are stale (a no-op
        // when a seeded run never filled the cache).
        let mut changed = 0u64;
        for f in &opt.functions {
            if f.stats != SelectionStats::default() || !f.motion.is_empty() {
                cache.invalidate_function(f.func);
                changed += 1;
            }
        }
        let t = opt.total();
        if let Some((sites, matched)) = pgo {
            report.counter("sites_instrumented", sites as u64);
            report.counter("sites_matched", matched as u64);
            report.counter("decisions_flipped", t.pgo_flips as u64);
        }
        report.counter("workers", self.workers as u64);
        report.counter("functions_changed", changed);
        if let Some(slot) = &self.slot {
            report.counter("functions_reused", inc.functions_reused);
            report.counter("functions_reoptimized", inc.functions_reoptimized);
            report.counter("escalations", inc.escalations);
            report.counter("full_rebuild", fallback.is_some() as u64);
            *slot.lock().expect("snapshot slot") = SnapshotSlot {
                snapshot: snapshot.map(Arc::new),
                stats: inc,
                fallback,
            };
        }
        report.counter("pipelined_reads", t.pipelined_reads as u64);
        report.counter("blocked_spans", t.blocked_spans as u64);
        report.counter("blocked_writebacks", t.blocked_writebacks as u64);
        report.counter("induction_blocks", t.induction_blocks as u64);
        report.counter("reads_rewritten", t.reads_rewritten as u64);
        report.counter("writes_rewritten", t.writes_rewritten as u64);
        self.last = Some(opt);
        Ok(())
    }
}

/// Structural IR validation ([`earth_ir::validate_program_diags`]): the
/// final guard that the pipeline produced well-formed SIMPLE.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateIrPass;

impl Pass for ValidateIrPass {
    fn name(&self) -> &'static str {
        "validate-ir"
    }

    fn run(
        &mut self,
        prog: &mut Program,
        _cache: &mut AnalysisCache,
        report: &mut PassReport,
    ) -> Result<(), Vec<Diagnostic>> {
        let diags = earth_ir::validate_program_diags(prog);
        report.counter("diagnostics", diags.len() as u64);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            Err(diags)
        } else {
            report.diagnostics.extend(diags);
            Ok(())
        }
    }
}
