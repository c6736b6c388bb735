//! The whole-program optimization driver, and function-granular
//! incremental recompilation — which are one thing:
//! [`optimize_program_seeded`] is the only body that walks a program's
//! functions, and scratch compilation is that body run from the empty
//! [`Seed`] (every function dirty, summaries taken from the caller's
//! whole-program analysis). [`optimize_program_with`](crate::optimize_program_with),
//! [`optimize_program_snapshot`] and [`optimize_program_incremental`] are
//! entry points of it with no logic of their own.
//!
//! A [`PipelineSnapshot`] captures everything a later compile of an
//! edited translation unit needs to re-run placement + selection for
//! **exactly the functions the edit can affect** and splice the cached
//! optimized IR and [`MotionLog`](crate::MotionLog)s for everything else,
//! with output byte-identical to a from-scratch run:
//!
//! * per-function structural [`Fingerprint`]s of the *pre-optimization*
//!   program (the [`semantic`](Fingerprint::semantic) hash ignores
//!   variable names and labels; the [`artifact`](Fingerprint::artifact)
//!   hash does not, because pretty-printed IR and motion logs render
//!   both);
//! * the exact interprocedural [`Summary`] table the run was optimized
//!   against;
//! * per-function whole-program preconditions (currently: the escape
//!   upgrade verdicts of `--escape on`, hashed per function) that a
//!   purely local fingerprint cannot see;
//! * the optimized body and [`FnReport`] of every function.
//!
//! # Why the dirty set is what it is
//!
//! `optimize_function` is deterministic in
//! (function body, [`FunctionAnalysis`](earth_analysis::FunctionAnalysis),
//! config, profile view, escape verdicts), and a function's analysis
//! depends only on its own body and its *callees'* summaries. So a
//! function must re-run placement + selection iff
//!
//! 1. its own artifact fingerprint changed (any edit, including
//!    rename-only ones — renames change the printed artifact), or
//! 2. some callee's summary changed — the covers-or-escalate rule of
//!    [`AnalysisCache`](earth_analysis::AnalysisCache) extended to
//!    byte-identity: *any* summary change (growth or shrinkage)
//!    escalates its dependents, because a shrunk summary can unlock
//!    motions the cached artifact never performed, or
//! 3. its escape-precondition fingerprint changed (a whole-program
//!    verdict flipped even though the function's own body did not).
//!
//! Summaries are recomputed with
//! [`analyze_effects_incremental`] — exact, not covers-approximate — so
//! rule 2 compares true least-fixpoint values on both sides.
//!
//! Everything outside the dirty set is spliced from the snapshot
//! verbatim; because the inputs enumerated above are bit-equal, the
//! spliced artifact equals what a from-scratch run would recompute.

use crate::{CommOptConfig, EscapeMode, FnReport, OptReport, SelectionStats};
use earth_analysis::{
    analyze_effects_incremental, analyze_with_summaries_for, callees, EscalationCause,
    EscapeAnalysis, ProgramAnalysis, Summary,
};
use earth_ir::fnv::Fnv1a;
use earth_ir::{program_fingerprints, structs_fingerprint, Fingerprint, FuncId, Function, Program};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One function's entry in a [`PipelineSnapshot`].
#[derive(Debug, Clone)]
pub struct FnSnapshot {
    /// The function's name (positional [`FuncId`]s are validated against
    /// names before any reuse).
    pub name: String,
    /// Structural fingerprint of the *pre-optimization* body.
    pub fingerprint: Fingerprint,
    /// Hash of the whole-program escape verdicts applied to this function
    /// (0 when `--escape` is off).
    pub escape_fp: u64,
    /// Whether the run that produced this snapshot spliced the entry from
    /// its predecessor (`true`) or re-ran placement + selection (`false`).
    pub reused: bool,
    /// The optimized body.
    pub optimized: Function,
    /// The selection counters and motion log that produced it.
    pub report: FnReport,
}

/// Everything a later compile needs to re-optimize only what an edit
/// touched. See the module docs for the invalidation rules.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    /// Fingerprint of the optimizer configuration (including the measured
    /// profile, canonically serialized, when one is set).
    pub config_fp: u64,
    /// Fingerprint of the struct table (field names, types, order).
    pub structs_fp: u64,
    /// The exact summary table of the producing run.
    pub summaries: Vec<Summary>,
    /// Per-function entries, in [`FuncId`] order.
    pub functions: Vec<FnSnapshot>,
}

/// Why a snapshot could not be applied and the compile fell back to a
/// full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The optimizer configuration (or its profile) changed.
    ConfigChanged,
    /// The struct table changed (field layout is a global input to
    /// selection's cost model).
    StructsChanged,
    /// Functions were added, removed, or reordered — positional
    /// [`FuncId`]s no longer line up.
    FunctionsChanged,
}

impl FallbackReason {
    /// Stable one-word rendering for reports and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            FallbackReason::ConfigChanged => "config-changed",
            FallbackReason::StructsChanged => "structs-changed",
            FallbackReason::FunctionsChanged => "functions-changed",
        }
    }
}

/// Counters describing one incremental run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalStats {
    /// Functions whose optimized IR and motion log were spliced from the
    /// snapshot without re-running placement + selection.
    pub functions_reused: u64,
    /// Functions that re-ran placement + selection.
    pub functions_reoptimized: u64,
    /// Functions whose interprocedural summary changed, forcing every
    /// dependent to re-optimize (the covers-or-escalate rule extended to
    /// byte-identity). One recorded cause each.
    pub escalations: u64,
    /// Why each escalation fired, in [`FuncId`] order.
    pub escalation_causes: Vec<EscalationCause>,
}

/// Content hash of the optimizer configuration, with the measured profile
/// (when present) hashed by its canonical JSON rather than its debug
/// formatting (whose map ordering is not guaranteed).
pub fn config_fingerprint(cfg: &CommOptConfig) -> u64 {
    let mut h = Fnv1a::new();
    let stripped = CommOptConfig {
        profile: None,
        ..cfg.clone()
    };
    h.str_field(&format!("{stripped:?}"));
    if let Some(db) = &cfg.profile {
        h.str_field(&db.profile().canonical().to_json());
    }
    h.finish()
}

/// Per-function hash of the escape verdicts the optimizer would apply:
/// the snapshot's record of a whole-program precondition. All zeros when
/// escape analysis is off (the verdicts are then never consulted).
pub fn escape_fingerprints(prog: &Program, escape: Option<&EscapeAnalysis>) -> Vec<u64> {
    prog.iter_functions()
        .map(|(fid, _)| match escape {
            None => 0,
            Some(esc) => {
                let mut h = Fnv1a::new();
                for j in esc.upgrades_for(fid) {
                    h.str_field(&j.to_string());
                }
                h.finish()
            }
        })
        .collect()
}

/// Checks whether `prev` may seed an incremental compile of `prog` under
/// `cfg`. Any mismatch means the snapshot must be discarded, never
/// patched (INC003).
pub fn applicability(
    prog: &Program,
    cfg: &CommOptConfig,
    prev: &PipelineSnapshot,
) -> Result<(), FallbackReason> {
    if prev.config_fp != config_fingerprint(cfg) {
        return Err(FallbackReason::ConfigChanged);
    }
    if prev.structs_fp != structs_fingerprint(prog) {
        return Err(FallbackReason::StructsChanged);
    }
    if prev.functions.len() != prog.functions().len()
        || prev.summaries.len() != prog.functions().len()
        || prog
            .iter_functions()
            .any(|(id, f)| prev.functions[id.index()].name != f.name)
    {
        return Err(FallbackReason::FunctionsChanged);
    }
    Ok(())
}

/// `true` when `cfg` disables every transformation — the paper's
/// "simple" compile, for which the optimizer is the identity and a
/// snapshot holds no analysis worth validating.
pub fn all_off(cfg: &CommOptConfig) -> bool {
    !cfg.enable_motion
        && !cfg.enable_blocking
        && !cfg.enable_redundancy_elim
        && cfg.escape == EscapeMode::Off
}

/// What one run of the driver may reuse. Holds only checked values: a
/// snapshot gets in through [`Seed::snapshot`], which runs
/// [`applicability`] — so the driver may index its entries by position.
#[derive(Debug, Clone, Copy)]
pub struct Seed<'a>(Reuse<'a>);

#[derive(Debug, Clone, Copy)]
enum Reuse<'a> {
    Nothing(&'a ProgramAnalysis),
    Snapshot(&'a PipelineSnapshot),
}

impl<'a> Seed<'a> {
    /// Scratch compilation — the empty seed: every function is dirty, and
    /// summaries and per-function analyses are the caller's whole-program
    /// `analysis` (which must have been computed for the program as it is
    /// handed to the driver).
    pub fn scratch(analysis: &'a ProgramAnalysis) -> Self {
        Seed(Reuse::Nothing(analysis))
    }

    /// Reuse whatever of `prev` an edit cannot have affected.
    ///
    /// # Errors
    ///
    /// Returns the [`FallbackReason`] when `prev` does not describe this
    /// (program, configuration) pair; the caller must compile from
    /// [`scratch`](Self::scratch) and discard `prev`.
    pub fn snapshot(
        prog: &Program,
        cfg: &CommOptConfig,
        prev: &'a PipelineSnapshot,
    ) -> Result<Self, FallbackReason> {
        applicability(prog, cfg, prev).map(|()| Seed(Reuse::Snapshot(prev)))
    }
}

/// Placement + selection fanned out over `todo` only, results in
/// [`FuncId`] order — the one fan-out of the crate. Functions are
/// optimized against the pre-optimization `prog`, so the result is
/// byte-identical for any worker count.
fn optimize_set(
    prog: &Program,
    analysis: &ProgramAnalysis,
    cfg: &CommOptConfig,
    escape: Option<&EscapeAnalysis>,
    todo: &[FuncId],
    workers: usize,
) -> Vec<(FuncId, Function, FnReport)> {
    let workers = workers.clamp(1, todo.len().max(1));
    let mut results: Vec<(FuncId, Function, FnReport)> = if workers <= 1 {
        todo.iter()
            .map(|&fid| crate::optimize_function(prog, analysis, cfg, escape, fid))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(FuncId, Function, FnReport)>> =
            Mutex::new(Vec::with_capacity(todo.len()));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&fid) = todo.get(i) else { break };
                        local.push(crate::optimize_function(prog, analysis, cfg, escape, fid));
                    }
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        collected.into_inner().unwrap()
    };
    // Deterministic merge: arrival order depends on scheduling, FuncId
    // order does not.
    results.sort_by_key(|(fid, _, _)| *fid);
    results
}

/// The whole-program optimization step, written once: re-runs placement +
/// selection for exactly the functions `seed` cannot vouch for (see the
/// module docs; all of them from [`Seed::scratch`]) and splices the seed's
/// optimized IR and motion logs for everything else. The resulting
/// program, [`OptReport`] and motion logs are byte-identical for every
/// seed and any `workers`; the [`IncrementalStats`] say how much was
/// reused.
///
/// With `keep`, also returns the [`PipelineSnapshot`] that seeds the next
/// compile of this translation unit. Keeping is not free — a fingerprint
/// per function and per configuration, a clone of every optimized body,
/// report and summary — so only callers that will use the snapshot ask
/// for it.
pub fn optimize_program_seeded(
    prog: &mut Program,
    cfg: &CommOptConfig,
    workers: usize,
    seed: Seed<'_>,
    keep: bool,
) -> (OptReport, Option<PipelineSnapshot>, IncrementalStats) {
    let n = prog.functions().len();
    let prev = match seed.0 {
        Reuse::Nothing(_) => None,
        Reuse::Snapshot(prev) => Some(prev),
    };
    // Fingerprints are what a seed is diffed against and what a kept
    // snapshot is stamped with; a run with neither never hashes.
    let fingerprinted = keep || prev.is_some();
    let fps = if fingerprinted {
        program_fingerprints(prog)
    } else {
        Vec::new()
    };
    let stamp = keep.then(|| match prev {
        Some(prev) => (prev.config_fp, prev.structs_fp),
        None => (config_fingerprint(cfg), structs_fingerprint(prog)),
    });
    if all_off(cfg) {
        // The identity transformation has no dirty set and nothing to
        // report; a kept snapshot records the bodies as they stand.
        let snapshot = stamp.map(|(config_fp, structs_fp)| PipelineSnapshot {
            config_fp,
            structs_fp,
            summaries: vec![Summary::default(); n],
            functions: prog
                .iter_functions()
                .map(|(fid, f)| FnSnapshot {
                    name: f.name.clone(),
                    fingerprint: fps[fid.index()],
                    escape_fp: 0,
                    reused: false,
                    optimized: f.clone(),
                    report: FnReport {
                        func: fid,
                        stats: SelectionStats::default(),
                        motion: crate::MotionLog::default(),
                    },
                })
                .collect(),
        });
        return (OptReport::default(), snapshot, IncrementalStats::default());
    }

    // 1. The summary table: the caller's whole-program fixpoint, or the
    // seed's, refixpointed exactly from the semantically-dirty set. Any
    // summary change — growth *or* shrinkage — escalates its dependents,
    // with the failing delta recorded as the cause.
    let mut stats = IncrementalStats::default();
    let mut changed_sums: BTreeSet<FuncId> = BTreeSet::new();
    let summaries: Cow<'_, [Summary]> = match seed.0 {
        Reuse::Nothing(analysis) => Cow::Borrowed(&analysis.summaries),
        Reuse::Snapshot(prev) => {
            let dirty_sem: BTreeSet<FuncId> = prog
                .iter_functions()
                .map(|(id, _)| id)
                .filter(|id| {
                    fps[id.index()].semantic != prev.functions[id.index()].fingerprint.semantic
                })
                .collect();
            let (summaries, _recomputed) =
                analyze_effects_incremental(prog, &prev.summaries, &dirty_sem);
            for (fid, f) in prog.iter_functions() {
                let (old, new) = (&prev.summaries[fid.index()], &summaries[fid.index()]);
                if old != new {
                    changed_sums.insert(fid);
                    stats.escalations += 1;
                    stats.escalation_causes.push(EscalationCause {
                        func: fid,
                        name: f.name.clone(),
                        delta: old.delta(new),
                    });
                }
            }
            Cow::Owned(summaries)
        }
    };

    // 2. The whole-program escape verdicts, computed once against the
    // pre-optimization program — every worker reads the same ones, which
    // keeps the fan-out deterministic — and hashed per function as the
    // precondition a purely local fingerprint cannot see.
    // A scratch run reads the instance memoized beside the caller's
    // analysis (the `escape` survey pass may have filled it already).
    let seeded_escape;
    let escape = match (cfg.escape, seed.0) {
        (EscapeMode::Off, _) => None,
        (EscapeMode::On, Reuse::Nothing(analysis)) => Some(analysis.escape(prog)),
        (EscapeMode::On, Reuse::Snapshot(_)) => {
            seeded_escape = EscapeAnalysis::compute(prog, &summaries);
            Some(&seeded_escape)
        }
    };
    let escape_fps = if fingerprinted {
        escape_fingerprints(prog, escape)
    } else {
        Vec::new()
    };

    // 3. What the seed can vouch for: a function keeps its cached
    // artifact unless its own artifact fingerprint, its escape
    // precondition or a callee's summary moved. The empty seed vouches
    // for nothing, so every function is dirty.
    let cached: Vec<Option<&FnSnapshot>> = match prev {
        None => vec![None; n],
        Some(prev) => prog
            .iter_functions()
            .map(|(id, f)| {
                let (i, old) = (id.index(), &prev.functions[id.index()]);
                let dirty = fps[i].artifact != old.fingerprint.artifact
                    || escape_fps[i] != old.escape_fp
                    || callees(f).iter().any(|c| changed_sums.contains(c));
                (!dirty).then_some(old)
            })
            .collect(),
    };
    let todo: Vec<FuncId> = prog
        .iter_functions()
        .map(|(id, _)| id)
        .filter(|id| cached[id.index()].is_none())
        .collect();

    // 4. Per-function analysis (regions + read/write sets) depends only on
    // the function's own body and the summary table: the caller's covers
    // every function; from a snapshot it is computed for the dirty set
    // only — the spliced functions never consult it.
    let sparse;
    let analysis = match seed.0 {
        Reuse::Nothing(analysis) => analysis,
        Reuse::Snapshot(_) => {
            sparse = analyze_with_summaries_for(prog, summaries.into_owned(), &todo);
            &sparse
        }
    };

    // 5. Placement + selection for the dirty set only, then the splice in
    // FuncId order: fresh results where dirty, the seed's artifacts
    // verbatim everywhere else.
    let mut fresh = optimize_set(prog, analysis, cfg, escape, &todo, workers).into_iter();
    let mut report = OptReport::default();
    let mut functions: Vec<FnSnapshot> = Vec::with_capacity(if keep { n } else { 0 });
    for (i, cached) in cached.into_iter().enumerate() {
        let fid = FuncId(i as u32);
        let (func, fr) = match cached {
            Some(cached) => {
                stats.functions_reused += 1;
                (cached.optimized.clone(), cached.report.clone())
            }
            None => {
                let (rfid, func, fr) = fresh.next().expect("one result per dirty function");
                debug_assert_eq!(rfid, fid);
                stats.functions_reoptimized += 1;
                (func, fr)
            }
        };
        if keep {
            functions.push(FnSnapshot {
                name: func.name.clone(),
                fingerprint: fps[i],
                escape_fp: escape_fps[i],
                reused: cached.is_some(),
                optimized: func.clone(),
                report: fr.clone(),
            });
        }
        prog.replace_function(fid, func);
        report.functions.push(fr);
    }
    let snapshot = stamp.map(|(config_fp, structs_fp)| PipelineSnapshot {
        config_fp,
        structs_fp,
        summaries: analysis.summaries.clone(),
        functions,
    });
    (report, snapshot, stats)
}

/// From-scratch optimization that also captures a [`PipelineSnapshot`]:
/// [`optimize_program_seeded`] from [`Seed::scratch`], keeping the
/// snapshot. Byte-identical to
/// [`optimize_program_with`](crate::optimize_program_with) with the same
/// arguments — the same body, with nothing to reuse.
pub fn optimize_program_snapshot(
    prog: &mut Program,
    cfg: &CommOptConfig,
    workers: usize,
    analysis: &ProgramAnalysis,
) -> (OptReport, PipelineSnapshot) {
    let (report, snapshot, _) =
        optimize_program_seeded(prog, cfg, workers, Seed::scratch(analysis), true);
    (report, snapshot.expect("a kept run returns its snapshot"))
}

/// Incremental placement + selection: [`optimize_program_seeded`] from
/// [`Seed::snapshot`]`(prev)`, keeping the next snapshot. The resulting
/// program, [`OptReport`], and motion logs are byte-identical to a
/// from-scratch [`optimize_program_with`](crate::optimize_program_with)
/// over the same program, for any `workers`.
///
/// # Errors
///
/// Returns the [`FallbackReason`] when the snapshot does not apply to
/// this (program, configuration) pair; the caller must fall back to the
/// cold path ([`optimize_program_snapshot`]) and discard `prev`.
pub fn optimize_program_incremental(
    prog: &mut Program,
    cfg: &CommOptConfig,
    workers: usize,
    prev: &PipelineSnapshot,
) -> Result<(OptReport, PipelineSnapshot, IncrementalStats), FallbackReason> {
    let seed = Seed::snapshot(prog, cfg, prev)?;
    let (report, snapshot, stats) = optimize_program_seeded(prog, cfg, workers, seed, true);
    Ok((
        report,
        snapshot.expect("a kept run returns its snapshot"),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AliasMode;
    use earth_frontend::compile;
    use earth_ir::pretty;

    const BASE: &str = r#"
        struct node { node* next; double x; double y; };
        void touch(node *n) { n->x = 1.0; }
        double dist(node *p) {
            double d;
            d = sqrt(p->x * p->x + p->y * p->y);
            return d;
        }
        double walk(node *head) {
            node *q;
            double acc;
            acc = 0.0;
            q = head;
            while (q != NULL) {
                acc = acc + dist(q);
                q = q->next;
            }
            return acc;
        }
    "#;

    fn cold(src: &str, cfg: &CommOptConfig) -> (Program, OptReport, PipelineSnapshot) {
        let mut prog = compile(src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let (report, snap) = optimize_program_snapshot(&mut prog, cfg, 1, &analysis);
        (prog, report, snap)
    }

    fn scratch(src: &str, cfg: &CommOptConfig, workers: usize) -> (Program, OptReport) {
        let mut prog = compile(src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let report = crate::optimize_program_with(&mut prog, cfg, &analysis, workers);
        (prog, report)
    }

    fn warm(
        src: &str,
        cfg: &CommOptConfig,
        workers: usize,
        prev: &PipelineSnapshot,
    ) -> (Program, OptReport, PipelineSnapshot, IncrementalStats) {
        let mut prog = compile(src).unwrap();
        let (report, snap, stats) =
            optimize_program_incremental(&mut prog, cfg, workers, prev).unwrap();
        (prog, report, snap, stats)
    }

    fn motions(report: &OptReport) -> String {
        report
            .functions
            .iter()
            .map(|f| f.motion.render())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The cold path is byte-identical to the plain whole-program driver.
    #[test]
    fn cold_path_matches_optimize_program_with() {
        let cfg = CommOptConfig::default();
        let (p1, r1, _snap) = cold(BASE, &cfg);
        let (p2, r2) = scratch(BASE, &cfg, 4);
        assert_eq!(pretty::print_program(&p1), pretty::print_program(&p2));
        assert_eq!(motions(&r1), motions(&r2));
    }

    /// Editing one function re-optimizes exactly the functions the edit
    /// can affect, and the spliced output is byte-identical to scratch —
    /// for every worker count.
    #[test]
    fn one_function_edit_is_byte_identical_to_scratch() {
        // `dist` changes a constant: its summary is unchanged (no new
        // heap effects), so only `dist` itself is dirty.
        let edited = BASE.replace("p->x * p->x", "p->x * p->x + 1.0");
        assert_ne!(edited, BASE);
        let cfg = CommOptConfig::default();
        let (_, _, snap) = cold(BASE, &cfg);
        let (sp, sr) = scratch(&edited, &cfg, 1);
        for workers in [1, 2, 8] {
            let (wp, wr, _snap2, stats) = warm(&edited, &cfg, workers, &snap);
            assert_eq!(
                pretty::print_program(&wp),
                pretty::print_program(&sp),
                "workers={workers}"
            );
            assert_eq!(motions(&wr), motions(&sr), "workers={workers}");
            assert_eq!(stats.functions_reoptimized, 1, "only dist re-ran");
            assert_eq!(stats.functions_reused, 2);
            assert_eq!(stats.escalations, 0);
        }
    }

    /// A rename-only edit leaves the semantic fingerprint (and hence the
    /// whole analysis) untouched but still re-optimizes the one function,
    /// because names appear in the printed artifact.
    #[test]
    fn rename_only_edit_reoptimizes_one_function_without_analysis() {
        let edited = BASE
            .replace("double acc;", "double total;")
            .replace("acc", "total");
        let cfg = CommOptConfig::default();
        let (_, _, snap) = cold(BASE, &cfg);
        let (sp, _) = scratch(&edited, &cfg, 1);
        let (wp, _, _, stats) = warm(&edited, &cfg, 1, &snap);
        assert_eq!(pretty::print_program(&wp), pretty::print_program(&sp));
        assert_eq!(stats.functions_reoptimized, 1);
        assert_eq!(stats.escalations, 0, "no summary moved");
    }

    /// Growing a callee's summary escalates: the caller re-optimizes too,
    /// and the cause names the callee with its covers delta.
    #[test]
    fn summary_change_escalates_callers() {
        // dist grows a *write* effect; its callers' read/write sets and
        // hence their placement decisions may change.
        let edited = BASE.replace(
            "return d;\n        }",
            "p->y = d;\n            return d;\n        }",
        );
        assert_ne!(edited, BASE);
        let cfg = CommOptConfig::default();
        let (_, _, snap) = cold(BASE, &cfg);
        let (sp, sr) = scratch(&edited, &cfg, 1);
        let (wp, wr, _, stats) = warm(&edited, &cfg, 2, &snap);
        assert_eq!(pretty::print_program(&wp), pretty::print_program(&sp));
        assert_eq!(motions(&wr), motions(&sr));
        assert!(stats.escalations >= 1, "{stats:?}");
        assert!(
            stats.escalation_causes.iter().any(|c| c.name == "dist"),
            "{:?}",
            stats.escalation_causes
        );
        let cause = stats
            .escalation_causes
            .iter()
            .find(|c| c.name == "dist")
            .unwrap();
        assert!(cause.delta.writes_added > 0, "{:?}", cause.delta);
        // walk calls dist, so it must have re-run.
        assert!(stats.functions_reoptimized >= 2, "{stats:?}");
    }

    /// Incremental runs compose under prob-alias mode too.
    #[test]
    fn prob_alias_incremental_matches_scratch() {
        let cfg = CommOptConfig {
            alias: AliasMode::Prob,
            ..CommOptConfig::default()
        };
        let edited = BASE.replace("acc + dist(q)", "acc + dist(q) + 1.0");
        let (_, _, snap) = cold(BASE, &cfg);
        let (sp, sr) = scratch(&edited, &cfg, 1);
        let (wp, wr, _, _) = warm(&edited, &cfg, 4, &snap);
        assert_eq!(pretty::print_program(&wp), pretty::print_program(&sp));
        assert_eq!(motions(&wr), motions(&sr));
    }

    /// Escape mode records its whole-program preconditions: an edit in
    /// `main` that changes another function's escape verdict re-optimizes
    /// that function even though its own body never changed.
    #[test]
    fn escape_precondition_change_reoptimizes_unedited_function() {
        let src = r#"
            struct N { N* next; double v; };
            double walk(N *head) {
                N *p;
                double acc;
                acc = 0.0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
            double main() {
                N *head;
                N *n;
                int i;
                head = NULL;
                i = 0;
                while (i < 8) {
                    n = malloc(sizeof(N));
                    n->v = 1.0;
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                return walk(head);
            }
        "#;
        // The edit publishes the list through a remote store target:
        // malloc_on another node makes the region escape, flipping walk's
        // upgrade verdicts without touching walk.
        let edited = src.replace("n = malloc(sizeof(N));", "n = malloc_on(1, sizeof(N));");
        assert_ne!(edited, src);
        let cfg = CommOptConfig {
            escape: crate::EscapeMode::On,
            ..CommOptConfig::default()
        };
        let (_, _, snap) = cold(src, &cfg);
        let (sp, sr) = scratch(&edited, &cfg, 1);
        let (wp, wr, snap2, _stats) = warm(&edited, &cfg, 1, &snap);
        assert_eq!(pretty::print_program(&wp), pretty::print_program(&sp));
        assert_eq!(motions(&wr), motions(&sr));
        // walk itself was not edited, but its escape precondition moved —
        // so it must not have been spliced from the stale verdict.
        let walk_idx = wp.function_by_name("walk").unwrap().index();
        assert_ne!(
            snap2.functions[walk_idx].escape_fp, snap.functions[walk_idx].escape_fp,
            "the edit must flip walk's escape verdicts"
        );
        assert!(!snap2.functions[walk_idx].reused);
    }

    /// Snapshots never apply across config, struct, or function-list
    /// changes — the caller must rebuild.
    #[test]
    fn applicability_rejects_mismatches() {
        let cfg = CommOptConfig::default();
        let (_, _, snap) = cold(BASE, &cfg);
        // Config change.
        let prob = CommOptConfig {
            alias: AliasMode::Prob,
            ..CommOptConfig::default()
        };
        let prog = compile(BASE).unwrap();
        assert_eq!(
            applicability(&prog, &prob, &snap),
            Err(FallbackReason::ConfigChanged)
        );
        // Struct change.
        let restructured = BASE.replace("double x; double y;", "double y; double x;");
        let prog2 = compile(&restructured).unwrap();
        assert_eq!(
            applicability(&prog2, &cfg, &snap),
            Err(FallbackReason::StructsChanged)
        );
        // Function added.
        let grown = format!("{BASE} double extra(node *n) {{ return n->x; }}");
        let prog3 = compile(&grown).unwrap();
        assert_eq!(
            applicability(&prog3, &cfg, &snap),
            Err(FallbackReason::FunctionsChanged)
        );
        // And the incremental driver surfaces the same error.
        let mut prog3 = compile(&grown).unwrap();
        assert_eq!(
            optimize_program_incremental(&mut prog3, &cfg, 1, &snap).unwrap_err(),
            FallbackReason::FunctionsChanged
        );
    }

    /// An unchanged program splices everything: zero re-optimizations,
    /// byte-identical output, and a snapshot that keeps working.
    #[test]
    fn unchanged_program_reuses_everything() {
        let cfg = CommOptConfig::default();
        let (p0, r0, snap) = cold(BASE, &cfg);
        let (wp, wr, snap2, stats) = warm(BASE, &cfg, 1, &snap);
        assert_eq!(pretty::print_program(&wp), pretty::print_program(&p0));
        assert_eq!(motions(&wr), motions(&r0));
        assert_eq!(stats.functions_reoptimized, 0);
        assert_eq!(stats.functions_reused, 3);
        assert!(snap2.functions.iter().all(|f| f.reused));
        // The chained snapshot still reproduces scratch after an edit.
        let edited = BASE.replace("1.0", "2.0");
        let (sp, _) = scratch(&edited, &cfg, 1);
        let (wp2, _, _, _) = warm(&edited, &cfg, 1, &snap2);
        assert_eq!(pretty::print_program(&wp2), pretty::print_program(&sp));
    }
}
