//! Shared analysis cache for the pass-manager pipeline.
//!
//! The paper's framework is staged: points-to/connection analysis feeds
//! read/write sets, which feed possible-placement and communication
//! selection (§3, Fig. 2). Every stage consumes the *same*
//! [`ProgramAnalysis`], so recomputing it per consumer (optimizer,
//! validator, race linter, CLI) multiplies the most expensive part of the
//! compiler by the number of consumers. [`AnalysisCache`] computes the
//! analysis once, hands out shared references, and tracks explicit
//! invalidation at two granularities:
//!
//! * [`invalidate_all`](AnalysisCache::invalidate_all) — the next
//!   [`get`](AnalysisCache::get) performs a whole-program re-analysis
//!   (structural changes: inlining, locality upgrades);
//! * [`invalidate_function`](AnalysisCache::invalidate_function) — the
//!   function is re-analyzed in isolation against the cached
//!   interprocedural summaries. If its fresh summary is no longer
//!   [covered](crate::Summary::covers) by the published one, the cache
//!   *escalates* to a whole-program re-analysis — per-function reuse is
//!   an optimization, never a soundness leak.
//!
//! Every outcome is counted ([`CacheStats`]); the pass manager surfaces the
//! counters per pass, and the regression tests pin the "one analysis per
//! pipeline run" property to the miss counter.

use crate::effects::{reanalyze_function, SummaryDelta};
use crate::rw_sets::RwSets;
use crate::{analyze, FunctionAnalysis, ProgramAnalysis};
use earth_ir::{FuncId, Program};
use std::collections::BTreeSet;

/// Counters describing how the cache behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls answered from the cache without any recomputation.
    pub hits: u64,
    /// Whole-program analysis computations (initial fill, invalidation, or
    /// escalation from a per-function recompute whose summary grew).
    pub misses: u64,
    /// Functions re-analyzed in isolation after per-function invalidation.
    pub function_recomputes: u64,
    /// Explicit invalidation events (whole-program or per-function).
    pub invalidations: u64,
    /// Per-function recomputes that escalated to a whole-program
    /// re-analysis because the fresh summary was no longer covered. Each
    /// has a recorded [`EscalationCause`].
    pub escalations: u64,
}

earth_ir::json_codec!(struct CacheStats {
    hits,
    misses,
    function_recomputes,
    invalidations,
    escalations,
});

impl CacheStats {
    /// Component-wise difference `self - earlier` (saturating), used by the
    /// pass manager to attribute cache activity to individual passes.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            function_recomputes: self
                .function_recomputes
                .saturating_sub(earlier.function_recomputes),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            escalations: self.escalations.saturating_sub(earlier.escalations),
        }
    }

    /// `true` when no counter moved.
    pub fn is_zero(&self) -> bool {
        *self == CacheStats::default()
    }
}

/// How many of the facts memoized beside an analysis — the whole-program
/// [`EscapeAnalysis`](crate::EscapeAnalysis) and the per-function
/// structural [`ProbFacts`](crate::ProbFacts) — it has computed. However
/// many passes read a fact, one analysis computes it once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactStats {
    /// Whole-program escape analyses computed (0 or 1).
    pub escape_computes: u64,
    /// Functions whose probability facts were computed.
    pub prob_computes: u64,
}

/// Why a per-function refresh escalated to a whole-program re-analysis:
/// which function's fresh summary broke coverage, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationCause {
    /// The function whose summary was no longer covered.
    pub func: FuncId,
    /// Its name (stable across re-parses, unlike the positional id).
    pub name: String,
    /// The failing `covers` delta: `delta.added() > 0` is exactly the
    /// evidence that forced the escalation.
    pub delta: SummaryDelta,
}

impl EscalationCause {
    /// One-line rendering, e.g. `` `read` summary grew: +1w ``.
    pub fn render(&self) -> String {
        format!("`{}` summary grew: {}", self.name, self.delta.render())
    }
}

/// A memoized [`ProgramAnalysis`] with explicit, counted invalidation.
///
/// # Examples
///
/// ```
/// use earth_analysis::AnalysisCache;
///
/// let prog = earth_frontend::compile(r#"
///     struct N { N* next; int v; };
///     int head(N *n) { return n->v; }
/// "#).unwrap();
/// let mut cache = AnalysisCache::new();
/// cache.get(&prog); // computes
/// cache.get(&prog); // cached
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Default)]
pub struct AnalysisCache {
    analysis: Option<ProgramAnalysis>,
    dirty: BTreeSet<FuncId>,
    stats: CacheStats,
    escalation_log: Vec<EscalationCause>,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops the cached analysis entirely: the next [`get`](Self::get)
    /// recomputes the whole program. Use after structural changes
    /// (function inlining, struct layout changes, locality upgrades).
    pub fn invalidate_all(&mut self) {
        if self.analysis.take().is_some() {
            self.stats.invalidations += 1;
        }
        self.dirty.clear();
    }

    /// The facts the cached analysis has computed so far (see
    /// [`FactStats`]); all zero when nothing is cached.
    pub fn fact_stats(&self) -> FactStats {
        self.analysis
            .as_ref()
            .map(ProgramAnalysis::fact_stats)
            .unwrap_or_default()
    }

    /// Marks one function's cached results stale: the next
    /// [`get`](Self::get) re-analyzes it in isolation (escalating to a
    /// whole-program re-analysis only if its effect summary grew).
    pub fn invalidate_function(&mut self, fid: FuncId) {
        if self.analysis.is_some() && self.dirty.insert(fid) {
            self.stats.invalidations += 1;
        }
    }

    /// The analysis of `prog`, recomputing as little as invalidation
    /// requires: nothing (hit), the dirty functions (per-function
    /// recompute), or the whole program (miss).
    pub fn get(&mut self, prog: &Program) -> &ProgramAnalysis {
        // A changed function count means FuncIds were re-meaning'd:
        // per-function reuse is off the table.
        if self
            .analysis
            .as_ref()
            .is_some_and(|a| a.n_functions() != prog.functions().len())
        {
            self.analysis = None;
            self.dirty.clear();
        }
        if self.analysis.is_none() {
            self.stats.misses += 1;
            self.dirty.clear();
            self.analysis = Some(analyze(prog));
            return self.analysis.as_ref().unwrap();
        }
        if self.dirty.is_empty() {
            self.stats.hits += 1;
            return self.analysis.as_ref().unwrap();
        }

        // Per-function refresh. The cached summary stays published (it is
        // what every *other* function's read/write sets were computed
        // against); the refresh is sound exactly when it still covers the
        // fresh one.
        let dirty = std::mem::take(&mut self.dirty);
        let mut escalate = false;
        let a = self.analysis.as_mut().unwrap();
        for &fid in &dirty {
            let f = prog.function(fid);
            let (summary, regions) = reanalyze_function(prog, f, &a.summaries);
            if !a.summaries[fid.index()].covers(&summary) {
                // Record *why* before escalating, so reports and tests can
                // attribute the whole-program re-analysis to its cause.
                self.stats.escalations += 1;
                self.escalation_log.push(EscalationCause {
                    func: fid,
                    name: f.name.clone(),
                    delta: a.summaries[fid.index()].delta(&summary),
                });
                escalate = true;
                break;
            }
            let rw = RwSets::compute(prog, f, &a.summaries);
            a.set_function(fid, FunctionAnalysis::new(regions, rw));
            self.stats.function_recomputes += 1;
        }
        if escalate {
            self.stats.misses += 1;
            self.analysis = Some(analyze(prog));
        } else {
            self.stats.hits += 1;
        }
        self.analysis.as_ref().unwrap()
    }

    /// Every recorded escalation cause, oldest first (one per
    /// `escalations` count).
    pub fn escalation_causes(&self) -> &[EscalationCause] {
        &self.escalation_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;
    use earth_ir::{Basic, Const, Operand, Place, Rvalue, Stmt, StmtKind};

    const SRC: &str = r#"
        struct N { N* next; double x; double y; };
        void touch(N *n) { n->x = 1.0; }
        double read(N *n) { return n->x; }
    "#;

    #[test]
    fn hit_after_miss() {
        let prog = compile(SRC).unwrap();
        let mut cache = AnalysisCache::new();
        cache.get(&prog);
        cache.get(&prog);
        cache.get(&prog);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                function_recomputes: 0,
                invalidations: 0,
                escalations: 0
            }
        );
    }

    #[test]
    fn invalidate_all_recomputes() {
        let prog = compile(SRC).unwrap();
        let mut cache = AnalysisCache::new();
        cache.get(&prog);
        cache.invalidate_all();
        cache.get(&prog);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().invalidations, 1);
    }

    /// A body change that stays within the published summary (here: the
    /// identity — nothing changed) refreshes only the one function.
    #[test]
    fn per_function_recompute_within_summary() {
        let prog = compile(SRC).unwrap();
        let fid = prog.function_by_name("touch").unwrap();
        let mut cache = AnalysisCache::new();
        cache.get(&prog);
        cache.invalidate_function(fid);
        cache.get(&prog);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                function_recomputes: 1,
                invalidations: 1,
                escalations: 0
            }
        );
    }

    /// Growing a function's heap effects beyond its published summary
    /// escalates to a whole-program re-analysis.
    #[test]
    fn summary_growth_escalates() {
        let mut prog = compile(SRC).unwrap();
        let mut cache = AnalysisCache::new();
        cache.get(&prog);
        // Rewrite `read` so it also *writes* n->y: a new effect its cached
        // summary does not cover.
        let fid = prog.function_by_name("read").unwrap();
        let mut f = prog.function(fid).clone();
        let n = f.var_by_name("n").unwrap();
        let store = Stmt {
            label: f.fresh_label(),
            kind: StmtKind::Basic(Basic::Assign {
                dst: Place::Mem(earth_ir::MemRef::Deref {
                    base: n,
                    field: earth_ir::FieldId(2),
                }),
                src: Rvalue::Use(Operand::Const(Const::Double(9.0))),
            }),
        };
        if let StmtKind::Seq(ss) = &mut f.body.kind {
            ss.insert(0, store);
        } else {
            panic!("body is a Seq");
        }
        prog.replace_function(fid, f);
        cache.invalidate_function(fid);
        cache.get(&prog);
        assert_eq!(cache.stats().misses, 2, "{:?}", cache.stats());
        // The escalation is counted and its cause recorded: `read` grew a
        // write effect its published summary lacked.
        assert_eq!(cache.stats().escalations, 1);
        let causes = cache.escalation_causes();
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].func, fid);
        assert_eq!(causes[0].name, "read");
        assert!(causes[0].delta.added() > 0, "{:?}", causes[0].delta);
        assert_eq!(causes[0].delta.writes_added, 1);
        assert!(causes[0].render().contains("`read` summary grew"));
        // The escalated analysis sees the new write.
        let prog2 = prog.clone();
        let a = cache.get(&prog2);
        assert!(a.summaries[fid.index()]
            .writes
            .iter()
            .any(|(_, f)| *f == Some(earth_ir::FieldId(2))));
    }

    /// A changed function count silently falls back to a full re-analysis
    /// (FuncIds are positional).
    #[test]
    fn function_count_change_is_a_miss() {
        let prog = compile(SRC).unwrap();
        let bigger = compile(&format!("{SRC} void extra(N *n) {{ n->y = 2.0; }}")).unwrap();
        let mut cache = AnalysisCache::new();
        cache.get(&prog);
        cache.get(&bigger);
        assert_eq!(cache.stats().misses, 2);
    }
}
