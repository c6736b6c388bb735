//! # earth-analysis — producer analyses for communication optimization
//!
//! This crate implements the McCAT Phase-I analyses the paper's
//! possible-placement analysis consumes (see §2.3 and §4 of Zhu & Hendren,
//! PLDI 1998):
//!
//! * [`effects`] — interprocedural region (connection) analysis and heap
//!   side-effect summaries, standing in for the points-to + connection
//!   analyses of Emami/Ghiya/Hendren;
//! * [`rw_sets`] — hierarchical read/write sets decorating every basic and
//!   compound statement;
//! * [`locality`] — locality inference upgrading provably-local pointers;
//! * [`escape`] / [`affinity`] — whole-program escape & node-affinity
//!   analysis classifying heap regions as node-local, owner-confined or
//!   shared, licensing locality upgrades *through loads* (behind
//!   `--escape on`);
//! * [`ptprob`] — probability-annotated alias/frequency facts (structural
//!   branch heuristics blended with measured frequencies) and [`induction`]
//!   — loop pointer-induction recognition; both weight the optimizer's
//!   *cost* decisions only, never its safety rules;
//! * the [`FunctionAnalysis`] facade with the two queries the placement
//!   analysis needs: `varWritten` and `accessedViaAlias` (the paper's
//!   anchor-handle-based alias query, here answered with connection
//!   classes).
//!
//! # Examples
//!
//! ```
//! let prog = earth_frontend::compile(r#"
//!     struct node { node* next; int v; };
//!     int sum(node *head) {
//!         node *p;
//!         int acc;
//!         acc = 0;
//!         p = head;
//!         while (p != NULL) { acc = acc + p->v; p = p->next; }
//!         return acc;
//!     }
//! "#).unwrap();
//! let analysis = earth_analysis::analyze(&prog);
//! let fid = prog.function_by_name("sum").unwrap();
//! let f = prog.function(fid);
//! let (head, p) = (f.var_by_name("head").unwrap(), f.var_by_name("p").unwrap());
//! // The traversal cursor is connected to the list head: they may point
//! // into the same structure.
//! assert!(analysis.function(fid).regions.connected(head, p));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod cache;
pub mod effects;
pub mod escape;
pub mod induction;
pub mod locality;
pub mod ptprob;
pub mod rw_sets;
mod uf;

pub use affinity::AffinityLocals;
pub use cache::{AnalysisCache, CacheStats, EscalationCause, FactStats};
pub use effects::{
    analyze_effects, analyze_effects_incremental, callees, reanalyze_function, Regions, Root,
    Summary, SummaryDelta,
};
pub use escape::{EscapeAnalysis, EscapeJustification, EscapeVerdict};
pub use induction::{find_pointer_inductions, PointerInduction};
pub use locality::{infer_locality, LocalityReport};
pub use ptprob::{MeasuredFreqs, ProbFacts};
pub use rw_sets::{HeapAccess, RwSet, RwSets};

use earth_ir::{FieldId, FuncId, Function, Label, Program, VarId};
use std::sync::OnceLock;

/// Which kind of heap access to test for in
/// [`FunctionAnalysis::heap_conflict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Heap reads only.
    Read,
    /// Heap writes only.
    Write,
    /// Reads or writes.
    ReadOrWrite,
}

/// All analysis results for one function.
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// Connection/region classes of the function's pointer variables.
    pub regions: Regions,
    /// Per-statement read/write sets.
    pub rw: RwSets,
    /// The structural probability facts, filled by their first consumer.
    prob: OnceLock<ProbFacts>,
}

impl FunctionAnalysis {
    pub(crate) fn new(regions: Regions, rw: RwSets) -> Self {
        FunctionAnalysis {
            regions,
            rw,
            prob: OnceLock::new(),
        }
    }

    /// The structural [`ProbFacts`] (no measured input) of `f`, which must
    /// be the function this analysis was computed for. Computed by the
    /// first caller and read by every later one: the `prob-alias` survey
    /// pass, the optimizer and the validator's replay share one instance.
    /// The facts read only the body and the variables' types, so a copy of
    /// the function with upgraded localities yields the same ones.
    pub fn prob_facts(&self, f: &Function) -> &ProbFacts {
        self.prob.get_or_init(|| ProbFacts::compute(f, self, None))
    }

    /// The paper's `varWritten(p, stmt)`: does statement `l` (or any of its
    /// children) write variable `v` directly?
    pub fn var_written(&self, v: VarId, l: Label) -> bool {
        self.rw.var_written(v, l)
    }

    /// The paper's `accessedViaAlias(p, f, d, stmt, kind)` generalized:
    /// does statement `l` perform a heap access of the given `kind` that
    /// may touch field `field` of the structure `p` points into?
    ///
    /// `field = None` matches any field (whole-struct tuples); accesses
    /// with `field = None` (block moves, conservative call effects) match
    /// any queried field. All accesses through pointers *connected* to `p`
    /// are counted — including direct accesses through `p` itself, which is
    /// stricter than the paper's anchor-handle rule; the blocking
    /// transformation recovers the paper's direct-access flexibility by
    /// rewriting whole unaliased spans (see `earth-commopt`).
    pub fn heap_conflict(
        &self,
        p: VarId,
        field: Option<FieldId>,
        l: Label,
        kind: AccessKind,
    ) -> bool {
        let rw = self.rw.get(l);
        let check = |accs: &[HeapAccess]| {
            accs.iter().any(|h| {
                let field_match = match (h.field, field) {
                    (None, _) | (_, None) => true,
                    (Some(a), Some(b)) => a == b,
                };
                field_match && self.regions.connected(h.base, p)
            })
        };
        match kind {
            AccessKind::Read => check(rw.heap_reads),
            AccessKind::Write => check(rw.heap_writes),
            AccessKind::ReadOrWrite => check(rw.heap_reads) || check(rw.heap_writes),
        }
    }
}

/// Whole-program analysis results.
///
/// The per-function results may be *sparse* (see
/// [`analyze_with_summaries_for`]): the incremental pipeline only pays
/// for the functions it is about to re-optimize.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Per-function heap effect summaries, indexed by [`FuncId`].
    pub summaries: Vec<Summary>,
    functions: Vec<Option<FunctionAnalysis>>,
    /// The whole-program escape verdicts, filled by their first consumer.
    escape: OnceLock<EscapeAnalysis>,
}

impl ProgramAnalysis {
    fn new(summaries: Vec<Summary>, functions: Vec<Option<FunctionAnalysis>>) -> Self {
        ProgramAnalysis {
            summaries,
            functions,
            escape: OnceLock::new(),
        }
    }

    /// The [`EscapeAnalysis`] of `prog`, which must be the program this
    /// analysis was computed for. Computed by the first caller and read by
    /// every later one: the `escape` survey pass and the optimizer share
    /// one instance.
    pub fn escape(&self, prog: &Program) -> &EscapeAnalysis {
        self.escape
            .get_or_init(|| EscapeAnalysis::compute(prog, &self.summaries))
    }

    /// Which of the memoized facts ([`escape`](Self::escape),
    /// [`FunctionAnalysis::prob_facts`]) have been computed so far.
    pub fn fact_stats(&self) -> FactStats {
        FactStats {
            escape_computes: self.escape.get().is_some() as u64,
            prob_computes: self
                .functions
                .iter()
                .flatten()
                .filter(|fa| fa.prob.get().is_some())
                .count() as u64,
        }
    }

    /// The analysis results for function `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if this is a sparse analysis
    /// ([`analyze_with_summaries_for`]) that did not cover `id`.
    pub fn function(&self, id: FuncId) -> &FunctionAnalysis {
        self.functions[id.index()]
            .as_ref()
            .expect("per-function analysis not computed for this function (sparse analysis)")
    }

    /// Number of functions covered (the program size the analysis was
    /// computed for).
    pub fn n_functions(&self) -> usize {
        self.functions.len()
    }

    /// Replaces one function's cached results (the analysis cache's
    /// per-function refresh).
    /// The body changed, so the whole-program escape verdicts are
    /// dropped with the function's old results.
    pub(crate) fn set_function(&mut self, id: FuncId, fa: FunctionAnalysis) {
        self.functions[id.index()] = Some(fa);
        self.escape = OnceLock::new();
    }
}

/// Runs the full analysis pipeline (effects fixpoint, regions, read/write
/// sets) over a program.
pub fn analyze(prog: &Program) -> ProgramAnalysis {
    let (summaries, regions) = analyze_effects(prog);
    let functions = prog
        .iter_functions()
        .zip(regions)
        .map(|((_, f), regions)| {
            Some(FunctionAnalysis::new(
                regions,
                RwSets::compute(prog, f, &summaries),
            ))
        })
        .collect();
    ProgramAnalysis::new(summaries, functions)
}

/// Assembles a [`ProgramAnalysis`] from an already-exact summary table,
/// skipping the interprocedural fixpoint: regions and read/write sets are
/// rebuilt per function against `summaries` exactly as [`analyze`] does
/// once its fixpoint has converged.
///
/// This is the incremental pipeline's fast path. Pair it with
/// [`analyze_effects_incremental`]: when `summaries` equals what
/// [`analyze_effects`] would produce for `prog` (which that function
/// guarantees), the result is indistinguishable from a from-scratch
/// [`analyze`].
pub fn analyze_with_summaries(prog: &Program, summaries: Vec<Summary>) -> ProgramAnalysis {
    let all: Vec<FuncId> = prog.iter_functions().map(|(id, _)| id).collect();
    analyze_with_summaries_for(prog, summaries, &all)
}

/// [`analyze_with_summaries`] restricted to the functions in `todo`:
/// regions and read/write sets are computed for exactly those functions
/// and left absent elsewhere ([`ProgramAnalysis::function`] panics for
/// an uncovered id). Per-function results depend only on the function's
/// own body and the summary table, so a covered function's entry is
/// identical to what the dense form computes.
pub fn analyze_with_summaries_for(
    prog: &Program,
    summaries: Vec<Summary>,
    todo: &[FuncId],
) -> ProgramAnalysis {
    assert_eq!(
        summaries.len(),
        prog.functions().len(),
        "summary table does not match this program"
    );
    let mut functions: Vec<Option<FunctionAnalysis>> = vec![None; summaries.len()];
    for &fid in todo {
        let f = prog.function(fid);
        let (_, regions) = reanalyze_function(prog, f, &summaries);
        functions[fid.index()] = Some(FunctionAnalysis::new(
            regions,
            RwSets::compute(prog, f, &summaries),
        ));
    }
    ProgramAnalysis::new(summaries, functions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;

    /// Re-assembling the analysis from the exact summary table must agree
    /// with the from-scratch pipeline on every query surface the optimizer
    /// uses (summaries, region classes, read/write conflicts).
    #[test]
    fn analyze_with_summaries_matches_scratch() {
        let prog = compile(
            r#"
            struct node { node* next; double x; double y; };
            void poke(node *n) { n->x = 2.0; }
            double f(node *p) {
                node *q;
                q = p;
                poke(q);
                return p->x;
            }
        "#,
        )
        .unwrap();
        let scratch = analyze(&prog);
        let rebuilt = analyze_with_summaries(&prog, scratch.summaries.clone());
        assert_eq!(scratch.summaries, rebuilt.summaries);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let p = f.var_by_name("p").unwrap();
        let q = f.var_by_name("q").unwrap();
        assert_eq!(
            scratch.function(fid).regions.connected(p, q),
            rebuilt.function(fid).regions.connected(p, q)
        );
        let (call_label, _) = f
            .basic_stmts()
            .into_iter()
            .find(|(_, b)| matches!(b, earth_ir::Basic::Call { .. }))
            .unwrap();
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::ReadOrWrite] {
            assert_eq!(
                scratch
                    .function(fid)
                    .heap_conflict(p, Some(FieldId(1)), call_label, kind),
                rebuilt
                    .function(fid)
                    .heap_conflict(p, Some(FieldId(1)), call_label, kind)
            );
        }
    }

    #[test]
    fn heap_conflict_respects_fields_and_regions() {
        let prog = compile(
            r#"
            struct node { node* next; double x; double y; };
            void f(node *p, node *t) {
                double a;
                p->x = 1.0;
                a = t->x;
            }
        "#,
        )
        .unwrap();
        let analysis = analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let fa = analysis.function(fid);
        let p = f.var_by_name("p").unwrap();
        let t = f.var_by_name("t").unwrap();
        let stmts = f.basic_stmts();
        let (write_label, _) = stmts[0]; // p->x = 1.0
        let fx = Some(FieldId(1));
        let fy = Some(FieldId(2));
        // A write via p conflicts with tuples based on p (same field).
        assert!(fa.heap_conflict(p, fx, write_label, AccessKind::Write));
        // ... but not a different field.
        assert!(!fa.heap_conflict(p, fy, write_label, AccessKind::Write));
        // t is in a different region: no conflict.
        assert!(!fa.heap_conflict(t, fx, write_label, AccessKind::Write));
        // Whole-struct queries match any field.
        assert!(fa.heap_conflict(p, None, write_label, AccessKind::ReadOrWrite));
    }

    #[test]
    fn calls_conflict_through_summaries() {
        let prog = compile(
            r#"
            struct node { node* next; double x; double y; };
            void poke(node *n) { n->x = 2.0; }
            void f(node *p) {
                poke(p);
            }
        "#,
        )
        .unwrap();
        let analysis = analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let fa = analysis.function(fid);
        let p = f.var_by_name("p").unwrap();
        let (call_label, _) = f.basic_stmts()[0];
        assert!(fa.heap_conflict(p, Some(FieldId(1)), call_label, AccessKind::Write));
        assert!(!fa.heap_conflict(p, Some(FieldId(2)), call_label, AccessKind::Write));
    }

    #[test]
    fn connection_survives_copies_and_cycles() {
        // Traversal cursors, copy chains, and even a self-referential store
        // all land in the head's connection class; a freshly-malloc'd
        // structure stays separate until a store links it.
        let prog = compile(
            r#"
            struct node { node* next; int v; };
            void f(node *a) {
                node *b;
                node *c;
                node *d;
                b = a;
                c = b->next;
                d = malloc(sizeof(node));
                d->next = d;
                while (c != NULL) {
                    c = c->next;
                }
            }
        "#,
        )
        .unwrap();
        let analysis = analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let r = &analysis.function(fid).regions;
        let v = |n: &str| f.var_by_name(n).unwrap();
        assert!(r.connected(v("a"), v("b")));
        assert!(r.connected(v("a"), v("c")));
        // The cyclic store d->next = d merges d with itself — harmless —
        // and must not leak into a's region.
        assert!(!r.connected(v("a"), v("d")));
    }

    #[test]
    fn store_links_regions() {
        // `p->next = q` makes q's structure reachable from p: one region.
        let prog = compile(
            r#"
            struct node { node* next; int v; };
            void link(node *p, node *q) {
                p->next = q;
            }
        "#,
        )
        .unwrap();
        let analysis = analyze(&prog);
        let fid = prog.function_by_name("link").unwrap();
        let f = prog.function(fid);
        let r = &analysis.function(fid).regions;
        assert!(r.connected(f.var_by_name("p").unwrap(), f.var_by_name("q").unwrap()));
    }

    #[test]
    fn rw_sets_kill_queries_are_field_sensitive() {
        // A store to one field must not register as a conflicting write for
        // a disjoint field of the same region — the placement analysis
        // relies on this to hoist reads of untouched fields across stores.
        let prog = compile(
            r#"
            struct node { node* next; double x; double y; };
            void f(node *p) {
                node *q;
                q = p;
                q->x = 1.0;
                q->next = q;
            }
        "#,
        )
        .unwrap();
        let analysis = analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let fa = analysis.function(fid);
        let p = f.var_by_name("p").unwrap();
        let q = f.var_by_name("q").unwrap();
        let stmts = f.basic_stmts();
        let (copy_label, _) = stmts[0]; // q = p
        let (store_x, _) = stmts[1]; // q->x = 1.0
        let (store_next, _) = stmts[2]; // q->next = q
                                        // The copy writes q (a kill for motions based on q) but performs no
                                        // heap access at all.
        assert!(fa.var_written(q, copy_label));
        assert!(!fa.var_written(p, copy_label));
        assert!(!fa.heap_conflict(p, None, copy_label, AccessKind::ReadOrWrite));
        // Aliased store to x kills x-reads but not y-reads (field kill);
        // the next-store kills next but neither double field.
        assert!(fa.heap_conflict(p, Some(FieldId(1)), store_x, AccessKind::Write));
        assert!(!fa.heap_conflict(p, Some(FieldId(2)), store_x, AccessKind::Write));
        assert!(fa.heap_conflict(p, Some(FieldId(0)), store_next, AccessKind::Write));
        assert!(!fa.heap_conflict(p, Some(FieldId(1)), store_next, AccessKind::Write));
        // Both stores answer the whole-struct (blocking) query.
        assert!(fa.heap_conflict(p, None, store_x, AccessKind::Write));
    }

    #[test]
    fn scalar_call_has_no_heap_conflicts() {
        let prog = compile(
            r#"
            struct node { double x; };
            double scale(double v, double k) { return v * k; }
            void f(node *p, double k) {
                double t;
                t = scale(p->x, k);
                p->x = t;
            }
        "#,
        )
        .unwrap();
        let analysis = analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let fa = analysis.function(fid);
        let p = f.var_by_name("p").unwrap();
        let call_label = f
            .basic_stmts()
            .iter()
            .find(|(_, b)| matches!(b, earth_ir::Basic::Call { .. }))
            .map(|(l, _)| *l)
            .unwrap();
        assert!(!fa.heap_conflict(p, Some(FieldId(0)), call_label, AccessKind::ReadOrWrite));
    }
}
