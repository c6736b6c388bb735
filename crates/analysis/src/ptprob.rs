//! Probability-annotated alias and frequency facts.
//!
//! The paper's placement analysis is *binary*: a conflict either exists or
//! it does not, and branch/loop frequencies are fixed guesses (halving, the
//! `loop_factor`). This module layers a probability annotation on top,
//! following the probabilistic-alias line of work: every fact is a
//! likelihood in `[0, 1]` derived from
//!
//! * **structural heuristics** on conditions (Ball–Larus-style branch
//!   prediction: pointer null tests rarely fail, equality tests rarely
//!   succeed, loop back-edges are usually taken), and
//! * **measured frequencies** when a profiling run is available (passed in
//!   as plain data by `earth-commopt`, which owns the profile types —
//!   measurements always win over heuristics).
//!
//! The facts also carry the [`PointerInduction`]s recognized by
//! [`crate::induction`], because the induction-justified blocking
//! relaxation in selection is gated on the loop's continue probability.
//!
//! # Probabilities weight cost, never safety
//!
//! Nothing in this module may relax a kill rule. [`ProbFacts::conflict_prob`]
//! returns `0.0` **iff** the binary [`FunctionAnalysis::heap_conflict`]
//! query returns `false`; every semantically possible conflict keeps a
//! strictly positive probability, and the placement kill rules keep
//! consulting the binary query. Probabilities only reweight tuple
//! frequencies and blocking decisions — and `earth-lint`'s validator
//! re-derives every probability-justified motion and hard-rejects any whose
//! *safety* would rest on a probability (diagnostics `ALP001`–`ALP003`).
//!
//! Forcing every annotation to the degenerate `{0, 1}` lattice recovers
//! the binary analysis exactly ([`ProbFacts::force_binary`]); the structural
//! heuristics never produce 0 or 1, so the forced facts are empty and the
//! optimizer's output is byte-identical to binary mode (property-tested in
//! `tests/prop_probalias.rs`).

use crate::induction::{find_pointer_inductions, PointerInduction};
use crate::{AccessKind, FunctionAnalysis};
use earth_ir::{BinOp, Cond, Const, Function, Label, Operand, Stmt, StmtKind, VarId};
use std::collections::BTreeMap;

/// Probability that a pointer null test (`p != NULL`) passes: list walks
/// and guarded dereferences almost always find a live pointer.
pub const PTR_NOT_NULL_PROB: f64 = 0.9;
/// Probability that an integer equality test succeeds (Ball–Larus "opcode
/// heuristic": equalities are rarely true).
pub const EQ_PROB: f64 = 0.3;
/// Probability that a loop back-edge is taken when no sharper heuristic
/// applies (Ball–Larus "loop branch heuristic").
pub const LOOP_CONTINUE_PROB: f64 = 0.88;
/// Conflict likelihood for accesses that reach the queried location only
/// through a *connected-but-distinct* pointer: possible, hence never 0, but
/// less likely than a direct access through the same base.
pub const ALIASED_CONFLICT_PROB: f64 = 0.65;

/// Measured branch/trip frequencies from a profiling run, keyed by the
/// pre-optimization statement labels. `earth-commopt` converts its
/// `FuncProfile` view into this crate-neutral form (the analysis crate
/// cannot depend on the profile crate without a cycle through the
/// simulator).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredFreqs {
    /// Probability that the branch/loop condition at a label was true.
    pub branch_prob: BTreeMap<Label, f64>,
    /// Mean trip count of the loop at a label.
    pub loop_trips: BTreeMap<Label, f64>,
}

/// Probability annotations for one function: likelihood facts over branch
/// and loop conditions plus the recognized pointer inductions.
///
/// Deterministic: a pure function of the function body, the analysis, and
/// the measured input (all maps are `BTreeMap`s), which keeps the
/// worker-fan-out of the optimizer byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbFacts {
    branch_prob: BTreeMap<Label, f64>,
    loop_trips: BTreeMap<Label, f64>,
    inductions: Vec<PointerInduction>,
}

impl ProbFacts {
    /// Computes the annotations for `f`: structural heuristics on every
    /// `if`/`while`/`do-while` condition, overridden by `measured`
    /// frequencies where present, plus the pointer inductions.
    pub fn compute(f: &Function, fa: &FunctionAnalysis, measured: Option<&MeasuredFreqs>) -> Self {
        let mut facts = ProbFacts {
            inductions: find_pointer_inductions(f, fa),
            ..ProbFacts::default()
        };
        annotate(&f.body, f, &mut facts);
        if let Some(m) = measured {
            facts.overlay(m);
        }
        facts
    }

    /// A copy of these facts with the `measured` frequencies laid over the
    /// structural heuristics (measurements always win).
    pub fn with_measured(&self, measured: &MeasuredFreqs) -> Self {
        let mut facts = self.clone();
        facts.overlay(measured);
        facts
    }

    fn overlay(&mut self, measured: &MeasuredFreqs) {
        for (&l, &p) in &measured.branch_prob {
            self.branch_prob.insert(l, p.clamp(0.0, 1.0));
        }
        for (&l, &t) in &measured.loop_trips {
            self.loop_trips.insert(l, t.max(0.0));
        }
    }

    /// The empty annotation: no likelihood facts, no inductions. Running
    /// the prob-alias pipeline with degenerate facts reproduces the binary
    /// pipeline exactly.
    pub fn degenerate() -> Self {
        ProbFacts::default()
    }

    /// Collapses the probability lattice to `{0, 1}`: annotations that are
    /// exactly 0 or 1 carry no information beyond the binary analysis and
    /// fractional ones are dropped. The structural heuristics never produce
    /// 0 or 1, so (absent measured input) the result is
    /// [`ProbFacts::degenerate`] plus the inductions — whose cost
    /// relaxation is itself gated on a fractional loop probability and
    /// therefore never fires. Used by the property tests to prove the prob
    /// pipeline degenerates to the binary one.
    pub fn force_binary(&self) -> Self {
        ProbFacts {
            branch_prob: self
                .branch_prob
                .iter()
                .filter(|(_, &p)| p == 0.0 || p == 1.0)
                .map(|(&l, &p)| (l, p))
                .collect(),
            loop_trips: BTreeMap::new(),
            inductions: self.inductions.clone(),
        }
    }

    /// Probability that the branch (or loop) condition at `l` is true, if
    /// annotated.
    pub fn branch_prob(&self, l: Label) -> Option<f64> {
        self.branch_prob.get(&l).copied()
    }

    /// Expected trip count of the loop at `l`, if measured.
    pub fn loop_trips(&self, l: Label) -> Option<f64> {
        self.loop_trips.get(&l).copied()
    }

    /// The pointer induction of the loop at `loop_label` covering `var`,
    /// if recognized.
    pub fn induction_at(&self, loop_label: Label, var: VarId) -> Option<&PointerInduction> {
        self.inductions
            .iter()
            .find(|i| i.loop_label == loop_label && i.var == var)
    }

    /// All recognized pointer inductions, in loop pre-order.
    pub fn inductions(&self) -> &[PointerInduction] {
        &self.inductions
    }

    /// Number of annotated branch/loop conditions.
    pub fn n_annotated(&self) -> usize {
        self.branch_prob.len()
    }

    /// The probabilistic refinement of
    /// [`FunctionAnalysis::heap_conflict`]: the likelihood that statement
    /// `l` performs a heap access of `kind` touching `p->field`.
    ///
    /// **Invariant** (validator-enforced): returns `0.0` *iff* the binary
    /// query returns `false`. A direct access through `p` itself is certain
    /// (`1.0`); an access through a merely *connected* pointer gets
    /// [`ALIASED_CONFLICT_PROB`] — still positive, so no kill rule built on
    /// "probability > 0" could ever be weaker than the binary rule.
    pub fn conflict_prob(
        &self,
        fa: &FunctionAnalysis,
        p: VarId,
        field: Option<earth_ir::FieldId>,
        l: Label,
        kind: AccessKind,
    ) -> f64 {
        if !fa.heap_conflict(p, field, l, kind) {
            return 0.0;
        }
        let rw = fa.rw.get(l);
        let direct = |accs: &[crate::HeapAccess]| {
            accs.iter().any(|h| {
                let field_match = match (h.field, field) {
                    (None, _) | (_, None) => true,
                    (Some(a), Some(b)) => a == b,
                };
                field_match && h.base == p
            })
        };
        let is_direct = match kind {
            AccessKind::Read => direct(rw.heap_reads),
            AccessKind::Write => direct(rw.heap_writes),
            AccessKind::ReadOrWrite => direct(rw.heap_reads) || direct(rw.heap_writes),
        };
        if is_direct {
            1.0
        } else {
            ALIASED_CONFLICT_PROB
        }
    }
}

/// Walks the body recording the structural condition heuristics.
fn annotate(s: &Stmt, f: &Function, facts: &mut ProbFacts) {
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
            for c in ss {
                annotate(c, f, facts);
            }
        }
        StmtKind::Basic(_) => {}
        StmtKind::If {
            cond,
            then_s,
            else_s,
        } => {
            if let Some(p) = branch_heuristic(cond, f) {
                facts.branch_prob.insert(s.label, p);
            }
            annotate(then_s, f, facts);
            annotate(else_s, f, facts);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (_, cs) in cases {
                annotate(cs, f, facts);
            }
            annotate(default, f, facts);
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            facts.branch_prob.insert(s.label, loop_heuristic(cond, f));
            annotate(body, f, facts);
        }
        StmtKind::Forall {
            init, step, body, ..
        } => {
            annotate(init, f, facts);
            annotate(step, f, facts);
            annotate(body, f, facts);
        }
    }
}

/// Ball–Larus-style taken-probability of an `if` condition, or `None` when
/// no heuristic applies (ordered comparisons: an uninformative 0.5).
fn branch_heuristic(cond: &Cond, f: &Function) -> Option<f64> {
    if let Some(p) = null_test_prob(cond, f) {
        return Some(p);
    }
    match cond.op {
        BinOp::Eq => Some(EQ_PROB),
        BinOp::Ne => Some(1.0 - EQ_PROB),
        _ => None,
    }
}

/// Continue-probability of a loop condition: the null-test heuristic when
/// it applies, otherwise the generic loop-branch heuristic (back-edges are
/// usually taken).
fn loop_heuristic(cond: &Cond, f: &Function) -> f64 {
    null_test_prob(cond, f).unwrap_or(LOOP_CONTINUE_PROB)
}

/// Probability that a pointer null test is true, if `cond` is one:
/// `p != NULL` almost always passes, `p == NULL` almost always fails.
fn null_test_prob(cond: &Cond, f: &Function) -> Option<f64> {
    if !matches!(cond.op, BinOp::Eq | BinOp::Ne) {
        return None;
    }
    let is_null = |o: &Operand| matches!(o, Operand::Const(Const::Null));
    let is_ptr = |o: &Operand| o.as_var().is_some_and(|v| f.var(v).ty.is_ptr());
    let null_test =
        (is_ptr(&cond.lhs) && is_null(&cond.rhs)) || (is_null(&cond.lhs) && is_ptr(&cond.rhs));
    if !null_test {
        return None;
    }
    Some(match cond.op {
        BinOp::Ne => PTR_NOT_NULL_PROB,
        _ => 1.0 - PTR_NOT_NULL_PROB,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;

    fn facts_for(src: &str, func: &str) -> (earth_ir::Program, ProbFacts, earth_ir::FuncId) {
        let prog = compile(src).unwrap();
        let analysis = crate::analyze(&prog);
        let fid = prog.function_by_name(func).unwrap();
        let facts = ProbFacts::compute(prog.function(fid), analysis.function(fid), None);
        (prog, facts, fid)
    }

    const WALK: &str = r#"
        struct node { node* next; int v; };
        int sum(node *head, int k) {
            node *p;
            int acc;
            acc = 0;
            p = head;
            while (p != NULL) {
                if (acc == k) { acc = 0; }
                acc = acc + p->v;
                p = p->next;
            }
            return acc;
        }
    "#;

    #[test]
    fn null_test_loop_gets_high_continue_prob() {
        let (prog, facts, fid) = facts_for(WALK, "sum");
        let f = prog.function(fid);
        let mut loop_label = None;
        let mut if_label = None;
        f.body.walk(&mut |s| match s.kind {
            StmtKind::While { .. } => loop_label = Some(s.label),
            StmtKind::If { .. } => if_label = Some(s.label),
            _ => {}
        });
        assert_eq!(
            facts.branch_prob(loop_label.unwrap()),
            Some(PTR_NOT_NULL_PROB)
        );
        assert_eq!(facts.branch_prob(if_label.unwrap()), Some(EQ_PROB));
        assert_eq!(facts.inductions().len(), 1);
        let ind = facts.induction_at(loop_label.unwrap(), f.var_by_name("p").unwrap());
        assert!(ind.is_some());
    }

    #[test]
    fn measured_frequencies_override_heuristics() {
        let prog = compile(WALK).unwrap();
        let analysis = crate::analyze(&prog);
        let fid = prog.function_by_name("sum").unwrap();
        let f = prog.function(fid);
        let mut loop_label = None;
        f.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::While { .. }) {
                loop_label = Some(s.label);
            }
        });
        let l = loop_label.unwrap();
        let mut m = MeasuredFreqs::default();
        m.branch_prob.insert(l, 0.42);
        m.loop_trips.insert(l, 7.0);
        let facts = ProbFacts::compute(f, analysis.function(fid), Some(&m));
        assert_eq!(facts.branch_prob(l), Some(0.42));
        assert_eq!(facts.loop_trips(l), Some(7.0));
    }

    #[test]
    fn force_binary_drops_fractional_annotations_but_keeps_inductions() {
        let (_prog, facts, _fid) = facts_for(WALK, "sum");
        assert!(facts.n_annotated() > 0);
        let forced = facts.force_binary();
        assert_eq!(forced.n_annotated(), 0, "heuristics are never 0/1");
        assert_eq!(forced.inductions().len(), facts.inductions().len());
    }

    #[test]
    fn conflict_prob_is_zero_iff_binary_says_no_conflict() {
        let src = r#"
            struct node { node* next; double x; double y; };
            void f(node *p, node *t) {
                node *q;
                double a;
                q = p;
                q->x = 1.0;
                a = t->x;
            }
        "#;
        let prog = compile(src).unwrap();
        let analysis = crate::analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let fa = analysis.function(fid);
        let facts = ProbFacts::compute(f, fa, None);
        let p = f.var_by_name("p").unwrap();
        let q = f.var_by_name("q").unwrap();
        let t = f.var_by_name("t").unwrap();
        let fx = Some(earth_ir::FieldId(1));
        let store_x = f.basic_stmts()[1].0; // q->x = 1.0
        use crate::AccessKind::Write;
        // Aliased conflict (p connected to q): positive but uncertain.
        assert_eq!(
            facts.conflict_prob(fa, p, fx, store_x, Write),
            ALIASED_CONFLICT_PROB
        );
        // Direct conflict through q itself: certain.
        assert_eq!(facts.conflict_prob(fa, q, fx, store_x, Write), 1.0);
        // No binary conflict (t is a separate region): exactly zero.
        assert!(!fa.heap_conflict(t, fx, store_x, Write));
        assert_eq!(facts.conflict_prob(fa, t, fx, store_x, Write), 0.0);
    }
}
