//! Interprocedural region and side-effect analysis.
//!
//! This module plays the role of the McCAT points-to / connection analysis
//! and read-write-set infrastructure (Emami/Ghiya/Hendren) that the paper's
//! possible-placement analysis consumes. It computes, per function:
//!
//! * **Region classes** — a unification-based (Steensgaard-style) partition
//!   of the function's pointer variables: two pointers land in the same
//!   class when one may point into the data structure reachable from the
//!   other. This is the *connection* relation of Ghiya & Hendren, made
//!   field-insensitive and flow-insensitive (strictly coarser, hence safe
//!   for the kill rules that consume it).
//! * **Heap effect summaries** — which fields of which *roots* (parameter
//!   regions or fresh allocations) a function may read or write, including
//!   effects of its callees, plus which parameter regions it may merge and
//!   which regions its return value may point into.
//!
//! Summaries are computed by a whole-program fixed-point (handles
//! recursion); the lattice is finite so termination is guaranteed.

use crate::uf::UnionFind;
use earth_ir::{
    Basic, FieldId, Function, MemRef, Operand, Place, Program, Rvalue, StmtKind, VarId,
};
use std::collections::BTreeSet;

/// A root of a heap region, from a callee's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Root {
    /// The region reachable from the `i`-th parameter.
    Param(usize),
    /// A region allocated within the function (invisible to the caller
    /// unless returned or merged into a parameter region).
    Fresh,
}

/// A field selector in an effect: `None` means the whole struct (block
/// moves and conservative call effects).
pub type FieldKey = Option<FieldId>;

/// The heap side-effect summary of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Fields possibly read, per root region.
    pub reads: BTreeSet<(Root, FieldKey)>,
    /// Fields possibly written, per root region.
    pub writes: BTreeSet<(Root, FieldKey)>,
    /// Pairs of parameter indices whose regions the function may merge
    /// (e.g. by storing one into a field of the other).
    pub merges: BTreeSet<(usize, usize)>,
    /// Regions the returned pointer may point into (empty for non-pointer
    /// returns).
    pub ret_roots: BTreeSet<Root>,
}

impl Summary {
    /// Whether every effect of `other` is already covered by `self`.
    ///
    /// The analysis cache uses this to decide if a single-function body
    /// change stays within the function's previously-published summary
    /// (in which case every other function's cached results remain
    /// conservative) or requires a whole-program re-analysis.
    pub fn covers(&self, other: &Summary) -> bool {
        self.reads.is_superset(&other.reads)
            && self.writes.is_superset(&other.writes)
            && self.merges.is_superset(&other.merges)
            && self.ret_roots.is_superset(&other.ret_roots)
    }

    fn is_superset_of(&self, other: &Summary) -> bool {
        self.covers(other)
    }

    /// The element-wise difference between this (older) summary and a
    /// freshly derived `newer` one.
    ///
    /// `added` counts are effects the old summary lacks — exactly the
    /// evidence that makes [`Summary::covers`] fail; `removed` counts are
    /// effects the function no longer has. The incremental machinery
    /// records the delta as the *cause* whenever a summary change forces
    /// an escalation, so tests (and `stats` consumers) can assert why a
    /// whole-program re-analysis or a dependent re-optimization happened.
    pub fn delta(&self, newer: &Summary) -> SummaryDelta {
        SummaryDelta {
            reads_added: newer.reads.difference(&self.reads).count(),
            reads_removed: self.reads.difference(&newer.reads).count(),
            writes_added: newer.writes.difference(&self.writes).count(),
            writes_removed: self.writes.difference(&newer.writes).count(),
            merges_added: newer.merges.difference(&self.merges).count(),
            merges_removed: self.merges.difference(&newer.merges).count(),
            ret_roots_added: newer.ret_roots.difference(&self.ret_roots).count(),
            ret_roots_removed: self.ret_roots.difference(&newer.ret_roots).count(),
        }
    }
}

/// How a freshly derived [`Summary`] differs from the previously
/// published one, per component (see [`Summary::delta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names say it all: per-component add/remove counts
pub struct SummaryDelta {
    pub reads_added: usize,
    pub reads_removed: usize,
    pub writes_added: usize,
    pub writes_removed: usize,
    pub merges_added: usize,
    pub merges_removed: usize,
    pub ret_roots_added: usize,
    pub ret_roots_removed: usize,
}

impl SummaryDelta {
    /// Total effects the old summary was missing. Nonzero exactly when
    /// `old.covers(new)` fails.
    pub fn added(&self) -> usize {
        self.reads_added + self.writes_added + self.merges_added + self.ret_roots_added
    }

    /// Total effects the function lost.
    pub fn removed(&self) -> usize {
        self.reads_removed + self.writes_removed + self.merges_removed + self.ret_roots_removed
    }

    /// Whether the summaries are identical.
    pub fn is_empty(&self) -> bool {
        self.added() == 0 && self.removed() == 0
    }

    /// A compact human-readable form, e.g. `+2r +1w -1ret`.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (added, removed, tag) in [
            (self.reads_added, self.reads_removed, "r"),
            (self.writes_added, self.writes_removed, "w"),
            (self.merges_added, self.merges_removed, "m"),
            (self.ret_roots_added, self.ret_roots_removed, "ret"),
        ] {
            if added > 0 {
                parts.push(format!("+{added}{tag}"));
            }
            if removed > 0 {
                parts.push(format!("-{removed}{tag}"));
            }
        }
        if parts.is_empty() {
            "unchanged".into()
        } else {
            parts.join(" ")
        }
    }
}

/// Result of the region analysis for one function: the connection classes
/// of its pointer variables.
#[derive(Debug, Clone)]
pub struct Regions {
    uf: UnionFind,
    n_vars: usize,
}

impl Regions {
    /// The class representative of `v`'s region.
    pub fn class(&self, v: VarId) -> usize {
        self.uf.find_const(v.index())
    }

    /// Whether `a` and `b` may point into the same data structure.
    pub fn connected(&self, a: VarId, b: VarId) -> bool {
        self.class(a) == self.class(b)
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.n_vars
    }

    /// Whether the function has no variables.
    pub fn is_empty(&self) -> bool {
        self.n_vars == 0
    }
}

/// Computes summaries for every function by fixed-point iteration, then
/// returns them together with per-function region classes.
///
/// The fixpoint runs one call-graph strongly-connected component at a
/// time, callees first. This makes the result *canonical*: each
/// component's summaries are a pure function of its bodies and its
/// callees' final summaries, never of the global iteration schedule.
/// (A flat whole-program sweep is not schedule-independent here, because
/// the transfer function is non-monotone in callee ret-roots: a callee
/// still at bottom makes a call result look like a fresh allocation, and
/// merge-only accumulation can never retract that artifact once the
/// callee's summary grows. [`analyze_effects_incremental`] relies on the
/// canonical order to reproduce this function's output exactly.)
///
/// # Examples
///
/// ```
/// use earth_analysis::{analyze_effects, Root};
///
/// let prog = earth_frontend::compile(r#"
///     struct N { N* next; int v; };
///     void poke(N *n) { n->v = 1; }
/// "#).unwrap();
/// let (summaries, _regions) = analyze_effects(&prog);
/// let fid = prog.function_by_name("poke").unwrap();
/// assert!(summaries[fid.index()]
///     .writes
///     .iter()
///     .any(|(root, _)| *root == Root::Param(0)));
/// ```
pub fn analyze_effects(prog: &Program) -> (Vec<Summary>, Vec<Regions>) {
    let n = prog.functions().len();
    let callee_sets: Vec<BTreeSet<earth_ir::FuncId>> =
        prog.functions().iter().map(callees).collect();
    let mut summaries = vec![Summary::default(); n];
    // The sweep that confirms a component's fixpoint runs against final
    // summaries, so the regions it builds are the final regions.
    let mut regions: Vec<Option<Regions>> = vec![None; n];
    for scc in sccs_bottom_up(&callee_sets) {
        let built = fixpoint_scc(prog, &scc, &callee_sets, &mut summaries);
        for (&i, r) in scc.iter().zip(built) {
            regions[i] = Some(r);
        }
    }
    let regions = regions
        .into_iter()
        .map(|r| r.expect("every function is in one component"))
        .collect();
    (summaries, regions)
}

/// Re-analyzes a single function against the given (already computed)
/// callee `summaries`, returning its fresh summary and region classes.
///
/// This is the analysis cache's per-function recompute primitive: when one
/// function's body changed, its regions and read/write sets can be rebuilt
/// in isolation as long as the fresh summary is still
/// [covered](Summary::covers) by the one the rest of the program was
/// analyzed against.
pub fn reanalyze_function(
    prog: &Program,
    f: &Function,
    summaries: &[Summary],
) -> (Summary, Regions) {
    analyze_function(prog, f, summaries)
}

/// The functions `f` may call directly, in id order.
pub fn callees(f: &Function) -> BTreeSet<earth_ir::FuncId> {
    let mut out = BTreeSet::new();
    f.body.walk(&mut |s| {
        if let StmtKind::Basic(Basic::Call { func, .. }) = &s.kind {
            out.insert(*func);
        }
    });
    out
}

/// Strongly-connected components of the static call graph, callees
/// first (reverse topological order of the condensation), members of
/// each component in id order. Deterministic: iterative Tarjan started
/// from id 0 upward, neighbors visited in id order.
fn sccs_bottom_up(callee_sets: &[BTreeSet<earth_ir::FuncId>]) -> Vec<Vec<usize>> {
    const UNVISITED: u32 = u32::MAX;
    let n = callee_sets.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut out: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        // (node, number of callee edges already explored).
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, ni)) = dfs.last() {
            if ni == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            match callee_sets[v].iter().nth(ni) {
                Some(w) => {
                    let w = w.index();
                    dfs.last_mut().expect("dfs frame").1 = ni + 1;
                    if index[w] == UNVISITED {
                        dfs.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                    dfs.pop();
                    if let Some(&(u, _)) = dfs.last() {
                        low[u] = low[u].min(low[v]);
                    }
                }
            }
        }
    }
    out
}

/// Accumulates one component's summaries to their fixpoint, members in
/// id order, against the (final) summaries of everything below it, and
/// returns each member's regions under the final summaries.
///
/// A function that is a component of its own and does not call itself
/// sees only final summaries, so one pass is its fixpoint; any other
/// component is swept until a sweep changes nothing, and that last sweep
/// ran against the final summaries from start to end.
fn fixpoint_scc(
    prog: &Program,
    members: &[usize],
    callee_sets: &[BTreeSet<earth_ir::FuncId>],
    summaries: &mut [Summary],
) -> Vec<Regions> {
    if let &[i] = members {
        if !callee_sets[i].contains(&earth_ir::FuncId(i as u32)) {
            let (summary, regions) = analyze_function(prog, &prog.functions()[i], summaries);
            summaries[i] = merge_summaries(&summaries[i], &summary);
            return vec![regions];
        }
    }
    loop {
        let mut changed = false;
        let mut built = Vec::with_capacity(members.len());
        for &i in members {
            let f = &prog.functions()[i];
            let (summary, regions) = analyze_function(prog, f, summaries);
            if !summaries[i].is_superset_of(&summary) {
                summaries[i] = merge_summaries(&summaries[i], &summary);
                changed = true;
            }
            built.push(regions);
        }
        if !changed {
            return built;
        }
    }
}

/// Recomputes effect summaries after a set of function bodies changed,
/// producing summaries **exactly equal** to a from-scratch
/// [`analyze_effects`] over the current program.
///
/// The work set is the upward closure `U` of `dirty` under the static
/// call graph (the dirty functions plus everything that transitively
/// calls one). Functions outside `U` cannot transitively reach a changed
/// body, so their old summaries are already the exact values a
/// from-scratch run would assign; members of `U` are reseeded at bottom
/// and re-run SCC by SCC in the same bottom-up order as
/// [`analyze_effects`]. Because `U` is upward-closed it is a union of
/// whole components, and each recomputed component sees exactly the
/// callee summaries a from-scratch run would have final by that point —
/// so equality is structural, not a property of iteration luck.
/// Reseeding matters: merely re-checking a dirty function against its
/// *old* (inflated) summary is not enough, because a recursive function
/// whose effects shrank self-sustains its stale summary through the
/// recursive call edge — only restarting the affected component from
/// bottom recovers the true fixpoint.
///
/// Returns the new summary table and `U` (every function whose summary
/// was recomputed — not necessarily changed).
pub fn analyze_effects_incremental(
    prog: &Program,
    old: &[Summary],
    dirty: &BTreeSet<earth_ir::FuncId>,
) -> (Vec<Summary>, BTreeSet<earth_ir::FuncId>) {
    let n = prog.functions().len();
    assert_eq!(old.len(), n, "summary table does not match this program");
    let callee_sets: Vec<BTreeSet<earth_ir::FuncId>> =
        prog.functions().iter().map(callees).collect();
    let mut in_u = vec![false; n];
    for d in dirty {
        in_u[d.index()] = true;
    }
    loop {
        let mut grew = false;
        for i in 0..n {
            if !in_u[i] && callee_sets[i].iter().any(|c| in_u[c.index()]) {
                in_u[i] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut summaries: Vec<Summary> = (0..n)
        .map(|i| {
            if in_u[i] {
                Summary::default()
            } else {
                old[i].clone()
            }
        })
        .collect();
    for scc in sccs_bottom_up(&callee_sets) {
        if scc.iter().any(|&i| in_u[i]) {
            debug_assert!(
                scc.iter().all(|&i| in_u[i]),
                "the upward closure is a union of whole SCCs"
            );
            fixpoint_scc(prog, &scc, &callee_sets, &mut summaries);
        }
    }
    let recomputed = (0..n)
        .filter(|&i| in_u[i])
        .map(|i| earth_ir::FuncId(i as u32))
        .collect();
    (summaries, recomputed)
}

fn merge_summaries(a: &Summary, b: &Summary) -> Summary {
    let mut out = a.clone();
    out.reads.extend(b.reads.iter().copied());
    out.writes.extend(b.writes.iter().copied());
    out.merges.extend(b.merges.iter().copied());
    out.ret_roots.extend(b.ret_roots.iter().copied());
    out
}

/// One pass over a function: builds region classes (given current callee
/// summaries) and derives this function's own summary.
fn analyze_function(prog: &Program, f: &Function, summaries: &[Summary]) -> (Summary, Regions) {
    let n_vars = f.vars().len();
    let mut uf = UnionFind::new(n_vars);

    // Unification is order-insensitive but call-return unification can
    // cascade, so iterate the statement walk until no class changes.
    loop {
        let mut changed = false;
        f.body.walk(&mut |s| {
            if let StmtKind::Basic(b) = &s.kind {
                changed |= unify_basic(prog, f, b, summaries, &mut uf);
            }
            if let StmtKind::Forall { init, step, .. } = &s.kind {
                for part in [init, step] {
                    if let StmtKind::Basic(b) = &part.kind {
                        changed |= unify_basic(prog, f, b, summaries, &mut uf);
                    }
                }
            }
        });
        if !changed {
            break;
        }
    }

    // Map each class to the set of parameter indices it contains.
    let mut class_params: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
    for (i, &p) in f.params.iter().enumerate() {
        if f.var(p).ty.is_ptr() {
            let c = uf.find(p.index());
            class_params[c].push(i);
        }
    }
    // The roots of `v`'s region: the parameters in its class, or a fresh
    // allocation when there are none.
    let for_each_root = |uf: &mut UnionFind, v: VarId, visit: &mut dyn FnMut(Root)| {
        let c = uf.find(v.index());
        if class_params[c].is_empty() {
            visit(Root::Fresh);
        } else {
            class_params[c].iter().for_each(|&i| visit(Root::Param(i)));
        }
    };

    // Collect effects.
    let mut summary = Summary::default();
    // Parameter merges.
    for i in 0..f.params.len() {
        for j in (i + 1)..f.params.len() {
            let (pi, pj) = (f.params[i], f.params[j]);
            if f.var(pi).ty.is_ptr() && f.var(pj).ty.is_ptr() && uf.same(pi.index(), pj.index()) {
                summary.merges.insert((i, j));
            }
        }
    }

    let record =
        |summary: &mut Summary, uf: &mut UnionFind, base: VarId, field: FieldKey, write: bool| {
            let set = if write {
                &mut summary.writes
            } else {
                &mut summary.reads
            };
            for_each_root(uf, base, &mut |root| {
                set.insert((root, field));
            });
        };

    f.body.walk(&mut |s| {
        let mut handle = |b: &Basic| match b {
            Basic::Assign { dst, src } => {
                if let Place::Mem(MemRef::Deref { base, field }) = dst {
                    record(&mut summary, &mut uf, *base, Some(*field), true);
                }
                if let Rvalue::Load(MemRef::Deref { base, field }) = src {
                    record(&mut summary, &mut uf, *base, Some(*field), false);
                }
            }
            Basic::BlkMov { dir, ptr, .. } => {
                let write = matches!(dir, earth_ir::BlkDir::LocalToRemote);
                record(&mut summary, &mut uf, *ptr, None, write);
            }
            Basic::Call { func, args, .. } => {
                let callee_sum = &summaries[func.index()];
                let callee = prog.function(*func);
                for &(root, field) in &callee_sum.reads {
                    if let Root::Param(i) = root {
                        if let Some(Operand::Var(a)) = args.get(i).copied() {
                            if callee.var(callee.params[i]).ty.is_ptr() {
                                record(&mut summary, &mut uf, a, field, false);
                            }
                        }
                    }
                }
                for &(root, field) in &callee_sum.writes {
                    if let Root::Param(i) = root {
                        if let Some(Operand::Var(a)) = args.get(i).copied() {
                            if callee.var(callee.params[i]).ty.is_ptr() {
                                record(&mut summary, &mut uf, a, field, true);
                            }
                        }
                    }
                }
            }
            Basic::Return(Some(Operand::Var(v))) if f.var(*v).ty.is_ptr() => {
                for_each_root(&mut uf, *v, &mut |root| {
                    summary.ret_roots.insert(root);
                });
            }
            _ => {}
        };
        match &s.kind {
            StmtKind::Basic(b) => handle(b),
            StmtKind::Forall { init, step, .. } => {
                for part in [init, step] {
                    if let StmtKind::Basic(b) = &part.kind {
                        handle(b);
                    }
                }
            }
            _ => {}
        }
    });

    (summary, Regions { uf, n_vars })
}

/// Applies the unification rules of one basic statement; returns whether
/// any classes merged.
fn unify_basic(
    prog: &Program,
    f: &Function,
    b: &Basic,
    summaries: &[Summary],
    uf: &mut UnionFind,
) -> bool {
    let is_ptr = |v: VarId| f.var(v).ty.is_ptr();
    let mut changed = false;
    match b {
        Basic::Assign { dst, src } => {
            match (dst, src) {
                // p = q
                (Place::Var(d), Rvalue::Use(Operand::Var(s))) if is_ptr(*d) && is_ptr(*s) => {
                    changed |= uf.union(d.index(), s.index());
                }
                // p = q->f or p = s.f with a pointer field: p joins q's
                // region (everything reachable from q is one region).
                (Place::Var(d), Rvalue::Load(m)) if is_ptr(*d) => {
                    let base = m.base();
                    changed |= uf.union(d.index(), base.index());
                }
                // p->f = q or s.f = q with q a pointer: store merges the
                // regions (q becomes reachable from p).
                (Place::Mem(m), Rvalue::Use(Operand::Var(s))) if is_ptr(*s) => {
                    changed |= uf.union(m.base().index(), s.index());
                }
                // p = malloc(...): fresh region; nothing to merge.
                _ => {}
            }
        }
        Basic::Call {
            dst,
            func,
            args,
            at,
        } => {
            let callee_sum = &summaries[func.index()];
            let callee = prog.function(*func);
            // Parameter-region merges performed by the callee.
            for &(i, j) in &callee_sum.merges {
                if let (Some(Operand::Var(a)), Some(Operand::Var(b))) =
                    (args.get(i).copied(), args.get(j).copied())
                {
                    if is_ptr(a) && is_ptr(b) {
                        changed |= uf.union(a.index(), b.index());
                    }
                }
            }
            // Returned pointer joins the argument regions it may point into.
            if let Some(d) = dst {
                if is_ptr(*d) {
                    for &root in &callee_sum.ret_roots {
                        if let Root::Param(i) = root {
                            if let Some(Operand::Var(a)) = args.get(i).copied() {
                                if callee.var(callee.params[i]).ty.is_ptr() && is_ptr(a) {
                                    changed |= uf.union(d.index(), a.index());
                                }
                            }
                        }
                    }
                }
            }
            let _ = at;
        }
        // blkmov moves scalars/pointers by value into a local buffer; the
        // buffer's pointer *fields* read later via `Load(Field)` are handled
        // by the load rule above (buffer joins the source region) — the
        // buffer var itself is a struct, so we merge it with the source
        // pointer region so that `q = buf.next` connects q to the source.
        Basic::BlkMov { ptr, buf, .. } => {
            changed |= uf.union(ptr.index(), buf.index());
        }
        _ => {}
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;

    fn analyze_src(src: &str) -> (Program, Vec<Summary>, Vec<Regions>) {
        let prog = compile(src).unwrap();
        let (s, r) = analyze_effects(&prog);
        (prog, s, r)
    }

    #[test]
    fn list_traversal_connects_cursor_to_head() {
        let (prog, _s, regions) = analyze_src(
            r#"
            struct node { node* next; int v; };
            int sum(node *head) {
                node *p;
                int acc;
                acc = 0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#,
        );
        let fid = prog.function_by_name("sum").unwrap();
        let f = prog.function(fid);
        let head = f.var_by_name("head").unwrap();
        let p = f.var_by_name("p").unwrap();
        assert!(regions[fid.index()].connected(head, p));
    }

    #[test]
    fn distinct_params_stay_separate() {
        let (prog, _s, regions) = analyze_src(
            r#"
            struct node { node* next; double x; };
            double f(node *a, node *b) {
                double t;
                t = a->x + b->x;
                return t;
            }
        "#,
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let a = f.var_by_name("a").unwrap();
        let b = f.var_by_name("b").unwrap();
        assert!(!regions[fid.index()].connected(a, b));
    }

    #[test]
    fn store_merges_regions() {
        let (prog, s, regions) = analyze_src(
            r#"
            struct node { node* next; int v; };
            void link(node *a, node *b) {
                a->next = b;
            }
        "#,
        );
        let fid = prog.function_by_name("link").unwrap();
        let f = prog.function(fid);
        let a = f.var_by_name("a").unwrap();
        let b = f.var_by_name("b").unwrap();
        assert!(regions[fid.index()].connected(a, b));
        assert!(s[fid.index()].merges.contains(&(0, 1)));
        assert!(s[fid.index()]
            .writes
            .contains(&(Root::Param(0), Some(FieldId(0)))));
    }

    #[test]
    fn summaries_propagate_through_calls() {
        let (prog, s, _r) = analyze_src(
            r#"
            struct node { node* next; int v; };
            void poke(node *x) { x->v = 1; }
            void caller(node *y) { poke(y); }
        "#,
        );
        let fid = prog.function_by_name("caller").unwrap();
        assert!(s[fid.index()]
            .writes
            .contains(&(Root::Param(0), Some(FieldId(1)))));
    }

    #[test]
    fn recursive_summary_terminates_and_is_sound() {
        let (prog, s, _r) = analyze_src(
            r#"
            struct node { node* left; node* right; int v; };
            int depth(node *t) {
                int a;
                int b;
                if (t == NULL) { return 0; }
                a = depth(t->left);
                b = depth(t->right);
                if (a > b) { return a + 1; }
                return b + 1;
            }
        "#,
        );
        let fid = prog.function_by_name("depth").unwrap();
        let sum = &s[fid.index()];
        assert!(sum.reads.contains(&(Root::Param(0), Some(FieldId(0)))));
        assert!(sum.reads.contains(&(Root::Param(0), Some(FieldId(1)))));
        assert!(sum.writes.is_empty());
    }

    #[test]
    fn returned_pointer_connects_at_call_site() {
        let (prog, _s, regions) = analyze_src(
            r#"
            struct node { node* next; int v; };
            node* advance(node *p) { return p->next; }
            int use(node *h, node *other) {
                node *q;
                q = advance(h);
                return q->v;
            }
        "#,
        );
        let fid = prog.function_by_name("use").unwrap();
        let f = prog.function(fid);
        let h = f.var_by_name("h").unwrap();
        let q = f.var_by_name("q").unwrap();
        let other = f.var_by_name("other").unwrap();
        assert!(regions[fid.index()].connected(h, q));
        assert!(!regions[fid.index()].connected(h, other));
    }

    #[test]
    fn fresh_allocation_is_unconnected_until_stored() {
        let (prog, _s, regions) = analyze_src(
            r#"
            struct node { node* next; int v; };
            void build(node *h) {
                node *n;
                node *m;
                n = malloc(sizeof(node));
                m = malloc(sizeof(node));
                h->next = n;
            }
        "#,
        );
        let fid = prog.function_by_name("build").unwrap();
        let f = prog.function(fid);
        let h = f.var_by_name("h").unwrap();
        let n = f.var_by_name("n").unwrap();
        let m = f.var_by_name("m").unwrap();
        assert!(regions[fid.index()].connected(h, n));
        assert!(!regions[fid.index()].connected(h, m));
    }

    #[test]
    fn delta_reports_covers_failures_and_shrinks() {
        let (prog, s, _r) = analyze_src(
            r#"
            struct node { node* next; int v; };
            void poke(node *x) { x->v = 1; }
            void peek(node *x) { int t; t = x->v; }
        "#,
        );
        let poke = &s[prog.function_by_name("poke").unwrap().index()];
        let peek = &s[prog.function_by_name("peek").unwrap().index()];
        let d = poke.delta(peek);
        assert_eq!(d.reads_added, 1);
        assert_eq!(d.writes_removed, 1);
        assert_eq!(d.added(), 1);
        assert_eq!(d.removed(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.render(), "+1r -1w");
        assert!(poke.delta(poke).is_empty());
        assert_eq!(poke.delta(poke).render(), "unchanged");
    }

    /// The incremental fixpoint must reproduce a from-scratch analysis
    /// exactly — including when a *recursive* function's effects shrink,
    /// the case where refreshing against the old summary table silently
    /// keeps the stale (self-sustaining) summary.
    #[test]
    fn incremental_refixpoint_matches_scratch_on_recursive_shrink() {
        let before = r#"
            struct node { node* next; int v; };
            int walk(node *p) {
                int t;
                if (p == NULL) { return 0; }
                p->v = 1;
                t = walk(p->next);
                return t;
            }
            int use(node *h) { int t; t = walk(h); return t; }
        "#;
        // The edit deletes walk's store: its summary must *shrink*.
        let after = r#"
            struct node { node* next; int v; };
            int walk(node *p) {
                int t;
                if (p == NULL) { return 0; }
                t = walk(p->next);
                return t;
            }
            int use(node *h) { int t; t = walk(h); return t; }
        "#;
        let old_prog = compile(before).unwrap();
        let (old_sums, _) = analyze_effects(&old_prog);
        let new_prog = compile(after).unwrap();
        let walk = new_prog.function_by_name("walk").unwrap();
        let dirty: BTreeSet<_> = [walk].into_iter().collect();
        let (inc, recomputed) = analyze_effects_incremental(&new_prog, &old_sums, &dirty);
        let (scratch, _) = analyze_effects(&new_prog);
        assert_eq!(inc, scratch, "incremental summaries must match scratch");
        // The stale store really is gone (would survive a naive refresh).
        assert!(inc[walk.index()].writes.is_empty());
        // The caller was re-fixpointed too (upward closure).
        let use_fn = new_prog.function_by_name("use").unwrap();
        assert!(recomputed.contains(&walk) && recomputed.contains(&use_fn));
    }

    #[test]
    fn incremental_closure_skips_unrelated_functions() {
        let src = r#"
            struct node { node* next; int v; };
            void poke(node *x) { x->v = 1; }
            void caller(node *y) { poke(y); }
            void lonely(node *z) { int t; t = z->v; }
        "#;
        let prog = compile(src).unwrap();
        let (sums, _) = analyze_effects(&prog);
        let poke = prog.function_by_name("poke").unwrap();
        let dirty: BTreeSet<_> = [poke].into_iter().collect();
        let (inc, recomputed) = analyze_effects_incremental(&prog, &sums, &dirty);
        assert_eq!(inc, sums, "no edit -> summaries unchanged");
        assert!(recomputed.contains(&prog.function_by_name("caller").unwrap()));
        assert!(!recomputed.contains(&prog.function_by_name("lonely").unwrap()));
    }

    #[test]
    fn callees_cover_forall_headers() {
        let prog = compile(
            r#"
            struct node { node* next; int v; };
            int id(int x) { return x; }
            void f(node *p) {
                int i;
                forall (i = 0; i < 4; i = id(i)) { p->v = i; }
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("f").unwrap());
        assert!(callees(f).contains(&prog.function_by_name("id").unwrap()));
    }

    #[test]
    fn fresh_return_does_not_connect() {
        let (prog, s, regions) = analyze_src(
            r#"
            struct node { node* next; int v; };
            node* mk() {
                node *n;
                n = malloc(sizeof(node));
                return n;
            }
            void use(node *h) {
                node *f;
                f = mk();
                f->v = 3;
            }
        "#,
        );
        let mk = prog.function_by_name("mk").unwrap();
        assert!(s[mk.index()].ret_roots.contains(&Root::Fresh));
        let fid = prog.function_by_name("use").unwrap();
        let f = prog.function(fid);
        let h = f.var_by_name("h").unwrap();
        let fr = f.var_by_name("f").unwrap();
        assert!(!regions[fid.index()].connected(h, fr));
    }
}
