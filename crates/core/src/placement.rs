//! Possible-placement analysis (the paper's §4.1, Figures 5 and 6).
//!
//! Computes, for every program point, the set of remote communication
//! expressions that can safely be placed there:
//!
//! * **RemoteReads(S)** — remote reads placeable just *before* statement S,
//!   collected by a *backward* structured traversal. Reads are propagated
//!   optimistically: tuples flow out of conditionals (all alternatives,
//!   frequency divided) and loops (frequency multiplied), because reading a
//!   spurious field early is safe (modulo speculative dereference, which is
//!   tracked per tuple).
//! * **RemoteWrites(S)** — remote writes placeable just *after* statement
//!   S, collected by a *forward* traversal. Writes are propagated
//!   conservatively: only tuples occurring in **all** alternatives of a
//!   conditional survive it, and only `do`-loops (which execute at least
//!   once) let writes escape.
//!
//! Both analyses complete in a single traversal of the structured SIMPLE
//! representation — no iteration is required (the paper's key efficiency
//! point).
//!
//! Kill rules consume the [`earth_analysis`] queries:
//! a read tuple `(p, f)` dies crossing a statement that writes `p` itself
//! or may write `p->f` (through any connected pointer); a write tuple
//! additionally dies crossing reads of `p->f` and overwrites of the
//! variables holding its pending value.

use crate::config::FreqModel;
use crate::rce::{CommSet, Rce};
use earth_analysis::{AccessKind, FunctionAnalysis, ProbFacts};
use earth_ir::{Basic, Function, Label, MemRef, Operand, Place, Rvalue, Stmt, StmtKind};
use earth_profile::FuncProfile;
use std::ops::Index;

/// A table over one function's statements, indexed by their dense
/// [`Label`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> LabelMap<T> {
    /// An empty table for labels below `bound`
    /// ([`Function::label_bound`]).
    fn with_bound(bound: usize) -> Self {
        LabelMap {
            slots: std::iter::repeat_with(|| None).take(bound).collect(),
        }
    }

    fn insert(&mut self, l: Label, value: T) {
        self.slots[l.0 as usize] = Some(value);
    }

    /// The entry of the statement labelled `l`, if it has one.
    pub fn get(&self, l: &Label) -> Option<&T> {
        self.slots.get(l.0 as usize)?.as_ref()
    }

    /// Every entry, in label order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

impl<T> Index<&Label> for LabelMap<T> {
    type Output = T;

    fn index(&self, l: &Label) -> &T {
        self.get(l).expect("the statement has an entry")
    }
}

/// A set of the function's variables, one bit per [`VarId`](earth_ir::VarId).
type VarBits = Vec<u64>;

fn bit(v: earth_ir::VarId) -> (usize, u64) {
    (v.index() / 64, 1 << (v.index() % 64))
}

/// Results of possible-placement analysis for one function.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `RemoteReads(S)`: tuples placeable just before the statement with
    /// the given label.
    pub reads_before: LabelMap<CommSet>,
    /// `RemoteWrites(S)`: tuples placeable just after the statement with
    /// the given label.
    pub writes_after: LabelMap<CommSet>,
    /// Must-dereference sets: the pointer variables that are dereferenced
    /// on *every* path starting just before the given statement, before
    /// being redefined — the paper's footnote-2 check ("there exists some
    /// dereference to p on all program paths starting at S"). Placing a
    /// dereference of `p` at a point where `p` is in this set is never
    /// speculative. One row of `words_per_row` words per label, all rows in
    /// one vector.
    must_deref_before: Vec<u64>,
    words_per_row: usize,
}

impl Placement {
    /// Whether inserting a dereference of `base` just before statement
    /// `anchor` is guaranteed non-speculative.
    pub fn deref_guaranteed(&self, base: earth_ir::VarId, anchor: Label) -> bool {
        let (word, mask) = bit(base);
        self.must_deref_before
            .get(anchor.0 as usize * self.words_per_row + word)
            .is_some_and(|w| w & mask != 0)
    }
}

/// Runs possible-placement analysis over a function.
///
/// # Examples
///
/// ```
/// use earth_commopt::{analyze_placement, FreqModel};
///
/// let prog = earth_frontend::compile(r#"
///     struct P { double x; double y; };
///     double f(P *p) { return p->x + p->y; }
/// "#).unwrap();
/// let analysis = earth_analysis::analyze(&prog);
/// let fid = prog.function_by_name("f").unwrap();
/// let f = prog.function(fid);
/// let placement = analyze_placement(f, analysis.function(fid), &FreqModel::default());
/// // Both reads are placeable at the top of the function.
/// let first = match &f.body.kind {
///     earth_ir::StmtKind::Seq(ss) => ss[0].label,
///     _ => unreachable!(),
/// };
/// assert_eq!(placement.reads_before[&first].len(), 2);
/// ```
pub fn analyze_placement(f: &Function, fa: &FunctionAnalysis, freq: &FreqModel) -> Placement {
    analyze_placement_with(f, fa, freq, None, None)
}

/// [`analyze_placement`] with an optional measured profile and optional
/// probability annotations (`--alias prob`). When a statement has profile
/// data, its *measured* branch probability replaces the static halving on
/// conditionals and its *measured* mean trip count replaces
/// [`FreqModel::loop_factor`] on loops; statements without data (never
/// executed, or inserted after the profiling compile) keep the static
/// adjustments. Facts refine the *frequency* adjustments only — a
/// heuristic branch probability replaces the static halving where no
/// measurement exists — while the kill rules keep consulting the binary
/// alias queries unchanged (probabilities weight cost, never safety; the
/// `earth-lint` validator enforces this). Precedence per statement:
/// measured profile, then probability facts, then the static model.
pub fn analyze_placement_with(
    f: &Function,
    fa: &FunctionAnalysis,
    freq: &FreqModel,
    profile: Option<&FuncProfile>,
    facts: Option<&ProbFacts>,
) -> Placement {
    // Statements whose subtree may return early: hoisting a read above
    // them makes it execute on paths where it originally did not (the
    // paper's footnote 2 — only allowed when speculative remote reads are
    // tolerated).
    let bound = f.label_bound();
    let mut has_return = vec![false; bound];
    {
        // Mark every statement whose subtree contains a return.
        fn visit(s: &Stmt, set: &mut [bool]) -> bool {
            let mut any = matches!(s.kind, earth_ir::StmtKind::Basic(Basic::Return(_)));
            match &s.kind {
                earth_ir::StmtKind::Seq(ss) | earth_ir::StmtKind::ParSeq(ss) => {
                    for c in ss {
                        any |= visit(c, set);
                    }
                }
                earth_ir::StmtKind::Basic(_) => {}
                earth_ir::StmtKind::If { then_s, else_s, .. } => {
                    any |= visit(then_s, set);
                    any |= visit(else_s, set);
                }
                earth_ir::StmtKind::Switch { cases, default, .. } => {
                    for (_, c) in cases {
                        any |= visit(c, set);
                    }
                    any |= visit(default, set);
                }
                earth_ir::StmtKind::While { body, .. }
                | earth_ir::StmtKind::DoWhile { body, .. } => {
                    any |= visit(body, set);
                }
                earth_ir::StmtKind::Forall {
                    init, step, body, ..
                } => {
                    any |= visit(init, set);
                    any |= visit(step, set);
                    any |= visit(body, set);
                }
            }
            set[s.label.0 as usize] = any;
            any
        }
        visit(&f.body, &mut has_return);
    }
    let words_per_row = f.vars().len().div_ceil(64);
    let mut ctx = Ctx {
        f,
        fa,
        freq,
        profile,
        facts,
        has_return,
        out: Placement {
            reads_before: LabelMap::with_bound(bound),
            writes_after: LabelMap::with_bound(bound),
            must_deref_before: vec![0; bound * words_per_row],
            words_per_row,
        },
    };
    ctx.collect_reads(&f.body);
    ctx.collect_writes(&f.body);
    ctx.must_deref(&f.body, vec![0; words_per_row]);
    ctx.out
}

struct Ctx<'a> {
    f: &'a Function,
    fa: &'a FunctionAnalysis,
    freq: &'a FreqModel,
    profile: Option<&'a FuncProfile>,
    facts: Option<&'a ProbFacts>,
    /// Indexed by label: the statement's subtree contains a `return`.
    has_return: Vec<bool>,
    out: Placement,
}

impl Ctx<'_> {
    /// Probability that the branch at `l` is taken: the measurement when
    /// profiled, else the structural heuristic when prob-alias facts are
    /// present, else `None` (the caller's static 0.5).
    fn branch_prob(&self, l: Label) -> Option<f64> {
        self.profile
            .and_then(|p| p.branch_prob(l))
            .or_else(|| self.facts.and_then(|f| f.branch_prob(l)))
    }

    /// Expected iterations of the loop at `l`: the measured mean trip
    /// count when profiled (directly or via the facts), the static
    /// [`FreqModel::loop_factor`] guess otherwise.
    fn loop_trips(&self, l: Label) -> f64 {
        self.profile
            .and_then(|p| p.loop_trips(l))
            .or_else(|| self.facts.and_then(|f| f.loop_trips(l)))
            .unwrap_or(self.freq.loop_factor)
    }

    /// A read tuple `(p, f)` cannot be propagated above statement `l` if
    /// `l` writes `p` itself or may write `p->f`.
    fn read_killed_by(&self, t: &Rce, l: Label) -> bool {
        self.fa.var_written(t.base, l)
            || self
                .fa
                .heap_conflict(t.base, Some(t.field), l, AccessKind::Write)
    }

    /// A write tuple `(p, f)` cannot be propagated below statement `l` if
    /// `l` writes `p`, may read *or* write `p->f`, or overwrites a variable
    /// holding the pending value.
    fn write_killed_by(&self, t: &Rce, l: Label) -> bool {
        self.fa.var_written(t.base, l)
            || self
                .fa
                .heap_conflict(t.base, Some(t.field), l, AccessKind::ReadOrWrite)
            || t.value_vars.iter().any(|&v| self.fa.var_written(v, l))
    }

    /// The remote read generated by a basic statement, if any.
    fn gen_read(&self, label: Label, b: &Basic) -> Option<Rce> {
        if let Basic::Assign {
            src: Rvalue::Load(MemRef::Deref { base, field }),
            ..
        } = b
        {
            if self.f.deref_is_remote(*base) {
                return Some(Rce::read(*base, *field, label));
            }
        }
        None
    }

    /// The remote write generated by a basic statement, if any.
    fn gen_write(&self, label: Label, b: &Basic) -> Option<Rce> {
        if let Basic::Assign {
            dst: Place::Mem(MemRef::Deref { base, field }),
            src,
        } = b
        {
            if self.f.deref_is_remote(*base) {
                let value = match src {
                    Rvalue::Use(Operand::Var(v)) => Some(*v),
                    _ => None,
                };
                return Some(Rce::write(*base, *field, label, value));
            }
        }
        None
    }

    // ================= RemoteReads: backward =================

    /// Returns the set of read tuples placeable just before `s`
    /// (= `RemoteReads(s)`), recording it, and recursing into children.
    fn collect_reads(&mut self, s: &Stmt) -> CommSet {
        let result = match &s.kind {
            StmtKind::Basic(b) => match self.gen_read(s.label, b) {
                Some(r) => std::iter::once(r).collect(),
                None => CommSet::new(),
            },
            StmtKind::Seq(ss) => {
                let mut curr = CommSet::new();
                for child in ss.iter().rev() {
                    let gen = self.collect_reads(child);
                    let crosses_return = self.has_return[child.label.0 as usize];
                    let mut pred = gen;
                    for mut t in curr.into_items() {
                        if !self.read_killed_by(&t, child.label) {
                            // Hoisting above a possibly-returning statement
                            // makes the read speculative, and the access is
                            // no longer certain to execute: adjust the
                            // frequency as for a two-way conditional.
                            if crosses_return {
                                t.speculative = true;
                                t.freq /= 2.0;
                            }
                            pred.add(t);
                        }
                    }
                    curr = pred;
                    // `curr` is now RemoteReads(child): placeable just
                    // before `child`. The recursive call recorded the
                    // *generated* set; overwrite with the full set.
                    self.out.reads_before.insert(child.label, curr.clone());
                }
                curr
            }
            StmtKind::ParSeq(arms) => {
                // All arms execute; EARTH-C non-interference means no arm
                // can kill another arm's tuples. Union with unchanged
                // frequencies.
                let mut out = CommSet::new();
                for arm in arms {
                    let set = self.collect_reads(arm);
                    out.extend(set.into_items());
                }
                out
            }
            StmtKind::If { then_s, else_s, .. } => {
                let t = self.collect_reads(then_s);
                let e = self.collect_reads(else_s);
                // Static model: each arm runs half the time. With a
                // profile, the measured probability of the then-arm splits
                // the frequency instead, so reads in a rarely-taken arm
                // stay put while reads in the common arm still hoist.
                let p_then = self.branch_prob(s.label).unwrap_or(0.5);
                let mut out = CommSet::new();
                for (set, p) in [(t, p_then), (e, 1.0 - p_then)] {
                    for mut r in set.into_items() {
                        r.freq *= p;
                        r.speculative = true;
                        out.add(r);
                    }
                }
                out
            }
            StmtKind::Switch { cases, default, .. } => {
                let n = (cases.len() + 1) as f64;
                let mut out = CommSet::new();
                let mut sets = Vec::new();
                for (_, cs) in cases {
                    sets.push(self.collect_reads(cs));
                }
                sets.push(self.collect_reads(default));
                for set in sets {
                    for mut r in set.into_items() {
                        r.freq /= n;
                        r.speculative = true;
                        out.add(r);
                    }
                }
                out
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                let body_set = self.collect_reads(body);
                let executes_once = matches!(s.kind, StmtKind::DoWhile { .. });
                self.hoist_reads_from_loop(body_set, s.label, executes_once)
            }
            StmtKind::Forall {
                init, step, body, ..
            } => {
                // Per iteration the body runs, then the step. Propagate step
                // tuples above the body, then hoist out of the loop; the
                // init statement runs once before the loop.
                let step_set = self.collect_reads(step);
                let body_set = self.collect_reads(body);
                let mut per_iter = body_set;
                for t in step_set.into_items() {
                    if !self.read_killed_by(&t, body.label) {
                        per_iter.add(t);
                    }
                }
                let hoisted = self.hoist_reads_from_loop(per_iter, s.label, false);
                // Cross the init statement.
                let init_gen = self.collect_reads(init);
                let mut out = init_gen;
                for t in hoisted.into_items() {
                    if !self.read_killed_by(&t, init.label) {
                        out.add(t);
                    }
                }
                out
            }
        };
        self.out.reads_before.insert(s.label, result.clone());
        result
    }

    /// Applies the loop rule for reads: tuples not killed anywhere in the
    /// loop may move above it with scaled frequency.
    fn hoist_reads_from_loop(
        &self,
        body_set: CommSet,
        loop_label: Label,
        executes_once: bool,
    ) -> CommSet {
        let trips = self.loop_trips(loop_label);
        let mut out = CommSet::new();
        for mut t in body_set.into_items() {
            if self.read_killed_by(&t, loop_label) {
                continue;
            }
            t.freq *= trips;
            // A `do` loop executes at least once, so the hoisted
            // dereference is not speculative.
            t.speculative |= !executes_once;
            out.add(t);
        }
        out
    }

    // ================= RemoteWrites: forward =================

    /// Returns the set of write tuples placeable just after `s`
    /// (= `RemoteWrites(s)`), recording it, and recursing into children.
    fn collect_writes(&mut self, s: &Stmt) -> CommSet {
        let result = match &s.kind {
            StmtKind::Basic(b) => match self.gen_write(s.label, b) {
                Some(w) => std::iter::once(w).collect(),
                None => CommSet::new(),
            },
            StmtKind::Seq(ss) => {
                let mut curr = CommSet::new();
                for child in ss {
                    let gen = self.collect_writes(child);
                    let mut next = gen;
                    for t in curr.into_items() {
                        if !self.write_killed_by(&t, child.label) {
                            next.add(t);
                        }
                    }
                    curr = next;
                    self.out.writes_after.insert(child.label, curr.clone());
                }
                curr
            }
            StmtKind::ParSeq(arms) => {
                let mut out = CommSet::new();
                for arm in arms {
                    let set = self.collect_writes(arm);
                    out.extend(set.into_items());
                }
                out
            }
            StmtKind::If { then_s, else_s, .. } => {
                let t = self.collect_writes(then_s);
                let e = self.collect_writes(else_s);
                // Only tuples written in BOTH alternatives may move below
                // the conditional (spurious writes are never safe).
                let mut out = CommSet::new();
                for r in t.iter() {
                    if let Some(other) = e.get(r.base, r.field) {
                        let mut merged = r.clone();
                        merged.freq = (r.freq + other.freq) / 2.0;
                        merged.absorb_accesses(other);
                        out.add(merged);
                    }
                }
                out
            }
            StmtKind::Switch { cases, default, .. } => {
                let mut sets = Vec::new();
                for (_, cs) in cases {
                    sets.push(self.collect_writes(cs));
                }
                sets.push(self.collect_writes(default));
                let n = sets.len() as f64;
                let mut out = CommSet::new();
                let Some((first, rest)) = sets.split_first() else {
                    return CommSet::new();
                };
                for r in first.iter() {
                    let others: Vec<&Rce> =
                        rest.iter().filter_map(|s| s.get(r.base, r.field)).collect();
                    if others.len() == rest.len() {
                        let mut merged = r.clone();
                        for o in others {
                            merged.freq += o.freq;
                            merged.absorb_accesses(o);
                        }
                        merged.freq /= n;
                        out.add(merged);
                    }
                }
                out
            }
            StmtKind::While { body, .. } => {
                // The loop may execute zero times: a write inside must not
                // move below (it would then execute unconditionally).
                let _ = self.collect_writes(body);
                CommSet::new()
            }
            StmtKind::DoWhile { body, .. } => {
                let body_set = self.collect_writes(body);
                let mut out = CommSet::new();
                for mut t in body_set.into_items() {
                    // The tuple's own accesses (its Dlist) must be the only
                    // accesses to (p, f) in the loop; any *other* matching
                    // access — and any write to the base pointer — kills it.
                    if self.fa.var_written(t.base, s.label) || self.loop_write_conflict(body, &t) {
                        continue;
                    }
                    t.freq *= self.loop_trips(s.label);
                    out.add(t);
                }
                out
            }
            StmtKind::Forall { body, .. } => {
                // Forall iterations are independent; writes stay inside.
                let _ = self.collect_writes(body);
                CommSet::new()
            }
        };
        self.out.writes_after.insert(s.label, result.clone());
        result
    }

    // ================= Must-dereference: backward =================

    /// Computes, for every statement, the set of pointer variables
    /// guaranteed to be dereferenced (before redefinition) on every path
    /// starting just before it; `after` is the set holding just after `s`.
    /// Records the per-statement sets and returns the set before `s`.
    fn must_deref(&mut self, s: &Stmt, after: VarBits) -> VarBits {
        // `after` less the variables statement `l` redefines.
        let surviving = |ctx: &Self, mut set: VarBits, l: Label| {
            for &v in ctx.fa.rw.get(l).vars_written {
                let (word, mask) = bit(v);
                set[word] &= !mask;
            }
            set
        };
        let words = self.out.words_per_row;
        let none = move || vec![0; words];
        let meet = |mut a: VarBits, b: &VarBits| {
            a.iter_mut().zip(b).for_each(|(x, y)| *x &= y);
            a
        };
        let before = match &s.kind {
            StmtKind::Basic(b) => {
                if matches!(b, Basic::Return(_)) {
                    // A path ending here performs no further dereferences.
                    none()
                } else {
                    let mut out = surviving(self, after, s.label);
                    let rw = self.fa.rw.get(s.label);
                    for h in rw.heap_reads.iter().chain(rw.heap_writes.iter()) {
                        if h.direct {
                            let (word, mask) = bit(h.base);
                            out[word] |= mask;
                        }
                    }
                    out
                }
            }
            StmtKind::Seq(ss) => {
                let mut cur = after;
                for child in ss.iter().rev() {
                    cur = self.must_deref(child, cur);
                }
                cur
            }
            StmtKind::ParSeq(arms) => {
                // Every arm executes to completion before the join.
                let mut out = after;
                for arm in arms {
                    let arm_must = self.must_deref(arm, none());
                    out.iter_mut().zip(&arm_must).for_each(|(x, y)| *x |= y);
                }
                out
            }
            StmtKind::If { then_s, else_s, .. } => {
                let t = self.must_deref(then_s, after.clone());
                let e = self.must_deref(else_s, after);
                meet(t, &e)
            }
            StmtKind::Switch { cases, default, .. } => {
                let mut out = self.must_deref(default, after.clone());
                for (_, cs) in cases {
                    let set = self.must_deref(cs, after.clone());
                    out = meet(out, &set);
                }
                out
            }
            StmtKind::While { body, .. } => {
                // The loop may execute zero times; variables it redefines
                // are not guaranteed to keep their value on looping paths.
                let kept = surviving(self, after, s.label);
                let _ = self.must_deref(body, kept.clone());
                kept
            }
            StmtKind::DoWhile { body, .. } => {
                // Executes at least once.
                let kept = surviving(self, after, s.label);
                self.must_deref(body, kept)
            }
            StmtKind::Forall {
                init, step, body, ..
            } => {
                let kept = surviving(self, after, s.label);
                let _ = self.must_deref(body, none());
                let _ = self.must_deref(step, none());
                self.must_deref(init, kept)
            }
        };
        let row = s.label.0 as usize * self.out.words_per_row;
        self.out.must_deref_before[row..row + before.len()].copy_from_slice(&before);
        before
    }

    /// Checks whether a loop body contains an access to the tuple's
    /// location other than the tuple's own writes (which are exempt, per
    /// the `d` parameter of the paper's `accessedViaAlias`).
    fn loop_write_conflict(&self, body: &Stmt, t: &Rce) -> bool {
        let mut conflict = false;
        body.walk(&mut |st| {
            if conflict || !matches!(st.kind, StmtKind::Basic(_)) {
                return;
            }
            if t.labels.contains(&st.label) {
                // The tuple's own write: check only its read side (none —
                // remote write statements read no heap).
                return;
            }
            if self
                .fa
                .heap_conflict(t.base, Some(t.field), st.label, AccessKind::ReadOrWrite)
            {
                conflict = true;
            }
            // Note: writes to the tuple's value variables inside the loop do
            // NOT conflict. The tuple only escapes the loop if it survived
            // forward propagation to the end of the body, so within an
            // iteration the value variable is assigned *before* the write;
            // the escaped write then stores the variable's final value —
            // exactly what the last iteration would have written.
        });
        conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;

    fn placed(src: &str, func: &str) -> (earth_ir::Program, Placement, earth_ir::FuncId) {
        let prog = compile(src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let fid = prog.function_by_name(func).unwrap();
        let p = analyze_placement(
            prog.function(fid),
            analysis.function(fid),
            &FreqModel::default(),
        );
        (prog, p, fid)
    }

    /// The paper's Figure 3: all four remote reads of `distance` float to
    /// the top of the function and merge into two tuples of frequency 2.
    #[test]
    fn fig3_distance_reads_reach_function_top() {
        let (prog, placement, fid) = placed(
            r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#,
            "distance",
        );
        let f = prog.function(fid);
        let first_label = match &f.body.kind {
            StmtKind::Seq(ss) => ss[0].label,
            _ => panic!(),
        };
        let set = &placement.reads_before[&first_label];
        assert_eq!(set.len(), 2, "x and y tuples: {set}");
        let p = f.var_by_name("p").unwrap();
        let x = prog.struct_def(prog.struct_by_name("Point").unwrap());
        let fx = x.field_by_name("x").unwrap();
        let fy = x.field_by_name("y").unwrap();
        assert_eq!(set.get(p, fx).unwrap().freq, 2.0);
        assert_eq!(set.get(p, fx).unwrap().labels.len(), 2);
        assert_eq!(set.get(p, fy).unwrap().freq, 2.0);
    }

    /// The paper's Figure 4: both remote writes of `scale_point` flow to
    /// the bottom of the function.
    #[test]
    fn fig4_scale_point_writes_reach_function_bottom() {
        let (prog, placement, fid) = placed(
            r#"
            struct Point { double x; double y; };
            double scale(double v, double k) { return v * k; }
            void scale_point(Point *p, double k) {
                p->x = scale(p->x, k);
                p->y = scale(p->y, k);
            }
        "#,
            "scale_point",
        );
        let f = prog.function(fid);
        let last_label = match &f.body.kind {
            StmtKind::Seq(ss) => ss.last().unwrap().label,
            _ => panic!(),
        };
        let set = &placement.writes_after[&last_label];
        assert_eq!(set.len(), 2, "x and y write tuples: {set}");
        // And reads also reach the top.
        let first_label = match &f.body.kind {
            StmtKind::Seq(ss) => ss[0].label,
            _ => panic!(),
        };
        let reads = &placement.reads_before[&first_label];
        assert_eq!(reads.len(), 2, "{reads}");
    }

    /// Writes do not move out of a conditional unless present in both
    /// branches.
    #[test]
    fn conditional_writes_need_both_branches() {
        let (prog, placement, fid) = placed(
            r#"
            struct P { double x; double y; };
            void f(P *p, int c) {
                double k;
                k = 1.0;
                if (c > 0) {
                    p->x = k;
                    p->y = k;
                } else {
                    p->x = k;
                }
            }
        "#,
            "f",
        );
        let f = prog.function(fid);
        let if_label = {
            let mut l = None;
            f.body.walk(&mut |s| {
                if matches!(s.kind, StmtKind::If { .. }) {
                    l = Some(s.label);
                }
            });
            l.unwrap()
        };
        let set = &placement.writes_after[&if_label];
        assert_eq!(set.len(), 1, "only p->x is written on both paths: {set}");
        let p = f.var_by_name("p").unwrap();
        let sid = prog.struct_by_name("P").unwrap();
        let fx = prog.struct_def(sid).field_by_name("x").unwrap();
        assert!(set.get(p, fx).is_some());
    }

    /// Reads move out of both branches of a conditional with halved
    /// frequency, and merge when both branches read the same field.
    #[test]
    fn conditional_reads_merge_with_adjusted_frequency() {
        let (prog, placement, fid) = placed(
            r#"
            struct P { double x; double y; };
            double f(P *p, int c) {
                double a;
                a = 0.0;
                if (c > 0) {
                    a = p->x;
                } else {
                    a = p->x + p->y;
                }
                return a;
            }
        "#,
            "f",
        );
        let f = prog.function(fid);
        let first_label = match &f.body.kind {
            StmtKind::Seq(ss) => ss[0].label,
            _ => panic!(),
        };
        let set = &placement.reads_before[&first_label];
        let p = f.var_by_name("p").unwrap();
        let sid = prog.struct_by_name("P").unwrap();
        let fx = prog.struct_def(sid).field_by_name("x").unwrap();
        let fy = prog.struct_def(sid).field_by_name("y").unwrap();
        let tx = set.get(p, fx).unwrap();
        assert_eq!(tx.freq, 1.0, "0.5 + 0.5");
        assert!(tx.speculative);
        assert_eq!(set.get(p, fy).unwrap().freq, 0.5);
    }

    /// Loop-invariant reads hoist out of loops with frequency ×10; tuples
    /// whose base is rewritten in the loop do not.
    #[test]
    fn loop_hoisting_and_kills() {
        let (prog, placement, fid) = placed(
            r#"
            struct node { node* next; double x; };
            double f(node *p, node *t) {
                double acc;
                double bx;
                acc = 0.0;
                while (p != NULL) {
                    bx = t->x;
                    acc = acc + bx + p->x;
                    p = p->next;
                }
                return acc;
            }
        "#,
            "f",
        );
        let f = prog.function(fid);
        let first_label = match &f.body.kind {
            StmtKind::Seq(ss) => ss[0].label,
            _ => panic!(),
        };
        let set = &placement.reads_before[&first_label];
        let t = f.var_by_name("t").unwrap();
        let p = f.var_by_name("p").unwrap();
        let sid = prog.struct_by_name("node").unwrap();
        let fx = prog.struct_def(sid).field_by_name("x").unwrap();
        let tx = set.get(t, fx).unwrap();
        assert_eq!(tx.freq, 10.0);
        assert!(tx.speculative, "while loop may execute zero times");
        assert!(set.get(p, fx).is_none(), "p is rewritten in the loop");
    }

    /// `do`-loops allow writes to escape; `while`-loops never do.
    #[test]
    fn do_while_writes_escape() {
        let (prog, placement, fid) = placed(
            r#"
            struct P { double x; int n; };
            void f(P *p) {
                int i;
                double v;
                i = 0;
                v = 0.0;
                do {
                    v = v + 1.0;
                    p->x = v;
                    i = i + 1;
                } while (i < 10);
            }
        "#,
            "f",
        );
        let f = prog.function(fid);
        let do_label = {
            let mut l = None;
            f.body.walk(&mut |s| {
                if matches!(s.kind, StmtKind::DoWhile { .. }) {
                    l = Some(s.label);
                }
            });
            l.unwrap()
        };
        let set = &placement.writes_after[&do_label];
        let p = f.var_by_name("p").unwrap();
        let sid = prog.struct_by_name("P").unwrap();
        let fx = prog.struct_def(sid).field_by_name("x").unwrap();
        let t = set.get(p, fx).expect("write escapes the do-loop");
        assert_eq!(t.freq, 10.0);
    }

    /// A read of the written field inside the loop pins the write.
    #[test]
    fn do_while_write_pinned_by_read() {
        let (prog, placement, fid) = placed(
            r#"
            struct P { double x; int n; };
            void f(P *p) {
                int i;
                double v;
                i = 0;
                do {
                    v = p->x;
                    p->x = v + 1.0;
                    i = i + 1;
                } while (i < 10);
            }
        "#,
            "f",
        );
        let f = prog.function(fid);
        let do_label = {
            let mut l = None;
            f.body.walk(&mut |s| {
                if matches!(s.kind, StmtKind::DoWhile { .. }) {
                    l = Some(s.label);
                }
            });
            l.unwrap()
        };
        let set = &placement.writes_after[&do_label];
        assert!(
            set.is_empty(),
            "read of p->x each iteration pins the write: {set}"
        );
    }
}
