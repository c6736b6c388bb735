//! Dead-communication checker.
//!
//! Runs over **post-optimization** IR and flags split-phase fetches whose
//! results are provably wasted. The optimizer only issues a communication
//! temporary to cover at least one original access, so either finding in
//! optimizer output indicates a selection/transformation bug; on
//! hand-edited programs they are genuine waste:
//!
//! | code     | meaning                                                    |
//! |----------|------------------------------------------------------------|
//! | `DCM001` | communication result is never used                         |
//! | `DCM002` | duplicate communication on an already-synced handle        |
//!
//! `DCM002` is deliberately confined to one maximal straight-line run of
//! basic statements inside a single `Seq`: a comm temporary re-assigned in
//! the next loop iteration (the pipelining pattern, where the preheader
//! issue and the in-loop re-issue are in different runs) is *not* a
//! duplicate — the previous value was consumed by the iteration in between.

use earth_ir::{
    Basic, Diagnostic, Function, Label, Place, Program, Rvalue, Stmt, StmtKind, VarId, VarOrigin,
};
use std::collections::{BTreeMap, BTreeSet};

/// Variables a basic statement reads (operands, dereference bases, blkmov
/// endpoints, call/atomic inputs, owner anchors).
fn reads_of(b: &Basic) -> Vec<VarId> {
    let mut out: Vec<VarId> = b.operands().filter_map(|o| o.as_var()).collect();
    match b {
        Basic::Assign { dst, src } => {
            if let Place::Mem(m) = dst {
                out.push(m.base());
            }
            match src {
                Rvalue::Load(m) => out.push(m.base()),
                Rvalue::ValueOf(v) => out.push(*v),
                _ => {}
            }
        }
        Basic::Call {
            at: Some(earth_ir::AtTarget::OwnerOf(v)),
            ..
        } => out.push(*v),
        Basic::BlkMov { ptr, buf, .. } => {
            out.push(*ptr);
            out.push(*buf);
        }
        Basic::AtomicAdd { var, .. } => out.push(*var),
        _ => {}
    }
    out
}

/// The communication temporary this statement (re)fetches into, if any.
fn comm_dst(b: &Basic, f: &Function) -> Option<VarId> {
    let dst = match b {
        Basic::Assign {
            dst: Place::Var(v), ..
        } => *v,
        Basic::Call { dst: Some(v), .. } => *v,
        _ => return None,
    };
    (f.var(dst).origin == VarOrigin::CommTemp).then_some(dst)
}

/// Checks one function; diagnostics carry the labels of the offending
/// statements.
pub fn check_function(f: &Function) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // DCM001 — a comm temporary assigned somewhere but read nowhere.
    let mut read: BTreeSet<VarId> = BTreeSet::new();
    let mut assigned: BTreeMap<VarId, Label> = BTreeMap::new();
    f.body.walk(&mut |s: &Stmt| match &s.kind {
        StmtKind::Basic(b) => {
            read.extend(reads_of(b));
            if let Some(v) = comm_dst(b, f) {
                assigned.entry(v).or_insert(s.label);
            }
        }
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. } => read.extend(cond.vars()),
        StmtKind::Switch { scrut, .. } => read.extend(scrut.as_var()),
        _ => {}
    });
    for (v, label) in &assigned {
        if !read.contains(v) {
            diags.push(
                Diagnostic::error(
                    "DCM001",
                    format!(
                        "communication result `{}` is fetched but never used",
                        f.var(*v).name
                    ),
                )
                .with_label(*label, "dead fetch issued here")
                .with_note("the split-phase read (and its sync) is pure waste"),
            );
        }
    }

    // DCM002 — duplicate fetch into an unconsumed handle, per straight-line
    // run.
    scan_runs(&f.body, f, &mut diags);
    diags
}

/// Walks the tree; inside each `Seq`, scans maximal runs of basic
/// statements for re-fetches into an unconsumed comm temporary.
fn scan_runs(s: &Stmt, f: &Function, diags: &mut Vec<Diagnostic>) {
    match &s.kind {
        StmtKind::Seq(ss) => {
            let mut pending: BTreeMap<VarId, Label> = BTreeMap::new();
            for c in ss {
                if let StmtKind::Basic(b) = &c.kind {
                    for r in reads_of(b) {
                        pending.remove(&r);
                    }
                    if let Some(v) = comm_dst(b, f) {
                        if let Some(prev) = pending.insert(v, c.label) {
                            diags.push(
                                Diagnostic::error(
                                    "DCM002",
                                    format!(
                                        "communication handle `{}` re-fetched while the \
                                         previous fetch was never consumed",
                                        f.var(v).name
                                    ),
                                )
                                .with_label(prev, "first fetch (never consumed)")
                                .with_label(c.label, "duplicate fetch here")
                                .with_note("the first sync on this handle was wasted"),
                            );
                        }
                    }
                } else {
                    // Control flow ends the straight-line run.
                    pending.clear();
                    scan_runs(c, f, diags);
                }
            }
        }
        StmtKind::Basic(_) => {}
        StmtKind::If { then_s, else_s, .. } => {
            scan_runs(then_s, f, diags);
            scan_runs(else_s, f, diags);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (_, c) in cases {
                scan_runs(c, f, diags);
            }
            scan_runs(default, f, diags);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            scan_runs(body, f, diags);
        }
        StmtKind::ParSeq(ss) => {
            for c in ss {
                scan_runs(c, f, diags);
            }
        }
        StmtKind::Forall {
            init, step, body, ..
        } => {
            scan_runs(init, f, diags);
            scan_runs(step, f, diags);
            scan_runs(body, f, diags);
        }
    }
}

/// Checks every function of a (post-optimization) program.
pub fn check_program(prog: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (_, f) in prog.iter_functions() {
        out.extend(check_function(f).into_iter().map(|d| d.in_func(&f.name)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_commopt::{optimize_program, CommOptConfig};
    use earth_ir::{pretty, FieldId, MemRef, Operand};

    const DISTANCE: &str = r#"
        struct Point { double x; double y; };
        double distance(Point *p) {
            double d;
            d = sqrt(p->x * p->x + p->y * p->y);
            return d;
        }
    "#;

    /// The optimizer's own output is dead-communication free.
    #[test]
    fn optimizer_output_is_clean() {
        let mut prog = earth_frontend::compile(DISTANCE).unwrap();
        optimize_program(&mut prog, &CommOptConfig::default());
        assert!(check_program(&prog).is_empty());
    }

    /// Hand-deleting the use of a comm temporary leaves a dead fetch.
    #[test]
    fn unused_fetch_is_dcm001() {
        let mut prog = earth_frontend::compile(DISTANCE).unwrap();
        optimize_program(&mut prog, &CommOptConfig::default());
        let fid = prog.function_by_name("distance").unwrap();
        let mut f = prog.function(fid).clone();
        // Rewrite every *use* of comm1 to use comm2 instead: comm1's fetch
        // is now dead.
        let comm1 = f.var_by_name("comm1").unwrap();
        let comm2 = f.var_by_name("comm2").unwrap();
        let redirect = |o: &mut Operand| {
            if *o == Operand::Var(comm1) {
                *o = Operand::Var(comm2);
            }
        };
        f.body.walk_mut(&mut |s: &mut Stmt| {
            if let StmtKind::Basic(Basic::Assign { dst, src }) = &mut s.kind {
                if *dst == Place::Var(comm1) {
                    return; // keep the fetch itself
                }
                match src {
                    Rvalue::Use(a) | Rvalue::Unary(_, a) => redirect(a),
                    Rvalue::Binary(_, a, b) => {
                        redirect(a);
                        redirect(b);
                    }
                    Rvalue::Builtin { args, .. } => args.iter_mut().for_each(redirect),
                    _ => {}
                }
            }
        });
        let diags = check_function(&f);
        assert_eq!(
            diags.len(),
            1,
            "{}",
            pretty::print_function_default(&prog, fid)
        );
        assert_eq!(diags[0].code, "DCM001");
        assert!(diags[0].message.contains("comm1"), "{}", diags[0].message);
    }

    /// Re-fetching into an unconsumed handle inside one straight-line run
    /// is DCM002.
    #[test]
    fn duplicate_fetch_is_dcm002() {
        let mut prog = earth_frontend::compile(DISTANCE).unwrap();
        optimize_program(&mut prog, &CommOptConfig::default());
        let fid = prog.function_by_name("distance").unwrap();
        let mut f = prog.function(fid).clone();
        let comm1 = f.var_by_name("comm1").unwrap();
        let p = f.var_by_name("p").unwrap();
        // Duplicate the fetch right after the original one.
        let mut fetch_label = None;
        f.body.walk(&mut |s: &Stmt| {
            if let StmtKind::Basic(Basic::Assign { dst, .. }) = &s.kind {
                if *dst == Place::Var(comm1) && fetch_label.is_none() {
                    fetch_label = Some(s.label);
                }
            }
        });
        let fetch_label = fetch_label.expect("comm1 fetch");
        let dup = Stmt {
            label: f.fresh_label(),
            kind: StmtKind::Basic(Basic::Assign {
                dst: Place::Var(comm1),
                src: Rvalue::Load(MemRef::Deref {
                    base: p,
                    field: FieldId(0),
                }),
            }),
        };
        f.body.walk_mut(&mut |s: &mut Stmt| {
            if let StmtKind::Seq(ss) = &mut s.kind {
                if let Some(i) = ss.iter().position(|c| c.label == fetch_label) {
                    ss.insert(i + 1, dup.clone());
                }
            }
        });
        let diags = check_function(&f);
        assert!(
            diags.iter().any(|d| d.code == "DCM002"),
            "{:?}",
            diags.iter().map(|d| &d.code).collect::<Vec<_>>()
        );
    }

    /// The loop-pipelining pattern (preheader fetch + in-loop re-fetch with
    /// a consuming use in between) is not flagged: the fetches live in
    /// different straight-line runs.
    #[test]
    fn loop_pipelining_is_not_a_duplicate() {
        let mut prog = earth_frontend::compile(
            r#"
            struct N { N* next; double v; };
            double sum(N *head) {
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
        "#,
        )
        .unwrap();
        optimize_program(&mut prog, &CommOptConfig::default());
        assert!(
            check_program(&prog).is_empty(),
            "{}",
            pretty::print_program(&prog)
        );
    }
}
