//! Loop pointer-induction recognition.
//!
//! Pointer-chasing loops — `while (p != NULL) { ...; p = p->next; }` — are
//! where the paper's binary placement analysis loses the most: the
//! loop-carried advance writes the base pointer, so every read tuple based
//! on `p` is killed at the loop boundary and nothing hoists or blocks.
//! Following the *iterating pointers* idea (Lepori et al.), this module
//! recognizes the restricted but ubiquitous shape where a pointer is a
//! **field induction variable** of a loop: exactly one statement in the
//! loop body writes it, and that statement is either the direct self-field
//! load `p = p->f`, or the copy-propagated idiom
//!
//! ```text
//! t = p->f;   // the only write of t in the body
//! ...
//! p = t;      // the only write of p in the body
//! ```
//!
//! which Olden-style code uses pervasively (`fwd = list->forward; ...;
//! list = fwd;` so the old node stays addressable after the advance).
//! Either way the pointer advances by exactly one link per iteration, so a
//! whole-node `blkmov` prefetch at the top of the iteration covers every
//! direct access of that iteration — the cost-model consequence is drawn
//! in `earth-commopt`'s selection, never here.
//!
//! Recognition is purely structural and *sound by construction*: a pointer
//! reassigned anywhere in the loop from a non-field source (a copy, a
//! `malloc`, a call result) has more than one writing statement or a
//! non-matching one, and is never reported (property-tested in
//! `tests/prop_probalias.rs`).

use crate::FunctionAnalysis;
use earth_ir::{Basic, FieldId, Function, Label, MemRef, Place, Rvalue, Stmt, StmtKind, VarId};
use std::collections::BTreeMap;

/// A recognized pointer induction: `var` advances exactly once per
/// iteration of the loop at `loop_label`, via `var = var->field` at
/// `advance_label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerInduction {
    /// Label of the `while`/`do-while` statement.
    pub loop_label: Label,
    /// The induction pointer.
    pub var: VarId,
    /// The link field it chases (`next` in a list walk).
    pub field: FieldId,
    /// Label of the unique statement that advances `var`: the self-field
    /// load `var = var->field`, or the `var = t` copy of the idiom
    /// `t = var->field; ...; var = t`.
    pub advance_label: Label,
}

/// Finds every pointer induction in `f`, in loop pre-order (deterministic:
/// the result depends only on the function body and analysis).
///
/// A pointer `p` qualifies for a loop when **all** basic statements in the
/// loop body that write `p` are exactly one statement, and that statement
/// is the self-field load `p = p->f`. Loops nested inside the body count:
/// an inner loop that also advances `p` yields a second writing statement
/// and disqualifies `p` for the outer loop (conservative, but the inner
/// loop is still examined on its own).
pub fn find_pointer_inductions(f: &Function, fa: &FunctionAnalysis) -> Vec<PointerInduction> {
    let mut out = Vec::new();
    visit(&f.body, f, fa, &mut out);
    out
}

fn visit(s: &Stmt, f: &Function, fa: &FunctionAnalysis, out: &mut Vec<PointerInduction>) {
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
            for c in ss {
                visit(c, f, fa, out);
            }
        }
        StmtKind::Basic(_) => {}
        StmtKind::If { then_s, else_s, .. } => {
            visit(then_s, f, fa, out);
            visit(else_s, f, fa, out);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (_, cs) in cases {
                visit(cs, f, fa, out);
            }
            visit(default, f, fa, out);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            recognize_loop(s.label, body, f, fa, out);
            visit(body, f, fa, out);
        }
        StmtKind::Forall {
            init, step, body, ..
        } => {
            visit(init, f, fa, out);
            visit(step, f, fa, out);
            visit(body, f, fa, out);
        }
    }
}

/// Examines one `while`/`do-while` body and reports its induction pointers.
fn recognize_loop(
    loop_label: Label,
    body: &Stmt,
    f: &Function,
    fa: &FunctionAnalysis,
    out: &mut Vec<PointerInduction>,
) {
    // For every pointer variable, collect the basic statements in the body
    // subtree that write it (BTreeMap: deterministic iteration by VarId).
    let mut writes: BTreeMap<VarId, Vec<Label>> = BTreeMap::new();
    body.walk(&mut |st| {
        if !matches!(st.kind, StmtKind::Basic(_)) {
            return;
        }
        for &v in fa.rw.get(st.label).vars_written {
            if f.var(v).ty.is_ptr() {
                writes.entry(v).or_default().push(st.label);
            }
        }
    });
    for (&p, labels) in &writes {
        let [advance_label] = labels[..] else {
            continue; // written more than once: not an induction
        };
        // The unique write must be the self-field load `p = p->field`, or
        // the copy half of the two-step idiom `t = p->field; ...; p = t`
        // where `t` is itself written exactly once in the body.
        let field = self_field_load(body, advance_label, p).or_else(|| {
            let t = var_copy_source(body, advance_label, p)?;
            let [t_label] = writes.get(&t)?[..] else {
                return None;
            };
            field_load_from(body, t_label, t, p)
        });
        let Some(field) = field else {
            continue;
        };
        out.push(PointerInduction {
            loop_label,
            var: p,
            field,
            advance_label,
        });
    }
}

/// If the basic statement at `label` inside `body` is `p = p->f`, returns
/// `Some(f)`.
fn self_field_load(body: &Stmt, label: Label, p: VarId) -> Option<FieldId> {
    let mut found = None;
    body.walk(&mut |st| {
        if st.label != label {
            return;
        }
        if let StmtKind::Basic(Basic::Assign {
            dst: Place::Var(d),
            src: Rvalue::Load(MemRef::Deref { base, field }),
        }) = &st.kind
        {
            if *d == p && *base == p {
                found = Some(*field);
            }
        }
    });
    found
}

/// If the basic statement at `label` inside `body` is the plain pointer
/// copy `p = t`, returns `Some(t)`.
fn var_copy_source(body: &Stmt, label: Label, p: VarId) -> Option<VarId> {
    let mut found = None;
    body.walk(&mut |st| {
        if st.label != label {
            return;
        }
        if let StmtKind::Basic(Basic::Assign {
            dst: Place::Var(d),
            src: Rvalue::Use(src),
        }) = &st.kind
        {
            if *d == p {
                found = src.as_var();
            }
        }
    });
    found
}

/// If the basic statement at `label` inside `body` is `t = p->f`, returns
/// `Some(f)`.
fn field_load_from(body: &Stmt, label: Label, t: VarId, p: VarId) -> Option<FieldId> {
    let mut found = None;
    body.walk(&mut |st| {
        if st.label != label {
            return;
        }
        if let StmtKind::Basic(Basic::Assign {
            dst: Place::Var(d),
            src: Rvalue::Load(MemRef::Deref { base, field }),
        }) = &st.kind
        {
            if *d == t && *base == p {
                found = Some(*field);
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;

    fn inductions(src: &str, func: &str) -> (earth_ir::Program, Vec<PointerInduction>) {
        let prog = compile(src).unwrap();
        let analysis = crate::analyze(&prog);
        let fid = prog.function_by_name(func).unwrap();
        let found = find_pointer_inductions(prog.function(fid), analysis.function(fid));
        (prog, found)
    }

    #[test]
    fn list_walk_is_recognized() {
        let (prog, found) = inductions(
            r#"
            struct node { node* next; int v; };
            int sum(node *head) {
                node *p;
                int acc;
                acc = 0;
                p = head;
                while (p != NULL) { acc = acc + p->v; p = p->next; }
                return acc;
            }
        "#,
            "sum",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        let fid = prog.function_by_name("sum").unwrap();
        let f = prog.function(fid);
        assert_eq!(found[0].var, f.var_by_name("p").unwrap());
        let sid = prog.struct_by_name("node").unwrap();
        let next = prog.struct_def(sid).field_by_name("next").unwrap();
        assert_eq!(found[0].field, next);
    }

    #[test]
    fn copy_propagated_advance_is_recognized() {
        // The Olden idiom: the forward link is loaded into a temporary at
        // the top so the node stays addressable, and the copy advances.
        let (prog, found) = inductions(
            r#"
            struct node { node* next; int v; };
            int sum(node *head) {
                node *p;
                node *fwd;
                int acc;
                acc = 0;
                p = head;
                while (p != NULL) {
                    fwd = p->next;
                    acc = acc + p->v;
                    p = fwd;
                }
                return acc;
            }
        "#,
            "sum",
        );
        let fid = prog.function_by_name("sum").unwrap();
        let f = prog.function(fid);
        // p is the induction; fwd is not (its write is a load from p, not
        // from fwd itself, and it is not copied from anything).
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].var, f.var_by_name("p").unwrap());
        let sid = prog.struct_by_name("node").unwrap();
        assert_eq!(
            found[0].field,
            prog.struct_def(sid).field_by_name("next").unwrap()
        );
    }

    #[test]
    fn trailing_pointer_is_not_an_induction() {
        // `prev = cur` copies a pointer whose own advance is a *self*-field
        // load based on cur, not on prev: prev lags one node behind and
        // must not be reported (only cur is).
        let (prog, found) = inductions(
            r#"
            struct node { node* next; int v; };
            int f(node *head) {
                node *cur;
                node *prev;
                int acc;
                acc = 0;
                prev = head;
                cur = head;
                while (cur != NULL) {
                    acc = acc + prev->v;
                    prev = cur;
                    cur = cur->next;
                }
                return acc;
            }
        "#,
            "f",
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].var, f.var_by_name("cur").unwrap());
    }

    #[test]
    fn reassignment_from_non_field_source_disqualifies() {
        // p is also reset from q (a plain copy): two writes, no induction.
        let (_prog, found) = inductions(
            r#"
            struct node { node* next; int v; };
            int f(node *head, node *q) {
                node *p;
                int acc;
                acc = 0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                    if (acc > 100) { p = q; }
                }
                return acc;
            }
        "#,
            "f",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn foreign_field_load_disqualifies() {
        // The single write is `p = q->next` — not a *self*-field load.
        let (_prog, found) = inductions(
            r#"
            struct node { node* next; int v; };
            int f(node *q) {
                node *p;
                int acc;
                int i;
                acc = 0;
                p = q;
                i = 0;
                while (i < 10) {
                    acc = acc + p->v;
                    p = q->next;
                    i = i + 1;
                }
                return acc;
            }
        "#,
            "f",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn nested_loop_advance_disqualifies_outer_but_not_inner() {
        let (prog, found) = inductions(
            r#"
            struct node { node* next; int v; };
            int f(node *head) {
                node *p;
                int acc;
                int i;
                acc = 0;
                i = 0;
                while (i < 3) {
                    p = head;
                    while (p != NULL) {
                        acc = acc + p->v;
                        p = p->next;
                    }
                    i = i + 1;
                }
                return acc;
            }
        "#,
            "f",
        );
        // The outer loop sees two writes of p (reset + advance); only the
        // inner loop reports the induction.
        assert_eq!(found.len(), 1, "{found:?}");
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let inner_label = {
            let mut loops = Vec::new();
            f.body.walk(&mut |s| {
                if matches!(s.kind, StmtKind::While { .. }) {
                    loops.push(s.label);
                }
            });
            *loops.last().unwrap()
        };
        assert_eq!(found[0].loop_label, inner_label);
    }
}
