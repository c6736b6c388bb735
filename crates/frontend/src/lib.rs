//! # earth-frontend — EARTH-C subset frontend
//!
//! Lexer, parser, type checker and *simplifier* for the EARTH-C dialect used
//! by the reproduction of Zhu & Hendren (PLDI 1998). The output is SIMPLE IR
//! ([`earth_ir::Program`]) in three-address form with at most one
//! potentially-remote memory operation per basic statement — the input shape
//! the paper's possible-placement analysis expects.
//!
//! Supported EARTH-C constructs: struct definitions (including nested
//! struct-typed fields, which are flattened), pointer and scalar types,
//! `local` and `shared` qualifiers, `forall` loops, parallel statement
//! sequences `{^ ... ^}`, `@OWNER_OF(p)` / `@node` call placement, the
//! atomic operations `writeto`/`addto`/`valueof`, and `malloc`/`malloc_on`.
//!
//! # Examples
//!
//! ```
//! let prog = earth_frontend::compile(r#"
//!     struct Point { double x; double y; };
//!     double distance(Point *p) {
//!         double d;
//!         d = sqrt(p->x * p->x + p->y * p->y);
//!         return d;
//!     }
//! "#).unwrap();
//! // Simplification produced one remote read per statement: four in total,
//! // exactly as in the paper's Figure 3(b).
//! let f = prog.function(prog.function_by_name("distance").unwrap());
//! let remote_reads = f
//!     .basic_stmts()
//!     .iter()
//!     .filter(|(_, b)| b.deref_access().is_some())
//!     .count();
//! assert_eq!(remote_reads, 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[allow(missing_docs)] // AST field names mirror the grammar and are self-describing
pub mod ast;
pub mod lower;
pub mod parser;
pub mod token;

use std::fmt;

pub use lower::{lower_unit, LowerError};
pub use parser::{parse_unit, ParseError, ParseErrorKind, MAX_NESTING};
pub use token::{lex, LexError, Pos};

/// Any frontend failure: lexing, parsing, or lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// Syntax error (including lexical errors).
    Parse(ParseError),
    /// Type or lowering error.
    Lower(LowerError),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => e.fmt(f),
            FrontendError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FrontendError {}

impl FrontendError {
    /// Converts the error to the toolchain-wide diagnostic format
    /// ([`earth_ir::diag`]): `FE001` for syntax errors, `FE002` for type and
    /// lowering errors, `FE003` for nesting beyond
    /// [`MAX_NESTING`], with the source position
    /// folded into a note.
    pub fn to_diagnostic(&self) -> earth_ir::Diagnostic {
        match self {
            FrontendError::Parse(e) => {
                let message = match e.kind {
                    ParseErrorKind::Syntax => format!("syntax error: {}", e.message),
                    ParseErrorKind::TooDeep => e.message.clone(),
                };
                earth_ir::Diagnostic::error(e.kind.code(), message)
                    .with_note(format!("at {}", e.pos))
            }
            FrontendError::Lower(e) => earth_ir::Diagnostic::error("FE002", e.message.clone())
                .with_note(format!("at {}", e.pos)),
        }
    }
}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<LowerError> for FrontendError {
    fn from(e: LowerError) -> Self {
        FrontendError::Lower(e)
    }
}

/// Compiles EARTH-C source to a validated SIMPLE IR program.
///
/// # Errors
///
/// Returns a [`FrontendError`] for any lexical, syntactic, or type error.
pub fn compile(src: &str) -> Result<earth_ir::Program, FrontendError> {
    let unit = parse_unit(src)?;
    Ok(lower_unit(&unit)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_ir::{Basic, StmtKind};

    #[test]
    fn compiles_figure_1a_count() {
        let prog = compile(
            r#"
            struct node { node* next; int value; };
            int count(node *head, node *x) {
                shared int cnt;
                node *p;
                writeto(&cnt, 0);
                forall (p = head; p != NULL; p = p->next) {
                    if (equal_node(p, x) @ OWNER_OF(p)) {
                        addto(&cnt, 1);
                    }
                }
                return valueof(&cnt);
            }
            int equal_node(node local *p, node *q) {
                return p->value == q->value;
            }
        "#,
        )
        .unwrap();
        let count = prog.function(prog.function_by_name("count").unwrap());
        // The forall must survive lowering.
        let mut has_forall = false;
        count.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::Forall { .. }) {
                has_forall = true;
            }
        });
        assert!(has_forall);
        // In equal_node, `p` is local: only the `q->value` load is remote.
        let eq = prog.function(prog.function_by_name("equal_node").unwrap());
        let remote = eq
            .basic_stmts()
            .iter()
            .filter(|(_, b)| b.deref_access().is_some_and(|a| eq.deref_is_remote(a.base)))
            .count();
        assert_eq!(remote, 1);
    }

    #[test]
    fn compiles_figure_1b_count_rec() {
        let prog = compile(
            r#"
            struct node { node* next; int value; };
            int count_rec(node *head, node *x) {
                node *next;
                int c1;
                int c2;
                if (head != NULL) {
                    {^
                        c1 = equal_node(head, x) @ OWNER_OF(x);
                        c2 = count_rec(head->next, x);
                    ^}
                    return c1 + c2;
                } else {
                    return 0;
                }
            }
            int equal_node(node *p, node local *q) {
                return p->value == q->value;
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("count_rec").unwrap());
        let mut par_arms = 0;
        f.body.walk(&mut |s| {
            if let StmtKind::ParSeq(arms) = &s.kind {
                par_arms = arms.len();
            }
        });
        assert_eq!(par_arms, 2);
    }

    #[test]
    fn while_with_remote_condition_reevaluates() {
        let prog = compile(
            r#"
            struct node { node* next; int value; };
            int f(node *p) {
                int n;
                n = 0;
                while (p->value > 0) {
                    n = n + 1;
                    p = p->next;
                }
                return n;
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("f").unwrap());
        // The load of p->value must appear twice: once before the loop and
        // once at the end of the body.
        let loads = f
            .basic_stmts()
            .iter()
            .filter(|(_, b)| {
                b.deref_access()
                    .is_some_and(|a| !a.is_write && a.field == Some(earth_ir::FieldId(1)))
            })
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn logical_ops_short_circuit() {
        let prog = compile(
            r#"
            struct S { int x; };
            int f(int a, int b) {
                int c;
                c = a && b || a;
                return c;
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("f").unwrap());
        let mut ifs = 0;
        f.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::If { .. }) {
                ifs += 1;
            }
        });
        assert!(ifs >= 2, "expected branches from && and ||, got {ifs}");
    }

    #[test]
    fn nested_struct_fields_flatten() {
        let prog = compile(
            r#"
            struct Hosp { int free_personnel; int zero; };
            struct Village { Hosp hosp; int id; };
            int f(Village *v) {
                int t;
                t = (*v).hosp.free_personnel;
                v->hosp.free_personnel = t + 1;
                return t;
            }
        "#,
        )
        .unwrap();
        let sid = prog.struct_by_name("Village").unwrap();
        let def = prog.struct_def(sid);
        assert_eq!(def.size_words(), 3);
        assert!(def.field_by_name("hosp.free_personnel").is_some());
    }

    #[test]
    fn type_errors_are_reported() {
        let e = compile(
            r#"
            struct P { int x; };
            struct Q { int y; };
            void f(P *p, Q *q) {
                p = q;
            }
        "#,
        )
        .unwrap_err();
        assert!(matches!(e, FrontendError::Lower(_)));
        assert!(e.to_string().contains("type mismatch"));
    }

    #[test]
    fn shadowing_rejected() {
        let e = compile(
            r#"
            struct P { int x; };
            void f() {
                int a;
                int a;
            }
        "#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("duplicate variable"));
    }

    #[test]
    fn atomic_ops_require_shared() {
        let e = compile(
            r#"
            struct P { int x; };
            void f() {
                int a;
                writeto(&a, 1);
            }
        "#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("not `shared`"));
    }

    #[test]
    fn do_while_preserved() {
        let prog = compile(
            r#"
            struct P { int x; };
            int f(int n) {
                int i;
                i = 0;
                do {
                    i = i + 1;
                } while (i < n);
                return i;
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("f").unwrap());
        let mut has_do = false;
        f.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::DoWhile { .. }) {
                has_do = true;
            }
        });
        assert!(has_do);
    }

    #[test]
    fn malloc_forms() {
        let prog = compile(
            r#"
            struct N { N* next; int v; };
            N* f(int node) {
                N *a;
                N *b;
                a = malloc(sizeof(N));
                b = malloc_on(node, sizeof(N));
                a->next = b;
                return a;
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("f").unwrap());
        let mallocs = f
            .basic_stmts()
            .iter()
            .filter(|(_, b)| {
                matches!(
                    b,
                    Basic::Assign {
                        src: earth_ir::Rvalue::Malloc { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(mallocs, 2);
    }

    #[test]
    fn switch_lowering() {
        let prog = compile(
            r#"
            struct Q { Q* nw; Q* ne; int color; };
            Q* pick(Q *p, int q1) {
                Q *r;
                switch (q1) {
                    case 0: r = p->nw; break;
                    case 1: r = p->ne; break;
                    default: r = NULL;
                }
                return r;
            }
        "#,
        )
        .unwrap();
        let f = prog.function(prog.function_by_name("pick").unwrap());
        let mut cases = 0;
        f.body.walk(&mut |s| {
            if let StmtKind::Switch { cases: cs, .. } = &s.kind {
                cases = cs.len();
            }
        });
        assert_eq!(cases, 2);
    }
}
