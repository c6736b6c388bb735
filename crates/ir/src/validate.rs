//! Structural validation of SIMPLE IR programs.
//!
//! The validator enforces the invariants the analyses and the simulator rely
//! on, most importantly the SIMPLE property that a basic statement carries
//! **at most one** potentially-remote memory operation.
//!
//! Violations are reported as [`Diagnostic`] values with stable codes:
//!
//! | code | invariant |
//! |---|---|
//! | `IR001` | at most one potentially-remote operation per basic statement |
//! | `IR002` | statement labels are unique within a function |
//! | `IR003` | every referenced `VarId` is declared in the function |
//! | `IR004` | operands, dereferences, and conditions are well-typed |
//! | `IR005` | atomic operations and `valueof` target `shared` variables |
//! | `IR006` | `blkmov` moves between a pointer and a matching struct buffer |
//! | `IR007` | calls reference real functions and respect `void` |
//! | `IR008` | every label was allocated by the owning function (no dangling labels) |
//! | `IR009` | `switch` cases are distinct; `forall` init/step are basic |
//! | `IR010` | every label maps to a single [`SiteId`](crate::site::SiteId) (stable profile sites) |
//!
//! [`validate_program`] keeps the original fail-fast [`ValidateError`] API on
//! top of the diagnostic collector.

use crate::diag::Diagnostic;
use crate::func::{FuncId, Function, Program};
use crate::stmt::{Basic, Cond, Label, MemRef, Operand, Place, Rvalue, Stmt, StmtKind};
use crate::types::Ty;
use crate::var::VarId;
use std::error::Error;
use std::fmt;

/// A validation failure (first error found, fail-fast API).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateError {
    /// Function in which the problem was found, if any.
    pub func: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in function `{name}`: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for ValidateError {}

impl From<Diagnostic> for ValidateError {
    fn from(d: Diagnostic) -> Self {
        ValidateError {
            func: d.func,
            message: d.message,
        }
    }
}

/// Validates a whole program, fail-fast.
///
/// # Errors
///
/// Returns the first violated invariant (see the module table of codes).
pub fn validate_program(prog: &Program) -> Result<(), ValidateError> {
    match validate_program_diags(prog).into_iter().next() {
        Some(d) => Err(d.into()),
        None => Ok(()),
    }
}

/// Validates a single function, fail-fast.
///
/// # Errors
///
/// See [`validate_program`].
pub fn validate_function(prog: &Program, id: FuncId) -> Result<(), ValidateError> {
    match validate_function_diags(prog, id).into_iter().next() {
        Some(d) => Err(d.into()),
        None => Ok(()),
    }
}

/// Validates a whole program, collecting **all** violations as diagnostics.
pub fn validate_program_diags(prog: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, _) in prog.iter_functions() {
        out.extend(validate_function_diags(prog, id));
    }
    out
}

/// Validates a single function, collecting all violations as diagnostics.
pub fn validate_function_diags(prog: &Program, id: FuncId) -> Vec<Diagnostic> {
    let f = prog.function(id);
    let mut v = Validator {
        prog,
        func: f,
        seen_labels: vec![false; f.label_bound()],
        seen_dangling: Vec::new(),
        diags: Vec::new(),
    };
    v.stmt(&f.body);
    let mut diags = v.diags;
    // IR010: a label occurring at more than one tree position cannot be
    // given a stable SiteId, so profile feedback keyed on it is ambiguous.
    for (label, a, b) in crate::site::duplicate_site_labels(id, f) {
        diags.push(err(
            "IR010",
            label,
            format!("label {label} has an unstable SiteId: occurs at both {a} and {b}"),
        ));
    }
    diags
        .into_iter()
        .map(|d| d.in_func(f.name.clone()))
        .collect()
}

fn err(code: &str, at: Label, message: impl Into<String>) -> Diagnostic {
    Diagnostic::error(code, message).with_label(at, "here")
}

struct Validator<'a> {
    prog: &'a Program,
    func: &'a Function,
    /// Indexed by label; labels at or past the function's bound (IR008)
    /// are kept in `seen_dangling`.
    seen_labels: Vec<bool>,
    seen_dangling: Vec<u32>,
    diags: Vec<Diagnostic>,
}

// Internal helpers thread `Diagnostic` (128 bytes) through cold error
// paths only; boxing would just add noise at every `err(...)` site.
#[allow(clippy::result_large_err)]
impl Validator<'_> {
    fn var_ty(&self, v: VarId, at: Label) -> Result<Ty, Diagnostic> {
        if v.index() >= self.func.vars().len() {
            return Err(err(
                "IR003",
                at,
                format!(
                    "variable {v} is not declared in this function ({} declared)",
                    self.func.vars().len()
                ),
            ));
        }
        Ok(self.func.var(v).ty)
    }

    fn check_operand(&self, o: Operand, at: Label) -> Result<(), Diagnostic> {
        if let Operand::Var(v) = o {
            let ty = self.var_ty(v, at)?;
            if ty.is_struct() {
                return Err(err(
                    "IR004",
                    at,
                    format!(
                        "struct variable `{}` used as scalar operand",
                        self.func.var(v).name
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_memref(&self, m: MemRef, at: Label) -> Result<(), Diagnostic> {
        let base_ty = self.var_ty(m.base(), at)?;
        let sid = match (m, base_ty) {
            (MemRef::Deref { .. }, Ty::Ptr(s)) => s,
            (MemRef::Field { .. }, Ty::Struct(s)) => s,
            (MemRef::Deref { .. }, _) => {
                return Err(err(
                    "IR004",
                    at,
                    format!(
                        "`{}` dereferenced but is not a pointer",
                        self.func.var(m.base()).name
                    ),
                ))
            }
            (MemRef::Field { .. }, _) => {
                return Err(err(
                    "IR004",
                    at,
                    format!(
                        "`.field` access on non-struct variable `{}`",
                        self.func.var(m.base()).name
                    ),
                ))
            }
        };
        if sid.index() >= self.prog.structs().len() {
            return Err(err("IR004", at, format!("{sid} out of range")));
        }
        let def = self.prog.struct_def(sid);
        if m.field().index() >= def.fields.len() {
            return Err(err(
                "IR004",
                at,
                format!("field {} out of range for struct `{}`", m.field(), def.name),
            ));
        }
        Ok(())
    }

    fn check_cond(&self, c: &Cond, at: Label) -> Result<(), Diagnostic> {
        if !c.op.is_comparison() {
            return Err(err(
                "IR004",
                at,
                "loop/branch condition must be a comparison",
            ));
        }
        self.check_operand(c.lhs, at)?;
        self.check_operand(c.rhs, at)
    }

    fn count_derefs(b: &Basic) -> usize {
        let mut n = 0;
        if let Basic::Assign { dst, src } = b {
            if matches!(dst, Place::Mem(MemRef::Deref { .. })) {
                n += 1;
            }
            if matches!(src, Rvalue::Load(MemRef::Deref { .. })) {
                n += 1;
            }
        }
        if matches!(b, Basic::BlkMov { .. }) {
            n += 1;
        }
        n
    }

    fn basic(&self, b: &Basic, at: Label) -> Result<(), Diagnostic> {
        if Self::count_derefs(b) > 1 {
            return Err(err(
                "IR001",
                at,
                "basic statement contains more than one potentially-remote operation",
            ));
        }
        for o in b.operands() {
            self.check_operand(o, at)?;
        }
        match b {
            Basic::Assign { dst, src } => {
                match dst {
                    Place::Var(v) => {
                        let ty = self.var_ty(*v, at)?;
                        if ty.is_struct() && !matches!(src, Rvalue::Use(_)) {
                            return Err(err(
                                "IR004",
                                at,
                                format!(
                                    "struct variable `{}` may only be block-moved or copied",
                                    self.func.var(*v).name
                                ),
                            ));
                        }
                    }
                    Place::Mem(m) => self.check_memref(*m, at)?,
                }
                match src {
                    Rvalue::Load(m) => self.check_memref(*m, at)?,
                    Rvalue::Malloc { struct_id, .. }
                        if struct_id.index() >= self.prog.structs().len() =>
                    {
                        return Err(err(
                            "IR004",
                            at,
                            format!("{struct_id} out of range in malloc"),
                        ));
                    }
                    Rvalue::Builtin { builtin, args } if args.len() != builtin.arity() => {
                        return Err(err(
                            "IR004",
                            at,
                            format!(
                                "builtin `{}` expects {} arguments, got {}",
                                builtin.name(),
                                builtin.arity(),
                                args.len()
                            ),
                        ));
                    }
                    Rvalue::ValueOf(v) => {
                        self.var_ty(*v, at)?;
                        if !self.func.var(*v).shared {
                            return Err(err(
                                "IR005",
                                at,
                                format!(
                                    "valueof on non-shared variable `{}`",
                                    self.func.var(*v).name
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
            Basic::Call { dst, func, .. } => {
                if func.index() >= self.prog.functions().len() {
                    return Err(err("IR007", at, format!("{func} out of range in call")));
                }
                if let Some(d) = dst {
                    self.var_ty(*d, at)?;
                    let callee = self.prog.function(*func);
                    if callee.ret_ty.is_none() {
                        return Err(err(
                            "IR007",
                            at,
                            format!("call to void function `{}` assigns a result", callee.name),
                        ));
                    }
                }
            }
            Basic::Return(_) => {}
            Basic::BlkMov {
                ptr, buf, range, ..
            } => {
                let pty = self.var_ty(*ptr, at)?;
                let bty = self.var_ty(*buf, at)?;
                let sid = match (pty, bty) {
                    (Ty::Ptr(a), Ty::Struct(b)) if a == b => a,
                    _ => {
                        return Err(err(
                            "IR006",
                            at,
                            format!(
                            "blkmov requires pointer `{}` and matching local struct buffer `{}`",
                            self.func.var(*ptr).name,
                            self.func.var(*buf).name
                        ),
                        ))
                    }
                };
                if let Some((first, words)) = range {
                    let size = self.prog.struct_def(sid).size_words() as u32;
                    if *words == 0 || first + words > size {
                        return Err(err(
                            "IR006",
                            at,
                            format!(
                                "blkmov range [{first}, {first}+{words}) out of bounds for {size}-word struct"
                            ),
                        ));
                    }
                }
            }
            Basic::AtomicWrite { var, .. } | Basic::AtomicAdd { var, .. } => {
                self.var_ty(*var, at)?;
                if !self.func.var(*var).shared {
                    return Err(err(
                        "IR005",
                        at,
                        format!(
                            "atomic operation on non-shared variable `{}`",
                            self.func.var(*var).name
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn record(&mut self, r: Result<(), Diagnostic>) {
        if let Err(d) = r {
            self.diags.push(d);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let first_sight = match self.seen_labels.get_mut(s.label.0 as usize) {
            Some(seen) => !std::mem::replace(seen, true),
            None => {
                let new = !self.seen_dangling.contains(&s.label.0);
                self.seen_dangling.push(s.label.0);
                new
            }
        };
        if !first_sight {
            self.diags.push(err(
                "IR002",
                s.label,
                format!("duplicate statement label {}", s.label),
            ));
        }
        if s.label.0 as usize >= self.func.label_bound() {
            self.diags.push(err(
                "IR008",
                s.label,
                format!(
                    "dangling label {}: never allocated by this function (bound {})",
                    s.label,
                    self.func.label_bound()
                ),
            ));
        }
        match &s.kind {
            StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
                for c in ss {
                    self.stmt(c);
                }
            }
            StmtKind::Basic(b) => {
                let r = self.basic(b, s.label);
                self.record(r);
            }
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                let r = self.check_cond(cond, s.label);
                self.record(r);
                self.stmt(then_s);
                self.stmt(else_s);
            }
            StmtKind::Switch {
                scrut,
                cases,
                default,
            } => {
                let r = self.check_operand(*scrut, s.label);
                self.record(r);
                let mut vals = std::collections::HashSet::new();
                for (v, cs) in cases {
                    if !vals.insert(*v) {
                        self.diags.push(err(
                            "IR009",
                            s.label,
                            format!("duplicate switch case {v}"),
                        ));
                    }
                    self.stmt(cs);
                }
                self.stmt(default);
            }
            StmtKind::While { cond, body } => {
                let r = self.check_cond(cond, s.label);
                self.record(r);
                self.stmt(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.stmt(body);
                let r = self.check_cond(cond, s.label);
                self.record(r);
            }
            StmtKind::Forall {
                init,
                cond,
                step,
                body,
            } => {
                if !matches!(init.kind, StmtKind::Basic(_))
                    || !matches!(step.kind, StmtKind::Basic(_))
                {
                    self.diags.push(err(
                        "IR009",
                        s.label,
                        "forall init/step must be basic statements",
                    ));
                }
                self.stmt(init);
                let r = self.check_cond(cond, s.label);
                self.record(r);
                self.stmt(step);
                self.stmt(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::stmt::{BinOp, BlkDir, Label};
    use crate::types::{StructDef, StructId};
    use crate::var::VarDecl;

    fn point_program() -> (Program, StructId) {
        let mut prog = Program::new();
        let mut point = StructDef::new("Point");
        point.add_field("x", Ty::Double);
        point.add_field("y", Ty::Double);
        let pt = prog.add_struct(point);
        (prog, pt)
    }

    #[test]
    fn valid_program_passes() {
        let (mut prog, pt) = point_program();
        let mut fb = FunctionBuilder::new("f", Some(Ty::Double));
        let p = fb.param(VarDecl::new("p", Ty::Ptr(pt)));
        let t = fb.var(VarDecl::new("t", Ty::Double));
        fb.load_deref(t, p, crate::types::FieldId(0));
        fb.ret(Some(Operand::Var(t)));
        prog.add_function(fb.finish());
        validate_program(&prog).unwrap();
        assert!(validate_program_diags(&prog).is_empty());
    }

    #[test]
    fn two_derefs_rejected() {
        let (mut prog, pt) = point_program();
        let mut f = Function::new("bad", None);
        let p = f.add_param(VarDecl::new("p", Ty::Ptr(pt)));
        let q = f.add_param(VarDecl::new("q", Ty::Ptr(pt)));
        let l0 = f.fresh_label();
        let l1 = f.fresh_label();
        f.body = Stmt {
            label: l0,
            kind: StmtKind::Seq(vec![Stmt {
                label: l1,
                kind: StmtKind::Basic(Basic::Assign {
                    dst: Place::Mem(MemRef::Deref {
                        base: p,
                        field: crate::types::FieldId(0),
                    }),
                    src: Rvalue::Load(MemRef::Deref {
                        base: q,
                        field: crate::types::FieldId(1),
                    }),
                }),
            }]),
        };
        let id = prog.add_function(f);
        let e = validate_function(&prog, id).unwrap_err();
        assert!(e.message.contains("more than one"));
        let diags = validate_function_diags(&prog, id);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "IR001");
        assert_eq!(diags[0].labels[0].label, l1);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let (mut prog, _) = point_program();
        let mut f = Function::new("dup", None);
        let a = f.fresh_label();
        let _ = f.fresh_label();
        f.body = Stmt {
            label: a,
            kind: StmtKind::Seq(vec![Stmt {
                label: a,
                kind: StmtKind::Basic(Basic::Return(None)),
            }]),
        };
        let id = prog.add_function(f);
        let diags = validate_function_diags(&prog, id);
        assert!(diags.iter().any(|d| d.code == "IR002"), "{diags:?}");
    }

    #[test]
    fn unstable_site_id_rejected() {
        let (mut prog, _) = point_program();
        let mut f = Function::new("twin", None);
        let a = f.fresh_label();
        let b = f.fresh_label();
        // The same label `b` appears at two tree positions, so its SiteId
        // is ambiguous: a profile keyed by it cannot be attributed.
        f.body = Stmt {
            label: a,
            kind: StmtKind::Seq(vec![
                Stmt {
                    label: b,
                    kind: StmtKind::Basic(Basic::Return(None)),
                },
                Stmt {
                    label: b,
                    kind: StmtKind::Basic(Basic::Return(None)),
                },
            ]),
        };
        let id = prog.add_function(f);
        let diags = validate_function_diags(&prog, id);
        let ir010: Vec<_> = diags.iter().filter(|d| d.code == "IR010").collect();
        assert_eq!(ir010.len(), 1, "{diags:?}");
        assert!(ir010[0].message.contains("unstable SiteId"));
        assert!(ir010[0].message.contains("f0:0"), "{}", ir010[0].message);
        assert!(ir010[0].message.contains("f0:1"), "{}", ir010[0].message);
        // The plain duplicate-label check still fires alongside it.
        assert!(diags.iter().any(|d| d.code == "IR002"));
    }

    #[test]
    fn dangling_label_rejected() {
        let (mut prog, _) = point_program();
        let mut f = Function::new("dangling", None);
        let l0 = f.fresh_label();
        // Label 99 was never allocated through `fresh_label`.
        f.body = Stmt {
            label: l0,
            kind: StmtKind::Seq(vec![Stmt {
                label: Label(99),
                kind: StmtKind::Basic(Basic::Return(None)),
            }]),
        };
        let id = prog.add_function(f);
        let diags = validate_function_diags(&prog, id);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "IR008");
        assert!(diags[0].message.contains("dangling label S99"));
    }

    #[test]
    fn undeclared_var_rejected() {
        let (mut prog, _) = point_program();
        let mut f = Function::new("ghost", None);
        let l0 = f.fresh_label();
        let l1 = f.fresh_label();
        f.body = Stmt {
            label: l0,
            kind: StmtKind::Seq(vec![Stmt {
                label: l1,
                kind: StmtKind::Basic(Basic::Assign {
                    dst: Place::Var(VarId(7)),
                    src: Rvalue::Use(Operand::int(0)),
                }),
            }]),
        };
        let id = prog.add_function(f);
        let diags = validate_function_diags(&prog, id);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "IR003");
        assert!(diags[0].message.contains("not declared"));
    }

    #[test]
    fn multiple_violations_all_collected() {
        let (mut prog, _) = point_program();
        let mut f = Function::new("multi", None);
        let l0 = f.fresh_label();
        let l1 = f.fresh_label();
        f.body = Stmt {
            label: l0,
            kind: StmtKind::Seq(vec![
                Stmt {
                    label: l1,
                    kind: StmtKind::Basic(Basic::Assign {
                        dst: Place::Var(VarId(7)),
                        src: Rvalue::Use(Operand::int(0)),
                    }),
                },
                Stmt {
                    label: Label(42),
                    kind: StmtKind::Basic(Basic::Return(None)),
                },
            ]),
        };
        let id = prog.add_function(f);
        let diags = validate_function_diags(&prog, id);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"IR003"), "{codes:?}");
        assert!(codes.contains(&"IR008"), "{codes:?}");
    }

    #[test]
    fn atomic_on_ordinary_var_rejected() {
        let (mut prog, _) = point_program();
        let mut fb = FunctionBuilder::new("f", None);
        let c = fb.var(VarDecl::new("c", Ty::Int));
        fb.atomic_add(c, Operand::int(1));
        let id = prog.add_function(fb.finish());
        let e = validate_function(&prog, id).unwrap_err();
        assert!(e.message.contains("non-shared"));
        assert_eq!(validate_function_diags(&prog, id)[0].code, "IR005");
    }

    #[test]
    fn blkmov_type_mismatch_rejected() {
        let (mut prog, pt) = point_program();
        let mut fb = FunctionBuilder::new("f", None);
        let p = fb.param(VarDecl::new("p", Ty::Ptr(pt)));
        let buf = fb.var(VarDecl::new("buf", Ty::Int));
        fb.blkmov(BlkDir::RemoteToLocal, p, buf);
        let id = prog.add_function(fb.finish());
        assert!(validate_function(&prog, id).is_err());
        assert_eq!(validate_function_diags(&prog, id)[0].code, "IR006");
    }

    #[test]
    fn valid_blkmov_passes() {
        let (mut prog, pt) = point_program();
        let mut fb = FunctionBuilder::new("f", None);
        let p = fb.param(VarDecl::new("p", Ty::Ptr(pt)));
        let buf = fb.var(VarDecl::new("bcomm1", Ty::Struct(pt)));
        fb.blkmov(BlkDir::RemoteToLocal, p, buf);
        fb.ret(None);
        let id = prog.add_function(fb.finish());
        validate_function(&prog, id).unwrap();
    }

    #[test]
    fn cond_with_struct_var_rejected() {
        let (mut prog, pt) = point_program();
        let mut f = Function::new("f", None);
        let s = f.add_var(VarDecl::new("s", Ty::Struct(pt)));
        let l0 = f.fresh_label();
        let l1 = f.fresh_label();
        let l2 = f.fresh_label();
        f.body = Stmt {
            label: l0,
            kind: StmtKind::Seq(vec![Stmt {
                label: l1,
                kind: StmtKind::While {
                    cond: Cond::new(BinOp::Ne, Operand::Var(s), Operand::int(0)),
                    body: Box::new(Stmt {
                        label: l2,
                        kind: StmtKind::Seq(vec![]),
                    }),
                },
            }]),
        };
        let id = prog.add_function(f);
        assert!(validate_function(&prog, id).is_err());
    }

    #[test]
    fn error_display_includes_function() {
        let e = ValidateError {
            func: Some("foo".into()),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "in function `foo`: boom");
    }

    #[test]
    fn diagnostics_name_the_function() {
        let (mut prog, _) = point_program();
        let mut fb = FunctionBuilder::new("culprit", None);
        let c = fb.var(VarDecl::new("c", Ty::Int));
        fb.atomic_add(c, Operand::int(1));
        prog.add_function(fb.finish());
        let diags = validate_program_diags(&prog);
        assert_eq!(diags[0].func.as_deref(), Some("culprit"));
    }
}
