//! Pretty-printer for the SIMPLE IR.
//!
//! Output mimics the paper's presentation: three-address statements, one per
//! line, with potentially-remote dereferences printed as `p~>f` (the paper
//! underlines them; plain text cannot) while local struct-field accesses are
//! printed `s.f` and local dereferences `p->f`.

use crate::func::{FuncId, Function, Program};
use crate::stmt::{AtTarget, Basic, BlkDir, Cond, MemRef, Operand, Place, Rvalue, Stmt, StmtKind};
use crate::types::{StructId, Ty};
use crate::var::VarId;
use std::fmt::Write;

/// Options controlling pretty-printing.
#[derive(Debug, Clone)]
pub struct PrettyOptions {
    /// Prefix each basic statement with its label (`S4:`).
    pub show_labels: bool,
    /// Spaces per indentation level.
    pub indent: usize,
}

impl Default for PrettyOptions {
    fn default() -> Self {
        PrettyOptions {
            show_labels: true,
            indent: 2,
        }
    }
}

/// Renders a whole program.
pub fn print_program(prog: &Program) -> String {
    let opts = PrettyOptions::default();
    let mut out = String::new();
    for (i, s) in prog.structs().iter().enumerate() {
        let _ = writeln!(out, "struct {} {{ /* {} words */", s.name, s.size_words());
        for f in &s.fields {
            out.push_str("  ");
            push_ty(&mut out, prog, f.ty);
            let _ = writeln!(out, " {};", f.name);
        }
        out.push_str("};\n");
        if i + 1 < prog.structs().len() {
            out.push('\n');
        }
    }
    if !prog.structs().is_empty() {
        out.push('\n');
    }
    for (id, _) in prog.iter_functions() {
        write_function(&mut out, prog, id, &opts);
        out.push('\n');
    }
    out
}

/// Renders one function with default options.
pub fn print_function_default(prog: &Program, id: FuncId) -> String {
    print_function(prog, id, &PrettyOptions::default())
}

/// Renders one function.
pub fn print_function(prog: &Program, id: FuncId, opts: &PrettyOptions) -> String {
    let mut out = String::new();
    write_function(&mut out, prog, id, opts);
    out
}

/// Appends one function to `out`: the whole listing grows one buffer, and
/// every name is written from where the program keeps it.
fn write_function(out: &mut String, prog: &Program, id: FuncId, opts: &PrettyOptions) {
    Printer {
        prog,
        func: prog.function(id),
        opts,
        out,
        level: 0,
    }
    .function();
}

fn push_ty(out: &mut String, prog: &Program, ty: Ty) {
    match ty {
        Ty::Int => out.push_str("int"),
        Ty::Double => out.push_str("double"),
        Ty::Ptr(s) => {
            out.push_str(&prog.struct_def(s).name);
            out.push('*');
        }
        Ty::Struct(s) => out.push_str(&prog.struct_def(s).name),
    }
}

struct Printer<'a> {
    prog: &'a Program,
    func: &'a Function,
    opts: &'a PrettyOptions,
    out: &'a mut String,
    level: usize,
}

impl Printer<'_> {
    fn function(&mut self) {
        match self.func.ret_ty {
            Some(t) => push_ty(self.out, self.prog, t),
            None => self.out.push_str("void"),
        }
        self.out.push(' ');
        self.out.push_str(&self.func.name);
        self.out.push('(');
        for (i, &v) in self.func.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let d = self.func.var(v);
            push_ty(self.out, self.prog, d.ty);
            if d.ty.is_ptr() && !d.deref_is_remote() {
                self.out.push_str(" local");
            }
            self.out.push(' ');
            self.out.push_str(&d.name);
        }
        self.out.push_str(") {\n");
        self.level += 1;
        // Declarations for non-parameter variables.
        for (v, d) in self.func.iter_vars() {
            if self.func.params.contains(&v) {
                continue;
            }
            self.indent();
            self.out
                .push_str(match (d.shared, d.ty.is_ptr() && !d.deref_is_remote()) {
                    (true, _) => "shared ",
                    (false, true) => "local ",
                    _ => "",
                });
            push_ty(self.out, self.prog, d.ty);
            self.out.push(' ');
            self.out.push_str(&d.name);
            self.out.push_str(";\n");
        }
        // The body is a Seq; print its children without an extra brace level.
        self.block(&self.func.body);
        self.level -= 1;
        self.out.push_str("}\n");
    }

    fn indent(&mut self) {
        let n = self.level * self.opts.indent;
        self.out.extend(std::iter::repeat_n(' ', n));
    }

    fn line(&mut self, text: &str) {
        self.indent();
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Starts the line of statement `s`: indentation, then its label when
    /// labels are shown. The caller writes the rest and the newline.
    fn open(&mut self, s: &Stmt) {
        self.indent();
        if self.opts.show_labels {
            let _ = write!(self.out, "{}: ", s.label);
        }
    }

    fn labelled_line(&mut self, s: &Stmt, text: &str) {
        self.open(s);
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn block(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Seq(ss) => {
                for c in ss {
                    self.stmt(c);
                }
            }
            _ => self.stmt(s),
        }
    }

    /// `block` one level in.
    fn nested(&mut self, s: &Stmt) {
        self.level += 1;
        self.block(s);
        self.level -= 1;
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Seq(_) => {
                self.line("{");
                self.nested(s);
                self.line("}");
            }
            StmtKind::Basic(b) => {
                self.open(s);
                self.basic(b);
                self.out.push_str(";\n");
            }
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                self.open(s);
                self.out.push_str("if (");
                self.cond(cond);
                self.out.push_str(") {\n");
                self.nested(then_s);
                if !else_s.is_empty_seq() {
                    self.line("} else {");
                    self.nested(else_s);
                }
                self.line("}");
            }
            StmtKind::Switch {
                scrut,
                cases,
                default,
            } => {
                self.open(s);
                self.out.push_str("switch (");
                self.operand(*scrut);
                self.out.push_str(") {\n");
                self.level += 1;
                for (v, cs) in cases {
                    self.indent();
                    let _ = writeln!(self.out, "case {v}:");
                    self.level += 1;
                    self.block(cs);
                    self.line("break;");
                    self.level -= 1;
                }
                if !default.is_empty_seq() {
                    self.line("default:");
                    self.nested(default);
                }
                self.level -= 1;
                self.line("}");
            }
            StmtKind::While { cond, body } => {
                self.open(s);
                self.out.push_str("while (");
                self.cond(cond);
                self.out.push_str(") {\n");
                self.nested(body);
                self.line("}");
            }
            StmtKind::DoWhile { body, cond } => {
                self.labelled_line(s, "do {");
                self.nested(body);
                self.indent();
                self.out.push_str("} while (");
                self.cond(cond);
                self.out.push_str(");\n");
            }
            StmtKind::ParSeq(arms) => {
                self.labelled_line(s, "{^");
                self.level += 1;
                for (i, arm) in arms.iter().enumerate() {
                    if i > 0 {
                        self.line("//  ||");
                    }
                    self.block(arm);
                }
                self.level -= 1;
                self.line("^}");
            }
            StmtKind::Forall {
                init,
                cond,
                step,
                body,
            } => {
                self.open(s);
                self.out.push_str("forall (");
                self.header_part(init);
                self.out.push_str("; ");
                self.cond(cond);
                self.out.push_str("; ");
                self.header_part(step);
                self.out.push_str(") {\n");
                self.nested(body);
                self.line("}");
            }
        }
    }

    /// The init or step of a `forall (...)` header: a basic statement
    /// without its semicolon.
    fn header_part(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Basic(b) => self.basic(b),
            _ => self.out.push_str("..."),
        }
    }

    fn cond(&mut self, c: &Cond) {
        self.operand(c.lhs);
        self.out.push(' ');
        self.out.push_str(c.op.symbol());
        self.out.push(' ');
        self.operand(c.rhs);
    }

    fn var(&mut self, v: VarId) {
        self.out.push_str(&self.func.var(v).name);
    }

    fn operand(&mut self, o: Operand) {
        match o {
            Operand::Var(v) => self.var(v),
            Operand::Const(c) => {
                let _ = write!(self.out, "{c}");
            }
        }
    }

    fn operands(&mut self, args: &[Operand]) {
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.operand(*a);
        }
    }

    fn memref(&mut self, m: MemRef) {
        self.var(m.base());
        self.out.push_str(match m {
            MemRef::Deref { base, .. } if self.func.deref_is_remote(base) => "~>",
            MemRef::Deref { .. } => "->",
            MemRef::Field { .. } => ".",
        });
        match self.func.var(m.base()).ty.struct_id() {
            Some(sid) => self
                .out
                .push_str(&self.prog.struct_def(sid).field(m.field()).name),
            None => {
                let _ = write!(self.out, "{}", m.field());
            }
        }
    }

    fn struct_name(&mut self, s: StructId) {
        self.out.push_str(&self.prog.struct_def(s).name);
    }

    fn rvalue(&mut self, r: &Rvalue) {
        match r {
            Rvalue::Use(o) => self.operand(*o),
            Rvalue::Unary(op, a) => {
                self.out.push(match op {
                    crate::stmt::UnOp::Neg => '-',
                    crate::stmt::UnOp::Not => '!',
                });
                self.operand(*a);
            }
            Rvalue::Binary(op, a, b) => {
                self.operand(*a);
                self.out.push(' ');
                self.out.push_str(op.symbol());
                self.out.push(' ');
                self.operand(*b);
            }
            Rvalue::Load(m) => self.memref(*m),
            Rvalue::Malloc { struct_id, on } => {
                match on {
                    Some(o) => {
                        self.out.push_str("malloc_on(");
                        self.operand(*o);
                        self.out.push_str(", sizeof(");
                    }
                    None => self.out.push_str("malloc(sizeof("),
                }
                self.struct_name(*struct_id);
                self.out.push_str("))");
            }
            Rvalue::Builtin { builtin, args } => {
                self.out.push_str(builtin.name());
                self.out.push('(');
                self.operands(args);
                self.out.push(')');
            }
            Rvalue::ValueOf(v) => {
                self.out.push_str("valueof(&");
                self.var(*v);
                self.out.push(')');
            }
        }
    }

    /// A basic statement without its trailing semicolon.
    fn basic(&mut self, b: &Basic) {
        match b {
            Basic::Assign { dst, src } => {
                match dst {
                    Place::Var(v) => self.var(*v),
                    Place::Mem(m) => self.memref(*m),
                }
                self.out.push_str(" = ");
                self.rvalue(src);
            }
            Basic::Call {
                dst,
                func,
                args,
                at,
            } => {
                if let Some(d) = dst {
                    self.var(*d);
                    self.out.push_str(" = ");
                }
                self.out.push_str(&self.prog.function(*func).name);
                self.out.push('(');
                self.operands(args);
                self.out.push(')');
                match at {
                    Some(AtTarget::OwnerOf(p)) => {
                        self.out.push_str(" @OWNER_OF(");
                        self.var(*p);
                        self.out.push(')');
                    }
                    Some(AtTarget::Node(n)) => {
                        self.out.push_str(" @");
                        self.operand(*n);
                    }
                    None => {}
                }
            }
            Basic::Return(op) => {
                self.out.push_str("return");
                if let Some(o) = op {
                    self.out.push(' ');
                    self.operand(*o);
                }
            }
            Basic::BlkMov {
                dir,
                ptr,
                buf,
                range,
            } => {
                self.out.push_str("blkmov(");
                match dir {
                    BlkDir::RemoteToLocal => {
                        self.var(*ptr);
                        self.out.push_str(", &");
                        self.var(*buf);
                    }
                    BlkDir::LocalToRemote => {
                        self.out.push('&');
                        self.var(*buf);
                        self.out.push_str(", ");
                        self.var(*ptr);
                    }
                }
                self.out.push_str(", ");
                match range {
                    Some((first, words)) => {
                        let _ = write!(self.out, "{words} words @ {first}");
                    }
                    None => {
                        self.out.push_str("sizeof(*");
                        self.var(*ptr);
                        self.out.push(')');
                    }
                }
                self.out.push(')');
            }
            Basic::AtomicWrite { var, value } | Basic::AtomicAdd { var, value } => {
                self.out
                    .push_str(if matches!(b, Basic::AtomicWrite { .. }) {
                        "writeto(&"
                    } else {
                        "addto(&"
                    });
                self.var(*var);
                self.out.push_str(", ");
                self.operand(*value);
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::stmt::BinOp;
    use crate::types::{StructDef, Ty};
    use crate::var::VarDecl;
    use crate::Program;

    fn sample() -> Program {
        let mut prog = Program::new();
        let mut point = StructDef::new("Point");
        let fx = point.add_field("x", Ty::Double);
        let pt = prog.add_struct(point);

        let mut fb = FunctionBuilder::new("get_x", Some(Ty::Double));
        let p = fb.param(VarDecl::new("p", Ty::Ptr(pt)));
        let q = fb.param(VarDecl::local("q", Ty::Ptr(pt)));
        let t = fb.var(VarDecl::new("t", Ty::Double));
        fb.load_deref(t, p, fx);
        fb.load_deref(t, q, fx);
        fb.ret(Some(Operand::Var(t)));
        prog.add_function(fb.finish());
        prog
    }

    #[test]
    fn remote_deref_marked() {
        let prog = sample();
        let s = print_program(&prog);
        assert!(s.contains("p~>x"), "remote deref should use ~>: {s}");
        assert!(s.contains("q->x"), "local deref should use ->: {s}");
        assert!(s.contains("struct Point"));
        assert!(s.contains("Point* local q"));
    }

    #[test]
    fn labels_can_be_hidden() {
        let prog = sample();
        let id = prog.function_by_name("get_x").unwrap();
        let with = print_function(&prog, id, &PrettyOptions::default());
        let without = print_function(
            &prog,
            id,
            &PrettyOptions {
                show_labels: false,
                ..Default::default()
            },
        );
        assert!(with.contains("S1:"));
        assert!(!without.contains("S1:"));
    }

    #[test]
    fn control_flow_renders() {
        let mut prog = Program::new();
        let mut fb = FunctionBuilder::new("f", None);
        let i = fb.var(VarDecl::new("i", Ty::Int));
        fb.while_loop(
            Cond::new(BinOp::Lt, Operand::Var(i), Operand::int(3)),
            |b| {
                b.if_then_else(
                    Cond::new(BinOp::Eq, Operand::Var(i), Operand::int(0)),
                    |b| b.assign(i, Operand::int(1)),
                    |b| b.assign(i, Operand::int(2)),
                );
            },
        );
        fb.ret(None);
        let id = prog.add_function(fb.finish());
        let s = print_function_default(&prog, id);
        assert!(s.contains("while (i < 3)"));
        assert!(s.contains("} else {"));
        assert!(s.contains("return;"));
    }
}
