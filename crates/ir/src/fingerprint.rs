//! Per-function structural content-hashes ("fingerprints").
//!
//! The incremental recompilation machinery needs to answer, cheaply and
//! deterministically: *did this function change?* — at two different
//! strengths:
//!
//! * the **semantic** fingerprint covers everything the interprocedural
//!   analyses can observe: statement structure, variable ids, types,
//!   localities, field/struct ids, constants, and callee *names*. It is
//!   stable under renaming a variable and under reordering *other*
//!   functions in the program, neither of which can change an effect
//!   `Summary` or a placement decision.
//! * the **artifact** fingerprint additionally covers variable name
//!   strings and statement label values, because the pretty-printed IR
//!   and the `MotionLog`s render both. Splicing a cached optimized
//!   function is only byte-safe when the artifact fingerprint matches.
//!
//! Both hashes are computed in one walk over the function body using the
//! fixed [`Fnv1a`] hasher (never `std::hash`, whose
//! `DefaultHasher` is randomized per process). Every node writes a
//! one-byte variant tag before its fields and every list writes its
//! length first, so adjacent constructs cannot alias.
//!
//! Callees are hashed by *name*, not by [`FuncId`]: inserting or
//! reordering unrelated functions shifts ids but must not dirty every
//! caller in the program.

use crate::fnv::Fnv1a;
use crate::func::{FuncId, Function, Program};
use crate::stmt::{AtTarget, Basic, Cond, Const, MemRef, Operand, Place, Rvalue, Stmt, StmtKind};
use crate::types::Ty;
use crate::var::{Locality, VarOrigin};

/// The pair of structural hashes of one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Hash of everything analysis results can depend on; stable under
    /// variable renaming and label renumbering.
    pub semantic: u64,
    /// [`Fingerprint::semantic`] plus variable names and label values —
    /// everything the pretty-printer and `MotionLog`s render.
    pub artifact: u64,
}

/// One walk, two hashers: `both` feeds the semantic and the artifact
/// hash, `artifact_only` feeds names/labels into the artifact hash.
struct Walker {
    semantic: Fnv1a,
    artifact: Fnv1a,
}

impl Walker {
    fn new() -> Self {
        Walker {
            semantic: Fnv1a::new(),
            artifact: Fnv1a::new(),
        }
    }

    fn both(&mut self, bytes: &[u8]) {
        self.semantic.write(bytes);
        self.artifact.write(bytes);
    }

    fn tag(&mut self, t: u8) {
        self.both(&[t]);
    }

    fn u32(&mut self, v: u32) {
        self.both(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.both(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.both(&v.to_le_bytes());
    }

    /// Doubles hash by bit pattern, so `0.0`/`-0.0` and NaN payloads
    /// distinguish exactly as the pretty-printer would.
    fn f64(&mut self, v: f64) {
        self.both(&v.to_bits().to_le_bytes());
    }

    fn str_both(&mut self, s: &str) {
        self.both(&(s.len() as u64).to_le_bytes());
        self.both(s.as_bytes());
    }

    /// A name string: artifact hash only.
    fn name(&mut self, s: &str) {
        self.artifact.str_field(s);
    }

    /// A statement label: artifact hash only.
    fn label(&mut self, v: u32) {
        self.artifact.write(&v.to_le_bytes());
    }

    fn ty(&mut self, ty: Ty) {
        match ty {
            Ty::Int => self.tag(0),
            Ty::Double => self.tag(1),
            Ty::Ptr(s) => {
                self.tag(2);
                self.u32(s.0);
            }
            Ty::Struct(s) => {
                self.tag(3);
                self.u32(s.0);
            }
        }
    }

    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Var(v) => {
                self.tag(0);
                self.u32(v.0);
            }
            Operand::Const(c) => {
                self.tag(1);
                match c {
                    Const::Int(v) => {
                        self.tag(0);
                        self.i64(*v);
                    }
                    Const::Double(v) => {
                        self.tag(1);
                        self.f64(*v);
                    }
                    Const::Null => self.tag(2),
                }
            }
        }
    }

    fn mem_ref(&mut self, m: &MemRef) {
        match m {
            MemRef::Deref { base, field } => {
                self.tag(0);
                self.u32(base.0);
                self.u32(field.0);
            }
            MemRef::Field { base, field } => {
                self.tag(1);
                self.u32(base.0);
                self.u32(field.0);
            }
        }
    }

    fn rvalue(&mut self, rv: &Rvalue) {
        match rv {
            Rvalue::Use(op) => {
                self.tag(0);
                self.operand(op);
            }
            Rvalue::Unary(un, op) => {
                self.tag(1);
                self.tag(*un as u8);
                self.operand(op);
            }
            Rvalue::Binary(bin, a, b) => {
                self.tag(2);
                self.tag(*bin as u8);
                self.operand(a);
                self.operand(b);
            }
            Rvalue::Load(m) => {
                self.tag(3);
                self.mem_ref(m);
            }
            Rvalue::Malloc { struct_id, on } => {
                self.tag(4);
                self.u32(struct_id.0);
                match on {
                    None => self.tag(0),
                    Some(op) => {
                        self.tag(1);
                        self.operand(op);
                    }
                }
            }
            Rvalue::Builtin { builtin, args } => {
                self.tag(5);
                self.tag(*builtin as u8);
                self.u64(args.len() as u64);
                for a in args {
                    self.operand(a);
                }
            }
            Rvalue::ValueOf(v) => {
                self.tag(6);
                self.u32(v.0);
            }
        }
    }

    fn cond(&mut self, c: &Cond) {
        self.tag(c.op as u8);
        self.operand(&c.lhs);
        self.operand(&c.rhs);
    }

    fn basic(&mut self, prog: &Program, b: &Basic) {
        match b {
            Basic::Assign { dst, src } => {
                self.tag(0);
                match dst {
                    Place::Var(v) => {
                        self.tag(0);
                        self.u32(v.0);
                    }
                    Place::Mem(m) => {
                        self.tag(1);
                        self.mem_ref(m);
                    }
                }
                self.rvalue(src);
            }
            Basic::Call {
                dst,
                func,
                args,
                at,
            } => {
                self.tag(1);
                match dst {
                    None => self.tag(0),
                    Some(v) => {
                        self.tag(1);
                        self.u32(v.0);
                    }
                }
                // Callee by name: reordering unrelated functions shifts
                // `FuncId`s but must not dirty this caller.
                self.str_both(&prog.function(*func).name);
                self.u64(args.len() as u64);
                for a in args {
                    self.operand(a);
                }
                match at {
                    None => self.tag(0),
                    Some(AtTarget::OwnerOf(v)) => {
                        self.tag(1);
                        self.u32(v.0);
                    }
                    Some(AtTarget::Node(op)) => {
                        self.tag(2);
                        self.operand(op);
                    }
                }
            }
            Basic::Return(op) => {
                self.tag(2);
                match op {
                    None => self.tag(0),
                    Some(op) => {
                        self.tag(1);
                        self.operand(op);
                    }
                }
            }
            Basic::BlkMov {
                dir,
                ptr,
                buf,
                range,
            } => {
                self.tag(3);
                self.tag(*dir as u8);
                self.u32(ptr.0);
                self.u32(buf.0);
                match range {
                    None => self.tag(0),
                    Some((first, words)) => {
                        self.tag(1);
                        self.u32(*first);
                        self.u32(*words);
                    }
                }
            }
            Basic::AtomicWrite { var, value } => {
                self.tag(4);
                self.u32(var.0);
                self.operand(value);
            }
            Basic::AtomicAdd { var, value } => {
                self.tag(5);
                self.u32(var.0);
                self.operand(value);
            }
        }
    }

    fn stmt(&mut self, prog: &Program, s: &Stmt) {
        self.label(s.label.0);
        match &s.kind {
            StmtKind::Seq(items) => {
                self.tag(0);
                self.u64(items.len() as u64);
                for item in items {
                    self.stmt(prog, item);
                }
            }
            StmtKind::Basic(b) => {
                self.tag(1);
                self.basic(prog, b);
            }
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                self.tag(2);
                self.cond(cond);
                self.stmt(prog, then_s);
                self.stmt(prog, else_s);
            }
            StmtKind::Switch {
                scrut,
                cases,
                default,
            } => {
                self.tag(3);
                self.operand(scrut);
                self.u64(cases.len() as u64);
                for (v, case) in cases {
                    self.i64(*v);
                    self.stmt(prog, case);
                }
                self.stmt(prog, default);
            }
            StmtKind::While { cond, body } => {
                self.tag(4);
                self.cond(cond);
                self.stmt(prog, body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.tag(5);
                self.stmt(prog, body);
                self.cond(cond);
            }
            StmtKind::ParSeq(items) => {
                self.tag(6);
                self.u64(items.len() as u64);
                for item in items {
                    self.stmt(prog, item);
                }
            }
            StmtKind::Forall {
                init,
                cond,
                step,
                body,
            } => {
                self.tag(7);
                self.stmt(prog, init);
                self.cond(cond);
                self.stmt(prog, step);
                self.stmt(prog, body);
            }
        }
    }

    fn function(&mut self, prog: &Program, f: &Function) {
        self.str_both(&f.name);
        match f.ret_ty {
            None => self.tag(0),
            Some(ty) => {
                self.tag(1);
                self.ty(ty);
            }
        }
        self.u64(f.params.len() as u64);
        for p in &f.params {
            self.u32(p.0);
        }
        self.u64(f.vars().len() as u64);
        for decl in f.vars() {
            self.name(&decl.name);
            self.ty(decl.ty);
            self.tag(match decl.locality {
                Locality::Local => 0,
                Locality::MaybeRemote => 1,
            });
            self.tag(decl.shared as u8);
            self.tag(match decl.origin {
                VarOrigin::Source => 0,
                VarOrigin::SimplifyTemp => 1,
                VarOrigin::CommTemp => 2,
                VarOrigin::BlockBuffer => 3,
            });
        }
        self.stmt(prog, &f.body);
    }
}

impl Function {
    /// The structural fingerprint of this function within `prog` (needed
    /// to resolve callee names). One body walk feeds both hashes.
    pub fn fingerprint(&self, prog: &Program) -> Fingerprint {
        let mut w = Walker::new();
        w.function(prog, self);
        Fingerprint {
            semantic: w.semantic.finish(),
            artifact: w.artifact.finish(),
        }
    }
}

/// Fingerprints for every function, indexed by [`FuncId`].
pub fn program_fingerprints(prog: &Program) -> Vec<Fingerprint> {
    prog.functions()
        .iter()
        .map(|f| f.fingerprint(prog))
        .collect()
}

/// Convenience: the fingerprint of one function.
pub fn function_fingerprint(prog: &Program, id: FuncId) -> Fingerprint {
    prog.function(id).fingerprint(prog)
}

/// A content-hash of the struct table (names, field names, field types).
///
/// Struct layout feeds sizing and blocking decisions in
/// *every* function, so a struct-table change invalidates incremental
/// state wholesale rather than per function.
pub fn structs_fingerprint(prog: &Program) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&(prog.structs().len() as u64).to_le_bytes());
    for def in prog.structs() {
        h.str_field(&def.name);
        h.write(&(def.fields.len() as u64).to_le_bytes());
        for field in &def.fields {
            h.str_field(&field.name);
            let mut w = Walker::new();
            w.ty(field.ty);
            h.write(&w.semantic.finish().to_le_bytes());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::stmt::{BinOp, Builtin};
    use crate::types::StructDef;
    use crate::var::VarDecl;

    /// The paper's Figure 3 `distance`, with a hook to vary the name of
    /// one temp and the constant folded into the final add.
    fn sample(temp_name: &str, bias: i64) -> Program {
        let mut prog = Program::new();
        let mut point = StructDef::new("Point");
        let fx = point.add_field("x", Ty::Double);
        let _fy = point.add_field("y", Ty::Double);
        let pt = prog.add_struct(point);

        let mut fb = FunctionBuilder::new("distance", Some(Ty::Double));
        let p = fb.param(VarDecl::new("p", Ty::Ptr(pt)));
        let t1 = fb.var(VarDecl::new(temp_name, Ty::Double));
        let t2 = fb.temp(Ty::Double);
        let d = fb.temp(Ty::Double);
        fb.load_deref(t1, p, fx);
        fb.binop(t2, BinOp::Add, Operand::Var(t1), Operand::int(bias));
        fb.builtin(d, Builtin::Sqrt, vec![Operand::Var(t2)]);
        fb.ret(Some(Operand::Var(d)));
        prog.add_function(fb.finish());
        prog
    }

    fn fp(prog: &Program) -> Fingerprint {
        function_fingerprint(prog, FuncId(0))
    }

    #[test]
    fn identical_programs_hash_identically() {
        assert_eq!(fp(&sample("t1", 0)), fp(&sample("t1", 0)));
    }

    #[test]
    fn renaming_a_variable_changes_only_the_artifact_hash() {
        let a = fp(&sample("t1", 0));
        let b = fp(&sample("renamed", 0));
        assert_eq!(a.semantic, b.semantic);
        assert_ne!(a.artifact, b.artifact);
    }

    #[test]
    fn changing_a_constant_changes_both_hashes() {
        let a = fp(&sample("t1", 0));
        let b = fp(&sample("t1", 7));
        assert_ne!(a.semantic, b.semantic);
        assert_ne!(a.artifact, b.artifact);
    }

    #[test]
    fn reordering_unrelated_functions_keeps_caller_fingerprints() {
        // caller() calls callee(); a third function moves around them.
        let build = |callee_first: bool| {
            let mut prog = Program::new();
            let mk = |name: &str| {
                let mut fb = FunctionBuilder::new(name, Some(Ty::Int));
                fb.ret(Some(Operand::int(1)));
                fb.finish()
            };
            if callee_first {
                prog.add_function(mk("callee"));
                prog.add_function(mk("other"));
            } else {
                prog.add_function(mk("other"));
                prog.add_function(mk("callee"));
            }
            let callee = prog.function_by_name("callee").unwrap();
            let mut fb = FunctionBuilder::new("caller", Some(Ty::Int));
            let r = fb.temp(Ty::Int);
            fb.call(Some(r), callee, vec![]);
            fb.ret(Some(Operand::Var(r)));
            prog.add_function(fb.finish());
            prog
        };
        let a = build(true);
        let b = build(false);
        let fp_of = |prog: &Program| {
            let id = prog.function_by_name("caller").unwrap();
            function_fingerprint(prog, id)
        };
        assert_eq!(fp_of(&a), fp_of(&b));
    }

    #[test]
    fn struct_table_hash_tracks_field_changes() {
        let base = structs_fingerprint(&sample("t1", 0));
        assert_eq!(base, structs_fingerprint(&sample("x", 3)));
        let mut changed = sample("t1", 0);
        let mut def = changed.struct_def(crate::types::StructId(0)).clone();
        def.add_field("z", Ty::Double);
        changed.set_struct_def(crate::types::StructId(0), def);
        assert_ne!(base, structs_fingerprint(&changed));
    }
}
