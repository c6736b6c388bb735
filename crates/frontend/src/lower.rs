//! Lowering from the EARTH-C AST to three-address SIMPLE IR.
//!
//! This pass combines type checking and the *simplification* the paper
//! assumes has already happened: every expression is decomposed so that a
//! basic statement carries at most one potentially-remote memory operation.
//! No common-subexpression elimination is performed — `p->x * p->x` lowers
//! to two loads, exactly as in the paper's Figure 3(b); eliminating the
//! redundancy is the communication optimizer's job.
//!
//! Nested struct-typed fields are flattened: `village->hosp.free_personnel`
//! becomes a single IR field named `hosp.free_personnel`, preserving the
//! memory layout (and hence `blkmov` sizes) of the unflattened struct.

use crate::ast::{self, AstBinOp, AstUnOp, Expr, Item, LValue, Stmt, TypeExpr, Unit};
use crate::token::Pos;
use earth_ir::builder::FunctionBuilder;
use earth_ir::{
    AtTarget, Basic, BinOp, Builtin, Cond, FuncId, Operand, Program, StructDef, StructId, Ty, UnOp,
    VarDecl, VarId,
};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A type-checking / lowering error.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(pos: Pos, message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        pos,
        message: message.into(),
    })
}

/// Name tables are ordered maps over names borrowed from the AST: nothing
/// is copied or hashed to look a name up, and lookups cost the same
/// whatever names the source text chose.
type Names<'a, T> = BTreeMap<&'a str, T>;

/// A function's signature: its id, parameter types and return type.
type Sig = (FuncId, Vec<Ty>, Option<Ty>);

/// The flattened fields of one struct, sorted by their (dotted) names in
/// the [`StructDef`], so that a field path resolves by binary search
/// without being joined first.
type FieldTable = Vec<earth_ir::FieldId>;

/// Lowers a parsed translation unit to a SIMPLE IR program.
///
/// # Errors
///
/// Returns the first type error, unresolved name, unsupported construct, or
/// SIMPLE-form restriction violation (e.g. an impure `forall` condition).
pub fn lower_unit(unit: &Unit) -> Result<Program, LowerError> {
    let mut prog = Program::new();

    // Pass 1a: declare all struct names.
    let mut struct_ids: Names<'_, StructId> = Names::new();
    for item in &unit.items {
        if let Item::Struct(s) = item {
            if struct_ids.contains_key(s.name.as_str()) {
                return err(s.pos, format!("duplicate struct `{}`", s.name));
            }
            let id = prog.add_struct(StructDef::new(s.name.clone()));
            struct_ids.insert(&s.name, id);
        }
    }

    // Pass 1b: flatten fields (nested structs become dotted field names).
    // Struct ids were handed out in item order, so the tables line up.
    let mut field_tables: Vec<FieldTable> = Vec::with_capacity(struct_ids.len());
    for item in &unit.items {
        if let Item::Struct(s) = item {
            let sid = struct_ids[s.name.as_str()];
            let mut def = StructDef::new(s.name.clone());
            let mut stack = vec![s.name.as_str()];
            flatten_struct(unit, &struct_ids, s, "", &mut def, &mut stack)?;
            let name = |id: &earth_ir::FieldId| &def.field(*id).name;
            let mut table: FieldTable = (0..def.fields.len() as u32)
                .map(earth_ir::FieldId)
                .collect();
            // Of two fields with one name the later declaration wins.
            table.sort_by(|a, b| name(a).cmp(name(b)).then(b.cmp(a)));
            table.dedup_by(|later, first| name(later) == name(first));
            debug_assert_eq!(sid.index(), field_tables.len());
            field_tables.push(table);
            // Replace the placeholder definition.
            prog.set_struct_def(sid, def);
        }
    }

    // Pass 2a: declare function signatures.
    let mut sigs: Names<'_, Sig> = Names::new();
    let mut decls: Vec<&ast::FuncDecl> = Vec::new();
    for item in &unit.items {
        if let Item::Func(f) = item {
            if sigs.contains_key(f.name.as_str()) {
                return err(f.pos, format!("duplicate function `{}`", f.name));
            }
            if Builtin::by_name(&f.name).is_some() || is_special_call(&f.name) {
                return err(f.pos, format!("`{}` shadows a builtin", f.name));
            }
            let ret = lower_ret_type(&f.ret, &struct_ids, f.pos)?;
            let mut ptys = Vec::new();
            for p in &f.params {
                ptys.push(lower_type(&p.ty, &struct_ids, p.pos)?);
            }
            // Reserve the FuncId by inserting a shell function now.
            let shell = earth_ir::Function::new(f.name.clone(), ret);
            let fid = prog.add_function(shell);
            sigs.insert(&f.name, (fid, ptys, ret));
            decls.push(f);
        }
    }

    // Pass 2b: lower bodies.
    let ctx = UnitCtx {
        struct_ids: &struct_ids,
        field_tables: &field_tables,
        sigs: &sigs,
    };
    for f in decls {
        let lowered = lower_function(&prog, &ctx, f)?;
        let fid = sigs[f.name.as_str()].0;
        prog.replace_function(fid, lowered);
    }

    earth_ir::validate_program(&prog).map_err(|e| LowerError {
        pos: Pos::default(),
        message: format!("internal error: lowering produced invalid IR: {e}"),
    })?;
    Ok(prog)
}

fn flatten_struct<'a>(
    unit: &'a Unit,
    struct_ids: &Names<'_, StructId>,
    s: &'a ast::StructDecl,
    prefix: &str,
    def: &mut StructDef,
    stack: &mut Vec<&'a str>,
) -> Result<(), LowerError> {
    for (ty, fname) in &s.fields {
        let path = if prefix.is_empty() {
            fname.clone()
        } else {
            format!("{prefix}.{fname}")
        };
        match ty {
            TypeExpr::Int => {
                def.add_field(path, Ty::Int);
            }
            TypeExpr::Double => {
                def.add_field(path, Ty::Double);
            }
            TypeExpr::Ptr(name) => {
                let target = struct_ids.get(name.as_str()).ok_or_else(|| LowerError {
                    pos: s.pos,
                    message: format!("unknown struct `{name}` in field `{path}`"),
                })?;
                def.add_field(path, Ty::Ptr(*target));
            }
            TypeExpr::Struct(name) => {
                if stack.contains(&name.as_str()) {
                    return err(
                        s.pos,
                        format!("struct `{}` recursively contains itself by value", name),
                    );
                }
                let inner = find_struct_decl(unit, name).ok_or_else(|| LowerError {
                    pos: s.pos,
                    message: format!("unknown struct `{name}` in field `{path}`"),
                })?;
                stack.push(name);
                flatten_struct(unit, struct_ids, inner, &path, def, stack)?;
                stack.pop();
            }
            TypeExpr::Void => {
                return err(s.pos, format!("field `{path}` cannot have type void"));
            }
        }
    }
    Ok(())
}

fn find_struct_decl<'a>(unit: &'a Unit, name: &str) -> Option<&'a ast::StructDecl> {
    unit.items.iter().find_map(|i| match i {
        Item::Struct(s) if s.name == name => Some(s),
        _ => None,
    })
}

fn lower_type(ty: &TypeExpr, struct_ids: &Names<'_, StructId>, pos: Pos) -> Result<Ty, LowerError> {
    match ty {
        TypeExpr::Int => Ok(Ty::Int),
        TypeExpr::Double => Ok(Ty::Double),
        TypeExpr::Void => err(pos, "`void` is only valid as a return type"),
        TypeExpr::Struct(n) => match struct_ids.get(n.as_str()) {
            Some(id) => Ok(Ty::Struct(*id)),
            None => err(pos, format!("unknown struct `{n}`")),
        },
        TypeExpr::Ptr(n) => match struct_ids.get(n.as_str()) {
            Some(id) => Ok(Ty::Ptr(*id)),
            None => err(pos, format!("unknown struct `{n}`")),
        },
    }
}

fn lower_ret_type(
    ty: &TypeExpr,
    struct_ids: &Names<'_, StructId>,
    pos: Pos,
) -> Result<Option<Ty>, LowerError> {
    if matches!(ty, TypeExpr::Void) {
        Ok(None)
    } else {
        lower_type(ty, struct_ids, pos).map(Some)
    }
}

fn is_special_call(name: &str) -> bool {
    matches!(
        name,
        "writeto" | "addto" | "valueof" | "malloc" | "malloc_on"
    )
}

struct UnitCtx<'a> {
    struct_ids: &'a Names<'a, StructId>,
    /// Indexed by [`StructId`].
    field_tables: &'a [FieldTable],
    sigs: &'a Names<'a, Sig>,
}

/// Orders the dotted field name `name` against `path` as if the path's
/// segments had been joined with `.`.
fn cmp_to_path(name: &str, path: &[String]) -> Ordering {
    let joined = path
        .iter()
        .enumerate()
        .flat_map(|(i, seg)| (i > 0).then_some(b'.').into_iter().chain(seg.bytes()));
    name.bytes().cmp(joined)
}

/// The inferred type of an expression; `Null` unifies with any pointer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ETy {
    T(Ty),
    Null,
}

impl ETy {
    fn display(self, prog: &Program) -> String {
        match self {
            ETy::T(Ty::Int) => "int".into(),
            ETy::T(Ty::Double) => "double".into(),
            ETy::T(Ty::Ptr(s)) => format!("{}*", prog.struct_def(s).name),
            ETy::T(Ty::Struct(s)) => prog.struct_def(s).name.clone(),
            ETy::Null => "NULL".into(),
        }
    }
}

struct FnLower<'a> {
    prog: &'a Program,
    ctx: &'a UnitCtx<'a>,
    fb: FunctionBuilder,
    names: Names<'a, VarId>,
    ret_ty: Option<Ty>,
    fname: &'a str,
}

fn lower_function<'a>(
    prog: &'a Program,
    ctx: &'a UnitCtx<'a>,
    f: &'a ast::FuncDecl,
) -> Result<earth_ir::Function, LowerError> {
    let ret = lower_ret_type(&f.ret, ctx.struct_ids, f.pos)?;
    let mut lw = FnLower {
        prog,
        ctx,
        fb: FunctionBuilder::new(f.name.clone(), ret),
        names: Names::new(),
        ret_ty: ret,
        fname: &f.name,
    };
    for p in &f.params {
        let ty = lower_type(&p.ty, ctx.struct_ids, p.pos)?;
        if p.quals.shared {
            return err(p.pos, "parameters cannot be `shared`");
        }
        let mut decl = VarDecl::new(p.name.clone(), ty);
        if p.quals.local {
            if !ty.is_ptr() {
                return err(p.pos, "`local` only applies to pointers");
            }
            decl = VarDecl::local(p.name.clone(), ty);
        }
        if lw.names.contains_key(p.name.as_str()) {
            return err(p.pos, format!("duplicate parameter `{}`", p.name));
        }
        let id = lw.fb.param(decl);
        lw.names.insert(&p.name, id);
    }
    lw.stmts(&f.body)?;
    Ok(lw.fb.finish())
}

/// How the value of a non-trivial expression reaches a destination
/// variable: what [`FnLower::plan_value`] decided after type-checking, for
/// [`FnLower::emit`] to carry out once the destination exists. Operands
/// are borrowed from the AST and lowered during emission, which keeps the
/// statement order natural.
enum ValuePlan<'e> {
    Load {
        base: VarId,
        field: earth_ir::FieldId,
        is_deref: bool,
    },
    Unary(UnOp, &'e Expr),
    Logical(AstBinOp, &'e Expr, &'e Expr),
    Binary(BinOp, &'e Expr, &'e Expr),
    ValueOf(&'e [Expr], Pos),
    Malloc(StructId, Option<&'e Expr>),
    Builtin(Builtin, &'e [Expr], Pos),
    /// A user function call; the operand is the whole `Expr::Call`.
    Call(FuncId, &'e Expr),
    Copy(Operand),
}

impl<'a> FnLower<'a> {
    fn struct_name(&self, sid: StructId) -> &str {
        &self.prog.struct_def(sid).name
    }

    fn lookup(&self, name: &str, pos: Pos) -> Result<VarId, LowerError> {
        self.names.get(name).copied().ok_or_else(|| LowerError {
            pos,
            message: format!("unknown variable `{name}` in `{}`", self.fname),
        })
    }

    fn var_ty(&self, v: VarId) -> Ty {
        self.fb.function().var(v).ty
    }

    fn is_shared(&self, v: VarId) -> bool {
        self.fb.function().var(v).shared
    }

    /// Resolves a flattened field path on struct `sid`.
    fn field(
        &self,
        sid: StructId,
        path: &[String],
        pos: Pos,
    ) -> Result<earth_ir::FieldId, LowerError> {
        let (table, def) = (
            &self.ctx.field_tables[sid.index()],
            self.prog.struct_def(sid),
        );
        match table.binary_search_by(|&id| cmp_to_path(&def.field(id).name, path)) {
            Ok(i) => Ok(table[i]),
            Err(_) => err(
                pos,
                format!(
                    "struct `{}` has no field `{}`",
                    self.struct_name(sid),
                    path.join(".")
                ),
            ),
        }
    }

    fn field_ty(&self, sid: StructId, fid: earth_ir::FieldId) -> Ty {
        self.prog.struct_def(sid).field(fid).ty
    }

    // ---- statements ---------------------------------------------------

    fn stmts(&mut self, ss: &'a [Stmt]) -> Result<(), LowerError> {
        for s in ss {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), LowerError> {
        // One function per statement form: this one is on the stack once
        // per nesting level, so it keeps no form's locals itself.
        match s {
            Stmt::Block(ss) => self.stmts(ss),
            Stmt::Decl {
                ty,
                quals,
                name,
                init,
                pos,
            } => self.decl_stmt(ty, *quals, name, init.as_ref(), *pos),
            Stmt::Assign { lv, rhs, pos } => self.assign_stmt(lv, rhs, *pos),
            Stmt::ExprStmt(e) => self.expr_stmt(e),
            Stmt::If {
                cond,
                then_s,
                else_s,
                pos: _,
            } => self.if_stmt(cond, then_s, else_s),
            Stmt::While { cond, body, pos: _ } => self.while_stmt(cond, body),
            Stmt::DoWhile { body, cond, pos: _ } => self.do_while_stmt(body, cond),
            Stmt::For {
                init,
                cond,
                step,
                body,
                pos: _,
            } => self.for_stmt(init.as_deref(), cond.as_ref(), step.as_deref(), body),
            Stmt::Forall {
                init,
                cond,
                step,
                body,
                pos,
            } => self.forall_stmt(init, cond, step, body, *pos),
            Stmt::Switch {
                scrut,
                cases,
                default,
                pos: _,
            } => self.switch_stmt(scrut, cases, default),
            Stmt::ParSeq(arms, _) => self.par_seq_stmt(arms),
            Stmt::Return(e, pos) => self.return_stmt(e.as_ref(), *pos),
        }
    }

    fn decl_stmt(
        &mut self,
        ty: &TypeExpr,
        quals: ast::Quals,
        name: &'a str,
        init: Option<&Expr>,
        pos: Pos,
    ) -> Result<(), LowerError> {
        if self.names.contains_key(name) {
            return err(
                pos,
                format!("duplicate variable `{name}` (shadowing is not supported)"),
            );
        }
        let ir_ty = lower_type(ty, self.ctx.struct_ids, pos)?;
        let decl = if quals.shared {
            if ir_ty != Ty::Int {
                return err(pos, "`shared` variables must have type int");
            }
            VarDecl::shared(name, ir_ty)
        } else if quals.local {
            if !ir_ty.is_ptr() {
                return err(pos, "`local` only applies to pointers");
            }
            VarDecl::local(name, ir_ty)
        } else {
            VarDecl::new(name, ir_ty)
        };
        let id = self.fb.var(decl);
        self.names.insert(name, id);
        if let Some(e) = init {
            if quals.shared {
                return err(pos, "initialize shared variables with writeto(&x, v)");
            }
            self.assign_var(id, e)?;
        }
        Ok(())
    }

    fn assign_stmt(&mut self, lv: &LValue, rhs: &Expr, pos: Pos) -> Result<(), LowerError> {
        match lv {
            LValue::Var(name, vpos) => {
                let v = self.lookup(name, *vpos)?;
                if self.is_shared(v) {
                    return err(pos, "assign shared variables with writeto(&x, v)");
                }
                self.assign_var(v, rhs)
            }
            LValue::FieldPath {
                base,
                arrow,
                path,
                pos,
            } => {
                let b = self.lookup(base, *pos)?;
                let bty = self.var_ty(b);
                let (sid, is_deref) = match (bty, arrow) {
                    (Ty::Ptr(s), true) => (s, true),
                    (Ty::Struct(s), false) => (s, false),
                    (Ty::Ptr(_), false) => {
                        return err(*pos, format!("`{base}` is a pointer; use `->`"))
                    }
                    (Ty::Struct(_), true) => {
                        return err(*pos, format!("`{base}` is a struct; use `.`"))
                    }
                    _ => return err(*pos, format!("`{base}` has no fields")),
                };
                let fid = self.field(sid, path, *pos)?;
                let fty = self.field_ty(sid, fid);
                let (op, ety) = self.expr(rhs)?;
                self.check_assignable(ETy::T(fty), ety, rhs.pos())?;
                if is_deref {
                    self.fb.store_deref(b, fid, op);
                } else {
                    self.fb.store_field(b, fid, op);
                }
                Ok(())
            }
        }
    }

    fn expr_stmt(&mut self, e: &Expr) -> Result<(), LowerError> {
        match e {
            Expr::Call {
                name,
                args,
                at,
                pos,
            } if name == "writeto" || name == "addto" => {
                if at.is_some() {
                    return err(*pos, "atomic operations cannot take `@` clauses");
                }
                let var = self.shared_ref_arg(args, 0, *pos)?;
                if args.len() != 2 {
                    return err(*pos, format!("`{name}` expects 2 arguments"));
                }
                let (val, vty) = self.expr(&args[1])?;
                self.check_assignable(ETy::T(Ty::Int), vty, args[1].pos())?;
                if name == "writeto" {
                    self.fb.atomic_write(var, val);
                } else {
                    self.fb.atomic_add(var, val);
                }
                Ok(())
            }
            Expr::Call { .. } => {
                self.expr_discard(e)?;
                Ok(())
            }
            _ => err(e.pos(), "expression statements must be calls"),
        }
    }

    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_s: &'a [Stmt],
        else_s: &'a [Stmt],
    ) -> Result<(), LowerError> {
        let c = self.cond(cond)?;
        self.fb.begin_seq();
        let r = self.stmts(then_s);
        let then_stmt = self.fb.end_seq();
        r?;
        self.fb.begin_seq();
        let r = self.stmts(else_s);
        let else_stmt = self.fb.end_seq();
        r?;
        self.fb.emit_if(c, then_stmt, else_stmt);
        Ok(())
    }

    fn while_stmt(&mut self, cond: &Expr, body: &'a [Stmt]) -> Result<(), LowerError> {
        if let Some(c) = self.pure_cond(cond)? {
            self.fb.begin_seq();
            let r = self.stmts(body);
            let b = self.fb.end_seq();
            r?;
            self.fb.emit_while(c, b);
        } else {
            // `while (e)` with an impure condition becomes
            //   t = e; while (t != 0) { body; t = e; }
            let t = self.fb.temp(Ty::Int);
            self.assign_bool(t, cond)?;
            self.fb.begin_seq();
            let r = self.stmts(body).and_then(|()| self.assign_bool(t, cond));
            let b = self.fb.end_seq();
            r?;
            self.fb
                .emit_while(Cond::new(BinOp::Ne, Operand::Var(t), Operand::int(0)), b);
        }
        Ok(())
    }

    fn do_while_stmt(&mut self, body: &'a [Stmt], cond: &Expr) -> Result<(), LowerError> {
        if let Some(_c) = self.pure_cond(cond)? {
            self.fb.begin_seq();
            let r = self.stmts(body);
            let b = self.fb.end_seq();
            r?;
            // Recompute: pure_cond emits nothing, so this is safe.
            let c = self.pure_cond(cond)?.expect("purity is deterministic");
            self.fb.emit_do_while(b, c);
        } else {
            let t = self.fb.temp(Ty::Int);
            self.fb.begin_seq();
            let r = self.stmts(body).and_then(|()| self.assign_bool(t, cond));
            let b = self.fb.end_seq();
            r?;
            self.fb
                .emit_do_while(b, Cond::new(BinOp::Ne, Operand::Var(t), Operand::int(0)));
        }
        Ok(())
    }

    fn for_stmt(
        &mut self,
        init: Option<&'a Stmt>,
        cond: Option<&Expr>,
        step: Option<&'a Stmt>,
        body: &'a [Stmt],
    ) -> Result<(), LowerError> {
        // `for` desugars to init; while (cond) { body; step; }.
        if let Some(i) = init {
            self.stmt(i)?;
        }
        let always = Expr::Int(1, Pos::default());
        let cond = cond.unwrap_or(&always);
        if let Some(_c) = self.pure_cond(cond)? {
            self.fb.begin_seq();
            let r = self.stmts(body).and_then(|()| match step {
                Some(st) => self.stmt(st),
                None => Ok(()),
            });
            let b = self.fb.end_seq();
            r?;
            let c = self.pure_cond(cond)?.expect("purity is deterministic");
            self.fb.emit_while(c, b);
        } else {
            let t = self.fb.temp(Ty::Int);
            self.assign_bool(t, cond)?;
            self.fb.begin_seq();
            let r = self
                .stmts(body)
                .and_then(|()| match step {
                    Some(st) => self.stmt(st),
                    None => Ok(()),
                })
                .and_then(|()| self.assign_bool(t, cond));
            let b = self.fb.end_seq();
            r?;
            self.fb
                .emit_while(Cond::new(BinOp::Ne, Operand::Var(t), Operand::int(0)), b);
        }
        Ok(())
    }

    fn forall_stmt(
        &mut self,
        init: &'a Stmt,
        cond: &Expr,
        step: &'a Stmt,
        body: &'a [Stmt],
        pos: Pos,
    ) -> Result<(), LowerError> {
        let init_b = self.lower_single_basic(init, pos, "forall init")?;
        let Some(c) = self.pure_cond(cond)? else {
            return err(
                pos,
                "forall conditions must be simple comparisons over variables",
            );
        };
        let step_b = self.lower_single_basic(step, pos, "forall step")?;
        self.fb.begin_seq();
        let r = self.stmts(body);
        let b = self.fb.end_seq();
        r?;
        self.fb.emit_forall(init_b, c, step_b, b);
        Ok(())
    }

    fn switch_stmt(
        &mut self,
        scrut: &Expr,
        cases: &'a [(i64, Vec<Stmt>)],
        default: &'a [Stmt],
    ) -> Result<(), LowerError> {
        let (op, ety) = self.expr(scrut)?;
        self.check_assignable(ETy::T(Ty::Int), ety, scrut.pos())?;
        let mut built = Vec::with_capacity(cases.len());
        for (v, body) in cases {
            self.fb.begin_seq();
            let r = self.stmts(body);
            let cs = self.fb.end_seq();
            r?;
            built.push((*v, cs));
        }
        self.fb.begin_seq();
        let r = self.stmts(default);
        let def = self.fb.end_seq();
        r?;
        self.fb.emit_switch(op, built, def);
        Ok(())
    }

    fn par_seq_stmt(&mut self, arms: &'a [Stmt]) -> Result<(), LowerError> {
        let mut built = Vec::with_capacity(arms.len());
        for arm in arms {
            self.fb.begin_seq();
            let r = self.stmt(arm);
            let a = self.fb.end_seq();
            r?;
            built.push(a);
        }
        self.fb.emit_par_seq(built);
        Ok(())
    }

    fn return_stmt(&mut self, e: Option<&Expr>, pos: Pos) -> Result<(), LowerError> {
        match (e, self.ret_ty) {
            (None, None) => {
                self.fb.ret(None);
            }
            (Some(e), Some(rt)) => {
                let (op, ety) = self.expr(e)?;
                self.check_assignable(ETy::T(rt), ety, e.pos())?;
                self.fb.ret(Some(op));
            }
            (None, Some(_)) => return err(pos, "missing return value"),
            (Some(_), None) => return err(pos, "void function returns a value"),
        }
        Ok(())
    }

    /// Lowers a statement that must produce exactly one basic statement
    /// (used for `forall` init/step).
    fn lower_single_basic(
        &mut self,
        s: &'a Stmt,
        pos: Pos,
        what: &str,
    ) -> Result<Basic, LowerError> {
        self.fb.begin_seq();
        let r = self.stmt(s);
        let seq = self.fb.end_seq();
        r?;
        let earth_ir::StmtKind::Seq(mut ss) = seq.kind else {
            unreachable!()
        };
        if ss.len() != 1 {
            return err(
                pos,
                format!(
                    "{what} must lower to a single basic statement (got {})",
                    ss.len()
                ),
            );
        }
        match ss.pop().expect("length checked").kind {
            earth_ir::StmtKind::Basic(b) => Ok(b),
            _ => err(pos, format!("{what} must be a simple assignment")),
        }
    }

    /// Lowers a condition for an `if`: evaluation statements may be emitted
    /// before the branch.
    fn cond(&mut self, e: &Expr) -> Result<Cond, LowerError> {
        if let Some(c) = self.pure_cond(e)? {
            return Ok(c);
        }
        if let Expr::Binary { op, lhs, rhs, pos } = e {
            let ir_op = match op {
                AstBinOp::And | AstBinOp::Or => None,
                other => {
                    let o = ast_binop_to_ir(*other);
                    o.is_comparison().then_some(o)
                }
            };
            if let Some(ir_op) = ir_op {
                let (a, lt) = self.expr(lhs)?;
                let (b, rt) = self.expr(rhs)?;
                self.check_comparable(lt, rt, *pos)?;
                return Ok(Cond::new(ir_op, a, b));
            }
        }
        let t = self.fb.temp(Ty::Int);
        self.assign_bool(t, e)?;
        Ok(Cond::new(BinOp::Ne, Operand::Var(t), Operand::int(0)))
    }

    /// Tries to turn `e` into a condition without emitting any statements.
    fn pure_cond(&mut self, e: &Expr) -> Result<Option<Cond>, LowerError> {
        fn trivial(lw: &mut FnLower<'_>, e: &Expr) -> Result<Option<(Operand, ETy)>, LowerError> {
            match e {
                Expr::Int(..) | Expr::Double(..) | Expr::Null(..) | Expr::Var(..) => {
                    lw.expr(e).map(Some)
                }
                _ => Ok(None),
            }
        }
        match e {
            Expr::Binary { op, lhs, rhs, pos } => {
                let ir_op = match op {
                    AstBinOp::And | AstBinOp::Or => return Ok(None),
                    other => ast_binop_to_ir(*other),
                };
                if !ir_op.is_comparison() {
                    return Ok(None);
                }
                let (Some((a, lt)), Some((b, rt))) = (trivial(self, lhs)?, trivial(self, rhs)?)
                else {
                    return Ok(None);
                };
                self.check_comparable(lt, rt, *pos)?;
                Ok(Some(Cond::new(ir_op, a, b)))
            }
            Expr::Var(..) | Expr::Int(..) => {
                let (op, ety) = self.expr(e)?;
                let zero = match ety {
                    ETy::T(Ty::Ptr(_)) | ETy::Null => Operand::null(),
                    _ => Operand::int(0),
                };
                Ok(Some(Cond::new(BinOp::Ne, op, zero)))
            }
            _ => Ok(None),
        }
    }

    /// Emits `dst = (e != 0)` (or the direct comparison when `e` is one).
    fn assign_bool(&mut self, dst: VarId, e: &Expr) -> Result<(), LowerError> {
        match e {
            Expr::Binary { op, .. } => match op {
                AstBinOp::And | AstBinOp::Or => {
                    let Expr::Binary { op, lhs, rhs, .. } = e else {
                        unreachable!()
                    };
                    self.lower_logical(*op, lhs, rhs, dst)
                }
                other if ast_binop_to_ir(*other).is_comparison() => self.assign_var(dst, e),
                _ => {
                    let (op, _) = self.expr(e)?;
                    self.fb.binop(dst, BinOp::Ne, op, Operand::int(0));
                    Ok(())
                }
            },
            Expr::Unary {
                op: AstUnOp::Not, ..
            } => self.assign_var(dst, e),
            _ => {
                let (op, ety) = self.expr(e)?;
                let zero = match ety {
                    ETy::T(Ty::Ptr(_)) | ETy::Null => Operand::null(),
                    _ => Operand::int(0),
                };
                self.fb.binop(dst, BinOp::Ne, op, zero);
                Ok(())
            }
        }
    }

    // ---- expressions --------------------------------------------------

    fn shared_ref_arg(&mut self, args: &[Expr], idx: usize, pos: Pos) -> Result<VarId, LowerError> {
        match args.get(idx) {
            Some(Expr::AddrOf(name, p)) => {
                let v = self.lookup(name, *p)?;
                if !self.is_shared(v) {
                    return err(*p, format!("`&{name}`: variable is not `shared`"));
                }
                Ok(v)
            }
            _ => err(pos, "expected `&shared_var` argument"),
        }
    }

    fn check_assignable(&self, dst: ETy, src: ETy, pos: Pos) -> Result<(), LowerError> {
        match (dst, src) {
            (ETy::T(Ty::Int), ETy::T(Ty::Int)) => Ok(()),
            (ETy::T(Ty::Double), ETy::T(Ty::Double)) => Ok(()),
            // Implicit numeric conversions, as in C.
            (ETy::T(Ty::Double), ETy::T(Ty::Int)) => Ok(()),
            (ETy::T(Ty::Int), ETy::T(Ty::Double)) => Ok(()),
            (ETy::T(Ty::Ptr(a)), ETy::T(Ty::Ptr(b))) if a == b => Ok(()),
            (ETy::T(Ty::Ptr(_)), ETy::Null) => Ok(()),
            (ETy::T(Ty::Struct(a)), ETy::T(Ty::Struct(b))) if a == b => Ok(()),
            _ => err(
                pos,
                format!(
                    "type mismatch: cannot assign {} to {}",
                    src.display(self.prog),
                    dst.display(self.prog)
                ),
            ),
        }
    }

    fn expr_discard(&mut self, e: &Expr) -> Result<(), LowerError> {
        // Calls evaluated for effect.
        if let Expr::Call { name, .. } = e {
            if let Some(&(fid, ..)) = self.ctx.sigs.get(name.as_str()) {
                let args = self.call_args(e)?;
                let at = self.at_clause(e)?;
                self.fb.basic(Basic::Call {
                    dst: None,
                    func: fid,
                    args,
                    at,
                });
                return Ok(());
            }
        }
        let _ = self.expr(e)?;
        Ok(())
    }

    fn call_args(&mut self, e: &Expr) -> Result<Vec<Operand>, LowerError> {
        let Expr::Call {
            name, args, pos, ..
        } = e
        else {
            unreachable!()
        };
        let ctx = self.ctx;
        let (_, ptys, _) = &ctx.sigs[name.as_str()];
        if args.len() != ptys.len() {
            return err(
                *pos,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    ptys.len(),
                    args.len()
                ),
            );
        }
        let mut out = Vec::with_capacity(args.len());
        for (a, pty) in args.iter().zip(ptys) {
            let (op, ety) = self.expr(a)?;
            self.check_assignable(ETy::T(*pty), ety, a.pos())?;
            out.push(op);
        }
        Ok(out)
    }

    fn at_clause(&mut self, e: &Expr) -> Result<Option<AtTarget>, LowerError> {
        let Expr::Call { at, pos, .. } = e else {
            unreachable!()
        };
        match at {
            None => Ok(None),
            Some(ast::AtClause::OwnerOf(p)) => {
                let v = self.lookup(p, *pos)?;
                if !self.var_ty(v).is_ptr() {
                    return err(*pos, format!("OWNER_OF(`{p}`): not a pointer"));
                }
                Ok(Some(AtTarget::OwnerOf(v)))
            }
            Some(ast::AtClause::Node(n)) => {
                let (op, ety) = self.expr(n)?;
                self.check_assignable(ETy::T(Ty::Int), ety, n.pos())?;
                Ok(Some(AtTarget::Node(op)))
            }
        }
    }

    /// Lowers `e` to an operand, emitting intermediate statements.
    fn expr(&mut self, e: &Expr) -> Result<(Operand, ETy), LowerError> {
        match e {
            Expr::Int(v, _) => Ok((Operand::int(*v), ETy::T(Ty::Int))),
            Expr::Double(v, _) => Ok((Operand::double(*v), ETy::T(Ty::Double))),
            Expr::Null(_) => Ok((Operand::null(), ETy::Null)),
            Expr::Var(name, pos) => {
                let v = self.lookup(name, *pos)?;
                if self.is_shared(v) {
                    return err(*pos, format!("read shared `{name}` with valueof(&{name})"));
                }
                Ok((Operand::Var(v), ETy::T(self.var_ty(v))))
            }
            _ => {
                // Everything else materializes into a temp.
                let (ty, plan) = self.plan_value(e)?;
                let t = self.fb.temp(ty);
                self.emit(plan, t)?;
                Ok((Operand::Var(t), ETy::T(ty)))
            }
        }
    }

    /// Lowers `e` and assigns the result to `dst` without an extra copy for
    /// the final operation.
    fn assign_var(&mut self, dst: VarId, e: &Expr) -> Result<(), LowerError> {
        let dty = self.var_ty(dst);
        match e {
            Expr::Int(..) | Expr::Double(..) | Expr::Null(..) | Expr::Var(..) => {
                let (op, ety) = self.expr(e)?;
                self.check_assignable(ETy::T(dty), ety, e.pos())?;
                self.fb.assign(dst, op);
                Ok(())
            }
            _ => {
                let (ty, plan) = self.plan_value(e)?;
                self.check_assignable(ETy::T(dty), ETy::T(ty), e.pos())?;
                self.emit(plan, dst)
            }
        }
    }

    /// Plans the lowering of a non-trivial expression: type-checks it and
    /// returns its result type with the [`ValuePlan`] that
    /// [`emit`](Self::emit) turns into the final operation on a given
    /// destination. Nothing is emitted here, so the caller can allocate
    /// the destination in between.
    fn plan_value<'e>(&mut self, e: &'e Expr) -> Result<(Ty, ValuePlan<'e>), LowerError> {
        match e {
            Expr::FieldPath {
                base,
                arrow,
                path,
                pos,
            } => {
                let b = self.lookup(base, *pos)?;
                let bty = self.var_ty(b);
                let (sid, is_deref) = match (bty, arrow) {
                    (Ty::Ptr(s), true) => (s, true),
                    (Ty::Struct(s), false) => (s, false),
                    (Ty::Ptr(_), false) => {
                        return err(*pos, format!("`{base}` is a pointer; use `->`"))
                    }
                    (Ty::Struct(_), true) => {
                        return err(*pos, format!("`{base}` is a struct; use `.`"))
                    }
                    _ => return err(*pos, format!("`{base}` has no fields")),
                };
                let field = self.field(sid, path, *pos)?;
                let plan = ValuePlan::Load {
                    base: b,
                    field,
                    is_deref,
                };
                Ok((self.field_ty(sid, field), plan))
            }
            Expr::Unary { op, arg, pos: _ } => {
                // Type: Neg preserves numeric type; Not yields int. The
                // argument is lowered during emission (after dst is
                // allocated) to keep statement order natural.
                let aty = self.peek_ty(arg)?;
                let (rty, irop) = match op {
                    AstUnOp::Neg => match aty {
                        ETy::T(Ty::Int) => (Ty::Int, UnOp::Neg),
                        ETy::T(Ty::Double) => (Ty::Double, UnOp::Neg),
                        _ => return err(arg.pos(), "`-` requires a numeric operand"),
                    },
                    AstUnOp::Not => (Ty::Int, UnOp::Not),
                };
                Ok((rty, ValuePlan::Unary(irop, arg)))
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let (op, pos) = (*op, *pos);
                if matches!(op, AstBinOp::And | AstBinOp::Or) {
                    return Ok((Ty::Int, ValuePlan::Logical(op, lhs, rhs)));
                }
                let lty = self.peek_ty(lhs)?;
                let rty = self.peek_ty(rhs)?;
                let ir_op = ast_binop_to_ir(op);
                let res_ty = if ir_op.is_comparison() {
                    self.check_comparable(lty, rty, pos)?;
                    Ty::Int
                } else {
                    match (lty, rty) {
                        (ETy::T(Ty::Int), ETy::T(Ty::Int)) => Ty::Int,
                        (ETy::T(Ty::Double), ETy::T(Ty::Int))
                        | (ETy::T(Ty::Int), ETy::T(Ty::Double))
                        | (ETy::T(Ty::Double), ETy::T(Ty::Double)) => Ty::Double,
                        _ => {
                            return err(
                                pos,
                                format!(
                                    "arithmetic requires numeric operands, got {} and {}",
                                    lty.display(self.prog),
                                    rty.display(self.prog)
                                ),
                            )
                        }
                    }
                };
                Ok((res_ty, ValuePlan::Binary(ir_op, lhs, rhs)))
            }
            Expr::Call {
                name, pos, args, ..
            } => {
                // Special call forms first.
                match name.as_str() {
                    "valueof" => return Ok((Ty::Int, ValuePlan::ValueOf(args, *pos))),
                    "malloc" | "malloc_on" => {
                        let (sname, on) = match (name.as_str(), args.as_slice()) {
                            ("malloc", [Expr::Sizeof(s, _)]) => (s, None),
                            ("malloc_on", [node, Expr::Sizeof(s, _)]) => (s, Some(node)),
                            _ => {
                                return err(
                                    *pos,
                                    format!("`{name}` expects (node,)? sizeof(Struct) arguments"),
                                )
                            }
                        };
                        let sid =
                            *self
                                .ctx
                                .struct_ids
                                .get(sname.as_str())
                                .ok_or_else(|| LowerError {
                                    pos: *pos,
                                    message: format!("unknown struct `{sname}` in sizeof"),
                                })?;
                        return Ok((Ty::Ptr(sid), ValuePlan::Malloc(sid, on)));
                    }
                    "writeto" | "addto" => {
                        return err(*pos, format!("`{name}` is a statement, not an expression"))
                    }
                    _ => {}
                }
                if let Some(b) = Builtin::by_name(name) {
                    let rty = match b {
                        Builtin::Sqrt | Builtin::Fabs | Builtin::PrintDouble => Ty::Double,
                        _ => Ty::Int,
                    };
                    return Ok((rty, ValuePlan::Builtin(b, args, *pos)));
                }
                // User function.
                let Some(&(fid, _, ret)) = self.ctx.sigs.get(name.as_str()) else {
                    return err(*pos, format!("unknown function `{name}`"));
                };
                let Some(ret) = ret else {
                    return err(*pos, format!("void function `{name}` used as a value"));
                };
                Ok((ret, ValuePlan::Call(fid, e)))
            }
            Expr::AddrOf(_, pos) => {
                err(*pos, "`&` is only valid in writeto/addto/valueof arguments")
            }
            Expr::Sizeof(_, pos) => err(*pos, "`sizeof` is only valid inside malloc"),
            Expr::Int(..) | Expr::Double(..) | Expr::Null(..) | Expr::Var(..) => {
                // Trivial values: plan as a copy.
                let (op, ety) = self.expr(e)?;
                match ety {
                    ETy::T(ty) => Ok((ty, ValuePlan::Copy(op))),
                    ETy::Null => err(e.pos(), "NULL needs a pointer-typed context"),
                }
            }
        }
    }

    /// Emits the operation `plan` describes, leaving its value in `dst`.
    fn emit(&mut self, plan: ValuePlan<'_>, dst: VarId) -> Result<(), LowerError> {
        match plan {
            ValuePlan::Load {
                base,
                field,
                is_deref,
            } => {
                if is_deref {
                    self.fb.load_deref(dst, base, field);
                } else {
                    self.fb.load_field(dst, base, field);
                }
            }
            ValuePlan::Unary(op, arg) => {
                let (a, _) = self.expr(arg)?;
                self.fb.unop(dst, op, a);
            }
            ValuePlan::Logical(op, lhs, rhs) => self.lower_logical(op, lhs, rhs, dst)?,
            ValuePlan::Binary(op, lhs, rhs) => {
                let (a, _) = self.expr(lhs)?;
                let (b, _) = self.expr(rhs)?;
                self.fb.binop(dst, op, a, b);
            }
            ValuePlan::ValueOf(args, pos) => {
                let v = self.shared_ref_arg(args, 0, pos)?;
                if args.len() != 1 {
                    return err(pos, "`valueof` expects 1 argument");
                }
                self.fb.value_of(dst, v);
            }
            ValuePlan::Malloc(sid, on) => {
                let on_op = match on {
                    Some(n) => {
                        let (op, ety) = self.expr(n)?;
                        self.check_assignable(ETy::T(Ty::Int), ety, n.pos())?;
                        Some(op)
                    }
                    None => None,
                };
                self.fb.malloc(dst, sid, on_op);
            }
            ValuePlan::Builtin(b, args, pos) => {
                if args.len() != b.arity() {
                    return err(
                        pos,
                        format!(
                            "`{}` expects {} arguments, got {}",
                            b.name(),
                            b.arity(),
                            args.len()
                        ),
                    );
                }
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    let (op, _) = self.expr(a)?;
                    ops.push(op);
                }
                self.fb.builtin(dst, b, ops);
            }
            ValuePlan::Call(func, call) => {
                let args = self.call_args(call)?;
                let at = self.at_clause(call)?;
                self.fb.basic(Basic::Call {
                    dst: Some(dst),
                    func,
                    args,
                    at,
                });
            }
            ValuePlan::Copy(op) => self.fb.assign(dst, op),
        }
        Ok(())
    }

    /// Infers the type of `e` without emitting code.
    fn peek_ty(&mut self, e: &Expr) -> Result<ETy, LowerError> {
        Ok(match e {
            Expr::Int(..) => ETy::T(Ty::Int),
            Expr::Double(..) => ETy::T(Ty::Double),
            Expr::Null(..) => ETy::Null,
            Expr::Var(name, pos) => ETy::T(self.var_ty(self.lookup(name, *pos)?)),
            Expr::FieldPath {
                base,
                arrow,
                path,
                pos,
            } => {
                let b = self.lookup(base, *pos)?;
                let sid = match (self.var_ty(b), arrow) {
                    (Ty::Ptr(s), true) | (Ty::Struct(s), false) => s,
                    _ => return err(*pos, format!("bad field access on `{base}`")),
                };
                let fid = self.field(sid, path, *pos)?;
                ETy::T(self.field_ty(sid, fid))
            }
            Expr::Unary { op, arg, .. } => match op {
                AstUnOp::Not => ETy::T(Ty::Int),
                AstUnOp::Neg => self.peek_ty(arg)?,
            },
            Expr::Binary { op, lhs, rhs, .. } => match op {
                AstBinOp::And
                | AstBinOp::Or
                | AstBinOp::Eq
                | AstBinOp::Ne
                | AstBinOp::Lt
                | AstBinOp::Le
                | AstBinOp::Gt
                | AstBinOp::Ge => ETy::T(Ty::Int),
                _ => {
                    let l = self.peek_ty(lhs)?;
                    let r = self.peek_ty(rhs)?;
                    match (l, r) {
                        (ETy::T(Ty::Double), _) | (_, ETy::T(Ty::Double)) => ETy::T(Ty::Double),
                        _ => ETy::T(Ty::Int),
                    }
                }
            },
            Expr::Call { name, pos, .. } => match name.as_str() {
                "valueof" => ETy::T(Ty::Int),
                "malloc" | "malloc_on" => {
                    // Type comes from the sizeof argument; re-derived during
                    // planning, so a best-effort answer suffices here.
                    if let Expr::Call { args, .. } = e {
                        let s = args.iter().find_map(|a| match a {
                            Expr::Sizeof(s, _) => Some(s.as_str()),
                            _ => None,
                        });
                        match s.and_then(|s| self.ctx.struct_ids.get(s).copied()) {
                            Some(sid) => ETy::T(Ty::Ptr(sid)),
                            None => return err(*pos, "malloc needs sizeof(Struct)"),
                        }
                    } else {
                        unreachable!()
                    }
                }
                _ => {
                    if let Some(b) = Builtin::by_name(name) {
                        match b {
                            Builtin::Sqrt | Builtin::Fabs | Builtin::PrintDouble => {
                                ETy::T(Ty::Double)
                            }
                            _ => ETy::T(Ty::Int),
                        }
                    } else if let Some((_, _, ret)) = self.ctx.sigs.get(name.as_str()) {
                        match ret {
                            Some(t) => ETy::T(*t),
                            None => return err(*pos, format!("void function `{name}` as value")),
                        }
                    } else {
                        return err(*pos, format!("unknown function `{name}`"));
                    }
                }
            },
            Expr::AddrOf(_, pos) => return err(*pos, "`&` not valid here"),
            Expr::Sizeof(_, pos) => return err(*pos, "`sizeof` not valid here"),
        })
    }

    fn check_comparable(&self, l: ETy, r: ETy, pos: Pos) -> Result<(), LowerError> {
        match (l, r) {
            (ETy::T(Ty::Int), ETy::T(Ty::Int))
            | (ETy::T(Ty::Double), ETy::T(Ty::Double))
            | (ETy::T(Ty::Double), ETy::T(Ty::Int))
            | (ETy::T(Ty::Int), ETy::T(Ty::Double)) => Ok(()),
            (ETy::T(Ty::Ptr(a)), ETy::T(Ty::Ptr(b))) if a == b => Ok(()),
            (ETy::T(Ty::Ptr(_)), ETy::Null) | (ETy::Null, ETy::T(Ty::Ptr(_))) => Ok(()),
            (ETy::Null, ETy::Null) => Ok(()),
            _ => err(
                pos,
                format!(
                    "cannot compare {} with {}",
                    l.display(self.prog),
                    r.display(self.prog)
                ),
            ),
        }
    }

    /// Short-circuit lowering of `&&` / `||` into branches.
    fn lower_logical(
        &mut self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        dst: VarId,
    ) -> Result<(), LowerError> {
        let (l, lty) = self.expr(lhs)?;
        let zero = match lty {
            ETy::T(Ty::Ptr(_)) | ETy::Null => Operand::null(),
            _ => Operand::int(0),
        };
        match op {
            AstBinOp::And => {
                // dst = 0; if (l != 0) { dst = bool(rhs); }
                self.fb.assign(dst, Operand::int(0));
                self.fb.begin_seq();
                let r = self.assign_bool(dst, rhs);
                let then_s = self.fb.end_seq();
                r?;
                self.fb.begin_seq();
                let else_s = self.fb.end_seq();
                self.fb
                    .emit_if(Cond::new(BinOp::Ne, l, zero), then_s, else_s);
            }
            AstBinOp::Or => {
                // dst = 1; if (l == 0) { dst = bool(rhs); }
                self.fb.assign(dst, Operand::int(1));
                self.fb.begin_seq();
                let r = self.assign_bool(dst, rhs);
                let then_s = self.fb.end_seq();
                r?;
                self.fb.begin_seq();
                let else_s = self.fb.end_seq();
                self.fb
                    .emit_if(Cond::new(BinOp::Eq, l, zero), then_s, else_s);
            }
            _ => unreachable!("lower_logical only handles && and ||"),
        }
        Ok(())
    }
}

fn ast_binop_to_ir(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Rem => BinOp::Rem,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::And | AstBinOp::Or => unreachable!("logical ops lower to branches"),
    }
}
