//! Hierarchical read/write sets.
//!
//! Every statement — basic *and* compound — is decorated with the set of
//! stack variables it reads/writes and the heap locations it may touch
//! (as `(base pointer variable, field)` pairs, where the base identifies a
//! region via the connection classes of [`crate::effects`]). This mirrors
//! the McCAT side-effect infrastructure the paper builds on: "Each basic
//! and compound statement is decorated with the set of locations
//! read/written."

use crate::effects::{Root, Summary};
use earth_ir::{
    Basic, Cond, FieldId, Function, Label, Operand, Place, Program, Rvalue, Stmt, StmtKind, VarId,
};
use std::collections::BTreeSet;

/// A single (possibly-remote) heap access within a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeapAccess {
    /// The pointer variable through which the access happens (for call
    /// effects, the actual argument at the call site).
    pub base: VarId,
    /// Accessed field; `None` for whole-struct accesses (block moves,
    /// whole-struct call effects).
    pub field: Option<FieldId>,
    /// `true` when the access is a *syntactic* dereference through `base`
    /// in this very statement (the paper's "direct" access, identified via
    /// anchor handles); `false` for accesses that happen inside callees or
    /// through copies.
    pub direct: bool,
}

/// Read/write set of one statement (aggregated over its children for
/// compound statements): a view into the function's [`RwSets`]. Every
/// slice is sorted and free of duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwSet<'a> {
    /// Stack variables written (including call result destinations and
    /// atomic-write targets).
    pub vars_written: &'a [VarId],
    /// Stack variables read.
    pub vars_read: &'a [VarId],
    /// Heap locations possibly read.
    pub heap_reads: &'a [HeapAccess],
    /// Heap locations possibly written.
    pub heap_writes: &'a [HeapAccess],
}

/// Where one statement's four sets lie in the pools of [`RwSets`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    vars_written: Span,
    vars_read: Span,
    heap_reads: Span,
    heap_writes: Span,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of<T>(self, pool: &[T]) -> &[T] {
        &pool[self.start as usize..][..self.len as usize]
    }
}

/// Per-function table of read/write sets, dense-indexed by [`Label`]. The
/// sets of all statements live end to end in two pools, so the table costs
/// a handful of allocations however many statements the function has.
#[derive(Debug, Clone)]
pub struct RwSets {
    entries: Vec<Option<Entry>>,
    vars: Vec<VarId>,
    heap: Vec<HeapAccess>,
}

impl RwSets {
    /// Computes read/write sets for every statement of `f`, using the
    /// callee `summaries` to expand call effects.
    pub fn compute(prog: &Program, f: &Function, summaries: &[Summary]) -> Self {
        let mut b = Builder {
            prog,
            f,
            summaries,
            sets: RwSets {
                entries: vec![None; f.label_bound()],
                vars: Vec::new(),
                heap: Vec::new(),
            },
            vars_written: Vec::new(),
            vars_read: Vec::new(),
            heap_reads: Vec::new(),
            heap_writes: Vec::new(),
        };
        b.stmt(&f.body);
        b.sets
    }

    /// The read/write set of the statement labelled `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` does not belong to the analyzed function.
    pub fn get(&self, l: Label) -> RwSet<'_> {
        let e = self.entries[l.0 as usize].expect("label belongs to the analyzed function");
        RwSet {
            vars_written: e.vars_written.of(&self.vars),
            vars_read: e.vars_read.of(&self.vars),
            heap_reads: e.heap_reads.of(&self.heap),
            heap_writes: e.heap_writes.of(&self.heap),
        }
    }

    /// Whether statement `l` writes variable `v` (directly).
    pub fn var_written(&self, v: VarId, l: Label) -> bool {
        self.get(l).vars_written.binary_search(&v).is_ok()
    }
}

/// Builds the table bottom-up. The four scratch vectors work as stacks: a
/// statement's accesses (its own, then those of each finished child) are
/// pushed above its parent's, then sorted, moved into the pools without
/// duplicates, and popped.
struct Builder<'a> {
    prog: &'a Program,
    f: &'a Function,
    summaries: &'a [Summary],
    sets: RwSets,
    vars_written: Vec<VarId>,
    vars_read: Vec<VarId>,
    heap_reads: Vec<HeapAccess>,
    heap_writes: Vec<HeapAccess>,
}

/// Moves `scratch[base..]` into `pool` as one sorted, duplicate-free run.
fn seal<T: Ord + Copy>(scratch: &mut Vec<T>, base: usize, pool: &mut Vec<T>) -> Span {
    scratch[base..].sort_unstable();
    let start = pool.len();
    for &x in &scratch[base..] {
        if pool.len() == start || pool[pool.len() - 1] != x {
            pool.push(x);
        }
    }
    scratch.truncate(base);
    Span {
        start: start as u32,
        len: (pool.len() - start) as u32,
    }
}

impl Builder<'_> {
    fn read_var(&mut self, o: Operand) {
        if let Operand::Var(v) = o {
            self.vars_read.push(v);
        }
    }

    fn read_cond(&mut self, c: &Cond) {
        self.vars_read.extend(c.vars());
    }

    /// Computes the subtree of `child`, then counts its accesses among
    /// those of the statement being built.
    fn absorb(&mut self, child: &Stmt) {
        let e = self.stmt(child);
        self.vars_written
            .extend_from_slice(e.vars_written.of(&self.sets.vars));
        self.vars_read
            .extend_from_slice(e.vars_read.of(&self.sets.vars));
        self.heap_reads
            .extend_from_slice(e.heap_reads.of(&self.sets.heap));
        self.heap_writes
            .extend_from_slice(e.heap_writes.of(&self.sets.heap));
    }

    fn stmt(&mut self, s: &Stmt) -> Entry {
        let base = (
            self.vars_written.len(),
            self.vars_read.len(),
            self.heap_reads.len(),
            self.heap_writes.len(),
        );
        match &s.kind {
            StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
                for c in ss {
                    self.absorb(c);
                }
            }
            StmtKind::Basic(b) => self.basic(b),
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                self.read_cond(cond);
                self.absorb(then_s);
                self.absorb(else_s);
            }
            StmtKind::Switch {
                scrut,
                cases,
                default,
            } => {
                self.read_var(*scrut);
                for (_, cs) in cases {
                    self.absorb(cs);
                }
                self.absorb(default);
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                self.read_cond(cond);
                self.absorb(body);
            }
            StmtKind::Forall {
                init,
                cond,
                step,
                body,
            } => {
                self.read_cond(cond);
                self.absorb(init);
                self.absorb(step);
                self.absorb(body);
            }
        }
        let entry = Entry {
            vars_written: seal(&mut self.vars_written, base.0, &mut self.sets.vars),
            vars_read: seal(&mut self.vars_read, base.1, &mut self.sets.vars),
            heap_reads: seal(&mut self.heap_reads, base.2, &mut self.sets.heap),
            heap_writes: seal(&mut self.heap_writes, base.3, &mut self.sets.heap),
        };
        self.sets.entries[s.label.0 as usize] = Some(entry);
        entry
    }

    fn basic(&mut self, b: &Basic) {
        for o in b.operands() {
            self.read_var(o);
        }
        match b {
            Basic::Assign { dst, src } => {
                match dst {
                    Place::Var(v) => self.vars_written.push(*v),
                    Place::Mem(m) => {
                        self.vars_read.push(m.base());
                        if m.is_deref() {
                            self.heap_writes.push(HeapAccess {
                                base: m.base(),
                                field: Some(m.field()),
                                direct: true,
                            });
                        } else {
                            // Local struct-variable field write: model as a
                            // write to the struct variable itself.
                            self.vars_written.push(m.base());
                        }
                    }
                }
                match src {
                    Rvalue::Load(m) => {
                        self.vars_read.push(m.base());
                        if m.is_deref() {
                            self.heap_reads.push(HeapAccess {
                                base: m.base(),
                                field: Some(m.field()),
                                direct: true,
                            });
                        }
                    }
                    Rvalue::ValueOf(v) => self.vars_read.push(*v),
                    _ => {}
                }
            }
            Basic::Call {
                dst,
                func,
                args,
                at,
            } => {
                if let Some(d) = dst {
                    self.vars_written.push(*d);
                }
                if let Some(earth_ir::AtTarget::OwnerOf(p)) = at {
                    self.vars_read.push(*p);
                }
                let (f, callee) = (self.f, self.prog.function(*func));
                let sum = &self.summaries[func.index()];
                let map_effects = |effects: &BTreeSet<(Root, Option<FieldId>)>,
                                   out: &mut Vec<HeapAccess>| {
                    for &(root, field) in effects {
                        if let Root::Param(i) = root {
                            if let Some(Operand::Var(a)) = args.get(i).copied() {
                                if callee.var(callee.params[i]).ty.is_ptr() && f.var(a).ty.is_ptr()
                                {
                                    out.push(HeapAccess {
                                        base: a,
                                        field,
                                        direct: false,
                                    });
                                }
                            }
                        }
                    }
                };
                map_effects(&sum.reads, &mut self.heap_reads);
                map_effects(&sum.writes, &mut self.heap_writes);
            }
            Basic::Return(_) => {}
            Basic::BlkMov { dir, ptr, buf, .. } => {
                self.vars_read.push(*ptr);
                let whole = HeapAccess {
                    base: *ptr,
                    field: None,
                    direct: true,
                };
                match dir {
                    earth_ir::BlkDir::RemoteToLocal => {
                        self.vars_written.push(*buf);
                        self.heap_reads.push(whole);
                    }
                    earth_ir::BlkDir::LocalToRemote => {
                        self.vars_read.push(*buf);
                        self.heap_writes.push(whole);
                    }
                }
            }
            Basic::AtomicWrite { var, .. } | Basic::AtomicAdd { var, .. } => {
                self.vars_written.push(*var);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::analyze_effects;
    use earth_frontend::compile;

    fn setup(src: &str) -> (Program, RwSets, earth_ir::FuncId) {
        let prog = compile(src).unwrap();
        let (summaries, _) = analyze_effects(&prog);
        let fid = earth_ir::FuncId(0);
        let sets = RwSets::compute(&prog, prog.function(fid), &summaries);
        (prog, sets, fid)
    }

    #[test]
    fn basic_stmt_sets() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { node* next; int v; };
            int f(node *p) {
                int t;
                t = p->v;
                p->v = t;
                return t;
            }
        "#,
        );
        let f = prog.function(fid);
        let stmts = f.basic_stmts();
        let p = f.var_by_name("p").unwrap();
        let t = f.var_by_name("t").unwrap();
        // t = p->v
        let (l0, _) = stmts[0];
        assert!(sets.var_written(t, l0));
        assert!(sets
            .get(l0)
            .heap_reads
            .iter()
            .any(|h| h.base == p && h.direct));
        // p->v = t
        let (l1, _) = stmts[1];
        assert!(sets.get(l1).heap_writes.iter().any(|h| h.base == p));
        assert!(sets.get(l1).vars_read.contains(&t));
    }

    #[test]
    fn loop_aggregates_body() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { node* next; int v; };
            int f(node *p) {
                int acc;
                acc = 0;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#,
        );
        let f = prog.function(fid);
        let p = f.var_by_name("p").unwrap();
        // Find the while statement's label.
        let mut while_label = None;
        f.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::While { .. }) {
                while_label = Some(s.label);
            }
        });
        let rw = sets.get(while_label.unwrap());
        assert!(rw.vars_written.contains(&p), "loop writes p");
        assert!(rw.heap_reads.iter().any(|h| h.base == p));
    }

    #[test]
    fn call_effects_mapped_to_args() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { node* next; int v; };
            void caller(node *y) { poke(y); }
            void poke(node *x) { x->v = 1; }
        "#,
        );
        let f = prog.function(fid);
        let y = f.var_by_name("y").unwrap();
        let (l, _) = f.basic_stmts()[0];
        let rw = sets.get(l);
        assert!(
            rw.heap_writes
                .iter()
                .any(|h| h.base == y && h.field == Some(FieldId(1)) && !h.direct),
            "callee write should map to arg y: {rw:?}"
        );
    }

    #[test]
    fn atomic_ops_write_shared_var() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { int v; };
            void f() {
                shared int c;
                addto(&c, 1);
            }
        "#,
        );
        let f = prog.function(fid);
        let c = f.var_by_name("c").unwrap();
        let (l, _) = f.basic_stmts()[0];
        assert!(sets.var_written(c, l));
    }
}
