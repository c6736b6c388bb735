//! Statements of the SIMPLE IR.
//!
//! SIMPLE (the McCAT intermediate representation) is *compositional*: a
//! program is a tree of statements rather than a control-flow graph. Basic
//! statements are in three-address form and contain **at most one remote
//! memory operation** — the invariant the paper's placement analysis relies
//! on. Compound statements are sequences, conditionals, structured loops,
//! and the EARTH-C parallel constructs (parallel sequences and `forall`).
//!
//! Every statement node carries a unique [`Label`]; the label of a basic
//! statement is the `Dlist` entry used by the possible-placement analysis.

use crate::json::{Encode, Json, JsonError, Value};
use crate::types::{FieldId, StructId};
use crate::var::VarId;
use std::fmt;

/// Unique identifier of a statement node within a function.
///
/// Labels identify *all* statement nodes (basic and compound); the paper
/// only labels basic statements, but giving compound statements labels lets
/// the communication-selection transformation anchor insertions precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

/// A label is its number in JSON (diagnostics, reports).
impl Encode for Label {
    fn encode(&self, out: &mut String) {
        self.0.encode(out);
    }
}

impl Json for Label {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        u32::decode(v, what).map(Label)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A compile-time constant operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),
    /// The null pointer.
    Null,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Double(v) => write!(f, "{v}"),
            Const::Null => write!(f, "NULL"),
        }
    }
}

/// An operand of a three-address statement: a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A local variable or parameter.
    Var(VarId),
    /// A constant.
    Const(Const),
}

impl Operand {
    /// The variable referenced, if this operand is a variable.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }

    /// Convenience constructor for an integer constant operand.
    pub fn int(v: i64) -> Self {
        Operand::Const(Const::Int(v))
    }

    /// Convenience constructor for a double constant operand.
    pub fn double(v: f64) -> Self {
        Operand::Const(Const::Double(v))
    }

    /// The null-pointer constant operand.
    pub fn null() -> Self {
        Operand::Const(Const::Null)
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

/// Binary arithmetic and comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operator names are self-explanatory
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    /// Comparison operators produce `int` 0 or 1.
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Whether this operator is a comparison (result is `int` 0/1).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Source-level spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`int` 0/1 result).
    Not,
}

/// Built-in functions provided by the EARTH runtime / math library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `sqrt(double) -> double`
    Sqrt,
    /// `fabs(double) -> double`
    Fabs,
    /// `rand() -> int` — deterministic per-simulation LCG in `[0, 2^31)`.
    Rand,
    /// `num_nodes() -> int` — number of EARTH nodes in the machine.
    NumNodes,
    /// `my_node() -> int` — node id the current thread runs on.
    MyNode,
    /// `owner_of(ptr) -> int` — node id owning the pointed-to object.
    OwnerOf,
    /// `print_int(int)` / debugging aid; returns its argument.
    PrintInt,
    /// `print_double(double)`; returns its argument.
    PrintDouble,
    /// `fence()` — blocks until all remote writes issued by this thread
    /// have completed (EARTH synchronizes on write completion at thread
    /// boundaries; `fence` exposes that synchronization point explicitly,
    /// which the Table I microbenchmarks need). Returns 0.
    Fence,
}

impl Builtin {
    /// Runtime name, as written in EARTH-C source.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Sqrt => "sqrt",
            Builtin::Fabs => "fabs",
            Builtin::Rand => "rand",
            Builtin::NumNodes => "num_nodes",
            Builtin::MyNode => "my_node",
            Builtin::OwnerOf => "owner_of",
            Builtin::PrintInt => "print_int",
            Builtin::PrintDouble => "print_double",
            Builtin::Fence => "fence",
        }
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Rand | Builtin::NumNodes | Builtin::MyNode | Builtin::Fence => 0,
            Builtin::Sqrt
            | Builtin::Fabs
            | Builtin::OwnerOf
            | Builtin::PrintInt
            | Builtin::PrintDouble => 1,
        }
    }

    /// Looks a builtin up by its source-level name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        use Builtin::*;
        Some(match name {
            "sqrt" => Sqrt,
            "fabs" => Fabs,
            "rand" => Rand,
            "num_nodes" => NumNodes,
            "my_node" => MyNode,
            "owner_of" => OwnerOf,
            "print_int" => PrintInt,
            "print_double" => PrintDouble,
            "fence" => Fence,
            _ => return None,
        })
    }
}

/// A memory reference appearing in a basic statement.
///
/// `Deref` (`p->f`) may be a *remote* operation depending on the locality of
/// `base`; `Field` (`s.f`) accesses a field of a struct-typed local variable
/// and is always local (this is how block-move buffers are read after a
/// `blkmov`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemRef {
    /// `base->field` where `base` is a pointer variable.
    Deref { base: VarId, field: FieldId },
    /// `base.field` where `base` is a struct-typed local variable.
    Field { base: VarId, field: FieldId },
}

impl MemRef {
    /// The base variable of the reference.
    pub fn base(self) -> VarId {
        match self {
            MemRef::Deref { base, .. } | MemRef::Field { base, .. } => base,
        }
    }

    /// The field accessed.
    pub fn field(self) -> FieldId {
        match self {
            MemRef::Deref { field, .. } | MemRef::Field { field, .. } => field,
        }
    }

    /// Whether this is a pointer dereference (`p->f`).
    pub fn is_deref(self) -> bool {
        matches!(self, MemRef::Deref { .. })
    }
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum Rvalue {
    /// `dst = operand`
    Use(Operand),
    /// `dst = op operand`
    Unary(UnOp, Operand),
    /// `dst = a op b`
    Binary(BinOp, Operand, Operand),
    /// `dst = p->f` or `dst = s.f`
    Load(MemRef),
    /// `dst = malloc(sizeof(struct S)) [@ on]` — allocates on node `on`
    /// (current node when `None`).
    Malloc {
        struct_id: StructId,
        on: Option<Operand>,
    },
    /// `dst = builtin(args...)`
    Builtin {
        builtin: Builtin,
        args: Vec<Operand>,
    },
    /// `dst = valueof(&shared_var)` — atomic read of a shared variable.
    ValueOf(VarId),
}

/// The destination of an assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Place {
    /// An ordinary variable.
    Var(VarId),
    /// A memory location (`p->f` or `s.f`).
    Mem(MemRef),
}

/// Direction of a block move between a remote object and a local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlkDir {
    /// `blkmov(ptr, &buf, sizeof(*ptr))` — fetch the remote struct into the
    /// local buffer.
    RemoteToLocal,
    /// `blkmov(&buf, ptr, sizeof(*ptr))` — write the local buffer back to
    /// the remote struct.
    LocalToRemote,
}

/// Where a call executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AtTarget {
    /// `f(...) @ OWNER_OF(p)` — execute at the node owning `*p`.
    OwnerOf(VarId),
    /// `f(...) @ node` — execute at an explicit node id.
    Node(Operand),
}

/// A basic (three-address) statement.
///
/// Invariant (checked by [`validate`](crate::validate::validate_program)):
/// a basic statement contains **at most one** `MemRef::Deref`, i.e. at most
/// one potentially-remote memory operation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum Basic {
    /// `place = rvalue`
    Assign { dst: Place, src: Rvalue },
    /// `dst = f(args...) [@target]` — user function call; `dst` is `None`
    /// for `void` calls.
    Call {
        dst: Option<VarId>,
        func: crate::func::FuncId,
        args: Vec<Operand>,
        at: Option<AtTarget>,
    },
    /// `return [operand]`
    Return(Option<Operand>),
    /// `blkmov` between `*ptr` and a local struct buffer `buf`.
    ///
    /// `range` selects a contiguous word range `(first_field, words)` of
    /// the struct to transfer; `None` moves the whole struct. Partial
    /// block moves are half of the paper's §7 extension: when the
    /// remotely-accessed fields are contiguous, only they cross the
    /// network.
    BlkMov {
        dir: BlkDir,
        ptr: VarId,
        buf: VarId,
        range: Option<(u32, u32)>,
    },
    /// `writeto(&var, value)` — atomic store to a shared variable.
    AtomicWrite { var: VarId, value: Operand },
    /// `addto(&var, value)` — atomic add to a shared variable.
    AtomicAdd { var: VarId, value: Operand },
}

/// A simple relational condition, as required by SIMPLE loop and branch
/// forms: no memory accesses, operands are variables or constants.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct Cond {
    pub op: BinOp,
    pub lhs: Operand,
    pub rhs: Operand,
}

impl Cond {
    /// Builds a condition, asserting the operator is a comparison.
    pub fn new(op: BinOp, lhs: Operand, rhs: Operand) -> Self {
        assert!(op.is_comparison(), "Cond requires a comparison operator");
        Cond { op, lhs, rhs }
    }

    /// Variables mentioned by the condition.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        [self.lhs, self.rhs].into_iter().filter_map(Operand::as_var)
    }
}

/// A statement node: a unique label plus the statement kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Unique within the enclosing function.
    pub label: Label,
    /// The statement's form and children.
    pub kind: StmtKind,
}

/// The statement forms of SIMPLE plus the EARTH-C parallel constructs.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum StmtKind {
    /// A statement sequence `{ s1; ...; sn }`.
    Seq(Vec<Stmt>),
    /// A basic three-address statement.
    Basic(Basic),
    /// `if (cond) then_s else else_s` — an empty `Seq` serves as a missing
    /// else branch.
    If {
        cond: Cond,
        then_s: Box<Stmt>,
        else_s: Box<Stmt>,
    },
    /// `switch (scrut) { case v: ...; default: ... }`.
    Switch {
        scrut: Operand,
        cases: Vec<(i64, Stmt)>,
        default: Box<Stmt>,
    },
    /// `while (cond) body`.
    While { cond: Cond, body: Box<Stmt> },
    /// `do body while (cond)` — the body executes at least once, which the
    /// placement analysis exploits for remote writes (`executesOnce`).
    DoWhile { body: Box<Stmt>, cond: Cond },
    /// Parallel statement sequence `{^ s1; ...; sn ^}` — all arms may run
    /// concurrently; execution joins at the end.
    ParSeq(Vec<Stmt>),
    /// `forall (init; cond; step) body` — iterations are independent and may
    /// run concurrently; joins at loop exit. `init` and `step` are basic
    /// statements, per SIMPLE's structured `for`.
    Forall {
        init: Box<Stmt>,
        cond: Cond,
        step: Box<Stmt>,
        body: Box<Stmt>,
    },
}

impl Stmt {
    /// Whether this is an empty sequence (used as a no-op/absent branch).
    pub fn is_empty_seq(&self) -> bool {
        matches!(&self.kind, StmtKind::Seq(v) if v.is_empty())
    }

    /// The basic statement payload, if this node is basic.
    pub fn as_basic(&self) -> Option<&Basic> {
        match &self.kind {
            StmtKind::Basic(b) => Some(b),
            _ => None,
        }
    }

    /// Depth-first pre-order traversal over this statement and all nested
    /// statements.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Stmt)) {
        visit(self);
        match &self.kind {
            StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
                for s in ss {
                    s.walk(visit);
                }
            }
            StmtKind::Basic(_) => {}
            StmtKind::If { then_s, else_s, .. } => {
                then_s.walk(visit);
                else_s.walk(visit);
            }
            StmtKind::Switch { cases, default, .. } => {
                for (_, s) in cases {
                    s.walk(visit);
                }
                default.walk(visit);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => body.walk(visit),
            StmtKind::Forall {
                init, step, body, ..
            } => {
                init.walk(visit);
                step.walk(visit);
                body.walk(visit);
            }
        }
    }

    /// Mutable depth-first pre-order traversal. The visitor may rewrite the
    /// node in place (including replacing children wholesale); children are
    /// walked *after* the visit, so newly inserted subtrees are visited too.
    pub fn walk_mut(&mut self, visit: &mut dyn FnMut(&mut Stmt)) {
        visit(self);
        match &mut self.kind {
            StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
                for s in ss {
                    s.walk_mut(visit);
                }
            }
            StmtKind::Basic(_) => {}
            StmtKind::If { then_s, else_s, .. } => {
                then_s.walk_mut(visit);
                else_s.walk_mut(visit);
            }
            StmtKind::Switch { cases, default, .. } => {
                for (_, s) in cases {
                    s.walk_mut(visit);
                }
                default.walk_mut(visit);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => body.walk_mut(visit),
            StmtKind::Forall {
                init, step, body, ..
            } => {
                init.walk_mut(visit);
                step.walk_mut(visit);
                body.walk_mut(visit);
            }
        }
    }

    /// All labels of this statement and its descendants, in pre-order.
    pub fn labels(&self) -> Vec<Label> {
        let mut out = Vec::new();
        self.walk(&mut |s| out.push(s.label));
        out
    }
}

impl Basic {
    /// The single potentially-remote memory dereference of this statement,
    /// if any, together with whether it is a read or a write.
    ///
    /// Block moves are reported with the *pointer* variable and no field.
    pub fn deref_access(&self) -> Option<DerefAccess> {
        match self {
            Basic::Assign { dst, src } => {
                if let Place::Mem(MemRef::Deref { base, field }) = dst {
                    return Some(DerefAccess {
                        base: *base,
                        field: Some(*field),
                        is_write: true,
                    });
                }
                if let Rvalue::Load(MemRef::Deref { base, field }) = src {
                    return Some(DerefAccess {
                        base: *base,
                        field: Some(*field),
                        is_write: false,
                    });
                }
                None
            }
            Basic::BlkMov { dir, ptr, .. } => Some(DerefAccess {
                base: *ptr,
                field: None,
                is_write: matches!(dir, BlkDir::LocalToRemote),
            }),
            _ => None,
        }
    }

    /// Operands read by this basic statement (not including memory loads),
    /// in source order.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        // Up to two operands held inline, then an argument list, then the
        // `@node` operand of a call.
        let (inline, list, at): ([Option<Operand>; 2], &[Operand], Option<Operand>) = match self {
            Basic::Assign { src, .. } => match src {
                Rvalue::Use(a) | Rvalue::Unary(_, a) => ([Some(*a), None], &[], None),
                Rvalue::Binary(_, a, b) => ([Some(*a), Some(*b)], &[], None),
                Rvalue::Load(_) | Rvalue::ValueOf(_) => ([None, None], &[], None),
                Rvalue::Malloc { on, .. } => ([*on, None], &[], None),
                Rvalue::Builtin { args, .. } => ([None, None], args, None),
            },
            Basic::Call { args, at, .. } => {
                let node = match at {
                    Some(AtTarget::Node(op)) => Some(*op),
                    _ => None,
                };
                ([None, None], args, node)
            }
            Basic::Return(op) => ([*op, None], &[], None),
            Basic::BlkMov { .. } => ([None, None], &[], None),
            Basic::AtomicWrite { value, .. } | Basic::AtomicAdd { value, .. } => {
                ([Some(*value), None], &[], None)
            }
        };
        inline
            .into_iter()
            .flatten()
            .chain(list.iter().copied())
            .chain(at)
    }
}

/// Description of the single pointer dereference in a basic statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DerefAccess {
    /// The pointer variable being dereferenced.
    pub base: VarId,
    /// The field accessed; `None` for whole-struct block moves.
    pub field: Option<FieldId>,
    /// `true` for a store through the pointer, `false` for a load.
    pub is_write: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    #[test]
    fn cond_requires_comparison() {
        let c = Cond::new(BinOp::Lt, Operand::Var(v(0)), Operand::int(3));
        assert_eq!(c.vars().collect::<Vec<_>>(), vec![v(0)]);
    }

    #[test]
    #[should_panic(expected = "comparison")]
    fn cond_rejects_arithmetic() {
        let _ = Cond::new(BinOp::Add, Operand::int(1), Operand::int(2));
    }

    #[test]
    fn deref_access_read_and_write() {
        let read = Basic::Assign {
            dst: Place::Var(v(0)),
            src: Rvalue::Load(MemRef::Deref {
                base: v(1),
                field: FieldId(0),
            }),
        };
        let acc = read.deref_access().unwrap();
        assert_eq!(acc.base, v(1));
        assert_eq!(acc.field, Some(FieldId(0)));
        assert!(!acc.is_write);

        let write = Basic::Assign {
            dst: Place::Mem(MemRef::Deref {
                base: v(2),
                field: FieldId(1),
            }),
            src: Rvalue::Use(Operand::Var(v(0))),
        };
        let acc = write.deref_access().unwrap();
        assert_eq!(acc.base, v(2));
        assert!(acc.is_write);
    }

    #[test]
    fn struct_field_access_is_not_deref() {
        let s = Basic::Assign {
            dst: Place::Var(v(0)),
            src: Rvalue::Load(MemRef::Field {
                base: v(1),
                field: FieldId(0),
            }),
        };
        assert!(s.deref_access().is_none());
    }

    #[test]
    fn blkmov_reports_direction() {
        let r = Basic::BlkMov {
            dir: BlkDir::RemoteToLocal,
            ptr: v(1),
            buf: v(2),
            range: None,
        };
        assert!(!r.deref_access().unwrap().is_write);
        let w = Basic::BlkMov {
            dir: BlkDir::LocalToRemote,
            ptr: v(1),
            buf: v(2),
            range: Some((1, 2)),
        };
        assert!(w.deref_access().unwrap().is_write);
    }

    #[test]
    fn operand_helpers() {
        assert_eq!(Operand::Var(v(4)).as_var(), Some(v(4)));
        assert_eq!(Operand::int(7).as_var(), None);
        assert_eq!(Operand::null(), Operand::Const(Const::Null));
    }

    #[test]
    fn builtin_names_round_trip() {
        for b in [
            Builtin::Sqrt,
            Builtin::Fabs,
            Builtin::Rand,
            Builtin::NumNodes,
            Builtin::MyNode,
            Builtin::OwnerOf,
            Builtin::PrintInt,
            Builtin::PrintDouble,
            Builtin::Fence,
        ] {
            assert_eq!(Builtin::by_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::by_name("nope"), None);
    }

    #[test]
    fn walk_visits_nested() {
        let mk = |label, kind| Stmt {
            label: Label(label),
            kind,
        };
        let inner = mk(2, StmtKind::Basic(Basic::Return(None)));
        let body = mk(1, StmtKind::Seq(vec![inner]));
        let loop_s = mk(
            0,
            StmtKind::While {
                cond: Cond::new(BinOp::Ne, Operand::int(0), Operand::int(1)),
                body: Box::new(body),
            },
        );
        assert_eq!(loop_s.labels(), vec![Label(0), Label(1), Label(2)]);
    }
}
