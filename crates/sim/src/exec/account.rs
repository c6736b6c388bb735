//! The records of the machine core and the arithmetic evaluators.
//!
//! Frame cells with split-phase ready times, activation records, thread
//! records and per-node EU accounting are the vocabulary of
//! [`core::Core`](super::core::Core), which is the only code that creates,
//! schedules or retires a thread. [`eval_bin`] and [`eval_un`] are the
//! one definition of value semantics and its error strings: the
//! interpreter calls them for every `Bin`/`Un`/`Br`, the native tier for
//! everything its Int×Int fast path does not cover.
//!
//! The records are small because a run keeps one per live thread, frame
//! slot and activation: [`Cell`] is 16 bytes, [`ActRec`] 20 and
//! [`Thread`] 40, and the asserts below hold them there.

use crate::bytecode::{Pc, Slot};
use crate::value::{Addr, NodeId, Value};
use earth_ir::{BinOp, FuncId, UnOp};

/// A thread identifier (index into the machine's thread table).
pub(crate) type ThreadId = u32;

/// An activation-record identifier (index into the machine's record
/// arena).
pub(crate) type RecId = u32;

/// The end of a link: no caller record, no free entry, no return slot.
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ThreadState {
    /// Has a wake event scheduled (or is being executed).
    Ready,
    /// Waiting for a remote call reply or a join; resumed explicitly.
    Blocked,
    Done,
}

/// Low bits of [`Cell::head`] that hold the value's tag; the ready time
/// is packed above them.
const TAG_BITS: u32 = 8;
const TAG_INT: u64 = 0;
const TAG_DOUBLE: u64 = 1;
const TAG_PTR: u64 = 2;
const TAG_NULL: u64 = 3;
const TAG_UNINIT: u64 = 4;

/// One frame slot: a value plus the virtual time it becomes usable
/// (nonzero while a split-phase operation is still in flight). The
/// value's tag and the ready time share one word and the payload fills
/// the other, so a cell is 16 bytes where a `(Value, u64)` pair is 24.
#[derive(Clone, Copy)]
pub(crate) struct Cell {
    head: u64,
    bits: u64,
}

impl Cell {
    /// The latest ready time a cell can hold; the core turns a later one
    /// into a [`SimError`](crate::SimError) before it is packed.
    pub const MAX_READY: u64 = u64::MAX >> TAG_BITS;

    /// An uninitialised slot, ready now.
    pub const UNINIT: Cell = Cell {
        head: TAG_UNINIT,
        bits: 0,
    };

    /// `val`, usable from `ready` on, which must be at most
    /// [`Cell::MAX_READY`].
    #[inline(always)]
    pub fn new(val: Value, ready: u64) -> Cell {
        assert!(
            ready <= Self::MAX_READY,
            "ready time {ready} overflows a cell"
        );
        let (tag, bits) = match val {
            Value::Int(v) => (TAG_INT, v as u64),
            Value::Double(v) => (TAG_DOUBLE, v.to_bits()),
            Value::Ptr(a) => (TAG_PTR, (a.node as u64) << 32 | a.index as u64),
            Value::Null => (TAG_NULL, 0),
            Value::Uninit => (TAG_UNINIT, 0),
        };
        Cell {
            head: tag | ready << TAG_BITS,
            bits,
        }
    }

    #[inline(always)]
    pub fn val(self) -> Value {
        match self.tag() {
            TAG_INT => Value::Int(self.bits as i64),
            TAG_DOUBLE => Value::Double(f64::from_bits(self.bits)),
            TAG_PTR => Value::Ptr(self.addr()),
            TAG_NULL => Value::Null,
            _ => Value::Uninit,
        }
    }

    /// The value when it is an `Int`. The hot paths test the tag this
    /// way: building a [`Value`] first costs a jump table per read.
    #[inline(always)]
    pub fn int(self) -> Option<i64> {
        (self.tag() == TAG_INT).then_some(self.bits as i64)
    }

    /// The address when the value is a pointer (see [`Cell::int`]).
    #[inline(always)]
    pub fn ptr(self) -> Option<Addr> {
        (self.tag() == TAG_PTR).then(|| self.addr())
    }

    /// [`Value::as_ptr`] of the value, with [`Cell::ptr`]'s fast path.
    #[inline(always)]
    pub fn as_ptr(self) -> Result<Option<Addr>, String> {
        match self.ptr() {
            Some(a) => Ok(Some(a)),
            None => self.val().as_ptr(),
        }
    }

    #[inline(always)]
    fn tag(self) -> u64 {
        self.head & ((1 << TAG_BITS) - 1)
    }

    #[inline(always)]
    fn addr(self) -> Addr {
        Addr {
            node: (self.bits >> 32) as NodeId,
            index: self.bits as u32,
        }
    }

    #[inline(always)]
    pub fn ready(self) -> u64 {
        self.head >> TAG_BITS
    }

    /// The next entry of a free list threaded through this (freed) cell.
    #[inline]
    pub fn link(self) -> u32 {
        self.bits as u32
    }

    /// A freed frame's first cell, pointing at the next free frame.
    #[inline]
    pub fn free_link(next: u32) -> Cell {
        Cell {
            head: TAG_UNINIT,
            bits: next as u64,
        }
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}@{}", self.val(), self.ready())
    }
}

/// An activation record, one link of a thread's call chain in the core's
/// record arena. `frame` is the base offset of the function's frame in
/// the cell arena; `prev` is the caller's record ([`NIL`] at the bottom
/// of the chain, and the next free record while this one is free).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActRec {
    pub func: FuncId,
    pub pc: Pc,
    pub frame: u32,
    /// Slot in the *caller's* frame receiving the return value ([`NIL`]
    /// for none).
    ret_slot: Slot,
    pub prev: RecId,
}

impl ActRec {
    pub fn new(func: FuncId, pc: Pc, frame: u32, ret_slot: Option<Slot>, prev: RecId) -> Self {
        ActRec {
            func,
            pc,
            frame,
            ret_slot: ret_slot.unwrap_or(NIL),
            prev,
        }
    }

    pub fn ret_slot(&self) -> Option<Slot> {
        (self.ret_slot != NIL).then_some(self.ret_slot)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ParentLink {
    /// Arm of a `Fork`, running in its parent's frame: notify the parent
    /// on `EndArm`.
    Arm(ThreadId),
    /// A forall iteration, running in a copy of its parent's frame that
    /// it owns: notify the parent on `EndArm`.
    Iter(ThreadId),
    /// Remote invocation: reply to `(thread, slot)` on final Ret.
    Reply(ThreadId, Option<Slot>),
    /// The root thread.
    Root,
}

#[derive(Debug)]
pub(crate) struct Thread {
    pub node: NodeId,
    /// The running activation record; the next free thread while this
    /// one is free.
    pub top: RecId,
    pub state: ThreadState,
    /// Wake events queued for this thread and not yet popped: a thread
    /// is only retired, and its id reused, when this is zero.
    pub queued: u16,
    pub parent: ParentLink,
    pub outstanding_children: u32,
    pub waiting_join: bool,
    pub writes_done_at: u64,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 16);
const _: () = assert!(std::mem::size_of::<ActRec>() <= 20);
const _: () = assert!(std::mem::size_of::<Thread>() <= 40);

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NodeState {
    pub eu_free_at: u64,
    pub last_thread: Option<ThreadId>,
    pub busy_ns: u64,
}

pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use Value::*;
    // Pointer comparisons.
    if op.is_comparison() {
        let r = match (a, b) {
            (Ptr(x), Ptr(y)) => match op {
                BinOp::Eq => Some(x == y),
                BinOp::Ne => Some(x != y),
                _ => return Err("ordered comparison of pointers".into()),
            },
            (Ptr(_), Null) => match op {
                BinOp::Eq => Some(false),
                BinOp::Ne => Some(true),
                _ => return Err("ordered comparison of pointers".into()),
            },
            (Null, Ptr(_)) => match op {
                BinOp::Eq => Some(false),
                BinOp::Ne => Some(true),
                _ => return Err("ordered comparison of pointers".into()),
            },
            (Null, Null) => match op {
                BinOp::Eq => Some(true),
                BinOp::Ne => Some(false),
                _ => return Err("ordered comparison of pointers".into()),
            },
            _ => None,
        };
        if let Some(v) = r {
            return Ok(Int(v as i64));
        }
    }
    match (a, b) {
        (Int(x), Int(y)) => {
            let v = match op {
                BinOp::Add => Int(x.wrapping_add(y)),
                BinOp::Sub => Int(x.wrapping_sub(y)),
                BinOp::Mul => Int(x.wrapping_mul(y)),
                BinOp::Div => {
                    if y == 0 {
                        return Err("integer division by zero".into());
                    }
                    Int(x.wrapping_div(y))
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err("integer remainder by zero".into());
                    }
                    Int(x.wrapping_rem(y))
                }
                BinOp::Eq => Int((x == y) as i64),
                BinOp::Ne => Int((x != y) as i64),
                BinOp::Lt => Int((x < y) as i64),
                BinOp::Le => Int((x <= y) as i64),
                BinOp::Gt => Int((x > y) as i64),
                BinOp::Ge => Int((x >= y) as i64),
            };
            Ok(v)
        }
        _ => {
            let x = a.as_double()?;
            let y = b.as_double()?;
            let v = match op {
                BinOp::Add => Double(x + y),
                BinOp::Sub => Double(x - y),
                BinOp::Mul => Double(x * y),
                BinOp::Div => Double(x / y),
                BinOp::Rem => Double(x % y),
                BinOp::Eq => Int((x == y) as i64),
                BinOp::Ne => Int((x != y) as i64),
                BinOp::Lt => Int((x < y) as i64),
                BinOp::Le => Int((x <= y) as i64),
                BinOp::Gt => Int((x > y) as i64),
                BinOp::Ge => Int((x >= y) as i64),
            };
            Ok(v)
        }
    }
}

pub(crate) fn eval_un(op: UnOp, a: Value) -> Result<Value, String> {
    match op {
        UnOp::Neg => match a {
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Double(v) => Ok(Value::Double(-v)),
            other => Err(format!("negation of {other:?}")),
        },
        UnOp::Not => Ok(Value::Int(!a.truthy()? as i64)),
    }
}
