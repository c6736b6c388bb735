//! The records of the machine core and the arithmetic evaluators.
//!
//! Frame cells with split-phase ready times, activation records, thread
//! records and per-node EU accounting are the vocabulary of
//! [`core::Core`](super::core::Core), which is the only code that creates,
//! schedules or retires a thread. [`eval_bin`] and [`eval_un`] are the
//! one definition of value semantics and its error strings: the
//! interpreter calls them for every `Bin`/`Un`/`Br`, the native tier for
//! everything its Int×Int fast path does not cover.

use crate::bytecode::{Pc, Slot};
use crate::value::{NodeId, Value};
use earth_ir::{BinOp, FuncId, UnOp};

/// A thread identifier (index into the machine's thread table).
pub(crate) type ThreadId = u32;

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ThreadState {
    /// Has a wake event scheduled (or is being executed).
    Ready,
    /// Waiting for a remote call reply or a join; resumed explicitly.
    Blocked,
    Done,
}

/// One frame slot: a value plus the virtual time it becomes usable
/// (nonzero while a split-phase operation is still in flight).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub val: Value,
    pub ready: u64,
}

/// An activation record. `frame` is the base offset of the function's
/// frame in the core's cell arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActRec {
    pub func: FuncId,
    pub pc: Pc,
    pub frame: usize,
    /// Slot in the *caller's* frame receiving the return value.
    pub ret_slot: Option<Slot>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ParentLink {
    /// Arm of a Fork or a forall iteration: notify parent on EndArm.
    Arm(ThreadId),
    /// Remote invocation: reply to `(thread, slot)` on final Ret.
    Reply(ThreadId, Option<Slot>),
    /// The root thread.
    Root,
}

/// Frames held inline in a [`FrameStack`] before spilling to the heap.
const INLINE_FRAMES: usize = 4;

/// A thread's activation-record stack. The bottom [`INLINE_FRAMES`]
/// frames live inline in the thread record, so spawning a thread (one
/// per remote call, fork arm, and forall iteration) performs no host
/// allocation; only recursion deeper than the inline window spills to a
/// heap `Vec`. Thread creation is the hottest cost of the core on
/// spawn-heavy programs.
#[derive(Debug)]
pub(crate) struct FrameStack {
    inline: [ActRec; INLINE_FRAMES],
    len: usize,
    spill: Vec<ActRec>,
}

impl FrameStack {
    pub fn new(root: ActRec) -> Self {
        let mut inline = [root; INLINE_FRAMES];
        inline[0] = root;
        FrameStack {
            inline,
            len: 1,
            spill: Vec::new(),
        }
    }

    #[inline]
    pub fn push(&mut self, r: ActRec) {
        if self.len < INLINE_FRAMES {
            self.inline[self.len] = r;
        } else {
            self.spill.push(r);
        }
        self.len += 1;
    }

    #[inline]
    pub fn pop(&mut self) -> Option<ActRec> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(if self.len < INLINE_FRAMES {
            self.inline[self.len]
        } else {
            self.spill.pop().expect("spilled frame")
        })
    }

    #[inline]
    pub fn last(&self) -> Option<&ActRec> {
        if self.len == 0 {
            None
        } else if self.len <= INLINE_FRAMES {
            Some(&self.inline[self.len - 1])
        } else {
            self.spill.last()
        }
    }

    #[inline]
    pub fn last_mut(&mut self) -> Option<&mut ActRec> {
        if self.len == 0 {
            None
        } else if self.len <= INLINE_FRAMES {
            Some(&mut self.inline[self.len - 1])
        } else {
            self.spill.last_mut()
        }
    }
}

#[derive(Debug)]
pub(crate) struct Thread {
    pub node: NodeId,
    pub stack: FrameStack,
    pub state: ThreadState,
    pub parent: ParentLink,
    pub outstanding_children: u32,
    pub waiting_join: bool,
    pub writes_done_at: u64,
}

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
