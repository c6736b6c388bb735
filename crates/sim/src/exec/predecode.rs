//! The pre-decoding pass: `Op` → flat [`Step`] table.
//!
//! Everything the interpreter re-derives on every dispatch is resolved
//! here, once per program:
//!
//! * every jump target, operand slot, field offset, and word count is
//!   copied into fixed `Step` fields (no `Op` clone, no `Vec` walk),
//! * every op's profile-site index is pre-looked-up (the interpreter
//!   chases `site_of.get(pc)` per event),
//! * fixed per-op virtual-time costs are baked in (`CopySlots` even gets
//!   its `local_op_ns * words` pre-multiplied); the interpreter reads
//!   them from a `CostModel` it clones per EU span,
//! * a per-function *pending-slot* analysis proves which slots can never
//!   hold an in-flight split-phase value; ops reading only never-pending
//!   slots are compiled to variants that skip the readiness check
//!   entirely (`op_ready_at` is the interpreter's second full match over
//!   the op),
//! * `Bin`/`Br` handlers are monomorphized over the binary op *and* the
//!   operand forms (slot vs. immediate), so the Int×Int fast path is
//!   constant-folded arithmetic on directly-indexed cells with no
//!   run-time `BinOp` or `Opnd` match,
//! * every straight-line op whose successor is in the same basic block
//!   is compiled to a *chain* variant that tail-calls the next step
//!   directly, so a whole block executes as one threaded cascade and
//!   the main dispatch loop is only re-entered at control transfers
//!   (`Br`/`Jmp`/`Switch`), calls, spawns, and joins. Per-pc steps are
//!   kept 1:1 with ops, so a mid-chain stall simply parks the thread on
//!   the pending op's pc and resumes through the normal path.
//!
//! The execution semantics of every step live in
//! [`native`](super::native); this module only selects and parameterizes
//! them.

use crate::bytecode::{CallAt, CompiledProgram, Op, Opnd, Pc, Slot, NO_SITE};
use crate::cost::CostModel;
use crate::stats::OpKind;
use earth_ir::{BinOp, Builtin, FuncId};

use super::core::{Callee, Core, Ctx, StepResult};
use super::native;

/// Signature of a compiled step: the pre-bound operands ride in `Step`,
/// making each entry a (fn-pointer, environment) closure pair dispatched
/// with one indirect call — no per-op enum matching.
pub(crate) type StepFn = fn(&mut Core, &NativeProgram, &NativeFunc, &Step, &mut Ctx) -> StepResult;

/// One pre-decoded instruction. Field meaning is per-op (documented at
/// the decode sites); `x`/`y` carry value operands, `a`–`d` carry slots,
/// pcs, field offsets, word counts, or side-table indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub run: StepFn,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub d: u32,
    pub x: Opnd,
    pub y: Opnd,
    pub bop: BinOp,
    /// Pre-resolved fixed virtual-time cost (0 for ops with
    /// data-dependent cost, which read the program's cost model, and for
    /// the thread-protocol ops, which the core charges).
    pub cost: u64,
    /// Pre-resolved profile-site index ([`NO_SITE`] when unattributed).
    pub site: u32,
    /// Histogram bucket (the op's original kind, for `--op-stats`).
    pub kind: OpKind,
}

/// Pre-decoded call: argument list boxed once at decode time, arity
/// pre-checked (a mismatched call still only errors when executed, like
/// the interpreter).
#[derive(Debug, Clone)]
pub(crate) struct NCall {
    pub dst: Option<Slot>,
    pub func: FuncId,
    pub args: Box<[Opnd]>,
    pub at: CallAt,
    pub bad_arity: bool,
}

/// Pre-decoded builtin invocation.
#[derive(Debug, Clone)]
pub(crate) struct NBuiltin {
    pub dst: Slot,
    pub which: Builtin,
    pub args: Box<[Opnd]>,
}

/// Pre-decoded switch table.
#[derive(Debug, Clone)]
pub(crate) struct NSwitch {
    pub table: Box<[(i64, Pc)]>,
    pub default_pc: Pc,
}

/// One pre-decoded function: the step table plus side tables for the few
/// variable-length op payloads (calls, builtins, switches, fork arms).
#[derive(Debug, Clone)]
pub(crate) struct NativeFunc {
    pub name: String,
    pub steps: Vec<Step>,
    pub n_slots: u32,
    pub param_slots: Vec<Slot>,
    pub calls: Vec<NCall>,
    pub builtins: Vec<NBuiltin>,
    pub switches: Vec<NSwitch>,
    pub forks: Vec<Box<[Pc]>>,
}

impl NativeFunc {
    pub fn callee(&self, func: FuncId) -> Callee<'_> {
        Callee {
            func,
            n_slots: self.n_slots,
            param_slots: &self.param_slots,
        }
    }
}

/// A program compiled for the native tier: pre-decoded functions plus the
/// cost model baked in at compile time. Build once with
/// [`NativeProgram::compile`], run any number of times with
/// [`NativeMachine`](super::NativeMachine).
#[derive(Debug, Clone)]
pub struct NativeProgram {
    pub(crate) funcs: Vec<NativeFunc>,
    pub(crate) cost: CostModel,
    pub(crate) n_sites: usize,
}

impl NativeProgram {
    /// Pre-decodes `prog` against `cost`. The cost model is baked into
    /// the step table (fixed per-op costs are resolved here), so a
    /// `NativeProgram` must be run on a machine using the same model.
    pub fn compile(prog: &CompiledProgram, cost: &CostModel) -> NativeProgram {
        let funcs = prog
            .functions
            .iter()
            .map(|f| decode_function(f, cost, prog))
            .collect();
        NativeProgram {
            funcs,
            cost: cost.clone(),
            n_sites: prog.site_table.len(),
        }
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Number of functions.
    pub fn n_funcs(&self) -> usize {
        self.funcs.len()
    }
}

/// Flow-insensitive fixpoint: which slots can *ever* hold a value whose
/// ready time lies in the future? Seeds are the destinations of
/// split-phase ops (remote loads, block reads, remote `valueof`, calls
/// that may run remotely); `Mov`/`CopySlots` propagate pending-ness
/// (they are register renames, not uses). Every other write publishes
/// with ready 0. Ops reading only never-pending slots skip the readiness
/// check at run time.
fn pending_slots(f: &crate::bytecode::CompiledFunction) -> Vec<bool> {
    let n = f.n_slots as usize;
    let mut p = vec![false; n];
    let set = |p: &mut Vec<bool>, s: Slot, changed: &mut bool| {
        let i = s as usize;
        if i < p.len() && !p[i] {
            p[i] = true;
            *changed = true;
        }
    };
    loop {
        let mut changed = false;
        for op in &f.ops {
            match op {
                Op::LoadRemote { dst, .. } | Op::ValueOf { dst, .. } => {
                    set(&mut p, *dst, &mut changed)
                }
                Op::BlkRead {
                    buf, off, words, ..
                } => {
                    for w in *off..*off + *words {
                        set(&mut p, buf + w, &mut changed);
                    }
                }
                Op::Call {
                    dst: Some(d), at, ..
                } if *at != CallAt::Local => set(&mut p, *d, &mut changed),
                Op::Mov {
                    dst,
                    src: Opnd::Slot(s),
                } if (*s as usize) < n && p[*s as usize] => {
                    set(&mut p, *dst, &mut changed);
                }
                Op::CopySlots { dst, src, words } => {
                    for w in 0..*words {
                        if ((src + w) as usize) < n && p[(src + w) as usize] {
                            set(&mut p, dst + w, &mut changed);
                        }
                    }
                }
                _ => {}
            }
        }
        if !changed {
            return p;
        }
    }
}

fn opnd_pending(p: &[bool], o: &Opnd) -> bool {
    match o {
        Opnd::Slot(s) => p.get(*s as usize).copied().unwrap_or(true),
        Opnd::Imm(_) => false,
    }
}

fn slot_pending(p: &[bool], s: Slot) -> bool {
    p.get(s as usize).copied().unwrap_or(true)
}

/// Whether this op's readiness check can be elided (no slot it reads can
/// ever be pending). Mirrors the read sets of the interpreter's
/// `op_ready_at` exactly.
fn needs_check(op: &Op, p: &[bool]) -> bool {
    match op {
        Op::Mov { .. } => false,
        Op::Bin { a, b, .. } | Op::Br { a, b, .. } => opnd_pending(p, a) || opnd_pending(p, b),
        Op::Un { a, .. } => opnd_pending(p, a),
        Op::LoadLocal { ptr, .. } | Op::LoadRemote { ptr, .. } | Op::BlkRead { ptr, .. } => {
            slot_pending(p, *ptr)
        }
        Op::StoreLocal { ptr, src, .. } | Op::StoreRemote { ptr, src, .. } => {
            slot_pending(p, *ptr) || opnd_pending(p, src)
        }
        Op::BlkWrite {
            ptr,
            buf,
            off,
            words,
        } => slot_pending(p, *ptr) || (*off..*off + *words).any(|w| slot_pending(p, buf + w)),
        Op::CopySlots { src, words, .. } => (0..*words).any(|w| slot_pending(p, src + w)),
        Op::Malloc { node, .. } => node.as_ref().is_some_and(|o| opnd_pending(p, o)),
        Op::AllocShared { .. } => false,
        Op::AtomicWrite { cell, src } | Op::AtomicAdd { cell, src } => {
            slot_pending(p, *cell) || opnd_pending(p, src)
        }
        Op::ValueOf { cell, .. } => slot_pending(p, *cell),
        Op::Call { args, at, .. } => {
            args.iter().any(|a| opnd_pending(p, a))
                || match at {
                    CallAt::OwnerOf(s) => slot_pending(p, *s),
                    CallAt::Node(o) => opnd_pending(p, o),
                    CallAt::Local => false,
                }
        }
        Op::Builtin { which, args, .. } => {
            // Fence synchronizes on the thread's outstanding writes, not
            // on a slot: always checked.
            matches!(which, Builtin::Fence) || args.iter().any(|a| opnd_pending(p, a))
        }
        Op::Ret { val } => val.as_ref().is_some_and(|o| opnd_pending(p, o)),
        Op::Switch { scrut, .. } => opnd_pending(p, scrut),
        Op::Jmp(_) | Op::Fork { .. } | Op::SpawnIter { .. } | Op::JoinIters | Op::EndArm => false,
    }
}

fn decode_function(
    f: &crate::bytecode::CompiledFunction,
    cost: &CostModel,
    prog: &CompiledProgram,
) -> NativeFunc {
    let pending = pending_slots(f);
    let mut nf = NativeFunc {
        name: f.name.clone(),
        steps: Vec::with_capacity(f.ops.len()),
        n_slots: f.n_slots,
        param_slots: f.param_slots.clone(),
        calls: Vec::new(),
        builtins: Vec::new(),
        switches: Vec::new(),
        forks: Vec::new(),
    };
    for (pc, op) in f.ops.iter().enumerate() {
        let site = f.site_of.get(pc).copied().unwrap_or(NO_SITE);
        let check = needs_check(op, &pending);
        let step = decode_op(op, check, site, cost, prog, &mut nf);
        nf.steps.push(step);
    }
    fuse(&mut nf, f, &pending);
    nf
}

/// A blank step to fill in.
fn blank(run: StepFn, cost: u64, site: u32, kind: OpKind) -> Step {
    Step {
        run,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        x: Opnd::Imm(crate::value::Value::Int(0)),
        y: Opnd::Imm(crate::value::Value::Int(0)),
        bop: BinOp::Add,
        cost,
        site,
        kind,
    }
}

/// Picks `h::<true>` / `h::<false>` by the elision decision.
macro_rules! checked {
    ($h:ident, $check:expr) => {
        if $check {
            native::$h::<true> as StepFn
        } else {
            native::$h::<false> as StepFn
        }
    };
}

/// Picks `h::<CHECK, BOP, XS, YS>` for the binary-op handlers: the op
/// selects a monomorphized instantiation whose Int×Int arithmetic is
/// constant-folded (no run-time `BinOp` match on the fast path), and
/// `XS`/`YS` record which operands are frame slots so their cells are
/// read directly instead of through an `Opnd` match.
macro_rules! bopped {
    ($h:ident, $check:expr, $bop:expr, $xs:expr, $ys:expr) => {{
        macro_rules! arm {
            ($code:expr) => {
                match ($check, $xs, $ys) {
                    (true, true, true) => native::$h::<true, { $code }, true, true> as StepFn,
                    (true, true, false) => native::$h::<true, { $code }, true, false> as StepFn,
                    (true, false, true) => native::$h::<true, { $code }, false, true> as StepFn,
                    (true, false, false) => native::$h::<true, { $code }, false, false> as StepFn,
                    (false, true, true) => native::$h::<false, { $code }, true, true> as StepFn,
                    (false, true, false) => native::$h::<false, { $code }, true, false> as StepFn,
                    (false, false, true) => native::$h::<false, { $code }, false, true> as StepFn,
                    (false, false, false) => native::$h::<false, { $code }, false, false> as StepFn,
                }
            };
        }
        match $bop {
            BinOp::Add => arm!(native::BOP_ADD),
            BinOp::Sub => arm!(native::BOP_SUB),
            BinOp::Mul => arm!(native::BOP_MUL),
            BinOp::Div => arm!(native::BOP_DIV),
            BinOp::Rem => arm!(native::BOP_REM),
            BinOp::Eq => arm!(native::BOP_EQ),
            BinOp::Ne => arm!(native::BOP_NE),
            BinOp::Lt => arm!(native::BOP_LT),
            BinOp::Le => arm!(native::BOP_LE),
            BinOp::Gt => arm!(native::BOP_GT),
            BinOp::Ge => arm!(native::BOP_GE),
        }
    }};
}

fn decode_op(
    op: &Op,
    check: bool,
    site: u32,
    cost: &CostModel,
    prog: &CompiledProgram,
    nf: &mut NativeFunc,
) -> Step {
    use OpKind as K;
    match op {
        // a = dst; b = src slot (mov_slot) / x = imm (mov_imm).
        Op::Mov { dst, src } => match src {
            Opnd::Slot(s) => {
                let mut st = blank(native::mov_slot, cost.mov_ns, site, K::Mov);
                st.a = *dst;
                st.b = *s;
                st
            }
            Opnd::Imm(v) => {
                let mut st = blank(native::mov_imm, cost.mov_ns, site, K::Mov);
                st.a = *dst;
                st.x = Opnd::Imm(*v);
                st
            }
        },
        // a = dst; x, y = operands (slot operands also pre-decoded
        // into b/c so the handler can skip the Opnd match).
        Op::Bin { dst, op, a, b } => {
            let xs = matches!(a, Opnd::Slot(_));
            let ys = matches!(b, Opnd::Slot(_));
            let mut st = blank(
                bopped!(bin, check, op, xs, ys),
                cost.local_op_ns,
                site,
                K::Bin,
            );
            st.a = *dst;
            st.x = *a;
            st.y = *b;
            if let Opnd::Slot(sl) = a {
                st.b = *sl;
            }
            if let Opnd::Slot(sl) = b {
                st.c = *sl;
            }
            st.bop = *op;
            st
        }
        // a = dst; x = operand; handler selected by the unary op.
        Op::Un { dst, op, a } => {
            let run = match op {
                earth_ir::UnOp::Neg => checked!(un_neg, check),
                earth_ir::UnOp::Not => checked!(un_not, check),
            };
            let mut st = blank(run, cost.local_op_ns, site, K::Un);
            st.a = *dst;
            st.x = *a;
            st
        }
        // a = dst; b = ptr slot; c = field.
        Op::LoadLocal { dst, ptr, field } => {
            let mut st = blank(
                checked!(load_local, check),
                cost.local_mem_ns,
                site,
                K::LoadLocal,
            );
            st.a = *dst;
            st.b = *ptr;
            st.c = *field;
            st
        }
        // a = dst; b = ptr slot; c = field.
        Op::LoadRemote { dst, ptr, field } => {
            let mut st = blank(checked!(load_remote, check), 0, site, K::LoadRemote);
            st.a = *dst;
            st.b = *ptr;
            st.c = *field;
            st
        }
        // b = ptr slot; c = field; x = src.
        Op::StoreLocal { ptr, field, src } => {
            let mut st = blank(
                checked!(store_local, check),
                cost.local_mem_ns,
                site,
                K::StoreLocal,
            );
            st.b = *ptr;
            st.c = *field;
            st.x = *src;
            st
        }
        // b = ptr slot; c = field; x = src.
        Op::StoreRemote { ptr, field, src } => {
            let mut st = blank(checked!(store_remote, check), 0, site, K::StoreRemote);
            st.b = *ptr;
            st.c = *field;
            st.x = *src;
            st
        }
        // a = ptr slot; b = buf base; c = off; d = words.
        Op::BlkRead {
            ptr,
            buf,
            off,
            words,
        } => {
            let mut st = blank(checked!(blk_read, check), 0, site, K::BlkRead);
            st.a = *ptr;
            st.b = *buf;
            st.c = *off;
            st.d = *words;
            st
        }
        // a = ptr slot; b = buf base; c = off; d = words.
        Op::BlkWrite {
            ptr,
            buf,
            off,
            words,
        } => {
            let mut st = blank(checked!(blk_write, check), 0, site, K::BlkWrite);
            st.a = *ptr;
            st.b = *buf;
            st.c = *off;
            st.d = *words;
            st
        }
        // a = dst base; b = src base; c = words; cost pre-multiplied.
        Op::CopySlots { dst, src, words } => {
            let mut st = blank(
                checked!(copy_slots, check),
                cost.local_op_ns * *words as u64,
                site,
                K::CopySlots,
            );
            st.a = *dst;
            st.b = *src;
            st.c = *words;
            st
        }
        // a = dst; c = words; x = node operand (malloc_on only).
        Op::Malloc { dst, words, node } => match node {
            None => {
                let mut st = blank(native::malloc_here, cost.malloc_ns, site, K::Malloc);
                st.a = *dst;
                st.c = *words;
                st
            }
            Some(o) => {
                let mut st = blank(checked!(malloc_on, check), cost.malloc_ns, site, K::Malloc);
                st.a = *dst;
                st.c = *words;
                st.x = *o;
                st
            }
        },
        // a = dst.
        Op::AllocShared { dst } => {
            let mut st = blank(native::alloc_shared, cost.malloc_ns, site, K::AllocShared);
            st.a = *dst;
            st
        }
        // a = cell slot; x = src.
        Op::AtomicWrite { cell, src } => {
            let run = if check {
                native::atomic::<true, false> as StepFn
            } else {
                native::atomic::<false, false> as StepFn
            };
            let mut st = blank(run, 0, site, K::AtomicWrite);
            st.a = *cell;
            st.x = *src;
            st
        }
        // a = cell slot; x = src.
        Op::AtomicAdd { cell, src } => {
            let run = if check {
                native::atomic::<true, true> as StepFn
            } else {
                native::atomic::<false, true> as StepFn
            };
            let mut st = blank(run, 0, site, K::AtomicAdd);
            st.a = *cell;
            st.x = *src;
            st
        }
        // a = dst; b = cell slot.
        Op::ValueOf { dst, cell } => {
            let mut st = blank(checked!(value_of, check), 0, site, K::ValueOf);
            st.a = *dst;
            st.b = *cell;
            st
        }
        // a = index into `calls`.
        Op::Call {
            dst,
            func,
            args,
            at,
        } => {
            let callee = &prog.functions[func.index()];
            nf.calls.push(NCall {
                dst: *dst,
                func: *func,
                args: args.clone().into_boxed_slice(),
                at: *at,
                bad_arity: args.len() != callee.param_slots.len(),
            });
            let mut st = blank(checked!(call, check), 0, site, K::Call);
            st.a = (nf.calls.len() - 1) as u32;
            st
        }
        // a = index into `builtins`.
        Op::Builtin { dst, which, args } => {
            nf.builtins.push(NBuiltin {
                dst: *dst,
                which: *which,
                args: args.clone().into_boxed_slice(),
            });
            let mut st = blank(checked!(builtin, check), cost.local_op_ns, site, K::Builtin);
            st.a = (nf.builtins.len() - 1) as u32;
            st
        }
        // x = value operand (ret_val) or none (ret_void).
        Op::Ret { val } => match val {
            Some(o) => {
                let mut st = blank(checked!(ret_val, check), 0, site, K::Ret);
                st.x = *o;
                st
            }
            None => blank(native::ret_void, 0, site, K::Ret),
        },
        // b = target pc.
        Op::Jmp(t) => {
            let mut st = blank(native::jmp, cost.local_op_ns, site, K::Jmp);
            st.b = *t;
            st
        }
        // b = then pc; c = else pc; x, y = operands (slot operands
        // also pre-decoded into a/d).
        Op::Br {
            op,
            a,
            b,
            then_pc,
            else_pc,
        } => {
            let xs = matches!(a, Opnd::Slot(_));
            let ys = matches!(b, Opnd::Slot(_));
            let mut st = blank(
                bopped!(br, check, op, xs, ys),
                cost.local_op_ns,
                site,
                K::Br,
            );
            st.x = *a;
            st.y = *b;
            if let Opnd::Slot(sl) = a {
                st.a = *sl;
            }
            if let Opnd::Slot(sl) = b {
                st.d = *sl;
            }
            st.bop = *op;
            st.b = *then_pc;
            st.c = *else_pc;
            st
        }
        // a = index into `switches`; x = scrutinee.
        Op::Switch {
            scrut,
            table,
            default_pc,
        } => {
            nf.switches.push(NSwitch {
                table: table.clone().into_boxed_slice(),
                default_pc: *default_pc,
            });
            let mut st = blank(
                checked!(switch_step, check),
                cost.local_op_ns,
                site,
                K::Switch,
            );
            st.a = (nf.switches.len() - 1) as u32;
            st.x = *scrut;
            st
        }
        // a = index into `forks`; b = cont pc.
        Op::Fork { arms, cont } => {
            nf.forks.push(arms.clone().into_boxed_slice());
            let mut st = blank(native::fork, 0, site, K::Fork);
            st.a = (nf.forks.len() - 1) as u32;
            st.b = *cont;
            st
        }
        // b = body pc.
        Op::SpawnIter { body } => {
            let mut st = blank(native::spawn_iter, 0, site, K::SpawnIter);
            st.b = *body;
            st
        }
        Op::JoinIters => blank(native::join_iters, 0, site, K::JoinIters),
        Op::EndArm => blank(native::end_arm, 0, site, K::EndArm),
    }
}

/// Fusion pass: rewrites every *straight-line* step that has a successor
/// to its chaining variant, which executes the op and then dispatches the
/// fall-through step in the same EU dispatch — so a whole basic block
/// runs as one threaded cascade (each call site's indirect branch
/// correlates with one specific op sequence, which the branch predictor
/// learns). Each per-pc step stays 1:1 with its op and keeps its own
/// valid entry handler, so a mid-chain stall simply parks the thread on
/// that op's pc and resumes through the normal path. Control transfers
/// (`Br`/`Jmp`/`Switch`), calls, and returns are never chain *heads*:
/// chaining through a back edge or into a callee would turn loop
/// iterations or call depth into host-stack recursion. As chain tails
/// they are fine — they hand control back to the event loop themselves.
fn fuse(nf: &mut NativeFunc, f: &crate::bytecode::CompiledFunction, pending: &[bool]) {
    for pc in 0..f.ops.len().saturating_sub(1) {
        let op1 = &f.ops[pc];
        let c1 = needs_check(op1, pending);
        let fused: Option<StepFn> = match op1 {
            Op::Mov {
                src: Opnd::Slot(_), ..
            } => Some(native::mov_slot_chain as StepFn),
            Op::Mov {
                src: Opnd::Imm(_), ..
            } => Some(native::mov_imm_chain as StepFn),
            Op::Bin { op, a, b, .. } => Some(bopped!(
                bin_chain,
                c1,
                op,
                matches!(a, Opnd::Slot(_)),
                matches!(b, Opnd::Slot(_))
            )),
            Op::Un { op, .. } => Some(match op {
                earth_ir::UnOp::Neg => checked!(un_neg_chain, c1),
                earth_ir::UnOp::Not => checked!(un_not_chain, c1),
            }),
            Op::LoadLocal { .. } => Some(checked!(load_local_chain, c1)),
            Op::LoadRemote { .. } => Some(checked!(load_remote_chain, c1)),
            Op::StoreLocal { .. } => Some(checked!(store_local_chain, c1)),
            Op::StoreRemote { .. } => Some(checked!(store_remote_chain, c1)),
            Op::BlkRead { .. } => Some(checked!(blk_read_chain, c1)),
            Op::BlkWrite { .. } => Some(checked!(blk_write_chain, c1)),
            Op::CopySlots { .. } => Some(checked!(copy_slots_chain, c1)),
            Op::Malloc { node: None, .. } => Some(native::malloc_here_chain as StepFn),
            Op::Malloc { node: Some(_), .. } => Some(checked!(malloc_on_chain, c1)),
            Op::AllocShared { .. } => Some(native::alloc_shared_chain as StepFn),
            Op::AtomicWrite { .. } => Some(if c1 {
                native::atomic_chain::<true, false> as StepFn
            } else {
                native::atomic_chain::<false, false> as StepFn
            }),
            Op::AtomicAdd { .. } => Some(if c1 {
                native::atomic_chain::<true, true> as StepFn
            } else {
                native::atomic_chain::<false, true> as StepFn
            }),
            Op::ValueOf { .. } => Some(checked!(value_of_chain, c1)),
            Op::Builtin { .. } => Some(checked!(builtin_chain, c1)),
            // Control transfers, calls, returns, and the thread-lifecycle
            // ops dispatch their own successors (or release the EU).
            Op::Call { .. }
            | Op::Ret { .. }
            | Op::Jmp(_)
            | Op::Br { .. }
            | Op::Switch { .. }
            | Op::Fork { .. }
            | Op::SpawnIter { .. }
            | Op::JoinIters
            | Op::EndArm => None,
        };
        if let Some(run) = fused {
            nf.steps[pc].run = run;
        }
    }
}
