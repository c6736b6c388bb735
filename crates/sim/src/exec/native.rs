//! The closure-compiled execution tier.
//!
//! [`NativeMachine`] runs a pre-decoded [`NativeProgram`]: each basic
//! block executes as a chain of fused Rust functions dispatched through
//! one indirect call per step, with no per-op enum matching, no `Op`
//! clone, and no cost-model clone. Machine state, scheduling, frames and
//! the thread protocol are the [`core`](super::core)'s; the handlers
//! here implement each op's value, memory and cost effects a second
//! time, specialized by what pre-decoding proved, and
//! `tests/prop_exec.rs` and `tests/exec_sweep.rs` hold them to the
//! interpreter's results cycle for cycle and byte for byte.

use crate::bytecode::{CallAt, Opnd, Slot};
use crate::machine::{MachineConfig, RunResult, SimError};
use crate::value::{Addr, NodeId, Value};
use earth_ir::{Builtin, FuncId, UnOp};

use super::account::{eval_bin, eval_un, Cell};
use super::core::{at, Core, Ctx, Flow, StepResult};
use super::predecode::{NativeFunc, NativeProgram, Step};

/// The native-tier machine: the same machine core as
/// [`Machine`](crate::Machine), driven by pre-decoded [`NativeProgram`]s.
#[derive(Debug)]
pub struct NativeMachine {
    core: Core,
}

impl NativeMachine {
    /// Creates a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        NativeMachine {
            core: Core::new(cfg),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> u16 {
        self.core.cfg.n_nodes
    }

    /// Runs `func` (by id) with `args` on node 0 and simulates to
    /// completion. The program must have been compiled against the same
    /// cost model as this machine's config (fixed costs are baked into
    /// the step table at pre-decode time). A machine may be run any
    /// number of times; every run starts from a fresh machine state.
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's: runtime errors in the simulated
    /// program, deadlock, or exceeding the operation budget.
    pub fn run(
        &mut self,
        prog: &NativeProgram,
        func: FuncId,
        args: &[Value],
    ) -> Result<RunResult, SimError> {
        assert_eq!(
            prog.cost, self.core.cfg.cost,
            "NativeProgram compiled against a different cost model"
        );
        let cf = &prog.funcs[func.index()];
        self.core
            .run(&cf.name, cf.callee(func), prog.n_sites, args, |m, ctx| {
                run_thread(m, prog, ctx)
            })
    }
}

/// Runs the thread of the EU span `ctx` until it stalls, blocks, or
/// finishes — the native analogue of the interpreter's EU loop.
fn run_thread(m: &mut Core, prog: &NativeProgram, mut ctx: Ctx) -> Result<(), Box<SimError>> {
    loop {
        let f = &prog.funcs[ctx.func as usize];
        let step = &f.steps[ctx.pc as usize];
        m.tick(ctx.now, step.kind)?;
        match (step.run)(m, prog, f, step, &mut ctx)? {
            Flow::Next => {}
            Flow::Release => return Ok(()),
        }
    }
}

/// The fused-pair tail: dispatches the step at `ctx.pc` with the full
/// main-loop prologue (dispatch count, budget, histogram), so a fused
/// pair is observationally identical to two loop iterations.
#[inline]
fn chain(m: &mut Core, p: &NativeProgram, f: &NativeFunc, ctx: &mut Ctx) -> StepResult {
    let s2 = &f.steps[ctx.pc as usize];
    m.tick(ctx.now, s2.kind)?;
    (s2.run)(m, p, f, s2, ctx)
}

// ---- step handlers ------------------------------------------------------
//
// One handler per interpreter arm, with the same observable order of
// counter bumps, cost charges, heap touches, and error points. `CHECK`
// selects whether the readiness test was proven elidable at pre-decode
// time.

pub(crate) fn mov_slot(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let c = m.cells[ctx.base + s.b as usize];
    m.cells[ctx.base + s.a as usize] = c;
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn mov_imm(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let v = match s.x {
        Opnd::Imm(v) => v,
        Opnd::Slot(_) => unreachable!("mov_imm decoded from an immediate"),
    };
    m.set_cell(ctx.base, s.a, v, 0);
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

/// `BinOp` encoded as a const-generic parameter (enums cannot be const
/// generics yet). Must stay in sync with `predecode::bop_code`.
pub(crate) const BOP_ADD: u8 = 0;
pub(crate) const BOP_SUB: u8 = 1;
pub(crate) const BOP_MUL: u8 = 2;
pub(crate) const BOP_DIV: u8 = 3;
pub(crate) const BOP_REM: u8 = 4;
pub(crate) const BOP_EQ: u8 = 5;
pub(crate) const BOP_NE: u8 = 6;
pub(crate) const BOP_LT: u8 = 7;
pub(crate) const BOP_LE: u8 = 8;
pub(crate) const BOP_GT: u8 = 9;
pub(crate) const BOP_GE: u8 = 10;

/// The Int×Int arithmetic fast path, constant-folded per `BOP`. `None`
/// routes to [`eval_bin`] — non-int operands, pointer comparisons, and
/// division/remainder by zero — which reproduces the interpreter's
/// results and error strings exactly.
#[inline(always)]
fn bin_fast<const BOP: u8>(x: Option<i64>, y: Option<i64>) -> Option<i64> {
    let (Some(x), Some(y)) = (x, y) else {
        return None;
    };
    Some(match BOP {
        BOP_ADD => x.wrapping_add(y),
        BOP_SUB => x.wrapping_sub(y),
        BOP_MUL => x.wrapping_mul(y),
        BOP_DIV => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BOP_REM => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        BOP_EQ => (x == y) as i64,
        BOP_NE => (x != y) as i64,
        BOP_LT => (x < y) as i64,
        BOP_LE => (x <= y) as i64,
        BOP_GT => (x > y) as i64,
        BOP_GE => (x >= y) as i64,
        _ => unreachable!("bop code out of range"),
    })
}

/// Operand `o` when it is an `Int`; `SLOT` marks it pre-decoded as
/// slot `slot`, read directly without the `Opnd` match.
#[inline(always)]
fn int_opnd<const SLOT: bool>(m: &Core, base: usize, slot: Slot, o: &Opnd) -> Option<i64> {
    if SLOT {
        m.cell(base, slot).int()
    } else {
        m.opnd_int(base, o)
    }
}

/// Operand `o` as a value (see [`int_opnd`]).
#[inline(always)]
fn val_opnd<const SLOT: bool>(m: &Core, base: usize, slot: Slot, o: &Opnd) -> Value {
    if SLOT {
        m.cell(base, slot).val()
    } else {
        m.opnd_val(base, o)
    }
}

/// `XS`/`YS` mark operands pre-decoded as slots: the slot index rides in
/// a fixed `Step` field (`b`/`c` for `bin`, `a`/`d` for `br`) and the
/// cell is read directly, skipping the `Opnd` match. `false` falls back
/// to the generic operand path (immediates and mixed forms).
pub(crate) fn bin<const CHECK: bool, const BOP: u8, const XS: bool, const YS: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let rx = if XS {
            m.slot_ready(ctx.base, s.b)
        } else {
            m.opnd_ready(ctx.base, &s.x)
        };
        let ry = if YS {
            m.slot_ready(ctx.base, s.c)
        } else {
            m.opnd_ready(ctx.base, &s.y)
        };
        let r = rx.max(ry);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let x = int_opnd::<XS>(m, ctx.base, s.b, &s.x);
    let y = int_opnd::<YS>(m, ctx.base, s.c, &s.y);
    let v = match bin_fast::<BOP>(x, y) {
        Some(v) => Value::Int(v),
        None => {
            let av = val_opnd::<XS>(m, ctx.base, s.b, &s.x);
            let bv = val_opnd::<YS>(m, ctx.base, s.c, &s.y);
            eval_bin(s.bop, av, bv).map_err(at(ctx.now))?
        }
    };
    m.set_cell(ctx.base, s.a, v, 0);
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline]
fn un_impl<const CHECK: bool>(m: &mut Core, s: &Step, ctx: &mut Ctx, op: UnOp) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let av = m.opnd_val(ctx.base, &s.x);
    let v = eval_un(op, av).map_err(at(ctx.now))?;
    m.set_cell(ctx.base, s.a, v, 0);
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn un_neg<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    un_impl::<CHECK>(m, s, ctx, UnOp::Neg)
}

pub(crate) fn un_not<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    un_impl::<CHECK>(m, s, ctx, UnOp::Not)
}

pub(crate) fn load_local<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.b);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let addr = m.expect_local_addr(ctx, s.b)?;
    let v = m.heaps[addr.node as usize]
        .load(addr.index, s.c as usize)
        .map_err(at(ctx.now))?;
    m.set_cell(ctx.base, s.a, v, 0);
    m.stats.local_mem += 1;
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn load_remote<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.b);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    m.stats.read_data += 1;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8;
    }
    let c = m.cell(ctx.base, s.b);
    match c.ptr() {
        Some(addr) => {
            let v = m.heaps[addr.node as usize]
                .load(addr.index, s.c as usize)
                .map_err(at(ctx.now))?;
            if addr.node as usize == ctx.node {
                ctx.now += p.cost.pseudo_remote_ns;
                m.set_cell(ctx.base, s.a, v, 0);
            } else {
                let ready = m.ready_after(ctx.now, p.cost.read_latency_ns)?;
                ctx.now += p.cost.read_issue_ns;
                m.set_cell(ctx.base, s.a, v, ready);
            }
        }
        // Speculative read of an invalid address: tolerated, the result
        // must simply never be used.
        None if matches!(c.val(), Value::Null | Value::Uninit) => {
            let ready = m.ready_after(ctx.now, p.cost.read_latency_ns)?;
            ctx.now += p.cost.read_issue_ns;
            m.set_cell(ctx.base, s.a, Value::Uninit, ready);
        }
        None => {
            return m.err(
                ctx.now,
                format!("remote read through non-pointer {:?}", c.val()),
            );
        }
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn store_local<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m
            .slot_ready(ctx.base, s.b)
            .max(m.opnd_ready(ctx.base, &s.x));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let addr = m.expect_local_addr(ctx, s.b)?;
    let v = m.opnd_val(ctx.base, &s.x);
    m.heaps[addr.node as usize]
        .store(addr.index, s.c as usize, v)
        .map_err(at(ctx.now))?;
    m.stats.local_mem += 1;
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn store_remote<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m
            .slot_ready(ctx.base, s.b)
            .max(m.opnd_ready(ctx.base, &s.x));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    m.stats.write_data += 1;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8;
    }
    let Some(addr) = m.cell(ctx.base, s.b).as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "remote write through NULL pointer");
    };
    let v = m.opnd_val(ctx.base, &s.x);
    m.heaps[addr.node as usize]
        .store(addr.index, s.c as usize, v)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        ctx.now += p.cost.pseudo_remote_ns;
    } else {
        let done = ctx.now + p.cost.write_latency_ns;
        m.remote_write_done(ctx.tid, done);
        ctx.now += p.cost.write_issue_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn blk_read<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.a);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let words = s.d;
    m.stats.blkmov += 1;
    m.stats.blkmov_words += words as u64;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8 * words as u64;
    }
    match m.cell(ctx.base, s.a).val() {
        Value::Ptr(addr) => {
            let vals = m.heaps[addr.node as usize]
                .load_range(addr.index, s.c as usize, words as usize)
                .map_err(at(ctx.now))?;
            let (issue, latency) = if addr.node as usize == ctx.node {
                (p.cost.pseudo_remote_ns, 0)
            } else {
                (
                    p.cost.blk_issue(words as usize),
                    p.cost.blk_latency(words as usize),
                )
            };
            let ready = m.ready_after(ctx.now, latency)?;
            let dst = ctx.base + (s.b + s.c) as usize;
            for (w, v) in vals.iter().enumerate() {
                m.cells[dst + w] = Cell::new(*v, ready);
            }
            ctx.now += issue;
        }
        Value::Null | Value::Uninit => {
            let ready = m.ready_after(ctx.now, p.cost.blk_latency(words as usize))?;
            for w in s.c..s.c + words {
                m.set_cell(ctx.base, s.b + w, Value::Uninit, ready);
            }
            ctx.now += p.cost.blk_issue(words as usize);
        }
        other => return m.err(ctx.now, format!("blkmov through non-pointer {other:?}")),
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn blk_write<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let mut r = m.slot_ready(ctx.base, s.a);
        for w in s.c..s.c + s.d {
            r = r.max(m.slot_ready(ctx.base, s.b + w));
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let words = s.d;
    m.stats.blkmov += 1;
    m.stats.blkmov_words += words as u64;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8 * words as u64;
    }
    let Some(addr) = m.cell(ctx.base, s.a).as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "blkmov write through NULL pointer");
    };
    m.scratch.clear();
    for w in s.c..s.c + words {
        let v = m.cells[ctx.base + (s.b + w) as usize].val();
        m.scratch.push(v);
    }
    m.heaps[addr.node as usize]
        .store_range(addr.index, s.c as usize, &m.scratch)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        ctx.now += p.cost.pseudo_remote_ns;
    } else {
        let done = ctx.now + p.cost.blk_latency(words as usize);
        m.remote_write_done(ctx.tid, done);
        ctx.now += p.cost.blk_issue(words as usize);
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn copy_slots<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let mut r = 0u64;
        for w in 0..s.c {
            r = r.max(m.slot_ready(ctx.base, s.b + w));
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    // Forward element-by-element copy, exactly like the interpreter:
    // overlapping ranges read freshly-written values.
    for w in 0..s.c {
        let v = m.cells[ctx.base + (s.b + w) as usize];
        m.cells[ctx.base + (s.a + w) as usize] = v;
    }
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn malloc_here(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let index = m.heaps[ctx.node].alloc(s.c as usize);
    m.set_cell(
        ctx.base,
        s.a,
        Value::Ptr(Addr {
            node: ctx.node as NodeId,
            index,
        }),
        0,
    );
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn malloc_on<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let n = m.opnd_val(ctx.base, &s.x).as_int().map_err(at(ctx.now))?;
    let target = n.rem_euclid(m.cfg.n_nodes as i64) as NodeId;
    let index = m.heaps[target as usize].alloc(s.c as usize);
    m.set_cell(
        ctx.base,
        s.a,
        Value::Ptr(Addr {
            node: target,
            index,
        }),
        0,
    );
    ctx.now += s.cost;
    if target as usize != ctx.node {
        ctx.now += p.cost.write_issue_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn alloc_shared(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let index = m.heaps[ctx.node].alloc(1);
    m.heaps[ctx.node]
        .store(index, 0, Value::Int(0))
        .expect("fresh cell");
    m.set_cell(
        ctx.base,
        s.a,
        Value::Ptr(Addr {
            node: ctx.node as NodeId,
            index,
        }),
        0,
    );
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn atomic<const CHECK: bool, const ADD: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m
            .slot_ready(ctx.base, s.a)
            .max(m.opnd_ready(ctx.base, &s.x));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let Some(addr) = m.cell(ctx.base, s.a).as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "atomic op on unallocated shared cell");
    };
    let v = m.opnd_val(ctx.base, &s.x);
    let new = if ADD {
        let old = m.heaps[addr.node as usize]
            .load(addr.index, 0)
            .map_err(at(ctx.now))?;
        Value::Int(old.as_int().map_err(at(ctx.now))? + v.as_int().map_err(at(ctx.now))?)
    } else {
        v
    };
    m.heaps[addr.node as usize]
        .store(addr.index, 0, new)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        m.stats.local_mem += 1;
        ctx.now += p.cost.local_mem_ns;
    } else {
        m.stats.atomic_remote += 1;
        ctx.now += p.cost.atomic_remote_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn value_of<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.b);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let Some(addr) = m.cell(ctx.base, s.b).as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "valueof on unallocated shared cell");
    };
    let v = m.heaps[addr.node as usize]
        .load(addr.index, 0)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        m.stats.local_mem += 1;
        m.set_cell(ctx.base, s.a, v, 0);
        ctx.now += p.cost.local_mem_ns;
    } else {
        m.stats.atomic_remote += 1;
        let ready = m.ready_after(ctx.now, p.cost.atomic_latency_ns)?;
        m.set_cell(ctx.base, s.a, v, ready);
        ctx.now += p.cost.atomic_remote_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn call<const CHECK: bool>(
    m: &mut Core,
    p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let nc = &f.calls[s.a as usize];
    if CHECK {
        let mut r = 0u64;
        for a in nc.args.iter() {
            r = r.max(m.opnd_ready(ctx.base, a));
        }
        match nc.at {
            CallAt::OwnerOf(slot) => r = r.max(m.slot_ready(ctx.base, slot)),
            CallAt::Node(o) => r = r.max(m.opnd_ready(ctx.base, &o)),
            CallAt::Local => {}
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let callee = &p.funcs[nc.func.index()];
    if nc.bad_arity {
        return m.err(ctx.now, format!("arity mismatch calling `{}`", callee.name));
    }
    let target: usize = match nc.at {
        CallAt::Local => ctx.node,
        CallAt::OwnerOf(slot) => match m.cell(ctx.base, slot).ptr() {
            Some(a) => a.node as usize,
            None => match m.cell(ctx.base, slot).val() {
                Value::Null => return m.err(ctx.now, "OWNER_OF(NULL)"),
                other => return m.err(ctx.now, format!("OWNER_OF of non-pointer {other:?}")),
            },
        },
        CallAt::Node(o) => {
            let n = m.opnd_val(ctx.base, &o).as_int().map_err(at(ctx.now))?;
            n.rem_euclid(m.cfg.n_nodes as i64) as usize
        }
    };
    m.scratch.clear();
    for a in nc.args.iter() {
        let v = m.opnd_val(ctx.base, a);
        m.scratch.push(v);
    }
    ctx.pc += 1;
    m.call(ctx, callee.callee(nc.func), nc.dst, target)
}

pub(crate) fn builtin<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let nb = &f.builtins[s.a as usize];
    if CHECK {
        let mut r = 0u64;
        for a in nb.args.iter() {
            r = r.max(m.opnd_ready(ctx.base, a));
        }
        if matches!(nb.which, Builtin::Fence) {
            r = r.max(m.writes_done_at(ctx.tid));
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    ctx.now += s.cost;
    let v = match nb.which {
        Builtin::Sqrt => Value::Double(
            m.opnd_val(ctx.base, &nb.args[0])
                .as_double()
                .map_err(at(ctx.now))?
                .sqrt(),
        ),
        Builtin::Fabs => Value::Double(
            m.opnd_val(ctx.base, &nb.args[0])
                .as_double()
                .map_err(at(ctx.now))?
                .abs(),
        ),
        Builtin::Rand => {
            m.rng = m
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Value::Int(((m.rng >> 33) & 0x7FFF_FFFF) as i64)
        }
        Builtin::NumNodes => Value::Int(m.cfg.n_nodes as i64),
        Builtin::MyNode => Value::Int(ctx.node as i64),
        Builtin::OwnerOf => match m.opnd_val(ctx.base, &nb.args[0]) {
            Value::Ptr(a) => Value::Int(a.node as i64),
            Value::Null => return m.err(ctx.now, "owner_of(NULL)"),
            other => return m.err(ctx.now, format!("owner_of of non-pointer {other:?}")),
        },
        Builtin::PrintInt | Builtin::PrintDouble => {
            let v = m.opnd_val(ctx.base, &nb.args[0]);
            m.output.push(format!("{v}"));
            v
        }
        // Readiness was checked against writes_done_at.
        Builtin::Fence => Value::Int(0),
    };
    m.set_cell(ctx.base, nb.dst, v, 0);
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn ret_val<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let v = m.opnd_val(ctx.base, &s.x);
    m.ret(ctx, v, f.n_slots)
}

pub(crate) fn ret_void(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    _s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    m.ret(ctx, Value::Int(0), f.n_slots)
}

pub(crate) fn jmp(
    _m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    ctx.pc = s.b;
    ctx.now += s.cost;
    Ok(Flow::Next)
}

pub(crate) fn br<const CHECK: bool, const BOP: u8, const XS: bool, const YS: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let rx = if XS {
            m.slot_ready(ctx.base, s.a)
        } else {
            m.opnd_ready(ctx.base, &s.x)
        };
        let ry = if YS {
            m.slot_ready(ctx.base, s.d)
        } else {
            m.opnd_ready(ctx.base, &s.y)
        };
        let r = rx.max(ry);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    // The fast path always yields an Int, whose truthiness cannot fail.
    let x = int_opnd::<XS>(m, ctx.base, s.a, &s.x);
    let y = int_opnd::<YS>(m, ctx.base, s.d, &s.y);
    let taken = match bin_fast::<BOP>(x, y) {
        Some(i) => i != 0,
        None => {
            let av = val_opnd::<XS>(m, ctx.base, s.a, &s.x);
            let bv = val_opnd::<YS>(m, ctx.base, s.d, &s.y);
            let v = eval_bin(s.bop, av, bv).map_err(at(ctx.now))?;
            v.truthy().map_err(at(ctx.now))?
        }
    };
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        if taken {
            sc.taken += 1;
        } else {
            sc.not_taken += 1;
        }
    }
    ctx.pc = if taken { s.b } else { s.c };
    ctx.now += s.cost;
    Ok(Flow::Next)
}

pub(crate) fn switch_step<const CHECK: bool>(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let ns = &f.switches[s.a as usize];
    let v = m.opnd_val(ctx.base, &s.x).as_int().map_err(at(ctx.now))?;
    let target = ns
        .table
        .iter()
        .find(|(k, _)| *k == v)
        .map(|(_, pc)| *pc)
        .unwrap_or(ns.default_pc);
    ctx.pc = target;
    ctx.now += s.cost;
    Ok(Flow::Next)
}

pub(crate) fn fork(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    ctx.pc = s.b;
    m.fork(ctx, &f.forks[s.a as usize])
}

pub(crate) fn spawn_iter(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    m.spawn_iter(ctx, s.b, f.n_slots)?;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn join_iters(
    m: &mut Core,
    _p: &NativeProgram,
    _f: &NativeFunc,
    _s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    // The join resumes *after* the op.
    ctx.pc += 1;
    Ok(m.join_iters(ctx))
}

pub(crate) fn end_arm(
    m: &mut Core,
    _p: &NativeProgram,
    f: &NativeFunc,
    _s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    Ok(m.end_arm(ctx, f.n_slots))
}

// ---- fused pairs --------------------------------------------------------
//
// A fused handler runs its op, then dispatches the fall-through successor
// through `chain` — one EU dispatch covers the pair (or a whole chained
// run). Only the *first* step of a pair is rewritten; the successor's own
// step stays valid as a jump target and stall-resume point.

macro_rules! chained {
    ($name:ident, $inner:ident) => {
        pub(crate) fn $name(
            m: &mut Core,
            p: &NativeProgram,
            f: &NativeFunc,
            s: &Step,
            ctx: &mut Ctx,
        ) -> StepResult {
            match $inner(m, p, f, s, ctx)? {
                Flow::Next => chain(m, p, f, ctx),
                Flow::Release => Ok(Flow::Release),
            }
        }
    };
    ($name:ident, $inner:ident, const $g:ident) => {
        pub(crate) fn $name<const $g: bool>(
            m: &mut Core,
            p: &NativeProgram,
            f: &NativeFunc,
            s: &Step,
            ctx: &mut Ctx,
        ) -> StepResult {
            match $inner::<$g>(m, p, f, s, ctx)? {
                Flow::Next => chain(m, p, f, ctx),
                Flow::Release => Ok(Flow::Release),
            }
        }
    };
}

pub(crate) fn bin_chain<const CHECK: bool, const BOP: u8, const XS: bool, const YS: bool>(
    m: &mut Core,
    p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    match bin::<CHECK, BOP, XS, YS>(m, p, f, s, ctx)? {
        Flow::Next => chain(m, p, f, ctx),
        Flow::Release => Ok(Flow::Release),
    }
}

pub(crate) fn atomic_chain<const CHECK: bool, const ADD: bool>(
    m: &mut Core,
    p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    match atomic::<CHECK, ADD>(m, p, f, s, ctx)? {
        Flow::Next => chain(m, p, f, ctx),
        Flow::Release => Ok(Flow::Release),
    }
}

chained!(mov_slot_chain, mov_slot);
chained!(mov_imm_chain, mov_imm);
chained!(malloc_here_chain, malloc_here);
chained!(alloc_shared_chain, alloc_shared);
chained!(un_neg_chain, un_neg, const CHECK);
chained!(un_not_chain, un_not, const CHECK);
chained!(load_local_chain, load_local, const CHECK);
chained!(load_remote_chain, load_remote, const CHECK);
chained!(store_local_chain, store_local, const CHECK);
chained!(store_remote_chain, store_remote, const CHECK);
chained!(blk_read_chain, blk_read, const CHECK);
chained!(blk_write_chain, blk_write, const CHECK);
chained!(copy_slots_chain, copy_slots, const CHECK);
chained!(malloc_on_chain, malloc_on, const CHECK);
chained!(value_of_chain, value_of, const CHECK);
chained!(builtin_chain, builtin, const CHECK);
