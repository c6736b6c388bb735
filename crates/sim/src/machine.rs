//! The discrete-event EARTH-MANNA machine.
//!
//! Mirrors the architecture of the paper's Figure 9: each node has an
//! Execution Unit running threads non-preemptively ("the EU executes a
//! thread to completion before moving to another thread" — here, until the
//! thread stalls on a split-phase value, blocks on a join, or ends), a
//! ready queue, and local memory that is one slice of the global address
//! space. Split-phase remote operations occupy the EU for their pipelined
//! issue cost and deliver their result after the full Table-I latency;
//! threads touching a still-pending value are suspended and rescheduled at
//! the value's ready time, letting the EU run other threads meanwhile —
//! which is exactly how EARTH overlaps communication with computation.
//!
//! The simulation is deterministic: a single virtual clock, a stable event
//! order, and a seeded LCG for the `rand()` builtin.

use crate::bytecode::{CallAt, CompiledFunction, CompiledProgram, Op, Opnd, Slot, NO_SITE};
use crate::cost::CostModel;
use crate::exec::account::{eval_bin, eval_un};
use crate::exec::core::{at, Callee, Core, Ctx, Flow};
use crate::stats::{OpStats, SiteTrace, Stats};
use crate::value::{Addr, NodeId, Value};
use earth_ir::{Builtin, FuncId};
use std::fmt;

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of EARTH nodes.
    pub n_nodes: u16,
    /// Timing model.
    pub cost: CostModel,
    /// Seed for the `rand()` builtin.
    pub seed: u64,
    /// Abort after this many bytecode operations (runaway guard).
    pub max_ops: u64,
    /// Collect a per-op-kind dispatch histogram
    /// ([`RunResult::op_stats`]).
    pub record_op_stats: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_nodes: 1,
            cost: CostModel::default(),
            seed: 0x5EED_1234,
            max_ops: 2_000_000_000,
            record_op_stats: false,
        }
    }
}

impl MachineConfig {
    /// A machine with `n` nodes and default cost model.
    pub fn with_nodes(n: u16) -> Self {
        MachineConfig {
            n_nodes: n,
            ..MachineConfig::default()
        }
    }
}

/// A simulation failure (runtime error in the simulated program, deadlock,
/// or resource exhaustion).
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    /// Virtual time of the failure.
    pub time_ns: u64,
    /// Description.
    pub message: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation error at t={}ns: {}",
            self.time_ns, self.message
        )
    }
}

impl std::error::Error for SimError {}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The entry function's return value.
    pub ret: Value,
    /// Virtual completion time in nanoseconds.
    pub time_ns: u64,
    /// Operation counts.
    pub stats: Stats,
    /// Lines produced by `print_int` / `print_double`.
    pub output: Vec<String>,
    /// Per-node EU busy time in nanoseconds (index = node id); the gap to
    /// `time_ns` is idle/stall time, so this exposes load balance.
    pub node_busy_ns: Vec<u64>,
    /// Per-site, per-node event counters (empty unless the program was
    /// compiled with
    /// [`record_sites`](crate::codegen::CodegenOptions::record_sites)).
    pub site_trace: SiteTrace,
    /// Per-op-kind dispatch histogram (all zero unless the run had
    /// [`record_op_stats`](MachineConfig::record_op_stats) set).
    pub op_stats: OpStats,
    /// Events the scheduler queued over the whole run (thread wake-ups,
    /// spawns, split-phase completions). Against [`Stats::ops`] this says
    /// how much of a run is scheduling: the Olden kernels execute tens to
    /// hundreds of ops per event.
    pub sched_events: u64,
}

impl RunResult {
    /// Mean EU utilization across nodes (busy time / completion time).
    pub fn utilization(&self) -> f64 {
        if self.time_ns == 0 || self.node_busy_ns.is_empty() {
            return 0.0;
        }
        let total: u64 = self.node_busy_ns.iter().sum();
        total as f64 / (self.time_ns as f64 * self.node_busy_ns.len() as f64)
    }

    /// Load imbalance: max node busy time over mean node busy time
    /// (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.node_busy_ns.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.node_busy_ns.len() as f64;
        let max = *self.node_busy_ns.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

/// The interpreter: decodes each [`Op`] at run time, checks the
/// readiness of everything it reads, and evaluates it in its own `match`
/// arm. It is the semantic reference the pre-decoded tier
/// ([`NativeMachine`](crate::NativeMachine)) is compared against;
/// scheduler, frames and thread protocol are the shared core's.
#[derive(Debug)]
pub struct Machine {
    core: Core,
}

impl Machine {
    /// Creates a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            core: Core::new(cfg),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> u16 {
        self.core.cfg.n_nodes
    }

    /// Runs `func` (by id) with `args` on node 0 and simulates to
    /// completion. A machine may be run any number of times; every run
    /// starts from a fresh machine state.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on runtime errors in the simulated program
    /// (null dereference of a local pointer, locality violations, arity
    /// mismatches), deadlock, or exceeding the operation budget.
    pub fn run(
        &mut self,
        prog: &CompiledProgram,
        func: FuncId,
        args: &[Value],
    ) -> Result<RunResult, SimError> {
        let cf = &prog.functions[func.index()];
        let n_sites = prog.site_table.len();
        self.core
            .run(&cf.name, callee(cf, func), n_sites, args, |m, ctx| {
                run_thread(m, prog, ctx)
            })
    }
}

fn callee(f: &CompiledFunction, func: FuncId) -> Callee<'_> {
    Callee {
        func,
        n_slots: f.n_slots,
        param_slots: &f.param_slots,
    }
}

/// The earliest time every slot this op *reads* is available.
fn op_ready_at(m: &Core, ctx: &Ctx, op: &Op) -> u64 {
    let mut r = 0u64;
    let slot = |s: Slot| -> u64 { m.slot_ready(ctx.base, s) };
    let opnd = |o: &Opnd| -> u64 { m.opnd_ready(ctx.base, o) };
    match op {
        // Mov propagates pending-ness (a register rename, not a use):
        // no readiness requirement on the source.
        Op::Mov { .. } => {}
        Op::Bin { a, b, .. } => r = opnd(a).max(opnd(b)),
        Op::Un { a, .. } => r = opnd(a),
        Op::LoadLocal { ptr, .. } | Op::LoadRemote { ptr, .. } => r = slot(*ptr),
        Op::StoreLocal { ptr, src, .. } | Op::StoreRemote { ptr, src, .. } => {
            r = slot(*ptr).max(opnd(src))
        }
        Op::BlkRead { ptr, .. } => r = slot(*ptr),
        Op::BlkWrite {
            ptr,
            buf,
            off,
            words,
        } => {
            r = slot(*ptr);
            for w in *off..*off + *words {
                r = r.max(slot(buf + w));
            }
        }
        Op::CopySlots { src, words, .. } => {
            for w in 0..*words {
                r = r.max(slot(src + w));
            }
        }
        Op::Malloc { node, .. } => {
            if let Some(n) = node {
                r = opnd(n);
            }
        }
        Op::AllocShared { .. } => {}
        Op::AtomicWrite { cell, src } | Op::AtomicAdd { cell, src } => {
            r = slot(*cell).max(opnd(src))
        }
        Op::ValueOf { cell, .. } => r = slot(*cell),
        Op::Call { args, at, .. } => {
            for a in args {
                r = r.max(opnd(a));
            }
            match at {
                CallAt::OwnerOf(s) => r = r.max(slot(*s)),
                CallAt::Node(o) => r = r.max(opnd(o)),
                CallAt::Local => {}
            }
        }
        Op::Builtin { which, args, .. } => {
            for a in args {
                r = r.max(opnd(a));
            }
            if matches!(which, Builtin::Fence) {
                r = r.max(m.writes_done_at(ctx.tid));
            }
        }
        Op::Ret { val } => {
            if let Some(v) = val {
                r = opnd(v);
            }
        }
        Op::Br { a, b, .. } => r = opnd(a).max(opnd(b)),
        Op::Switch { scrut, .. } => r = opnd(scrut),
        Op::Jmp(_) | Op::Fork { .. } | Op::SpawnIter { .. } | Op::JoinIters | Op::EndArm => {}
    }
    r
}

// ---- the EU ---------------------------------------------------------

/// Runs the thread of the EU span `ctx` until it stalls, blocks, or
/// finishes. Returns when the EU is released.
fn run_thread(m: &mut Core, prog: &CompiledProgram, mut ctx: Ctx) -> Result<(), Box<SimError>> {
    let c = m.cfg.cost.clone();
    let (tid, node) = (ctx.tid, ctx.node);
    loop {
        let f = &prog.functions[ctx.func as usize];
        let op = f.ops[ctx.pc as usize].clone();
        m.tick(ctx.now, op.kind())?;
        let site = f.site_of.get(ctx.pc as usize).copied().unwrap_or(NO_SITE);
        let frame = ctx.base;

        // Stall if an input is still in flight. The stall is charged to
        // the *consuming* op's site: the statement whose input was still
        // in flight.
        let ready_at = op_ready_at(m, &ctx, &op);
        if ready_at > ctx.now {
            m.stall(&ctx, site, ready_at);
            return Ok(());
        }

        // Advance pc by default; control ops override.
        ctx.pc += 1;

        match op {
            Op::Mov { dst, src } => {
                // Copies propagate the ready time of their source: the
                // EU does not synchronize on a value just to move it
                // (the compiler would have renamed the sync slot).
                let (v, ready) = match &src {
                    Opnd::Slot(s) => {
                        let cell = m.cell(frame, *s);
                        (cell.val, cell.ready)
                    }
                    Opnd::Imm(v) => (*v, 0),
                };
                m.set_cell(frame, dst, v, ready);
                ctx.now += c.mov_ns;
            }
            Op::Bin { dst, op, a, b } => {
                let av = m.opnd_val(frame, &a);
                let bv = m.opnd_val(frame, &b);
                let v = eval_bin(op, av, bv).map_err(at(ctx.now))?;
                m.set_cell(frame, dst, v, 0);
                ctx.now += c.local_op_ns;
            }
            Op::Un { dst, op, a } => {
                let av = m.opnd_val(frame, &a);
                let v = eval_un(op, av).map_err(at(ctx.now))?;
                m.set_cell(frame, dst, v, 0);
                ctx.now += c.local_op_ns;
            }
            Op::LoadLocal { dst, ptr, field } => {
                let addr = m.expect_local_addr(&ctx, ptr)?;
                let v = m.heaps[addr.node as usize]
                    .load(addr.index, field as usize)
                    .map_err(at(ctx.now))?;
                m.set_cell(frame, dst, v, 0);
                m.stats.local_mem += 1;
                ctx.now += c.local_mem_ns;
            }
            Op::LoadRemote { dst, ptr, field } => {
                m.stats.read_data += 1;
                if let Some(sc) = m.site_mut(site, node) {
                    sc.execs += 1;
                    sc.bytes += 8;
                }
                match m.cell(frame, ptr).val {
                    Value::Ptr(addr) => {
                        let v = m.heaps[addr.node as usize]
                            .load(addr.index, field as usize)
                            .map_err(at(ctx.now))?;
                        if addr.node as usize == node {
                            ctx.now += c.pseudo_remote_ns;
                            m.set_cell(frame, dst, v, 0);
                        } else {
                            let ready = ctx.now + c.read_latency_ns;
                            ctx.now += c.read_issue_ns;
                            m.set_cell(frame, dst, v, ready);
                        }
                    }
                    // Speculative read of an invalid address: EARTH
                    // tolerates it; the result must simply never be used.
                    Value::Null | Value::Uninit => {
                        let ready = ctx.now + c.read_latency_ns;
                        ctx.now += c.read_issue_ns;
                        m.set_cell(frame, dst, Value::Uninit, ready);
                    }
                    other => {
                        return m.err(
                            ctx.now,
                            format!("remote read through non-pointer {other:?}"),
                        )
                    }
                }
            }
            Op::StoreLocal { ptr, field, src } => {
                let addr = m.expect_local_addr(&ctx, ptr)?;
                let v = m.opnd_val(frame, &src);
                m.heaps[addr.node as usize]
                    .store(addr.index, field as usize, v)
                    .map_err(at(ctx.now))?;
                m.stats.local_mem += 1;
                ctx.now += c.local_mem_ns;
            }
            Op::StoreRemote { ptr, field, src } => {
                m.stats.write_data += 1;
                if let Some(sc) = m.site_mut(site, node) {
                    sc.execs += 1;
                    sc.bytes += 8;
                }
                let Some(addr) = m.cell(frame, ptr).val.as_ptr().map_err(at(ctx.now))? else {
                    return m.err(ctx.now, "remote write through NULL pointer");
                };
                let v = m.opnd_val(frame, &src);
                m.heaps[addr.node as usize]
                    .store(addr.index, field as usize, v)
                    .map_err(at(ctx.now))?;
                if addr.node as usize == node {
                    ctx.now += c.pseudo_remote_ns;
                } else {
                    let done = ctx.now + c.write_latency_ns;
                    m.remote_write_done(tid, done);
                    ctx.now += c.write_issue_ns;
                }
            }
            Op::BlkRead {
                ptr,
                buf,
                off,
                words,
            } => {
                m.stats.blkmov += 1;
                m.stats.blkmov_words += words as u64;
                if let Some(sc) = m.site_mut(site, node) {
                    sc.execs += 1;
                    sc.bytes += 8 * words as u64;
                }
                match m.cell(frame, ptr).val {
                    Value::Ptr(addr) => {
                        let vals: Vec<Value> = m.heaps[addr.node as usize]
                            .load_range(addr.index, off as usize, words as usize)
                            .map_err(at(ctx.now))?
                            .to_vec();
                        let (issue, ready) = if addr.node as usize == node {
                            (c.pseudo_remote_ns, ctx.now)
                        } else {
                            (
                                c.blk_issue(words as usize),
                                ctx.now + c.blk_latency(words as usize),
                            )
                        };
                        for (w, v) in vals.into_iter().enumerate() {
                            m.set_cell(frame, buf + off + w as u32, v, ready);
                        }
                        ctx.now += issue;
                    }
                    Value::Null | Value::Uninit => {
                        let ready = ctx.now + c.blk_latency(words as usize);
                        for w in off..off + words {
                            m.set_cell(frame, buf + w, Value::Uninit, ready);
                        }
                        ctx.now += c.blk_issue(words as usize);
                    }
                    other => {
                        return m.err(ctx.now, format!("blkmov through non-pointer {other:?}"))
                    }
                }
            }
            Op::BlkWrite {
                ptr,
                buf,
                off,
                words,
            } => {
                m.stats.blkmov += 1;
                m.stats.blkmov_words += words as u64;
                if let Some(sc) = m.site_mut(site, node) {
                    sc.execs += 1;
                    sc.bytes += 8 * words as u64;
                }
                let Some(addr) = m.cell(frame, ptr).val.as_ptr().map_err(at(ctx.now))? else {
                    return m.err(ctx.now, "blkmov write through NULL pointer");
                };
                let vals: Vec<Value> = (off..off + words)
                    .map(|w| m.cell(frame, buf + w).val)
                    .collect();
                m.heaps[addr.node as usize]
                    .store_range(addr.index, off as usize, &vals)
                    .map_err(at(ctx.now))?;
                if addr.node as usize == node {
                    ctx.now += c.pseudo_remote_ns;
                } else {
                    let done = ctx.now + c.blk_latency(words as usize);
                    m.remote_write_done(tid, done);
                    ctx.now += c.blk_issue(words as usize);
                }
            }
            Op::CopySlots { dst, src, words } => {
                for w in 0..words {
                    let v = m.cell(frame, src + w);
                    m.set_cell(frame, dst + w, v.val, v.ready);
                }
                ctx.now += c.local_op_ns * words as u64;
            }
            Op::Malloc {
                dst,
                words,
                node: on,
            } => {
                let target = match on {
                    None => node as NodeId,
                    Some(o) => {
                        let n = m.opnd_val(frame, &o).as_int().map_err(at(ctx.now))?;

                        n.rem_euclid(m.cfg.n_nodes as i64) as NodeId
                    }
                };
                let index = m.heaps[target as usize].alloc(words as usize);
                m.set_cell(
                    frame,
                    dst,
                    Value::Ptr(Addr {
                        node: target,
                        index,
                    }),
                    0,
                );
                ctx.now += c.malloc_ns;
                if target as usize != node {
                    ctx.now += c.write_issue_ns;
                }
            }
            Op::AllocShared { dst } => {
                let index = m.heaps[node].alloc(1);
                m.heaps[node]
                    .store(index, 0, Value::Int(0))
                    .expect("fresh cell");
                m.set_cell(
                    frame,
                    dst,
                    Value::Ptr(Addr {
                        node: node as NodeId,
                        index,
                    }),
                    0,
                );
                ctx.now += c.malloc_ns;
            }
            Op::AtomicWrite { cell, src } | Op::AtomicAdd { cell, src } => {
                let is_add = matches!(op, Op::AtomicAdd { .. });
                let Some(addr) = m.cell(frame, cell).val.as_ptr().map_err(at(ctx.now))? else {
                    return m.err(ctx.now, "atomic op on unallocated shared cell");
                };
                let v = m.opnd_val(frame, &src);
                let new = if is_add {
                    let old = m.heaps[addr.node as usize]
                        .load(addr.index, 0)
                        .map_err(at(ctx.now))?;
                    Value::Int(
                        old.as_int().map_err(at(ctx.now))? + v.as_int().map_err(at(ctx.now))?,
                    )
                } else {
                    v
                };
                m.heaps[addr.node as usize]
                    .store(addr.index, 0, new)
                    .map_err(at(ctx.now))?;
                if addr.node as usize == node {
                    m.stats.local_mem += 1;
                    ctx.now += c.local_mem_ns;
                } else {
                    m.stats.atomic_remote += 1;
                    ctx.now += c.atomic_remote_ns;
                }
            }
            Op::ValueOf { dst, cell } => {
                let Some(addr) = m.cell(frame, cell).val.as_ptr().map_err(at(ctx.now))? else {
                    return m.err(ctx.now, "valueof on unallocated shared cell");
                };
                let v = m.heaps[addr.node as usize]
                    .load(addr.index, 0)
                    .map_err(at(ctx.now))?;
                if addr.node as usize == node {
                    m.stats.local_mem += 1;
                    m.set_cell(frame, dst, v, 0);
                    ctx.now += c.local_mem_ns;
                } else {
                    m.stats.atomic_remote += 1;
                    let ready = ctx.now + c.atomic_latency_ns;
                    m.set_cell(frame, dst, v, ready);
                    ctx.now += c.atomic_remote_ns;
                }
            }
            Op::Call {
                dst,
                func,
                args,
                at: place,
            } => {
                let cf = &prog.functions[func.index()];
                if args.len() != cf.param_slots.len() {
                    return m.err(ctx.now, format!("arity mismatch calling `{}`", cf.name));
                }
                let target: usize = match place {
                    CallAt::Local => node,
                    CallAt::OwnerOf(s) => match m.cell(frame, s).val {
                        Value::Ptr(a) => a.node as usize,
                        Value::Null => {
                            return m.err(ctx.now, "OWNER_OF(NULL)");
                        }
                        other => {
                            return m.err(ctx.now, format!("OWNER_OF of non-pointer {other:?}"))
                        }
                    },
                    CallAt::Node(o) => {
                        let n = m.opnd_val(frame, &o).as_int().map_err(at(ctx.now))?;
                        n.rem_euclid(m.cfg.n_nodes as i64) as usize
                    }
                };
                m.scratch.clear();
                for a in &args {
                    let v = m.opnd_val(frame, a);
                    m.scratch.push(v);
                }
                if m.call(&mut ctx, callee(cf, func), dst, target) == Flow::Release {
                    return Ok(());
                }
            }
            Op::Builtin { dst, which, args } => {
                ctx.now += c.local_op_ns;
                let v = match which {
                    Builtin::Sqrt => Value::Double(
                        m.opnd_val(frame, &args[0])
                            .as_double()
                            .map_err(at(ctx.now))?
                            .sqrt(),
                    ),
                    Builtin::Fabs => Value::Double(
                        m.opnd_val(frame, &args[0])
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
                    Builtin::MyNode => Value::Int(node as i64),
                    Builtin::OwnerOf => match m.opnd_val(frame, &args[0]) {
                        Value::Ptr(a) => Value::Int(a.node as i64),
                        Value::Null => {
                            return m.err(ctx.now, "owner_of(NULL)");
                        }
                        other => {
                            return m.err(ctx.now, format!("owner_of of non-pointer {other:?}"))
                        }
                    },
                    Builtin::PrintInt => {
                        let v = m.opnd_val(frame, &args[0]);
                        m.output.push(format!("{v}"));
                        v
                    }
                    Builtin::PrintDouble => {
                        let v = m.opnd_val(frame, &args[0]);
                        m.output.push(format!("{v}"));
                        v
                    }
                    // Readiness was checked against writes_done_at.
                    Builtin::Fence => Value::Int(0),
                };
                m.set_cell(frame, dst, v, 0);
            }
            Op::Ret { val } => {
                let v = val.map(|o| m.opnd_val(frame, &o)).unwrap_or(Value::Int(0));
                if m.ret(&mut ctx, v, f.n_slots)? == Flow::Release {
                    return Ok(());
                }
            }
            Op::Jmp(t) => {
                ctx.pc = t;
                ctx.now += c.local_op_ns;
            }
            Op::Br {
                op,
                a,
                b,
                then_pc,
                else_pc,
            } => {
                let av = m.opnd_val(frame, &a);
                let bv = m.opnd_val(frame, &b);
                let v = eval_bin(op, av, bv).map_err(at(ctx.now))?;
                let taken = v.truthy().map_err(at(ctx.now))?;
                if let Some(sc) = m.site_mut(site, node) {
                    sc.execs += 1;
                    if taken {
                        sc.taken += 1;
                    } else {
                        sc.not_taken += 1;
                    }
                }
                ctx.pc = if taken { then_pc } else { else_pc };
                ctx.now += c.local_op_ns;
            }
            Op::Switch {
                scrut,
                table,
                default_pc,
            } => {
                let v = m.opnd_val(frame, &scrut).as_int().map_err(at(ctx.now))?;
                let target = table
                    .iter()
                    .find(|(k, _)| *k == v)
                    .map(|(_, pc)| *pc)
                    .unwrap_or(default_pc);
                ctx.pc = target;
                ctx.now += c.local_op_ns;
            }
            Op::Fork { arms, cont } => {
                ctx.pc = cont;
                m.fork(&mut ctx, &arms);
                return Ok(());
            }
            Op::SpawnIter { body } => m.spawn_iter(&mut ctx, body, f.n_slots),
            Op::JoinIters => {
                if m.join_iters(&mut ctx) == Flow::Release {
                    return Ok(());
                }
            }
            Op::EndArm => {
                m.end_arm(&ctx);
                return Ok(());
            }
        }
    }
}
