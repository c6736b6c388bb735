//! The machine core: everything about a run except how one op is
//! decoded and evaluated.
//!
//! [`Core`] owns the simulated machine — node heaps, the cell arena that
//! holds every frame, the thread table, per-node EU accounting, the event
//! queue, statistics — and implements, once, the parts of a run that do
//! not depend on the program representation:
//!
//! * boot → event loop → [`RunResult`] ([`Core::run`]), including the
//!   ordering contract of the scheduler (events fire in `(time, seq)`
//!   order, an event whose thread is no longer `Ready` is dropped) and
//!   the EU-span prologue that charges the thread-switch cost,
//! * frame allocation in the arena and reclaim-on-return,
//! * stall and EU release accounting,
//! * every thread-protocol transition: local and remote call, `Ret` to a
//!   caller frame / the root / a remote caller, `Fork`, `SpawnIter`,
//!   `JoinIters`, `EndArm`.
//!
//! The two front ends ([`Machine`](crate::Machine), the interpreter, and
//! [`NativeMachine`](super::NativeMachine), the pre-decoded tier) wrap a
//! `Core` and hand [`Core::run`] a dispatcher that executes one EU span.
//! Transitions take plain values ([`Ctx`], [`Callee`], slots, pcs), so
//! neither `Op` nor `Step` is known here. Scheduler state (`nodes`,
//! `threads`, `events`) is private to this module: a front end cannot
//! schedule, block or wake a thread except through these methods.

use super::account::{
    ActRec, Cell, FrameStack, NodeState, ParentLink, Thread, ThreadId, ThreadState,
};
use crate::bytecode::{Opnd, Pc, Slot, NO_SITE};
use crate::machine::{MachineConfig, RunResult, SimError};
use crate::stats::{OpKind, OpStats, SiteCounters, SiteTrace, Stats};
use crate::value::{Addr, NodeHeap, NodeId, Value};
use earth_ir::FuncId;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The registers of one EU span: the running thread, its clock, and the
/// top activation record. The thread's own record of `pc` is only
/// brought up to date when the span gives up the EU.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub now: u64,
    pub span_start: u64,
    pub tid: ThreadId,
    pub node: usize,
    pub func: u32,
    pub pc: Pc,
    /// Base offset of the current frame in the cell arena.
    pub base: usize,
}

/// What a transition tells the dispatcher to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Flow {
    /// Continue dispatching at `ctx.pc`.
    Next,
    /// The EU was released (stall, block, end, or program completion).
    Release,
}

/// The error is boxed so the whole value is 16 bytes and returns in a
/// register pair instead of through a hidden out-pointer on every step —
/// errors are terminal, so the box cost is paid at most once per run.
pub(crate) type StepResult = Result<Flow, Box<SimError>>;

/// What the core needs to know about a function to enter it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Callee<'a> {
    pub func: FuncId,
    pub n_slots: u32,
    pub param_slots: &'a [Slot],
}

#[inline]
pub(crate) fn at(now: u64) -> impl Fn(String) -> Box<SimError> {
    move |message| {
        Box::new(SimError {
            time_ns: now,
            message,
        })
    }
}

thread_local! {
    /// The frame arena and thread table of the last run on this host
    /// thread, emptied. A run grows both to megabytes, blocks of that size
    /// go back to the operating system when they are freed, and the next
    /// run would fault every page in again — a tenth of the run time on
    /// the Olden kernels. Handing them from run to run keeps the pages.
    static SPARE: RefCell<(Vec<Cell>, Vec<Thread>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The machine: global address space plus per-node EUs.
#[derive(Debug)]
pub(crate) struct Core {
    pub cfg: MachineConfig,
    pub heaps: Vec<NodeHeap>,
    /// The frame arena; an [`ActRec::frame`] is a base offset in here.
    pub cells: Vec<Cell>,
    pub stats: Stats,
    pub rng: u64,
    pub output: Vec<String>,
    /// Reusable buffer: the argument values [`Core::call`] copies into
    /// the callee's frame, and block-write staging.
    pub scratch: Vec<Value>,
    nodes: Vec<NodeState>,
    threads: Vec<Thread>,
    events: BinaryHeap<Reverse<(u64, u64, ThreadId)>>,
    event_seq: u64,
    site_trace: SiteTrace,
    op_stats: OpStats,
    result: Option<Value>,
    finished_at: u64,
}

impl Core {
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.n_nodes >= 1, "need at least one node");
        Core {
            heaps: (0..cfg.n_nodes).map(|_| NodeHeap::default()).collect(),
            cells: Vec::new(),
            stats: Stats::default(),
            rng: cfg
                .seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
            output: Vec::new(),
            scratch: Vec::new(),
            nodes: vec![NodeState::default(); cfg.n_nodes as usize],
            threads: Vec::new(),
            events: BinaryHeap::new(),
            event_seq: 0,
            site_trace: SiteTrace::default(),
            op_stats: OpStats::default(),
            result: None,
            finished_at: 0,
            cfg,
        }
    }

    /// Runs `entry` (named `name` in messages) with `args` on node 0 to
    /// completion; `dispatch` executes one EU span from the given
    /// registers until the thread releases the EU.
    pub fn run(
        &mut self,
        name: &str,
        entry: Callee<'_>,
        n_sites: usize,
        args: &[Value],
        dispatch: impl FnMut(&mut Core, Ctx) -> Result<(), Box<SimError>>,
    ) -> Result<RunResult, SimError> {
        if args.len() != entry.param_slots.len() {
            return Err(SimError {
                time_ns: 0,
                message: format!(
                    "entry `{name}` expects {} arguments, got {}",
                    entry.param_slots.len(),
                    args.len()
                ),
            });
        }
        // A used machine starts from exactly the state of a fresh one.
        *self = Core::new(self.cfg.clone());
        (self.cells, self.threads) = SPARE.take();
        self.site_trace = SiteTrace::sized(n_sites, self.cfg.n_nodes as usize);
        self.scratch.extend_from_slice(args);
        let frame = self.new_frame(&entry);
        let root = ActRec {
            func: entry.func,
            pc: 0,
            frame,
            ret_slot: None,
        };
        let tid = self.new_thread(0, root, ParentLink::Root);
        self.schedule(0, tid);

        let outcome = self.simulate(dispatch);
        self.cells.clear();
        self.threads.clear();
        SPARE.set((
            std::mem::take(&mut self.cells),
            std::mem::take(&mut self.threads),
        ));
        outcome
    }

    /// The event loop, and what the run amounts to when it stops.
    fn simulate(
        &mut self,
        mut dispatch: impl FnMut(&mut Core, Ctx) -> Result<(), Box<SimError>>,
    ) -> Result<RunResult, SimError> {
        while let Some(ctx) = self.next_span() {
            dispatch(self, ctx).map_err(|e| *e)?;
            if self.result.is_some() {
                break;
            }
        }
        match self.result.take() {
            Some(ret) => Ok(RunResult {
                ret,
                time_ns: self.finished_at,
                stats: self.stats,
                output: std::mem::take(&mut self.output),
                node_busy_ns: self.nodes.iter().map(|n| n.busy_ns).collect(),
                site_trace: std::mem::take(&mut self.site_trace),
                op_stats: std::mem::take(&mut self.op_stats),
                sched_events: self.event_seq,
            }),
            // Reported at the time the last EU went idle.
            None => Err(SimError {
                time_ns: self.nodes.iter().map(|n| n.eu_free_at).max().unwrap_or(0),
                message: "deadlock: no runnable threads but the program has not finished".into(),
            }),
        }
    }

    // ---- the scheduler --------------------------------------------------

    /// Pops events in `(time, seq)` order until one names a thread that is
    /// still `Ready`, and opens that thread's EU span: it starts when both
    /// the event and the node's EU are due, plus the switch cost unless
    /// the EU last ran this same thread.
    fn next_span(&mut self) -> Option<Ctx> {
        loop {
            let Reverse((time, _, tid)) = self.events.pop()?;
            let t = &self.threads[tid as usize];
            if t.state != ThreadState::Ready {
                continue;
            }
            let node = t.node as usize;
            let rec = *t.stack.last().expect("running thread has a frame");
            let n = &mut self.nodes[node];
            let mut now = time.max(n.eu_free_at);
            if n.last_thread != Some(tid) {
                now += self.cfg.cost.switch_ns;
            }
            n.last_thread = Some(tid);
            return Some(Ctx {
                now,
                span_start: now,
                tid,
                node,
                func: rec.func.0,
                pc: rec.pc,
                base: rec.frame,
            });
        }
    }

    fn schedule(&mut self, time: u64, tid: ThreadId) {
        self.threads[tid as usize].state = ThreadState::Ready;
        self.event_seq += 1;
        self.events.push(Reverse((time, self.event_seq, tid)));
    }

    fn new_thread(&mut self, node: NodeId, root: ActRec, parent: ParentLink) -> ThreadId {
        let tid = self.threads.len() as ThreadId;
        self.threads.push(Thread {
            node,
            stack: FrameStack::new(root),
            state: ThreadState::Blocked,
            parent,
            outstanding_children: 0,
            waiting_join: false,
            writes_done_at: 0,
        });
        tid
    }

    /// Allocates `callee`'s frame at the top of the arena, its parameter
    /// slots filled from `scratch`, and returns its base offset.
    fn new_frame(&mut self, callee: &Callee<'_>) -> usize {
        let base = self.cells.len();
        self.cells.resize(
            base + callee.n_slots as usize,
            Cell {
                val: Value::Uninit,
                ready: 0,
            },
        );
        for (&slot, &val) in callee.param_slots.iter().zip(&self.scratch) {
            self.cells[base + slot as usize] = Cell { val, ready: 0 };
        }
        base
    }

    /// Gives up the EU at `ctx.now`, parking `ctx.pc` as the point where
    /// the thread resumes.
    fn release(&mut self, ctx: &Ctx) -> Flow {
        let n = &mut self.nodes[ctx.node];
        n.eu_free_at = ctx.now;
        n.busy_ns += ctx.now - ctx.span_start;
        if let Some(rec) = self.threads[ctx.tid as usize].stack.last_mut() {
            rec.pc = ctx.pc;
        }
        Flow::Release
    }

    /// The op at `ctx.pc` reads a value that is in flight until
    /// `ready_at`: charge the gap to the run and to the consuming op's
    /// site, release the EU, and retry the op when the value lands.
    pub fn stall(&mut self, ctx: &Ctx, site: u32, ready_at: u64) -> Flow {
        self.stats.stall_ns += ready_at - ctx.now;
        if let Some(sc) = self.site_mut(site, ctx.node) {
            sc.stall_ns += ready_at - ctx.now;
        }
        self.schedule(ready_at, ctx.tid);
        self.release(ctx)
    }

    /// Counts one dispatched op against the budget and the histogram.
    #[inline(always)]
    pub fn tick(&mut self, now: u64, kind: OpKind) -> Result<(), Box<SimError>> {
        self.stats.ops += 1;
        if self.stats.ops > self.cfg.max_ops {
            return self.err(now, "operation budget exceeded (infinite loop?)");
        }
        if self.cfg.record_op_stats {
            self.op_stats.bump(kind);
        }
        Ok(())
    }

    // ---- the thread protocol --------------------------------------------
    //
    // A transition that releases the EU resumes the thread at `ctx.pc`, so
    // the dispatcher moves `ctx.pc` past the op (or to the op's
    // continuation) before calling it.

    /// Calls `callee` on node `target` with the argument values in
    /// `scratch`; its return value goes to `dst` in the current frame.
    /// On this node the thread pushes a frame and keeps the EU; elsewhere
    /// it blocks until the reply of a thread spawned over there.
    pub fn call(
        &mut self,
        ctx: &mut Ctx,
        callee: Callee<'_>,
        dst: Option<Slot>,
        target: usize,
    ) -> Flow {
        let frame = self.new_frame(&callee);
        let rec = ActRec {
            func: callee.func,
            pc: 0,
            frame,
            ret_slot: None,
        };
        ctx.now += self.cfg.cost.call_ns;
        if target == ctx.node {
            let t = &mut self.threads[ctx.tid as usize];
            t.stack.last_mut().expect("caller frame").pc = ctx.pc;
            t.stack.push(ActRec {
                ret_slot: dst,
                ..rec
            });
            ctx.func = callee.func.0;
            ctx.pc = 0;
            ctx.base = frame;
            Flow::Next
        } else {
            self.stats.remote_calls += 1;
            let child = self.new_thread(target as NodeId, rec, ParentLink::Reply(ctx.tid, dst));
            self.schedule(ctx.now + self.cfg.cost.remote_call_ns, child);
            self.threads[ctx.tid as usize].state = ThreadState::Blocked;
            self.release(ctx)
        }
    }

    /// Returns `v` from the current function, whose frame is `n_slots`
    /// wide: to the caller's frame, or — from a thread's root frame — to
    /// the run (the root thread) or to the remote caller.
    pub fn ret(&mut self, ctx: &mut Ctx, v: Value, n_slots: u32) -> StepResult {
        ctx.now += self.cfg.cost.call_ns;
        let t = &mut self.threads[ctx.tid as usize];
        let popped = t.stack.pop().expect("frame");
        // Reclaim the frame when it is still the top of the arena (always
        // true for straight-line recursion), keeping memory proportional
        // to stack depth rather than total calls.
        if popped.frame + n_slots as usize == self.cells.len() {
            self.cells.truncate(popped.frame);
        }
        if let Some(caller) = t.stack.last().copied() {
            if let Some(slot) = popped.ret_slot {
                self.set_cell(caller.frame, slot, v, 0);
            }
            ctx.func = caller.func.0;
            ctx.pc = caller.pc;
            ctx.base = caller.frame;
            return Ok(Flow::Next);
        }
        t.state = ThreadState::Done;
        let writes_done_at = t.writes_done_at;
        match t.parent {
            ParentLink::Root => {
                // Completion waits for outstanding writes.
                self.finished_at = ctx.now.max(writes_done_at);
                self.result = Some(v);
            }
            ParentLink::Reply(caller, dst) => {
                let arrive = ctx.now + self.cfg.cost.remote_call_ns;
                // Completion of the callee's remote writes is covered by
                // the reply ordering on EARTH; fold it into the caller's
                // fence state.
                self.remote_write_done(caller, writes_done_at);
                if let Some(slot) = dst {
                    let ct = &self.threads[caller as usize];
                    let caller_frame = ct.stack.last().expect("caller stack").frame;
                    self.set_cell(caller_frame, slot, v, arrive);
                }
                self.schedule(arrive, caller);
            }
            ParentLink::Arm(_) => return self.err(ctx.now, "return from a parallel arm"),
        }
        Ok(self.release(ctx))
    }

    /// Spawns one thread per arm on this node, all sharing the current
    /// frame, and blocks until the last of them ends.
    pub fn fork(&mut self, ctx: &mut Ctx, arms: &[Pc]) -> Flow {
        let t = &mut self.threads[ctx.tid as usize];
        t.outstanding_children = arms.len() as u32;
        t.waiting_join = true;
        t.state = ThreadState::Blocked;
        for &pc in arms {
            ctx.now += self.cfg.cost.spawn_ns;
            self.spawn_arm(ctx, pc, ctx.base);
        }
        self.release(ctx)
    }

    /// Spawns one forall iteration at `body`. The iteration gets a copy
    /// of the current (`n_slots` wide) frame: forall bodies must not
    /// carry dependences on ordinary variables.
    pub fn spawn_iter(&mut self, ctx: &mut Ctx, body: Pc, n_slots: u32) {
        ctx.now += self.cfg.cost.spawn_ns;
        let frame = self.cells.len();
        self.cells
            .extend_from_within(ctx.base..ctx.base + n_slots as usize);
        self.threads[ctx.tid as usize].outstanding_children += 1;
        self.spawn_arm(ctx, body, frame);
    }

    fn spawn_arm(&mut self, ctx: &Ctx, pc: Pc, frame: usize) {
        self.stats.spawns += 1;
        let rec = ActRec {
            func: FuncId(ctx.func),
            pc,
            frame,
            ret_slot: None,
        };
        let child = self.new_thread(ctx.node as NodeId, rec, ParentLink::Arm(ctx.tid));
        self.schedule(ctx.now, child);
    }

    /// Waits until every outstanding forall iteration has ended.
    pub fn join_iters(&mut self, ctx: &mut Ctx) -> Flow {
        let t = &mut self.threads[ctx.tid as usize];
        if t.outstanding_children > 0 {
            t.waiting_join = true;
            t.state = ThreadState::Blocked;
            return self.release(ctx);
        }
        ctx.now += self.cfg.cost.local_op_ns;
        Flow::Next
    }

    /// Ends a parallel arm or forall iteration, waking the parent when it
    /// was the last one the parent is waiting for.
    pub fn end_arm(&mut self, ctx: &Ctx) -> Flow {
        let t = &mut self.threads[ctx.tid as usize];
        t.state = ThreadState::Done;
        let writes_done_at = t.writes_done_at;
        if let ParentLink::Arm(parent) = t.parent {
            self.remote_write_done(parent, writes_done_at);
            let pt = &mut self.threads[parent as usize];
            pt.outstanding_children -= 1;
            if pt.outstanding_children == 0 && pt.waiting_join {
                pt.waiting_join = false;
                self.schedule(ctx.now, parent);
            }
        }
        self.release(ctx)
    }

    /// Records that a remote write issued by `tid` completes at `done`
    /// (what a `fence` waits for).
    #[inline]
    pub fn remote_write_done(&mut self, tid: ThreadId, done: u64) {
        let t = &mut self.threads[tid as usize];
        t.writes_done_at = t.writes_done_at.max(done);
    }

    /// When the last remote write issued on behalf of `tid` completes.
    #[inline]
    pub fn writes_done_at(&self, tid: ThreadId) -> u64 {
        self.threads[tid as usize].writes_done_at
    }

    // ---- value plumbing -------------------------------------------------

    pub fn err<T>(&self, time: u64, message: impl Into<String>) -> Result<T, Box<SimError>> {
        Err(Box::new(SimError {
            time_ns: time,
            message: message.into(),
        }))
    }

    /// The per-(site, node) counters of `site`, when the program was
    /// compiled with site recording and the op is attributed.
    #[inline]
    pub fn site_mut(&mut self, site: u32, node: usize) -> Option<&mut SiteCounters> {
        if self.site_trace.per_site.is_empty() || site == NO_SITE {
            return None;
        }
        Some(&mut self.site_trace.per_site[site as usize][node])
    }

    #[inline]
    pub fn cell(&self, base: usize, slot: Slot) -> Cell {
        self.cells[base + slot as usize]
    }

    #[inline]
    pub fn set_cell(&mut self, base: usize, slot: Slot, val: Value, ready: u64) {
        self.cells[base + slot as usize] = Cell { val, ready };
    }

    #[inline]
    pub fn slot_ready(&self, base: usize, s: Slot) -> u64 {
        self.cells[base + s as usize].ready
    }

    #[inline]
    pub fn opnd_ready(&self, base: usize, o: &Opnd) -> u64 {
        match o {
            Opnd::Slot(s) => self.slot_ready(base, *s),
            Opnd::Imm(_) => 0,
        }
    }

    #[inline]
    pub fn opnd_val(&self, base: usize, o: &Opnd) -> Value {
        match o {
            Opnd::Slot(s) => self.cells[base + *s as usize].val,
            Opnd::Imm(v) => *v,
        }
    }

    /// The address in slot `ptr`, which a local access requires to be a
    /// pointer into this node's memory.
    pub fn expect_local_addr(&self, ctx: &Ctx, ptr: Slot) -> Result<Addr, Box<SimError>> {
        match self.cell(ctx.base, ptr).val {
            Value::Ptr(a) if a.node as usize == ctx.node => Ok(a),
            Value::Ptr(a) => self.err(
                ctx.now,
                format!(
                    "locality violation: local access to {a} from node {}",
                    ctx.node
                ),
            ),
            Value::Null => self.err(ctx.now, "local dereference of NULL"),
            other => self.err(
                ctx.now,
                format!("local dereference of non-pointer {other:?}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(n_nodes: u16) -> Core {
        Core::new(MachineConfig::with_nodes(n_nodes))
    }

    fn thread(m: &mut Core, node: NodeId) -> ThreadId {
        let rec = ActRec {
            func: FuncId(0),
            pc: 0,
            frame: 0,
            ret_slot: None,
        };
        m.new_thread(node, rec, ParentLink::Root)
    }

    fn order(m: &mut Core) -> Vec<ThreadId> {
        std::iter::from_fn(|| m.next_span().map(|ctx| ctx.tid)).collect()
    }

    #[test]
    fn events_fire_by_time_then_by_scheduling_order() {
        let mut m = core(4);
        let t: Vec<ThreadId> = (0..4).map(|node| thread(&mut m, node)).collect();
        m.schedule(7, t[2]);
        m.schedule(7, t[0]);
        m.schedule(3, t[3]);
        m.schedule(7, t[1]);
        assert_eq!(order(&mut m), [t[3], t[2], t[0], t[1]]);
    }

    #[test]
    fn an_event_for_a_thread_that_is_no_longer_ready_is_skipped() {
        let mut m = core(3);
        let t: Vec<ThreadId> = (0..3).map(|node| thread(&mut m, node)).collect();
        for (time, &tid) in t.iter().enumerate() {
            m.schedule(time as u64, tid);
        }
        m.threads[t[0] as usize].state = ThreadState::Blocked;
        m.threads[t[1] as usize].state = ThreadState::Done;
        assert_eq!(order(&mut m), [t[2]]);
    }

    #[test]
    fn eu_handover_charges_the_switch_exactly_once() {
        let mut m = core(1);
        let switch = m.cfg.cost.switch_ns;
        assert!(switch > 0);
        let (a, b) = (thread(&mut m, 0), thread(&mut m, 0));

        // An idle EU picking up a thread is a switch.
        m.schedule(0, a);
        let mut span = m.next_span().unwrap();
        assert_eq!((span.tid, span.now), (a, switch));

        // The same thread resuming on the EU it last ran on is not.
        span.now += 100;
        m.stall(&span, NO_SITE, span.now + 50);
        let mut span = m.next_span().unwrap();
        assert_eq!((span.tid, span.now), (a, switch + 150));

        // Another thread taking the EU over pays it once, after the EU
        // is free.
        span.now += 10;
        m.schedule(0, b);
        m.threads[a as usize].state = ThreadState::Done;
        m.release(&span);
        let span = m.next_span().unwrap();
        assert_eq!((span.tid, span.now), (b, switch + 160 + switch));
        assert_eq!(m.nodes[0].busy_ns, 110);
        assert!(m.next_span().is_none());
    }
}
