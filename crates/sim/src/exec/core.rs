//! The machine core: everything about a run except how one op is
//! decoded and evaluated.
//!
//! [`Core`] owns the simulated machine — node heaps, the cell arena that
//! holds every frame, the activation-record arena, the thread table,
//! per-node EU accounting, the event queue, statistics — and implements,
//! once, the parts of a run that do not depend on the program
//! representation:
//!
//! * boot → event loop → [`RunResult`] ([`Core::run`]), including the
//!   ordering contract of the scheduler (events fire in `(time, seq)`
//!   order, an event whose thread is no longer `Ready` is dropped) and
//!   the EU-span prologue that charges the thread-switch cost,
//! * frame, record and thread-slot allocation, and their recycling: a
//!   retired thread's slot, a returned-from frame and an ended forall
//!   iteration's frame copy go on free lists that the next allocation of
//!   the same kind takes from, so memory follows the live threads, not
//!   the run's history,
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
    ActRec, Cell, NodeState, ParentLink, RecId, Thread, ThreadId, ThreadState, NIL,
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

/// What a transition tells the dispatcher to do next. A full word wide,
/// for [`StepResult`]'s sake.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u64)]
pub(crate) enum Flow {
    /// Continue dispatching at `ctx.pc`.
    Next,
    /// The EU was released (stall, block, end, or program completion).
    Release,
}

/// What every step handler returns. The error is boxed (errors are
/// terminal, so the box is paid at most once per run) and [`Flow`] is a
/// word, so the value is two scalars — the variant in one word, the
/// `Flow` or the box in the other — and returns in `rax:rdx` on x86-64.
/// With a one-byte `Flow` it is also 16 bytes, but three fields (tag at
/// byte 0, `Flow` at byte 1, box at byte 8), and rustc returns it through
/// a hidden out-pointer: `mov_slot_chain` then began `mov %rdi,%rbx` and
/// ended `mov %rbx,%rax; ret`, and `value_of_chain` passed `mov %rsp,%rdi`
/// and tested `cmpb $0x1,(%rsp)` (objdump of the release build).
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
    /// The frame arena, record arena and thread table of the last run on
    /// this host thread, emptied. A run whose live set is large (treeadd
    /// keeps nearly every thread it makes alive until its tree is summed)
    /// grows them to megabytes, blocks of that size go back to the
    /// operating system when they are freed, and the next run would fault
    /// every page in again. Handing them from run to run keeps the pages.
    static SPARE: RefCell<(Vec<Cell>, Vec<ActRec>, Vec<Thread>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// `len + n` entries of an arena whose ids are packed in 32 bits: the id
/// of the first new entry, or the error that ends a run whose live set
/// outgrew the width ([`NIL`] stays reserved).
fn grow(now: u64, len: usize, n: usize, what: &str) -> Result<u32, Box<SimError>> {
    if len + n > NIL as usize {
        return Err(Box::new(SimError {
            time_ns: now,
            message: format!("{what} arena exceeds {NIL} entries"),
        }));
    }
    Ok(len as u32)
}

/// The machine: global address space plus per-node EUs.
#[derive(Debug)]
pub(crate) struct Core {
    pub cfg: MachineConfig,
    pub heaps: Vec<NodeHeap>,
    /// The frame arena; an [`ActRec::frame`] is a base offset in here.
    pub cells: Vec<Cell>,
    /// Per frame width, the first free frame of that width ([`NIL`] for
    /// none); each free frame's first cell links to the next.
    free_frames: Vec<u32>,
    pub stats: Stats,
    pub rng: u64,
    pub output: Vec<String>,
    /// Reusable buffer: the argument values [`Core::call`] copies into
    /// the callee's frame, and block-write staging.
    pub scratch: Vec<Value>,
    nodes: Vec<NodeState>,
    /// Every thread's call chain; free records are linked through `prev`.
    recs: Vec<ActRec>,
    free_rec: RecId,
    /// The thread table; free slots are linked through `top`.
    threads: Vec<Thread>,
    free_thread: ThreadId,
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
            free_frames: Vec::new(),
            stats: Stats::default(),
            rng: cfg
                .seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
            output: Vec::new(),
            scratch: Vec::new(),
            nodes: vec![NodeState::default(); cfg.n_nodes as usize],
            recs: Vec::new(),
            free_rec: NIL,
            threads: Vec::new(),
            free_thread: NIL,
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
        (self.cells, self.recs, self.threads) = SPARE.take();
        self.site_trace = SiteTrace::sized(n_sites, self.cfg.n_nodes as usize);
        self.scratch.extend_from_slice(args);
        let outcome = self.boot(entry).and_then(|()| self.simulate(dispatch));
        self.cells.clear();
        self.recs.clear();
        self.threads.clear();
        SPARE.set((
            std::mem::take(&mut self.cells),
            std::mem::take(&mut self.recs),
            std::mem::take(&mut self.threads),
        ));
        outcome
    }

    /// Makes the root thread: `entry`'s frame, filled from `scratch`, on
    /// node 0, ready at time 0.
    fn boot(&mut self, entry: Callee<'_>) -> Result<(), SimError> {
        let frame = self.new_frame(0, &entry).map_err(|e| *e)?;
        let root = ActRec::new(entry.func, 0, frame, None, NIL);
        let tid = self
            .new_thread(0, 0, root, ParentLink::Root)
            .map_err(|e| *e)?;
        self.schedule(0, tid);
        Ok(())
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
                peak_threads: self.threads.len(),
                peak_frame_cells: self.cells.len(),
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
            let t = &mut self.threads[tid as usize];
            t.queued -= 1;
            if t.state != ThreadState::Ready {
                continue;
            }
            let node = t.node as usize;
            let rec = self.recs[t.top as usize];
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
                base: rec.frame as usize,
            });
        }
    }

    fn schedule(&mut self, time: u64, tid: ThreadId) {
        let t = &mut self.threads[tid as usize];
        t.state = ThreadState::Ready;
        t.queued += 1;
        self.event_seq += 1;
        self.events.push(Reverse((time, self.event_seq, tid)));
    }

    /// A blocked thread on `node` whose call chain is `root`: a free slot
    /// of the thread table if there is one.
    fn new_thread(
        &mut self,
        now: u64,
        node: NodeId,
        root: ActRec,
        parent: ParentLink,
    ) -> Result<ThreadId, Box<SimError>> {
        let thread = Thread {
            node,
            top: self.new_rec(now, root)?,
            state: ThreadState::Blocked,
            queued: 0,
            parent,
            outstanding_children: 0,
            waiting_join: false,
            writes_done_at: 0,
        };
        if self.free_thread != NIL {
            let tid = self.free_thread;
            self.free_thread = self.threads[tid as usize].top;
            self.threads[tid as usize] = thread;
            return Ok(tid);
        }
        let tid = grow(now, self.threads.len(), 1, "thread")?;
        self.threads.push(thread);
        Ok(tid)
    }

    /// Ends `tid`, which has returned from or ended its last activation:
    /// its record and its slot go on the free lists. Its node no longer
    /// counts it as the thread the EU last ran, so the next thread to get
    /// the id pays the switch like any other new thread.
    fn retire(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid as usize];
        debug_assert_eq!(t.queued, 0, "thread {tid} retired with an event queued");
        debug_assert_eq!(
            t.outstanding_children, 0,
            "thread {tid} retired with live children"
        );
        t.state = ThreadState::Done;
        let (top, node) = (t.top, t.node as usize);
        t.top = self.free_thread;
        self.free_thread = tid;
        self.free_rec(top);
        let n = &mut self.nodes[node];
        if n.last_thread == Some(tid) {
            n.last_thread = None;
        }
    }

    fn new_rec(&mut self, now: u64, rec: ActRec) -> Result<RecId, Box<SimError>> {
        if self.free_rec != NIL {
            let id = self.free_rec;
            self.free_rec = self.recs[id as usize].prev;
            self.recs[id as usize] = rec;
            return Ok(id);
        }
        let id = grow(now, self.recs.len(), 1, "activation record")?;
        self.recs.push(rec);
        Ok(id)
    }

    fn free_rec(&mut self, id: RecId) {
        self.recs[id as usize].prev = self.free_rec;
        self.free_rec = id;
    }

    /// A frame of `n` cells with unspecified contents: a free one of that
    /// width if there is one, else new cells at the top of the arena.
    fn alloc_frame(&mut self, now: u64, n: usize) -> Result<u32, Box<SimError>> {
        if n == 0 {
            return Ok(0);
        }
        match self.free_frames.get(n) {
            Some(&base) if base != NIL => {
                self.free_frames[n] = self.cells[base as usize].link();
                Ok(base)
            }
            _ => {
                let base = grow(now, self.cells.len(), n, "frame cell")?;
                self.cells.resize(base as usize + n, Cell::UNINIT);
                Ok(base)
            }
        }
    }

    fn free_frame(&mut self, base: u32, n_slots: u32) {
        let n = n_slots as usize;
        if n == 0 {
            return;
        }
        if self.free_frames.len() <= n {
            self.free_frames.resize(n + 1, NIL);
        }
        self.cells[base as usize] = Cell::free_link(self.free_frames[n]);
        self.free_frames[n] = base;
    }

    /// Allocates `callee`'s frame, its parameter slots filled from
    /// `scratch`, and returns its base offset.
    fn new_frame(&mut self, now: u64, callee: &Callee<'_>) -> Result<u32, Box<SimError>> {
        let n = callee.n_slots as usize;
        let base = self.alloc_frame(now, n)?;
        let frame = &mut self.cells[base as usize..base as usize + n];
        frame.fill(Cell::UNINIT);
        for (&slot, &val) in callee.param_slots.iter().zip(&self.scratch) {
            frame[slot as usize] = Cell::new(val, 0);
        }
        Ok(base)
    }

    /// Closes the EU span at `ctx.now`.
    fn release_eu(&mut self, ctx: &Ctx) {
        let n = &mut self.nodes[ctx.node];
        n.eu_free_at = ctx.now;
        n.busy_ns += ctx.now - ctx.span_start;
    }

    /// Gives up the EU at `ctx.now`, parking `ctx.pc` as the point where
    /// the thread resumes.
    fn release(&mut self, ctx: &Ctx) -> Flow {
        self.release_eu(ctx);
        let top = self.threads[ctx.tid as usize].top;
        self.recs[top as usize].pc = ctx.pc;
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
    ) -> StepResult {
        let frame = self.new_frame(ctx.now, &callee)?;
        ctx.now += self.cfg.cost.call_ns;
        if target == ctx.node {
            let caller = self.threads[ctx.tid as usize].top;
            self.recs[caller as usize].pc = ctx.pc;
            let rec = ActRec::new(callee.func, 0, frame, dst, caller);
            self.threads[ctx.tid as usize].top = self.new_rec(ctx.now, rec)?;
            ctx.func = callee.func.0;
            ctx.pc = 0;
            ctx.base = frame as usize;
            Ok(Flow::Next)
        } else {
            self.stats.remote_calls += 1;
            let rec = ActRec::new(callee.func, 0, frame, None, NIL);
            let reply = ParentLink::Reply(ctx.tid, dst);
            let child = self.new_thread(ctx.now, target as NodeId, rec, reply)?;
            self.schedule(ctx.now + self.cfg.cost.remote_call_ns, child);
            self.threads[ctx.tid as usize].state = ThreadState::Blocked;
            Ok(self.release(ctx))
        }
    }

    /// Returns `v` from the current function, whose frame is `n_slots`
    /// wide and is freed: to the caller's frame, or — from a thread's root
    /// frame — to the run (the root thread) or to the remote caller, and
    /// the thread retires.
    pub fn ret(&mut self, ctx: &mut Ctx, v: Value, n_slots: u32) -> StepResult {
        ctx.now += self.cfg.cost.call_ns;
        let t = &self.threads[ctx.tid as usize];
        let (top, parent, writes_done_at) = (t.top, t.parent, t.writes_done_at);
        let popped = self.recs[top as usize];
        if popped.prev != NIL {
            self.free_frame(popped.frame, n_slots);
            self.free_rec(top);
            self.threads[ctx.tid as usize].top = popped.prev;
            let caller = self.recs[popped.prev as usize];
            if let Some(slot) = popped.ret_slot() {
                self.set_cell(caller.frame as usize, slot, v, 0);
            }
            ctx.func = caller.func.0;
            ctx.pc = caller.pc;
            ctx.base = caller.frame as usize;
            return Ok(Flow::Next);
        }
        match parent {
            ParentLink::Root => {
                // Completion waits for outstanding writes.
                self.finished_at = ctx.now.max(writes_done_at);
                self.result = Some(v);
            }
            ParentLink::Reply(caller, dst) => {
                let arrive = self.ready_after(ctx.now, self.cfg.cost.remote_call_ns)?;
                // Completion of the callee's remote writes is covered by
                // the reply ordering on EARTH; fold it into the caller's
                // fence state.
                self.remote_write_done(caller, writes_done_at);
                if let Some(slot) = dst {
                    let caller_top = self.threads[caller as usize].top;
                    let caller_frame = self.recs[caller_top as usize].frame;
                    self.set_cell(caller_frame as usize, slot, v, arrive);
                }
                self.schedule(arrive, caller);
            }
            ParentLink::Arm(_) | ParentLink::Iter(_) => {
                return self.err(ctx.now, "return from a parallel arm")
            }
        }
        self.free_frame(popped.frame, n_slots);
        self.release_eu(ctx);
        self.retire(ctx.tid);
        Ok(Flow::Release)
    }

    /// Spawns one thread per arm on this node, all sharing the current
    /// frame, and blocks until the last of them ends.
    pub fn fork(&mut self, ctx: &mut Ctx, arms: &[Pc]) -> StepResult {
        let t = &mut self.threads[ctx.tid as usize];
        t.outstanding_children = arms.len() as u32;
        t.waiting_join = true;
        t.state = ThreadState::Blocked;
        for &pc in arms {
            ctx.now += self.cfg.cost.spawn_ns;
            self.spawn_arm(ctx, pc, ParentLink::Arm(ctx.tid), ctx.base as u32)?;
        }
        Ok(self.release(ctx))
    }

    /// Spawns one forall iteration at `body`. The iteration gets a copy
    /// of the current (`n_slots` wide) frame, which it owns: forall
    /// bodies must not carry dependences on ordinary variables.
    pub fn spawn_iter(
        &mut self,
        ctx: &mut Ctx,
        body: Pc,
        n_slots: u32,
    ) -> Result<(), Box<SimError>> {
        ctx.now += self.cfg.cost.spawn_ns;
        let n = n_slots as usize;
        let frame = self.alloc_frame(ctx.now, n)?;
        self.cells
            .copy_within(ctx.base..ctx.base + n, frame as usize);
        self.threads[ctx.tid as usize].outstanding_children += 1;
        self.spawn_arm(ctx, body, ParentLink::Iter(ctx.tid), frame)
    }

    fn spawn_arm(
        &mut self,
        ctx: &Ctx,
        pc: Pc,
        parent: ParentLink,
        frame: u32,
    ) -> Result<(), Box<SimError>> {
        self.stats.spawns += 1;
        let rec = ActRec::new(FuncId(ctx.func), pc, frame, None, NIL);
        let child = self.new_thread(ctx.now, ctx.node as NodeId, rec, parent)?;
        self.schedule(ctx.now, child);
        Ok(())
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

    /// Ends a parallel arm or forall iteration of a function whose frame
    /// is `n_slots` wide, waking the parent when it was the last one the
    /// parent is waiting for. The thread retires; an iteration's frame
    /// copy is freed, an arm's borrowed frame stays its parent's.
    pub fn end_arm(&mut self, ctx: &Ctx, n_slots: u32) -> Flow {
        let t = &self.threads[ctx.tid as usize];
        let (top, writes_done_at) = (t.top, t.writes_done_at);
        debug_assert_eq!(
            self.recs[top as usize].prev, NIL,
            "an arm ends in its own frame"
        );
        let parent = match t.parent {
            ParentLink::Arm(parent) => parent,
            ParentLink::Iter(parent) => {
                self.free_frame(self.recs[top as usize].frame, n_slots);
                parent
            }
            // Only hand-assembled bytecode ends a thread that is not an
            // arm this way; it just stops.
            ParentLink::Reply(..) | ParentLink::Root => {
                self.threads[ctx.tid as usize].state = ThreadState::Done;
                return self.release(ctx);
            }
        };
        self.remote_write_done(parent, writes_done_at);
        let pt = &mut self.threads[parent as usize];
        pt.outstanding_children -= 1;
        if pt.outstanding_children == 0 && pt.waiting_join {
            pt.waiting_join = false;
            self.schedule(ctx.now, parent);
        }
        self.release_eu(ctx);
        self.retire(ctx.tid);
        Flow::Release
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

    /// `latency` after `now`, as the ready time of a value in flight:
    /// an error if it does not fit a [`Cell`].
    #[inline]
    pub fn ready_after(&self, now: u64, latency: u64) -> Result<u64, Box<SimError>> {
        match now.checked_add(latency) {
            Some(ready) if ready <= Cell::MAX_READY => Ok(ready),
            _ => self.err(
                now,
                format!("ready time {now} + {latency} ns overflows a frame cell"),
            ),
        }
    }

    #[inline]
    pub fn cell(&self, base: usize, slot: Slot) -> Cell {
        self.cells[base + slot as usize]
    }

    #[inline]
    pub fn set_cell(&mut self, base: usize, slot: Slot, val: Value, ready: u64) {
        self.cells[base + slot as usize] = Cell::new(val, ready);
    }

    #[inline]
    pub fn slot_ready(&self, base: usize, s: Slot) -> u64 {
        self.cells[base + s as usize].ready()
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
            Opnd::Slot(s) => self.cells[base + *s as usize].val(),
            Opnd::Imm(v) => *v,
        }
    }

    /// Operand `o` when it is an `Int`.
    #[inline]
    pub fn opnd_int(&self, base: usize, o: &Opnd) -> Option<i64> {
        match o {
            Opnd::Slot(s) => self.cells[base + *s as usize].int(),
            Opnd::Imm(Value::Int(v)) => Some(*v),
            Opnd::Imm(_) => None,
        }
    }

    /// The address in slot `ptr`, which a local access requires to be a
    /// pointer into this node's memory.
    #[inline]
    pub fn expect_local_addr(&self, ctx: &Ctx, ptr: Slot) -> Result<Addr, Box<SimError>> {
        match self.cell(ctx.base, ptr).ptr() {
            Some(a) if a.node as usize == ctx.node => Ok(a),
            _ => self.bad_local_addr(ctx, ptr),
        }
    }

    #[cold]
    fn bad_local_addr(&self, ctx: &Ctx, ptr: Slot) -> Result<Addr, Box<SimError>> {
        match self.cell(ctx.base, ptr).val() {
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
        let rec = ActRec::new(FuncId(0), 0, 0, None, NIL);
        m.new_thread(0, node, rec, ParentLink::Root).unwrap()
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
        let mut span = m.next_span().unwrap();
        assert_eq!((span.tid, span.now), (b, switch + 160 + switch));
        assert_eq!(m.nodes[0].busy_ns, 110);
        assert!(m.next_span().is_none());

        // A retired thread's id goes to the next new thread, which is a
        // different thread: taking over the EU from the retiree still
        // pays the switch, once.
        span.now += 20;
        m.release_eu(&span);
        m.retire(b);
        let c = thread(&mut m, 0);
        assert_eq!(c, b, "the retired slot is reused");
        m.schedule(0, c);
        let span = m.next_span().unwrap();
        assert_eq!((span.tid, span.now), (c, 2 * switch + 180 + switch));
        assert_eq!(m.nodes[0].busy_ns, 130);
        assert!(m.next_span().is_none());
    }

    #[test]
    fn retired_threads_records_and_frames_are_reused() {
        let mut m = core(1);
        let callee = Callee {
            func: FuncId(0),
            n_slots: 3,
            param_slots: &[],
        };
        let frame = m.new_frame(0, &callee).unwrap();
        m.set_cell(frame as usize, 1, Value::Int(7), 0);
        m.free_frame(frame, 3);
        assert_eq!(m.new_frame(0, &callee).unwrap(), frame);
        assert_eq!(
            m.cell(frame as usize, 1).val(),
            Value::Uninit,
            "a reused frame is fresh"
        );
        // A different width does not take it.
        m.free_frame(frame, 3);
        let wide = Callee {
            n_slots: 4,
            ..callee
        };
        assert_eq!(m.new_frame(0, &wide).unwrap(), 3);
        assert_eq!(m.new_frame(0, &callee).unwrap(), frame);
        assert_eq!(m.cells.len(), 7);

        let a = thread(&mut m, 0);
        let top = m.threads[a as usize].top;
        m.retire(a);
        assert_eq!(m.threads[a as usize].state, ThreadState::Done);
        let b = thread(&mut m, 0);
        assert_eq!((b, m.threads[b as usize].top), (a, top));
        assert_eq!((m.threads.len(), m.recs.len()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "retired with an event queued")]
    #[cfg(debug_assertions)]
    fn a_thread_with_a_queued_event_is_never_retired() {
        let mut m = core(1);
        let a = thread(&mut m, 0);
        m.schedule(5, a);
        m.retire(a);
    }

    #[test]
    fn a_ready_time_past_the_cell_width_is_an_error() {
        let m = core(1);
        assert_eq!(m.ready_after(5, 10).unwrap(), 15);
        assert_eq!(m.ready_after(0, Cell::MAX_READY).unwrap(), Cell::MAX_READY);
        let e = m.ready_after(1, Cell::MAX_READY).unwrap_err();
        assert_eq!(e.time_ns, 1);
        assert!(e.message.contains("overflows a frame cell"), "{e}");
        assert!(m.ready_after(u64::MAX, 1).is_err());
    }

    #[test]
    fn an_arena_past_32_bit_ids_is_an_error() {
        assert_eq!(grow(0, 10, 5, "frame cell").unwrap(), 10);
        assert_eq!(grow(0, NIL as usize - 1, 1, "thread").unwrap(), NIL - 1);
        let e = grow(9, NIL as usize - 2, 3, "frame cell").unwrap_err();
        assert_eq!(e.time_ns, 9);
        assert!(e.message.starts_with("frame cell arena exceeds"), "{e}");
    }
}
