//! Communication selection (the paper's §4.2).
//!
//! Consumes the possible-placement sets and produces a transformation
//! [`Plan`]:
//!
//! 1. **Blocking** — for each pointer `p`, maximal *spans* of statements in
//!    one statement sequence where `*p` is accessed only directly through
//!    `p` (no aliased or callee accesses, `p` not redefined) are found. If
//!    the cost model favours it, the whole struct is fetched into a local
//!    buffer (`bcomm`) with one `blkmov`, every direct access in the span is
//!    rewritten to a local buffer access, and — if the span contains writes
//!    — a single `blkmov` writes the buffer back at the end of the span.
//!    This subsumes the paper's RemoteFill mechanism: the up-front
//!    whole-struct read guarantees every field is filled before the blocked
//!    write-back, and rewriting *all* direct accesses (reads and writes)
//!    preserves read-after-write semantics inside the span.
//! 2. **Pipelined reads + redundancy elimination** — a top-down traversal
//!    with a hash table of already-issued operations (keyed by original
//!    access label, exactly as in the paper): at the earliest program point
//!    where a read tuple is placeable with frequency ≥ 1, a split-phase
//!    read into a `comm` temporary is inserted and every covered original
//!    access is rewritten to use the temporary.
//!
//! Remote writes are only moved when it enables blocking (the paper's
//! policy: "for remote writes, the communication is delayed if this
//! enables blocked communication").

use crate::config::{CommOptConfig, SpanEvidence, SpanFrequency};
use crate::motion::{Motion, MotionKind, MotionLog, ProbJustification};
use crate::placement::Placement;
use earth_analysis::{AccessKind, FunctionAnalysis, ProbFacts};
use earth_ir::{
    Basic, BlkDir, FieldId, Function, Label, MemRef, Place, Program, Rvalue, Stmt, StmtKind, Ty,
    VarDecl, VarId, VarOrigin,
};
use earth_profile::FuncProfile;
use std::collections::HashMap;

/// How a single original remote access is rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replace {
    /// `dst = p~>f` becomes `dst = temp` (the read was issued earlier).
    ReadToTemp(VarId),
    /// `dst = p~>f` becomes `dst = buf.f` (covered by a block move).
    ReadToBuf(VarId),
    /// `p~>f = v` becomes `buf.f = v` (flushed by a block write-back).
    WriteToBuf(VarId),
}

/// Counters describing what selection decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Number of blocked spans (each contributes one `blkmov` read).
    pub blocked_spans: usize,
    /// Number of blocked spans that also write back.
    pub blocked_writebacks: usize,
    /// Number of pipelined `comm = p~>f` reads inserted.
    pub pipelined_reads: usize,
    /// Number of original read statements rewritten (to temps or buffers).
    pub reads_rewritten: usize,
    /// Number of original write statements rewritten to buffer stores.
    pub writes_rewritten: usize,
    /// Number of blocking decisions where the measured profile reversed
    /// the static cost-model choice (profile-guided runs only).
    pub pgo_flips: usize,
    /// Number of blocked spans unlocked by the pointer-induction cost
    /// relaxation (prob-alias mode only): spans the static threshold would
    /// have left pipelined.
    pub induction_blocks: usize,
}

/// The output of communication selection: edits for the transformer.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// New basic statements to insert just before the given statement.
    pub inserts_before: HashMap<Label, Vec<Basic>>,
    /// New basic statements to insert just after the given statement.
    pub inserts_after: HashMap<Label, Vec<Basic>>,
    /// Rewrites of original remote accesses.
    pub replace: HashMap<Label, Replace>,
    /// Summary counters.
    pub stats: SelectionStats,
    /// Record of every motion, for the translation validator and debugging.
    pub motion: MotionLog,
}

/// Runs communication selection for `func` (which must belong to `prog`),
/// adding communication temporaries and block buffers to `func` and
/// returning the edit plan.
pub fn select(
    prog: &Program,
    func: &mut Function,
    fa: &FunctionAnalysis,
    placement: &Placement,
    cfg: &CommOptConfig,
) -> Plan {
    select_with(prog, func, fa, placement, cfg, None, None)
}

/// [`select`] with an optional measured profile and optional probability
/// annotations (`--alias prob`). When the profiled run covered this
/// function, [`CommOptConfig::should_block`] decides on the span's
/// measured execution count ([`SpanFrequency::Measured`]) instead of the
/// static threshold gate, and [`SelectionStats::pgo_flips`] counts the
/// decisions that changed. The facts change exactly one decision class: a
/// span whose pointer is a recognized loop induction (`p = p->f` once per
/// iteration) is decided on the loop's continue probability
/// ([`SpanFrequency::Induction`]: the cost model, discounted by it)
/// instead of the static threshold gate, and such motions carry a
/// [`ProbJustification`] that the `earth-lint` validator independently
/// re-derives. Span *safety* (conflict checks, terminal detection) is
/// identical in both modes.
pub fn select_with(
    prog: &Program,
    func: &mut Function,
    fa: &FunctionAnalysis,
    placement: &Placement,
    cfg: &CommOptConfig,
    profile: Option<&FuncProfile>,
    facts: Option<&ProbFacts>,
) -> Plan {
    let bound = func.label_bound();
    let mut sel = Selector {
        prog,
        fa,
        cfg,
        // Feedback only applies where the profiling run reached: a
        // function with no matched sites falls back to the static model.
        profile: profile.filter(|v| v.matched() > 0),
        facts,
        plan: Plan::default(),
        covered: vec![false; bound],
        extent: vec![(0, 0); bound],
        comm_counter: 0,
        buf_counter: 0,
        accesses: Vec::new(),
        fields: Vec::new(),
        order: Vec::new(),
        live: Vec::new(),
    };
    // Selection adds variables to `func` while it walks the body, which it
    // never edits: the body steps aside for the walk.
    let body = std::mem::replace(
        &mut func.body,
        Stmt {
            label: Label(0),
            kind: StmtKind::Seq(Vec::new()),
        },
    );
    number(&body, &mut 0, &mut sel.extent);
    if cfg.enable_blocking {
        sel.block_spans(func, placement, &body, None);
    }
    if cfg.enable_motion || cfg.enable_redundancy_elim {
        sel.pipelined_reads(func, placement, &body);
    }
    func.body = body;
    sel.plan
}

/// Numbers the statements of `s` in pre-order from `*next`, recording for
/// each label its own number and the number just past its subtree.
fn number(s: &Stmt, next: &mut u32, extent: &mut [(u32, u32)]) {
    let own = *next;
    *next += 1;
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
            ss.iter().for_each(|c| number(c, next, extent));
        }
        StmtKind::Basic(_) => {}
        StmtKind::If { then_s, else_s, .. } => {
            number(then_s, next, extent);
            number(else_s, next, extent);
        }
        StmtKind::Switch { cases, default, .. } => {
            cases.iter().for_each(|(_, c)| number(c, next, extent));
            number(default, next, extent);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            number(body, next, extent);
        }
        StmtKind::Forall {
            init, step, body, ..
        } => {
            number(init, next, extent);
            number(step, next, extent);
            number(body, next, extent);
        }
    }
    extent[s.label.0 as usize] = (own, *next);
}

struct Selector<'a> {
    prog: &'a Program,
    fa: &'a FunctionAnalysis,
    cfg: &'a CommOptConfig,
    profile: Option<&'a FuncProfile>,
    facts: Option<&'a ProbFacts>,
    plan: Plan,
    /// Indexed by label: original accesses already rewritten.
    covered: Vec<bool>,
    /// Indexed by label: the statement's pre-order number and the number
    /// just past its subtree, so "is `l` inside `s`" is two comparisons.
    extent: Vec<(u32, u32)>,
    comm_counter: u32,
    buf_counter: u32,
    // Scratch buffers, each cleared by its one user before use.
    /// [`try_span`](Self::try_span): the accesses of the span.
    accesses: Vec<SpanAccess>,
    /// [`distinct_fields`](Self::distinct_fields): the fields being counted.
    fields: Vec<FieldId>,
    /// [`consider_anchor`](Self::consider_anchor): the issue order of a
    /// set's tuples.
    order: Vec<u32>,
    /// [`consider_anchor`](Self::consider_anchor): a tuple's labels not yet
    /// covered.
    live: Vec<Label>,
}

/// A direct remote access via one pointer found inside a span.
#[derive(Debug, Clone, Copy)]
struct SpanAccess {
    label: Label,
    field: FieldId,
    is_write: bool,
}

impl Selector<'_> {
    // ====================== Phase A: blocking ======================

    /// Recursively processes every statement sequence, detecting blockable
    /// spans among its children. `enclosing_loop` is the label of the
    /// innermost `while`/`do-while` the sequence sits in — the scope in
    /// which a pointer-induction fact can justify the blocking relaxation.
    fn block_spans(
        &mut self,
        func: &mut Function,
        placement: &Placement,
        s: &Stmt,
        enclosing_loop: Option<Label>,
    ) {
        if let StmtKind::Seq(children) = &s.kind {
            self.block_spans_in_seq(func, placement, children, enclosing_loop);
        }
        match &s.kind {
            StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
                for c in ss {
                    self.block_spans(func, placement, c, enclosing_loop);
                }
            }
            StmtKind::Basic(_) => {}
            StmtKind::If { then_s, else_s, .. } => {
                self.block_spans(func, placement, then_s, enclosing_loop);
                self.block_spans(func, placement, else_s, enclosing_loop);
            }
            StmtKind::Switch { cases, default, .. } => {
                for (_, cs) in cases {
                    self.block_spans(func, placement, cs, enclosing_loop);
                }
                self.block_spans(func, placement, default, enclosing_loop);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                self.block_spans(func, placement, body, Some(s.label))
            }
            StmtKind::Forall { body, .. } => self.block_spans(func, placement, body, None),
        }
    }

    /// The induction justification available for a span on pointer `p`
    /// inside `enclosing_loop`, if the prob-alias facts recognized one.
    fn induction_for(&self, p: VarId, enclosing_loop: Option<Label>) -> Option<ProbJustification> {
        let facts = self.facts?;
        let loop_label = enclosing_loop?;
        let ind = facts.induction_at(loop_label, p)?;
        Some(ProbJustification {
            loop_label,
            advance_label: ind.advance_label,
            field: ind.field,
            prob: facts.branch_prob(loop_label)?,
        })
    }

    fn block_spans_in_seq(
        &mut self,
        func: &mut Function,
        placement: &Placement,
        children: &[Stmt],
        enclosing_loop: Option<Label>,
    ) {
        // Candidate pointers: bases of direct remote derefs in the children,
        // in order of first appearance.
        let mut candidates: Vec<VarId> = Vec::new();
        for c in children {
            for h in self
                .fa
                .rw
                .get(c.label)
                .heap_reads
                .iter()
                .chain(self.fa.rw.get(c.label).heap_writes.iter())
            {
                if h.direct && func.deref_is_remote(h.base) && !candidates.contains(&h.base) {
                    candidates.push(h.base);
                }
            }
        }
        for p in candidates {
            let mut k = 0;
            while k < children.len() {
                match self.try_span(func, placement, children, p, k, enclosing_loop) {
                    Some(next_k) => k = next_k,
                    None => break,
                }
            }
        }
    }

    /// Attempts to build one blocked span for pointer `p` starting at or
    /// after child index `from`. Returns the index to continue scanning
    /// from, or `None` when no further direct access to `p` exists.
    fn try_span(
        &mut self,
        func: &mut Function,
        placement: &Placement,
        children: &[Stmt],
        p: VarId,
        from: usize,
        enclosing_loop: Option<Label>,
    ) -> Option<usize> {
        let mut accesses = std::mem::take(&mut self.accesses);
        accesses.clear();
        let next = self.try_span_into(
            func,
            placement,
            children,
            p,
            from,
            enclosing_loop,
            &mut accesses,
        );
        self.accesses = accesses;
        next
    }

    /// How many distinct fields `accesses` reads (or, with `writes`, writes).
    fn distinct_fields(&mut self, accesses: &[SpanAccess], writes: bool) -> usize {
        self.fields.clear();
        self.fields.extend(
            accesses
                .iter()
                .filter(|a| a.is_write == writes)
                .map(|a| a.field),
        );
        self.fields.sort_unstable();
        self.fields.dedup();
        self.fields.len()
    }

    /// [`try_span`](Self::try_span) with `accesses` (empty) as the buffer
    /// for the span's accesses.
    #[allow(clippy::too_many_arguments)]
    fn try_span_into(
        &mut self,
        func: &mut Function,
        placement: &Placement,
        children: &[Stmt],
        p: VarId,
        from: usize,
        enclosing_loop: Option<Label>,
        accesses: &mut Vec<SpanAccess>,
    ) -> Option<usize> {
        // Find the first child with an unclaimed direct access via p.
        let start = (from..children.len()).find(|&i| {
            self.has_unclaimed_direct_access(&children[i], p)
                && self.child_compatible(&children[i], p) != Compat::Conflict
        })?;

        // Extend the span.
        let mut end = start;
        let mut terminal: Option<usize> = None;
        #[allow(clippy::needless_range_loop)] // indices name span bounds
        for k in start..children.len() {
            match self.child_compatible(&children[k], p) {
                Compat::Conflict => break,
                Compat::Terminal => {
                    // A basic statement that both uses and redefines p
                    // (e.g. `p = p~>next`): include it and stop.
                    if self.has_unclaimed_direct_access(&children[k], p) {
                        terminal = Some(k);
                    }
                    break;
                }
                Compat::Ok => {
                    if self.has_unclaimed_direct_access(&children[k], p) {
                        end = k;
                    }
                }
            }
        }

        // Collect the accesses inside [start, end] + terminal.
        for child in children[start..=end]
            .iter()
            .chain(terminal.map(|t| &children[t]))
        {
            direct_accesses(child, p, &mut |a| {
                if !self.covered[a.label.0 as usize] {
                    accesses.push(a);
                }
            });
        }
        let accesses = &*accesses;
        let read_fields = self.distinct_fields(accesses, false);
        let write_fields = self.distinct_fields(accesses, true);

        let continue_at = terminal.map(|t| t + 1).unwrap_or(end + 1);
        if accesses.is_empty() {
            return Some(continue_at);
        }

        let sid = func
            .var(p)
            .ty
            .struct_id()
            .expect("deref base is a struct pointer");
        let struct_words = self.prog.struct_def(sid).size_words();
        // Partial block moves (the paper's §7 extension): only the
        // contiguous field range covering all accessed fields needs to
        // cross the network.
        let lo_field = accesses.iter().map(|a| a.field.0).min().expect("non-empty");
        let hi_field = accesses.iter().map(|a| a.field.0).max().expect("non-empty");
        let range_words = (hi_field - lo_field + 1) as usize;
        let range = if range_words == struct_words {
            None
        } else {
            Some((lo_field, range_words as u32))
        };
        // A span that writes *every* transferred word before reading any
        // needs no up-front block read (RemoteFill is trivially satisfied).
        let full_init = read_fields == 0 && write_fields == range_words;
        let span = SpanEvidence {
            read_fields,
            write_fields,
            words: range_words,
            full_init,
            freq: SpanFrequency::Static,
        };
        let static_choice = self.cfg.should_block(&span);
        let mut justification = None;
        let block = match self.profile {
            Some(view) => {
                // The span executes as a unit; any inner conditional can
                // only lower individual access counts, so the hottest
                // access measures the span.
                let execs = accesses
                    .iter()
                    .map(|a| view.execs(a.label).unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                let measured = self.cfg.should_block(&SpanEvidence {
                    freq: SpanFrequency::Measured(execs),
                    ..span
                });
                if measured != static_choice {
                    self.plan.stats.pgo_flips += 1;
                }
                measured
            }
            None => {
                // Prob-alias mode: a span on the loop's induction pointer
                // provably executes once per surviving iteration, so the
                // static threshold gate yields to the probability-weighted
                // cost model. The relaxation only ever *adds* blocking —
                // a statically profitable span stays blocked regardless.
                let induction_choice = self.induction_for(p, enclosing_loop).and_then(|j| {
                    self.cfg
                        .should_block(&SpanEvidence {
                            freq: SpanFrequency::Induction(j.prob),
                            ..span
                        })
                        .then_some(j)
                });
                if !static_choice {
                    if let Some(j) = induction_choice {
                        self.plan.stats.induction_blocks += 1;
                        justification = Some(j);
                    }
                }
                static_choice || justification.is_some()
            }
        };
        if !block {
            return Some(continue_at);
        }

        // A span with writes must not contain an early return (the
        // write-back would be skipped).
        let has_writes = write_fields > 0;
        if has_writes {
            let span_children = &children[start..=terminal.unwrap_or(end)];
            let contains_return = span_children.iter().any(|c| {
                let mut found = false;
                c.walk(&mut |st| {
                    if matches!(st.kind, StmtKind::Basic(Basic::Return(_))) {
                        found = true;
                    }
                });
                found
            });
            if contains_return {
                return Some(continue_at);
            }
        }

        // The block read dereferences p at the span start; without
        // speculation support it must be guaranteed on all paths there
        // (the paper's footnote 2).
        if !self.cfg.speculative_remote_ok && !placement.deref_guaranteed(p, children[start].label)
        {
            return Some(continue_at);
        }

        // Choose the insertion anchor for the blkmov read: hoist upwards
        // past compatible predecessors to overlap communication with
        // computation.
        let mut anchor = start;
        while anchor > 0 {
            let prev = &children[anchor - 1];
            if self.fa.var_written(p, prev.label)
                || self
                    .fa
                    .heap_conflict(p, None, prev.label, AccessKind::Write)
            {
                break;
            }
            if !self.cfg.speculative_remote_ok && !placement.deref_guaranteed(p, prev.label) {
                break;
            }
            anchor -= 1;
        }

        // Allocate the buffer and record the edits.
        self.buf_counter += 1;
        let buf = func.add_var(VarDecl {
            origin: VarOrigin::BlockBuffer,
            ..VarDecl::new(format!("bcomm{}", self.buf_counter), Ty::Struct(sid))
        });
        if !full_init {
            self.plan
                .inserts_before
                .entry(children[anchor].label)
                .or_default()
                .push(Basic::BlkMov {
                    dir: BlkDir::RemoteToLocal,
                    ptr: p,
                    buf,
                    range,
                });
            self.plan.motion.push(Motion {
                base: p,
                base_name: func.var(p).name.clone(),
                field: None,
                from_labels: accesses.iter().map(|a| a.label).collect(),
                to_label: children[anchor].label,
                before: true,
                kind: MotionKind::BlockRead,
                reason: format!(
                    "blocked span of {} direct accesses ({} read / {} written fields, \
                     {range_words} words); read hoisted {} statement(s) above the span{}",
                    accesses.len(),
                    read_fields,
                    write_fields,
                    start - anchor,
                    if justification.is_some() {
                        "; cost gate relaxed by loop pointer induction"
                    } else {
                        ""
                    }
                ),
                justification: justification.clone(),
            });
        }
        self.plan.stats.blocked_spans += 1;

        for a in accesses {
            let action = if a.is_write {
                self.plan.stats.writes_rewritten += 1;
                Replace::WriteToBuf(buf)
            } else {
                self.plan.stats.reads_rewritten += 1;
                Replace::ReadToBuf(buf)
            };
            self.plan.replace.insert(a.label, action);
            self.covered[a.label.0 as usize] = true;
        }

        if has_writes {
            self.plan.stats.blocked_writebacks += 1;
            let writeback = Basic::BlkMov {
                dir: BlkDir::LocalToRemote,
                ptr: p,
                buf,
                range,
            };
            let (wb_label, wb_before) = match terminal {
                // The terminal statement redefines p: flush before it.
                Some(t) => (children[t].label, true),
                None => (children[end].label, false),
            };
            self.plan.motion.push(Motion {
                base: p,
                base_name: func.var(p).name.clone(),
                field: None,
                from_labels: accesses
                    .iter()
                    .filter(|a| a.is_write)
                    .map(|a| a.label)
                    .collect(),
                to_label: wb_label,
                before: wb_before,
                kind: MotionKind::BlockWriteback,
                reason: if terminal.is_some() {
                    "buffered writes flushed before the span-terminal pointer advance".into()
                } else {
                    "buffered writes flushed after the last span statement".into()
                },
                justification: justification.clone(),
            });
            match terminal {
                Some(t) => self
                    .plan
                    .inserts_before
                    .entry(children[t].label)
                    .or_default()
                    .push(writeback),
                None => self
                    .plan
                    .inserts_after
                    .entry(children[end].label)
                    .or_default()
                    .push(writeback),
            }
        }

        Some(continue_at)
    }

    /// Does this child contain at least one direct remote access via `p`
    /// that has not been claimed by an earlier span?
    fn has_unclaimed_direct_access(&self, child: &Stmt, p: VarId) -> bool {
        let mut found = false;
        direct_accesses(child, p, &mut |a| {
            found |= !self.covered[a.label.0 as usize];
        });
        found
    }

    /// Classifies a child statement for span extension.
    fn child_compatible(&self, child: &Stmt, p: VarId) -> Compat {
        let rw = self.fa.rw.get(child.label);
        // Any access to p's region that is not a direct field access via p
        // itself is a conflict (aliased or callee access, or an existing
        // whole-struct blkmov).
        let aliased = rw.heap_reads.iter().chain(rw.heap_writes.iter()).any(|h| {
            self.fa.regions.connected(h.base, p) && !(h.base == p && h.direct && h.field.is_some())
        });
        if aliased {
            return Compat::Conflict;
        }
        if rw.vars_written.contains(&p) {
            // Only a basic statement that reads old p while redefining it
            // can serve as a span terminal.
            let is_terminal_basic = matches!(
                &child.kind,
                StmtKind::Basic(Basic::Assign {
                    dst: Place::Var(d),
                    src: Rvalue::Load(MemRef::Deref { base, .. }),
                }) if *d == p && *base == p
            );
            return if is_terminal_basic {
                Compat::Terminal
            } else {
                Compat::Conflict
            };
        }
        Compat::Ok
    }

    // ================ Phase B: pipelined reads ================

    /// Top-down traversal placing pipelined reads at their earliest point,
    /// with the hash table of already-issued operations.
    fn pipelined_reads(&mut self, func: &mut Function, placement: &Placement, s: &Stmt) {
        match &s.kind {
            StmtKind::Seq(ss) => {
                for child in ss {
                    self.consider_anchor(func, placement, child);
                    self.pipelined_reads(func, placement, child);
                }
            }
            StmtKind::ParSeq(ss) => {
                for child in ss {
                    self.pipelined_reads(func, placement, child);
                }
            }
            StmtKind::Basic(_) => {}
            StmtKind::If { then_s, else_s, .. } => {
                self.pipelined_reads(func, placement, then_s);
                self.pipelined_reads(func, placement, else_s);
            }
            StmtKind::Switch { cases, default, .. } => {
                for (_, cs) in cases {
                    self.pipelined_reads(func, placement, cs);
                }
                self.pipelined_reads(func, placement, default);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                self.pipelined_reads(func, placement, body)
            }
            StmtKind::Forall { body, .. } => self.pipelined_reads(func, placement, body),
        }
    }

    /// Examines the RemoteReads set just before `child` and selects
    /// candidates.
    fn consider_anchor(&mut self, func: &mut Function, placement: &Placement, child: &Stmt) {
        let Some(set) = placement.reads_before.get(&child.label) else {
            return;
        };
        let tuples = set.as_slice();
        // Issue in original program order (earliest covered access first):
        // the first access of a loop body is typically the loop-carried
        // pointer advance, and delaying its issue behind other reads would
        // lengthen the critical dependence chain.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..tuples.len() as u32);
        order.sort_unstable_by_key(|&i| {
            let t = &tuples[i as usize];
            (t.labels.first().copied(), t.base, t.field)
        });
        // Labels inside the anchor statement: tuples covering one must be
        // issued before the anchor; tuples whose uses all come later are
        // issued just after it, so they never delay the anchor's own
        // (possibly remote, possibly chain-critical) issue.
        let (enter, exit) = self.extent[child.label.0 as usize];
        let mut live = std::mem::take(&mut self.live);
        for &i in &order {
            let t = &tuples[i as usize];
            // The labels not already covered by the hash table or by
            // spans, in label order.
            live.clear();
            live.extend(
                t.labels
                    .iter()
                    .copied()
                    .filter(|l| !self.covered[l.0 as usize]),
            );
            if live.is_empty() {
                continue;
            }
            if t.freq < self.cfg.freq.placement_threshold {
                continue;
            }
            if t.speculative
                && !self.cfg.speculative_remote_ok
                && !placement.deref_guaranteed(t.base, child.label)
            {
                // The paper's footnote 2: without runtime support for
                // speculative remote reads, a hoisted dereference needs a
                // guaranteed dereference on every path from here.
                continue;
            }
            let covers_anchor = live.binary_search(&child.label).is_ok();
            if !self.cfg.enable_motion && !covers_anchor {
                // Redundancy elimination only: the read stays at its first
                // original site.
                continue;
            }
            if live.len() == 1 && covers_anchor {
                // Placing the read just before its only original site is
                // the identity transformation; leave the statement alone.
                continue;
            }
            if !self.cfg.enable_redundancy_elim && live.len() > 1 {
                // Without redundancy elimination each access keeps its own
                // operation; restrict the tuple to the anchor's own access.
                if !covers_anchor {
                    continue;
                }
                live.clear();
                live.push(child.label);
            }
            // Issue the read here.
            self.comm_counter += 1;
            let field_def = self
                .prog
                .struct_def(func.var(t.base).ty.struct_id().expect("pointer base"))
                .field(t.field);
            let comm = func.add_var(VarDecl {
                origin: VarOrigin::CommTemp,
                ..VarDecl::new(format!("comm{}", self.comm_counter), field_def.ty)
            });
            let read = Basic::Assign {
                dst: Place::Var(comm),
                src: Rvalue::Load(MemRef::Deref {
                    base: t.base,
                    field: t.field,
                }),
            };
            let before = live.iter().any(|l| {
                let at = self.extent[l.0 as usize].0;
                enter <= at && at < exit
            });
            let inserts = if before {
                &mut self.plan.inserts_before
            } else {
                &mut self.plan.inserts_after
            };
            inserts.entry(child.label).or_default().push(read);
            self.plan.motion.push(Motion {
                base: t.base,
                base_name: func.var(t.base).name.clone(),
                field: Some(t.field),
                from_labels: live.iter().copied().collect(),
                to_label: child.label,
                before,
                kind: if live.len() > 1 {
                    MotionKind::RedundantReuse
                } else {
                    MotionKind::PipelinedRead
                },
                reason: format!(
                    "read of {}~>{} (freq {:.1}) placeable here, covering {} original access(es)",
                    func.var(t.base).name,
                    field_def.name,
                    t.freq,
                    live.len()
                ),
                justification: None,
            });
            self.plan.stats.pipelined_reads += 1;
            for &l in &live {
                self.plan.replace.insert(l, Replace::ReadToTemp(comm));
                self.covered[l.0 as usize] = true;
                self.plan.stats.reads_rewritten += 1;
            }
        }
        self.order = order;
        self.live = live;
    }
}

/// Hands `visit` every direct field-level remote access via `p` in the
/// subtree of `child`.
fn direct_accesses(child: &Stmt, p: VarId, visit: &mut dyn FnMut(SpanAccess)) {
    child.walk(&mut |st| {
        if let StmtKind::Basic(Basic::Assign { dst, src }) = &st.kind {
            if let Place::Mem(MemRef::Deref { base, field }) = dst {
                if *base == p {
                    visit(SpanAccess {
                        label: st.label,
                        field: *field,
                        is_write: true,
                    });
                }
            }
            if let Rvalue::Load(MemRef::Deref { base, field }) = src {
                if *base == p {
                    visit(SpanAccess {
                        label: st.label,
                        field: *field,
                        is_write: false,
                    });
                }
            }
        }
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compat {
    Ok,
    Terminal,
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommOptConfig;
    use crate::placement::analyze_placement;
    use earth_frontend::compile;

    fn plan_for(src: &str, func: &str, cfg: &CommOptConfig) -> (Plan, Function) {
        let prog = compile(src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let fid = prog.function_by_name(func).unwrap();
        let mut f = prog.function(fid).clone();
        let placement = analyze_placement(&f, analysis.function(fid), &cfg.freq);
        let plan = select(&prog, &mut f, analysis.function(fid), &placement, cfg);
        (plan, f)
    }

    const SPAN_SRC: &str = r#"
        struct P { double a; double b; double c; };
        double f(P *p) {
            double x;
            double y;
            double z;
            x = p->a;
            y = p->b;
            z = p->c;
            return x + y + z;
        }
    "#;

    #[test]
    fn span_blocking_claims_all_access_labels() {
        let (plan, f) = plan_for(SPAN_SRC, "f", &CommOptConfig::default());
        assert_eq!(plan.stats.blocked_spans, 1);
        assert_eq!(plan.stats.reads_rewritten, 3);
        // All three loads replaced with buffer reads.
        let bufs = plan
            .replace
            .values()
            .filter(|r| matches!(r, Replace::ReadToBuf(_)))
            .count();
        assert_eq!(bufs, 3);
        // The buffer variable was added to the function.
        assert!(f.var_by_name("bcomm1").is_some());
    }

    #[test]
    fn blocking_disabled_falls_back_to_pipelining() {
        let cfg = CommOptConfig {
            enable_blocking: false,
            ..CommOptConfig::default()
        };
        let (plan, _f) = plan_for(SPAN_SRC, "f", &cfg);
        assert_eq!(plan.stats.blocked_spans, 0);
        // The first load already sits at the earliest point (identity
        // placements are skipped); the other two get comm temps there.
        assert_eq!(plan.stats.pipelined_reads, 2);
    }

    #[test]
    fn full_init_span_skips_the_block_read() {
        let src = r#"
            struct P { int a; int b; int c; };
            void init(P *p, int v) {
                p->a = v;
                p->b = v + 1;
                p->c = v + 2;
            }
        "#;
        let (plan, _f) = plan_for(src, "init", &CommOptConfig::default());
        assert_eq!(plan.stats.blocked_spans, 1);
        assert_eq!(plan.stats.blocked_writebacks, 1);
        // Only the write-back blkmov exists: one insert total.
        let total_inserts: usize = plan
            .inserts_before
            .values()
            .chain(plan.inserts_after.values())
            .map(|v| v.len())
            .sum();
        assert_eq!(total_inserts, 1, "{plan:?}");
    }

    #[test]
    fn partial_range_covers_only_accessed_cluster() {
        let src = r#"
            struct Wide { int a; int b; int c; int d; int e; int f; int g; int h; };
            int mid(Wide *w) {
                return w->c + w->d + w->e;
            }
        "#;
        let (plan, _f) = plan_for(src, "mid", &CommOptConfig::default());
        assert_eq!(plan.stats.blocked_spans, 1);
        let blk = plan
            .inserts_before
            .values()
            .flatten()
            .find_map(|b| match b {
                Basic::BlkMov { range, .. } => Some(*range),
                _ => None,
            })
            .expect("a block read");
        assert_eq!(blk, Some((2, 3)), "fields c..e");
    }

    #[test]
    fn aliased_access_splits_spans() {
        let src = r#"
            struct P { double a; double b; double c; };
            double f(P *p) {
                P *q;
                double x;
                double y;
                double z;
                q = p;
                x = p->a;
                q->b = 1.0;
                y = p->b;
                z = p->c;
                return x + y + z;
            }
        "#;
        let (plan, _f) = plan_for(src, "f", &CommOptConfig::default());
        // The aliased write via q prevents one big span over all of p's
        // accesses; at most the trailing reads could block (2 fields:
        // below threshold), so no spans at all.
        assert_eq!(plan.stats.blocked_spans, 0, "{plan:?}");
    }
}
