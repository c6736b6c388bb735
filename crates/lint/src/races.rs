//! Parallel-soundness linter.
//!
//! EARTH-C's `forall` and `{^ ... ^}` (ParSeq) constructs *assert* that
//! their iterations/arms are independent; the compiler is allowed to run
//! them concurrently without further checking. This linter verifies the
//! assertion conservatively and classifies every parallel construct as
//! *provably independent* or *possibly racy*:
//!
//! | code     | meaning                                                       |
//! |----------|---------------------------------------------------------------|
//! | `PAR000` | per-construct verdict (note severity)                         |
//! | `PAR001` | heap write in a `forall` body may conflict across iterations  |
//! | `PAR002` | loop-carried stack dependence in a `forall` body              |
//! | `PAR003` | heap accesses of two ParSeq arms may conflict                 |
//! | `PAR004` | stack variable accessed conflictingly by two ParSeq arms      |
//!
//! Stack variables: a variable written inside a `forall` body is harmless
//! when every path writes it before reading it (it is privatizable per
//! iteration); an upward-exposed read of a written variable is a
//! loop-carried dependence. `shared` variables accessed only through the
//! atomic operations (`writeto`/`addto`/`valueof`) are exempt — the EARTH
//! runtime serializes them.
//!
//! Heap: any write to a region that another (or the same) access in a
//! concurrent iteration/arm may touch — per connection analysis
//! ([`Regions::connected`](earth_analysis::Regions)) with field overlap —
//! is reported, **except** writes through pointers freshly `malloc`ed on
//! every path of the same body/arm (iteration-private objects). Call
//! effects are included through the interprocedural summaries baked into
//! the read/write sets.

use earth_analysis::{FunctionAnalysis, ProgramAnalysis};
use earth_ir::{
    Basic, Diagnostic, FieldId, Function, Label, Operand, Place, Program, Rvalue, Stmt, StmtKind,
    VarId,
};
use std::collections::BTreeSet;

/// Which parallel construct a verdict concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelConstruct {
    /// A `forall` loop.
    Forall,
    /// A parallel statement sequence `{^ ... ^}`.
    ParSeq,
}

impl ParallelConstruct {
    /// Source-level name.
    pub fn name(self) -> &'static str {
        match self {
            ParallelConstruct::Forall => "forall",
            ParallelConstruct::ParSeq => "parallel sequence",
        }
    }
}

/// The linter's conclusion about one parallel construct.
#[derive(Debug, Clone)]
pub struct ConstructVerdict {
    /// Name of the enclosing function.
    pub func: String,
    /// Label of the `forall` or ParSeq statement.
    pub label: Label,
    /// Which construct.
    pub construct: ParallelConstruct,
    /// `true` when no conflicting access was found.
    pub independent: bool,
}

/// Everything the linter found.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// One verdict per parallel construct, in traversal order.
    pub verdicts: Vec<ConstructVerdict>,
    /// Verdict notes and race warnings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when every construct is provably independent.
    pub fn all_independent(&self) -> bool {
        self.verdicts.iter().all(|v| v.independent)
    }
}

/// Lints every function of `prog` against a precomputed (cached)
/// whole-program `analysis` (which must have been computed for `prog` as
/// passed here).
pub fn lint_program_with(prog: &Program, analysis: &ProgramAnalysis) -> LintReport {
    let mut report = LintReport::default();
    for (fid, f) in prog.iter_functions() {
        let fr = lint_function(f, analysis.function(fid));
        report.verdicts.extend(fr.verdicts);
        report
            .diagnostics
            .extend(fr.diagnostics.into_iter().map(|d| d.in_func(&f.name)));
    }
    report
}

/// Thin convenience wrapper around [`lint_program_with`] that computes the
/// analysis internally. Prefer the `_with` form inside the pass-manager
/// pipeline, where the analysis is shared through the cache.
pub fn lint_program(prog: &Program) -> LintReport {
    lint_program_with(prog, &earth_analysis::analyze(prog))
}

/// Lints one function with precomputed analysis results.
pub fn lint_function(func: &Function, fa: &FunctionAnalysis) -> LintReport {
    let mut linter = Linter {
        func,
        fa,
        report: LintReport::default(),
    };
    func.body.walk(&mut |s| match &s.kind {
        StmtKind::Forall { body, .. } => linter.check_forall(s.label, body),
        StmtKind::ParSeq(arms) => linter.check_parseq(s.label, arms),
        _ => {}
    });
    linter.report
}

struct Linter<'a> {
    func: &'a Function,
    fa: &'a FunctionAnalysis,
    report: LintReport,
}

impl Linter<'_> {
    fn check_forall(&mut self, label: Label, body: &Stmt) {
        let mut warnings = Vec::new();
        let acc = StackAccess::of(body);

        // Stack: upward-exposed reads of written variables carry values
        // between iterations.
        for &v in &acc.plain_writes {
            if first_access(body, v) == VarState::ReadFirst {
                warnings.push(
                    Diagnostic::warning(
                        "PAR002",
                        format!(
                            "`{}` is read before it is written inside this forall body: \
                             iterations are not independent",
                            self.func.var(v).name
                        ),
                    )
                    .with_label(label, "forall here")
                    .with_note(
                        "a variable must be written before any read on every path to be \
                         privatizable per iteration",
                    ),
                );
            }
        }

        // Heap: a write in the body conflicts with any connected access in
        // another iteration — including the same statement re-executed.
        warnings.extend(self.heap_conflicts(
            label,
            body,
            body,
            "PAR001",
            "across forall iterations",
        ));

        self.finish(label, ParallelConstruct::Forall, warnings);
    }

    fn check_parseq(&mut self, label: Label, arms: &[Stmt]) {
        let mut warnings = Vec::new();
        let accs: Vec<StackAccess> = arms.iter().map(StackAccess::of).collect();
        for i in 0..arms.len() {
            for j in 0..arms.len() {
                if i == j {
                    continue;
                }
                // Stack: arm i writes, arm j touches (either order; the pair
                // (i, j) with i < j covers write-write once).
                for &v in &accs[i].plain_writes {
                    let other = &accs[j];
                    let ww = other.plain_writes.contains(&v);
                    if (ww && i < j) || other.plain_reads.contains(&v) {
                        warnings.push(
                            Diagnostic::warning(
                                "PAR004",
                                format!(
                                    "`{}` is written by one arm of this parallel sequence \
                                     and {} by another",
                                    self.func.var(v).name,
                                    if ww { "written" } else { "read" }
                                ),
                            )
                            .with_label(label, "parallel sequence here")
                            .with_label(arms[i].label, "written in this arm")
                            .with_label(arms[j].label, "conflicting access in this arm"),
                        );
                    }
                }
                // Heap: writes of arm i vs. accesses of arm j.
                warnings.extend(self.heap_conflicts(
                    label,
                    &arms[i],
                    &arms[j],
                    "PAR003",
                    "between arms of this parallel sequence",
                ));
            }
        }
        self.finish(label, ParallelConstruct::ParSeq, warnings);
    }

    /// Reports heap writes of `writer` that may conflict with heap accesses
    /// of `other` running concurrently (`writer` and `other` may be the
    /// same statement: a forall body racing with itself).
    fn heap_conflicts(
        &self,
        at: Label,
        writer: &Stmt,
        other: &Stmt,
        code: &str,
        how: &str,
    ) -> Vec<Diagnostic> {
        let w_rw = self.fa.rw.get(writer.label);
        let o_rw = self.fa.rw.get(other.label);
        let mut out = Vec::new();
        let mut reported: BTreeSet<VarId> = BTreeSet::new();
        for hw in w_rw.heap_writes {
            if reported.contains(&hw.base) || self.fresh_private(writer, hw.base) {
                continue;
            }
            let conflict = o_rw
                .heap_reads
                .iter()
                .chain(o_rw.heap_writes.iter())
                .find(|ha| {
                    fields_overlap(hw.field, ha.field)
                        && self.fa.regions.connected(hw.base, ha.base)
                        && !self.fresh_private(other, ha.base)
                });
            if let Some(ha) = conflict {
                reported.insert(hw.base);
                out.push(
                    Diagnostic::warning(
                        code,
                        format!(
                            "heap write via `{}` may conflict with the access via `{}` {}",
                            self.func.var(hw.base).name,
                            self.func.var(ha.base).name,
                            how
                        ),
                    )
                    .with_label(at, "parallel construct here")
                    .with_note(format!(
                        "connection analysis cannot separate the objects reachable \
                         from `{}` and `{}`",
                        self.func.var(hw.base).name,
                        self.func.var(ha.base).name
                    )),
                );
            }
        }
        out
    }

    /// A pointer is iteration-private when every path of `scope` assigns it
    /// a fresh `malloc` before any use: objects it reaches cannot be shared
    /// with concurrent iterations or arms.
    fn fresh_private(&self, scope: &Stmt, v: VarId) -> bool {
        let mut writes = 0usize;
        let mut all_malloc = true;
        scope.walk(&mut |s| {
            if let StmtKind::Basic(b) = &s.kind {
                let written = match b {
                    Basic::Assign {
                        dst: Place::Var(d), ..
                    } => *d == v,
                    Basic::Call { dst: Some(d), .. } => *d == v,
                    Basic::BlkMov { buf, dir, .. } => {
                        *buf == v && matches!(dir, earth_ir::BlkDir::RemoteToLocal)
                    }
                    Basic::AtomicWrite { var, .. } | Basic::AtomicAdd { var, .. } => *var == v,
                    _ => false,
                };
                if written {
                    writes += 1;
                    if !matches!(
                        b,
                        Basic::Assign {
                            src: Rvalue::Malloc { .. },
                            ..
                        }
                    ) {
                        all_malloc = false;
                    }
                }
            }
        });
        writes > 0 && all_malloc && first_access(scope, v) == VarState::MustWrite
    }

    fn finish(&mut self, label: Label, construct: ParallelConstruct, warnings: Vec<Diagnostic>) {
        let independent = warnings.is_empty();
        let verdict = if independent {
            Diagnostic::note(
                "PAR000",
                format!(
                    "{} at {}: provably independent (no conflicting accesses found)",
                    construct.name(),
                    label
                ),
            )
        } else {
            Diagnostic::note(
                "PAR000",
                format!(
                    "{} at {}: possibly racy ({} potential conflict(s))",
                    construct.name(),
                    label,
                    warnings.len()
                ),
            )
        }
        .with_label(label, "parallel construct");
        self.report.diagnostics.push(verdict);
        self.report.diagnostics.extend(warnings);
        self.report.verdicts.push(ConstructVerdict {
            func: self.func.name.clone(),
            label,
            construct,
            independent,
        });
    }
}

fn fields_overlap(a: Option<FieldId>, b: Option<FieldId>) -> bool {
    match (a, b) {
        (None, _) | (_, None) => true,
        (Some(x), Some(y)) => x == y,
    }
}

/// Non-atomic stack accesses of a subtree. Atomic operations on `shared`
/// variables are serialized by the runtime and tracked separately.
#[derive(Debug, Default)]
struct StackAccess {
    plain_reads: BTreeSet<VarId>,
    plain_writes: BTreeSet<VarId>,
}

impl StackAccess {
    fn of(s: &Stmt) -> Self {
        let mut acc = StackAccess::default();
        s.walk(&mut |st| {
            match &st.kind {
                StmtKind::Basic(b) => acc.basic(b),
                StmtKind::If { cond, .. }
                | StmtKind::While { cond, .. }
                | StmtKind::DoWhile { cond, .. }
                | StmtKind::Forall { cond, .. } => {
                    for v in cond.vars() {
                        acc.plain_reads.insert(v);
                    }
                }
                StmtKind::Switch { scrut, .. } => acc.read(*scrut),
                _ => {}
            };
        });
        acc
    }

    fn read(&mut self, o: Operand) {
        if let Operand::Var(v) = o {
            self.plain_reads.insert(v);
        }
    }

    fn basic(&mut self, b: &Basic) {
        for o in b.operands() {
            self.read(o);
        }
        match b {
            Basic::Assign { dst, src } => {
                match dst {
                    Place::Var(v) => {
                        self.plain_writes.insert(*v);
                    }
                    Place::Mem(m) => {
                        self.plain_reads.insert(m.base());
                    }
                }
                match src {
                    Rvalue::Load(m) => {
                        self.plain_reads.insert(m.base());
                    }
                    // valueof(&sv) is atomic: not a plain access.
                    Rvalue::ValueOf(_) => {}
                    _ => {}
                }
            }
            Basic::Call { dst, at, .. } => {
                if let Some(d) = dst {
                    self.plain_writes.insert(*d);
                }
                if let Some(earth_ir::AtTarget::OwnerOf(v)) = at {
                    self.plain_reads.insert(*v);
                }
            }
            Basic::BlkMov { ptr, buf, dir, .. } => {
                self.plain_reads.insert(*ptr);
                match dir {
                    earth_ir::BlkDir::RemoteToLocal => {
                        self.plain_writes.insert(*buf);
                    }
                    earth_ir::BlkDir::LocalToRemote => {
                        self.plain_reads.insert(*buf);
                    }
                }
            }
            // writeto/addto are atomic: target excluded from plain sets
            // (their value operand is covered by `operands()` above).
            Basic::AtomicWrite { .. } | Basic::AtomicAdd { .. } => {}
            Basic::Return(_) => {}
        }
    }
}

/// Must-write-before-read state of one variable over a statement subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    /// The subtree does not touch the variable.
    Untouched,
    /// Every path through the subtree writes the variable before reading it.
    MustWrite,
    /// Some path writes first, no path reads first (others leave it alone).
    MayWrite,
    /// Some path may read the variable before any write.
    ReadFirst,
}

/// Sequential composition: what happens first along one path.
fn seq(a: VarState, b: VarState) -> VarState {
    match a {
        VarState::Untouched => b,
        VarState::MustWrite | VarState::ReadFirst => a,
        VarState::MayWrite => match b {
            // The non-writing path falls through to b's first access.
            VarState::ReadFirst => VarState::ReadFirst,
            VarState::MustWrite => VarState::MustWrite,
            _ => VarState::MayWrite,
        },
    }
}

/// Branch join.
fn join(a: VarState, b: VarState) -> VarState {
    use VarState::*;
    match (a, b) {
        (ReadFirst, _) | (_, ReadFirst) => ReadFirst,
        (MustWrite, MustWrite) => MustWrite,
        (Untouched, Untouched) => Untouched,
        _ => MayWrite,
    }
}

/// May the subtree read `v` before writing it (state over the tree)?
fn first_access(s: &Stmt, v: VarId) -> VarState {
    match &s.kind {
        StmtKind::Basic(b) => {
            let mut acc = StackAccess::default();
            acc.basic(b);
            // Reads happen before the write within one three-address stmt.
            if acc.plain_reads.contains(&v) {
                VarState::ReadFirst
            } else if acc.plain_writes.contains(&v) {
                VarState::MustWrite
            } else {
                VarState::Untouched
            }
        }
        StmtKind::Seq(ss) => ss
            .iter()
            .fold(VarState::Untouched, |st, c| seq(st, first_access(c, v))),
        StmtKind::ParSeq(ss) => ss
            .iter()
            .map(|c| first_access(c, v))
            .fold(VarState::Untouched, join),
        StmtKind::If {
            cond,
            then_s,
            else_s,
        } => {
            if cond.vars().any(|cv| cv == v) {
                return VarState::ReadFirst;
            }
            join(first_access(then_s, v), first_access(else_s, v))
        }
        StmtKind::Switch {
            scrut,
            cases,
            default,
        } => {
            if scrut.as_var() == Some(v) {
                return VarState::ReadFirst;
            }
            cases
                .iter()
                .map(|(_, c)| first_access(c, v))
                .fold(first_access(default, v), join)
        }
        StmtKind::While { cond, body } => {
            if cond.vars().any(|cv| cv == v) {
                return VarState::ReadFirst;
            }
            // Zero-trip possibility demotes a guaranteed write.
            match first_access(body, v) {
                VarState::MustWrite | VarState::MayWrite => VarState::MayWrite,
                other => other,
            }
        }
        StmtKind::DoWhile { body, cond } => {
            let b = first_access(body, v);
            if b == VarState::Untouched && cond.vars().any(|cv| cv == v) {
                VarState::ReadFirst
            } else if b == VarState::MustWrite {
                b
            } else if b == VarState::MayWrite && cond.vars().any(|cv| cv == v) {
                VarState::ReadFirst
            } else {
                b
            }
        }
        StmtKind::Forall {
            init,
            cond,
            step,
            body,
        } => {
            let st = first_access(init, v);
            if st == VarState::ReadFirst || st == VarState::MustWrite {
                return st;
            }
            if cond.vars().any(|cv| cv == v) {
                return VarState::ReadFirst;
            }
            let inner = join(first_access(body, v), first_access(step, v));
            match seq(st, inner) {
                VarState::MustWrite => VarState::MayWrite, // zero-trip
                other => other,
            }
        }
    }
}
