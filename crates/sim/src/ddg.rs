//! Hierarchical data-dependence graph and EARTH fiber partitioning —
//! Phase III of the compiler diagram (the paper's Figure 2: "Build
//! Hierarchical DDG" → "Thread Generation").
//!
//! EARTH threads ("fibers") run to completion on the EU and synchronize
//! through sync slots: a consumer of a split-phase result must live in a
//! *later* fiber than the operation's issue, so the EU can run other
//! fibers while the communication is in flight. This module computes,
//! per statement sequence:
//!
//! * the **DDG**: flow edges between basic statements (def→use over
//!   variables, plus conservative heap-conflict edges from the read/write
//!   sets), and
//! * a **fiber partition**: the greedy linear partition that cuts after
//!   every long-latency operation whose value is consumed later in the
//!   same sequence — the boundary where the original EARTH-McCAT backend
//!   would split threads.
//!
//! The `earth-sim` machine does not need the partition to execute
//! (split-phase results are modelled as pending values within one
//! thread), so this analysis is *reporting* infrastructure: it drives
//! `earthcc dump --fibers` and quantifies how much thread-level slack a
//! function offers (`FiberReport::max_fiber_ops`). The hierarchy mirrors
//! SIMPLE: compound statements contain their own partitions.

use earth_analysis::FunctionAnalysis;
use earth_ir::{Basic, Function, Label, MemRef, Rvalue, Stmt, StmtKind};
use std::collections::HashMap;

/// A dependence edge between two statements of one sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// The producing statement.
    pub from: Label,
    /// The consuming statement.
    pub to: Label,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// Why two statements are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// `to` reads a variable `from` writes.
    Flow,
    /// `to` writes a variable `from` reads or writes (anti/output).
    Storage,
    /// Possible heap conflict (connected regions, matching fields).
    Heap,
}

/// The dependence graph of one statement sequence (one level of the
/// hierarchy).
#[derive(Debug, Clone, Default)]
pub struct SeqDdg {
    /// Labels of the sequence's children, in program order.
    pub stmts: Vec<Label>,
    /// Dependence edges among them.
    pub edges: Vec<Edge>,
    /// Fiber boundaries: index `i` means a cut *before* `stmts[i]`.
    pub cuts: Vec<usize>,
}

impl SeqDdg {
    /// The fibers as label slices.
    pub fn fibers(&self) -> Vec<&[Label]> {
        let mut out = Vec::new();
        let mut start = 0;
        for &c in &self.cuts {
            out.push(&self.stmts[start..c]);
            start = c;
        }
        out.push(&self.stmts[start..]);
        out
    }
}

/// DDG + fiber partition for a whole function, keyed by the label of each
/// statement sequence.
#[derive(Debug, Clone, Default)]
pub struct FiberReport {
    /// Per-sequence graphs.
    pub seqs: HashMap<Label, SeqDdg>,
    /// Total number of fibers over all sequences.
    pub fibers: usize,
    /// Size (in statements) of the largest fiber.
    pub max_fiber_ops: usize,
}

/// Builds the hierarchical DDG and fiber partition for `f`.
pub fn build_ddg(f: &Function, fa: &FunctionAnalysis) -> FiberReport {
    let mut report = FiberReport::default();
    visit(f, fa, &f.body, &mut report);
    report
}

fn visit(f: &Function, fa: &FunctionAnalysis, s: &Stmt, report: &mut FiberReport) {
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
            if matches!(s.kind, StmtKind::Seq(_)) {
                let ddg = seq_ddg(f, fa, ss);
                report.fibers += ddg.cuts.len() + 1;
                report.max_fiber_ops = report
                    .max_fiber_ops
                    .max(ddg.fibers().iter().map(|fb| fb.len()).max().unwrap_or(0));
                report.seqs.insert(s.label, ddg);
            }
            for c in ss {
                visit(f, fa, c, report);
            }
        }
        StmtKind::Basic(_) => {}
        StmtKind::If { then_s, else_s, .. } => {
            visit(f, fa, then_s, report);
            visit(f, fa, else_s, report);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (_, c) in cases {
                visit(f, fa, c, report);
            }
            visit(f, fa, default, report);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => visit(f, fa, body, report),
        StmtKind::Forall { body, .. } => visit(f, fa, body, report),
    }
}

/// Whether a basic statement issues a long-latency (split-phase) remote
/// operation whose result arrives later.
fn is_long_latency(f: &Function, b: &Basic) -> bool {
    match b {
        Basic::Assign {
            src: Rvalue::Load(MemRef::Deref { base, .. }),
            ..
        } => f.deref_is_remote(*base),
        Basic::BlkMov { dir, ptr, .. } => {
            f.deref_is_remote(*ptr) && matches!(dir, earth_ir::BlkDir::RemoteToLocal)
        }
        Basic::Assign {
            src: Rvalue::ValueOf(_),
            ..
        } => true,
        Basic::Call { at: Some(_), .. } => true,
        _ => false,
    }
}

/// Variables a statement (including compound children, via rw sets)
/// defines / uses.
fn defs_uses(fa: &FunctionAnalysis, l: Label) -> (&[earth_ir::VarId], &[earth_ir::VarId]) {
    let rw = fa.rw.get(l);
    (rw.vars_written, rw.vars_read)
}

/// Whether two sorted variable sets share a member.
fn intersects(a: &[earth_ir::VarId], b: &[earth_ir::VarId]) -> bool {
    a.iter().any(|v| b.binary_search(v).is_ok())
}

fn seq_ddg(f: &Function, fa: &FunctionAnalysis, ss: &[Stmt]) -> SeqDdg {
    let mut ddg = SeqDdg {
        stmts: ss.iter().map(|s| s.label).collect(),
        ..SeqDdg::default()
    };
    // Edges: pairwise over the sequence (n is small per SIMPLE level).
    for i in 0..ss.len() {
        let (di, ui) = defs_uses(fa, ss[i].label);
        for later in ss.iter().skip(i + 1) {
            let (dj, uj) = defs_uses(fa, later.label);
            if intersects(di, uj) {
                ddg.edges.push(Edge {
                    from: ss[i].label,
                    to: later.label,
                    kind: EdgeKind::Flow,
                });
            } else if intersects(dj, ui) || intersects(dj, di) {
                ddg.edges.push(Edge {
                    from: ss[i].label,
                    to: later.label,
                    kind: EdgeKind::Storage,
                });
            } else {
                // Heap conflicts through connected regions.
                let rwi = fa.rw.get(ss[i].label);
                let rwj = fa.rw.get(later.label);
                let conflict = rwi.heap_writes.iter().any(|a| {
                    rwj.heap_reads
                        .iter()
                        .chain(rwj.heap_writes.iter())
                        .any(|b| {
                            fa.regions.connected(a.base, b.base)
                                && match (a.field, b.field) {
                                    (Some(x), Some(y)) => x == y,
                                    _ => true,
                                }
                        })
                }) || rwj.heap_writes.iter().any(|b| {
                    rwi.heap_reads.iter().any(|a| {
                        fa.regions.connected(a.base, b.base)
                            && match (a.field, b.field) {
                                (Some(x), Some(y)) => x == y,
                                _ => true,
                            }
                    })
                });
                if conflict {
                    ddg.edges.push(Edge {
                        from: ss[i].label,
                        to: later.label,
                        kind: EdgeKind::Heap,
                    });
                }
            }
        }
    }

    // Fiber cuts: after each long-latency issue whose value is used by a
    // *later* statement of this sequence (a flow edge out of it), the
    // consumer starts a new fiber.
    for (i, s) in ss.iter().enumerate() {
        let StmtKind::Basic(b) = &s.kind else {
            continue;
        };
        if !is_long_latency(f, b) {
            continue;
        }
        let has_consumer = ddg
            .edges
            .iter()
            .any(|e| e.from == s.label && e.kind == EdgeKind::Flow);
        if has_consumer && i + 1 < ss.len() {
            // Cut before the first consumer.
            let first_consumer = ss
                .iter()
                .enumerate()
                .skip(i + 1)
                .find(|(_, t)| {
                    ddg.edges
                        .iter()
                        .any(|e| e.from == s.label && e.to == t.label && e.kind == EdgeKind::Flow)
                })
                .map(|(j, _)| j);
            if let Some(j) = first_consumer {
                if !ddg.cuts.contains(&j) {
                    ddg.cuts.push(j);
                }
            }
        }
    }
    ddg.cuts.sort_unstable();
    ddg
}

/// Renders the fiber partition of one function, for `earthcc dump
/// --fibers`.
pub fn render_fibers(f: &Function, report: &FiberReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "function `{}`: {} fibers, largest {} statements",
        f.name, report.fibers, report.max_fiber_ops
    );
    let mut seqs: Vec<(&Label, &SeqDdg)> = report.seqs.iter().collect();
    seqs.sort_by_key(|(l, _)| **l);
    for (label, ddg) in seqs {
        if ddg.stmts.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  seq {label}:");
        for (i, fiber) in ddg.fibers().iter().enumerate() {
            let labels: Vec<String> = fiber.iter().map(|l| l.to_string()).collect();
            let _ = writeln!(out, "    fiber {i}: [{}]", labels.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str, func: &str) -> (earth_ir::Program, FiberReport) {
        let prog = earth_frontend::compile(src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let fid = prog.function_by_name(func).unwrap();
        let report = build_ddg(prog.function(fid), analysis.function(fid));
        (prog, report)
    }

    #[test]
    fn dependent_remote_read_cuts_a_fiber() {
        let (prog, report) = analyze(
            r#"
            struct P { double x; double y; };
            double f(P *p) {
                double a;
                double b;
                a = p->x;
                b = a + 1.0;
                return b;
            }
        "#,
            "f",
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let body = &report.seqs[&f.body.label];
        // The read's consumer starts a new fiber: [read][use; return].
        assert_eq!(body.cuts.len(), 1, "{body:?}");
        assert_eq!(report.fibers, 2);
        let text = render_fibers(f, &report);
        assert!(text.contains("fiber 1"), "{text}");
    }

    #[test]
    fn independent_reads_share_a_fiber() {
        let (prog, report) = analyze(
            r#"
            struct P { double x; double y; };
            double f(P *p, P *q) {
                double a;
                double b;
                a = p->x;
                b = q->y;
                return a + b;
            }
        "#,
            "f",
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let body = &report.seqs[&f.body.label];
        // Both issues land in fiber 0; the first consumer (the addition,
        // lowered into the return temp) starts fiber 1.
        let fibers = body.fibers();
        assert!(fibers[0].len() >= 2, "{body:?}");
    }

    #[test]
    fn local_reads_do_not_cut() {
        let (prog, report) = analyze(
            r#"
            struct P { double x; double y; };
            double f(P local *p) {
                double a;
                a = p->x;
                return a + 1.0;
            }
        "#,
            "f",
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let body = &report.seqs[&f.body.label];
        assert!(body.cuts.is_empty(), "{body:?}");
    }

    #[test]
    fn flow_edges_are_recorded() {
        let (prog, report) = analyze(
            r#"
            struct P { double x; };
            double f(P *p) {
                double a;
                double b;
                a = p->x;
                b = a * 2.0;
                return b;
            }
        "#,
            "f",
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let body = &report.seqs[&f.body.label];
        assert!(body.edges.iter().any(|e| e.kind == EdgeKind::Flow));
    }

    #[test]
    fn heap_conflicts_create_edges() {
        let (prog, report) = analyze(
            r#"
            struct P { double x; };
            void f(P *p, P *q) {
                P *r;
                double a;
                r = p;
                r->x = 1.0;
                a = p->x;
                q->x = a;
            }
        "#,
            "f",
        );
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let body = &report.seqs[&f.body.label];
        assert!(
            body.edges.iter().any(|e| e.kind == EdgeKind::Heap),
            "{body:?}"
        );
    }
}
