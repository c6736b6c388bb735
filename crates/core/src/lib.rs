//! # earth-commopt — communication optimization for parallel C programs
//!
//! The primary contribution of Zhu & Hendren, *Communication Optimizations
//! for Parallel C Programs* (PLDI 1998), reproduced over the SIMPLE IR of
//! [`earth_ir`]:
//!
//! * [`placement`] — **possible-placement analysis**: for every program
//!   point, the set of remote reads (propagated backwards, optimistically)
//!   and remote writes (propagated forwards, conservatively) that may be
//!   placed there;
//! * [`selection`] — **communication selection**: picks the earliest safe
//!   placement for reads, eliminates redundant communication with a hash
//!   table of already-issued operations, and chooses between pipelined
//!   scalar operations and blocked `blkmov` transfers with a cost model
//!   calibrated to EARTH-MANNA's Table I;
//! * [`transform`] — applies the selected plan to the IR.
//!
//! # Examples
//!
//! Optimize the paper's Figure 3 `distance` function:
//!
//! ```
//! use earth_commopt::{optimize_program, CommOptConfig};
//!
//! let mut prog = earth_frontend::compile(r#"
//!     struct Point { double x; double y; };
//!     double distance(Point *p) {
//!         double d;
//!         d = sqrt(p->x * p->x + p->y * p->y);
//!         return d;
//!     }
//! "#).unwrap();
//! let report = optimize_program(&mut prog, &CommOptConfig::default());
//! // Four remote reads collapse into two pipelined reads (Figure 3(c)).
//! assert_eq!(report.total().pipelined_reads, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod incremental;
pub mod inline;
pub mod motion;
pub mod placement;
pub mod rce;
pub mod selection;
pub mod transform;

pub use config::{
    AliasMode, CommCostModel, CommOptConfig, EscapeMode, FreqModel, SpanEvidence, SpanFrequency,
};
pub use earth_analysis::{EscapeAnalysis, EscapeJustification, EscapeVerdict};
pub use earth_profile::{FuncProfile, Profile, ProfileDb};
pub use incremental::{
    all_off, applicability, config_fingerprint, escape_fingerprints, optimize_program_incremental,
    optimize_program_seeded, optimize_program_snapshot, FallbackReason, FnSnapshot,
    IncrementalStats, PipelineSnapshot, Seed,
};
pub use inline::{inline_functions, InlineConfig, InlineReport};
pub use motion::{Motion, MotionKind, MotionLog, ProbJustification};
pub use placement::{analyze_placement, analyze_placement_with, Placement};
pub use rce::{CommSet, Rce};
pub use selection::{select, select_with, Plan, Replace, SelectionStats};
pub use transform::apply_plan;

use earth_analysis::{MeasuredFreqs, ProgramAnalysis};
use earth_ir::{FuncId, Function, Program, Stmt, StmtKind};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Per-function optimization outcome.
#[derive(Debug, Clone)]
pub struct FnReport {
    /// The function.
    pub func: FuncId,
    /// Selection counters.
    pub stats: SelectionStats,
    /// Every motion selection performed, in decision order. Labels refer to
    /// the pre-optimization statement labels (which the transformer keeps).
    pub motion: MotionLog,
}

/// Whole-program optimization outcome.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// One entry per function, in [`FuncId`] order.
    pub functions: Vec<FnReport>,
}

impl OptReport {
    /// Sums the per-function counters.
    pub fn total(&self) -> SelectionStats {
        let mut t = SelectionStats::default();
        for f in &self.functions {
            t.blocked_spans += f.stats.blocked_spans;
            t.blocked_writebacks += f.stats.blocked_writebacks;
            t.pipelined_reads += f.stats.pipelined_reads;
            t.reads_rewritten += f.stats.reads_rewritten;
            t.writes_rewritten += f.stats.writes_rewritten;
            t.pgo_flips += f.stats.pgo_flips;
            t.induction_blocks += f.stats.induction_blocks;
        }
        t
    }
}

/// The default fan-out width for [`optimize_program`]: one worker per
/// available hardware thread (1 when parallelism cannot be queried).
///
/// Resolved once per process: the query re-reads the cgroup files on every
/// call, and every compile asks.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Clamps a requested worker count to a sane pool: at least 1, at most
/// [`default_workers`] (the machine's available parallelism). `--workers 0`
/// and oversubscribed requests both land on a real pool size; the result
/// never changes *what* the optimizer produces, only how wide it fans out.
pub fn clamp_workers(requested: usize) -> usize {
    requested.clamp(1, default_workers())
}

/// Converts a resolved profile view into the crate-neutral
/// [`MeasuredFreqs`] form consumed by [`earth_analysis::ProbFacts`] (the analysis
/// crate cannot depend on the profile crate): the measured branch
/// probability of every `if` and the continue probability / mean trip
/// count of every loop, keyed by statement label. Returns `None` when no
/// profile covered the function, so the structural heuristics stand alone.
pub fn measured_freqs(func: &Function, view: Option<&FuncProfile>) -> Option<MeasuredFreqs> {
    let view = view.filter(|v| v.matched() > 0)?;
    let mut m = MeasuredFreqs::default();
    func.body.walk(&mut |s: &Stmt| match &s.kind {
        StmtKind::If { .. } => {
            if let Some(p) = view.branch_prob(s.label) {
                m.branch_prob.insert(s.label, p);
            }
        }
        StmtKind::While { .. } | StmtKind::DoWhile { .. } => {
            if let Some(p) = view.branch_prob(s.label) {
                m.branch_prob.insert(s.label, p);
            }
            if let Some(t) = view.loop_trips(s.label) {
                m.loop_trips.insert(s.label, t);
            }
        }
        _ => {}
    });
    Some(m)
}

/// The planning prefix of the per-function phase — everything before the
/// transformation: escape upgrades → profile view → probability facts
/// (measured frequencies included) → possible-placement analysis →
/// communication selection. Returns the working copy of the function
/// (upgraded, with selection's temporaries added; the body and every
/// original label untouched) and the plan, whose motion log already
/// carries the escape justifications.
///
/// This is the one place a plan is chosen: the optimizer applies what it
/// returns and `earth-lint` validates what it returns, so the weights a
/// plan was chosen under (`cfg.profile` included) can never differ
/// between the two.
pub fn plan_function(
    prog: &Program,
    analysis: &ProgramAnalysis,
    cfg: &CommOptConfig,
    escape: Option<&EscapeAnalysis>,
    fid: FuncId,
) -> (Function, Plan) {
    let fa = analysis.function(fid);
    let mut func = prog.function(fid).clone();
    // Escape/affinity upgrades go in *before* placement: a pointer proven
    // node-local (or owner-confined) stops being `MaybeRemote`, so its
    // dereferences never enter the RCE sets and selection emits plain local
    // ops instead of split-phase reads. The justifications ride along in
    // the motion log for `earth-lint` to re-derive (ESC001–ESC003).
    let escapes = match escape {
        Some(esc) => esc.apply(fid, &mut func),
        None => Vec::new(),
    };
    // Resolve the profile (if any) against this function's sites *before*
    // selection rewrites the tree — the same pipeline point at which the
    // instrumented compile recorded them (see `earth_ir::site`).
    let view = cfg.profile.as_ref().map(|db| db.function_view(fid, &func));
    // The structural facts are the analysis's own (shared with the
    // `prob-alias` survey pass); only a measured profile makes a copy.
    let facts = match cfg.alias {
        AliasMode::Binary => None,
        AliasMode::Prob => {
            let structural = fa.prob_facts(&func);
            Some(match measured_freqs(&func, view.as_ref()) {
                None => Cow::Borrowed(structural),
                Some(m) => Cow::Owned(structural.with_measured(&m)),
            })
        }
    };
    let placement = analyze_placement_with(&func, fa, &cfg.freq, view.as_ref(), facts.as_deref());
    let mut plan = select_with(
        prog,
        &mut func,
        fa,
        &placement,
        cfg,
        view.as_ref(),
        facts.as_deref(),
    );
    plan.motion.escapes = escapes;
    (func, plan)
}

/// Placement analysis + selection + transformation for one function,
/// against the whole-program `analysis`. Pure with respect to `prog` (only
/// struct layouts and the function body are read), which is what makes the
/// per-function fan-out of the driver deterministic.
fn optimize_function(
    prog: &Program,
    analysis: &ProgramAnalysis,
    cfg: &CommOptConfig,
    escape: Option<&EscapeAnalysis>,
    fid: FuncId,
) -> (FuncId, Function, FnReport) {
    let (mut func, plan) = plan_function(prog, analysis, cfg, escape, fid);
    apply_plan(&mut func, &plan);
    let report = FnReport {
        func: fid,
        stats: plan.stats,
        motion: plan.motion,
    };
    (fid, func, report)
}

/// Runs communication optimization over every function of `prog` using a
/// precomputed (cached) `analysis`, fanning the per-function
/// placement + selection work out across up to `workers` scoped threads:
/// [`optimize_program_seeded`] with nothing to reuse and no snapshot kept.
///
/// Functions are optimized independently against the *pre-optimization*
/// program and analysis, and the results are merged in [`FuncId`] order —
/// so the output is byte-identical for any worker count (including 1).
/// `workers` is clamped to `1..=#functions`.
///
/// Unlike [`optimize_program`], this neither computes the analysis nor
/// validates the result; the pass-manager pipeline does both through the
/// analysis cache and the IR-validation pass.
pub fn optimize_program_with(
    prog: &mut Program,
    cfg: &CommOptConfig,
    analysis: &ProgramAnalysis,
    workers: usize,
) -> OptReport {
    optimize_program_seeded(prog, cfg, workers, Seed::scratch(analysis), false).0
}

/// Runs the full communication optimization (placement analysis, selection,
/// transformation) over every function of `prog`, in place, computing the
/// whole-program analysis itself and fanning out across
/// [`default_workers`] threads.
///
/// With [`CommOptConfig::disabled`] this is a no-op (the paper's "simple"
/// compile).
///
/// # Panics
///
/// Panics if the optimizer produces invalid IR — a bug, guarded by the
/// validator.
pub fn optimize_program(prog: &mut Program, cfg: &CommOptConfig) -> OptReport {
    let analysis = earth_analysis::analyze(prog);
    let report = optimize_program_with(prog, cfg, &analysis, default_workers());
    earth_ir::validate_program(prog).expect("optimizer produced invalid IR");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_frontend::compile;
    use earth_ir::{pretty, Basic};

    fn optimize(src: &str) -> (Program, OptReport) {
        let mut prog = compile(src).unwrap();
        let report = optimize_program(&mut prog, &CommOptConfig::default());
        (prog, report)
    }

    fn listing(prog: &Program, name: &str) -> String {
        pretty::print_function(
            prog,
            prog.function_by_name(name).unwrap(),
            &pretty::PrettyOptions {
                show_labels: false,
                ..Default::default()
            },
        )
    }

    fn count_remote_ops(prog: &Program, name: &str) -> (usize, usize, usize) {
        let f = prog.function(prog.function_by_name(name).unwrap());
        let (mut reads, mut writes, mut blks) = (0, 0, 0);
        for (_, b) in f.basic_stmts() {
            if let Some(acc) = b.deref_access() {
                if !f.deref_is_remote(acc.base) {
                    continue;
                }
                match b {
                    Basic::BlkMov { .. } => blks += 1,
                    _ if acc.is_write => writes += 1,
                    _ => reads += 1,
                }
            }
        }
        (reads, writes, blks)
    }

    /// Figure 3(c): distance's four remote reads become two pipelined reads
    /// at the top of the function (two fields: below the block threshold).
    #[test]
    fn fig3_distance_pipelines_two_reads() {
        let (prog, report) = optimize(
            r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#,
        );
        let t = report.total();
        assert_eq!(t.pipelined_reads, 2);
        assert_eq!(t.blocked_spans, 0);
        assert_eq!(t.reads_rewritten, 4);
        let (reads, writes, blks) = count_remote_ops(&prog, "distance");
        assert_eq!((reads, writes, blks), (2, 0, 0));
        let text = listing(&prog, "distance");
        // The two comm reads appear before any multiplication.
        let first_mul = text.find(" * ").unwrap();
        assert!(text.find("comm1 = p~>x").unwrap() < first_mul, "{text}");
        assert!(text.find("comm2 = p~>y").unwrap() < first_mul, "{text}");
    }

    /// Figure 4(d): scale_point (2 reads + 2 writes) blocks into one
    /// blkmov read, local accesses, and one blkmov write-back.
    #[test]
    fn fig4_scale_point_blocks_reads_and_writes() {
        let (prog, report) = optimize(
            r#"
            struct Point { double x; double y; };
            double scale(double v, double k) { return v * k; }
            void scale_point(Point *p, double k) {
                p->x = scale(p->x, k);
                p->y = scale(p->y, k);
            }
        "#,
        );
        let t = report.total();
        assert_eq!(t.blocked_spans, 1);
        assert_eq!(t.blocked_writebacks, 1);
        let (reads, writes, blks) = count_remote_ops(&prog, "scale_point");
        assert_eq!(
            (reads, writes, blks),
            (0, 0, 2),
            "{}",
            listing(&prog, "scale_point")
        );
        let text = listing(&prog, "scale_point");
        assert!(text.contains("blkmov(p, &bcomm1, sizeof(*p));"), "{text}");
        assert!(text.contains("blkmov(&bcomm1, p, sizeof(*p));"), "{text}");
        assert!(text.contains("bcomm1.x"), "{text}");
    }

    /// Figure 8: in the closest-point loop, reads of `t` (2 fields) are
    /// pipelined and hoisted above the loop, covering the post-loop reads
    /// of t->x/t->y (redundancy elimination); reads of `p` (3 fields)
    /// inside the loop are blocked; reads of `close` after the loop (2
    /// fields) are pipelined.
    #[test]
    fn fig8_closest_point_selection() {
        let (prog, report) = optimize(
            r#"
            struct Point { Point* next; double x; double y; };
            double f(double ax, double ay, double bx, double by) {
                return (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
            }
            double closest(Point *head, Point *t, double epsilon) {
                Point *p;
                Point *close;
                double ax; double ay; double bx; double by;
                double dist; double cx; double tx; double diffx;
                double cy; double ty; double diffy;
                close = head;
                p = head;
                while (p != NULL) {
                    ax = p->x;
                    ay = p->y;
                    bx = t->x;
                    by = t->y;
                    dist = f(ax, ay, bx, by);
                    if (dist < epsilon) { close = p; }
                    p = p->next;
                }
                cx = close->x;
                tx = t->x;
                diffx = cx - tx;
                cy = close->y;
                ty = t->y;
                diffy = cy - ty;
                return diffx * diffx + diffy * diffy;
            }
        "#,
        );
        let text = listing(&prog, "closest");
        let t = report.total();
        // One blocked span (p in the loop), no write-back.
        assert_eq!(t.blocked_spans, 1, "{text}");
        assert_eq!(t.blocked_writebacks, 0, "{text}");
        // Pipelined reads: t->x, t->y (hoisted above the loop, reused
        // after it) and close->y hoisted above close->x; the read of
        // close->x stays in place (inserting it just before its only use
        // would be the identity transformation, which selection skips).
        assert_eq!(t.pipelined_reads, 3, "{text}");
        // t's reads are issued before the loop...
        let loop_pos = text.find("while").unwrap();
        assert!(text.find("comm1 = t~>x").unwrap() < loop_pos, "{text}");
        assert!(text.find("comm2 = t~>y").unwrap() < loop_pos, "{text}");
        // ... and the loop body uses the block buffer, including the
        // cursor advance.
        assert!(text.contains("p = bcomm1.next"), "{text}");
        assert!(text.contains("blkmov(p, &bcomm1, sizeof(*p));"), "{text}");
        // Post-loop reads of t reuse comm1/comm2 (no new t reads).
        let after_loop = &text[loop_pos..];
        assert!(!after_loop.contains("t~>x"), "{text}");
        assert!(!after_loop.contains("t~>y"), "{text}");
        // close is read remotely (pipelined) after the loop.
        assert!(after_loop.contains("close~>x"), "{text}");
    }

    /// The motion log names every decision with pre-optimization labels.
    #[test]
    fn motion_log_records_decisions() {
        use crate::motion::MotionKind;
        let (_prog, report) = optimize(
            r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#,
        );
        let log = &report.functions[0].motion;
        // Two reads issued, each merging the two loads of one field.
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|m| m.kind == MotionKind::RedundantReuse));
        assert!(log.iter().all(|m| m.from_labels.len() == 2));
        let rendered = log.render();
        assert!(rendered.contains("redundant-reuse p"), "{rendered}");
        assert!(rendered.contains("read of p~>x"), "{rendered}");

        // Blocking records the blkmov read and the write-back.
        let (_prog, report) = optimize(
            r#"
            struct Point { double x; double y; };
            double scale(double v, double k) { return v * k; }
            void scale_point(Point *p, double k) {
                p->x = scale(p->x, k);
                p->y = scale(p->y, k);
            }
        "#,
        );
        let log = &report
            .functions
            .iter()
            .find(|f| !f.motion.is_empty())
            .expect("scale_point moved something")
            .motion;
        let kinds: Vec<MotionKind> = log.iter().map(|m| m.kind).collect();
        assert_eq!(kinds, [MotionKind::BlockRead, MotionKind::BlockWriteback]);
        let read = &log.motions[0];
        assert_eq!(read.from_labels.len(), 4, "2 reads + 2 writes in the span");
        assert!(read.before);
    }

    /// The disabled configuration leaves the program untouched.
    #[test]
    fn disabled_config_is_identity() {
        let src = r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#;
        let mut prog = compile(src).unwrap();
        let before = pretty::print_program(&prog);
        let report = optimize_program(&mut prog, &CommOptConfig::disabled());
        assert_eq!(pretty::print_program(&prog), before);
        assert!(report.functions.is_empty());
    }

    /// Local pointers are never optimized (their accesses are not remote).
    #[test]
    fn local_pointers_untouched() {
        let (prog, report) = optimize(
            r#"
            struct Point { double x; double y; double z; };
            double f(Point local *p) {
                return p->x + p->y + p->z;
            }
        "#,
        );
        let t = report.total();
        assert_eq!(t.pipelined_reads + t.blocked_spans, 0);
        let text = listing(&prog, "f");
        assert!(text.contains("p->x"), "{text}");
    }

    /// Blocking inside a loop body with a pointer advance (the span
    /// terminal) writes back before the advance when writes exist.
    #[test]
    fn blocked_write_back_precedes_pointer_advance() {
        let (prog, _report) = optimize(
            r#"
            struct N { N* next; double a; double b; double c; };
            void bump(N *p) {
                while (p != NULL) {
                    p->a = p->a + 1.0;
                    p->b = p->b + 1.0;
                    p->c = p->c + 1.0;
                    p = p->next;
                }
            }
        "#,
        );
        let text = listing(&prog, "bump");
        let wb = text.find("blkmov(&bcomm1, p, sizeof(*p));").expect(&text);
        let advance = text.find("p = bcomm1.next").expect(&text);
        assert!(wb < advance, "write-back must use the old p:\n{text}");
        // No scalar remote ops remain in the loop.
        let (reads, writes, _blks) = count_remote_ops(&prog, "bump");
        assert_eq!((reads, writes), (0, 0), "{text}");
    }

    /// An aliased write between two reads prevents both blocking across it
    /// and redundancy elimination across it.
    #[test]
    fn aliased_write_blocks_motion() {
        let (prog, _report) = optimize(
            r#"
            struct P { double x; double y; double z; };
            double f(P *p) {
                P *q;
                double a; double b;
                q = p;
                a = p->x;
                q->x = 0.0;
                b = p->x;
                return a + b;
            }
        "#,
        );
        let text = listing(&prog, "f");
        // The second read of p->x must still be a remote read (it cannot
        // reuse the first: q->x = 0.0 may change it).
        let (reads, _w, blks) = count_remote_ops(&prog, "f");
        assert_eq!(blks, 0, "aliased q prevents blocking: {text}");
        assert_eq!(reads, 2, "both reads must hit memory: {text}");
    }

    /// Calls that touch the pointed-to region pin communication.
    #[test]
    fn interfering_call_pins_reads() {
        let (prog, _report) = optimize(
            r#"
            struct P { double x; double y; double z; };
            void poke(P *r) { r->x = 1.0; }
            double f(P *p) {
                double a; double b;
                a = p->x;
                poke(p);
                b = p->x;
                return a + b;
            }
        "#,
        );
        let (reads, _w, blks) = count_remote_ops(&prog, "f");
        assert_eq!(blks, 0);
        assert_eq!(reads, 2, "{}", listing(&prog, "f"));
    }

    /// Reads hoist out of conditionals (optimistic propagation): both
    /// branches read p->x, so one read suffices before the branch.
    #[test]
    fn reads_hoist_out_of_conditionals() {
        let (prog, report) = optimize(
            r#"
            struct P { double x; double y; };
            double f(P *p, int c) {
                double a;
                if (c > 0) {
                    a = p->x;
                } else {
                    a = p->x + 1.0;
                }
                return a;
            }
        "#,
        );
        assert_eq!(report.total().pipelined_reads, 1);
        let text = listing(&prog, "f");
        let if_pos = text.find("if").unwrap();
        assert!(text.find("comm1 = p~>x").unwrap() < if_pos, "{text}");
    }

    /// With speculation disabled, a read only present on one side of a
    /// branch is not hoisted above it.
    #[test]
    fn speculation_gate() {
        let src = r#"
            struct P { double x; double y; };
            double f(P *p, int c) {
                double a;
                a = 0.0;
                if (c > 0) {
                    a = p->x;
                }
                return a;
            }
        "#;
        let mut prog = compile(src).unwrap();
        let cfg = CommOptConfig {
            speculative_remote_ok: false,
            ..CommOptConfig::default()
        };
        optimize_program(&mut prog, &cfg);
        let text = listing(&prog, "f");
        let if_pos = text.find("if").unwrap();
        let read_pos = text.find("p~>x").unwrap();
        assert!(
            read_pos > if_pos,
            "read must stay inside the branch: {text}"
        );
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(clamp_workers(0), 1, "--workers 0 must not mean no pool");
        assert_eq!(clamp_workers(1), 1);
        let cores = default_workers();
        assert!(cores >= 1);
        assert_eq!(clamp_workers(usize::MAX), cores, "no oversubscription");
        assert_eq!(clamp_workers(cores), cores);
    }

    /// Feeding a measured profile changes blocking decisions: a hot
    /// two-word span (below the static threshold of three) blocks, and a
    /// never-executed three-word span stops blocking. Both flips are
    /// counted.
    #[test]
    fn profile_feedback_flips_blocking_decisions() {
        use std::sync::Arc;
        let src = r#"
            struct Pair { double x; double y; };
            struct Triple { double a; double b; double c; };
            double hot(Pair *p) {
                double s;
                double t;
                s = p->x;
                t = p->y;
                return s + t;
            }
            double cold(Triple *q) {
                double s;
                s = q->a + q->b + q->c;
                return s;
            }
            int main(int n) {
                double acc;
                Pair *pr;
                Triple *tr;
                int i;
                pr = malloc(sizeof(Pair));
                acc = 0.0;
                i = 0;
                while (i < n) {
                    acc = acc + hot(pr);
                    i = i + 1;
                }
                if (n < 0) {
                    tr = malloc(sizeof(Triple));
                    acc = acc + cold(tr);
                }
                return i;
            }
        "#;
        // Static decisions: hot's 2-field span is below the threshold of
        // three (pipelined); cold's 3-field span blocks.
        let mut static_prog = compile(src).unwrap();
        let static_report = optimize_program(&mut static_prog, &CommOptConfig::default());
        assert_eq!(static_report.total().blocked_spans, 1);
        assert_eq!(static_report.total().pgo_flips, 0);

        // "Measure": hot ran 50 times, cold never. Build the profile by
        // resolving real sites of the pre-optimization program, as the
        // instrumented run would.
        let prog = compile(src).unwrap();
        let mut profile = earth_profile::Profile::new();
        let mut seed = |fname: &str, execs: u64| {
            let (fid, f) = prog
                .iter_functions()
                .find(|(_, f)| f.name == fname)
                .unwrap();
            for (_, site) in earth_ir::assign_sites(fid, f).iter() {
                profile.record(
                    site.clone(),
                    earth_profile::SiteCounters {
                        execs,
                        bytes: execs * 8,
                        ..Default::default()
                    },
                );
            }
        };
        seed("hot", 50);
        seed("main", 50);
        let cfg = CommOptConfig {
            profile: Some(Arc::new(ProfileDb::new(profile))),
            ..CommOptConfig::default()
        };
        let mut pgo_prog = compile(src).unwrap();
        let report = optimize_program(&mut pgo_prog, &cfg);
        let t = report.total();
        // hot's pair span flipped to blocked; cold fell back to the
        // static model (no matched sites: its decision is unchanged, not
        // counted as a flip).
        assert_eq!(t.blocked_spans, 2, "hot now blocks, cold still does");
        assert_eq!(t.pgo_flips, 1);
        // Semantics preserved.
        earth_ir::validate_program(&pgo_prog).unwrap();
    }

    /// The prob-alias induction relaxation blocks a two-word list-walk
    /// span that the static threshold of three leaves pipelined; the
    /// motion carries a machine-checkable justification naming the loop,
    /// the advance statement, and the probability.
    #[test]
    fn prob_alias_unlocks_induction_blocking() {
        let src = r#"
            struct node { node* next; double v; };
            double sum(node *head) {
                node *p;
                double acc;
                acc = 0.0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#;
        // Binary mode: 2 accessed fields < threshold 3, nothing blocks.
        let mut binary = compile(src).unwrap();
        let b_report = optimize_program(&mut binary, &CommOptConfig::default());
        assert_eq!(b_report.total().blocked_spans, 0);
        assert_eq!(b_report.total().induction_blocks, 0);

        // Prob mode: p is a recognized induction of a `p != NULL` loop
        // (continue probability 0.9), so the cost model decides and one
        // blkmov replaces the two pipelined reads per iteration.
        let mut prob = compile(src).unwrap();
        let cfg = CommOptConfig {
            alias: AliasMode::Prob,
            ..CommOptConfig::default()
        };
        let p_report = optimize_program(&mut prob, &cfg);
        let t = p_report.total();
        assert_eq!(t.blocked_spans, 1, "{}", pretty::print_program(&prob));
        assert_eq!(t.induction_blocks, 1);
        let motion = p_report
            .functions
            .iter()
            .flat_map(|f| f.motion.iter())
            .find(|m| m.kind == MotionKind::BlockRead)
            .expect("a block-read motion");
        let j = motion
            .justification
            .as_ref()
            .expect("justified by induction");
        assert!((0.0..=1.0).contains(&j.prob));
        let text = listing(&prob, "sum");
        assert!(text.contains("blkmov(p, &bcomm1, sizeof(*p));"), "{text}");
        assert!(text.contains("p = bcomm1.next"), "{text}");
    }

    /// Escape mode proves a plain-malloc'd list node-local through the
    /// cursor's loads — the case locality inference forbids — so the walk
    /// emits *no* communication at all, and every upgrade is recorded in
    /// the motion log for the validator to re-derive.
    #[test]
    fn escape_mode_deletes_node_local_communication() {
        let src = r#"
            struct N { N* next; double v; };
            double walk(N *head) {
                N *p;
                double acc;
                acc = 0.0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
            double main() {
                N *head;
                N *n;
                int i;
                head = NULL;
                i = 0;
                while (i < 8) {
                    n = malloc(sizeof(N));
                    n->v = 1.0;
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                return walk(head);
            }
        "#;
        // Baseline: the cursor is MaybeRemote, so the walk communicates.
        let mut baseline = compile(src).unwrap();
        let b_report = optimize_program(&mut baseline, &CommOptConfig::default());
        assert!(b_report.total().reads_rewritten > 0);

        // Escape mode: the whole region is node-local; zero remote ops
        // remain and nothing needed to move.
        let mut escaped = compile(src).unwrap();
        let cfg = CommOptConfig {
            escape: EscapeMode::On,
            ..CommOptConfig::default()
        };
        let e_report = optimize_program(&mut escaped, &cfg);
        assert_eq!(e_report.total().reads_rewritten, 0);
        let (reads, writes, blks) = count_remote_ops(&escaped, "walk");
        assert_eq!(
            (reads, writes, blks),
            (0, 0, 0),
            "{}",
            listing(&escaped, "walk")
        );
        assert!(e_report
            .functions
            .iter()
            .all(|f| f.motion.motions.is_empty()));
        let walk_fid = escaped.function_by_name("walk").unwrap();
        let walk_log = &e_report
            .functions
            .iter()
            .find(|f| f.func == walk_fid)
            .unwrap()
            .motion;
        assert!(!walk_log.escapes.is_empty(), "upgrades must be recorded");
        assert!(!walk_log.is_empty(), "escape-only logs are not empty");
        assert!(walk_log.render().contains("escape-upgrade"));
    }

    /// Under a redundancy-only configuration the duplicate loads still
    /// collapse but nothing moves.
    #[test]
    fn redundancy_only_ablation() {
        let src = r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#;
        let mut prog = compile(src).unwrap();
        let cfg = CommOptConfig {
            enable_motion: false,
            enable_blocking: false,
            ..CommOptConfig::default()
        };
        let report = optimize_program(&mut prog, &cfg);
        assert_eq!(report.total().pipelined_reads, 2);
        assert_eq!(report.total().reads_rewritten, 4);
    }
}
