//! # earth-lint — translation validator and parallel-soundness linter
//!
//! Static checks layered on top of the communication-optimization pipeline
//! of the Zhu & Hendren (PLDI 1998) reproduction:
//!
//! * [`verify`] — the **placement translation validator**: replays
//!   communication selection for every function and independently
//!   re-derives, from the pre-optimization IR and the
//!   [`MotionLog`], that no statement between a
//!   moved operation's new and original placement invalidates it
//!   (diagnostic codes `PLC001`–`PLC005`), and that every
//!   probability-justified motion of prob-alias mode rests on a
//!   re-derivable induction and binary-safe window (`ALP001`–`ALP003`),
//!   and that every escape-analysis locality upgrade of `--escape on`
//!   re-derives from a fresh whole-program escape/affinity run on the
//!   pre-optimization IR (`ESC001`–`ESC003`);
//! * [`incremental`] — the **incremental recompilation validator**:
//!   re-derives a [`PipelineSnapshot`](earth_commopt::PipelineSnapshot)'s
//!   claims — summary table, per-function splices, snapshot shape —
//!   against fresh whole-program analysis (`INC001`–`INC003`);
//! * [`races`] — the **parallel-soundness linter**: classifies every
//!   `forall` and parallel sequence as *provably independent* or *possibly
//!   racy* (codes `PAR000`–`PAR004`);
//! * [`dead_comm`] — the **dead-communication checker**: runs on
//!   *post-optimization* IR and flags split-phase fetches whose results
//!   are never consumed (`DCM001`–`DCM002`).
//!
//! Both produce [`earth_ir::Diagnostic`]s, renderable as pretty terminal
//! output or machine-readable JSON.
//!
//! # Examples
//!
//! ```
//! let prog = earth_frontend::compile(r#"
//!     struct Point { double x; double y; };
//!     double distance(Point *p) {
//!         double d;
//!         d = sqrt(p->x * p->x + p->y * p->y);
//!         return d;
//!     }
//! "#).unwrap();
//! let cfg = earth_commopt::CommOptConfig::default();
//! // The optimizer's own motions validate cleanly...
//! assert!(earth_lint::verify_program(&prog, &cfg).is_empty());
//! // ... and a sequential function has no parallel constructs to lint.
//! assert!(earth_lint::lint_program(&prog).verdicts.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dead_comm;
pub mod incremental;
pub mod races;
pub mod verify;

pub use incremental::verify_incremental;
pub use races::{
    lint_function, lint_program, lint_program_with, ConstructVerdict, LintReport, ParallelConstruct,
};
pub use verify::{verify_escapes, verify_motions};

use earth_analysis::{EscapeAnalysis, ProgramAnalysis};
use earth_commopt::{plan_function, CommOptConfig, EscapeMode, MotionLog};
use earth_ir::{Diagnostic, Program};

/// Every diagnostic code a checker in this crate can emit. Cross-checked
/// against the [`earth_ir::rules`] registry by the validator test suite,
/// so `earthcc lint --explain` can never lack an entry.
pub const EMITTED_CODES: &[&str] = &[
    "ALP001", "ALP002", "ALP003", "DCM001", "DCM002", "ESC001", "ESC002", "ESC003", "INC001",
    "INC002", "INC003", "PAR000", "PAR001", "PAR002", "PAR003", "PAR004", "PLC001", "PLC002",
    "PLC003", "PLC004", "PLC005",
];

/// What [`replay_program`] found: the motion logs it validated and the
/// violations in them.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// The replayed motion log of every function, in
    /// [`FuncId`](earth_ir::FuncId) order.
    pub logs: Vec<MotionLog>,
    /// Every violation found; empty certifies that all the motions the
    /// optimizer would perform are translation-safe.
    pub violations: Vec<Diagnostic>,
}

/// Replays communication selection for every function of the
/// **unoptimized** `prog` against a precomputed (cached) `analysis` and
/// validates the resulting motion logs.
///
/// The replay is [`earth_commopt::plan_function`] — the planning prefix
/// the optimizer itself runs — under the same `cfg`, measured profile
/// included, so the plan being certified is the plan that gets applied.
/// `analysis` must have been computed for `prog` as it is passed here.
pub fn replay_program(prog: &Program, cfg: &CommOptConfig, analysis: &ProgramAnalysis) -> Replay {
    let mut out = Replay::default();
    // Independent re-derivation for `--escape on`: a fresh whole-program
    // escape/affinity run on the pre-optimization IR, never the
    // optimizer's own instance.
    let escape = match cfg.escape {
        EscapeMode::Off => None,
        EscapeMode::On => Some(EscapeAnalysis::compute(prog, &analysis.summaries)),
    };
    for (fid, f) in prog.iter_functions() {
        // Planning adds temporaries to its copy of the function; the body
        // (and thus every original label) is untouched until `apply_plan`.
        let (func, plan) = plan_function(prog, analysis, cfg, escape.as_ref(), fid);
        out.violations.extend(
            verify::verify_motions(&func, analysis.function(fid), &plan.motion)
                .into_iter()
                .map(|d| d.in_func(&f.name)),
        );
        if let Some(esc) = &escape {
            out.violations.extend(
                verify::verify_escapes(prog, fid, &plan.motion.escapes, esc)
                    .into_iter()
                    .map(|d| d.in_func(&f.name)),
            );
        }
        out.logs.push(plan.motion);
    }
    out
}

/// The violations of [`replay_program`]: an empty vector certifies that
/// all the motions the optimizer would perform under `cfg` are
/// translation-safe.
pub fn verify_program_with(
    prog: &Program,
    cfg: &CommOptConfig,
    analysis: &ProgramAnalysis,
) -> Vec<Diagnostic> {
    replay_program(prog, cfg, analysis).violations
}

/// Convenience wrapper around [`verify_program_with`] that computes the
/// whole-program analysis itself. Prefer the `_with` form inside the
/// pass-manager pipeline, where the analysis is shared through the cache.
pub fn verify_program(prog: &Program, cfg: &CommOptConfig) -> Vec<Diagnostic> {
    verify_program_with(prog, cfg, &earth_analysis::analyze(prog))
}
