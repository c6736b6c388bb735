//! The five workloads. Each is set up from a seed, then runs ops until
//! the harness stops it; an op checks its own outputs against the
//! references its set-up accepted.

mod compile_cold;
mod daemon;
mod olden_modes;
mod sim_run;

use crate::check::Exact;
use crate::corpus::{Mode, Source};
use crate::measure::median;
use crate::metrics::Layers;
use crate::trace::{OpTrace, Tracer};
use earthc::earth_analysis::{analyze, infer_locality};
use earthc::earth_commopt::optimize_program_with;
use earthc::earth_frontend::lex;
use earthc::{Profile, ProfileDb};
use std::sync::Arc;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 5] = [
    "compile_cold",
    "sim_run",
    "olden_modes",
    "daemon_warm",
    "daemon_churn",
];

/// The clock a workload's op times are taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time: the op runs on the calling thread and never waits.
    Wall,
    /// CPU time of the program's threads (client, event loop and
    /// worker). A closed loop over a socket spends a sixth of its wall
    /// time in wake-ups between those threads, and that share follows
    /// the machine, not the program; see the README.
    Cpu,
}

pub trait Workload {
    fn clock(&self) -> Clock {
        Clock::Wall
    }

    /// The thread of the workload's [`Spinner`](crate::measure::Spinner), if
    /// it keeps one: the harness's own, left out of the CPU clocks.
    fn spinner_tid(&self) -> Option<u32> {
        None
    }

    /// Runs one op and returns how many of its outputs failed a check.
    /// An `Err` is an op that could not complete at all.
    fn op(&mut self, t: &mut Tracer) -> Result<usize, String>;

    /// Traced pass only, after the op's clock has stopped: replays the
    /// public functions of the layers the op reached through a facade.
    fn probe(&mut self, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// The metrics on the simulator's clock.
    fn exact(&self) -> Exact;

    /// Turns the traced ops into this workload's per-layer metrics.
    fn layers(&mut self, ops: &[OpTrace], out: &mut Layers) -> Result<(), String>;

    /// Stops whatever the set-up started.
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// A workload ready to run, and what its reference checks found wrong.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    pub problems: Vec<String>,
}

/// In-process, CPU-bound work only: builds the inputs from `seed`,
/// computes and checks the references, and for the daemon workloads
/// binds, connects and primes the cache.
pub fn setup(name: &str, seed: u64) -> Result<Ready, String> {
    match name {
        "compile_cold" => compile_cold::setup(seed),
        "sim_run" => sim_run::setup(seed),
        "olden_modes" => olden_modes::setup(seed),
        "daemon_warm" => daemon::setup_warm(seed),
        "daemon_churn" => daemon::setup_churn(seed),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// The median over the traced ops of `f(op)`.
fn med(ops: &[OpTrace], f: impl Fn(&OpTrace) -> f64) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

/// Probes of the compile path, for one (source, mode) an op compiled:
/// `parse_unit` lexes and `apply_passes` analyses and optimizes behind
/// their facades, so the same public functions are called here directly
/// on the same input.
fn probe_compile(
    src: &Source,
    mode: Mode,
    profile: Option<&Profile>,
    t: &mut Tracer,
) -> Result<(), String> {
    let tokens = t
        .probe("frontend.lex", || lex(&src.text))
        .map_err(|e| format!("{}: lex: {e}", src.name))?;
    t.count("frontend.tokens", "", tokens.len() as f64);
    let mut prog = earthc::compile_earth_c(&src.text).map_err(|e| format!("{}: {e}", src.name))?;
    t.probe("analysis.locality", || infer_locality(&mut prog));
    if let Some(mut cfg) = mode.config() {
        cfg.profile = profile
            .filter(|_| mode == Mode::Pgo)
            .map(|p| Arc::new(ProfileDb::new(p.clone())));
        let analysis = t.probe("analysis.analyze", || analyze(&prog));
        let report = t.probe("commopt.optimize", || {
            optimize_program_with(&mut prog, &cfg, &analysis, 1)
        });
        let motions: usize = report.functions.iter().map(|f| f.motion.len()).sum();
        t.count("commopt.motions", "", motions as f64);
    }
    Ok(())
}

/// Per-layer metrics of the compile path, shared by the workloads whose
/// op compiles on the calling thread.
fn compile_layers(ops: &[OpTrace], out: &mut Layers) {
    out.set("frontend.lex_ms", med(ops, |o| o.probe("frontend.lex")));
    out.set(
        "frontend.parse_ms",
        med(ops, |o| o.total("frontend.parse") - o.probe("frontend.lex")),
    );
    out.set("frontend.lower_ms", med(ops, |o| o.total("frontend.lower")));
    out.set("frontend.tokens", med(ops, |o| o.count("frontend.tokens")));
    out.set(
        "analysis.locality_ms",
        med(ops, |o| o.probe("analysis.locality")),
    );
    out.set(
        "analysis.analyze_ms",
        med(ops, |o| o.probe("analysis.analyze")),
    );
    out.set(
        "commopt.optimize_ms",
        med(ops, |o| o.probe("commopt.optimize")),
    );
    out.set("commopt.motions", med(ops, |o| o.count("commopt.motions")));
    out.set("pass.apply_ms", med(ops, |o| o.total("pass.apply")));
    out.set("pass.manager_self_ms", med(ops, manager_self));
    out.set(
        "pass.analysis_misses",
        med(ops, |o| o.count("pass.analysis_misses")),
    );
    out.set("ir.pretty_ms", med(ops, |o| o.total("ir.pretty")));
    out.set(
        "ir.stmts_lowered",
        med(ops, |o| o.count("ir.stmts_lowered")),
    );
    out.set(
        "ir.stmts_optimized",
        med(ops, |o| o.count("ir.stmts_optimized")),
    );
    out.set("sim.codegen_ms", med(ops, |o| o.total("sim.codegen")));
    out.set("sim.predecode_ms", med(ops, |o| o.total("sim.predecode")));
    out.set("trace.unattributed_pct", med(ops, unattributed_pct));
}

/// `apply_passes` minus the per-pass walls of the report it returns.
fn manager_self(o: &OpTrace) -> f64 {
    o.total("pass.apply") - o.count("pass.passes_wall_ms")
}

/// The share of the op no layer's self time accounts for: the op's own
/// glue, plus what `apply_passes` spends outside the pass manager and
/// the three functions probed (the survey and validation passes).
fn unattributed_pct(o: &OpTrace) -> f64 {
    let inside_apply = o.probe("analysis.locality")
        + o.probe("analysis.analyze")
        + o.probe("commopt.optimize")
        + manager_self(o);
    100.0 * (o.self_time("op") + o.total("pass.apply") - inside_apply) / o.total("op")
}

/// Per-layer metrics of native simulator runs.
fn sim_layers(ops: &[OpTrace], out: &mut Layers) {
    out.set("sim.native_ms", med(ops, |o| o.total("sim.native")));
    for kernel in crate::corpus::kernel_names() {
        out.set(
            &format!("sim.native_ms.{kernel}"),
            med(ops, |o| o.total_tagged("sim.native", kernel)),
        );
    }
    out.set(
        "sim.native_ns_per_op",
        med(ops, |o| 1e6 * o.total("sim.native") / o.count("sim.ops")),
    );
    out.set("sim.ops", med(ops, |o| o.count("sim.ops")));
    out.set("sim.stall_ms", med(ops, |o| o.count("sim.stall_ms")));
}
