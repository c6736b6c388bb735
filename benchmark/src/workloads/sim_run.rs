//! `sim_run`: the simulator does all the work and the compiler none.
//!
//! One op runs the six Olden kernels, `static` build, evaluation size,
//! eight nodes, on the native tier over programs pre-decoded in set-up —
//! how the daemon serves `run` traffic from resident artifacts.

use super::{med, sim_layers, Ready, Workload};
use crate::check::{accept_run, run_interp, same_run, simple_baseline, Exact, Expected, SimRow};
use crate::corpus::{self, kernels, Compiled, Mode, Source, NODES};
use crate::measure::Rng;
use crate::metrics::Layers;
use crate::trace::{OpTrace, Tracer};
use earthc::earth_olden::Preset;
use earthc::earth_sim::{MachineConfig, NativeMachine, RunResult};

struct Kernel {
    source: Source,
    compiled: Compiled,
    accepted: RunResult,
}

struct SimRun {
    kernels: Vec<Kernel>,
    exact: Exact,
    interp_probed: bool,
}

pub fn setup(seed: u64) -> Result<Ready, String> {
    let expected = Expected::load()?;
    let mut problems = Vec::new();
    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for source in kernels(Preset::Full) {
        let key = source.key();
        let reference = expected.reference(&source, &mut problems)?;
        let compiled = corpus::build(&source, Mode::Static)?;
        let accepted = accept_run(&key, &compiled, &source.args, &reference, &mut problems)
            .map_err(|e| format!("{key}: {e}"))?;
        rows.push(SimRow::new(&source, Mode::Static, &accepted, true));
        rows.push(simple_baseline(&source)?);
        runs.push(Kernel {
            source,
            compiled,
            accepted,
        });
    }
    Rng::new(seed).shuffle(&mut runs);
    Ok(Ready {
        workload: Box::new(SimRun {
            kernels: runs,
            exact: Exact::of(&rows)?,
            interp_probed: false,
        }),
        problems,
    })
}

impl Workload for SimRun {
    fn op(&mut self, t: &mut Tracer) -> Result<usize, String> {
        let root = t.enter("op", "");
        let mut results = Vec::with_capacity(self.kernels.len());
        for k in &self.kernels {
            let c = &k.compiled;
            let r = t
                .span("sim.native", k.source.name, || {
                    NativeMachine::new(MachineConfig::with_nodes(NODES)).run(
                        &c.native,
                        c.entry,
                        &k.source.args,
                    )
                })
                .map_err(|e| format!("{}: {e}", k.source.key()))?;
            results.push(r);
        }
        t.exit(root);
        for r in &results {
            t.count("sim.ops", "", r.stats.ops as f64);
            t.count("sim.stall_ms", "", r.stats.stall_ns as f64 / 1e6);
        }
        Ok(results
            .iter()
            .zip(&self.kernels)
            .filter(|(r, k)| !same_run(r, &k.accepted))
            .count())
    }

    /// The reference engine over the same six programs, once per run: a
    /// number to watch, not one an op pays.
    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        if self.interp_probed {
            return Ok(());
        }
        self.interp_probed = true;
        for k in &self.kernels {
            t.probe("sim.interp", || run_interp(&k.compiled, &k.source.args))?;
        }
        Ok(())
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn layers(&mut self, ops: &[OpTrace], out: &mut Layers) -> Result<(), String> {
        sim_layers(ops, out);
        let interp_ms: f64 = ops.iter().map(|o| o.probe("sim.interp")).sum();
        out.set(
            "sim.interp_ns_per_op",
            1e6 * interp_ms / med(ops, |o| o.count("sim.ops")),
        );
        out.set(
            "trace.unattributed_pct",
            med(ops, |o| 100.0 * o.self_time("op") / o.total("op")),
        );
        Ok(())
    }
}
