//! `olden_modes`: the paper's experiment. The only workload whose
//! headline numbers are virtual time and communication count, the only
//! one through `earth-profile`, and it uses the simulator differently
//! from `sim_run`: site recording on, many short runs.
//!
//! One op takes the six Olden kernels at the small size through
//! `simple`, `static`, `prob`, `escape` and `pgo`: compile, for `pgo` an
//! instrumented run folded into a profile first, then a native run.

use super::{compile_layers, med, probe_compile, sim_layers, Ready, Workload};
use crate::check::{accept_run, same_run, Exact, Expected, SimRow};
use crate::corpus::{self, kernels, Compiled, Mode, Source, NODES};
use crate::measure::Rng;
use crate::metrics::Layers;
use crate::trace::{OpTrace, Tracer};
use earthc::earth_olden::Preset;
use earthc::earth_sim::{CodegenOptions, MachineConfig, NativeMachine, RunResult};
use earthc::Profile;

struct Item {
    source: usize,
    mode: Mode,
    accepted: RunResult,
}

struct OldenModes {
    sources: Vec<Source>,
    /// The profile of each source's instrumented run (for the probes).
    profiles: Vec<Profile>,
    items: Vec<Item>,
    exact: Exact,
}

fn native_run(
    src: &Source,
    c: &Compiled,
    span: &'static str,
    t: &mut Tracer,
) -> Result<RunResult, String> {
    t.span(span, src.name, || {
        NativeMachine::new(MachineConfig::with_nodes(NODES)).run(&c.native, c.entry, &src.args)
    })
    .map_err(|e| format!("{}: {e}", src.key()))
}

/// The instrumented build (no communication optimization, sites
/// recorded) run once and folded into a profile — what
/// `Pipeline::instrument_source` does, on the native tier.
fn measure_profile(src: &Source, t: &mut Tracer) -> Result<Profile, String> {
    let options = CodegenOptions {
        record_sites: true,
        ..CodegenOptions::default()
    };
    let c = corpus::compile(&src.text, &Mode::Simple.pipeline(None), options, t)
        .map_err(|e| format!("{} instrumented: {e}", src.key()))?;
    let run = native_run(src, &c, "sim.instrumented", t)?;
    Ok(t.span("profile.from_trace", "", || {
        Profile::from_trace(&c.bytecode, &run.site_trace)
    }))
}

/// Compiles `src` under `mode`, measuring the profile first for `pgo`.
fn build(src: &Source, mode: Mode, t: &mut Tracer) -> Result<(Compiled, Option<Profile>), String> {
    let profile = match mode {
        Mode::Pgo => Some(measure_profile(src, t)?),
        _ => None,
    };
    let c = corpus::compile(
        &src.text,
        &mode.pipeline(profile.as_ref()),
        CodegenOptions::default(),
        t,
    )
    .map_err(|e| format!("{} {}: {e}", src.key(), mode.name()))?;
    Ok((c, profile))
}

pub fn setup(seed: u64) -> Result<Ready, String> {
    let expected = Expected::load()?;
    let mut problems = Vec::new();
    let sources = kernels(Preset::Small);
    let mut profiles = Vec::new();
    let mut items = Vec::new();
    let mut rows = Vec::new();
    let mut t = Tracer::off();
    for (i, src) in sources.iter().enumerate() {
        let key = src.key();
        let reference = expected.reference(src, &mut problems)?;
        for mode in Mode::ALL {
            let label = format!("{key} {}", mode.name());
            let (c, profile) = build(src, mode, &mut t)?;
            profiles.extend(profile);
            let accepted = accept_run(&label, &c, &src.args, &reference, &mut problems)
                .map_err(|e| format!("{label}: {e}"))?;
            rows.push(SimRow::new(src, mode, &accepted, true));
            items.push(Item {
                source: i,
                mode,
                accepted,
            });
        }
    }
    Rng::new(seed).shuffle(&mut items);
    Ok(Ready {
        workload: Box::new(OldenModes {
            sources,
            profiles,
            items,
            exact: Exact::of(&rows)?,
        }),
        problems,
    })
}

impl Workload for OldenModes {
    fn op(&mut self, t: &mut Tracer) -> Result<usize, String> {
        let root = t.enter("op", "");
        let mut results = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let src = &self.sources[item.source];
            let (c, _) = build(src, item.mode, t)?;
            results.push(native_run(src, &c, "sim.native", t)?);
        }
        t.exit(root);
        for r in &results {
            t.count("sim.ops", "", r.stats.ops as f64);
            t.count("sim.stall_ms", "", r.stats.stall_ns as f64 / 1e6);
        }
        Ok(results
            .iter()
            .zip(&self.items)
            .filter(|(r, item)| !same_run(r, &item.accepted))
            .count())
    }

    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        for item in &self.items {
            let src = &self.sources[item.source];
            if item.mode == Mode::Pgo {
                // The instrumented build is a `simple` compile of its own.
                probe_compile(src, Mode::Simple, None, t)?;
            }
            probe_compile(src, item.mode, Some(&self.profiles[item.source]), t)?;
        }
        Ok(())
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn layers(&mut self, ops: &[OpTrace], out: &mut Layers) -> Result<(), String> {
        compile_layers(ops, out);
        sim_layers(ops, out);
        out.set(
            "sim.instrumented_ms",
            med(ops, |o| o.total("sim.instrumented")),
        );
        out.set(
            "profile.from_trace_ms",
            med(ops, |o| o.total("profile.from_trace")),
        );
        out.set(
            "profile.sites_matched",
            med(ops, |o| o.count("profile.sites_matched")),
        );
        out.set(
            "commopt.pgo_flips",
            med(ops, |o| o.count("commopt.pgo_flips")),
        );
        // Every op repeated these exactly, or it counted as failed.
        for item in &self.items {
            let row = format!("{}.{}", self.sources[item.source].name, item.mode.name());
            out.set(
                &format!("virt_us.{row}"),
                item.accepted.time_ns as f64 / 1e3,
            );
            out.set(
                &format!("comm.{row}"),
                item.accepted.stats.total_comm() as f64,
            );
        }
        Ok(())
    }
}
