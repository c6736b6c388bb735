//! `compile_cold`: every cache miss and every `earthcc run` pays for a
//! compile from source text; the frontend, the analyses and the
//! optimizer do all the work and the simulator and the server none.
//!
//! One op compiles the corpus (six Olden kernels and `programs/*.ec`)
//! under `simple`, `static`, `prob` and `escape`, from source text to
//! pre-decoded program.

use super::{compile_layers, probe_compile, Ready, Workload};
use crate::check::{accept_run, Exact, Expected, SimRow};
use crate::corpus::{self, kernels, programs, Mode, Source};
use crate::measure::Rng;
use crate::metrics::Layers;
use crate::trace::{OpTrace, Tracer};
use earthc::earth_olden::Preset;
use earthc::earth_sim::CodegenOptions;
use earthc::Pipeline;
use std::hint::black_box;

const MODES: [Mode; 4] = [Mode::Simple, Mode::Static, Mode::Prob, Mode::Escape];

struct Item {
    source: usize,
    mode: Mode,
    pipeline: Pipeline,
    /// The IR of the compile the set-up ran and accepted.
    ir: String,
}

struct CompileCold {
    sources: Vec<Source>,
    items: Vec<Item>,
    exact: Exact,
}

pub fn setup(seed: u64) -> Result<Ready, String> {
    let (workload, problems) = build(seed)?;
    Ok(Ready {
        workload: Box::new(workload),
        problems,
    })
}

fn build(seed: u64) -> Result<(CompileCold, Vec<String>), String> {
    let expected = Expected::load()?;
    let mut problems = Vec::new();
    let sources: Vec<Source> = kernels(Preset::Test)
        .into_iter()
        .chain(programs())
        .collect();
    let mut items = Vec::new();
    let mut rows = Vec::new();
    let mut t = Tracer::off();
    for (i, src) in sources.iter().enumerate() {
        let reference = expected.reference(src, &mut problems)?;
        for mode in MODES {
            let label = format!("{} {}", src.key(), mode.name());
            let pipeline = mode.pipeline(None);
            // The compiled program is accepted by running it: equality
            // with an earlier compile would only show that the compiler
            // repeats itself.
            let c = corpus::compile(&src.text, &pipeline, CodegenOptions::default(), &mut t)
                .map_err(|e| format!("{label}: {e}"))?;
            let run = accept_run(&label, &c, &src.args, &reference, &mut problems)
                .map_err(|e| format!("{label}: {e}"))?;
            rows.push(SimRow::new(src, mode, &run, true));
            items.push(Item {
                source: i,
                mode,
                pipeline,
                ir: c.ir,
            });
        }
    }
    Rng::new(seed).shuffle(&mut items);
    let exact = Exact::of(&rows)?;
    Ok((
        CompileCold {
            sources,
            items,
            exact,
        },
        problems,
    ))
}

impl Workload for CompileCold {
    fn op(&mut self, t: &mut Tracer) -> Result<usize, String> {
        let root = t.enter("op", "");
        let mut irs = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let src = &self.sources[item.source];
            let c = corpus::compile(&src.text, &item.pipeline, CodegenOptions::default(), t)
                .map_err(|e| format!("{} {}: {e}", src.key(), item.mode.name()))?;
            black_box(&c.native);
            irs.push(c.ir);
        }
        t.exit(root);
        Ok(irs
            .iter()
            .zip(&self.items)
            .filter(|(ir, item)| **ir != item.ir)
            .count())
    }

    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        for item in &self.items {
            probe_compile(&self.sources[item.source], item.mode, None, t)?;
        }
        Ok(())
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn layers(&mut self, ops: &[OpTrace], out: &mut Layers) -> Result<(), String> {
        compile_layers(ops, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_orders_the_compiles_and_nothing_else() {
        let order = |seed| {
            let (w, problems) = build(seed).unwrap();
            assert!(problems.is_empty(), "{problems:?}");
            let order: Vec<(usize, Mode)> = w.items.iter().map(|i| (i.source, i.mode)).collect();
            (order, w.exact)
        };
        let (a, exact_a) = order(1);
        let (b, exact_b) = order(2);
        assert_eq!(a, order(1).0);
        assert_ne!(a, b);
        assert_eq!(exact_a, exact_b);
        let sorted = |mut v: Vec<(usize, Mode)>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b));
    }
}
