//! Bench of the compiler itself: frontend, analyses, the communication
//! optimizer, and the full pass pipeline over the largest benchmark
//! sources. Plain timing harness (no external bench framework; the
//! workspace builds offline).

use earth_commopt::{default_workers, optimize_program, optimize_program_with, CommOptConfig};
use earth_olden::suite;
use earth_pass::passes::{LocalityPass, OptimizePass, RaceLintPass, VerifyPlacementPass};
use earth_pass::PassManager;
use std::time::Instant;

fn time<F: FnMut()>(label: &str, mut f: F) {
    const ITERS: u32 = 50;
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let per_iter = start.elapsed() / ITERS;
    println!("{label}: {per_iter:?} per iteration ({ITERS} iterations)");
}

fn main() {
    for bench in suite() {
        time(&format!("pipeline/frontend/{}", bench.name), || {
            std::hint::black_box(earth_frontend::compile(bench.source).expect("compiles"));
        });
        let prog = earth_frontend::compile(bench.source).expect("compiles");
        time(&format!("pipeline/analysis/{}", bench.name), || {
            std::hint::black_box(earth_analysis::analyze(&prog));
        });
        time(&format!("pipeline/optimize/{}", bench.name), || {
            let mut p = prog.clone();
            std::hint::black_box(optimize_program(&mut p, &CommOptConfig::default()));
        });
        let analysis = earth_analysis::analyze(&prog);
        for workers in [1, default_workers().max(2)] {
            time(
                &format!("pipeline/optimize-workers{workers}/{}", bench.name),
                || {
                    let mut p = prog.clone();
                    std::hint::black_box(optimize_program_with(
                        &mut p,
                        &CommOptConfig::default(),
                        &analysis,
                        workers,
                    ));
                },
            );
        }
    }

    // Per-pass wall times and cache counters through the pass manager,
    // over the whole suite (one cached analysis per kernel).
    for bench in suite() {
        let prog = earth_frontend::compile(bench.source).expect("compiles");
        let mut pm = PassManager::new();
        pm.register(LocalityPass)
            .register(VerifyPlacementPass::new(CommOptConfig::default()))
            .register(RaceLintPass::new())
            .register(OptimizePass::new(
                CommOptConfig::default(),
                default_workers(),
                None,
            ));
        let mut p = prog.clone();
        let mut cache = earth_analysis::AnalysisCache::new();
        let report = pm.run(&mut p, &mut cache).expect("pipeline succeeds");
        println!("--- pass timings: {} ---", bench.name);
        print!("{}", report.render());
    }
}
