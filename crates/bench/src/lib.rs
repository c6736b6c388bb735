//! # earth-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §4 for the index):
//!
//! * [`table1`] — communication cost microkernels (Table I),
//! * [`experiments`] — Figure 10 (dynamic communication counts) and
//!   Table III (performance improvement),
//! * [`ablation`] — component / threshold / frequency ablations beyond the
//!   paper,
//! * [`pgo`] — static heuristics vs measured-profile feedback
//!   (instrument → simulate → recompile).
//!
//! Runnable binaries: `table1`, `table2`, `fig10`, `table3`,
//! `ablation_placement`, `ablation_threshold`, `ablation_freq`,
//! `ablation_pgo`, `ablation_inline` and `ablation_locality` (`fig10`,
//! `table3` and the six ablations accept
//! `--test` / `--small` / `--full` to change the problem size, all but
//! `table3` also `--nodes N`), `bench_cluster` (the serving-layer
//! scaling behind `BENCH_cluster.json`), and the `dispatch_probe`
//! example.
//!
//! Every printer builds and runs the Olden kernels through
//! [`earthc::Pipeline`], the pipeline `earthcc` and `earthd` run: locality
//! inference on, the native execution tier. Each variant is one of its
//! settings (`ablation_locality` turns the inference off as its
//! baseline), and the transform counts printed come from the report's
//! pass counters. The Sequential column of Table III is
//! [`earth_sim::run_sequential`]. Host-time numbers come from the
//! `benchmark/` package at the repository root.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod experiments;
pub mod pgo;
pub mod render;
pub mod table1;

use earth_olden::Preset;

/// Parses the common `--small` / `--full` / `--test` size flags
/// (default: `Preset::Small`).
pub fn preset_from_args() -> Preset {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--full") {
        Preset::Full
    } else if args.iter().any(|a| a == "--test") {
        Preset::Test
    } else {
        Preset::Small
    }
}

/// Parses `--nodes N` (default 8). A missing, non-numeric or zero count
/// prints a one-line `error:` and exits with status 2.
pub fn nodes_from_args() -> u16 {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == "--nodes") else {
        return 8;
    };
    match args.get(i + 1).map(|s| s.parse::<u16>()) {
        Some(Ok(n)) if n >= 1 => n,
        _ => {
            eprintln!("error: --nodes needs an integer of at least 1");
            std::process::exit(2)
        }
    }
}
