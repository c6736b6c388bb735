//! Runs the Olden `power` benchmark across machine sizes, comparing the
//! sequential, simple, and communication-optimized builds — one row of the
//! paper's Table III.
//!
//! Run with: `cargo run --release --example olden_power`

use earthc::earth_olden::{by_name, Preset};
use earthc::{compile_earth_c, earth_sim, Pipeline};

fn main() {
    let bench = by_name("power").expect("power is in the suite");
    let args = (bench.args)(Preset::Small);
    let prog = compile_earth_c(bench.source).expect("power compiles");
    let seq = earth_sim::run_sequential(&prog, "main", &args).expect("sequential");
    println!("sequential C: {:.4}s\n", seq.time_ns as f64 / 1e9);
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>7}",
        "procs", "simple(s)", "optimized(s)", "simple-SU", "opt-SU", "%impr"
    );
    for procs in [1u16, 2, 4, 8, 16] {
        let optimized = Pipeline::new().nodes(procs);
        let simple = optimized
            .clone()
            .optimizer(None)
            .run_source(bench.source, &args)
            .expect("simple");
        let opt = optimized
            .run_source(bench.source, &args)
            .expect("optimized");
        assert_eq!(simple.ret, seq.ret);
        assert_eq!(opt.ret, seq.ret);
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>10.2} {:>10.2} {:>7.2}",
            procs,
            simple.time_ns as f64 / 1e9,
            opt.time_ns as f64 / 1e9,
            seq.time_ns as f64 / simple.time_ns as f64,
            seq.time_ns as f64 / opt.time_ns as f64,
            100.0 * (simple.time_ns as f64 - opt.time_ns as f64) / simple.time_ns as f64,
        );
    }
}
