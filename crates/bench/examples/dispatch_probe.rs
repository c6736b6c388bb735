//! Two probes of where a simulator run spends its time.
//!
//! 1. The pure-dispatch speedup of the native tier: a compute-only
//!    EARTH-C loop (no remote ops, no spawns, one node, 22.9 M ops), so
//!    neither backend touches the event heap after startup — about
//!    5.5 ns per op native.
//! 2. What an Olden run costs besides dispatch, per kernel, `static`
//!    build at `Full`/8: events queued
//!    ([`RunResult::sched_events`](earth_sim::RunResult)) against ops
//!    executed, native ns per op, and the high-water marks of the thread
//!    table and the frame arena (`RunResult::peak_threads`,
//!    `RunResult::peak_frame_cells`). The kernels run 11 to 1,300 ops
//!    per event. `next_span` + `schedule` take 8.0–8.4 % of the six
//!    runs' cycles (rdtsc brackets in an instrumented copy, which are up
//!    to about two points of that), treeadd alone 35–37 %. The native
//!    tier's 11.2–12.1 ns per op over the six, against 5.5 on probe 1,
//!    is therefore mostly not the event heap but the memory-op, call
//!    and spawn handlers. (Two shared x86-64 CPUs; best of five runs per
//!    kernel.)

use earth_olden::Preset;
use earth_sim::{CodegenOptions, Machine, MachineConfig, NativeMachine, NativeProgram, Value};
use std::time::Instant;

fn main() {
    let src = r#"
        int main(int n) {
            int i;
            int acc;
            acc = 0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc * 3 + i;
                if (acc > 1000000) { acc = acc % 9973; }
            }
            return acc;
        }
    "#;
    let mut prog = earthc::compile_earth_c(src).unwrap();
    earthc::earth_analysis::infer_locality(&mut prog);
    let compiled = earth_sim::compile(&prog, CodegenOptions::default()).unwrap();
    let entry = compiled.function_by_name("main").unwrap();
    let cfg = MachineConfig {
        max_ops: u64::MAX,
        ..MachineConfig::with_nodes(1)
    };
    let np = NativeProgram::compile(&compiled, &cfg.cost);
    let args = [Value::Int(3_000_000)];

    let mut interp = u64::MAX;
    let mut native = u64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let a = Machine::new(cfg.clone())
            .run(&compiled, entry, &args)
            .unwrap();
        interp = interp.min(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let b = NativeMachine::new(cfg.clone())
            .run(&np, entry, &args)
            .unwrap();
        native = native.min(t.elapsed().as_nanos() as u64);
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.time_ns, b.time_ns);
    }
    println!(
        "compute-only: interp {interp} ns | native {native} ns | {:.1}x",
        interp as f64 / native as f64
    );

    println!(
        "kernel        events         ops  ops/event  ns/op  threads    cells   (static, Full/8, native)"
    );
    let (mut all_ns, mut all_ops) = (0u64, 0u64);
    for bench in earth_olden::suite() {
        let mut prog = earthc::compile_earth_c(bench.source).unwrap();
        earthc::Pipeline::new()
            .workers(1)
            .apply_passes(&mut prog)
            .unwrap();
        let compiled = earth_sim::compile(&prog, CodegenOptions::default()).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let cfg = MachineConfig::with_nodes(8);
        let np = NativeProgram::compile(&compiled, &cfg.cost);
        let args = (bench.args)(Preset::Full);
        let mut best = u64::MAX;
        let mut run = None;
        for _ in 0..5 {
            let t = Instant::now();
            let r = NativeMachine::new(cfg.clone())
                .run(&np, entry, &args)
                .unwrap();
            best = best.min(t.elapsed().as_nanos() as u64);
            run = Some(r);
        }
        let r = run.unwrap();
        all_ns += best;
        all_ops += r.stats.ops;
        println!(
            "{:<10} {:>9} {:>11} {:>10.1} {:>6.1} {:>8} {:>8}",
            bench.name,
            r.sched_events,
            r.stats.ops,
            r.stats.ops as f64 / r.sched_events as f64,
            best as f64 / r.stats.ops as f64,
            r.peak_threads,
            r.peak_frame_cells,
        );
    }
    println!(
        "all six: {:.1} ns/op (best of five runs per kernel)",
        all_ns as f64 / all_ops as f64
    );
}
