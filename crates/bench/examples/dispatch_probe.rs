//! Two probes of where a simulator run spends its time.
//!
//! 1. The pure-dispatch speedup of the native tier: a compute-only
//!    EARTH-C loop (no remote ops, no spawns, one node), so neither
//!    backend touches the event heap after startup — about 7 ns per op
//!    native.
//! 2. How much scheduling an Olden run does: events queued
//!    ([`RunResult::sched_events`](earth_sim::RunResult)) against ops
//!    executed, per kernel, `static` build at `Full`/8. The kernels run 11
//!    to 1,300 ops per event (sampled: `next_span` + `schedule` are 5.4 %
//!    of a `sim_run` op), so the native tier's gap between probe 1 and
//!    its 12.7 ns per op on Olden is not the event heap: it is in the
//!    memory-op and call handlers (`load_remote` 15.7 %, `bin` 13.4 %,
//!    `br` 11.2 %, call/ret/`new_frame` about 17 % of sampled self time).

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

    println!("kernel        events         ops  ops/event   (static, Full/8, native)");
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
        let r = NativeMachine::new(cfg)
            .run(&np, entry, &(bench.args)(Preset::Full))
            .unwrap();
        println!(
            "{:<10} {:>9} {:>11} {:>10.1}",
            bench.name,
            r.sched_events,
            r.stats.ops,
            r.stats.ops as f64 / r.sched_events as f64
        );
    }
}
