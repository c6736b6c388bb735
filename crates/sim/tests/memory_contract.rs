//! The simulator's memory follows the threads alive at once, not the
//! threads a run has made: a finished thread's table slot, its activation
//! records and the frames it owned are reused. Each program here makes
//! thousands to hundreds of thousands of short-lived threads and must end
//! with a thread table and a frame arena the size of its live set, on
//! both tiers.

use earth_sim::{
    compile, CodegenOptions, CompiledProgram, Machine, MachineConfig, NativeMachine, NativeProgram,
    RunResult, Value,
};

/// Runs `src`'s `main` on the interpreter and the native tier, asserts
/// they agree, and returns the result with `main`'s frame width.
fn run_both(src: &str, nodes: u16, args: &[Value]) -> (RunResult, u32) {
    let prog = earth_frontend::compile(src).unwrap();
    let compiled: CompiledProgram = compile(&prog, CodegenOptions::default()).unwrap();
    let entry = compiled.function_by_name("main").unwrap();
    let cfg = MachineConfig::with_nodes(nodes);
    let native = NativeProgram::compile(&compiled, &cfg.cost);
    let a = Machine::new(cfg.clone())
        .run(&compiled, entry, args)
        .unwrap();
    let b = NativeMachine::new(cfg).run(&native, entry, args).unwrap();
    assert_eq!((a.ret, a.time_ns, a.stats), (b.ret, b.time_ns, b.stats));
    assert_eq!(a.peak_threads, b.peak_threads, "thread high-water mark");
    assert_eq!(
        a.peak_frame_cells, b.peak_frame_cells,
        "frame high-water mark"
    );
    (a, compiled.functions[entry.index()].n_slots)
}

#[test]
fn a_loop_of_remote_calls_keeps_two_threads_and_two_frames() {
    let n = 100_000;
    let (r, _) = run_both(
        r#"
        int f(int i) {
            return i + 1;
        }
        int main(int n) {
            int i;
            int s;
            s = 0;
            for (i = 0; i < n; i = i + 1) {
                s = s + f(i) @ 1;
            }
            return s;
        }
        "#,
        2,
        &[Value::Int(n)],
    );
    assert_eq!(r.ret, Value::Int(n * (n + 1) / 2));
    assert_eq!(r.stats.remote_calls, n as u64);
    assert!(r.peak_threads <= 4, "{} threads", r.peak_threads);
    assert!(r.peak_frame_cells <= 64, "{} cells", r.peak_frame_cells);
}

#[test]
fn a_loop_of_foralls_keeps_one_iteration_set() {
    let n = 1_000;
    let (r, main_slots) = run_both(
        r#"
        int main(int n) {
            shared int c;
            int i;
            int j;
            writeto(&c, 0);
            for (i = 0; i < n; i = i + 1) {
                forall (j = 0; j < 8; j = j + 1) {
                    addto(&c, j);
                }
            }
            return valueof(&c);
        }
        "#,
        1,
        &[Value::Int(n)],
    );
    assert_eq!(r.ret, Value::Int(28 * n));
    assert_eq!(r.stats.spawns, 8 * n as u64);
    assert!(r.peak_threads <= 12, "{} threads", r.peak_threads);
    // `main`'s frame and one copy per live iteration.
    let frames = r.peak_frame_cells / main_slots as usize;
    assert!(
        frames <= 12,
        "{} cells = {frames} frames",
        r.peak_frame_cells
    );
}

/// A ready time is packed into 56 bits of a frame cell: one that does not
/// fit fails the run, the same way on both tiers, instead of wrapping.
#[test]
fn a_ready_time_past_the_cell_width_fails_the_run() {
    let prog = earth_frontend::compile(
        r#"
        struct P { int v; };
        int main() {
            P *p;
            p = malloc_on(1, sizeof(P));
            p->v = 3;
            return p->v;
        }
        "#,
    )
    .unwrap();
    let compiled = compile(&prog, CodegenOptions::default()).unwrap();
    let entry = compiled.function_by_name("main").unwrap();
    let mut cfg = MachineConfig::with_nodes(2);
    let fine = Machine::new(cfg.clone())
        .run(&compiled, entry, &[])
        .unwrap();
    assert_eq!(fine.ret, Value::Int(3));
    assert_eq!(fine.stats.read_data, 1, "the read is split-phase");
    cfg.cost.read_latency_ns = 1 << 60;
    let native = NativeProgram::compile(&compiled, &cfg.cost);
    let a = Machine::new(cfg.clone())
        .run(&compiled, entry, &[])
        .unwrap_err();
    let b = NativeMachine::new(cfg)
        .run(&native, entry, &[])
        .unwrap_err();
    assert_eq!(a, b);
    assert!(a.message.contains("overflows a frame cell"), "{a}");
}
