//! The differential check `exec_sweep.rs` and `prop_exec.rs` share: the
//! reference interpreter (`Machine`) and the native tier
//! (`NativeMachine`) must agree on every `RunResult` field, or fail with
//! the same `SimError`.

use earthc::earth_sim::{
    CompiledProgram, Machine, MachineConfig, NativeMachine, NativeProgram, RunResult, SimError,
    Value,
};

/// Runs `compiled`'s `main` on both backends under `cfg`, with the op
/// histogram on, asserts that the two outcomes are identical, and
/// returns the interpreter's.
pub fn assert_backends_agree(
    mut cfg: MachineConfig,
    compiled: &CompiledProgram,
    args: &[Value],
    context: &str,
) -> Result<RunResult, SimError> {
    cfg.record_op_stats = true;
    let entry = compiled.function_by_name("main").expect("main");
    let native = NativeProgram::compile(compiled, &cfg.cost);
    let interp = Machine::new(cfg.clone()).run(compiled, entry, args);
    match (&interp, NativeMachine::new(cfg).run(&native, entry, args)) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.ret, y.ret, "{context}: return value");
            assert_eq!(x.time_ns, y.time_ns, "{context}: virtual time");
            assert_eq!(x.stats, y.stats, "{context}: comm stats");
            assert_eq!(x.output, y.output, "{context}: output");
            assert_eq!(x.node_busy_ns, y.node_busy_ns, "{context}: busy time");
            assert_eq!(
                x.site_trace.per_site, y.site_trace.per_site,
                "{context}: site trace"
            );
            assert_eq!(x.op_stats, y.op_stats, "{context}: op histogram");
            assert_eq!(x.op_stats.total(), x.stats.ops, "{context}: op accounting");
        }
        (Err(x), Err(y)) => assert_eq!(x, &y, "{context}: errors must match"),
        (a, b) => panic!("{context}: backends disagree: interp={a:?} native={b:?}"),
    }
    interp
}
