//! The execution subsystem: one machine core under two dispatchers.
//!
//! Two backends execute the same [`CompiledProgram`]s:
//!
//! * **interp** — [`Machine`], the op-at-a-time
//!   interpreter; the semantic reference.
//! * **native** — [`NativeMachine`] running a [`NativeProgram`]: a
//!   pre-decoding pass resolves every jump target, field offset, and
//!   operand slot into a flat step table, bakes per-op costs in, elides
//!   provably-unneeded readiness checks, and chains straight-line ops
//!   into single dispatches. The default ([`ExecBackend::default`]).
//!
//! Shared by construction — both machines wrap the same `core::Core`
//! and there is no second copy to keep equal: machine state (heaps, the
//! cell arena of frames, thread table, EU accounting, statistics), the
//! scheduler (boot, event loop, EU-span prologue, result and deadlock
//! reporting), frame allocation and reclaim, stall/release accounting,
//! and every thread-protocol transition (call, `Ret`, `Fork`,
//! `SpawnIter`, `JoinIters`, `EndArm`); `account` holds the records and
//! the arithmetic evaluators.
//!
//! Implemented twice, on purpose: how one op is decoded and what its
//! value, memory and cost effects are. The interpreter matches on `Op`
//! at run time, always computes the op's ready time first, and has one
//! arm per op — that is the reference. The native tier's handlers are
//! what the reference is there to check: pre-decoded operands,
//! `CHECK`-elided readiness tests, chaining, the Int×Int fast path. The
//! differential suites (`tests/prop_exec.rs`, `tests/exec_sweep.rs`)
//! compare the two on every [`RunResult`] field, including
//! [`SiteTrace`](crate::SiteTrace) counters and stall accounting; a
//! difference can only come from those handlers.

pub(crate) mod account;
pub(crate) mod core;
mod native;
mod predecode;

pub use native::NativeMachine;
pub use predecode::NativeProgram;

use crate::bytecode::CompiledProgram;
use crate::machine::{Machine, MachineConfig, RunResult, SimError};
use crate::value::Value;
use earth_ir::FuncId;
use std::fmt;
use std::str::FromStr;

/// Which execution engine runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The op-at-a-time interpreter (the semantic reference).
    Interp,
    /// The pre-decoded, closure-compiled tier (byte-identical results,
    /// much higher run throughput). The default everywhere a backend can
    /// be chosen.
    #[default]
    Native,
}

impl ExecBackend {
    /// Canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Interp => "interp",
            ExecBackend::Native => "native",
        }
    }
}

impl FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" => Ok(ExecBackend::Interp),
            "native" => Ok(ExecBackend::Native),
            other => Err(format!(
                "unknown backend `{other}` (expected `interp` or `native`)"
            )),
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `func` with `args` on the chosen backend. For the native backend
/// this pre-decodes the program first; callers running the same program
/// repeatedly should compile a [`NativeProgram`] once and drive a
/// [`NativeMachine`] directly.
///
/// # Errors
///
/// Propagates the backend's [`SimError`]; both backends fail identically.
pub fn run_compiled(
    backend: ExecBackend,
    cfg: MachineConfig,
    prog: &CompiledProgram,
    func: FuncId,
    args: &[Value],
) -> Result<RunResult, SimError> {
    match backend {
        ExecBackend::Interp => Machine::new(cfg).run(prog, func, args),
        ExecBackend::Native => {
            let np = NativeProgram::compile(prog, &cfg.cost);
            NativeMachine::new(cfg).run(&np, func, args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CodegenOptions};

    /// Runs `src` on both backends and asserts the full results —
    /// return value, virtual time, stats, output, per-node busy time,
    /// site trace, op histogram — are identical.
    fn assert_identical(src: &str, nodes: u16, args: &[Value]) {
        let prog = earth_frontend::compile(src).expect("frontend");
        let compiled = compile(
            &prog,
            CodegenOptions {
                record_sites: true,
                ..CodegenOptions::default()
            },
        )
        .expect("codegen");
        let entry = compiled.function_by_name("main").expect("main");
        let cfg = MachineConfig {
            n_nodes: nodes,
            record_op_stats: true,
            ..MachineConfig::default()
        };
        let a = run_compiled(ExecBackend::Interp, cfg.clone(), &compiled, entry, args);
        let b = run_compiled(ExecBackend::Native, cfg, &compiled, entry, args);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.ret, y.ret);
                assert_eq!(x.time_ns, y.time_ns, "virtual completion time");
                assert_eq!(x.stats, y.stats);
                assert_eq!(x.output, y.output);
                assert_eq!(x.node_busy_ns, y.node_busy_ns);
                assert_eq!(x.site_trace.per_site, y.site_trace.per_site);
                assert_eq!(x.op_stats, y.op_stats);
                assert_eq!(x.op_stats.total(), x.stats.ops);
            }
            (a, b) => panic!("backends disagree: interp={a:?} native={b:?}"),
        }
    }

    #[test]
    fn scalar_math_identical() {
        assert_identical(
            r#"
            struct Point { double x; double y; };
            double main() {
                Point *p;
                double d;
                p = malloc(sizeof(Point));
                p->x = 3.0;
                p->y = 4.0;
                d = sqrt(p->x * p->x + p->y * p->y);
                print_double(d);
                return d;
            }
            "#,
            2,
            &[],
        );
    }

    #[test]
    fn tree_fork_remote_calls_identical() {
        let src = r#"
            struct T { T* left; T* right; int v; };
            T* build(int depth, int lo) {
                T *t;
                t = malloc(sizeof(T));
                t->v = depth;
                if (depth == 0) { t->left = NULL; t->right = NULL; return t; }
                t->left = build_at(depth - 1, lo * 2);
                t->right = build_at(depth - 1, lo * 2 + 1);
                return t;
            }
            T* build_at(int depth, int lo) {
                return build(depth, lo) @ (lo % num_nodes());
            }
            int sum(T *t) {
                int a;
                int b;
                if (t == NULL) { return 0; }
                {^
                    a = sum_at(t->left);
                    b = sum_at(t->right);
                ^}
                return a + b + t->v;
            }
            int sum_at(T *t) {
                if (t == NULL) { return 0; }
                return sum(t) @ OWNER_OF(t);
            }
            int main(int depth) {
                T *root;
                root = build(depth, 0);
                return sum(root);
            }
        "#;
        for nodes in [1, 2, 8] {
            assert_identical(src, nodes, &[Value::Int(5)]);
        }
    }

    #[test]
    fn forall_shared_counter_identical() {
        let src = r#"
            struct node { node* next; int value; };
            int equal_node(node local *p, node *q) {
                return p->value == q->value;
            }
            int count(node *head, node *x) {
                shared int cnt;
                node *p;
                writeto(&cnt, 0);
                forall (p = head; p != NULL; p = p->next) {
                    if (equal_node(p, x) @ OWNER_OF(p)) {
                        addto(&cnt, 1);
                    }
                }
                return valueof(&cnt);
            }
            int main(int n) {
                node *head;
                node *q;
                node *x;
                int i;
                head = NULL;
                for (i = 0; i < n; i = i + 1) {
                    q = malloc_on(i % num_nodes(), sizeof(node));
                    q->value = rand() % 5;
                    q->next = head;
                    head = q;
                }
                x = malloc(sizeof(node));
                x->value = 2;
                return count(head, x);
            }
        "#;
        for nodes in [1, 3, 4] {
            assert_identical(src, nodes, &[Value::Int(25)]);
        }
    }

    #[test]
    fn errors_identical() {
        let prog = earth_frontend::compile(
            r#"
            int main(int d) {
                int x;
                x = 10 / d;
                return x;
            }
            "#,
        )
        .unwrap();
        let compiled = compile(&prog, CodegenOptions::default()).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let cfg = MachineConfig::default();
        let a = run_compiled(
            ExecBackend::Interp,
            cfg.clone(),
            &compiled,
            entry,
            &[Value::Int(0)],
        )
        .unwrap_err();
        let b =
            run_compiled(ExecBackend::Native, cfg, &compiled, entry, &[Value::Int(0)]).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_error_identical() {
        let prog = earth_frontend::compile(
            r#"
            int main() {
                int i;
                i = 0;
                while (i >= 0) { i = i + 1; }
                return i;
            }
            "#,
        )
        .unwrap();
        let compiled = compile(&prog, CodegenOptions::default()).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let cfg = MachineConfig {
            max_ops: 10_000,
            ..MachineConfig::default()
        };
        let a = run_compiled(ExecBackend::Interp, cfg.clone(), &compiled, entry, &[]).unwrap_err();
        let b = run_compiled(ExecBackend::Native, cfg, &compiled, entry, &[]).unwrap_err();
        assert!(a.message.contains("budget"));
        assert_eq!(a, b);
    }

    #[test]
    fn backend_flag_parses() {
        assert_eq!(
            "interp".parse::<ExecBackend>().unwrap(),
            ExecBackend::Interp
        );
        assert_eq!(
            "native".parse::<ExecBackend>().unwrap(),
            ExecBackend::Native
        );
        assert!("jit".parse::<ExecBackend>().is_err());
        assert_eq!(ExecBackend::default(), ExecBackend::Native);
        assert_eq!(ExecBackend::Native.to_string(), "native");
    }
}
