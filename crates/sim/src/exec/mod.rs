//! The execution subsystem: one machine core under two dispatchers.
//!
//! Two dispatchers execute the same
//! [`CompiledProgram`](crate::CompiledProgram)s:
//!
//! * **native** — [`NativeMachine`] running a [`NativeProgram`]: a
//!   pre-decoding pass resolves every jump target, field offset, and
//!   operand slot into a flat step table, bakes per-op costs in, elides
//!   provably-unneeded readiness checks, and chains straight-line ops
//!   into single dispatches. Every program a user runs (`earthcc`,
//!   `earthd`, `earthc::Pipeline`) runs here.
//! * **interp** — [`Machine`](crate::Machine), the op-at-a-time
//!   interpreter: the semantic reference the tests and `benchmark/`
//!   compare the native tier against.
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
//! compare the two on every [`RunResult`](crate::RunResult) field, including
//! [`SiteTrace`](crate::SiteTrace) counters and stall accounting; a
//! difference can only come from those handlers.

pub(crate) mod account;
pub(crate) mod core;
mod native;
mod predecode;

pub use native::NativeMachine;
pub use predecode::NativeProgram;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        compile, CodegenOptions, CompiledProgram, Machine, MachineConfig, RunResult, SimError,
        Value,
    };
    use earth_ir::FuncId;

    type Outcome = Result<RunResult, SimError>;

    /// Runs `func` on the reference interpreter and on the native tier.
    fn run_both(
        cfg: MachineConfig,
        prog: &CompiledProgram,
        func: FuncId,
        args: &[Value],
    ) -> (Outcome, Outcome) {
        let interp = Machine::new(cfg.clone()).run(prog, func, args);
        let native = NativeMachine::new(cfg.clone()).run(
            &NativeProgram::compile(prog, &cfg.cost),
            func,
            args,
        );
        (interp, native)
    }

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
        match run_both(cfg, &compiled, entry, args) {
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
        let (a, b) = run_both(cfg, &compiled, entry, &[Value::Int(0)]);
        assert_eq!(a.unwrap_err(), b.unwrap_err());
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
        let (a, b) = run_both(cfg, &compiled, entry, &[]);
        let (a, b) = (a.unwrap_err(), b.unwrap_err());
        assert!(a.message.contains("budget"));
        assert_eq!(a, b);
    }
}
