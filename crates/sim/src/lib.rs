//! # earth-sim — a discrete-event simulator for EARTH-MANNA
//!
//! The execution substrate for the reproduction of Zhu & Hendren (PLDI
//! 1998). The paper evaluates its communication optimizations on the
//! EARTH-MANNA distributed-memory multithreaded machine; this crate
//! provides a deterministic simulator of that machine:
//!
//! * [`codegen`] lowers SIMPLE IR to threaded bytecode (the analogue of
//!   the compiler's Phase III),
//! * [`machine`] executes the bytecode on a configurable number of nodes
//!   with split-phase remote operations, per-node EUs with ready queues,
//!   thread spawning/joining for `{^ ... ^}` and `forall`, and remote
//!   function invocation for `@OWNER_OF` placement,
//! * [`cost`] holds the timing model calibrated to the paper's Table I,
//! * [`stats`] counts the communication operations reported in Figure 10.
//!
//! # Examples
//!
//! ```
//! use earth_sim::{compile, CodegenOptions, Machine, MachineConfig, Value};
//!
//! let prog = earth_frontend::compile(r#"
//!     struct Point { double x; double y; };
//!     double distance(Point *p) {
//!         double d;
//!         d = sqrt(p->x * p->x + p->y * p->y);
//!         return d;
//!     }
//!     double main() {
//!         Point *p;
//!         p = malloc(sizeof(Point));
//!         p->x = 3.0;
//!         p->y = 4.0;
//!         return distance(p);
//!     }
//! "#).unwrap();
//! let compiled = compile(&prog, CodegenOptions::default()).unwrap();
//! let mut m = Machine::new(MachineConfig::with_nodes(2));
//! let entry = compiled.function_by_name("main").unwrap();
//! let result = m.run(&compiled, entry, &[]).unwrap();
//! assert_eq!(result.ret, Value::Double(5.0));
//! assert!(result.stats.total_comm() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bytecode;
pub mod codegen;
pub mod cost;
pub mod ddg;
pub mod exec;
pub mod machine;
pub mod stats;
pub mod value;

pub use bytecode::{CompiledFunction, CompiledProgram, NO_SITE};
pub use codegen::{compile_program as compile, CodegenError, CodegenOptions};
pub use cost::CostModel;
pub use ddg::{build_ddg, render_fibers, FiberReport};
pub use exec::{NativeMachine, NativeProgram};
pub use machine::{Machine, MachineConfig, RunResult, SimError};
pub use stats::{OpKind, OpStats, SiteCounters, SiteTrace, Stats};
pub use value::{Addr, NodeId, Value};

use earth_ir::Program;

/// Convenience: compile `prog` and run `entry` with `args` on a machine
/// with `n_nodes` nodes and default costs.
///
/// # Errors
///
/// Propagates [`CodegenError`] (wrapped) and [`SimError`].
pub fn run_program(
    prog: &Program,
    entry: &str,
    args: &[Value],
    n_nodes: u16,
) -> Result<RunResult, SimError> {
    let compiled = compile(prog, CodegenOptions::default()).map_err(|e| SimError {
        time_ns: 0,
        message: e.to_string(),
    })?;
    let fid = compiled.function_by_name(entry).ok_or_else(|| SimError {
        time_ns: 0,
        message: format!("no function named `{entry}`"),
    })?;
    let mut m = Machine::new(MachineConfig::with_nodes(n_nodes));
    m.run(&compiled, fid, args)
}

/// Convenience: run the *pure sequential C* build (every access local, one
/// node) — the paper's "Sequential" baseline column.
///
/// # Errors
///
/// Propagates [`CodegenError`] (wrapped) and [`SimError`].
pub fn run_sequential(prog: &Program, entry: &str, args: &[Value]) -> Result<RunResult, SimError> {
    let compiled = compile(
        prog,
        CodegenOptions {
            force_local: true,
            ..CodegenOptions::default()
        },
    )
    .map_err(|e| SimError {
        time_ns: 0,
        message: e.to_string(),
    })?;
    let fid = compiled.function_by_name(entry).ok_or_else(|| SimError {
        time_ns: 0,
        message: format!("no function named `{entry}`"),
    })?;
    let mut m = Machine::new(MachineConfig::with_nodes(1));
    m.run(&compiled, fid, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run1(src: &str) -> RunResult {
        let prog = earth_frontend::compile(src).unwrap();
        run_program(&prog, "main", &[], 1).unwrap()
    }

    fn run_n(src: &str, n: u16) -> RunResult {
        let prog = earth_frontend::compile(src).unwrap();
        run_program(&prog, "main", &[], n).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = run1(
            r#"
            struct S { int x; };
            int main() {
                int i;
                int acc;
                acc = 0;
                for (i = 1; i <= 10; i = i + 1) {
                    if (i % 2 == 0) { acc = acc + i; }
                }
                return acc;
            }
        "#,
        );
        assert_eq!(r.ret, Value::Int(30));
        assert_eq!(r.stats.total_comm(), 0);
    }

    #[test]
    fn linked_list_sum() {
        let r = run1(
            r#"
            struct node { node* next; int v; };
            int main() {
                node *head;
                node *n;
                node *p;
                int i;
                int acc;
                head = NULL;
                for (i = 1; i <= 5; i = i + 1) {
                    n = malloc(sizeof(node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                acc = 0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#,
        );
        assert_eq!(r.ret, Value::Int(15));
        // On one node every remote op is pseudo-remote but still counted.
        assert!(r.stats.read_data > 0);
    }

    #[test]
    fn remote_allocation_and_access() {
        let r = run_n(
            r#"
            struct node { int v; };
            int main() {
                node *p;
                p = malloc_on(1, sizeof(node));
                p->v = 41;
                return p->v + 1;
            }
        "#,
            2,
        );
        assert_eq!(r.ret, Value::Int(42));
        assert_eq!(r.stats.read_data, 1);
        assert_eq!(r.stats.write_data, 1);
    }

    #[test]
    fn owner_of_call_runs_remotely() {
        let r = run_n(
            r#"
            struct node { int v; };
            int where(node local *p) {
                return my_node();
            }
            int main() {
                node *p;
                p = malloc_on(3, sizeof(node));
                return where(p) @ OWNER_OF(p);
            }
        "#,
            4,
        );
        assert_eq!(r.ret, Value::Int(3));
        assert_eq!(r.stats.remote_calls, 1);
    }

    #[test]
    fn locality_violation_detected() {
        let prog = earth_frontend::compile(
            r#"
            struct node { int v; };
            int peek(node local *p) { return p->v; }
            int main() {
                node *p;
                p = malloc_on(1, sizeof(node));
                p->v = 7;
                return peek(p);
            }
        "#,
        )
        .unwrap();
        let e = run_program(&prog, "main", &[], 2).unwrap_err();
        assert!(e.message.contains("locality violation"), "{e}");
    }

    #[test]
    fn parallel_sequence_joins_and_overlaps() {
        let r = run_n(
            r#"
            struct node { int v; };
            int slowpoke(node local *p) {
                int i;
                int acc;
                acc = 0;
                for (i = 0; i < 100; i = i + 1) { acc = acc + p->v; }
                return acc;
            }
            int main() {
                node *a;
                node *b;
                int r1;
                int r2;
                a = malloc_on(1, sizeof(node));
                b = malloc_on(2, sizeof(node));
                a->v = 1;
                b->v = 2;
                {^
                    r1 = slowpoke(a) @ OWNER_OF(a);
                    r2 = slowpoke(b) @ OWNER_OF(b);
                ^}
                return r1 + r2;
            }
        "#,
            3,
        );
        assert_eq!(r.ret, Value::Int(300));
        assert_eq!(r.stats.remote_calls, 2);
        assert_eq!(r.stats.spawns, 2);
    }

    #[test]
    fn parallel_arms_actually_overlap_in_time() {
        // Two remote calls to different nodes in a parallel sequence should
        // take roughly the time of one, not two.
        let work = r#"
            struct node { int v; };
            int work(node local *p) {
                int i;
                int acc;
                acc = 0;
                for (i = 0; i < 1000; i = i + 1) { acc = acc + p->v; }
                return acc;
            }
        "#;
        let src_par = format!(
            "{work}
            int main() {{
                node *a;
                node *b;
                int r1;
                int r2;
                a = malloc_on(1, sizeof(node));
                b = malloc_on(2, sizeof(node));
                a->v = 1;
                b->v = 1;
                {{^
                    r1 = work(a) @ OWNER_OF(a);
                    r2 = work(b) @ OWNER_OF(b);
                ^}}
                return r1 + r2;
            }}"
        );
        let src_seq = format!(
            "{work}
            int main() {{
                node *a;
                node *b;
                int r1;
                int r2;
                a = malloc_on(1, sizeof(node));
                b = malloc_on(2, sizeof(node));
                a->v = 1;
                b->v = 1;
                r1 = work(a) @ OWNER_OF(a);
                r2 = work(b) @ OWNER_OF(b);
                return r1 + r2;
            }}"
        );
        let par = run_n(&src_par, 3);
        let seq = run_n(&src_seq, 3);
        assert_eq!(par.ret, Value::Int(2000));
        assert_eq!(seq.ret, Value::Int(2000));
        assert!(
            (par.time_ns as f64) < 0.7 * seq.time_ns as f64,
            "parallel {} vs sequential {}",
            par.time_ns,
            seq.time_ns
        );
    }

    #[test]
    fn forall_with_shared_counter() {
        let r = run1(
            r#"
            struct node { node* next; int v; };
            int main() {
                node *head;
                node *n;
                node *p;
                int i;
                int total;
                shared int cnt;
                head = NULL;
                for (i = 1; i <= 8; i = i + 1) {
                    n = malloc(sizeof(node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                writeto(&cnt, 0);
                forall (p = head; p != NULL; p = p->next) {
                    addto(&cnt, p->v);
                }
                total = valueof(&cnt);
                return total;
            }
        "#,
        );
        assert_eq!(r.ret, Value::Int(36));
        assert_eq!(r.stats.spawns, 8);
    }

    #[test]
    fn split_phase_reads_overlap() {
        // Two independent remote reads take ~issue+latency, not 2×latency.
        let src = r#"
            struct P { double x; double y; };
            double main() {
                P *p;
                double a;
                double b;
                p = malloc_on(1, sizeof(P));
                p->x = 1.0;
                p->y = 2.0;
                a = p->x;
                b = p->y;
                return a + b;
            }
        "#;
        let r = run_n(src, 2);
        assert_eq!(r.ret, Value::Double(3.0));
        // Both reads were issued before either value was used, so the
        // total stall is roughly one latency, not two.
        assert!(
            r.stats.stall_ns < 9000,
            "expected overlapping reads, stalled {}ns",
            r.stats.stall_ns
        );
    }

    #[test]
    fn dependent_reads_serialize() {
        let src = r#"
            struct N { N* next; int v; };
            int main() {
                N *a;
                N *b;
                N *p;
                a = malloc_on(1, sizeof(N));
                b = malloc_on(1, sizeof(N));
                a->next = b;
                b->v = 9;
                p = a->next;
                return p->v;
            }
        "#;
        let r = run_n(src, 2);
        assert_eq!(r.ret, Value::Int(9));
        // The second read depends on the first: total stall ≥ one latency.
        assert!(r.stats.stall_ns > 5000, "stall {}", r.stats.stall_ns);
    }

    #[test]
    fn sequential_build_has_no_communication() {
        let prog = earth_frontend::compile(
            r#"
            struct node { node* next; int v; };
            int main() {
                node *n;
                n = malloc(sizeof(node));
                n->v = 5;
                return n->v;
            }
        "#,
        )
        .unwrap();
        let r = run_sequential(&prog, "main", &[]).unwrap();
        assert_eq!(r.ret, Value::Int(5));
        assert_eq!(r.stats.total_comm(), 0);
        assert!(r.stats.local_mem > 0);
    }

    #[test]
    fn recursion_works() {
        let r = run1(
            r#"
            struct S { int x; };
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(12); }
        "#,
        );
        assert_eq!(r.ret, Value::Int(144));
    }

    #[test]
    fn builtins_work() {
        let r = run1(
            r#"
            struct S { int x; };
            int main() {
                double d;
                int a;
                d = sqrt(16.0) + fabs(0.0 - 2.0);
                a = rand() % 100;
                if (a < 0) { return 0 - 1; }
                if (num_nodes() != 1) { return 0 - 2; }
                if (my_node() != 0) { return 0 - 3; }
                print_int(7);
                return d;
            }
        "#,
        );
        // Dynamic typing: the double expression survives the int return.
        assert_eq!(r.ret, Value::Double(6.0));
        assert_eq!(r.output, vec!["7".to_string()]);
    }

    #[test]
    fn fence_waits_for_writes() {
        let src = r#"
            struct P { int v; };
            int main() {
                P *p;
                int i;
                p = malloc_on(1, sizeof(P));
                p->v = 1;
                i = fence();
                return i;
            }
        "#;
        let r = run_n(src, 2);
        assert_eq!(r.ret, Value::Int(0));
        // The fence stalls until the write latency elapses.
        assert!(r.stats.stall_ns > 3000, "stall {}", r.stats.stall_ns);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
            struct node { node* next; int v; };
            int main() {
                int i;
                int acc;
                acc = 0;
                for (i = 0; i < 50; i = i + 1) { acc = acc + rand() % 10; }
                return acc;
            }
        "#;
        let a = run1(src);
        let b = run1(src);
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.time_ns, b.time_ns);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn infinite_loop_guard() {
        let prog = earth_frontend::compile(
            r#"
            struct S { int x; };
            int main() {
                int i;
                i = 0;
                while (i < 1) { i = 0; }
                return i;
            }
        "#,
        )
        .unwrap();
        let compiled = compile(&prog, CodegenOptions::default()).unwrap();
        let mut m = Machine::new(MachineConfig {
            max_ops: 10_000,
            ..MachineConfig::default()
        });
        let entry = compiled.function_by_name("main").unwrap();
        let e = m.run(&compiled, entry, &[]).unwrap_err();
        assert!(e.message.contains("budget"), "{e}");
    }

    #[test]
    fn null_local_deref_is_an_error() {
        let prog = earth_frontend::compile(
            r#"
            struct S { int x; };
            int main() {
                S local *p;
                p = NULL;
                return p->x;
            }
        "#,
        )
        .unwrap();
        let e = run_program(&prog, "main", &[], 1).unwrap_err();
        assert!(e.message.contains("NULL"), "{e}");
    }

    #[test]
    fn site_trace_counts_remote_ops_and_branches() {
        let src = r#"
            struct node { node* next; int v; };
            int main() {
                node *head;
                node *n;
                node *p;
                int i;
                int acc;
                head = NULL;
                for (i = 1; i <= 5; i = i + 1) {
                    n = malloc(sizeof(node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                acc = 0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#;
        let prog = earth_frontend::compile(src).unwrap();
        let opts = CodegenOptions {
            record_sites: true,
            ..CodegenOptions::default()
        };
        let compiled = compile(&prog, opts).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let mut m = Machine::new(MachineConfig::with_nodes(1));
        let r = m.run(&compiled, entry, &[]).unwrap();
        assert_eq!(r.ret, Value::Int(15));
        assert!(r.site_trace.any_events());
        // Total per-site remote-read executions match the global counter.
        let total_reads: u64 = (0..compiled.site_table.len())
            .map(|s| r.site_trace.site_total(s))
            .map(|c| c.bytes / 8)
            .sum::<u64>();
        assert!(total_reads >= r.stats.read_data + r.stats.write_data);
        // The while loop's branch site saw 5 taken + 1 not-taken.
        let loop_site = (0..compiled.site_table.len())
            .map(|s| r.site_trace.site_total(s))
            .find(|c| c.taken == 5 && c.not_taken == 1);
        assert!(loop_site.is_some(), "no site with 5/1 branch outcomes");
        // Counters (not timing) are identical on a 4-node machine.
        let mut m4 = Machine::new(MachineConfig::with_nodes(4));
        let r4 = m4.run(&compiled, entry, &[]).unwrap();
        for s in 0..compiled.site_table.len() {
            let (a, b) = (r.site_trace.site_total(s), r4.site_trace.site_total(s));
            assert_eq!(
                (a.execs, a.bytes, a.taken, a.not_taken),
                (b.execs, b.bytes, b.taken, b.not_taken),
                "site {s} differs across node counts"
            );
        }
    }

    #[test]
    fn blkmov_round_trip() {
        use earth_ir::builder::FunctionBuilder;
        use earth_ir::{BlkDir, Operand, StructDef, Ty, VarDecl};
        let mut prog = earth_ir::Program::new();
        let mut p3 = StructDef::new("P3");
        let fa = p3.add_field("a", Ty::Int);
        let _fb = p3.add_field("b", Ty::Int);
        let fc = p3.add_field("c", Ty::Int);
        let sid = prog.add_struct(p3);

        let mut fb2 = FunctionBuilder::new("main", Some(Ty::Int));
        let p = fb2.var(VarDecl::new("p", Ty::Ptr(sid)));
        let buf = fb2.var(VarDecl::new("bcomm1", Ty::Struct(sid)));
        let t = fb2.var(VarDecl::new("t", Ty::Int));
        fb2.malloc(p, sid, Some(Operand::int(1)));
        fb2.store_deref(p, fa, Operand::int(10));
        fb2.store_deref(p, fc, Operand::int(32));
        fb2.blkmov(BlkDir::RemoteToLocal, p, buf);
        fb2.load_field(t, buf, fa);
        fb2.store_field(buf, fc, Operand::int(33));
        fb2.blkmov(BlkDir::LocalToRemote, p, buf);
        let t2 = fb2.var(VarDecl::new("t2", Ty::Int));
        fb2.load_deref(t2, p, fc);
        let t3 = fb2.var(VarDecl::new("t3", Ty::Int));
        fb2.binop(t3, earth_ir::BinOp::Add, Operand::Var(t), Operand::Var(t2));
        fb2.ret(Some(Operand::Var(t3)));
        prog.add_function(fb2.finish());
        earth_ir::validate_program(&prog).unwrap();

        let r = run_program(&prog, "main", &[], 2).unwrap();
        assert_eq!(r.ret, Value::Int(43)); // 10 + 33
        assert_eq!(r.stats.blkmov, 2);
        assert_eq!(r.stats.blkmov_words, 6);
    }
}
