//! Edge-case integration tests for the EARTH-MANNA machine.

use earth_ir::builder::FunctionBuilder;
use earth_ir::{BinOp, BlkDir, FuncId, Operand, Program, StructDef, Ty, VarDecl};
use earth_sim::bytecode::{Op, Opnd};
use earth_sim::{
    compile, run_program, CodegenOptions, CompiledFunction, CompiledProgram, CostModel, Machine,
    MachineConfig, NativeMachine, NativeProgram, Value,
};

fn run_src(src: &str, nodes: u16) -> earth_sim::RunResult {
    let prog = earth_frontend::compile(src).unwrap();
    run_program(&prog, "main", &[], nodes).unwrap()
}

#[test]
fn switch_dispatch() {
    let r = run_src(
        r#"
        struct S { int x; };
        int pick(int k) {
            int r;
            switch (k) {
                case 0: r = 10; break;
                case 1: r = 20; break;
                case 7: r = 70; break;
                default: r = 0 - 1;
            }
            return r;
        }
        int main() {
            return pick(0) + pick(1) + pick(7) + pick(3);
        }
    "#,
        1,
    );
    assert_eq!(r.ret, Value::Int(10 + 20 + 70 - 1));
}

#[test]
fn do_while_runs_at_least_once() {
    let r = run_src(
        r#"
        struct S { int x; };
        int main() {
            int i;
            int n;
            i = 100;
            n = 0;
            do {
                n = n + 1;
                i = i + 1;
            } while (i < 10);
            return n;
        }
    "#,
        1,
    );
    assert_eq!(r.ret, Value::Int(1));
}

#[test]
fn remote_atomic_counter() {
    // A forall whose iterations call a remote function that bumps a shared
    // counter via its cell pointer is not expressible in the subset, but
    // atomics on a local shared cell hit by many iteration threads are.
    let r = run_src(
        r#"
        struct N { N* next; int v; };
        int main() {
            shared int c;
            N *head;
            N *n;
            N *p;
            int i;
            head = NULL;
            for (i = 0; i < 20; i = i + 1) {
                n = malloc_on(i % num_nodes(), sizeof(N));
                n->next = head;
                head = n;
            }
            writeto(&c, 100);
            forall (p = head; p != NULL; p = p->next) {
                addto(&c, 2);
            }
            return valueof(&c);
        }
    "#,
        4,
    );
    assert_eq!(r.ret, Value::Int(140));
}

#[test]
fn nested_forall_in_called_function() {
    let r = run_src(
        r#"
        struct N { N* next; int v; };
        int count(N *head) {
            shared int c;
            N *p;
            writeto(&c, 0);
            forall (p = head; p != NULL; p = p->next) {
                addto(&c, 1);
            }
            return valueof(&c);
        }
        int main() {
            N *head;
            N *n;
            int i;
            head = NULL;
            for (i = 0; i < 7; i = i + 1) {
                n = malloc(sizeof(N));
                n->next = head;
                head = n;
            }
            return count(head) + count(head);
        }
    "#,
        2,
    );
    assert_eq!(r.ret, Value::Int(14));
}

#[test]
fn partial_blkmov_moves_only_the_range() {
    // Built via the IR builder: read fields [1, 3) of a 4-word struct.
    let mut prog = Program::new();
    let mut s = StructDef::new("Q");
    let f0 = s.add_field("w0", Ty::Int);
    let f1 = s.add_field("w1", Ty::Int);
    let f2 = s.add_field("w2", Ty::Int);
    let f3 = s.add_field("w3", Ty::Int);
    let sid = prog.add_struct(s);
    let mut fb = FunctionBuilder::new("main", Some(Ty::Int));
    let p = fb.var(VarDecl::new("p", Ty::Ptr(sid)));
    let buf = fb.var(VarDecl::new("bcomm1", Ty::Struct(sid)));
    let (a, b) = (
        fb.var(VarDecl::new("a", Ty::Int)),
        fb.var(VarDecl::new("b", Ty::Int)),
    );
    fb.malloc(p, sid, Some(Operand::int(1)));
    fb.store_deref(p, f0, Operand::int(1));
    fb.store_deref(p, f1, Operand::int(2));
    fb.store_deref(p, f2, Operand::int(3));
    fb.store_deref(p, f3, Operand::int(4));
    fb.blkmov_range(BlkDir::RemoteToLocal, p, buf, 1, 2);
    fb.load_field(a, buf, f1);
    fb.load_field(b, buf, f2);
    let t = fb.var(VarDecl::new("t", Ty::Int));
    fb.binop(t, BinOp::Add, Operand::Var(a), Operand::Var(b));
    // Writing through the partial buffer and flushing the same range.
    fb.store_field(buf, f2, Operand::int(30));
    fb.blkmov_range(BlkDir::LocalToRemote, p, buf, 1, 2);
    let c = fb.var(VarDecl::new("c", Ty::Int));
    fb.load_deref(c, p, f2);
    let u = fb.var(VarDecl::new("u", Ty::Int));
    fb.binop(u, BinOp::Mul, Operand::Var(t), Operand::Var(c));
    fb.ret(Some(Operand::Var(u)));
    prog.add_function(fb.finish());
    earth_ir::validate_program(&prog).unwrap();
    let r = run_program(&prog, "main", &[], 2).unwrap();
    assert_eq!(r.ret, Value::Int((2 + 3) * 30));
    // Two partial moves of two words each.
    assert_eq!(r.stats.blkmov, 2);
    assert_eq!(r.stats.blkmov_words, 4);
}

#[test]
fn out_of_range_partial_blkmov_rejected_by_validator() {
    let mut prog = Program::new();
    let mut s = StructDef::new("Q");
    s.add_field("w0", Ty::Int);
    let sid = prog.add_struct(s);
    let mut fb = FunctionBuilder::new("main", Some(Ty::Int));
    let p = fb.var(VarDecl::new("p", Ty::Ptr(sid)));
    let buf = fb.var(VarDecl::new("b", Ty::Struct(sid)));
    fb.blkmov_range(BlkDir::RemoteToLocal, p, buf, 0, 2);
    fb.ret(Some(Operand::int(0)));
    prog.add_function(fb.finish());
    let e = earth_ir::validate_program(&prog).unwrap_err();
    assert!(e.to_string().contains("out of bounds"), "{e}");
}

#[test]
fn empty_forall_joins_immediately() {
    let r = run_src(
        r#"
        struct N { N* next; int v; };
        int main() {
            N *p;
            shared int c;
            writeto(&c, 5);
            forall (p = NULL; p != NULL; p = p->next) {
                addto(&c, 1);
            }
            return valueof(&c);
        }
    "#,
        2,
    );
    assert_eq!(r.ret, Value::Int(5));
    assert_eq!(r.stats.spawns, 0);
}

/// Hand-assembled bytecode, which the frontend cannot produce: a `Fork`
/// with no arms blocks its thread with nobody left to wake it.
#[test]
fn deadlock_detection() {
    let main = CompiledFunction {
        name: "main".into(),
        ops: vec![
            Op::Mov {
                dst: 0,
                src: Opnd::Imm(Value::Int(1)),
            },
            Op::Fork {
                arms: vec![],
                cont: 2,
            },
            Op::Ret {
                val: Some(Opnd::Slot(0)),
            },
        ],
        n_slots: 1,
        param_slots: vec![],
        site_of: vec![],
    };
    let prog = CompiledProgram {
        functions: vec![main],
        struct_words: vec![],
        site_table: vec![],
    };
    let cfg = MachineConfig::with_nodes(2);
    // The machine went idle after the switch to the root thread and the Mov.
    let idle_at = cfg.cost.switch_ns + cfg.cost.mov_ns;
    let native = NativeProgram::compile(&prog, &cfg.cost);
    for (backend, e) in [
        (
            "interp",
            Machine::new(cfg.clone()).run(&prog, FuncId(0), &[]),
        ),
        (
            "native",
            NativeMachine::new(cfg.clone()).run(&native, FuncId(0), &[]),
        ),
    ] {
        let e = e.unwrap_err();
        assert!(e.message.starts_with("deadlock: "), "{backend}: {e}");
        assert_eq!(e.time_ns, idle_at, "{backend}");
    }
}

/// A run on a used machine returns exactly what a fresh machine returns.
#[test]
fn a_machine_can_be_run_again() {
    let src = r#"
        int fib(int n) {
            int a;
            int b;
            if (n < 2) { return n; }
            {^
                a = fib(n - 1) @ (n % num_nodes());
                b = fib(n - 2);
            ^}
            return a + b;
        }
        int main(int n) {
            print_int(rand() % 100);
            return fib(n);
        }
    "#;
    let prog = earth_frontend::compile(src).unwrap();
    let compiled = compile(&prog, CodegenOptions::default()).unwrap();
    let entry = compiled.function_by_name("main").unwrap();
    let native = NativeProgram::compile(&compiled, &CostModel::default());
    let cfg = MachineConfig {
        record_op_stats: true,
        ..MachineConfig::with_nodes(2)
    };
    let args = [Value::Int(10)];
    let mut interp = Machine::new(cfg.clone());
    let mut tier = NativeMachine::new(cfg);
    let first = interp.run(&compiled, entry, &args).unwrap();
    assert_eq!(first.ret, Value::Int(55));
    let again = [
        interp.run(&compiled, entry, &args).unwrap(),
        tier.run(&native, entry, &args).unwrap(),
        tier.run(&native, entry, &args).unwrap(),
    ];
    for r in &again {
        assert_eq!(r.ret, first.ret);
        assert_eq!(r.time_ns, first.time_ns);
        assert_eq!(r.stats, first.stats);
        assert_eq!(r.output, first.output);
        assert_eq!(r.node_busy_ns, first.node_busy_ns);
        assert_eq!(r.op_stats, first.op_stats);
    }
    // A failed run leaves nothing behind either.
    assert!(interp.run(&compiled, entry, &[]).is_err());
    assert!(tier.run(&native, entry, &[Value::Null]).is_err());
    assert_eq!(
        interp.run(&compiled, entry, &args).unwrap().stats,
        first.stats
    );
    assert_eq!(tier.run(&native, entry, &args).unwrap().stats, first.stats);
}

#[test]
fn stats_are_placement_sensitive() {
    // The same program with data on the local vs a remote node must show
    // pseudo-remote vs remote behaviour in the virtual time while keeping
    // the same operation counts.
    let src_local = r#"
        struct P { int v; };
        int main() {
            P *p;
            p = malloc_on(0, sizeof(P));
            p->v = 1;
            return p->v;
        }
    "#;
    let src_remote = r#"
        struct P { int v; };
        int main() {
            P *p;
            p = malloc_on(1, sizeof(P));
            p->v = 1;
            return p->v;
        }
    "#;
    let local = run_src(src_local, 2);
    let remote = run_src(src_remote, 2);
    assert_eq!(local.ret, remote.ret);
    assert_eq!(local.stats.read_data, remote.stats.read_data);
    assert!(remote.time_ns > local.time_ns * 2);
}

#[test]
fn cond_new_requires_comparison_is_upheld_by_machine() {
    // Br over doubles works with all comparison operators.
    let r = run_src(
        r#"
        struct S { int x; };
        int main() {
            double a;
            int n;
            a = 1.5;
            n = 0;
            if (a < 2.0) { n = n + 1; }
            if (a <= 1.5) { n = n + 1; }
            if (a > 1.0) { n = n + 1; }
            if (a >= 1.5) { n = n + 1; }
            if (a == 1.5) { n = n + 1; }
            if (a != 2.5) { n = n + 1; }
            return n;
        }
    "#,
        1,
    );
    assert_eq!(r.ret, Value::Int(6));
}

#[test]
fn node_utilization_is_tracked() {
    let src = r#"
        struct N { int v; };
        int work(N local *p) {
            int i;
            int acc;
            acc = 0;
            for (i = 0; i < 500; i = i + 1) { acc = acc + p->v; }
            return acc;
        }
        int main() {
            N *a;
            N *b;
            int r1;
            int r2;
            a = malloc_on(1, sizeof(N));
            b = malloc_on(2, sizeof(N));
            a->v = 1;
            b->v = 1;
            {^
                r1 = work(a) @ OWNER_OF(a);
                r2 = work(b) @ OWNER_OF(b);
            ^}
            return r1 + r2;
        }
    "#;
    let prog = earth_frontend::compile(src).unwrap();
    let r = run_program(&prog, "main", &[], 3).unwrap();
    assert_eq!(r.ret, Value::Int(1000));
    assert_eq!(r.node_busy_ns.len(), 3);
    // Nodes 1 and 2 did the work; node 0 mostly waited.
    assert!(r.node_busy_ns[1] > r.node_busy_ns[0]);
    assert!(r.node_busy_ns[2] > r.node_busy_ns[0]);
    // Busy time never exceeds completion time.
    for &b in &r.node_busy_ns {
        assert!(b <= r.time_ns, "{b} > {}", r.time_ns);
    }
    assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    assert!(r.imbalance() >= 1.0);
}
