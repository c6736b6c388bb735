//! Differential property test of the execution backends: for random
//! generated programs — list walks, fork trees, forall/shared counters —
//! compiled under every optimization mode (simple, optimized, prob
//! alias, escape analysis, PGO) and run at 1, 2, and 8 nodes, the
//! native backend's [`RunResult`] must be **byte-identical** to the
//! interpreter's: return value, virtual completion time, communication
//! stats, output lines, per-node busy time, per-site PGO counters, and
//! the per-op histogram. Errors must match exactly too.

use earth_qcheck::Rng;
use earthc::earth_commopt::{optimize_program, AliasMode, CommOptConfig, EscapeMode};
use earthc::earth_sim::{self, CodegenOptions, MachineConfig, Value};
use earthc::{earth_analysis, Pipeline, ProfileDb};
use std::sync::Arc;

mod backends;
use backends::assert_backends_agree;

const MODES: [&str; 5] = ["simple", "optimized", "prob", "escape", "pgo"];
const NODES: [u16; 3] = [1, 2, 8];

/// The optimizer configuration a mode name denotes; `None` = simple
/// (no communication optimization). PGO measures a profile of the
/// program first, exactly like `earthcc pgo` does.
fn mode_config(mode: &str, src: &str, args: &[Value]) -> Option<CommOptConfig> {
    match mode {
        "simple" => None,
        "optimized" => Some(CommOptConfig::default()),
        "prob" => Some(CommOptConfig {
            alias: AliasMode::Prob,
            ..CommOptConfig::default()
        }),
        "escape" => Some(CommOptConfig {
            escape: EscapeMode::On,
            ..CommOptConfig::default()
        }),
        "pgo" => {
            let (_, profile) = Pipeline::new()
                .nodes(2)
                .instrument_source(src, args)
                .expect("instrumented run");
            Some(CommOptConfig {
                profile: Some(Arc::new(ProfileDb::new(profile))),
                ..CommOptConfig::default()
            })
        }
        other => panic!("unknown mode {other}"),
    }
}

/// Compiles `src` under `mode` with site recording on (so the PGO
/// counters are part of the comparison).
fn build(src: &str, mode: &str, args: &[Value]) -> earth_sim::CompiledProgram {
    let mut prog = earthc::compile_earth_c(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    earth_analysis::infer_locality(&mut prog);
    if let Some(cfg) = mode_config(mode, src, args) {
        optimize_program(&mut prog, &cfg);
    }
    earth_sim::compile(
        &prog,
        CodegenOptions {
            record_sites: true,
            ..CodegenOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("codegen: {e}\n{src}"))
}

/// Generator 1: a list walk with a random loop body — remote loads and
/// stores, pointer chasing, rand().
fn list_program(rng: &mut Rng) -> (String, Vec<Value>) {
    let mut body = String::new();
    for _ in 0..rng.index(4) + 1 {
        match rng.index(4) {
            0 => body.push_str(&format!(
                "        acc = acc + c->{};\n",
                ["a", "b"][rng.index(2)]
            )),
            1 => body.push_str(&format!("        c->{} = acc;\n", ["a", "b"][rng.index(2)])),
            2 => body.push_str("        acc = acc + rand() % 7;\n"),
            _ => body.push_str(&format!("        acc = acc * 2 + {};\n", rng.index(9) + 1)),
        }
    }
    let src = format!(
        r#"
struct node {{ node* next; int a; int b; }};
int walk(node *c) {{
    int acc;
    acc = 0;
    while (c != NULL) {{
{body}        c = c->next;
    }}
    return acc;
}}
int main(int n) {{
    node *head;
    node *q;
    int i;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {{
        q = malloc_on(i % num_nodes(), sizeof(node));
        q->a = i;
        q->b = i + i;
        q->next = head;
        head = q;
    }}
    return walk(head);
}}
"#
    );
    (src, vec![Value::Int(rng.index(12) as i64 + 4)])
}

/// Generator 2: a fork tree — parallel sequences, remote calls at
/// owners, multi-field reads of remote nodes.
fn tree_program(rng: &mut Rng) -> (String, Vec<Value>) {
    let seed = rng.index(5) as i64;
    let src = format!(
        r#"
struct T {{ T* left; T* right; int v; }};
T* build(int depth, int lo) {{
    T *t;
    t = malloc(sizeof(T));
    t->v = depth + {seed};
    if (depth == 0) {{ t->left = NULL; t->right = NULL; return t; }}
    t->left = build_at(depth - 1, lo * 2);
    t->right = build_at(depth - 1, lo * 2 + 1);
    return t;
}}
T* build_at(int depth, int lo) {{
    return build(depth, lo) @ (lo % num_nodes());
}}
int sum(T *t) {{
    T *l;
    T *r;
    int a;
    int b;
    if (t == NULL) {{ return 0; }}
    l = t->left;
    r = t->right;
    {{^
        a = sum_at(l);
        b = sum_at(r);
    ^}}
    return a + b + t->v;
}}
int sum_at(T *t) {{
    if (t == NULL) {{ return 0; }}
    return sum(t) @ OWNER_OF(t);
}}
int main(int depth) {{
    T *root;
    root = build(depth, 0);
    return sum(root);
}}
"#
    );
    (src, vec![Value::Int(rng.index(3) as i64 + 2)])
}

/// Generator 3: a forall over a distributed list with a shared
/// accumulator — spawned iterations, atomics, valueof.
fn forall_program(rng: &mut Rng) -> (String, Vec<Value>) {
    let modulus = rng.index(4) + 2;
    let src = format!(
        r#"
struct node {{ node* next; int value; }};
int matches(node local *p, int want) {{
    return p->value % {modulus} == want % {modulus};
}}
int count(node *head, int want) {{
    shared int cnt;
    node *p;
    writeto(&cnt, 0);
    forall (p = head; p != NULL; p = p->next) {{
        if (matches(p, want) @ OWNER_OF(p)) {{
            addto(&cnt, 1);
        }}
    }}
    return valueof(&cnt);
}}
int main(int n) {{
    node *head;
    node *q;
    int i;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {{
        q = malloc_on(i % num_nodes(), sizeof(node));
        q->value = rand() % 9;
        q->next = head;
        head = q;
    }}
    return count(head, 3);
}}
"#
    );
    (src, vec![Value::Int(rng.index(16) as i64 + 4)])
}

fn random_program(rng: &mut Rng) -> (String, Vec<Value>) {
    match rng.index(3) {
        0 => list_program(rng),
        1 => tree_program(rng),
        _ => forall_program(rng),
    }
}

/// The property: every generated program, under every optimization
/// mode and node count, runs byte-identically on both backends.
#[test]
fn random_programs_run_identically_on_both_backends() {
    earth_qcheck::cases(8, |rng| {
        let (src, args) = random_program(rng);
        for mode in MODES {
            let compiled = build(&src, mode, &args);
            for nodes in NODES {
                let context = format!("mode={mode} nodes={nodes}");
                let cfg = MachineConfig::with_nodes(nodes);
                let _ = assert_backends_agree(cfg, &compiled, &args, &context);
            }
        }
    });
}

/// Error paths agree too: division by zero inside a remote call, and
/// the op-budget guard on an infinite loop, fail with the same
/// `SimError` (message *and* failure time) on both backends.
#[test]
fn error_paths_agree_on_both_backends() {
    let div = r#"
        int f(int d) { return 100 / d; }
        int main(int d) {
            return f(d) @ 1;
        }
    "#;
    let compiled = build(div, "simple", &[Value::Int(0)]);
    for nodes in NODES {
        let cfg = MachineConfig::with_nodes(nodes);
        let e = assert_backends_agree(cfg, &compiled, &[Value::Int(0)], "div-by-zero");
        assert!(e.is_err(), "{e:?}");
    }

    let spin = r#"
        int main() {
            int i;
            i = 0;
            while (i >= 0) { i = i + 1; }
            return i;
        }
    "#;
    let compiled = build(spin, "simple", &[]);
    let cfg = MachineConfig {
        max_ops: 5_000,
        ..MachineConfig::default()
    };
    let e = assert_backends_agree(cfg, &compiled, &[], "budget").unwrap_err();
    assert!(e.message.contains("budget"), "{e:?}");
}
