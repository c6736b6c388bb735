//! End-to-end pipeline integration tests spanning all crates.

use earthc::earth_analysis::infer_locality;
use earthc::{CommOptConfig, Pipeline, Value};

const TREE_SUM: &str = r#"
    struct T { T* left; T* right; int v; };

    T* build(int depth, int lo, int span) {
        T *t;
        int half;
        t = malloc(sizeof(T));
        t->v = depth;
        if (depth == 0) {
            t->left = NULL;
            t->right = NULL;
            return t;
        }
        half = span / 2;
        if (half < 1) { half = 1; }
        t->left = build_at(depth - 1, lo, half);
        t->right = build_at(depth - 1, lo + half, half);
        return t;
    }

    T* build_at(int depth, int lo, int span) {
        int target;
        target = lo % num_nodes();
        return build(depth, lo, span) @ target;
    }

    int sum(T *t) {
        int a;
        int b;
        int w;
        int k;
        if (t == NULL) { return 0; }
        {^
            a = sum_at(t->left);
            b = sum_at(t->right);
        ^}
        // Local work per node so the parallel phase has something to
        // overlap with the spawns and remote calls.
        w = 0;
        k = 0;
        while (k < 120) {
            w = (w * 3 + t->v) % 1000003;
            k = k + 1;
        }
        return a + b + t->v + w % 7;
    }

    int sum_at(T *t) {
        if (t == NULL) { return 0; }
        return sum(t) @ OWNER_OF(t);
    }

    int main(int depth) {
        T *root;
        root = build(depth, 0, num_nodes());
        return sum(root);
    }
"#;

/// The full pipeline (locality inference + optimization) preserves results
/// across machine sizes on a recursive tree workload.
#[test]
fn tree_sum_agrees_across_configurations() {
    let expected = Pipeline::new()
        .nodes(1)
        .optimizer(None)
        .locality(false)
        .run_source(TREE_SUM, &[Value::Int(5)])
        .unwrap();
    for nodes in [1u16, 2, 5, 8] {
        for optimize in [false, true] {
            for locality in [false, true] {
                let r = Pipeline::new()
                    .nodes(nodes)
                    .optimizer(optimize.then(CommOptConfig::default))
                    .locality(locality)
                    .run_source(TREE_SUM, &[Value::Int(5)])
                    .unwrap();
                assert_eq!(
                    r.ret, expected.ret,
                    "nodes={nodes} optimize={optimize} locality={locality}"
                );
            }
        }
    }
}

/// Locality inference must be sound: it upgrades pointers to `local`, and
/// the simulator aborts on any local-compiled access that reaches remote
/// memory. Running a distribution-heavy program with inference on
/// exercises the checks.
#[test]
fn locality_inference_is_sound_at_runtime() {
    let mut prog = earthc::compile_earth_c(TREE_SUM).unwrap();
    let report = infer_locality(&mut prog);
    // The `build` subtree constructor only uses plain malloc: its local
    // pointers are inferred.
    assert!(!report.is_empty(), "inference should find local pointers");
    let r = Pipeline::new()
        .nodes(4)
        .optimizer(Some(CommOptConfig::default()))
        .locality(false) // already inferred above
        .run_program(prog, &[Value::Int(4)])
        .unwrap();
    assert!(matches!(r.ret, Value::Int(_)));
}

/// Virtual time is deterministic: identical runs give identical times,
/// stats, and results.
#[test]
fn simulation_is_deterministic() {
    let a = Pipeline::new()
        .nodes(4)
        .run_source(TREE_SUM, &[Value::Int(5)])
        .unwrap();
    let b = Pipeline::new()
        .nodes(4)
        .run_source(TREE_SUM, &[Value::Int(5)])
        .unwrap();
    assert_eq!(a.ret, b.ret);
    assert_eq!(a.time_ns, b.time_ns);
    assert_eq!(a.stats, b.stats);
}

/// Parallel tree sum actually speeds up with more nodes.
#[test]
fn tree_sum_scales() {
    let one = Pipeline::new()
        .nodes(1)
        .run_source(TREE_SUM, &[Value::Int(7)])
        .unwrap();
    let eight = Pipeline::new()
        .nodes(8)
        .run_source(TREE_SUM, &[Value::Int(7)])
        .unwrap();
    assert_eq!(one.ret, eight.ret);
    assert!(
        (eight.time_ns as f64) < 0.6 * one.time_ns as f64,
        "8 nodes {} vs 1 node {}",
        eight.time_ns,
        one.time_ns
    );
}

/// Frontend errors surface through the pipeline with context.
#[test]
fn frontend_errors_are_reported() {
    let err = Pipeline::new()
        .run_source("struct S { int x; }; int main() { return y; }", &[])
        .unwrap_err();
    assert!(err.to_string().contains("unknown variable"), "{err}");
}

/// The frontend's nesting limit is what keeps every later recursive walk
/// (analyses, optimizer, validator, printer, code generator) inside its
/// stack: programs nested right up to it compile and run on a test
/// thread, each shape nesting through a different tree node.
#[test]
fn nesting_at_the_limit_runs_end_to_end() {
    let n = earthc::earth_frontend::MAX_NESTING as usize - 8;
    let shapes = [
        format!(
            "int main() {{ int x; x = 0; {} x = 7; return x; }}",
            "if (x == 0) ".repeat(n)
        ),
        format!(
            "int f(int a) {{ return a; }} int main() {{ return {}7{}; }}",
            "f(".repeat(n / 2),
            ")".repeat(n / 2)
        ),
        format!(
            "int main() {{ int x; x = 0; {} x = 7; {} return x; }}",
            "switch (x) { case 0: ".repeat(n),
            "}".repeat(n)
        ),
        format!(
            "int main() {{ int x; x = 0; {} x = 7; {} return x; }}",
            "{^ ".repeat(n),
            "^}".repeat(n)
        ),
        format!("int main() {{ return 7{}; }}", " + 0".repeat(n)),
    ];
    for src in shapes {
        let (result, report) = Pipeline::new()
            .verify(true)
            .lint(true)
            .run_source_report(&src, &[])
            .unwrap_or_else(|e| panic!("{e}\n{}", &src[..60]));
        assert_eq!(result.ret, Value::Int(7), "{}", &src[..60]);
        assert!(report.pass("validate-ir").is_some());
    }
}

/// Simulator errors surface too (entry arity mismatch).
#[test]
fn sim_errors_are_reported() {
    let err = Pipeline::new()
        .run_source(
            "struct S { int x; }; int main(int a) { return a; }",
            &[], // missing argument
        )
        .unwrap_err();
    assert!(err.to_string().contains("expects 1 arguments"), "{err}");
}

/// Local function inlining (the Phase-I transformation) preserves
/// semantics and composes with the communication optimizer.
#[test]
fn inlining_preserves_semantics_end_to_end() {
    use earthc::earth_commopt::{inline_functions, InlineConfig};
    let src = r#"
        struct Point { double x; double y; };
        double scale(double v, double k) { return v * k; }
        double combine(Point *p, double k) {
            double a;
            double b;
            a = scale(p->x, k);
            b = scale(p->y, k);
            return a + b;
        }
        double main() {
            Point *p;
            p = malloc_on(1, sizeof(Point));
            p->x = 2.0;
            p->y = 3.0;
            return combine(p, 10.0);
        }
    "#;
    let plain = Pipeline::new()
        .nodes(2)
        .optimizer(None)
        .locality(false)
        .run_source(src, &[])
        .unwrap();
    let mut prog = earthc::compile_earth_c(src).unwrap();
    inline_functions(&mut prog, &InlineConfig::default());
    let inlined = Pipeline::new()
        .nodes(2)
        .optimizer(Some(CommOptConfig::default()))
        .locality(false)
        .run_program(prog, &[])
        .unwrap();
    assert_eq!(plain.ret, inlined.ret);
    assert_eq!(plain.ret, Value::Double(50.0));
    assert!(
        inlined.stats.total_comm() <= plain.stats.total_comm(),
        "inlining + optimization should not add communication"
    );
}

/// Every sample program under `programs/` compiles and runs under all
/// three builds with agreeing results. The optimized build runs with the
/// placement translation validator enabled: an unsound motion would abort
/// the pipeline rather than corrupt the comparison.
#[test]
fn sample_programs_compile_and_agree() {
    let mut checked = 0;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ec") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let prog =
            earthc::compile_earth_c(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let f = prog.function(prog.function_by_name("main").unwrap());
        let args: Vec<Value> = f.params.iter().map(|_| Value::Int(6)).collect();
        let simple = Pipeline::new()
            .nodes(4)
            .optimizer(None)
            .run_program(prog.clone(), &args)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let optimized = Pipeline::new()
            .nodes(4)
            .verify(true)
            .run_program(prog, &args)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(simple.ret, optimized.ret, "{}", path.display());
        assert!(
            optimized.stats.total_comm() <= simple.stats.total_comm(),
            "{}: optimization increased communication ({} -> {})",
            path.display(),
            simple.stats.total_comm(),
            optimized.stats.total_comm()
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected the example programs, found {checked}"
    );
}

/// The verified pipeline also agrees on every Olden benchmark: simple vs
/// optimized-with-validation, differentially compared on real workloads.
#[test]
fn olden_differential_with_verification() {
    for bench in earthc::earth_olden::suite() {
        let args: Vec<Value> = (bench.args)(earthc::earth_olden::Preset::Test);
        let simple = Pipeline::new()
            .nodes(4)
            .optimizer(None)
            .run_source(bench.source, &args)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let optimized = Pipeline::new()
            .nodes(4)
            .verify(true)
            .run_source(bench.source, &args)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(simple.ret, optimized.ret, "{}", bench.name);
    }
}
