//! Quickstart: compile an EARTH-C function, watch the communication
//! optimizer transform it (the paper's Figure 3), and run both versions on
//! the simulated EARTH-MANNA machine.
//!
//! Run with: `cargo run --example quickstart`

use earthc::earth_ir::pretty;
use earthc::{Pipeline, Value};

const SRC: &str = r#"
struct Point { double x; double y; };

double distance(Point *p) {
    double d;
    d = sqrt(p->x * p->x + p->y * p->y);
    return d;
}

double main() {
    Point *p;
    p = malloc_on(1, sizeof(Point));
    p->x = 3.0;
    p->y = 4.0;
    return distance(p);
}
"#;

fn main() {
    // 1. Compile to SIMPLE IR: three-address form, one remote operation
    //    per statement (remote dereferences print as `p~>x`).
    let prog = earthc::compile_earth_c(SRC).expect("compiles");
    println!("== SIMPLE IR (the paper's Figure 3(b)) ==\n");
    println!(
        "{}",
        pretty::print_function_default(&prog, prog.function_by_name("distance").unwrap())
    );

    // 2. Optimize: possible-placement analysis + communication selection,
    //    the pipeline's `optimize` pass (locality inference off, to keep
    //    the paper's figure).
    let optimizing = Pipeline::new().nodes(2).locality(false);
    let mut optimized = prog.clone();
    let report = optimizing.apply_passes(&mut optimized).expect("optimizes");
    let counter = |name| report.pass("optimize").unwrap().get_counter(name).unwrap();
    println!("== After communication optimization (Figure 3(c)) ==\n");
    println!(
        "{}",
        pretty::print_function_default(&optimized, optimized.function_by_name("distance").unwrap())
    );
    println!(
        "optimizer: {} pipelined reads inserted, {} original reads rewritten\n",
        counter("pipelined_reads"),
        counter("reads_rewritten")
    );

    // 3. Run both versions on a 2-node simulated EARTH-MANNA machine.
    let simple = optimizing
        .clone()
        .optimizer(None)
        .run_source(SRC, &[])
        .expect("simple run");
    let fast = optimizing.run_source(SRC, &[]).expect("optimized run");
    assert_eq!(simple.ret, Value::Double(5.0));
    assert_eq!(fast.ret, Value::Double(5.0));
    println!("simple:    {:>8} ns | {}", simple.time_ns, simple.stats);
    println!("optimized: {:>8} ns | {}", fast.time_ns, fast.stats);
    println!(
        "speedup: {:.2}x",
        simple.time_ns as f64 / fast.time_ns as f64
    );
}
