//! The paper's running example (Figures 7 and 8): the closest-point loop.
//!
//! Prints the RemoteReads sets computed by possible-placement analysis
//! (Figure 7), the transformed program after communication selection
//! (Figure 8(b)), and measures the dynamic effect.
//!
//! Run with: `cargo run --example closest_point`

use earthc::earth_analysis;
use earthc::earth_commopt::{analyze_placement, FreqModel};
use earthc::earth_ir::{pretty, StmtKind};
use earthc::Pipeline;

const SRC: &str = r#"
struct Point { Point* next; double x; double y; };

double f(double ax, double ay, double bx, double by) {
    return (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
}

double closest(Point *head, Point *t, double epsilon) {
    Point *p;
    Point *close;
    double ax; double ay; double bx; double by;
    double dist; double cx; double tx; double diffx;
    double cy; double ty; double diffy;
    close = head;
    p = head;
    while (p != NULL) {
        ax = p->x;
        ay = p->y;
        bx = t->x;
        by = t->y;
        dist = f(ax, ay, bx, by);
        if (dist < epsilon) { close = p; }
        p = p->next;
    }
    cx = close->x;
    tx = t->x;
    diffx = cx - tx;
    cy = close->y;
    ty = t->y;
    diffy = cy - ty;
    return diffx * diffx + diffy * diffy;
}

double main(int n) {
    Point *head;
    Point *q;
    Point *t;
    int i;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {
        q = malloc_on(i % num_nodes(), sizeof(Point));
        q->x = (rand() % 1000) / 10.0;
        q->y = (rand() % 1000) / 10.0;
        q->next = head;
        head = q;
    }
    t = malloc(sizeof(Point));
    t->x = 50.0;
    t->y = 50.0;
    return closest(head, t, 100.0);
}
"#;

fn main() {
    let prog = earthc::compile_earth_c(SRC).expect("compiles");
    let fid = prog.function_by_name("closest").unwrap();
    let f = prog.function(fid);

    // Figure 7: the RemoteReads set at the top of the function and at the
    // loop entry.
    let analysis = earth_analysis::analyze(&prog);
    let placement = analyze_placement(f, analysis.function(fid), &FreqModel::default());
    println!("== RemoteReads sets (the paper's Figure 7) ==\n");
    let mut anchors = Vec::new();
    f.body.walk(&mut |s| {
        if matches!(s.kind, StmtKind::Basic(_) | StmtKind::While { .. }) {
            anchors.push(s.label);
        }
    });
    for l in anchors.iter().take(12) {
        if let Some(set) = placement.reads_before.get(l) {
            if !set.is_empty() {
                println!("  RemoteReads({l}) = {set}");
            }
        }
    }

    // Figure 8(b): the transformed function, as the pipeline builds it
    // (locality inference off, to keep the paper's figure).
    let optimizing = Pipeline::new().nodes(4).locality(false);
    let mut optimized = prog.clone();
    optimizing.apply_passes(&mut optimized).expect("optimizes");
    println!("\n== After communication selection (Figure 8(b)) ==\n");
    println!(
        "{}",
        pretty::print_function(
            &optimized,
            fid,
            &pretty::PrettyOptions {
                show_labels: false,
                ..Default::default()
            }
        )
    );

    // Dynamic effect on a 4-node machine.
    let args = [earthc::Value::Int(200)];
    let simple = optimizing
        .clone()
        .optimizer(None)
        .run_source(SRC, &args)
        .expect("simple");
    let fast = optimizing.run_source(SRC, &args).expect("optimized");
    assert_eq!(simple.ret, fast.ret);
    println!("simple:    {:>9} ns | {}", simple.time_ns, simple.stats);
    println!("optimized: {:>9} ns | {}", fast.time_ns, fast.stats);
    println!(
        "communication reduced {:.1}%, time reduced {:.1}%",
        100.0 * (1.0 - fast.stats.total_comm() as f64 / simple.stats.total_comm() as f64),
        100.0 * (1.0 - fast.time_ns as f64 / simple.time_ns as f64)
    );
}
