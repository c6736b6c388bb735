//! Parallel-vs-sequential determinism of the optimizer fan-out.
//!
//! `optimize_program_with` distributes per-function placement + selection
//! across scoped worker threads and merges the results in `FuncId` order.
//! These tests pin the contract: for every sample program, paper-figure
//! example, and Olden kernel, optimizing with 1 worker and with N workers
//! must produce byte-identical pretty-printed IR, identical `MotionLog`s,
//! and identical `SelectionStats`.

mod common;

use earthc::earth_analysis;
use earthc::earth_commopt::{
    optimize_program_with, AliasMode, CommOptConfig, MotionLog, SelectionStats,
};
use earthc::earth_ir::pretty;

/// Paper worked examples (Figures 3, 4, and 8).
const PAPER_FIGURES: &[(&str, &str)] = &[
    (
        "fig3_distance",
        r#"
        struct Point { double x; double y; };
        double distance(Point *p) {
            double d;
            d = sqrt(p->x * p->x + p->y * p->y);
            return d;
        }
    "#,
    ),
    (
        "fig4_scale_point",
        r#"
        struct Point { double x; double y; };
        double scale(double v, double k) { return v * k; }
        void scale_point(Point *p, double k) {
            p->x = scale(p->x, k);
            p->y = scale(p->y, k);
        }
    "#,
    ),
    (
        "fig8_closest_point",
        r#"
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
    "#,
    ),
];

/// Optimizes `src` with the given config and worker count; returns the
/// printed IR, the per-function motion logs, and the summed selection
/// counters.
fn optimize_with_workers_cfg(
    src: &str,
    cfg: &CommOptConfig,
    workers: usize,
) -> (String, Vec<MotionLog>, SelectionStats) {
    let mut prog = earthc::compile_earth_c(src).expect("compiles");
    earth_analysis::infer_locality(&mut prog);
    let analysis = earth_analysis::analyze(&prog);
    let report = optimize_program_with(&mut prog, cfg, &analysis, workers);
    let motions = report.functions.iter().map(|f| f.motion.clone()).collect();
    (pretty::print_program(&prog), motions, report.total())
}

fn optimize_with_workers(src: &str, workers: usize) -> (String, Vec<MotionLog>, SelectionStats) {
    optimize_with_workers_cfg(src, &CommOptConfig::default(), workers)
}

fn assert_deterministic(name: &str, src: &str) {
    let (ir1, motions1, stats1) = optimize_with_workers(src, 1);
    for workers in [2usize, 4, 8] {
        let (ir_n, motions_n, stats_n) = optimize_with_workers(src, workers);
        assert_eq!(
            ir1, ir_n,
            "{name}: IR differs between 1 and {workers} workers"
        );
        assert_eq!(
            motions1, motions_n,
            "{name}: motion logs differ between 1 and {workers} workers"
        );
        assert_eq!(
            stats1, stats_n,
            "{name}: selection stats differ between 1 and {workers} workers"
        );
    }
}

#[test]
fn sample_programs_are_deterministic() {
    let mut checked = 0;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ec") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        assert_deterministic(&path.display().to_string(), &src);
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected the sample programs, found {checked}"
    );
}

#[test]
fn paper_figures_are_deterministic() {
    for (name, src) in PAPER_FIGURES {
        assert_deterministic(name, src);
    }
}

#[test]
fn olden_kernels_are_deterministic() {
    let suite = earthc::earth_olden::suite();
    assert_eq!(suite.len(), 6, "all six Olden kernels");
    for bench in suite {
        assert_deterministic(bench.name, bench.source);
    }
}

/// Profile-guided optimization is worker-count-invariant too: feeding the
/// same measured profile, 1 worker and N workers must produce
/// byte-identical optimized IR and identical selection counters
/// (including `pgo_flips`).
#[test]
fn pgo_output_is_worker_invariant() {
    use earthc::earth_olden::Preset;
    use earthc::earth_sim::{CodegenOptions, Machine, MachineConfig};
    use earthc::{Profile, ProfileDb};
    use std::sync::Arc;
    for bench in earthc::earth_olden::suite() {
        // Instrumented run: the simple build with site recording.
        let prog = earthc::compile_earth_c(bench.source).expect("compiles");
        let opts = CodegenOptions {
            record_sites: true,
            ..CodegenOptions::default()
        };
        let compiled = earthc::earth_sim::compile(&prog, opts).expect("codegen");
        let entry = compiled.function_by_name("main").expect("main");
        let mut m = Machine::new(MachineConfig::with_nodes(4));
        let r = m
            .run(&compiled, entry, &(bench.args)(Preset::Test))
            .expect("instrumented run");
        let db = Arc::new(ProfileDb::new(Profile::from_trace(
            &compiled,
            &r.site_trace,
        )));
        let cfg = CommOptConfig {
            profile: Some(db),
            ..CommOptConfig::default()
        };
        let opt = |workers: usize| {
            let mut prog = earthc::compile_earth_c(bench.source).expect("compiles");
            let analysis = earth_analysis::analyze(&prog);
            let report = optimize_program_with(&mut prog, &cfg, &analysis, workers);
            (pretty::print_program(&prog), report.total())
        };
        let (ir1, stats1) = opt(1);
        // Every Olden kernel's measured profile flips at least one
        // selection decision at this size, so this exercises the PGO path
        // for real rather than vacuously agreeing on static choices.
        assert!(stats1.pgo_flips > 0, "{}: no decisions flipped", bench.name);
        for workers in [2usize, 8] {
            let (ir_n, stats_n) = opt(workers);
            assert_eq!(
                ir1, ir_n,
                "{}: PGO IR differs between 1 and {workers} workers",
                bench.name
            );
            assert_eq!(
                stats1, stats_n,
                "{}: PGO stats differ between 1 and {workers} workers",
                bench.name
            );
        }
    }
}

/// Prob-alias mode is worker-count-invariant too: the probability facts
/// are recomputed per function from the IR alone, so distributing
/// placement + selection across threads must not perturb them. Sweeps the
/// sample programs and every Olden kernel; health must exercise the
/// induction relaxation for real (non-zero `induction_blocks`).
#[test]
fn prob_alias_output_is_worker_invariant() {
    let cfg = CommOptConfig {
        alias: AliasMode::Prob,
        ..CommOptConfig::default()
    };
    let mut sources: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("ec") {
            let src = std::fs::read_to_string(&path).unwrap();
            sources.push((path.display().to_string(), src));
        }
    }
    for bench in earthc::earth_olden::suite() {
        sources.push((bench.name.to_string(), bench.source.to_string()));
    }
    for (name, src) in &sources {
        let (ir1, motions1, stats1) = optimize_with_workers_cfg(src, &cfg, 1);
        if name == "health" {
            assert!(
                stats1.induction_blocks > 0,
                "health: prob path not exercised"
            );
        }
        for workers in [2usize, 8] {
            let (ir_n, motions_n, stats_n) = optimize_with_workers_cfg(src, &cfg, workers);
            assert_eq!(
                ir1, ir_n,
                "{name}: prob IR differs between 1 and {workers} workers"
            );
            assert_eq!(
                motions1, motions_n,
                "{name}: prob motion logs differ between 1 and {workers} workers"
            );
            assert_eq!(
                stats1, stats_n,
                "{name}: prob stats differ between 1 and {workers} workers"
            );
        }
    }
}

/// Differential correctness of the optimization modes, and what the two
/// communication-removing modes promise, on the pipeline `earthcc`,
/// `earthd` and `benchmark/` run (`earthc::Pipeline`, locality inference
/// on). Every sample program's prob-optimized build computes the simple
/// build's result. Every Olden kernel at `Test` on 2 nodes computes it
/// under all five modes (`simple`, `static`, `prob`, `escape`, `pgo`),
/// and so does its sequential build, with the result pinned below (a
/// change to a kernel's workload must update it on purpose). The
/// optimizer fires on every kernel and `static` communicates strictly
/// less than `simple` (Figure 10's claim). Escape upgrades only delete
/// communication, so `escape` never communicates more than `static`. On
/// the list-heavy kernels (health, tsp) both richer modes communicate
/// strictly less: `prob` by trading scalar reads for `blkmov` prefetches
/// of the induction spans, `escape` by deleting node-local traffic.
#[test]
fn prob_optimized_matches_simple_results() {
    use earthc::earth_commopt::EscapeMode;
    use earthc::earth_olden::Preset;
    use earthc::{Pipeline, ProfileDb, Value};
    use std::sync::Arc;
    let prob = CommOptConfig {
        alias: AliasMode::Prob,
        ..CommOptConfig::default()
    };
    let escape = CommOptConfig {
        escape: EscapeMode::On,
        ..CommOptConfig::default()
    };
    let programs: &[(&str, &[Value])] = &[
        ("programs/count.ec", &[Value::Int(8)]),
        ("programs/distance.ec", &[]),
        ("programs/treesum.ec", &[Value::Int(4)]),
    ];
    for (path, args) in programs {
        let src =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/").to_string() + path)
                .unwrap();
        let build = |cfg: Option<CommOptConfig>| {
            Pipeline::new()
                .nodes(4)
                .optimizer(cfg)
                .verify(true)
                .run_source(&src, args)
                .unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let simple = build(None);
        let prob = build(Some(prob.clone()));
        assert_eq!(simple.ret, prob.ret, "{path}: prob build changed result");
    }
    let pinned = [
        ("power", "31.537492545350723"),
        ("tsp", "26065.187281843177"),
        ("health", "8"),
        ("perimeter", "64"),
        ("voronoi", "2051.568604596591"),
        ("treeadd", "63"),
    ];
    for (bench, (pinned_name, pinned_ret)) in earthc::earth_olden::suite().into_iter().zip(pinned) {
        let name = bench.name;
        assert_eq!(name, pinned_name);
        let args = (bench.args)(Preset::Test);
        let pipeline = |cfg: Option<CommOptConfig>| Pipeline::new().nodes(2).optimizer(cfg);
        let (_, profile) = pipeline(None)
            .instrument_source(bench.source, &args)
            .unwrap_or_else(|e| panic!("{name} instrumented: {e}"));
        let modes = [
            ("simple", pipeline(None)),
            ("static", pipeline(Some(CommOptConfig::default()))),
            ("prob", pipeline(Some(prob.clone()))),
            ("escape", pipeline(Some(escape.clone()))),
            (
                "pgo",
                pipeline(Some(prob.clone())).profile(Some(Arc::new(ProfileDb::new(profile)))),
            ),
        ];
        let runs: Vec<_> = modes
            .iter()
            .map(|(mode, p)| {
                let (r, report) = p
                    .run_source_report(bench.source, &args)
                    .unwrap_or_else(|e| panic!("{name} {mode}: {e}"));
                (*mode, r, report)
            })
            .collect();
        let find = |mode: &str| runs.iter().find(|(m, ..)| *m == mode).unwrap();
        let run = |mode: &str| &find(mode).1;
        for (mode, r, _) in &runs {
            assert_eq!(
                r.ret,
                run("simple").ret,
                "{name}: {mode} changed the result"
            );
        }
        let prog = earthc::compile_earth_c(bench.source).unwrap();
        let seq = earthc::earth_sim::run_sequential(&prog, "main", &args)
            .unwrap_or_else(|e| panic!("{name} sequential: {e}"));
        assert_eq!(seq.ret, run("simple").ret, "{name}: sequential result");
        assert_eq!(seq.ret.to_string(), pinned_ret, "{name}: pinned result");
        let optimize = find("static").2.pass("optimize").unwrap();
        let fired = ["pipelined_reads", "blocked_spans"]
            .map(|c| optimize.get_counter(c).unwrap())
            .iter()
            .sum::<u64>();
        assert!(fired > 0, "{name}: optimizer did nothing");
        let comm = |mode: &str| run(mode).stats.total_comm();
        let blkmov = |mode: &str| run(mode).stats.blkmov;
        assert!(
            comm("static") < comm("simple"),
            "{name}: static comm {} !< simple comm {}",
            comm("static"),
            comm("simple")
        );
        assert!(
            comm("escape") <= comm("static"),
            "{name}: escape comm {} > static comm {}",
            comm("escape"),
            comm("static")
        );
        if matches!(name, "health" | "tsp") {
            assert!(
                comm("prob") < comm("static"),
                "{name}: prob comm {} !< static comm {}",
                comm("prob"),
                comm("static")
            );
            assert!(
                blkmov("prob") > blkmov("static"),
                "{name}: prob blkmov {} !> static blkmov {}",
                blkmov("prob"),
                blkmov("static")
            );
            assert!(
                comm("escape") < comm("static"),
                "{name}: escape comm {} !< static comm {}",
                comm("escape"),
                comm("static")
            );
        }
    }
}

/// The end-to-end pipeline (with inlining enabled, so every transform pass
/// runs) is worker-count-invariant too: same result,
/// same virtual time, same dynamic communication stats.
#[test]
fn full_pipeline_is_worker_invariant() {
    use earthc::{Pipeline, Value};
    let src = PAPER_FIGURES
        .iter()
        .find(|(n, _)| *n == "fig3_distance")
        .unwrap()
        .1;
    let wrapped = format!(
        r#"{src}
        double main() {{
            Point *p;
            p = malloc_on(1, sizeof(Point));
            p->x = 3.0;
            p->y = 4.0;
            return distance(p);
        }}
    "#
    );
    let run = |workers: usize| {
        Pipeline::new()
            .nodes(4)
            .workers(workers)
            .inlining(Some(earthc::earth_commopt::InlineConfig::default()))
            .verify(true)
            .lint(true)
            .run_source(&wrapped, &[])
            .unwrap()
    };
    let one = run(1);
    for workers in [2usize, 8] {
        let n = run(workers);
        assert_eq!(one.ret, n.ret);
        assert_eq!(
            one.time_ns, n.time_ns,
            "virtual time must not depend on host threads"
        );
        assert_eq!(one.stats, n.stats);
    }
    assert_eq!(one.ret, Value::Double(5.0));
}

/// 64-bit FNV-1a over the text, written out here so that the fence does
/// not move with the repository's own hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `print_program` of every (source, mode) pair of the `compile_cold`
/// corpus, generated at 7cf2f74 (the parent of the compile-path
/// allocation work): a compiler change that is meant to be faster, not
/// different, leaves every row as it is.
const IR_CHECKSUMS: [(&str, &str, u64); 40] = [
    ("power", "simple", 0x8a4beb3d890a9716),
    ("power", "static", 0xb528ab34132ef0c8),
    ("power", "prob", 0x029e6cdae35c67f8),
    ("power", "escape", 0xdd78e5c2336aa398),
    ("tsp", "simple", 0xc3bbc18014e0fe6f),
    ("tsp", "static", 0xdf1f7591166fddf0),
    ("tsp", "prob", 0xdb037eff77d06455),
    ("tsp", "escape", 0x8ccb2d65d8fe0157),
    ("health", "simple", 0xcd6bb9087b82599e),
    ("health", "static", 0x0bd38dd2a1fc44f4),
    ("health", "prob", 0x1ce9ba66ed284526),
    ("health", "escape", 0x8f0472bda784680c),
    ("perimeter", "simple", 0x310b4f75e9fc16fb),
    ("perimeter", "static", 0x299412e57ba34581),
    ("perimeter", "prob", 0x299412e57ba34581),
    ("perimeter", "escape", 0xd0f534a3507ceb39),
    ("voronoi", "simple", 0x582a3a723dafd14a),
    ("voronoi", "static", 0x431093bdd663e60c),
    ("voronoi", "prob", 0x5008d14d5330fd58),
    ("voronoi", "escape", 0x3d2190f49b2c8763),
    ("treeadd", "simple", 0x75acfa13d3aa00c2),
    ("treeadd", "static", 0xaa6463d44606f77d),
    ("treeadd", "prob", 0xaa6463d44606f77d),
    ("treeadd", "escape", 0x2abdf6d0262294d0),
    ("count.ec", "simple", 0x3da51a6d78934fff),
    ("count.ec", "static", 0xc29ef3aa633f7ca9),
    ("count.ec", "prob", 0xc29ef3aa633f7ca9),
    ("count.ec", "escape", 0x572f7ba4aae5c910),
    ("distance.ec", "simple", 0xeaed587277169fee),
    ("distance.ec", "static", 0x2f613896e2a575b6),
    ("distance.ec", "prob", 0x2f613896e2a575b6),
    ("distance.ec", "escape", 0x2f613896e2a575b6),
    ("orbit.ec", "simple", 0xb984a76f3715d72a),
    ("orbit.ec", "static", 0xfdc12273f3b3d292),
    ("orbit.ec", "prob", 0xbb6d5725d1b19a99),
    ("orbit.ec", "escape", 0x653ba607514e1fa3),
    ("treesum.ec", "simple", 0x761557612b9615ec),
    ("treesum.ec", "static", 0xbef71c4e852bebb2),
    ("treesum.ec", "prob", 0xbef71c4e852bebb2),
    ("treesum.ec", "escape", 0x46d972f360730ae3),
];

/// `print_function` of every function of `health` under `static` with
/// `PrettyOptions { show_labels: false, indent: 4 }`, same commit.
const IR_CHECKSUM_NO_LABELS_INDENT_4: u64 = 0x33f4_57b8_0907_c867;

#[test]
fn ir_text_matches_the_checked_in_checksums() {
    use earthc::earth_frontend::{lower_unit, parse_unit};
    let mut actual = Vec::new();
    for (name, src) in common::sources() {
        for (mode, pipeline) in common::modes() {
            let mut prog = lower_unit(&parse_unit(src).expect("parses")).expect("lowers");
            pipeline.apply_passes(&mut prog).expect("passes");
            actual.push((name, mode, fnv1a(&pretty::print_program(&prog))));
            if (name, mode) == ("health", "static") {
                let opts = pretty::PrettyOptions {
                    show_labels: false,
                    indent: 4,
                };
                let text: String = prog
                    .iter_functions()
                    .map(|(id, _)| pretty::print_function(&prog, id, &opts))
                    .collect();
                assert_eq!(
                    fnv1a(&text),
                    IR_CHECKSUM_NO_LABELS_INDENT_4,
                    "health/static without labels, indent 4: {:#018x}",
                    fnv1a(&text)
                );
            }
        }
    }
    let render = |rows: &[(&str, &str, u64)]| {
        rows.iter()
            .map(|(n, m, h)| format!("    ({n:?}, {m:?}, {h:#018x}),\n"))
            .collect::<String>()
    };
    assert_eq!(
        render(&actual),
        render(&IR_CHECKSUMS),
        "the IR text of the corpus changed"
    );
}
