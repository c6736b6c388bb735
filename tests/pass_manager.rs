//! Pass-manager integration tests: one shared analysis per pipeline run,
//! pass ordering, instrumentation, and failure routing.

use earthc::earth_commopt::{CommOptConfig, InlineConfig, MotionKind};
use earthc::{Pipeline, PipelineError, PipelineReport, ProfileDb, Value};
use std::sync::Arc;

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

/// Regression test for the historical `--verify-placement` repeated
/// analysis (verify, lint, and optimize each ran `earth_analysis::analyze`
/// privately): a verify + lint + optimize pipeline run performs exactly
/// ONE whole-program analysis, asserted via the cache's miss counter.
/// Verify computes it; lint and optimize answer from the cache.
#[test]
fn verify_lint_optimize_analyze_once() {
    let (result, report) = Pipeline::new()
        .nodes(2)
        .verify(true)
        .lint(true)
        .run_source_report(SRC, &[])
        .unwrap();
    assert_eq!(result.ret, Value::Double(5.0));
    assert_eq!(
        report.cache.misses,
        1,
        "exactly one whole-program analysis; got:\n{}",
        report.render()
    );
    assert_eq!(
        report.cache.hits,
        2,
        "lint and optimize reuse the verify pass's analysis:\n{}",
        report.render()
    );
}

/// The pipeline registers passes in the documented order and reports one
/// entry per executed pass.
#[test]
fn pass_order_matches_configuration() {
    let pipeline = Pipeline::new()
        .inlining(Some(InlineConfig::default()))
        .verify(true)
        .lint(true);
    assert_eq!(
        pipeline.pass_manager(None).pass_names(),
        [
            "inline",
            "locality",
            "verify-placement",
            "race-lint",
            "optimize",
            "validate-ir"
        ]
    );
    let (_, report) = pipeline.run_source_report(SRC, &[]).unwrap();
    let names: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        [
            "inline",
            "locality",
            "verify-placement",
            "race-lint",
            "optimize",
            "validate-ir"
        ]
    );
    // Still one analysis, even with every transform pass enabled.
    assert_eq!(report.cache.misses, 1, "{}", report.render());
}

/// `--no-opt` pipelines skip verify/optimize but still validate the IR.
#[test]
fn unoptimized_pipeline_skips_optimizer_passes() {
    let pipeline = Pipeline::new().optimizer(None).verify(true);
    assert_eq!(
        pipeline.pass_manager(None).pass_names(),
        ["locality", "validate-ir"]
    );
    let (_, report) = pipeline.run_source_report(SRC, &[]).unwrap();
    assert_eq!(report.cache.misses, 0, "no pass needed the analysis");
}

/// The optimize pass records motion counters on the report.
#[test]
fn optimize_pass_reports_motion_counters() {
    let (_, report) = Pipeline::new().run_source_report(SRC, &[]).unwrap();
    let opt = report.pass("optimize").expect("optimize ran");
    assert_eq!(opt.get_counter("pipelined_reads"), Some(2));
    assert_eq!(opt.get_counter("reads_rewritten"), Some(4));
    assert!(opt.get_counter("workers").unwrap() >= 1);
    // Exactly the functions selection rewrote were invalidated.
    assert_eq!(
        opt.get_counter("functions_changed"),
        Some(opt.cache.invalidations)
    );
}

/// A racy program surfaces its verdicts through the report without
/// aborting the run.
#[test]
fn race_lint_pass_records_verdicts() {
    let racy = r#"
        struct N { N* next; int v; };
        int main(int n) {
            N *a;
            int i;
            a = malloc(sizeof(N));
            a->v = 0;
            forall (i = 0; i < n; i = i + 1) {
                a->v = a->v + i;
            }
            return a->v;
        }
    "#;
    let (_, report) = Pipeline::new()
        .lint(true)
        .run_source_report(racy, &[Value::Int(3)])
        .unwrap();
    let lint = report.pass("race-lint").expect("lint ran");
    assert_eq!(lint.get_counter("racy"), Some(1), "{}", report.render());
    assert!(
        lint.diagnostics.iter().any(|d| d.code == "PAR001"),
        "verdict diagnostics recorded"
    );
}

/// The verify pass reports a zero violation counter on clean programs and
/// the JSON report includes every pass entry.
#[test]
fn verify_pass_reports_clean_run_and_json_shape() {
    let (_, report) = Pipeline::new()
        .verify(true)
        .run_source_report(SRC, &[])
        .unwrap();
    let verify = report.pass("verify-placement").expect("verify ran");
    assert_eq!(verify.get_counter("violations"), Some(0));
    let json = report.to_json();
    assert!(json.contains("\"name\":\"verify-placement\""), "{json}");
    // The report JSON parses as a diagnostics-style object tree (smoke:
    // balanced braces, no trailing comma artifacts).
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{json}"
    );
}

/// Worker-count configuration is honored end to end — clamped through
/// `clamp_workers` so `0` and oversubscribed requests can't spawn a
/// degenerate pool — and has no effect on results (full determinism
/// tests live in tests/determinism.rs).
#[test]
fn workers_config_reaches_optimize_pass() {
    let (r1, report1) = Pipeline::new()
        .workers(1)
        .run_source_report(SRC, &[])
        .unwrap();
    let (r8, report8) = Pipeline::new()
        .workers(8)
        .run_source_report(SRC, &[])
        .unwrap();
    let (r0, report0) = Pipeline::new()
        .workers(0)
        .run_source_report(SRC, &[])
        .unwrap();
    assert_eq!(
        report1.pass("optimize").unwrap().get_counter("workers"),
        Some(1)
    );
    assert_eq!(
        report8.pass("optimize").unwrap().get_counter("workers"),
        Some(earthc::earth_commopt::clamp_workers(8) as u64)
    );
    assert_eq!(
        report0.pass("optimize").unwrap().get_counter("workers"),
        Some(1),
        "a zero-worker request must clamp up to one"
    );
    assert_eq!(r1.ret, r8.ret);
    assert_eq!(r1.time_ns, r8.time_ns);
    assert_eq!(r1.ret, r0.ret);
    assert_eq!(r1.time_ns, r0.time_ns);
}

/// Legacy entry points still work and stay consistent with the report
/// variants.
#[test]
fn legacy_run_matches_report_run() {
    let plain = Pipeline::new().run_source(SRC, &[]).unwrap();
    let (reported, _) = Pipeline::new().run_source_report(SRC, &[]).unwrap();
    assert_eq!(plain.ret, reported.ret);
    assert_eq!(plain.time_ns, reported.time_ns);
}

/// Frontend errors still come out of the report path as
/// `PipelineError::Frontend`.
#[test]
fn frontend_errors_propagate_through_report_path() {
    let err = Pipeline::new()
        .run_source_report("int main() { return y; }", &[])
        .unwrap_err();
    assert!(matches!(err, PipelineError::Frontend(_)), "{err}");
}

/// `main(n)` calls `hot` n times and `cold` never: under a measured
/// profile `hot`'s two-word span flips from two pipelined reads to one
/// blocked read, so the static and the profiled plan differ in their
/// number of motions (the source of
/// `profile_feedback_flips_blocking_decisions` in `earth-commopt`, with
/// the pair initialized so that it also runs, and a statement above the
/// span so that both static reads move).
const HOT_COLD: &str = r#"
    struct Pair { double x; double y; };
    struct Triple { double a; double b; double c; };
    double hot(Pair *p, double k) {
        double s;
        double t;
        double u;
        u = k * 2.0;
        s = p->x;
        t = p->y;
        return s + t + u;
    }
    double cold(Triple *q) {
        double s;
        s = q->a + q->b + q->c;
        return s;
    }
    int main(int n) {
        double acc;
        Pair *pr;
        Triple *tr;
        int i;
        pr = malloc(sizeof(Pair));
        pr->x = 1.0;
        pr->y = 2.0;
        acc = 0.0;
        i = 0;
        while (i < n) {
            acc = acc + hot(pr, acc);
            i = i + 1;
        }
        if (n < 0) {
            tr = malloc(sizeof(Triple));
            acc = acc + cold(tr);
        }
        return i;
    }
"#;

fn hot_cold_profile() -> Arc<ProfileDb> {
    let (_, profile) = Pipeline::new()
        .instrument_source(HOT_COLD, &[Value::Int(50)])
        .unwrap();
    Arc::new(ProfileDb::new(profile))
}

/// The validator certifies the plan the optimizer applies: under a
/// profile, `verify-placement` replays the *profiled* plan — the flipped
/// `BlockRead` included — and checks exactly as many motions as
/// `optimize` then records.
#[test]
fn verify_pass_replays_the_profiled_plan() {
    let db = hot_cold_profile();
    let (_, report) = Pipeline::new()
        .profile(Some(db.clone()))
        .verify(true)
        .run_source_report(HOT_COLD, &[Value::Int(50)])
        .unwrap();
    let opt = report.pass("optimize").expect("optimize ran");
    assert_eq!(opt.get_counter("decisions_flipped"), Some(1));

    // What `optimize` records, and what the validator replays, over the
    // program as both passes see it (after locality inference).
    let mut prog = earthc::compile_earth_c(HOT_COLD).unwrap();
    earthc::earth_analysis::infer_locality(&mut prog);
    let analysis = earthc::earth_analysis::analyze(&prog);
    let cfg = CommOptConfig {
        profile: Some(db),
        ..CommOptConfig::default()
    };
    let replay = earthc::earth_lint::replay_program(&prog, &cfg, &analysis);
    assert!(replay.violations.is_empty(), "{:?}", replay.violations);
    let hot = prog.function_by_name("hot").unwrap().index();
    assert!(
        replay.logs[hot]
            .iter()
            .any(|m| m.kind == MotionKind::BlockRead),
        "the replay must contain the flipped block read:\n{}",
        replay.logs[hot].render()
    );
    let recorded =
        earthc::earth_commopt::optimize_program_with(&mut prog, &cfg, &analysis, 1).functions;
    let recorded: usize = recorded.iter().map(|f| f.motion.len()).sum();
    let verify = report.pass("verify-placement").expect("verify ran");
    assert_eq!(
        verify.get_counter("motions_checked"),
        Some(recorded as u64),
        "{}",
        report.render()
    );
}

/// The counters that say how much a seed saved — the only thing that may
/// differ between a scratch run and a seeded one.
const REUSE_COUNTERS: [&str; 4] = [
    "functions_reused",
    "functions_reoptimized",
    "escalations",
    "full_rebuild",
];

/// A report with what legitimately varies removed: wall times, cache
/// traffic (a seeded run never fills the cache) and the reuse counters.
/// One line per pass: name, remaining counters, diagnostic count.
fn comparable(report: &PipelineReport) -> Vec<String> {
    report
        .passes
        .iter()
        .map(|p| {
            let counters: Vec<String> = p
                .counters
                .iter()
                .filter(|(name, _)| !REUSE_COUNTERS.contains(name))
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            format!(
                "{} [{}] {}",
                p.name,
                counters.join(" "),
                p.diagnostics.len()
            )
        })
        .collect()
}

/// One pass under one pipeline entry: a scratch `apply_passes`, a run
/// handed an empty seed and a run seeded from the previous compile
/// execute the same pass list (`optimize` in all three, with and without
/// a profile), produce the same program and report the same counters —
/// except the four that account for reuse.
#[test]
fn scratch_and_seeded_runs_share_one_pass_list() {
    for profile in [None, Some(hot_cold_profile())] {
        let pipeline = Pipeline::new().profile(profile.clone()).lint(true);
        let print = |p: &earthc::Program| earthc::earth_ir::pretty::print_program(p);

        let mut scratch = earthc::compile_earth_c(HOT_COLD).unwrap();
        let scratch_report = pipeline.apply_passes(&mut scratch).unwrap();
        let opt = scratch_report.pass("optimize").expect("optimize ran");
        for counter in REUSE_COUNTERS {
            assert_eq!(opt.get_counter(counter), None, "{counter} without a seed");
        }
        assert_eq!(
            opt.get_counter("sites_matched").is_some(),
            profile.is_some(),
            "PGO accounting exactly when a profile is set"
        );

        let mut cold = earthc::compile_earth_c(HOT_COLD).unwrap();
        let (cold_report, snapshot, cold_stats) =
            pipeline.apply_passes_incremental(&mut cold, None).unwrap();
        let mut warm = earthc::compile_earth_c(HOT_COLD).unwrap();
        let (warm_report, _, warm_stats) = pipeline
            .apply_passes_incremental(&mut warm, snapshot)
            .unwrap();
        assert_eq!(cold_stats.functions_reused, 0);
        assert_eq!(warm_stats.functions_reoptimized, 0);
        assert_eq!(
            warm_stats.functions_reused,
            cold_stats.functions_reoptimized
        );

        for (program, report) in [(&cold, &cold_report), (&warm, &warm_report)] {
            assert_eq!(print(program), print(&scratch));
            assert_eq!(comparable(report), comparable(&scratch_report));
            let opt = report.pass("optimize").expect("optimize ran");
            for counter in REUSE_COUNTERS {
                assert!(opt.get_counter(counter).is_some(), "{counter} with a seed");
            }
        }
    }
}

/// A fact two consumers need is computed once. The `escape` and
/// `prob-alias` survey passes report counters of facts the optimizer
/// needs anyway; both read the instance memoized beside the cached
/// analysis, so one pipeline run computes one escape analysis and one set
/// of probability facts per function — and the validator's replay of the
/// plan shares the probability facts too (its escape analysis is its own
/// on purpose: an independent re-derivation).
#[test]
fn survey_passes_and_optimizer_share_one_computation_of_each_fact() {
    use earthc::earth_analysis::{AnalysisCache, FactStats};
    use earthc::earth_commopt::{AliasMode, EscapeMode};
    let cfg = CommOptConfig {
        alias: AliasMode::Prob,
        escape: EscapeMode::On,
        ..CommOptConfig::default()
    };
    for verify in [false, true] {
        let mut prog = earthc::compile_earth_c(SRC).unwrap();
        let functions = prog.functions().len() as u64;
        let mut cache = AnalysisCache::new();
        let report = Pipeline::new()
            .workers(1)
            .optimizer(Some(cfg.clone()))
            .verify(verify)
            .pass_manager(None)
            .run(&mut prog, &mut cache)
            .unwrap();
        // Both surveys and the optimizer ran and had something to say.
        let escape = report.pass("escape").expect("escape survey ran");
        assert!(escape.get_counter("vars_upgradable").is_some());
        let prob = report.pass("prob-alias").expect("prob-alias survey ran");
        assert!(prob.get_counter("sites_annotated").is_some());
        assert!(report.pass("optimize").is_some());
        assert_eq!(report.cache.misses, 1, "{}", report.render());
        assert_eq!(
            cache.fact_stats(),
            FactStats {
                escape_computes: 1,
                prob_computes: functions,
            },
            "verify={verify}:\n{}",
            report.render()
        );
    }
}
