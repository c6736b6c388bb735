//! Ablation: local function inlining (the paper's Phase-I pass) before
//! communication optimization — the paper's §6 notes tsp's `distance`
//! benefits from interprocedural placement achieved "via function
//! inlining".

use earth_olden::suite;
use earthc::earth_commopt::InlineConfig;
use earthc::Pipeline;

fn main() {
    let preset = earth_bench::preset_from_args();
    let nodes = earth_bench::nodes_from_args();
    println!("Ablation: inlining before communication optimization ({preset:?}, {nodes} nodes)\n");
    let mut rows = Vec::new();
    for bench in suite() {
        let args = (bench.args)(preset);
        let opt_only = Pipeline::new().nodes(nodes);
        let inl_opt = opt_only.clone().inlining(Some(InlineConfig::default()));
        let r_opt = opt_only.run_source(bench.source, &args).expect("runs");
        let (r_both, report) = inl_opt
            .run_source_report(bench.source, &args)
            .expect("runs");
        assert_eq!(r_opt.ret, r_both.ret, "{}", bench.name);
        let inlined = report
            .pass("inline")
            .and_then(|p| p.get_counter("inlined_calls"))
            .expect("the inline pass ran");

        rows.push(vec![
            bench.name.to_string(),
            inlined.to_string(),
            earth_bench::render::secs(r_opt.time_ns),
            earth_bench::render::secs(r_both.time_ns),
            format!(
                "{:+.2}",
                100.0 * (r_opt.time_ns as f64 - r_both.time_ns as f64) / r_opt.time_ns as f64
            ),
            r_opt.stats.total_comm().to_string(),
            r_both.stats.total_comm().to_string(),
        ]);
    }
    println!(
        "{}",
        earth_bench::render::table(
            &[
                "benchmark",
                "inlined",
                "opt(s)",
                "inline+opt(s)",
                "%gain",
                "comm(opt)",
                "comm(inl+opt)"
            ],
            &rows
        )
    );
}
