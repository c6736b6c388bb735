//! Ablation: locality inference (the companion analysis of Zhu & Hendren,
//! PACT'97, run as Phase II's "Locality Analysis" in Figure 2). It
//! upgrades provably-local pointers so their dereferences compile to plain
//! local accesses instead of pseudo-remote runtime calls — orthogonal to,
//! and composing with, the communication optimization.

use earth_olden::suite;
use earthc::Pipeline;

fn main() {
    let preset = earth_bench::preset_from_args();
    let nodes = earth_bench::nodes_from_args();
    println!("Ablation: locality inference ({preset:?}, {nodes} nodes)\n");
    let mut rows = Vec::new();
    for bench in suite() {
        let args = (bench.args)(preset);
        let loc = Pipeline::new().nodes(nodes).optimizer(None);
        let simple = loc
            .clone()
            .locality(false)
            .run_source(bench.source, &args)
            .expect("runs");
        let (r_loc, report) = loc.run_source_report(bench.source, &args).expect("runs");
        assert_eq!(simple.ret, r_loc.ret, "{}", bench.name);
        let r_both = Pipeline::new()
            .nodes(nodes)
            .run_source(bench.source, &args)
            .expect("runs");
        assert_eq!(simple.ret, r_both.ret, "{}", bench.name);
        let upgraded = report
            .pass("locality")
            .and_then(|p| p.get_counter("vars_upgraded"))
            .expect("the locality pass ran");

        rows.push(vec![
            bench.name.to_string(),
            upgraded.to_string(),
            simple.stats.total_comm().to_string(),
            r_loc.stats.total_comm().to_string(),
            r_both.stats.total_comm().to_string(),
            earth_bench::render::secs(simple.time_ns),
            earth_bench::render::secs(r_loc.time_ns),
            earth_bench::render::secs(r_both.time_ns),
        ]);
    }
    println!(
        "{}",
        earth_bench::render::table(
            &[
                "benchmark",
                "locals",
                "comm(simple)",
                "comm(+loc)",
                "comm(+loc+opt)",
                "simple(s)",
                "+loc(s)",
                "+loc+opt(s)"
            ],
            &rows
        )
    );
    println!("\n`locals` = pointers upgraded to local; their dereferences stop being");
    println!("EARTH runtime calls entirely (the PACT'97 'pseudo-remote' elimination).");
}
