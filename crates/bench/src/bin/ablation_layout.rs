//! Ablation: struct field reordering + partial block moves (the paper's
//! §7 future work). Compares the communication-optimized build with and
//! without the layout pass: reordering clusters the remotely-accessed
//! fields so the blocked transfers shrink (fewer words on the wire).

use earth_olden::suite;
use earthc::Pipeline;

fn main() {
    let preset = earth_bench::preset_from_args();
    let nodes = earth_bench::nodes_from_args();
    println!("Ablation: field reordering + partial block moves ({preset:?}, {nodes} nodes)\n");
    let mut rows = Vec::new();
    for bench in suite() {
        let args = (bench.args)(preset);
        let plain = Pipeline::new().nodes(nodes);
        let laid_out = plain.clone().field_reordering(true);
        let r_plain = plain.run_source(bench.source, &args).expect("runs");
        let (r_layout, report) = laid_out
            .run_source_report(bench.source, &args)
            .expect("runs");
        assert_eq!(r_plain.ret, r_layout.ret, "{}", bench.name);
        let structs = report
            .pass("field-reorder")
            .and_then(|p| p.get_counter("structs_reordered"))
            .expect("the field-reorder pass ran");

        rows.push(vec![
            bench.name.to_string(),
            structs.to_string(),
            r_plain.stats.blkmov_words.to_string(),
            r_layout.stats.blkmov_words.to_string(),
            earth_bench::render::secs(r_plain.time_ns),
            earth_bench::render::secs(r_layout.time_ns),
            format!(
                "{:+.2}",
                100.0 * (r_plain.time_ns as f64 - r_layout.time_ns as f64) / r_plain.time_ns as f64
            ),
        ]);
    }
    println!(
        "{}",
        earth_bench::render::table(
            &[
                "benchmark",
                "structs",
                "blk-words",
                "blk-words(reord)",
                "opt(s)",
                "reord+opt(s)",
                "%gain"
            ],
            &rows
        )
    );
}
