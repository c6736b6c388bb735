//! Backend differential sweep over the real corpus: every sample
//! program under `programs/` and every embedded Olden kernel, compiled
//! simple and optimized, must run **byte-identically** on the
//! interpreter and the native backend — same return value, virtual
//! time, communication stats, output, per-node busy time, site trace,
//! and op histogram — at every node count tried.

use earthc::earth_analysis;
use earthc::earth_commopt::{optimize_program, CommOptConfig};
use earthc::earth_olden::{suite, Preset};
use earthc::earth_sim::{self, CodegenOptions, MachineConfig, Value};

mod backends;
use backends::assert_backends_agree;

const NODES: [u16; 3] = [1, 4, 8];

fn build(src: &str, optimize: bool) -> earth_sim::CompiledProgram {
    let mut prog = earthc::compile_earth_c(src).unwrap_or_else(|e| panic!("{e}"));
    earth_analysis::infer_locality(&mut prog);
    if optimize {
        optimize_program(&mut prog, &CommOptConfig::default());
    }
    earth_sim::compile(
        &prog,
        CodegenOptions {
            record_sites: true,
            ..CodegenOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("codegen: {e}"))
}

#[test]
fn sample_programs_run_identically() {
    let corpus: &[(&str, &[Value])] = &[
        ("programs/count.ec", &[Value::Int(8)]),
        ("programs/distance.ec", &[]),
        ("programs/orbit.ec", &[Value::Int(6)]),
        ("programs/treesum.ec", &[Value::Int(4)]),
    ];
    for (path, args) in corpus {
        let src =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/").to_string() + path)
                .expect("programs/*.ec present");
        for optimize in [false, true] {
            let compiled = build(&src, optimize);
            for nodes in NODES {
                let context = format!("{path} optimize={optimize} nodes={nodes}");
                assert_backends_agree(MachineConfig::with_nodes(nodes), &compiled, args, &context)
                    .unwrap_or_else(|e| panic!("{context}: both backends failed: {e}"));
            }
        }
    }
}

#[test]
fn olden_kernels_run_identically() {
    for bench in suite() {
        let args = (bench.args)(Preset::Test);
        for optimize in [false, true] {
            let compiled = build(bench.source, optimize);
            for nodes in NODES {
                let context = format!("{} optimize={optimize} nodes={nodes}", bench.name);
                assert_backends_agree(MachineConfig::with_nodes(nodes), &compiled, &args, &context)
                    .unwrap_or_else(|e| panic!("{context}: both backends failed: {e}"));
            }
        }
    }
}
