//! Property tests for the possible-placement analysis over generated
//! source-level programs: every tuple must refer to real remote reads,
//! carry positive frequency, and never name a killed base at points where
//! the base was just rewritten.
//!
//! The parameter space (`loads` × `stores` × `looped`) is small, so these
//! tests sweep it *exhaustively* instead of sampling it.

use std::collections::HashSet;

fn program(n_loads: u8, n_stores: u8, loop_body: bool) -> String {
    let mut body = String::new();
    for i in 0..n_loads % 4 {
        body.push_str(&format!(
            "    x = x + p->{};\n",
            ["a", "b"][(i % 2) as usize]
        ));
    }
    for i in 0..n_stores % 3 {
        body.push_str(&format!(
            "    p->{} = x + {i};\n",
            ["a", "b"][(i % 2) as usize]
        ));
    }
    let core = if loop_body {
        format!("    i = 0;\n    while (i < 5) {{\n{body}        i = i + 1;\n    }}\n")
    } else {
        body
    };
    format!(
        r#"
struct S {{ S* next; int a; int b; }};
int f(S *p) {{
    int x;
    int i;
    x = 0;
{core}    return x;
}}
"#
    )
}

fn all_cases() -> impl Iterator<Item = (u8, u8, bool)> {
    (0u8..8).flat_map(|loads| {
        (0u8..6).flat_map(move |stores| [false, true].map(move |looped| (loads, stores, looped)))
    })
}

#[test]
fn tuples_reference_real_reads() {
    for (loads, stores, looped) in all_cases() {
        let src = program(loads, stores, looped);
        let prog = earth_frontend::compile(&src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let fid = prog.function_by_name("f").unwrap();
        let f = prog.function(fid);
        let placement = earth_commopt::analyze_placement(
            f,
            analysis.function(fid),
            &earth_commopt::FreqModel::default(),
        );
        let remote_reads: HashSet<_> = f
            .basic_stmts()
            .iter()
            .filter(|(_, b)| b.deref_access().is_some_and(|a| !a.is_write))
            .map(|(l, _)| *l)
            .collect();
        let remote_writes: HashSet<_> = f
            .basic_stmts()
            .iter()
            .filter(|(_, b)| b.deref_access().is_some_and(|a| a.is_write))
            .map(|(l, _)| *l)
            .collect();
        let case = format!("loads={loads} stores={stores} looped={looped}");
        for set in placement.reads_before.values() {
            for t in set.iter() {
                assert!(t.freq > 0.0, "{case}");
                for l in t.labels.iter() {
                    assert!(remote_reads.contains(l), "{case}");
                }
            }
        }
        for set in placement.writes_after.values() {
            for t in set.iter() {
                assert!(t.freq > 0.0, "{case}");
                for l in t.labels.iter() {
                    assert!(remote_writes.contains(l), "{case}");
                }
            }
        }
    }
}

#[test]
fn optimization_is_idempotent_on_counts() {
    // Running the optimizer twice must not change the remote-operation
    // structure further (the second pass finds nothing new to move).
    for (loads, stores, looped) in all_cases() {
        if loads == 0 {
            continue; // mirror the original 1..8 range
        }
        let src = program(loads, stores, looped);
        let mut once = earth_frontend::compile(&src).unwrap();
        earth_commopt::optimize_program(&mut once, &earth_commopt::CommOptConfig::default());
        let count = |p: &earth_ir::Program| {
            let f = p.function(p.function_by_name("f").unwrap());
            f.basic_stmts()
                .iter()
                .filter(|(_, b)| b.deref_access().is_some())
                .count()
        };
        let after_one = count(&once);
        let mut twice = once.clone();
        let r =
            earth_commopt::optimize_program(&mut twice, &earth_commopt::CommOptConfig::default());
        assert_eq!(
            count(&twice),
            after_one,
            "loads={loads} stores={stores} looped={looped}: second pass changed ops: {:?}",
            r.total()
        );
    }
}
