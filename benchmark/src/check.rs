//! Reference checks and the exact (virtual-clock) metrics.
//!
//! A simulated run is accepted when four things hold: its `ret` and
//! `output` equal the checked-in `expected.json`; they equal the
//! *sequential* build of the same text on the interpreter (no EARTH
//! operation, one node: none of the optimizer, the parallel code
//! generator or the native tier took part); the native tier's virtual
//! time and `Stats` equal the interpreter's on the same bytecode; and
//! every later run of the same program repeats the accepted one exactly.

use crate::corpus::{self, Compiled, Mode, Source, NODES};
use earthc::earth_ir::json::{self, ObjectExt as _};
use earthc::earth_sim::{self, Machine, MachineConfig, NativeMachine, RunResult};
use earthc::Value;

/// What a program must return and print.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub ret: String,
    pub output: Vec<String>,
}

/// `benchmark/expected.json`: `"<name>/<size>" -> {ret, output}`.
pub struct Expected(Vec<(String, String, Vec<String>)>);

impl Expected {
    pub fn load() -> Result<Expected, String> {
        Expected::parse(include_str!("../expected.json"))
    }

    fn parse(text: &str) -> Result<Expected, String> {
        let bad = |e: json::JsonError| format!("expected.json: {e}");
        let doc = json::parse(text).map_err(bad)?;
        let mut rows = Vec::new();
        for (key, entry) in doc.as_object("expected.json").map_err(bad)? {
            let entry = entry.as_object(key).map_err(bad)?;
            let output = entry
                .get_array("output")
                .map_err(bad)?
                .iter()
                .map(|v| v.as_str("output line").map(str::to_string))
                .collect::<Result<_, _>>()
                .map_err(bad)?;
            rows.push((key.clone(), entry.get_str("ret").map_err(bad)?, output));
        }
        Ok(Expected(rows))
    }

    /// The reference of `src` by the independent engine, which must also
    /// be what this file says.
    pub fn reference(&self, src: &Source, problems: &mut Vec<String>) -> Result<Reference, String> {
        let reference = sequential(&src.text, &src.args, u64::MAX)
            .map_err(|e| format!("{}: {e}", src.key()))?;
        self.check(&src.key(), &reference, problems);
        Ok(reference)
    }

    /// Appends a problem unless `got` is what the file says for `key`.
    pub fn check(&self, key: &str, got: &Reference, problems: &mut Vec<String>) {
        match self.0.iter().find(|(k, _, _)| k == key) {
            None => problems.push(format!("{key}: no entry in expected.json")),
            Some((_, ret, output)) => {
                if *ret != got.ret || *output != got.output {
                    problems.push(format!(
                        "{key}: expected.json says ret {ret} output {output:?}, the sequential build gives ret {} output {:?}",
                        got.ret, got.output
                    ));
                }
            }
        }
    }
}

/// Renders references in the format of `expected.json`.
pub fn render_expected(rows: &[(String, Reference)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, r)) in rows.iter().enumerate() {
        let entry = json::Obj::new()
            .str("ret", &r.ret)
            .str_array("output", &r.output)
            .finish();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  {}: {entry}{comma}\n", json::string(key)));
    }
    out.push_str("}\n");
    out
}

/// The independent engine: the sequential build of `text` (every access
/// local, one node) on the interpreter, stopped after `max_ops`.
pub fn sequential(text: &str, args: &[Value], max_ops: u64) -> Result<Reference, String> {
    let prog = earthc::compile_earth_c(text).map_err(|e| format!("frontend: {e}"))?;
    let compiled = earth_sim::compile(
        &prog,
        earth_sim::CodegenOptions {
            force_local: true,
            ..Default::default()
        },
    )
    .map_err(|e| format!("codegen: {e}"))?;
    let entry = compiled.function_by_name("main").ok_or("no `main`")?;
    let cfg = MachineConfig {
        max_ops,
        ..MachineConfig::with_nodes(1)
    };
    let r = Machine::new(cfg)
        .run(&compiled, entry, args)
        .map_err(|e| format!("sequential run: {e}"))?;
    Ok(Reference {
        ret: r.ret.to_string(),
        output: r.output,
    })
}

pub fn run_native(c: &Compiled, args: &[Value]) -> Result<RunResult, String> {
    NativeMachine::new(MachineConfig::with_nodes(NODES))
        .run(&c.native, c.entry, args)
        .map_err(|e| format!("native run: {e}"))
}

pub fn run_interp(c: &Compiled, args: &[Value]) -> Result<RunResult, String> {
    Machine::new(MachineConfig::with_nodes(NODES))
        .run(&c.bytecode, c.entry, args)
        .map_err(|e| format!("interpreter run: {e}"))
}

/// Runs `c` on both tiers and checks the run against `reference`;
/// returns the native result, which later runs must repeat.
pub fn accept_run(
    label: &str,
    c: &Compiled,
    args: &[Value],
    reference: &Reference,
    problems: &mut Vec<String>,
) -> Result<RunResult, String> {
    let native = run_native(c, args)?;
    let interp = run_interp(c, args)?;
    if native.ret.to_string() != reference.ret || native.output != reference.output {
        problems.push(format!(
            "{label}: ret {} output {:?}, the sequential build gives ret {} output {:?}",
            native.ret, native.output, reference.ret, reference.output
        ));
    }
    if native.time_ns != interp.time_ns || native.stats != interp.stats {
        problems.push(format!(
            "{label}: native tier {} ns [{}], interpreter {} ns [{}]",
            native.time_ns, native.stats, interp.time_ns, interp.stats
        ));
    }
    Ok(native)
}

/// Whether `got` repeats the accepted run.
pub fn same_run(got: &RunResult, accepted: &RunResult) -> bool {
    got.ret == accepted.ret
        && got.output == accepted.output
        && got.time_ns == accepted.time_ns
        && got.stats == accepted.stats
}

/// One accepted simulated run, as the exact metrics see it.
#[derive(Debug, Clone)]
pub struct SimRow {
    /// The program: a kernel or a file of `programs/`.
    pub program: &'static str,
    pub mode: Mode,
    pub time_ns: u64,
    pub comm: u64,
    /// Whether the workload produces or serves this build itself. A
    /// `simple` build made only as the denominator of `virt_vs_simple`
    /// is not.
    pub measured: bool,
}

impl SimRow {
    pub fn new(src: &Source, mode: Mode, r: &RunResult, measured: bool) -> SimRow {
        SimRow {
            program: src.name,
            mode,
            time_ns: r.time_ns,
            comm: r.stats.total_comm(),
            measured,
        }
    }
}

/// The `simple` build of `src`, run once: the denominator of
/// `virt_vs_simple` for a workload that never runs that build in an op.
pub fn simple_baseline(src: &Source) -> Result<SimRow, String> {
    let run = run_native(&corpus::build(src, Mode::Simple)?, &src.args)
        .map_err(|e| format!("{} simple: {e}", src.key()))?;
    Ok(SimRow::new(src, Mode::Simple, &run, false))
}

/// The three metrics on the simulator's clock. They repeat exactly: no
/// host time enters them, and they are folded in (program, mode) order
/// whatever order the seed ran the rows in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Σ simulated completion time of the measured rows.
    pub virt_ms: f64,
    /// Σ `Stats::total_comm` of the measured rows.
    pub comm_ops: u64,
    /// Geometric mean, over the measured optimized rows, of simulated
    /// time ÷ the `simple` build's of the same program.
    pub virt_vs_simple: f64,
}

impl Exact {
    pub fn of(rows: &[SimRow]) -> Result<Exact, String> {
        let mut rows: Vec<&SimRow> = rows.iter().collect();
        rows.sort_by_key(|r| (r.program, r.mode));
        let measured = || rows.iter().filter(|r| r.measured);
        let mut log_sum = 0.0;
        let mut n = 0;
        for r in measured().filter(|r| r.mode != Mode::Simple) {
            let simple = rows
                .iter()
                .find(|s| s.mode == Mode::Simple && s.program == r.program)
                .ok_or_else(|| format!("{}: no simple build to compare with", r.program))?;
            log_sum += (r.time_ns as f64 / simple.time_ns as f64).ln();
            n += 1;
        }
        if n == 0 {
            return Err("no optimized build among the measured runs".into());
        }
        Ok(Exact {
            virt_ms: measured().map(|r| r.time_ns).sum::<u64>() as f64 / 1e6,
            comm_ops: measured().map(|r| r.comm).sum(),
            virt_vs_simple: (log_sum / n as f64).exp(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(program: &'static str, mode: Mode, time_ns: u64, comm: u64, measured: bool) -> SimRow {
        SimRow {
            program,
            mode,
            time_ns,
            comm,
            measured,
        }
    }

    #[test]
    fn exact_metrics_ignore_row_order_and_unmeasured_baselines() {
        let mut rows = vec![
            row("a", Mode::Simple, 4_000_000, 100, false),
            row("a", Mode::Static, 1_000_000, 10, true),
            row("b", Mode::Simple, 9_000_000, 300, false),
            row("b", Mode::Static, 9_000_000, 30, true),
        ];
        let e = Exact::of(&rows).unwrap();
        assert_eq!(e.virt_ms, 10.0);
        assert_eq!(e.comm_ops, 40);
        assert!((e.virt_vs_simple - 0.5).abs() < 1e-12);
        rows.reverse();
        assert_eq!(Exact::of(&rows).unwrap(), e);
        rows.retain(|r| r.mode != Mode::Simple);
        assert!(Exact::of(&rows).is_err());
    }

    #[test]
    fn expected_file_parses_and_flags_a_wrong_entry() {
        let e = Expected::parse(r#"{"k/1": {"ret": "7", "output": ["a"]}}"#).unwrap();
        let good = Reference {
            ret: "7".into(),
            output: vec!["a".into()],
        };
        let mut problems = Vec::new();
        e.check("k/1", &good, &mut problems);
        assert!(problems.is_empty());
        e.check(
            "k/1",
            &Reference {
                ret: "8".into(),
                ..good.clone()
            },
            &mut problems,
        );
        e.check("missing/1", &good, &mut problems);
        assert_eq!(problems.len(), 2);
        let rendered = render_expected(&[("k/1".into(), good)]);
        assert_eq!(Expected::parse(&rendered).unwrap().0, e.0);
        assert!(Expected::load().is_ok(), "the checked-in file parses");
    }
}
