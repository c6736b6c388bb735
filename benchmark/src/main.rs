//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! earth-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! earth-benchmark run [--seed <n>] [--seconds <s>] [--runs <n>] [--quick] [--out <file>]
//! earth-benchmark compare <baseline.json> <candidate.json>
//! earth-benchmark noise [--seed <n>] [--seconds <s>] [--runs <n>] [--out <prefix>]
//! earth-benchmark expected
//! ```

mod check;
mod compare;
mod corpus;
mod measure;
mod metrics;
mod run;
mod trace;
mod workloads;

use compare::{ResultSet, WorkloadRuns};
use run::{Options, Outcome};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  earth-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
      one workload in this process; the last line of output is the result as JSON
  earth-benchmark run [--seed <n>] [--seconds <s>] [--runs <n>] [--quick] [--out <file>]
      every workload, each run in a child process: <runs> untraced runs on seeds
      <n>.., then one traced run for the per-layer metrics
  earth-benchmark compare <baseline.json> <candidate.json>
      judges two files written by `run --out`, one row per workload and metric
  earth-benchmark noise [--seed <n>] [--seconds <s>] [--runs <n>] [--out <prefix>]
      runs the whole set twice and compares the two (kept as <prefix>.1, <prefix>.2)
  earth-benchmark expected
      prints expected.json as the sequential build computes it now";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_flags(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|_| "--runs needs an integer")?;
                if args.runs == 0 {
                    return Err("--runs needs at least 1".into());
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// One workload, here. The result line goes last.
fn run_one(workload: String, args: &Args) -> Result<bool, String> {
    // Before any thread starts, so that all of them inherit it.
    if let Err(e) = measure::pin_to_current_cpu() {
        eprintln!("not pinned to one CPU, timings will follow the scheduler: {e}");
    }
    let outcome = run::run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    })?;
    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    Ok(outcome.correct)
}

/// One run in a child process, so that peak memory and CPU time belong
/// to that run alone.
fn run_child(workload: &str, seed: u64, trace: bool, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // A failed check explains itself on stderr: let it through.
    cmd.stderr(Stdio::inherit());
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!(
        "{workload}: the run printed no result ({})",
        output.status
    ))?;
    Outcome::from_json(line).map_err(|e| format!("{workload}: {e} ({})", output.status))
}

/// Every workload: untraced runs for the end-to-end metrics, then a
/// traced run for the per-layer ones.
fn run_all(args: &Args) -> Result<(ResultSet, bool), String> {
    let mut set = ResultSet {
        seed: args.seed,
        ..ResultSet::default()
    };
    let mut correct = true;
    for workload in workloads::NAMES {
        let mut runs = WorkloadRuns::default();
        for r in 0..args.runs {
            let outcome = run_child(workload, args.seed + r as u64, false, args)?;
            correct &= outcome.correct;
            runs.add(&outcome, false);
        }
        let traced = run_child(workload, args.seed, true, args)?;
        correct &= traced.correct;
        runs.add(&traced, true);

        println!(
            "== {workload}: {} ops attempted, {} failed",
            runs.attempted, runs.failed
        );
        for (name, s) in runs.end_to_end.iter().chain(&runs.per_layer) {
            let med = measure::median(&s.values);
            if s.values.len() > 1 {
                println!(
                    "{name:<34} {med:>16.4} {:<7} spread {:.2} % of {} runs",
                    s.unit,
                    100.0 * compare::spread(&s.values),
                    s.values.len()
                );
            } else {
                println!("{name:<34} {med:>16.4} {}", s.unit);
            }
        }
        set.workloads.insert(workload.to_string(), runs);
    }
    Ok((set, correct))
}

fn write_set(set: &ResultSet, path: &str) -> Result<(), String> {
    std::fs::write(path, set.to_json() + "\n").map_err(|e| format!("{path}: {e}"))
}

fn read_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ResultSet::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The references of every program and size the workloads use, by the
/// independent engine, in the format of `expected.json`.
fn print_expected() -> Result<(), String> {
    use earthc::earth_olden::Preset;
    let mut rows = Vec::new();
    let sources = [Preset::Test, Preset::Small, Preset::Full]
        .into_iter()
        .flat_map(corpus::kernels)
        .chain(corpus::programs());
    for src in sources {
        let reference = check::sequential(&src.text, &src.args, u64::MAX)
            .map_err(|e| format!("{}: {e}", src.key()))?;
        rows.push((src.key(), reference));
    }
    print!("{}", check::render_expected(&rows));
    Ok(())
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "run" => {
            let mut args = parse_flags(rest)?;
            if let Some(workload) = args.workload.take() {
                return run_one(workload, &args);
            }
            let (set, correct) = run_all(&args)?;
            if let Some(path) = &args.out {
                write_set(&set, path)?;
            }
            Ok(correct)
        }
        "compare" => match rest {
            [a, b] => compare::compare(&read_set(a)?, &read_set(b)?),
            _ => Err(USAGE.into()),
        },
        "noise" => {
            let args = parse_flags(rest)?;
            let (first, ok1) = run_all(&args)?;
            let (second, ok2) = run_all(&args)?;
            if let Some(path) = &args.out {
                write_set(&first, &format!("{path}.1"))?;
                write_set(&second, &format!("{path}.2"))?;
            }
            Ok(compare::compare(&first, &second)? && ok1 && ok2)
        }
        "expected" => print_expected().map(|()| true),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
