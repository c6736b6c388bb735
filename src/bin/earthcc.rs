//! `earthcc` — command-line driver for the EARTH-C pipeline.
//!
//! ```text
//! earthcc run  prog.ec [--nodes N] [--no-opt] [--no-locality]
//!                      [--verify-placement] [--alias binary|prob] [--escape on|off] [--workers N]
//!                      [--timings] [--report-json]
//!                      [--arg V]... [--profile-out FILE | --profile-in FILE]
//! earthcc pgo  prog.ec [--nodes N] [--workers N] [--arg V]...   # instrument, run, recompile
//! earthcc dump prog.ec [--optimized] [--no-locality] [--func NAME]   # the IR `run` executes
//! earthcc stats prog.ec [--nodes N] [--arg V]...   # simple vs optimized
//! earthcc lint prog.ec [--json]        # parallel-soundness linter
//! earthcc lint --explain <CODE|all>    # rule documentation (no input file)
//! earthcc verify prog.ec [--json] [--alias binary|prob] [--escape on|off]
//! ```
//!
//! `--lint` and `--verify-placement` are accepted as aliases for the `lint`
//! and `verify` subcommands.
//!
//! Every program runs on the simulator's native (pre-decoded) tier, here
//! as in `earthcc serve` and `earthd`. `dump` prints the IR the same
//! pipeline builds: `dump --optimized` is what `run` executes, plain
//! `dump` what `run --no-opt` executes.
//!
//! `--alias prob` turns on the probabilistic alias mode: branch/loop
//! likelihood heuristics (measured frequencies under PGO) weight the
//! optimizer's cost model, and recognized loop pointer inductions may relax
//! the blocking cost gate. Safety stays binary — `earthcc verify
//! --alias prob` replays and independently re-checks every motion,
//! including the `ALP` re-derivation of each probability-justified one.
//! `earthcc lint --explain PLC002` (or any `IR`/`PAR`/`PLC`/`ALP`/`ESC`/
//! `DCM` code) prints the rule's documentation; `--explain all` lists
//! every rule.
//!
//! `--escape on` turns on the whole-program escape & node-affinity
//! analysis: heap regions proven node-local (or owner-confined) stop
//! compiling to split-phase communication entirely. `earthcc verify
//! --escape on` re-derives every recorded upgrade from the
//! pre-optimization IR (`ESC` codes) and additionally runs the
//! dead-communication checker over the optimized output (`DCM` codes).
//!
//! Compilation runs under the pass manager: every enabled pass (locality,
//! placement verification, race lint, optimization, IR validation) shares
//! one cached whole-program analysis, and `--timings` / `--report-json`
//! print the per-pass wall times and cache counters.
//!
//! Profile-guided optimization: `run --profile-out` executes the
//! instrumented build (pre-passes only, per-site trace recording) and
//! writes the profile as JSON; `run --profile-in` feeds such a profile
//! back into the optimizer and prints the `pgo:` accounting line;
//! `earthcc pgo` does both in one shot and compares static vs profiled.

use earthc::earth_commopt::{
    default_workers, optimize_program_snapshot, AliasMode, CommOptConfig, EscapeMode,
};
use earthc::earth_ir::{diag, pretty, Severity};
use earthc::earth_serve::client::{Client, ClientError};
use earthc::earth_serve::cluster::ClusterClient;
use earthc::earth_serve::proto::{Arg, CompileOptions, RequestKind, Response};
use earthc::{earth_lint, Pipeline, PipelineReport, Profile, ProfileDb, Value};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  earthcc run    <file.ec> [--nodes N] [--op-stats] [--no-opt] [--no-locality] [--verify-placement] [--alias binary|prob] [--escape on|off] [--workers N] [--timings] [--report-json] [--entry NAME] [--arg V]... [--profile-out FILE | --profile-in FILE]\n  earthcc pgo    <file.ec> [--nodes N] [--alias binary|prob] [--escape on|off] [--workers N] [--entry NAME] [--arg V]...\n  earthcc dump   <file.ec> [--optimized] [--no-locality] [--verify-placement] [--alias binary|prob] [--escape on|off] [--workers N] [--fibers] [--func NAME]\n  earthcc stats  <file.ec> [--nodes N] [--alias binary|prob] [--escape on|off] [--entry NAME] [--arg V]...\n  earthcc lint   <file.ec> [--json]\n  earthcc lint   --explain <CODE|all>\n  earthcc verify <file.ec> [--json] [--alias binary|prob] [--escape on|off]\n  earthcc serve  [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] [--spill DIR] [--deadline-ms N] [--idle-ms N] [--cluster --listen HOST:PORT --peers A,B,C [--vnodes N]]\n  earthcc client <compile|run|pgo|lint|stats|ping|shutdown> [file.ec] (--addr HOST:PORT | --peers A,B,C) [--nodes N] [--entry NAME] [--arg V]... [--no-opt] [--no-locality] [--use-profile] [--deadline-ms N]\n<file.ec> may be `olden:<name>` to target an embedded Olden kernel (power, tsp, health, perimeter, voronoi, treeadd)\n`dump` prints the IR of `run`'s build with the same flags (`run --no-opt`'s without --optimized)"
    );
    ExitCode::from(2)
}

/// The one-line PGO accounting summary from the `optimize` pass; `None`
/// unless it ran under a measured profile (the counters are then absent).
fn pgo_line(report: &PipelineReport) -> Option<String> {
    let p = report.pass("optimize")?;
    Some(format!(
        "pgo: sites_instrumented={} sites_matched={} decisions_flipped={}",
        p.get_counter("sites_instrumented")?,
        p.get_counter("sites_matched")?,
        p.get_counter("decisions_flipped")?
    ))
}

struct Opts {
    file: String,
    nodes: u16,
    optimize: bool,
    locality: bool,
    entry: String,
    args: Vec<Value>,
    func: Option<String>,
    dump_optimized: bool,
    dump_fibers: bool,
    verify: bool,
    json: bool,
    workers: Option<usize>,
    timings: bool,
    report_json: bool,
    profile_in: Option<String>,
    profile_out: Option<String>,
    addr: Option<String>,
    peers: Vec<String>,
    use_profile: bool,
    deadline_ms: Option<u64>,
    alias: AliasMode,
    escape: EscapeMode,
    op_stats: bool,
}

impl Opts {
    /// The optimizer configuration the parsed flags describe.
    fn commopt_cfg(&self) -> CommOptConfig {
        CommOptConfig {
            alias: self.alias,
            escape: self.escape,
            ..CommOptConfig::default()
        }
    }

    /// The pipeline every subcommand that builds a program uses, with the
    /// optimizer on or off: `run`, `pgo`, `stats`, and `dump`, which
    /// prints the IR of the same build.
    fn pipeline(&self, optimize: bool) -> Pipeline {
        let pipeline = Pipeline::new()
            .nodes(self.nodes)
            .optimizer(optimize.then(|| self.commopt_cfg()))
            .verify(self.verify)
            .locality(self.locality)
            .record_op_stats(self.op_stats)
            .entry(self.entry.clone());
        match self.workers {
            Some(w) => pipeline.workers(w),
            None => pipeline,
        }
    }
}

fn parse_opts(rest: &[String], needs_file: bool) -> Result<Opts, String> {
    let mut o = Opts {
        file: String::new(),
        nodes: 1,
        optimize: true,
        locality: true,
        entry: "main".into(),
        args: Vec::new(),
        func: None,
        dump_optimized: false,
        dump_fibers: false,
        verify: false,
        json: false,
        workers: None,
        timings: false,
        report_json: false,
        profile_in: None,
        profile_out: None,
        addr: None,
        peers: Vec::new(),
        use_profile: false,
        deadline_ms: None,
        alias: AliasMode::Binary,
        escape: EscapeMode::Off,
        op_stats: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => {
                o.nodes = it
                    .next()
                    .ok_or("--nodes needs a value")?
                    .parse()
                    .map_err(|_| "--nodes needs an integer")?;
                if o.nodes == 0 {
                    return Err("--nodes must be at least 1".into());
                }
            }
            "--no-opt" => o.optimize = false,
            "--no-locality" => o.locality = false,
            "--optimized" => o.dump_optimized = true,
            "--fibers" => o.dump_fibers = true,
            "--verify-placement" => o.verify = true,
            "--json" => o.json = true,
            "--timings" => o.timings = true,
            "--report-json" => o.report_json = true,
            "--workers" => {
                o.workers = Some(
                    it.next()
                        .ok_or("--workers needs a value")?
                        .parse()
                        .map_err(|_| "--workers needs an integer")?,
                );
            }
            "--profile-in" => {
                o.profile_in = Some(it.next().ok_or("--profile-in needs a file")?.clone());
            }
            "--profile-out" => {
                o.profile_out = Some(it.next().ok_or("--profile-out needs a file")?.clone());
            }
            "--addr" => o.addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            "--peers" => {
                o.peers = it
                    .next()
                    .ok_or("--peers needs a comma-separated list")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--use-profile" => o.use_profile = true,
            "--deadline-ms" => {
                o.deadline_ms = Some(
                    it.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs an integer")?,
                );
            }
            "--alias" => {
                o.alias = match it.next().ok_or("--alias needs a value")?.as_str() {
                    "binary" => AliasMode::Binary,
                    "prob" => AliasMode::Prob,
                    other => {
                        return Err(format!("--alias must be `binary` or `prob`, got `{other}`"))
                    }
                };
            }
            "--escape" => {
                o.escape = match it.next().ok_or("--escape needs a value")?.as_str() {
                    "on" => EscapeMode::On,
                    "off" => EscapeMode::Off,
                    other => return Err(format!("--escape must be `on` or `off`, got `{other}`")),
                };
            }
            "--op-stats" => o.op_stats = true,
            "--entry" => o.entry = it.next().ok_or("--entry needs a value")?.clone(),
            "--func" => o.func = Some(it.next().ok_or("--func needs a value")?.clone()),
            "--arg" => {
                let v = it.next().ok_or("--arg needs a value")?;
                let val = if v.contains('.') {
                    Value::Double(v.parse().map_err(|_| "bad double argument")?)
                } else {
                    Value::Int(v.parse().map_err(|_| "bad integer argument")?)
                };
                o.args.push(val);
            }
            other if !other.starts_with('-') && o.file.is_empty() => o.file = other.to_string(),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if needs_file && o.file.is_empty() {
        return Err("no input file".into());
    }
    if o.profile_in.is_some() && o.profile_out.is_some() {
        return Err("--profile-in and --profile-out are mutually exclusive".into());
    }
    Ok(o)
}

/// Prints the documentation for one diagnostic code (or lists them all),
/// sourced from the same registry the diagnostics are checked against.
fn explain(code: &str) -> ExitCode {
    use earthc::earth_ir::rules;
    if code == "all" {
        for r in rules::RULES {
            println!("{}  {}", r.code, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    match rules::lookup(code) {
        Some(r) => {
            println!("{} — {}", r.code, r.summary);
            println!();
            println!("{}", r.detail);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: unknown diagnostic code `{code}` (try `--explain all`)");
            ExitCode::FAILURE
        }
    }
}

/// Reads one source file, or reports the single-line diagnostic the
/// CLI contract requires for unreadable paths. The pseudo-path
/// `olden:<name>` resolves to the embedded Olden kernel of that name, so
/// sweeps (e.g. CI's validator run) can target the benchmark suite
/// without materializing it on disk.
fn read_source(path: &str) -> Result<String, ExitCode> {
    if let Some(name) = path.strip_prefix("olden:") {
        return match earthc::earth_olden::by_name(name) {
            Some(b) => Ok(b.source.to_string()),
            None => {
                let known: Vec<&str> = earthc::earth_olden::suite()
                    .iter()
                    .map(|b| b.name)
                    .collect();
                eprintln!(
                    "error: unknown Olden kernel `{name}` (known: {})",
                    known.join(", ")
                );
                Err(ExitCode::FAILURE)
            }
        };
    }
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read `{path}`: {e}");
        ExitCode::FAILURE
    })
}

/// One connection for the `client` subcommand: a single daemon
/// (`--addr`) or a routing cluster client (`--peers`).
enum DaemonConn {
    Single(Client),
    Cluster(ClusterClient),
}

impl DaemonConn {
    fn request(&mut self, kind: RequestKind) -> Result<Response, ClientError> {
        match self {
            DaemonConn::Single(c) => c.request(kind),
            DaemonConn::Cluster(c) => c.request(kind),
        }
    }
}

/// Prints one response in the `client` subcommand's line format.
fn print_response(sub: &str, resp: &Response) {
    match resp {
        Response::Compile {
            key, cached, ir, ..
        } => {
            println!("key:    {key}");
            println!("cached: {cached}");
            print!("{ir}");
        }
        Response::Run {
            key,
            cached,
            ret,
            time_ns,
            stats,
            output,
            ..
        } => {
            println!("result: {ret}");
            println!("time:   {time_ns} ns");
            println!("stats:  {stats}");
            for line in output {
                println!("output: {line}");
            }
            println!("cached: {cached} key: {key}");
        }
        Response::Pgo {
            sites,
            merged_sites,
            invalidated,
            ret,
            ..
        } => {
            println!("result: {ret}");
            println!("pgo: sites={sites} merged_sites={merged_sites} invalidated={invalidated}");
        }
        Response::Lint {
            independent,
            diagnostics,
            ..
        } => {
            println!("independent: {independent}");
            println!("{diagnostics}");
        }
        Response::Stats { stats, .. } => print!("{}", stats.render()),
        Response::Ok { .. } => {
            if sub == "shutdown" {
                println!("shutdown acknowledged");
            } else {
                println!("pong");
            }
        }
        Response::Error { .. } => unreachable!("request() returns errors as Err"),
    }
}

fn client_cmd(rest: &[String]) -> ExitCode {
    let Some((sub, rest)) = rest.split_first() else {
        return usage();
    };
    let needs_file = matches!(sub.as_str(), "compile" | "run" | "pgo" | "lint");
    let opts = match parse_opts(rest, needs_file) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let source = if needs_file {
        match read_source(&opts.file) {
            Ok(s) => s,
            Err(code) => return code,
        }
    } else {
        String::new()
    };
    let mut conn = if !opts.peers.is_empty() {
        let mut c = ClusterClient::new(&opts.peers);
        c.deadline_ms = opts.deadline_ms;
        DaemonConn::Cluster(c)
    } else if let Some(addr) = opts.addr.clone() {
        match Client::connect(addr.as_str()) {
            Ok(mut c) => {
                c.deadline_ms = opts.deadline_ms;
                DaemonConn::Single(c)
            }
            Err(e) => {
                eprintln!("error: cannot connect to `{addr}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("error: client needs --addr HOST:PORT or --peers A,B,C");
        return ExitCode::FAILURE;
    };
    let copts = CompileOptions {
        optimize: opts.optimize,
        locality: opts.locality,
        use_profile: opts.use_profile,
    };
    let args: Vec<Arg> = opts
        .args
        .iter()
        .map(|v| match v {
            Value::Int(n) => Arg::Int(*n),
            Value::Double(x) => Arg::Double(*x),
            other => Arg::Int(format!("{other}").parse().unwrap_or(0)),
        })
        .collect();
    let kind = match sub.as_str() {
        "compile" => RequestKind::Compile {
            source,
            opts: copts,
        },
        "run" => RequestKind::Run {
            source,
            opts: copts,
            entry: opts.entry.clone(),
            nodes: opts.nodes,
            args,
        },
        "pgo" => RequestKind::Pgo {
            source,
            entry: opts.entry.clone(),
            nodes: opts.nodes,
            args,
        },
        "lint" => RequestKind::Lint { source },
        "stats" => RequestKind::Stats,
        "ping" => RequestKind::Ping,
        "shutdown" => RequestKind::Shutdown,
        _ => return usage(),
    };
    match conn.request(kind) {
        Ok(resp) => {
            print_response(sub, &resp);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "serve" => {
            return match earthc::serve::run_daemon(rest) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "client" => return client_cmd(rest),
        "lint" => {
            // `lint --explain CODE` documents a diagnostic; no input file.
            if let Some(i) = rest.iter().position(|a| a == "--explain") {
                let Some(code) = rest.get(i + 1) else {
                    eprintln!("error: --explain needs a diagnostic code or `all`");
                    return usage();
                };
                return explain(code);
            }
        }
        _ => {}
    }
    let opts = match parse_opts(rest, true) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let src = match read_source(&opts.file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match cmd.as_str() {
        "run" => {
            let mut pipeline = opts.pipeline(opts.optimize);
            if let Some(path) = &opts.profile_out {
                // Instrumented run: pre-passes only, site recording on.
                return match pipeline.instrument_source(&src, &opts.args) {
                    Ok((r, profile)) => {
                        if let Err(e) = std::fs::write(path, profile.to_json()) {
                            eprintln!("error: cannot write `{path}`: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("result: {}", r.ret);
                        println!("time:   {} ns", r.time_ns);
                        println!("stats:  {}", r.stats);
                        for line in &r.output {
                            println!("output: {line}");
                        }
                        println!("profile: {} sites -> {path}", profile.len());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            if let Some(path) = &opts.profile_in {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let profile = match Profile::from_json(&text) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("error: bad profile `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                pipeline = pipeline.profile(Some(Arc::new(ProfileDb::new(profile))));
            }
            match pipeline.run_source_report(&src, &opts.args) {
                Ok((r, report)) => {
                    println!("result: {}", r.ret);
                    println!("time:   {} ns", r.time_ns);
                    println!("stats:  {}", r.stats);
                    for line in &r.output {
                        println!("output: {line}");
                    }
                    if opts.op_stats {
                        print!("{}", r.op_stats);
                    }
                    if let Some(line) = pgo_line(&report) {
                        println!("{line}");
                    }
                    if opts.timings {
                        print!("{}", report.render());
                    }
                    if opts.report_json {
                        println!("{}", report.to_json());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "pgo" => {
            let static_build = opts.pipeline(true);
            let (instrumented, profile) = match static_build.instrument_source(&src, &opts.args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: instrumented run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let profiled_build = static_build
                .clone()
                .profile(Some(Arc::new(ProfileDb::new(profile.clone()))));
            match (
                static_build.run_source(&src, &opts.args),
                profiled_build.run_source_report(&src, &opts.args),
            ) {
                (Ok(st), Ok((pg, report))) => {
                    assert_eq!(st.ret, pg.ret, "static and profiled builds disagree");
                    println!("result:       {}", st.ret);
                    println!(
                        "instrumented: {:>12} ns | {} sites profiled",
                        instrumented.time_ns,
                        profile.len()
                    );
                    println!("static:       {:>12} ns | {}", st.time_ns, st.stats);
                    println!("profiled:     {:>12} ns | {}", pg.time_ns, pg.stats);
                    println!(
                        "improvement:  {:.2}%  comm: {} -> {}",
                        100.0 * (st.time_ns as f64 - pg.time_ns as f64) / st.time_ns as f64,
                        st.stats.total_comm(),
                        pg.stats.total_comm()
                    );
                    if let Some(line) = pgo_line(&report) {
                        println!("{line}");
                    }
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "dump" => {
            let mut prog = match earthc::compile_earth_c(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = opts.pipeline(opts.dump_optimized).apply_passes(&mut prog) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            if opts.dump_fibers {
                let analysis = earthc::earth_analysis::analyze(&prog);
                for (fid, f) in prog.iter_functions() {
                    if let Some(name) = &opts.func {
                        if &f.name != name {
                            continue;
                        }
                    }
                    let report = earthc::earth_sim::build_ddg(f, analysis.function(fid));
                    println!("{}", earthc::earth_sim::render_fibers(f, &report));
                }
                return ExitCode::SUCCESS;
            }
            match &opts.func {
                Some(name) => match prog.function_by_name(name) {
                    Some(id) => println!("{}", pretty::print_function_default(&prog, id)),
                    None => {
                        eprintln!("error: no function `{name}`");
                        return ExitCode::FAILURE;
                    }
                },
                None => println!("{}", pretty::print_program(&prog)),
            }
            ExitCode::SUCCESS
        }
        "stats" => {
            let run = |optimize: bool| opts.pipeline(optimize).run_source(&src, &opts.args);
            match (run(false), run(true)) {
                (Ok(simple), Ok(optimized)) => {
                    assert_eq!(simple.ret, optimized.ret, "builds disagree");
                    println!("result:    {}", simple.ret);
                    println!("simple:    {:>12} ns | {}", simple.time_ns, simple.stats);
                    println!(
                        "optimized: {:>12} ns | {}",
                        optimized.time_ns, optimized.stats
                    );
                    println!(
                        "improvement: {:.2}%  comm: {} -> {}",
                        100.0 * (simple.time_ns as f64 - optimized.time_ns as f64)
                            / simple.time_ns as f64,
                        simple.stats.total_comm(),
                        optimized.stats.total_comm()
                    );
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "lint" | "--lint" => {
            let prog = match earthc::compile_earth_c(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = earth_lint::lint_program(&prog);
            if opts.json {
                println!("{}", diag::to_json_array(&report.diagnostics));
            } else {
                for v in &report.verdicts {
                    println!(
                        "{}: {} at {}: {}",
                        v.func,
                        v.construct.name(),
                        v.label,
                        if v.independent {
                            "provably independent"
                        } else {
                            "possibly racy"
                        }
                    );
                }
                if !report.diagnostics.is_empty() {
                    println!("{}", diag::render_all(&report.diagnostics));
                }
            }
            if report.all_independent() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "verify" | "--verify-placement" => {
            let mut prog = match earthc::compile_earth_c(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if opts.locality {
                earthc::earth_analysis::infer_locality(&mut prog);
            }
            // One analysis and one scratch run of the optimizer feed all
            // three checks: the replay of every planned motion; the
            // dead-communication check over the optimized copy (fetches
            // whose results are never consumed, DCM001/DCM002); and the
            // incremental self-check, which takes the snapshot an
            // incremental compile of this unit would cache and re-derives
            // its claims from a fresh analysis of its own (INC001–INC003).
            let cfg = opts.commopt_cfg();
            let analysis = earthc::earth_analysis::analyze(&prog);
            let mut violations = earth_lint::verify_program_with(&prog, &cfg, &analysis);
            let mut optimized = prog.clone();
            let (_, snapshot) =
                optimize_program_snapshot(&mut optimized, &cfg, default_workers(), &analysis);
            earthc::earth_ir::validate_program(&optimized).expect("optimizer produced invalid IR");
            violations.extend(earth_lint::dead_comm::check_program(&optimized));
            violations.extend(earth_lint::verify_incremental(&prog, &cfg, &snapshot));
            if opts.json {
                println!("{}", diag::to_json_array(&violations));
            } else if violations.is_empty() {
                println!("ok: every planned motion and incremental splice verified");
            } else {
                println!("{}", diag::render_all(&violations));
            }
            if violations.iter().any(|d| d.severity == Severity::Error) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
