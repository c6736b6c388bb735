//! CLI contract tests for `earthcc`: bad inputs must produce a
//! non-zero exit code and a single-line `error:` diagnostic on stderr —
//! never a panic with a backtrace.

use std::process::{Command, Output};

fn earthcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_earthcc"))
        .args(args)
        .output()
        .expect("spawn earthcc")
}

/// Stderr must be exactly one `error:` line — no panic message, no
/// backtrace frames.
fn assert_single_error_line(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected failure, got success: {stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "wrong exit code: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "expected one diagnostic line: {stderr}");
    assert!(
        lines[0].starts_with("error: "),
        "diagnostic must start with `error: `: {stderr}"
    );
    assert!(
        lines[0].contains(needle),
        "diagnostic should mention {needle:?}: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "must not panic: {stderr}"
    );
}

#[test]
fn nonexistent_input_is_a_single_line_error() {
    for cmd in ["run", "pgo", "dump", "stats", "lint", "verify"] {
        let out = earthcc(&[cmd, "/no/such/dir/missing.ec"]);
        assert_single_error_line(&out, "cannot read `/no/such/dir/missing.ec`");
    }
}

#[test]
fn unreadable_profile_in_is_a_single_line_error() {
    let out = earthcc(&[
        "run",
        "programs/count.ec",
        "--arg",
        "3",
        "--profile-in",
        "/no/such/profile.json",
    ]);
    assert_single_error_line(&out, "cannot read `/no/such/profile.json`");
}

#[test]
fn malformed_profile_in_is_a_single_line_error() {
    let dir = std::env::temp_dir().join(format!("earthcc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("bad-profile.json");
    std::fs::write(&profile, "{ not a profile").unwrap();
    let out = earthcc(&[
        "run",
        "programs/count.ec",
        "--arg",
        "3",
        "--profile-in",
        profile.to_str().unwrap(),
    ]);
    assert_single_error_line(&out, "bad profile");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_without_addr_is_a_single_line_error() {
    let out = earthcc(&["client", "stats"]);
    assert_single_error_line(&out, "--addr");
}

#[test]
fn client_with_unreachable_addr_fails_cleanly() {
    // Port 1 on localhost: connection refused, not a panic.
    let out = earthcc(&["client", "ping", "--addr", "127.0.0.1:1"]);
    assert_single_error_line(&out, "cannot connect");
}

#[test]
fn client_compile_with_missing_file_is_a_single_line_error() {
    let out = earthcc(&[
        "client",
        "compile",
        "/no/such/file.ec",
        "--addr",
        "127.0.0.1:1",
    ]);
    assert_single_error_line(&out, "cannot read `/no/such/file.ec`");
}

#[test]
fn explain_unknown_code_is_a_single_line_error() {
    let out = earthcc(&["lint", "--explain", "NOSUCH999"]);
    assert_single_error_line(&out, "unknown diagnostic code `NOSUCH999`");
}

#[test]
fn bad_escape_mode_is_a_usage_error() {
    let out = earthcc(&["stats", "programs/orbit.ec", "--escape", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --escape must be `on` or `off`"),
        "expected a leading `error:` line: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn verify_succeeds_with_escape_on() {
    let out = earthcc(&["verify", "programs/orbit.ec", "--escape", "on"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn missing_subcommand_and_bad_flags_use_exit_code_2() {
    assert_eq!(earthcc(&[]).status.code(), Some(2));
    assert_eq!(earthcc(&["run"]).status.code(), Some(2), "no input file");
    assert_eq!(
        earthcc(&["run", "programs/count.ec", "--bogus-flag"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn run_succeeds_on_a_real_program() {
    let out = earthcc(&["run", "programs/count.ec", "--arg", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("result: 1"), "{stdout}");
}

/// `run --timings --report-json` shows the layers on either side of the
/// pass pipeline, and together with the passes they account for no more
/// time than the command took.
#[test]
fn timings_cover_the_layers_around_the_passes() {
    use earthc::earth_ir::json::{self, ObjectExt as _};
    let start = std::time::Instant::now();
    let out = earthcc(&[
        "run",
        "programs/treesum.ec",
        "--nodes",
        "2",
        "--arg",
        "6",
        "--timings",
        "--report-json",
    ]);
    let wall = start.elapsed();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The table: one row per layer, in execution order around the passes.
    let row = |name: &str| {
        stdout
            .lines()
            .position(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{stdout}"))
    };
    let order = [
        "lex+parse",
        "lower",
        "optimize",
        "validate-ir",
        "codegen",
        "predecode",
        "total",
    ];
    assert!(
        order.map(row).windows(2).all(|w| w[0] < w[1]),
        "rows out of order:\n{stdout}"
    );
    // The JSON: `frontend` and `backend` objects beside `passes`.
    let report = json::parse(stdout.lines().last().unwrap()).unwrap();
    let report = report.as_object("report").unwrap();
    let mut accounted = 0u128;
    for (group, keys) in [
        ("frontend", ["lex+parse_ns", "lower_ns"]),
        ("backend", ["codegen_ns", "predecode_ns"]),
    ] {
        let layers = report.field(group).unwrap().as_object(group).unwrap();
        for key in keys {
            accounted += layers.get_u64(key).unwrap() as u128;
        }
    }
    for pass in report.get_array("passes").unwrap() {
        accounted += pass.as_object("pass").unwrap().get_u64("wall_ns").unwrap() as u128;
    }
    assert!(accounted > 0);
    assert!(
        accounted <= wall.as_nanos(),
        "layers and passes add up to {accounted} ns, the command took {} ns",
        wall.as_nanos()
    );
}

#[test]
fn zero_nodes_is_a_usage_error() {
    let out = earthcc(&["run", "programs/count.ec", "--nodes", "0", "--arg", "3"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --nodes must be at least 1"),
        "expected a leading `error:` line: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

/// `dump --optimized` prints the IR `run` executes: the default
/// pipeline's passes, locality inference included — the IR `earthd`
/// answers a compile request with.
#[test]
fn dump_optimized_prints_the_pipelines_ir() {
    use earthc::earth_ir::pretty;
    let out = earthcc(&["dump", "olden:tsp", "--optimized"]);
    assert!(out.status.success(), "{out:?}");
    let source = earthc::earth_olden::by_name("tsp").unwrap().source;
    let mut prog = earthc::compile_earth_c(source).unwrap();
    earthc::Pipeline::new().apply_passes(&mut prog).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{}\n", pretty::print_program(&prog))
    );
}
