//! Concurrency and caching guarantees of the real daemon: `earthd`
//! serving the actual `earthc` pipeline over TCP.
//!
//! The two load-bearing acceptance properties live here:
//!
//! - a repeated identical compile is served from the cache with **zero**
//!   additional whole-program analyses, and
//! - N concurrent clients racing the same and different sources all
//!   receive artifacts byte-identical to a single-threaded compile,
//!   with a popular key compiled exactly once (no cache stampede).

use earthc::earth_ir::json::{self, ObjectExt as _};
use earthc::earth_serve::client::Client;
use earthc::earth_serve::proto::{Arg, CompileOptions, Response};
use earthc::earth_serve::server::{Server, ServerConfig, ServerHandle};
use earthc::earth_serve::Backend;
use earthc::serve::PipelineBackend;
use std::net::SocketAddr;
use std::thread::JoinHandle;

fn start(config: ServerConfig) -> (SocketAddr, ServerHandle<PipelineBackend>, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config, PipelineBackend::new()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn sources() -> Vec<(String, String)> {
    ["count.ec", "distance.ec", "treesum.ec"]
        .iter()
        .map(|name| {
            let text =
                std::fs::read_to_string(format!("programs/{name}")).expect("programs/*.ec present");
            (name.to_string(), text)
        })
        .collect()
}

/// The single-threaded reference: compile directly through the backend,
/// no daemon, no cache.
fn reference_ir(source: &str) -> String {
    PipelineBackend::new()
        .compile(source, &CompileOptions::default())
        .expect("reference compile")
        .artifact
        .ir
}

fn compile_ir(client: &mut Client, source: &str) -> (String, bool) {
    match client.compile(source, CompileOptions::default()).unwrap() {
        Response::Compile { ir, cached, .. } => (ir, cached),
        other => panic!("{other:?}"),
    }
}

#[test]
fn repeated_compile_hits_cache_with_zero_new_analyses() {
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let (_, source) = sources().remove(0);

    let (ir_cold, cached_cold) = compile_ir(&mut client, &source);
    assert!(!cached_cold);
    let analyses_after_cold = client.stats().unwrap().analyses;
    assert!(analyses_after_cold > 0, "cold compile must analyze");

    for _ in 0..3 {
        let (ir_hit, cached_hit) = compile_ir(&mut client, &source);
        assert!(cached_hit, "identical compile must be served from cache");
        assert_eq!(ir_hit, ir_cold, "cached IR must be byte-identical");
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.analyses, analyses_after_cold,
        "cache hits must perform zero additional whole-program analyses"
    );
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, 3);

    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_get_byte_identical_artifacts() {
    let (addr, _handle, join) = start(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    });
    let programs = sources();
    // 9 threads: three per source, racing both same-key and
    // different-key requests through the daemon at once.
    let threads: Vec<_> = (0..9)
        .map(|i| {
            let (name, source) = programs[i % programs.len()].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (ir, _) = compile_ir(&mut client, &source);
                (name, source, ir)
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (name, source, ir) in &results {
        assert_eq!(
            *ir,
            reference_ir(source),
            "{name}: daemon IR must match a single-threaded compile"
        );
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache.misses, 3,
        "three distinct sources -> exactly three compiles, no stampede"
    );
    // Duplicate requests are either coalesced onto the in-flight
    // compile at the connection layer or served from the cache.
    assert_eq!(stats.cache.hits + stats.coalesced_hits, 6);
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn stampede_on_one_popular_key_compiles_once() {
    let (addr, _handle, join) = start(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    });
    let (_, source) = sources().remove(2); // treesum: the slowest compile
    let irs: Vec<String> = (0..8)
        .map(|_| {
            let source = source.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                compile_ir(&mut client, &source).0
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    let reference = reference_ir(&source);
    for ir in &irs {
        assert_eq!(*ir, reference);
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache.misses, 1,
        "popular key must compile exactly once"
    );
    // The other 7 stampeders ride the single compile: coalesced at the
    // connection layer or answered from the cache, never recompiled.
    assert_eq!(stats.cache.hits + stats.coalesced_hits, 7);
    client.shutdown().unwrap();
    join.join().unwrap();
}

/// Function-granular incremental recompilation through the daemon: an
/// edit to one function body is an artifact-cache *miss* (different
/// source text) but a snapshot *hit*, so exactly one function is
/// re-optimized — and the artifact is byte-identical to a cold
/// whole-program compile of the edited source.
#[test]
fn one_function_edit_reoptimizes_exactly_one_function() {
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let (_, source) = sources().remove(2); // treesum.ec: 5 functions

    let (_, cached) = compile_ir(&mut client, &source);
    assert!(!cached);
    let cold = client.stats().unwrap();
    assert!(
        cold.functions_reoptimized >= 2,
        "cold compile optimizes every function"
    );
    assert_eq!(cold.functions_reused, 0, "nothing to reuse cold");

    // Edit exactly one function body (build: a leaf computation; the
    // heap effect summary is unchanged, so nothing escalates).
    let edited = source.replace("t->v = depth;", "t->v = depth + depth;");
    assert_ne!(edited, source, "edit must apply");
    let (ir_warm, cached) = compile_ir(&mut client, &edited);
    assert!(!cached, "edited source is a new TU key");
    let warm = client.stats().unwrap();
    assert_eq!(
        warm.functions_reoptimized - cold.functions_reoptimized,
        1,
        "a one-function edit re-optimizes exactly one function"
    );
    assert_eq!(
        warm.functions_reused,
        cold.functions_reoptimized - 1,
        "every other function splices from the snapshot"
    );
    assert_eq!(warm.escalations, 0, "the edit leaves summaries unchanged");
    assert_eq!(
        ir_warm,
        reference_ir(&edited),
        "incremental artifact must be byte-identical to a cold compile"
    );

    client.shutdown().unwrap();
    join.join().unwrap();
}

/// Satellite of the incremental story: snapshots survive a daemon
/// restart. With `--spill DIR` the backend persists the *inputs* of
/// every incremental snapshot; a restarted daemon replays them on boot
/// (the pipeline is deterministic, so replay reproduces the snapshot
/// bit-for-bit). A one-function edit submitted to the fresh daemon then
/// re-optimizes exactly one function — the other functions splice from
/// the restored snapshot even though the process has no memory of the
/// original compile.
#[test]
fn snapshots_survive_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("earthd-test-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start_spilled = |dir: &std::path::Path| {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            PipelineBackend::with_spill(dir),
        )
        .unwrap();
        let addr = server.local_addr();
        let join = std::thread::spawn(move || server.run());
        (addr, join)
    };

    // First daemon: cold-compile treesum, then shut down cleanly.
    let (addr, join) = start_spilled(&dir);
    let mut client = Client::connect(addr).unwrap();
    let (_, source) = sources().remove(2); // treesum.ec: 5 functions
    let (_, cached) = compile_ir(&mut client, &source);
    assert!(!cached);
    let cold = client.stats().unwrap();
    assert!(cold.functions_reoptimized >= 2);
    client.shutdown().unwrap();
    join.join().unwrap();

    // Second daemon, same spill dir, no memory of the first process.
    let (addr, join) = start_spilled(&dir);
    let mut client = Client::connect(addr).unwrap();
    let edited = source.replace("t->v = depth;", "t->v = depth + depth;");
    assert_ne!(edited, source, "edit must apply");
    let (ir_warm, cached) = compile_ir(&mut client, &edited);
    assert!(!cached, "edited source is a new TU key");
    let warm = client.stats().unwrap();
    assert_eq!(
        warm.functions_reoptimized, 1,
        "after a restart, a one-function edit re-optimizes exactly one function"
    );
    assert_eq!(
        warm.functions_reused,
        cold.functions_reoptimized - 1,
        "every other function splices from the restored snapshot"
    );
    assert_eq!(
        ir_warm,
        reference_ir(&edited),
        "restored-snapshot artifact must be byte-identical to a cold compile"
    );

    client.shutdown().unwrap();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_and_pgo_flow_through_the_daemon() {
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let (_, source) = sources().remove(0); // count.ec: main(n) counts a list

    match client
        .run(
            &source,
            CompileOptions::default(),
            "main",
            2,
            vec![Arg::Int(5)],
        )
        .unwrap()
    {
        Response::Run { ret, cached, .. } => {
            assert_eq!(ret, "1");
            assert!(!cached, "first request compiles");
        }
        other => panic!("{other:?}"),
    }

    // PGO: measure, then a profile-guided compile keys on the profile.
    let profiled = CompileOptions {
        use_profile: true,
        ..CompileOptions::default()
    };
    let (_, cached) = match client.compile(&source, profiled.clone()).unwrap() {
        Response::Compile { ir, cached, .. } => (ir, cached),
        other => panic!("{other:?}"),
    };
    assert!(!cached);
    match client.pgo(&source, "main", 2, vec![Arg::Int(5)]).unwrap() {
        Response::Pgo {
            sites,
            merged_sites,
            ..
        } => {
            assert!(sites > 0, "instrumented run must record sites");
            assert_eq!(sites, merged_sites, "first merge");
        }
        other => panic!("{other:?}"),
    }
    // The profile changed, so a profile-guided compile re-keys (miss),
    // while the profile-independent artifact still hits. Its report
    // carries the PGO accounting of the one `optimize` pass, exactly as a
    // direct profile-guided compile (`earthcc run --profile-in`) reports
    // it.
    let report = match client.compile(&source, profiled).unwrap() {
        Response::Compile { cached, report, .. } => {
            assert!(!cached);
            report
        }
        other => panic!("{other:?}"),
    };
    let (_, measured) = earthc::Pipeline::new()
        .nodes(2)
        .instrument_source(&source, &[earthc::Value::Int(5)])
        .unwrap();
    let direct = earthc::Pipeline::new()
        .profile(Some(std::sync::Arc::new(earthc::ProfileDb::new(measured))))
        .apply_passes(&mut earthc::compile_earth_c(&source).unwrap())
        .unwrap();
    let direct = direct.pass("optimize").expect("optimize ran");
    let served = json::parse(&report).unwrap();
    let served = served.as_object("report").unwrap();
    let served = served
        .get_array("passes")
        .unwrap()
        .iter()
        .map(|p| p.as_object("pass").unwrap())
        .find(|p| p.get_str("name").unwrap() == "optimize")
        .expect("the daemon ran the same `optimize` pass");
    let served = served.field("counters").unwrap();
    let served = served.as_object("counters").unwrap();
    for counter in ["sites_instrumented", "sites_matched", "decisions_flipped"] {
        assert_eq!(
            served.get_u64(counter).ok(),
            direct.get_counter(counter),
            "{counter} in {report}"
        );
    }
    assert!(served.get_u64("sites_matched").unwrap() > 0, "{report}");
    match client.compile(&source, CompileOptions::default()).unwrap() {
        Response::Compile { cached, .. } => assert!(cached),
        other => panic!("{other:?}"),
    }

    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn daemon_survives_bad_programs() {
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // A frontend error must come back as a server error, not kill the
    // daemon or poison the cache.
    assert!(client
        .compile("int main( {", CompileOptions::default())
        .is_err());
    let (_, source) = sources().remove(0);
    let (_, cached) = compile_ir(&mut client, &source);
    assert!(!cached);
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.cache.misses, 2, "failed compile counts as a miss");
    assert_eq!(stats.cache.entries, 1, "failed compile caches nothing");
    client.shutdown().unwrap();
    join.join().unwrap();
}

/// ROADMAP's first hostile input: 20,000 nested parentheses in one
/// `compile` request used to overflow the worker's stack and take the
/// whole daemon with it. Now it is a positioned `FE003` answer like any
/// other frontend error, and the daemon keeps serving.
#[test]
fn daemon_answers_hostile_nesting_and_keeps_serving() {
    use earthc::earth_serve::client::ClientError;
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let n = 20_000;
    for hostile in [
        format!(
            "int main() {{ return {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("int main() {{ {} return 1; }}", "if (1) ".repeat(n)),
        format!("int main() {{ return 1{}; }}", "+1".repeat(n)),
    ] {
        match client.compile(&hostile, CompileOptions::default()) {
            Err(ClientError::Server { error, .. }) => {
                assert!(
                    error.contains("parse error at 1:") && error.contains("FE003 nesting too deep"),
                    "{error}"
                );
            }
            other => panic!("expected an FE003 answer, got {other:?}"),
        }
        client.ping().expect("the daemon still answers ping");
    }
    let (_, source) = sources().remove(0);
    let (ir, _) = compile_ir(&mut client, &source);
    assert_eq!(ir, reference_ir(&source));
    client.shutdown().unwrap();
    join.join().unwrap();
}

/// A `run` asking for zero nodes is a malformed request: the daemon
/// answers it with an error, and its only worker is still there to
/// answer the next request. The client reads under a timeout, so a
/// daemon that never answers fails the test instead of hanging it.
#[test]
fn zero_nodes_is_an_error_answer_and_the_worker_survives() {
    use earthc::earth_serve::proto::{Request, RequestKind};
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::time::Duration;
    let (addr, _handle, join) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let (_, source) = sources().remove(0); // count.ec: main(n) counts a list
    let mut ask = |id: u64, nodes: u16| {
        let kind = RequestKind::Run {
            source: source.clone(),
            opts: CompileOptions::default(),
            entry: "main".into(),
            nodes,
            args: vec![Arg::Int(5)],
        };
        let request = Request {
            id,
            deadline_ms: None,
            fwd: false,
            kind,
        };
        writeln!(writer, "{}", request.to_json()).unwrap();
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("no answer to request {id}: {e}"));
        Response::from_json(line.trim_end()).unwrap()
    };
    match ask(1, 0) {
        Response::Error { error, .. } => {
            assert!(error.contains("`nodes` must be at least 1"), "{error}")
        }
        other => panic!("expected an error answer, got {other:?}"),
    }
    match ask(2, 2) {
        Response::Run { ret, .. } => assert_eq!(ret, "1"),
        other => panic!("expected a run answer, got {other:?}"),
    }
    Client::connect(addr).unwrap().shutdown().unwrap();
    join.join().unwrap();
}
