//! End-to-end tests of the daemon over real TCP with a mock backend:
//! protocol round trips, cache single-flight under concurrency,
//! backpressure rejection, queued-deadline misses, profile
//! invalidation, and graceful shutdown.

use earth_serve::client::{Client, ClientError};
use earth_serve::hash::Fnv1a;
use earth_serve::proto::{Arg, CompileOptions, Response};
use earth_serve::server::{Server, ServerConfig, ServerHandle};
use earth_serve::{Artifact, Backend, CompileOutput, LintOutput, PgoOutput, RunOutput};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// A backend that "compiles" by reversing the source, slowly enough to
/// observe queueing. Counts compiles so tests can assert single-flight.
struct MockBackend {
    compiles: AtomicU64,
    compile_delay: Duration,
    profile_epoch: AtomicU64,
}

impl MockBackend {
    fn new(compile_delay: Duration) -> Self {
        MockBackend {
            compiles: AtomicU64::new(0),
            compile_delay,
            profile_epoch: AtomicU64::new(0),
        }
    }
}

impl Backend for MockBackend {
    type Exec = String;

    fn toolchain(&self) -> String {
        "mock/1".into()
    }

    fn cache_key(&self, source: &str, opts: &CompileOptions) -> u64 {
        let mut h = Fnv1a::new();
        h.str_field(source).field(&[
            opts.optimize as u8,
            opts.locality as u8,
            opts.use_profile as u8,
        ]);
        if opts.use_profile {
            h.field(&self.profile_epoch.load(Ordering::SeqCst).to_le_bytes());
        }
        h.finish()
    }

    fn cache_tag(&self, opts: &CompileOptions) -> u64 {
        if opts.use_profile {
            self.profile_epoch.load(Ordering::SeqCst) + 1
        } else {
            0
        }
    }

    fn compile(
        &self,
        source: &str,
        opts: &CompileOptions,
    ) -> Result<CompileOutput<String>, String> {
        if source.contains("#error") {
            return Err("mock: deliberate compile failure".into());
        }
        self.compiles.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.compile_delay);
        let ir: String = source.chars().rev().collect();
        Ok(CompileOutput {
            artifact: Artifact {
                source: source.to_string(),
                opts: opts.clone(),
                ir: ir.clone(),
                report: "{\"passes\":[]}".into(),
                exec: Some(ir),
            },
            timings: vec![("mock-pass".into(), 1_000)],
            analyses: 1,
            functions_reused: 0,
            functions_reoptimized: 1,
            escalations: 0,
        })
    }

    fn run(
        &self,
        artifact: &Artifact<String>,
        entry: &str,
        nodes: u16,
        args: &[Arg],
    ) -> Result<RunOutput, String> {
        let exec = artifact
            .exec
            .clone()
            .unwrap_or_else(|| artifact.source.chars().rev().collect());
        Ok(RunOutput {
            ret: format!("{entry}:{nodes}:{}", args.len()),
            time_ns: 42,
            stats: "mock".into(),
            output: vec![exec],
        })
    }

    fn pgo(&self, _: &str, _: &str, _: u16, _: &[Arg]) -> Result<PgoOutput, String> {
        let epoch = self.profile_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(PgoOutput {
            sites: 3,
            merged_sites: 3 * epoch,
            ret: "0".into(),
        })
    }

    fn lint(&self, source: &str) -> Result<LintOutput, String> {
        Ok(LintOutput {
            independent: !source.contains("dep"),
            diagnostics: "[]".into(),
        })
    }
}

fn start(
    config: ServerConfig,
    backend: MockBackend,
) -> (SocketAddr, ServerHandle<MockBackend>, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config, backend).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

#[test]
fn compile_run_lint_round_trip() {
    let (addr, handle, join) = start(ServerConfig::default(), MockBackend::new(Duration::ZERO));
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    match client.compile("abc", CompileOptions::default()).unwrap() {
        Response::Compile { cached, ir, .. } => {
            assert!(!cached);
            assert_eq!(ir, "cba");
        }
        other => panic!("{other:?}"),
    }
    match client.compile("abc", CompileOptions::default()).unwrap() {
        Response::Compile { cached, ir, .. } => {
            assert!(cached, "second identical compile must hit the cache");
            assert_eq!(ir, "cba");
        }
        other => panic!("{other:?}"),
    }
    match client
        .run(
            "abc",
            CompileOptions::default(),
            "main",
            4,
            vec![Arg::Int(7)],
        )
        .unwrap()
    {
        Response::Run {
            cached,
            ret,
            output,
            ..
        } => {
            assert!(cached);
            assert_eq!(ret, "main:4:1");
            assert_eq!(output, vec!["cba".to_string()]);
        }
        other => panic!("{other:?}"),
    }
    match client.lint("no deps here... actually dep").unwrap() {
        Response::Lint { independent, .. } => assert!(!independent),
        other => panic!("{other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.endpoint("compile"), 2);
    assert_eq!(stats.endpoint("run"), 1);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.analyses, 1, "cache hits must add zero analyses");
    assert!(stats
        .pass_walls
        .iter()
        .any(|(k, h)| k == "mock-pass" && h.count == 1));

    // Compile errors surface as single-line server errors.
    match client.compile("#error", CompileOptions::default()) {
        Err(ClientError::Server { error }) => assert!(error.contains("deliberate")),
        other => panic!("{other:?}"),
    }

    client.shutdown().unwrap();
    drop(handle);
    join.join().unwrap();
}

#[test]
fn concurrent_clients_single_flight() {
    let (addr, _handle, join) = start(
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
        MockBackend::new(Duration::from_millis(40)),
    );
    let irs: Vec<String> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                match client
                    .compile("popular", CompileOptions::default())
                    .unwrap()
                {
                    Response::Compile { ir, .. } => ir,
                    other => panic!("{other:?}"),
                }
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for ir in &irs {
        assert_eq!(ir, "ralupop", "all clients must see identical artifacts");
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache.misses, 1,
        "popular key must compile exactly once"
    );
    // The other 7 stampeders are answered without a second compile:
    // either coalesced onto the in-flight job at the connection layer
    // or served from the cache, depending on arrival timing.
    assert_eq!(
        stats.cache.hits + stats.coalesced_hits,
        7,
        "stampeders must all ride the single compile"
    );
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn full_queue_rejects_with_retry_hint() {
    let (addr, _handle, join) = start(
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        MockBackend::new(Duration::from_millis(150)),
    );
    // Saturate: one job running, one queued, then a burst of distinct
    // sources from parallel connections until one is rejected.
    let threads: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.max_retries = 1; // surface the rejection
                client.compile(&format!("source-{i}"), CompileOptions::default())
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(ClientError::Server { error }) if error.contains("queue full")))
        .count();
    assert!(rejected > 0, "expected at least one backpressure rejection");
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected as usize, rejected);
    assert_eq!(stats.queue_capacity, 1);

    // With retries enabled the same request eventually succeeds.
    let mut retrying = Client::connect(addr).unwrap();
    retrying.max_retries = 50;
    match retrying
        .compile("source-0", CompileOptions::default())
        .unwrap()
    {
        Response::Compile { ir, .. } => assert_eq!(ir, "0-ecruos"),
        other => panic!("{other:?}"),
    }
    retrying.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn queued_deadline_is_honored() {
    let (addr, _handle, join) = start(
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
        MockBackend::new(Duration::from_millis(120)),
    );
    // Occupy the worker so the deadline request waits in the queue.
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.compile("slow", CompileOptions::default()).unwrap();
    });
    std::thread::sleep(Duration::from_millis(20));
    let mut client = Client::connect(addr).unwrap();
    client.deadline_ms = Some(1);
    match client.compile("impatient", CompileOptions::default()) {
        Err(ClientError::Server { error }) => assert!(error.contains("deadline")),
        other => panic!("{other:?}"),
    }
    blocker.join().unwrap();
    client.deadline_ms = None;
    let stats = client.stats().unwrap();
    assert_eq!(stats.deadline_misses, 1);
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn pgo_bumps_profile_epoch_and_invalidates() {
    let (addr, _handle, join) = start(ServerConfig::default(), MockBackend::new(Duration::ZERO));
    let mut client = Client::connect(addr).unwrap();
    let profiled = CompileOptions {
        use_profile: true,
        ..CompileOptions::default()
    };
    client.compile("prog", profiled.clone()).unwrap();
    client.compile("other", CompileOptions::default()).unwrap();
    match client.pgo("prog", "main", 2, vec![]).unwrap() {
        Response::Pgo {
            invalidated,
            sites,
            merged_sites,
            ..
        } => {
            assert_eq!(invalidated, 1, "only the profile-tagged artifact drops");
            assert_eq!((sites, merged_sites), (3, 3));
        }
        other => panic!("{other:?}"),
    }
    // Profile changed, so the profiled compile misses; the plain one
    // still hits.
    match client.compile("prog", profiled).unwrap() {
        Response::Compile { cached, .. } => assert!(!cached),
        other => panic!("{other:?}"),
    }
    match client.compile("other", CompileOptions::default()).unwrap() {
        Response::Compile { cached, .. } => assert!(cached),
        other => panic!("{other:?}"),
    }
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn spill_restores_after_eviction() {
    let dir = std::env::temp_dir().join(format!("earthd-test-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, _handle, join) = start(
        ServerConfig {
            cache_capacity: 1,
            spill_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
        MockBackend::new(Duration::ZERO),
    );
    let mut client = Client::connect(addr).unwrap();
    client.compile("first", CompileOptions::default()).unwrap();
    client.compile("second", CompileOptions::default()).unwrap(); // evicts "first" to disk
    match client.compile("first", CompileOptions::default()).unwrap() {
        Response::Compile { cached, ir, .. } => {
            assert!(
                cached,
                "spill restore must serve compile without recompiling"
            );
            assert_eq!(ir, "tsrif");
        }
        other => panic!("{other:?}"),
    }
    // A run on the spill-restored artifact recompiles internally
    // (exec was not persisted) but still answers correctly.
    match client
        .run("second", CompileOptions::default(), "main", 1, vec![])
        .unwrap()
    {
        Response::Run { output, .. } => assert_eq!(output, vec!["dnoces".to_string()]),
        other => panic!("{other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.cache.spill_writes >= 1);
    assert!(stats.cache.spill_hits >= 1);
    assert_eq!(stats.cache.misses, 2, "spill restores must not recompile");
    client.shutdown().unwrap();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handle_shutdown_stops_the_daemon() {
    let (addr, handle, join) = start(ServerConfig::default(), MockBackend::new(Duration::ZERO));
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    handle.shutdown();
    join.join().unwrap();
    // New requests on the old connection now fail.
    assert!(client.ping().is_err());
}

#[test]
fn malformed_lines_get_an_error_response() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, _handle, join) = start(ServerConfig::default(), MockBackend::new(Duration::ZERO));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::from_json(line.trim_end()).unwrap() {
        Response::Error { id, error, .. } => {
            assert_eq!(id, 0);
            assert!(error.contains("bad request"));
        }
        other => panic!("{other:?}"),
    }
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().errors, 1);
    client.shutdown().unwrap();
    join.join().unwrap();
}

/// A 4 MB request dribbled in 1 KB writes while another client keeps
/// asking: framing and decoding are linear, so the event loop answers
/// both in time (either one quadratic holds the loop for minutes).
#[test]
fn a_large_request_in_small_writes_is_answered() {
    use earth_serve::proto::{Request, RequestKind};
    use std::io::{BufRead, BufReader, Write};
    let (addr, _handle, join) = start(ServerConfig::default(), MockBackend::new(Duration::ZERO));
    let source = "int f() { return \"é\"; }\n".repeat((4 << 20) / 25);
    let line = Request {
        id: 9,
        deadline_ms: None,
        fwd: false,
        kind: RequestKind::Lint { source },
    }
    .to_json();
    assert!(line.len() > 4 << 20);
    let started = std::time::Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut other = Client::connect(addr).unwrap();
    for (i, piece) in line.as_bytes().chunks(1024).enumerate() {
        stream.write_all(piece).unwrap();
        if i % 512 == 0 {
            other.ping().unwrap();
        }
    }
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    match Response::from_json(reply.trim_end()).unwrap() {
        Response::Lint {
            id, independent, ..
        } => assert!(id == 9 && independent),
        other => panic!("{other:?}"),
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "took {took:?}");
    other.shutdown().unwrap();
    join.join().unwrap();
}

/// A client that streams 1 MiB past the 16 MiB line cap without a
/// newline gets one error and then end of stream, while another client's
/// pings are answered throughout; once it hangs up, the connection count
/// is back where it started.
#[test]
fn an_overlong_line_is_refused_and_its_connection_closed() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (addr, _handle, join) = start(ServerConfig::default(), MockBackend::new(Duration::ZERO));
    let mut other = Client::connect(addr).unwrap();
    other.ping().unwrap();
    let baseline = other.stats().unwrap().open_connections;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let piece = [b'x'; 64 << 10];
    for i in 0..((16 << 20) + (1 << 20)) / piece.len() {
        stream.write_all(&piece).unwrap();
        if i % 32 == 0 {
            other.ping().unwrap();
        }
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::from_json(reply.trim_end()).unwrap() {
        Response::Error { id, error, .. } => {
            assert_eq!(id, 0);
            assert!(error.contains("line longer than"), "{error}");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(reader.read(&mut [0; 1]).unwrap(), 0, "end of stream");
    drop(reader);
    let started = std::time::Instant::now();
    while other.stats().unwrap().open_connections != baseline {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "connection not closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(other.stats().unwrap().errors, 1);
    other.shutdown().unwrap();
    join.join().unwrap();
}
