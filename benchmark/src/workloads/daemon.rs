//! `daemon_warm` and `daemon_churn`: a closed loop of one client on one
//! connection over an in-process `earthd` with a one-worker pool.
//!
//! `daemon_warm`: one op is six `compile` and six `run` requests, every
//! artifact resident. The serving layer (codec, cache read, queue, net)
//! does nearly all the work, the compiler none.
//!
//! `daemon_churn`: the same server with room for eight artifacts; one op
//! is twelve `compile` requests, two one-function edits of each kernel,
//! over and over, so every request is an artifact miss, an eviction and a
//! snapshot hit. The writes beside `daemon_warm`'s reads, and the only
//! workload through the incremental optimizer, the fingerprints and the
//! snapshot store.

use super::{med, Clock, Ready, Workload};
use crate::check::{accept_run, sequential, simple_baseline, Exact, Expected, Reference, SimRow};
use crate::corpus::{self, dirties_one_function, kernels, one_function_edits, Mode, Source, NODES};
use crate::measure::{percentile, Rng, Spinner};
use crate::metrics::Layers;
use crate::trace::{OpTrace, Tracer};
use earthc::earth_analysis::{analyze, infer_locality};
use earthc::earth_commopt::{
    optimize_program_incremental, optimize_program_snapshot, CommOptConfig, PipelineSnapshot,
};
use earthc::earth_ir::{fingerprint::program_fingerprints, json};
use earthc::earth_olden::Preset;
use earthc::earth_serve::cache::{ArtifactCache, Lookup};
use earthc::earth_serve::client::Client;
use earthc::earth_serve::proto::{Arg, CompileOptions, Request, RequestKind, Response};
use earthc::earth_serve::server::{Server, ServerConfig};
use earthc::earth_serve::stats::ServerStats;
use earthc::earth_serve::{Artifact, Backend};
use earthc::earth_sim::RunResult;
use earthc::serve::{ExecArtifact, PipelineBackend};
use earthc::Value;
use std::sync::Arc;
use std::thread::JoinHandle;

/// `daemon_churn`'s artifact-cache capacity: fewer than the twelve
/// variants, so that under LRU none survives until its next request.
const CHURN_CAPACITY: usize = 8;

/// What the daemon must answer, established in-process by the set-up.
enum Expect {
    Compile {
        ir: String,
        cached: bool,
    },
    Run {
        ret: String,
        time_ns: u64,
        stats: String,
        output: Vec<String>,
    },
}

struct Exchange {
    kind: RequestKind,
    expect: Expect,
    /// Index into the probe kit's per-program state.
    program: usize,
}

impl Exchange {
    fn matches(&self, resp: &Response) -> bool {
        match (&self.expect, resp) {
            (
                Expect::Compile { ir, cached },
                Response::Compile {
                    ir: got, cached: c, ..
                },
            ) => ir == got && cached == c,
            (
                Expect::Run {
                    ret,
                    time_ns,
                    stats,
                    output,
                },
                Response::Run {
                    ret: r,
                    time_ns: t,
                    stats: s,
                    output: o,
                    cached,
                    ..
                },
            ) => *cached && ret == r && time_ns == t && stats == s && output == o,
            _ => false,
        }
    }
}

/// Private instances of the serving layer's parts, for the probes: the
/// daemon's own are behind the socket.
struct ProbeKit {
    backend: PipelineBackend,
    cache: ArtifactCache<Artifact<ExecArtifact>>,
    /// Per program: its resident artifact and its cache key.
    artifacts: Vec<(Arc<Artifact<ExecArtifact>>, u64)>,
    /// Per program: the optimizer snapshot of its unedited text.
    snapshots: Vec<PipelineSnapshot>,
}

/// The server on its thread, the one client, and what keeps the CPU
/// awake between the two.
struct Started {
    server: JoinHandle<()>,
    client: Client,
    /// `None` where the kernel refuses idle priority: the run goes on,
    /// its CPU times as unsteady as the machine's idle CPUs make them.
    spinner: Option<Spinner>,
}

struct Daemon {
    churn: bool,
    started: Started,
    /// The programs the server was primed with (unedited kernels).
    primed: Vec<Source>,
    /// The twelve requests of an op, with what each must be answered.
    exchanges: Vec<Exchange>,
    /// What the op just received, kept for the probes of a traced op.
    last: Vec<(usize, Response)>,
    ops: u64,
    baseline: ServerStats,
    kit: Option<ProbeKit>,
    exact: Exact,
}

fn to_args(values: &[Value]) -> Result<Vec<Arg>, String> {
    values
        .iter()
        .map(|v| match v {
            Value::Int(n) => Ok(Arg::Int(*n)),
            Value::Double(x) => Ok(Arg::Double(*x)),
            other => Err(format!("`{other}` cannot be sent as an argument")),
        })
        .collect()
}

fn compile_request(text: &str) -> RequestKind {
    RequestKind::Compile {
        source: text.to_string(),
        opts: CompileOptions::default(),
    }
}

/// Binds the server on an OS-chosen port, runs it on its own thread and
/// connects the one client.
fn start(cache_capacity: usize) -> Result<Started, String> {
    // An op is 48 hand-offs between client, event loop and worker, all
    // asleep in between: the spinner keeps the CPU from halting there.
    let spinner = Spinner::start()
        .map_err(|e| eprintln!("no spinner, CPU times will follow the machine's idling: {e}"))
        .ok();
    let config = ServerConfig {
        workers: 1,
        cache_capacity,
        idle_timeout_ms: None,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, PipelineBackend::new())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    Ok(Started {
        server: join,
        client,
        spinner,
    })
}

/// Accepts one program the way every workload does — reference by the
/// independent engine, in-process `static` compile, native and
/// interpreter run — and returns the IR and the run the daemon must
/// answer with.
fn accept_program(
    src: &Source,
    label: &str,
    reference: &Reference,
    problems: &mut Vec<String>,
) -> Result<(String, RunResult), String> {
    let c = corpus::build(src, Mode::Static)?;
    let run = accept_run(label, &c, &src.args, reference, problems)
        .map_err(|e| format!("{label}: {e}"))?;
    Ok((c.ir, run))
}

pub fn setup_warm(seed: u64) -> Result<Ready, String> {
    build_warm(seed).map(ready)
}

pub fn setup_churn(seed: u64) -> Result<Ready, String> {
    build_churn(seed).map(ready)
}

fn ready((daemon, problems): (Daemon, Vec<String>)) -> Ready {
    Ready {
        workload: Box::new(daemon),
        problems,
    }
}

fn build_warm(seed: u64) -> Result<(Daemon, Vec<String>), String> {
    let expected = Expected::load()?;
    let mut problems = Vec::new();
    let mut rows = Vec::new();
    let primed = kernels(Preset::Test);
    let mut started = start(ServerConfig::default().cache_capacity)?;
    let mut exchanges = Vec::new();
    for (i, src) in primed.iter().enumerate() {
        let reference = expected.reference(src, &mut problems)?;
        let (ir, run) = accept_program(src, &src.key(), &reference, &mut problems)?;
        rows.push(SimRow::new(src, Mode::Static, &run, true));
        rows.push(simple_baseline(src)?);
        let kind = compile_request(&src.text);
        // Priming is the one miss of each artifact; its answer is checked too.
        let resp = started
            .client
            .request(kind.clone())
            .map_err(|e| format!("{}: {e}", src.key()))?;
        if !matches!(&resp, Response::Compile { ir: got, cached: false, .. } if *got == ir) {
            problems.push(format!(
                "{}: the priming compile differs from the in-process one",
                src.key()
            ));
        }
        exchanges.push(Exchange {
            kind,
            expect: Expect::Compile { ir, cached: true },
            program: i,
        });
        exchanges.push(Exchange {
            kind: RequestKind::Run {
                source: src.text.clone(),
                opts: CompileOptions::default(),
                entry: "main".into(),
                nodes: NODES,
                args: to_args(&src.args)?,
            },
            expect: Expect::Run {
                ret: run.ret.to_string(),
                time_ns: run.time_ns,
                stats: run.stats.to_string(),
                output: run.output,
            },
            program: i,
        });
    }
    Rng::new(seed).shuffle(&mut exchanges);
    finish_setup(false, started, primed, exchanges, &rows, problems)
}

fn build_churn(seed: u64) -> Result<(Daemon, Vec<String>), String> {
    let expected = Expected::load()?;
    let mut problems = Vec::new();
    let mut rows = Vec::new();
    let mut rng = Rng::new(seed);
    let primed = kernels(Preset::Test);
    let mut started = start(CHURN_CAPACITY)?;
    let mut exchanges = Vec::new();
    for (i, src) in primed.iter().enumerate() {
        // The exact metrics are those of the unedited kernels: which
        // literal the seed edits must not move them.
        let reference = expected.reference(src, &mut problems)?;
        let (_, run) = accept_program(src, &src.key(), &reference, &mut problems)?;
        rows.push(SimRow::new(src, Mode::Static, &run, true));
        rows.push(simple_baseline(src)?);
        // An edit may neither send the program into a loop nor change how
        // much it computes and allocates (a literal that is a tree depth
        // doubles both): each variant must finish within half as many
        // operations again as the unedited run, so that the set-up costs
        // the same time and memory whichever literal the seed draws.
        let budget = run.stats.ops + run.stats.ops / 2;
        let variants = one_function_edits(&src.text, &mut rng, |v| {
            dirties_one_function(&src.text, v) && sequential(v, &src.args, budget).is_ok()
        })
        .ok_or_else(|| format!("{}: no integer literal makes a one-function edit", src.name))?;
        // The unedited compile leaves the snapshot every edit is answered from.
        started
            .client
            .request(compile_request(&src.text))
            .map_err(|e| format!("{}: {e}", src.key()))?;
        for (k, text) in variants.into_iter().enumerate() {
            let variant = Source {
                text,
                ..src.clone()
            };
            let label = format!("{} edit {}", src.key(), k + 1);
            // Not in `expected.json`: the independent engine alone vouches
            // for an edited program.
            let reference = sequential(&variant.text, &variant.args, u64::MAX)
                .map_err(|e| format!("{label}: {e}"))?;
            let (ir, _) = accept_program(&variant, &label, &reference, &mut problems)?;
            exchanges.push(Exchange {
                kind: compile_request(&variant.text),
                expect: Expect::Compile { ir, cached: false },
                program: i,
            });
        }
    }
    rng.shuffle(&mut exchanges);
    finish_setup(true, started, primed, exchanges, &rows, problems)
}

fn finish_setup(
    churn: bool,
    mut started: Started,
    primed: Vec<Source>,
    exchanges: Vec<Exchange>,
    rows: &[SimRow],
    problems: Vec<String>,
) -> Result<(Daemon, Vec<String>), String> {
    let baseline = started.client.stats().map_err(|e| format!("stats: {e}"))?;
    let daemon = Daemon {
        churn,
        started,
        primed,
        exchanges,
        last: Vec::new(),
        ops: 0,
        baseline,
        kit: None,
        exact: Exact::of(rows)?,
    };
    Ok((daemon, problems))
}

impl Daemon {
    /// Builds the private serving-layer parts on the first traced op.
    fn kit(&mut self) -> Result<&mut ProbeKit, String> {
        if self.kit.is_none() {
            let backend = PipelineBackend::new();
            let cache = ArtifactCache::new(ServerConfig::default().cache_capacity, None);
            let opts = CompileOptions::default();
            let mut artifacts = Vec::new();
            let mut snapshots = Vec::new();
            for src in &self.primed {
                // Also leaves the backend's own snapshot of the program.
                let artifact = Arc::new(backend.compile(&src.text, &opts)?.artifact);
                let key = backend.cache_key(&src.text, &opts);
                if let Lookup::Miss(guard) = cache.lookup(key) {
                    guard.fulfill(Arc::clone(&artifact), 0);
                }
                artifacts.push((artifact, key));
                let mut prog = earthc::compile_earth_c(&src.text).map_err(|e| e.to_string())?;
                infer_locality(&mut prog);
                let analysis = analyze(&prog);
                let cfg = CommOptConfig::default();
                snapshots.push(optimize_program_snapshot(&mut prog, &cfg, 1, &analysis).1);
            }
            self.kit = Some(ProbeKit {
                backend,
                cache,
                artifacts,
                snapshots,
            });
        }
        Ok(self.kit.as_mut().expect("just built"))
    }
}

impl Workload for Daemon {
    fn clock(&self) -> Clock {
        Clock::Cpu
    }

    fn spinner_tid(&self) -> Option<u32> {
        self.started.spinner.as_ref().map(Spinner::tid)
    }

    fn op(&mut self, t: &mut Tracer) -> Result<usize, String> {
        let root = t.enter("op", "");
        self.last.clear();
        for i in 0..self.exchanges.len() {
            let kind = self.exchanges[i].kind.clone();
            let client = &mut self.started.client;
            let resp = t
                .span("serve.rtt", "", || client.request(kind))
                .map_err(|e| format!("request {i}: {e}"))?;
            self.last.push((i, resp));
        }
        t.exit(root);
        self.ops += 1;
        Ok(self
            .last
            .iter()
            .filter(|(i, resp)| !self.exchanges[*i].matches(resp))
            .count())
    }

    /// The op's real frames through the four codecs, and the work behind
    /// each request on private instances of the cache and the backend.
    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        let churn = self.churn;
        let last = std::mem::take(&mut self.last);
        for (i, resp) in &last {
            let program = self.exchanges[*i].program;
            let kind = self.exchanges[*i].kind.clone();
            let kit = self.kit()?;
            let (RequestKind::Compile { source, opts } | RequestKind::Run { source, opts, .. }) =
                &kind
            else {
                unreachable!("the workloads send only compile and run");
            };
            let req = Request {
                id: 1,
                deadline_ms: None,
                fwd: false,
                kind: kind.clone(),
            };
            let req_line = t.probe("serve.req_encode", || req.to_json());
            t.probe("serve.req_decode", || Request::from_json(&req_line))
                .map_err(|e| e.to_string())?;
            let resp_line = t.probe("serve.resp_encode", || resp.to_json());
            t.probe("serve.resp_decode", || Response::from_json(&resp_line))
                .map_err(|e| e.to_string())?;
            // The generic JSON reader's share of the two decodes above.
            t.probe("ir.json_parse", || {
                json::parse(&req_line).and(json::parse(&resp_line))
            })
            .map_err(|e| e.to_string())?;
            t.count(
                "serve.frame_bytes",
                "",
                (req_line.len() + resp_line.len() + 2) as f64,
            );
            t.probe("serve.cache_key", || kit.backend.cache_key(source, opts));
            if churn {
                t.probe("serve.backend_compile", || {
                    kit.backend.compile(source, opts)
                })?;
                let mut prog = earthc::compile_earth_c(source).map_err(|e| e.to_string())?;
                infer_locality(&mut prog);
                t.probe("ir.fingerprint", || program_fingerprints(&prog));
                let snapshot = &kit.snapshots[program];
                t.probe("commopt.incremental", || {
                    optimize_program_incremental(&mut prog, &CommOptConfig::default(), 1, snapshot)
                })
                .map_err(|e| format!("the snapshot does not apply: {}", e.as_str()))?;
            } else {
                let (artifact, key) = &kit.artifacts[program];
                t.probe("serve.cache_lookup", || match kit.cache.lookup(*key) {
                    Lookup::Hit(a) => Ok(a),
                    _ => Err("the probe cache lost its artifact"),
                })?;
                if let RequestKind::Run {
                    entry, nodes, args, ..
                } = &kind
                {
                    t.probe("serve.backend_run", || {
                        kit.backend.run(artifact, entry, *nodes, args)
                    })?;
                }
            }
        }
        Ok(())
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn layers(&mut self, ops: &[OpTrace], out: &mut Layers) -> Result<(), String> {
        const BEHIND_THE_SOCKET: [&str; 8] = [
            "serve.req_encode",
            "serve.req_decode",
            "serve.resp_encode",
            "serve.resp_decode",
            "serve.cache_key",
            "serve.cache_lookup",
            "serve.backend_run",
            "serve.backend_compile",
        ];
        for name in BEHIND_THE_SOCKET.iter().chain(&[
            "ir.json_parse",
            "commopt.incremental",
            "ir.fingerprint",
        ]) {
            out.set(&format!("{name}_ms"), med(ops, |o| o.probe(name)));
        }
        out.set(
            "serve.frame_bytes",
            med(ops, |o| o.count("serve.frame_bytes")),
        );
        let residual = |o: &OpTrace| {
            o.total("serve.rtt") - BEHIND_THE_SOCKET.iter().map(|n| o.probe(n)).sum::<f64>()
        };
        out.set("serve.net_residual_ms", med(ops, residual));
        out.set(
            "trace.unattributed_pct",
            med(ops, |o| 100.0 * residual(o) / o.total("op")),
        );
        let rtts: Vec<f64> = ops.iter().flat_map(|o| o.durations("serve.rtt")).collect();
        if !rtts.is_empty() {
            out.set("serve.rtt_p50_ms", percentile(&rtts, 50.0));
            out.set("serve.rtt_p90_ms", percentile(&rtts, 90.0));
        }

        // The daemon's own counters over every op sent so far, per op.
        let now = self
            .started
            .client
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        let per_op = |now: u64, then: u64| (now - then) as f64 / self.ops.max(1) as f64;
        let (c, b) = (&now.cache, &self.baseline.cache);
        let lookups = (c.hits - b.hits) + (c.misses - b.misses);
        out.set(
            "serve.hit_ratio",
            (c.hits - b.hits) as f64 / lookups.max(1) as f64,
        );
        out.set(
            "serve.rejected",
            per_op(now.rejected, self.baseline.rejected),
        );
        out.set("serve.evictions", per_op(c.evictions, b.evictions));
        out.set(
            "commopt.functions_reoptimized",
            per_op(
                now.functions_reoptimized,
                self.baseline.functions_reoptimized,
            ),
        );
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        self.started
            .client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.started
            .server
            .join()
            .map_err(|_| "the server thread panicked".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(d: &Daemon) -> Vec<String> {
        d.exchanges
            .iter()
            .map(|e| match &e.kind {
                RequestKind::Compile { source, .. } => format!("compile {source}"),
                RequestKind::Run { source, .. } => format!("run {source}"),
                other => panic!("{other:?}"),
            })
            .collect()
    }

    fn stop(d: Daemon) {
        Box::new(d).finish().unwrap();
    }

    #[test]
    fn the_seed_orders_warm_requests_and_picks_churn_edits() {
        let (a, problems) = build_warm(1).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
        let (b, _) = build_warm(2).unwrap();
        assert_eq!(requests(&a).len(), 12);
        assert_ne!(requests(&a), requests(&b), "another seed, another order");
        let sorted = |d: &Daemon| {
            let mut r = requests(d);
            r.sort();
            r
        };
        assert_eq!(sorted(&a), sorted(&b), "the same twelve requests");
        assert_eq!(a.exact, b.exact);
        stop(a);
        stop(b);

        let (a, problems) = build_churn(1).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
        let (b, _) = build_churn(2).unwrap();
        assert_eq!(requests(&a).len(), 12);
        assert_ne!(sorted(&a), sorted(&b), "another seed edits other literals");
        assert_eq!(a.exact, b.exact, "which must not move the exact metrics");
        // No request is for an unedited kernel: each is an artifact miss.
        for r in requests(&a) {
            assert!(a.primed.iter().all(|p| r != format!("compile {}", p.text)));
        }
        stop(a);
        stop(b);
    }
}
