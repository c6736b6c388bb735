//! The `earthd` TCP server: an event-driven connection layer (`net`)
//! feeding newline-delimited JSON requests through the bounded worker
//! pool and the artifact cache, optionally as one member of a
//! consistent-hash cluster (`cluster`).
//!
//! Request lifecycle:
//!
//! 1. The event loop drains every complete request line a connection
//!    has pipelined (one wakeup, many requests) and calls
//!    `Inner::dispatch`.
//! 2. `stats`/`ping`/`shutdown` are answered inline (they must work
//!    even when the pool is saturated — that is when you need `stats`
//!    most), as are parse errors and backpressure rejections.
//! 3. In cluster mode, a request whose route key hashes to another
//!    peer is forwarded there (single-hop: the `fwd` flag tells the
//!    receiver to serve locally no matter what its own ring says); a
//!    failed forward is served locally instead — a remote fill.
//! 4. `compile` requests for a key already being compiled are
//!    coalesced at the connection layer: they ride the in-flight job
//!    and consume neither a queue slot nor a worker thread
//!    (`coalesced_hits`).
//! 5. Everything else is submitted to the pool. A full queue rejects
//!    immediately with `retry_after_ms`; an expired deadline is
//!    detected when the job is dequeued, before any work. The worker
//!    resolves the request through the artifact cache (single-flight)
//!    and sends the response back to the event loop, the only writer
//!    on every socket.
//!
//! All counters live in one `MetricsState` mutex, and a `stats`
//! reply reads the cache and queue while holding it — so one snapshot
//! is mutually consistent (an endpoint count is never behind the cache
//! activity it caused; see `Inner::stats`).

use crate::cache::{ArtifactCache, Lookup, Spill};
use crate::cluster::{ClusterConfig, ClusterState, PROBE_INTERVAL};
use crate::hash::key_hex;
use crate::net::{ConnId, EventLoop};
use crate::pool::{SubmitError, WorkerPool};
use crate::proto::{Request, RequestKind, Response};
use crate::stats::{Histogram, ServerStats};
use crate::{Artifact, Backend};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Backpressure hint sent with queue-full rejections.
const RETRY_AFTER_MS: u64 = 50;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing compile/run/pgo/lint jobs.
    pub workers: usize,
    /// Queue bound; submissions beyond it are rejected with
    /// `retry_after_ms`.
    pub queue_capacity: usize,
    /// Resident-artifact bound for the LRU cache.
    pub cache_capacity: usize,
    /// Directory for evicted artifacts (`None` = evictions are final).
    pub spill_dir: Option<PathBuf>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Close connections idle longer than this (`None` = never). Idle
    /// connections cost no threads either way; the sweeper just bounds
    /// kernel-side socket state.
    pub idle_timeout_ms: Option<u64>,
    /// Cluster membership (`None` = single-daemon mode).
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
            spill_dir: None,
            default_deadline_ms: None,
            idle_timeout_ms: Some(30_000),
            cluster: None,
        }
    }
}

/// Every mutable counter the daemon keeps, under one lock so a `stats`
/// snapshot is internally consistent (satellite of PR 9: queue depth,
/// cache counters, and endpoint counts must not drift apart within one
/// reply).
#[derive(Default)]
struct MetricsState {
    requests: BTreeMap<String, u64>,
    errors: u64,
    deadline_misses: u64,
    analyses: u64,
    functions_reused: u64,
    functions_reoptimized: u64,
    escalations: u64,
    open_connections: u64,
    idle_closed: u64,
    batched_requests: u64,
    coalesced_hits: u64,
    pass_walls: BTreeMap<String, Histogram>,
}

/// What `dispatch` decided to do with one request line.
pub(crate) enum Dispatched {
    /// Answer now (inline endpoints, parse errors, rejections).
    Reply(Response),
    /// A pool job owns the request; the response arrives on the
    /// event-loop channel.
    Async,
    /// Write the ack, then begin shutdown.
    Shutdown(Response),
}

pub(crate) struct Inner<B: Backend> {
    backend: B,
    cache: ArtifactCache<Artifact<B::Exec>>,
    pool: WorkerPool,
    metrics: Mutex<MetricsState>,
    /// Compile keys currently owned by a pool job, with the followers
    /// (connection, request id) coalesced onto them.
    inflight: Mutex<HashMap<u64, Vec<(ConnId, u64)>>>,
    cluster: Option<ClusterState>,
    shutdown: AtomicBool,
    started: Instant,
    addr: SocketAddr,
    default_deadline_ms: Option<u64>,
}

/// The coalesced copy of a leader's response: re-addressed to the
/// follower's request id, and marked `cached` — from the follower's
/// perspective no compile ran.
fn follower_view(resp: &Response, fid: u64) -> Response {
    let mut r = resp.clone().with_id(fid);
    if let Response::Compile { cached, .. } = &mut r {
        *cached = true;
    }
    r
}

fn deadline_passed(deadline: Option<Instant>) -> bool {
    matches!(deadline, Some(d) if Instant::now() > d)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl<B: Backend> Inner<B> {
    fn stats(&self) -> ServerStats {
        // One critical section builds the whole snapshot. Endpoint
        // counts are frozen the moment the lock is acquired, and every
        // increment happens-before the cache/pool activity it causes —
        // so any cache op visible below already has its endpoint count
        // visible too, and `compile count >= hits + misses +
        // spill_hits` holds in every snapshot.
        let m = self.metrics.lock().expect("metrics lock");
        ServerStats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            toolchain: self.backend.toolchain(),
            workers: self.pool.workers() as u64,
            queue_depth: self.pool.queue_depth() as u64,
            queue_capacity: self.pool.capacity() as u64,
            rejected: self.pool.rejected(),
            deadline_misses: m.deadline_misses,
            errors: m.errors,
            analyses: m.analyses,
            functions_reused: m.functions_reused,
            functions_reoptimized: m.functions_reoptimized,
            escalations: m.escalations,
            open_connections: m.open_connections,
            idle_closed: m.idle_closed,
            batched_requests: m.batched_requests,
            coalesced_hits: m.coalesced_hits,
            cluster: self.cluster.as_ref().map(ClusterState::snapshot),
            requests: m.requests.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            cache: self.cache.counters(),
            pass_walls: m
                .pass_walls
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }

    /// Fetches (or cold-compiles, single-flight) the artifact for one
    /// `(source, opts)` pair. `cached` is true when no compile ran.
    /// `key` is the pair's cache key when `dispatch` already hashed the
    /// source for it.
    #[allow(clippy::type_complexity)]
    fn acquire(
        &self,
        source: &str,
        opts: &crate::proto::CompileOptions,
        key: Option<u64>,
    ) -> Result<(Arc<Artifact<B::Exec>>, u64, bool), String> {
        let key = key.unwrap_or_else(|| self.backend.cache_key(source, opts));
        match self.cache.lookup(key) {
            Lookup::Hit(a) | Lookup::Spilled(a) => Ok((a, key, true)),
            Lookup::Miss(guard) => {
                let out = self.backend.compile(source, opts)?; // guard drop = abandon
                {
                    let mut m = self.metrics.lock().expect("metrics lock");
                    m.analyses += out.analyses;
                    m.functions_reused += out.functions_reused;
                    m.functions_reoptimized += out.functions_reoptimized;
                    m.escalations += out.escalations;
                    for (pass, ns) in &out.timings {
                        m.pass_walls.entry(pass.clone()).or_default().record(*ns);
                    }
                }
                let artifact = Arc::new(out.artifact);
                guard.fulfill(Arc::clone(&artifact), self.backend.cache_tag(opts));
                Ok((artifact, key, false))
            }
        }
    }

    /// Executes one pooled request kind to completion (`key`: see
    /// [`Inner::acquire`]).
    fn execute(&self, id: u64, kind: RequestKind, key: Option<u64>) -> Response {
        let result = match kind {
            RequestKind::Compile { source, opts } => {
                self.acquire(&source, &opts, key)
                    .map(|(artifact, key, cached)| Response::Compile {
                        id,
                        key: key_hex(key),
                        cached,
                        ir: artifact.ir.clone(),
                        report: artifact.report.clone(),
                    })
            }
            RequestKind::Run {
                source,
                opts,
                entry,
                nodes,
                args,
            } => self
                .acquire(&source, &opts, key)
                .and_then(|(artifact, key, cached)| {
                    let run = self.backend.run(&artifact, &entry, nodes, &args)?;
                    Ok(Response::Run {
                        id,
                        key: key_hex(key),
                        cached,
                        ret: run.ret,
                        time_ns: run.time_ns,
                        stats: run.stats,
                        output: run.output,
                    })
                }),
            RequestKind::Pgo {
                source,
                entry,
                nodes,
                args,
            } => self
                .backend
                .pgo(&source, &entry, nodes, &args)
                .map(|out| Response::Pgo {
                    id,
                    sites: out.sites,
                    merged_sites: out.merged_sites,
                    invalidated: self.cache.invalidate_tagged(),
                    ret: out.ret,
                }),
            RequestKind::Lint { source } => self.backend.lint(&source).map(|out| Response::Lint {
                id,
                independent: out.independent,
                diagnostics: out.diagnostics,
            }),
            RequestKind::Stats | RequestKind::Ping | RequestKind::Shutdown => {
                unreachable!("handled inline")
            }
        };
        match result {
            Ok(resp) => resp,
            Err(error) => self.error(id, error, None),
        }
    }

    pub(crate) fn error(
        &self,
        id: u64,
        error: impl Into<String>,
        retry_after_ms: Option<u64>,
    ) -> Response {
        self.metrics.lock().expect("metrics lock").errors += 1;
        Response::Error {
            id,
            error: error.into(),
            retry_after_ms,
        }
    }

    fn deadline_miss(&self, id: u64) -> Response {
        self.metrics.lock().expect("metrics lock").deadline_misses += 1;
        self.error(id, "deadline exceeded while queued", None)
    }

    /// Routes one parsed-or-not request line; called only from the
    /// event-loop thread (coalescing relies on that: a follower can
    /// only register between a leader's registration and completion).
    pub(crate) fn dispatch(
        self: &Arc<Self>,
        conn: ConnId,
        line: &str,
        tx: &mpsc::Sender<(ConnId, Response)>,
    ) -> Dispatched {
        let req = match Request::from_json(line) {
            Ok(req) => req,
            Err(e) => return Dispatched::Reply(self.error(0, format!("bad request: {e}"), None)),
        };
        {
            let mut m = self.metrics.lock().expect("metrics lock");
            *m.requests
                .entry(req.kind.endpoint().to_string())
                .or_insert(0) += 1;
        }
        let id = req.id;
        match req.kind {
            RequestKind::Ping => Dispatched::Reply(Response::Ok { id }),
            RequestKind::Stats => Dispatched::Reply(Response::Stats {
                id,
                stats: Box::new(self.stats()),
            }),
            RequestKind::Shutdown => Dispatched::Shutdown(Response::Ok { id }),
            _ => self.dispatch_pooled(conn, req, tx),
        }
    }

    fn dispatch_pooled(
        self: &Arc<Self>,
        conn: ConnId,
        req: Request,
        tx: &mpsc::Sender<(ConnId, Response)>,
    ) -> Dispatched {
        let id = req.id;
        let deadline = req
            .deadline_ms
            .or(self.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));

        // Cluster routing: keys owned by another peer are forwarded
        // (never when `fwd` is already set — the single-hop rule).
        if let Some(cluster) = &self.cluster {
            if let Some(peer) = cluster.forward_target(&req) {
                let inner = Arc::clone(self);
                let tx = tx.clone();
                let mut req = req;
                return self.submit_or_reject(id, move || {
                    let resp = if deadline_passed(deadline) {
                        inner.deadline_miss(id)
                    } else {
                        let cluster = inner.cluster.as_ref().expect("cluster mode");
                        match cluster.forward(&mut req, &peer) {
                            Ok(resp) => resp,
                            Err(_) => {
                                // Forward failed: fill the miss locally
                                // so the request still completes.
                                cluster.count_remote_fill();
                                inner.execute(id, req.kind, None)
                            }
                        }
                    };
                    let _ = tx.send((conn, resp));
                });
            }
        }

        // Connection-layer coalescing: a compile whose key is already
        // in flight joins that job instead of taking a queue slot.
        if let RequestKind::Compile { source, opts } = &req.kind {
            let key = self.backend.cache_key(source, opts);
            // The worker reuses this hash unless the key can change before
            // it runs: a `use_profile` key follows the accumulated profile.
            let carried = (!opts.use_profile).then_some(key);
            {
                let mut inflight = self.inflight.lock().expect("inflight lock");
                if let Some(followers) = inflight.get_mut(&key) {
                    followers.push((conn, id));
                    return Dispatched::Async;
                }
                inflight.insert(key, Vec::new());
            }
            let inner = Arc::clone(self);
            let tx = tx.clone();
            let kind = req.kind;
            let disp = self.submit_or_reject(id, move || {
                let resp = if deadline_passed(deadline) {
                    inner.deadline_miss(id)
                } else {
                    inner.execute(id, kind, carried)
                };
                let followers = inner
                    .inflight
                    .lock()
                    .expect("inflight lock")
                    .remove(&key)
                    .unwrap_or_default();
                if !followers.is_empty() {
                    inner.metrics.lock().expect("metrics lock").coalesced_hits +=
                        followers.len() as u64;
                }
                for (fconn, fid) in followers {
                    let _ = tx.send((fconn, follower_view(&resp, fid)));
                }
                let _ = tx.send((conn, resp));
            });
            if matches!(disp, Dispatched::Reply(_)) {
                // Submission was rejected; release the in-flight slot.
                // No follower can have joined: dispatch runs only on
                // the event-loop thread.
                self.inflight.lock().expect("inflight lock").remove(&key);
            }
            return disp;
        }

        // run/pgo/lint: one pool job each.
        let inner = Arc::clone(self);
        let tx = tx.clone();
        let kind = req.kind;
        self.submit_or_reject(id, move || {
            let resp = if deadline_passed(deadline) {
                inner.deadline_miss(id)
            } else {
                inner.execute(id, kind, None)
            };
            let _ = tx.send((conn, resp));
        })
    }

    fn submit_or_reject(&self, id: u64, job: impl FnOnce() + Send + 'static) -> Dispatched {
        match self.pool.submit(Box::new(job) as Job) {
            Ok(()) => Dispatched::Async,
            Err(SubmitError::Full) => Dispatched::Reply(self.error(
                id,
                format!("queue full ({} jobs)", self.pool.capacity()),
                Some(RETRY_AFTER_MS),
            )),
            Err(SubmitError::ShuttingDown) => {
                Dispatched::Reply(self.error(id, "daemon is shutting down", None))
            }
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn pool_shutdown(&self) {
        self.pool.shutdown();
    }

    pub(crate) fn note_batched(&self, n: u64) {
        self.metrics.lock().expect("metrics lock").batched_requests += n;
    }

    pub(crate) fn note_idle_closed(&self, n: u64) {
        self.metrics.lock().expect("metrics lock").idle_closed += n;
    }

    pub(crate) fn set_open_connections(&self, n: u64) {
        self.metrics.lock().expect("metrics lock").open_connections = n;
    }
}

/// A handle for observing and stopping a server from another thread.
pub struct ServerHandle<B: Backend> {
    inner: Arc<Inner<B>>,
}

impl<B: Backend> ServerHandle<B> {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Requests a graceful shutdown (equivalent to a `shutdown`
    /// request on the wire).
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }
}

/// The daemon. [`Server::bind`], then [`Server::run`] on a dedicated
/// thread (it blocks until shutdown).
pub struct Server<B: Backend> {
    listener: TcpListener,
    inner: Arc<Inner<B>>,
    idle_timeout: Option<Duration>,
}

impl<B: Backend> Server<B> {
    /// Binds the daemon and spawns its worker pool. Use port 0 to let
    /// the OS pick.
    ///
    /// # Errors
    ///
    /// Propagates socket-bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        backend: B,
    ) -> std::io::Result<Server<B>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let spill = config.spill_dir.map(|dir| Spill {
            dir,
            encode: |a: &Artifact<B::Exec>| Some(a.to_spill_json()),
            decode: |text| Artifact::from_spill_json(text),
        });
        let inner = Arc::new(Inner {
            backend,
            cache: ArtifactCache::new(config.cache_capacity, spill),
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            metrics: Mutex::new(MetricsState::default()),
            inflight: Mutex::new(HashMap::new()),
            cluster: config.cluster.as_ref().map(ClusterState::new),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            addr,
            default_deadline_ms: config.default_deadline_ms,
        });
        Ok(Server {
            listener,
            inner,
            idle_timeout: config.idle_timeout_ms.map(Duration::from_millis),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// A handle usable from other threads while [`Server::run`] blocks.
    pub fn handle(&self) -> ServerHandle<B> {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Serves until a `shutdown` request (or [`ServerHandle::shutdown`])
    /// arrives, then drains the worker pool and flushes every
    /// outstanding response.
    ///
    /// In cluster mode a health-prober thread runs alongside the event
    /// loop, sweeping evicted peers every [`PROBE_INTERVAL`] and
    /// re-admitting the ones that answer a `ping` — so a peer that
    /// crashes and restarts rejoins the ring without operator action.
    /// The prober is a separate thread (not an event-loop tick) because
    /// a probe blocks on connect; the loop must not.
    pub fn run(self) {
        let prober = self.inner.cluster.is_some().then(|| {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                // Short ticks so shutdown is noticed promptly even
                // though probes run on the longer interval.
                const TICK: Duration = Duration::from_millis(25);
                let mut since_probe = Duration::ZERO;
                while !inner.shutdown_requested() {
                    std::thread::sleep(TICK);
                    since_probe += TICK;
                    if since_probe >= PROBE_INTERVAL {
                        since_probe = Duration::ZERO;
                        inner
                            .cluster
                            .as_ref()
                            .expect("cluster mode")
                            .probe_evicted();
                    }
                }
            })
        });
        EventLoop::new(self.listener, self.inner, self.idle_timeout).run();
        if let Some(prober) = prober {
            let _ = prober.join();
        }
    }
}
