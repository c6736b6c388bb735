//! Multi-daemon mode: consistent-hash routing and peer forwarding.
//!
//! Every daemon (and every cluster-aware client) builds the same
//! [`HashRing`] over the configured peer addresses and routes each
//! request to the peer owning its *route key*. The route key is an
//! FNV-1a hash of the source text alone — deliberately not the backend
//! cache key, which mixes in toolchain and profile state a client
//! cannot compute. Hashing only the source co-locates everything about
//! one program on one peer: all artifact-cache variants (per-opts),
//! the accumulated PGO profile, and the incremental-compilation
//! snapshots. Routing needs *consistency*, not equality with cache
//! keys.
//!
//! Forwarding is single-hop: a daemon that does not own a key forwards
//! the request once, with `fwd:true` set; the receiver always serves
//! locally, even if its own ring view disagrees. Divergent ring views
//! (peers evict dead members independently) therefore cost at most one
//! misplaced cache fill, never a forwarding loop. When a forward fails
//! the daemon serves the request from its own backend instead — a
//! *remote fill* — so any daemon can serve any key.

use crate::client::{unsent, Client, ClientError};
use crate::hash::Fnv1a;
use crate::proto::{Request, RequestKind, Response};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::stats::{ClusterStats, PeerStats};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Consecutive forward failures before a peer is declared dead and
/// evicted from the ring.
pub const FAILURES_BEFORE_EVICTION: u32 = 3;

/// How often the daemon's health prober sweeps evicted peers looking
/// for recoveries.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(500);

const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Probes use a tighter connect budget than forwards: a still-dead peer
/// should cost the prober milliseconds, not a full connect timeout.
const PROBE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
const FORWARD_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Static cluster membership, parsed from `--peers`.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This daemon's advertised address (must appear in `peers` for the
    /// daemon to own any keys).
    pub self_addr: String,
    /// All member addresses, including `self_addr`.
    pub peers: Vec<String>,
    /// Virtual nodes per peer on the hash ring.
    pub vnodes: usize,
}

impl ClusterConfig {
    /// A config over `peers` with the default vnode count.
    pub fn new(self_addr: impl Into<String>, peers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            self_addr: self_addr.into(),
            peers,
            vnodes: DEFAULT_VNODES,
        }
    }
}

/// The ring position of a request, `None` for endpoints that are always
/// served locally (`stats`, `ping`, `shutdown`).
pub fn route_key(kind: &RequestKind) -> Option<u64> {
    let source = match kind {
        RequestKind::Compile { source, .. }
        | RequestKind::Run { source, .. }
        | RequestKind::Pgo { source, .. }
        | RequestKind::Lint { source } => source,
        RequestKind::Stats | RequestKind::Ping | RequestKind::Shutdown => return None,
    };
    let mut h = Fnv1a::new();
    h.str_field(source);
    // Avalanche the FNV state: similar sources ("prog-1", "prog-2", ...)
    // otherwise hash to a tiny arc of the ring and all land on one peer
    // (FNV diffuses each byte upward but leaves nearby inputs nearby).
    Some(crate::ring::avalanche(h.finish()))
}

/// One pooled raw connection to a peer daemon. Forwarded requests keep
/// their original id, so a plain write-line/read-line roundtrip is
/// enough — retry policy lives with the real client, not here.
struct PeerConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl PeerConn {
    fn connect(addr: &str) -> std::io::Result<PeerConn> {
        PeerConn::connect_within(addr, CONNECT_TIMEOUT)
    }

    fn connect_within(addr: &str, timeout: Duration) -> std::io::Result<PeerConn> {
        let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let first = resolved.first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "peer address did not resolve")
        })?;
        let stream = TcpStream::connect_timeout(first, timeout)?;
        stream.set_read_timeout(Some(FORWARD_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(PeerConn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn roundtrip(&mut self, mut line: String) -> std::io::Result<Response> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ));
        }
        Response::from_json(reply.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[derive(Debug, Default)]
struct PeerHealth {
    consecutive_failures: u32,
    evicted: bool,
    forwarded: u64,
    failures: u64,
}

/// Per-daemon cluster runtime: the ring view, pooled peer connections,
/// and health bookkeeping.
pub struct ClusterState {
    /// This daemon's advertised address.
    pub self_addr: String,
    ring: Mutex<HashRing>,
    conns: Mutex<HashMap<String, Vec<PeerConn>>>,
    health: Mutex<HashMap<String, PeerHealth>>,
    forwarded: AtomicU64,
    remote_fills: AtomicU64,
    ring_rebalances: AtomicU64,
}

impl ClusterState {
    /// Builds the runtime from a parsed config.
    pub fn new(config: &ClusterConfig) -> ClusterState {
        let mut peers = config.peers.clone();
        if !peers.contains(&config.self_addr) {
            peers.push(config.self_addr.clone());
        }
        let health = peers
            .iter()
            .filter(|p| **p != config.self_addr)
            .map(|p| (p.clone(), PeerHealth::default()))
            .collect();
        ClusterState {
            self_addr: config.self_addr.clone(),
            ring: Mutex::new(HashRing::new(&peers, config.vnodes)),
            conns: Mutex::new(HashMap::new()),
            health: Mutex::new(health),
            forwarded: AtomicU64::new(0),
            remote_fills: AtomicU64::new(0),
            ring_rebalances: AtomicU64::new(0),
        }
    }

    /// The peer a request should be forwarded to, or `None` when it is
    /// local: unrouted endpoint, self-owned key, or already-forwarded
    /// (`fwd:true` — the single-hop rule).
    pub fn forward_target(&self, req: &Request) -> Option<String> {
        if req.fwd {
            return None;
        }
        let key = route_key(&req.kind)?;
        let ring = self.ring.lock().unwrap();
        let owner = ring.owner(key)?;
        if owner == self.self_addr {
            None
        } else {
            Some(owner.to_string())
        }
    }

    /// Forwards `req` to `peer` with the single-hop marker set (for the
    /// encoding only: `req` is left as it was), preserving the request
    /// id. On failure the peer's health record
    /// takes a strike ([`FAILURES_BEFORE_EVICTION`] consecutive strikes
    /// evict it from the ring); the caller should then serve the
    /// request locally and call [`ClusterState::count_remote_fill`].
    ///
    /// # Errors
    ///
    /// Connection or protocol failures talking to the peer.
    pub fn forward(&self, req: &mut Request, peer: &str) -> std::io::Result<Response> {
        let fwd = std::mem::replace(&mut req.fwd, true);
        let line = req.to_json();
        req.fwd = fwd;
        let pooled = self.conns.lock().unwrap().get_mut(peer).and_then(Vec::pop);
        let mut conn = match pooled {
            Some(c) => c,
            None => PeerConn::connect(peer).inspect_err(|_| self.record_failure(peer))?,
        };
        match conn.roundtrip(line) {
            Ok(resp) => {
                self.record_success(peer);
                self.forwarded.fetch_add(1, Ordering::Relaxed);
                self.conns
                    .lock()
                    .unwrap()
                    .entry(peer.to_string())
                    .or_default()
                    .push(conn);
                Ok(resp)
            }
            Err(e) => {
                self.record_failure(peer);
                Err(e)
            }
        }
    }

    /// Records that this daemon served a key it does not own (forward
    /// failed, so it filled the miss locally).
    pub fn count_remote_fill(&self) {
        self.remote_fills.fetch_add(1, Ordering::Relaxed);
    }

    fn record_success(&self, peer: &str) {
        let mut health = self.health.lock().unwrap();
        let entry = health.entry(peer.to_string()).or_default();
        entry.consecutive_failures = 0;
        entry.forwarded += 1;
    }

    fn record_failure(&self, peer: &str) {
        // Stale pooled connections to a failing peer are useless.
        self.conns.lock().unwrap().remove(peer);
        let mut health = self.health.lock().unwrap();
        let entry = health.entry(peer.to_string()).or_default();
        entry.failures += 1;
        entry.consecutive_failures += 1;
        if entry.consecutive_failures >= FAILURES_BEFORE_EVICTION && !entry.evicted {
            entry.evicted = true;
            drop(health);
            if self.ring.lock().unwrap().remove(peer) {
                self.ring_rebalances.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Probes every evicted peer with a `ping` and re-admits the ones
    /// that answer: health reset, peer back on the ring, and one
    /// `ring_rebalances` tick (eviction and re-admission are both
    /// rebalances — each moves key ownership).
    ///
    /// Eviction is deliberately cheap to undo: a dead peer loses its
    /// arc of the ring so traffic keeps flowing, but the moment it
    /// answers a probe its arc comes back and the keys it owns route
    /// home again. Returns how many peers were re-admitted this sweep.
    pub fn probe_evicted(&self) -> usize {
        let evicted: Vec<String> = {
            let health = self.health.lock().unwrap();
            health
                .iter()
                .filter(|(_, h)| h.evicted)
                .map(|(addr, _)| addr.clone())
                .collect()
        };
        let mut readmitted = 0;
        for peer in evicted {
            let ping = Request {
                id: 0,
                deadline_ms: None,
                fwd: true,
                kind: RequestKind::Ping,
            };
            let Ok(mut conn) = PeerConn::connect_within(&peer, PROBE_CONNECT_TIMEOUT) else {
                continue;
            };
            if conn.roundtrip(ping.to_json()).is_err() {
                continue;
            }
            self.readmit(&peer);
            // The probe connection is known-good; pool it for forwards.
            self.conns
                .lock()
                .unwrap()
                .entry(peer.clone())
                .or_default()
                .push(conn);
            readmitted += 1;
        }
        readmitted
    }

    fn readmit(&self, peer: &str) {
        {
            let mut health = self.health.lock().unwrap();
            let entry = health.entry(peer.to_string()).or_default();
            entry.evicted = false;
            entry.consecutive_failures = 0;
        }
        if self.ring.lock().unwrap().insert(peer) {
            self.ring_rebalances.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A consistent snapshot for the `stats` endpoint.
    pub fn snapshot(&self) -> ClusterStats {
        let health = self.health.lock().unwrap();
        let mut peers: Vec<PeerStats> = health
            .iter()
            .map(|(addr, h)| PeerStats {
                addr: addr.clone(),
                healthy: !h.evicted,
                forwarded: h.forwarded,
                failures: h.failures,
            })
            .collect();
        peers.sort_by(|a, b| a.addr.cmp(&b.addr));
        ClusterStats {
            self_addr: self.self_addr.clone(),
            peers,
            forwarded: self.forwarded.load(Ordering::Relaxed),
            remote_fills: self.remote_fills.load(Ordering::Relaxed),
            ring_rebalances: self.ring_rebalances.load(Ordering::Relaxed),
        }
    }
}

/// A cluster-aware blocking client: routes each request to the ring
/// owner of its key, treats a dead peer as a ring removal, and retries
/// with capped exponential backoff (honoring any server-suggested
/// `retry_after_ms`, whichever is larger).
pub struct ClusterClient {
    ring: HashRing,
    conns: HashMap<String, Client>,
    /// Deadline attached to every request (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// Total attempts per request across peers and backoff rounds.
    pub max_attempts: u32,
    /// First backoff sleep; doubles per attempt up to the cap.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    rebalances: u64,
}

impl ClusterClient {
    /// A client over `peers` with the default vnode count.
    pub fn new(peers: &[String]) -> ClusterClient {
        ClusterClient {
            ring: HashRing::new(peers, DEFAULT_VNODES),
            conns: HashMap::new(),
            deadline_ms: None,
            max_attempts: 10,
            backoff_base_ms: 10,
            backoff_cap_ms: 2_000,
            rebalances: 0,
        }
    }

    /// How many peers this client has evicted as dead.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Live (not yet evicted) peers, sorted.
    pub fn live_peers(&self) -> &[String] {
        self.ring.peers()
    }

    fn backoff(&self, attempt: u32, server_hint_ms: Option<u64>) -> Duration {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_cap_ms);
        Duration::from_millis(
            exp.max(server_hint_ms.unwrap_or(0))
                .min(self.backoff_cap_ms),
        )
    }

    fn drop_peer(&mut self, addr: &str) {
        self.conns.remove(addr);
        if self.ring.remove(addr) {
            self.rebalances += 1;
        }
    }

    /// Sends one request to the owning peer, failing over on dead
    /// peers and backing off on backpressure.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when every attempt is exhausted or the server
    /// answers with a terminal error.
    pub fn request(&mut self, kind: RequestKind) -> Result<Response, ClientError> {
        let key = route_key(&kind);
        let mut req = unsent(kind);
        let mut last_io: Option<ClientError> = None;
        for attempt in 0..self.max_attempts {
            let owner = match key {
                Some(k) => self.ring.owner(k).map(str::to_string),
                // Unrouted endpoints go to any live peer.
                None => self.ring.peers().first().cloned(),
            };
            let Some(addr) = owner else {
                return Err(last_io.unwrap_or(ClientError::Protocol(
                    "no live peers remain in the ring".into(),
                )));
            };
            if !self.conns.contains_key(&addr) {
                match Client::connect(&addr) {
                    Ok(mut c) => {
                        c.deadline_ms = self.deadline_ms;
                        self.conns.insert(addr.clone(), c);
                    }
                    Err(e) => {
                        last_io = Some(ClientError::Io(e));
                        self.drop_peer(&addr);
                        std::thread::sleep(self.backoff(attempt, None));
                        continue;
                    }
                }
            }
            let client = self.conns.get_mut(&addr).expect("just inserted");
            match client.send(&mut req) {
                Ok(Response::Error {
                    error,
                    retry_after_ms: Some(ms),
                    ..
                }) => {
                    if attempt + 1 == self.max_attempts {
                        return Err(ClientError::Server { error });
                    }
                    std::thread::sleep(self.backoff(attempt, Some(ms)));
                }
                Ok(Response::Error { error, .. }) => return Err(ClientError::Server { error }),
                Ok(resp) => return Ok(resp),
                Err(ClientError::Server { error }) => return Err(ClientError::Server { error }),
                Err(e) => {
                    // Connection-level failure: the peer is dead or
                    // unintelligible. Evict it and re-route.
                    last_io = Some(e);
                    self.drop_peer(&addr);
                    std::thread::sleep(self.backoff(attempt, None));
                }
            }
        }
        Err(last_io.unwrap_or(ClientError::Protocol("attempts exhausted".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::CompileOptions;

    #[test]
    fn route_key_depends_only_on_source() {
        let compile = RequestKind::Compile {
            source: "void f() {}".into(),
            opts: CompileOptions::default(),
        };
        let lint = RequestKind::Lint {
            source: "void f() {}".into(),
        };
        let other = RequestKind::Lint {
            source: "void g() {}".into(),
        };
        assert_eq!(route_key(&compile), route_key(&lint));
        assert_ne!(route_key(&lint), route_key(&other));
        assert_eq!(route_key(&RequestKind::Stats), None);
        assert_eq!(route_key(&RequestKind::Ping), None);
        assert_eq!(route_key(&RequestKind::Shutdown), None);
    }

    #[test]
    fn forwarded_requests_are_never_reforwarded() {
        let config = ClusterConfig::new("a:1", vec!["a:1".into(), "b:2".into(), "c:3".into()]);
        let state = ClusterState::new(&config);
        for i in 0..64 {
            let req = Request {
                id: i,
                deadline_ms: None,
                fwd: true,
                kind: RequestKind::Lint {
                    source: format!("void f{i}() {{}}"),
                },
            };
            assert_eq!(state.forward_target(&req), None, "single-hop rule");
        }
    }

    #[test]
    fn eviction_takes_three_consecutive_failures() {
        let config = ClusterConfig::new("a:1", vec!["a:1".into(), "b:2".into()]);
        let state = ClusterState::new(&config);
        state.record_failure("b:2");
        state.record_failure("b:2");
        state.record_success("b:2");
        state.record_failure("b:2");
        state.record_failure("b:2");
        assert_eq!(state.snapshot().ring_rebalances, 0);
        state.record_failure("b:2");
        let snap = state.snapshot();
        assert_eq!(snap.ring_rebalances, 1);
        assert!(!snap.peers[0].healthy);
    }
}
