//! The daemon's observability surface: per-endpoint request counters,
//! cache counters, queue state, and per-pass wall-time histograms
//! aggregated from every cold compile's pipeline report.

use earth_ir::json::{self, JsonError};
use earth_ir::json_codec;

/// Number of histogram buckets (powers of two from 1 µs up).
pub const HIST_BUCKETS: usize = 16;

/// A fixed-bucket log₂ histogram of nanosecond durations.
///
/// Bucket `i` counts samples in `[2^(10+i), 2^(11+i))` ns — i.e. bucket
/// 0 is "about a microsecond", each following bucket doubles, and the
/// last bucket absorbs everything from ~33 ms up. Sub-microsecond
/// samples land in bucket 0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples, in nanoseconds.
    pub total_ns: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// The bucket index a duration falls into.
    pub fn bucket_of(ns: u64) -> usize {
        if ns < 1 << 10 {
            return 0;
        }
        ((ns.ilog2() as usize) - 10).min(HIST_BUCKETS - 1)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

json_codec!(struct Histogram { count, total_ns, buckets });

/// Artifact-cache counters, as exposed by the `stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Requests served from a resident artifact.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Ready artifacts evicted by the LRU bound.
    pub evictions: u64,
    /// Artifacts dropped by explicit invalidation (profile updates).
    pub invalidations: u64,
    /// Evicted artifacts written to the spill directory.
    pub spill_writes: u64,
    /// Misses restored from the spill directory instead of compiling.
    pub spill_hits: u64,
    /// Resident artifacts right now.
    pub entries: u64,
    /// Keys currently being compiled (single-flight in progress).
    pub pending: u64,
}

json_codec!(struct CacheCounters {
    hits, misses, evictions, invalidations, spill_writes, spill_hits, entries, pending,
});

/// Per-peer health and traffic, as seen by one daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStats {
    /// The peer's advertised address.
    pub addr: String,
    /// `false` once the peer has been evicted from the ring.
    pub healthy: bool,
    /// Requests successfully forwarded to this peer.
    pub forwarded: u64,
    /// Forward attempts that failed (connect or roundtrip).
    pub failures: u64,
}

json_codec!(struct PeerStats { addr, healthy, forwarded, failures });

/// Cluster-mode counters, present only when the daemon runs with
/// `--cluster`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// This daemon's advertised address.
    pub self_addr: String,
    /// Per-peer health, sorted by address.
    pub peers: Vec<PeerStats>,
    /// Requests forwarded to ring owners (sum over peers).
    pub forwarded: u64,
    /// Keys this daemon served without owning them (forward failed, so
    /// the miss was filled locally).
    pub remote_fills: u64,
    /// Ring rebuilds after peer evictions.
    pub ring_rebalances: u64,
}

json_codec!(struct ClusterStats { self_addr, peers, forwarded, remote_fills, ring_rebalances });

/// A full `stats` snapshot: uptime, per-endpoint request counts, queue
/// state, connection-layer counters, cache counters, and per-pass
/// wall-time histograms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Toolchain fingerprint (also part of every cache key).
    pub toolchain: String,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Jobs queued (not yet picked up) at snapshot time.
    pub queue_depth: u64,
    /// Queue bound; submissions beyond it are rejected with
    /// `retry_after_ms`.
    pub queue_capacity: u64,
    /// Requests rejected because the queue was full.
    pub rejected: u64,
    /// Requests dropped because their deadline passed while queued.
    pub deadline_misses: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Whole-program analyses performed by cold compiles (sum of the
    /// pass-cache miss counters over every `PipelineReport`). A cache
    /// hit adds zero here — that is the serving layer's whole point.
    pub analyses: u64,
    /// Functions spliced from incremental snapshots across all compiles
    /// (function-granular incremental recompilation: a warm recompile
    /// after a one-function edit adds `#functions - 1` here).
    pub functions_reused: u64,
    /// Functions placement + selection actually ran over, summed across
    /// all compiles (the dirty sets; cold compiles add every function).
    pub functions_reoptimized: u64,
    /// Unedited functions re-optimized because a callee's effect
    /// summary changed (covers-or-escalate escalations).
    pub escalations: u64,
    /// Connections currently registered with the event loop. Idle
    /// connections sit here without holding a pool thread.
    pub open_connections: u64,
    /// Connections closed by the idle sweeper.
    pub idle_closed: u64,
    /// Requests that arrived as part of a multi-request drain (two or
    /// more pipelined lines read in one wakeup).
    pub batched_requests: u64,
    /// Requests answered by joining an already-in-flight compile of the
    /// same key at the connection layer (never touched the cache or a
    /// worker thread).
    pub coalesced_hits: u64,
    /// Cluster counters; `None` outside `--cluster` mode.
    pub cluster: Option<ClusterStats>,
    /// Per-endpoint request counts, sorted by endpoint name.
    pub requests: Vec<(String, u64)>,
    /// Artifact-cache counters.
    pub cache: CacheCounters,
    /// Per-pass wall-time histograms, sorted by pass name.
    pub pass_walls: Vec<(String, Histogram)>,
}

// Wire order differs from field order: `cluster` comes last, and only in
// cluster mode.
json_codec!(struct ServerStats {
    uptime_ms, toolchain, workers, queue_depth, queue_capacity, rejected, deadline_misses,
    errors, analyses, functions_reused, functions_reoptimized, escalations, open_connections,
    idle_closed, batched_requests, coalesced_hits, requests, cache, pass_walls, cluster: skip,
});

impl ServerStats {
    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|(_, n)| n).sum()
    }

    /// The count for one endpoint (0 when never called).
    pub fn endpoint(&self, name: &str) -> u64 {
        self.requests
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// JSON object form (the `stats` response payload).
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Parses a snapshot back from [`ServerStats::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed or mis-shaped input.
    pub fn from_json(src: &str) -> Result<ServerStats, JsonError> {
        json::decode(src, "stats")
    }

    /// Human-readable rendering (the `earthcc client stats` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "uptime: {:.1}s | toolchain {} | workers {} | queue {}/{}\n",
            self.uptime_ms as f64 / 1000.0,
            self.toolchain,
            self.workers,
            self.queue_depth,
            self.queue_capacity
        ));
        out.push_str("requests:");
        for (k, v) in &self.requests {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push_str(&format!(
            "\nrejected={} deadline_misses={} errors={} analyses={}\n",
            self.rejected, self.deadline_misses, self.errors, self.analyses
        ));
        out.push_str(&format!(
            "incremental: functions_reused={} functions_reoptimized={} escalations={}\n",
            self.functions_reused, self.functions_reoptimized, self.escalations
        ));
        out.push_str(&format!(
            "connections: open={} idle_closed={} batched_requests={} coalesced_hits={}\n",
            self.open_connections, self.idle_closed, self.batched_requests, self.coalesced_hits
        ));
        if let Some(cl) = &self.cluster {
            out.push_str(&format!(
                "cluster {}: forwarded={} remote_fills={} ring_rebalances={}\n",
                cl.self_addr, cl.forwarded, cl.remote_fills, cl.ring_rebalances
            ));
            for p in &cl.peers {
                out.push_str(&format!(
                    "  peer {}: healthy={} forwarded={} failures={}\n",
                    p.addr, p.healthy, p.forwarded, p.failures
                ));
            }
        }
        let c = &self.cache;
        out.push_str(&format!(
            "cache: hits={} misses={} evictions={} invalidations={} spill_writes={} spill_hits={} entries={} pending={}\n",
            c.hits, c.misses, c.evictions, c.invalidations, c.spill_writes, c.spill_hits,
            c.entries, c.pending
        ));
        for (name, h) in &self.pass_walls {
            out.push_str(&format!(
                "pass {name}: n={} mean={}ns buckets={:?}\n",
                h.count,
                h.mean_ns(),
                h.buckets
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_double() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1023), 0);
        assert_eq!(Histogram::bucket_of(1024), 0);
        assert_eq!(Histogram::bucket_of(2048), 1);
        assert_eq!(Histogram::bucket_of(1 << 20), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut h = Histogram::default();
        h.record(500);
        h.record(5_000_000);
        assert_eq!(h.count, 2);
        assert_eq!(h.total_ns, 5_000_500);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn stats_round_trip() {
        let mut h = Histogram::default();
        h.record(1_000);
        h.record(2_000_000);
        let s = ServerStats {
            uptime_ms: 1234,
            toolchain: "earthc/0.1.0 proto/1".into(),
            workers: 4,
            queue_depth: 1,
            queue_capacity: 64,
            rejected: 2,
            deadline_misses: 1,
            errors: 3,
            analyses: 7,
            functions_reused: 9,
            functions_reoptimized: 4,
            escalations: 1,
            open_connections: 5,
            idle_closed: 2,
            batched_requests: 6,
            coalesced_hits: 3,
            cluster: Some(ClusterStats {
                self_addr: "127.0.0.1:7100".into(),
                peers: vec![PeerStats {
                    addr: "127.0.0.1:7101".into(),
                    healthy: true,
                    forwarded: 4,
                    failures: 1,
                }],
                forwarded: 4,
                remote_fills: 1,
                ring_rebalances: 0,
            }),
            requests: vec![("compile".into(), 10), ("stats".into(), 2)],
            cache: CacheCounters {
                hits: 8,
                misses: 2,
                evictions: 1,
                invalidations: 1,
                spill_writes: 1,
                spill_hits: 1,
                entries: 1,
                pending: 0,
            },
            pass_walls: vec![("optimize".into(), h)],
        };
        let enc = s.to_json();
        assert_eq!(ServerStats::from_json(&enc).unwrap(), s);
        assert_eq!(s.total_requests(), 12);
        assert_eq!(s.endpoint("compile"), 10);
        assert_eq!(s.endpoint("nope"), 0);
        assert!(s.render().contains("hits=8"));
        assert!(s.render().contains("functions_reused=9"));
        assert!(s.render().contains("coalesced_hits=3"));
        assert!(s.render().contains("peer 127.0.0.1:7101"));
    }

    #[test]
    fn stats_round_trip_without_cluster() {
        let s = ServerStats {
            toolchain: "earthc/0.1.0 proto/1".into(),
            ..ServerStats::default()
        };
        let enc = s.to_json();
        assert!(!enc.contains("cluster"));
        assert_eq!(ServerStats::from_json(&enc).unwrap(), s);
    }
}
