//! The `earthd` wire protocol: newline-delimited JSON.
//!
//! One request per line, one response per line, each message declared
//! once with [`earth_ir::json_codec!`] — the same declaration writes and
//! reads it, so the two cannot drift apart. Every request
//! carries a client-chosen `id` echoed in the response, a protocol
//! version, and an optional per-request deadline. Responses are either
//! `"ok":true` with a `kind`-specific payload, or `"ok":false` with an
//! `error` string and — for backpressure rejections — a
//! `retry_after_ms` hint.
//!
//! ```text
//! → {"v":1,"id":7,"cmd":"compile","source":"int main() {...}","opts":{...}}
//! ← {"id":7,"ok":true,"kind":"compile","key":"93ab...","cached":true,...}
//! ```

use crate::stats::ServerStats;
use earth_ir::json::{self, Encode, Json, JsonError, Value};
use earth_ir::json_codec;

/// Wire protocol version; requests with another version are rejected.
pub const PROTOCOL_VERSION: u64 = 1;

/// Compilation options carried by `compile`/`run` requests.
///
/// These (plus the source text, the daemon's toolchain fingerprint, and
/// the accumulated profile when `use_profile` is set) determine the
/// artifact-cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the communication optimizer (off = the paper's "simple"
    /// build).
    pub optimize: bool,
    /// Run locality inference.
    pub locality: bool,
    /// Feed the daemon's accumulated PGO profile into the optimizer.
    pub use_profile: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            locality: true,
            use_profile: false,
        }
    }
}

json_codec!(struct CompileOptions { optimize, locality, use_profile });

/// An entry-function argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// 64-bit integer argument.
    Int(i64),
    /// 64-bit float argument.
    Double(f64),
}

/// A bare JSON number: an integer literal is an `Int`, any other a
/// `Double`.
impl Encode for Arg {
    fn encode(&self, out: &mut String) {
        match self {
            Arg::Int(n) => n.encode(out),
            Arg::Double(x) => x.encode(out),
        }
    }
}

impl Json for Arg {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        match v {
            Value::Int(n) => Ok(Arg::Int(n)),
            Value::Float(x) => Ok(Arg::Double(x)),
            _ => Err(JsonError::shape(format!("`{what}` items must be numbers"))),
        }
    }
}

/// The request body, by endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Compile (or fetch from the artifact cache) one source text.
    Compile {
        /// EARTH-C source text.
        source: String,
        /// Compilation options (part of the cache key).
        opts: CompileOptions,
    },
    /// Compile (cached) and simulate.
    Run {
        /// EARTH-C source text.
        source: String,
        /// Compilation options (part of the cache key).
        opts: CompileOptions,
        /// Entry function name.
        entry: String,
        /// Simulated EARTH nodes.
        nodes: u16,
        /// Entry arguments.
        args: Vec<Arg>,
    },
    /// Instrumented run; merges the measured profile into the daemon's
    /// accumulated `ProfileDb`.
    Pgo {
        /// EARTH-C source text.
        source: String,
        /// Entry function name.
        entry: String,
        /// Simulated EARTH nodes.
        nodes: u16,
        /// Entry arguments.
        args: Vec<Arg>,
    },
    /// Parallel-soundness lint.
    Lint {
        /// EARTH-C source text.
        source: String,
    },
    /// Observability snapshot.
    Stats,
    /// Liveness check.
    Ping,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl RequestKind {
    /// The endpoint name used in stats and dispatch.
    pub fn endpoint(&self) -> &'static str {
        match self {
            RequestKind::Compile { .. } => "compile",
            RequestKind::Run { .. } => "run",
            RequestKind::Pgo { .. } => "pgo",
            RequestKind::Lint { .. } => "lint",
            RequestKind::Stats => "stats",
            RequestKind::Ping => "ping",
            RequestKind::Shutdown => "shutdown",
        }
    }
}

// A run or pgo request may leave out `entry`, `nodes` and `args`.
json_codec!(enum RequestKind where nodes_at_least_one {
    Compile { "cmd" = "compile", source, opts },
    Run { "cmd" = "run", source, opts, entry = "main".into(), nodes = 1, args = Vec::new() },
    Pgo { "cmd" = "pgo", source, entry = "main".into(), nodes = 1, args = Vec::new() },
    Lint { "cmd" = "lint", source },
    Stats { "cmd" = "stats" },
    Ping { "cmd" = "ping" },
    Shutdown { "cmd" = "shutdown" },
});

fn nodes_at_least_one(kind: RequestKind) -> Result<RequestKind, JsonError> {
    match kind {
        RequestKind::Run { nodes: 0, .. } | RequestKind::Pgo { nodes: 0, .. } => {
            Err(JsonError::shape("`nodes` must be at least 1"))
        }
        kind => Ok(kind),
    }
}

/// One protocol request: id, optional deadline, body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Per-request deadline: the daemon answers `deadline exceeded`
    /// instead of starting work this many milliseconds after receipt.
    pub deadline_ms: Option<u64>,
    /// Cluster single-hop marker: set by a daemon forwarding a request
    /// to the ring owner of its key. A daemon receiving `fwd:true`
    /// always serves the request locally, even if its own ring view
    /// disagrees — that is the single-hop guarantee (no forwarding
    /// loops when peers hold divergent ring views).
    pub fwd: bool,
    /// The endpoint payload.
    pub kind: RequestKind,
}

// The command goes right after the id, the body after the envelope:
// `{"v":1,"id":7,"cmd":"run","deadline_ms":250,"source":…}`.
json_codec!(struct Request {
    "v" = PROTOCOL_VERSION,
    id,
    kind: head,
    deadline_ms: skip,
    fwd: skip,
    kind: rest,
});

impl Request {
    /// Encodes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] for malformed JSON, an unknown
    /// `cmd`, or a protocol-version mismatch.
    pub fn from_json(src: &str) -> Result<Request, JsonError> {
        json::decode(src, "request")
    }
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed. `retry_after_ms` is set for backpressure
    /// rejections: the queue was full, try again after that long.
    Error {
        /// Echo of the request id (0 when the request line itself was
        /// unparseable).
        id: u64,
        /// What went wrong.
        error: String,
        /// Backpressure hint, when the failure is transient.
        retry_after_ms: Option<u64>,
    },
    /// `compile` succeeded.
    Compile {
        /// Echo of the request id.
        id: u64,
        /// Content-address of the artifact (hex).
        key: String,
        /// Whether the artifact came from the cache.
        cached: bool,
        /// Optimized IR, pretty-printed (byte-stable).
        ir: String,
        /// The cold compile's `PipelineReport` as raw JSON.
        report: String,
    },
    /// `run` succeeded.
    Run {
        /// Echo of the request id.
        id: u64,
        /// Content-address of the artifact used (hex).
        key: String,
        /// Whether the artifact came from the cache.
        cached: bool,
        /// Entry return value, rendered.
        ret: String,
        /// Virtual completion time.
        time_ns: u64,
        /// Simulator operation counts, rendered.
        stats: String,
        /// Program output lines.
        output: Vec<String>,
    },
    /// `pgo` succeeded.
    Pgo {
        /// Echo of the request id.
        id: u64,
        /// Sites measured by this instrumented run.
        sites: u64,
        /// Sites in the daemon's accumulated profile after merging.
        merged_sites: u64,
        /// Cached artifacts invalidated because the profile changed.
        invalidated: u64,
        /// Instrumented-run return value, rendered.
        ret: String,
    },
    /// `lint` succeeded.
    Lint {
        /// Echo of the request id.
        id: u64,
        /// Whether every parallel construct is provably independent.
        independent: bool,
        /// Diagnostics as a raw JSON array ([`earth_ir::diag`] format).
        diagnostics: String,
    },
    /// `stats` snapshot.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// The snapshot (boxed: much larger than the other variants).
        stats: Box<ServerStats>,
    },
    /// `ping` / `shutdown` acknowledged.
    Ok {
        /// Echo of the request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Error { id, .. }
            | Response::Compile { id, .. }
            | Response::Run { id, .. }
            | Response::Pgo { id, .. }
            | Response::Lint { id, .. }
            | Response::Stats { id, .. }
            | Response::Ok { id } => *id,
        }
    }

    /// The same response re-addressed to another request id. Used when
    /// one in-flight compile answers several coalesced requests: each
    /// follower gets the shared payload under its own id.
    #[must_use]
    pub fn with_id(mut self, new_id: u64) -> Response {
        match &mut self {
            Response::Error { id, .. }
            | Response::Compile { id, .. }
            | Response::Run { id, .. }
            | Response::Pgo { id, .. }
            | Response::Lint { id, .. }
            | Response::Stats { id, .. }
            | Response::Ok { id } => *id = new_id,
        }
        self
    }

    /// Encodes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] for malformed JSON or an unknown
    /// response kind.
    pub fn from_json(src: &str) -> Result<Response, JsonError> {
        json::decode(src, "response")
    }
}

// `ok` tells an error from an answer, and `kind` one answer from another.
json_codec!(enum Response {
    Error { id, "ok" = false, error, retry_after_ms: skip },
    Compile { id, "ok" = true, "kind" = "compile", key, cached, ir, report: raw },
    Run { id, "ok" = true, "kind" = "run", key, cached, ret, time_ns, stats, output },
    Pgo { id, "ok" = true, "kind" = "pgo", sites, merged_sites, invalidated, ret },
    Lint { id, "ok" = true, "kind" = "lint", independent, diagnostics: raw },
    Stats { id, "ok" = true, "kind" = "stats", stats },
    Ok { id, "ok" = true, "kind" = "ok" },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request {
                id: 1,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Compile {
                    source: "int main() { return 0; }\n".into(),
                    opts: CompileOptions::default(),
                },
            },
            Request {
                id: 2,
                deadline_ms: Some(250),
                fwd: true,
                kind: RequestKind::Run {
                    source: "line1\nline2 \"quoted\"\t".into(),
                    opts: CompileOptions {
                        optimize: false,
                        locality: true,
                        use_profile: true,
                    },
                    entry: "main".into(),
                    nodes: 8,
                    args: vec![Arg::Int(-3), Arg::Double(2.5), Arg::Double(4.0)],
                },
            },
            Request {
                id: 3,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Pgo {
                    source: "s".into(),
                    entry: "f".into(),
                    nodes: 2,
                    args: vec![],
                },
            },
            Request {
                id: 4,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Lint { source: "s".into() },
            },
            Request {
                id: 5,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Stats,
            },
            Request {
                id: 6,
                deadline_ms: Some(1),
                fwd: false,
                kind: RequestKind::Ping,
            },
            Request {
                id: 7,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Shutdown,
            },
        ];
        for req in cases {
            let line = req.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::from_json(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Error {
                id: 1,
                error: "queue full".into(),
                retry_after_ms: Some(50),
            },
            Response::Error {
                id: 2,
                error: "frontend: parse error\nat line 3".into(),
                retry_after_ms: None,
            },
            Response::Compile {
                id: 3,
                key: "00ff00ff00ff00ff".into(),
                cached: true,
                ir: "double distance(Point* p)\n{ ... }\n".into(),
                report: "{\"passes\":[],\"total_wall_ns\":0,\"cache\":{\"hits\":0,\"misses\":0,\"function_recomputes\":0,\"invalidations\":0}}".into(),
            },
            Response::Run {
                id: 4,
                key: "0123456789abcdef".into(),
                cached: false,
                ret: "5".into(),
                time_ns: 123456,
                stats: "read-data 3 | ...".into(),
                output: vec!["a".into(), "b\nc".into()],
            },
            Response::Pgo {
                id: 5,
                sites: 12,
                merged_sites: 40,
                invalidated: 2,
                ret: "6".into(),
            },
            Response::Lint {
                id: 6,
                independent: false,
                diagnostics: "[]".into(),
            },
            Response::Stats {
                id: 7,
                stats: Box::default(),
            },
            Response::Ok { id: 8 },
        ];
        for resp in cases {
            let line = resp.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::from_json(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let line = Request {
            id: 1,
            deadline_ms: None,
            fwd: false,
            kind: RequestKind::Ping,
        }
        .to_json()
        .replace("\"v\":1", "\"v\":99");
        assert!(Request::from_json(&line).is_err());
    }

    #[test]
    fn entry_nodes_args_default() {
        let line = r#"{"v":1,"id":9,"cmd":"run","source":"s","opts":{"optimize":true,"locality":true,"use_profile":false}}"#;
        match Request::from_json(line).unwrap().kind {
            RequestKind::Run {
                entry, nodes, args, ..
            } => {
                assert_eq!(entry, "main");
                assert_eq!(nodes, 1);
                assert!(args.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_nodes_is_rejected() {
        for cmd in ["run", "pgo"] {
            let line = format!(
                r#"{{"v":1,"id":9,"cmd":"{cmd}","source":"s","opts":{{"optimize":true,"locality":true,"use_profile":false}},"nodes":0}}"#
            );
            let err = Request::from_json(&line).unwrap_err();
            assert!(
                err.to_string().contains("`nodes` must be at least 1"),
                "{cmd}: {err}"
            );
        }
    }
}
