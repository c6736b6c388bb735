//! The `earthd` wire protocol: newline-delimited JSON.
//!
//! One request per line, one response per line, matching the repo's
//! serde-free JSON convention ([`earth_ir::json`]). Every request
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
use earth_ir::json::{self, Obj, ObjectExt as _, Value};

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

impl CompileOptions {
    fn to_json(&self) -> String {
        Obj::new()
            .bool("optimize", self.optimize)
            .bool("locality", self.locality)
            .bool("use_profile", self.use_profile)
            .finish()
    }

    fn from_value(v: &Value) -> Result<CompileOptions, json::JsonError> {
        let obj = v.as_object("opts")?;
        Ok(CompileOptions {
            optimize: obj.get_bool("optimize")?,
            locality: obj.get_bool("locality")?,
            use_profile: obj.get_bool("use_profile")?,
        })
    }
}

/// An entry-function argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// 64-bit integer argument.
    Int(i64),
    /// 64-bit float argument.
    Double(f64),
}

fn args_to_json(args: &[Arg]) -> String {
    let mut s = String::from("[");
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match a {
            Arg::Int(n) => s.push_str(&n.to_string()),
            Arg::Double(x) => s.push_str(&json::float(*x)),
        }
    }
    s.push(']');
    s
}

fn args_from_value(v: &Value) -> Result<Vec<Arg>, json::JsonError> {
    v.as_array("args")?
        .iter()
        .map(|item| match item {
            Value::Int(n) => Ok(Arg::Int(*n)),
            Value::Float(x) => Ok(Arg::Double(*x)),
            _ => Err(json::JsonError::shape("args must be numbers")),
        })
        .collect()
}

// Readers of the optional request fields; `Request::from_json` runs each
// only for the endpoints that carry the field.

fn opts_field(obj: &[(String, Value)]) -> Result<CompileOptions, json::JsonError> {
    CompileOptions::from_value(
        obj.field("opts")
            .ok_or_else(|| json::JsonError::shape("missing `opts`"))?,
    )
}

fn entry_or_main(obj: &[(String, Value)]) -> Result<String, json::JsonError> {
    match obj.field("entry") {
        None | Some(Value::Null) => Ok("main".into()),
        Some(v) => Ok(v.as_str("`entry`")?.to_string()),
    }
}

fn nodes_or_one(obj: &[(String, Value)]) -> Result<u16, json::JsonError> {
    match obj.field("nodes") {
        None | Some(Value::Null) => Ok(1),
        Some(v) => {
            let n = v.as_u64("`nodes`")?;
            match u16::try_from(n) {
                Ok(0) => Err(json::JsonError::shape("`nodes` must be at least 1")),
                Ok(n) => Ok(n),
                Err(_) => Err(json::JsonError::shape("`nodes` must fit u16")),
            }
        }
    }
}

fn args_or_none(obj: &[(String, Value)]) -> Result<Vec<Arg>, json::JsonError> {
    match obj.field("args") {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(v) => args_from_value(v),
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

impl Request {
    /// Encodes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        Request::line(self.id, self.deadline_ms, self.fwd, &self.kind)
    }

    /// [`Request::to_json`] from borrowed parts: a sender that changes
    /// only the envelope (a retry's new id, a forward's `fwd` marker)
    /// does not clone the source text to do it.
    pub(crate) fn line(id: u64, deadline_ms: Option<u64>, fwd: bool, kind: &RequestKind) -> String {
        let mut o = Obj::new()
            .u64("v", PROTOCOL_VERSION)
            .u64("id", id)
            .str("cmd", kind.endpoint());
        if let Some(d) = deadline_ms {
            o = o.u64("deadline_ms", d);
        }
        if fwd {
            o = o.bool("fwd", true);
        }
        match kind {
            RequestKind::Compile { source, opts } => o
                .str("source", source)
                .raw("opts", &opts.to_json())
                .finish(),
            RequestKind::Run {
                source,
                opts,
                entry,
                nodes,
                args,
            } => o
                .str("source", source)
                .raw("opts", &opts.to_json())
                .str("entry", entry)
                .u64("nodes", *nodes as u64)
                .raw("args", &args_to_json(args))
                .finish(),
            RequestKind::Pgo {
                source,
                entry,
                nodes,
                args,
            } => o
                .str("source", source)
                .str("entry", entry)
                .u64("nodes", *nodes as u64)
                .raw("args", &args_to_json(args))
                .finish(),
            RequestKind::Lint { source } => o.str("source", source).finish(),
            RequestKind::Stats | RequestKind::Ping | RequestKind::Shutdown => o.finish(),
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] for malformed JSON, an unknown
    /// `cmd`, or a protocol-version mismatch.
    pub fn from_json(src: &str) -> Result<Request, json::JsonError> {
        let mut obj = json::parse(src)?.into_object("request")?;
        let version = obj.get_u64("v")?;
        if version != PROTOCOL_VERSION {
            return Err(json::JsonError::shape(format!(
                "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
            )));
        }
        let id = obj.get_u64("id")?;
        let deadline_ms = match obj.field("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64("`deadline_ms`")?),
        };
        let fwd = matches!(obj.field("fwd"), Some(Value::Bool(true)));
        let kind = match obj.take_str("cmd")?.as_str() {
            "compile" => RequestKind::Compile {
                source: obj.take_str("source")?,
                opts: opts_field(&obj)?,
            },
            "run" => RequestKind::Run {
                source: obj.take_str("source")?,
                opts: opts_field(&obj)?,
                entry: entry_or_main(&obj)?,
                nodes: nodes_or_one(&obj)?,
                args: args_or_none(&obj)?,
            },
            "pgo" => RequestKind::Pgo {
                source: obj.take_str("source")?,
                entry: entry_or_main(&obj)?,
                nodes: nodes_or_one(&obj)?,
                args: args_or_none(&obj)?,
            },
            "lint" => RequestKind::Lint {
                source: obj.take_str("source")?,
            },
            "stats" => RequestKind::Stats,
            "ping" => RequestKind::Ping,
            "shutdown" => RequestKind::Shutdown,
            other => {
                return Err(json::JsonError::shape(format!("unknown cmd `{other}`")));
            }
        };
        Ok(Request {
            id,
            deadline_ms,
            fwd,
            kind,
        })
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
        match self {
            Response::Error {
                id,
                error,
                retry_after_ms,
            } => {
                let mut o = Obj::new()
                    .u64("id", *id)
                    .bool("ok", false)
                    .str("error", error);
                if let Some(ms) = retry_after_ms {
                    o = o.u64("retry_after_ms", *ms);
                }
                o.finish()
            }
            Response::Compile {
                id,
                key,
                cached,
                ir,
                report,
            } => Obj::new()
                .u64("id", *id)
                .bool("ok", true)
                .str("kind", "compile")
                .str("key", key)
                .bool("cached", *cached)
                .str("ir", ir)
                .raw("report", report)
                .finish(),
            Response::Run {
                id,
                key,
                cached,
                ret,
                time_ns,
                stats,
                output,
            } => Obj::new()
                .u64("id", *id)
                .bool("ok", true)
                .str("kind", "run")
                .str("key", key)
                .bool("cached", *cached)
                .str("ret", ret)
                .u64("time_ns", *time_ns)
                .str("stats", stats)
                .str_array("output", output)
                .finish(),
            Response::Pgo {
                id,
                sites,
                merged_sites,
                invalidated,
                ret,
            } => Obj::new()
                .u64("id", *id)
                .bool("ok", true)
                .str("kind", "pgo")
                .u64("sites", *sites)
                .u64("merged_sites", *merged_sites)
                .u64("invalidated", *invalidated)
                .str("ret", ret)
                .finish(),
            Response::Lint {
                id,
                independent,
                diagnostics,
            } => Obj::new()
                .u64("id", *id)
                .bool("ok", true)
                .str("kind", "lint")
                .bool("independent", *independent)
                .raw("diagnostics", diagnostics)
                .finish(),
            Response::Stats { id, stats } => Obj::new()
                .u64("id", *id)
                .bool("ok", true)
                .str("kind", "stats")
                .raw("stats", &stats.to_json())
                .finish(),
            Response::Ok { id } => Obj::new()
                .u64("id", *id)
                .bool("ok", true)
                .str("kind", "ok")
                .finish(),
        }
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] for malformed JSON or an unknown
    /// response kind.
    pub fn from_json(src: &str) -> Result<Response, json::JsonError> {
        let mut obj = json::parse(src)?.into_object("response")?;
        let id = obj.get_u64("id")?;
        if !obj.get_bool("ok")? {
            return Ok(Response::Error {
                id,
                error: obj.take_str("error")?,
                retry_after_ms: match obj.field("retry_after_ms") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(v.as_u64("`retry_after_ms`")?),
                },
            });
        }
        let raw = |obj: &[(String, Value)], key: &str| {
            obj.field(key)
                .map(Value::render)
                .ok_or_else(|| json::JsonError::shape(format!("missing `{key}`")))
        };
        match obj.take_str("kind")?.as_str() {
            "compile" => Ok(Response::Compile {
                id,
                key: obj.take_str("key")?,
                cached: obj.get_bool("cached")?,
                ir: obj.take_str("ir")?,
                report: raw(&obj, "report")?,
            }),
            "run" => Ok(Response::Run {
                id,
                key: obj.take_str("key")?,
                cached: obj.get_bool("cached")?,
                ret: obj.take_str("ret")?,
                time_ns: obj.get_u64("time_ns")?,
                stats: obj.take_str("stats")?,
                output: obj
                    .get_array("output")?
                    .iter()
                    .map(|v| v.as_str("output line").map(str::to_string))
                    .collect::<Result<_, _>>()?,
            }),
            "pgo" => Ok(Response::Pgo {
                id,
                sites: obj.get_u64("sites")?,
                merged_sites: obj.get_u64("merged_sites")?,
                invalidated: obj.get_u64("invalidated")?,
                ret: obj.take_str("ret")?,
            }),
            "lint" => Ok(Response::Lint {
                id,
                independent: obj.get_bool("independent")?,
                diagnostics: raw(&obj, "diagnostics")?,
            }),
            "stats" => Ok(Response::Stats {
                id,
                stats: Box::new(ServerStats::from_value(
                    obj.field("stats")
                        .ok_or_else(|| json::JsonError::shape("missing `stats`"))?,
                )?),
            }),
            "ok" => Ok(Response::Ok { id }),
            other => Err(json::JsonError::shape(format!(
                "unknown response kind `{other}`"
            ))),
        }
    }
}

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
