//! Golden wire bytes: `to_json` of one fixed `Request` and `Response` per
//! variant, compared with checked-in literals. The literals are the
//! protocol — a peer daemon, a spill file or a client built from another
//! commit reads exactly these bytes — so a change to the JSON writer must
//! leave every one of them alone.

use earth_serve::proto::{Arg, CompileOptions, Request, RequestKind, Response};

/// Every class of character the writer treats differently: the two-letter
/// escapes, a `\u00XX` control character at each end of the range, quote
/// and backslash, `/` (never escaped), two- to four-byte UTF-8.
const SOURCE: &str = "int main() {\n\treturn \"a\\b\"; // \u{0}\u{8}\u{c}\u{1f} /é€😀\r\n}";

fn request(id: u64, deadline_ms: Option<u64>, fwd: bool, kind: RequestKind) -> String {
    Request {
        id,
        deadline_ms,
        fwd,
        kind,
    }
    .to_json()
}

#[test]
fn request_wire_bytes_are_pinned() {
    let opts = CompileOptions {
        optimize: true,
        locality: false,
        use_profile: true,
    };
    let got = [
        request(
            1,
            None,
            false,
            RequestKind::Compile {
                source: SOURCE.into(),
                opts: CompileOptions::default(),
            },
        ),
        request(
            2,
            Some(250),
            true,
            RequestKind::Run {
                source: SOURCE.into(),
                opts,
                entry: "main".into(),
                nodes: 8,
                args: vec![Arg::Int(-3), Arg::Double(2.5), Arg::Double(4.0)],
            },
        ),
        request(
            3,
            None,
            false,
            RequestKind::Pgo {
                source: "s".into(),
                entry: "f\"g".into(),
                nodes: 2,
                args: vec![],
            },
        ),
        request(
            4,
            None,
            true,
            RequestKind::Lint {
                source: String::new(),
            },
        ),
        request(5, None, false, RequestKind::Stats),
        request(6, Some(1), false, RequestKind::Ping),
        request(7, None, false, RequestKind::Shutdown),
    ];
    let want = [
        r#"{"v":1,"id":1,"cmd":"compile","source":"int main() {\n\treturn \"a\\b\"; // \u0000\u0008\u000c\u001f /é€😀\r\n}","opts":{"optimize":true,"locality":true,"use_profile":false}}"#,
        r#"{"v":1,"id":2,"cmd":"run","deadline_ms":250,"fwd":true,"source":"int main() {\n\treturn \"a\\b\"; // \u0000\u0008\u000c\u001f /é€😀\r\n}","opts":{"optimize":true,"locality":false,"use_profile":true},"entry":"main","nodes":8,"args":[-3,2.5,4.0]}"#,
        r#"{"v":1,"id":3,"cmd":"pgo","source":"s","entry":"f\"g","nodes":2,"args":[]}"#,
        r#"{"v":1,"id":4,"cmd":"lint","fwd":true,"source":""}"#,
        r#"{"v":1,"id":5,"cmd":"stats"}"#,
        r#"{"v":1,"id":6,"cmd":"ping","deadline_ms":1}"#,
        r#"{"v":1,"id":7,"cmd":"shutdown"}"#,
    ];
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
        assert_eq!(Request::from_json(got).unwrap().to_json(), want);
    }
}

#[test]
fn response_wire_bytes_are_pinned() {
    let got = [
        Response::Error {
            id: 1,
            error: "queue full (64 jobs)".into(),
            retry_after_ms: Some(50),
        },
        Response::Error {
            id: 0,
            error: "bad request: JSON error at byte 3: bad escape\n\u{1}".into(),
            retry_after_ms: None,
        },
        Response::Compile {
            id: 3,
            key: "00ff00ff00ff00ff".into(),
            cached: true,
            ir: SOURCE.into(),
            report: r#"{"passes":[{"name":"opt\u0001","wall_ns":12}],"total_wall_ns":12}"#.into(),
        },
        Response::Run {
            id: 4,
            key: "0123456789abcdef".into(),
            cached: false,
            ret: "5".into(),
            time_ns: 123_456,
            stats: "read-data 3 | blkmov 1".into(),
            output: vec!["a".into(), "b\nc\u{b}".into(), String::new()],
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
            diagnostics: r#"[{"code":"PAR002","message":"racy \"s\""}]"#.into(),
        },
        Response::Stats {
            id: 7,
            stats: Box::default(),
        },
        Response::Ok { id: 8 },
    ]
    .map(|resp| resp.to_json());
    let want = [
        r#"{"id":1,"ok":false,"error":"queue full (64 jobs)","retry_after_ms":50}"#,
        r#"{"id":0,"ok":false,"error":"bad request: JSON error at byte 3: bad escape\n\u0001"}"#,
        r#"{"id":3,"ok":true,"kind":"compile","key":"00ff00ff00ff00ff","cached":true,"ir":"int main() {\n\treturn \"a\\b\"; // \u0000\u0008\u000c\u001f /é€😀\r\n}","report":{"passes":[{"name":"opt\u0001","wall_ns":12}],"total_wall_ns":12}}"#,
        r#"{"id":4,"ok":true,"kind":"run","key":"0123456789abcdef","cached":false,"ret":"5","time_ns":123456,"stats":"read-data 3 | blkmov 1","output":["a","b\nc\u000b",""]}"#,
        r#"{"id":5,"ok":true,"kind":"pgo","sites":12,"merged_sites":40,"invalidated":2,"ret":"6"}"#,
        r#"{"id":6,"ok":true,"kind":"lint","independent":false,"diagnostics":[{"code":"PAR002","message":"racy \"s\""}]}"#,
        STATS,
        r#"{"id":8,"ok":true,"kind":"ok"}"#,
    ];
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
        // Decoding and encoding again gives the same bytes: `report` and
        // `diagnostics` travel as raw JSON through `Value::render`.
        assert_eq!(Response::from_json(got).unwrap().to_json(), want);
    }
}

/// `Response::Stats` over `ServerStats::default()`: every field of the
/// snapshot, in wire order.
const STATS: &str = r#"{"id":7,"ok":true,"kind":"stats","stats":{"uptime_ms":0,"toolchain":"","workers":0,"queue_depth":0,"queue_capacity":0,"rejected":0,"deadline_misses":0,"errors":0,"analyses":0,"functions_reused":0,"functions_reoptimized":0,"escalations":0,"open_connections":0,"idle_closed":0,"batched_requests":0,"coalesced_hits":0,"requests":{},"cache":{"hits":0,"misses":0,"evictions":0,"invalidations":0,"spill_writes":0,"spill_hits":0,"entries":0,"pending":0},"pass_walls":{}}}"#;
