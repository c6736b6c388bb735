//! Malformed input for every JSON decoder: each line is refused with an
//! error, never a panic, and the message names what was wrong with it.
//! Beside the refusals, two rules every decoder keeps: a duplicated key
//! is read at its first occurrence, and an unknown key is ignored —
//! except in a profile, whose reader is strict.

use earthc::earth_ir::diag::{self, Diagnostic};
use earthc::earth_serve::proto::{Request, RequestKind, Response};
use earthc::earth_serve::stats::ServerStats;
use earthc::earth_serve::Artifact;
use earthc::Profile;

/// Asserts that every input is refused with a message holding each of
/// its needles.
fn refuses<T: std::fmt::Debug, E: std::fmt::Display>(
    decode: impl Fn(&str) -> Result<T, E>,
    cases: &[(&str, &[&str])],
) {
    for (input, needles) in cases {
        let err = match decode(input) {
            Ok(v) => panic!("accepted {input}: {v:?}"),
            Err(e) => e.to_string(),
        };
        for needle in *needles {
            assert!(err.contains(needle), "{input}: `{err}` lacks `{needle}`");
        }
    }
}

const OPTS: &str = r#""opts":{"optimize":true,"locality":true,"use_profile":false}"#;

#[test]
fn malformed_requests_are_refused() {
    let run = |extra: &str| format!(r#"{{"v":1,"id":9,"cmd":"run","source":"s",{OPTS}{extra}}}"#);
    let cases = [
        (r#"{"v":1,"cmd":"ping"}"#.to_string(), &["`id`"][..]),
        (r#"{"v":1,"id":1,"cmd":"lint"}"#.into(), &["`source`"]),
        (r#"{"v":1,"id":1,"cmd":"compile","source":"s"}"#.into(), &["`opts`"]),
        (
            r#"{"v":1,"id":1,"cmd":"compile","source":"s","opts":{"optimize":1,"locality":true,"use_profile":false}}"#.into(),
            &["`optimize`"],
        ),
        (r#"{"v":1,"id":1,"cmd":"lint","source":3}"#.into(), &["`source`"]),
        (r#"{"v":1,"id":"1","cmd":"ping"}"#.into(), &["`id`"]),
        (r#"{"v":1,"id":1,"cmd":"bogus"}"#.into(), &["unknown", "cmd `bogus`"]),
        (r#"{"v":1,"id":1}"#.into(), &["cmd"]),
        (r#"{"v":2,"id":1,"cmd":"ping"}"#.into(), &["unsupported", "(expected 1)"]),
        (r#"{"id":1,"cmd":"ping"}"#.into(), &["`v`"]),
        (run(r#","nodes":0"#), &["`nodes` must be at least 1"]),
        (run(r#","nodes":65536"#), &["`nodes`"]),
        (run(r#","nodes":-1"#), &["`nodes`"]),
        (run(r#","entry":7"#), &["`entry`"]),
        (
            r#"{"v":1,"id":1,"cmd":"ping","deadline_ms":-5}"#.into(),
            &["`deadline_ms`"],
        ),
        (run(r#","args":[1,"x"]"#), &["args"]),
        (run(r#","args":[1,null]"#), &["args"]),
        (run(r#","args":3"#), &["args"]),
        ("[]".into(), &["request"]),
        ("{".into(), &["JSON error"]),
    ];
    let cases: Vec<(&str, &[&str])> = cases.iter().map(|(s, n)| (s.as_str(), *n)).collect();
    refuses(Request::from_json, &cases);
    // The first of two `id`s is the id; an unknown key is ignored.
    let req = Request::from_json(r#"{"v":1,"id":1,"id":2,"cmd":"ping","x":{"y":[]}}"#).unwrap();
    assert_eq!((req.id, req.kind), (1, RequestKind::Ping));
    // A missing or null `entry`, `nodes`, `args` or `deadline_ms` takes
    // its default.
    let req = Request::from_json(&run(
        r#","entry":null,"nodes":null,"args":null,"deadline_ms":null"#,
    ))
    .unwrap();
    assert_eq!(req.deadline_ms, None);
    match req.kind {
        RequestKind::Run {
            entry, nodes, args, ..
        } => assert_eq!((entry.as_str(), nodes, args.len()), ("main", 1, 0)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn malformed_responses_are_refused() {
    let cases: &[(&str, &[&str])] = &[
        (r#"{"ok":true,"kind":"ok"}"#, &["`id`"]),
        (r#"{"id":1,"kind":"ok"}"#, &["ok"]),
        (r#"{"id":1,"ok":"yes","kind":"ok"}"#, &["ok"]),
        (
            r#"{"id":1,"ok":true,"kind":"bogus"}"#,
            &["unknown", "kind `bogus`"],
        ),
        (r#"{"id":1,"ok":true}"#, &["kind"]),
        (r#"{"id":1,"ok":false}"#, &["`error`"]),
        (
            r#"{"id":1,"ok":false,"error":"e","retry_after_ms":-1}"#,
            &["`retry_after_ms`"],
        ),
        (
            r#"{"id":1,"ok":true,"kind":"compile","cached":true,"ir":"","report":{}}"#,
            &["`key`"],
        ),
        (
            r#"{"id":1,"ok":true,"kind":"compile","key":"k","cached":true,"ir":""}"#,
            &["`report`"],
        ),
        (
            r#"{"id":1,"ok":true,"kind":"run","key":"k","cached":true,"ret":"0","time_ns":1.5,"stats":"","output":[]}"#,
            &["`time_ns`"],
        ),
        (
            r#"{"id":1,"ok":true,"kind":"run","key":"k","cached":true,"ret":"0","time_ns":1,"stats":"","output":["a",2]}"#,
            &["output"],
        ),
        (
            r#"{"id":1,"ok":true,"kind":"lint","independent":true}"#,
            &["`diagnostics`"],
        ),
        (r#"{"id":1,"ok":true,"kind":"stats"}"#, &["`stats`"]),
        (
            r#"{"id":1,"ok":true,"kind":"stats","stats":[]}"#,
            &["stats"],
        ),
    ];
    refuses(Response::from_json, cases);
    let resp =
        Response::from_json(r#"{"id":4,"id":5,"ok":true,"kind":"ok","extra":null}"#).unwrap();
    assert_eq!(resp, Response::Ok { id: 4 });
}

#[test]
fn malformed_stats_are_refused() {
    let good = ServerStats::default().to_json();
    let with = |from: &str, to: &str| {
        assert!(good.contains(from), "{from}");
        good.replacen(from, to, 1)
    };
    let buckets = format!("[{}]", ["0"; 16].join(","));
    let cases = [
        (
            with(r#""workers":0"#, r#""workers":"4""#),
            &["`workers`"][..],
        ),
        (with(r#""workers":0,"#, ""), &["`workers`"]),
        (with(r#","cache":{"hits":0,"#, r#","cache":{"#), &["`hits`"]),
        (with(r#""requests":{}"#, r#""requests":[]"#), &["requests"]),
        (
            with(r#""requests":{}"#, r#""requests":{"ping":-1}"#),
            &["request"],
        ),
        (
            with(r#""toolchain":"""#, r#""toolchain":null"#),
            &["`toolchain`"],
        ),
        (
            with(
                r#""pass_walls":{}"#,
                r#""pass_walls":{"optimize":{"count":1,"total_ns":1,"buckets":[0,1]}}"#,
            ),
            &["bucket"],
        ),
        (
            with(
                r#""pass_walls":{}"#,
                &format!(r#""pass_walls":{{"optimize":{{"count":1,"buckets":{buckets}}}}}"#),
            ),
            &["`total_ns`"],
        ),
        (
            with(
                r#""pass_walls":{}"#,
                r#""pass_walls":{},"cluster":{"self_addr":"a","peers":[{"addr":"b"}],"forwarded":0,"remote_fills":0,"ring_rebalances":0}"#,
            ),
            &["`healthy`"],
        ),
    ];
    let cases: Vec<(&str, &[&str])> = cases.iter().map(|(s, n)| (s.as_str(), *n)).collect();
    refuses(ServerStats::from_json, &cases);
    let dup = with(r#""workers":0"#, r#""workers":3,"workers":5,"unknown":[1]"#);
    assert_eq!(ServerStats::from_json(&dup).unwrap().workers, 3);
}

#[test]
fn malformed_diagnostics_are_refused() {
    let d = |fields: &str| format!("[{{{fields}}}]");
    let full = r#""code":"X","severity":"error","func":null,"message":"m","labels":[],"notes":[]"#;
    let cases = [
        (
            d(&full.replace(r#""message":"m","#, "")),
            &["`message`"][..],
        ),
        (
            d(&full.replace(r#""code":"X""#, r#""code":3"#)),
            &["`code`"],
        ),
        (d(&full.replace("error", "fatal")), &["severity"]),
        (
            d(&full.replace(r#""severity":"error","#, "")),
            &["severity"],
        ),
        (d(&full.replace("null", "7")), &["`func`"]),
        (
            d(&full.replace(r#""labels":[]"#, r#""labels":{}"#)),
            &["`labels`"],
        ),
        (
            d(&full.replace(r#""labels":[]"#, r#""labels":[{"label":-1,"message":""}]"#)),
            &["`label`"],
        ),
        (
            d(&full.replace(
                r#""labels":[]"#,
                r#""labels":[{"label":4294967296,"message":""}]"#,
            )),
            &["`label`"],
        ),
        (
            d(&full.replace(r#""notes":[]"#, r#""notes":[1]"#)),
            &["notes"],
        ),
        ("[{}".into(), &["JSON error"]),
        (r#"{"code":"X"}"#.into(), &["array"]),
    ];
    let cases: Vec<(&str, &[&str])> = cases.iter().map(|(s, n)| (s.as_str(), *n)).collect();
    refuses(diag::from_json_array, &cases);
    let dup = d(&format!(r#""code":"A",{full},"extra":true"#));
    assert_eq!(
        diag::from_json_array(&dup).unwrap(),
        [Diagnostic::error("A", "m")]
    );
}

#[test]
fn malformed_profiles_are_refused() {
    let cases: &[(&str, &[&str])] = &[
        (r#"{"sites":{}}"#, &["`version`"]),
        (
            r#"{"version":2,"sites":{}}"#,
            &["unsupported", "version 2 (expected 1)"],
        ),
        (r#"{"version":"1","sites":{}}"#, &["version"]),
        (r#"{"version":1,"sites":[]}"#, &["`sites`"]),
        (r#"{"version":1,"sites":{"nope":{}}}"#, &["`nope`"]),
        (
            r#"{"version":1,"sites":{"f0:":{"mystery":3}}}"#,
            &["`mystery`"],
        ),
        (
            r#"{"version":1,"sites":{"f0:":{"execs":-3}}}"#,
            &["`execs`"],
        ),
        (r#"{"version":1,"sites":{"f0:":7}}"#, &["object"]),
        (r#"{"version":1,"sites":{},"extra":1}"#, &["`extra`"]),
    ];
    refuses(Profile::from_json, cases);
}

/// A spill file that does not decode is a cache miss, not an error
/// message: the decoder only says no.
#[test]
fn malformed_spill_files_are_refused() {
    let good = r#"{"source":"s","optimize":true,"locality":false,"use_profile":false,"ir":"i","report":{}}"#;
    assert!(Artifact::<()>::from_spill_json(good).is_some());
    for bad in [
        good.replace(r#""ir":"i","#, ""),
        good.replace(r#","report":{}"#, ""),
        good.replace(r#""optimize":true"#, r#""optimize":"yes""#),
        good.replace(r#""source":"s""#, r#""source":null"#),
        good.replace('{', "["),
        String::new(),
    ] {
        assert!(Artifact::<()>::from_spill_json(&bad).is_none(), "{bad}");
    }
}
