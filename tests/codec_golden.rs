//! Golden bytes for every JSON surface that `wire_golden.rs` (the
//! protocol lines) does not cover: a populated `stats` snapshot, the
//! diagnostics array of `lint --json`, a profile file, the
//! `--report-json` report, an artifact spill file and a snapshot-inputs
//! file. A daemon, a client or a tool built from another commit reads
//! exactly these bytes, so a change to any encoder must leave every
//! literal alone. Each surface that can be decoded is also decoded and
//! encoded again, which must give the same bytes.

use earthc::earth_ir::diag::{self, Diagnostic};
use earthc::earth_ir::{FuncId, Label, SiteId};
use earthc::earth_profile::SiteCounters;
use earthc::earth_serve::proto::{CompileOptions, Response};
use earthc::earth_serve::stats::{
    CacheCounters, ClusterStats, Histogram, PeerStats, ServerStats, HIST_BUCKETS,
};
use earthc::earth_serve::{Artifact, Backend as _};
use earthc::serve::PipelineBackend;
use earthc::{CacheStats, LayerTime, PipelineReport, Profile};
use std::time::Duration;

fn stats() -> ServerStats {
    let mut buckets = [0u64; HIST_BUCKETS];
    buckets[0] = 3;
    buckets[4] = 1;
    buckets[HIST_BUCKETS - 1] = 2;
    let busy = Histogram {
        count: 6,
        total_ns: 90_001_234,
        buckets,
    };
    let mut quick = Histogram::default();
    quick.record(1_500);
    ServerStats {
        uptime_ms: 98_765,
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
            peers: vec![
                PeerStats {
                    addr: "127.0.0.1:7101".into(),
                    healthy: true,
                    forwarded: 4,
                    failures: 0,
                },
                PeerStats {
                    addr: "[::1]:7102".into(),
                    healthy: false,
                    forwarded: 0,
                    failures: 3,
                },
            ],
            forwarded: 4,
            remote_fills: 1,
            ring_rebalances: 1,
        }),
        requests: [("compile", 10), ("ping", 1), ("stats", 2)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
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
        pass_walls: [("locality", quick), ("optimize", busy)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

const STATS: &str = r#"{"uptime_ms":98765,"toolchain":"earthc/0.1.0 proto/1","workers":4,"queue_depth":1,"queue_capacity":64,"rejected":2,"deadline_misses":1,"errors":3,"analyses":7,"functions_reused":9,"functions_reoptimized":4,"escalations":1,"open_connections":5,"idle_closed":2,"batched_requests":6,"coalesced_hits":3,"requests":{"compile":10,"ping":1,"stats":2},"cache":{"hits":8,"misses":2,"evictions":1,"invalidations":1,"spill_writes":1,"spill_hits":1,"entries":1,"pending":0},"pass_walls":{"locality":{"count":1,"total_ns":1500,"buckets":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"optimize":{"count":6,"total_ns":90001234,"buckets":[3,0,0,0,1,0,0,0,0,0,0,0,0,0,0,2]}},"cluster":{"self_addr":"127.0.0.1:7100","peers":[{"addr":"127.0.0.1:7101","healthy":true,"forwarded":4,"failures":0},{"addr":"[::1]:7102","healthy":false,"forwarded":0,"failures":3}],"forwarded":4,"remote_fills":1,"ring_rebalances":1}}"#;

#[test]
fn populated_stats_bytes_are_pinned() {
    let s = stats();
    assert_eq!(s.to_json(), STATS);
    assert_eq!(ServerStats::from_json(STATS).unwrap(), s);
    let line = Response::Stats {
        id: 7,
        stats: Box::new(s),
    }
    .to_json();
    let want = format!(r#"{{"id":7,"ok":true,"kind":"stats","stats":{STATS}}}"#);
    assert_eq!(line, want);
    assert_eq!(Response::from_json(&line).unwrap().to_json(), want);
}

const DIAGNOSTICS: &str = r#"[{"code":"PLC001","severity":"error","func":"walk","message":"hoisted read of `p->x` crosses a write","labels":[{"label":4,"message":"read inserted here"},{"label":9,"message":"writes \"p\"\\"}],"notes":["re-derived from the rw-sets","tab\there\u0000\u001f"]},{"code":"PAR000","severity":"note","func":null,"message":"forall is independent\r\n","labels":[],"notes":[]},{"code":"DCM002","severity":"warning","func":"f\u0007","message":"λ → ∀ 😀","labels":[{"label":0,"message":""}],"notes":["/"]}]"#;

#[test]
fn diagnostics_array_bytes_are_pinned() {
    let batch = vec![
        Diagnostic::error("PLC001", "hoisted read of `p->x` crosses a write")
            .in_func("walk")
            .with_label(Label(4), "read inserted here")
            .with_label(Label(9), "writes \"p\"\\")
            .with_note("re-derived from the rw-sets")
            .with_note("tab\there\u{0}\u{1f}"),
        Diagnostic::note("PAR000", "forall is independent\r\n"),
        Diagnostic::warning("DCM002", "λ → ∀ 😀")
            .in_func("f\u{7}")
            .with_label(Label(0), "")
            .with_note("/"),
    ];
    assert_eq!(diag::to_json_array(&batch), DIAGNOSTICS);
    assert_eq!(diag::from_json_array(DIAGNOSTICS).unwrap(), batch);
}

const PROFILE: &str = r#"{"version":1,"sites":{"f0:":{"execs":5,"bytes":40,"stall_ns":0,"taken":0,"not_taken":0},"f2:1.0.3":{"execs":0,"bytes":0,"stall_ns":1250,"taken":7,"not_taken":1}}}"#;

#[test]
fn profile_bytes_are_pinned() {
    let mut p = Profile::new();
    p.record(
        SiteId::new(FuncId(2), vec![1, 0, 3]),
        SiteCounters {
            stall_ns: 1250,
            taken: 7,
            not_taken: 1,
            ..SiteCounters::default()
        },
    );
    p.record(
        SiteId::new(FuncId(0), vec![]),
        SiteCounters {
            execs: 5,
            bytes: 40,
            ..SiteCounters::default()
        },
    );
    assert_eq!(p.to_json(), PROFILE);
    assert_eq!(Profile::from_json(PROFILE).unwrap(), p);
}

const REPORT: &str = r#"{"passes":[{"name":"inline","wall_ns":1500,"cache":{"hits":0,"misses":0,"function_recomputes":0,"invalidations":1,"escalations":0},"counters":{},"diagnostics":[]},{"name":"optimize","wall_ns":2000001,"cache":{"hits":1,"misses":1,"function_recomputes":2,"invalidations":3,"escalations":1},"counters":{"pipelined_reads":2,"blocked_spans":0},"diagnostics":[{"code":"PAR002","severity":"warning","func":"main","message":"racy \"s\"","labels":[{"label":3,"message":"here"}],"notes":[]}]}],"frontend":{"lex+parse_ns":700,"lower_ns":300},"backend":{"codegen_ns":90},"total_wall_ns":2001501,"cache":{"hits":1,"misses":1,"function_recomputes":2,"invalidations":4,"escalations":1}}"#;

/// Only the layers the driver timed are written: no `frontend` or
/// `backend` object when their rows are empty.
const REPORT_UNTIMED: &str = r#"{"passes":[],"total_wall_ns":0,"cache":{"hits":0,"misses":0,"function_recomputes":0,"invalidations":0,"escalations":0}}"#;

#[test]
fn pipeline_report_bytes_are_pinned() {
    use earthc::earth_pass::PassReport;
    let inline = PassReport {
        name: "inline",
        wall: Duration::from_nanos(1_500),
        cache: CacheStats {
            invalidations: 1,
            ..CacheStats::default()
        },
        counters: vec![],
        diagnostics: vec![],
    };
    let optimize = PassReport {
        name: "optimize",
        wall: Duration::from_nanos(2_000_001),
        cache: CacheStats {
            hits: 1,
            misses: 1,
            function_recomputes: 2,
            invalidations: 3,
            escalations: 1,
        },
        counters: vec![("pipelined_reads", 2), ("blocked_spans", 0)],
        diagnostics: vec![Diagnostic::warning("PAR002", "racy \"s\"")
            .in_func("main")
            .with_label(Label(3), "here")],
    };
    let layer = |name, ns| LayerTime {
        name,
        wall: Duration::from_nanos(ns),
    };
    let report = PipelineReport {
        passes: vec![inline, optimize],
        cache: CacheStats {
            hits: 1,
            misses: 1,
            function_recomputes: 2,
            invalidations: 4,
            escalations: 1,
        },
        frontend: vec![layer("lex+parse", 700), layer("lower", 300)],
        backend: vec![layer("codegen", 90)],
    };
    assert_eq!(report.to_json(), REPORT);
    assert_eq!(PipelineReport::default().to_json(), REPORT_UNTIMED);
}

const SPILL: &str = r#"{"source":"int main() {\n\treturn \"a\\b\"; // \u0000\u001f /é€😀\r\n}","optimize":true,"locality":false,"use_profile":true,"ir":"int main()\n{\n  return 0;\n}\n","report":{"passes":[{"name":"opt\u0001","wall_ns":12}],"total_wall_ns":12}}"#;

#[test]
fn artifact_spill_bytes_are_pinned() {
    let art: Artifact<()> = Artifact {
        source: "int main() {\n\treturn \"a\\b\"; // \u{0}\u{1f} /é€😀\r\n}".into(),
        opts: CompileOptions {
            optimize: true,
            locality: false,
            use_profile: true,
        },
        ir: "int main()\n{\n  return 0;\n}\n".into(),
        report: r#"{"passes":[{"name":"opt\u0001","wall_ns":12}],"total_wall_ns":12}"#.into(),
        exec: Some(()),
    };
    assert_eq!(art.to_spill_json(), SPILL);
    let back = Artifact::<()>::from_spill_json(SPILL).unwrap();
    assert!(back.exec.is_none());
    assert_eq!(back.to_spill_json(), SPILL);
}

/// Two functions, and a comment with every class of character the
/// writer escapes differently.
const SNAPSHOT_SOURCE: &str =
    "int f(int x) { return x + 1; }\nint main() {\n\treturn f(2); // \"q\" \\ \u{1} é\r\n}\n";

const SNAPSHOT_INPUTS: &str = r#"{"source":"int f(int x) { return x + 1; }\nint main() {\n\treturn f(2); // \"q\" \\ \u0001 é\r\n}\n","optimize":true,"locality":false,"use_profile":false}"#;

/// A backend with a spill directory persists each snapshot as the
/// `(source, opts)` pair that produced it; a new backend over the same
/// directory replays the file.
#[test]
fn snapshot_inputs_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("earthc-codec-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CompileOptions {
        optimize: true,
        locality: false,
        use_profile: false,
    };
    PipelineBackend::with_spill(&dir)
        .compile(SNAPSHOT_SOURCE, &opts)
        .unwrap();
    let files: Vec<_> = std::fs::read_dir(dir.join("snapshots"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    assert_eq!(std::fs::read_to_string(&files[0]).unwrap(), SNAPSHOT_INPUTS);
    // Restoring replays the file: the new backend's first compile of the
    // same program re-optimizes no function.
    let out = PipelineBackend::with_spill(&dir)
        .compile(SNAPSHOT_SOURCE, &opts)
        .unwrap();
    assert_eq!((out.functions_reused, out.functions_reoptimized), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
