#![warn(missing_docs)]
//! `earthd` serving layer: a concurrent compile-and-run TCP daemon with
//! a content-addressed artifact cache.
//!
//! This crate owns everything about *serving* — the newline-delimited
//! JSON protocol ([`proto`]), the bounded worker pool ([`pool`]), the
//! single-flight artifact cache ([`cache`]), observability ([`stats`]),
//! the event-driven TCP server ([`server`]), the consistent-hash
//! cluster layer ([`ring`], [`cluster`]), and a blocking client
//! ([`client`]) — but nothing about *compiling*. Compilation is behind
//! the [`Backend`] trait, implemented by the root `earthc` package over
//! its `Pipeline`; that keeps this crate's only dependency `earth-ir`
//! (for the shared JSON module) and avoids a dependency cycle with the
//! compiler it serves.
//!
//! The point of the cache: a repeated identical compile request — same
//! source, same options, same profile, same toolchain — is answered
//! from the cache with **zero** additional whole-program analyses, and
//! N clients stampeding one popular key trigger exactly one compile.

pub mod cache;
pub mod client;
pub mod cluster;
pub mod hash;
mod net;
pub mod pool;
pub mod proto;
pub mod ring;
pub mod server;
pub mod stats;

use earth_ir::json;
use proto::{Arg, CompileOptions};

/// A cached compilation artifact.
///
/// `exec` holds the backend's executable form (sim bytecode for
/// `earthc`); it is deliberately *not* persisted by the spill encoding,
/// so a spill-restored artifact answers `compile` requests directly
/// while `run` requests make the backend rebuild the executable from
/// the stored source.
pub struct Artifact<E> {
    /// The exact source text the artifact was compiled from.
    pub source: String,
    /// The compile options used.
    pub opts: CompileOptions,
    /// Optimized IR, pretty-printed. Byte-stable: concurrent clients
    /// compare these for equality.
    pub ir: String,
    /// The cold compile's `PipelineReport` as raw JSON.
    pub report: String,
    /// Executable form, absent after a spill round trip.
    pub exec: Option<E>,
}

// A spill file is the artifact's inputs — `source` and the flattened
// `opts` — then its outputs.
earth_ir::json_codec!(struct Artifact<E> { source, opts: flatten, ir, report: raw, exec: ignore });

impl<E> Artifact<E> {
    /// Spill-file encoding (everything except `exec`).
    pub fn to_spill_json(&self) -> String {
        json::encode(self)
    }

    /// Restores an artifact (with `exec: None`) from
    /// [`Artifact::to_spill_json`] output. Returns `None` on any
    /// malformed input — a corrupt spill file is just a cache miss.
    pub fn from_spill_json(text: &str) -> Option<Artifact<E>> {
        json::decode(text, "artifact").ok()
    }
}

/// What a cold compile produced, beyond the artifact itself.
pub struct CompileOutput<E> {
    /// The artifact to cache and serve.
    pub artifact: Artifact<E>,
    /// Per-pass wall times in nanoseconds, fed into the stats
    /// histograms.
    pub timings: Vec<(String, u64)>,
    /// Whole-program analyses this compile performed (the pipeline's
    /// analysis-cache miss count). The daemon sums these; cache hits
    /// add zero.
    pub analyses: u64,
    /// Functions spliced from a previous compile's snapshot instead of
    /// being re-optimized (function-granular incremental recompilation).
    pub functions_reused: u64,
    /// Functions placement + selection actually ran over in this
    /// compile (the dirty set on a warm compile; every function on a
    /// cold one).
    pub functions_reoptimized: u64,
    /// Unedited functions pulled into the dirty set because a callee's
    /// effect summary changed (the covers-or-escalate rule).
    pub escalations: u64,
}

/// Result of simulating an artifact.
pub struct RunOutput {
    /// Entry return value, rendered.
    pub ret: String,
    /// Virtual completion time.
    pub time_ns: u64,
    /// Simulator operation counts, rendered.
    pub stats: String,
    /// Program output lines.
    pub output: Vec<String>,
}

/// Result of an instrumented (PGO) run.
pub struct PgoOutput {
    /// Sites measured by this run.
    pub sites: u64,
    /// Sites in the accumulated profile after merging.
    pub merged_sites: u64,
    /// Instrumented-run return value, rendered.
    pub ret: String,
}

/// Result of the parallel-soundness lint.
pub struct LintOutput {
    /// Whether every parallel construct is provably independent.
    pub independent: bool,
    /// Diagnostics as a raw JSON array (`earth_ir::diag` format).
    pub diagnostics: String,
}

/// The compiler behind the daemon.
///
/// All methods take `&self` and are called concurrently from worker
/// threads; implementations guard their mutable state (the accumulated
/// PGO profile) internally. Errors are single-line strings sent
/// verbatim to the client.
pub trait Backend: Send + Sync + 'static {
    /// Executable artifact form (e.g. sim bytecode).
    type Exec: Send + Sync + 'static;

    /// Toolchain fingerprint. Part of every cache key, so a daemon
    /// restarted on a different toolchain never serves stale spill
    /// files.
    fn toolchain(&self) -> String;

    /// The content-address of `(source, opts)` under the current
    /// toolchain and (when `opts.use_profile`) accumulated profile.
    fn cache_key(&self, source: &str, opts: &CompileOptions) -> u64;

    /// Invalidation tag for an artifact compiled with `opts`: 0 when
    /// profile-independent, the current profile epoch otherwise.
    fn cache_tag(&self, opts: &CompileOptions) -> u64;

    /// Cold-compiles one source.
    ///
    /// # Errors
    ///
    /// A single-line description of the frontend/pipeline failure.
    fn compile(
        &self,
        source: &str,
        opts: &CompileOptions,
    ) -> Result<CompileOutput<Self::Exec>, String>;

    /// Simulates an artifact (recompiling from `artifact.source` when
    /// `artifact.exec` is `None`, e.g. after a spill round trip).
    ///
    /// # Errors
    ///
    /// A single-line description of the failure.
    fn run(
        &self,
        artifact: &Artifact<Self::Exec>,
        entry: &str,
        nodes: u16,
        args: &[Arg],
    ) -> Result<RunOutput, String>;

    /// Runs instrumented and merges the measured profile into the
    /// accumulated one. The server invalidates profile-tagged cache
    /// entries afterwards.
    ///
    /// # Errors
    ///
    /// A single-line description of the failure.
    fn pgo(&self, source: &str, entry: &str, nodes: u16, args: &[Arg])
        -> Result<PgoOutput, String>;

    /// Lints one source.
    ///
    /// # Errors
    ///
    /// A single-line description of the failure.
    fn lint(&self, source: &str) -> Result<LintOutput, String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_spill_round_trips_without_exec() {
        let art: Artifact<Vec<u8>> = Artifact {
            source: "int main() {\n\treturn 0;\n}\n".into(),
            opts: CompileOptions {
                optimize: true,
                locality: false,
                use_profile: false,
            },
            ir: "func main\n".into(),
            report: "{\"passes\":[]}".into(),
            exec: Some(vec![1, 2, 3]),
        };
        let text = art.to_spill_json();
        let back: Artifact<Vec<u8>> = Artifact::from_spill_json(&text).unwrap();
        assert_eq!(back.source, art.source);
        assert_eq!(back.opts, art.opts);
        assert_eq!(back.ir, art.ir);
        assert_eq!(back.report, art.report);
        assert!(back.exec.is_none());
        assert!(Artifact::<Vec<u8>>::from_spill_json("{}").is_none());
        assert!(Artifact::<Vec<u8>>::from_spill_json("not json").is_none());
    }
}
