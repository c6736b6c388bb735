//! The `earthd` backend: [`earth_serve::Backend`] implemented over the
//! [`Pipeline`], plus the daemon bootstrap shared by the `earthd`
//! binary and `earthcc serve`.
//!
//! This is the glue that gives the serving layer its cache-key
//! discipline. A key is the FNV-1a hash of every input that determines
//! the optimized artifact:
//!
//! - the exact source text,
//! - the compile options (optimizer on/off, locality on/off,
//!   profile-guided or not) and the optimizer configuration,
//! - the canonical JSON of the accumulated PGO profile (only when the
//!   request opts into `use_profile` — a profile-independent build must
//!   not churn its key when profiles merge),
//! - the toolchain fingerprint (crate version + protocol version), so a
//!   daemon restarted on a newer toolchain never trusts old spill
//!   files.
//!
//! A cache hit therefore *is* a proof that re-running the pipeline
//! would reproduce the artifact byte for byte, which is what lets the
//! daemon skip parsing, analysis, placement, and selection entirely.
//!
//! Below the TU-granular artifact cache sits a second, function-granular
//! level: each compile leaves a [`PipelineSnapshot`] of per-function
//! fingerprints, optimized bodies, and effect summaries, keyed by
//! options + profile epoch + function-name list. An artifact-cache
//! *miss* whose snapshot key still resolves (the common
//! edit-one-function-and-rebuild loop) re-optimizes only the dirty
//! functions and splices the rest — byte-identical to a cold compile,
//! with the reuse counts surfaced in `stats` as `functions_reused` /
//! `functions_reoptimized` / `escalations`.

use crate::{CommOptConfig, Pipeline, PipelineSnapshot, Profile, ProfileDb, Value};
use earth_ir::json;
use earth_serve::cluster::ClusterConfig;
use earth_serve::hash::{key_hex, Fnv1a};
use earth_serve::proto::{Arg, CompileOptions, PROTOCOL_VERSION};
use earth_serve::ring::DEFAULT_VNODES;
use earth_serve::server::{Server, ServerConfig};
use earth_serve::{Artifact, Backend, CompileOutput, LintOutput, PgoOutput, RunOutput};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// The daemon's executable artifact: the portable sim bytecode plus the
/// lazily pre-decoded native-tier form. The native program is built on
/// the artifact's first `run` and reused for every run after — the
/// server keeps artifacts in its cache, so a hot program pays the
/// pre-decode cost exactly once, and `run` traffic (the cluster's
/// dominant load) executes on the fast tier.
pub struct ExecArtifact {
    bytecode: earth_sim::CompiledProgram,
    native: OnceLock<earth_sim::NativeProgram>,
}

impl ExecArtifact {
    fn new(bytecode: earth_sim::CompiledProgram) -> Self {
        ExecArtifact {
            bytecode,
            native: OnceLock::new(),
        }
    }

    /// The pre-decoded form, built against the default cost model (the
    /// only one daemon runs use — `NativeMachine::run` asserts the
    /// match).
    fn native(&self) -> &earth_sim::NativeProgram {
        self.native.get_or_init(|| {
            earth_sim::NativeProgram::compile(&self.bytecode, &earth_sim::CostModel::default())
        })
    }
}

/// The daemon's accumulated profile state: every `pgo` request merges
/// into one profile (profiles are commutative merges of site counters),
/// and the epoch counts merges for cache-invalidation tags.
struct ProfileState {
    profile: Option<Profile>,
    epoch: u64,
}

/// [`Backend`] over the full `earthc` [`Pipeline`].
///
/// Stateless except for the accumulated PGO profile and the
/// function-granular incremental snapshots; all *artifact* state lives
/// in the serving layer's artifact cache. The snapshot store is the
/// second level of the cache: the artifact cache is keyed by the whole
/// translation unit (exact source text), while a snapshot is keyed by
/// the compile options + profile epoch + the TU's function-name list,
/// so an *edited* source — a different TU key, an artifact-cache miss —
/// still finds the previous compile's per-function artifacts and
/// re-optimizes only the functions the edit can affect.
pub struct PipelineBackend {
    state: Mutex<ProfileState>,
    snapshots: Mutex<HashMap<u64, Arc<PipelineSnapshot>>>,
    /// Where snapshot *inputs* are persisted across restarts (under
    /// `--spill DIR`); `None` = snapshots die with the process.
    snap_dir: Option<PathBuf>,
}

impl Default for PipelineBackend {
    fn default() -> Self {
        PipelineBackend::new()
    }
}

/// The persisted form of one snapshot's producing inputs: the head of
/// an artifact spill file.
struct SnapshotInputs {
    source: String,
    opts: CompileOptions,
}

earth_ir::json_codec!(struct SnapshotInputs { source, opts: flatten });

impl PipelineBackend {
    /// A backend with no accumulated profile, running on the native
    /// execution tier.
    pub fn new() -> Self {
        PipelineBackend {
            state: Mutex::new(ProfileState {
                profile: None,
                epoch: 0,
            }),
            snapshots: Mutex::new(HashMap::new()),
            snap_dir: None,
        }
    }

    /// A backend that persists incremental-compilation snapshots under
    /// `dir/snapshots` and restores them on construction, so a daemon
    /// restart keeps the edit-one-function-recompile-one-function
    /// property.
    ///
    /// Persistence is by *input replay*: a snapshot is stored as the
    /// `(source, opts)` pair that produced it, and restore recompiles
    /// that pair — the pipeline is deterministic, so the replay
    /// reproduces the snapshot exactly, and no parallel serialization
    /// format for function IR and effect summaries has to exist.
    /// Profile-keyed snapshots (`use_profile`) are skipped: the profile
    /// epoch resets on restart, so they could never resolve again.
    pub fn with_spill(dir: &Path) -> Self {
        let snap_dir = dir.join("snapshots");
        let backend = PipelineBackend {
            state: Mutex::new(ProfileState {
                profile: None,
                epoch: 0,
            }),
            snapshots: Mutex::new(HashMap::new()),
            snap_dir: Some(snap_dir.clone()),
        };
        backend.restore_snapshots(&snap_dir);
        backend
    }

    fn restore_snapshots(&self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            let Ok(inputs) = json::decode::<SnapshotInputs>(&text, "snapshot inputs") else {
                continue;
            };
            // Deterministic replay repopulates the snapshot store; a
            // source that no longer compiles is simply dropped.
            let _ = self.compile(&inputs.source, &inputs.opts);
        }
    }

    fn persist_snapshot_inputs(&self, key: u64, source: &str, opts: &CompileOptions) {
        let Some(dir) = &self.snap_dir else { return };
        if opts.use_profile {
            return;
        }
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.json", key_hex(key)));
        let inputs = SnapshotInputs {
            source: source.to_string(),
            opts: opts.clone(),
        };
        let _ = std::fs::write(path, json::encode(&inputs));
    }

    /// The pipeline a request's options describe. `entry`/`nodes` are
    /// per-run settings, not compile settings, so they are not here —
    /// and correspondingly not part of the cache key.
    fn pipeline(&self, opts: &CompileOptions) -> Pipeline {
        let mut p = Pipeline::new()
            .optimizer(opts.optimize.then(CommOptConfig::default))
            .locality(opts.locality);
        if opts.use_profile {
            let st = self.state.lock().expect("profile lock");
            if let Some(profile) = &st.profile {
                p = p.profile(Some(Arc::new(ProfileDb::new(profile.clone()))));
            }
        }
        p
    }

    /// The snapshot-store key for one compiled translation unit:
    /// compile options + profile epoch (profiled builds must not reuse
    /// pre-merge snapshots) + the ordered function-name list. The
    /// function names — not the source text — so that the key survives
    /// body edits, which is the entire point; a rename or an
    /// added/removed function changes the key and the compile simply
    /// runs cold. Collisions are safe: snapshot applicability re-checks
    /// config, struct layouts, and names, and falls back cold.
    fn snapshot_key(&self, opts: &CompileOptions, prog: &crate::Program) -> u64 {
        let mut h = Fnv1a::new();
        h.field(&[
            opts.optimize as u8,
            opts.locality as u8,
            opts.use_profile as u8,
        ]);
        if opts.use_profile {
            let st = self.state.lock().expect("profile lock");
            h.field(&st.epoch.to_le_bytes());
        }
        for (_, f) in prog.iter_functions() {
            h.str_field(&f.name);
        }
        h.finish()
    }
}

fn to_values(args: &[Arg]) -> Vec<Value> {
    args.iter()
        .map(|a| match a {
            Arg::Int(n) => Value::Int(*n),
            Arg::Double(x) => Value::Double(*x),
        })
        .collect()
}

impl Backend for PipelineBackend {
    type Exec = ExecArtifact;

    fn toolchain(&self) -> String {
        format!(
            "earthc/{} proto/{PROTOCOL_VERSION}",
            env!("CARGO_PKG_VERSION")
        )
    }

    fn cache_key(&self, source: &str, opts: &CompileOptions) -> u64 {
        let mut h = Fnv1a::new();
        h.str_field(&self.toolchain());
        h.str_field(source);
        h.field(&[
            opts.optimize as u8,
            opts.locality as u8,
            opts.use_profile as u8,
        ]);
        if opts.optimize {
            // The daemon always compiles with the default optimizer
            // configuration; fingerprint it anyway so a future knob
            // can't silently alias keys.
            h.str_field(&format!("{:?}", CommOptConfig::default()));
        }
        if opts.use_profile {
            let st = self.state.lock().expect("profile lock");
            if let Some(profile) = &st.profile {
                h.str_field(&profile.canonical().to_json());
            }
        }
        h.finish()
    }

    fn cache_tag(&self, opts: &CompileOptions) -> u64 {
        if !opts.use_profile {
            return 0;
        }
        let st = self.state.lock().expect("profile lock");
        if st.profile.is_some() {
            st.epoch
        } else {
            // No profile yet: the build is profile-independent.
            0
        }
    }

    fn compile(
        &self,
        source: &str,
        opts: &CompileOptions,
    ) -> Result<CompileOutput<ExecArtifact>, String> {
        let pipeline = self.pipeline(opts);
        let mut prog = earth_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
        let snap_key = self.snapshot_key(opts, &prog);
        let prev = self
            .snapshots
            .lock()
            .expect("snapshot lock")
            .get(&snap_key)
            .cloned();
        let (report, snapshot, inc) = pipeline
            .apply_passes_incremental(&mut prog, prev)
            .map_err(|e| e.to_string())?;
        if let Some(snapshot) = snapshot {
            self.snapshots
                .lock()
                .expect("snapshot lock")
                .insert(snap_key, snapshot);
            self.persist_snapshot_inputs(snap_key, source, opts);
        }
        let ir = earth_ir::pretty::print_program(&prog);
        let exec = earth_sim::compile(&prog, earth_sim::CodegenOptions::default())
            .map_err(|e| format!("codegen: {e}"))?;
        let timings = report
            .passes
            .iter()
            .map(|p| (p.name.to_string(), p.wall.as_nanos() as u64))
            .collect();
        let analyses = report.cache.misses;
        Ok(CompileOutput {
            artifact: Artifact {
                source: source.to_string(),
                opts: opts.clone(),
                ir,
                report: report.to_json(),
                exec: Some(ExecArtifact::new(exec)),
            },
            timings,
            analyses,
            functions_reused: inc.functions_reused,
            functions_reoptimized: inc.functions_reoptimized,
            escalations: inc.escalations,
        })
    }

    fn run(
        &self,
        artifact: &Artifact<ExecArtifact>,
        entry: &str,
        nodes: u16,
        args: &[Arg],
    ) -> Result<RunOutput, String> {
        // A spill-restored artifact lost its bytecode; rebuild it from
        // the stored source (same key inputs, so same result).
        let rebuilt;
        let exec = match &artifact.exec {
            Some(exec) => exec,
            None => {
                rebuilt = self.compile(&artifact.source, &artifact.opts)?;
                rebuilt.artifact.exec.as_ref().expect("compile sets exec")
            }
        };
        let entry_fn = exec
            .bytecode
            .function_by_name(entry)
            .ok_or_else(|| format!("no function named `{entry}`"))?;
        let mc = earth_sim::MachineConfig {
            n_nodes: nodes,
            ..Default::default()
        };
        let result = earth_sim::NativeMachine::new(mc)
            .run(exec.native(), entry_fn, &to_values(args))
            .map_err(|e| format!("simulation: {e}"))?;
        Ok(RunOutput {
            ret: result.ret.to_string(),
            time_ns: result.time_ns,
            stats: result.stats.to_string(),
            output: result.output.clone(),
        })
    }

    fn pgo(
        &self,
        source: &str,
        entry: &str,
        nodes: u16,
        args: &[Arg],
    ) -> Result<PgoOutput, String> {
        let pipeline = Pipeline::new().nodes(nodes).entry(entry);
        let (result, measured) = pipeline
            .instrument_source(source, &to_values(args))
            .map_err(|e| format!("instrumented run: {e}"))?;
        let sites = measured.len() as u64;
        let mut st = self.state.lock().expect("profile lock");
        match &mut st.profile {
            Some(acc) => acc.merge(&measured),
            None => st.profile = Some(measured),
        }
        st.epoch += 1;
        let merged_sites = st.profile.as_ref().map(Profile::len).unwrap_or(0) as u64;
        Ok(PgoOutput {
            sites,
            merged_sites,
            ret: result.ret.to_string(),
        })
    }

    fn lint(&self, source: &str) -> Result<LintOutput, String> {
        let prog = earth_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
        let report = earth_lint::lint_program(&prog);
        Ok(LintOutput {
            independent: report.all_independent(),
            diagnostics: earth_ir::diag::to_json_array(&report.diagnostics),
        })
    }
}

/// Parses daemon flags shared by `earthd` and `earthcc serve`:
/// `[--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
/// [--spill DIR] [--deadline-ms N] [--idle-ms N] [--cluster]
/// [--listen HOST:PORT] [--peers A,B,C] [--vnodes N]`.
///
/// Cluster mode (`--cluster`) needs `--listen` (the fixed address this
/// daemon binds *and* advertises on the hash ring — port 0 would
/// advertise an address no peer could route to) and `--peers` (the full
/// membership, commas; the listen address may be included or not).
///
/// # Errors
///
/// A single-line description of the offending flag.
pub fn parse_daemon_args(rest: &[String]) -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServerConfig::default();
    let mut cluster = false;
    let mut listen: Option<String> = None;
    let mut peers: Vec<String> = Vec::new();
    let mut vnodes = DEFAULT_VNODES;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<usize, String> {
            it.next()
                .ok_or(format!("{flag} needs a value"))?
                .parse()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--workers" => config.workers = num("--workers")?,
            "--queue" => config.queue_capacity = num("--queue")?,
            "--cache" => config.cache_capacity = num("--cache")?,
            "--deadline-ms" => config.default_deadline_ms = Some(num("--deadline-ms")? as u64),
            "--idle-ms" => {
                let ms = num("--idle-ms")? as u64;
                // 0 disables the idle sweeper.
                config.idle_timeout_ms = (ms > 0).then_some(ms);
            }
            "--spill" => {
                config.spill_dir = Some(it.next().ok_or("--spill needs a directory")?.into());
            }
            "--cluster" => cluster = true,
            "--listen" => listen = Some(it.next().ok_or("--listen needs a value")?.clone()),
            "--peers" => {
                peers = it
                    .next()
                    .ok_or("--peers needs a comma-separated list")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--vnodes" => vnodes = num("--vnodes")?.max(1),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if cluster || !peers.is_empty() {
        let self_addr = listen
            .clone()
            .ok_or("cluster mode needs --listen HOST:PORT (the advertised address)")?;
        if peers.is_empty() {
            return Err("cluster mode needs --peers A,B,C".into());
        }
        config.cluster = Some(ClusterConfig {
            self_addr,
            peers,
            vnodes,
        });
    }
    if let Some(listen) = listen {
        addr = listen;
    }
    Ok((addr, config))
}

/// Binds and runs the daemon until a `shutdown` request arrives. Prints
/// `earthd listening on ADDR` once bound (the CI smoke job and scripts
/// scrape the port from that line).
///
/// # Errors
///
/// A single-line description of the bind failure or bad flag.
pub fn run_daemon(rest: &[String]) -> Result<(), String> {
    let (addr, config) = parse_daemon_args(rest)?;
    let backend = match &config.spill_dir {
        Some(dir) => PipelineBackend::with_spill(dir),
        None => PipelineBackend::new(),
    };
    let server =
        Server::bind(&addr, config, backend).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    println!("earthd listening on {}", server.local_addr());
    // The line above is a machine interface; make sure it is visible
    // before the (potentially long-lived) blocking run.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    Ok(())
}
