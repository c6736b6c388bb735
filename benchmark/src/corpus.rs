//! The input programs, the five optimization modes, and the one
//! compile path every workload shares.

use crate::measure::Rng;
use crate::trace::Tracer;
use earthc::earth_commopt::{AliasMode, CommOptConfig, EscapeMode};
use earthc::earth_frontend::{lower_unit, parse_unit};
use earthc::earth_ir::{fingerprint, pretty, FuncId};
use earthc::earth_olden::{self, Preset};
use earthc::earth_sim::{self, CodegenOptions, CompiledProgram, CostModel, NativeProgram};
use earthc::{Pipeline, Profile, ProfileDb, Value};
use std::sync::Arc;

/// Simulated EARTH nodes of every parallel run.
pub const NODES: u16 = 8;

/// The builds of the paper's experiment and this repository's three
/// extensions of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    Simple,
    Static,
    Prob,
    Escape,
    Pgo,
}

impl Mode {
    pub const ALL: [Mode; 5] = [
        Mode::Simple,
        Mode::Static,
        Mode::Prob,
        Mode::Escape,
        Mode::Pgo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Simple => "simple",
            Mode::Static => "static",
            Mode::Prob => "prob",
            Mode::Escape => "escape",
            Mode::Pgo => "pgo",
        }
    }

    /// The optimizer configuration of this mode (`None` = no
    /// communication optimization). `Pgo` is `Prob` plus a measured
    /// profile, which travels beside the configuration.
    pub fn config(self) -> Option<CommOptConfig> {
        match self {
            Mode::Simple => None,
            Mode::Static => Some(CommOptConfig::default()),
            Mode::Prob | Mode::Pgo => Some(CommOptConfig {
                alias: AliasMode::Prob,
                ..CommOptConfig::default()
            }),
            Mode::Escape => Some(CommOptConfig {
                escape: EscapeMode::On,
                ..CommOptConfig::default()
            }),
        }
    }

    /// The compile pipeline of this mode, one optimizer worker so that
    /// the op runs on the calling thread. Only `Pgo` takes the profile.
    pub fn pipeline(self, profile: Option<&Profile>) -> Pipeline {
        let db = profile
            .filter(|_| self == Mode::Pgo)
            .map(|p| Arc::new(ProfileDb::new(p.clone())));
        Pipeline::new()
            .workers(1)
            .optimizer(self.config())
            .profile(db)
    }
}

/// One input program with the arguments of its `main`.
#[derive(Debug, Clone)]
pub struct Source {
    /// Kernel or file name; also the row name in `expected.json`.
    pub name: &'static str,
    /// Problem size, the second half of the `expected.json` key.
    pub size: String,
    pub text: String,
    pub args: Vec<Value>,
}

impl Source {
    pub fn key(&self) -> String {
        format!("{}/{}", self.name, self.size)
    }
}

/// The six Olden kernels at `preset`.
pub fn kernels(preset: Preset) -> Vec<Source> {
    earth_olden::suite()
        .into_iter()
        .map(|b| Source {
            name: b.name,
            size: format!("{preset:?}"),
            text: b.source.to_string(),
            args: (b.args)(preset),
        })
        .collect()
}

/// The names of the six kernels, in suite order.
pub fn kernel_names() -> Vec<&'static str> {
    earth_olden::suite().into_iter().map(|b| b.name).collect()
}

/// `programs/*.ec`, every `main` parameter set to 6 as the repository's
/// own tests do.
pub fn programs() -> Vec<Source> {
    const FILES: [(&str, &str, usize); 4] = [
        ("count.ec", include_str!("../../programs/count.ec"), 1),
        ("distance.ec", include_str!("../../programs/distance.ec"), 0),
        ("orbit.ec", include_str!("../../programs/orbit.ec"), 1),
        ("treesum.ec", include_str!("../../programs/treesum.ec"), 1),
    ];
    FILES
        .iter()
        .map(|&(name, text, params)| Source {
            name,
            size: "6".into(),
            text: text.to_string(),
            args: vec![Value::Int(6); params],
        })
        .collect()
}

/// A program compiled all the way to the pre-decoded native tier.
pub struct Compiled {
    pub ir: String,
    pub bytecode: CompiledProgram,
    pub native: NativeProgram,
    pub entry: FuncId,
}

/// Source text → pre-decoded program, one span per layer boundary. This
/// is `earth_frontend::compile` (which is `parse_unit` then
/// `lower_unit`), `Pipeline::apply_passes`, `pretty::print_program`,
/// `earth_sim::compile` and `NativeProgram::compile`, the path of a
/// cache miss in `PipelineBackend` and of `earthcc run --backend native`.
pub fn compile(
    src: &str,
    pipeline: &Pipeline,
    options: CodegenOptions,
    t: &mut Tracer,
) -> Result<Compiled, String> {
    let unit = t
        .span("frontend.parse", "", || parse_unit(src))
        .map_err(|e| format!("parse: {e}"))?;
    let mut prog = t
        .span("frontend.lower", "", || lower_unit(&unit))
        .map_err(|e| format!("lower: {e}"))?;
    if t.is_on() {
        t.count("ir.stmts_lowered", "", count_stmts(&prog) as f64);
    }
    let report = t
        .span("pass.apply", "", || pipeline.apply_passes(&mut prog))
        .map_err(|e| e.to_string())?;
    if t.is_on() {
        t.count("ir.stmts_optimized", "", count_stmts(&prog) as f64);
        t.count(
            "pass.passes_wall_ms",
            "",
            report.total_wall().as_secs_f64() * 1e3,
        );
        t.count("pass.analysis_misses", "", report.cache.misses as f64);
        for (counter, metric) in [
            ("sites_matched", "profile.sites_matched"),
            ("decisions_flipped", "commopt.pgo_flips"),
        ] {
            if let Some(n) = report.passes.iter().find_map(|p| p.get_counter(counter)) {
                t.count(metric, "", n as f64);
            }
        }
    }
    let ir = t.span("ir.pretty", "", || pretty::print_program(&prog));
    let bytecode = t
        .span("sim.codegen", "", || earth_sim::compile(&prog, options))
        .map_err(|e| format!("codegen: {e}"))?;
    let native = t.span("sim.predecode", "", || {
        NativeProgram::compile(&bytecode, &CostModel::default())
    });
    let entry = bytecode
        .function_by_name("main")
        .ok_or("the program has no `main`")?;
    Ok(Compiled {
        ir,
        bytecode,
        native,
        entry,
    })
}

/// [`compile`] under `mode` with default code generation and no tracer:
/// what a set-up needs to establish a reference.
pub fn build(src: &Source, mode: Mode) -> Result<Compiled, String> {
    let options = CodegenOptions::default();
    compile(&src.text, &mode.pipeline(None), options, &mut Tracer::off())
        .map_err(|e| format!("{} {}: {e}", src.key(), mode.name()))
}

fn count_stmts(prog: &earthc::Program) -> usize {
    let mut n = 0;
    for (_, f) in prog.iter_functions() {
        f.body.walk(&mut |_| n += 1);
    }
    n
}

/// Byte ranges of the standalone unsigned integer literals of `src`
/// (not glued to an identifier, a float or another number).
pub fn integer_literals(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let glued = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        let free_before = start == 0 || !glued(b[start - 1]);
        let free_after = i == b.len() || !glued(b[i]);
        if free_before && free_after {
            spans.push((start, i));
        }
    }
    spans
}

/// `src` with the literal at `span` raised by `by`; `None` if it does
/// not fit a `u32` (such a literal is no candidate for an edit).
pub fn bump_literal(src: &str, span: (usize, usize), by: u32) -> Option<String> {
    let value: u32 = src[span.0..span.1].parse().ok()?;
    let bumped = value.checked_add(by)?;
    Some(format!("{}{bumped}{}", &src[..span.0], &src[span.1..]))
}

/// How many edited variants of each kernel `daemon_churn` cycles through:
/// two, so that six kernels make exactly the twelve requests of an op and
/// every op sends the same ones. (With four, ops alternated between two
/// different halves of the cycle, and the median op time flipped between
/// the two from seed to seed.)
pub const EDITS: u32 = 2;

/// The [`EDITS`] one-function edits of `src`: one integer literal, drawn
/// by `rng`, raised by 1..=EDITS. A draw is skipped unless every variant
/// passes `accept` (compiles, differs from `src` in exactly one function,
/// still runs to completion), so the program under test only ever sees
/// inputs on which no operation fails.
pub fn one_function_edits(
    src: &str,
    rng: &mut Rng,
    mut accept: impl FnMut(&str) -> bool,
) -> Option<Vec<String>> {
    let literals = integer_literals(src);
    if literals.is_empty() {
        return None;
    }
    let first = rng.below(literals.len());
    (0..literals.len()).find_map(|k| {
        let span = literals[(first + k) % literals.len()];
        let variants: Vec<String> = (1..=EDITS)
            .map(|by| bump_literal(src, span, by))
            .collect::<Option<_>>()?;
        variants.iter().all(|v| accept(v)).then_some(variants)
    })
}

/// Whether `edited` differs from `base` in the body of exactly one
/// function, with the struct layouts and the function list unchanged —
/// the edit the daemon's snapshot store answers by re-optimizing one
/// function.
pub fn dirties_one_function(base: &str, edited: &str) -> bool {
    let (Ok(a), Ok(b)) = (
        earthc::compile_earth_c(base),
        earthc::compile_earth_c(edited),
    ) else {
        return false;
    };
    let names = |p: &earthc::Program| -> Vec<String> {
        p.iter_functions().map(|(_, f)| f.name.clone()).collect()
    };
    if names(&a) != names(&b)
        || fingerprint::structs_fingerprint(&a) != fingerprint::structs_fingerprint(&b)
    {
        return false;
    }
    let (fa, fb) = (
        fingerprint::program_fingerprints(&a),
        fingerprint::program_fingerprints(&b),
    );
    fa.iter().zip(&fb).filter(|(x, y)| x != y).count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_glued_to_names_or_floats_are_not_candidates() {
        let src = "x1 = 10 + y_2 * 3.5 - 7;";
        let found: Vec<&str> = integer_literals(src)
            .into_iter()
            .map(|(s, e)| &src[s..e])
            .collect();
        assert_eq!(found, ["10", "7"]);
        assert!(integer_literals("a = b;").is_empty());
    }

    #[test]
    fn bump_replaces_exactly_the_literal() {
        let src = "a = 9 + 41;";
        let spans = integer_literals(src);
        assert_eq!(bump_literal(src, spans[0], 1).unwrap(), "a = 10 + 41;");
        assert_eq!(bump_literal(src, spans[1], 4).unwrap(), "a = 9 + 45;");
        assert_eq!(bump_literal("a = 4294967295;", (4, 14), 1), None);
    }

    #[test]
    fn edits_are_seeded_skip_rejected_draws_and_dirty_one_function() {
        let treeadd = &kernels(Preset::Test)[5];
        assert_eq!(treeadd.name, "treeadd");
        let draw = |seed| {
            one_function_edits(&treeadd.text, &mut Rng::new(seed), |v| {
                dirties_one_function(&treeadd.text, v)
            })
            .expect("treeadd has an editable literal")
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_eq!(a.len(), EDITS as usize);
        for (i, v) in a.iter().enumerate() {
            assert_ne!(v, &treeadd.text);
            assert!(a[..i].iter().all(|w| w != v), "variants are distinct");
        }
        // Some other seed draws another literal.
        assert!((0..16).any(|s| draw(s) != a));
        // A draw nobody accepts yields nothing rather than a bad input.
        assert!(one_function_edits(&treeadd.text, &mut Rng::new(3), |_| false).is_none());
    }

    #[test]
    fn every_mode_compiles_every_source() {
        let mut t = Tracer::off();
        for src in kernels(Preset::Test).iter().chain(&programs()) {
            for mode in [Mode::Simple, Mode::Static, Mode::Prob, Mode::Escape] {
                let c = compile(
                    &src.text,
                    &mode.pipeline(None),
                    CodegenOptions::default(),
                    &mut t,
                )
                .unwrap_or_else(|e| panic!("{} {}: {e}", src.name, mode.name()));
                assert!(!c.ir.is_empty());
            }
        }
    }
}
