//! The compile corpus of the benchmark's `compile_cold` workload, for the
//! fences that pin its output (`determinism.rs`) and its allocation count
//! (`alloc_budget.rs`): the six Olden kernels and `programs/*.ec`, each
//! under `simple`, `static`, `prob` and `escape` with one optimizer worker.

use earthc::earth_commopt::{AliasMode, CommOptConfig, EscapeMode};
use earthc::Pipeline;

/// `(name, source text)` of the ten programs, kernels first.
pub fn sources() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<_> = earthc::earth_olden::suite()
        .into_iter()
        .map(|b| (b.name, b.source))
        .collect();
    out.extend([
        ("count.ec", include_str!("../../programs/count.ec")),
        ("distance.ec", include_str!("../../programs/distance.ec")),
        ("orbit.ec", include_str!("../../programs/orbit.ec")),
        ("treesum.ec", include_str!("../../programs/treesum.ec")),
    ]);
    out
}

/// `(name, pipeline)` of the four modes.
pub fn modes() -> Vec<(&'static str, Pipeline)> {
    let configs = [
        ("simple", None),
        ("static", Some(CommOptConfig::default())),
        (
            "prob",
            Some(CommOptConfig {
                alias: AliasMode::Prob,
                ..CommOptConfig::default()
            }),
        ),
        (
            "escape",
            Some(CommOptConfig {
                escape: EscapeMode::On,
                ..CommOptConfig::default()
            }),
        ),
    ];
    configs
        .into_iter()
        .map(|(name, cfg)| (name, Pipeline::new().workers(1).optimizer(cfg)))
        .collect()
}
