//! Profile-guided-optimization ablation (EXPERIMENTS.md `ablation_pgo`):
//! for each Olden benchmark, run the instrumented build
//! ([`Pipeline::instrument_source`]: pre-passes only, per-site trace
//! recording), recompile with the profile feeding placement and
//! selection, and compare against the static heuristics. The site and
//! flip counts are the `optimize` pass's counters.

use earth_olden::{Benchmark, Preset};
use earthc::{Pipeline, ProfileDb};
use std::sync::Arc;

/// The outcome of the static-vs-PGO comparison on one benchmark.
#[derive(Debug, Clone)]
pub struct PgoResult {
    /// Benchmark name.
    pub bench: &'static str,
    /// Sites assigned over the program fed to the optimizer.
    pub sites_instrumented: usize,
    /// Sites of those the profile has counters for.
    pub sites_matched: usize,
    /// Selection decisions where the measured choice differed from the
    /// static heuristic.
    pub decisions_flipped: usize,
    /// Virtual time of the statically-optimized build (ns).
    pub static_time_ns: u64,
    /// Virtual time of the profile-guided build (ns).
    pub pgo_time_ns: u64,
    /// Total communication of the statically-optimized build.
    pub static_comm: u64,
    /// Total communication of the profile-guided build.
    pub pgo_comm: u64,
}

/// Instrument → simulate → recompile-with-profile for one benchmark,
/// asserting that the simple, static, and profile-guided builds agree on
/// the result.
pub fn run_pgo(bench: &Benchmark, preset: Preset, n_nodes: u16) -> PgoResult {
    let args = (bench.args)(preset);
    let static_build = Pipeline::new().nodes(n_nodes);
    let (_, profile) = static_build
        .instrument_source(bench.source, &args)
        .expect("instrumented run");
    let pgo_build = static_build
        .clone()
        .profile(Some(Arc::new(ProfileDb::new(profile))));
    let baseline = static_build
        .clone()
        .optimizer(None)
        .run_source(bench.source, &args)
        .expect("simple run");
    let st = static_build
        .run_source(bench.source, &args)
        .expect("static run");
    let (pg, report) = pgo_build
        .run_source_report(bench.source, &args)
        .expect("PGO run");
    assert_eq!(
        st.ret, baseline.ret,
        "{}: static build changed the result",
        bench.name
    );
    assert_eq!(
        pg.ret, baseline.ret,
        "{}: PGO build changed the result",
        bench.name
    );
    let optimize = report.pass("optimize").expect("the optimize pass ran");
    let counter = |name: &str| optimize.get_counter(name).expect(name) as usize;

    PgoResult {
        bench: bench.name,
        sites_instrumented: counter("sites_instrumented"),
        sites_matched: counter("sites_matched"),
        decisions_flipped: counter("decisions_flipped"),
        static_time_ns: st.time_ns,
        pgo_time_ns: pg.time_ns,
        static_comm: st.stats.total_comm(),
        pgo_comm: pg.stats.total_comm(),
    }
}

/// Renders PGO results as a table.
pub fn render_pgo(results: &[PgoResult]) -> String {
    let data: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.bench.to_string(),
                format!("{}/{}", r.sites_matched, r.sites_instrumented),
                r.decisions_flipped.to_string(),
                crate::render::secs(r.static_time_ns),
                crate::render::secs(r.pgo_time_ns),
                format!(
                    "{:+.2}%",
                    100.0 * (r.pgo_time_ns as f64 - r.static_time_ns as f64)
                        / r.static_time_ns as f64
                ),
                r.static_comm.to_string(),
                r.pgo_comm.to_string(),
            ]
        })
        .collect();
    crate::render::table(
        &[
            "benchmark",
            "sites",
            "flips",
            "static(s)",
            "pgo(s)",
            "delta",
            "comm",
            "comm-pgo",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_olden::by_name;

    /// Every benchmark's profile covers sites, and feedback never changes
    /// the computed result (asserted inside `run_pgo`).
    #[test]
    fn pgo_matches_sites_and_preserves_results() {
        for name in ["power", "health"] {
            let bench = by_name(name).unwrap();
            let r = run_pgo(&bench, Preset::Test, 2);
            assert!(r.sites_matched > 0, "{name}: no sites matched");
            assert!(
                r.sites_matched <= r.sites_instrumented,
                "{name}: matched {} of {} sites",
                r.sites_matched,
                r.sites_instrumented
            );
        }
    }

    #[test]
    fn pgo_renders() {
        let bench = by_name("perimeter").unwrap();
        let r = run_pgo(&bench, Preset::Test, 2);
        let s = render_pgo(std::slice::from_ref(&r));
        assert!(s.contains("perimeter"), "{s}");
    }
}
