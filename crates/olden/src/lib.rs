//! # earth-olden — the Olden benchmark suite in EARTH-C
//!
//! The pointer-intensive benchmarks the paper evaluates (Table II),
//! rewritten in the EARTH-C subset of `earth_frontend`:
//!
//! | benchmark | structure | parallelism | paper's main win |
//! |---|---|---|---|
//! | [`power`] | k-ary tree (feeders→laterals→branches→leaves) | `forall` over feeders `@OWNER_OF` | blocking |
//! | [`perimeter`] | quadtree with parent pointers | recursive calls `@OWNER_OF` | blocking |
//! | [`tsp`] | binary tree + circular tour lists | `{^ ... ^}` over subtrees | redundancy elim + pipelining |
//! | [`health`] | 4-way village tree + patient lists | `{^ ... ^}` over children | pipelining + redundancy elim |
//! | [`voronoi`] | binary point tree + hull lists | `{^ ... ^}` over subtrees | redundancy elim + blocking |
//! | [`treeadd`] | balanced binary tree | `{^ ... ^}` over subtrees | blocking |
//!
//! This crate is data only: each module exposes its EARTH-C `SOURCE` and
//! its `args` per [`Preset`], and [`suite`] / [`by_name`] list them.
//! Building and running a kernel is `earthc::Pipeline`'s job, the same
//! pipeline `earthcc` and `earthd` use; the paper's Sequential column is
//! `earth_sim::run_sequential`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod health;
pub mod perimeter;
pub mod power;
pub mod treeadd;
pub mod tsp;
pub mod voronoi;

use earth_sim::Value;

/// Problem-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Tiny inputs for unit tests.
    Test,
    /// Small inputs for quick experiments.
    Small,
    /// The evaluation size (scaled from the paper's Table II to keep
    /// simulation times reasonable; see DESIGN.md).
    Full,
}

/// A benchmark of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Name as used in the paper ("power", "perimeter", ...).
    pub name: &'static str,
    /// EARTH-C source text.
    pub source: &'static str,
    /// One-line description (Table II).
    pub description: &'static str,
    /// Preset arguments for the `main` entry point.
    pub args: fn(Preset) -> Vec<Value>,
}

/// All six benchmarks, in the paper's order.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "power",
            source: power::SOURCE,
            description: "Power system optimization over a variable k-nary tree",
            args: power::args,
        },
        Benchmark {
            name: "tsp",
            source: tsp::SOURCE,
            description: "Sub-optimal traveling-salesperson tour (closest-point heuristic)",
            args: tsp::args,
        },
        Benchmark {
            name: "health",
            source: health::SOURCE,
            description: "Colombian health-care simulation over a 4-way tree",
            args: health::args,
        },
        Benchmark {
            name: "perimeter",
            source: perimeter::SOURCE,
            description: "Perimeter of a quad-tree encoded raster image",
            args: perimeter::args,
        },
        Benchmark {
            name: "voronoi",
            source: voronoi::SOURCE,
            description:
                "Divide-and-conquer diagram merge over a binary point tree (hull substitute)",
            args: voronoi::args,
        },
        Benchmark {
            name: "treeadd",
            source: treeadd::SOURCE,
            description: "Recursive sum over a balanced binary tree",
            args: treeadd::args,
        },
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    suite().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert!(by_name("power").is_some());
        assert!(by_name("treeadd").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(suite().len(), 6);
    }
}
