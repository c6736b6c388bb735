//! Provenance-stable statement **site identifiers**.
//!
//! A [`SiteId`] names a statement by its *position in the statement tree*:
//! the owning [`FuncId`] plus the child-index path from the function body
//! root down to the node. Unlike a [`Label`] — which is an allocation-order
//! artifact of whoever built the IR — a path only depends on the shape of
//! the tree, so two compilations that reach the same IR shape assign the
//! same `SiteId` to the same source statement.
//!
//! # Stability argument
//!
//! Profile-guided optimization records per-site counters in one compile and
//! consumes them in a later compile of the same program. For the feedback to
//! land on the right statements, `SiteId`s must agree across the two
//! compiles. They do, because:
//!
//! 1. sites are assigned at a fixed pipeline point — after the deterministic
//!    pre-passes (inline, locality) and *before* communication
//!    selection rewrites the tree — so both compiles see the same tree, and
//! 2. the path encoding below is a pure function of that tree: no label
//!    counters, no hash ordering, no allocation order.
//!
//! Statements inserted later (by communication selection) get fresh labels
//! with no assigned site and are simply unprofiled; original statements keep
//! their labels, so the `Label → SiteId` map survives optimization.
//!
//! # Path encoding
//!
//! | parent | child | index |
//! |---|---|---|
//! | `Seq` / `ParSeq` | i-th element | `i` |
//! | `If` | then / else | `0` / `1` |
//! | `Switch` | case i / default | `i` / `#cases` |
//! | `While` / `DoWhile` | body | `0` |
//! | `Forall` | init / step / body | `0` / `1` / `2` |
//!
//! The body root has the empty path, printed `f3:` for function 3; a nested
//! site prints as `f3:0.2.1`.

use crate::func::{FuncId, Function, Program};
use crate::stmt::{Label, Stmt, StmtKind};
use std::collections::BTreeMap;
use std::fmt;

/// A provenance-stable statement identifier: function + tree path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId {
    /// The function whose body contains the site.
    pub func: FuncId,
    /// Child indices from the body root to the statement (empty = the root).
    pub path: Vec<u32>,
}

impl SiteId {
    /// Builds a site id from its parts.
    pub fn new(func: FuncId, path: Vec<u32>) -> Self {
        SiteId { func, path }
    }

    /// Parses the [`Display`](fmt::Display) form (`"f3:0.2.1"`, `"f0:"`).
    pub fn parse(s: &str) -> Option<SiteId> {
        let rest = s.strip_prefix('f')?;
        let (func, path) = rest.split_once(':')?;
        let func = FuncId(func.parse().ok()?);
        let path = if path.is_empty() {
            Vec::new()
        } else {
            path.split('.')
                .map(|p| p.parse().ok())
                .collect::<Option<Vec<u32>>>()?
        };
        Some(SiteId { func, path })
    }
}

/// The [`Display`](fmt::Display) form, as [`SiteId::parse`] reads it: a
/// profile's map keys.
impl std::str::FromStr for SiteId {
    type Err = ();

    fn from_str(s: &str) -> Result<SiteId, ()> {
        SiteId::parse(s).ok_or(())
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}:", self.func.0)?;
        for (i, p) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// The `Label → SiteId` assignment for one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteMap {
    map: BTreeMap<Label, SiteId>,
}

impl SiteMap {
    /// The site of the statement labelled `label`, if one was assigned.
    pub fn get(&self, label: Label) -> Option<&SiteId> {
        self.map.get(&label)
    }

    /// Number of assigned sites.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no sites were assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(Label, SiteId)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &SiteId)> + '_ {
        self.map.iter().map(|(l, s)| (*l, s))
    }
}

/// Assigns a [`SiteId`] to every statement node of `f`'s body.
///
/// When the body contains duplicate labels (invalid IR — see validator check
/// `IR010`), the *first* pre-order occurrence wins, keeping the result
/// deterministic; use [`duplicate_site_labels`] to detect the conflict.
pub fn assign_sites(func: FuncId, f: &Function) -> SiteMap {
    let mut map = BTreeMap::new();
    let mut path = Vec::new();
    visit(&f.body, &mut path, &mut |label, path| {
        map.entry(label)
            .or_insert_with(|| SiteId::new(func, path.to_vec()));
    });
    SiteMap { map }
}

/// Labels that occur at more than one tree position, each with the first two
/// conflicting site paths. A non-empty result means `SiteId`s for those
/// labels are *unstable*: a profile keyed by them cannot be attributed.
///
/// Valid IR has no such label, and this check runs on every compile, so the
/// labels alone are compared first; site paths are built only for labels
/// already known to clash.
pub fn duplicate_site_labels(func: FuncId, f: &Function) -> Vec<(Label, SiteId, SiteId)> {
    let mut labels = f.body.labels();
    labels.sort_unstable();
    let mut clashing: Vec<Label> = labels
        .windows(2)
        .filter(|w| w[0] == w[1])
        .map(|w| w[0])
        .collect();
    if clashing.is_empty() {
        return Vec::new();
    }
    clashing.dedup();
    let mut sites: BTreeMap<Label, Vec<SiteId>> = BTreeMap::new();
    let mut path = Vec::new();
    visit(&f.body, &mut path, &mut |label, path| {
        if clashing.binary_search(&label).is_ok() {
            let seen = sites.entry(label).or_default();
            if seen.len() < 2 {
                seen.push(SiteId::new(func, path.to_vec()));
            }
        }
    });
    sites
        .into_iter()
        .map(|(l, mut s)| {
            let second = s.pop().expect("a clashing label occurs twice");
            let first = s.pop().expect("a clashing label occurs twice");
            (l, first, second)
        })
        .collect()
}

/// Pre-order walk handing `record` every statement's label and tree path.
fn visit(s: &Stmt, path: &mut Vec<u32>, record: &mut dyn FnMut(Label, &[u32])) {
    record(s.label, path);
    let mut child = |i: u32, s: &Stmt, record: &mut dyn FnMut(Label, &[u32])| {
        path.push(i);
        visit(s, path, record);
        path.pop();
    };
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => {
            for (i, s) in ss.iter().enumerate() {
                child(i as u32, s, record);
            }
        }
        StmtKind::Basic(_) => {}
        StmtKind::If { then_s, else_s, .. } => {
            child(0, then_s, record);
            child(1, else_s, record);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (i, (_, s)) in cases.iter().enumerate() {
                child(i as u32, s, record);
            }
            child(cases.len() as u32, default, record);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            child(0, body, record);
        }
        StmtKind::Forall {
            init, step, body, ..
        } => {
            child(0, init, record);
            child(1, step, record);
            child(2, body, record);
        }
    }
}

/// Per-function [`SiteMap`]s for a whole program, indexable by [`FuncId`].
#[derive(Debug, Clone, Default)]
pub struct ProgramSites {
    per_func: Vec<SiteMap>,
}

impl ProgramSites {
    /// The site of `label` in function `func`, if assigned.
    pub fn get(&self, func: FuncId, label: Label) -> Option<&SiteId> {
        self.per_func.get(func.index()).and_then(|m| m.get(label))
    }

    /// The whole map for one function.
    pub fn function(&self, func: FuncId) -> Option<&SiteMap> {
        self.per_func.get(func.index())
    }

    /// Total number of assigned sites across all functions.
    pub fn len(&self) -> usize {
        self.per_func.iter().map(SiteMap::len).sum()
    }

    /// Whether no sites were assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Assigns sites for every function of `prog`.
pub fn assign_program_sites(prog: &Program) -> ProgramSites {
    ProgramSites {
        per_func: prog
            .iter_functions()
            .map(|(fid, f)| assign_sites(fid, f))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{Basic, BinOp, Cond, Operand};

    fn mk(label: u32, kind: StmtKind) -> Stmt {
        Stmt {
            label: Label(label),
            kind,
        }
    }

    fn ret(label: u32) -> Stmt {
        mk(label, StmtKind::Basic(Basic::Return(None)))
    }

    fn cond() -> Cond {
        Cond::new(BinOp::Lt, Operand::int(0), Operand::int(1))
    }

    #[test]
    fn display_parse_round_trip() {
        for s in [
            SiteId::new(FuncId(3), vec![0, 2, 1]),
            SiteId::new(FuncId(0), vec![]),
            SiteId::new(FuncId(17), vec![5]),
        ] {
            assert_eq!(SiteId::parse(&s.to_string()), Some(s));
        }
        assert_eq!(SiteId::parse("nope"), None);
        assert_eq!(SiteId::parse("f3"), None);
        assert_eq!(SiteId::parse("f3:0..1"), None);
    }

    #[test]
    fn paths_follow_tree_shape() {
        let mut f = Function::new("g", None);
        // { if (c) { return } else { } ; while (c) { return } }
        f.body = mk(
            0,
            StmtKind::Seq(vec![
                mk(
                    1,
                    StmtKind::If {
                        cond: cond(),
                        then_s: Box::new(ret(2)),
                        else_s: Box::new(mk(3, StmtKind::Seq(vec![]))),
                    },
                ),
                mk(
                    4,
                    StmtKind::While {
                        cond: cond(),
                        body: Box::new(ret(5)),
                    },
                ),
            ]),
        );
        f.sync_label_counter();
        let sites = assign_sites(FuncId(7), &f);
        assert_eq!(sites.len(), 6);
        assert_eq!(sites.get(Label(0)).unwrap().to_string(), "f7:");
        assert_eq!(sites.get(Label(2)).unwrap().to_string(), "f7:0.0");
        assert_eq!(sites.get(Label(3)).unwrap().to_string(), "f7:0.1");
        assert_eq!(sites.get(Label(5)).unwrap().to_string(), "f7:1.0");
    }

    #[test]
    fn sites_independent_of_label_numbering() {
        // The same shape with a different label allocation order must yield
        // the same set of site paths.
        let shape = |l: [u32; 3]| {
            let mut f = Function::new("g", None);
            f.body = mk(l[0], StmtKind::Seq(vec![ret(l[1]), ret(l[2])]));
            f.sync_label_counter();
            f
        };
        let a = assign_sites(FuncId(0), &shape([0, 1, 2]));
        let b = assign_sites(FuncId(0), &shape([9, 4, 7]));
        let paths = |m: &SiteMap| {
            let mut v: Vec<_> = m.iter().map(|(_, s)| s.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(paths(&a), paths(&b));
    }

    #[test]
    fn duplicate_labels_detected() {
        let mut f = Function::new("g", None);
        f.body = mk(0, StmtKind::Seq(vec![ret(1), ret(1)]));
        f.sync_label_counter();
        let dups = duplicate_site_labels(FuncId(2), &f);
        assert_eq!(dups.len(), 1);
        let (l, a, b) = &dups[0];
        assert_eq!(*l, Label(1));
        assert_eq!(a.to_string(), "f2:0");
        assert_eq!(b.to_string(), "f2:1");
        // assign_sites keeps the first occurrence.
        let sites = assign_sites(FuncId(2), &f);
        assert_eq!(sites.get(Label(1)).unwrap().to_string(), "f2:0");
    }

    #[test]
    fn program_sites_cover_all_functions() {
        let mut p = Program::new();
        let mut f = Function::new("a", None);
        f.body = ret(0);
        p.add_function(f);
        let mut g = Function::new("b", None);
        g.body = mk(0, StmtKind::Seq(vec![ret(1)]));
        p.add_function(g);
        let sites = assign_program_sites(&p);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites.get(FuncId(1), Label(1)).unwrap().to_string(), "f1:0");
        assert!(sites.get(FuncId(0), Label(9)).is_none());
    }
}
