//! # earth-profile — execution profiles for profile-guided optimization
//!
//! The static communication optimizer guesses execution frequencies: every
//! `if` arm is taken half the time, every loop body runs
//! `loop_factor` times. This crate replaces the guesses with *measured*
//! counts. A program compiled with
//! [`record_sites`](earth_sim::CodegenOptions) attributes every remote
//! memory operation and branch to a provenance-stable [`SiteId`]; the
//! simulator's [`SiteTrace`] is folded into a [`Profile`] — a map from
//! `SiteId` to event counters — which can be serialized, merged across
//! runs, and fed back into placement and selection through a
//! [`ProfileDb`].
//!
//! # Determinism
//!
//! Profiles are ordered maps written with a canonical JSON encoding, so
//! equal profiles serialize to identical bytes. [`Profile::merge`] is
//! pointwise saturating addition: commutative, associative, with the empty
//! profile as identity (property-tested). Event counters (`execs`,
//! `bytes`, `taken`, `not_taken`) depend only on the program, not on the
//! machine configuration; only `stall_ns` is timing-sensitive, and
//! [`Profile::canonical`] strips it for cross-configuration comparison.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use earth_ir::json;
use earth_ir::{assign_sites, FuncId, Function, Label, SiteId};
pub use earth_sim::SiteCounters;
use earth_sim::{CompiledProgram, SiteTrace};
use std::collections::BTreeMap;
use std::fmt;

/// Current on-disk format version, written to and required in the JSON.
pub const FORMAT_VERSION: u64 = 1;

/// An execution profile: event counters keyed by stable statement site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    sites: BTreeMap<SiteId, SiteCounters>,
}

// Keys in site order, every counter present: equal profiles encode to
// byte-identical output. Strict: an unknown key is an error.
earth_ir::json_codec!(#[strict] struct Profile where recorded {
    "version" = FORMAT_VERSION,
    sites,
});

/// A decoded profile as [`Profile::record`] builds one: sites with no
/// events are dropped.
fn recorded(decoded: Profile) -> Result<Profile, json::JsonError> {
    let mut p = Profile::new();
    for (site, c) in decoded.sites {
        p.record(site, c);
    }
    Ok(p)
}

impl Profile {
    /// An empty profile (the identity of [`merge`](Profile::merge)).
    pub fn new() -> Self {
        Profile::default()
    }

    /// Adds `counters` into the entry for `site`.
    pub fn record(&mut self, site: SiteId, counters: SiteCounters) {
        if !counters.is_zero() {
            *self.sites.entry(site).or_default() += counters;
        }
    }

    /// The counters recorded for `site`, if any.
    pub fn get(&self, site: &SiteId) -> Option<&SiteCounters> {
        self.sites.get(site)
    }

    /// Number of sites with recorded events.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates `(site, counters)` in site order.
    pub fn iter(&self) -> impl Iterator<Item = (&SiteId, &SiteCounters)> + '_ {
        self.sites.iter()
    }

    /// Sum of all counters across sites.
    pub fn total(&self) -> SiteCounters {
        let mut acc = SiteCounters::default();
        for c in self.sites.values() {
            acc += *c;
        }
        acc
    }

    /// Folds another profile into this one (pointwise addition). Merging
    /// is commutative and associative, with [`Profile::new`] as identity,
    /// so per-node or per-run profiles can be combined in any order with
    /// an identical result.
    pub fn merge(&mut self, other: &Profile) {
        for (site, c) in &other.sites {
            self.record(site.clone(), *c);
        }
    }

    /// This profile with timing-dependent counters (`stall_ns`) zeroed.
    /// Canonical profiles of the same program are byte-identical across
    /// machine configurations (node counts), because the remaining
    /// counters only depend on what the program executed.
    pub fn canonical(&self) -> Profile {
        let mut p = Profile::new();
        for (site, c) in &self.sites {
            p.record(site.clone(), SiteCounters { stall_ns: 0, ..*c });
        }
        p
    }

    /// Collects one profile per node from a run's [`SiteTrace`]. The trace
    /// indexes sites positionally; `prog.site_table` maps them back to
    /// stable [`SiteId`]s.
    pub fn per_node(prog: &CompiledProgram, trace: &SiteTrace) -> Vec<Profile> {
        let nodes = trace.per_site.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = vec![Profile::new(); nodes];
        for (idx, per_node) in trace.per_site.iter().enumerate() {
            for (node, c) in per_node.iter().enumerate() {
                out[node].record(prog.site_table[idx].clone(), *c);
            }
        }
        out
    }

    /// Collects the whole-run profile (all nodes merged).
    pub fn from_trace(prog: &CompiledProgram, trace: &SiteTrace) -> Profile {
        let mut p = Profile::new();
        for (idx, per_node) in trace.per_site.iter().enumerate() {
            for c in per_node {
                p.record(prog.site_table[idx].clone(), *c);
            }
        }
        p
    }

    /// Serializes to the canonical JSON encoding: keys in site order, no
    /// whitespace, every counter field present. Equal profiles produce
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Parses the JSON encoding produced by [`to_json`](Profile::to_json)
    /// (whitespace and key order are tolerated).
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] describing the first syntax problem,
    /// unknown key, or version mismatch.
    pub fn from_json(text: &str) -> Result<Profile, ProfileError> {
        Ok(json::decode(text, "profile")?)
    }
}

/// A malformed profile encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileError {
    /// Byte offset of the problem in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile parse error at byte {}: {}",
            self.pos, self.message
        )
    }
}

impl std::error::Error for ProfileError {}

impl From<json::JsonError> for ProfileError {
    fn from(e: json::JsonError) -> Self {
        ProfileError {
            pos: e.offset.unwrap_or(0),
            message: e.message,
        }
    }
}

/// The feedback side: measured frequencies and volumes looked up by the
/// optimizer. Wraps a merged [`Profile`] and answers the questions
/// placement and selection actually ask — how often does this branch go
/// each way, how many times does this loop iterate per entry, how hot is
/// this statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileDb {
    profile: Profile,
}

impl ProfileDb {
    /// Builds a database over a merged profile.
    pub fn new(profile: Profile) -> Self {
        ProfileDb { profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Raw counters for a site.
    pub fn get(&self, site: &SiteId) -> Option<&SiteCounters> {
        self.profile.get(site)
    }

    /// Resolves this function's statement labels against the profile.
    /// Site assignment here must see the same tree shape the instrumented
    /// compile saw (see [`earth_ir::site`] for the stability argument).
    pub fn function_view(&self, func: FuncId, f: &Function) -> FuncProfile {
        let mut by_label = BTreeMap::new();
        let mut matched = 0usize;
        for (label, site) in assign_sites(func, f).iter() {
            if let Some(c) = self.profile.get(site) {
                matched += 1;
                by_label.insert(label, *c);
            }
        }
        FuncProfile { by_label, matched }
    }
}

/// A [`ProfileDb`] resolved against one function's labels, so the
/// optimizer can query by the [`Label`]s it already holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncProfile {
    by_label: BTreeMap<Label, SiteCounters>,
    matched: usize,
}

impl FuncProfile {
    /// Counters for the statement labelled `label`, if profiled.
    pub fn get(&self, label: Label) -> Option<&SiteCounters> {
        self.by_label.get(&label)
    }

    /// How many of the function's sites had profile entries (used for
    /// the `sites_matched` feedback counter).
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// Whether no sites matched.
    pub fn is_empty(&self) -> bool {
        self.by_label.is_empty()
    }

    /// Measured probability that the branch at `label` was taken
    /// (then-arm / loop-continue), if its branch executed at all.
    pub fn branch_prob(&self, label: Label) -> Option<f64> {
        let c = self.by_label.get(&label)?;
        let n = c.taken + c.not_taken;
        if n == 0 {
            return None;
        }
        Some(c.taken as f64 / n as f64)
    }

    /// Measured mean iterations per loop entry for the loop at `label`.
    /// Each entry eventually exits once (`not_taken`), and every body
    /// iteration re-takes the back edge (`taken`).
    pub fn loop_trips(&self, label: Label) -> Option<f64> {
        let c = self.by_label.get(&label)?;
        if c.taken + c.not_taken == 0 {
            return None;
        }
        Some(c.taken as f64 / (c.not_taken.max(1)) as f64)
    }

    /// Measured executions of the remote operation at `label` (zero if
    /// the statement never ran).
    pub fn execs(&self, label: Label) -> Option<u64> {
        self.by_label.get(&label).map(|c| c.execs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(f: u32, path: &[u32]) -> SiteId {
        SiteId::new(FuncId(f), path.to_vec())
    }

    fn counters(rng: &mut earth_qcheck::Rng) -> SiteCounters {
        SiteCounters {
            execs: rng.range(0, 1000) as u64,
            bytes: rng.range(0, 100_000) as u64,
            stall_ns: rng.range(0, 1_000_000) as u64,
            taken: rng.range(0, 500) as u64,
            not_taken: rng.range(0, 500) as u64,
        }
    }

    fn arbitrary(rng: &mut earth_qcheck::Rng) -> Profile {
        let mut p = Profile::new();
        for _ in 0..rng.index(8) {
            let depth = rng.index(4);
            let path: Vec<u32> = (0..depth).map(|_| rng.range(0, 6) as u32).collect();
            p.record(site(rng.range(0, 4) as u32, &path), counters(rng));
        }
        p
    }

    #[test]
    fn json_round_trips() {
        earth_qcheck::cases(128, |rng| {
            let p = arbitrary(rng);
            let json = p.to_json();
            assert_eq!(Profile::from_json(&json).unwrap(), p);
            // Canonical encoding: serializing again is byte-identical.
            assert_eq!(Profile::from_json(&json).unwrap().to_json(), json);
        });
    }

    #[test]
    fn merge_laws() {
        earth_qcheck::cases(128, |rng| {
            let (a, b, c) = (arbitrary(rng), arbitrary(rng), arbitrary(rng));
            // Commutativity.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba);
            // Associativity.
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc);
            // Identity.
            let mut ae = a.clone();
            ae.merge(&Profile::new());
            assert_eq!(ae, a);
            let mut ea = Profile::new();
            ea.merge(&a);
            assert_eq!(ea, a);
        });
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"version\":2,\"sites\":{}}",
            "{\"version\":1,\"sites\":{\"nope\":{}}}",
            "{\"version\":1,\"sites\":{\"f0:\":{\"mystery\":3}}}",
            "{\"version\":1,\"sites\":{}}x",
        ] {
            assert!(Profile::from_json(bad).is_err(), "accepted: {bad}");
        }
        // Whitespace and key reordering are fine.
        let ok =
            "{ \"sites\" : { \"f0:1\" : { \"taken\" : 2 , \"execs\" : 1 } } , \"version\" : 1 }";
        let p = Profile::from_json(ok).unwrap();
        let c = p.get(&site(0, &[1])).unwrap();
        assert_eq!((c.execs, c.taken, c.bytes), (1, 2, 0));
    }

    #[test]
    fn record_drops_zero_counters() {
        let mut p = Profile::new();
        p.record(site(0, &[]), SiteCounters::default());
        assert!(p.is_empty());
        p.record(
            site(0, &[]),
            SiteCounters {
                execs: 1,
                ..SiteCounters::default()
            },
        );
        assert_eq!(p.len(), 1);
        assert_eq!(p.total().execs, 1);
    }

    #[test]
    fn collect_from_run_and_cross_node_canonical_determinism() {
        let src = r#"
            struct node { node* next; int v; };
            int main() {
                node *head;
                node *n;
                node *p;
                int i;
                int acc;
                head = NULL;
                for (i = 1; i <= 5; i = i + 1) {
                    n = malloc(sizeof(node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                acc = 0;
                p = head;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#;
        let prog = earth_frontend::compile(src).unwrap();
        let opts = earth_sim::CodegenOptions {
            record_sites: true,
            ..earth_sim::CodegenOptions::default()
        };
        let compiled = earth_sim::compile(&prog, opts).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let run_at = |nodes: u16| {
            let mut m = earth_sim::Machine::new(earth_sim::MachineConfig::with_nodes(nodes));
            m.run(&compiled, entry, &[]).unwrap()
        };
        let r1 = run_at(1);
        let p1 = Profile::from_trace(&compiled, &r1.site_trace);
        assert!(!p1.is_empty());
        // Per-node collection merges to the whole-run profile.
        let mut merged = Profile::new();
        for node in Profile::per_node(&compiled, &r1.site_trace) {
            merged.merge(&node);
        }
        assert_eq!(merged, p1);
        // Event counts are machine-independent: canonical profiles are
        // byte-identical across node counts.
        let r4 = run_at(4);
        let p4 = Profile::from_trace(&compiled, &r4.site_trace);
        assert_eq!(p1.canonical().to_json(), p4.canonical().to_json());
        // The loop site is queryable through the feedback view.
        let db = ProfileDb::new(p1);
        let (fid, f) = prog
            .iter_functions()
            .find(|(_, f)| f.name == "main")
            .unwrap();
        let view = db.function_view(fid, f);
        assert!(view.matched() > 0);
        let mut trip = None;
        f.body.walk(&mut |s| {
            if trip.is_none() && matches!(s.kind, earth_ir::StmtKind::While { .. }) {
                trip = view.loop_trips(s.label);
            }
        });
        let trip = trip.expect("while loop has a measured trip count");
        assert!((trip - 5.0).abs() < 1e-9, "trips = {trip}");
    }
}
