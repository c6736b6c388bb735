//! Remote communication expressions — the paper's `(p, f, n, Dlist)` tuples.

use earth_ir::{FieldId, Label, VarId};
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

/// A remote communication expression: field `field` of the object pointed
/// to by `base`, with an estimated dynamic frequency and the set of basic
/// statement labels (`Dlist`) whose accesses it covers.
///
/// For write tuples, `value_vars` records the variables holding the values
/// to be written; a tuple is killed when one of them is overwritten (the
/// paper keeps the original right-hand-side variables live by construction;
/// we track them explicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct Rce {
    /// The pointer variable.
    pub base: VarId,
    /// The accessed field.
    pub field: FieldId,
    /// Estimated execution frequency (`n` in the paper): multiplied by the
    /// loop factor when hoisted out of loops, divided by the number of
    /// alternatives when hoisted out of conditionals.
    pub freq: f64,
    /// Labels of the original remote accesses this tuple covers. Shared:
    /// the analysis records a copy of every tuple at every statement it
    /// can be placed before, and only a merge of two tuples changes the
    /// set — so a copy costs a reference count, not a set.
    pub labels: Rc<BTreeSet<Label>>,
    /// For write tuples: variables holding values to be written.
    pub value_vars: BTreeSet<VarId>,
    /// Whether the tuple crossed a conditional or loop boundary during
    /// propagation (placing it earlier may introduce a speculative
    /// dereference; see the paper's footnote 2).
    pub speculative: bool,
}

impl Rce {
    /// Creates a read tuple for a single access.
    pub fn read(base: VarId, field: FieldId, label: Label) -> Self {
        Rce {
            base,
            field,
            freq: 1.0,
            labels: Rc::new([label].into()),
            value_vars: BTreeSet::new(),
            speculative: false,
        }
    }

    /// Creates a write tuple for a single access.
    pub fn write(base: VarId, field: FieldId, label: Label, value: Option<VarId>) -> Self {
        Rce {
            value_vars: value.into_iter().collect(),
            ..Rce::read(base, field, label)
        }
    }

    /// The `(base, field)` location key.
    pub fn key(&self) -> (VarId, FieldId) {
        (self.base, self.field)
    }

    /// Adds the accesses `other` covers (its labels and value variables)
    /// to this tuple's.
    pub fn absorb_accesses(&mut self, other: &Rce) {
        if !other.labels.is_subset(&self.labels) {
            Rc::make_mut(&mut self.labels).extend(other.labels.iter().copied());
        }
        self.value_vars.extend(other.value_vars.iter().copied());
    }
}

impl fmt::Display for Rce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.labels.iter().map(|l| l.to_string()).collect();
        write!(
            f,
            "({}~>{}, {}, {{{}}})",
            self.base,
            self.field,
            self.freq,
            labels.join(",")
        )
    }
}

/// A set of [`Rce`] tuples, at most one per `(base, field)` key; adding a
/// tuple with an existing key merges frequencies (sum) and label sets
/// (union), as the paper's `addToSet` does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSet {
    items: Vec<Rce>,
}

impl CommSet {
    /// The empty set.
    pub fn new() -> Self {
        CommSet::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Rce> {
        self.items.iter()
    }

    /// The tuples, in insertion order.
    pub fn as_slice(&self) -> &[Rce] {
        &self.items
    }

    /// Looks up the tuple for `(base, field)`.
    pub fn get(&self, base: VarId, field: FieldId) -> Option<&Rce> {
        self.items.iter().find(|r| r.key() == (base, field))
    }

    /// Adds a tuple, merging with an existing tuple for the same location.
    pub fn add(&mut self, rce: Rce) {
        if let Some(existing) = self.items.iter_mut().find(|r| r.key() == rce.key()) {
            existing.freq += rce.freq;
            existing.absorb_accesses(&rce);
            existing.speculative |= rce.speculative;
        } else {
            self.items.push(rce);
        }
    }

    /// Removes and returns all tuples (used when draining survivors).
    pub fn into_items(self) -> Vec<Rce> {
        self.items
    }

    /// Retains only tuples satisfying the predicate.
    pub fn retain(&mut self, f: impl FnMut(&Rce) -> bool) {
        self.items.retain(f);
    }
}

impl FromIterator<Rce> for CommSet {
    fn from_iter<T: IntoIterator<Item = Rce>>(iter: T) -> Self {
        let mut s = CommSet::new();
        for r in iter {
            s.add(r);
        }
        s
    }
}

impl Extend<Rce> for CommSet {
    fn extend<T: IntoIterator<Item = Rce>>(&mut self, iter: T) {
        for r in iter {
            self.add(r);
        }
    }
}

impl fmt::Display for CommSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.items.iter().map(|r| r.to_string()).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VarId {
        VarId(n)
    }
    fn fl(n: u32) -> FieldId {
        FieldId(n)
    }
    fn l(n: u32) -> Label {
        Label(n)
    }

    #[test]
    fn add_merges_same_location() {
        let mut s = CommSet::new();
        s.add(Rce::read(v(1), fl(0), l(10)));
        s.add(Rce::read(v(1), fl(0), l(20)));
        assert_eq!(s.len(), 1);
        let r = s.get(v(1), fl(0)).unwrap();
        assert_eq!(r.freq, 2.0);
        assert_eq!(r.labels.len(), 2);
    }

    #[test]
    fn distinct_locations_stay_separate() {
        let mut s = CommSet::new();
        s.add(Rce::read(v(1), fl(0), l(10)));
        s.add(Rce::read(v(1), fl(1), l(11)));
        s.add(Rce::read(v(2), fl(0), l(12)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn write_tuples_track_value_vars() {
        let mut s = CommSet::new();
        s.add(Rce::write(v(1), fl(0), l(10), Some(v(5))));
        s.add(Rce::write(v(1), fl(0), l(11), Some(v(6))));
        let r = s.get(v(1), fl(0)).unwrap();
        assert!(r.value_vars.contains(&v(5)));
        assert!(r.value_vars.contains(&v(6)));
    }

    #[test]
    fn speculative_is_sticky() {
        let mut s = CommSet::new();
        s.add(Rce::read(v(1), fl(0), l(10)));
        s.add(Rce {
            speculative: true,
            ..Rce::read(v(1), fl(0), l(11))
        });
        assert!(s.get(v(1), fl(0)).unwrap().speculative);
    }

    #[test]
    fn display_is_readable() {
        let r = Rce::read(v(1), fl(2), l(7));
        assert_eq!(r.to_string(), "(v1~>field#2, 1, {S7})");
    }
}
