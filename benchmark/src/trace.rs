//! Spans recorded by the harness, from outside the program.
//!
//! A span is one call into a layer's public function made by a
//! workload's op: name, start, end, the span that caused it, and the op
//! it belongs to. A *probe* is a replay of a public function on the op's
//! real input, made after the op's clock has stopped, for a layer the op
//! reaches only through a facade (`parse_unit` lexes internally,
//! `apply_passes` runs the analyses, the daemon does everything behind a
//! socket). Spans and probes stay in memory until the run ends.
//!
//! With the tracer off, `enter`/`exit`/`span` read no clock and store
//! nothing: the untraced op is the same code.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layer-qualified name plus an optional tag (a kernel name).
pub type Key = (&'static str, &'static str);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Span,
    Probe,
}

#[derive(Debug)]
struct Span {
    key: Key,
    kind: Kind,
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Tracer::enter`].
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    counts: Vec<(Key, u32, f64)>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next op: later spans, probes and counts belong to it.
    /// An op that failed half-way may have left spans open; they are no
    /// one's parent from here on.
    pub fn next_op(&mut self) {
        self.op += 1;
        self.stack.clear();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, key: Key, kind: Kind) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = match kind {
            Kind::Span => self.stack.last().copied(),
            Kind::Probe => None,
        };
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            key,
            kind,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(id))
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, tag: &'static str) -> Open {
        self.open((name, tag), Kind::Span)
    }

    /// Closes a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// A leaf span around `f`.
    pub fn span<R>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, tag);
        let r = f();
        self.exit(open);
        r
    }

    /// A probe around `f`; only called while the tracer is on.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open((name, ""), Kind::Probe);
        let r = f();
        self.exit(open);
        r
    }

    /// Adds `n` to the current op's count `name`.
    pub fn count(&mut self, name: &'static str, tag: &'static str, n: f64) {
        if self.on {
            self.counts.push(((name, tag), self.op, n));
        }
    }

    /// Folds everything recorded into one [`OpTrace`] per op, in op order.
    pub fn per_op(&self) -> Vec<OpTrace> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut ops: BTreeMap<u32, OpTrace> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let op = ops.entry(s.op).or_default();
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(children_ns[i]) as f64 / 1e6;
            match s.kind {
                Kind::Span => {
                    *op.total_ms.entry(s.key).or_default() += total;
                    *op.self_ms.entry(s.key).or_default() += own;
                    op.durations_ms.entry(s.key).or_default().push(total);
                }
                Kind::Probe => *op.probe_ms.entry(s.key.0).or_default() += total,
            }
        }
        for &(key, op, n) in &self.counts {
            *ops.entry(op).or_default().counts.entry(key).or_default() += n;
        }
        ops.into_values().collect()
    }
}

/// What one traced op recorded, summed by name.
#[derive(Debug, Default)]
pub struct OpTrace {
    total_ms: BTreeMap<Key, f64>,
    self_ms: BTreeMap<Key, f64>,
    durations_ms: BTreeMap<Key, Vec<f64>>,
    probe_ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<Key, f64>,
}

impl OpTrace {
    /// Span time under `name`, all tags, children included.
    pub fn total(&self, name: &str) -> f64 {
        sum_named(&self.total_ms, name)
    }

    /// Span time under `name` and `tag`, children included.
    pub fn total_tagged(&self, name: &str, tag: &str) -> f64 {
        self.total_ms
            .iter()
            .filter(|((n, t), _)| *n == name && *t == tag)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Span time under `name` minus the part its child spans cover.
    pub fn self_time(&self, name: &str) -> f64 {
        sum_named(&self.self_ms, name)
    }

    /// The duration of every span under `name`, in recording order.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.durations_ms
            .iter()
            .filter(move |((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
    }

    pub fn probe(&self, name: &str) -> f64 {
        self.probe_ms.get(name).copied().unwrap_or(0.0)
    }

    /// The count under `name`, all tags.
    pub fn count(&self, name: &str) -> f64 {
        sum_named(&self.counts, name)
    }
}

fn sum_named(map: &BTreeMap<Key, f64>, name: &str) -> f64 {
    map.iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, v)| *v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::on();
        t.next_op();
        let root = t.enter("op", "");
        t.span("a", "x", || spin(300));
        t.span("a", "y", || spin(300));
        spin(200);
        t.exit(root);
        t.probe("p", || spin(100));
        t.count("n", "", 2.0);
        t.count("n", "", 3.0);
        t.next_op();
        t.span("a", "x", || spin(50));

        let ops = t.per_op();
        assert_eq!(ops.len(), 2);
        let op = &ops[0];
        let children = op.total("a");
        assert!(children >= 0.6, "{children}");
        assert!((op.total("op") - children - op.self_time("op")).abs() < 1e-9);
        assert!(op.self_time("op") >= 0.2);
        assert!(op.total_tagged("a", "x") >= 0.3 && op.total_tagged("a", "x") < children);
        assert_eq!(op.durations("a").count(), 2);
        // A probe is no child of the op: it ran after the op's clock stopped.
        assert!(op.probe("p") >= 0.1);
        assert_eq!(op.count("n"), 5.0);
        assert_eq!(ops[1].count("n"), 0.0);
        assert!(ops[1].total("a") < 0.3);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        t.next_op();
        let root = t.enter("op", "");
        assert_eq!(t.span("a", "", || 7), 7);
        t.exit(root);
        t.count("n", "", 1.0);
        assert!(t.per_op().is_empty());
    }
}
