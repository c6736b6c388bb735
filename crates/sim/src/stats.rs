//! Communication and execution statistics.

use std::cmp::Reverse;
use std::fmt;
use std::ops::AddAssign;

/// Dynamic operation counts and timing collected during a run. The
/// communication categories (`read_data`, `write_data`, `blkmov`) are the
/// ones reported in the paper's Figure 10.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Remote word reads issued (the paper's "read-data").
    pub read_data: u64,
    /// Remote word writes issued (the paper's "write-data").
    pub write_data: u64,
    /// Block moves issued, either direction (the paper's "blkmov").
    pub blkmov: u64,
    /// Words carried by block moves (for bandwidth accounting).
    pub blkmov_words: u64,
    /// Remote atomic operations on shared variables.
    pub atomic_remote: u64,
    /// Remote function invocations (`@OWNER_OF` / `@node` to another
    /// node).
    pub remote_calls: u64,
    /// Threads spawned (parallel-sequence arms + forall iterations).
    pub spawns: u64,
    /// Local memory accesses.
    pub local_mem: u64,
    /// Bytecode operations executed.
    pub ops: u64,
    /// Total time threads spent stalled waiting for split-phase results.
    pub stall_ns: u64,
}

impl Stats {
    /// Total remote communication operations (Figure 10's metric).
    pub fn total_comm(&self) -> u64 {
        self.read_data + self.write_data + self.blkmov
    }
}

impl AddAssign for Stats {
    fn add_assign(&mut self, o: Stats) {
        self.read_data += o.read_data;
        self.write_data += o.write_data;
        self.blkmov += o.blkmov;
        self.blkmov_words += o.blkmov_words;
        self.atomic_remote += o.atomic_remote;
        self.remote_calls += o.remote_calls;
        self.spawns += o.spawns;
        self.local_mem += o.local_mem;
        self.ops += o.ops;
        self.stall_ns += o.stall_ns;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read-data {} | write-data {} | blkmov {} ({} words) | remote-calls {} | atomics {} | spawns {} | ops {}",
            self.read_data,
            self.write_data,
            self.blkmov,
            self.blkmov_words,
            self.remote_calls,
            self.atomic_remote,
            self.spawns,
            self.ops
        )
    }
}

/// The shape of a bytecode operation, for per-op execution histograms.
/// Parallel to [`Op`](crate::bytecode::Op)'s variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the Op variants
#[repr(u8)]
pub enum OpKind {
    Mov,
    Bin,
    Un,
    LoadLocal,
    LoadRemote,
    StoreLocal,
    StoreRemote,
    BlkRead,
    BlkWrite,
    CopySlots,
    Malloc,
    AllocShared,
    AtomicWrite,
    AtomicAdd,
    ValueOf,
    Call,
    Builtin,
    Ret,
    Jmp,
    Br,
    Switch,
    Fork,
    SpawnIter,
    JoinIters,
    EndArm,
}

impl OpKind {
    /// Number of kinds (histogram width).
    pub const COUNT: usize = 25;

    /// Every kind, in declaration order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Mov,
        OpKind::Bin,
        OpKind::Un,
        OpKind::LoadLocal,
        OpKind::LoadRemote,
        OpKind::StoreLocal,
        OpKind::StoreRemote,
        OpKind::BlkRead,
        OpKind::BlkWrite,
        OpKind::CopySlots,
        OpKind::Malloc,
        OpKind::AllocShared,
        OpKind::AtomicWrite,
        OpKind::AtomicAdd,
        OpKind::ValueOf,
        OpKind::Call,
        OpKind::Builtin,
        OpKind::Ret,
        OpKind::Jmp,
        OpKind::Br,
        OpKind::Switch,
        OpKind::Fork,
        OpKind::SpawnIter,
        OpKind::JoinIters,
        OpKind::EndArm,
    ];

    /// Display name (the Op variant's name).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Mov => "Mov",
            OpKind::Bin => "Bin",
            OpKind::Un => "Un",
            OpKind::LoadLocal => "LoadLocal",
            OpKind::LoadRemote => "LoadRemote",
            OpKind::StoreLocal => "StoreLocal",
            OpKind::StoreRemote => "StoreRemote",
            OpKind::BlkRead => "BlkRead",
            OpKind::BlkWrite => "BlkWrite",
            OpKind::CopySlots => "CopySlots",
            OpKind::Malloc => "Malloc",
            OpKind::AllocShared => "AllocShared",
            OpKind::AtomicWrite => "AtomicWrite",
            OpKind::AtomicAdd => "AtomicAdd",
            OpKind::ValueOf => "ValueOf",
            OpKind::Call => "Call",
            OpKind::Builtin => "Builtin",
            OpKind::Ret => "Ret",
            OpKind::Jmp => "Jmp",
            OpKind::Br => "Br",
            OpKind::Switch => "Switch",
            OpKind::Fork => "Fork",
            OpKind::SpawnIter => "SpawnIter",
            OpKind::JoinIters => "JoinIters",
            OpKind::EndArm => "EndArm",
        }
    }
}

/// Per-op-kind dispatch counts for one run, collected when
/// [`record_op_stats`](crate::machine::MachineConfig::record_op_stats) is
/// set. Counts *dispatch attempts*, exactly like [`Stats::ops`]: an op that
/// stalls on a not-yet-ready input and later resumes is counted twice, so
/// `total()` always equals the run's `stats.ops`. This is the data fusion
/// candidates are chosen from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Dispatch counts indexed by [`OpKind`] discriminant.
    pub counts: [u64; OpKind::COUNT],
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            counts: [0; OpKind::COUNT],
        }
    }
}

impl OpStats {
    /// Records one dispatch of `kind`.
    #[inline]
    pub fn bump(&mut self, kind: OpKind) {
        self.counts[kind as usize] += 1;
    }

    /// Total dispatches across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// `(kind, count)` pairs with nonzero counts, most-executed first
    /// (ties broken by declaration order, so the listing is stable).
    pub fn sorted(&self) -> Vec<(OpKind, u64)> {
        let mut v: Vec<(OpKind, u64)> = OpKind::ALL
            .iter()
            .map(|&k| (k, self.counts[k as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(k, c)| (Reverse(c), k as usize));
        v
    }
}

impl AddAssign for OpStats {
    fn add_assign(&mut self, o: OpStats) {
        for (a, b) in self.counts.iter_mut().zip(o.counts.iter()) {
            *a += *b;
        }
    }
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        writeln!(f, "op-stats ({total} dispatches):")?;
        for (k, c) in self.sorted() {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * c as f64 / total as f64
            };
            writeln!(f, "  {:<12} {:>12}  {:>5.1}%", k.name(), c, pct)?;
        }
        Ok(())
    }
}

/// Event counters for one profile site (one statement) on one node,
/// collected when the program was compiled with
/// [`record_sites`](crate::codegen::CodegenOptions::record_sites).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Executions of the site's instrumented operation (remote memory op
    /// or branch).
    pub execs: u64,
    /// Bytes moved by remote reads/writes/block moves at this site
    /// (8 bytes per word).
    pub bytes: u64,
    /// Nanoseconds the EU stalled on a not-yet-ready input at this site.
    pub stall_ns: u64,
    /// Branch outcomes: condition true (loop continues / then-branch).
    pub taken: u64,
    /// Branch outcomes: condition false (loop exits / else-branch).
    pub not_taken: u64,
}

// A profile's counters: strict, so that a misspelt counter is an error
// rather than a zero; a counter left out reads 0.
earth_ir::json_codec!(#[strict] struct SiteCounters {
    execs = 0,
    bytes = 0,
    stall_ns = 0,
    taken = 0,
    not_taken = 0,
});

impl SiteCounters {
    /// Whether nothing was recorded at this site.
    pub fn is_zero(&self) -> bool {
        *self == SiteCounters::default()
    }
}

impl AddAssign for SiteCounters {
    fn add_assign(&mut self, o: SiteCounters) {
        self.execs += o.execs;
        self.bytes += o.bytes;
        self.stall_ns += o.stall_ns;
        self.taken += o.taken;
        self.not_taken += o.not_taken;
    }
}

/// Per-site, per-node counters of one run; `per_site[site][node]` where
/// `site` indexes [`CompiledProgram::site_table`](crate::bytecode::CompiledProgram::site_table).
///
/// Empty when the program was compiled without site recording.
#[derive(Debug, Clone, Default)]
pub struct SiteTrace {
    /// Counters indexed `[site][node]`.
    pub per_site: Vec<Vec<SiteCounters>>,
}

impl SiteTrace {
    /// A trace sized for `sites` sites on `nodes` nodes.
    pub fn sized(sites: usize, nodes: usize) -> Self {
        SiteTrace {
            per_site: vec![vec![SiteCounters::default(); nodes]; sites],
        }
    }

    /// Whether any site recorded any event.
    pub fn any_events(&self) -> bool {
        self.per_site
            .iter()
            .any(|ns| ns.iter().any(|c| !c.is_zero()))
    }

    /// Sums a site's counters across nodes.
    pub fn site_total(&self, site: usize) -> SiteCounters {
        let mut acc = SiteCounters::default();
        for c in &self.per_site[site] {
            acc += *c;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_counters_add_and_total() {
        let mut t = SiteTrace::sized(2, 2);
        t.per_site[1][0].execs = 3;
        t.per_site[1][0].bytes = 24;
        t.per_site[1][1].execs = 2;
        assert!(t.any_events());
        let total = t.site_total(1);
        assert_eq!(total.execs, 5);
        assert_eq!(total.bytes, 24);
        assert!(t.site_total(0).is_zero());
        assert!(!SiteTrace::default().any_events());
    }

    #[test]
    fn totals_and_add() {
        let mut a = Stats {
            read_data: 2,
            write_data: 3,
            blkmov: 1,
            ..Stats::default()
        };
        assert_eq!(a.total_comm(), 6);
        let b = Stats {
            read_data: 1,
            ..Stats::default()
        };
        a += b;
        assert_eq!(a.read_data, 3);
        assert!(a.to_string().contains("read-data 3"));
    }
}
