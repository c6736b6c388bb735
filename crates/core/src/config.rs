//! Configuration of the communication optimizer.

use earth_profile::ProfileDb;
use std::sync::Arc;

/// The frequency-adjustment model of the possible-placement analysis
/// (the paper's `adjustFrequency`, Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct FreqModel {
    /// Factor applied when a tuple moves out of a loop ("corresponding to
    /// the expected number of times the loop will execute"); the paper
    /// uses 10.
    pub loop_factor: f64,
    /// Minimum frequency for a tuple to be selected for placement; the
    /// paper requires "1 or more".
    pub placement_threshold: f64,
}

impl Default for FreqModel {
    fn default() -> Self {
        FreqModel {
            loop_factor: 10.0,
            placement_threshold: 1.0,
        }
    }
}

/// Communication cost parameters, in nanoseconds, mirroring the paper's
/// Table I (EARTH-MANNA). Used by communication selection to choose between
/// pipelined scalar operations and blocked `blkmov` transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCostModel {
    /// Pipelined remote read of one word.
    pub read_pipelined_ns: f64,
    /// Pipelined remote write of one word.
    pub write_pipelined_ns: f64,
    /// Pipelined block move of one word (base cost of a `blkmov`).
    pub blkmov_pipelined_ns: f64,
    /// Additional streaming cost per extra word in a block move
    /// (8-byte word over the 50 MB/s MANNA link ⇒ 160 ns).
    pub blkmov_per_word_ns: f64,
}

impl Default for CommCostModel {
    fn default() -> Self {
        CommCostModel {
            read_pipelined_ns: 1908.0,
            write_pipelined_ns: 1749.0,
            blkmov_pipelined_ns: 2602.0,
            blkmov_per_word_ns: 160.0,
        }
    }
}

impl CommCostModel {
    /// Cost of a block move of `words` words (pipelined issue).
    pub fn blkmov_cost(&self, words: usize) -> f64 {
        self.blkmov_pipelined_ns + self.blkmov_per_word_ns * words.saturating_sub(1) as f64
    }

    /// Cost of `reads` pipelined scalar reads plus `writes` pipelined
    /// scalar writes.
    pub fn pipelined_cost(&self, reads: usize, writes: usize) -> f64 {
        self.read_pipelined_ns * reads as f64 + self.write_pipelined_ns * writes as f64
    }
}

/// Which alias/frequency analysis feeds the placement cost model.
///
/// The *safety* rules (kill rules, span-conflict checks) are identical in
/// both modes — probabilities may only reweight cost decisions, an
/// invariant the `earth-lint` validator enforces (diagnostics
/// `ALP001`–`ALP003`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AliasMode {
    /// The paper's binary may-alias facts and static frequency guesses.
    #[default]
    Binary,
    /// Probability-annotated facts (`earth_analysis::ptprob`): structural
    /// branch heuristics weight tuple frequencies, and recognized pointer
    /// inductions unlock a cost-only blocking relaxation in
    /// pointer-chasing loops.
    Prob,
}

/// Whether the whole-program escape & node-affinity analysis may upgrade
/// pointer locality — including *through loads*, the case locality
/// inference refuses — so placement drops the corresponding communication
/// tuples entirely.
///
/// Like [`AliasMode`], this only relaxes what the optimizer *does*; every
/// upgrade is recorded as an `EscapeJustification` in the `MotionLog` and
/// independently re-derived by `earth-lint` (diagnostics `ESC001`–`ESC003`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EscapeMode {
    /// No escape analysis: only declared/inferred `local` pointers compile
    /// to local accesses (the paper's pipeline).
    #[default]
    Off,
    /// Run `earth_analysis::escape` and apply its `NodeLocal` /
    /// `OwnerConfined` upgrades before placement.
    On,
}

/// Full optimizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CommOptConfig {
    /// Frequency model for placement analysis.
    pub freq: FreqModel,
    /// Cost model for pipelining-vs-blocking decisions.
    pub cost: CommCostModel,
    /// Minimum number of distinct remote words (reads + writes) accessed
    /// through one pointer for blocking to be considered; the paper used 3
    /// ("a block-move is better when three or more words can be moved
    /// together").
    pub block_threshold: usize,
    /// Maximum ratio of struct size to words actually needed for blocking
    /// to stay profitable (the paper: "if the structure being read is very
    /// large compared to the number of fields actually required, the
    /// tradeoff shifts towards pipelined communication"). Moving spurious
    /// words costs wire time *and* adds completion latency on dependent
    /// chains.
    pub spurious_ratio: f64,
    /// Whether the runtime tolerates remote reads of potentially-invalid
    /// addresses (the paper's footnote 2: the EARTH runtime "can
    /// speculatively issue the remote operation, even for an invalid
    /// address"); the default. When `false`, a tuple that crossed a
    /// conditional, loop, or possibly-returning statement is only placed
    /// at points where the must-dereference analysis guarantees a
    /// dereference of its base on every path (the footnote's first
    /// method).
    pub speculative_remote_ok: bool,
    /// Enable code motion of remote reads (earliest placement). Disabling
    /// leaves reads in place but still eliminates redundant ones — an
    /// ablation axis.
    pub enable_motion: bool,
    /// Enable blocking (`blkmov`) of grouped accesses.
    pub enable_blocking: bool,
    /// Enable redundant-communication elimination (reuse of an already
    /// issued read).
    pub enable_redundancy_elim: bool,
    /// Measured execution profile (profile-guided optimization). When set,
    /// placement replaces the static frequency guesses — halved branch
    /// frequencies, `loop_factor` trip counts — with measured branch
    /// probabilities and trip counts, and blocking becomes a pure
    /// cost-model decision over measured execution counts
    /// ([`SpanFrequency::Measured`]).
    /// `None` keeps the paper's static heuristics.
    pub profile: Option<Arc<ProfileDb>>,
    /// Which alias/frequency analysis feeds the cost model
    /// (`--alias {binary,prob}`; default binary, the paper's analysis).
    pub alias: AliasMode,
    /// Whether escape-analysis locality upgrades are applied before
    /// placement (`--escape {on,off}`; default off).
    pub escape: EscapeMode,
}

impl Default for CommOptConfig {
    fn default() -> Self {
        CommOptConfig {
            freq: FreqModel::default(),
            cost: CommCostModel::default(),
            block_threshold: 3,
            spurious_ratio: 2.0,
            speculative_remote_ok: true,
            enable_motion: true,
            enable_blocking: true,
            enable_redundancy_elim: true,
            profile: None,
            alias: AliasMode::default(),
            escape: EscapeMode::default(),
        }
    }
}

impl CommOptConfig {
    /// A configuration with every optimization disabled (the "simple"
    /// compile of the paper's evaluation).
    pub fn disabled() -> Self {
        CommOptConfig {
            enable_motion: false,
            enable_blocking: false,
            enable_redundancy_elim: false,
            ..CommOptConfig::default()
        }
    }

    /// Should a span of accesses through one pointer be blocked?
    ///
    /// Blocking pays when the `blkmov` read (skipped for a
    /// fully-initializing span, whose every word is written before any
    /// read) plus, if the span writes, the write-back `blkmov` costs less
    /// *issue* time than the span's pipelined scalar reads and writes.
    /// Two gates come first. The evidence's [`SpanFrequency`] picks one:
    /// a static guess must clear `block_threshold`; a measured span must
    /// have executed; an induction span's loop must continue with
    /// probability at least 0.5, and its pipelined side is discounted by
    /// that probability. The other is the spurious-words rule, whatever the
    /// evidence: a transfer over `spurious_ratio` times the words needed
    /// stays pipelined, which protects dependent chains from the longer
    /// `blkmov` completion latency.
    pub fn should_block(&self, span: &SpanEvidence) -> bool {
        if !self.enable_blocking {
            return false;
        }
        let words_needed = span.read_fields + span.write_fields;
        let frequent_enough = match span.freq {
            SpanFrequency::Static => words_needed >= self.block_threshold,
            SpanFrequency::Induction(loop_prob) => loop_prob >= 0.5,
            SpanFrequency::Measured(execs) => execs > 0,
        };
        if !frequent_enough || span.words as f64 > self.spurious_ratio * words_needed as f64 {
            return false;
        }
        let block = self.cost.blkmov_cost(span.words);
        let read = if span.full_init { 0.0 } else { block };
        let write_back = if span.write_fields > 0 { block } else { 0.0 };
        let mut pipelined = self
            .cost
            .pipelined_cost(span.read_fields, span.write_fields);
        if let SpanFrequency::Induction(loop_prob) = span.freq {
            pipelined *= loop_prob;
        }
        read + write_back < pipelined
    }
}

/// What selection knows about a span of accesses through one pointer:
/// the input of [`CommOptConfig::should_block`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvidence {
    /// Distinct fields the span reads.
    pub read_fields: usize,
    /// Distinct fields the span writes.
    pub write_fields: usize,
    /// Words a block move of the span transfers.
    pub words: usize,
    /// Every transferred word is written before any is read, so no
    /// up-front block read is needed.
    pub full_init: bool,
    /// How often the span is believed to run.
    pub freq: SpanFrequency,
}

/// The source of a span's execution frequency, which picks the gate of
/// [`CommOptConfig::should_block`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanFrequency {
    /// The paper's static guess: the span must need at least
    /// `block_threshold` words.
    Static,
    /// The span's pointer is a recognized loop induction (`p = p->f` once
    /// per iteration, prob-alias mode) and the loop continues with this
    /// probability; it provably runs once per surviving iteration, so the
    /// cost model alone decides, discounted by the probability.
    Induction(f64),
    /// The span's accesses executed this many times in a profiling run;
    /// the cost model alone decides any span that ran, and one that never
    /// ran is not blocked (its `blkmov` would be pure overhead).
    Measured(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per decision: the evidence, the expected answer under the
    /// default configuration, and why.
    #[test]
    fn blocking_decisions_follow_their_evidence() {
        use SpanFrequency::{Induction, Measured, Static};
        #[rustfmt::skip]
        let rows: &[(SpanFrequency, usize, usize, usize, bool, bool, &str)] = &[
            // freq, reads, writes, words, full_init, block, why
            (Static, 2, 0, 2, false, false, "two reads are under the threshold of three"),
            (Static, 3, 0, 3, false, true, "three reads of a three-word struct"),
            (Static, 2, 2, 2, false, true, "Figure 4: two reads and two writes of a two-word struct"),
            (Static, 3, 0, 60, false, false, "60 words streamed for three"),
            (Static, 3, 0, 7, false, false, "spurious words: 7 > 2 x 3"),
            (Static, 4, 0, 7, false, true, "spurious words: 7 <= 2 x 4"),
            (Static, 0, 2, 2, true, false, "a full-init span still needs the threshold"),
            (Measured(100), 2, 0, 2, false, true, "hot two-word span: 2 x 1908 > 2602"),
            (Measured(0), 3, 0, 3, false, false, "a span that never ran"),
            (Measured(100), 3, 0, 60, false, false, "spurious words under measurement"),
            (Measured(100), 1, 0, 1, false, false, "one read never beats its own blkmov"),
            (Measured(100), 0, 2, 2, false, false, "read and write-back: 2 x 2762 > 2 x 1749"),
            (Measured(100), 0, 2, 2, true, true, "full init skips the read: 2762 < 2 x 1749"),
            (Induction(0.9), 2, 0, 2, false, true, "list node: 2762 < 3816 x 0.9"),
            (Induction(0.3), 2, 0, 2, false, false, "a loop likelier to exit"),
            (Induction(0.9), 2, 0, 60, false, false, "spurious words on an induction"),
            (Induction(0.9), 1, 0, 1, false, false, "one read never beats its own blkmov"),
            (Induction(0.7), 2, 0, 2, false, false, "the discount tips it: 2762 > 3816 x 0.7"),
        ];
        let cfg = CommOptConfig::default();
        let off = CommOptConfig {
            enable_blocking: false,
            ..CommOptConfig::default()
        };
        for &(freq, read_fields, write_fields, words, full_init, block, why) in rows {
            let span = SpanEvidence {
                read_fields,
                write_fields,
                words,
                full_init,
                freq,
            };
            assert_eq!(cfg.should_block(&span), block, "{why}: {span:?}");
            assert!(!off.should_block(&span), "blocking disabled: {span:?}");
        }
    }

    #[test]
    fn cost_model_matches_table_one() {
        let c = CommCostModel::default();
        assert_eq!(c.blkmov_cost(1), 2602.0);
        assert_eq!(c.blkmov_cost(3), 2602.0 + 320.0);
        assert_eq!(c.pipelined_cost(2, 1), 2.0 * 1908.0 + 1749.0);
    }

    #[test]
    fn alias_mode_defaults_to_binary() {
        assert_eq!(CommOptConfig::default().alias, AliasMode::Binary);
        assert_eq!(AliasMode::default(), AliasMode::Binary);
    }

    #[test]
    fn escape_mode_defaults_to_off() {
        assert_eq!(CommOptConfig::default().escape, EscapeMode::Off);
        assert_eq!(EscapeMode::default(), EscapeMode::Off);
    }

    #[test]
    fn disabled_config_turns_everything_off() {
        let cfg = CommOptConfig::disabled();
        assert!(!cfg.enable_motion);
        assert!(!cfg.enable_blocking);
        assert!(!cfg.enable_redundancy_elim);
    }
}
