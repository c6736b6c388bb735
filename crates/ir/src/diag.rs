//! Unified diagnostics for the EARTH-C toolchain.
//!
//! Every checking layer — IR validation ([`crate::validate`]), the frontend's
//! error paths, and the `earth-lint` translation validator and race linter —
//! reports problems as [`Diagnostic`] values: a stable code, a severity, the
//! enclosing function, statement labels pinpointing the offending SIMPLE
//! statements, and free-form notes.
//!
//! Diagnostics render two ways:
//!
//! * [`Diagnostic::render`] — human-readable terminal output;
//! * [`Diagnostic::to_json`] / [`Diagnostic::from_json`] — a machine-readable
//!   JSON encoding declared once with [`json_codec!`](crate::json_codec), so it
//!   round-trips by construction.
//!
//! # Examples
//!
//! ```
//! use earth_ir::diag::{Diagnostic, Severity};
//! use earth_ir::Label;
//!
//! let d = Diagnostic::error("PLC001", "hoisted read crosses a killing write")
//!     .in_func("walk")
//!     .with_label(Label(4), "read inserted here")
//!     .with_label(Label(9), "this statement writes the base pointer")
//!     .with_note("re-derived from the pre-optimization rw-sets");
//! assert!(d.render().contains("error[PLC001]"));
//! let back = Diagnostic::from_json(&d.to_json()).unwrap();
//! assert_eq!(d, back);
//! ```

use crate::json::{self, Encode, Json, Value};
use crate::stmt::Label;
use std::fmt;

pub use crate::json::JsonError;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational remark (e.g. a construct proven independent).
    Note,
    /// Possible problem; the toolchain continues.
    Warning,
    /// Confirmed violation of an invariant.
    Error,
}

impl Severity {
    /// Lowercase name used in rendering and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl Encode for Severity {
    fn encode(&self, out: &mut String) {
        self.name().encode(out);
    }
}

/// Read back by [`Severity::name`].
impl Json for Severity {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        let name = String::decode(v, what)?;
        [Severity::Note, Severity::Warning, Severity::Error]
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| JsonError::shape(format!("unknown severity `{name}`")))
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A statement label attached to a diagnostic, with its own message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagLabel {
    /// The SIMPLE statement the message points at.
    pub label: Label,
    /// What this statement has to do with the problem.
    pub message: String,
}

crate::json_codec!(struct DiagLabel { label, message });

/// One diagnostic: code, severity, location, message, and notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (e.g. `IR001`, `PLC002`, `RACE001`).
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// Function the problem was found in, if any.
    pub func: Option<String>,
    /// Primary human-readable message.
    pub message: String,
    /// Statement labels involved, in order of relevance.
    pub labels: Vec<DiagLabel>,
    /// Additional free-form explanations.
    pub notes: Vec<String>,
}

crate::json_codec!(struct Diagnostic { code, severity, func, message, labels, notes });

impl Diagnostic {
    /// Creates a diagnostic with the given severity.
    pub fn new(severity: Severity, code: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.into(),
            severity,
            func: None,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self::new(Severity::Error, code, message)
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self::new(Severity::Warning, code, message)
    }

    /// A note-severity diagnostic.
    pub fn note(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self::new(Severity::Note, code, message)
    }

    /// Sets the enclosing function.
    pub fn in_func(mut self, name: impl Into<String>) -> Self {
        self.func = Some(name.into());
        self
    }

    /// Attaches a statement label with a message.
    pub fn with_label(mut self, label: Label, message: impl Into<String>) -> Self {
        self.labels.push(DiagLabel {
            label,
            message: message.into(),
        });
        self
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Pretty terminal rendering, e.g.:
    ///
    /// ```text
    /// error[PLC001] in `walk`: hoisted read crosses a killing write
    ///   --> S4: read inserted here
    ///   --> S9: this statement writes the base pointer
    ///   note: re-derived from the pre-optimization rw-sets
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}[{}]", self.severity, self.code));
        if let Some(f) = &self.func {
            out.push_str(&format!(" in `{f}`"));
        }
        out.push_str(&format!(": {}", self.message));
        for l in &self.labels {
            out.push_str(&format!("\n  --> {}: {}", l.label, l.message));
        }
        for n in &self.notes {
            out.push_str(&format!("\n  note: {n}"));
        }
        out
    }

    /// Machine-readable JSON encoding (one object).
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Parses a diagnostic back from its [`Diagnostic::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON or a well-formed value of
    /// the wrong shape.
    pub fn from_json(src: &str) -> Result<Diagnostic, JsonError> {
        json::decode(src, "diagnostic")
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders a batch of diagnostics, one per paragraph.
pub fn render_all(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Encodes a batch of diagnostics as a JSON array.
pub fn to_json_array(diags: &[Diagnostic]) -> String {
    json::encode(diags)
}

/// Parses a batch of diagnostics from a JSON array.
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed JSON or mis-shaped entries.
pub fn from_json_array(src: &str) -> Result<Vec<Diagnostic>, JsonError> {
    json::decode(src, "diagnostics")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::error("PLC001", "hoisted read of `p->x` crosses a killing write")
            .in_func("walk")
            .with_label(Label(4), "read inserted before this statement")
            .with_label(Label(9), "offending write of base `p`")
            .with_note("re-derived from rw-sets of the pre-optimization IR")
    }

    #[test]
    fn render_mentions_everything() {
        let r = sample().render();
        assert!(r.contains("error[PLC001]"));
        assert!(r.contains("in `walk`"));
        assert!(r.contains("S4"));
        assert!(r.contains("S9"));
        assert!(r.contains("note:"));
    }

    #[test]
    fn json_round_trips() {
        let d = sample();
        assert_eq!(Diagnostic::from_json(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn json_round_trips_with_escapes_and_no_func() {
        let d = Diagnostic::warning("RACE002", "tab\there \"quoted\" back\\slash\nnewline")
            .with_note("unicode: λ → ∀");
        assert_eq!(Diagnostic::from_json(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn json_round_trips_control_characters() {
        let mut msg = String::from("ctrl:");
        for cp in 0u32..0x20 {
            msg.push(char::from_u32(cp).unwrap());
        }
        let d = Diagnostic::error("IR000", msg.clone()).with_note(msg);
        let enc = d.to_json();
        assert!(enc.chars().all(|c| (c as u32) >= 0x20), "{enc:?}");
        assert_eq!(Diagnostic::from_json(&enc).unwrap(), d);
    }

    #[test]
    fn json_array_round_trips() {
        let batch = vec![
            sample(),
            Diagnostic::note("RACE000", "forall is independent"),
        ];
        let enc = to_json_array(&batch);
        assert_eq!(from_json_array(&enc).unwrap(), batch);
        assert_eq!(from_json_array("[]").unwrap(), Vec::new());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Diagnostic::from_json("{").is_err());
        assert!(Diagnostic::from_json("[]").is_err());
        assert!(Diagnostic::from_json("{\"code\":3}").is_err());
        assert!(from_json_array("{\"code\":3}").is_err());
        let bad_sev = "{\"code\":\"X\",\"severity\":\"fatal\",\"func\":null,\
                       \"message\":\"m\",\"labels\":[],\"notes\":[]}";
        assert!(Diagnostic::from_json(bad_sev).is_err());
    }

    #[test]
    fn severity_ordering_puts_errors_last() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
