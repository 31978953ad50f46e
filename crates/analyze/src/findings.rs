//! Findings: severity-ranked diagnostics with deterministic JSON and
//! rustc-style text rendering.
//!
//! Findings are value types; the [`crate::analyze`] entry point collects
//! them from the individual passes, sorts them into a stable order
//! (severity, then code, then address), and the two renderers here
//! guarantee byte-identical output for identical analyses.

use std::fmt::Write as _;

use audo_obs::chrome::json_escape;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program violates the platform contract (writes to flash,
    /// unmapped or misaligned accesses, unsynchronized multi-master
    /// write overlap). The analyzer exits non-zero.
    Error,
    /// Suspicious but not provably wrong (multi-master read/write
    /// overlap, infinite loop with no exit edge).
    Warning,
    /// Worth knowing (data-flash EEPROM writes, possibly-unreachable
    /// code).
    Info,
}

impl Severity {
    /// Lower-case label used in both renderers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity rank.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case), e.g. `flash-write`.
    pub code: &'static str,
    /// The guest address the finding anchors to (an instruction site, a
    /// block start, or a data address), if any.
    pub addr: Option<u32>,
    /// One-line human-readable statement of the defect.
    pub message: String,
    /// Enclosing symbol of `addr`, when the image knows one.
    pub context: Option<String>,
    /// Extra `= note:` line for the text renderer.
    pub note: Option<String>,
}

impl Finding {
    /// Builds a finding with no context/note (the common case).
    #[must_use]
    pub fn new(severity: Severity, code: &'static str, addr: Option<u32>, message: String) -> Self {
        Finding {
            severity,
            code,
            addr,
            message,
            context: None,
            note: None,
        }
    }

    /// Stable sort key: severity, then code, then address, then message.
    #[must_use]
    pub fn sort_key(&self) -> (Severity, &'static str, u64, &str) {
        // Missing addresses sort after all real ones.
        let addr = self.addr.map_or(u64::MAX, u64::from);
        (self.severity, self.code, addr, &self.message)
    }
}

/// Renders findings as a deterministic JSON document.
///
/// The caller passes the findings already sorted (see
/// [`Finding::sort_key`]); this function serializes them verbatim, so
/// repeated runs over the same image produce byte-identical output.
#[must_use]
pub fn render_json(image_name: &str, findings: &[Finding]) -> String {
    let count = |s: Severity| findings.iter().filter(|f| f.severity == s).count();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"image\": \"{}\",", json_escape(image_name));
    let _ = writeln!(out, "  \"errors\": {},", count(Severity::Error));
    let _ = writeln!(out, "  \"warnings\": {},", count(Severity::Warning));
    let _ = writeln!(out, "  \"infos\": {},", count(Severity::Info));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {");
        let _ = write!(out, "\"severity\": \"{}\"", f.severity.label());
        let _ = write!(out, ", \"code\": \"{}\"", f.code);
        match f.addr {
            Some(a) => {
                let _ = write!(out, ", \"addr\": \"{a:#010x}\"");
            }
            None => out.push_str(", \"addr\": null"),
        }
        let _ = write!(out, ", \"message\": \"{}\"", json_escape(&f.message));
        if let Some(ctx) = &f.context {
            let _ = write!(out, ", \"context\": \"{}\"", json_escape(ctx));
        }
        if let Some(note) = &f.note {
            let _ = write!(out, ", \"note\": \"{}\"", json_escape(note));
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders findings as a rustc-style text report.
#[must_use]
pub fn render_text(image_name: &str, findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}[{}]: {}", f.severity.label(), f.code, f.message);
        if let Some(a) = f.addr {
            match &f.context {
                Some(ctx) => {
                    let _ = writeln!(out, "  --> {a:#010x} (in {ctx})");
                }
                None => {
                    let _ = writeln!(out, "  --> {a:#010x}");
                }
            }
        }
        if let Some(note) = &f.note {
            let _ = writeln!(out, "  = note: {note}");
        }
    }
    let e = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let w = findings
        .iter()
        .filter(|f| f.severity == Severity::Warning)
        .count();
    if findings.is_empty() {
        let _ = writeln!(out, "{image_name}: no findings");
    } else {
        let _ = writeln!(
            out,
            "{image_name}: {} finding(s), {e} error(s), {w} warning(s)",
            findings.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding::new(
                Severity::Error,
                "flash-write",
                Some(0x8000_0040),
                "store to program flash".into(),
            ),
            Finding {
                severity: Severity::Warning,
                code: "infinite-loop",
                addr: Some(0x8000_0100),
                message: "loop with no exit edge".into(),
                context: Some("spin".into()),
                note: Some("no halt, wait or outgoing edge in the cycle".into()),
            },
        ]
    }

    #[test]
    fn json_is_deterministic_and_escapes() {
        let f = vec![Finding::new(
            Severity::Info,
            "test",
            None,
            "quote \" backslash \\ newline \n".into(),
        )];
        let a = render_json("img", &f);
        let b = render_json("img", &f);
        assert_eq!(a, b);
        assert!(a.contains("\\\""));
        assert!(a.contains("\\\\"));
        assert!(a.contains("\\n"));
        assert!(a.contains("\"addr\": null"));
    }

    #[test]
    fn text_report_shape() {
        let t = render_text("img", &sample());
        assert!(t.contains("error[flash-write]: store to program flash"));
        assert!(t.contains("--> 0x80000040"));
        assert!(t.contains("(in spin)"));
        assert!(t.contains("= note:"));
        assert!(t.contains("img: 2 finding(s), 1 error(s), 1 warning(s)"));
    }

    #[test]
    fn severity_orders_errors_first() {
        let mut f = sample();
        f.reverse();
        f.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn empty_report_says_so() {
        assert!(render_text("img", &[]).contains("img: no findings"));
        let j = render_json("img", &[]);
        assert!(j.contains("\"errors\": 0"));
        assert!(j.contains("\"findings\": [\n  ]"));
    }
}
