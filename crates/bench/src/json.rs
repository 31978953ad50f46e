//! Machine-readable JSON summary of an experiment run (the `--json` output
//! of the `experiments` binary), kept here so its format is testable.
//!
//! Format stability: with observability off ([`crate::obs_enabled`] false)
//! the output is byte-identical to previous releases. With it on, each
//! experiment object additionally carries an `"obs"` key — appended after
//! `"fields"`, never reordering the existing keys — holding that
//! experiment's counters and gauges in sorted name order.

use std::fmt::Write as _;

use audo_obs::chrome::json_escape;

use crate::experiments::TimedReport;

/// Renders a report's observability registry as a JSON object (counters
/// then gauges, each in sorted name order). Returns `None` when there is
/// nothing to report, so quiet runs carry no `"obs"` key at all.
fn obs_object(reg: &audo_obs::Registry) -> Option<String> {
    if reg.is_empty() {
        return None;
    }
    let mut entries: Vec<String> = Vec::new();
    for (name, value) in reg.counters() {
        entries.push(format!("\"{}\": {value}", json_escape(name)));
    }
    for (name, value) in reg.gauges() {
        entries.push(format!("\"{}\": {value}", json_escape(name)));
    }
    Some(format!("{{{}}}", entries.join(", ")))
}

/// Renders the full run summary.
#[must_use]
pub fn json_summary(reports: &[TimedReport], jobs: usize, total_secs: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(
        out,
        "  \"total_wall_clock_ms\": {:.3},",
        total_secs * 1000.0
    );
    let passed: usize = reports
        .iter()
        .map(|t| t.report.checks.iter().filter(|c| c.pass).count())
        .sum();
    let total: usize = reports.iter().map(|t| t.report.checks.len()).sum();
    let _ = writeln!(out, "  \"checks_passed\": {passed},");
    let _ = writeln!(out, "  \"checks_total\": {total},");
    out.push_str("  \"experiments\": [\n");
    for (i, t) in reports.iter().enumerate() {
        let failed: Vec<String> = t
            .report
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("\"{}\"", json_escape(&c.what)))
            .collect();
        let fields: Vec<String> = t
            .report
            .kv
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"duration_ms\": {:.3}, \
             \"checks_passed\": {}, \"checks_total\": {}, \"failed_checks\": [{}], \
             \"fields\": {{{}}}",
            json_escape(t.report.id),
            json_escape(&t.report.title),
            t.duration.as_secs_f64() * 1000.0,
            t.report.checks.iter().filter(|c| c.pass).count(),
            t.report.checks.len(),
            failed.join(", "),
            fields.join(", ")
        );
        if let Some(obs) = obs_object(&t.report.obs) {
            let _ = write!(out, ", \"obs\": {obs}");
        }
        out.push('}');
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use std::time::Duration;

    fn timed(report: Report) -> TimedReport {
        TimedReport {
            report,
            duration: Duration::from_millis(5),
        }
    }

    #[test]
    fn quiet_report_has_no_obs_key() {
        let mut r = Report::new("E1", "demo");
        r.check("ok", true);
        r.field("x", 7);
        let json = json_summary(&[timed(r)], 2, 0.01);
        assert!(!json.contains("\"obs\""));
        assert!(json.contains("\"fields\": {\"x\": \"7\"}}"));
        assert!(json.contains("\"checks_passed\": 1,"));
    }

    #[test]
    fn obs_key_is_appended_after_fields() {
        let mut r = Report::new("E1", "demo");
        r.field("x", 7);
        // Force an enabled registry regardless of the global flag.
        r.obs = audo_obs::Registry::new();
        r.obs.sample("soc.cycles", 123);
        r.obs.gauge("soc.tricore.ipc", 1.5);
        let json = json_summary(&[timed(r)], 1, 0.0);
        assert!(json.contains(
            "\"fields\": {\"x\": \"7\"}, \"obs\": {\"soc.cycles\": 123, \"soc.tricore.ipc\": 1.5}}"
        ));
    }

    #[test]
    fn summary_is_deterministic_apart_from_timings() {
        let build = || {
            let mut r = Report::new("E2", "t");
            r.check("claim", false);
            json_summary(&[timed(r)], 1, 0.25)
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"failed_checks\": [\"claim\"]"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = Report::new("E1", "quote \" and \\ slash");
        r.check("line\nbreak", false);
        let json = json_summary(&[timed(r)], 1, 0.0);
        assert!(json.contains("quote \\\" and \\\\ slash"));
        assert!(json.contains("line\\nbreak"));
    }
}
