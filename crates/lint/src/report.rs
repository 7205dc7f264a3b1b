//! Diagnostics and their human / machine renderings.

use std::fmt::Write as _;

/// How a rule's findings affect the process exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Reported and fatal: any denied finding makes the run exit 1.
    Deny,
    /// Reported only.
    Warn,
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule id (`L001` … `L007`, `R001`, `P000`, `P001`).
    pub rule: String,
    /// Human rule name (`no-panic-paths`).
    pub name: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// For interprocedural findings (`R001`), the call chain from the
    /// entry point to the flagged site, `a → b → c` style.
    pub chain: Option<String>,
    /// Deny or warn, assigned by the engine's severity map.
    pub severity: Severity,
    /// True when an allow pragma suppressed this finding.
    pub suppressed: bool,
    /// Set when another rule's analysis proved this site safe and
    /// auto-discharged the finding (e.g. `"R002"` on an L003/L006 site
    /// the dataflow proved in-range). Discharged findings never deny
    /// and are hidden from human output, but stay visible in JSON.
    pub discharged_by: Option<String>,
}

/// The result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every finding, suppressed ones included (JSON consumers see the
    /// full picture; human output hides suppressions behind a count).
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that were denied and not suppressed — what fails the run.
    pub fn denied(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny && !d.suppressed && d.discharged_by.is_none())
    }

    /// Unsuppressed warn-level findings.
    pub fn warned(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn && !d.suppressed && d.discharged_by.is_none())
    }

    /// Suppressed findings (an allow pragma matched).
    pub fn suppressed_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.suppressed).count()
    }

    /// Findings auto-discharged by another rule's proof.
    pub fn discharged_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.discharged_by.is_some())
            .count()
    }

    /// The process exit code this report dictates.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.denied().next().is_some())
    }

    /// `path:line: severity[rule/name] message` diagnostics plus a
    /// one-line summary, sorted by path and line for stable output.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in self.shown() {
            let sev = match d.severity {
                Severity::Deny => "deny",
                Severity::Warn => "warn",
            };
            let _ = writeln!(
                out,
                "{}:{}: {sev}[{}/{}] {}",
                d.rel, d.line, d.rule, d.name, d.message
            );
            if !d.snippet.is_empty() {
                let _ = writeln!(out, "    | {}", d.snippet);
            }
            if let Some(chain) = &d.chain {
                let _ = writeln!(out, "    = via: {chain}");
            }
        }
        out + &self.summary_line()
    }

    /// The unsuppressed, undischarged findings, by path, line and rule.
    fn shown(&self) -> Vec<&Diagnostic> {
        let mut shown: Vec<&Diagnostic> = self
            .diagnostics
            .iter()
            .filter(|d| !d.suppressed && d.discharged_by.is_none())
            .collect();
        shown.sort_by(|a, b| (&a.rel, a.line, &a.rule).cmp(&(&b.rel, b.line, &b.rule)));
        shown
    }

    /// The one-line summary closing the human and GitHub renderings.
    /// The `, N discharged by dataflow` segment appears only when some
    /// finding was discharged, so runs where the dataflow has nothing
    /// to say keep a stable line.
    fn summary_line(&self) -> String {
        let discharged = match self.discharged_count() {
            0 => String::new(),
            n => format!(", {n} discharged by dataflow"),
        };
        format!(
            "v6census-lint: {} denied, {} warned, {} suppressed by pragma{discharged}; {} files scanned\n",
            self.denied().count(),
            self.warned().count(),
            self.suppressed_count(),
            self.files_scanned
        )
    }

    /// GitHub Actions workflow-command annotations: one
    /// `::error`/`::warning` line per unsuppressed finding, so findings
    /// surface inline on the PR diff, followed by the human summary
    /// line (a plain line, which Actions passes through).
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for d in self.shown() {
            let level = match d.severity {
                Severity::Deny => "error",
                Severity::Warn => "warning",
            };
            let mut message = d.message.clone();
            if let Some(chain) = &d.chain {
                message.push_str(" (via ");
                message.push_str(chain);
                message.push(')');
            }
            let _ = writeln!(
                out,
                "::{level} file={},line={},title={}::{}",
                github_escape_prop(&d.rel),
                d.line,
                github_escape_prop(&format!("{} {}", d.rule, d.name)),
                github_escape(&message)
            );
        }
        out + &self.summary_line()
    }

    /// Machine-readable JSON: the full diagnostic list plus a summary.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"diagnostics\": [");
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by(|a, b| (&a.rel, a.line, &a.rule).cmp(&(&b.rel, b.line, &b.rule)));
        for (i, d) in sorted.iter().enumerate() {
            let sev = match d.severity {
                Severity::Deny => "deny",
                Severity::Warn => "warn",
            };
            let chain = match &d.chain {
                Some(c) => json_str(c),
                None => "null".to_string(),
            };
            let discharged = match &d.discharged_by {
                Some(r) => json_str(r),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{}\n    {{\"rule\": {}, \"name\": {}, \"path\": {}, \"line\": {}, \"severity\": {}, \"suppressed\": {}, \"discharged_by\": {}, \"message\": {}, \"snippet\": {}, \"chain\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(&d.rule),
                json_str(d.name),
                json_str(&d.rel),
                d.line,
                json_str(sev),
                d.suppressed,
                discharged,
                json_str(&d.message),
                json_str(&d.snippet),
                chain,
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"summary\": {{\"denied\": {}, \"warned\": {}, \"suppressed\": {}, \"discharged\": {}, \"files_scanned\": {}}}\n}}\n",
            self.denied().count(),
            self.warned().count(),
            self.suppressed_count(),
            self.discharged_count(),
            self.files_scanned
        );
        out
    }
}

/// Escapes a workflow-command message: `%`, newlines, and carriage
/// returns must be percent-encoded or GitHub truncates the annotation.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command *property* value (`file=`, `title=`):
/// on top of the message escapes, `,` and `:` must be percent-encoded
/// or they terminate the property / command early.
fn github_escape_prop(s: &str) -> String {
    github_escape(s).replace(':', "%3A").replace(',', "%2C")
}

/// JSON string escaping (control characters, quotes, backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, sev: Severity, suppressed: bool) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            name: "test-rule",
            rel: "crates/x/src/lib.rs".into(),
            line: 3,
            message: "a \"quoted\" problem".into(),
            snippet: "let x = 1;".into(),
            chain: None,
            severity: sev,
            suppressed,
            discharged_by: None,
        }
    }

    #[test]
    fn exit_code_follows_denied_findings() {
        let mut r = Report::default();
        assert_eq!(r.exit_code(), 0);
        r.diagnostics.push(diag("L001", Severity::Warn, false));
        assert_eq!(r.exit_code(), 0, "warnings never fail the run");
        r.diagnostics.push(diag("L002", Severity::Deny, true));
        assert_eq!(r.exit_code(), 0, "suppressed findings never fail the run");
        r.diagnostics.push(diag("L003", Severity::Deny, false));
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn renders_human_and_json() {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        r.diagnostics.push(diag("L001", Severity::Deny, false));
        let human = r.render_human();
        assert!(human.contains("deny[L001/test-rule]"));
        assert!(human.contains("1 denied"));
        let json = r.render_json();
        assert!(json.contains("\"rule\": \"L001\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"chain\": null"));
    }

    #[test]
    fn renders_github_annotations() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        let mut d = diag("R001", Severity::Deny, false);
        d.chain = Some("cli::main → trie::node_at".into());
        r.diagnostics.push(d);
        r.diagnostics.push(diag("L002", Severity::Warn, false));
        r.diagnostics.push(diag("L003", Severity::Deny, true));
        let gh = r.render_github();
        assert!(
            gh.contains("::error file=crates/x/src/lib.rs,line=3,title=R001 test-rule::"),
            "{gh}"
        );
        assert!(gh.contains("(via cli::main → trie::node_at)"), "{gh}");
        assert!(gh.contains("::warning file="), "{gh}");
        assert!(!gh.contains("L003"), "suppressed findings are hidden: {gh}");
    }

    #[test]
    fn chain_round_trips_through_renderings() {
        let mut r = Report::default();
        let mut d = diag("R001", Severity::Deny, false);
        d.chain = Some("a → b".into());
        r.diagnostics.push(d);
        assert!(r.render_human().contains("= via: a → b"));
        assert!(r.render_json().contains("\"chain\": \"a → b\""));
    }

    #[test]
    fn github_escape_encodes_control_sequences() {
        assert_eq!(github_escape("a%b\nc"), "a%25b%0Ac");
    }

    #[test]
    fn github_property_values_escape_commas_and_colons() {
        assert_eq!(github_escape_prop("a:b,c%d"), "a%3Ab%2Cc%25d");
        let mut r = Report::default();
        let mut d = diag("L001", Severity::Deny, false);
        d.rel = "crates/x/src/odd,name:file.rs".into();
        r.diagnostics.push(d);
        let gh = r.render_github();
        assert!(
            gh.contains("file=crates/x/src/odd%2Cname%3Afile.rs,line="),
            "a `,`/`:` in a property value must not split the annotation: {gh}"
        );
    }
}
