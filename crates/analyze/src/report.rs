//! Report assembly: findings, allowlist filtering, and the text artifact.

use std::collections::BTreeSet;

/// One analyzer finding with a stable allowlist key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable key (`atomic:<rule>:<group>`) the allowlist matches against.
    pub key: String,
    /// Human-readable description with file:line witnesses.
    pub message: String,
}

/// A parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Finding key this entry suppresses.
    pub key: String,
    /// Required one-line justification.
    pub justification: String,
    /// 1-based line in the allowlist file (for diagnostics).
    pub line: usize,
}

/// Parses an `analyze.allow` file: one `key # justification` per line,
/// blank lines and `#`-leading comment lines ignored. Entries without a
/// justification are themselves violations, so the list stays honest.
pub fn parse_allowlist(text: &str) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once('#') {
            Some((key, why)) if !why.trim().is_empty() => entries.push(AllowEntry {
                key: key.trim().to_string(),
                justification: why.trim().to_string(),
                line: i + 1,
            }),
            _ => errors.push(format!(
                "analyze.allow:{}: entry `{line}` has no `# justification`",
                i + 1
            )),
        }
    }
    (entries, errors)
}

/// The final report after allowlist application.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by the allowlist — these gate CI.
    pub violations: Vec<Finding>,
    /// Findings suppressed by an allowlist entry (shown, not gating).
    pub allowed: Vec<(Finding, String)>,
    /// Allowlist entries that matched nothing — stale, and gating, so
    /// the list cannot rot.
    pub stale_allows: Vec<String>,
    /// Malformed allowlist lines (gating).
    pub allow_errors: Vec<String>,
    /// Informational `Relaxed` ordering sites.
    pub relaxed_sites: Vec<String>,
    /// One-line stats (files, functions, atomic sites).
    pub stats: String,
}

impl Report {
    /// Splits raw findings into violations and allowed per the allowlist.
    pub fn apply_allowlist(&mut self, findings: Vec<Finding>, entries: &[AllowEntry]) {
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for f in findings {
            match entries.iter().position(|e| e.key == f.key) {
                Some(i) => {
                    used.insert(i);
                    self.allowed.push((f, entries[i].justification.clone()));
                }
                None => self.violations.push(f),
            }
        }
        for (i, e) in entries.iter().enumerate() {
            if !used.contains(&i) {
                self.stale_allows.push(format!(
                    "analyze.allow:{}: `{}` matched no finding (stale entry)",
                    e.line, e.key
                ));
            }
        }
    }

    /// True when nothing gates.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty() && self.allow_errors.is_empty()
    }

    /// Renders the text report (stdout and the CI artifact file).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("saga-analyze report — {}\n\n", self.stats));
        if self.violations.is_empty() {
            out.push_str("VIOLATIONS: none\n");
        } else {
            out.push_str(&format!("VIOLATIONS ({}):\n", self.violations.len()));
            for f in &self.violations {
                out.push_str(&format!("  [{}]\n    {}\n", f.key, f.message));
            }
        }
        for e in self.allow_errors.iter().chain(self.stale_allows.iter()) {
            out.push_str(&format!("  ALLOWLIST ERROR: {e}\n"));
        }
        if !self.allowed.is_empty() {
            out.push_str(&format!("\nallowed ({}):\n", self.allowed.len()));
            for (f, why) in &self.allowed {
                out.push_str(&format!("  [{}] — {why}\n", f.key));
            }
        }
        out.push_str(&format!("\nrelaxed-ordering sites ({}):\n", self.relaxed_sites.len()));
        for s in &self.relaxed_sites {
            out.push_str(&format!("  {s}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_rejects_missing_justification() {
        let (entries, errors) = parse_allowlist(
            "# comment\n\natomic:write-only:a.x # counted elsewhere\natomic:write-only:c.z\n",
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "atomic:write-only:a.x");
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn stale_entries_and_matches_are_tracked() {
        let (entries, _) = parse_allowlist("k1 # fine\nk2 # stale\n");
        let mut r = Report::default();
        r.apply_allowlist(
            vec![Finding { key: "k1".into(), message: "m".into() }],
            &entries,
        );
        assert!(r.violations.is_empty());
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.stale_allows.len(), 1);
        assert!(!r.clean());
    }

    #[test]
    fn unallowed_finding_is_a_violation() {
        let mut r = Report::default();
        r.apply_allowlist(
            vec![Finding { key: "k".into(), message: "m".into() }],
            &[],
        );
        assert_eq!(r.violations.len(), 1);
        assert!(!r.clean());
        assert!(r.render().contains("VIOLATIONS (1)"));
    }
}
