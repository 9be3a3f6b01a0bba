//! Structured diagnostics: codes, severities, locations, notes and
//! witness traces, with plain-text and JSON renderings.

use std::fmt;

use sufs_core::scenario::SrcPos;

/// Every diagnostic code the lint engine can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `SUFS001` — an event no composed execution under any candidate
    /// plan ever fires.
    UnreachableEvent,
    /// `SUFS002` — a policy whose forbidden-trace language is empty over
    /// the scenario's event alphabet: it constrains nothing.
    VacuousPolicy,
    /// `SUFS003` — an instantiated policy whose forbidden language is
    /// properly contained in another instantiation's: redundant.
    PolicySubsumption,
    /// `SUFS004` — a `Φ`-open (framing or policy-bearing request) with a
    /// path that never reaches the matching close.
    UnbalancedFraming,
    /// `SUFS005` — a repository service no valid plan of any client
    /// selects.
    DeadService,
    /// `SUFS006` — more clients are forced onto a bounded-capacity
    /// service than its capacity admits.
    PlanContention,
    /// `SUFS007` — a client with no valid plan at all.
    EmptyPlanSpace,
    /// `SUFS008` — a policy reference that does not resolve against the
    /// scenario's `policy` definitions.
    UnresolvedPolicy,
    /// `SUFS009` — a wait-for cycle among clients contending for
    /// bounded-capacity services: some interleaving strands every
    /// participant.
    CapacityDeadlockCycle,
    /// `SUFS010` — a service whose crash leaves some client with an
    /// empty recovery chain: every valid plan routes through it.
    SinglePointOfFailure,
}

impl Code {
    /// The stable `SUFS0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnreachableEvent => "SUFS001",
            Code::VacuousPolicy => "SUFS002",
            Code::PolicySubsumption => "SUFS003",
            Code::UnbalancedFraming => "SUFS004",
            Code::DeadService => "SUFS005",
            Code::PlanContention => "SUFS006",
            Code::EmptyPlanSpace => "SUFS007",
            Code::UnresolvedPolicy => "SUFS008",
            Code::CapacityDeadlockCycle => "SUFS009",
            Code::SinglePointOfFailure => "SUFS010",
        }
    }

    /// The human-readable pass name (kebab case).
    pub fn name(self) -> &'static str {
        match self {
            Code::UnreachableEvent => "unreachable-event",
            Code::VacuousPolicy => "vacuous-policy",
            Code::PolicySubsumption => "policy-subsumption",
            Code::UnbalancedFraming => "unbalanced-framing",
            Code::DeadService => "dead-service",
            Code::PlanContention => "plan-contention",
            Code::EmptyPlanSpace => "empty-plan-space",
            Code::UnresolvedPolicy => "unresolved-policy",
            Code::CapacityDeadlockCycle => "capacity-deadlock-cycle",
            Code::SinglePointOfFailure => "single-point-of-failure",
        }
    }

    /// The fixed severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::EmptyPlanSpace | Code::UnresolvedPolicy => Severity::Error,
            // SUFS010 is informational by design: almost every small
            // scenario has a service all plans route through, and the
            // paper's repositories keep single providers on purpose.
            Code::DeadService | Code::SinglePointOfFailure => Severity::Info,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The scenario is broken: no valid plan, unresolved reference.
    Error,
    /// Very likely a mistake, but the scenario still works.
    Warning,
    /// Worth knowing; often intentional.
    Info,
}

impl Severity {
    /// The lowercase rendering used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The diagnostic code (which fixes the severity).
    pub code: Code,
    /// Where in the scenario source the subject was declared.
    pub pos: SrcPos,
    /// What the finding is about (`client c1`, `service br`,
    /// `policy hotel({1},45,100)`, …).
    pub subject: String,
    /// The finding itself, one sentence.
    pub message: String,
    /// An optional explanatory note.
    pub note: Option<String>,
    /// A witness trace backing the finding, when an automaton analysis
    /// produced one (rendered transition labels).
    pub witness: Option<Vec<String>>,
}

impl Diagnostic {
    /// Builds a bare diagnostic.
    pub fn new(
        code: Code,
        pos: SrcPos,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            pos,
            subject: subject.into(),
            message: message.into(),
            note: None,
            witness: None,
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.note = Some(note.into());
        self
    }

    /// Attaches a witness trace.
    pub fn with_witness(mut self, witness: Vec<String>) -> Diagnostic {
        self.witness = Some(witness);
        self
    }

    /// The key of the documented diagnostic order: code, then source
    /// position, then subject, then message.
    pub(crate) fn sort_key(&self) -> (Code, SrcPos, &str, &str) {
        (self.code, self.pos, &self.subject, &self.message)
    }

    /// The severity (derived from the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The JSON object for `--json` output.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"code\":\"{}\"", self.code));
        s.push_str(&format!(",\"pass\":\"{}\"", self.code.name()));
        s.push_str(&format!(",\"severity\":\"{}\"", self.severity()));
        s.push_str(&format!(",\"line\":{}", self.pos.line));
        s.push_str(&format!(",\"column\":{}", self.pos.col));
        s.push_str(&format!(",\"subject\":\"{}\"", json_escape(&self.subject)));
        s.push_str(&format!(",\"message\":\"{}\"", json_escape(&self.message)));
        if let Some(note) = &self.note {
            s.push_str(&format!(",\"note\":\"{}\"", json_escape(note)));
        }
        if let Some(witness) = &self.witness {
            s.push_str(",\"witness\":[");
            for (i, w) in witness.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\"", json_escape(w)));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity(),
            self.code,
            self.subject,
            self.message
        )?;
        write!(f, "\n  --> {}", self.pos)?;
        if let Some(note) = &self.note {
            write!(f, "\n  note: {note}")?;
        }
        if let Some(witness) = &self.witness {
            write!(f, "\n  witness: {}", witness.join(" → "))?;
        }
        Ok(())
    }
}

/// The result of linting one scenario: every finding, in the
/// documented deterministic order — by code, then source position,
/// then subject name, then message.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All diagnostics, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// The number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// The number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == s)
            .count()
    }

    /// Returns `true` if nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The diagnostics of this report that `earlier` does not contain,
    /// in order. Both reports must be in the documented order (every
    /// report this crate builds is), so one merge pass finds them; a run
    /// of diagnostics with equal sort keys is compared in full, since
    /// they may still differ in note or witness.
    pub fn not_in<'a>(&'a self, earlier: &LintReport) -> Vec<&'a Diagnostic> {
        let mut i = 0;
        self.diagnostics
            .iter()
            .filter(|d| {
                let key = d.sort_key();
                while earlier
                    .diagnostics
                    .get(i)
                    .is_some_and(|e| e.sort_key() < key)
                {
                    i += 1;
                }
                !earlier.diagnostics[i..]
                    .iter()
                    .take_while(|e| e.sort_key() == key)
                    .any(|e| e == *d)
            })
            .collect()
    }

    /// The JSON document for `--json` output: `file` is the path the
    /// caller read the scenario from, if any.
    pub fn to_json(&self, file: Option<&str>) -> String {
        let mut s = String::from("{");
        if let Some(file) = file {
            s.push_str(&format!("\"file\":\"{}\",", json_escape(file)));
        }
        s.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json());
        }
        s.push_str(&format!(
            "],\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}}}}",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        s
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} info(s)",
            self.errors(),
            self.warnings(),
            self.infos()
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_in_is_the_ordered_set_difference() {
        let d = |code, subject: &str, note: &str| {
            Diagnostic::new(code, SrcPos::start(), subject, "m").with_note(note)
        };
        let report = |mut diagnostics: Vec<Diagnostic>| {
            crate::sort_diagnostics(&mut diagnostics);
            LintReport { diagnostics }
        };
        let earlier = report(vec![
            d(Code::DeadService, "service a", "x"),
            d(Code::DeadService, "service b", "x"),
            d(Code::SinglePointOfFailure, "service a", "x"),
        ]);
        let later = report(vec![
            d(Code::DeadService, "service b", "x"),
            // Same sort key as an earlier finding, different note.
            d(Code::DeadService, "service b", "y"),
            d(Code::EmptyPlanSpace, "client c", "x"),
            d(Code::SinglePointOfFailure, "service a", "x"),
            d(Code::SinglePointOfFailure, "service z", "x"),
        ]);
        let naive: Vec<&Diagnostic> = later
            .diagnostics
            .iter()
            .filter(|x| !earlier.diagnostics.contains(x))
            .collect();
        assert_eq!(later.not_in(&earlier), naive);
        assert_eq!(naive.len(), 3);
        assert!(earlier.not_in(&earlier).is_empty());
        assert_eq!(earlier.not_in(&LintReport::default()).len(), 3);
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            Code::UnreachableEvent,
            Code::VacuousPolicy,
            Code::PolicySubsumption,
            Code::UnbalancedFraming,
            Code::DeadService,
            Code::PlanContention,
            Code::EmptyPlanSpace,
            Code::UnresolvedPolicy,
            Code::CapacityDeadlockCycle,
            Code::SinglePointOfFailure,
        ];
        let mut ids: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
        assert_eq!(Code::UnreachableEvent.as_str(), "SUFS001");
        assert_eq!(Code::CapacityDeadlockCycle.as_str(), "SUFS009");
        assert_eq!(Code::SinglePointOfFailure.as_str(), "SUFS010");
        assert_eq!(Code::EmptyPlanSpace.severity(), Severity::Error);
        assert_eq!(Code::DeadService.severity(), Severity::Info);
        assert_eq!(Code::CapacityDeadlockCycle.severity(), Severity::Warning);
        assert_eq!(Code::SinglePointOfFailure.severity(), Severity::Info);
        assert_eq!(Code::VacuousPolicy.severity(), Severity::Warning);
    }

    #[test]
    fn diagnostic_renders_text_and_json() {
        let d = Diagnostic::new(
            Code::UnreachableEvent,
            SrcPos {
                offset: 10,
                line: 3,
                col: 7,
            },
            "client c1",
            "event #x can never fire",
        )
        .with_note("a \"quoted\" note")
        .with_witness(vec!["⌞φ".into(), "a!".into()]);
        let text = d.to_string();
        assert!(text.contains("warning[SUFS001]"));
        assert!(text.contains("--> 3:7"));
        assert!(text.contains("witness: ⌞φ → a!"));
        let json = d.to_json();
        assert!(json.contains("\"code\":\"SUFS001\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"witness\":[\"⌞φ\",\"a!\"]"));
    }

    #[test]
    fn report_counts_and_json() {
        let mk = |code| Diagnostic::new(code, SrcPos::start(), "s", "m");
        let report = LintReport {
            diagnostics: vec![
                mk(Code::EmptyPlanSpace),
                mk(Code::VacuousPolicy),
                mk(Code::DeadService),
            ],
        };
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.infos(), 1);
        assert!(!report.is_clean());
        let json = report.to_json(Some("x.sufs"));
        assert!(json.contains("\"file\":\"x.sufs\""));
        assert!(json.contains("\"errors\":1,\"warnings\":1,\"infos\":1"));
    }
}
