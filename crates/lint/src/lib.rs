//! Multi-pass static diagnostics over scenarios, policies and plans.
//!
//! The paper decides security and progress *statically* (§5, Theorems
//! 1–2); this crate turns those analyses into rustc-style lints: a set
//! of [`passes`] runs over a parsed [`Scenario`] and emits structured
//! [`Diagnostic`]s with stable `SUFS0xx` codes, a severity, the source
//! location of the subject, an explanatory note, and — where an
//! automaton analysis backs the finding — a witness trace.
//!
//! | code | pass | severity | finding |
//! |------|------|----------|---------|
//! | `SUFS001` | `unreachable-event` | warning | an event no composed execution fires |
//! | `SUFS002` | `vacuous-policy` | warning | a policy that cannot forbid anything |
//! | `SUFS003` | `policy-subsumption` | warning | a policy another policy makes redundant |
//! | `SUFS004` | `unbalanced-framing` | warning | a `Φ`-open that a path never closes |
//! | `SUFS005` | `dead-service` | info | a service no valid plan selects |
//! | `SUFS006` | `plan-contention` | warning | clients forced past a service's capacity |
//! | `SUFS007` | `empty-plan-space` | error | a client with no valid plan |
//! | `SUFS008` | `unresolved-policy` | error | a policy reference with no definition |
//! | `SUFS009` | `capacity-deadlock-cycle` | warning | clients deadlocking over bounded capacities |
//! | `SUFS010` | `single-point-of-failure` | info | a service whose crash empties a recovery chain |
//!
//! Passes run over any [`LintInput`] — a parsed scenario or a broker's
//! live repository — and the [`engine::LintEngine`] maintains a report
//! incrementally across mutations, re-running only the passes whose
//! fingerprinted inputs changed.
//!
//! Diagnostics are ordered deterministically: by code, then source
//! position, then subject, then message.
//!
//! See `docs/LINTS.md` for a catalogue with minimal triggering
//! scenarios.
//!
//! # Example
//!
//! ```
//! use sufs_core::scenario::parse_scenario;
//! use sufs_lint::lint_scenario;
//!
//! let sc = parse_scenario(
//!     "client c { open 1 { int[q -> eps] } }
//!      service s { ext[q -> eps] }
//!      service unused { ext[zzz -> eps] }",
//! )
//! .unwrap();
//! let report = lint_scenario(&sc).unwrap();
//! // `unused` can serve r1 too (plans bind requests to every service),
//! // but no valid plan picks it: SUFS005.
//! assert!(report.diagnostics.iter().any(|d| d.code.as_str() == "SUFS005"));
//! assert_eq!(report.errors(), 0);
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod diag;
pub mod engine;
pub mod passes;

use std::fmt;

use sufs_core::plans::PlanSpaceExceeded;
use sufs_core::scenario::Scenario;
use sufs_core::verify::VerifyError;
use sufs_hexpr::lts::StateSpaceExceeded;

pub use context::{AnalysisCaches, LintContext, LintInput};
pub use diag::{Code, Diagnostic, LintReport, Severity};
pub use engine::{LintEngine, RefreshOutcome};
pub use passes::{Dep, Pass};

/// An error preventing the lint engine from running (as opposed to a
/// finding, which goes in the report).
#[derive(Debug, Clone)]
pub enum LintError {
    /// Verification of a client failed.
    Verify {
        /// The client being verified.
        client: String,
        /// The underlying error.
        error: VerifyError,
    },
    /// Plan enumeration for a client overflowed the cap.
    Plans {
        /// The client whose plan space overflowed.
        client: String,
        /// The underlying error.
        error: PlanSpaceExceeded,
    },
    /// A component's stand-alone LTS exceeded the state bound.
    Lts {
        /// The component.
        subject: String,
        /// The underlying error.
        error: StateSpaceExceeded,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Verify { client, error } => {
                write!(f, "verifying client {client}: {error}")
            }
            LintError::Plans { client, error } => {
                write!(f, "enumerating plans of client {client}: {error}")
            }
            LintError::Lts { subject, error } => write!(f, "exploring {subject}: {error}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints a scenario with the default bounds: builds the shared
/// [`LintContext`], runs every pass, and returns the findings sorted by
/// code, source position, subject, then message.
///
/// # Errors
///
/// Returns a [`LintError`] when the underlying analyses cannot run at
/// all (state-space or plan-space explosion, verifier failure) — not
/// for findings, which land in the report.
pub fn lint_scenario(scenario: &Scenario) -> Result<LintReport, LintError> {
    let ctx = LintContext::build(scenario)?;
    Ok(run_passes(&ctx))
}

/// [`lint_scenario`] with explicit exploration bound and plan cap.
///
/// # Errors
///
/// As [`lint_scenario`].
pub fn lint_scenario_with(
    scenario: &Scenario,
    bound: usize,
    plan_cap: usize,
) -> Result<LintReport, LintError> {
    let ctx = LintContext::build_with(scenario, bound, plan_cap)?;
    Ok(run_passes(&ctx))
}

fn run_passes(ctx: &LintContext<'_>) -> LintReport {
    let mut diagnostics = Vec::new();
    for pass in passes::all() {
        diagnostics.extend(pass.run(ctx));
    }
    sort_diagnostics(&mut diagnostics);
    LintReport { diagnostics }
}

/// The one documented diagnostic order, shared by the batch runner and
/// the incremental engine: code, then source position, then subject,
/// then message.
pub(crate) fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_core::scenario::parse_scenario;

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_scenario_is_clean() {
        // Two interchangeable providers: no dead service, and no
        // single point of failure (SUFS010) either.
        let sc = parse_scenario(
            "client c { open 1 { int[q -> eps]; ext[a -> eps | b -> eps] } }
             service s { ext[q -> int[a -> eps | b -> eps]] }
             service s2 { ext[q -> int[a -> eps | b -> eps]] }",
        )
        .unwrap();
        let report = lint_scenario(&sc).unwrap();
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn unreachable_event_is_found_with_witness() {
        let sc = parse_scenario(
            "client c { open 1 { int[ask -> eps]; ext[yes -> #won; eps | no -> eps] } }
             service nay { ext[ask -> int[no -> eps]] }",
        )
        .unwrap();
        let report = lint_scenario(&sc).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UnreachableEvent)
            .expect("SUFS001 expected");
        assert!(d.message.contains("#won"));
        assert!(d.witness.as_ref().is_some_and(|w| !w.is_empty()));
        assert!(d.pos.line > 0);
    }

    #[test]
    fn unresolved_policy_is_an_error_and_skips_verification() {
        let sc = parse_scenario(
            "client c { open 1 phi ghost { int[a -> eps] } }
             service s { ext[a -> eps] }",
        )
        .unwrap();
        let report = lint_scenario(&sc).unwrap();
        assert!(codes(&report).contains(&"SUFS008"));
        assert!(report.errors() >= 1);
        // No SUFS007: verification was skipped, not failed.
        assert!(!codes(&report).contains(&"SUFS007"));
    }

    #[test]
    fn empty_plan_space_reports_last_violations() {
        let sc = parse_scenario(
            "client c { open 1 { int[q -> eps]; ext[a -> eps] } }
             service s { ext[q -> int[b -> eps]] }",
        )
        .unwrap();
        let report = lint_scenario(&sc).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::EmptyPlanSpace)
            .expect("SUFS007 expected");
        assert_eq!(d.severity(), Severity::Error);
        assert!(d.note.as_ref().is_some_and(|n| n.contains("{r1↦s}")));
    }

    #[test]
    fn diagnostics_are_ordered_by_code_then_position() {
        // `spare` is declared first (lowest position) but its
        // dead-service finding (SUFS005) must sort after the client's
        // unreachable event (SUFS001): code orders before position.
        let sc = parse_scenario(
            "service spare { ext[zzz -> eps] }
             client c { open 1 { int[ask -> eps]; ext[yes -> #won; eps | no -> eps] } }
             service nay { ext[ask -> int[no -> eps]] }",
        )
        .unwrap();
        let report = lint_scenario(&sc).unwrap();
        assert!(report.diagnostics.len() >= 2, "{report}");
        let keys: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.pos, d.subject.clone(), d.message.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "report must be in documented order");
        assert_eq!(report.diagnostics[0].code, Code::UnreachableEvent);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::DeadService));
    }

    #[test]
    fn output_is_deterministic() {
        let src = "client c { open 1 { int[ask -> eps]; ext[yes -> #won; eps | no -> eps] } }
                   service nay { ext[ask -> int[no -> eps]] }
                   service spare { ext[zzz -> eps] }";
        let sc = parse_scenario(src).unwrap();
        let first = lint_scenario(&sc).unwrap().to_json(None);
        for _ in 0..5 {
            let sc2 = parse_scenario(src).unwrap();
            assert_eq!(lint_scenario(&sc2).unwrap().to_json(None), first);
        }
    }
}
