//! Live repository analysis: the `lint` command and the opt-in
//! `--deny-lint` mutation gate.
//!
//! The broker hosts one [`LintEngine`](sufs_lint::LintEngine) behind a
//! mutex; its verdict rows live in the broker's shared `VerifyCache`, so
//! every plan verdict the gate computes is a hit for the next `plan`
//! read of the composed products. A `lint` request
//! refreshes it against the current repository, registry and client
//! set and returns the full report (human rendering plus the same
//! structured JSON `sufs lint --json` emits) together with the
//! incremental-reuse counters. With [`crate::server::BrokerConfig::
//! deny_lint`] set, every client mutation is *gated*: the mutation
//! pipeline backs up the state, applies the change tentatively under
//! the state write guard, refreshes the engine, and — if the mutated
//! state introduces any diagnostic at or above the deny severity that
//! the pre-mutation report did not contain — restores the backup and
//! answers a structured `lint_rejected` error carrying the offending
//! diagnostics. Journal records (replayed or replicated) are exempt:
//! the primary already gated them.
//!
//! An engine failure during gating fails **closed** (the mutation is
//! reverted), so a gated broker never holds state it cannot analyze.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sufs_lint::{Diagnostic, LintInput, LintReport, Severity};

use crate::json::{self, Json};
use crate::proto;
use crate::server::{Shared, Source, State};

/// Parses the `--deny-lint` CLI value.
///
/// # Errors
///
/// A message naming the accepted values.
pub fn parse_deny_level(s: &str) -> Result<Severity, String> {
    match s {
        "error" | "errors" => Ok(Severity::Error),
        "warning" | "warnings" => Ok(Severity::Warning),
        other => Err(format!(
            "unknown deny level `{other}` (want error|warnings)"
        )),
    }
}

/// The CLI name of a deny level.
pub fn deny_level_name(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        _ => "warnings",
    }
}

/// Refreshes the broker's lint engine against the given state and
/// returns the refresh outcome plus the up-to-date report, shared with
/// the engine (no copy). Counts the passes run/reused into the metrics.
fn refresh(
    shared: &Shared,
    state: &State,
) -> Result<(sufs_lint::RefreshOutcome, Arc<LintReport>), sufs_lint::LintError> {
    let mut engine = shared.lint.lock().expect("lint lock");
    let outcome = engine.refresh(LintInput::new(&state.clients, &state.repo, &state.registry))?;
    shared
        .metrics
        .lint_passes_run
        .fetch_add(outcome.passes_run as u64, Ordering::Relaxed);
    shared
        .metrics
        .lint_passes_reused
        .fetch_add(outcome.passes_reused as u64, Ordering::Relaxed);
    Ok((outcome, Arc::clone(engine.report())))
}

/// A diagnostic as a wire object — the same schema `sufs lint --json`
/// emits per diagnostic (the renderer is shared, so they cannot drift).
pub(crate) fn diagnostic_json(d: &Diagnostic) -> Json {
    json::parse(&d.to_json()).expect("diagnostic JSON is well-formed")
}

/// `lint`: refresh the engine and return the full report.
pub(crate) fn cmd_lint(shared: &Shared) -> Json {
    shared.metrics.lint_requests.fetch_add(1, Ordering::Relaxed);
    let state = shared.state.read().expect("state lock");
    match refresh(shared, &state) {
        Ok((outcome, report)) => {
            let diagnostics: Vec<Json> = report.diagnostics.iter().map(diagnostic_json).collect();
            proto::ok()
                .with("errors", report.errors() as u64)
                .with("warnings", report.warnings() as u64)
                .with("infos", report.infos() as u64)
                .with("passes_run", outcome.passes_run as u64)
                .with("passes_reused", outcome.passes_reused as u64)
                .with("diagnostics", diagnostics)
                .with("human", report.to_string())
        }
        Err(e) => proto::error("verify", format!("lint engine failed: {e}")),
    }
}

/// Whether this request must be gated: a deny level is configured and
/// the mutation came over the wire (journal records were already gated
/// by the primary).
pub(crate) fn gate_active(shared: &Shared, source: Source) -> bool {
    shared.deny_lint.is_some() && source == Source::Client
}

/// The pre-mutation baseline a gated mutation captures before applying:
/// the engine's report itself, not a copy of it.
pub(crate) struct Gate {
    deny: Severity,
    before: Arc<LintReport>,
}

/// Captures the pre-mutation report. Call with the state write guard
/// already held, so no other request can interleave between the
/// baseline and the tentative apply.
///
/// # Errors
///
/// A ready-to-send error reply when the engine cannot analyze the
/// *current* state — the gate fails closed and the caller must not
/// apply the mutation.
pub(crate) fn prepare(shared: &Shared, state: &State) -> Result<Gate, Json> {
    let deny = shared.deny_lint.expect("prepare requires a deny level");
    match refresh(shared, state) {
        Ok((_, before)) => Ok(Gate { deny, before }),
        Err(e) => Err(proto::error(
            "verify",
            format!("--deny-lint gate cannot analyze the current state: {e}"),
        )),
    }
}

/// Re-lints the tentatively mutated state and decides the gate.
///
/// # Errors
///
/// A ready-to-send `lint_rejected` (or, on engine failure, `verify`)
/// reply; the caller must restore its backup before sending it.
pub(crate) fn check(shared: &Shared, gate: &Gate, state: &State) -> Result<(), Json> {
    let after = match refresh(shared, state) {
        Ok((_, after)) => after,
        Err(e) => {
            return Err(proto::error(
                "verify",
                format!("--deny-lint gate cannot analyze the mutated state: {e}"),
            ))
        }
    };
    // `Severity` orders Error < Warning < Info, so "at or above the
    // deny level" is `<=`.
    let mut introduced = after.not_in(&gate.before);
    introduced.retain(|d| d.severity() <= gate.deny);
    if introduced.is_empty() {
        return Ok(());
    }
    shared
        .metrics
        .lint_rejections
        .fetch_add(1, Ordering::Relaxed);
    let diagnostics: Vec<Json> = introduced.iter().map(|d| diagnostic_json(d)).collect();
    let human: Vec<String> = introduced.iter().map(|d| d.to_string()).collect();
    let mut reply = proto::error(
        "lint_rejected",
        format!(
            "mutation rejected: it introduces {} diagnostic(s) at or above the \
             --deny-lint {} threshold",
            introduced.len(),
            deny_level_name(gate.deny)
        ),
    );
    reply.set("diagnostics", diagnostics);
    reply.set("human", human.join("\n"));
    Err(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_levels_parse_and_name() {
        assert_eq!(parse_deny_level("error"), Ok(Severity::Error));
        assert_eq!(parse_deny_level("errors"), Ok(Severity::Error));
        assert_eq!(parse_deny_level("warnings"), Ok(Severity::Warning));
        assert!(parse_deny_level("info").is_err());
        assert_eq!(deny_level_name(Severity::Error), "error");
        assert_eq!(deny_level_name(Severity::Warning), "warnings");
    }

    #[test]
    fn severity_order_supports_at_or_above() {
        assert!(Severity::Error <= Severity::Warning);
        assert!(Severity::Warning <= Severity::Warning);
        assert!(Severity::Info > Severity::Warning);
    }
}
