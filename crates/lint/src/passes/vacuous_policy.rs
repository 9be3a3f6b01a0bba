//! `SUFS002` — policies that cannot forbid anything.
//!
//! A policy is vacuous for a scenario when its forbidden-trace language
//! is empty over the scenario's ground event alphabet: no sequence of
//! events the system can fire ever drives the usage automaton into an
//! offending state, so validity checking against it can never fail and
//! the policy constrains nothing. Policies that are defined but never
//! instantiated anywhere are reported too. Budget-only policy names are
//! exempt: their registered automaton is deliberately trivial (the
//! quantitative bound does the constraining).

use std::collections::BTreeSet;

use sufs_policy::automata_bridge::to_dfa;
use sufs_policy::UsageAutomaton;

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};
use crate::passes::{Dep, Pass};

/// The `vacuous-policy` pass.
pub struct VacuousPolicy;

impl Pass for VacuousPolicy {
    fn code(&self) -> Code {
        Code::VacuousPolicy
    }

    fn description(&self) -> &'static str {
        "policies whose offending states are unreachable over the scenario's event alphabet"
    }

    fn deps(&self) -> &'static [Dep] {
        // The alphabet and the instantiated references (with their
        // origins), the automata from the registry, and budget names,
        // which are exempt.
        &[Dep::Vocabulary, Dep::Policies, Dep::Budgets]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let budget_names: BTreeSet<&str> = ctx.budgets().iter().map(|b| b.policy.name()).collect();

        // Instantiated references with an empty forbidden language.
        for origin in &ctx.policy_refs {
            let name = origin.reference.name();
            if budget_names.contains(name) {
                continue;
            }
            let Ok(instance) = ctx.registry().instantiate(&origin.reference) else {
                continue; // SUFS008 reports unresolved references.
            };
            if !to_dfa(&instance, &ctx.alphabet).language_is_empty() {
                continue;
            }
            let pos = ctx.policy_pos(name, Some(origin.pos));
            let mut d = Diagnostic::new(
                Code::VacuousPolicy,
                pos,
                format!("policy {}", origin.reference),
                format!(
                    "the policy is vacuous: no trace over the scenario's {} event(s) ever \
                     reaches an offending state",
                    ctx.alphabet.len()
                ),
            )
            .with_note(format!(
                "instantiated in {}; validity checking against it can never fail, so it \
                 constrains nothing",
                origin.subject
            ));
            if let Some(witness) = structural_witness(ctx.registry().get(name)) {
                d = d.with_witness(witness);
            } else {
                d = d.with_note(format!(
                    "instantiated in {}; the automaton has no graph path to an offending state \
                     at all",
                    origin.subject
                ));
            }
            out.push(d);
        }

        // Definitions nothing ever instantiates.
        for automaton in ctx.registry().iter() {
            let name = automaton.name();
            if budget_names.contains(name) {
                continue;
            }
            if ctx.policy_refs.iter().any(|o| o.reference.name() == name) {
                continue;
            }
            let pos = ctx.policy_pos(name, None);
            let mut d = Diagnostic::new(
                Code::VacuousPolicy,
                pos,
                format!("policy {name}"),
                "the policy is defined but never instantiated by any client or service".to_string(),
            )
            .with_note("no request annotation or framing mentions it, so it is never enforced");
            if let Some(witness) = structural_witness(Some(automaton)) {
                d = d.with_witness(witness);
            }
            out.push(d);
        }
        out
    }
}

/// Renders the automaton's shortest structural path to an offending
/// state (the trace shape a forbidden history would need).
fn structural_witness(automaton: Option<&UsageAutomaton>) -> Option<Vec<String>> {
    let path = automaton?.structural_offending_path()?;
    if path.is_empty() {
        return Some(vec!["(start state is already offending)".to_string()]);
    }
    Some(
        path.iter()
            .map(|t| {
                let event = t
                    .event
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "*".to_string());
                match &t.guard {
                    sufs_policy::Guard::True => event,
                    g => format!("{event} if {g}"),
                }
            })
            .collect(),
    )
}
