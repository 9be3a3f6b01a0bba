//! `SUFS005` — services no valid plan ever selects.
//!
//! A published service that appears in no valid plan of any client is
//! dead weight: the planner can never pick it, so publishing it serves
//! nobody. Often intentional (tutorial scenarios publish rejected
//! alternatives on purpose, and the paper's own repository in §2 keeps
//! non-compliant hotels around), hence Info severity.

use std::collections::HashSet;

use sufs_hexpr::Location;

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};
use crate::passes::{Dep, Pass};

/// The `dead-service` pass.
pub struct DeadService;

impl Pass for DeadService {
    fn code(&self) -> Code {
        Code::DeadService
    }

    fn description(&self) -> &'static str {
        "repository services that no valid plan of any client selects"
    }

    fn deps(&self) -> &'static [Dep] {
        // Plan verdicts (and their counterexample traces) depend on
        // behaviours, policies AND capacities: a plan binding two
        // overlapping requests to a bounded service blocks on the slot.
        &[Dep::Clients, Dep::Services, Dep::Capacities, Dep::Policies]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        // Without clients (or without verification) there is no notion
        // of a valid plan to measure against.
        if ctx.clients.is_empty() || ctx.clients.iter().any(|c| !c.verified) {
            return Vec::new();
        }
        // Hash sets suffice: the emission loop below walks the sorted
        // service map, so diagnostic order never depends on these.
        let mut valid_locs: HashSet<&Location> = HashSet::new();
        let mut candidate_locs: HashSet<&Location> = HashSet::new();
        for c in &ctx.clients {
            for plan in c.report.valid_plans() {
                valid_locs.extend(plan.iter().map(|(_, l)| l));
            }
            candidate_locs.extend(c.locs.iter());
        }
        let mut out = Vec::new();
        for loc in ctx.services.keys() {
            if valid_locs.contains(loc) {
                continue;
            }
            let note = if candidate_locs.contains(loc) {
                "it appears in candidate plans, but every one of them is rejected; \
                 `sufs verify` shows the per-plan violations"
            } else {
                "no client request can even be bound to it"
            };
            out.push(
                Diagnostic::new(
                    Code::DeadService,
                    ctx.service_pos(loc),
                    format!("service {loc}"),
                    "no valid plan of any client selects this service".to_string(),
                )
                .with_note(note),
            );
        }
        out
    }
}
