//! `SUFS006` — clients statically racing for a bounded service.
//!
//! A service published with `cap n` serves at most `n` concurrent
//! sessions. If more than `n` clients have *only* valid plans that go
//! through it, every joint execution must contend for the capacity:
//! some client can be locked out at run time even though each client
//! verified individually. This is the cross-client race that PR 1's
//! fault injection observes dynamically; here it is caught statically.

use sufs_hexpr::Label;

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};
use crate::passes::{Dep, Pass};

/// The `plan-contention` pass.
pub struct PlanContention;

impl Pass for PlanContention {
    fn code(&self) -> Code {
        Code::PlanContention
    }

    fn description(&self) -> &'static str {
        "bounded-capacity services that more clients are forced onto than the capacity admits"
    }

    fn deps(&self) -> &'static [Dep] {
        // Forced-plan sets depend on valid plans (behaviours +
        // policies); the threshold is the capacity annotation.
        &[Dep::Clients, Dep::Services, Dep::Capacities, Dep::Policies]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for loc in ctx.services.keys() {
            let Some(Some(cap)) = ctx.repository().capacity(loc) else {
                continue; // unbounded (or unknown, which cannot happen)
            };
            // Clients whose every valid plan selects this service.
            let forced: Vec<&crate::context::ClientAnalysis> = ctx
                .clients
                .iter()
                .filter(|c| {
                    c.verified
                        && c.report.has_valid_plan()
                        && c.report
                            .valid_plans()
                            .all(|p| p.iter().any(|(_, l)| l == loc))
                })
                .collect();
            if forced.len() <= cap {
                continue;
            }
            let names: Vec<&str> = forced.iter().map(|c| c.name.as_str()).collect();
            let mut d = Diagnostic::new(
                Code::PlanContention,
                ctx.service_pos(loc),
                format!("service {loc}"),
                format!(
                    "{} clients ({}) can only be served through this service, but its \
                     capacity is {cap}",
                    forced.len(),
                    names.join(", ")
                ),
            )
            .with_note(
                "every valid plan of each of these clients selects it; when they run \
                 concurrently, someone waits for a slot or starves"
                    .to_string(),
            );
            // Witness: how the first forced client reaches its demand.
            if let Some(c) = forced.first() {
                let plan = c.report.valid_plans().next().expect("has_valid_plan");
                let witness = c.lts.shortest_path_to_edge(
                    |_, l, _| matches!(l, Label::Open(r, _) if plan.service_for(*r) == Some(loc)),
                );
                if let Some(path) = witness {
                    d = d.with_witness(path.iter().map(|l| l.to_string()).collect());
                }
            }
            out.push(d);
        }
        out
    }
}
