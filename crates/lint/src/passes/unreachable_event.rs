//! `SUFS001` — events that no composed execution can fire.
//!
//! Well-formedness guarantees every syntactic event is reachable in a
//! component's *stand-alone* LTS, so unreachability only arises from
//! composition: the partner the plan supplies never drives the branch
//! that fires the event. The pass compares each component's syntactic
//! alphabet against the events actually fired by some composed
//! execution under some candidate plan (for services: some candidate
//! plan that selects them) and reports the difference, with the
//! stand-alone shortest path to the event as witness.

use std::collections::BTreeSet;

use sufs_hexpr::{Event, HistLts, Label};

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};
use crate::passes::{Dep, Pass};

/// The `unreachable-event` pass.
pub struct UnreachableEvent;

impl Pass for UnreachableEvent {
    fn code(&self) -> Code {
        Code::UnreachableEvent
    }

    fn description(&self) -> &'static str {
        "events in a client or service history that no composed execution under any candidate plan reaches"
    }

    fn deps(&self) -> &'static [Dep] {
        // Reachability is over compositions of clients with selected
        // services, and a saturated capacity blocks an `open`; policies
        // only gate whether verification runs, not what is reachable.
        &[Dep::Clients, Dep::Services, Dep::Capacities]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for c in &ctx.clients {
            // Without a candidate plan nothing composed can run at all;
            // SUFS007 reports that more precisely. A bound hit makes the
            // reachability set incomplete, so stay silent then too.
            if c.plans.is_empty() || !c.explored_all {
                continue;
            }
            for e in c.hist.events().difference(&c.reachable_events) {
                out.push(diagnose(
                    ctx,
                    format!("client {}", c.name),
                    ctx.client_pos(&c.name),
                    e,
                    &c.lts,
                    c.plans.len(),
                ));
            }
        }
        for (loc, s) in &ctx.services {
            if !s.selected || !s.explored_all {
                continue;
            }
            let service = ctx
                .repository()
                .get(loc)
                .expect("analysed services are published");
            let events: BTreeSet<Event> = service.events();
            for e in events.difference(&s.reachable_events) {
                out.push(diagnose(
                    ctx,
                    format!("service {loc}"),
                    ctx.service_pos(loc),
                    e,
                    &s.lts,
                    0,
                ));
            }
        }
        out
    }
}

fn diagnose(
    _ctx: &LintContext<'_>,
    subject: String,
    pos: sufs_core::scenario::SrcPos,
    event: &Event,
    lts: &HistLts,
    plan_count: usize,
) -> Diagnostic {
    let witness = lts
        .shortest_path_to_edge(|_, l, _| l == &Label::Ev(event.clone()))
        .map(|path| path.iter().map(|l| l.to_string()).collect::<Vec<_>>());
    let message = format!("event {event} can never fire: no composed execution reaches it");
    let note = if plan_count > 0 {
        format!(
            "checked all {plan_count} candidate plan(s); the branch guarding {event} is never \
             driven by any selectable partner"
        )
    } else {
        "no candidate plan that selects this service ever drives the branch".to_string()
    };
    let mut d = Diagnostic::new(Code::UnreachableEvent, pos, subject, message).with_note(note);
    if let Some(witness) = witness {
        d = d.with_witness(witness);
    }
    d
}
