//! `SUFS004` — `Φ`-opens that some path never closes.
//!
//! Parsed scenarios are well-formed, so framings are *syntactically*
//! balanced; what can still go wrong is behavioural: a loop wholly
//! inside a framed body (or inside a policy-bearing request) lets a run
//! keep the activation open forever, so the policy stays armed and the
//! close is never reached on that path. The pass reuses the `hexpr::wf`
//! residual checks for expressions assembled programmatically (where a
//! dangling `close`/`⌟φ` can appear syntactically) and detects the
//! behavioural case on the stand-alone LTS: a cycle reachable from the
//! open without traversing the matching close.

use sufs_core::scenario::SrcPos;
use sufs_hexpr::{wf, Hist, HistLts, Label};

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};
use crate::passes::{Dep, Pass};

/// The `unbalanced-framing` pass.
pub struct UnbalancedFraming;

impl Pass for UnbalancedFraming {
    fn code(&self) -> Code {
        Code::UnbalancedFraming
    }

    fn description(&self) -> &'static str {
        "framings or policy-bearing requests whose close is unreachable on some path"
    }

    fn deps(&self) -> &'static [Dep] {
        // A purely behavioural check on each component's stand-alone
        // LTS.
        &[Dep::Clients, Dep::Services]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for c in &ctx.clients {
            check_component(
                &mut out,
                format!("client {}", c.name),
                ctx.client_pos(&c.name),
                &c.hist,
                &c.lts,
            );
        }
        for (loc, s) in &ctx.services {
            let service = ctx
                .repository()
                .get(loc)
                .expect("analysed services are published");
            check_component(
                &mut out,
                format!("service {loc}"),
                ctx.service_pos(loc),
                service,
                &s.lts,
            );
        }
        out
    }
}

fn check_component(
    out: &mut Vec<Diagnostic>,
    subject: String,
    pos: SrcPos,
    hist: &Hist,
    lts: &HistLts,
) {
    // Syntactic residuals (unreachable from parsed scenarios, which are
    // wf-checked; guards library callers handing us raw expressions).
    for e in wf::check_all(hist) {
        match e {
            wf::WfError::ResidualClose(r) => out.push(Diagnostic::new(
                Code::UnbalancedFraming,
                pos,
                subject.clone(),
                format!("a pending close_{r} residual appears without its open"),
            )),
            wf::WfError::ResidualFrameClose => out.push(Diagnostic::new(
                Code::UnbalancedFraming,
                pos,
                subject.clone(),
                "a pending ⌟φ residual appears without its opening frame".to_string(),
            )),
            _ => {}
        }
    }

    // Behavioural: an activation the run can keep open forever.
    let mut reported: Vec<Label> = Vec::new();
    for (src, label, tgt) in lts.iter_edges() {
        let closes: Box<dyn Fn(&Label) -> bool> = match label {
            Label::FrameOpen(p) => {
                let p = p.clone();
                Box::new(move |l: &Label| l == &Label::FrameClose(p.clone()))
            }
            Label::Open(r, Some(_)) => {
                let r = *r;
                Box::new(move |l: &Label| matches!(l, Label::Close(r2, _) if *r2 == r))
            }
            _ => continue,
        };
        if reported.contains(label) {
            continue;
        }
        let within = lts.reachable_via(tgt, |l| !closes(l));
        if lts.cycle_within(&within, |l| !closes(l)).is_none() {
            continue;
        }
        reported.push(label.clone());
        let what = match label {
            Label::FrameOpen(p) => format!("framing {p}⟦…⟧"),
            Label::Open(r, Some(p)) => format!("request {r} (policy {p})"),
            _ => unreachable!(),
        };
        let witness = lts
            .shortest_path_to_edge(|s2, l2, t2| s2 == src && l2 == label && t2 == tgt)
            .map(|path| path.iter().map(|l| l.to_string()).collect::<Vec<_>>());
        let mut d = Diagnostic::new(
            Code::UnbalancedFraming,
            pos,
            subject.clone(),
            format!(
                "{what} can stay open forever: a loop inside the body never reaches the \
                 matching close on some path"
            ),
        )
        .with_note(
            "the policy stays active along that loop; every event fired inside it is \
             checked against the policy indefinitely"
                .to_string(),
        );
        if let Some(witness) = witness {
            d = d.with_witness(witness);
        }
        out.push(d);
    }
}
