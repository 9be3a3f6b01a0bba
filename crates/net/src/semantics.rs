//! The operational semantics of networks (§3): rules *Open*, *Close*
//! (with `Φ`), *Session*, *Net*, *Access* and *Synch*.
//!
//! [`sess_steps`] enumerates the raw transitions of one session tree
//! under a plan and a repository; [`component_steps`] lifts them to a
//! component, producing the history items each transition appends; the
//! scheduler (or the symbolic explorer) then applies the monitor's
//! validity premise `⊨ η` on top.

use std::fmt;

use crate::network::Component;
use crate::plan::Plan;
use crate::repository::Repository;
use crate::session::{pending_frame_closes, Sess};
use sufs_hexpr::semantics::successors;
use sufs_hexpr::{Channel, Dir, Event, Hist, Label, Location, PolicyRef, RequestId};
use sufs_policy::HistoryItem;

/// What a network transition did, for traces and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StepAction {
    /// Rule *Access* on an event `α`.
    Event {
        /// Where the event fired.
        loc: Location,
        /// The event.
        event: Event,
    },
    /// Rule *Access* on an opening framing `⌞φ`.
    FrameOpen {
        /// Where the framing was entered.
        loc: Location,
        /// The policy.
        policy: PolicyRef,
    },
    /// Rule *Access* on a closing framing `⌟φ`.
    FrameClose {
        /// Where the framing was left.
        loc: Location,
        /// The policy.
        policy: PolicyRef,
    },
    /// Rule *Open*: a new session between `client` and `server`.
    Open {
        /// The request being served.
        request: RequestId,
        /// The policy imposed on the session, if any.
        policy: Option<PolicyRef>,
        /// The requesting party.
        client: Location,
        /// The selected service.
        server: Location,
    },
    /// Rule *Close*: the session for `request` ended; the server side is
    /// discarded.
    Close {
        /// The request whose session closed.
        request: RequestId,
        /// The policy that was imposed on the session, if any.
        policy: Option<PolicyRef>,
        /// The party that closed (the requester).
        client: Location,
    },
    /// Rule *Synch*: a communication `τ` between the two parties of a
    /// session.
    Synch {
        /// The channel.
        chan: Channel,
        /// The sending party.
        sender: Location,
        /// The receiving party.
        receiver: Location,
    },
}

impl fmt::Display for StepAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepAction::Event { loc, event } => write!(f, "{loc}: {event}"),
            StepAction::FrameOpen { loc, policy } => write!(f, "{loc}: ⌞{policy}"),
            StepAction::FrameClose { loc, policy } => write!(f, "{loc}: ⌟{policy}"),
            StepAction::Open {
                request,
                policy,
                client,
                server,
            } => match policy {
                Some(p) => write!(f, "open {request},{p}: {client} ⇄ {server}"),
                None => write!(f, "open {request},∅: {client} ⇄ {server}"),
            },
            StepAction::Close {
                request, client, ..
            } => write!(f, "close {request} by {client}"),
            StepAction::Synch {
                chan,
                sender,
                receiver,
            } => write!(f, "τ: {sender} ─{chan}→ {receiver}"),
        }
    }
}

/// One raw transition of a session tree: the action, the history items
/// it appends to the component's history, and the successor tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessStep {
    /// What happened.
    pub action: StepAction,
    /// Items appended to the component history `η` (rule premises write
    /// `ηγ`, `η⌞φ`, or `η·Φ(H″)⌟φ`).
    pub delta: Vec<HistoryItem>,
    /// The successor session tree.
    pub next: Sess,
}

/// Enumerates every transition of a session tree (rules *Open*, *Close*,
/// *Session*, *Access*, *Synch*), without the monitor premise: validity
/// filtering is layered on top by the caller.
///
/// Requests that the plan leaves unbound, or bound to a location absent
/// from the repository, simply produce no transition — the configuration
/// is stuck there, which the plan verifier reports as incompleteness.
/// Openings of capacity-bounded services already at their bound within
/// this tree are likewise disabled (they become enabled again when a
/// session with that service closes).
pub fn sess_steps(sess: &Sess, plan: &Plan, repo: &Repository) -> Vec<SessStep> {
    let load = active_services(sess, repo);
    sess_steps_with_load(sess, plan, repo, &load)
}

/// The number of active instances of each *repository* location inside
/// a session tree: the per-service load used by the §5
/// bounded-availability extension. Client locations (absent from the
/// repository) are not counted, so clients must not reuse service
/// location names.
pub fn active_services(
    sess: &Sess,
    repo: &Repository,
) -> std::collections::BTreeMap<Location, usize> {
    let mut counts = std::collections::BTreeMap::new();
    count_leaves(sess, repo, false, &mut counts);
    counts
}

fn count_leaves(
    sess: &Sess,
    repo: &Repository,
    inside_session: bool,
    counts: &mut std::collections::BTreeMap<Location, usize>,
) {
    match sess {
        Sess::Leaf(loc, _) => {
            // A top-level leaf is a client, not a service instance.
            if inside_session && repo.get(loc).is_some() {
                *counts.entry(loc.clone()).or_insert(0) += 1;
            }
        }
        Sess::Pair(a, b) => {
            count_leaves(a, repo, true, counts);
            count_leaves(b, repo, true, counts);
        }
    }
}

/// [`sess_steps`] against an explicit per-service load (the scheduler
/// passes network-wide counts so capacities are shared across
/// components).
pub fn sess_steps_with_load(
    sess: &Sess,
    plan: &Plan,
    repo: &Repository,
    load: &std::collections::BTreeMap<Location, usize>,
) -> Vec<SessStep> {
    let mut out = Vec::new();
    match sess {
        Sess::Leaf(loc, h) => leaf_steps(loc, &successors(h), plan, repo, load, &mut out),
        Sess::Pair(s1, s2) => {
            // A top-level leaf's own transitions feed rules Session,
            // Synch and Close alike, so they are computed once.
            let moves1 = leaf_moves(s1);
            let moves2 = leaf_moves(s2);
            // Rule Session: either element evolves on its own.
            for step in element_steps(s1, moves1.as_deref(), plan, repo, load) {
                out.push(SessStep {
                    action: step.action,
                    delta: step.delta,
                    next: Sess::pair(step.next, (**s2).clone()),
                });
            }
            for step in element_steps(s2, moves2.as_deref(), plan, repo, load) {
                out.push(SessStep {
                    action: step.action,
                    delta: step.delta,
                    next: Sess::pair((**s1).clone(), step.next),
                });
            }
            // Rules Synch and Close need both parties at top level.
            if let (Sess::Leaf(l1, h1), Sess::Leaf(l2, h2), Some(m1), Some(m2)) =
                (&**s1, &**s2, &moves1, &moves2)
            {
                synch_steps(l1, m1, l2, m2, &mut out);
                close_steps(l1, m1, h2, &mut out);
                // [S, S'] ≡ [S', S]: the closer may be the right element.
                close_steps(l2, m2, h1, &mut out);
            }
        }
    }
    out
}

/// The stand-alone transitions of `sess` when it is a leaf.
fn leaf_moves(sess: &Sess) -> Option<Vec<(Label, Hist)>> {
    match sess {
        Sess::Leaf(_, h) => Some(successors(h)),
        Sess::Pair(..) => None,
    }
}

/// The steps of one element of a session: a leaf's come from its
/// `moves`, as [`leaf_moves`] computed them.
fn element_steps(
    sess: &Sess,
    moves: Option<&[(Label, Hist)]>,
    plan: &Plan,
    repo: &Repository,
    load: &std::collections::BTreeMap<Location, usize>,
) -> Vec<SessStep> {
    match (sess, moves) {
        (Sess::Leaf(loc, _), Some(moves)) => {
            let mut out = Vec::new();
            leaf_steps(loc, moves, plan, repo, load, &mut out);
            out
        }
        _ => sess_steps_with_load(sess, plan, repo, load),
    }
}

fn leaf_steps(
    loc: &Location,
    moves: &[(Label, Hist)],
    plan: &Plan,
    repo: &Repository,
    load: &std::collections::BTreeMap<Location, usize>,
    out: &mut Vec<SessStep>,
) {
    for (label, h2) in moves {
        match label {
            Label::Ev(e) => out.push(SessStep {
                action: StepAction::Event {
                    loc: loc.clone(),
                    event: e.clone(),
                },
                delta: vec![HistoryItem::Ev(e.clone())],
                next: Sess::leaf(loc.clone(), h2.clone()),
            }),
            Label::FrameOpen(p) => out.push(SessStep {
                action: StepAction::FrameOpen {
                    loc: loc.clone(),
                    policy: p.clone(),
                },
                delta: vec![HistoryItem::Open(p.clone())],
                next: Sess::leaf(loc.clone(), h2.clone()),
            }),
            Label::FrameClose(p) => out.push(SessStep {
                action: StepAction::FrameClose {
                    loc: loc.clone(),
                    policy: p.clone(),
                },
                delta: vec![HistoryItem::Close(p.clone())],
                next: Sess::leaf(loc.clone(), h2.clone()),
            }),
            Label::Open(r, policy) => {
                // Rule Open: the plan selects the service, the repository
                // provides a fresh copy of its behaviour.
                let Some(server_loc) = plan.service_for(*r) else {
                    continue;
                };
                let Some(server) = repo.get(server_loc) else {
                    continue;
                };
                // Bounded availability (§5 extension): a saturated
                // service cannot join another session right now.
                if let Some(Some(cap)) = repo.capacity(server_loc) {
                    if load.get(server_loc).copied().unwrap_or(0) >= cap {
                        continue;
                    }
                }
                let delta = policy
                    .iter()
                    .map(|p| HistoryItem::Open(p.clone()))
                    .collect();
                out.push(SessStep {
                    action: StepAction::Open {
                        request: *r,
                        policy: policy.clone(),
                        client: loc.clone(),
                        server: server_loc.clone(),
                    },
                    delta,
                    next: Sess::pair(
                        Sess::leaf(loc.clone(), h2.clone()),
                        Sess::leaf(server_loc.clone(), server.clone()),
                    ),
                });
            }
            // A bare leaf can neither communicate (Synch needs the
            // enclosing session) nor close (Close needs the session pair).
            Label::Chan(..) | Label::Close(..) | Label::Tau => {}
        }
    }
}

fn synch_steps(
    l1: &Location,
    moves1: &[(Label, Hist)],
    l2: &Location,
    moves2: &[(Label, Hist)],
    out: &mut Vec<SessStep>,
) {
    for (lab1, n1) in moves1 {
        let Label::Chan(c1, d1) = lab1 else { continue };
        for (lab2, n2) in moves2 {
            let Label::Chan(c2, d2) = lab2 else { continue };
            if c1 == c2 && *d1 == d2.co() {
                let (sender, receiver) = if *d1 == Dir::Out {
                    (l1.clone(), l2.clone())
                } else {
                    (l2.clone(), l1.clone())
                };
                out.push(SessStep {
                    action: StepAction::Synch {
                        chan: c1.clone(),
                        sender,
                        receiver,
                    },
                    delta: Vec::new(),
                    next: Sess::pair(
                        Sess::leaf(l1.clone(), n1.clone()),
                        Sess::leaf(l2.clone(), n2.clone()),
                    ),
                });
            }
        }
    }
}

/// Rule Close with the party at `closer_loc` (whose transitions are
/// `closer_moves`) firing `close_{r,φ}`, and `other` being the discarded
/// server.
fn close_steps(
    closer_loc: &Location,
    closer_moves: &[(Label, Hist)],
    other: &Hist,
    out: &mut Vec<SessStep>,
) {
    for (label, h2) in closer_moves {
        let Label::Close(r, policy) = label else {
            continue;
        };
        // η′ = Φ(H″)⌟φ: close the server's dangling frames, then the
        // session's own policy frame.
        let mut delta: Vec<HistoryItem> = pending_frame_closes(other)
            .into_iter()
            .map(HistoryItem::Close)
            .collect();
        if let Some(p) = policy {
            delta.push(HistoryItem::Close(p.clone()));
        }
        out.push(SessStep {
            action: StepAction::Close {
                request: *r,
                policy: policy.clone(),
                client: closer_loc.clone(),
            },
            delta,
            next: Sess::leaf(closer_loc.clone(), h2.clone()),
        });
    }
}

/// Lifts [`sess_steps`] to a component: the successor carries the
/// extended history. Validity (`⊨ η`) is *not* checked here; see the
/// monitor and the schedulers.
pub fn component_steps(c: &Component, repo: &Repository) -> Vec<(StepAction, Component)> {
    sess_steps(&c.sess, &c.plan, repo)
        .into_iter()
        .map(|step| {
            let mut history = c.history.clone();
            history.extend(step.delta);
            (
                step.action,
                Component {
                    history,
                    sess: step.next,
                    plan: c.plan.clone(),
                    origin_loc: c.origin_loc.clone(),
                    origin_client: c.origin_client.clone(),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;
    use sufs_hexpr::parse_hist;

    fn repo_one(loc: &str, src: &str) -> Repository {
        let mut r = Repository::new();
        r.publish(loc, parse_hist(src).unwrap());
        r
    }

    #[test]
    fn access_event_appends_history() {
        let c = Component::new("c1", parse_hist("#a; #b").unwrap(), Plan::new());
        let steps = component_steps(&c, &Repository::new());
        assert_eq!(steps.len(), 1);
        let (action, next) = &steps[0];
        assert!(matches!(action, StepAction::Event { .. }));
        assert_eq!(next.history.len(), 1);
        assert_eq!(next.history.to_string(), "#a");
    }

    #[test]
    fn open_requires_plan_and_repo() {
        let client = request(1, None, seq([send("x", eps())]));
        // No plan: stuck.
        let c = Component::new("c1", client.clone(), Plan::new());
        assert!(component_steps(&c, &repo_one("s", "ext[x -> eps]")).is_empty());
        // Plan points at a missing location: stuck.
        let c = Component::new("c1", client.clone(), Plan::new().with(1u32, "ghost"));
        assert!(component_steps(&c, &repo_one("s", "ext[x -> eps]")).is_empty());
        // Proper plan: the session opens.
        let c = Component::new("c1", client, Plan::new().with(1u32, "s"));
        let steps = component_steps(&c, &repo_one("s", "ext[x -> eps]"));
        assert_eq!(steps.len(), 1);
        assert!(matches!(steps[0].0, StepAction::Open { .. }));
        assert_eq!(steps[0].1.sess.open_sessions(), 1);
    }

    #[test]
    fn open_with_policy_logs_frame() {
        let phi = PolicyRef::nullary("phi");
        let client = request(1, Some(phi.clone()), send("x", eps()));
        let c = Component::new("c1", client, Plan::new().with(1u32, "s"));
        let steps = component_steps(&c, &repo_one("s", "ext[x -> eps]"));
        assert_eq!(steps[0].1.history.to_string(), "⌞phi");
    }

    #[test]
    fn synch_within_session() {
        let client = request(1, None, send("x", eps()));
        let c = Component::new("c1", client, Plan::new().with(1u32, "s"));
        let repo = repo_one("s", "ext[x -> eps]");
        let after_open = component_steps(&c, &repo).remove(0).1;
        let steps = component_steps(&after_open, &repo);
        // Only the communication is possible (the close is not yet
        // reachable: the client body must finish first).
        assert_eq!(steps.len(), 1);
        match &steps[0].0 {
            StepAction::Synch {
                chan,
                sender,
                receiver,
            } => {
                assert_eq!(chan, &Channel::new("x"));
                assert_eq!(sender.as_str(), "c1");
                assert_eq!(receiver.as_str(), "s");
            }
            other => panic!("expected Synch, got {other}"),
        }
        // Synchronisation appends nothing to the history.
        assert_eq!(steps[0].1.history.len(), 0);
    }

    #[test]
    fn close_discards_server_and_closes_frames() {
        // The server enters a framing and never leaves it; the client
        // closes the session: Φ emits the dangling ⌟φs.
        let phi = PolicyRef::nullary("sess_pol");
        let client = request(1, Some(phi.clone()), send("x", eps()));
        let c = Component::new("c1", client, Plan::new().with(1u32, "s"));
        let repo = repo_one("s", "frame srv_pol [ ext[x -> ext[never -> eps]] ]");
        // open
        let c1 = component_steps(&c, &repo).remove(0).1;
        // the server enters its framing
        let c2 = component_steps(&c1, &repo)
            .into_iter()
            .find(|(a, _)| matches!(a, StepAction::FrameOpen { .. }))
            .unwrap()
            .1;
        // synch on x
        let c3 = component_steps(&c2, &repo)
            .into_iter()
            .find(|(a, _)| matches!(a, StepAction::Synch { .. }))
            .unwrap()
            .1;
        // close: the server still waits on `never` inside its framing
        let (action, c4) = component_steps(&c3, &repo)
            .into_iter()
            .find(|(a, _)| matches!(a, StepAction::Close { .. }))
            .unwrap();
        assert!(matches!(action, StepAction::Close { .. }));
        assert!(c4.is_terminated());
        // History: ⌞sess_pol ⌞srv_pol ⌟srv_pol ⌟sess_pol — balanced.
        assert!(c4.history.is_balanced());
        assert_eq!(
            c4.history.to_string(),
            "⌞sess_pol ⌞srv_pol ⌟srv_pol ⌟sess_pol"
        );
    }

    #[test]
    fn nested_sessions_close_inside_out() {
        // client → broker → inner service; the inner session must close
        // before the outer one can.
        let client = request(1, None, send("q", recv("a", eps())));
        let broker = recv(
            "q",
            Hist::seq(request(3, None, send("w", eps())), send("a", eps())),
        );
        let inner = recv("w", eps());
        let mut repo = Repository::new();
        repo.publish("br", broker);
        repo.publish("in", inner);
        let plan = Plan::new().with(1u32, "br").with(3u32, "in");
        let mut comp = Component::new("c1", client, plan);
        // Drive to completion deterministically, preferring any step.
        let mut max_sessions = 0;
        for _ in 0..40 {
            let steps = component_steps(&comp, &repo);
            if steps.is_empty() {
                break;
            }
            max_sessions = max_sessions.max(comp.sess.open_sessions());
            comp = steps.into_iter().next().unwrap().1;
        }
        assert!(comp.is_terminated(), "stuck at: {}", comp.sess);
        assert_eq!(max_sessions, 2, "the sessions really nested");
    }

    #[test]
    fn commutative_close_from_right_element() {
        // Construct a pair whose *right* element holds the close token:
        // the pair [server, client] with client = x̄ · close-token.
        let client_body = Hist::seq(send("x", eps()), Hist::CloseTok(RequestId::new(1), None));
        let pair = Sess::pair(
            Sess::leaf("s", parse_hist("ext[x -> eps]").unwrap()),
            Sess::leaf("c", client_body),
        );
        let plan = Plan::new();
        let repo = Repository::new();
        // After the synch, the right element can close.
        let steps = sess_steps(&pair, &plan, &repo);
        let synch = steps
            .iter()
            .find(|s| matches!(s.action, StepAction::Synch { .. }))
            .unwrap();
        let after = &synch.next;
        let steps2 = sess_steps(after, &plan, &repo);
        let close = steps2
            .iter()
            .find(|s| matches!(s.action, StepAction::Close { .. }))
            .unwrap();
        assert!(matches!(
            &close.next,
            Sess::Leaf(l, h) if l.as_str() == "c" && h.is_eps()
        ));
    }

    #[test]
    fn no_cross_session_communication() {
        // c1 wants to send x to the *outer* partner while the partner is
        // inside a nested session: no synch possible.
        let outer_client = Sess::leaf("c", send("x", eps()));
        let busy_server = Sess::pair(
            Sess::leaf("br", send("w", eps())),
            Sess::leaf("in", recv("w", eps())),
        );
        let pair = Sess::pair(outer_client, busy_server);
        let steps = sess_steps(&pair, &Plan::new(), &Repository::new());
        // The only step is the inner synch on w.
        assert_eq!(steps.len(), 1);
        assert!(
            matches!(&steps[0].action, StepAction::Synch { chan, .. } if chan == &Channel::new("w"))
        );
    }
}
