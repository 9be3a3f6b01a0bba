//! Symbolic (history-less) exploration of a component's behaviour under
//! a plan: the state space the static verifier model-checks.
//!
//! Concrete configurations carry ever-growing histories, so their state
//! space is infinite even for loops. The symbolic state keeps only the
//! session tree plus the not-yet-emitted history items of the last
//! transition; the policy bookkeeping is reconstructed by
//! [`sufs_policy::check_validity`] from the emitted labels. Because
//! services are finite state and session nesting is bounded by the
//! syntax, the symbolic space of a plan-closed component is finite.
//!
//! [`explore`] builds that space once with the workspace's one explorer
//! ([`Lts::explore`]) as an explicit graph over integer state ids, so a
//! plan's security and progress verdicts are both read off one
//! exploration. [`find_stuck`] is the literal progress search, kept as
//! the oracle [`first_stuck`] is tested against: it stops at the first
//! stuck state instead of building the graph.

use crate::plan::Plan;
use crate::repository::Repository;

use crate::session::Sess;
use sufs_hexpr::lts::StateSpaceExceeded;
use sufs_hexpr::{Hist, Label, Location, Lts};
use sufs_policy::HistoryItem;

/// A symbolic state: the session tree and the queue of history items
/// still to emit from the transition that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymState {
    /// The session tree.
    pub sess: Sess,
    /// History items still to be emitted as labels, in order.
    pub pending: Vec<HistoryItem>,
}

impl SymState {
    /// The initial symbolic state of a located client.
    pub fn initial(loc: impl Into<Location>, client: Hist) -> SymState {
        SymState {
            sess: Sess::leaf(loc, client),
            pending: Vec::new(),
        }
    }

    /// Returns `true` if the component terminated successfully (and
    /// nothing is left to emit).
    pub fn is_terminated(&self) -> bool {
        self.pending.is_empty() && self.sess.is_terminated()
    }
}

fn item_label(item: &HistoryItem) -> Label {
    match item {
        HistoryItem::Ev(e) => Label::Ev(e.clone()),
        HistoryItem::Open(p) => Label::FrameOpen(p.clone()),
        HistoryItem::Close(p) => Label::FrameClose(p.clone()),
    }
}

/// The successors of a symbolic state: each network transition becomes a
/// chain of single-label edges (one per appended history item; `τ` if a
/// transition appends nothing).
pub fn symbolic_successors(
    state: &SymState,
    plan: &Plan,
    repo: &Repository,
) -> Vec<(Label, SymState)> {
    let load = crate::semantics::active_services(&state.sess, repo);
    symbolic_successors_with_load(state, plan, repo, &load)
}

/// [`symbolic_successors`] against an explicit per-service load (for
/// joint multi-client exploration, where bounded capacities are shared
/// across components; the load must *include* this component's own
/// instances).
pub fn symbolic_successors_with_load(
    state: &SymState,
    plan: &Plan,
    repo: &Repository,
    load: &std::collections::BTreeMap<Location, usize>,
) -> Vec<(Label, SymState)> {
    if let Some((first, rest)) = state.pending.split_first() {
        return vec![(
            item_label(first),
            SymState {
                sess: state.sess.clone(),
                pending: rest.to_vec(),
            },
        )];
    }
    crate::semantics::sess_steps_with_load(&state.sess, plan, repo, load)
        .into_iter()
        .map(|step| {
            let (label, pending) = match step.delta.split_first() {
                None => (Label::Tau, Vec::new()),
                Some((first, rest)) => (item_label(first), rest.to_vec()),
            };
            (
                label,
                SymState {
                    sess: step.next,
                    pending,
                },
            )
        })
        .collect()
}

/// A stuck configuration reachable under the plan: a communication
/// deadlock (or an unserved request) that no scheduling can avoid once
/// reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckState {
    /// The labels along a shortest path to the stuck state.
    pub path: Vec<Label>,
    /// The stuck session tree.
    pub sess: Sess,
}

impl std::fmt::Display for StuckState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stuck at {} after [", self.sess)?;
        for (i, l) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

/// The reachable symbolic state space of `client` at `loc` under
/// `plan`, built by the one explorer ([`Lts::explore`]): states in
/// discovery order, each state's edges in [`symbolic_successors`] order.
///
/// # Errors
///
/// Returns [`StateSpaceExceeded`] if more than `bound` states are
/// reachable, as [`find_stuck`] does.
pub fn explore(
    loc: impl Into<Location>,
    client: Hist,
    plan: &Plan,
    repo: &Repository,
    bound: usize,
) -> Result<Lts<SymState, Label>, StateSpaceExceeded> {
    Lts::explore(SymState::initial(loc, client), bound, |s| {
        symbolic_successors(s, plan, repo)
    })
}

/// The first stuck state of an explored symbolic graph in discovery
/// order (no successors, not terminated), with its breadth-first path:
/// the state [`find_stuck`] returns.
pub fn first_stuck(graph: &Lts<SymState, Label>) -> Option<StuckState> {
    let id = (0..graph.len())
        .find(|&id| graph.edges(id).is_empty() && !graph.state(id).is_terminated())?;
    Some(StuckState {
        path: graph.path_to(id),
        sess: graph.state(id).sess.clone(),
    })
}

/// Searches the symbolic state space for a reachable stuck state.
///
/// This is the literal breadth-first search, stopping at the first stuck
/// state; production verdicts read the same state off the explored
/// graph with [`first_stuck`].
///
/// # Errors
///
/// Returns the bound if exploration exceeds it.
pub fn find_stuck(
    loc: impl Into<Location>,
    client: Hist,
    plan: &Plan,
    repo: &Repository,
    bound: usize,
) -> Result<Option<StuckState>, usize> {
    use std::collections::{HashMap, VecDeque};
    let initial = SymState::initial(loc, client);
    let mut states = vec![initial.clone()];
    let mut index: HashMap<SymState, usize> = HashMap::from([(initial, 0)]);
    let mut parents: Vec<Option<(usize, Label)>> = vec![None];
    let mut queue = VecDeque::from([0usize]);
    while let Some(id) = queue.pop_front() {
        let state = states[id].clone();
        let succ = symbolic_successors(&state, plan, repo);
        if succ.is_empty() && !state.is_terminated() {
            let mut path = Vec::new();
            let mut cur = id;
            while let Some((p, l)) = &parents[cur] {
                path.push(l.clone());
                cur = *p;
            }
            path.reverse();
            return Ok(Some(StuckState {
                path,
                sess: state.sess,
            }));
        }
        for (label, s2) in succ {
            if !index.contains_key(&s2) {
                let nid = states.len();
                if nid >= bound {
                    return Err(bound);
                }
                index.insert(s2.clone(), nid);
                states.push(s2);
                parents.push(Some((id, label)));
                queue.push_back(nid);
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;
    use sufs_hexpr::parse_hist;

    fn repo(pairs: &[(&str, &str)]) -> Repository {
        let mut r = Repository::new();
        for (loc, src) in pairs {
            r.publish(*loc, parse_hist(src).unwrap());
        }
        r
    }

    /// [`find_stuck`], asserting that the explored graph's first stuck
    /// state and its path are the same.
    fn stuck_agreeing(
        client: Hist,
        plan: &Plan,
        repo: &Repository,
        bound: usize,
    ) -> Result<Option<StuckState>, usize> {
        let oracle = find_stuck("c", client.clone(), plan, repo, bound);
        let graph = explore("c", client, plan, repo, bound);
        assert_eq!(graph.map(|g| first_stuck(&g)).map_err(|e| e.bound), oracle);
        oracle
    }

    fn simple_client() -> Hist {
        request(
            1,
            None,
            seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
        )
    }

    #[test]
    fn compliant_plan_has_no_stuck_state() {
        let repo = repo(&[("srv", "ext[req -> int[ok -> eps | no -> eps]]")]);
        let plan = Plan::new().with(1u32, "srv");
        let stuck = stuck_agreeing(simple_client(), &plan, &repo, 10_000).unwrap();
        assert!(stuck.is_none());
    }

    #[test]
    fn non_compliant_plan_reaches_stuck_state() {
        let repo = repo(&[("srv", "ext[req -> int[del -> eps]]")]);
        let plan = Plan::new().with(1u32, "srv");
        let stuck = stuck_agreeing(simple_client(), &plan, &repo, 10_000)
            .unwrap()
            .expect("must be stuck");
        // open, synch req, then both parties are stuck.
        assert_eq!(stuck.path.len(), 2);
        assert!(stuck.to_string().contains("stuck at"));
    }

    #[test]
    fn unbound_request_is_stuck_immediately() {
        let stuck = stuck_agreeing(simple_client(), &Plan::new(), &Repository::new(), 1000)
            .unwrap()
            .expect("must be stuck");
        assert!(stuck.path.is_empty());
    }

    #[test]
    fn infinite_conversation_is_not_stuck() {
        let client = request(
            1,
            None,
            loop_("h", choose([("ping", recv("pong", jump("h")))])),
        );
        let repo = repo(&[("srv", "mu k. ext[ping -> int[pong -> k]]")]);
        let plan = Plan::new().with(1u32, "srv");
        let stuck = stuck_agreeing(client, &plan, &repo, 10_000).unwrap();
        assert!(stuck.is_none());
    }

    #[test]
    fn symbolic_labels_include_frames() {
        // Closing a session with a policy emits ⌟φ as a label.
        let phi = sufs_hexpr::PolicyRef::nullary("p");
        let client = request(1, Some(phi.clone()), send("x", eps()));
        let repo = repo(&[("srv", "ext[x -> eps]")]);
        let plan = Plan::new().with(1u32, "srv");
        // Walk: open (⌞p), synch (τ), close (⌟p).
        let s0 = SymState::initial("c", client);
        let (l1, s1) = symbolic_successors(&s0, &plan, &repo).remove(0);
        assert_eq!(l1, Label::FrameOpen(phi.clone()));
        let (l2, s2) = symbolic_successors(&s1, &plan, &repo).remove(0);
        assert_eq!(l2, Label::Tau);
        let (l3, s3) = symbolic_successors(&s2, &plan, &repo).remove(0);
        assert_eq!(l3, Label::FrameClose(phi));
        assert!(s3.is_terminated());
    }

    #[test]
    fn bound_is_reported() {
        let client = request(
            1,
            None,
            loop_("h", choose([("ping", recv("pong", jump("h")))])),
        );
        let repo = repo(&[("srv", "mu k. ext[ping -> int[pong -> k]]")]);
        let plan = Plan::new().with(1u32, "srv");
        assert_eq!(find_stuck("c", client.clone(), &plan, &repo, 2), Err(2));
        assert_eq!(
            explore("c", client, &plan, &repo, 2).map(|g| g.len()),
            Err(StateSpaceExceeded { bound: 2 })
        );
    }
}
