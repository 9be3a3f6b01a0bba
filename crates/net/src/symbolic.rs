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
//! [`SymGraph::explore`] walks that space once and keeps it as an
//! explicit graph over integer state ids, so a plan's security and
//! progress verdicts are both read off one exploration. [`find_stuck`]
//! is the literal progress search, kept as the oracle the graph's
//! [`SymGraph::stuck`] is tested against.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::plan::Plan;
use crate::repository::Repository;

use crate::session::Sess;
use sufs_hexpr::{Hist, Label, Location};
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

/// The reachable symbolic state space of a component under a plan, made
/// explicit by one breadth-first walk.
///
/// States are numbered in discovery order (the initial state is `0`),
/// each state's edges keep [`symbolic_successors`] order, and every
/// state but the initial one records the edge that discovered it. Only
/// the first stuck state's session tree outlives the walk.
#[derive(Debug)]
pub struct SymGraph {
    /// Outgoing `(label, target)` edges of each state.
    edges: Vec<Vec<(Label, usize)>>,
    /// The BFS parent of each state, as `(parent, edge index in parent)`.
    parents: Vec<Option<(usize, usize)>>,
    /// The first state in discovery order that has no successors and is
    /// not terminated, with its session tree.
    stuck: Option<(usize, Sess)>,
}

impl SymGraph {
    /// Explores the symbolic state space of `client` at `loc` under
    /// `plan`, breadth first. Each successor is hashed once; states with
    /// equal hashes are chained by id, so every state is stored once.
    ///
    /// # Errors
    ///
    /// Returns the bound if more than `bound` states are reachable, as
    /// [`find_stuck`] does.
    pub fn explore(
        loc: impl Into<Location>,
        client: Hist,
        plan: &Plan,
        repo: &Repository,
        bound: usize,
    ) -> Result<SymGraph, usize> {
        let hasher = RandomState::new();
        let initial = SymState::initial(loc, client);
        // Hash → the newest state with that hash; `same_hash[id]` is the
        // next older state sharing `id`'s hash.
        let mut heads: HashMap<u64, usize> = HashMap::from([(hasher.hash_one(&initial), 0)]);
        let mut same_hash: Vec<Option<usize>> = vec![None];
        let mut states = vec![initial];
        let mut edges: Vec<Vec<(Label, usize)>> = Vec::new();
        let mut parents: Vec<Option<(usize, usize)>> = vec![None];
        let mut stuck = None;
        while edges.len() < states.len() {
            let id = edges.len();
            let succ = symbolic_successors(&states[id], plan, repo);
            if succ.is_empty() && stuck.is_none() && !states[id].is_terminated() {
                stuck = Some(id);
            }
            let mut out = Vec::with_capacity(succ.len());
            for (label, s2) in succ {
                let head = heads.entry(hasher.hash_one(&s2));
                let mut seen = match &head {
                    Entry::Occupied(e) => Some(*e.get()),
                    Entry::Vacant(_) => None,
                };
                while let Some(other) = seen.filter(|&other| states[other] != s2) {
                    seen = same_hash[other];
                }
                let target = match seen {
                    Some(other) => other,
                    None => {
                        let fresh = states.len();
                        if fresh >= bound {
                            return Err(bound);
                        }
                        same_hash.push(match head {
                            Entry::Occupied(mut e) => Some(e.insert(fresh)),
                            Entry::Vacant(e) => {
                                e.insert(fresh);
                                None
                            }
                        });
                        states.push(s2);
                        parents.push(Some((id, out.len())));
                        fresh
                    }
                };
                out.push((label, target));
            }
            edges.push(out);
        }
        let stuck = stuck.map(|id| (id, states.swap_remove(id).sess));
        Ok(SymGraph {
            edges,
            parents,
            stuck,
        })
    }

    /// The outgoing edges of state `id`, in [`symbolic_successors`] order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edges(&self, id: usize) -> &[(Label, usize)] {
        &self.edges[id]
    }

    /// The first stuck state in discovery order, with its breadth-first
    /// path: the state [`find_stuck`] returns.
    pub fn stuck(&self) -> Option<StuckState> {
        let (id, sess) = self.stuck.as_ref()?;
        let mut path = Vec::new();
        let mut cur = *id;
        while let Some((parent, edge)) = self.parents[cur] {
            path.push(self.edges[parent][edge].0.clone());
            cur = parent;
        }
        path.reverse();
        Some(StuckState {
            path,
            sess: sess.clone(),
        })
    }
}

/// Searches the symbolic state space for a reachable stuck state.
///
/// This is the literal breadth-first search, stopping at the first stuck
/// state; production verdicts read the same state off a [`SymGraph`].
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
        let graph = SymGraph::explore("c", client, plan, repo, bound);
        assert_eq!(graph.map(|g| g.stuck()), oracle);
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
            SymGraph::explore("c", client, &plan, &repo, 2).map(|g| g.edges.len()),
            Err(2)
        );
    }

    #[test]
    fn graph_numbers_states_breadth_first() {
        // Open (⌞p), synch (τ), close (⌟p): a chain of four states whose
        // edges are exactly the successor walk's labels.
        let phi = sufs_hexpr::PolicyRef::nullary("p");
        let client = request(1, Some(phi.clone()), send("x", eps()));
        let repo = repo(&[("srv", "ext[x -> eps]")]);
        let plan = Plan::new().with(1u32, "srv");
        let graph = SymGraph::explore("c", client, &plan, &repo, 100).unwrap();
        assert_eq!(graph.edges.len(), 4);
        assert_eq!(graph.edges(0), &[(Label::FrameOpen(phi.clone()), 1)]);
        assert_eq!(graph.edges(1), &[(Label::Tau, 2)]);
        assert_eq!(graph.edges(2), &[(Label::FrameClose(phi), 3)]);
        assert!(graph.edges(3).is_empty());
        // The terminated end state is not stuck.
        assert!(graph.stuck().is_none());
    }

    #[test]
    fn graph_shares_revisited_states() {
        // The loop returns to its first state: two states, one back edge.
        let client = request(
            1,
            None,
            loop_("h", choose([("ping", recv("pong", jump("h")))])),
        );
        let repo = repo(&[("srv", "mu k. ext[ping -> int[pong -> k]]")]);
        let plan = Plan::new().with(1u32, "srv");
        let graph = SymGraph::explore("c", client, &plan, &repo, 100).unwrap();
        let back_edges = (0..graph.edges.len())
            .flat_map(|id| graph.edges(id).iter().map(move |(_, to)| (id, *to)))
            .filter(|(from, to)| to <= from)
            .count();
        assert!(back_edges >= 1, "the loop must close on a known state");
        assert!(graph.stuck().is_none());
    }
}
