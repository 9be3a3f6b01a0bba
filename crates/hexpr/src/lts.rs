//! Finite labelled transition systems, built by one bounded explorer.
//!
//! Every check of the paper reduces to reachability on a finite
//! transition system given by a successor function: validity (§3.1) on
//! the LTS of a history expression, compliance (Theorem 1) on the
//! product `H₁! ⊗ H₂!` of two contracts (Definition 5), and valid plans
//! (§5) on the symbolic state space of a plan. [`Lts::search`] is the
//! one breadth-first explorer that materialises all of them: the
//! contract product, the per-plan symbolic graph, lint's composed
//! reachability and the scheduler's deadlock diagnosis are queries on
//! the graphs [`Lts::explore`] builds with it.
//!
//! Searches that stop at their first find run on the same loop: the
//! successor function may break, and the explorer hands back the graph
//! explored so far with the state that broke. The security product walk
//! stops at its first offending edge, the joint-deadlock search at its
//! first stuck joint state and the structural offending path of a usage
//! automaton at its first offending state; the cost check and the policy
//! subset construction are plain explorations. Only the independent
//! oracles keep loops of their own: `find_stuck` (progress) and
//! `compliant_coinductive` (Theorem 1).
//!
//! Because Definition 1 only admits guarded tail recursion, the set of
//! expressions reachable from a well-formed `H` through the operational
//! semantics is finite; [`HistLts::build`] explores it.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{BuildHasher, Hash};
use std::ops::ControlFlow;

use crate::hist::Hist;
use crate::label::Label;
use crate::semantics::successors;

/// An exploration error: the state space exceeded the configured bound.
///
/// This only happens for ill-formed expressions (e.g. non-tail recursion
/// introduced by hand); [`crate::wf::check`] rejects those statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSpaceExceeded {
    /// The bound that was exceeded.
    pub bound: usize,
}

impl std::fmt::Display for StateSpaceExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state space exceeded the bound of {} states", self.bound)
    }
}

impl std::error::Error for StateSpaceExceeded {}

/// The reachable fragment of a transition system over states `K` with
/// edge labels `L`, built by [`Lts::search`].
///
/// States are numbered in breadth-first discovery order (the initial
/// state is `0`), each state's edges keep the successor function's
/// order, and every state but the initial one records the edge that
/// discovered it. A shortest path to a state is therefore read off the
/// recorded parents ([`Lts::path_to`]), and "the first state (or edge)
/// satisfying X" in id order is the one a breadth-first search from the
/// initial state would meet first.
#[derive(Debug, Clone)]
pub struct Lts<K, L> {
    states: Vec<K>,
    edges: Vec<Vec<(L, usize)>>,
    /// The BFS parent of each state, as `(parent, edge index in parent)`.
    parents: Vec<Option<(usize, usize)>>,
}

/// The finite LTS of a history expression: states are canonical history
/// expressions, edges carry the labels of the stand-alone semantics.
pub type HistLts = Lts<Hist, Label>;

/// The default bound on explored states.
pub const DEFAULT_STATE_BOUND: usize = 1 << 20;

impl<K: Eq + Hash, L> Lts<K, L> {
    /// Explores the states reachable from `initial` through `succ`,
    /// breadth first: [`Lts::search`] with a successor function that
    /// never stops.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceExceeded`] if more than `bound` states are
    /// reachable.
    pub fn explore<F>(initial: K, bound: usize, mut succ: F) -> Result<Self, StateSpaceExceeded>
    where
        F: FnMut(&K) -> Vec<(L, K)>,
    {
        // The buffer is empty whenever `succ` is called: hand the
        // successor list over instead of copying it.
        let never_stops = |k: &K, out: &mut Vec<(L, K)>| {
            *out = succ(k);
            ControlFlow::<Infallible>::Continue(())
        };
        Self::search(initial, bound, never_stops).map(|(lts, _)| lts)
    }

    /// The one breadth-first explorer. `succ` pushes the successors of a
    /// state into its second argument; it is called exactly once per
    /// state, in id order, until it breaks. The successors pushed before
    /// a break are stored first, so a bound they exceed is still an
    /// error, and the search then stops: it returns the graph explored so
    /// far together with the id of the state whose expansion broke and
    /// the break value. States discovered but never expanded have no
    /// edges in that partial graph; [`Lts::path_to`] on the breaking
    /// state is a breadth-first shortest path, so the first break in id
    /// order is the one a breadth-first search would meet first.
    ///
    /// Each successor is hashed once; states with equal hashes are
    /// chained by id, so every state is stored once and never cloned.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceExceeded`] if the search reaches more than
    /// `bound` states before it breaks.
    pub fn search<B, F>(
        initial: K,
        bound: usize,
        mut succ: F,
    ) -> Result<(Self, Option<(usize, B)>), StateSpaceExceeded>
    where
        F: FnMut(&K, &mut Vec<(L, K)>) -> ControlFlow<B>,
    {
        let hasher = RandomState::new();
        // Hash → the newest state with that hash; `same_hash[id]` is the
        // next older state sharing `id`'s hash.
        let mut heads: HashMap<u64, usize> = HashMap::from([(hasher.hash_one(&initial), 0)]);
        let mut same_hash: Vec<Option<usize>> = vec![None];
        let mut states = vec![initial];
        let mut edges: Vec<Vec<(L, usize)>> = Vec::new();
        let mut parents: Vec<Option<(usize, usize)>> = vec![None];
        let mut pushed = Vec::new();
        let mut stop = None;
        while stop.is_none() && edges.len() < states.len() {
            let id = edges.len();
            if let ControlFlow::Break(value) = succ(&states[id], &mut pushed) {
                stop = Some((id, value));
            }
            let mut out = Vec::with_capacity(pushed.len());
            for (label, s2) in pushed.drain(..) {
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
                            return Err(StateSpaceExceeded { bound });
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
        edges.resize_with(states.len(), Vec::new);
        let lts = Lts {
            states,
            edges,
            parents,
        };
        Ok((lts, stop))
    }
}

impl<K, L> Lts<K, L> {
    /// The number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the LTS has no states (never happens: the initial
    /// state always exists).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The initial state id (always `0`).
    pub fn initial(&self) -> usize {
        0
    }

    /// The state at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: usize) -> &K {
        &self.states[id]
    }

    /// Outgoing edges of state `id`, in successor order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edges(&self, id: usize) -> &[(L, usize)] {
        &self.edges[id]
    }

    /// Iterates over all `(source, label, target)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, &L, usize)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(s, out)| out.iter().map(move |(l, t)| (s, l, *t)))
    }

    /// The labels along the breadth-first path from the initial state to
    /// `id`: a shortest path, ties broken by discovery order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn path_to(&self, id: usize) -> Vec<L>
    where
        L: Clone,
    {
        let mut path = Vec::new();
        let mut cur = id;
        while let Some((parent, edge)) = self.parents[cur] {
            path.push(self.edges[parent][edge].0.clone());
            cur = parent;
        }
        path.reverse();
        path
    }

    /// Shortest label path from the initial state ending with an edge
    /// satisfying `pred` (called with source id, label, target id), or
    /// `None` if no such edge exists.
    ///
    /// Edges are tried in id order, each state's in successor order, so
    /// the first match is the one a breadth-first search would meet
    /// first: the witness is of minimal length and deterministic.
    pub fn shortest_path_to_edge<F>(&self, mut pred: F) -> Option<Vec<L>>
    where
        F: FnMut(usize, &L, usize) -> bool,
        L: Clone,
    {
        let (src, label, _) = self.iter_edges().find(|&(s, l, t)| pred(s, l, t))?;
        let mut path = self.path_to(src);
        path.push(label.clone());
        Some(path)
    }

    /// State ids reachable from `from` using only edges whose label
    /// satisfies `keep` (including `from` itself).
    pub fn reachable_via<F>(&self, from: usize, mut keep: F) -> Vec<usize>
    where
        F: FnMut(&L) -> bool,
    {
        let mut seen = vec![false; self.states.len()];
        seen[from] = true;
        let mut queue = std::collections::VecDeque::from([from]);
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            out.push(u);
            for (label, v) in &self.edges[u] {
                if !seen[*v] && keep(label) {
                    seen[*v] = true;
                    queue.push_back(*v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Looks for a cycle in the subgraph induced by the states in
    /// `within`, using only edges whose label satisfies `keep`. Returns a
    /// state on such a cycle, or `None` if the subgraph is acyclic.
    pub fn cycle_within<F>(&self, within: &[usize], mut keep: F) -> Option<usize>
    where
        F: FnMut(&L) -> bool,
    {
        let member: std::collections::HashSet<usize> = within.iter().copied().collect();
        // Lint-sized LTSs are small, so a per-state "can this state reach
        // itself through at least one edge?" check keeps this obviously
        // correct at quadratic worst case.
        for &root in within {
            let mut seen = vec![false; self.states.len()];
            let mut queue: std::collections::VecDeque<usize> = self.edges[root]
                .iter()
                .filter(|(l, v)| member.contains(v) && keep(l))
                .map(|(_, v)| *v)
                .collect();
            for &v in &queue {
                seen[v] = true;
            }
            while let Some(u) = queue.pop_front() {
                if u == root {
                    return Some(root);
                }
                for (label, v) in &self.edges[u] {
                    if !seen[*v] && member.contains(v) && keep(label) {
                        seen[*v] = true;
                        queue.push_back(*v);
                    }
                }
            }
        }
        None
    }
}

impl Lts<Hist, Label> {
    /// Explores the reachable state space of `h` with the default bound.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceExceeded`] if more than
    /// [`DEFAULT_STATE_BOUND`] states are reachable, which cannot happen
    /// for expressions accepted by [`crate::wf::check`].
    pub fn build(h: &Hist) -> Result<HistLts, StateSpaceExceeded> {
        Self::build_bounded(h, DEFAULT_STATE_BOUND)
    }

    /// Explores the reachable state space of `h`, failing beyond `bound`
    /// states.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceExceeded`] if more than `bound` states are
    /// reachable.
    pub fn build_bounded(h: &Hist, bound: usize) -> Result<HistLts, StateSpaceExceeded> {
        Lts::explore(h.clone(), bound, successors)
    }

    /// State ids whose expression is terminated (`ε`): successful final
    /// states.
    pub fn terminated_states(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_eps())
            .map(|(i, _)| i)
            .collect()
    }

    /// States with no outgoing edges that are *not* `ε`: these are stuck.
    ///
    /// For a closed stand-alone expression this is always empty; stuckness
    /// arises from composition (compliance failures), checked elsewhere.
    pub fn stuck_states(&self) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(i, out)| out.is_empty() && !self.states[*i].is_eps())
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the LTS in Graphviz DOT format (for debugging and docs).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph hist {\n  rankdir=LR;\n");
        for (i, st) in self.states.iter().enumerate() {
            let shape = if st.is_eps() {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(s, "  q{i} [shape={shape},label=\"q{i}\"];");
        }
        for (src, label, tgt) in self.iter_edges() {
            let _ = writeln!(s, "  q{src} -> q{tgt} [label=\"{label}\"];");
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, PolicyRef};
    use crate::ident::Channel;

    fn ev(name: &str) -> Hist {
        Hist::ev(Event::nullary(name))
    }
    fn ch(name: &str) -> Channel {
        Channel::new(name)
    }

    /// `0 → 1 → … → max`, one `'i'` edge each.
    fn counter_lts(max: u32) -> Lts<u32, char> {
        Lts::explore(0u32, 1000, |&n| {
            if n >= max {
                vec![]
            } else {
                vec![('i', n + 1)]
            }
        })
        .unwrap()
    }

    #[test]
    fn explorer_reaches_every_state_and_keeps_sinks() {
        let lts = counter_lts(5);
        assert_eq!(lts.len(), 6);
        assert!(!lts.is_empty());
        let sinks: Vec<usize> = (0..lts.len())
            .filter(|&i| lts.edges(i).is_empty())
            .collect();
        assert_eq!(sinks, vec![5]);
        assert_eq!(*lts.state(5), 5);
    }

    #[test]
    fn explorer_respects_the_bound() {
        let err = Lts::explore(0u32, 3, |&n| vec![('i', n + 1)]).unwrap_err();
        assert_eq!(err, StateSpaceExceeded { bound: 3 });
        assert!(err.to_string().contains('3'));
        // Exactly `bound` states fit.
        assert_eq!(counter_lts(2).len(), 3);
        assert!(Lts::explore(0u32, 3, |&n| if n < 2 {
            vec![('i', n + 1)]
        } else {
            vec![]
        })
        .is_ok());
    }

    #[test]
    fn explorer_finds_the_shortest_path_through_a_diamond() {
        // 0 → 1 → 3 and 0 → 2 → 3, plus a longer detour 0 → 4 → 5 → 3.
        let lts = Lts::explore(0u8, 100, |&n| match n {
            0 => vec![('a', 1), ('b', 2), ('c', 4)],
            1 | 2 => vec![('d', 3)],
            4 => vec![('e', 5)],
            5 => vec![('f', 3)],
            _ => vec![],
        })
        .unwrap();
        let three = (0..lts.len()).find(|&i| *lts.state(i) == 3).unwrap();
        assert_eq!(lts.path_to(three), vec!['a', 'd']);
        assert_eq!(
            lts.shortest_path_to_edge(|_, _, t| t == three),
            Some(vec!['a', 'd'])
        );
        assert_eq!(
            lts.shortest_path_to_edge(|_, &l, _| l == 'f'),
            Some(vec!['c', 'e', 'f'])
        );
    }

    #[test]
    fn explorer_reports_no_path_when_none_exists() {
        let lts = counter_lts(2);
        assert!(lts
            .shortest_path_to_edge(|_, _, t| *lts.state(t) == 42)
            .is_none());
        assert!(lts.shortest_path_to_edge(|_, &l, _| l == 'x').is_none());
    }

    #[test]
    fn explorer_merges_confluent_states() {
        // 0 → 1 under two labels: one state, two edges.
        let lts = Lts::explore(0u8, 100, |&n| {
            if n == 0 {
                vec![('x', 1), ('y', 1)]
            } else {
                vec![]
            }
        })
        .unwrap();
        assert_eq!(lts.len(), 2);
        assert_eq!(lts.edges(0), &[('x', 1), ('y', 1)]);
        assert_eq!(lts.iter_edges().count(), 2);
        // The first edge discovered the state.
        assert_eq!(lts.path_to(1), vec!['x']);
    }

    #[test]
    fn explorer_chains_states_with_equal_hashes() {
        // A state type whose hash ignores half of it: every state lands
        // in one hash chain and must still be told apart by equality.
        #[derive(Debug, PartialEq, Eq)]
        struct Collide(u8);
        impl Hash for Collide {
            fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
                (self.0 / 8).hash(h);
            }
        }
        let lts = Lts::explore(Collide(0), 100, |&Collide(n)| {
            if n < 7 {
                vec![((), Collide(n + 1)), ((), Collide(0))]
            } else {
                vec![]
            }
        })
        .unwrap();
        assert_eq!(lts.len(), 8);
        for i in 0..lts.len() {
            assert_eq!(lts.state(i).0 as usize, i);
        }
    }

    /// A search's partial graph and its break, if any.
    type Searched = (Lts<u8, char>, Option<(usize, u8)>);

    /// The diamond of `explorer_finds_the_shortest_path_through_a_diamond`
    /// as a search that breaks at every state satisfying `stop`.
    fn diamond_until(
        bound: usize,
        stop: impl Fn(u8) -> bool,
    ) -> Result<Searched, StateSpaceExceeded> {
        Lts::search(0u8, bound, |&n, out| {
            out.extend(match n {
                0 => vec![('a', 1), ('b', 2), ('c', 4)],
                1 | 2 => vec![('d', 3)],
                4 => vec![('e', 5)],
                5 => vec![('f', 3)],
                _ => vec![],
            });
            if stop(n) {
                ControlFlow::Break(n)
            } else {
                ControlFlow::Continue(())
            }
        })
    }

    #[test]
    fn search_stops_at_the_first_breaking_state_in_id_order() {
        // Ids: 0 ↦ 0, 1 ↦ 1, 2 ↦ 2, 3 ↦ 4, 4 ↦ 3, 5 ↦ 5. States 4 and 3
        // both break; 4 is discovered first.
        let (lts, stop) = diamond_until(100, |n| n == 3 || n == 4).unwrap();
        assert_eq!(stop, Some((3, 4)));
        assert_eq!(*lts.state(3), 4);
        // The breaking state's successors are stored, later states are
        // discovered but not expanded.
        assert_eq!(lts.len(), 6);
        assert_eq!(lts.edges(3), &[('e', 5)]);
        assert!(lts.edges(4).is_empty() && lts.edges(5).is_empty());
    }

    #[test]
    fn search_path_to_the_breaking_state_is_breadth_first_shortest() {
        // State 3 is reachable by `a d`, `b d` and `c e f`.
        let (lts, stop) = diamond_until(100, |n| n == 3).unwrap();
        let (at, value) = stop.unwrap();
        assert_eq!((*lts.state(at), value), (3, 3));
        assert_eq!(lts.path_to(at), vec!['a', 'd']);
        let (lts, stop) = diamond_until(100, |n| n == 5).unwrap();
        assert_eq!(lts.path_to(stop.unwrap().0), vec!['c', 'e']);
    }

    #[test]
    fn search_break_before_the_bound_wins_and_a_bound_hit_first_errors() {
        // The successors pushed before a break are stored first: the
        // initial state's three fit a bound of 4 but not of 3.
        assert_eq!(diamond_until(4, |n| n == 0).unwrap().1, Some((0, 0)));
        assert_eq!(
            diamond_until(3, |n| n == 0).unwrap_err(),
            StateSpaceExceeded { bound: 3 }
        );
        // Breaking at state 1 (id 1) stores its successor 3 as a fifth
        // state.
        assert_eq!(diamond_until(5, |n| n == 1).unwrap().1, Some((1, 1)));
        assert!(diamond_until(4, |n| n == 1).is_err());
        // An infinite chain breaking at 10 with a bound of 100: found.
        let (_, stop) = Lts::search(0u32, 100, |&n, out| {
            out.push(((), n + 1));
            if n == 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(stop, Some((10, ())));
        // The same chain breaking at 200: the bound is hit first.
        let err = Lts::search(0u32, 100, |&n, out| {
            out.push(((), n + 1));
            if n == 200 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap_err();
        assert_eq!(err, StateSpaceExceeded { bound: 100 });
    }

    #[test]
    fn explore_equals_a_search_that_never_breaks() {
        let explored = Lts::explore(0u8, 100, |&n| match n {
            0 => vec![('a', 1), ('b', 2), ('c', 4)],
            1 | 2 => vec![('d', 3)],
            4 => vec![('e', 5)],
            5 => vec![('f', 3)],
            _ => vec![],
        })
        .unwrap();
        let (searched, stop) = diamond_until(100, |_| false).unwrap();
        assert_eq!(stop, None);
        assert_eq!(explored.len(), searched.len());
        for id in 0..explored.len() {
            assert_eq!(explored.state(id), searched.state(id));
            assert_eq!(explored.edges(id), searched.edges(id));
            assert_eq!(explored.path_to(id), searched.path_to(id));
        }
        let h = Hist::mu(
            "h",
            Hist::int_([(ch("a"), ev("x")), (ch("b"), Hist::var("h"))]),
        );
        let built = HistLts::build(&h).unwrap();
        let (searched, stop) = Lts::search(h, DEFAULT_STATE_BOUND, |k, out| {
            out.extend(successors(k));
            ControlFlow::<()>::Continue(())
        })
        .unwrap();
        assert_eq!(stop, None);
        assert_eq!(built.len(), searched.len());
        assert!(built.iter_edges().eq(searched.iter_edges()));
    }

    #[test]
    fn graph_numbers_states_breadth_first() {
        // φ⟦#a⟧: open the frame, fire, close; a chain of four states
        // whose edges are exactly the successor walk's labels.
        let phi = PolicyRef::nullary("p");
        let h = Hist::framed(phi.clone(), ev("a"));
        let lts = HistLts::build(&h).unwrap();
        assert_eq!(lts.len(), 4);
        let a = Label::Ev(Event::nullary("a"));
        assert_eq!(lts.edges(0), &[(Label::FrameOpen(phi.clone()), 1)]);
        assert_eq!(lts.edges(1), &[(a.clone(), 2)]);
        assert_eq!(lts.edges(2), &[(Label::FrameClose(phi.clone()), 3)]);
        assert!(lts.edges(3).is_empty());
        assert_eq!(
            lts.path_to(3),
            vec![Label::FrameOpen(phi.clone()), a, Label::FrameClose(phi)]
        );
        assert_eq!(lts.terminated_states(), vec![3]);
        assert!(lts.stuck_states().is_empty());
    }

    #[test]
    fn graph_shares_revisited_states() {
        // μh. ping!. pong?. h returns to its first state: two states, one
        // back edge.
        let h = Hist::mu(
            "h",
            Hist::int_([(ch("ping"), Hist::ext([(ch("pong"), Hist::var("h"))]))]),
        );
        let lts = HistLts::build(&h).unwrap();
        assert_eq!(lts.len(), 2);
        let back_edges = lts.iter_edges().filter(|&(from, _, to)| to <= from).count();
        assert_eq!(back_edges, 1, "the loop must close on a known state");
        assert!(lts.stuck_states().is_empty());
    }

    #[test]
    fn straight_line_lts() {
        let h = Hist::seq(ev("a"), ev("b"));
        let lts = HistLts::build(&h).unwrap();
        assert_eq!(lts.len(), 3);
        assert_eq!(lts.terminated_states().len(), 1);
        assert!(lts.stuck_states().is_empty());
    }

    #[test]
    fn recursion_is_finite_state() {
        // μh. (ā ⊕ b̄)·c̄·h : 3 states (head, after a/b, eps is unreachable).
        let body = Hist::seq(
            Hist::int_([(ch("a"), Hist::Eps), (ch("b"), Hist::Eps)]),
            Hist::seq(Hist::int_([(ch("c"), Hist::Eps)]), Hist::var("h")),
        );
        let h = Hist::mu("h", body);
        let lts = HistLts::build(&h).unwrap();
        assert_eq!(lts.len(), 2);
        assert!(lts.terminated_states().is_empty());
        // Every state has outgoing edges (the loop never terminates).
        for i in 0..lts.len() {
            assert!(!lts.edges(i).is_empty());
        }
    }

    #[test]
    fn choice_lts_shape() {
        let h = Hist::ext([(ch("a"), ev("x")), (ch("b"), ev("y"))]);
        let lts = HistLts::build(&h).unwrap();
        // initial, x, y, eps = 4 states
        assert_eq!(lts.len(), 4);
        assert_eq!(lts.edges(0).len(), 2);
        assert_eq!(lts.iter_edges().count(), 4);
    }

    #[test]
    fn bound_is_enforced() {
        let h = Hist::seq_all((0..10).map(|i| ev(&format!("e{i}"))));
        let err = HistLts::build_bounded(&h, 4).unwrap_err();
        assert_eq!(err.bound, 4);
        assert!(err.to_string().contains("4"));
    }

    #[test]
    fn dot_output_mentions_labels() {
        let h = ev("a");
        let dot = HistLts::build(&h).unwrap().to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("#a"));
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn shared_continuations_are_merged() {
        // a.(c) + b.(c): the continuation after a and after b is the same
        // state.
        let cont = ev("c");
        let h = Hist::ext([(ch("a"), cont.clone()), (ch("b"), cont)]);
        let lts = HistLts::build(&h).unwrap();
        assert_eq!(lts.len(), 3); // initial, c, eps
    }
}
