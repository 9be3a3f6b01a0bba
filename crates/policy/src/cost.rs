//! Quantitative security policies (§5's second research direction,
//! "along the lines of \[14\]", Degano–Ferrari–Mezzetti *On quantitative
//! security policies*).
//!
//! A [`CostModel`] assigns a non-negative cost to every access event
//! (a flat cost per event name, or the value of one of its arguments);
//! a [`CostBound`] caps the total cost accumulated *while the policy is
//! active*. The static check walks the finite LTS of a history
//! expression, computing the maximal accumulated cost per activation:
//!
//! * if a positive-cost cycle is reachable inside an activation window,
//!   the accumulated cost is unbounded and the bound is violated;
//! * otherwise the maximum over the (finitely many) paths is compared
//!   with the bound.
//!
//! The run-time side mirrors it: [`CostMonitor`] tracks accumulated
//! costs incrementally, exactly like the qualitative validity monitor.

use std::collections::BTreeMap;
use std::fmt;

use sufs_hexpr::{Event, Hist, Label, Lts, PolicyRef};

/// How an event's cost is computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostRule {
    /// A flat cost per occurrence.
    Flat(u64),
    /// The value of the `idx`-th integer argument (clamped at zero);
    /// non-integer or missing arguments cost nothing.
    Arg(usize),
}

/// A cost model: event name → cost rule. Unlisted events cost zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostModel {
    rules: BTreeMap<String, CostRule>,
}

impl CostModel {
    /// An empty model (everything costs zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a flat cost to an event name.
    pub fn flat(mut self, event: &str, cost: u64) -> Self {
        self.rules.insert(event.to_owned(), CostRule::Flat(cost));
        self
    }

    /// Charges the value of the `idx`-th argument of the event.
    pub fn by_arg(mut self, event: &str, idx: usize) -> Self {
        self.rules.insert(event.to_owned(), CostRule::Arg(idx));
        self
    }

    /// The cost of one event under this model.
    pub fn cost(&self, e: &Event) -> u64 {
        match self.rules.get(e.name().as_str()) {
            None => 0,
            Some(CostRule::Flat(c)) => *c,
            Some(CostRule::Arg(i)) => e
                .args()
                .get(*i)
                .and_then(|v| v.as_int())
                .map_or(0, |n| n.max(0) as u64),
        }
    }
}

/// A quantitative policy: while `policy` is active, the accumulated
/// cost (under `model`) must stay at or below `bound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBound {
    /// The framing whose activation windows are charged.
    pub policy: PolicyRef,
    /// The cost model.
    pub model: CostModel,
    /// The inclusive budget per activation window.
    pub bound: u64,
}

/// The outcome of the static cost analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostVerdict {
    /// All activations stay within budget; the worst accumulated cost is
    /// reported.
    Within {
        /// The maximum accumulated cost over all paths and activations.
        worst: u64,
    },
    /// Some path exceeds the budget (or accumulates unboundedly via a
    /// positive-cost cycle).
    Exceeded {
        /// The smallest witnessed cost above the bound, `None` when a
        /// positive-cost cycle makes it unbounded.
        witness: Option<u64>,
    },
}

impl CostVerdict {
    /// Returns `true` if the budget always suffices.
    pub fn is_within(&self) -> bool {
        matches!(self, CostVerdict::Within { .. })
    }
}

impl fmt::Display for CostVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostVerdict::Within { worst } => write!(f, "within budget (worst case {worst})"),
            CostVerdict::Exceeded { witness: Some(w) } => {
                write!(f, "budget exceeded (witnessed cost {w})")
            }
            CostVerdict::Exceeded { witness: None } => {
                write!(f, "budget exceeded (unbounded: positive-cost cycle)")
            }
        }
    }
}

/// Statically checks a cost bound over the finite LTS of `h`.
///
/// Two phases:
///
/// 1. the `(expression, activation-depth)` graph is searched for a
///    **positive-cost cycle inside an activation window** — if one is
///    reachable, the accumulated cost is unbounded and every finite
///    budget is exceeded ([`CostVerdict::Exceeded`] with no witness);
/// 2. otherwise accumulated costs are finite; an exact exploration of
///    `(expression, depth, accumulated-cost)` configurations reports the
///    worst case, or the smallest cost witnessed above the bound.
///
/// # Errors
///
/// Returns the state bound if exploration exceeds it.
pub fn check_cost_bound(
    h: &Hist,
    cb: &CostBound,
    state_bound: usize,
) -> Result<CostVerdict, usize> {
    check_cost_bound_lts(
        h.clone(),
        sufs_hexpr::semantics::successors,
        cb,
        state_bound,
    )
}

/// [`check_cost_bound`] over an arbitrary finite transition system given
/// by a successor function — e.g. the symbolic session state space of a
/// client under a plan, so quantitative bounds can gate whole
/// orchestrations.
///
/// # Errors
///
/// Returns the state bound if exploration exceeds it.
pub fn check_cost_bound_lts<K, F>(
    initial: K,
    mut succ: F,
    cb: &CostBound,
    state_bound: usize,
) -> Result<CostVerdict, usize>
where
    K: Eq + std::hash::Hash,
    F: FnMut(&K) -> Vec<(Label, K)>,
{
    // Phase 1: the (state, depth) graph, each edge labelled with its cost.
    let windows = Lts::explore((initial, 0usize), state_bound, |(state, depth)| {
        succ(state)
            .into_iter()
            .map(|(label, next)| {
                let (ndepth, cost) = match &label {
                    Label::Ev(e) if *depth > 0 => (*depth, cb.model.cost(e)),
                    Label::FrameOpen(p) | Label::Open(_, Some(p)) if p == &cb.policy => {
                        (depth + 1, 0)
                    }
                    Label::FrameClose(p) | Label::Close(_, Some(p)) if p == &cb.policy => {
                        (depth.saturating_sub(1), 0)
                    }
                    _ => (*depth, 0),
                };
                (cost, (next, ndepth))
            })
            .collect()
    })
    .map_err(|e| e.bound)?;
    if positive_cycle(&windows) {
        return Ok(CostVerdict::Exceeded { witness: None });
    }

    // Phase 2: costs are finite; explore exact (node, accumulated cost)
    // configurations over phase 1's edges. Closing the last window (an
    // edge landing at depth 0) resets the cost; a crossing above the
    // bound is not chased further, since any deeper overshoot is larger.
    let mut worst = 0u64;
    let mut witness: Option<u64> = None;
    Lts::explore((windows.initial(), 0u64), state_bound, |&(node, cost)| {
        let mut out = Vec::new();
        for &(edge_cost, to) in windows.edges(node) {
            let ncost = if windows.state(to).1 == 0 {
                0
            } else {
                cost + edge_cost
            };
            if ncost > cb.bound {
                witness = Some(witness.map_or(ncost, |w| w.min(ncost)));
            } else {
                worst = worst.max(ncost);
                out.push(((), (to, ncost)));
            }
        }
        out
    })
    .map_err(|e| e.bound)?;
    Ok(match witness {
        Some(w) => CostVerdict::Exceeded { witness: Some(w) },
        None => CostVerdict::Within { worst },
    })
}

/// Detects a cycle containing a positive-cost edge (Tarjan SCC).
fn positive_cycle<K>(graph: &Lts<K, u64>) -> bool {
    let n = graph.len();
    // Iterative Tarjan.
    let mut indexv = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut counter = 0usize;
    let mut ncomp = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new(); // (node, edge idx)
    for root in 0..n {
        if indexv[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        indexv[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei < graph.edges(v).len() {
                let (_, w) = graph.edges(v)[*ei];
                *ei += 1;
                if indexv[w] == usize::MAX {
                    indexv[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(indexv[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == indexv[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp[w] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    // A positive-cost edge within one SCC means unbounded accumulation
    // (the charging depth is part of the node, so the cycle stays in a
    // window).
    graph
        .iter_edges()
        .any(|(v, &cost, w)| cost > 0 && comp[v] == comp[w])
}

/// The incremental run-time side of [`CostBound`].
#[derive(Debug, Clone)]
pub struct CostMonitor {
    bound: CostBound,
    depth: usize,
    accumulated: u64,
}

impl CostMonitor {
    /// A monitor for one cost bound.
    pub fn new(bound: CostBound) -> Self {
        CostMonitor {
            bound,
            depth: 0,
            accumulated: 0,
        }
    }

    /// Observes one history label; returns `true` if the budget has just
    /// been exceeded.
    pub fn observe(&mut self, label: &Label) -> bool {
        match label {
            Label::Ev(e) if self.depth > 0 => {
                self.accumulated = self.accumulated.saturating_add(self.bound.model.cost(e));
            }
            Label::FrameOpen(p) | Label::Open(_, Some(p)) if p == &self.bound.policy => {
                self.depth += 1;
            }
            Label::FrameClose(p) | Label::Close(_, Some(p)) if p == &self.bound.policy => {
                self.depth = self.depth.saturating_sub(1);
                if self.depth == 0 {
                    self.accumulated = 0;
                }
            }
            _ => {}
        }
        self.accumulated > self.bound.bound
    }

    /// The currently accumulated cost.
    pub fn accumulated(&self) -> u64 {
        self.accumulated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::parse_hist;

    fn phi() -> PolicyRef {
        PolicyRef::nullary("budget")
    }

    fn bound(b: u64) -> CostBound {
        CostBound {
            policy: phi(),
            model: CostModel::new().flat("spend", 10).by_arg("charge", 0),
            bound: b,
        }
    }

    #[test]
    fn cost_model_rules() {
        let m = CostModel::new().flat("spend", 10).by_arg("charge", 0);
        assert_eq!(m.cost(&Event::nullary("spend")), 10);
        assert_eq!(m.cost(&Event::new("charge", [7i64])), 7);
        assert_eq!(m.cost(&Event::new("charge", [-5i64])), 0);
        assert_eq!(m.cost(&Event::nullary("free")), 0);
        assert_eq!(
            m.cost(&Event::new("charge", [sufs_hexpr::Value::str("x")])),
            0
        );
    }

    #[test]
    fn within_budget() {
        let h = parse_hist("frame budget [ #spend; #charge(5) ]").unwrap();
        let v = check_cost_bound(&h, &bound(20), 10_000).unwrap();
        assert_eq!(v, CostVerdict::Within { worst: 15 });
        assert!(v.is_within());
        assert!(v.to_string().contains("15"));
    }

    #[test]
    fn overshoot_detected_with_witness() {
        let h = parse_hist("frame budget [ #spend; #spend; #spend ]").unwrap();
        let v = check_cost_bound(&h, &bound(25), 10_000).unwrap();
        assert_eq!(v, CostVerdict::Exceeded { witness: Some(30) });
    }

    #[test]
    fn events_outside_the_window_are_free() {
        let h = parse_hist("#spend; #spend; frame budget [ #spend ]; #spend").unwrap();
        let v = check_cost_bound(&h, &bound(10), 10_000).unwrap();
        assert_eq!(v, CostVerdict::Within { worst: 10 });
    }

    #[test]
    fn branches_take_the_worst_case() {
        let h =
            parse_hist("frame budget [ ext[cheap -> #charge(1) | costly -> #charge(9)] ]").unwrap();
        let v = check_cost_bound(&h, &bound(8), 10_000).unwrap();
        assert_eq!(v, CostVerdict::Exceeded { witness: Some(9) });
        let v = check_cost_bound(&h, &bound(9), 10_000).unwrap();
        assert_eq!(v, CostVerdict::Within { worst: 9 });
    }

    #[test]
    fn positive_cost_cycle_is_unbounded() {
        let h = parse_hist("frame budget [ mu h. int[go -> #spend; h | stop -> eps] ]").unwrap();
        let v = check_cost_bound(&h, &bound(1000), 100_000).unwrap();
        assert_eq!(v, CostVerdict::Exceeded { witness: None });
        assert!(v.to_string().contains("unbounded"));
    }

    #[test]
    fn zero_cost_cycle_is_fine() {
        let h = parse_hist("frame budget [ mu h. int[go -> #free; h | stop -> eps] ]").unwrap();
        let v = check_cost_bound(&h, &bound(5), 100_000).unwrap();
        assert_eq!(v, CostVerdict::Within { worst: 0 });
    }

    #[test]
    fn window_resets_between_activations() {
        let h = parse_hist("frame budget [ #spend ]; frame budget [ #spend ]").unwrap();
        // Each window costs 10; never 20 at once.
        let v = check_cost_bound(&h, &bound(10), 10_000).unwrap();
        assert_eq!(v, CostVerdict::Within { worst: 10 });
    }

    #[test]
    fn session_policies_charge_too() {
        let h = parse_hist("open 1 phi budget { int[q -> eps] }; #spend").unwrap();
        // The spend is outside the session: free.
        let v = check_cost_bound(&h, &bound(0), 10_000).unwrap();
        assert!(v.is_within());
    }

    #[test]
    fn monitor_mirrors_static_check() {
        let mut m = CostMonitor::new(bound(15));
        assert!(!m.observe(&Label::FrameOpen(phi())));
        assert!(!m.observe(&Label::Ev(Event::nullary("spend"))));
        assert_eq!(m.accumulated(), 10);
        assert!(!m.observe(&Label::Ev(Event::new("charge", [5i64]))));
        assert!(m.observe(&Label::Ev(Event::new("charge", [1i64]))));
        // Closing resets.
        let mut m = CostMonitor::new(bound(15));
        m.observe(&Label::FrameOpen(phi()));
        m.observe(&Label::Ev(Event::nullary("spend")));
        m.observe(&Label::FrameClose(phi()));
        assert_eq!(m.accumulated(), 0);
        assert!(!m.observe(&Label::Ev(Event::nullary("spend"))));
    }

    #[test]
    fn state_bound_respected() {
        let h = parse_hist("frame budget [ #spend; #spend ]").unwrap();
        assert_eq!(check_cost_bound(&h, &bound(100), 2), Err(2));
    }
}
